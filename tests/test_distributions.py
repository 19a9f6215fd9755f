import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import quasijoint as qj
from quasijoint import linalg
from quasijoint.distributions import MAX_QUADRATURE_NODES, ROUND_LOOP_MAX, _distinct, _round12
from quasijoint.errors import (
    DimensionMismatchError,
    DomainError,
    QuasiJointError,
    UnsupportedSchemeError,
)

import atoms_oracle
from analytic_reference import (
    KD_Y_PLUS,
    KD_Z_MINUS,
    KD_Z_PLUS,
    SPLIT_Y_PLUS,
    SPLIT_Z,
    kirkwood_hashed_half,
    split_half_hashed,
    wigner_diagonal_half,
)
from conftest import assert_dist_matches, random_pair


def same_atoms(a, b, tol=1e-12):
    if len(a) != len(b):
        return False
    return (
        np.abs(a.points - b.points).max() <= 1e-9
        and np.abs(atoms_oracle.matrices(a) - atoms_oracle.matrices(b)).max() <= tol
    )


# ---------------------------------------------------------------------------
# scheme constructors


def test_kirkwood_word():
    spec = qj.scheme_kirkwood(3)
    assert spec.n_vars == 3
    (weight, word), = spec.terms
    assert weight == 1.0
    assert [f.var for f in word] == [0, 1, 2]
    assert [f.coeff for f in word] == [1.0, 1.0, 1.0]


def test_scheme_normalization_enforced():
    with pytest.raises(DomainError):
        qj.SchemeSpec(2, ((0.5, [qj.Factor(0, 1.0, 0), qj.Factor(1, 1.0, 1)]),))
    with pytest.raises(DomainError):
        qj.SchemeSpec(2, ((1.0, [qj.Factor(0, 0.7, 0), qj.Factor(1, 1.0, 1)]),))
    with pytest.raises(DomainError):
        qj.SchemeSpec(2, ((1.0, [qj.Factor(0, 1.0, 0), qj.Factor(5, 1.0, 1)]),))


@pytest.mark.parametrize("n_vars", [0, -1])
def test_scheme_variable_count_enforced(n_vars):
    # WignerScheme(0) used to construct and fail with an IndexError when evaluated
    for make in (lambda: qj.SchemeSpec(n_vars, ()), lambda: qj.WignerScheme(n_vars)):
        with pytest.raises(DomainError, match="n_vars"):
            make()


def test_s_alpha_degenerate_cases(spin_half):
    pair = (spin_half.j1, spin_half.j2)
    kd = qj.build_atoms(qj.scheme_kirkwood(2), pair)
    assert same_atoms(qj.build_atoms(qj.scheme_s_alpha(1.0), pair), kd)
    reversed_kd = qj.build_atoms(qj.scheme_margenau_hill(-1.0), pair)
    assert same_atoms(qj.build_atoms(qj.scheme_s_alpha(0.0), pair), reversed_kd)


def test_margenau_hill_alpha_one_is_kirkwood(spin_half):
    pair = (spin_half.j1, spin_half.j2)
    kd = qj.build_atoms(qj.scheme_kirkwood(2), pair)
    mh = qj.build_atoms(qj.scheme_margenau_hill(1.0), pair)
    assert same_atoms(mh, kd)


def test_born_jordan_single_node_is_midpoint_split(spin_half):
    pair = (spin_half.j1, spin_half.j2)
    bj1 = qj.build_atoms(qj.scheme_born_jordan(1), pair)
    split = qj.build_atoms(qj.scheme_s_alpha(0.5), pair)
    assert same_atoms(bj1, split)


def test_born_jordan_flagged_approximate():
    assert qj.scheme_born_jordan(21).approximate
    assert not qj.scheme_kirkwood(2).approximate


@pytest.mark.parametrize("nodes", [0, MAX_QUADRATURE_NODES + 1, 10**400])
def test_born_jordan_node_count_is_bounded(nodes):
    # past the cap leggauss would build a nodes x nodes companion matrix, or overflow
    with pytest.raises(DomainError, match="quadrature node"):
        qj.scheme_born_jordan(nodes)


def test_alternating_word_layout():
    spec = qj.scheme_alternating([0.25, 0.75], [1.0], first_var=0)
    (_, word), = spec.terms
    assert [(f.var, f.coeff) for f in word] == [(0, 0.25), (1, 1.0), (0, 0.75)]
    with pytest.raises(DomainError):
        qj.scheme_alternating([1.0], [0.5, 0.5], first_var=0)


# ---------------------------------------------------------------------------
# atoms


def test_kirkwood_atoms_spin_half(kd_half_atoms):
    assert len(kd_half_atoms) == 4
    corner = None
    for p, m in zip(kd_half_atoms.points, atoms_oracle.matrices(kd_half_atoms)):
        if np.abs(p - 0.5).max() <= 1e-9:
            corner = m
    expected = np.array([[1 + 1j, 1 - 1j], [1 + 1j, 1 - 1j]]) / 4
    assert np.abs(corner - expected).max() <= 1e-12
    assert kd_half_atoms.identity_defect() <= 1e-12


def marginal_operator(atoms, var, value):
    """Sum of the atoms whose coordinate ``var`` is ``value``."""
    return atoms.operator_for(np.abs(atoms.points[:, var] - value) <= linalg.COORD_TOL)


def test_atom_marginal_operators(spin_half, kd_half_atoms):
    for var, obs in ((0, spin_half.j1), (1, spin_half.j2)):
        for value, proj in zip(obs.eig.eigenvalues, atoms_oracle.projectors(obs.eig)):
            got = marginal_operator(kd_half_atoms, var, value)
            assert np.abs(got - proj).max() <= 1e-10


def test_atom_marginals_random_pairs():
    rng = np.random.default_rng(31)
    for dim in (2, 3, 4):
        a, b = random_pair(rng, dim)
        atoms = qj.build_atoms(qj.scheme_s_alpha(0.3), (a, b))
        assert atoms.identity_defect() <= 1e-10
        for var, obs in ((0, a), (1, b)):
            for value, proj in zip(obs.eig.eigenvalues, atoms_oracle.projectors(obs.eig)):
                assert np.abs(marginal_operator(atoms, var, value) - proj).max() <= 1e-10


def test_split_scheme_support(spin_half):
    atoms = qj.build_atoms(qj.scheme_s_alpha(0.5), (spin_half.j1, spin_half.j2))
    xs = sorted(set(atoms.points[:, 0]))
    assert_allclose(xs, [-0.5, 0.0, 0.5], atol=1e-12)
    ys = sorted(set(atoms.points[:, 1]))
    assert_allclose(ys, [-0.5, 0.5], atol=1e-12)


def test_single_observable_atoms_are_projectors(spin_one):
    atoms = qj.build_atoms(qj.scheme_kirkwood(1), (spin_one.j3,))
    eig = spin_one.j3.eig
    assert_allclose(atoms.points[:, 0], sorted(eig.eigenvalues), atol=1e-12)
    for p, m in zip(atoms.points, atoms_oracle.matrices(atoms)):
        idx = int(np.argmin(np.abs(eig.eigenvalues - p[0])))
        assert np.abs(m - atoms_oracle.projectors(eig)[idx]).max() <= 1e-12


def test_wigner_has_no_atoms(spin_half):
    with pytest.raises(UnsupportedSchemeError):
        qj.build_atoms(qj.WignerScheme(2), (spin_half.j1, spin_half.j2))


# ---------------------------------------------------------------------------
# distributions


def test_golden_tables(kd_half_atoms, spin_half, z_plus, z_minus, y_plus):
    split_atoms = qj.build_atoms(qj.scheme_s_alpha(0.5), (spin_half.j1, spin_half.j2))
    assert_dist_matches(qj.evaluate_distribution(kd_half_atoms, z_plus), KD_Z_PLUS, 1e-12)
    assert_dist_matches(qj.evaluate_distribution(kd_half_atoms, z_minus), KD_Z_MINUS, 1e-12)
    assert_dist_matches(qj.evaluate_distribution(kd_half_atoms, y_plus), KD_Y_PLUS, 1e-12)
    assert_dist_matches(qj.evaluate_distribution(split_atoms, z_plus), SPLIT_Z, 1e-12)
    assert_dist_matches(qj.evaluate_distribution(split_atoms, z_minus), SPLIT_Z, 1e-12)
    assert_dist_matches(qj.evaluate_distribution(split_atoms, y_plus), SPLIT_Y_PLUS, 1e-12)


def test_maximally_mixed_kirkwood(kd_half_atoms):
    dist = qj.evaluate_distribution(kd_half_atoms, qj.DensityState.maximally_mixed(2))
    assert_dist_matches(dist, {p: 0.25 for p in KD_Z_PLUS}, 1e-12)


def test_spin_one_center_weight_vanishes(kd_one_atoms):
    rng = np.random.default_rng(8)
    for _ in range(20):
        dist = qj.evaluate_distribution(kd_one_atoms, qj.random_density(3, rng))
        assert abs(dist.weight_at([0.0, 0.0])) <= 1e-12


def test_weights_sum_to_one_random():
    rng = np.random.default_rng(77)
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        pair = random_pair(rng, dim)
        spec = (
            qj.scheme_kirkwood(2)
            if rng.integers(2)
            else qj.scheme_margenau_hill(rng.uniform(-1, 1))
        )
        dist = qj.evaluate_distribution(
            qj.build_atoms(spec, pair), qj.random_density(dim, rng)
        )
        assert abs(dist.total() - 1.0) <= 1e-10


def test_dimension_mismatch(kd_half_atoms):
    with pytest.raises(DimensionMismatchError):
        qj.evaluate_distribution(kd_half_atoms, qj.DensityState.maximally_mixed(3))


# ---------------------------------------------------------------------------
# marginals


def test_marginal_examples(kd_half_atoms, z_plus, y_plus):
    dist = qj.evaluate_distribution(kd_half_atoms, z_plus)
    mx = qj.marginal(dist, 0)
    assert abs(mx.weight_at([0.5]) - 0.5) <= 1e-12
    assert abs(mx.weight_at([-0.5]) - 0.5) <= 1e-12
    my = qj.marginal(qj.evaluate_distribution(kd_half_atoms, y_plus), 1)
    assert abs(my.weight_at([0.5]) - 1.0) <= 1e-12
    with pytest.raises(IndexError):
        qj.marginal(dist, 2)


def test_marginal_identity_on_one_variable(spin_one):
    born = qj.born_distribution(spin_one.j3, qj.DensityState.maximally_mixed(3))
    again = qj.marginal(born, 0)
    assert qj.max_weight_deviation(born, again) <= 1e-15


def test_born_accepts_trace_within_state_tolerance(spin_half):
    rho = qj.DensityState(np.diag([0.5 + 5e-11, 0.5]))
    born_z = qj.born_distribution(spin_half.j3, rho)
    assert np.array_equal(born_z.weights, [0.5, 0.5 + 5e-11])
    born_x = qj.born_distribution(spin_half.j1, rho)
    assert abs(born_x.total() - (1.0 + 5e-11)) <= 1e-15
    assert np.abs(born_x.weights - (1.0 + 5e-11) / 2).max() <= 1e-15


def test_marginals_match_born_random():
    rng = np.random.default_rng(404)
    schemes = [
        lambda: qj.scheme_kirkwood(2),
        lambda: qj.scheme_s_alpha(rng.uniform(-0.5, 1.5)),
        lambda: qj.scheme_margenau_hill(rng.uniform(-1, 1)),
        lambda: qj.scheme_born_jordan(201),
    ]
    for trial in range(200):
        dim = int(rng.integers(2, 6))
        pair = random_pair(rng, dim)
        spec = schemes[trial % len(schemes)]()
        atoms = qj.build_atoms(spec, pair)
        rho = qj.random_density(dim, rng)
        dist = qj.evaluate_distribution(atoms, rho)
        for var, obs in enumerate(pair):
            marg = qj.marginal(dist, var)
            assert marg.max_imag() <= 1e-10
            born = qj.born_distribution(obs, rho)
            assert qj.max_weight_deviation(marg, born) <= 1e-9


def test_three_variable_engine():
    rng = np.random.default_rng(505)
    obs = tuple(
        qj.HermitianObservable(qj.random_hermitian(2, rng), f"A{k}") for k in range(3)
    )
    atoms = qj.build_atoms(qj.scheme_kirkwood(3), obs)
    assert atoms.points.shape[1] == 3
    assert atoms.identity_defect() <= 1e-10
    rho = qj.random_density(2, rng)
    dist = qj.evaluate_distribution(atoms, rho)
    assert abs(dist.total() - 1.0) <= 1e-10
    assert qj.verify_support(dist, obs).ok
    for var, o in enumerate(obs):
        dev = qj.max_weight_deviation(
            qj.marginal(dist, var), qj.born_distribution(o, rho)
        )
        assert dev <= 1e-10


def test_born_examples(spin_half, spin_one, z_plus):
    d = qj.born_distribution(spin_half.j3, z_plus)
    assert abs(d.weight_at([0.5]) - 1.0) <= 1e-12
    assert abs(d.weight_at([-0.5])) <= 1e-12
    d = qj.born_distribution(spin_half.j1, z_plus)
    assert abs(d.weight_at([0.5]) - 0.5) <= 1e-12
    assert abs(d.weight_at([-0.5]) - 0.5) <= 1e-12
    d = qj.born_distribution(spin_one.j3, qj.DensityState.maximally_mixed(3))
    for value in (1.0, 0.0, -1.0):
        assert abs(d.weight_at([value]) - 1 / 3) <= 1e-12


def test_born_weights_of_a_state_at_the_positivity_slack(spin_half):
    # DensityState accepts eigenvalues down to -POSITIVITY_SLACK; the Born
    # weights are the real diagonal sums, with no second check
    rho = qj.DensityState(np.diag([1 + 5e-10, -5e-10]))
    d = qj.born_distribution(spin_half.j3, rho)
    assert np.array_equal(d.points, [[-0.5], [0.5]])
    assert np.array_equal(d.weights, [-5e-10, 1 + 5e-10])


# ---------------------------------------------------------------------------
# quantization and duality


def test_quantize_examples(spin_half, kd_half_atoms):
    assert np.abs(qj.quantize(lambda x, y: 1.0, kd_half_atoms) - np.eye(2)).max() <= 1e-12
    assert np.abs(
        qj.quantize(lambda x, y: x, kd_half_atoms) - spin_half.j1.matrix
    ).max() <= 1e-12
    product = qj.quantize(lambda x, y: x * y, kd_half_atoms)
    assert np.abs(product - 0.5j * spin_half.j3.matrix).max() <= 1e-12


def test_quasi_expectation_examples(kd_half_atoms, z_plus, y_plus):
    dist = qj.evaluate_distribution(kd_half_atoms, y_plus)
    assert abs(qj.quasi_expectation(lambda x, y: 1.0, dist) - 1.0) <= 1e-12
    assert abs(qj.quasi_expectation(lambda x, y: y, dist) - 0.5) <= 1e-12
    dist = qj.evaluate_distribution(kd_half_atoms, z_plus)
    assert abs(qj.quasi_expectation(lambda x, y: x * y, dist) - 0.25j) <= 1e-12


def test_duality_random_polynomials():
    rng = np.random.default_rng(55)
    monomials = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
    for trial in range(30):
        dim = int(rng.integers(2, 4))
        pair = random_pair(rng, dim)
        spec = [
            qj.scheme_kirkwood(2),
            qj.scheme_s_alpha(rng.uniform(0, 1)),
            qj.scheme_margenau_hill(rng.uniform(-1, 1)),
        ][trial % 3]
        atoms = qj.build_atoms(spec, pair)
        rho = qj.random_density(dim, rng)
        dist = qj.evaluate_distribution(atoms, rho)
        coeffs = rng.normal(size=len(monomials))

        def poly(x, y):
            return sum(c * x**i * y**j for c, (i, j) in zip(coeffs, monomials))

        classical = qj.quasi_expectation(poly, dist)
        operator = qj.quantize(poly, atoms)
        quantum_side = np.trace(operator @ rho.matrix)
        assert abs(classical - quantum_side) <= 1e-10


# ---------------------------------------------------------------------------
# characteristic functions


def test_characteristic_at_zero(spin_half):
    rho = qj.bloch_state(0.7, 0.3, 0.9)
    for spec in (qj.scheme_kirkwood(2), qj.WignerScheme(2)):
        val = qj.characteristic_function(
            spec, (spin_half.j1, spin_half.j2), rho, [[0.0, 0.0]]
        )[0]
        assert abs(val - 1.0) <= 1e-12


def test_kirkwood_hashed_matches_closed_form(spin_half):
    rng = np.random.default_rng(6)
    pair = (spin_half.j1, spin_half.j2)
    spec = qj.scheme_kirkwood(2)
    pts = rng.uniform(-7, 7, size=(10, 2))
    kd = atoms_oracle.mixture(spec, pair, pts)
    split = atoms_oracle.mixture(qj.scheme_s_alpha(0.5), pair, pts)
    for (s, t), h_kd, h_split in zip(pts, kd, split):
        assert np.abs(h_kd - kirkwood_hashed_half(s, t)).max() <= 1e-12
        assert np.abs(h_split - split_half_hashed(s, t)).max() <= 1e-12


def test_wigner_characteristic_z_states(spin_half, z_plus, z_minus):
    pair = (spin_half.j1, spin_half.j2)
    pts = np.array([[0.5, -1.0], [3.0, 2.0], [-6.0, 7.5]])
    for rho in (z_plus, z_minus):
        got = qj.characteristic_function(qj.WignerScheme(2), pair, rho, pts)
        want = np.array([wigner_diagonal_half(s, t) for s, t in pts])
        assert np.abs(got - want).max() <= 1e-12


def test_characteristic_matches_atom_fourier_sum():
    rng = np.random.default_rng(909)
    for dim, spec in (
        (2, qj.scheme_kirkwood(2)),
        (3, qj.scheme_margenau_hill(0.4)),
        (3, qj.scheme_born_jordan(201)),
    ):
        pair = random_pair(rng, dim)
        atoms = qj.build_atoms(spec, pair)
        rho = qj.random_density(dim, rng)
        dist = qj.evaluate_distribution(atoms, rho, prune_tol=0.0)
        pts = rng.uniform(-8, 8, size=(50, 2))
        direct = qj.characteristic_function(spec, pair, rho, pts)
        from_atoms = dist.characteristic(pts)
        assert np.abs(direct - from_atoms).max() <= 1e-9


@pytest.mark.parametrize(
    "point", [[float("nan"), 1.0], [float("inf"), 0.0], [0.5, -float("inf")]], ids=str
)
@pytest.mark.parametrize(
    "spec",
    [qj.scheme_kirkwood(2), qj.scheme_born_jordan(5), qj.WignerScheme(2)],
    ids=lambda spec: spec.label,
)
def test_non_finite_frequencies_are_rejected(spin_half, spec, point):
    # NaN used to come back silently, inf after "invalid value" warnings
    pair = (spin_half.j1, spin_half.j2)
    rho = qj.bloch_state(0.7, 0.3, 0.9)
    pts = [[0.0, 0.0], point]
    with pytest.raises(DomainError, match="point 1 is not finite"):
        qj.characteristic_function(spec, pair, rho, pts)
    if not isinstance(spec, qj.WignerScheme):
        dist = qj.evaluate_distribution(qj.build_atoms(spec, pair), rho)
        with pytest.raises(DomainError, match="point 1 is not finite"):
            dist.characteristic(pts)


# ---------------------------------------------------------------------------
# structural invariances


def test_scaling_invariance(spin_half):
    rng = np.random.default_rng(13)
    rho = qj.random_density(2, rng)
    pair = (spin_half.j1, spin_half.j2)
    scaled = (
        qj.HermitianObservable(2.5 * spin_half.j1.matrix, "2.5*J1"),
        spin_half.j2,
    )
    spec = qj.scheme_kirkwood(2)
    base = qj.evaluate_distribution(qj.build_atoms(spec, pair), rho)
    wide = qj.evaluate_distribution(qj.build_atoms(spec, scaled), rho)
    for p, w in zip(base.points, base.weights):
        assert abs(wide.weight_at([2.5 * p[0], p[1]]) - w) <= 1e-10


def test_translation_invariance(spin_half):
    rng = np.random.default_rng(14)
    rho = qj.random_density(2, rng)
    spec = qj.scheme_kirkwood(2)
    pair = (spin_half.j1, spin_half.j2)
    shifted = (
        qj.HermitianObservable(spin_half.j1.matrix + np.eye(2), "J1+I"),
        spin_half.j2,
    )
    base = qj.evaluate_distribution(qj.build_atoms(spec, pair), rho)
    moved = qj.evaluate_distribution(qj.build_atoms(spec, shifted), rho)
    for p, w in zip(base.points, base.weights):
        assert abs(moved.weight_at([p[0] + 1.0, p[1]]) - w) <= 1e-10


def test_unitary_invariance():
    rng = np.random.default_rng(15)
    for dim in (2, 3):
        pair = random_pair(rng, dim)
        rho = qj.random_density(dim, rng)
        u = np.linalg.qr(
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        )[0]
        conj_pair = tuple(
            qj.HermitianObservable(u @ o.matrix @ u.conj().T, o.label + "'")
            for o in pair
        )
        conj_rho = qj.DensityState(u @ rho.matrix @ u.conj().T)
        spec = qj.scheme_kirkwood(2)
        base = qj.evaluate_distribution(qj.build_atoms(spec, pair), rho, prune_tol=0.0)
        moved = qj.evaluate_distribution(
            qj.build_atoms(spec, conj_pair), conj_rho, prune_tol=0.0
        )
        key = lambda ws: np.sort_complex(np.round(ws, 10))
        assert np.abs(key(base.weights) - key(moved.weights)).max() <= 1e-10


def test_hermitian_atoms_give_real_weights(spin_half):
    rng = np.random.default_rng(16)
    pair = (spin_half.j1, spin_half.j2)
    for spec in (qj.scheme_margenau_hill(0.0), qj.scheme_s_alpha(0.5)):
        atoms = qj.build_atoms(spec, pair)
        assert atoms_oracle.hermiticity_defect(atoms_oracle.matrices(atoms)) <= 1e-10
        for _ in range(20):
            dist = qj.evaluate_distribution(atoms, qj.random_density(2, rng))
            assert dist.max_imag() <= 1e-10


def test_wigner_frequencies_past_the_float_range(spin_half, spin_one):
    # s.A has eigenvalues +-0.5 sqrt(2) max|s_v| on spin-1/2, finite, and
    # +-sqrt(2) max|s_v| on spin-1, beyond the float range
    pts = [[0.0, 0.0], [1.7e308, 1.7e308]]
    chi = qj.characteristic_function(
        qj.WignerScheme(2), (spin_half.j1, spin_half.j2), qj.bloch_state(0.7, 0.3, 0.9), pts
    )
    assert np.isfinite(chi).all() and np.abs(chi).max() <= 1 + 1e-12
    rho = qj.random_density(3, np.random.default_rng(2))
    with pytest.raises(DomainError, match="point 1: s.A has an eigenvalue beyond the float range"):
        qj.characteristic_function(qj.WignerScheme(2), (spin_one.j1, spin_one.j2), rho, pts)


@pytest.mark.parametrize(
    "spec",
    [qj.scheme_kirkwood(2), qj.scheme_born_jordan(5), qj.WignerScheme(2)],
    ids=lambda spec: spec.label,
)
def test_characteristic_of_no_points_is_empty(spin_half, spec):
    # product schemes used to fail reshaping an empty contraction
    rho = qj.bloch_state(0.7, 0.3, 0.9)
    got = qj.characteristic_function(spec, (spin_half.j1, spin_half.j2), rho, np.empty((0, 2)))
    assert got.shape == (0,) and got.dtype == complex


def test_wigner_density_estimate_smoke(spin_half, z_plus):
    density, meta = qj.wigner_density_estimate(
        (spin_half.j1, spin_half.j2),
        z_plus,
        np.linspace(-1, 1, 5),
        np.linspace(-1, 1, 5),
        s_extent=10.0,
        s_steps=41,
    )
    assert density.shape == (5, 5)
    assert np.isfinite(density).all()
    assert meta["approximate"] and meta["possibly_divergent"]


def _wigner_density(spin_half, z_plus, **window):
    grid = np.linspace(-1, 1, 3)
    return qj.wigner_density_estimate((spin_half.j1, spin_half.j2), z_plus, grid, grid, **window)


@pytest.mark.parametrize("s_steps", [0, 1])
def test_wigner_density_rejects_fewer_than_two_steps(spin_half, z_plus, s_steps):
    # one step leaves no grid spacing, zero steps no grid
    with pytest.raises(DomainError, match="s_steps"):
        _wigner_density(spin_half, z_plus, s_steps=s_steps)


def test_wigner_density_rejects_fractional_steps(spin_half, z_plus):
    with pytest.raises(DomainError, match="s_steps must be an integer"):
        _wigner_density(spin_half, z_plus, s_steps=11.5)
    density, meta = _wigner_density(spin_half, z_plus, s_steps=11.0)
    assert density.shape == (3, 3) and meta["s_steps"] == 11


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_wigner_density_rejects_non_finite_grids(spin_half, z_plus, bad):
    # a NaN grid value used to give a NaN row
    pair, good = (spin_half.j1, spin_half.j2), np.linspace(-1, 1, 3)
    with pytest.raises(DomainError, match="x_grid"):
        qj.wigner_density_estimate(pair, z_plus, [0.0, bad], good)
    with pytest.raises(DomainError, match="y_grid"):
        qj.wigner_density_estimate(pair, z_plus, good, [bad, 0.0])


def test_wigner_density_rejects_grids_not_one_dimensional(spin_half, z_plus):
    pair, good = (spin_half.j1, spin_half.j2), np.linspace(-1, 1, 3)
    with pytest.raises(DimensionMismatchError, match="x_grid"):
        qj.wigner_density_estimate(pair, z_plus, good.reshape(3, 1), good)
    with pytest.raises(DimensionMismatchError, match="y_grid"):
        qj.wigner_density_estimate(pair, z_plus, good, 0.5)


@pytest.mark.parametrize("s_extent", [0.0, float("nan"), float("inf"), -10.0])
def test_wigner_density_rejects_extent_not_finite_and_positive(spin_half, z_plus, s_extent):
    # a zero extent makes a zero-width window: 0/0 in the Gaussian
    with pytest.raises(DomainError, match="s_extent"):
        _wigner_density(spin_half, z_plus, s_extent=s_extent)


def test_identity_gate_rejects_nan_defect(spin_half, monkeypatch):
    monkeypatch.setattr(qj.OperatorAtomSet, "identity_defect", lambda self: float("nan"))
    with pytest.raises(QuasiJointError, match="identity defect"):
        qj.build_atoms(qj.scheme_kirkwood(2), (spin_half.j1, spin_half.j2))


def test_identity_gate_puts_back_dropped_atoms_on_a_large_spin_pair():
    # born_jordan(5) on spin-59/2 (N = 60) has 431940 atoms, and the prune drops
    # 3508 of them, each below ROUNDING_TOL; their sum misses the identity by
    # 1.12e-10 > DEFECT_TOL, so the largest are put back until the gate passes
    spin = qj.spin_operators(59)
    obs = (spin.j1, spin.j2)
    atoms = qj.build_atoms(qj.scheme_born_jordan(5), obs)
    assert atoms.identity_defect() <= linalg.DEFECT_TOL
    assert 431940 - 3508 < len(atoms) < 431940
    rho = qj.random_density(60, np.random.default_rng(59))
    dist = qj.evaluate_distribution(atoms, rho)
    for v, o in enumerate(obs):
        assert qj.max_weight_deviation(qj.marginal(dist, v), qj.born_distribution(o, rho)) <= 1e-9


def test_identity_gate_puts_nothing_back_where_the_prune_passes():
    # on spin-57/2 the prune alone passes the gate: its 390166 - 6268 atoms stay as they are
    spin = qj.spin_operators(57)
    atoms = qj.build_atoms(qj.scheme_born_jordan(5), (spin.j1, spin.j2))
    assert len(atoms) == 383898
    assert atoms.identity_defect() <= linalg.DEFECT_TOL


READERS = {
    "marginal": lambda dist, obs: qj.marginal(dist, 0),
    "verify_support": lambda dist, obs: qj.verify_support(dist, obs),
    "max_weight_deviation": lambda dist, obs: qj.max_weight_deviation(dist, dist),
    "characteristic": lambda dist, obs: dist.characteristic([0.5, -0.5]),
    "quasi_expectation": lambda dist, obs: qj.quasi_expectation(lambda x, y: x * y, dist),
    "is_real": lambda dist, obs: qj.is_real(dist),
}
MALFORMED = {
    "short-weights": lambda dist: (dist.points, dist.weights[:-1]),
    "one-coordinate-points": lambda dist: (dist.points[:, :1], dist.weights),
}


@pytest.mark.parametrize("malform", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
def test_malformed_distribution_reaches_no_reader(spin_one, read, malform):
    # points must be (M, n_vars) and weights (M,): a mismatch is refused at
    # construction, before a reader broadcasts it or reads past it
    obs = (spin_one.j1, spin_one.j2)
    atoms = qj.build_atoms(qj.scheme_kirkwood(2), obs)
    dist = qj.evaluate_distribution(atoms, qj.DensityState.maximally_mixed(3))
    with pytest.raises(DimensionMismatchError, match="needs points"):
        read(qj.QuasiDistribution(2, *malform(dist), dist.meta), obs)


# few values, so entries repeat; 0.0 and -0.0 compare equal, and which one
# stands for both depends on the sort
POOL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, 1e-12, -3.5, 7.0, 1e300])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.one_of(POOL, st.floats(-1e3, 1e3)), max_size=60), stride=st.integers(1, 3))
def test_distinct_is_numpys_unique(values, stride):
    # charfunc axes, marginals and support indexes read a column, a strided view
    column = np.repeat(np.array(values, dtype=float), stride).reshape(-1, stride)[:, 0]
    got, got_inverse = _distinct(column)
    want, want_inverse = np.unique(column, return_inverse=True)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(got_inverse, want_inverse)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    values=st.lists(
        st.one_of(
            st.floats(-5e3, 5e3),
            # half-integer multiples of 1e-12 and their neighbours: ties and near-ties
            st.builds(lambda k, d: (k + 0.5) * 1e-12 + d, st.integers(-10**6, 10**6),
                      st.sampled_from([0.0, 1e-28, -1e-28])),
            st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 4503.599627370496, 0.0, -0.0, 5e-324]),
        ),
        max_size=3 * ROUND_LOOP_MAX,
    )
)
def test_round12_is_pythons_round(values):
    # both sides of the loop's size limit: Python's round one by one, and the vectorized rounding
    x = np.array(values, dtype=float)
    got = _round12(x)
    want = np.array([round(v, 12) for v in values], dtype=float)
    assert np.array_equal(got, want, equal_nan=True) and np.array_equal(np.signbit(got), np.signbit(want))
