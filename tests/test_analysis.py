import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import quasijoint as qj
from quasijoint import analysis
from quasijoint.errors import (
    DimensionMismatchError,
    DomainError,
    RankDeficientError,
    SupportMismatchError,
)

from analytic_reference import (
    KD_ONE_COEFF_ORDER,
    KD_ONE_MAP,
    KD_ONE_RE_SHIFTS,
    three_level_params,
)
from conftest import random_alternating_scheme, random_pair
from test_atom_factors import _forbid_dense_atoms
from tomography_oracle import hermitian_unknowns, stacked_coefficients


def reducible_pair():
    a = qj.HermitianObservable(
        np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex), "A_red"
    )
    b = qj.HermitianObservable(
        np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]), "B_red"
    )
    return a, b


def rotated_pair(spin, phi):
    a = qj.HermitianObservable(
        np.cos(phi) * spin.j3.matrix + np.sin(phi) * spin.j1.matrix, f"J3cos+J1sin({phi:g})"
    )
    return a, spin.j3


# ---------------------------------------------------------------------------
# support and realness


def test_support_kirkwood_z_plus(kd_half_atoms, spin_half, z_plus):
    dist = qj.evaluate_distribution(kd_half_atoms, z_plus)
    report = qj.verify_support(dist, (spin_half.j1, spin_half.j2))
    assert report.ok and report.offending.shape == (0, 2) and report.weights.shape == (0,)


def test_support_split_y_plus(spin_half, y_plus):
    atoms = qj.build_atoms(qj.scheme_s_alpha(0.5), (spin_half.j1, spin_half.j2))
    dist = qj.evaluate_distribution(atoms, y_plus)
    report = qj.verify_support(dist, (spin_half.j1, spin_half.j2))
    assert not report.ok
    points = sorted(map(tuple, report.offending.tolist()))
    assert_allclose(points, [(0.0, -0.5), (0.0, 0.5)], atol=1e-12)


def test_support_random_kirkwood_brute_force():
    rng = np.random.default_rng(40)
    for dim in (2, 3, 4):
        pair = random_pair(rng, dim)
        atoms = qj.build_atoms(qj.scheme_kirkwood(2), pair)
        grids = [np.linalg.eigvalsh(o.matrix) for o in pair]
        for _ in range(20):
            dist = qj.evaluate_distribution(atoms, qj.random_density(dim, rng))
            assert qj.verify_support(dist, pair).ok
            # independent check straight against the eigenvalue grids
            for p, w in zip(dist.points, dist.weights):
                if abs(w) > 1e-10:
                    for v in range(2):
                        assert np.abs(grids[v] - p[v]).min() <= 1e-9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("big_first", [True, False])
@pytest.mark.parametrize(
    "spec, on_grid",
    [(qj.scheme_kirkwood(2), True), (qj.scheme_s_alpha(0.25), False), (qj.scheme_margenau_hill(0.3), True)],
    ids=["kirkwood", "s_alpha-0.25", "margenau-hill-0.3"],
)
def test_spectra_near_the_float_range_raise_no_warning(spec, on_grid, big_first):
    # eigenvalues +-1.41e308: gaps and distances between them overflow to
    # inf, which compares as the large value it stands for
    big = qj.HermitianObservable(np.array([[1e308, 1e308], [1e308, -1e308]]), "H")
    j2 = qj.spin_operators(1).j2
    obs = (big, j2) if big_first else (j2, big)
    rho = qj.bloch_state(1.1, 0.4, 0.9)
    dist = qj.evaluate_distribution(qj.build_atoms(spec, obs), rho)
    assert len(dist) == (4 if on_grid else 8)
    assert qj.verify_support(dist, obs).ok == on_grid
    for v, o in enumerate(obs):
        assert qj.max_weight_deviation(qj.marginal(dist, v), qj.born_distribution(o, rho)) <= 1e-12
    # every point is 2.8e308 from its mirror image, on the big observable's axis
    for p, w in zip(dist.points, dist.weights):
        assert dist.weight_at(p) == w


def test_is_real_examples(kd_half_atoms, z_plus, y_plus):
    assert not qj.is_real(qj.evaluate_distribution(kd_half_atoms, z_plus))
    assert qj.is_real(qj.evaluate_distribution(kd_half_atoms, y_plus))
    rng = np.random.default_rng(41)
    for _ in range(20):
        state = qj.bloch_state(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), 0.5)
        assert qj.is_real(qj.evaluate_distribution(kd_half_atoms, state))


def test_scheme_realness(spin_half):
    pair = (spin_half.j1, spin_half.j2)
    assert qj.scheme_is_real(qj.scheme_margenau_hill(0.0), pair)
    assert qj.scheme_is_real(qj.scheme_s_alpha(0.5), pair)
    assert not qj.scheme_is_real(qj.scheme_kirkwood(2), pair)
    assert not qj.scheme_is_real(qj.scheme_margenau_hill(0.5), pair)
    assert qj.scheme_is_real(qj.WignerScheme(2), pair)


def test_scheme_realness_commuting_pair():
    rng = np.random.default_rng(42)
    h = qj.random_hermitian(3, rng)
    a = qj.HermitianObservable(h, "A")
    b = qj.HermitianObservable(h @ h, "A^2")
    assert qj.scheme_is_real(qj.scheme_kirkwood(2), (a, b))


def test_diag_equality(spin_half):
    pair = (spin_half.j1, spin_half.j2)
    assert qj.diag_equality_check(qj.scheme_s_alpha(0.5), pair)
    assert qj.diag_equality_check(qj.scheme_margenau_hill(0.0), pair)
    assert not qj.diag_equality_check(qj.scheme_kirkwood(2), pair)


def test_diag_equality_needs_two_levels(spin_one):
    with pytest.raises(DomainError):
        qj.diag_equality_check(qj.scheme_kirkwood(2), (spin_one.j1, spin_one.j2))


def test_diag_equality_checks_observable_count(spin_half):
    with pytest.raises(DimensionMismatchError):
        qj.diag_equality_check(qj.scheme_kirkwood(2), ())
    with pytest.raises(DimensionMismatchError):
        qj.diag_equality_check(qj.WignerScheme(2), (spin_half.j1,))


# ---------------------------------------------------------------------------
# reconstruction


def test_ranks(spin_half, spin_one):
    kd = qj.scheme_kirkwood(2)
    assert qj.reconstruction_map(spin_half.j1, spin_half.j2, kd).rank == 3
    assert qj.reconstruction_map(spin_one.j1, spin_one.j2, kd).rank == 8
    assert qj.reconstruction_map(spin_half.j1, spin_half.j2, qj.scheme_s_alpha(0.5)).rank == 2
    assert qj.reconstruction_map(*reducible_pair(), kd).rank < 8


def test_rotated_pair_ranks(spin_half, spin_one):
    kd = qj.scheme_kirkwood(2)
    assert qj.reconstruction_map(*rotated_pair(spin_half, np.pi / 3), kd).rank == 3
    assert qj.reconstruction_map(*rotated_pair(spin_one, np.pi / 4), kd).rank == 8
    assert qj.reconstruction_map(*rotated_pair(spin_one, np.pi), kd).rank < 8


def test_map_is_affine(spin_one, kd_one_atoms):
    rng = np.random.default_rng(50)
    rmap = qj.reconstruction_map(spin_one.j1, spin_one.j2, qj.scheme_kirkwood(2))
    for _ in range(10):
        rho1 = qj.random_density(3, rng)
        rho2 = qj.random_density(3, rng)
        lam = rng.uniform()
        mix = qj.DensityState(lam * rho1.matrix + (1 - lam) * rho2.matrix)
        left = stacked_coefficients(rmap.atoms, mix.matrix)
        right = lam * stacked_coefficients(rmap.atoms, rho1.matrix)
        right += (1 - lam) * stacked_coefficients(rmap.atoms, rho2.matrix)
        assert np.abs(left - right).max() <= 1e-11
        predicted = rmap.map_matrix @ hermitian_unknowns(mix.matrix)
        assert np.abs(predicted - left).max() <= 1e-10


def test_map_matches_reference_matrix(spin_one):
    """Engine coefficients agree with the hand-derived affine map at spin 1."""
    rng = np.random.default_rng(51)
    rmap = qj.reconstruction_map(spin_one.j1, spin_one.j2, qj.scheme_kirkwood(2))
    for _ in range(20):
        rho = qj.random_density(3, rng)
        a, b, c, d, f, g, h, k = three_level_params(rho.matrix)
        stacked = KD_ONE_MAP @ np.array([a, g, b, c, d, f, h, k])
        dist = qj.evaluate_distribution(rmap.atoms, rho, prune_tol=0.0)
        for idx, point in enumerate(KD_ONE_COEFF_ORDER):
            w = dist.weight_at(point)
            assert abs((w.real - KD_ONE_RE_SHIFTS[idx]) - stacked[2 * idx]) <= 1e-11
            assert abs(w.imag - stacked[2 * idx + 1]) <= 1e-11


def test_reconstruct_named_states(spin_half, spin_one, z_plus):
    rmap2 = qj.reconstruction_map(spin_half.j1, spin_half.j2, qj.scheme_kirkwood(2))
    dist = qj.evaluate_distribution(rmap2.atoms, z_plus)
    rec = qj.reconstruct_state(rmap2, dist)
    assert np.abs(rec.matrix - np.diag([1.0, 0.0])).max() <= 1e-12

    rmap3 = qj.reconstruction_map(spin_one.j1, spin_one.j2, qj.scheme_kirkwood(2))
    mixed = qj.DensityState.maximally_mixed(3)
    rec = qj.reconstruct_state(rmap3, qj.evaluate_distribution(rmap3.atoms, mixed))
    assert np.abs(rec.matrix - np.eye(3) / 3).max() <= 1e-12


def test_reconstruct_round_trip(spin_half, spin_one, monkeypatch):
    # the map, the weights and the inversion read the atoms through their cells
    _forbid_dense_atoms(monkeypatch)
    rng = np.random.default_rng(52)
    for spin in (spin_half, spin_one):
        rmap = qj.reconstruction_map(spin.j1, spin.j2, qj.scheme_kirkwood(2))
        for _ in range(50):
            rho = qj.random_density(spin.dim, rng)
            dist = qj.evaluate_distribution(rmap.atoms, rho)
            rec = qj.reconstruct_state(rmap, dist)
            assert np.abs(rec.matrix - rho.matrix).max() <= 1e-9


def test_reconstruct_requires_full_rank(spin_half, z_plus):
    rmap = qj.reconstruction_map(spin_half.j1, spin_half.j2, qj.scheme_s_alpha(0.5))
    dist = qj.evaluate_distribution(rmap.atoms, z_plus)
    with pytest.raises(RankDeficientError):
        qj.reconstruct_state(rmap, dist)


def test_reconstruct_rejects_foreign_support(spin_half, z_plus):
    rmap = qj.reconstruction_map(spin_half.j1, spin_half.j2, qj.scheme_kirkwood(2))
    bogus = qj.QuasiDistribution(
        2, np.array([[0.25, 0.5]]), np.array([0.5 + 0j]), {}
    )
    with pytest.raises(SupportMismatchError):
        qj.reconstruct_state(rmap, bogus)


def _one_variable(dist):
    return qj.marginal(dist, 0)


def _three_variables(dist):
    points = np.column_stack([dist.points, dist.points[:, 0]])
    return qj.QuasiDistribution(3, points, dist.weights, dist.meta)


def _short_weights(dist):
    return qj.QuasiDistribution(2, dist.points, dist.weights[:-1], dist.meta)


def _with_weight(value):
    def make(dist):
        weights = dist.weights.copy()
        weights[1] = value
        return qj.QuasiDistribution(2, dist.points, weights, dist.meta)

    return make


@pytest.mark.parametrize(
    "make, error, match",
    [
        (_one_variable, DimensionMismatchError, "1 variables, the map 2"),
        (_three_variables, DimensionMismatchError, "3 variables, the map 2"),
        (_short_weights, DimensionMismatchError, r"got \(4, 2\) and \(3,\)"),
        (_with_weight(np.nan), DomainError, "not finite"),
        (_with_weight(complex(0.1, np.inf)), DomainError, "not finite"),
    ],
    ids=["one-variable", "three-variable", "short-weights", "nan-weight", "inf-weight"],
)
def test_reconstruct_checks_its_input(spin_half, z_plus, make, error, match):
    rmap = qj.reconstruction_map(spin_half.j1, spin_half.j2, qj.scheme_kirkwood(2))
    dist = qj.evaluate_distribution(rmap.atoms, z_plus, prune_tol=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a malformed distribution may already fail to construct
        with pytest.raises(error, match=match):
            qj.reconstruct_state(rmap, make(dist))


def test_reconstruct_own_support_skips_the_matcher(spin_one, monkeypatch):
    def no_index(support):
        raise AssertionError("own-support distribution went through the support index")

    monkeypatch.setattr(analysis, "_SupportIndex", no_index)
    rng = np.random.default_rng(61)
    maps = [
        ("closed_form", qj.reconstruction_map(*random_pair(rng, 3), qj.scheme_kirkwood(2))),
        ("blocks", qj.reconstruction_map(*random_pair(rng, 4), qj.scheme_s_alpha(0.25))),
        ("svd", qj.reconstruction_map(spin_one.j1, spin_one.j2, qj.scheme_kirkwood(2))),
    ]
    for route, rmap in maps:
        assert rmap.diagnostics["inversion"] == route
        rho = qj.random_density(rmap.dim, rng)
        dist = qj.evaluate_distribution(rmap.atoms, rho, prune_tol=0.0)
        weights = dist.weights.copy()
        rec = qj.reconstruct_state(rmap, dist)
        assert np.abs(rec.matrix - rho.matrix).max() <= 1e-9
        assert "_support_index" not in vars(rmap)
        assert np.array_equal(dist.weights, weights)


def test_reconstruct_own_support_real_weights():
    # the block route reads Re and Im through a float view of the weights
    rng = np.random.default_rng(63)
    rmap = qj.reconstruction_map(*random_pair(rng, 4), qj.scheme_s_alpha(0.25))
    assert rmap.diagnostics["inversion"] == "blocks"
    mixed = qj.DensityState.maximally_mixed(rmap.dim)
    dist = qj.evaluate_distribution(rmap.atoms, mixed, prune_tol=0.0)
    assert dist.max_imag() <= 1e-15
    real = qj.QuasiDistribution(2, dist.points, dist.weights.real.copy(), dist.meta)
    as_complex = qj.QuasiDistribution(2, dist.points, real.weights.astype(complex), dist.meta)
    got = qj.reconstruct_state(rmap, real).matrix
    assert np.array_equal(got, qj.reconstruct_state(rmap, as_complex).matrix)
    assert np.abs(got - mixed.matrix).max() <= 1e-9


def test_full_rank_implies_feasible_counting():
    rng = np.random.default_rng(53)
    kd = qj.scheme_kirkwood(2)
    for dim in (2, 3, 4):
        pair = random_pair(rng, dim)
        rmap = qj.reconstruction_map(*pair, kd)
        if rmap.full_rank:
            n_a = pair[0].eigenvalues.size
            n_b = pair[1].eigenvalues.size
            assert qj.degeneracy_feasible(dim, n_a, n_b).feasible


# ---------------------------------------------------------------------------
# unitary-word equivalence of the three distinguishability probes


def test_probes_agree_on_alternating_words(spin_half):
    pair = (spin_half.j1, spin_half.j2)
    rng = np.random.default_rng(54)
    seen_real = seen_complex = 0
    for trial in range(40):
        spec = random_alternating_scheme(rng, symmetric=(trial % 4 == 0))
        diag_equal = qj.diag_equality_check(spec, pair)
        hermitian = qj.scheme_is_real(spec, pair)
        deficient = qj.reconstruction_map(*pair, spec).rank < 3
        assert diag_equal == hermitian == deficient
        seen_real += hermitian
        seen_complex += not hermitian
    assert seen_real and seen_complex  # both branches exercised


# ---------------------------------------------------------------------------
# degeneracy counting


def test_degeneracy_examples():
    assert qj.degeneracy_feasible(2, 2, 2) == qj.FeasibilityReport(2, 2, 2, 7, 9, True)
    assert not qj.degeneracy_feasible(3, 3, 2).feasible
    assert qj.degeneracy_feasible(3, 3, 3).feasible
    with pytest.raises(DomainError):
        qj.degeneracy_feasible(3, 4, 2)
    with pytest.raises(DomainError):
        qj.degeneracy_feasible(0, 1, 1)


def test_corollary_bounds():
    assert abs(qj.nondegenerate_partner_bound(2) - 5 / 3) <= 1e-15
    assert abs(qj.nondegenerate_partner_bound(3) - 11 / 5) <= 1e-15
    assert abs(qj.equal_spectra_bound(2) - (np.sqrt(7) + 1) / 2) <= 1e-15
    # 2 n^2 - 1 past int64 still has a bound; past the float range it is a domain error
    for n in (4 * 10**9, 10**150):
        assert qj.degeneracy_feasible(n, 1, 1).lhs == 2 * n * n - 1
        assert abs(qj.equal_spectra_bound(n) / ((n * np.sqrt(2) + 1) / 2) - 1) <= 1e-12
    with pytest.raises(DomainError, match="float range"):
        qj.equal_spectra_bound(10**200)
    with pytest.raises(DomainError, match="float range"):
        qj.nondegenerate_partner_bound(10**400)
    # bounds are consistent with the raw inequality
    for n in range(2, 7):
        thr = qj.equal_spectra_bound(n)
        n_prime = int(np.ceil(thr - 1e-12))
        assert qj.degeneracy_feasible(n, n_prime, n_prime).feasible
        if n_prime > 1:
            assert not qj.degeneracy_feasible(n, n_prime - 1, n_prime - 1).feasible


# ---------------------------------------------------------------------------
# realness vs z expectation


def test_realness_report_two_level(spin_half):
    report = qj.realness_z_report(spin_half, 300)
    assert report.holds
    assert report.real_cases > 0
    assert report.real_cases < report.n_checked


def test_realness_report_three_level(spin_one):
    report = qj.realness_z_report(spin_one, 300)
    assert report.holds
    assert report.real_cases > 0
    assert report.counterexample is not None
    state = report.counterexample
    assert abs(qj.expectation(spin_one.j3, state)) <= 1e-10
    atoms = qj.build_atoms(qj.scheme_kirkwood(2), (spin_one.j1, spin_one.j2))
    assert qj.evaluate_distribution(atoms, state).max_imag() > 0.03
    # a closed-form state, not a draw: the same for every seed
    other = qj.realness_z_report(spin_one, 10, seed=1).counterexample
    assert np.array_equal(other.matrix, state.matrix)


def test_realness_report_rejects_other_dims():
    with pytest.raises(DomainError):
        qj.realness_z_report(qj.spin_operators(3))


def test_support_report_matches_pointwise_scan():
    # reference: the per-point scan, offending points in support order
    def scan(dist, observables, tol=1e-10, coord_tol=1e-9):
        offending = []
        for p, w in zip(dist.points, dist.weights):
            if abs(w) <= tol:
                continue
            for v, o in enumerate(observables):
                if np.abs(o.eigenvalues - p[v]).min() > coord_tol:
                    offending.append((tuple(float(x) for x in p), complex(w)))
                    break
        return tuple(offending)

    rng = np.random.default_rng(41)
    spin = qj.spin_operators(2)
    cases = [((spin.j1, spin.j2), qj.scheme_s_alpha(0.5))]
    cases += [(random_pair(rng, 3), qj.scheme_born_jordan(3)) for _ in range(3)]
    for pair, spec in cases:
        atoms = qj.build_atoms(spec, pair)
        for _ in range(5):
            dist = qj.evaluate_distribution(atoms, qj.random_density(pair[0].dim, rng))
            report = qj.verify_support(dist, pair)
            want = scan(dist, pair)
            assert want and not report.ok
            assert np.array_equal(report.offending, [p for p, _ in want])
            assert np.array_equal(report.weights, [w for _, w in want])
