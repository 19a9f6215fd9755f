"""Characteristic functions from weight tables against the operator mixture.

For a product scheme, ``characteristic_function`` contracts one weight
table per observable sequence with the factor phases; it must agree with
the trace of the state against ``atoms_oracle.mixture`` within 1e-12, and
each weight table with the trace of the state against the word's
projector products, multiplied out as in the atoms oracle.
Random Hermitian observables of dimension 2-6, half with degenerate
spectra, random states, and random frequencies that sometimes repeat a
coordinate value, as on a grid. Mixtures of words on one observable
sequence exercise the blocks the contraction sums at once: terms whose
coefficients differ only on variable-0 factors.

For the symmetric scheme, the ray form (one eigendecomposition per
direction, on dimensions other than 2) must agree with the oracle's one
eigendecomposition per point within 1e-11 for |s| <= 50, the bound
``linalg.DIRECTION_TOL`` is chosen for, stay a finite value of modulus at
most 1 up to |s| = 1e300, and diagonalize no more directions than the
grids hold. On two levels the closed form in Pauli coordinates must agree
with both the ray form and the oracle within 1e-11, also where s.A is a
multiple of the identity, diagonalize nothing, and reject the frequencies
the ray form rejects, with its message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasijoint as qj
from quasijoint import distributions, linalg
from quasijoint.distributions import _word_weights
from quasijoint.errors import DomainError

import atoms_oracle
from test_atoms_oracle import PROPERTY, TWO_VAR_SCHEMES, _simplex, observables


@st.composite
def shared_sequence_mixture(draw):
    """Three terms on the observable sequence (0, 1, 0) with different vars and coefficients."""
    a, b = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3)))
    w = (w / w.sum()).tolist()
    words = (
        [(0, a, 0), (1, 1.0, 1), (0, 1.0 - a, 0)],
        [(1, b, 0), (0, 1.0, 1), (1, 1.0 - b, 0)],
        [(0, 1.0 - a, 0), (1, 1.0, 1), (0, a, 0)],
    )
    return qj.SchemeSpec(2, tuple(zip(w, words)))


@st.composite
def same_pattern_mixture(draw):
    """2-4 words on one alternating sequence, with coefficients that differ on both variables.

    Every word has the same variable pattern, two or more factors per
    variable. Each word draws its variable-0 coefficients afresh and takes
    its variable-1 coefficients from a pool of two, so words sharing them
    form a multi-term block and the others one-term blocks.
    """
    pattern = draw(st.sampled_from([(0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1, 0), (1, 0, 1, 0, 1)]))
    pool = [_simplex(draw, pattern.count(1)) for _ in range(2)]
    words = []
    for _ in range(draw(st.integers(2, 4))):
        coeffs = {0: iter(_simplex(draw, pattern.count(0))), 1: iter(pool[draw(st.integers(0, 1))])}
        words.append([(v, next(coeffs[v]), v) for v in pattern])
    return qj.SchemeSpec(2, tuple(zip(_simplex(draw, len(words)), words)))


def _state_and_points(seed, dim, n_vars):
    rng = np.random.default_rng(seed)
    rho = qj.random_density(dim, rng)
    m = int(rng.integers(1, 30))
    if rng.random() < 0.5:
        pts = rng.uniform(-8.0, 8.0, size=(m, n_vars))
    else:
        pts = rng.choice(rng.uniform(-8.0, 8.0, size=4), size=(m, n_vars))
    return rho, pts


def assert_matches_mixture(spec, obs, seed):
    rho, pts = _state_and_points(seed, obs[0].dim, spec.n_vars)
    got = qj.characteristic_function(spec, obs, rho, pts)
    want = np.einsum("mij,ji->m", atoms_oracle.mixture(spec, obs, pts), rho.matrix)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12
    for _, word in spec.terms:
        eigs = [obs[f.obs].eig for f in word]
        table = _word_weights(eigs, rho.matrix)
        traced = np.einsum("...ij,ji->...", atoms_oracle.projector_products(eigs), rho.matrix)
        assert table.shape == traced.shape
        assert np.abs(table - traced).max() <= 1e-12


SEEDS = st.integers(0, 2**32 - 1)


@PROPERTY
@given(spec=TWO_VAR_SCHEMES, obs=observables(2, max_dim=6), seed=SEEDS)
def test_two_variable_schemes_match_mixture(spec, obs, seed):
    assert_matches_mixture(spec, obs, seed)


@settings(PROPERTY, max_examples=40)
@given(n_vars=st.sampled_from([1, 3]), seed=SEEDS, data=st.data())
def test_kirkwood_one_and_three_variables_match_mixture(n_vars, seed, data):
    assert_matches_mixture(qj.scheme_kirkwood(n_vars), data.draw(observables(n_vars)), seed)


@settings(PROPERTY, max_examples=40)
@given(spec=shared_sequence_mixture(), obs=observables(2, max_dim=6), seed=SEEDS)
def test_terms_sharing_a_sequence_match_mixture(spec, obs, seed):
    assert_matches_mixture(spec, obs, seed)


@settings(PROPERTY, max_examples=40)
@given(spec=same_pattern_mixture(), obs=observables(2), seed=SEEDS)
def test_blocks_on_one_pattern_match_mixture(spec, obs, seed):
    (group,) = spec.groups
    var1_coeffs = {tuple(f.coeff for f in word if f.var == 1) for _, word in spec.terms}
    assert len(group.blocks) == len(var1_coeffs)
    assert_matches_mixture(spec, obs, seed)


def test_product_schemes_form_no_mixture_and_no_atoms(spin_one, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense operators formed")

    pair = (spin_one.j1, spin_one.j2)
    rho = qj.random_density(3, np.random.default_rng(6))
    pts = np.array([[0.0, 0.0], [1.5, -2.0]])
    want = qj.characteristic_function(qj.scheme_s_alpha(0.25), pair, rho, pts)
    monkeypatch.setattr(distributions, "build_atoms", forbidden)
    got = qj.characteristic_function(qj.scheme_s_alpha(0.25), pair, rho, pts)
    assert np.array_equal(got, want)


def _traced_mixture(spec, obs, rho, pts):
    return np.einsum("mij,ji->m", atoms_oracle.mixture(spec, obs, pts), rho.matrix)


@st.composite
def weyl_points(draw, n_vars):
    """Random points with |s| <= 50, planted rays c u, the origin, and two near directions u, u + 1e-13."""
    rng = np.random.default_rng(draw(SEEDS))
    u = rng.normal(size=n_vars)
    u /= np.linalg.norm(u)
    random = rng.normal(size=(draw(st.integers(0, 20)), n_vars))
    random *= rng.uniform(0.0, 50.0, size=(len(random), 1)) / np.linalg.norm(random, axis=1, keepdims=True)
    scales = np.array([1e-3, 0.5, 1.0, 7.0, 40.0])
    planted = np.concatenate([scales, -scales])[:, None] * u
    near = 40.0 * np.stack([u, u + 1e-13 * rng.normal(size=n_vars)])
    pts = np.concatenate([random, planted, np.zeros((1, n_vars)), near])
    return pts[rng.permutation(len(pts))], near


@settings(PROPERTY, max_examples=60)
@given(n_vars=st.integers(1, 3), seed=SEEDS, data=st.data())
def test_wigner_rays_match_mixture(n_vars, seed, data):
    obs = data.draw(observables(n_vars, max_dim=6, min_dim=1))
    pts, near = data.draw(weyl_points(n_vars))
    spec = qj.WignerScheme(n_vars)
    rho = qj.random_density(obs[0].dim, np.random.default_rng(seed))
    got = qj.characteristic_function(spec, obs, rho, pts)
    assert np.abs(got - _traced_mixture(spec, obs, rho, pts)).max() <= 1e-11
    # a merged direction moves the value by at most |r| sqrt(n) max ||A_v|| DIRECTION_TOL
    norm = max(np.linalg.norm(o.matrix, 2) for o in obs)
    bound = 40.0 * np.sqrt(n_vars) * norm * linalg.DIRECTION_TOL + 1e-12
    got = qj.characteristic_function(spec, obs, rho, near)
    assert np.abs(got - _traced_mixture(spec, obs, rho, near)).max() <= bound


@settings(PROPERTY, max_examples=40)
@given(n_vars=st.integers(1, 3), seed=SEEDS, data=st.data())
def test_wigner_rays_finite_far_out(n_vars, seed, data):
    obs = data.draw(observables(n_vars, max_dim=6, min_dim=1))
    rng = np.random.default_rng(seed)
    rho = qj.random_density(obs[0].dim, rng)
    pts = rng.normal(size=(30, n_vars)) * 10.0 ** rng.uniform(-300, 300, size=(30, 1))
    pts = np.concatenate([pts, 1e300 * np.eye(n_vars), -1e300 * np.ones((1, n_vars)) / n_vars])
    got = qj.characteristic_function(qj.WignerScheme(n_vars), obs, rho, pts)
    assert np.isfinite(got).all()
    assert np.abs(got).max() <= 1 + 1e-12


def test_wigner_diagonalizes_once_per_direction(spin_half, spin_one, monkeypatch):
    spectra = distributions._direction_spectra
    sizes = []

    def counted(observables, directions):
        sizes.append(len(directions))
        return spectra(observables, directions)

    monkeypatch.setattr(distributions, "_direction_spectra", counted)
    axis = np.linspace(-6, 6, 21)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    # two levels take the closed form: no direction is diagonalized
    half, rho = (spin_half.j1, spin_half.j2), qj.bloch_state(1.1, 0.4, 0.9)
    assert len(qj.characteristic_function(qj.WignerScheme(2), half, rho, grid)) == 441
    qj.wigner_density_estimate(half, rho, [0.0], [0.0], s_extent=30.0, s_steps=61)
    assert sizes == []
    # the direction counts depend on the grid alone
    pair, rho = (spin_one.j1, spin_one.j2), qj.random_density(3, np.random.default_rng(4))
    chi = qj.characteristic_function(qj.WignerScheme(2), pair, rho, grid)
    # 441 points on 128 directions and the origin
    assert len(chi) == 441 and 0 < sum(sizes) <= 135
    sizes.clear()
    # the integer 61 x 61 grid of the density estimate: 1112 directions and the origin
    qj.wigner_density_estimate(pair, rho, [0.0], [0.0], s_extent=30.0, s_steps=61)
    assert 0 < sum(sizes) <= 1120


@st.composite
def two_level_weyl(draw):
    """2 x 2 observables; points with |s| <= 50, the origin, and points where s.A is prop. to I.

    Entries lie on a grid of 1/64, so sums of them are exact. One
    observable may be a multiple of the identity, with points planted on
    its axis; with two or more variables the second may instead be the
    first plus a multiple of the identity, with points t (1, -1, 0), where
    the Pauli parts cancel exactly.
    """
    n_vars = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(SEEDS))
    mats = [np.round(64 * qj.random_hermitian(2, rng, 3.0)) / 64 for _ in range(n_vars)]
    shift = draw(st.integers(-16, 16)) / 8 * np.eye(2)
    scales = np.array([1e-3, 0.5, 7.0, 40.0, -1.0, -30.0])
    kind = draw(st.sampled_from(["random", "identity", "shifted"][: 3 if n_vars > 1 else 2]))
    direction = np.zeros(n_vars)
    if kind == "identity":
        v = draw(st.integers(0, n_vars - 1))
        mats[v] = shift
        direction[v] = 1.0
    elif kind == "shifted":
        mats[1] = mats[0] + shift
        direction[:2] = (1.0, -1.0)
    random = rng.normal(size=(draw(st.integers(0, 20)), n_vars))
    random *= rng.uniform(0.0, 50.0, size=(len(random), 1)) / np.linalg.norm(random, axis=1, keepdims=True)
    pts = np.concatenate([random, scales[:, None] * direction, np.zeros((1, n_vars))])
    obs = tuple(qj.HermitianObservable(m, f"O{v}") for v, m in enumerate(mats))
    return obs, pts[rng.permutation(len(pts))]


@settings(PROPERTY, max_examples=80)
@given(case=two_level_weyl(), seed=SEEDS)
def test_two_level_closed_form_matches_rays_and_mixture(case, seed):
    obs, pts = case
    spec = qj.WignerScheme(len(obs))
    rho = qj.random_density(2, np.random.default_rng(seed))
    got = qj.characteristic_function(spec, obs, rho, pts)
    assert np.abs(got - distributions._weyl_characteristic(obs, rho.matrix, pts)).max() <= 1e-11
    assert np.abs(got - _traced_mixture(spec, obs, rho, pts)).max() <= 1e-11


def test_two_level_frequencies_past_the_float_range_match_the_rays(spin_half):
    # s.A has eigenvalues of about +-1e300 max|s_v| here, past the float range at point 2
    pair = tuple(qj.HermitianObservable(1e300 * o.matrix) for o in (spin_half.j1, spin_half.j2))
    rho = qj.bloch_state(0.7, 0.3, 0.9)
    pts = np.array([[0.0, 0.0], [1.0, -2.0], [1e10, 3.0]])
    message = "point 2: s.A has an eigenvalue beyond the float range"
    with pytest.raises(DomainError, match=message):
        qj.characteristic_function(qj.WignerScheme(2), pair, rho, pts)
    with pytest.raises(DomainError, match=message):
        distributions._weyl_characteristic(pair, rho.matrix, pts)
    chi = qj.characteristic_function(qj.WignerScheme(2), pair, rho, pts[:2])
    assert np.isfinite(chi).all() and np.abs(chi).max() <= 1 + 1e-12
