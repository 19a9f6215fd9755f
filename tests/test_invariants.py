"""Documented invariants of the atoms as properties on random inputs.

Random observable pairs of dimension 2-5, half of them with degenerate
spectra, under every scheme constructor, reversed words included, and a
random state each:

- the atoms sum to the identity, and for each variable the atoms on one
  eigenvalue coordinate sum to that eigenvalue's spectral projector;
- every marginal matches the Born distribution of its observable;
- schemes with one factor per variable put no weight off the eigenvalue
  grid;
- quantization and expectation agree through the trace:
  Tr(quantize(x*y) rho) equals the quasi-expectation of x*y on the
  unpruned weights;
- tomography round-trips every full-rank map and refuses the others.

The closed-form inversion of Kirkwood-form maps (Kirkwood-Dirac,
Margenau-Hill, a lone reversed word) is checked against the
finite-difference oracle: the same rank, and the state its
pseudo-inverse gives, on random pairs, pairs with a planted zero
overlap, Margenau-Hill next to the real scheme at alpha = 0, and spin
(J1, J2) up to j = 5/2.
Named cases pin which route (closed form, blocks or dense SVD) each kind
of map takes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasijoint as qj
from quasijoint import analysis, linalg
from quasijoint.errors import RankDeficientError

import atoms_oracle
import tomography_oracle
from test_atoms_oracle import PROPERTY, TWO_VAR_SCHEMES, observables

SEEDS = st.integers(0, 2**32 - 1)


def _state(obs, seed):
    return qj.random_density(obs[0].dim, np.random.default_rng(seed))


def _one_factor_per_variable(spec):
    return all(sorted(f.var for f in word) == list(range(spec.n_vars)) for _, word in spec.terms)


@PROPERTY
@given(spec=TWO_VAR_SCHEMES, obs=observables(2))
def test_atoms_sum_to_identity_and_spectral_projectors(spec, obs):
    atoms = qj.build_atoms(spec, obs)
    identity = atoms.operator_for(np.ones(len(atoms)))
    assert np.abs(identity - np.eye(atoms.dim)).max() <= linalg.DEFECT_TOL
    for v, o in enumerate(obs):
        for value, projector in zip(o.eig.eigenvalues, atoms_oracle.projectors(o.eig)):
            on_value = np.abs(atoms.points[:, v] - value) <= linalg.COORD_TOL
            assert on_value.any()
            assert np.abs(atoms.operator_for(on_value) - projector).max() <= linalg.DEFECT_TOL


@PROPERTY
@given(spec=TWO_VAR_SCHEMES, obs=observables(2), seed=SEEDS)
def test_marginals_are_born_distributions(spec, obs, seed):
    rho = _state(obs, seed)
    dist = qj.evaluate_distribution(qj.build_atoms(spec, obs), rho)
    for v, o in enumerate(obs):
        born = qj.born_distribution(o, rho)
        assert qj.max_weight_deviation(qj.marginal(dist, v), born) <= 1e-10


@PROPERTY
@given(spec=TWO_VAR_SCHEMES.filter(_one_factor_per_variable), obs=observables(2), seed=SEEDS)
def test_one_factor_per_variable_stays_on_the_grid(spec, obs, seed):
    dist = qj.evaluate_distribution(qj.build_atoms(spec, obs), _state(obs, seed))
    assert qj.verify_support(dist, obs).ok


@PROPERTY
@given(spec=TWO_VAR_SCHEMES, obs=observables(2), seed=SEEDS)
def test_quantize_and_expectation_agree_through_the_trace(spec, obs, seed):
    atoms = qj.build_atoms(spec, obs)
    rho = _state(obs, seed)
    full = qj.evaluate_distribution(atoms, rho, prune_tol=0.0)
    xy = np.trace(qj.quantize(lambda x, y: x * y, atoms) @ rho.matrix)
    assert abs(xy - qj.quasi_expectation(lambda x, y: x * y, full)) <= 1e-10


@PROPERTY
@given(spec=TWO_VAR_SCHEMES, obs=observables(2), seed=SEEDS)
def test_tomography_round_trip(spec, obs, seed):
    rmap = qj.reconstruction_map(*obs, spec)
    rho = _state(obs, seed)
    dist = qj.evaluate_distribution(rmap.atoms, rho, prune_tol=0.0)
    if not rmap.full_rank:
        with pytest.raises(RankDeficientError):
            qj.reconstruct_state(rmap, dist)
        return
    # rounding in the weights, about 1e-16 each, grows by at most 1 / s_min
    s_min = np.linalg.svd(rmap.map_matrix, compute_uv=False)[-1]
    residual = np.abs(qj.reconstruct_state(rmap, dist).matrix - rho.matrix).max()
    assert residual <= 1e-12 + 1e-13 / s_min


def _pinv_state(rmap, weights):
    """The state the oracle's pseudo-inverse gives for weights on the map's support."""
    return tomography_oracle.pinv_state(*rmap.observables, rmap.scheme, weights)


def _unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def _planted_zero_pair(rng, dim):
    """Nondegenerate A and B whose eigenbases have one overlap zero but for rounding.

    A Givens rotation of the first two columns of a random unitary V
    zeroes entry [0, 0]; A = Q D_A Q^dagger and B = Q V D_B V^dagger Q^dagger.
    """
    v = _unitary(rng, dim)
    x, y = v[0, 0], v[0, 1]
    r = np.hypot(abs(x), abs(y))
    v[:, :2] = v[:, :2] @ np.array([[y, np.conj(x)], [-x, np.conj(y)]]) / r
    q = _unitary(rng, dim)
    d_a, d_b = (np.diag(np.sort(rng.uniform(-2.0, 2.0, dim))) for _ in range(2))
    return (
        qj.HermitianObservable(q @ d_a @ q.conj().T, "A"),
        qj.HermitianObservable(q @ v @ d_b @ v.conj().T @ q.conj().T, "B"),
    )


def _spin_pair(j_times_two):
    spin = qj.spin_operators(j_times_two)
    return spin.j1, spin.j2


def _random_pair(rng, dim):
    return tuple(qj.HermitianObservable(qj.random_hermitian(dim, rng), label) for label in "AB")


ALPHAS_NEAR_REAL = [0.0, 1e-9, -1e-9, 1e-8, 1e-7]
KIRKWOOD_FAMILY = st.one_of(
    st.just(qj.scheme_kirkwood(2)),
    st.builds(qj.scheme_margenau_hill, st.floats(-1.0, 1.0) | st.sampled_from(ALPHAS_NEAR_REAL)),
    st.builds(lambda first: qj.scheme_alternating([1.0], [1.0], first_var=first), st.integers(0, 1)),
)
PAIRS = st.one_of(
    observables(2),
    st.builds(
        lambda dim, seed: _planted_zero_pair(np.random.default_rng(seed), dim),
        st.integers(2, 5),
        SEEDS,
    ),
    st.builds(_spin_pair, st.integers(1, 5)),
)


@settings(PROPERTY, max_examples=200)
@given(spec=KIRKWOOD_FAMILY, pair=PAIRS, seed=SEEDS)
def test_closed_form_matches_the_dense_map(spec, pair, seed):
    rmap = qj.reconstruction_map(*pair, spec)
    assert rmap.rank == tomography_oracle.reconstruction_map(*pair, spec)[2]
    if rmap.full_rank:
        rho = _state(pair, seed)
        got = qj.reconstruct_state(rmap, qj.evaluate_distribution(rmap.atoms, rho, prune_tol=0.0))
        want = _pinv_state(rmap, rmap.atoms.weights_for(rho.matrix))
        tol = 1e-12
        if rmap.diagnostics["inversion"] == "svd":
            # two least-squares solves from maps built apart: rounding in
            # either, about 1e-17 here, grows by up to 1 / s_min, which can
            # reach 1e8 (Margenau-Hill near 0); the closed form certifies
            # s_min >= linalg.INVERSION_FLOOR, where 1e-12 holds as it is
            tol += 1e-15 / np.linalg.svd(rmap.map_matrix, compute_uv=False)[-1]
        assert np.abs(got.matrix - want).max() <= tol


_RNG = np.random.default_rng(3)
ROUTES = {
    "kirkwood-spin-j0.5": (qj.scheme_kirkwood(2), _spin_pair(1), "closed_form"),
    "kirkwood-spin-j1.5": (qj.scheme_kirkwood(2), _spin_pair(3), "closed_form"),
    "margenau-hill-0.5": (qj.scheme_margenau_hill(0.5), _random_pair(_RNG, 4), "closed_form"),
    "reversed-word": (
        qj.scheme_alternating([1.0], [1.0], first_var=1), _random_pair(_RNG, 4), "closed_form"
    ),
    # overlap (0, 0) of spin (J1, J2) vanishes at odd N
    "kirkwood-spin-j1": (qj.scheme_kirkwood(2), _spin_pair(2), "svd"),
    "kirkwood-planted-zero": (qj.scheme_kirkwood(2), _planted_zero_pair(_RNG, 4), "svd"),
    "kirkwood-degenerate": (
        qj.scheme_kirkwood(2),
        (qj.HermitianObservable(np.diag([1.0, 1.0, 0.0])), _spin_pair(2)[1]),
        "svd",
    ),
    "margenau-hill-0": (qj.scheme_margenau_hill(0.0), _random_pair(_RNG, 4), "svd"),
    "margenau-hill-1e-9": (qj.scheme_margenau_hill(1e-9), _random_pair(_RNG, 4), "svd"),
    # split words close on A: blocks over entry pairs, A degenerate or not
    "s_alpha-0.25": (qj.scheme_s_alpha(0.25), _random_pair(_RNG, 4), "blocks"),
    "s_alpha-0.5-spin-j1": (qj.scheme_s_alpha(0.5), _spin_pair(2), "blocks"),
    "born-jordan-21": (qj.scheme_born_jordan(21), _random_pair(_RNG, 4), "blocks"),
    "s_alpha-degenerate": (
        qj.scheme_s_alpha(0.25),
        (qj.HermitianObservable(np.diag([1.0, 1.0, 0.0])), _spin_pair(2)[1]),
        "blocks",
    ),
    "alternating-mixed-closing": (
        qj.scheme_alternating([0.5, 0.5], [0.5, 0.5]), _random_pair(_RNG, 4), "svd"
    ),
    "split-and-mirrored-split": (
        qj.SchemeSpec(2, (
            (0.5, [(0, 0.5, 0), (1, 1.0, 1), (0, 0.5, 0)]),
            (0.5, [(1, 0.5, 1), (0, 1.0, 0), (1, 0.5, 1)]),
        )),
        _random_pair(_RNG, 4),
        "svd",
    ),
}


@pytest.mark.parametrize("spec, pair, route", ROUTES.values(), ids=ROUTES.keys())
def test_inversion_route(spec, pair, route):
    rmap = qj.reconstruction_map(*pair, spec)
    assert rmap.diagnostics["inversion"] == route
    assert (rmap.closed_form is not None) == (route == "closed_form")
    if route != "closed_form":  # the least-squares split: the dense block has no frame
        assert isinstance(rmap.blocks, analysis.EntryBlocks)
        assert (rmap.blocks.vectors is None) == (route == "svd")
    if route == "closed_form":
        assert rmap.full_rank and rmap.diagnostics["rank_margin"] > 2
    elif rmap.full_rank:
        assert rmap.diagnostics["rank_margin"] > 1
    rows, unknowns = rmap.diagnostics["largest_block"]
    if route == "closed_form":
        assert (rows, unknowns) == (2, 2)
    elif route == "svd":
        assert (rows, unknowns) == rmap.map_matrix.shape
    else:
        assert rows % 2 == 0 and rows <= 2 * len(rmap.support) and unknowns <= rmap.dim**2


def test_off_range_weights_return_the_least_squares_state():
    rng = np.random.default_rng(8)
    rmap = qj.reconstruction_map(*_spin_pair(3), qj.scheme_kirkwood(2))
    assert rmap.diagnostics["inversion"] == "closed_form"
    rho = qj.random_density(rmap.dim, rng)
    dist = qj.evaluate_distribution(rmap.atoms, rho, prune_tol=0.0)
    noise = 1e-6 * (rng.normal(size=len(dist)) + 1j * rng.normal(size=len(dist)))
    # unpruned, the points are the support in order, so the weights are aligned
    bad = qj.QuasiDistribution(2, dist.points, dist.weights + noise)
    # no state has these weights: the closed form declines them
    assert analysis._closed_form_state(rmap, bad.weights) is None
    got = qj.reconstruct_state(rmap, bad)
    assert np.abs(got.matrix - _pinv_state(rmap, bad.weights)).max() <= 1e-15
    assert 1e-8 < np.abs(got.matrix - rho.matrix).max() < 1e-5


def test_certified_map_runs_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran for a certified map")

    rho = qj.random_density(4, np.random.default_rng(2))
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    rmap = qj.reconstruction_map(*_spin_pair(3), qj.scheme_margenau_hill(0.5))
    assert rmap.rank == 15 and rmap.diagnostics["inversion"] == "closed_form"
    dist = qj.evaluate_distribution(rmap.atoms, rho)
    rec = qj.reconstruct_state(rmap, dist)
    assert np.abs(rec.matrix - rho.matrix).max() <= 1e-12
    # weights no state has fall back to the dense block, decomposed on demand
    off = qj.QuasiDistribution(2, dist.points, dist.weights + 1e-6)
    with pytest.raises(AssertionError, match="SVD ran"):
        qj.reconstruct_state(rmap, off)
