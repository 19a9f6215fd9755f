"""The vectorized support-point matcher against the per-point loops it replaced.

``reconstruct_state`` and ``max_weight_deviation`` used to align points one
at a time with a broadcast comparison against the whole support; those
loops are kept here verbatim as the oracle. ``reconstruct_state`` now uses a
distribution whose points are the map's support, row for row, as is, and
sends any other one (shuffled, jittered, pruned or foreign) through the
matcher; the two must give the same state bit for bit. Supports come from
``build_atoms`` over every two-variable scheme constructor, on random
observables of dimension 2-5, half of them with degenerate spectra. Test
points are support points jittered within half the coordinate tolerance,
support points shifted by three times it, and random off-grid points,
shuffled together.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasijoint as qj
from quasijoint import linalg
from quasijoint.distributions import _SupportIndex
from quasijoint.errors import SupportMismatchError

import atoms_oracle
from test_atoms_oracle import PROPERTY, TWO_VAR_SCHEMES, observables

TOL = linalg.COORD_TOL


def oracle_match(points, support, point_tol=TOL):
    """First support row within point_tol of each point in every coordinate, or -1."""
    out = np.full(len(points), -1)
    for k, p in enumerate(points):
        mask = (np.abs(support - p) <= point_tol).all(axis=1)
        if mask.any():
            out[k] = np.argmax(mask)
    return out


def oracle_aligned(support, dist, point_tol=TOL, weight_tol=linalg.DEFECT_TOL):
    """The alignment loop of ``reconstruct_state``, verbatim."""
    aligned = np.zeros(len(support), dtype=complex)
    for p, w in zip(dist.points, dist.weights):
        mask = (np.abs(support - p) <= point_tol).all(axis=1)
        if mask.any():
            aligned[np.argmax(mask)] += w
        elif abs(w) > weight_tol:
            raise SupportMismatchError(
                f"distribution atom at {tuple(p)} (weight {w:.3e}) is off the map support"
            )
    return aligned


def oracle_max_weight_deviation(a, b, point_tol=TOL):
    """``max_weight_deviation`` as the per-point loop, verbatim."""
    matched = np.zeros(len(b), dtype=bool)
    dev = 0.0
    for p, w in zip(a.points, a.weights):
        mask = (np.abs(b.points - p) <= point_tol).all(axis=1)
        if mask.any():
            matched |= mask
            dev = max(dev, abs(w - b.weights[mask].sum()))
        else:
            dev = max(dev, abs(w))
    if (~matched).any():
        dev = max(dev, float(np.abs(b.weights[~matched]).max()))
    return dev


def probe_points(rng, support):
    """Jittered, shifted and off-grid points, shuffled together."""
    n, n_vars = support.shape
    jittered = support + rng.uniform(-TOL / 2, TOL / 2, size=support.shape)
    shifted = support.copy()
    column = rng.integers(0, n_vars, size=n)
    shifted[np.arange(n), column] += 3 * TOL * rng.choice([-1.0, 1.0], size=n)
    lo, hi = support.min(axis=0), support.max(axis=0)
    off_grid = rng.uniform(lo - 1.0, hi + 1.0, size=(n, n_vars))
    points = np.concatenate([jittered, shifted, off_grid])
    return points[rng.permutation(len(points))]


def shuffled(rng, dist, jitter=0.0):
    order = rng.permutation(len(dist))
    points = dist.points[order] + rng.uniform(-jitter, jitter, size=dist.points.shape)
    return qj.QuasiDistribution(dist.n_vars, points, dist.weights[order], dist.meta)


@PROPERTY
@given(spec=TWO_VAR_SCHEMES, obs=observables(2), seed=st.integers(0, 2**32 - 1))
def test_matcher_indices_match_oracle(spec, obs, seed):
    rng = np.random.default_rng(seed)
    support = qj.build_atoms(spec, obs).points
    points = probe_points(rng, support)
    got = _SupportIndex(support).match(points)
    assert np.array_equal(got, oracle_match(points, support))
    # every jittered copy finds its row
    assert np.count_nonzero(got >= 0) >= len(support)


@settings(PROPERTY, max_examples=60)
@given(spec=TWO_VAR_SCHEMES, obs=observables(2), seed=st.integers(0, 2**32 - 1))
def test_reconstruct_ignores_order_jitter_and_pruning(spec, obs, seed):
    rmap = qj.reconstruction_map(obs[0], obs[1], spec)
    if not rmap.full_rank:
        return
    rng = np.random.default_rng(seed)
    rho = qj.random_density(rmap.dim, rng)
    if seed % 2:
        # an eigenstate of the first observable: many weights are rounding noise
        top = atoms_oracle.projectors(obs[0].eig)[0]
        rho = qj.DensityState(top / top.trace().real)
    dist = qj.evaluate_distribution(rmap.atoms, rho, prune_tol=0.0)
    variants = [
        shuffled(rng, dist),
        shuffled(rng, dist, jitter=TOL / 2),
        qj.evaluate_distribution(rmap.atoms, rho),
    ]
    # dist's points are the map's support, so it is used as is; the
    # unjittered shuffle goes through the matcher to the same weights
    want = qj.reconstruct_state(rmap, dist).matrix
    assert np.array_equal(qj.reconstruct_state(rmap, variants[0]).matrix, want)
    for variant in variants[1:]:
        got = qj.reconstruct_state(rmap, variant).matrix
        assert np.abs(got - want).max() <= 1e-12


@settings(PROPERTY, max_examples=60)
@given(spec=TWO_VAR_SCHEMES, obs=observables(2), seed=st.integers(0, 2**32 - 1))
def test_off_support_weight_raises(spec, obs, seed):
    rmap = qj.reconstruction_map(obs[0], obs[1], spec)
    rng = np.random.default_rng(seed)
    dist = qj.evaluate_distribution(rmap.atoms, qj.random_density(rmap.dim, rng))
    stray = probe_points(rng, rmap.support)
    stray = stray[oracle_match(stray, rmap.support) < 0][:1]
    weight = 10 ** rng.uniform(-9.9, 0.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    bad = qj.QuasiDistribution(
        2, np.concatenate([dist.points, stray]), np.append(dist.weights, weight), dist.meta
    )
    bad = shuffled(rng, bad)
    with pytest.raises(SupportMismatchError):
        oracle_aligned(rmap.support, bad)
    # the rank is checked first; claim full rank so that every map reaches the support check
    object.__setattr__(rmap, "rank", rmap.dim**2 - 1)
    with pytest.raises(SupportMismatchError):
        qj.reconstruct_state(rmap, bad)


@PROPERTY
@given(spec=TWO_VAR_SCHEMES, obs=observables(2), seed=st.integers(0, 2**32 - 1))
def test_max_weight_deviation_matches_oracle(spec, obs, seed):
    rng = np.random.default_rng(seed)
    atoms = qj.build_atoms(spec, obs)
    dist = qj.evaluate_distribution(atoms, qj.random_density(atoms.dim, rng), prune_tol=0.0)
    points = probe_points(rng, dist.points)
    other = qj.QuasiDistribution(
        2, points, rng.normal(size=len(points)) + 1j * rng.normal(size=len(points))
    )
    perturbed = shuffled(rng, dist, jitter=TOL / 2)
    perturbed = qj.QuasiDistribution(
        2, perturbed.points, perturbed.weights * rng.uniform(0.9, 1.1, size=len(dist))
    )
    for a, b in ((perturbed, dist), (dist, perturbed), (other, dist), (dist, other)):
        # numpy's complex abs may differ from Python's in the last bit
        assert abs(qj.max_weight_deviation(a, b) - oracle_max_weight_deviation(a, b)) <= 1e-15


@settings(PROPERTY, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n_vars=st.integers(1, 3))
def test_matcher_on_crowded_support(seed, n_vars):
    """Values 0.5-2.5 tolerances apart: points have several candidates per variable.

    The support is unsorted and may repeat rows; the first matching row wins.
    """
    rng = np.random.default_rng(seed)
    axes = [np.cumsum(rng.uniform(0.5 * TOL, 2.5 * TOL, size=5)) for _ in range(n_vars)]
    picks = rng.integers(0, 5, size=(30, n_vars))
    support = np.column_stack([axes[v][picks[:, v]] for v in range(n_vars)])
    points = np.concatenate(
        [support + rng.uniform(-TOL, TOL, size=support.shape), probe_points(rng, support)]
    )
    assert np.array_equal(_SupportIndex(support).match(points), oracle_match(points, support))


def test_matcher_forms_no_points_by_support_array():
    rng = np.random.default_rng(5)
    support = np.unique(rng.integers(0, 4000, size=(4000, 2)) * 1e-3, axis=0)
    points = probe_points(rng, support)
    tracemalloc.start()
    got = _SupportIndex(support).match(points)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # one boolean per (point, support row) would take len(points) * len(support) bytes
    assert peak < len(points) * len(support) / 20
    assert np.count_nonzero(got >= 0) >= len(support)
