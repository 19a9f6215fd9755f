"""The reconstruction map and coordinate chart against the loop oracle.

Random Hermitian pairs of dimension 2-6, half of them with degenerate
spectra, under every scheme constructor (including the rank-deficient
``s_alpha(0.5)``). The map must match the finite-difference columns within
1e-12, with a bit-identical offset and the same rank; ``parametrize`` and
``embed`` must equal the double-loop versions exactly, and ``embed`` must
be the affine combination of ``chart_matrices`` the map is traced against.

Maps inverted by blocks (split words, Born-Jordan) take the dense map as
their oracle: the same rank as its SVD and the state its pseudo-inverse
gives, also where merged atoms join entry pairs, where no state fits the
weights, and on the spin pairs of the paper's distinguishability table.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasijoint as qj
from quasijoint import analysis, linalg
from quasijoint.quantum import chart_matrices

import tomography_oracle
from test_atoms_oracle import PROPERTY, TWO_VAR_SCHEMES, observables


@settings(PROPERTY, max_examples=80)
@given(spec=TWO_VAR_SCHEMES, obs=observables(2, max_dim=6))
def test_map_matches_finite_difference_oracle(spec, obs):
    got = qj.reconstruction_map(*obs, spec)
    cols, base, rank = tomography_oracle.reconstruction_map(*obs, spec)
    assert got.map_matrix.shape == cols.shape
    assert np.abs(got.map_matrix - cols).max() <= 1e-12
    assert np.array_equal(got.offset, base)
    assert got.rank == rank
    if len(got.atoms) == 1:
        # a lone atom is the identity: the map is zero but for rounding
        assert np.abs(cols).max() <= 1e-12
        assert got.rank == 0


def scalar_observable(rng, dim, label):
    """V (c I) V^dagger: a multiple of the identity carrying rounding noise."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    return qj.HermitianObservable((q * rng.uniform(-3.0, 3.0)) @ q.conj().T, label)


@settings(PROPERTY, max_examples=60)
@given(spec=TWO_VAR_SCHEMES, dim=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_scalar_pair_map_has_rank_zero(spec, dim, seed):
    rng = np.random.default_rng(seed)
    a, b = scalar_observable(rng, dim, "A"), scalar_observable(rng, dim, "B")
    got = qj.reconstruction_map(a, b, spec)
    assert len(got.atoms) == 1
    assert got.rank == 0
    assert not got.pinv.any()


def test_rank_deficient_map_matches_oracle(spin_half):
    pair = (spin_half.j1, spin_half.j2)
    got = qj.reconstruction_map(*pair, qj.scheme_s_alpha(0.5))
    cols, base, rank = tomography_oracle.reconstruction_map(*pair, qj.scheme_s_alpha(0.5))
    assert got.rank == rank == 2
    assert np.abs(got.map_matrix - cols).max() <= 1e-12
    assert np.array_equal(got.offset, base)


@settings(PROPERTY, max_examples=60)
@given(dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_chart_matches_loop_oracle(dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=dim * dim - 1)
    rho = qj.embed(x, dim)
    assert np.array_equal(rho.matrix, tomography_oracle.embed(x, dim).matrix)
    assert np.array_equal(qj.parametrize(rho), tomography_oracle.parametrize(rho))
    assert np.array_equal(qj.parametrize(rho), x)
    basis = np.stack(list(chart_matrices(dim)))
    assert np.abs(rho.matrix - (basis[0] + np.tensordot(x, basis[1:], 1))).max() <= 1e-15
    state = qj.random_density(dim, rng)
    assert np.array_equal(qj.parametrize(state), tomography_oracle.parametrize(state))


# Split words and Born-Jordan close on A, so their maps split into blocks
# over entry pairs of U_A^dagger rho U_A; the dense map is their oracle.
SPLIT_WORDS = st.one_of(
    st.builds(qj.scheme_s_alpha, st.floats(0.0, 1.0)),
    st.builds(qj.scheme_born_jordan, st.integers(1, 6)),
)


def _dense_state(rmap, dist):
    """The state the pseudo-inverse of the dense map gives for a distribution."""
    aligned = np.zeros(len(rmap.support), dtype=complex)
    aligned[rmap._support_index.match(dist.points)] = dist.weights
    coords = linalg._real_svd_rank(rmap.map_matrix)[1] @ (analysis._re_im_rows(aligned) - rmap.offset)
    return qj.embed(coords, rmap.dim)


@settings(PROPERTY, max_examples=150)
@given(spec=SPLIT_WORDS, obs=observables(2), seed=st.integers(0, 2**32 - 1))
def test_block_rank_and_state_match_the_dense_map(spec, obs, seed):
    rmap = qj.reconstruction_map(*obs, spec)
    assert (rmap.blocks is not None) == (not obs[0].eig.degenerate)
    rank, _, s = linalg._real_svd_rank(rmap.map_matrix)
    assert rmap.rank == rank
    if rmap.blocks is None or not rmap.full_rank:
        return
    # the margins come from different maps; the chart's singular values
    # lie in [1, sqrt(N)], which bounds the dense one from below
    dense_margin = s[rank - 1] / linalg.rank_threshold(s[0])
    assert dense_margin >= rmap.diagnostics["rank_margin"] / np.sqrt(rmap.dim) * (1 - 1e-9)
    rho = qj.random_density(rmap.dim, np.random.default_rng(seed))
    dist = qj.evaluate_distribution(rmap.atoms, rho)
    got = qj.reconstruct_state(rmap, dist)
    assert np.abs(got.matrix - _dense_state(rmap, dist).matrix).max() <= 1e-10


def _random_pair(rng, dim):
    return tuple(qj.HermitianObservable(qj.random_hermitian(dim, rng), label) for label in "AB")


def test_planted_merge_joins_a_diagonal_and_an_off_diagonal_pair():
    # A has the equally spaced spectrum (-1, 0, 1), so (a_0 + a_2) / 2 = a_1:
    # under s_alpha(0.5) the choices (0, b, 2), (2, b, 0) and (1, b, 1) land on
    # one atom, which touches Z[1, 1] and the pair {Z[0, 2], Z[2, 0]}
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    a = qj.HermitianObservable((q * [-1.0, 0.0, 1.0]) @ q.conj().T, "A")
    b = qj.HermitianObservable(qj.random_hermitian(3, rng), "B")
    rmap = qj.reconstruction_map(a, b, qj.scheme_s_alpha(0.5))
    assert rmap.diagnostics["inversion"] == "blocks"
    # three atoms, one per eigenvalue of B, against Z[1, 1], Re and Im of Z[2, 0]
    assert rmap.diagnostics["largest_block"] == (6, 3)
    assert rmap.rank == linalg._real_svd_rank(rmap.map_matrix)[0] == 8
    dist = qj.evaluate_distribution(rmap.atoms, qj.random_density(3, rng))
    got = qj.reconstruct_state(rmap, dist)
    assert np.abs(got.matrix - _dense_state(rmap, dist).matrix).max() <= 1e-10


def test_off_range_weights_fall_back_to_the_dense_pseudo_inverse():
    rng = np.random.default_rng(8)
    rmap = qj.reconstruction_map(*_random_pair(rng, 4), qj.scheme_s_alpha(0.25))
    assert rmap.diagnostics["inversion"] == "blocks" and rmap.full_rank
    rho = qj.random_density(4, rng)
    dist = qj.evaluate_distribution(rmap.atoms, rho, prune_tol=0.0)
    noise = 1e-6 * (rng.normal(size=len(dist)) + 1j * rng.normal(size=len(dist)))
    # unpruned, the points are the support in order, so the weights are aligned
    bad = qj.QuasiDistribution(2, dist.points, dist.weights + noise)
    # no state has these weights: the blocks decline them
    assert analysis._block_state(rmap, bad.weights) is None
    got = qj.reconstruct_state(rmap, bad)
    assert np.abs(got.matrix - _dense_state(rmap, bad).matrix).max() <= 1e-15
    assert 1e-8 < np.abs(got.matrix - rho.matrix).max() < 1e-5


def test_block_route_builds_no_dense_map(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense map was built or decomposed")

    rng = np.random.default_rng(4)
    pair = _random_pair(rng, 8)
    states = [qj.random_density(8, rng) for _ in range(4)]
    monkeypatch.setattr(linalg, "_real_svd_rank", refuse)
    monkeypatch.setattr(analysis, "chart_matrices", refuse)
    rmap = qj.reconstruction_map(*pair, qj.scheme_s_alpha(0.25))
    assert rmap.rank == 63 and rmap.diagnostics["inversion"] == "blocks"
    for rho in states:
        got = qj.reconstruct_state(rmap, qj.evaluate_distribution(rmap.atoms, rho))
        assert np.abs(got.matrix - rho.matrix).max() <= 1e-12
    with pytest.raises(AssertionError, match="dense map"):
        rmap.pinv  # the dense map and its SVD on demand


# The paper's distinguishability comparison on spin (J1, J2), j = 1/2 ... 3.
# Kirkwood-Dirac and s_alpha(0.25) determine the state. The real schemes
# s_alpha(0.5) and born_jordan(21) reach rank N(N+1)/2 - 1 only: 2, 5, 9,
# 14, 20, 27 for N = 2-7. That pattern is measured here, not proven; on
# random pairs at N >= 3 the real schemes are full rank.
@pytest.mark.parametrize("j_times_two", range(1, 7))
def test_spin_pair_distinguishability_table(j_times_two):
    spin = qj.spin_operators(j_times_two)
    n = spin.dim
    table = [
        (qj.scheme_kirkwood(2), n * n - 1),
        (qj.scheme_s_alpha(0.25), n * n - 1),
        (qj.scheme_s_alpha(0.5), n * (n + 1) // 2 - 1),
        (qj.scheme_born_jordan(21), n * (n + 1) // 2 - 1),
    ]
    for spec, rank in table:
        rmap = qj.reconstruction_map(spin.j1, spin.j2, spec)
        assert rmap.rank == rank == linalg._real_svd_rank(rmap.map_matrix)[0], spec.label
