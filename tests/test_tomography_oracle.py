"""The reconstruction map and the unknowns' layout against the loop oracle.

Random Hermitian pairs of dimension 2-6, half of them with degenerate
spectra, under every scheme constructor (including the rank-deficient
``s_alpha(0.5)``). The library map acts on the orthonormal unknowns of a
Hermitian matrix: ``map_matrix`` times the unknowns of each chart matrix
must equal the oracle's traces of the dense atoms against it within
1e-12, and the rank the finite-difference rank. The oracle's chart must
round-trip (``parametrize`` undoes ``embed`` exactly, and ``embed``
undoes ``parametrize`` on random states), ``embed`` must be the affine
combination of the chart matrices, and the library's unknown tables must
rebuild a matrix from the oracle's unknowns.

Maps inverted by blocks (split words, Born-Jordan) are checked against
the dense map and the oracle: the dense map's singular values are the
blocks', its margin theirs, the rank the finite-difference rank and the
state the one the oracle's pseudo-inverse gives, also where merged atoms
join entry pairs, where no state fits the weights (with no dense map
built), and on the spin pairs of the paper's distinguishability table.

The blocks must equal the oracle's ``entry_blocks``, which labels every
atom set's components by propagation, byte for byte: on random and spin
pairs, degenerate spectra and merged atoms.

``reconstruct_state`` keeps per-map operators on the map; its states
must equal the oracle's per-call solve (``per_call_state``) bit for bit
where the closed form holds, and within 1e-13 on blocks, on the dense
block and where the closed form falls back to it. A map built from its
inputs alone works out the route, rank, diagnostics and states that
``reconstruction_map`` gives, with the Kirkwood bound computed once.
On every route its result skips the Hermiticity check and is, read-only,
the constructor's matrix of the solver's output; a non-positive one is
refused with the constructor's message.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasijoint as qj
from quasijoint import analysis, linalg

import tomography_oracle
from tomography_oracle import chart_matrices, hermitian_unknowns
from test_atoms_oracle import PROPERTY, TWO_VAR_SCHEMES, observables


def _chart_columns(rmap):
    """The map on each chart matrix, through the matrix's unknowns: (slope columns, offset)."""
    chart = np.stack([hermitian_unknowns(m) for m in chart_matrices(rmap.dim)], axis=1)
    out = rmap.map_matrix @ chart
    return out[:, 1:], out[:, 0]


@settings(PROPERTY, max_examples=80)
@given(spec=TWO_VAR_SCHEMES, obs=observables(2, max_dim=6))
def test_map_matches_finite_difference_oracle(spec, obs):
    got = qj.reconstruction_map(*obs, spec)
    cols, base, rank = tomography_oracle.reconstruction_map(*obs, spec)
    assert got.map_matrix.shape == (2 * len(got.atoms), got.dim**2)
    for m in chart_matrices(got.dim):
        want = tomography_oracle.stacked_coefficients(got.atoms, m)
        assert np.abs(got.map_matrix @ hermitian_unknowns(m) - want).max() <= 1e-12
    # rho(0) has one unit unknown: its weights are one column, read exactly
    assert np.array_equal(_chart_columns(got)[1], base)
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
    # only the trace survives
    assert linalg.real_rank_and_pinv(got.map_matrix)[0] == 1


def test_rank_deficient_map_matches_oracle(spin_half):
    pair = (spin_half.j1, spin_half.j2)
    got = qj.reconstruction_map(*pair, qj.scheme_s_alpha(0.5))
    cols, base, rank = tomography_oracle.reconstruction_map(*pair, qj.scheme_s_alpha(0.5))
    assert got.rank == rank == 2
    slope, offset = _chart_columns(got)
    assert np.abs(slope - cols).max() <= 1e-12
    assert np.array_equal(offset, base)


@settings(PROPERTY, max_examples=60)
@given(dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_chart_matches_loop_oracle(dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=dim * dim - 1)
    rho = tomography_oracle.embed(x, dim)
    assert np.array_equal(tomography_oracle.parametrize(rho), x)
    basis = np.stack(list(chart_matrices(dim)))
    assert np.abs(rho - (basis[0] + np.tensordot(x, basis[1:], 1))).max() <= 1e-15
    unknown, factor = analysis._entry_unknowns(dim)
    rebuilt = (factor * hermitian_unknowns(rho)[unknown]).sum(axis=0)
    assert np.abs(rebuilt - rho).max() <= 1e-15
    state = qj.random_density(dim, rng).matrix
    back = tomography_oracle.embed(tomography_oracle.parametrize(state), dim)
    assert np.abs(back - state).max() <= 1e-14


# Split words and Born-Jordan close on A, degenerate or not, so their maps
# split into blocks over entry pairs of U_A^dagger rho U_A; the dense map is
# their oracle.
SPLIT_WORDS = st.one_of(
    st.builds(qj.scheme_s_alpha, st.floats(0.0, 1.0)),
    st.builds(qj.scheme_born_jordan, st.integers(1, 6)),
)


def _dense_state(rmap, dist):
    """The state the oracle's pseudo-inverse gives for a distribution."""
    aligned = np.zeros(len(rmap.support), dtype=complex)
    aligned[rmap._support_index.match(dist.points)] = dist.weights
    return tomography_oracle.pinv_state(*rmap.observables, rmap.scheme, aligned)


def _dense_singular_values(rmap):
    return np.linalg.svd(rmap.map_matrix, compute_uv=False)


@settings(PROPERTY, max_examples=150)
@given(spec=SPLIT_WORDS, obs=observables(2), seed=st.integers(0, 2**32 - 1))
def test_block_rank_and_state_match_the_dense_map(spec, obs, seed):
    rmap = qj.reconstruction_map(*obs, spec)
    assert rmap.diagnostics["inversion"] == "blocks"
    assert rmap.rank == tomography_oracle.reconstruction_map(*obs, spec)[2]
    s = _dense_singular_values(rmap)
    kept = int(np.count_nonzero(s > linalg.rank_threshold(s[0])))
    assert rmap.rank == max(kept - 1, 0)
    if rmap.diagnostics["inversion"] != "blocks" or not rmap.full_rank:
        return
    # one basis on both: the margins are equal
    dense_margin = s[kept - 1] / linalg.rank_threshold(s[0])
    assert abs(dense_margin - rmap.diagnostics["rank_margin"]) <= 1e-9 * dense_margin
    rho = qj.random_density(rmap.dim, np.random.default_rng(seed))
    dist = qj.evaluate_distribution(rmap.atoms, rho)
    got = qj.reconstruct_state(rmap, dist)
    assert np.abs(got.matrix - _dense_state(rmap, dist)).max() <= 1e-10


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
    assert rmap.rank == tomography_oracle.reconstruction_map(a, b, qj.scheme_s_alpha(0.5))[2] == 8
    dist = qj.evaluate_distribution(rmap.atoms, qj.random_density(3, rng))
    got = qj.reconstruct_state(rmap, dist)
    assert np.abs(got.matrix - _dense_state(rmap, dist)).max() <= 1e-10


def test_degenerate_closing_observable_takes_blocks():
    # diag(2, 1, 0, 0) has a double eigenvalue: its cells index eigenvector
    # columns, so each still touches one entry pair and the map splits
    a = qj.HermitianObservable(np.diag([2.0, 1.0, 0.0, 0.0]), "A")
    rmap = qj.reconstruction_map(a, qj.spin_operators(3).j1, qj.scheme_s_alpha(0.25))
    assert rmap.diagnostics["inversion"] == "blocks"
    assert rmap.diagnostics["largest_block"] == (16, 4)
    s = _dense_singular_values(rmap)
    assert rmap.rank == np.count_nonzero(s > linalg.rank_threshold(s[0])) - 1 == 14


def _entry_block_pairs():
    """Random pairs, spin pairs j <= 8, degenerate spectra of A or B, and equally spaced spectra."""
    rng = np.random.default_rng(27)
    yield from (_random_pair(rng, n) for n in (2, 3, 4, 6, 8) for _ in range(2))
    for jj in range(1, 17):
        s = qj.spin_operators(jj)
        yield from ((s.j1, s.j2), (s.j2, s.j3), (s.j3, s.j1))
    for n in (3, 4, 5):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        degenerate = qj.HermitianObservable((q * rng.choice([-1.0, 0.0, 2.0], n)) @ q.conj().T)
        spaced = qj.HermitianObservable((q * np.arange(n)) @ q.conj().T)  # merges under s_alpha(0.5)
        other = qj.HermitianObservable(qj.random_hermitian(n, rng))
        yield from ((degenerate, other), (other, degenerate), (spaced, other))


def _block_arrays(blocks):
    return [blocks.vectors, blocks.singular_values, *(a for g in blocks.groups for a in g)]


def test_entry_blocks_match_the_propagation_oracle():
    # atoms of one cell each take their labels off their entries, the others by
    # propagation; both must give the oracle's blocks byte for byte
    one_cell = set()
    for obs in _entry_block_pairs():
        for spec in (qj.scheme_s_alpha(0.25), qj.scheme_s_alpha(0.5), qj.scheme_born_jordan(5),
                     qj.scheme_born_jordan(21)):
            atoms = qj.build_atoms(spec, obs)
            got, want = analysis._entry_blocks(atoms), tomography_oracle.entry_blocks(atoms)
            assert got is not None and want is not None
            one_cell.add(atoms.values.size == len(atoms))
            assert got.kept == want.kept and len(got.groups) == len(want.groups)
            for x, y in zip(_block_arrays(got), _block_arrays(want)):
                assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    assert one_cell == {True, False}


@settings(PROPERTY, max_examples=60)
@given(spec=SPLIT_WORDS, obs=observables(2, max_dim=6))
def test_block_singular_values_are_the_dense_maps(spec, obs):
    # the unknowns are orthonormal and the eigenbasis of A a unitary change
    # of frame, so the blocks and the dense map share their singular values
    rmap = qj.reconstruction_map(*obs, spec)
    if rmap.diagnostics["inversion"] != "blocks":
        return
    dense = _dense_singular_values(rmap)
    blocks = np.zeros_like(dense)
    blocks[: rmap.blocks.singular_values.size] = rmap.blocks.singular_values
    assert np.abs(dense - blocks).max() <= 1e-12 * dense[0]


def _refuse_the_dense_map(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense map was built or decomposed")

    monkeypatch.setattr(analysis, "_dense_map", refuse)


def test_off_range_weights_on_blocks_give_the_least_squares_state(monkeypatch):
    rng = np.random.default_rng(8)
    pair = _random_pair(rng, 4)
    rho = qj.random_density(4, rng)
    _refuse_the_dense_map(monkeypatch)
    rmap = qj.reconstruction_map(*pair, qj.scheme_s_alpha(0.25))
    assert rmap.diagnostics["inversion"] == "blocks" and rmap.full_rank
    dist = qj.evaluate_distribution(rmap.atoms, rho, prune_tol=0.0)
    noise = 1e-6 * (rng.normal(size=len(dist)) + 1j * rng.normal(size=len(dist)))
    # unpruned, the points are the support in order, so the weights are aligned
    bad = qj.QuasiDistribution(2, dist.points, dist.weights + noise)
    # no state has these weights: the blocks solve the least-squares problem
    got = qj.reconstruct_state(rmap, bad)
    assert np.abs(got.matrix - _dense_state(rmap, bad)).max() <= 1e-15
    assert 1e-8 < np.abs(got.matrix - rho.matrix).max() < 1e-5
    # Hermitian to the last bit, so the diagonal shows no imaginary rounding
    assert np.array_equal(got.matrix, got.matrix.conj().T)
    assert abs(got.matrix.trace() - 1.0) <= 1e-15


def test_block_route_builds_no_dense_map(monkeypatch):
    rng = np.random.default_rng(4)
    pair = _random_pair(rng, 8)
    states = [qj.random_density(8, rng) for _ in range(4)]
    _refuse_the_dense_map(monkeypatch)
    rmap = qj.reconstruction_map(*pair, qj.scheme_s_alpha(0.25))
    assert rmap.rank == 63 and rmap.diagnostics["inversion"] == "blocks"
    for rho in states:
        got = qj.reconstruct_state(rmap, qj.evaluate_distribution(rmap.atoms, rho))
        assert np.abs(got.matrix - rho.matrix).max() <= 1e-12
    with pytest.raises(AssertionError, match="dense map"):
        rmap.map_matrix  # the dense map on demand


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
        oracle_rank = tomography_oracle.reconstruction_map(spin.j1, spin.j2, spec)[2]
        assert rmap.rank == rank == oracle_rank, spec.label


def _svd_pair(n):
    """A pair whose Kirkwood-Dirac map takes the dense route: A with one double eigenvalue, B random."""
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    a = qj.HermitianObservable((q * np.maximum(np.arange(n) - 1, 0)) @ q.conj().T, "A")
    return a, qj.HermitianObservable(qj.random_hermitian(n, rng), "B")


PER_CALL_MAPS = [
    pytest.param("closed_form", lambda: _random_pair(np.random.default_rng(1), 3), qj.scheme_kirkwood(2),
                 id="kirkwood-random-3"),
    pytest.param("closed_form", lambda: _random_pair(np.random.default_rng(2), 8),
                 qj.scheme_margenau_hill(0.5), id="margenau_hill-random-8"),
    pytest.param("closed_form", lambda: qj.spin_operators(3).components[:2], qj.scheme_kirkwood(2),
                 id="kirkwood-spin-3/2"),
    pytest.param("blocks", lambda: _random_pair(np.random.default_rng(3), 4), qj.scheme_s_alpha(0.25),
                 id="s_alpha-random-4"),
    pytest.param("blocks", lambda: _random_pair(np.random.default_rng(4), 5), qj.scheme_born_jordan(5),
                 id="born_jordan-random-5"),
    pytest.param("svd", lambda: qj.spin_operators(2).components[:2], qj.scheme_kirkwood(2),
                 id="kirkwood-spin-1"),
    pytest.param("svd", lambda: _svd_pair(5), qj.scheme_kirkwood(2), id="kirkwood-degenerate-5"),
]


@pytest.mark.parametrize("route, pair, spec", PER_CALL_MAPS)
def test_reconstruct_state_matches_the_per_call_solve(route, pair, spec):
    rmap = qj.reconstruction_map(*pair(), spec)
    assert rmap.diagnostics["inversion"] == route and rmap.full_rank
    rng = np.random.default_rng(rmap.dim)
    weights = []
    for _ in range(3):
        dist = qj.evaluate_distribution(rmap.atoms, qj.random_density(rmap.dim, rng), prune_tol=0.0)
        assert np.array_equal(dist.points, rmap.support)
        weights.append(dist.weights)
    # weights no state has: the closed form falls back to the dense block
    weights.append(weights[0] + 1e-6 * rng.normal(size=weights[0].size))
    routes = []
    for w in weights:
        got = qj.reconstruct_state(rmap, qj.QuasiDistribution(2, rmap.support, w)).matrix
        want, solved_by = tomography_oracle.per_call_state(rmap, w.astype(complex))
        routes.append(solved_by)
        if solved_by == "closed_form":
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-13
            assert np.array_equal(got, got.conj().T)
    closed = route == "closed_form"
    assert routes == ["closed_form"] * 3 + ["blocks"] if closed else ["blocks"] * 4


@pytest.mark.parametrize("route, pair, spec", PER_CALL_MAPS)
def test_map_works_out_its_route(route, pair, spec, monkeypatch):
    pair = tuple(pair())
    want = qj.reconstruction_map(*pair, spec)
    bounds = []
    counted = analysis._singular_value_bounds
    monkeypatch.setattr(analysis, "_singular_value_bounds", lambda form: bounds.append(form) or counted(form))
    rmap = analysis.ReconstructionMap(pair, spec, qj.build_atoms(spec, pair))
    assert [f.name for f in dataclasses.fields(rmap) if f.init] == ["observables", "scheme", "atoms"]
    assert rmap.diagnostics == want.diagnostics and rmap.diagnostics["inversion"] == route
    assert rmap.rank == want.rank and rmap.full_rank
    assert (rmap.closed_form is not None) == (route == "closed_form")
    if route != "closed_form":
        assert isinstance(rmap.blocks, analysis.EntryBlocks)
        assert (rmap.blocks.vectors is None) == (route == "svd")
    rng = np.random.default_rng(rmap.dim)
    dist = qj.evaluate_distribution(rmap.atoms, qj.random_density(rmap.dim, rng), prune_tol=0.0)
    # weights no state has: the closed form falls back to the least-squares split
    noisy = dist.weights + 1e-6 * rng.normal(size=dist.weights.size)
    for w in (dist.weights, noisy):
        dist = qj.QuasiDistribution(2, rmap.support, w)
        assert np.array_equal(qj.reconstruct_state(rmap, dist).matrix, qj.reconstruct_state(want, dist).matrix)
    # the bound is computed at construction only, and only for a Kirkwood form
    assert len(bounds) == (rmap.atoms.kirkwood_form() is not None)
    assert not hasattr(rmap, "_dense") and not hasattr(rmap, "_inverted")


@pytest.mark.parametrize("route, pair", [
    ("svd", lambda: _svd_pair(16)),
    ("closed_form", lambda: _random_pair(np.random.default_rng(16), 16)),
])
def test_reconstruction_keeps_no_more_than_n_squared_per_map(route, pair):
    # what the first solve leaves on the map (the Lagrange step, or the closed
    # form's four N x N arrays) stays O(N^2): a pseudo-inverse of the dense
    # map, (N^2, 2P) floats, would hold 1 MB at N = 16
    rmap = qj.reconstruction_map(*pair(), qj.scheme_kirkwood(2))
    assert rmap.diagnostics["inversion"] == route and rmap.full_rank
    n = rmap.dim
    dist = qj.evaluate_distribution(rmap.atoms, qj.random_density(n, np.random.default_rng(0)),
                                    prune_tol=0.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        qj.reconstruct_state(rmap, dist)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 4 * n * n * 16 + 4096


@pytest.mark.parametrize("route, pair, spec", PER_CALL_MAPS)
def test_reconstruction_is_validated_once(route, pair, spec, monkeypatch):
    # the result skips the Hermiticity check, which it passes by construction,
    # and is, read-only, the matrix the constructor makes of the solver's output
    rmap = qj.reconstruction_map(*pair(), spec)
    assert rmap.diagnostics["inversion"] == route
    rng = np.random.default_rng(rmap.dim)
    ket = rng.normal(size=rmap.dim) + 1j * rng.normal(size=rmap.dim)
    states = [qj.random_density(rmap.dim, rng), qj.DensityState.pure(ket)]  # pure: the positivity boundary
    solved = []
    unit_hermitian = qj.DensityState._of_unit_hermitian
    monkeypatch.setattr(qj.DensityState, "_of_unit_hermitian",
                        lambda m: solved.append(m.copy()) or unit_hermitian(m))
    checks = []
    check = linalg.require_hermitian
    monkeypatch.setattr(linalg, "require_hermitian", lambda *a, **k: checks.append(1) or check(*a, **k))
    for rho in states:
        dist = qj.evaluate_distribution(rmap.atoms, rho, prune_tol=0.0)
        checks.clear()
        got = qj.reconstruct_state(rmap, dist).matrix
        assert checks == []
        assert not got.flags.writeable
        assert np.array_equal(got, qj.DensityState(solved[-1]).matrix)
        assert np.abs(got - rho.matrix).max() <= 1e-9


@pytest.mark.parametrize("route, pair, spec", PER_CALL_MAPS)
def test_non_positive_reconstruction_names_its_eigenvalue(route, pair, spec):
    # a Hermitian unit-trace matrix with eigenvalue -1e-6 is refused as the constructor refuses it
    rmap = qj.reconstruction_map(*pair(), spec)
    rng = np.random.default_rng(rmap.dim)
    q, _ = np.linalg.qr(rng.normal(size=(rmap.dim, rmap.dim)) + 1j * rng.normal(size=(rmap.dim, rmap.dim)))
    lam = np.full(rmap.dim, (1.0 + 1e-6) / (rmap.dim - 1))
    lam[-1] = -1e-6
    m = (q * lam) @ q.conj().T
    m = (m + m.conj().T) / 2
    dist = qj.QuasiDistribution(2, rmap.support, rmap.atoms.weights_for(m))
    with pytest.raises(qj.errors.DomainError, match=r"^density matrix has eigenvalue -1\.000e-06 below -1\.0e-09$"):
        qj.reconstruct_state(rmap, dist)
