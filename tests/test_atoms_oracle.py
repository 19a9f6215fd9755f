"""The vectorized atom builder against the brute-force oracle.

Random Hermitian observables of dimension 2-5, half of them with
degenerate spectra (a random unitary times a few repeated integer
eigenvalues), under every scheme constructor. The builder must return
the oracle's atom count, bit-identical points and matrices within 1e-12.

The cell table, whose coordinates are clustered per variable on that
variable's own factor axes, must equal the oracle's full-grid table
array for array, and its rounding of representatives Python's ``round``
bit for bit.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import quasijoint as qj
from quasijoint import distributions, linalg
from quasijoint.distributions import _cell_table, _cluster_values, _round12

import atoms_oracle

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _observable(rng, dim, levels, label):
    if levels is None:
        return qj.HermitianObservable(qj.random_hermitian(dim, rng), label)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    vals = rng.choice(levels, size=dim)
    return qj.HermitianObservable((q * vals) @ q.conj().T, label)


@st.composite
def observables(draw, n_vars, max_dim=5, min_dim=2):
    dim = draw(st.integers(min_dim, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spectra = st.none() | st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True)
    return tuple(_observable(rng, dim, draw(spectra), f"O{v}") for v in range(n_vars))


def _simplex(draw, length):
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=length, max_size=length)))
    return (w / w.sum()).tolist()


@st.composite
def alternating(draw):
    first_var = draw(st.integers(0, 1))
    short = draw(st.integers(1, 3))
    long = short + draw(st.integers(0, 1))
    first, second = _simplex(draw, long), _simplex(draw, short)
    xs, ys = (first, second) if first_var == 0 else (second, first)
    return qj.scheme_alternating(xs, ys, first_var=first_var)


@st.composite
def reversed_mixture(draw):
    """A split word and its reversal: two observable sequences, each with its own chain."""
    a = draw(st.floats(0.0, 1.0))
    w = draw(st.floats(0.0, 1.0))
    word = [(0, a, 0), (0, 1.0 - a, 0), (1, 1.0, 1)]
    return qj.SchemeSpec(2, ((w, word), (1.0 - w, word[::-1])))


TWO_VAR_SCHEMES = st.one_of(
    st.just(qj.scheme_kirkwood(2)),
    st.builds(qj.scheme_s_alpha, st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)),
    st.builds(qj.scheme_margenau_hill, st.floats(-1.0, 1.0)),
    st.builds(qj.scheme_born_jordan, st.integers(1, 6)),
    alternating(),
    reversed_mixture(),
)


def assert_matches_oracle(spec, obs):
    got = qj.build_atoms(spec, obs)
    want = atoms_oracle.build_atoms(spec, obs)
    assert len(got) == len(want)
    assert np.array_equal(got.points, want.points)
    assert np.abs(atoms_oracle.matrices(got) - want.matrices).max() <= 1e-12


@PROPERTY
@given(spec=TWO_VAR_SCHEMES, obs=observables(2))
def test_two_variable_schemes_match_oracle(spec, obs):
    assert_matches_oracle(spec, obs)


@settings(PROPERTY, max_examples=40)
@given(n_vars=st.sampled_from([1, 3]), data=st.data())
def test_kirkwood_one_and_three_variables_match_oracle(n_vars, data):
    assert_matches_oracle(qj.scheme_kirkwood(n_vars), data.draw(observables(n_vars)))


def test_spin_pairs_match_oracle():
    for j_times_two in (1, 2, 3):
        spin = qj.spin_operators(j_times_two)
        for spec in (
            qj.scheme_kirkwood(2),
            qj.scheme_s_alpha(0.5),
            qj.scheme_margenau_hill(0.3),
            qj.scheme_born_jordan(5),
            qj.scheme_alternating([0.3, 0.7], [0.6, 0.4]),
        ):
            assert_matches_oracle(spec, (spin.j1, spin.j2))


def test_cluster_representatives_match_oracle():
    # near-duplicate coordinates a few 1e-12 apart form multi-value clusters,
    # and enough distinct means reach the 1e-12 rounding boundary
    rng = np.random.default_rng(7)
    base = rng.uniform(-5.0, 5.0, size=4000)
    values = np.concatenate(
        [base + 3e-12 * rng.integers(-3, 4, size=base.size) for _ in range(4)]
    )
    # clusters of values a few 1e-13 either side of a half-way point (k + 1/2) 1e-12,
    # whose members round to different grid points one by one
    halves = (rng.integers(-5 * 10**12, 5 * 10**12, size=1000) + 0.5) / 1e12
    straddle = halves[:, None] + np.array([-3e-13, -1e-13, 0.0, 2e-13, 4e-13])
    values = np.concatenate([values, straddle.ravel(), halves + 1e-13, halves - 1e-13])
    reps = atoms_oracle._cluster_values(values, 1e-9)
    want = np.array([reps[float(v)] for v in values])
    reps, ids, counts = _cluster_values(values, np.zeros(values.size, dtype=np.intp), 1e-9)
    assert np.array_equal(reps[ids], want)
    assert np.array_equal(reps, np.unique(want))
    assert counts.tolist() == [reps.size]
    reps_np, ids_np = atoms_oracle.unique_clusters(values, 1e-9)
    assert np.array_equal(reps, reps_np) and np.array_equal(ids, ids_np)


def test_clusters_never_span_two_variables():
    # values of two variables interleave within COORD_TOL: variable 0 at
    # b and b + 6e-10, variable 1 at b + 3e-10 and b + 9e-10, so the two
    # would chain into one cluster per b; each variable must cluster alone
    rng = np.random.default_rng(11)
    tol = linalg.COORD_TOL
    base = rng.uniform(-3.0, 3.0, size=500)
    half = rng.random(base.size) < 0.5
    per_var = [np.concatenate([base + shift, base[half] + shift + 6e-10]) for shift in (0.0, 3e-10)]
    values = np.concatenate(per_var)
    var = np.repeat([0, 1], [v.size for v in per_var])
    shuffle = rng.permutation(values.size)
    values, var = values[shuffle], var[shuffle]
    reps, ids, counts = _cluster_values(values, var, tol)
    assert counts.tolist() == [base.size, base.size]
    for v, start in enumerate((0, base.size)):
        want_reps, want_ids = atoms_oracle.unique_clusters(values[var == v], tol)
        assert np.array_equal(reps[start : start + base.size], want_reps)
        assert np.array_equal(ids[var == v] - start, want_ids)
    merged, _, _ = _cluster_values(values, np.zeros_like(var), tol)
    assert merged.size == base.size  # one cluster per b had the variables been mixed


def _assert_rounds_as_python(x):
    x = np.array(x, dtype=float)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = _round12(x)
    want = np.array([round(v, 12) for v in x.tolist()])
    differ = got.view(np.int64) != want.view(np.int64)
    assert not differ.any(), x[differ]


HALF_WAY = st.integers(-(2**60), 2**60).map(lambda k: (k + 0.5) / 1e12)


@settings(PROPERTY, max_examples=300)
@given(
    st.lists(
        st.floats()
        | HALF_WAY
        | HALF_WAY.map(lambda x: np.nextafter(x, np.inf))
        | HALF_WAY.map(lambda x: np.nextafter(x, -np.inf))
        | st.tuples(st.floats(2.0**52 / 1e12, 1e308), st.sampled_from([1.0, -1.0])).map(np.prod)
        | st.sampled_from([0.0, -0.0, 1e300, -1e300, 2.0**52 / 1e12, 5e-13, -5e-13]),
        min_size=1,
        max_size=40,
    )
)
def test_round12_matches_python_round(values):
    _assert_rounds_as_python(values)


def test_round12_half_way_neighbours():
    k = np.random.default_rng(3).integers(-(10**15), 10**15, size=20000)
    halves = (k + 0.5) / 1e12
    _assert_rounds_as_python(
        np.concatenate([halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf)])
    )
    _assert_rounds_as_python([0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan, 2.0**52 / 1e12])


# the cell table against the oracle's full-grid table


def _assert_cell_table(groups, n_vars, eigs):
    got = _cell_table(groups, n_vars, eigs)
    want = atoms_oracle.cell_table(groups, n_vars, eigs)
    assert got[1] == want[1]
    for g, w in zip(got[:1] + got[2:], want[:1] + want[2:]):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def _eigs(obs):
    return tuple(o.eig for o in obs)


def _random_pair(rng, n, levels=None):
    return tuple(_observable(rng, n, levels, label) for label in "AB")


def _spin_pairs(max_j_times_two):
    for jj in range(1, max_j_times_two + 1):
        s = qj.spin_operators(jj)
        yield from ((s.j1, s.j2), (s.j2, s.j3), (s.j3, s.j1), (s.j3, s.j3))


SPLIT_PAIR = [(0, 0.5, 0), (1, 1.0, 1), (0, 0.5, 0)]
SMALL_SCHEMES = (
    qj.scheme_kirkwood(2),
    qj.scheme_s_alpha(0.25),
    qj.scheme_s_alpha(0.5),
    qj.scheme_margenau_hill(0.3),
    qj.scheme_born_jordan(5),
    qj.scheme_alternating([0.3, 0.7], [0.6, 0.4]),
)
MIXED_CLOSINGS = (
    qj.scheme_margenau_hill(0.3),
    qj.scheme_margenau_hill(0.0),
    qj.scheme_margenau_hill(-1.0),
    qj.scheme_alternating([0.3, 0.7], [0.6, 0.4]),
    qj.scheme_alternating([0.6, 0.4], [0.2, 0.3, 0.5], first_var=1),
    qj.SchemeSpec(2, ((0.4, [(0, 0.3, 0), (0, 0.7, 0), (1, 1.0, 1)]),
                      (0.6, [(1, 1.0, 1), (0, 0.7, 0), (0, 0.3, 0)]))),
)
# A (observable 0) on variable 1 and B on variable 0, and one group whose
# terms put the factors of one observable sequence on different variables
SWAPPED = (
    qj.SchemeSpec(2, ((1.0, [(1, 1.0, 0), (0, 1.0, 1)]),)),
    qj.SchemeSpec(2, ((0.5, [(1, 0.5, 0), (0, 1.0, 1), (1, 0.5, 0)]), (0.5, SPLIT_PAIR))),
    qj.SchemeSpec(2, ((0.3, [(1, 1.0, 0), (0, 1.0, 1)]), (0.7, [(0, 1.0, 0), (1, 1.0, 1)]))),
)


def test_cell_table_matches_oracle_on_workload_pairs():
    # the random pairs and sizes of the atoms_build benchmark
    mix = (
        [(qj.scheme_kirkwood(2), n) for n in (8, 16, 32)]
        + [(qj.scheme_margenau_hill(0.3), n) for n in (8, 16, 32)]
        + [(qj.scheme_s_alpha(0.25), n) for n in (8, 16, 24)]
        + [(qj.scheme_born_jordan(21), n) for n in (4, 8)]
        + [(qj.scheme_alternating([0.3, 0.7], [0.6, 0.4]), n) for n in (4, 6)]
    )
    rng = np.random.default_rng(11)
    for _ in range(6):
        for spec, n in mix:
            _assert_cell_table(spec.groups, 2, _eigs(_random_pair(rng, n)))


def test_cell_table_matches_oracle_on_degenerate_spectra():
    rng = np.random.default_rng(12)
    for n in range(2, 7):
        for _ in range(4):
            eigs = _eigs(_random_pair(rng, n, [-1, 0, 2]))
            for spec in SMALL_SCHEMES:
                _assert_cell_table(spec.groups, 2, eigs)


def test_cell_table_matches_oracle_on_spin_pairs():
    for obs in _spin_pairs(8):
        for spec in SMALL_SCHEMES[:-1] + (qj.scheme_born_jordan(21),):
            _assert_cell_table(spec.groups, 2, _eigs(obs))


def test_cell_table_matches_oracle_on_mixed_closings_and_swapped_variables():
    rng = np.random.default_rng(13)
    for n in range(2, 7):
        for levels in (None, [-1, 0, 2]):
            eigs = _eigs(_random_pair(rng, n, levels))
            for spec in MIXED_CLOSINGS + SWAPPED:
                _assert_cell_table(spec.groups, 2, eigs)
    for nv in (1, 3):
        spec = qj.scheme_kirkwood(nv)
        for n in range(2, 6):
            obs = [_observable(rng, n, [-1, 0, 2] if v else None, "O") for v in range(nv)]
            _assert_cell_table(spec.groups, nv, _eigs(obs))


def test_anti_hermitian_atoms_match_the_dense_atoms():
    # A_p - A_p^dagger read off the cells, each cell's conjugate transpose on
    # the reversed closing, against the dense atoms: one closing, mixed and
    # self-reversed closings, swapped variables, one and three variables
    def check(spec, obs):
        atoms = qj.build_atoms(spec, obs)
        gap = distributions._anti_hermitian(atoms)
        dense = atoms_oracle.matrices(atoms)
        assert np.array_equal(gap.points, atoms.points)
        assert np.abs(atoms_oracle.matrices(gap) - (dense - dense.conj().transpose(0, 2, 1))).max() <= 1e-14

    rng = np.random.default_rng(14)
    pairs = [_random_pair(rng, n, levels) for n in (2, 3, 5) for levels in (None, [-1, 0, 2])]
    for obs in pairs + list(_spin_pairs(3)):
        for spec in SMALL_SCHEMES + MIXED_CLOSINGS + SWAPPED:
            check(spec, obs)
    for nv in (1, 3):
        for n in (2, 3, 4):
            check(qj.scheme_kirkwood(nv), [_observable(rng, n, [-1, 0, 2] if v else None, "O") for v in range(nv)])
        for jj in (1, 2, 3):
            check(qj.scheme_kirkwood(nv), qj.spin_operators(jj).components[:nv])


# spectral variables: a variable that every term carries by one coefficient-1
# factor takes its clusters from that observable's spectrum, when every gap of
# the ascending spectrum exceeds COORD_TOL; otherwise it is clustered

# adjacent gaps of an ascending spectrum at and on both sides of COORD_TOL
GAPS = (0.9e-9, 1e-9, float(np.nextafter(1e-9, 1.0)), 1.1e-9)
# variable 0 by one coefficient-1 factor in one term and by split factors in the
# other, over two groups and within one (a coefficient-0 factor keeps the sequence);
# a group of two terms that carry both variables spectrally; and each variable by
# one coefficient-1 factor in both groups, but on A in one and on B in the other
SPECTRAL_AND_SPLIT = (
    qj.SchemeSpec(2, ((0.5, [(0, 1.0, 0), (1, 1.0, 1)]), (0.5, SPLIT_PAIR))),
    qj.SchemeSpec(2, ((0.5, [(0, 1.0, 0), (1, 1.0, 1), (0, 0.0, 0)]), (0.5, SPLIT_PAIR))),
    qj.SchemeSpec(2, ((0.3, [(0, 1.0, 0), (1, 1.0, 1)]), (0.7, [(0, 1.0, 0), (1, 1.0, 1)]))),
    qj.SchemeSpec(2, ((0.5, [(0, 1.0, 0), (1, 1.0, 1)]), (0.5, [(0, 1.0, 1), (1, 1.0, 0)]))),
)
SPECTRAL_SCHEMES = st.sampled_from(SMALL_SCHEMES + MIXED_CLOSINGS + SWAPPED + SPECTRAL_AND_SPLIT)


def _spectrum_system(rng, ascending, multiplicities):
    """An eigensystem with exactly these eigenvalues (given ascending) on random eigenvectors."""
    n = sum(multiplicities)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return linalg.EigenSystem(np.array(ascending[::-1]), tuple(multiplicities[::-1]), q)


@st.composite
def straddling_systems(draw, n_levels=st.integers(2, 4)):
    """Eigensystems of 2-4 levels from 0.0 up, groups of one or two columns.

    The gaps are drawn from ``GAPS`` and from gaps far above them; the
    first, from 0.0, is exact, so a degenerate group of two can sit next
    to a level just over or just under the merge gap.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = draw(st.lists(st.sampled_from(GAPS + (0.5, 1.25)), min_size=1, max_size=draw(n_levels) - 1))
    ascending = [0.0]
    for gap in gaps:
        ascending.append(ascending[-1] + gap)
    multiplicities = draw(st.lists(st.integers(1, 2), min_size=len(ascending), max_size=len(ascending)))
    return _spectrum_system(rng, ascending, multiplicities)


@settings(PROPERTY, max_examples=200)
@given(spec=SPECTRAL_SCHEMES, a=straddling_systems(), data=st.data())
def test_cell_table_matches_oracle_on_spectra_straddling_the_merge_gap(spec, a, data):
    # B straddles the gap too, or is a random spectrum of A's size
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        ascending = np.cumsum([-1.0] + list(rng.choice(GAPS + (0.5,), a.dim - 1))).tolist()
        b = _spectrum_system(rng, ascending, [1] * a.dim)
    else:
        b = _random_pair(rng, a.dim)[0].eig
    for eigs in ((a, b), (b, a)):
        _assert_cell_table(spec.groups, 2, eigs)


@settings(PROPERTY, max_examples=100)
@given(spec=SPECTRAL_SCHEMES, obs=observables(2, max_dim=4))
def test_cell_table_matches_oracle_with_and_without_spectral_variables(spec, obs):
    # random spectra, half of them degenerate
    _assert_cell_table(spec.groups, 2, _eigs(obs))


def test_spectral_positions_per_group():
    # the word position of each variable's one coefficient-1 factor, per group, or None
    def positions(spec):
        return [g.spectral for g in spec.groups]

    assert positions(qj.scheme_kirkwood(3)) == [(0, 1, 2)]
    assert positions(qj.scheme_margenau_hill(0.5)) == [(0, 1), (1, 0)]
    assert positions(qj.scheme_s_alpha(0.25)) == [(None, 1)]
    assert positions(qj.scheme_s_alpha(0.0)) == [(None, 1)]  # two factors carry variable 0
    assert positions(qj.scheme_born_jordan(5)) == [(None, 1)]
    assert positions(qj.scheme_alternating([0.3, 0.7], [1.0])) == [(None, 1)]
    assert positions(SPECTRAL_AND_SPLIT[0]) == [(0, 1), (None, 1)]
    assert positions(SPECTRAL_AND_SPLIT[1]) == [(None, 1)]
    assert positions(SPECTRAL_AND_SPLIT[2]) == [(0, 1)]
    assert positions(SPECTRAL_AND_SPLIT[3]) == [(0, 1), (0, 1)]  # on different observables
    assert positions(SWAPPED[2]) == [(None, None)]  # the terms put each variable at two positions
