"""The vectorized atom builder against the brute-force oracle.

Random Hermitian observables of dimension 2-5, half of them with
degenerate spectra (a random unitary times a few repeated integer
eigenvalues), under every scheme constructor. The builder must return
the oracle's atom count, bit-identical points and matrices within 1e-12.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import quasijoint as qj
from quasijoint.distributions import _cluster_values

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
    reps = atoms_oracle._cluster_values(values, 1e-9)
    want = np.array([reps[float(v)] for v in values])
    reps, ids = _cluster_values(values, 1e-9)
    assert np.array_equal(reps[ids], want)
