import numpy as np
import pytest

import quasijoint as qj
from quasijoint import linalg


@pytest.fixture(scope="session")
def spin_half():
    return qj.spin_operators(1)


@pytest.fixture(scope="session")
def spin_one():
    return qj.spin_operators(2)


@pytest.fixture(scope="session")
def kd_half_atoms(spin_half):
    return qj.build_atoms(qj.scheme_kirkwood(2), (spin_half.j1, spin_half.j2))


@pytest.fixture(scope="session")
def kd_one_atoms(spin_one):
    return qj.build_atoms(qj.scheme_kirkwood(2), (spin_one.j1, spin_one.j2))


@pytest.fixture
def z_plus():
    return qj.DensityState(np.diag([1.0, 0.0]))


@pytest.fixture
def z_minus():
    return qj.DensityState(np.diag([0.0, 1.0]))


@pytest.fixture
def y_plus():
    return qj.DensityState.pure([1 / np.sqrt(2), 1j / np.sqrt(2)])


def assert_dist_matches(dist, expected, weight_tol):
    """Check a distribution against a {point: weight} table.

    Every expected point must carry the expected weight; atoms matching no
    expected point (within ``linalg.COORD_TOL``) must be negligible.
    """
    for point, want in expected.items():
        got = dist.weight_at(point)
        assert abs(got - want) <= weight_tol, f"at {point}: got {got}, want {want}"
    for p, w in zip(dist.points, dist.weights):
        known = any(
            np.abs(np.asarray(q) - p).max() <= linalg.COORD_TOL for q in expected
        )
        if not known:
            assert abs(w) <= weight_tol, f"unexpected atom at {tuple(p)}: {w}"


def random_pair(rng, dim, scale=1.0):
    """Two independent random observables of the same dimension."""
    return (
        qj.HermitianObservable(qj.random_hermitian(dim, rng, scale), "A"),
        qj.HermitianObservable(qj.random_hermitian(dim, rng, scale), "B"),
    )


def random_simplex(rng, length):
    w = rng.exponential(size=length) + 1e-3
    return w / w.sum()


def palindromic_simplex(rng, length):
    half = (length + 1) // 2
    vals = rng.exponential(size=half) + 1e-3
    full = np.concatenate([vals, vals[: length - half][::-1]])
    return full / full.sum()


def random_alternating_scheme(rng, max_blocks=4, symmetric=False):
    """Random single-word alternating scheme (the four start/end patterns).

    ``symmetric=True`` draws a palindromic word, which makes the mixture
    Hermitian under s -> -s and the atoms Hermitian.
    """
    n = int(rng.integers(1, max_blocks + 1))
    if symmetric:
        # palindromes need the starting list one entry longer
        first_var = int(rng.integers(0, 2))
        long_len, short_len = n + 1, n
        make = palindromic_simplex
    else:
        form = int(rng.integers(0, 4))
        first_var = 0 if form < 2 else 1
        long_len = n + 1 if form in (1, 3) else n
        short_len = n
        make = random_simplex
    first = make(rng, long_len)
    second = make(rng, short_len)
    if first_var == 0:
        return qj.scheme_alternating(first, second, first_var=0)
    return qj.scheme_alternating(second, first, first_var=1)
