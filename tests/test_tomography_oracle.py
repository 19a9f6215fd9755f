"""The reconstruction map and coordinate chart against the loop oracle.

Random Hermitian pairs of dimension 2-6, half of them with degenerate
spectra, under every scheme constructor (including the rank-deficient
``s_alpha(0.5)``). The map must match the finite-difference columns within
1e-12, with a bit-identical offset and the same rank; ``parametrize`` and
``embed`` must equal the double-loop versions exactly, and ``embed`` must
be the affine combination of ``chart_basis`` the map is traced against.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import quasijoint as qj
from quasijoint.quantum import chart_basis

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
    basis = chart_basis(dim)
    assert np.abs(rho.matrix - (basis[0] + np.tensordot(x, basis[1:], 1))).max() <= 1e-15
    state = qj.random_density(dim, rng)
    assert np.array_equal(qj.parametrize(state), tomography_oracle.parametrize(state))
