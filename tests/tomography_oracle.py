"""Finite-difference reconstruction map and loop-based coordinate chart, kept as a test oracle.

These are the original definitions: ``parametrize`` and ``embed`` walk the
index pairs in a Python double loop, and the map's columns are finite
differences of the coefficient vector along the coordinate basis, one
``embed`` and one trace of the dense atoms per coordinate. The library
traces the atoms against each chart matrix in turn, through their cells;
it must match these columns to rounding, the offset exactly, and the
rank.
"""

from __future__ import annotations

import numpy as np

from quasijoint import linalg
from quasijoint.distributions import OperatorAtomSet, build_atoms
from quasijoint.errors import DimensionMismatchError, LengthMismatchError
from quasijoint.quantum import DensityState

import atoms_oracle


def parametrize(rho: DensityState) -> np.ndarray:
    """Canonical real coordinates of a density matrix, length N^2 - 1."""
    m = rho.matrix
    n = rho.dim
    out = np.empty(n * n - 1)
    out[: n - 1] = np.diag(m).real[: n - 1]
    k = n - 1
    for i in range(n):
        for j in range(i + 1, n):
            out[k] = m[j, i].real
            out[k + 1] = m[j, i].imag
            k += 2
    return out


def embed(values, dim: int, *, require_positive: bool = False) -> DensityState:
    """Inverse of ``parametrize``; the last diagonal entry absorbs the trace."""
    v = np.asarray(values, dtype=float)
    if v.shape != (dim * dim - 1,):
        raise LengthMismatchError(
            f"expected {dim * dim - 1} coordinates for dim {dim}, got shape {v.shape}"
        )
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        m[i, i] = v[i]
    m[dim - 1, dim - 1] = 1.0 - v[: dim - 1].sum()
    k = dim - 1
    for i in range(dim):
        for j in range(i + 1, dim):
            m[j, i] = v[k] + 1j * v[k + 1]
            m[i, j] = v[k] - 1j * v[k + 1]
            k += 2
    return DensityState(m, require_positive=require_positive)


def stacked_coefficients(atoms: OperatorAtomSet, matrix) -> np.ndarray:
    """Interleaved (Re, Im) weight vector on the atom support, length 2P.

    The weights are traces of the dense atoms against the matrix.
    """
    w = np.einsum("pij,ji->p", atoms_oracle.matrices(atoms), np.asarray(matrix, dtype=complex))
    return np.column_stack([w.real, w.imag]).ravel()


def reconstruction_map(a, b, spec):
    """(map_matrix, offset, rank) by finite differences around the zero coordinates."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"observable dims differ: {a.dim} vs {b.dim}")
    n = a.dim
    atoms = build_atoms(spec, (a, b))
    n_params = n * n - 1
    base = stacked_coefficients(atoms, embed(np.zeros(n_params), n).matrix)
    cols = np.empty((base.size, n_params))
    for k in range(n_params):
        unit = np.zeros(n_params)
        unit[k] = 1.0
        cols[:, k] = stacked_coefficients(atoms, embed(unit, n).matrix) - base
    rank, _ = linalg.real_rank_and_pinv(cols)
    return cols, base, rank
