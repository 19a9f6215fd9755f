"""Small dense complex linear algebra.

Spectral decompositions with degeneracy grouping, unitary matrix
exponentials assembled from them, and SVD-based rank / pseudo-inverse.
Everything works on plain numpy arrays, is pure, and is deterministic for
a fixed input. Intended for operator dimensions up to a few dozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    EmptyMatrixError,
    NotHermitianError,
)

DEFAULT_DEGENERACY_TOL = 1e-9
DEFAULT_RANK_RATIO = 1e-8


def require_hermitian(matrix, tol: float = 1e-10, name: str = "matrix") -> np.ndarray:
    """Return the matrix as a complex array, or raise NotHermitianError.

    Non-finite entries (NaN, Inf) are rejected too. The error's ``index``
    names the first offending entry: the non-finite one, or the one with
    the largest asymmetry.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"{name} must be square, got shape {m.shape}")
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = (int(k) for k in bad[0])
        raise NotHermitianError(f"{name} entry [{i}][{j}] is not finite", index=(i, j))
    asym = np.abs(m - m.conj().T)
    defect = float(asym.max())
    if defect > tol:
        i, j = (int(k) for k in np.unravel_index(int(asym.argmax()), asym.shape))
        raise NotHermitianError(
            f"{name} is not Hermitian: entry [{i}][{j}] vs [{j}][{i}] differs by "
            f"{defect:.3e}, exceeding {tol:.3e}",
            index=(i, j),
        )
    return m


def matrices_close(a, b, tol: float) -> bool:
    """Elementwise comparison with an explicit absolute tolerance."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    return bool(np.abs(a - b).max() <= tol)


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition with nearly equal eigenvalues merged.

    ``eigenvalues`` is sorted descending and holds one entry per distinct
    eigenvalue after grouping; ``projectors[k]`` is the orthogonal projector
    onto the corresponding eigenspace and ``multiplicities[k]`` its dimension.
    ``vectors`` holds orthonormal eigenvectors as columns in the same
    descending order, so group ``k`` occupies ``multiplicities[k]``
    contiguous columns starting at ``group_starts[k]``.
    """

    eigenvalues: np.ndarray
    projectors: tuple
    multiplicities: tuple
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def group_starts(self) -> np.ndarray:
        """First column of each eigenvalue group in ``vectors``."""
        return np.cumsum((0,) + self.multiplicities[:-1])

    @property
    def degenerate(self) -> bool:
        """True when some eigenvalue group spans more than one column."""
        return len(self.multiplicities) < self.dim

    def apply(self, fn) -> np.ndarray:
        """Matrix function through the spectral decomposition: sum fn(a) P_a."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for val, proj in zip(self.eigenvalues, self.projectors):
            out += fn(val) * proj
        return out


def eigensystem(
    matrix,
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
    hermiticity_tol: float = 1e-10,
) -> EigenSystem:
    """Diagonalize a Hermitian matrix, merging nearly equal eigenvalues.

    Eigenvalues closer than ``degeneracy_tol`` (scaled by the spectral
    radius when that radius exceeds one) are grouped into a single
    projector with summed multiplicity.
    """
    if degeneracy_tol <= 0:
        raise DomainError(f"degeneracy_tol must be positive, got {degeneracy_tol}")
    m = require_hermitian(matrix, hermiticity_tol)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - dim <= 64 always converges
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    scale = max(1.0, float(np.abs(vals).max()))
    tol = degeneracy_tol * scale

    eigenvalues = []
    projectors = []
    multiplicities = []
    start = 0
    n = vals.size
    for i in range(1, n + 1):
        if i == n or vals[i - 1] - vals[i] > tol:
            block = vecs[:, start:i]
            proj = block @ block.conj().T
            proj = (proj + proj.conj().T) / 2
            proj.setflags(write=False)
            eigenvalues.append(float(vals[start:i].mean()))
            projectors.append(proj)
            multiplicities.append(i - start)
            start = i
    evals = np.array(eigenvalues)
    evals.setflags(write=False)
    vecs = np.ascontiguousarray(vecs)
    vecs.setflags(write=False)
    return EigenSystem(evals, tuple(projectors), tuple(multiplicities), vecs)


def phase_exponential(eig: EigenSystem, scale: float) -> np.ndarray:
    """exp(-1j * scale * H) assembled from a precomputed eigensystem of H."""
    return eig.apply(lambda a: np.exp(-1j * scale * a))


def matrix_exponential_unitary(
    matrix, scale: float, degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
) -> np.ndarray:
    """exp(-1j * scale * H) for Hermitian H; the result is unitary."""
    return phase_exponential(eigensystem(matrix, degeneracy_tol), scale)


def real_rank_and_pinv(matrix, threshold_ratio: float = DEFAULT_RANK_RATIO):
    """Singular-value rank and Moore-Penrose pseudo-inverse of a real matrix.

    The rank counts singular values above ``threshold_ratio`` times the
    larger of the largest singular value and 1; the pseudo-inverse keeps
    only those singular triplets. The floor of 1 is the natural scale of
    the coefficient maps ranked here, whose entries are entries of atoms
    that sum to the identity: a map whose singular values all lie below
    ``threshold_ratio`` is zero but for rounding and has rank 0, rather
    than a rank set by that rounding.

    Returns:
        (rank, pinv) with ``pinv`` of shape (cols, rows).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise EmptyMatrixError(f"need a nonempty 2-d matrix, got shape {m.shape}")
    if not 0.0 < threshold_ratio < 1.0:
        raise DomainError(f"threshold_ratio must lie in (0, 1), got {threshold_ratio}")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"SVD failed: {exc}") from exc
    rank = int(np.count_nonzero(s > threshold_ratio * max(s[0], 1.0)))
    pinv = (vt[:rank].T / s[:rank]) @ u[:, :rank].T
    return rank, pinv
