"""Small dense complex linear algebra.

Spectral decompositions with degeneracy grouping and SVD-based rank /
pseudo-inverse. Everything works on plain numpy arrays, is pure, and is
deterministic for a fixed input. Intended for operator dimensions up to a
few dozen.

The package's tolerances live in the table below, one name per meaning;
every module reads them from here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EmptyMatrixError, NotHermitianError

# two coordinates (eigenvalues, support points) are the same value
COORD_TOL = 1e-9
# absolute defect that counts as zero (Hermiticity, trace, identity sum),
# and the magnitude below which a weight is negligible
DEFECT_TOL = 1e-10
# rounding level of O(1) sums: normalization checks and the atom prune level
ROUNDING_TOL = 1e-12
# eigenvalue gap, relative to max(1, spectral radius), that merges eigenvalues
DEGENERACY_TOL = 1e-9
# singular value cut, relative to max(s_0, 1), for ranks and pseudo-inverses
RANK_RATIO = 1e-8
# imaginary weight still counted as real by the realness-vs-z report
REAL_TOL = 1e-9
# most negative eigenvalue a density matrix may have
POSITIVITY_SLACK = 1e-9


def require_hermitian(matrix, name: str = "matrix") -> np.ndarray:
    """Return the matrix as a complex array, or raise NotHermitianError.

    Entries may differ from their mirrored conjugates by up to
    ``DEFECT_TOL``. Non-finite entries (NaN, Inf) are rejected too. The
    error's ``index`` names the first offending entry: the non-finite one,
    or the one with the largest asymmetry.
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
    if defect > DEFECT_TOL:
        i, j = (int(k) for k in np.unravel_index(int(asym.argmax()), asym.shape))
        raise NotHermitianError(
            f"{name} is not Hermitian: entry [{i}][{j}] vs [{j}][{i}] differs by "
            f"{defect:.3e}, exceeding {DEFECT_TOL:.3e}",
            index=(i, j),
        )
    return m


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


def eigensystem(matrix) -> EigenSystem:
    """Diagonalize a Hermitian matrix, merging nearly equal eigenvalues.

    Eigenvalues closer than ``DEGENERACY_TOL`` (scaled by the spectral
    radius when that radius exceeds one) are grouped into a single
    projector with summed multiplicity.
    """
    m = require_hermitian(matrix)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - dim <= 64 always converges
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    scale = max(1.0, float(np.abs(vals).max()))
    tol = DEGENERACY_TOL * scale

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


def real_rank_and_pinv(matrix):
    """Singular-value rank and Moore-Penrose pseudo-inverse of a real matrix.

    The rank counts singular values above ``RANK_RATIO`` times the
    larger of the largest singular value and 1; the pseudo-inverse keeps
    only those singular triplets. The floor of 1 is the natural scale of
    the coefficient maps ranked here, whose entries are entries of atoms
    that sum to the identity: a map whose singular values all lie below
    ``RANK_RATIO`` is zero but for rounding and has rank 0, rather
    than a rank set by that rounding.

    Returns:
        (rank, pinv) with ``pinv`` of shape (cols, rows).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise EmptyMatrixError(f"need a nonempty 2-d matrix, got shape {m.shape}")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"SVD failed: {exc}") from exc
    rank = int(np.count_nonzero(s > RANK_RATIO * max(s[0], 1.0)))
    pinv = (vt[:rank].T / s[:rank]) @ u[:, :rank].T
    return rank, pinv
