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
# largest distance between a unit direction u of a Weyl frequency s = r u and
# the direction whose eigendecomposition of u.A it shares (a rounding grid of
# spacing DIRECTION_TOL / sqrt(n) merges them): moving u by d moves s.A by at most
# |r| sqrt(n) max_v ||A_v|| ||d||, so 1e-14 keeps the value within 1e-11
# for |s| <= 50, ||A_v|| <= 10 and n <= 3. Only dimensions other than 2 read
# along rays; two levels take a closed form that merges no directions
DIRECTION_TOL = 1e-14
# eigenvalue gap, relative to max(1, spectral radius), that merges eigenvalues
DEGENERACY_TOL = 1e-9
# singular value cut, relative to max(s_0, 1), for ranks and pseudo-inverses
RANK_RATIO = 1e-8
# least certified singular value at which a reconstruction map is inverted
# per atom rather than by its SVD: per-atom inversion grows weight errors
# (rounding, weights pruned below ROUNDING_TOL) by up to its inverse, where
# the SVD can spread them over the map's redundancy; at 1e-3 a pruned weight
# costs at most 1e-9
INVERSION_FLOOR = 1e-3
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

    One pass decides: a non-finite entry makes its asymmetry NaN or Inf,
    which fails the test as a large one does, so the finiteness scan and
    the offending index are looked up only on failure.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"{name} must be square, got shape {m.shape}")
    with np.errstate(invalid="ignore"):  # Inf - Inf: a NaN asymmetry, reported below
        asym = np.abs(m - m.conj().T)
    defect = asym.max()
    if not defect <= DEFECT_TOL:
        finite = np.isfinite(m)
        if not finite.all():
            i, j = (int(k) for k in np.argwhere(~finite)[0])
            raise NotHermitianError(f"{name} entry [{i}][{j}] is not finite", index=(i, j))
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
    eigenvalue after grouping, ``multiplicities[k]`` the dimension of its
    eigenspace. ``vectors`` holds orthonormal eigenvectors as columns in
    the same descending order, so group ``k`` occupies
    ``multiplicities[k]`` contiguous columns starting at
    ``group_starts[k]``. No projector is formed: the engine works on the
    columns (overlaps ``U_k^dagger U_{k+1}`` summed within groups), and
    the projector onto eigenspace ``k`` is those columns times their
    adjoint.
    """

    eigenvalues: np.ndarray
    multiplicities: tuple
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

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

    A group of nearly equal eigenvalues spans at most ``DEGENERACY_TOL``
    (scaled by the spectral radius when that radius exceeds one): walking
    the eigenvalues downward, a new group opens at the first one more than
    that below the current group's first, largest, member. Each group
    becomes a single eigenspace with summed multiplicity.
    """
    return _eigensystem(require_hermitian(matrix))


def _eigensystem(m) -> EigenSystem:
    """:func:`eigensystem` of a complex matrix that :func:`require_hermitian` returned.

    The groups are found by one walk over the eigenvalues as Python floats,
    which at these sizes costs less than numpy's per-call overhead. A
    group's eigenvalue is its member, or the slice mean of its members for
    the groups of two or more.
    """
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - dim <= 64 always converges
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    vals = vals[::-1]
    top = vals.tolist()
    tol = DEGENERACY_TOL * max(1.0, abs(top[0]), abs(top[-1]))  # the ends hold the spectral radius
    first, starts = top[0], [0]
    for k, value in enumerate(top):
        if first - value > tol:
            first = value
            starts.append(k)
    if len(starts) == len(top):
        evals, sizes = vals.copy(), (1,) * len(top)
    else:
        bounds = list(zip(starts, starts[1:] + [len(top)]))
        evals = np.array([vals[a:b].mean() if b - a > 1 else top[a] for a, b in bounds])
        sizes = tuple(b - a for a, b in bounds)
    evals.setflags(write=False)
    vecs = vecs[:, ::-1].copy()
    vecs.setflags(write=False)
    return EigenSystem(evals, sizes, vecs)


def rank_threshold(largest: float) -> float:
    """Cut at or below which a singular value counts as zero, given the largest one."""
    return RANK_RATIO * max(largest, 1.0)


def real_rank_and_pinv(matrix):
    """Singular-value rank and Moore-Penrose pseudo-inverse of a real matrix.

    The rank counts singular values above ``RANK_RATIO`` times the
    larger of the largest singular value and 1; the pseudo-inverse keeps
    only those singular triplets. The floor of 1 (:func:`rank_threshold`,
    which the reconstruction map's blocks share) is the natural scale of
    coefficient maps, whose entries are entries of atoms that sum to the
    identity: a map whose singular values all lie below
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
    rank = int(np.count_nonzero(s > rank_threshold(s[0])))
    return rank, (vt[:rank].T / s[:rank]) @ u[:, :rank].T
