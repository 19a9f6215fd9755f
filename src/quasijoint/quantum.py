"""Quantum-domain objects: observables, spin representations, density states.

States carry a canonical real coordinate vector of length N^2 - 1 (leading
diagonal entries first, then Re/Im pairs of the lower-triangle entries in
row-major order of the pairs). Only this module knows that layout:
``parametrize`` and ``embed`` convert between states and coordinates.
Tomography does not read it: the reconstruction map works on the
Frobenius-orthonormal unknowns of ``analysis._entry_unknowns``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    DomainError,
    LengthMismatchError,
    NonRealExpectationError,
)


class HermitianObservable:
    """Hermitian matrix with a lazily cached spectral decomposition.

    The matrix is a read-only copy: the caller's array stays writeable,
    and writing to it does not change the observable.
    """

    def __init__(self, matrix, label: str = "A"):
        m = linalg.require_hermitian(np.array(matrix, dtype=complex), name=label)
        m.setflags(write=False)
        self.matrix = m
        self.label = label

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eig(self) -> linalg.EigenSystem:
        return linalg._eigensystem(self.matrix)  # checked Hermitian in __init__

    @property
    def eigenvalues(self) -> np.ndarray:
        """Distinct eigenvalues, descending."""
        return self.eig.eigenvalues

    def __repr__(self):
        return f"HermitianObservable({self.label!r}, dim={self.dim})"


class DensityState:
    """Density matrix: Hermitian, unit trace, positive semidefinite.

    Hermiticity and trace hold within ``linalg.DEFECT_TOL``, positivity
    within ``linalg.POSITIVITY_SLACK``: the smallest eigenvalue must be at
    least -``POSITIVITY_SLACK``. That is tested by one Cholesky
    factorization of rho + ``POSITIVITY_SLACK`` I, which succeeds exactly
    when that matrix is positive definite, up to the factorization's
    rounding (about N eps, far below the slack); ``eigvalsh`` runs only
    when it fails, to decide near the boundary and to name the smallest
    eigenvalue in the error. ``require_positive=False`` skips the
    positivity check; only ``embed`` uses it, since its linear chart also
    reaches Hermitian unit-trace matrices that are not positive. The
    matrix is a read-only copy, as in :class:`HermitianObservable`.
    """

    def __init__(self, matrix, *, require_positive: bool = True):
        m = linalg.require_hermitian(np.array(matrix, dtype=complex), name="density matrix")
        trace = m.trace().real
        if abs(trace - 1.0) > linalg.DEFECT_TOL:
            raise DomainError(f"density matrix trace must be 1, got {trace:.12g}")
        if require_positive:
            shifted = m.copy()
            shifted.ravel()[:: m.shape[0] + 1] += linalg.POSITIVITY_SLACK  # rho + slack I
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                smallest = float(np.linalg.eigvalsh(m).min())
                if smallest < -linalg.POSITIVITY_SLACK:
                    raise DomainError(
                        f"density matrix has eigenvalue {smallest:.3e} "
                        f"below -{linalg.POSITIVITY_SLACK:.1e}"
                    ) from None
        m.setflags(write=False)
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, ket) -> "DensityState":
        """Projector onto a (normalized copy of a) state vector."""
        v = np.asarray(ket, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise DomainError("state vector must be nonzero")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityState":
        return cls(np.eye(dim) / dim)

    def __repr__(self):
        return f"DensityState(dim={self.dim})"


@dataclass(frozen=True)
class SpinTriple:
    """The three spin components in the (j_times_two + 1)-dimensional irrep."""

    j_times_two: int
    j1: HermitianObservable
    j2: HermitianObservable
    j3: HermitianObservable

    @property
    def j(self) -> float:
        return self.j_times_two / 2

    @property
    def dim(self) -> int:
        return self.j_times_two + 1

    @property
    def components(self):
        return (self.j1, self.j2, self.j3)

    def casimir(self) -> np.ndarray:
        """J1^2 + J2^2 + J3^2, which equals j(j+1) times the identity."""
        return sum(c.matrix @ c.matrix for c in self.components)


def spin_operators(j_times_two: int) -> SpinTriple:
    """Spin matrices for the irreducible representation with j = j_times_two/2.

    The z component is diagonal with entries j, j-1, ..., -j; the x and y
    components come from the standard raising/lowering construction.
    """
    if j_times_two < 1:
        raise DomainError(f"j_times_two must be at least 1, got {j_times_two}")
    n = j_times_two + 1
    j = j_times_two / 2
    m = j - np.arange(n)  # magnetic quantum numbers, descending
    raising = np.zeros((n, n), dtype=complex)
    amp = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    raising[np.arange(n - 1), np.arange(1, n)] = amp
    lowering = raising.conj().T
    jx = (raising + lowering) / 2
    jy = (raising - lowering) / 2j
    jz = np.diag(m).astype(complex)
    tag = f"(j={j_times_two}/2)" if j_times_two % 2 else f"(j={j_times_two // 2})"
    return SpinTriple(
        j_times_two,
        HermitianObservable(jx, "J1" + tag),
        HermitianObservable(jy, "J2" + tag),
        HermitianObservable(jz, "J3" + tag),
    )


def bloch_state(theta: float, phi: float, m: float = 1.0) -> DensityState:
    """Two-level state at polar angle theta and azimuth phi.

    ``m`` mixes the antipodal pure states: m=1 gives the pure state at
    (theta, phi), m=1/2 lands in the equatorial plane of the Bloch ball.
    """
    if not 0.0 <= theta <= np.pi:
        raise DomainError(f"theta must lie in [0, pi], got {theta}")
    if not 0.0 <= phi < 2 * np.pi:
        raise DomainError(f"phi must lie in [0, 2*pi), got {phi}")
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"m must lie in [0, 1], got {m}")
    r = 2 * m - 1
    off = np.exp(-1j * phi) * np.sin(theta)
    rho = 0.5 * np.array(
        [
            [1 + r * np.cos(theta), off],
            [off.conjugate(), 1 - r * np.cos(theta)],
        ]
    )
    return DensityState(rho)


def _pairs(dim: int):
    """Index pairs i < j of the off-diagonal coordinates, in coordinate order.

    Pair k owns coordinates N - 1 + 2k (real part) and N + 2k (imaginary
    part) of the lower-triangle entry rho[j, i].
    """
    index = np.arange(dim)
    return np.nonzero(index[:, None] < index)  # np.triu_indices(dim, 1), at a tenth of its cost


def parametrize(rho: DensityState) -> np.ndarray:
    """Canonical real coordinates of a density matrix, length N^2 - 1.

    Order: the first N-1 diagonal entries, then for each index pair i < j
    in row-major order the real and imaginary part of the lower-triangle
    entry rho[j, i].
    """
    m = rho.matrix
    n = rho.dim
    i, j = _pairs(n)
    out = np.empty(n * n - 1)
    out[: n - 1] = np.diag(m).real[: n - 1]
    lower = m[j, i]
    out[n - 1 :: 2] = lower.real
    out[n::2] = lower.imag
    return out


def embed(values, dim: int, *, require_positive: bool = False) -> DensityState:
    """Inverse of ``parametrize``; the last diagonal entry absorbs the trace.

    Positivity is not checked by default: the map is the linear coordinate
    chart, which also reaches Hermitian unit-trace matrices that are not
    states.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (dim * dim - 1,):
        raise LengthMismatchError(
            f"expected {dim * dim - 1} coordinates for dim {dim}, got shape {v.shape}"
        )
    m = np.zeros((dim, dim), dtype=complex)
    m[np.diag_indices(dim - 1)] = v[: dim - 1]
    m[dim - 1, dim - 1] = 1.0 - v[: dim - 1].sum()
    i, j = _pairs(dim)
    m[j, i] = v[dim - 1 :: 2] + 1j * v[dim::2]
    m[i, j] = v[dim - 1 :: 2] - 1j * v[dim::2]
    return DensityState(m, require_positive=require_positive)


def expectation(observable: HermitianObservable, rho: DensityState) -> float:
    """Tr[A rho], checked to be real."""
    if observable.dim != rho.dim:
        raise DimensionMismatchError(
            f"observable dim {observable.dim} vs state dim {rho.dim}"
        )
    value = complex(np.trace(observable.matrix @ rho.matrix))
    if abs(value.imag) > linalg.DEFECT_TOL:
        raise NonRealExpectationError(
            f"expectation has imaginary part {value.imag:.3e}"
        )
    return value.real


def random_density(dim: int, rng: np.random.Generator) -> DensityState:
    """Random full-rank state: normalized G G^dagger with G complex Ginibre."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityState(m / m.trace().real)


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with independent Gaussian entries."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g + g.conj().T) / 2
