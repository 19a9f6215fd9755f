"""Quantum-domain objects: observables, spin representations, density states.

States are held as matrices. Tomography reads a state through the
Frobenius-orthonormal real unknowns of ``analysis._entry_unknowns``, the
one place their layout is defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    DomainError,
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
    eigenvalue in the error. Every instance passes all three checks; a
    Hermitian unit-trace matrix that is not positive stays a plain array.
    The matrix is a read-only copy, as in :class:`HermitianObservable`.

    The constructor runs all three checks. The one internal path,
    :meth:`_of_unit_hermitian` (the result of
    ``analysis.reconstruct_state``), takes a matrix that is exactly
    Hermitian with its trace reset to 1 by construction, which passes the
    first two checks whenever it is finite and positive; so it checks
    finiteness and positivity, and the trace only where positivity fails,
    raising what the constructor would raise on every input.
    """

    def __init__(self, matrix):
        m = linalg.require_hermitian(np.array(matrix, dtype=complex), name="density matrix")
        _require_unit_trace(m)
        if not _shifted_cholesky_succeeds(m):
            _require_positive_spectrum(m)
        m.setflags(write=False)
        self.matrix = m

    @classmethod
    def _of_unit_hermitian(cls, m) -> "DensityState":
        """State of ``m``, a complex matrix exactly Hermitian with its trace reset to 1, taken over uncopied.

        A matrix that passes the Cholesky test has its diagonal within the
        slack of [0, 1], so its reset trace is 1 within rounding.
        """
        if not np.isfinite(m).all():
            linalg.require_hermitian(m, name="density matrix")  # raises, naming the entry
        if not _shifted_cholesky_succeeds(m):
            _require_unit_trace(m)
            _require_positive_spectrum(m)
        m.setflags(write=False)
        state = cls.__new__(cls)
        state.matrix = m
        return state

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


def _require_unit_trace(m):
    trace = m.trace().real
    if abs(trace - 1.0) > linalg.DEFECT_TOL:
        raise DomainError(f"density matrix trace must be 1, got {trace:.12g}")


def _shifted_cholesky_succeeds(m) -> bool:
    """Whether rho + ``linalg.POSITIVITY_SLACK`` I has a Cholesky factor."""
    shifted = m.copy()
    shifted.ravel()[:: m.shape[0] + 1] += linalg.POSITIVITY_SLACK
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _require_positive_spectrum(m):
    smallest = float(np.linalg.eigvalsh(m).min())
    if smallest < -linalg.POSITIVITY_SLACK:
        raise DomainError(
            f"density matrix has eigenvalue {smallest:.3e} "
            f"below -{linalg.POSITIVITY_SLACK:.1e}"
        )


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
