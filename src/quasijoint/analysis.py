"""Diagnostics built on the distribution engine.

Support verification against the joint eigenvalue grid, realness tests for
distributions and for whole schemes, the two-level distinguishability
probe, linear-inversion state reconstruction with rank analysis, and the
counting bound on eigenvalue degeneracy. The scheme probes are exact:
atom points are distinct, so the exp(-i s.x_p) are linearly independent
and an identity in h(s) for all s holds atom by atom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .distributions import (
    OperatorAtomSet,
    QuasiDistribution,
    SchemeSpec,
    WignerScheme,
    _check_observables,
    _match_rows,
    build_atoms,
    evaluate_distribution,
    scheme_kirkwood,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    QuasiJointError,
    RankDeficientError,
    SupportMismatchError,
)
from .quantum import (
    DensityState,
    SpinTriple,
    bloch_state,
    chart_basis,
    embed,
    expectation,
    random_density,
)


@dataclass(frozen=True, eq=False)  # array fields: a field-wise == has no truth value
class SupportReport:
    """Outcome of a support check.

    ``offending`` holds the offending points, shape (k, n_vars), in support
    order, and ``weights`` their weights, shape (k,).
    """

    ok: bool
    offending: np.ndarray
    weights: np.ndarray

    def __bool__(self):
        return self.ok


def verify_support(
    dist: QuasiDistribution, observables, tol: float = linalg.DEFECT_TOL
) -> SupportReport:
    """Check that all weight sits on joint eigenvalue tuples.

    An atom counts as offending when its weight magnitude exceeds ``tol``
    and some coordinate is farther than ``linalg.COORD_TOL`` from every
    eigenvalue of the matching observable. The nearest eigenvalue of a
    coordinate is one of its two neighbours in the ascending spectrum,
    found by ``np.searchsorted``.
    """
    if len(observables) != dist.n_vars:
        raise DimensionMismatchError(
            f"distribution has {dist.n_vars} variables but {len(observables)} observables given"
        )
    off = np.zeros(len(dist), dtype=bool)
    for v, o in enumerate(observables):
        spectrum = o.eigenvalues[::-1]  # distinct eigenvalues, ascending
        x = dist.points[:, v]
        right = np.minimum(np.searchsorted(spectrum, x), spectrum.size - 1)
        left = np.maximum(right - 1, 0)
        gap = np.minimum(np.abs(spectrum[left] - x), np.abs(spectrum[right] - x))
        off |= gap > linalg.COORD_TOL
    off &= ~(np.abs(dist.weights) <= tol)
    weights = dist.weights[off].astype(complex, copy=False)
    return SupportReport(not off.any(), dist.points[off], weights)


def is_real(dist: QuasiDistribution, tol: float = linalg.DEFECT_TOL) -> bool:
    """True when every weight is real within ``tol``."""
    return dist.max_imag() <= tol


def scheme_is_real(spec, observables) -> bool:
    """True when the scheme produces real weights for every state.

    That is h(-s)^dagger = h(s) for all s; distinct atom points make the
    exp(-i s.x_p) linearly independent, so this holds exactly when every
    operator atom is Hermitian (within ``linalg.DEFECT_TOL``). The
    symmetric scheme is always real: exp(-i s.A)^dagger at -s is
    exp(-i s.A) for Hermitian A.
    """
    if isinstance(spec, WignerScheme):
        _check_observables(spec.n_vars, observables)
        return True
    return build_atoms(spec, observables).hermiticity_defect() <= linalg.DEFECT_TOL


def diag_equality_check(spec, observables) -> bool:
    """True when the two diagonal entries of the mixture always agree.

    Two-level systems only. Equal diagonals mean the scheme assigns the
    same distribution to both z eigenstates, i.e. cannot tell them apart.
    By the linear independence of the exp(-i s.x_p), that holds exactly
    when every atom has A_p[0,0] = A_p[1,1] (within ``linalg.DEFECT_TOL``).
    For the symmetric scheme, exp(-i H) with H = h_0 + h.sigma has
    diagonal difference -2i exp(-i h_0) sin|h| h_z/|h|, so it holds
    exactly when every observable has A[0,0] = A[1,1].
    """
    _check_observables(spec.n_vars, observables)
    if observables[0].dim != 2:
        raise DomainError("diagonal-equality probe is defined for two-level systems")
    if isinstance(spec, WignerScheme):
        gaps = [o.matrix[0, 0] - o.matrix[1, 1] for o in observables]
    else:
        gaps = build_atoms(spec, observables).weights_for(np.diag([1.0, -1.0]))
    return bool(np.abs(gaps).max() <= linalg.DEFECT_TOL)


def _re_im_rows(z) -> np.ndarray:
    """Real array with rows 2p and 2p + 1 holding Re and Im of row p of ``z``."""
    out = np.empty((2 * z.shape[0],) + z.shape[1:])
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


@dataclass(frozen=True)
class ReconstructionMap:
    """Affine map from state coordinates to stacked distribution coefficients.

    For any state, the interleaved (Re, Im) weight vector over ``support``
    equals ``map_matrix @ parametrize(state) + offset``; both are the
    atoms' weights against the coordinate chart (:func:`reconstruction_map`).
    Full rank (N^2 - 1) means the distribution determines the state;
    ``pinv`` then inverts the map in the least-squares sense.
    """

    observables: tuple
    scheme: SchemeSpec
    atoms: OperatorAtomSet
    support: np.ndarray
    map_matrix: np.ndarray
    offset: np.ndarray
    rank: int
    pinv: np.ndarray

    @property
    def dim(self) -> int:
        return self.observables[0].dim

    @property
    def full_rank(self) -> bool:
        return self.rank == self.dim**2 - 1

    def coefficients(self, rho: DensityState) -> np.ndarray:
        """Stacked coefficient vector of a state on this support."""
        return _re_im_rows(self.atoms.weights_for(rho.matrix))


def reconstruction_map(a, b, spec: SchemeSpec) -> ReconstructionMap:
    """Build the coefficient map of a scheme for a pair of observables.

    The weight of atom A_p is Tr(A_p rho(x)), affine in the state
    coordinates x, so the map is one stacked
    :meth:`~quasijoint.distributions.OperatorAtomSet.weights_for` against
    :func:`~quasijoint.quantum.chart_basis`: column 0, the weights of
    rho(0), is the offset and the other columns, the weights of the
    coordinate derivatives, are the map, each with Re and Im rows
    interleaved. No dense atom is formed. Rank and pseudo-inverse come
    from the real SVD with threshold ``linalg.RANK_RATIO`` times
    max(s_0, 1) (:func:`~quasijoint.linalg.real_rank_and_pinv`), so a map
    that is zero but for rounding, as for two multiples of the identity,
    has rank 0.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"observable dims differ: {a.dim} vs {b.dim}")
    atoms = build_atoms(spec, (a, b))
    weights = _re_im_rows(atoms.weights_for(chart_basis(a.dim)))
    offset, map_matrix = weights[:, 0], weights[:, 1:]
    rank, pinv = linalg.real_rank_and_pinv(map_matrix)
    return ReconstructionMap(
        observables=(a, b),
        scheme=spec,
        atoms=atoms,
        support=atoms.points,
        map_matrix=map_matrix,
        offset=offset,
        rank=rank,
        pinv=pinv,
    )


def reconstruct_state(rmap: ReconstructionMap, dist: QuasiDistribution) -> DensityState:
    """Invert the coefficient map on a distribution.

    Each distribution point adds its weight to the first support point
    within ``linalg.COORD_TOL`` in every coordinate (one vectorized lookup,
    :func:`~quasijoint.distributions._match_rows`). Support points missing
    from the distribution count as weight zero; distribution atoms off the
    map support beyond ``linalg.DEFECT_TOL`` raise SupportMismatchError.
    Requires a full-rank map; the result must be a positive state.
    """
    n = rmap.dim
    if rmap.rank < n * n - 1:
        raise RankDeficientError(
            f"rank {rmap.rank} < {n * n - 1}: states are not distinguishable "
            f"by scheme {rmap.scheme.label!r} on this observable pair"
        )
    idx = _match_rows(dist.points, rmap.support)
    hit = idx >= 0
    off = np.flatnonzero(~hit & (np.abs(dist.weights) > linalg.DEFECT_TOL))
    if off.size:
        p, w = dist.points[off[0]], dist.weights[off[0]]
        raise SupportMismatchError(
            f"distribution atom at {tuple(p)} (weight {w:.3e}) is off the map support"
        )
    aligned = np.zeros(len(rmap.support), dtype=complex)
    np.add.at(aligned, idx[hit], dist.weights[hit])
    coords = rmap.pinv @ (_re_im_rows(aligned) - rmap.offset)
    return embed(coords, n, require_positive=True)


@dataclass(frozen=True)
class FeasibilityReport:
    """Counting-bound verdict for distinguishing states by a joint distribution.

    ``lhs = 2 N^2 - 1`` counts the real parameters needed (state coordinates
    plus the normalization); ``rhs = (2 N_A - 1)(2 N_B - 1)`` counts the
    independent real components the joint weights can provide once the
    marginal and normalization constraints are removed.
    """

    n: int
    n_a: int
    n_b: int
    lhs: int
    rhs: int
    feasible: bool

    def __bool__(self):
        return self.feasible


def degeneracy_feasible(n: int, n_a: int, n_b: int) -> FeasibilityReport:
    """Necessary counting condition 2 N^2 - 1 <= (2 N_A - 1)(2 N_B - 1)."""
    if n < 1:
        raise DomainError(f"system dimension must be positive, got {n}")
    if not 1 <= n_a <= n or not 1 <= n_b <= n:
        raise DomainError(
            f"distinct eigenvalue counts must lie in [1, {n}], got {n_a}, {n_b}"
        )
    lhs = 2 * n * n - 1
    rhs = (2 * n_a - 1) * (2 * n_b - 1)
    return FeasibilityReport(n, n_a, n_b, lhs, rhs, lhs <= rhs)


def equal_spectra_bound(n: int) -> float:
    """Least distinct-eigenvalue count when both observables share it."""
    if n < 1:
        raise DomainError(f"system dimension must be positive, got {n}")
    return (np.sqrt(2 * n * n - 1) + 1) / 2


def nondegenerate_partner_bound(n: int) -> float:
    """Least distinct-eigenvalue count of B when A is non-degenerate."""
    if n < 1:
        raise DomainError(f"system dimension must be positive, got {n}")
    return (n * n + n - 1) / (2 * n - 1)


@dataclass(frozen=True)
class RealnessZReport:
    """Relation between real joint weights and a vanishing z expectation.

    For two-level systems the relation is an equivalence and
    ``disagreements`` counts states violating it in either direction. For
    three-level systems only realness implies zero z expectation;
    ``counterexample`` then holds a state with zero z expectation whose
    distribution is nevertheless complex.
    """

    dim: int
    n_checked: int
    disagreements: int
    real_cases: int
    counterexample: DensityState = None

    @property
    def holds(self) -> bool:
        return self.disagreements == 0


def _symmetrized_real_state(rho: DensityState) -> DensityState:
    """Three-level state averaged with its flipped conjugate.

    The flip exchanges the extreme z eigenstates; combined with complex
    conjugation it fixes exactly the states with real joint weights for
    the spin x and y pair.
    """
    f = np.eye(3)[::-1]
    sym = (rho.matrix + f @ rho.matrix.conj() @ f) / 2
    return DensityState(sym)


def _zero_z_state(rho: DensityState) -> DensityState:
    """Three-level state averaged with its flip: z expectation vanishes."""
    f = np.eye(3)[::-1]
    sym = (rho.matrix + f @ rho.matrix @ f) / 2
    return DensityState(sym)


def realness_z_report(
    spin: SpinTriple, n_samples: int = 500, *, seed: int = 0
) -> RealnessZReport:
    """Sample states and relate weight realness to the z expectation.

    Two-level systems: checks the equivalence both ways on a mix of
    generic states and states constructed in the equatorial plane.
    Three-level systems: checks that realness forces a zero z expectation
    on states symmetrized into the real family, and searches up to 10000
    states for one with zero z expectation but complex weights (the
    converse fails). Weights count as real within ``linalg.REAL_TOL``, the
    z expectation as zero within ``linalg.DEFECT_TOL``.
    """
    if spin.j_times_two not in (1, 2):
        raise DomainError("realness report covers two- and three-level systems only")
    rng = np.random.default_rng(seed)
    atoms = build_atoms(scheme_kirkwood(2), (spin.j1, spin.j2))

    if spin.j_times_two == 1:
        disagreements = 0
        real_cases = 0
        for i in range(n_samples):
            theta = rng.uniform(0.0, np.pi)
            phi = rng.uniform(0.0, 2 * np.pi)
            m = rng.uniform(0.0, 1.0)
            if i % 3 == 1:
                m = 0.5  # equatorial plane, exactly
            elif i % 3 == 2:
                theta = np.pi / 2
            state = bloch_state(theta, phi, m)
            real = is_real(evaluate_distribution(atoms, state), linalg.REAL_TOL)
            z_zero = abs(expectation(spin.j3, state)) <= linalg.DEFECT_TOL
            real_cases += real
            disagreements += real != z_zero
        return RealnessZReport(2, n_samples, disagreements, real_cases)

    disagreements = 0
    real_cases = 0
    for i in range(n_samples):
        state = random_density(3, rng)
        if i % 2 == 0:
            state = _symmetrized_real_state(state)
        if is_real(evaluate_distribution(atoms, state), linalg.REAL_TOL):
            real_cases += 1
            if abs(expectation(spin.j3, state)) > linalg.DEFECT_TOL:
                disagreements += 1
    counterexample = None
    for _ in range(10_000):
        state = _zero_z_state(random_density(3, rng))
        if abs(expectation(spin.j3, state)) <= linalg.DEFECT_TOL and not is_real(
            evaluate_distribution(atoms, state), linalg.REAL_TOL
        ):
            counterexample = state
            break
    if counterexample is None:
        raise QuasiJointError(
            "no zero-z state with complex weights found; "
            "the converse search exhausted its budget"
        )
    return RealnessZReport(3, n_samples, disagreements, real_cases, counterexample)
