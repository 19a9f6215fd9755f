"""Diagnostics built on the distribution engine.

Support verification against the joint eigenvalue grid, realness tests for
distributions and for whole schemes, the two-level distinguishability
probe, linear-inversion state reconstruction with rank analysis, and the
counting bound on eigenvalue degeneracy.
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
    embed,
    expectation,
    random_density,
    trace_affine_form,
)


@dataclass(frozen=True)
class SupportReport:
    """Outcome of a support check; ``offending`` lists (point, weight) pairs."""

    ok: bool
    offending: tuple

    def __bool__(self):
        return self.ok


def verify_support(
    dist: QuasiDistribution,
    observables,
    tol: float = 1e-10,
    *,
    coord_tol: float = 1e-9,
) -> SupportReport:
    """Check that all weight sits on joint eigenvalue tuples.

    An atom counts as offending when its weight magnitude exceeds ``tol``
    and some coordinate is farther than ``coord_tol`` from every
    eigenvalue of the matching observable.
    """
    if len(observables) != dist.n_vars:
        raise DimensionMismatchError(
            f"distribution has {dist.n_vars} variables but {len(observables)} observables given"
        )
    off = np.zeros(len(dist), dtype=bool)
    for v, o in enumerate(observables):
        gap = np.abs(o.eigenvalues[None, :] - dist.points[:, v, None]).min(axis=1)
        off |= gap > coord_tol
    off &= ~(np.abs(dist.weights) <= tol)
    offending = tuple(
        (tuple(float(x) for x in p), complex(w))
        for p, w in zip(dist.points[off], dist.weights[off])
    )
    return SupportReport(not offending, offending)


def is_real(dist: QuasiDistribution, tol: float = 1e-10) -> bool:
    """True when every weight is real within ``tol``."""
    return dist.max_imag() <= tol


def _sample_frequencies(n_vars, n_samples, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-8.0, 8.0, size=(n_samples, n_vars))


def scheme_is_real(
    spec,
    observables,
    n_samples: int = 12,
    *,
    atom_tol: float = 1e-10,
    sample_tol: float = 1e-9,
    seed: int = 0,
) -> bool:
    """True when the scheme produces real weights for every state.

    The finite-dimensional criterion is Hermiticity of all operator atoms;
    it is cross-checked by sampling the mixture h(s) against h(-s)^dagger
    at random frequencies. For the symmetric scheme (no atoms) only the
    sampled check runs.
    """
    samples = _sample_frequencies(spec.n_vars, n_samples, seed)
    h_fwd = spec.hashed_operator_batch(observables, samples)
    h_bwd = spec.hashed_operator_batch(observables, -samples)
    sampled_ok = bool(
        np.abs(h_fwd - h_bwd.conj().transpose(0, 2, 1)).max() <= sample_tol
    )
    if isinstance(spec, WignerScheme):
        return sampled_ok
    hermitian_atoms = build_atoms(spec, observables).hermiticity_defect() <= atom_tol
    if hermitian_atoms != sampled_ok:
        raise QuasiJointError(
            "realness verdicts disagree between atom Hermiticity and frequency sampling; "
            "the scheme sits on a tolerance boundary"
        )
    return hermitian_atoms


def diag_equality_check(
    spec,
    observables,
    n_samples: int = 12,
    *,
    tol: float = 1e-10,
    seed: int = 0,
) -> bool:
    """True when the two diagonal entries of the mixture always agree.

    Two-level systems only. Equal diagonals mean the scheme assigns the
    same distribution to both basis eigenstates of the z direction, i.e.
    it cannot distinguish them.
    """
    if observables[0].dim != 2:
        raise DomainError("diagonal-equality probe is defined for two-level systems")
    samples = _sample_frequencies(spec.n_vars, n_samples, seed)
    h = spec.hashed_operator_batch(observables, samples)
    return bool(np.abs(h[:, 0, 0] - h[:, 1, 1]).max() <= tol)


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
    equals ``map_matrix @ parametrize(state) + offset``; both are read off
    the atom matrices in closed form. Full rank (N^2 - 1) means the
    distribution determines the state; ``pinv`` then inverts the map in
    the least-squares sense.
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


def reconstruction_map(
    a,
    b,
    spec: SchemeSpec,
    *,
    rank_ratio: float = linalg.DEFAULT_RANK_RATIO,
) -> ReconstructionMap:
    """Build the coefficient map of a scheme for a pair of observables.

    The weight of atom A_p is Tr(A_p rho(x)), affine in the state
    coordinates x, so the map is read off the atom entries in closed form
    (:func:`~quasijoint.quantum.trace_affine_form`): columns are the coordinate
    derivatives and the offset is the weight vector at x = 0, each with
    Re and Im rows interleaved. Rank and pseudo-inverse come from the real
    SVD with threshold ``rank_ratio`` times max(s_0, 1)
    (:func:`~quasijoint.linalg.real_rank_and_pinv`), so a map that is zero
    but for rounding, as for two multiples of the identity, has rank 0.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"observable dims differ: {a.dim} vs {b.dim}")
    atoms = build_atoms(spec, (a, b))
    offset, slope = trace_affine_form(atoms.matrices)
    offset, map_matrix = _re_im_rows(offset), _re_im_rows(slope)
    del slope  # keep complex temporaries out of the SVD's peak memory
    rank, pinv = linalg.real_rank_and_pinv(map_matrix, rank_ratio)
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


def reconstruct_state(
    rmap: ReconstructionMap,
    dist: QuasiDistribution,
    *,
    point_tol: float = 1e-9,
    weight_tol: float = 1e-10,
    require_positive: bool = True,
) -> DensityState:
    """Invert the coefficient map on a distribution.

    Support points missing from the distribution count as weight zero;
    distribution atoms off the map support beyond ``weight_tol`` raise
    SupportMismatchError. Requires a full-rank map.
    """
    n = rmap.dim
    if rmap.rank < n * n - 1:
        raise RankDeficientError(
            f"rank {rmap.rank} < {n * n - 1}: states are not distinguishable "
            f"by scheme {rmap.scheme.label!r} on this observable pair"
        )
    aligned = np.zeros(len(rmap.support), dtype=complex)
    for p, w in zip(dist.points, dist.weights):
        mask = (np.abs(rmap.support - p) <= point_tol).all(axis=1)
        if mask.any():
            aligned[np.argmax(mask)] += w
        elif abs(w) > weight_tol:
            raise SupportMismatchError(
                f"distribution atom at {tuple(p)} (weight {w:.3e}) is off the map support"
            )
    coords = rmap.pinv @ (_re_im_rows(aligned) - rmap.offset)
    return embed(coords, n, require_positive=require_positive)


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
    spin: SpinTriple,
    n_samples: int = 500,
    *,
    real_tol: float = 1e-9,
    z_tol: float = 1e-10,
    seed: int = 0,
    max_counterexample_tries: int = 10_000,
) -> RealnessZReport:
    """Sample states and relate weight realness to the z expectation.

    Two-level systems: checks the equivalence both ways on a mix of
    generic states and states constructed in the equatorial plane.
    Three-level systems: checks that realness forces a zero z expectation
    on states symmetrized into the real family, and searches for a state
    with zero z expectation but complex weights (the converse fails).
    """
    if spin.j_times_two not in (1, 2):
        raise DomainError("realness report covers two- and three-level systems only")
    rng = np.random.default_rng(seed)
    atoms = build_atoms(scheme_kirkwood(2), (spin.j1, spin.j2))

    if spin.j_times_two == 1:
        from .quantum import bloch_state

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
            real = is_real(evaluate_distribution(atoms, state), real_tol)
            z_zero = abs(expectation(spin.j3, state)) <= z_tol
            real_cases += real
            disagreements += real != z_zero
        return RealnessZReport(2, n_samples, disagreements, real_cases)

    disagreements = 0
    real_cases = 0
    for i in range(n_samples):
        state = random_density(3, rng)
        if i % 2 == 0:
            state = _symmetrized_real_state(state)
        if is_real(evaluate_distribution(atoms, state), real_tol):
            real_cases += 1
            if abs(expectation(spin.j3, state)) > z_tol:
                disagreements += 1
    counterexample = None
    for _ in range(max_counterexample_tries):
        state = _zero_z_state(random_density(3, rng))
        if abs(expectation(spin.j3, state)) <= z_tol and not is_real(
            evaluate_distribution(atoms, state), real_tol
        ):
            counterexample = state
            break
    if counterexample is None:
        raise QuasiJointError(
            "no zero-z state with complex weights found; "
            "the converse search exhausted its budget"
        )
    return RealnessZReport(3, n_samples, disagreements, real_cases, counterexample)
