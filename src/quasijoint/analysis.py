"""Diagnostics built on the distribution engine.

Support verification against the joint eigenvalue grid, realness tests for
distributions and for whole schemes, the two-level distinguishability
probe, linear-inversion state reconstruction with rank analysis, and the
counting bound on eigenvalue degeneracy. The scheme probes are exact:
atom points are distinct, so the exp(-i s.x_p) are linearly independent
and an identity in h(s) for all s holds atom by atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import distributions, linalg
from .distributions import (
    KirkwoodForm,
    OperatorAtomSet,
    QuasiDistribution,
    SchemeSpec,
    WignerScheme,
    _SupportIndex,
    _check_observables,
    build_atoms,
    evaluate_distribution,
    scheme_kirkwood,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    RankDeficientError,
    SupportMismatchError,
)
from .quantum import (
    DensityState,
    SpinTriple,
    bloch_state,
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
    off = np.flatnonzero(off & ~(np.abs(dist.weights) <= tol))  # rows by index: cheaper than a mask
    weights = dist.weights[off].astype(complex, copy=False)
    return SupportReport(off.size == 0, dist.points.take(off, axis=0), weights)


def is_real(dist: QuasiDistribution, tol: float = linalg.DEFECT_TOL) -> bool:
    """True when every weight is real within ``tol``."""
    return dist.max_imag() <= tol


def _hermitian_atoms(atoms: OperatorAtomSet) -> bool:
    """True when every atom's max |A_p - A_p^dagger| is at most ``linalg.DEFECT_TOL``.

    The atoms A_p - A_p^dagger (:func:`distributions._anti_hermitian`) are
    decided as the prune decides atoms: a lower bound above the tolerance
    means not Hermitian, an upper bound at or below it Hermitian, and the
    atoms in between are formed from their cells in one call.
    """
    tol = linalg.DEFECT_TOL
    gap = distributions._anti_hermitian(atoms)
    lower, upper = distributions._norm_bounds(gap)
    if (lower > tol).any():
        return False
    residue = np.flatnonzero(upper > tol)
    return not residue.size or bool((distributions._max_norms(gap, residue) <= tol).all())


def scheme_is_real(spec, observables) -> bool:
    """True when the scheme produces real weights for every state.

    That is h(-s)^dagger = h(s) for all s; distinct atom points make the
    exp(-i s.x_p) linearly independent, so this holds exactly when every
    operator atom is Hermitian. The atoms are those :func:`build_atoms`
    returns, and A_p - A_p^dagger is read off their cells, each cell's
    conjugate transpose on the reversed closing: the scheme is real when
    every max |A_p - A_p^dagger| is at most ``linalg.DEFECT_TOL``
    (:func:`_hermitian_atoms`). No trace is taken. An atom the prune drops
    has a max-norm below ``linalg.ROUNDING_TOL``, so its gap could not
    reach the tolerance. The symmetric scheme is always real:
    exp(-i s.A)^dagger at -s is exp(-i s.A) for Hermitian A.
    """
    _check_observables(spec.n_vars, observables)
    if isinstance(spec, WignerScheme):
        return True
    return _hermitian_atoms(build_atoms(spec, observables))


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


class _BlockGroup(NamedTuple):
    """The C blocks of one shape, 2R rows by U unknowns, stacked, with their SVD."""

    atoms: np.ndarray  # atom of each (Re, Im) row pair, shape (C, R)
    unknowns: np.ndarray  # unknown of each column, shape (C, U)
    u: np.ndarray  # left singular vectors, shape (C, 2R, K), K = min(2R, U)
    s: np.ndarray  # singular values, shape (C, K)
    vt: np.ndarray  # right singular vectors, shape (C, K, U)


class EntryBlocks(NamedTuple):
    """A reconstruction map split into independent real blocks.

    ``vectors`` are the eigenvectors U_A of the frame Z = U_A^dagger rho U_A
    the unknowns (:func:`_entry_unknowns`) read: those of the observable
    every word opens and closes on (:func:`_entry_blocks`), or None for the
    standard frame, U_A = I, of the dense block (:func:`_dense_blocks`).
    ``groups`` are the blocks by shape (:class:`_BlockGroup`),
    ``singular_values`` those of all blocks, descending, and ``kept`` how
    many lie above the rank cut of the largest one.
    """

    vectors: np.ndarray
    groups: tuple
    singular_values: np.ndarray
    kept: int

    @property
    def largest(self) -> tuple:
        """(rows, unknowns) of the block with the most unknowns, then the most rows."""
        shapes = [(2 * g.atoms.shape[1], g.unknowns.shape[1]) for g in self.groups]
        return max(shapes, key=lambda shape: shape[::-1])


@lru_cache(maxsize=16)
def _entry_unknowns(n: int):
    """The Frobenius-orthonormal real unknowns v of a Hermitian Z, as tables over Z's entries.

    This is the one layout of Hermitian unknowns in the package: the N
    diagonal entries Z[i, i] (unknown i), then, for the k-th index pair
    i < j in row-major order, sqrt2 Re Z[j, i] (unknown N + 2k) and
    sqrt2 Im Z[j, i] (unknown N + 2k + 1) of its lower-triangle entry, so
    that the Frobenius norm of Z is the Euclidean norm of v. Returns
    read-only ``unknown`` and ``factor``, both of shape (2, N, N), with
    Z[j, i] = sum over r of factor[r, j, i] v[unknown[r, j, i]]; on the
    diagonal the second term has factor 0.
    """
    index = np.arange(n)
    i, j = np.nonzero(index[:, None] < index)  # np.triu_indices(n, 1), at a tenth of its cost
    k = n + 2 * np.arange(i.size)
    unknown = np.empty((2, n, n), dtype=np.intp)
    unknown[:, np.arange(n), np.arange(n)] = np.arange(n)
    unknown[:, i, j] = unknown[:, j, i] = (k, k + 1)
    factor = np.zeros((2, n, n), dtype=complex)
    factor[0] = np.eye(n)
    factor[0, i, j] = factor[0, j, i] = 2**-0.5
    factor[1, j, i] = 1j * 2**-0.5
    factor[1, i, j] = -1j * 2**-0.5
    unknown.setflags(write=False)
    factor.setflags(write=False)
    return unknown, factor


def _ranked(vectors, groups) -> EntryBlocks:
    """The blocks with their singular values pooled and counted against the rank cut."""
    values = np.sort(np.concatenate([g.s.ravel() for g in groups]))[::-1]
    kept = int(np.count_nonzero(values > linalg.rank_threshold(values[0])))
    return EntryBlocks(vectors, tuple(groups), values, kept)


def _dense_map(atoms: OperatorAtomSet) -> np.ndarray:
    """The (2P, N^2) map on the unknowns of :func:`_entry_unknowns`, in the standard frame Z = rho.

    Column k holds the Re and Im rows of the weights of dZ/dv_k, the
    Hermitian basis matrix of unknown k: one
    :meth:`~quasijoint.distributions.OperatorAtomSet.weights_for` each,
    with no dense atom formed.
    """
    n = atoms.dim
    unknown, factor = _entry_unknowns(n)
    out = np.empty((2 * len(atoms), n * n))
    for k in range(n * n):
        out[:, k] = atoms.weights_for((factor * (unknown == k)).sum(axis=0)).view(float)
    return out


def _dense_blocks(atoms: OperatorAtomSet) -> EntryBlocks:
    """The dense map as one block over all N^2 unknowns, in the standard frame (no ``vectors``).

    Built apart from ``map_matrix``, so that only its SVD stays cached.
    """
    matrix = _dense_map(atoms)
    rows, cols = matrix.shape
    svd = np.linalg.svd(matrix[None], full_matrices=False)
    return _ranked(None, [_BlockGroup(np.arange(rows // 2)[None], np.arange(cols)[None], *svd)])


def _by_component(comp, start):
    """Members ordered by component, stably, and each member's position within its component."""
    order = np.argsort(comp, kind="stable")
    local = np.empty_like(order)
    local[order] = np.arange(comp.size) - start[comp[order]]
    return order, local


def _entry_blocks(atoms: OperatorAtomSet):
    """The reconstruction map as independent real blocks, or None.

    Applies when the atoms have one closing (A, A), A nondegenerate (split
    words, Born-Jordan and their mixtures): a cell (p, i, j, x) then adds
    x Z[j, i] to the weight of atom p, with Z = U_A^dagger rho U_A, so it
    touches one Hermitian entry pair {Z[i, j], Z[j, i]}, one or two real
    unknowns (:func:`_entry_unknowns`). Atoms and unknowns form a bipartite graph;
    its connected components are the blocks: rows Re and Im of the
    component's atoms, columns its unknowns. Each is labelled by its least
    unknown. Where every atom holds one cell (split words on random pairs)
    that is the first unknown of the atom's entry pair, read off the
    cells; otherwise the labels are propagated (``np.minimum.at`` over the
    edges, atom to unknown and back) until none moves. The unknowns are
    Frobenius-orthonormal, so the blocks' singular values are those of the
    map on Hermitian matrices; blocks of one shape share one batched SVD.
    An unknown no atom touches lies in the kernel. Returns None for any
    other atom set (mixed closings, a degenerate A).
    """
    (first, last), *others = atoms.closings
    if others or first != last or atoms.eigs[first].degenerate:
        return None
    eig = atoms.eigs[first]
    n, p = atoms.dim, len(atoms)
    unknown, factor = _entry_unknowns(n)
    one_cell = atoms.values.size == p
    # one edge per cell and unknown it touches, shape (2, C)
    atom = np.arange(p) if one_cell else np.repeat(np.arange(p), np.diff(atoms.bounds))
    edge_atom = np.concatenate((atom, atom))
    edge_unknown = unknown.reshape(2, -1)[:, atoms.entries].ravel()  # entries are j N + i
    coef = (factor.reshape(2, -1)[:, atoms.entries] * atoms.values).ravel()

    label = np.arange(n * n)
    if one_cell:
        # one cell per atom: its component is the pair of unknowns at its entry,
        # labelled by the first, the Re part (or the diagonal entry)
        atom_label = unknown[0].reshape(-1)[atoms.entries]
        label[unknown[1].reshape(-1)[atoms.entries]] = atom_label
    else:
        while True:
            atom_label = np.full(p, n * n)
            np.minimum.at(atom_label, edge_atom, label[edge_unknown])
            new = label.copy()
            np.minimum.at(new, edge_unknown, atom_label[edge_atom])
            new = new[new]  # labels are unknowns of the same component
            if np.array_equal(new, label):
                break
            label = new
    root = np.zeros(n * n, dtype=bool)
    root[atom_label] = True
    comp = root.cumsum() - 1  # component of each root label
    atom_comp = comp[atom_label]
    touched = np.zeros(n * n, dtype=bool)
    touched[edge_unknown] = True
    unknowns = np.flatnonzero(touched)  # an unknown no atom touches lies in the kernel
    unknown_comp = comp[label[unknowns]]
    rows = np.bincount(atom_comp)
    cols = np.bincount(unknown_comp, minlength=rows.size)
    # renumber the components by shape, so that blocks of one shape are adjacent
    shape = rows * (n * n + 1) + cols
    order = np.argsort(shape, kind="stable")
    renumber = np.empty_like(order)
    renumber[order] = np.arange(order.size)
    rows, cols, shape = rows[order], cols[order], shape[order]
    atom_comp, unknown_comp = renumber[atom_comp], renumber[unknown_comp]
    atom_start, unknown_start = rows.cumsum() - rows, cols.cumsum() - cols
    atom_order, atom_local = _by_component(atom_comp, atom_start)
    unknown_order, local = _by_component(unknown_comp, unknown_start)
    unknown_order = unknowns[unknown_order]
    unknown_local = np.empty(n * n, dtype=np.intp)
    unknown_local[unknowns] = local

    # all blocks in one buffer, each (2R, U) in row-major order
    size = 2 * rows * cols
    block_start = size.cumsum() - size
    edge_comp = atom_comp[edge_atom]
    re = block_start[edge_comp] + 2 * atom_local[edge_atom] * cols[edge_comp]
    re += unknown_local[edge_unknown]
    flat = np.zeros(size.sum())  # the Im row follows the Re row of its atom
    np.add.at(flat, np.concatenate([re, re + cols[edge_comp]]), np.concatenate([coef.real, coef.imag]))
    bounds = np.flatnonzero(shape[1:] != shape[:-1]) + 1
    groups = []
    for lo, hi in zip([0, *bounds], [*bounds, rows.size]):
        r, u = rows[lo], cols[lo]
        block = flat[block_start[lo] : block_start[lo] + (hi - lo) * 2 * r * u]
        groups.append(_BlockGroup(
            atom_order[atom_start[lo] : atom_start[lo] + (hi - lo) * r].reshape(-1, r),
            unknown_order[unknown_start[lo] : unknown_start[lo] + (hi - lo) * u].reshape(-1, u),
            *np.linalg.svd(block.reshape(-1, 2 * r, u), full_matrices=False),
        ))
    return _ranked(eig.vectors, groups)


@dataclass(frozen=True)
class ReconstructionMap:
    """Linear map from Hermitian matrices to stacked distribution coefficients.

    Every route reads the state in one basis: the Frobenius-orthonormal
    real unknowns v of :func:`_entry_unknowns` (Z[i, i], sqrt2 Re Z[j, i]
    and sqrt2 Im Z[j, i]). For any state, the interleaved (Re, Im) weight
    vector over ``support`` equals ``map_matrix @ v``, v the unknowns of
    Z = rho (the standard frame); ``map_matrix``, shape (2P, N^2), is
    built on first read, with no SVD. The weights sum to the trace, so
    every kernel element is traceless: full rank N^2 - 1 on the
    unit-trace states is rank N^2 on all Hermitian matrices, and the
    distribution then determines the state.

    The map works out its route from its atoms when it is constructed,
    and names it in ``diagnostics["inversion"]``:

    - ``"closed_form"``: atoms in Kirkwood form
      (:meth:`~quasijoint.distributions.OperatorAtomSet.kirkwood_form`:
      Kirkwood-Dirac, Margenau-Hill, a lone reversed word, on
      nondegenerate pairs) bound the map's singular values
      (:func:`_singular_value_bounds`). A lower bound above twice the rank
      cut certifies full rank N^2 - 1, the factor 2 leaving room for the
      SVD's rounding; one of at least ``linalg.INVERSION_FLOOR`` also
      keeps the per-atom inversion accurate. ``closed_form`` is then the
      atoms' :class:`~quasijoint.distributions.KirkwoodForm`, and the map
      is neither built nor decomposed.
    - ``"blocks"``: atoms whose words all open and close on one
      nondegenerate observable A (split words, Born-Jordan and their
      mixtures) split the map into independent blocks over entry pairs of
      U_A^dagger rho U_A (:func:`_entry_blocks`); the map is not built
      either. Blocks are small where atoms rarely merge (two unknowns on
      random pairs) and grow with the merges (equally spaced spectra, a
      factor with coefficient 0).
    - ``"svd"``: every other map (mixed closings such as alternating
      words, a degenerate closing observable, other Kirkwood-Dirac-like
      words on degenerate pairs, and Kirkwood-form maps where the bound
      falls short: vanishing overlaps, Margenau-Hill near alpha = 0) is
      built (:func:`_dense_map`, one
      :meth:`~quasijoint.distributions.OperatorAtomSet.weights_for` per
      unknown) and decomposed as one block (:func:`_dense_blocks`).

    ``blocks`` is the map's least-squares split (:class:`EntryBlocks`):
    the entry blocks where they apply, else the dense block, whose
    ``vectors`` are None. It is built at construction on the last two
    routes, and on the closed form's first fallback. There the rank is
    the number of block singular values above ``linalg.RANK_RATIO``
    times max(s_0, 1), minus 1: the weights sum to the trace, so the map
    on unit-trace states loses exactly one dimension. A map that is zero
    but for the trace and rounding, as for two multiples of the
    identity, has rank 0. :func:`reconstruct_state` solves block by
    block (:func:`_block_state`); the closed form inverts per atom and
    falls back to ``blocks``. ``diagnostics`` also holds
    ``rank_margin``: the smallest kept singular value (the largest when
    none is kept) over the rank cut
    (:func:`~quasijoint.linalg.rank_threshold`), and for the closed form
    its certified lower bound over the cut of its upper bound. A change of
    frame is unitary on the unknowns, so the blocks' singular values are
    the dense map's and their margins are equal; the closed form's is a
    lower bound on its dense map's. ``largest_block`` is the (rows,
    unknowns) shape of the largest independent real system inverted:
    (2, 2) for the closed form (Re and Im of one atom against Re and Im of
    one Kirkwood-Dirac weight), the block with the most unknowns for
    blocks, and the whole dense map, (2P, N^2), for the SVD.

    What the inversion needs of the map alone is computed on the first
    :func:`reconstruct_state` and cached, as ``_support_index`` is: the
    closed form's conj(f), |f|^2 - |g|^2, U_A^dagger and U_B^dagger
    (``_closed_form_inverse``), and the blocks' Lagrange step
    (B^T B)^-1 t with its diagonal sum (``_lagrange_step``). Each is at
    most N x N, so a map keeps O(N^2) more than its blocks' SVD; no
    pseudo-inverse, (N^2, 2P), is kept.
    """

    observables: tuple
    scheme: SchemeSpec
    atoms: OperatorAtomSet
    closed_form: KirkwoodForm = field(init=False, repr=False)
    rank: int = field(init=False)
    diagnostics: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        form = self.atoms.kirkwood_form()
        if form is not None:
            lower, upper = _singular_value_bounds(form)
            cut = linalg.rank_threshold(upper)
            if not (lower > 2 * cut and lower >= linalg.INVERSION_FLOOR):
                form = None
        if form is not None:
            rank = self.dim**2 - 1
            diagnostics = {"inversion": "closed_form", "rank_margin": lower / cut, "largest_block": (2, 2)}
        else:
            blocks = self.blocks
            s = blocks.singular_values
            margin = s[max(blocks.kept, 1) - 1] / linalg.rank_threshold(s[0])
            route = "svd" if blocks.vectors is None else "blocks"
            rank = max(blocks.kept - 1, 0)
            diagnostics = {"inversion": route, "rank_margin": float(margin), "largest_block": blocks.largest}
        for name, value in (("closed_form", form), ("rank", rank), ("diagnostics", diagnostics)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.observables[0].dim

    @property
    def support(self) -> np.ndarray:
        """The atoms' points, shape (P, n_vars): the rows the weight vector runs over."""
        return self.atoms.points

    @property
    def full_rank(self) -> bool:
        return self.rank == self.dim**2 - 1

    @cached_property
    def map_matrix(self) -> np.ndarray:
        return _dense_map(self.atoms)

    @cached_property
    def blocks(self) -> EntryBlocks:
        """The map's least-squares split: its entry blocks, or else its dense block."""
        blocks = _entry_blocks(self.atoms)
        return _dense_blocks(self.atoms) if blocks is None else blocks

    @cached_property
    def _support_index(self) -> _SupportIndex:
        return _SupportIndex(self.support)

    @cached_property
    def _closed_form_inverse(self) -> tuple:
        """conj(f), |f|^2 - |g|^2, U_A^dagger and U_B^dagger of :func:`_closed_form_state`, each (N, N)."""
        f, g = self.closed_form.forward, self.closed_form.reverse
        u_a, u_b = (e.vectors for e in self.atoms.eigs)
        return f.conj(), np.abs(f) ** 2 - np.abs(g) ** 2, u_a.conj().T, u_b.conj().T

    @cached_property
    def _lagrange_step(self) -> tuple:
        """(B^T B)^-1 t on the unknowns, shape (N^2,), and the sum of its diagonal entries.

        B is the map on the unknowns as ``blocks`` splits it and t marks
        the diagonal unknowns (:func:`_block_state`): V S^-2 V^T t block by
        block. Needs every block of full column rank.
        """
        n = self.dim
        step = np.empty(n * n)
        for g in self.blocks.groups:
            t = (g.unknowns < n)[..., None].astype(float)
            step[g.unknowns] = (g.vt.transpose(0, 2, 1) @ ((g.vt @ t) / g.s[..., None] ** 2))[..., 0]
        return step, step[:n].sum()


def _singular_value_bounds(form: KirkwoodForm):
    """(lower, upper) bounds on the singular values of the map of a Kirkwood form.

    The map is a chain: H -> U_B^dagger H U_A, which keeps the Frobenius
    norm, the Euclidean norm of the unknowns; and, per atom, its entry
    Z[b, a] -> f Z + g conj(Z), with singular values |f| + |g| and
    ||f| - |g||. So the smallest singular value is at least
    min ||f| - |g|| and the largest at most max (|f| + |g|); for weights
    beta and gamma of the two words, ||beta| - |gamma|| min |c| and at
    most |beta| + |gamma|. The upper bound returned is sqrt(N) times that,
    which only raises the rank cut it sets.
    """
    f, g = np.abs(form.forward), np.abs(form.reverse)
    lower = float(np.abs(f - g).min())
    return lower, float((f + g).max() * np.sqrt(f.shape[0]))


def reconstruction_map(a, b, spec: SchemeSpec) -> ReconstructionMap:
    """Build the coefficient map of a scheme for a pair of observables.

    The weight of atom A_p is Tr(A_p rho), linear in the unknowns of rho
    (:func:`_entry_unknowns`). The map works out its route, its rank and
    how much of itself to build from the atoms (:class:`ReconstructionMap`).
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"observable dims differ: {a.dim} vs {b.dim}")
    return ReconstructionMap((a, b), spec, build_atoms(spec, (a, b)))


def _unit_hermitian(rho) -> np.ndarray:
    """The Hermitian part of ``rho`` with its trace reset to 1.

    The reset goes into the last diagonal entry.
    """
    rho = (rho + rho.conj().T) / 2
    rho[-1, -1] += 1.0 - rho.trace().real
    return rho


def _closed_form_state(rmap: ReconstructionMap, aligned) -> np.ndarray:
    """The unit-trace Hermitian matrix with weights ``aligned``, or None if none has them.

    Per atom, w = f Z + g conj(Z) gives
    Z = (conj(f) w - g conj(w)) / (|f|^2 - |g|^2) for Z[b, a] of
    Z = U_B^dagger rho U_A; then rho = U_B Z U_A^dagger, made Hermitian
    with unit trace (:func:`_unit_hermitian`). None unless its weights,
    computed through the form too, in O(N^3), which is cheaper than
    ``weights_for``, reproduce ``aligned`` within ``linalg.DEFECT_TOL``.
    conj(f), the denominators and the adjoint eigenvector matrices depend
    on the map only and are cached on it (``_closed_form_inverse``, four
    N x N arrays), so a call computes the same arrays as a fresh solve
    would and its states are bit for bit the same.
    """
    form = rmap.closed_form
    f_conj, denominator, u_a_h, u_b_h = rmap._closed_form_inverse
    u_a, u_b = (e.vectors for e in rmap.atoms.eigs)
    f, g = form.forward, form.reverse
    w = aligned[form.index]
    z = (f_conj * w - g * w.conj()) / denominator
    rho = _unit_hermitian(u_b @ z.T @ u_a_h)
    z = (u_b_h @ rho @ u_a).T
    if not np.abs(f * z + g * z.conj() - w).max() <= linalg.DEFECT_TOL:
        return None
    return rho


def _block_state(rmap: ReconstructionMap, aligned) -> np.ndarray:
    """The unit-trace Hermitian matrix whose weights fit ``aligned`` best, in least squares.

    Solved on ``rmap.blocks``, the map's entry blocks or its dense block,
    which must have full rank N^2 (map rank N^2 - 1), so every block has
    full column rank and every unknown lies in one block. With B the map
    on the unknowns v and b the Re and Im of the weights, the result
    minimizes |B v - b| subject to t.v = 1, t marking the diagonal
    unknowns, whose sum is the trace. The free minimizer is each block's
    least-squares solution V S^-1 U^T b; one Lagrange step along
    (B^T B)^-1 t puts it on the constraint. That step depends on the map
    only: it is cached on the map with its diagonal sum
    (``_lagrange_step``, N^2 floats, where a pseudo-inverse would take
    2 P N^2), so a call does one V (S^-1 U^T b) per block shape and one
    axpy. Weights some state has give that state, and any others the
    minimizer the pseudo-inverse of the map on unit-trace states gives.
    The unknowns make up Z (:func:`_entry_unknowns`), and
    rho = U_A Z U_A^dagger, made Hermitian with unit trace
    (:func:`_unit_hermitian`).
    """
    blocks, n = rmap.blocks, rmap.dim
    step, diagonal = rmap._lagrange_step
    v = np.empty(n * n)
    for g in blocks.groups:
        # rows Re, Im of each atom: the float view of the complex weights
        b = aligned[g.atoms].view(float)[..., None]
        v[g.unknowns] = (g.vt.transpose(0, 2, 1) @ ((g.u.transpose(0, 2, 1) @ b) / g.s[..., None]))[..., 0]
    v += (1.0 - v[:n].sum()) / diagonal * step
    unknown, factor = _entry_unknowns(n)
    z = (factor * v[unknown]).sum(axis=0)
    u_a = blocks.vectors
    return _unit_hermitian(z if u_a is None else u_a @ z @ u_a.conj().T)


def reconstruct_state(rmap: ReconstructionMap, dist: QuasiDistribution) -> DensityState:
    """Invert the coefficient map on a distribution.

    A distribution whose points are the map's support, row for row (as
    ``evaluate_distribution(rmap.atoms, rho)`` gives when it prunes no
    weight), is used as is. In any other distribution each point
    adds its weight to the first support point within ``linalg.COORD_TOL``
    in every coordinate (one vectorized lookup against the map's cached
    support index, :func:`~quasijoint.distributions._match_rows`). Support
    points missing from the distribution count as weight zero;
    distribution atoms off the map support beyond ``linalg.DEFECT_TOL``
    raise SupportMismatchError. The two agree exactly: support rows differ
    by more than ``linalg.COORD_TOL``, so the lookup maps the support onto
    itself. A distribution over another number of variables or with a
    non-finite weight is rejected first. Requires a full-rank map; the
    result must be a positive state. It is exactly Hermitian with trace 1
    by construction (:func:`_unit_hermitian`), so only its finiteness and
    positivity are checked (``DensityState._of_unit_hermitian``).

    The result is the unit-trace Hermitian matrix whose weights fit the
    aligned ones best in least squares, solved block by block
    (:func:`_block_state`) on the map's blocks or its dense block. A map
    with a closed form inverts per atom instead
    (:func:`_closed_form_state`), in O(N^3) and with no SVD, and keeps
    that state when its weights reproduce the aligned ones within
    ``linalg.DEFECT_TOL``: it then fits them as well as the least-squares
    solution but for that tolerance. Weights that no state reproduces go
    to the dense block, built on demand. Both solvers read per-map
    operators cached on ``rmap`` by the first call (:class:`ReconstructionMap`),
    so later calls on one map pay only for the weights at hand.
    """
    n = rmap.dim
    if rmap.rank < n * n - 1:
        raise RankDeficientError(
            f"rank {rmap.rank} < {n * n - 1}: states are not distinguishable "
            f"by scheme {rmap.scheme.label!r} on this observable pair"
        )
    if dist.n_vars != rmap.support.shape[1]:
        raise DimensionMismatchError(
            f"distribution has {dist.n_vars} variables, the map {rmap.support.shape[1]}"
        )
    if not np.isfinite(dist.weights).all():  # the scan for the culprit runs only on failure
        bad = np.flatnonzero(~np.isfinite(dist.weights))[0]
        raise DomainError(f"weight at {tuple(dist.points[bad])} is not finite")
    if np.shape(dist.points) == rmap.support.shape and (rmap.support == dist.points).all():
        # the complex dtype matters: the block route reads Re, Im as a float view
        aligned = np.asarray(dist.weights, dtype=complex)
    else:
        idx = rmap._support_index.match(dist.points)
        hit = idx >= 0
        off = np.flatnonzero(~hit & (np.abs(dist.weights) > linalg.DEFECT_TOL))
        if off.size:
            p, w = dist.points[off[0]], dist.weights[off[0]]
            raise SupportMismatchError(
                f"distribution atom at {tuple(p)} (weight {w:.3e}) is off the map support"
            )
        aligned = np.zeros(len(rmap.support), dtype=complex)
        np.add.at(aligned, idx[hit], dist.weights[hit])
    rho = None
    if rmap.closed_form is not None:
        rho = _closed_form_state(rmap, aligned)
    if rho is None:
        rho = _block_state(rmap, aligned)
    return DensityState._of_unit_hermitian(rho)


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
    """Least distinct-eigenvalue count when both observables share it.

    Any integer n works up to where 2 n^2 - 1 leaves the float range,
    where a :class:`DomainError` is raised.
    """
    if n < 1:
        raise DomainError(f"system dimension must be positive, got {n}")
    try:
        return (math.sqrt(2 * n * n - 1) + 1) / 2
    except OverflowError as exc:  # math.sqrt converts the exact int to a float
        raise DomainError("system dimension too large: 2 n^2 - 1 lies past the float range") from exc


def nondegenerate_partner_bound(n: int) -> float:
    """Least distinct-eigenvalue count of B when A is non-degenerate.

    Any integer n works up to where the bound, about n / 2, leaves the
    float range, where a :class:`DomainError` is raised.
    """
    if n < 1:
        raise DomainError(f"system dimension must be positive, got {n}")
    try:
        return (n * n + n - 1) / (2 * n - 1)
    except OverflowError as exc:  # the exact int quotient is rounded to a float
        raise DomainError("system dimension too large: the bound lies past the float range") from exc


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


def realness_z_report(
    spin: SpinTriple, n_samples: int = 500, *, seed: int = 0
) -> RealnessZReport:
    """Sample states and relate weight realness to the z expectation.

    Two-level systems: checks the equivalence both ways on a mix of
    generic states and states constructed in the equatorial plane.
    Three-level systems: checks that realness forces a zero z expectation
    on states symmetrized into the real family, and gives a state with
    zero z expectation but complex weights (the converse fails): I/3 with
    the coherence 0.1 i between the J3 eigenstates m = 1 and m = 0, whose
    largest |Im w| under Kirkwood-Dirac on (J1, J2) is about 0.035.
    Weights count as real within ``linalg.REAL_TOL``, the z expectation as
    zero within ``linalg.DEFECT_TOL``.
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
    counterexample = np.eye(3, dtype=complex) / 3  # in the J3 eigenbasis, m = 1, 0, -1
    counterexample[0, 1], counterexample[1, 0] = 0.1j, -0.1j
    return RealnessZReport(3, n_samples, disagreements, real_cases, DensityState(counterexample))
