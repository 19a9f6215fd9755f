"""Quasi-joint distributions of non-commuting observables.

A scheme fixes how the one-parameter unitary groups exp(-i s_k A_k) are
mixed into one operator-valued function of the frequency vector s. For
finite products of exponentials the Fourier inversion of that function
concentrates on finitely many operator atoms, computed here exactly from
the spectral decompositions (no grids, no FFT): every factor
exp(-i s c A) expands over the eigenprojectors of A, so a word contributes
one ordered projector product per choice of eigenvalues, located at the
coordinate vector of coefficient-weighted eigenvalue sums.

Those products are fixed by the overlaps U_k^dagger U_{k+1} between the
eigenbases of consecutive factors, so all products of a word come from
one array contraction of the overlaps (summed within degenerate
eigenspaces), the overlap chain. A variable's coordinate depends only on
the factors that carry it, so each variable's coordinates are summed and
clustered on those factors' axes of the choice grid alone, and broadcast
over the full grid only as cluster ids; a variable carried by one
coefficient-1 factor needs no clustering, its clusters being that
observable's eigenvalues. Coordinates within
``linalg.COORD_TOL`` merge into one atom and atoms below
``linalg.ROUNDING_TOL`` are dropped; these rules are the same as for the
scalar definition.

A word that opens on observable F and closes on L puts U_F X U_L^dagger
on its atoms, X sparse, so an atom set stores no N x N atom but a table
of cells: per atom, closing (F, L) and eigenvector pair (i, j), the summed
weight x of the choices landing there, all found by one sort. Pairing
atoms with a state by the trace gives the (generally complex) joint
weights: each cell gathers one entry of U_L^dagger rho U_F. The same
gather against one matrix at a time serves every other trace, the
reconstruction map's columns included. The prune reads its
bounds off the cells, forming only the atoms left between them, and
realness decides the atoms A_p - A_p^dagger the same way, each cell's
conjugate transpose being a cell on the reversed closing.
The adjoint scatters one coefficient per atom onto the cells' entries:
the identity check, and the quantization of a classical function, whose
trace with a state is its quasi-expectation. Both sides of that duality
live here.

Characteristic functions of product schemes close the same overlap chain
with the state instead of with eigenvectors: one table of weights
Tr(rho P_1 ... P_L) per observable sequence, contracted with the factor
phases of all its terms at once, so no matrix is formed per frequency and
no term is visited on its own. The symmetric scheme has no such expansion
and traces the state against its mixed exponential: in closed form from
Pauli coordinates for two levels, and along rays otherwise. Every
frequency-side reader, the atom side's included, walks its frequencies or
directions in blocks of about ``BLOCK_ENTRIES`` entries per temporary.

Both sides read a scheme's terms through its grouping by observable
sequence (:attr:`SchemeSpec.groups`), computed once per scheme.

Conventions: no 2*pi factors are materialized anywhere; normalization is
fixed by requiring the weights to sum to one, i.e. the mixture reduces to
the identity at s = 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    DomainError,
    QuasiJointError,
    UnsupportedSchemeError,
)
from .quantum import DensityState, HermitianObservable

# sigma_0 = I and the Pauli matrices: the real coordinates of 2 x 2 Hermitian matrices
_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


class Factor(NamedTuple):
    """One exponential factor exp(-i s[var] * coeff * A[obs]) inside a word."""

    var: int
    coeff: float
    obs: int


class _Block(NamedTuple):
    """Terms of one group with equal variables and equal coefficients off variable 0."""

    terms: np.ndarray  # their rows in the group
    free: np.ndarray  # positions of the variable-0 factors
    shared: np.ndarray  # positions of the other factors, whose phases the terms share
    # per free factor: (the first free factor on its observable, the distinct
    # coefficients of the free factors on that observable, each term's among them)
    free_coeffs: tuple


class _TermGroup(NamedTuple):
    """The terms of a scheme whose words visit one observable sequence, in their order."""

    obs: tuple  # observable index of each factor, length L
    weights: np.ndarray  # term weights, shape (T,)
    vars: np.ndarray  # variable of each factor, shape (T, L)
    coeffs: np.ndarray  # coefficient of each factor, shape (T, L)
    blocks: tuple  # the terms split into :class:`_Block`
    # per variable, the position of the one coefficient-1 factor every term puts
    # on it, or None (:func:`_spectral_positions`)
    spectral: tuple


def _free_coefficients(seq, coeffs, free) -> tuple:
    """Per variable-0 factor k of a block, ``(first, values, index)``.

    ``values`` are the distinct coefficients of the block's variable-0
    factors on the observable of k, ``first`` the first of those factors,
    and ``index`` (T,) the position in ``values`` of each term's
    coefficient of k.
    """
    out = []
    for k in free:
        on_obs = free[[seq[j] == seq[k] for j in free]]
        values, index = _distinct(coeffs[:, on_obs].ravel())
        column = index.reshape(len(coeffs), on_obs.size)[:, np.searchsorted(on_obs, k)]
        out.append((int(on_obs[0]), values, column))
    return tuple(out)


def _distinct(values):
    """The sorted distinct entries of a 1-d float array and the index of each entry among them.

    For finite values these are ``np.unique(values, return_inverse=True)``,
    by the same steps without its generic set-up: one ``argsort`` (the same
    kind, so even 0.0 and -0.0 resolve alike), one comparison of
    neighbours and one cumulative sum. Each NaN stays a value of its own.
    """
    order = values.argsort()
    ordered = values[order]
    opens = np.empty(ordered.size, dtype=bool)
    opens[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=opens[1:])
    inverse = np.empty(ordered.size, dtype=np.intp)
    inverse[order] = np.cumsum(opens) - 1
    return ordered[opens], inverse


def _spectral_positions(factor_vars, coeffs, n_vars) -> tuple:
    """Per variable, the word position k where every term carries it by one factor of coefficient 1.0.

    Such a variable's coordinates are the eigenvalues of that factor's
    observable, exactly (0.0 + 1.0 lambda); None where the terms carry the
    variable by several factors, at several positions or with another
    coefficient.
    """
    out = []
    for v in range(n_vars):
        carries = factor_vars == v
        (cols,) = carries.any(axis=0).nonzero()
        one = cols.size == 1 and carries[:, cols[0]].all() and (coeffs[:, cols[0]] == 1.0).all()
        out.append(int(cols[0]) if one else None)
    return tuple(out)


def _group_terms(terms, n_vars) -> tuple:
    """One :class:`_TermGroup` per observable sequence, in order of first appearance.

    Within a sequence, terms with the same variable pattern whose
    coefficients differ only on variable-0 factors form one block, so a
    characteristic function contracts their other factors once. A block
    also keeps the distinct coefficients of its variable-0 factors per
    observable, so factors that run over the same values (Born-Jordan's
    mirrored (1 - k)/2 and (1 + k)/2) share their phases. Each group
    also records where its terms carry a variable by one coefficient-1
    factor (:func:`_spectral_positions`), which the cell table reads.
    """
    grouped = {}
    for t, (_, word) in enumerate(terms):
        grouped.setdefault(tuple(f.obs for f in word), []).append(t)
    groups = []
    for seq, rows in grouped.items():
        weights = np.array([terms[t][0] for t in rows])
        factor_vars = np.array([[f.var for f in terms[t][1]] for t in rows], dtype=np.intp)
        coeffs = np.array([[f.coeff for f in terms[t][1]] for t in rows])
        keyed = {}
        for t, (v, c) in enumerate(zip(factor_vars, coeffs)):
            keyed.setdefault((v.tobytes(), np.where(v == 0, 0.0, c).tobytes()), []).append(t)
        blocks = []
        for b in keyed.values():
            v = factor_vars[b[0]]
            free = np.flatnonzero(v == 0)
            free_coeffs = _free_coefficients(seq, coeffs[b], free)
            blocks.append(_Block(np.array(b), free, np.flatnonzero(v), free_coeffs))
        spectral = _spectral_positions(factor_vars, coeffs, n_vars)
        groups.append(_TermGroup(seq, weights, factor_vars, coeffs, tuple(blocks), spectral))
    return tuple(groups)


@dataclass(frozen=True)
class SchemeSpec:
    """Convex mixture of product words of observable exponentials.

    ``terms`` is a sequence of (weight, word) pairs where each word is a
    sequence of :class:`Factor`. Two normalization constraints make the
    mixture a valid quasi-classicalization: the weights sum to one (the
    mixture is the identity at s = 0) and, within every term, the
    coefficients attached to each variable sum to one (freezing all other
    variables reduces the word to the plain exponential of one observable,
    which pins the marginals to the Born distributions).

    ``groups`` is derived once from ``terms``: one :class:`_TermGroup` per
    observable sequence, holding its terms' weights, factor variables and
    coefficients as arrays, and their blocks, the terms that differ only in
    their variable-0 coefficients. :func:`build_atoms` and
    :func:`characteristic_function` read the terms only through it, so
    neither loops over terms; all 201 terms of ``scheme_born_jordan(201)``
    form one group and one block.
    """

    n_vars: int
    terms: tuple
    label: str = "custom"
    approximate: bool = False
    groups: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n_vars < 1:
            raise DomainError(f"n_vars must be at least 1, got {self.n_vars}")
        terms = []
        for weight, word in self.terms:
            factors = tuple(Factor(int(v), float(c), int(o)) for v, c, o in word)
            for f in factors:
                if not 0 <= f.var < self.n_vars:
                    raise DomainError(f"factor var index {f.var} out of range")
                if not 0 <= f.obs < self.n_vars:
                    raise DomainError(f"factor obs index {f.obs} out of range")
            terms.append((complex(weight), factors))
        object.__setattr__(self, "terms", tuple(terms))

        total = sum(w for w, _ in self.terms)
        if not abs(total - 1.0) <= linalg.ROUNDING_TOL:  # "not <=" also fails NaN
            raise DomainError(f"term weights must sum to 1, got {total}")
        for t_idx, (_, word) in enumerate(self.terms):
            # Python floats sum inf and -inf to NaN silently
            sums = [sum((f.coeff for f in word if f.var == v), 0.0) for v in range(self.n_vars)]
            if not all(abs(v - 1.0) <= linalg.ROUNDING_TOL for v in sums):
                raise DomainError(
                    f"term {t_idx}: coefficients per variable must sum to 1, got {sums}"
                )
        object.__setattr__(self, "groups", _group_terms(self.terms, self.n_vars))


@dataclass(frozen=True)
class WignerScheme:
    """Symmetric (Weyl) mixing: one exponential of the linear combination.

    For generic non-commuting observables this scheme has no finite atom
    decomposition, and its density can fail to exist as a function; only
    the characteristic-function side is exact. See
    :func:`wigner_density_estimate` for a windowed, explicitly approximate
    inversion.
    """

    n_vars: int = 2
    label: str = "wigner"

    def __post_init__(self):
        if self.n_vars < 1:
            raise DomainError(f"n_vars must be at least 1, got {self.n_vars}")


def scheme_kirkwood(n_vars: int = 2) -> SchemeSpec:
    """Fully ordered product word: one factor per variable, ascending."""
    word = [Factor(v, 1.0, v) for v in range(n_vars)]
    return SchemeSpec(n_vars, ((1.0, word),), label="kirkwood")


def scheme_s_alpha(alpha: float) -> SchemeSpec:
    """Split first-observable word: exp(-i a s A) exp(-i t B) exp(-i (1-a) s A)."""
    word = [Factor(0, float(alpha), 0), Factor(1, 1.0, 1), Factor(0, 1.0 - float(alpha), 0)]
    return SchemeSpec(2, ((1.0, word),), label=f"s_alpha({alpha:g})")


def scheme_margenau_hill(alpha: float = 0.0) -> SchemeSpec:
    """Weighted mixture of the two orderings of the Kirkwood-Dirac word."""
    fwd = [Factor(0, 1.0, 0), Factor(1, 1.0, 1)]
    rev = [Factor(1, 1.0, 1), Factor(0, 1.0, 0)]
    a = float(alpha)
    return SchemeSpec(
        2,
        (((1 + a) / 2, fwd), ((1 - a) / 2, rev)),
        label=f"margenau_hill({alpha:g})",
    )


# most Gauss-Legendre nodes of a Born-Jordan scheme: leggauss builds a K x K
# companion matrix, 50 MB at this cap and about 1 GB near 10^4; acceptance
# criterion 11 checks convergence at 2001 nodes
MAX_QUADRATURE_NODES = 2500

# most entries _round12 rounds one by one with Python's round, which costs
# about 0.5 us an entry against numpy's 7 us for the vectorized rounding
ROUND_LOOP_MAX = 12

# complex entries (1 MiB) that one block of a frequency-side reader may hold
# per temporary: characteristic functions walk their frequencies (or
# directions) in blocks of BLOCK_ENTRIES // width, width the entries one
# frequency needs (:func:`_blocks`)
BLOCK_ENTRIES = 2**16


def scheme_born_jordan(quadrature_nodes: int = 201) -> SchemeSpec:
    """Gauss-Legendre discretization of the equal-weight ordering average.

    The continuous mixture (1/2) * integral over k in [-1, 1] of
    exp(-i (1-k)/2 s A) exp(-i t B) exp(-i (1+k)/2 s A) dk is replaced by
    one split word per quadrature node. Marginals stay exact; only the
    joint weights depend on the node count, so outputs carry an
    ``approximate`` flag. The node count runs from 1 to
    ``MAX_QUADRATURE_NODES``.
    """
    if quadrature_nodes < 1:
        raise DomainError(f"need at least one quadrature node, got {quadrature_nodes}")
    if quadrature_nodes > MAX_QUADRATURE_NODES:
        raise DomainError(
            f"at most {MAX_QUADRATURE_NODES} quadrature nodes, got {quadrature_nodes}"
        )
    nodes, weights = np.polynomial.legendre.leggauss(quadrature_nodes)
    terms = []
    for k, w in zip(nodes, weights):
        word = [
            Factor(0, (1 - k) / 2, 0),
            Factor(1, 1.0, 1),
            Factor(0, (1 + k) / 2, 0),
        ]
        terms.append((w / 2, word))
    return SchemeSpec(
        2, tuple(terms), label=f"born_jordan({quadrature_nodes})", approximate=True
    )


def scheme_alternating(x_coeffs, y_coeffs, first_var: int = 0) -> SchemeSpec:
    """Single word alternating between the two observables.

    ``x_coeffs`` multiply the variable-0 factors and ``y_coeffs`` the
    variable-1 factors; each list must sum to one. The word starts with
    ``first_var`` and alternates, so the starting list may be one entry
    longer than the other (it then also ends the word).
    """
    xs = [float(c) for c in x_coeffs]
    ys = [float(c) for c in y_coeffs]
    first, second = (xs, ys) if first_var == 0 else (ys, xs)
    if len(first) not in (len(second), len(second) + 1):
        raise DomainError(
            "starting coefficient list must be as long as the other or one entry longer"
        )
    word = []
    for i in range(len(first)):
        var = first_var
        word.append(Factor(var, first[i], var))
        if i < len(second):
            var = 1 - first_var
            word.append(Factor(var, second[i], var))
    return SchemeSpec(2, ((1.0, word),), label="alternating")


class KirkwoodForm(NamedTuple):
    """Atom weights as f Z + g conj(Z) per atom (:meth:`OperatorAtomSet.kirkwood_form`)."""

    forward: np.ndarray  # beta c[a, b] of the atom on eigenvector pair [a, b], shape (N, N)
    reverse: np.ndarray  # gamma conj(c[a, b]) of that atom, shape (N, N)
    index: np.ndarray  # atom of the eigenvector pair [a, b], shape (N, N)


@dataclass(frozen=True)
class OperatorAtomSet:
    """Operator-valued atoms on a finite support, stored as sparse closing tables.

    ``points`` has shape (P, n_vars) with rows sorted lexicographically.
    Atoms sum to the identity, and for each variable the atoms sharing an
    eigenvalue coordinate sum to the corresponding spectral projector.

    A word that opens on observable F and closes on L adds U_F X U_L^dagger
    to its atoms, U the eigenvector matrices, so the atoms are kept as the
    eigensystems ``eigs``, the distinct closing pairs (F, L) (``closings``)
    and a table of cells: atom p holds x at [i, j] of X_p^k on closing k,
    and A_p is the sum over k of U_F X_p^k U_L^dagger. The cells of atom p
    are ``bounds[p]:bounds[p + 1]``, ``entries`` holds k N^2 + j N + i,
    their place in the stack of closing matrices U_L^dagger M U_F, and
    ``values`` the x: one cell, about 24 bytes, per distinct (atom,
    closing, i, j), at most T N M N for a word of T terms with M middle
    group choices. Traces (:meth:`weights_for`) gather the cells from that
    stack and sums of atoms (:meth:`operator_for`) scatter them onto it.
    """

    n_vars: int
    points: np.ndarray
    eigs: tuple
    closings: tuple  # (F, L) observable indices per closing
    bounds: np.ndarray = field(repr=False)
    entries: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.eigs[0].dim

    def __len__(self):
        return self.points.shape[0]

    def weights_for(self, matrix) -> np.ndarray:
        """Trace of each atom against one N x N matrix, shape (P,).

        Tr(U_F E_ij U_L^dagger M) is (U_L^dagger M U_F)[j, i], so each cell
        gathers its entry of its closing matrix, and the products are summed
        per atom (atoms of one cell each need no sum). Every trace of the
        atoms goes through here (joint weights, blindness, the
        reconstruction map), one matrix per call; :meth:`operator_for` is
        its adjoint.
        """
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"expected one {self.dim} x {self.dim} matrix, got shape {m.shape}"
            )
        stack = [(self.eigs[last].vectors.conj().T @ m @ self.eigs[first].vectors).reshape(-1)
                 for first, last in self.closings]
        stack = stack[0] if len(stack) == 1 else np.concatenate(stack)
        products = self.values * stack[self.entries]
        return products if products.size == len(self) else np.add.reduceat(products, self.bounds[:-1])

    def operator_for(self, values) -> np.ndarray:
        """Sum of values[p] * A_p over the atoms, shape (N, N): the adjoint of :meth:`weights_for`.

        Each cell scatters values[p] x onto Y_k[i, j] of its closing, and the
        sum is that of U_F Y_k U_L^dagger over the closings.
        """
        # one value per atom: a wrong length raises
        coefs = np.repeat(np.asarray(values, dtype=complex), np.diff(self.bounds))
        return self._scatter(coefs * self.values)

    def _scatter(self, coefs, cells=slice(None)) -> np.ndarray:
        """Sum over the ``cells`` of coefs[c] U_F E_ij U_L^dagger, shape (N, N)."""
        n = self.dim
        y = np.zeros(len(self.closings) * n * n, dtype=complex)
        np.add.at(y, self.entries[cells], coefs)
        out = 0
        for (first, last), yt in zip(self.closings, y.reshape(-1, n, n)):
            out = out + self.eigs[first].vectors @ yt.T @ self.eigs[last].vectors.conj().T
        return out

    def identity_defect(self) -> float:
        """Max-norm distance of the kept atoms' sum from the identity, every cell scattered once."""
        total = self._scatter(self.values)
        total.ravel()[:: total.shape[0] + 1] -= 1  # minus the identity, in place
        return float(np.abs(total).max())

    def kirkwood_form(self):
        """The atoms as Kirkwood-Dirac weights mixed with their conjugates, or None.

        For nondegenerate A (observable 0) and B (observable 1), a cell
        (a, b, f) on closing (A, B) adds f Z to its atom's weight and one
        (b, a, g) on (B, A) adds g conj(Z), Z = (U_B^dagger M U_A)[b, a],
        for Hermitian M: f = beta c[a, b] and g = gamma conj(c[a, b]) for
        words A then B and B then A of weights beta and gamma, with
        c = U_A^dagger U_B. Returns the form when each atom's cells lie on
        one pair [a, b] of those closings and the N^2 atoms take the N^2
        pairs; otherwise None (split words; degenerate spectra, merged or
        pruned atoms, which all leave fewer than N^2 atoms).
        """
        n = self.dim
        two_words = set(self.closings) <= {(0, 1), (1, 0)}
        if len(self) != n * n or not two_words:
            return None
        k, j, i = np.unravel_index(self.entries, (len(self.closings), n, n))
        forward = np.array([c == (0, 1) for c in self.closings])[k]
        pair = np.where(forward, i * n + j, j * n + i)  # a n + b
        first = pair[self.bounds[:-1]]
        index = np.argsort(first)  # the atom of each pair, if each has one
        # atoms of one cell lie on one pair (Kirkwood-Dirac); others must have all theirs on it
        one_pair = pair.size == first.size or (pair == np.repeat(first, np.diff(self.bounds))).all()
        if not one_pair or (first[index] != np.arange(n * n)).any():
            return None
        coefs = np.zeros((2, n * n), dtype=complex)
        coefs[np.where(forward, 0, 1), pair] = self.values
        return KirkwoodForm(*coefs.reshape(2, n, n), index.reshape(n, n))


@dataclass(frozen=True)
class QuasiDistribution:
    """Complex weights on a finite set of joint support points.

    The weights sum to one; every single-variable marginal is real and
    matches the Born distribution of that observable. Individual weights
    may be complex or negative depending on the scheme. ``points`` must
    have shape (M, n_vars) and ``weights`` shape (M,); only the shapes are
    checked.
    """

    n_vars: int
    points: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        points, weights = np.shape(self.points), np.shape(self.weights)
        if points[1:] != (self.n_vars,) or weights != points[:1]:
            raise DimensionMismatchError(f"a distribution over {self.n_vars} variables needs points "
                                         f"(M, {self.n_vars}) and weights (M,), got {points} and {weights}")

    def __len__(self):
        return self.points.shape[0]

    def total(self) -> complex:
        return complex(self.weights.sum())

    def max_imag(self) -> float:
        return float(np.abs(self.weights.imag).max()) if len(self) else 0.0

    def weight_at(self, point) -> complex:
        """Weight at a support point, 0 if no point matches within ``linalg.COORD_TOL``."""
        target = np.asarray(point, dtype=float).reshape(-1)
        if target.shape != (self.n_vars,):
            raise DimensionMismatchError(
                f"point has {target.size} coordinates, expected {self.n_vars}"
            )
        with np.errstate(over="ignore"):  # a distance past the float range is an infinite one
            mask = (np.abs(self.points - target) <= linalg.COORD_TOL).all(axis=1)
        return complex(self.weights[mask].sum()) if mask.any() else 0.0

    def characteristic(self, s_points) -> np.ndarray:
        """sum over x of w(x) exp(-i s.x) for each frequency vector.

        Evaluated as real sums, (cos - i sin)(Re w + i Im w), through
        ``einsum`` rather than a complex BLAS product over the points. The
        frequencies are taken in blocks of ``BLOCK_ENTRIES // P`` (at least
        one) for P support points, so the phase arrays hold about
        ``BLOCK_ENTRIES`` entries, not one per frequency and point: extra
        memory O(M + B) for M frequencies and B = ``BLOCK_ENTRIES``.
        """
        pts = _check_points(self.n_vars, s_points)
        parts = np.stack([self.weights.real, self.weights.imag])
        out = np.empty(len(pts), dtype=complex)
        for b in _blocks(len(pts), len(self)):
            theta = np.einsum("mv,pv->mp", pts[b], self.points)
            cos = np.einsum("mp,kp->km", np.cos(theta), parts)
            sin = np.einsum("mp,kp->km", np.sin(theta, out=theta), parts)
            out[b] = (cos[0] + sin[1]) + 1j * (cos[1] - sin[0])
        return out


def _check_points(n_vars, s_points) -> np.ndarray:
    pts = np.asarray(s_points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1) if n_vars > 1 else pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != n_vars:
        raise DimensionMismatchError(
            f"expected frequency vectors of length {n_vars}, got shape {pts.shape}"
        )
    if not np.isfinite(pts).all():
        m, v = (int(k) for k in np.argwhere(~np.isfinite(pts))[0])
        raise DomainError(f"frequency {v} of point {m} is not finite: {pts[m, v]}")
    return pts


def _check_observables(n_vars, observables):
    if len(observables) != n_vars:
        raise DimensionMismatchError(
            f"scheme has {n_vars} variables but {len(observables)} observables given"
        )
    dims = {o.dim for o in observables}
    if len(dims) > 1:
        raise DimensionMismatchError(f"observables have mixed dimensions {sorted(dims)}")


def _cluster_values(values, var, tol):
    """Clusters of the values of each variable (sorted values within tol merge).

    ``var`` holds the variable of each value, 0 to V - 1, every one
    present. Returns ``(reps, ids, counts)``: the cluster representatives,
    ascending within each variable and variables in order, the cluster of
    each value, so ``reps[ids]`` maps every value to its representative,
    and the number of clusters of each variable. One ``argsort`` of the
    values, then a stable one of their variables (``np.lexsort`` costs
    about four times as much from a thousand values on), orders them by
    (variable, value); a new variable or a gap above ``tol`` between
    neighbours opens a cluster, so no cluster spans two variables.
    Representatives are the means of a cluster's distinct values (numpy's
    slice ``mean``, exact for a single value, visited one by one only for
    clusters of two or more) rounded to a 1e-12 grid (:func:`_round12`),
    so coordinates arising from different rounding paths key identically
    and repeated values do not move a representative. A variable's
    clusters lie more than ``tol`` apart, so rounding keeps them in order.
    The cell table sends no spectral variable here (:func:`_spectral_variable`):
    these rules would make each of its eigenvalues a cluster of one value.
    """
    order = values.argsort()
    order = order[var[order].argsort(kind="stable")]  # by variable, then value
    ordered, var = values[order], var[order]
    opens = np.empty(ordered.size, dtype=bool)
    opens[0], opens[1:] = True, (ordered[1:] - ordered[:-1] > tol) | (var[1:] != var[:-1])
    ids = np.empty(ordered.size, dtype=np.intp)
    ids[order] = np.cumsum(opens) - 1
    starts = np.flatnonzero(opens)
    ends = np.concatenate((starts[1:], [ordered.size]))
    means = ordered[starts]
    for c in np.flatnonzero(ordered[ends - 1] != means):  # clusters of two or more values
        run = ordered[starts[c] : ends[c]]
        means[c] = run[np.concatenate(([True], run[1:] != run[:-1]))].mean()
    return _round12(means) + 0.0, ids, np.bincount(var[starts])  # + 0.0: no negative zero


def _round12(x) -> np.ndarray:
    """``round(v, 12)`` of every entry of the 1-d float array ``x``, bit for bit.

    Up to ``ROUND_LOOP_MAX`` entries that is Python's ``round`` one by
    one, cheaper there than numpy's per-call cost. Beyond, rint(v 1e12) /
    1e12 is Python's correctly rounded result wherever the float product
    s = v 1e12 lies more than its rounding error (at most |s| 2^-53) from
    a half-integer: the exact product then rounds to the same integer q,
    and q / 1e12 is the float nearest q 10^-12, both exact. The test
    |s - q| + |s| 2^-52 < 1/2 holds only there and fails on ties and on
    huge or non-finite values, which go through ``round`` one by one.
    """
    if x.size <= ROUND_LOOP_MAX:
        return np.array([round(v, 12) for v in x.tolist()], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = x * 1e12
        q = np.rint(scaled)
        exact = np.abs(scaled - q) + np.abs(scaled) * 2.0**-52 < 0.5
    out = q / 1e12
    if not exact.all():
        for k in np.flatnonzero(~exact):
            out[k] = round(float(x[k]), 12)
    return out


def _group_sum(x, eig: linalg.EigenSystem, axis: int) -> np.ndarray:
    """Sum ``x`` along ``axis`` (indexed by eigenvector columns) within eigenvalue groups."""
    if not eig.degenerate:
        return x
    return np.add.reduceat(x, eig.group_starts, axis=axis)


def _overlap_chain(eigs):
    """Chained overlaps of a word of at least two factors.

    Returns c of shape (N, G_2, ..., G_{L-1}, N): with eigenvector matrices
    U_k, c[i, g_2, ..., g_{L-1}, j] is the product of the overlaps
    U_k^dagger U_{k+1} along the word, from column i of U_1 to column j of
    U_L, with each middle factor summed over the columns of its chosen
    group. Then P_1[g_1] ... P_L[g_L] is the sum over i in g_1, j in g_L of
    u_i c[i, g_2, ..., g_{L-1}, j] v_j^dagger.
    """
    chain = eigs[0].vectors.conj().T @ eigs[1].vectors
    for k in range(1, len(eigs) - 1):
        overlap = eigs[k].vectors.conj().T @ eigs[k + 1].vectors
        chain = _group_sum(chain[..., :, None] * overlap, eigs[k], axis=-2)
    return chain


def _word_weights(eigs, rho) -> np.ndarray:
    """Trace of a matrix against every projector product of a word.

    Returns shape (G_1, ..., G_L) with entry [g_1, ..., g_L] equal to
    Tr(rho P_1[g_1] ... P_L[g_L]). The trace of u_i c[...] v_j^dagger is
    c[...] (U_L^dagger rho U_1)[j, i], so the word's overlap chain is
    closed with that one matrix in one broadcast and summed over the first
    and last groups. No projector product is formed.
    """
    first, last = eigs[0], eigs[-1]
    closing = (last.vectors.conj().T @ rho @ first.vectors).T  # [i, j] = (U_L^dagger rho U_1)[j, i]
    if len(eigs) == 1:
        return _group_sum(np.diagonal(closing), first, axis=0)
    closing = closing.reshape((first.dim,) + (1,) * (len(eigs) - 2) + (last.dim,))
    chain = _overlap_chain(eigs)
    return _group_sum(_group_sum(chain * closing, first, axis=0), last, axis=len(eigs) - 1)


def _variable_coordinates(group: _TermGroup, eigs, var) -> np.ndarray:
    """Coordinate ``var`` of every term's group choices, on that variable's own axes.

    Shape (T, G_1', ..., G_L'), G_k' = G_k on the axes of factors that
    some term puts on ``var`` and 1 on the others, so it broadcasts over
    the group's choice grid. Each term adds its coefficient-weighted
    eigenvalues of the factors it puts on ``var`` in word order, starting
    from zero, so each coordinate is rounded exactly as a scalar running sum.
    """
    carries = group.vars == var  # (T, L)
    t, on = carries.shape[0], carries.any(axis=0)
    grid = [eigs[o].eigenvalues.size if c else 1 for o, c in zip(group.obs, on)]
    coords = np.zeros([t] + grid)
    ones = [1] * len(grid)
    for k in np.flatnonzero(on):
        shape = [t] + ones
        shape[1 + k] = grid[k]
        step = group.coeffs[:, k, None] * eigs[group.obs[k]].eigenvalues
        # terms that put factor k on another variable keep their sum
        np.add(coords, step.reshape(shape), out=coords, where=carries[:, k].reshape([t] + ones))
    return coords


def _group_cells(group: _TermGroup, eigs, keys, closings):
    """A group's candidates per eigenvector column pair: their cell keys and values, flat.

    ``keys``, shape (T, G_1, ..., G_L), holds the point key of each term's
    group choices, shifted past the cells a point can hold. The end group axes expand to the
    eigenvector columns i and j, k N^2 + j N + i is added for the group's
    closing k, and the value is weight * chain[i, mid, j]
    (:func:`_overlap_chain`); a one-factor word puts its weight on [i, i].
    """
    eigs = [eigs[o] for o in group.obs]
    first, last, weights = eigs[0], eigs[-1], group.weights
    n, t = first.dim, weights.size
    offset = closings.index((group.obs[0], group.obs[-1])) * n * n
    cols = np.arange(n)
    if len(eigs) == 1:
        keys = keys.reshape(t, -1)
        keys = np.repeat(keys, first.multiplicities, axis=1) if first.degenerate else keys
        return (keys + (cols * (n + 1) + offset)).ravel(), np.repeat(weights, n)
    keys = keys.reshape(t, first.eigenvalues.size, -1, last.eigenvalues.size)
    keys = np.repeat(keys, first.multiplicities, axis=1) if first.degenerate else keys
    keys = np.repeat(keys, last.multiplicities, axis=3) if last.degenerate else keys
    chain = _overlap_chain(eigs).reshape(n, -1, n)
    keys = keys + (cols[:, None, None] + (n * cols + offset))
    return keys.ravel(), (weights[:, None, None, None] * chain).ravel()


def _norm_bounds(atoms: OperatorAtomSet):
    """(lower, upper) bounds on each atom's max-norm max |A_p[i, j]|, read off the cells.

    Upper: ||A_p||_F, at most the sum over closings of ||X_p^k||_F as U_F
    and U_L are unitary. Lower: |u^dagger A_p v| / N for the unit vectors
    u = U_F[:, i] and v = U_L[:, j] of the atom's largest cell (i, j, x).
    On one closing that is |x| / N, and with one cell per atom both bounds
    are |x| (the lower over N); on mixed closings, the sum over the atom's
    cells (F', L', i', j', x') of x' (U_F^dagger U_F')[i, i']
    (U_L'^dagger U_L)[j', j], read from one table of the overlaps between
    all eigenvector columns, the overlap of a basis with itself the identity.
    """
    n, p, width = atoms.dim, len(atoms), len(atoms.closings)
    size = np.abs(atoms.values)
    if width == 1 and size.size == p:
        return size / n, np.sqrt(size * size)
    atom = np.repeat(np.arange(p), np.diff(atoms.bounds))
    lower = np.zeros(p)
    np.maximum.at(lower, atom, size)
    if width == 1:
        return lower / n, np.sqrt(np.bincount(atom, size * size, p))
    k, j, i = np.unravel_index(atoms.entries, (width, n, n))
    upper = np.sqrt(np.bincount(atom * width + k, size * size, p * width)).reshape(p, width)
    top = np.empty(p, dtype=np.intp)
    largest = np.flatnonzero(size == lower[atom])
    top[atom[largest]] = largest  # a largest cell of each atom
    top = top[atom]
    # overlap[a N + i, b N + i'] = (U_a^dagger U_b)[i, i']
    eigs = atoms.eigs
    overlap = np.empty((len(eigs) * n, len(eigs) * n), dtype=complex)
    for a, b in np.ndindex(len(eigs), len(eigs)):
        block = eigs[a].vectors.conj().T @ eigs[b].vectors if a != b else np.eye(n)
        overlap[a * n : (a + 1) * n, b * n : (b + 1) * n] = block
    firsts, lasts = np.array(atoms.closings).T
    rows, cols = firsts[k] * n + i, lasts[k] * n + j  # each cell's columns of U_F and U_L
    terms = overlap[rows[top], rows] * overlap[cols, cols[top]]
    sums = np.zeros(p, dtype=complex)
    np.add.at(sums, atom, terms * atoms.values)
    return np.abs(sums) / n, upper.sum(axis=1)


def _anti_hermitian(atoms: OperatorAtomSet) -> OperatorAtomSet:
    """The atoms A_p - A_p^dagger at the same points, read off the cells.

    (U_F E_ij U_L^dagger)^dagger is U_L E_ji U_F^dagger, so each cell x at
    [i, j] of closing (F, L) adds -conj(x) at [j, i] of closing (L, F).
    The reversed closings follow the atoms' own, so their cells keep their
    closing index; cells that land on one entry of one atom are summed.
    """
    n, size = atoms.dim, atoms.values.size
    closings = tuple(dict.fromkeys(atoms.closings + tuple(c[::-1] for c in atoms.closings)))
    stride = len(closings) * n * n
    k, j, i = np.unravel_index(atoms.entries, (len(atoms.closings), n, n))
    reversed_closing = np.array([closings.index(c[::-1]) for c in atoms.closings])
    keys = np.concatenate((atoms.entries, (reversed_closing[k] * n + i) * n + j))
    del k, j, i  # keyed on (atom, entry) below; the index arrays would only add to the peak
    keys += np.tile(np.repeat(np.arange(len(atoms)) * stride, np.diff(atoms.bounds)), 2)
    values = np.concatenate((atoms.values, atoms.values))
    values.real[size:] *= -1  # -conj(x)
    keys, values = _sum_repeats(keys, values)
    bounds = np.searchsorted(keys, np.arange(len(atoms) + 1) * stride)
    return replace(atoms, closings=closings, bounds=bounds, entries=keys % stride, values=values)


def _max_norms(atoms: OperatorAtomSet, which) -> np.ndarray:
    """Max-norm of each atom in ``which``, formed densely from its own cells."""
    cells = (slice(atoms.bounds[p], atoms.bounds[p + 1]) for p in which)
    return np.array([np.abs(atoms._scatter(atoms.values[c], c)).max() for c in cells])


def _kept(atoms: OperatorAtomSet) -> np.ndarray:
    """Which atoms have a max-norm of at least ``linalg.ROUNDING_TOL``, decided off the cells.

    An atom is dropped when its upper bound (:func:`_norm_bounds`) lies
    below the tolerance and kept when its lower bound reaches it; the few
    in between, the residue, are formed from their cells (:func:`_max_norms`).
    """
    tol = linalg.ROUNDING_TOL
    lower, upper = _norm_bounds(atoms)
    keep = lower >= tol
    residue = np.flatnonzero(~keep & (upper >= tol))
    if residue.size:
        keep[residue] = _max_norms(atoms, residue) >= tol
    return keep


def _prune(atoms: OperatorAtomSet):
    """The atoms :func:`_kept` keeps and their identity defect, with dropped atoms put back if it fails.

    Each dropped atom is below ``linalg.ROUNDING_TOL``, but thousands of
    them can sum past ``linalg.DEFECT_TOL`` (born_jordan(5) on the spin
    pairs of j = 59/2 ... 63/2 drops 3508 to 5564 for a defect of 1.1e-10
    to 1.7e-10). Only when the kept atoms miss the identity by more than
    that are dropped atoms put back, largest upper bound first, 1, 2, 4,
    ... of them, each set checked with one scatter of its cells
    (:meth:`OperatorAtomSet.identity_defect`), up to the first within
    ``DEFECT_TOL``; with all of them back, the unpruned atoms are returned.
    Atoms that pass without it are returned as the prune alone leaves them.
    """
    keep, order, back = _kept(atoms), None, 0
    while not keep.all():
        counts = np.diff(atoms.bounds)
        cells, counts = np.repeat(keep, counts), counts[keep]
        kept = replace(
            atoms,
            points=atoms.points.take(np.flatnonzero(keep), axis=0),
            bounds=np.concatenate(([0], np.cumsum(counts))),
            entries=atoms.entries[cells],
            values=atoms.values[cells],
        )
        defect = kept.identity_defect()
        if defect <= linalg.DEFECT_TOL:
            return kept, defect
        if order is None:  # the dropped atoms, largest upper bound first
            dropped = np.flatnonzero(~keep)
            order = dropped[np.argsort(-_norm_bounds(atoms)[1][dropped], kind="stable")]
        back = 2 * back or 1
        keep[order[:back]] = True
    return atoms, atoms.identity_defect()


def build_atoms(spec: SchemeSpec, observables) -> OperatorAtomSet:
    """Exact operator atoms of a product-form scheme.

    Every factor exp(-i s c A) expands over the eigenprojectors of A; each
    choice of one eigenvalue per factor contributes the ordered projector
    product, scaled by the term weight, at the coordinate vector whose
    v-th entry is the coefficient-weighted sum of chosen eigenvalues over
    the factors of variable v.

    All products of one word are fixed by one contraction of the
    eigenvector overlaps U_k^dagger U_{k+1} (:func:`_overlap_chain`), so
    no projector is multiplied per choice: the choice (i, mid, j) of a word
    that opens on F and closes on L adds weight * chain[i, mid, j] at
    [i, j] of X in U_F X U_L^dagger. Terms whose words visit the same
    observables in the same order (one of ``spec.groups``) share that
    contraction. Each variable's coordinates are summed on the axes of the
    factors that carry it (:func:`_variable_coordinates`), so a split
    word at N = 24 clusters 576 values for variable 0 and 24 for variable
    1 rather than 13,824 each; a variable carried by one coefficient-1
    factor is not clustered at all, its clusters being that observable's
    eigenvalues (:func:`_spectral_variable`: both variables of
    Kirkwood-Dirac and Margenau-Hill, variable 1 of split words). The
    cluster ids then broadcast over each group's choice grid into point
    keys. The merge and prune rules are those of the scalar definition:
    coordinates within ``linalg.COORD_TOL`` of each other (per variable,
    chained over sorted values) merge into one atom at the rounded mean
    of the cluster's distinct values (:func:`_cluster_values`), and merged
    atoms below ``linalg.ROUNDING_TOL`` in max-norm are dropped. Every
    choice is keyed on (point, closing, j, i), so one stable sort gives
    the atoms and their cells (:class:`OperatorAtomSet`), repeated keys
    summed in order, and the prune reads its bounds off the cells
    (:func:`_prune`). The atom sum must be the identity within
    ``linalg.DEFECT_TOL``; where the dropped atoms alone break that,
    the largest of them are put back until it holds (:func:`_prune`).
    """
    if isinstance(spec, WignerScheme):
        raise UnsupportedSchemeError(
            "the symmetric scheme has no finite atom decomposition; "
            "use its characteristic function instead"
        )
    _check_observables(spec.n_vars, observables)
    eigs = tuple(o.eig for o in observables)
    points, *table = _cell_table(spec.groups, spec.n_vars, eigs)
    meta = {
        "scheme": spec.label,
        "observables": tuple(o.label for o in observables),
        "approximate": spec.approximate,
    }
    atoms, defect = _prune(OperatorAtomSet(spec.n_vars, points, eigs, *table, meta))
    if not defect <= linalg.DEFECT_TOL:
        raise QuasiJointError(
            f"atom normalization failed: identity defect {defect:.3e}"
        )
    return atoms


def _spectral_variable(groups, eigs, var):
    """The ascending spectrum whose eigenvalues are the clusters of variable ``var``, or None.

    That holds when every group carries ``var`` by one coefficient-1 factor
    at one position (:attr:`_TermGroup.spectral`), all on one observable,
    and every gap of its ascending spectrum exceeds ``linalg.COORD_TOL``:
    the coordinates are then its eigenvalues, and each forms a cluster of
    one value. Otherwise None, and ``var`` is clustered from its
    coordinates (:func:`_cluster_values`).
    """
    positions = [g.spectral[var] for g in groups]
    if None in positions:
        return None
    observables = {g.obs[k] for g, k in zip(groups, positions)}
    if len(observables) > 1:
        return None
    spectrum = eigs[observables.pop()].eigenvalues[::-1]
    with np.errstate(over="ignore"):  # a gap past the float range is an infinite one
        distinct = (spectrum[1:] - spectrum[:-1] > linalg.COORD_TOL).all()
    return spectrum if distinct else None


def _sum_repeats(keys, values):
    """The distinct ``keys``, ascending, and the sum of the ``values`` on each, repeats added in order.

    One stable sort; the sum runs only when some key repeats.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    opens = np.empty(keys.size, dtype=bool)
    opens[0] = True
    np.not_equal(keys[1:], keys[:-1], out=opens[1:])
    if opens.all():
        return keys, values[order]
    cells, repeats = np.flatnonzero(opens), np.flatnonzero(~opens)
    x = values[order[cells]]
    # candidates on a cell already open: add in order
    np.add.at(x, np.cumsum(opens)[repeats] - 1, values[order[repeats]])
    return keys[cells], x


def _cell_table(groups, n_vars, eigs) -> tuple:
    """Points and cells of the unpruned atoms of the term ``groups`` (:class:`_TermGroup`).

    Returned as the fields of :class:`OperatorAtomSet` after ``eigs``.
    A spectral variable (:func:`_spectral_variable`) takes its clusters
    from its spectrum: ids the reversed group index on its factor's axis,
    representatives its rounded ascending eigenvalues (:func:`_round12`),
    as :func:`_cluster_values` would give. The other variables are summed
    on their own axes (:func:`_variable_coordinates`) and clustered in one
    call. One group skips the concatenation of the candidates, and the
    sum of repeated cell keys runs only when some key repeats (never for
    Kirkwood-Dirac, Margenau-Hill and split words on random pairs).
    """
    n, width = eigs[0].dim, len(groups)
    spectra = [_spectral_variable(groups, eigs, v) for v in range(n_vars)]
    # per variable its cluster representatives and their count, and per variable and group its ids
    reps, sizes, ids = [None] * n_vars, [0] * n_vars, [None] * (n_vars * width)
    spectral = [v for v, spectrum in enumerate(spectra) if spectrum is not None]
    if spectral:
        # every eigenvalue of a spectral variable is its own cluster; one rounding for all
        rounded = _round12(np.concatenate([spectra[v] for v in spectral])) + 0.0  # no negative zero
        start = 0
        for v in spectral:
            size = spectra[v].size
            reps[v], sizes[v], start = rounded[start : start + size], size, start + size
            reversed_index = np.arange(size - 1, -1, -1)  # ascending cluster of each group index
            for k, g in enumerate(groups):
                shape = [1] * (len(g.obs) + 1)
                shape[1 + g.spectral[v]] = size
                index = reversed_index.reshape(shape)
                # run over the terms, as the other variables' ids do
                terms = g.weights.size
                ids[v * width + k] = index if terms == 1 else np.broadcast_to(index, [terms] + shape[1:])
    rest = [v for v, spectrum in enumerate(spectra) if spectrum is None]
    if rest:
        # the other variables' coordinates, variable by variable, clustered in one call
        coords = [_variable_coordinates(g, eigs, v) for v in rest for g in groups]
        lengths = [c.size for c in coords]
        var = np.repeat(np.repeat(np.arange(len(rest)), width), lengths)
        values = coords[0].ravel() if len(coords) == 1 else np.concatenate([c.ravel() for c in coords])
        clustered, flat, counts = _cluster_values(values, var, linalg.COORD_TOL)
        first = np.cumsum(counts) - counts
        flat -= first[var]  # each variable's clusters count from 0
        ends = np.cumsum(lengths).tolist()
        for c, (coord, hi) in enumerate(zip(coords, ends)):
            v = rest[c // width]
            ids[v * width + c % width] = flat[hi - coord.size : hi].reshape(coord.shape)
        for r, v in enumerate(rest):
            sizes[v] = int(counts[r])
            reps[v] = clustered[first[r] : first[r] + sizes[v]]
    closings = tuple(dict.fromkeys((g.obs[0], g.obs[-1]) for g in groups))
    # bits of the cells a point can hold, k N^2 + j N + i
    shift = (len(closings) * n * n - 1).bit_length()
    # integer keys sort as the rows of cluster ids do lexicographically; each
    # group's variables broadcast over its choice grid (T, G_1, ..., G_L)
    keys, values = zip(*(
        _group_cells(g, eigs, np.ravel_multi_index((*ids[k::width], 0), sizes + [1 << shift]), closings)
        for k, g in enumerate(groups)
    ))
    keys, x = _sum_repeats(*((keys[0], values[0]) if width == 1 else map(np.concatenate, (keys, values))))
    point, entries = keys >> shift, keys & ((1 << shift) - 1)
    opens = np.empty(point.size + 1, dtype=bool)
    opens[0] = opens[-1] = True
    np.not_equal(point[1:], point[:-1], out=opens[1:-1])
    bounds = np.flatnonzero(opens)
    points = np.empty((bounds.size - 1, n_vars))
    for v, (r, i) in enumerate(zip(reps, np.unravel_index(point[bounds[:-1]], sizes))):
        points[:, v] = r[i]
    return points, closings, bounds, entries, x


def evaluate_distribution(
    atoms: OperatorAtomSet,
    rho: DensityState,
    *,
    prune_tol: float = linalg.ROUNDING_TOL,
) -> QuasiDistribution:
    """Joint weights of a state: trace of each atom against the density matrix."""
    if atoms.dim != rho.dim:
        raise DimensionMismatchError(f"atom dim {atoms.dim} vs state dim {rho.dim}")
    w = atoms.weights_for(rho.matrix)
    keep = np.flatnonzero(np.abs(w) >= prune_tol)  # rows by index: cheaper than a mask
    return QuasiDistribution(
        atoms.n_vars, atoms.points.take(keep, axis=0), w[keep], dict(atoms.meta)
    )


def marginal(dist: QuasiDistribution, keep_var: int) -> QuasiDistribution:
    """Sum the weights over all variables except ``keep_var``."""
    if not 0 <= keep_var < dist.n_vars:
        raise IndexError(f"variable index {keep_var} out of range for {dist.n_vars} variables")
    values, inverse = _distinct(dist.points[:, keep_var])
    sums = np.zeros(values.size, dtype=complex)
    np.add.at(sums, inverse, dist.weights)
    meta = dict(dist.meta)
    meta["marginal_of"] = meta.get("scheme", "?")
    meta["kept_var"] = keep_var
    return QuasiDistribution(1, values.reshape(-1, 1), sums, meta)


def born_distribution(observable: HermitianObservable, rho: DensityState) -> QuasiDistribution:
    """Outcome distribution of a single observable, from its projectors.

    The weights Tr(rho P_a) are the one-factor weight table of
    :func:`_word_weights`. Atoms sit at every distinct eigenvalue,
    including zero-weight ones.
    """
    if observable.dim != rho.dim:
        raise DimensionMismatchError(
            f"observable dim {observable.dim} vs state dim {rho.dim}"
        )
    eig = observable.eig
    raw = _word_weights([eig], rho.matrix)
    if np.abs(raw.imag).max() > linalg.ROUNDING_TOL:
        raise QuasiJointError("Born weights came out non-real; inputs are inconsistent")
    w = raw.real
    # the projectors are complete, so the weights must sum to Tr rho, which
    # DensityState only holds to 1 within its own trace tolerance
    if w.min() < -linalg.DEFECT_TOL or abs(w.sum() - rho.matrix.trace().real) > linalg.ROUNDING_TOL:
        raise QuasiJointError("Born weights are not a probability distribution")
    order = np.argsort(eig.eigenvalues)  # ascending, matching the sorted convention
    points = eig.eigenvalues[order].reshape(-1, 1)
    meta = {"scheme": "born", "observables": (observable.label,), "approximate": False}
    return QuasiDistribution(1, points.copy(), w[order].astype(complex), meta)


def quantize(f, atoms: OperatorAtomSet) -> np.ndarray:
    """Operator for a classical function: sum over x of f(x) atom(x).

    ``f`` is called with the coordinates unpacked, e.g. ``f(x, y)`` for two
    variables; the sum is read off the cells (:meth:`OperatorAtomSet.operator_for`).
    """
    return atoms.operator_for([f(*p) for p in atoms.points])


def quasi_expectation(f, dist: QuasiDistribution) -> complex:
    """Classical-side expectation: sum over x of f(x) w(x)."""
    values = np.array([f(*p) for p in dist.points], dtype=complex)
    return complex(values @ dist.weights)


def characteristic_function(spec, observables, rho: DensityState, s_points) -> np.ndarray:
    """Trace of the state against the mixed exponential at each frequency.

    No N x N matrix is formed per frequency, and zero points give an empty
    array. For a :class:`WignerScheme` on two levels the value is a closed
    form in Pauli coordinates (:func:`_pauli_characteristic`); on other
    dimensions the points are read as rays (:func:`_weyl_characteristic`):
    one eigendecomposition per direction.
    For a :class:`SchemeSpec` a word's value is
    sum over g of Tr(rho P_1[g_1] ... P_L[g_L]) times the product of the
    factor phases exp(-i c s[var] a_{g_k}), so each observable sequence
    gets one weight table (:func:`_word_weights`), shared by every term
    that visits it. Its terms are contracted a block at a time
    (:func:`_contract_block`), never one term at a time: the terms of a
    block differ only on their variable-0 factors, whose phases are summed
    over the terms on the distinct variable-0 frequencies into one kernel;
    the table is contracted with that kernel, and then with the phases of
    the factors the terms share, per point. All the terms of a Born-Jordan
    scheme form one block.

    Both sides work in blocks of at most about ``BLOCK_ENTRIES`` entries
    per temporary (:func:`_blocks`): the kernel over blocks of the distinct
    variable-0 frequencies, the rays over blocks of directions, so memory
    grows with the point count times the shared axes (or N) only.
    """
    _check_observables(spec.n_vars, observables)
    if observables[0].dim != rho.dim:
        raise DimensionMismatchError(
            f"observable dim {observables[0].dim} vs state dim {rho.dim}"
        )
    pts = _check_points(spec.n_vars, s_points)
    if pts.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    if isinstance(spec, WignerScheme):
        weyl = _pauli_characteristic if rho.matrix.shape == (2, 2) else _weyl_characteristic
        return weyl(observables, rho.matrix, pts)
    # phases depend on one frequency each: evaluate them once per distinct value
    axes = [_distinct(pts[:, v]) for v in range(spec.n_vars)]
    out = np.zeros(pts.shape[0], dtype=complex)
    for group in spec.groups:
        eigs = [observables[o].eig for o in group.obs]
        table = _word_weights(eigs, rho.matrix)
        for block in group.blocks:
            out += _contract_block(table, eigs, group, block, axes)
    return out


def _contract_block(table, eigs, group: _TermGroup, block, axes) -> np.ndarray:
    """Sum over a block's terms t of w_t sum over g of table[g] prod_k phase_{t,k}[g_k, m].

    The terms of a block share the variable and coefficient of every factor
    off variable 0, so they differ only in the phases of the variable-0
    factors (axes g_0), which depend on the point through its variable-0
    frequency alone. The terms therefore enter through one kernel
    K[g_0, s] = sum_t w_t prod_k exp(-i s c[t, k] lambda_k[g_k]) on the
    distinct variable-0 frequencies s, built from per-factor phases of
    shape (T, G_k, S) with one matrix product over t per frequency. Each
    observable's phases are evaluated once on the distinct coefficients of
    its variable-0 factors and gathered per factor (:func:`_free_coefficients`).
    The table is contracted with K over g_0 in one complex matrix product,
    giving Y[g_1, s] on the shared axes g_1, and the shared factors'
    phases are then summed in per point, one factor at a time from the
    last. Only the shared axes span the points.

    K is built and contracted over blocks of the distinct frequencies
    (:func:`_blocks`), each with about ``BLOCK_ENTRIES`` entries in its
    largest temporary (the phases and their running product over the
    terms, or K itself), and fills Y one block at a time: extra memory
    O(M G_shared + B) for M points, G_shared the size of the shared axes
    and B = ``BLOCK_ENTRIES``.
    """
    free, shared = block.free, block.shared
    pattern, coeffs = group.vars[block.terms[0]], group.coeffs[block.terms[0]]
    weights = group.weights[block.terms].reshape(-1, 1, 1)
    values, inverse = axes[0]

    def kernel(s):  # K[g_0, s] on the frequencies s, rows the free axes in word order
        distinct = {}
        for first, coeff_values, _ in block.free_coeffs:
            if first not in distinct:
                theta = eigs[first].eigenvalues[:, None] * (coeff_values[:, None] * s)[:, None, :]
                distinct[first] = _unit_phases(theta)
        # left[t, (g_0 but the last), s]: weight times the free factors but the last, gathered as used
        left = weights
        for first, _, index in block.free_coeffs[:-1]:
            left = left[:, :, None, :] * distinct[first][index][:, None, :, :]
            left = left.reshape(weights.size, -1, s.size)
        first, _, index = block.free_coeffs[-1]
        product = np.matmul(left.transpose(2, 1, 0), distinct[first][index].transpose(2, 0, 1))
        return product.reshape(s.size, -1).T

    table = table.transpose(np.concatenate([shared, free]))
    sizes = table.shape[shared.size :]  # G_k of the free factors
    rows = table.reshape(-1, math.prod(sizes))
    # entries per frequency of the largest temporary: a factor's phases or
    # the running product over the terms, or the kernel
    width = max(weights.size * max(math.prod(sizes[:-1]), max(sizes)), math.prod(sizes))
    y = np.empty((rows.shape[0], values.size), dtype=complex)
    for b in _blocks(values.size, width):
        np.matmul(rows, kernel(values[b]), out=y[:, b])
    y = y.reshape(table.shape[: shared.size] + (values.size,)).take(inverse, axis=-1)
    for k in shared[::-1]:
        vals, inv = axes[pattern[k]]
        phases = _unit_phases(eigs[k].eigenvalues[:, None] * (vals * coeffs[k]))
        y = np.einsum("...gm,gm->...m", y, phases.take(inv, axis=1))
    return y


def _pauli_characteristic(observables, rho, pts) -> np.ndarray:
    """Tr(rho exp(-i s.A)) at each point s for 2 x 2 observables, with no eigendecomposition.

    In the coordinates a_{v,mu} = Tr(A_v sigma_mu) / 2 and r_mu = Tr(rho sigma_mu),
    s.A = h_0 + h.sigma with h = sum_v s_v a_v, so exp(-i s.A) is
    exp(-i h_0) (cos|h| - i sin|h| h^.sigma) and the value is
    exp(-i h_0) (cos|h| r_0 - i sin|h| h^.r), with h^ = 0 where |h| = 0 (the
    origin, and s.A a multiple of the identity). h is formed on s / max|s_v|
    and then rescaled, so it is finite wherever the eigenvalues h_0 +- |h| of
    s.A are.
    """
    coords = np.einsum("vij,mji->vm", np.stack([o.matrix for o in observables]), _PAULI).real / 2
    r = np.einsum("ij,mji->m", rho, _PAULI).real
    # points as columns: a max over the short axis of the rows is several times slower
    cols = np.ascontiguousarray(pts.T)
    scale = np.abs(cols).max(axis=0)
    g = coords.T @ (cols / np.where(scale > 0, scale, 1.0))
    norm = np.hypot(np.hypot(g[1], g[2]), g[3])
    with np.errstate(over="ignore"):
        h0, length = scale * g[0], scale * norm
        bad = ~np.isfinite(np.abs(h0) + length)  # the larger |eigenvalue|
    if bad.any():
        m = int(np.flatnonzero(bad)[0])
        raise DomainError(f"point {m}: s.A has an eigenvalue beyond the float range")
    along = np.divide(r[1:] @ g[1:], norm, out=np.zeros_like(norm), where=norm > 0)
    return _unit_phases(h0) * (np.cos(length) * r[0] - 1j * (np.sin(length) * along))


def _weyl_characteristic(observables, rho, pts) -> np.ndarray:
    """Tr(rho exp(-i s.A)) at each point s, one batched eigendecomposition per direction.

    Each point is written s = r u with u a unit vector whose first nonzero
    coordinate is positive and r signed; the norm is taken of s / max|s_v|,
    so it cannot overflow. Along the ray, s.A = r (u.A), so with
    u.A = sum_k lambda_k |v_k><v_k| the value is
    sum_k p_k exp(-i r lambda_k), p_k = <v_k|rho|v_k>: the Born
    characteristic function of the one observable u.A.

    Directions are keyed on a grid of spacing ``linalg.DIRECTION_TOL / sqrt(n)``
    per coordinate, and each key is diagonalized once, at the exact
    direction of its first point (:func:`_direction_spectra`). Points of one
    key lie within ``DIRECTION_TOL`` of that direction, which moves s.A by at
    most |r| sqrt(n) max_v ||A_v|| DIRECTION_TOL in operator norm, and
    the value by no more. The origin needs no direction: there the value is
    Tr rho.

    The directions are diagonalized in blocks of ``BLOCK_ENTRIES // N^2``
    (:func:`_blocks`), keeping only their eigenvalues and the p_k, shape
    (D, N) each, so no N x N matrix is held per direction: extra memory
    O(M N + B) for M points and B = ``BLOCK_ENTRIES``.
    """
    out = np.full(pts.shape[0], np.trace(rho), dtype=complex)
    # points as columns: a max over the short axis of the rows is several times slower
    scale = np.abs(np.ascontiguousarray(pts.T)).max(axis=0)
    ray = np.flatnonzero(scale > 0)
    if ray.size == 0:
        return out
    u = pts[ray] / scale[ray, None]
    length = np.sqrt(np.einsum("mv,mv->m", u, u))  # in [1, sqrt(n)]
    u /= length[:, None]
    sign = np.sign(u[np.arange(ray.size), np.argmax(u != 0, axis=1)])
    u *= sign[:, None]
    keys = np.rint(u * (np.sqrt(u.shape[1]) / linalg.DIRECTION_TOL)).astype(np.int64)
    # a stable sort of the key rows: each run of equal keys is one direction,
    # its first point the lowest-indexed (np.unique by rows is ten times slower)
    order = np.lexsort(keys.T[::-1])
    opens = np.concatenate(([True], (np.diff(keys[order], axis=0) != 0).any(axis=1)))
    of_point = np.empty(ray.size, dtype=np.intp)
    of_point[order] = np.cumsum(opens) - 1
    directions = u[order[opens]]
    vals = np.empty((len(directions), rho.shape[0]))
    probs = np.empty_like(vals)
    for b in _blocks(len(directions), rho.size):  # N^2 entries per direction
        vals[b], vecs = _direction_spectra(observables, directions[b])
        probs[b] = np.einsum("dik,dik->dk", vecs.conj(), rho @ vecs).real
    # r lambda_k as (sign max|s_v|) (length lambda_k): finite wherever s.A's eigenvalues are
    theta = vals[of_point]
    with np.errstate(over="ignore"):
        theta *= length[:, None]
        theta *= (sign * scale[ray])[:, None]
    if not np.isfinite(theta).all():
        m = int(ray[np.flatnonzero(~np.isfinite(theta).all(axis=1))[0]])
        raise DomainError(f"point {m}: s.A has an eigenvalue beyond the float range")
    out[ray] = np.einsum("mk,mk->m", _unit_phases(theta), probs[of_point])
    return out


def _direction_spectra(observables, directions):
    """Eigenvalues (D, N) and eigenvectors (D, N, N) of u.A for each row u of directions."""
    dim = observables[0].dim
    stack = np.stack([o.matrix for o in observables]).reshape(len(observables), -1)
    return np.linalg.eigh((directions @ stack).reshape(-1, dim, dim))


def _blocks(count, width) -> list:
    """Consecutive slices covering range(count) of BLOCK_ENTRIES // width items, at least one.

    One slice when everything fits in one block, also for count 0.
    """
    step = max(1, BLOCK_ENTRIES // max(1, width))
    return [slice(lo, lo + step) for lo in range(0, max(count, 1), step)]


def _unit_phases(theta) -> np.ndarray:
    """exp(-i theta) for a real array, from its cosine and sine (a complex exp is slower)."""
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.negative(np.sin(theta, out=out.imag), out=out.imag)
    return out


class _SupportIndex:
    """The support side of :func:`_match_rows`, built once per support.

    Per variable the sorted distinct support values; per row a key, its
    position in the grid of those values; the sorted distinct keys, with
    the first row holding each.
    """

    def __init__(self, support):
        self.rows = len(support)
        self.values, row_index = [], []
        for v in range(support.shape[1]):
            values, inverse = _distinct(support[:, v])
            self.values.append(values)
            row_index.append(inverse)
        self.grid = [values.size for values in self.values]
        self.keys, self.first = np.unique(
            np.ravel_multi_index(row_index, self.grid), return_index=True
        )

    def match(self, points) -> np.ndarray:
        """Index of the first support row matching each point, or -1 (:func:`_match_rows`)."""
        lo = np.empty(points.shape, dtype=np.intp)
        span = np.empty_like(lo)
        for v, values in enumerate(self.values):
            lo[:, v] = np.searchsorted(values, points[:, v] - linalg.COORD_TOL)
            span[:, v] = np.searchsorted(values, points[:, v] + linalg.COORD_TOL, "right") - lo[:, v]
        best = np.full(len(points), self.rows)
        # one pass per candidate offset: a run holds more than one value only
        # where support values lie within 2 * COORD_TOL of each other
        for offset in np.ndindex(*span.max(axis=0, initial=0)):
            ok = np.flatnonzero((span > offset).all(axis=1))
            keys = np.ravel_multi_index((lo[ok] + offset).T, self.grid)
            pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
            row = np.where(self.keys[pos] == keys, self.first[pos], self.rows)
            best[ok] = np.minimum(best[ok], row)
        best[best == self.rows] = -1
        return best


def _match_rows(points, support) -> np.ndarray:
    """Index of the first support row matching each point, or -1.

    A row matches when every coordinate is within ``linalg.COORD_TOL`` of
    the point's. Per variable, a point's candidates are a run of the sorted
    distinct support values, found by ``np.searchsorted``; a combination of
    candidates is a row key, looked up among the support rows' keys
    (:class:`_SupportIndex`), and the smallest matching row wins. Nothing
    of size points x support is formed.
    """
    return _SupportIndex(support).match(points)


def max_weight_deviation(a: QuasiDistribution, b: QuasiDistribution) -> float:
    """Largest absolute weight difference after matching support points.

    Each point of ``a`` is paired with the first point of ``b`` within
    ``linalg.COORD_TOL`` in every coordinate (:func:`_match_rows`). Points
    present on one side only count with their full weight.
    """
    if a.n_vars != b.n_vars:
        raise DimensionMismatchError("distributions have different variable counts")
    idx = _match_rows(a.points, b.points)
    hit = idx >= 0
    partner = np.zeros(len(a), dtype=complex)
    partner[hit] = b.weights[idx[hit]]
    unmatched = np.ones(len(b), dtype=bool)
    unmatched[idx[hit]] = False
    return max(
        float(np.abs(a.weights - partner).max(initial=0.0)),
        float(np.abs(b.weights[unmatched]).max(initial=0.0)),
    )


def wigner_density_estimate(
    observables,
    rho: DensityState,
    x_grid,
    y_grid,
    *,
    s_extent: float = 30.0,
    s_steps: int = 241,
):
    """Windowed Fourier inversion of the symmetric-scheme characteristic function.

    The true density generally does not exist as a function (the inversion
    integral can oscillate without bound), so the characteristic function
    is damped by a Gaussian window of width ``s_extent / 4`` before the
    inverse transform. Returns
    ``(density, meta)`` where ``density[i, j]`` estimates the value at
    ``(x_grid[i], y_grid[j])`` and ``meta`` flags the result as
    approximate and possibly divergent. The grids must be finite and 1-d,
    ``s_extent`` finite and positive and ``s_steps`` an integer of at least
    2, or no grid step exists.
    """
    if not (np.isfinite(s_extent) and s_extent > 0):
        raise DomainError(f"s_extent must be finite and positive, got {s_extent}")
    if not (isinstance(s_steps, numbers.Real) and float(s_steps).is_integer()):
        raise DomainError(f"s_steps must be an integer, got {s_steps!r}")
    s_steps = int(s_steps)
    if s_steps < 2:
        raise DomainError(f"s_steps must be at least 2, got {s_steps}")
    x_grid = np.asarray(x_grid, dtype=float)
    y_grid = np.asarray(y_grid, dtype=float)
    for name, grid in (("x_grid", x_grid), ("y_grid", y_grid)):
        if grid.ndim != 1:
            raise DimensionMismatchError(f"{name} must be 1-d, got shape {grid.shape}")
        if not np.isfinite(grid).all():
            raise DomainError(f"{name} has a non-finite value")
    svals = np.linspace(-s_extent, s_extent, s_steps)
    ds = svals[1] - svals[0]
    ss, tt = np.meshgrid(svals, svals, indexing="ij")
    pts = np.column_stack([ss.ravel(), tt.ravel()])
    chi = characteristic_function(WignerScheme(2), observables, rho, pts).reshape(
        s_steps, s_steps
    )
    window_sigma = s_extent / 4
    window = np.exp(-(ss**2 + tt**2) / (2 * window_sigma**2))
    integrand = chi * window
    ex = np.exp(1j * np.outer(svals, x_grid))
    ey = np.exp(1j * np.outer(svals, y_grid))
    density = (ex.T @ integrand @ ey).real * (ds * ds) / (2 * np.pi) ** 2
    meta = {
        "scheme": "wigner",
        "approximate": True,
        "possibly_divergent": True,
        "window_sigma": float(window_sigma),
        "s_extent": float(s_extent),
        "s_steps": int(s_steps),
    }
    return density, meta
