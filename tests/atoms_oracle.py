"""Brute-force operator-atom builder and dense mixture, kept as a test oracle.

This is the original scalar definition of ``build_atoms``: it loops over
every choice of one eigenvalue per factor, multiplies the dense
projectors (:func:`projectors`, :func:`projector_products`), and merges
atoms through a dict keyed on clustered coordinates. The library's
vectorized builder must reproduce its atom count and points exactly and
its matrices to rounding.

It also keeps the dense reads the library no longer makes: the mixture
h(s) of a scheme multiplied out from phased projectors at each frequency
vector (:func:`mixture`), the dense atoms of a library atom set
(:func:`matrices`) and the entrywise Hermiticity defect of dense atoms
(:func:`hermiticity_defect`).

And it keeps the library's earlier cell table (:func:`cell_table`): every
coordinate of every candidate on the full choice grid of its group
(:func:`group_coordinates`), each variable's column clustered by
``np.unique`` with Python ``round`` per representative
(:func:`unique_clusters`). The library's table, clustered on each
variable's own factor axes, must equal it array for array.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from quasijoint import linalg
from quasijoint.distributions import (
    SchemeSpec,
    WignerScheme,
    _check_observables,
    _check_points,
    _group_cells,
)
from quasijoint.errors import QuasiJointError, UnsupportedSchemeError


def _cluster_values(values, tol):
    """Map each float to a cluster representative (values within tol merge).

    Representatives are cluster means rounded to a 1e-12 grid so that
    coordinates arising from different rounding paths key identically.
    """
    uniq = np.unique(values)
    rep = {}
    start = 0
    n = uniq.size
    for i in range(1, n + 1):
        if i == n or uniq[i] - uniq[i - 1] > tol:
            r = round(float(uniq[start:i].mean()), 12) + 0.0  # no negative zero keys
            for u in uniq[start:i]:
                rep[float(u)] = r
            start = i
    return rep


def unique_clusters(values, tol):
    """``(reps, ids)`` as the library's ``_cluster_values``, from ``np.unique``.

    Chains sorted distinct values within tol, takes the slice mean of a
    cluster's distinct values and rounds it with Python's ``round``.
    """
    uniq, inverse = np.unique(values, return_inverse=True)
    opens = np.concatenate(([True], np.diff(uniq) > tol))
    cluster = np.cumsum(opens) - 1
    starts = np.flatnonzero(opens)
    sizes = np.diff(starts, append=uniq.size)
    means = uniq[starts]  # exact for singleton clusters
    for c in np.flatnonzero(sizes > 1):
        means[c] = uniq[starts[c] : starts[c] + sizes[c]].mean()
    reps = np.array([round(m, 12) for m in means.tolist()]) + 0.0  # no negative zero
    return reps, cluster[inverse.reshape(-1)]


def group_coordinates(group, eigs, n_vars) -> np.ndarray:
    """Coordinate vector of every term's group choices, shape (T * G_1 * ... * G_L, n_vars).

    Rows run over the terms, then over their choices. Each factor adds its
    coefficient-weighted eigenvalues to its term's variable, in word order
    from zero, on the full choice grid.
    """
    grid = tuple(e.eigenvalues.size for e in eigs)
    terms = np.arange(len(group.weights))
    coords = np.zeros((terms.size, n_vars) + grid)
    for k, eig in enumerate(eigs):
        shape = [terms.size] + [1] * len(grid)
        shape[1 + k] = grid[k]
        step = group.coeffs[:, k, None] * eig.eigenvalues
        coords[terms, group.vars[:, k]] += step.reshape(shape)
    return coords.reshape(terms.size, n_vars, -1).transpose(0, 2, 1).reshape(-1, n_vars)


def cell_table(groups, n_vars, eigs) -> tuple:
    """The library's ``_cell_table`` from one candidate-length coordinate table."""
    n = eigs[0].dim
    coords = [group_coordinates(g, [eigs[o] for o in g.obs], n_vars) for g in groups]
    offsets = np.cumsum([0] + [c.shape[0] for c in coords])
    coords = np.concatenate(coords)
    reps, ids = zip(*(unique_clusters(coords[:, v], linalg.COORD_TOL) for v in range(n_vars)))
    closings = tuple(dict.fromkeys((g.obs[0], g.obs[-1]) for g in groups))
    shift = (len(closings) * n * n - 1).bit_length()
    sizes = [r.size for r in reps]
    points_keys = np.ravel_multi_index((*ids, 0), sizes + [1 << shift])
    keys, values = zip(*(
        _group_cells(g, eigs, points_keys[lo:hi], closings)
        for g, lo, hi in zip(groups, offsets[:-1], offsets[1:])
    ))
    keys, values = np.concatenate(keys), np.concatenate(values)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    opens = np.concatenate(([True], keys[1:] != keys[:-1]))
    cells = np.flatnonzero(opens)
    x = values[order[cells]]
    repeats = np.flatnonzero(~opens)
    np.add.at(x, np.cumsum(opens)[repeats] - 1, values[order[repeats]])
    keys = keys[cells]
    point, entries = keys >> shift, keys & ((1 << shift) - 1)
    bounds = np.flatnonzero(np.concatenate(([True], point[1:] != point[:-1], [True])))
    points = np.column_stack(
        [r[i] for r, i in zip(reps, np.unravel_index(point[bounds[:-1]], sizes))]
    )
    return points, closings, bounds, entries, x


@dataclass(frozen=True)
class DenseAtoms:
    """Atom points, shape (P, n_vars), and dense atom matrices, shape (P, N, N)."""

    n_vars: int
    points: np.ndarray
    matrices: np.ndarray
    meta: dict

    def __len__(self):
        return self.points.shape[0]

    def identity_defect(self) -> float:
        """Max-norm distance of the atom sum from the identity."""
        return float(np.abs(self.matrices.sum(axis=0) - np.eye(self.matrices.shape[1])).max())


def projectors(eig: linalg.EigenSystem) -> tuple:
    """Eigenprojectors of an eigensystem, one per eigenvalue group, Hermitian by construction."""
    out = []
    for start, mult in zip(eig.group_starts, eig.multiplicities):
        block = eig.vectors[:, start : start + mult]
        proj = block @ block.conj().T
        out.append((proj + proj.conj().T) / 2)
    return tuple(out)


def matrices(atoms) -> np.ndarray:
    """Dense atoms of a library ``OperatorAtomSet``, shape (P, N, N).

    Entry [p, i, j] is Tr(A_p E_ji) for the matrix unit E_ji, read with
    ``weights_for`` one unit at a time.
    """
    n = atoms.dim
    out = np.empty((len(atoms), n, n), dtype=complex)
    for i, j in itertools.product(range(n), repeat=2):
        unit = np.zeros((n, n), dtype=complex)
        unit[j, i] = 1.0
        out[:, i, j] = atoms.weights_for(unit)
    return out


def hermiticity_defect(matrices) -> float:
    """Largest entrywise |A - A^dagger| over a stack of matrices, shape (P, N, N)."""
    m = np.asarray(matrices)
    return float(np.abs(m - m.conj().transpose(0, 2, 1)).max())


def projector_products(eigs) -> np.ndarray:
    """Ordered projector products of a word, shape (G_1, ..., G_L, N, N).

    Entry [g_1, ..., g_L] is P_1[g_1] ... P_L[g_L], multiplied out from
    the dense projectors left to right, one choice at a time.
    """
    projs = [projectors(e) for e in eigs]
    grid = tuple(len(p) for p in projs)
    out = np.empty(grid + 2 * (eigs[0].dim,), dtype=complex)
    for choice in itertools.product(*map(range, grid)):
        mat = projs[0][choice[0]]
        for p, k in zip(projs[1:], choice[1:]):
            mat = mat @ p[k]
        out[choice] = mat
    return out


def _phase_exponentials(eig: linalg.EigenSystem, scales) -> np.ndarray:
    """exp(-1j * scale * H) for a batch of scales, shape (M, N, N)."""
    phases = np.exp(-1j * np.outer(scales, eig.eigenvalues))
    return np.einsum("mk,kij->mij", phases, np.stack(projectors(eig)))


def mixture(spec, observables, s_points) -> np.ndarray:
    """The scheme's mixed exponential h(s) at each frequency vector, shape (M, N, N).

    A product scheme sums its words, each the matrix product of its factors
    exp(-i s[var] coeff A[obs]), each factor summed over the phased
    eigenprojectors. The symmetric scheme is exp(-i s.A), one
    eigendecomposition of s.A per frequency vector.
    """
    pts = _check_points(spec.n_vars, s_points)
    _check_observables(spec.n_vars, observables)
    if isinstance(spec, WignerScheme):
        h = np.einsum("mv,vij->mij", pts, np.stack([o.matrix for o in observables]))
        vals, vecs = np.linalg.eigh(h)
        return np.einsum("mik,mk,mjk->mij", vecs, np.exp(-1j * vals), vecs.conj())
    dim = observables[0].dim
    out = np.zeros((pts.shape[0], dim, dim), dtype=complex)
    for weight, word in spec.terms:
        # every variable's coefficients sum to 1, so no word is empty
        out += weight * reduce(np.matmul, (
            _phase_exponentials(observables[f.obs].eig, pts[:, f.var] * f.coeff) for f in word
        ))
    return out


def build_atoms(spec: SchemeSpec, observables) -> DenseAtoms:
    """Exact operator atoms of a product-form scheme.

    Every factor exp(-i s c A) expands over the eigenprojectors of A; each
    choice of one eigenvalue per factor contributes the ordered projector
    product, scaled by the term weight, at the coordinate vector whose
    v-th entry is the coefficient-weighted sum of chosen eigenvalues over
    the factors of variable v. Atoms at coinciding coordinates (within
    ``linalg.COORD_TOL``) are merged; atoms below ``linalg.ROUNDING_TOL`` in
    max-norm are dropped.
    """
    if isinstance(spec, WignerScheme):
        raise UnsupportedSchemeError(
            "the symmetric scheme has no finite atom decomposition; "
            "use its characteristic function instead"
        )
    _check_observables(spec.n_vars, observables)
    dim = observables[0].dim

    candidates = []  # (coords ndarray, matrix)
    for weight, word in spec.terms:
        eigs = [observables[f.obs].eig for f in word]
        products = projector_products(eigs)
        for choice in itertools.product(*(range(e.eigenvalues.size) for e in eigs)):
            coords = np.zeros(spec.n_vars)
            for f, eig, k in zip(word, eigs, choice):
                coords[f.var] += f.coeff * eig.eigenvalues[k]
            candidates.append((coords, weight * products[choice]))

    all_coords = np.array([c for c, _ in candidates])
    reps = [_cluster_values(all_coords[:, v], linalg.COORD_TOL) for v in range(spec.n_vars)]

    merged = {}
    for coords, mat in candidates:
        key = tuple(reps[v][float(coords[v])] for v in range(spec.n_vars))
        if key in merged:
            merged[key] = merged[key] + mat
        else:
            merged[key] = mat.astype(complex)

    keys = sorted(k for k, m in merged.items() if np.abs(m).max() >= linalg.ROUNDING_TOL)
    points = np.array(keys, dtype=float).reshape(len(keys), spec.n_vars)
    matrices = np.array([merged[k] for k in keys], dtype=complex).reshape(
        len(keys), dim, dim
    )
    meta = {
        "scheme": spec.label,
        "observables": tuple(o.label for o in observables),
        "approximate": spec.approximate,
    }
    atoms = DenseAtoms(spec.n_vars, points, matrices, meta)
    defect = atoms.identity_defect()
    if defect > linalg.DEFECT_TOL:
        raise QuasiJointError(
            f"atom normalization failed: identity defect {defect:.3e}"
        )
    return atoms

