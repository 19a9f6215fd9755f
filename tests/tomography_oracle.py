"""Finite-difference reconstruction map and loop-based coordinate charts, kept as a test oracle.

These are the original definitions, on plain Hermitian arrays: the chart
``parametrize`` and ``embed`` walk the index pairs in a Python double loop
(the library keeps no such chart), ``chart_matrices`` spells the chart
of ``embed`` out as rho(0) and the N^2 - 1 coordinate derivatives, and
the map's columns are finite differences of the coefficient vector along
the coordinate basis, one ``embed`` and one trace of the dense atoms per
coordinate. ``hermitian_unknowns`` reads the Frobenius-orthonormal
unknowns the library's map acts on, again in a double loop. The library
map times the unknowns of each chart matrix must match these traces to
rounding, its rank the finite-difference rank, and its states the ones
the finite-difference pseudo-inverse gives (``pinv_state``).
``per_call_state`` solves a map's weights as ``reconstruct_state`` does,
but from the closed form or the blocks' ``u, s, vt`` alone on every call,
with nothing kept on the map between calls. ``entry_blocks`` splits a map
into blocks as the library's ``_entry_blocks`` does, but labels every
atom set's components by propagating the least unknown over its edges,
also where each atom holds one cell and the label can be read off it.
"""

from __future__ import annotations

import numpy as np

from quasijoint import analysis, linalg
from quasijoint.distributions import OperatorAtomSet, build_atoms
from quasijoint.errors import DimensionMismatchError

import atoms_oracle


def parametrize(matrix) -> np.ndarray:
    """Real coordinates of a Hermitian matrix, length N^2 - 1.

    Order: the first N-1 diagonal entries, then for each index pair i < j
    in row-major order the real and imaginary part of the lower-triangle
    entry M[j, i]. The last diagonal entry is left to the trace.
    """
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    out = np.empty(n * n - 1)
    out[: n - 1] = np.diag(m).real[: n - 1]
    k = n - 1
    for i in range(n):
        for j in range(i + 1, n):
            out[k] = m[j, i].real
            out[k + 1] = m[j, i].imag
            k += 2
    return out


def embed(values, dim: int) -> np.ndarray:
    """Inverse of ``parametrize`` on unit-trace matrices; the last diagonal entry absorbs the trace.

    The chart is linear, so it also reaches Hermitian unit-trace matrices
    that are not positive: the result is an (N, N) array, not a state.
    """
    v = np.asarray(values, dtype=float)
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        m[i, i] = v[i]
    m[dim - 1, dim - 1] = 1.0 - v[: dim - 1].sum()
    k = dim - 1
    for i in range(dim):
        for j in range(i + 1, dim):
            m[j, i] = v[k] + 1j * v[k + 1]
            m[i, j] = v[k] - 1j * v[k + 1]
            k += 2
    return m


def chart_matrices(dim: int):
    """The chart of ``embed`` as N^2 matrices of shape (N, N), each made as it is yielded.

    rho(x) equals ``m_0 + sum over k of x[k] * m_(1 + k)``: m_0 is the
    state at x = 0, a unit in the last diagonal entry; a diagonal
    coordinate k adds E_kk - E_(N-1)(N-1), and pair (i, j) adds
    E_ji + E_ij through its real part and i (E_ji - E_ij) through its
    imaginary part.
    """
    last = dim - 1
    entries = [[(last, last, 1.0)]] + [[(k, k, 1.0), (last, last, -1.0)] for k in range(last)]
    for i in range(dim):
        for j in range(i + 1, dim):
            entries += [[(j, i, 1.0), (i, j, 1.0)], [(j, i, 1j), (i, j, -1j)]]
    for entry in entries:
        m = np.zeros((dim, dim), dtype=complex)
        for row, col, value in entry:
            m[row, col] = value
        yield m


def hermitian_unknowns(matrix) -> np.ndarray:
    """The N^2 orthonormal real unknowns of a Hermitian matrix M.

    M[i, i] first, then for each index pair i < j in row-major order
    sqrt2 Re M[j, i] and sqrt2 Im M[j, i], so that the Frobenius norm of
    M is the Euclidean norm of the unknowns.
    """
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    out = np.empty(n * n)
    for i in range(n):
        out[i] = m[i, i].real
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            out[k] = np.sqrt(2) * m[j, i].real
            out[k + 1] = np.sqrt(2) * m[j, i].imag
            k += 2
    return out


def stacked_coefficients(atoms: OperatorAtomSet, matrix) -> np.ndarray:
    """Interleaved (Re, Im) weight vector on the atom support, length 2P.

    The weights are traces of the dense atoms against the matrix.
    """
    w = np.einsum("pij,ji->p", atoms_oracle.matrices(atoms), np.asarray(matrix, dtype=complex))
    return np.column_stack([w.real, w.imag]).ravel()


def reconstruction_map(a, b, spec):
    """(map_matrix, offset, rank) by finite differences around the zero coordinates."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"observable dims differ: {a.dim} vs {b.dim}")
    n = a.dim
    atoms = build_atoms(spec, (a, b))
    n_params = n * n - 1
    base = stacked_coefficients(atoms, embed(np.zeros(n_params), n))
    cols = np.empty((base.size, n_params))
    for k in range(n_params):
        unit = np.zeros(n_params)
        unit[k] = 1.0
        cols[:, k] = stacked_coefficients(atoms, embed(unit, n)) - base
    rank, _ = linalg.real_rank_and_pinv(cols)
    return cols, base, rank


def pinv_state(a, b, spec, weights) -> np.ndarray:
    """The state the finite-difference map's pseudo-inverse gives for weights on the atom support.

    ``weights`` are aligned with the support of ``build_atoms(spec, (a, b))``;
    the result is an (N, N) Hermitian array with unit trace and need not be
    positive.
    """
    cols, base, _ = reconstruction_map(a, b, spec)
    w = np.asarray(weights, dtype=complex)
    stacked = np.column_stack([w.real, w.imag]).ravel()
    return embed(linalg.real_rank_and_pinv(cols)[1] @ (stacked - base), a.dim)


def per_call_state(rmap, aligned):
    """(state, route) of the weights ``aligned`` on the map's support, nothing cached.

    The closed form computes conj(f), |f|^2 - |g|^2 and the adjoint
    eigenvector matrices per call, and its state is kept when its weights
    reproduce ``aligned`` within ``linalg.DEFECT_TOL`` (route
    ``"closed_form"``). Otherwise (route ``"blocks"``) each block shape
    solves the free minimizer V S^-1 U^T b and the Lagrange step
    V S^-2 V^T t as two columns of one product, and the step puts the
    minimizer on the unit trace. The result is an (N, N) array.
    """
    n = rmap.dim
    if rmap.closed_form is not None:
        form = rmap.closed_form
        u_a, u_b = (e.vectors for e in rmap.atoms.eigs)
        f, g = form.forward, form.reverse
        w = aligned[form.index]
        z = (f.conj() * w - g * w.conj()) / (np.abs(f) ** 2 - np.abs(g) ** 2)
        rho = analysis._unit_hermitian(u_b @ z.T @ u_a.conj().T)
        z = (u_b.conj().T @ rho @ u_a).T
        if np.abs(f * z + g * z.conj() - w).max() <= linalg.DEFECT_TOL:
            return rho, "closed_form"
    blocks = rmap.blocks
    sol = np.empty((n * n, 2))  # columns: the free minimizer and (B^T B)^-1 t
    for grp in blocks.groups:
        b = aligned[grp.atoms].view(float)[..., None]
        t = (grp.unknowns < n)[..., None].astype(float)
        s = grp.s[..., None]
        x = np.concatenate([(grp.u.transpose(0, 2, 1) @ b) / s, (grp.vt @ t) / s**2], axis=2)
        sol[grp.unknowns] = grp.vt.transpose(0, 2, 1) @ x
    v, step = sol.T
    v = v + (1.0 - v[:n].sum()) / step[:n].sum() * step
    unknown, factor = analysis._entry_unknowns(n)
    z = (factor * v[unknown]).sum(axis=0)
    u_a = blocks.vectors
    return analysis._unit_hermitian(z if u_a is None else u_a @ z @ u_a.conj().T), "blocks"


def entry_blocks(atoms: OperatorAtomSet):
    """``analysis._entry_blocks`` with the components always labelled by propagation.

    Each pass gives every atom the least label of the unknowns it touches
    and every unknown the least label of its atoms (``np.minimum.at`` over
    the edges), until no label moves; the rest is the library's.
    """
    (first, last), *others = atoms.closings
    if others or first != last or atoms.eigs[first].degenerate:
        return None
    eig = atoms.eigs[first]
    n, p = atoms.dim, len(atoms)
    unknown, factor = analysis._entry_unknowns(n)
    edge_atom = np.tile(np.repeat(np.arange(p), np.diff(atoms.bounds)), 2)
    edge_unknown = unknown.reshape(2, -1)[:, atoms.entries].ravel()
    coef = (factor.reshape(2, -1)[:, atoms.entries] * atoms.values).ravel()

    label = np.arange(n * n)
    while True:
        atom_label = np.full(p, n * n)
        np.minimum.at(atom_label, edge_atom, label[edge_unknown])
        new = label.copy()
        np.minimum.at(new, edge_unknown, atom_label[edge_atom])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    root = np.zeros(n * n, dtype=bool)
    root[atom_label] = True
    comp = np.cumsum(root) - 1
    atom_comp = comp[atom_label]
    touched = np.zeros(n * n, dtype=bool)
    touched[edge_unknown] = True
    unknowns = np.flatnonzero(touched)
    unknown_comp = comp[label[unknowns]]
    rows = np.bincount(atom_comp)
    cols = np.bincount(unknown_comp, minlength=rows.size)
    shape = rows * (n * n + 1) + cols
    order = np.argsort(shape, kind="stable")
    renumber = np.empty_like(order)
    renumber[order] = np.arange(order.size)
    rows, cols, shape = rows[order], cols[order], shape[order]
    atom_comp, unknown_comp = renumber[atom_comp], renumber[unknown_comp]
    atom_start, unknown_start = np.cumsum(rows) - rows, np.cumsum(cols) - cols
    atom_order, atom_local = analysis._by_component(atom_comp, atom_start)
    unknown_order, local = analysis._by_component(unknown_comp, unknown_start)
    unknown_order = unknowns[unknown_order]
    unknown_local = np.empty(n * n, dtype=np.intp)
    unknown_local[unknowns] = local

    size = 2 * rows * cols
    block_start = np.cumsum(size) - size
    edge_comp = atom_comp[edge_atom]
    re = block_start[edge_comp] + 2 * atom_local[edge_atom] * cols[edge_comp]
    re += unknown_local[edge_unknown]
    flat = np.zeros(size.sum())
    np.add.at(flat, np.concatenate([re, re + cols[edge_comp]]), np.concatenate([coef.real, coef.imag]))
    bounds = np.flatnonzero(shape[1:] != shape[:-1]) + 1
    groups = []
    for lo, hi in zip([0, *bounds], [*bounds, rows.size]):
        r, u = rows[lo], cols[lo]
        block = flat[block_start[lo] : block_start[lo] + (hi - lo) * 2 * r * u]
        groups.append(analysis._BlockGroup(
            atom_order[atom_start[lo] : atom_start[lo] + (hi - lo) * r].reshape(-1, r),
            unknown_order[unknown_start[lo] : unknown_start[lo] + (hi - lo) * u].reshape(-1, u),
            *np.linalg.svd(block.reshape(-1, 2 * r, u), full_matrices=False),
        ))
    return analysis._ranked(eig.vectors, groups)
