"""Atom sets stored as closing tables against the dense oracle.

``build_atoms`` keeps sparse cells per closing pair, not the atom
matrices: joint weights, the identity check and the prune verdict are
read off the cells, and so are sums of atoms (``operator_for``, the
adjoint of ``weights_for``). On random pairs under every scheme
constructor and on spin pairs up to j = 3, they must match the
brute-force oracle within 1e-12 (points exactly), and on small spin
pairs no atom may be formed densely. ``weights_for`` takes exactly one
N x N matrix, and the prune's residue, the atoms between its two bounds,
formed densely from their own cells, keeps the atoms the oracle's dense
max-norm keeps, also on the spin-23/2 pair; realness decided there by the
same rule is the oracle's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasijoint as qj
from quasijoint import distributions, linalg
from quasijoint.errors import DimensionMismatchError

import atoms_oracle
from test_atoms_oracle import PROPERTY, TWO_VAR_SCHEMES, observables
from test_invariants import _planted_zero_pair


def _traces(matrices, m):
    return np.einsum("pij,ji->p", matrices, m)


def assert_factors_match_oracle(spec, obs, seed):
    got = qj.build_atoms(spec, obs)
    want = atoms_oracle.build_atoms(spec, obs)
    assert np.array_equal(got.points, want.points)
    n = obs[0].dim
    rng = np.random.default_rng(seed)
    rho = qj.random_density(n, rng)
    dist = qj.evaluate_distribution(got, rho, prune_tol=0.0)
    assert np.array_equal(dist.points, want.points)
    assert np.abs(dist.weights - _traces(want.matrices, rho.matrix)).max() <= 1e-12
    # diag(1, -1) on two levels; a non-Hermitian matrix tells M from M^dagger
    # on reversed words
    sign = np.diag([(-1.0) ** k for k in range(n)])
    general = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for m in (sign, general):
        assert np.abs(got.weights_for(m) - _traces(want.matrices, m)).max() <= 1e-12
    assert abs(got.identity_defect() - want.identity_defect()) <= 1e-12
    c = rng.normal(size=len(got)) + 1j * rng.normal(size=len(got))
    assert np.abs(got.operator_for(c) - np.einsum("p,pij->ij", c, want.matrices)).max() <= 1e-12


SEEDS = st.integers(0, 2**32 - 1)


@PROPERTY
@given(spec=TWO_VAR_SCHEMES, obs=observables(2), seed=SEEDS)
def test_two_variable_schemes_match_dense_oracle(spec, obs, seed):
    assert_factors_match_oracle(spec, obs, seed)


@settings(PROPERTY, max_examples=60)
@given(spec=TWO_VAR_SCHEMES, j_times_two=st.integers(1, 6), pair=st.sampled_from([(0, 1), (2, 0)]),
       seed=SEEDS)
def test_spin_pairs_match_dense_oracle(spec, j_times_two, pair, seed):
    spin = qj.spin_operators(j_times_two).components
    assert_factors_match_oracle(spec, (spin[pair[0]], spin[pair[1]]), seed)


def test_weights_for_takes_one_matrix_of_the_atom_dimension(kd_one_atoms):
    good = np.eye(3)
    assert kd_one_atoms.weights_for(good).shape == (len(kd_one_atoms),)
    for bad in (np.stack([good, good]), np.eye(2), np.eye(4), np.ones(3), np.ones((3, 9))):
        with pytest.raises(DimensionMismatchError, match=r"one 3 x 3 matrix, got shape \("):
            kd_one_atoms.weights_for(bad)


@PROPERTY
@given(spec=TWO_VAR_SCHEMES, obs=observables(2), seed=SEEDS)
def test_operator_for_is_the_adjoint_of_weights_for(spec, obs, seed):
    # Tr(sum_p c_p A_p M) = sum_p c_p Tr(A_p M); a non-Hermitian M tells a
    # reversed word's products from their adjoints
    atoms = qj.build_atoms(spec, obs)
    n = obs[0].dim
    rng = np.random.default_rng(seed)
    c = rng.normal(size=len(atoms)) + 1j * rng.normal(size=len(atoms))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert abs(np.trace(atoms.operator_for(c) @ m) - c @ atoms.weights_for(m)) <= 1e-12


def test_operator_for_takes_one_value_per_atom(kd_one_atoms):
    # the last slot of the gathered values belongs to the pruned choices, so
    # a vector one entry short or long would be misread, not rejected
    for length in (len(kd_one_atoms) - 1, len(kd_one_atoms) + 1):
        with pytest.raises(ValueError):
            kd_one_atoms.operator_for(np.ones(length))


SPIN_SCHEMES = (
    qj.scheme_kirkwood(2),
    qj.scheme_s_alpha(0.25),
    qj.scheme_margenau_hill(0.3),
    qj.scheme_born_jordan(5),
    qj.scheme_alternating([0.3, 0.7], [0.6, 0.4]),
)


def _forbid_dense_atoms(patch):
    def forbidden(atoms, which):
        raise AssertionError("atoms formed densely")

    patch.setattr(distributions, "_max_norms", forbidden)


def test_weights_and_checks_form_no_dense_atoms(monkeypatch):
    # on spin j <= 3/2 the prune's bounds decide every atom: no residue
    _forbid_dense_atoms(monkeypatch)
    rng = np.random.default_rng(4)
    for j_times_two in (1, 2, 3):
        spin = qj.spin_operators(j_times_two)
        pair = (spin.j1, spin.j2)
        for spec in SPIN_SCHEMES:
            atoms = qj.build_atoms(spec, pair)
            assert atoms.identity_defect() <= 1e-12
            rho = qj.random_density(spin.dim, rng)
            dist = qj.evaluate_distribution(atoms, rho)
            assert abs(dist.total() - 1.0) <= 1e-12
            full = qj.evaluate_distribution(atoms, rho, prune_tol=0.0)
            xy = np.trace(qj.quantize(lambda x, y: x * y, atoms) @ rho.matrix)
            assert abs(xy - qj.quasi_expectation(lambda x, y: x * y, full)) <= 1e-12
            if spin.dim == 2:
                qj.diag_equality_check(spec, pair)


def test_margenau_hill_bounds_decide_every_atom(monkeypatch):
    # MH(0) has beta = gamma, where the reverse triangle inequality between
    # its two closings gives 0; the bound through the closings' overlaps
    # keeps every atom out of the residue
    _forbid_dense_atoms(monkeypatch)
    spin = qj.spin_operators(23)
    rng = np.random.default_rng(32)
    random_pair = tuple(qj.HermitianObservable(qj.random_hermitian(32, rng), f"O{v}") for v in range(2))
    for pair in ((spin.j1, spin.j2), random_pair):
        qj.build_atoms(qj.scheme_margenau_hill(0.0), pair)


def _count_residue(patch):
    residues = []
    max_norms = distributions._max_norms

    def counted(atoms, which):
        residues.append(len(which))
        return max_norms(atoms, which)

    patch.setattr(distributions, "_max_norms", counted)
    return residues


def test_forced_residue_keeps_the_oracle_atoms(spin_one, monkeypatch):
    # with bounds that decide nothing, every candidate atom is formed from
    # its cells; on the spin-1 pair each of these schemes drops 1 to 21
    # atoms below the prune level
    residues = _count_residue(monkeypatch)
    monkeypatch.setattr(
        distributions, "_norm_bounds", lambda atoms: (np.zeros(len(atoms)), np.full(len(atoms), np.inf))
    )
    for spec in SPIN_SCHEMES:
        residues.clear()
        got = qj.build_atoms(spec, (spin_one.j1, spin_one.j2))
        want = atoms_oracle.build_atoms(spec, (spin_one.j1, spin_one.j2))
        assert residues and residues[0] > len(got), "the prune did not form the atoms"
        assert len(got) == len(want)
        assert np.array_equal(got.points, want.points)
        assert np.abs(atoms_oracle.matrices(got) - want.matrices).max() <= 1e-12
        # realness shares the prune's rule, so it too is decided in the residue
        m = want.matrices
        assert got.is_hermitian() == (np.abs(m - m.conj().transpose(0, 2, 1)).max() <= linalg.DEFECT_TOL)


def test_residue_max_norms_match_the_oracle_on_a_large_spin_pair():
    # Margenau-Hill(0.3) on spin-23/2 has mixed closings; each atom formed
    # from its own cells must have the oracle's dense max-norm
    spin = qj.spin_operators(23)
    pair = (spin.j1, spin.j2)
    got = qj.build_atoms(qj.scheme_margenau_hill(0.3), pair)
    want = atoms_oracle.build_atoms(qj.scheme_margenau_hill(0.3), pair)
    assert len(got) == len(want)
    assert np.array_equal(got.points, want.points)
    norms = np.abs(want.matrices).max(axis=(1, 2))
    assert np.abs(distributions._max_norms(got, np.arange(len(got))) - norms).max() <= 1e-12


def test_build_reads_no_traces(monkeypatch):
    # the prune and the identity check read the cells, never weights_for
    calls = []
    weights_for = qj.OperatorAtomSet.weights_for

    def counted(self, matrix):
        calls.append(1)
        return weights_for(self, matrix)

    monkeypatch.setattr(qj.OperatorAtomSet, "weights_for", counted)
    spin = qj.spin_operators(23)
    for spec in SPIN_SCHEMES:
        qj.build_atoms(spec, (spin.j1, spin.j2))
    assert not calls


def test_reversed_word_bounds_follow_its_order(monkeypatch):
    # B's eigenbasis has a zero overlap with A's at one index pair but not at
    # the mirrored pair: the reversed word's entry bounds, read off its own
    # chain U_B^dagger U_A, must follow its (B, A) order for the bounds alone
    # to drop the zero atom
    c, s = np.cos(0.4), np.sin(0.4)
    r01 = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    r12 = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    v = r01 @ r12
    pair = (
        qj.HermitianObservable(np.diag([3.0, 2.0, 1.0]), "A"),
        qj.HermitianObservable(v @ np.diag([1.5, -0.5, 0.25]) @ v.T, "B"),
    )
    for alpha in (-1.0, 1.0):
        spec = qj.scheme_margenau_hill(alpha)
        with monkeypatch.context() as m:
            _forbid_dense_atoms(m)
            got = qj.build_atoms(spec, pair)
        want = atoms_oracle.build_atoms(spec, pair)
        assert len(got) == len(want) < 9
        assert np.array_equal(got.points, want.points)
        assert np.abs(atoms_oracle.matrices(got) - want.matrices).max() <= 1e-12


def test_prune_matches_oracle_near_the_prune_level():
    # a split word of tiny weight puts atoms of max-norm about its weight at
    # points no other atom reaches
    rng = np.random.default_rng(8)
    pair = tuple(qj.HermitianObservable(qj.random_hermitian(3, rng), f"O{v}") for v in range(2))
    for eps in (1e-15, 1e-14, 1e-13, 1e-12, 1e-11):
        spec = qj.SchemeSpec(2, (
            (1.0 - eps, [(0, 1.0, 0), (1, 1.0, 1)]),
            (eps, [(0, 0.5, 0), (1, 1.0, 1), (0, 0.5, 0)]),
        ))
        got = qj.build_atoms(spec, pair)
        want = atoms_oracle.build_atoms(spec, pair)
        assert len(got) == len(want)
        assert np.array_equal(got.points, want.points)
        assert np.abs(atoms_oracle.matrices(got) - want.matrices).max() <= 1e-12


ORACLE_SCHEMES = (
    qj.scheme_kirkwood(2),
    qj.scheme_margenau_hill(0.0),
    qj.scheme_margenau_hill(0.3),
    qj.scheme_s_alpha(0.25),
    qj.scheme_born_jordan(5),
    qj.scheme_alternating([0.3, 0.7], [0.6, 0.4]),
)


@pytest.mark.parametrize("j_times_two", range(1, 17))
def test_spin_table_keeps_the_oracle_points(j_times_two):
    # spin pairs have exact zero overlaps and equally spaced spectra, so the
    # merge and the prune both act; equal points mean equal verdicts
    spin = qj.spin_operators(j_times_two)
    pair = (spin.j1, spin.j2)
    for spec in ORACLE_SCHEMES:
        assert np.array_equal(qj.build_atoms(spec, pair).points, atoms_oracle.build_atoms(spec, pair).points)


@settings(PROPERTY, max_examples=40)
@given(alpha=st.sampled_from([0.0, 0.5]), dim=st.integers(2, 5), seed=SEEDS)
def test_planted_zero_overlap_keeps_the_oracle_points(alpha, dim, seed):
    # the atom on the zero overlap has |c| = 0 but for rounding on both
    # closings, so the mixed-closing lower bound meets it too
    pair = _planted_zero_pair(np.random.default_rng(seed), dim)
    spec = qj.scheme_margenau_hill(alpha)
    got = qj.build_atoms(spec, pair)
    want = atoms_oracle.build_atoms(spec, pair)
    assert np.array_equal(got.points, want.points)
    assert np.abs(atoms_oracle.matrices(got) - want.matrices).max() <= 1e-12
