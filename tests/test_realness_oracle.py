"""Exact realness and blindness probes against the frequency-sampled oracle.

``scheme_is_real`` and ``diag_equality_check`` read their verdicts off
the operator atoms (or, for the symmetric scheme, off the observables);
they must equal the sampled probes of ``realness_oracle`` on every draw
of ``TWO_VAR_SCHEMES`` and ``WignerScheme(2)`` over random observables,
half with degenerate spectra, and never evaluate the mixture h(s).
Realness must also match on one- and three-variable Kirkwood-Dirac, and
read neither the coordinate chart nor a trace of the atoms: it decides
the atoms A_p - A_p^dagger, each cell of A_p with its conjugate
transpose, from the cells of the scheme's own atoms, as the prune
decides atoms, so "real" means an entrywise defect of at most
``DEFECT_TOL`` of those atoms, also where the defect lies just above it. At
two levels a scheme is real exactly when its reconstruction map is rank
deficient, the paper's statement that the imaginary part is essential.
That equivalence holds away from the thresholds only: realness is judged
by the absolute ``DEFECT_TOL`` and rank by the relative ``RANK_RATIO``,
so on the spin-1/2 pair (J1, J2) ``scheme_margenau_hill(alpha)`` for
alpha = 1e-9 and 1e-8 is not real yet has rank 2 (alpha = 1e-7 gives
rank 3). The derandomized draws of the two-level property below hold no
such alpha.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasijoint as qj
from quasijoint import distributions, linalg
from quasijoint.errors import DimensionMismatchError

import atoms_oracle
import realness_oracle
from test_atom_factors import SPIN_SCHEMES, _count_residue, _forbid_dense_atoms
from test_atoms_oracle import PROPERTY, TWO_VAR_SCHEMES, observables

SCHEMES = TWO_VAR_SCHEMES | st.just(qj.WignerScheme(2))


@PROPERTY
@given(spec=SCHEMES, obs=observables(2))
def test_realness_matches_oracle(spec, obs):
    assert qj.scheme_is_real(spec, obs) == realness_oracle.scheme_is_real(spec, obs)


@settings(PROPERTY, max_examples=40)
@given(n_vars=st.sampled_from([1, 3]), data=st.data())
def test_kirkwood_one_and_three_variables_realness_matches_oracle(n_vars, data):
    spec = qj.scheme_kirkwood(n_vars)
    obs = data.draw(observables(n_vars))
    assert qj.scheme_is_real(spec, obs) == realness_oracle.scheme_is_real(spec, obs)


def test_realness_forms_no_dense_atoms(monkeypatch):
    # on spin j <= 3/2 the bounds decide every atom of the scheme minus its
    # adjoint, and no verdict traces the atoms
    def refuse(*args, **kwargs):
        raise AssertionError("realness traced the atoms")

    _forbid_dense_atoms(monkeypatch)
    monkeypatch.setattr(qj.OperatorAtomSet, "weights_for", refuse)
    real = {"born_jordan(5)", "margenau_hill(0)", "s_alpha(0.5)"}
    specs = SPIN_SCHEMES + (qj.scheme_margenau_hill(0.0), qj.scheme_s_alpha(0.5))
    for j_times_two in (1, 2, 3):
        spin = qj.spin_operators(j_times_two)
        for spec in specs:
            assert qj.scheme_is_real(spec, (spin.j1, spin.j2)) == (spec.label in real), spec.label


def test_realness_stays_small_on_a_large_split_word():
    # the gap table of s_alpha at N = 16 holds the cells of the word and of
    # its adjoint, about 8k candidates
    spin = qj.spin_operators(15)
    pair = (spin.j1, spin.j2)
    for spec, want in ((qj.scheme_s_alpha(0.25), False), (qj.scheme_s_alpha(0.5), True)):
        qj.build_atoms(spec, pair)  # warm up
        tracemalloc.start()
        real = qj.scheme_is_real(spec, pair)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert real == want
        assert peak < 4 * 2**20


def _entrywise_real(spec, pair) -> bool:
    defect = atoms_oracle.hermiticity_defect(atoms_oracle.matrices(qj.build_atoms(spec, pair)))
    return bool(defect <= linalg.DEFECT_TOL)


def test_realness_is_the_entrywise_defect_in_the_band():
    # Margenau-Hill at alpha = 3e-10 puts the entrywise defect of random
    # N = 4 pairs near DEFECT_TOL: 21 of these 40 draws lie at
    # 1.02-1.18e-10 and are not real. The frequency-sampled oracle calls
    # them real and raises on the disagreement, so the reference here is
    # the dense atoms' defect alone.
    spec = qj.scheme_margenau_hill(3e-10)
    above = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        pair = tuple(qj.HermitianObservable(qj.random_hermitian(4, rng), f"O{v}") for v in range(2))
        want = _entrywise_real(spec, pair)
        assert qj.scheme_is_real(spec, pair) == want, f"seed {seed}"
        above += not want
    assert above, "no draw above the tolerance"


def test_realness_is_the_entrywise_defect_near_the_tolerance():
    # Margenau-Hill at alpha and the split word at 1/2 + alpha, alpha from far
    # below DEFECT_TOL to far above it, on the spin-1/2 and spin-1 pairs and
    # nine random pairs of N = 2-4: 220 verdicts, both ways
    alphas = (1e-12, 1e-11, 3e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 1.4e-8, 1e-7)
    pairs = [qj.spin_operators(jj).components[:2] for jj in (1, 2)]
    for seed, n in enumerate((2, 3, 4) * 3):
        rng = np.random.default_rng(seed)
        pairs.append(tuple(qj.HermitianObservable(qj.random_hermitian(n, rng), f"O{v}") for v in range(2)))
    verdicts = []
    for alpha in alphas:
        for spec in (qj.scheme_margenau_hill(alpha), qj.scheme_s_alpha(0.5 + alpha)):
            for pair in pairs:
                want = _entrywise_real(spec, pair)
                assert qj.scheme_is_real(spec, pair) == want, (spec.label, pair[0].label)
                verdicts.append(want)
    assert len(verdicts) == 220 and 0 < sum(verdicts) < 220


def test_commuting_kirkwood_is_decided_by_the_residue(monkeypatch):
    # B a polynomial in A: every atom P_a Q_b is Hermitian, yet the gap
    # cells, c on closing (A, B) and -conj(c) on (B, A), are nonzero and
    # their lower bound is 0, so atoms formed from their cells decide
    residues = _count_residue(monkeypatch)
    rng = np.random.default_rng(3)
    spec = qj.scheme_kirkwood(2)
    for n in (2, 3, 4):
        a = qj.random_hermitian(n, rng)
        pair = (qj.HermitianObservable(a, "A"), qj.HermitianObservable(a @ a + 2 * a, "B"))
        assert _entrywise_real(spec, pair)
        residues.clear()
        assert qj.scheme_is_real(spec, pair)
        assert residues, "the bounds decided every atom"


@PROPERTY
@given(spec=SCHEMES, obs=observables(2, max_dim=2))
def test_blindness_matches_oracle(spec, obs):
    assert qj.diag_equality_check(spec, obs) == realness_oracle.diag_equality_check(spec, obs)


@st.composite
def equal_diagonal_pairs(draw):
    """Two-level pairs whose first (and maybe second) observable has A[0,0] = A[1,1]."""
    floats = st.floats(-3.0, 3.0)
    both = draw(st.booleans())
    obs = []
    for v in range(2):
        d, re, im = draw(floats), draw(floats), draw(floats)
        gap = 0.0 if v == 0 or both else draw(floats)
        m = np.array([[d + gap, re + 1j * im], [re - 1j * im, d - gap]])
        obs.append(qj.HermitianObservable(m, f"O{v}"))
    return both, tuple(obs)


@settings(PROPERTY, max_examples=60)
@given(drawn=equal_diagonal_pairs())
def test_wigner_blind_exactly_when_all_diagonals_equal(drawn):
    both, obs = drawn
    spec = qj.WignerScheme(2)
    got = qj.diag_equality_check(spec, obs)
    assert got == realness_oracle.diag_equality_check(spec, obs)
    if both:
        assert got


def test_probes_never_evaluate_the_mixture(spin_half, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("mixture h(s) evaluated")

    monkeypatch.setattr(distributions, "_direction_spectra", forbidden)
    pair = (spin_half.j1, spin_half.j2)
    assert not qj.scheme_is_real(qj.scheme_kirkwood(2), pair)
    assert not qj.diag_equality_check(qj.scheme_kirkwood(2), pair)
    assert qj.scheme_is_real(qj.scheme_s_alpha(0.5), pair)
    assert qj.diag_equality_check(qj.scheme_s_alpha(0.5), pair)
    assert qj.scheme_is_real(qj.WignerScheme(2), pair)
    assert qj.diag_equality_check(qj.WignerScheme(2), pair)


@pytest.mark.parametrize("spec", [qj.scheme_kirkwood(2), qj.WignerScheme(2)], ids=["kirkwood", "wigner"])
@pytest.mark.parametrize("probe", [qj.scheme_is_real, qj.diag_equality_check])
def test_probes_reject_bad_observables(spec, probe, spin_half, spin_one):
    for obs in (
        (spin_half.j1,),
        (spin_half.j1, spin_half.j2, spin_half.j3),
        (spin_half.j1, spin_one.j2),
    ):
        with pytest.raises(DimensionMismatchError):
            probe(spec, obs)


@PROPERTY
@given(spec=TWO_VAR_SCHEMES, pair=observables(2, max_dim=2))
def test_two_level_real_exactly_when_rank_deficient(spec, pair):
    assert qj.scheme_is_real(spec, pair) == (qj.reconstruction_map(*pair, spec).rank < 3)
