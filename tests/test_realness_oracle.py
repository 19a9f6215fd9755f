"""Exact realness and blindness probes against the frequency-sampled oracle.

``scheme_is_real`` and ``diag_equality_check`` read their verdicts off
the operator atoms (or, for the symmetric scheme, off the observables);
they must equal the sampled probes of ``realness_oracle`` on every draw
of ``TWO_VAR_SCHEMES`` and ``WignerScheme(2)`` over random observables,
half with degenerate spectra, and never evaluate the mixture h(s). At two
levels a scheme is real exactly when its reconstruction map is rank
deficient, the paper's statement that the imaginary part is essential.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasijoint as qj
from quasijoint.errors import DimensionMismatchError

import realness_oracle
from test_atoms_oracle import PROPERTY, TWO_VAR_SCHEMES, observables

SCHEMES = TWO_VAR_SCHEMES | st.just(qj.WignerScheme(2))


@PROPERTY
@given(spec=SCHEMES, obs=observables(2))
def test_realness_matches_oracle(spec, obs):
    assert qj.scheme_is_real(spec, obs) == realness_oracle.scheme_is_real(spec, obs)


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

    monkeypatch.setattr(qj.SchemeSpec, "hashed_operator_batch", forbidden)
    monkeypatch.setattr(qj.WignerScheme, "hashed_operator_batch", forbidden)
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
