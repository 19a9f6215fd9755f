"""Frequency-sampled realness and blindness probes, kept as a test oracle.

These are the original definitions of ``scheme_is_real`` and
``diag_equality_check``: they evaluate the mixture h(s) through
``hashed_operator_batch`` at twelve fixed pseudo-random frequency vectors
and compare h(s) with h(-s)^dagger, or the two diagonal entries of h(s).
For a product scheme the sampled realness verdict is cross-checked
against atom Hermiticity and a disagreement raises. The library reads
both verdicts off the atoms exactly; it must return the oracle's.
"""

from __future__ import annotations

import numpy as np

from quasijoint import linalg
from quasijoint.distributions import WignerScheme, build_atoms
from quasijoint.errors import DomainError, QuasiJointError

# h(s) - h(-s)^dagger of a mixture sampled at random frequencies
SAMPLE_TOL = 1e-9


def _sample_frequencies(n_vars):
    """Twelve fixed pseudo-random frequency vectors in [-8, 8)^n_vars."""
    return np.random.default_rng(0).uniform(-8.0, 8.0, size=(12, n_vars))


def scheme_is_real(spec, observables) -> bool:
    """True when the scheme produces real weights for every state.

    The finite-dimensional criterion is Hermiticity of all operator atoms
    (within ``linalg.DEFECT_TOL``); it is cross-checked by sampling the
    mixture h(s) against h(-s)^dagger at fixed random frequencies (within
    ``SAMPLE_TOL``). For the symmetric scheme (no atoms) only the
    sampled check runs.
    """
    samples = _sample_frequencies(spec.n_vars)
    h_fwd = spec.hashed_operator_batch(observables, samples)
    h_bwd = spec.hashed_operator_batch(observables, -samples)
    sampled_ok = bool(
        np.abs(h_fwd - h_bwd.conj().transpose(0, 2, 1)).max() <= SAMPLE_TOL
    )
    if isinstance(spec, WignerScheme):
        return sampled_ok
    hermitian_atoms = build_atoms(spec, observables).hermiticity_defect() <= linalg.DEFECT_TOL
    if hermitian_atoms != sampled_ok:
        raise QuasiJointError(
            "realness verdicts disagree between atom Hermiticity and frequency sampling; "
            "the scheme sits on a tolerance boundary"
        )
    return hermitian_atoms


def diag_equality_check(spec, observables) -> bool:
    """True when the two diagonal entries of the mixture always agree.

    Two-level systems only. Equal diagonals (within ``linalg.DEFECT_TOL``
    at fixed random frequencies) mean the scheme assigns the same
    distribution to both basis eigenstates of the z direction, i.e. it
    cannot distinguish them.
    """
    if observables[0].dim != 2:
        raise DomainError("diagonal-equality probe is defined for two-level systems")
    h = spec.hashed_operator_batch(observables, _sample_frequencies(spec.n_vars))
    return bool(np.abs(h[:, 0, 0] - h[:, 1, 1]).max() <= linalg.DEFECT_TOL)
