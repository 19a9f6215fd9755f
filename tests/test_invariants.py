"""Documented invariants of the atoms as properties on random inputs.

Random observable pairs of dimension 2-5, half of them with degenerate
spectra, under every scheme constructor, reversed words included, and a
random state each:

- every marginal matches the Born distribution of its observable;
- schemes with one factor per variable put no weight off the eigenvalue
  grid;
- quantization and expectation agree through the trace:
  Tr(quantize(x*y) rho) equals the quasi-expectation of x*y on the
  unpruned weights.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import quasijoint as qj

from test_atoms_oracle import PROPERTY, TWO_VAR_SCHEMES, observables

SEEDS = st.integers(0, 2**32 - 1)


def _state(obs, seed):
    return qj.random_density(obs[0].dim, np.random.default_rng(seed))


def _one_factor_per_variable(spec):
    return all(sorted(f.var for f in word) == list(range(spec.n_vars)) for _, word in spec.terms)


@PROPERTY
@given(spec=TWO_VAR_SCHEMES, obs=observables(2), seed=SEEDS)
def test_marginals_are_born_distributions(spec, obs, seed):
    rho = _state(obs, seed)
    dist = qj.evaluate_distribution(qj.build_atoms(spec, obs), rho)
    for v, o in enumerate(obs):
        born = qj.born_distribution(o, rho)
        assert qj.max_weight_deviation(qj.marginal(dist, v), born) <= 1e-10


@PROPERTY
@given(spec=TWO_VAR_SCHEMES.filter(_one_factor_per_variable), obs=observables(2), seed=SEEDS)
def test_one_factor_per_variable_stays_on_the_grid(spec, obs, seed):
    dist = qj.evaluate_distribution(qj.build_atoms(spec, obs), _state(obs, seed))
    assert qj.verify_support(dist, obs).ok


@PROPERTY
@given(spec=TWO_VAR_SCHEMES, obs=observables(2), seed=SEEDS)
def test_quantize_and_expectation_agree_through_the_trace(spec, obs, seed):
    atoms = qj.build_atoms(spec, obs)
    rho = _state(obs, seed)
    full = qj.evaluate_distribution(atoms, rho, prune_tol=0.0)
    xy = np.trace(qj.quantize(lambda x, y: x * y, atoms) @ rho.matrix)
    assert abs(xy - qj.quasi_expectation(lambda x, y: x * y, full)) <= 1e-10
