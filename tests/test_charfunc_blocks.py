"""The frequency-side readers in blocks of ``distributions.BLOCK_ENTRIES``.

``characteristic_function`` (product schemes through the block kernel,
the symmetric scheme through its directions) and
``QuasiDistribution.characteristic`` walk their frequencies or directions
in blocks whose temporaries hold about ``BLOCK_ENTRIES`` complex entries.
With the constant shrunk until every block holds one item, or a few,
each reader must agree with the default within 1e-13, on random pairs at
N = 1-5, random points (every frequency distinct) and grids. With the
default, the benchmark's 21 x 21 grid ops run in one block, and the
large cases stay under fixed tracemalloc ceilings that the unblocked
readers exceed many times over.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasijoint as qj
from quasijoint import distributions

from test_atoms_oracle import PROPERTY, alternating, observables

SEEDS = st.integers(0, 2**32 - 1)
AXIS = np.linspace(-6.0, 6.0, 21)
GRID = np.stack(np.meshgrid(AXIS, AXIS, indexing="ij"), axis=-1).reshape(-1, 2)


@st.composite
def schemes(draw):
    """A product scheme or the symmetric one; n_vars 1-3 for Kirkwood-Dirac and Wigner."""
    n_vars = draw(st.integers(1, 3))
    return draw(
        st.sampled_from([qj.scheme_kirkwood(n_vars), qj.WignerScheme(n_vars)])
        | st.builds(qj.scheme_margenau_hill, st.floats(-1.0, 1.0))
        | st.builds(qj.scheme_s_alpha, st.floats(0.0, 1.0))
        | st.builds(qj.scheme_born_jordan, st.integers(1, 40))
        | alternating()
    )


def _points(rng, n_vars, grid):
    """Random points, every frequency distinct, or a grid on a few values per axis."""
    if not grid:
        return rng.uniform(-8.0, 8.0, size=(int(rng.integers(1, 60)), n_vars))
    axes = [rng.uniform(-8.0, 8.0, size=int(rng.integers(1, 6))) for _ in range(n_vars)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n_vars)


def _readers(spec, obs, rho, pts):
    out = [qj.characteristic_function(spec, obs, rho, pts)]
    if not isinstance(spec, qj.WignerScheme):
        out.append(qj.evaluate_distribution(qj.build_atoms(spec, obs), rho).characteristic(pts))
    return out


@settings(PROPERTY, max_examples=80)
@given(spec=schemes(), seed=SEEDS, grid=st.booleans(), entries=st.integers(2, 400), data=st.data())
def test_small_blocks_match_one_block(spec, seed, grid, entries, data):
    obs = data.draw(observables(spec.n_vars, min_dim=1))
    rng = np.random.default_rng(seed)
    rho = qj.random_density(obs[0].dim, rng)
    pts = _points(rng, spec.n_vars, grid)
    want = _readers(spec, obs, rho, pts)
    # one item per block, then a few
    for small in (1, entries):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distributions, "BLOCK_ENTRIES", small)
            got = _readers(spec, obs, rho, pts)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-13


@pytest.fixture
def block_counts(monkeypatch):
    """The number of blocks of every blocked read, in call order."""
    counts = []
    blocks = distributions._blocks

    def counted(count, width):
        counts.append(len(blocks(count, width)))
        return blocks(count, width)

    monkeypatch.setattr(distributions, "_blocks", counted)
    return counts


def test_small_blocks_split_every_reader(spin_one, monkeypatch, block_counts):
    # the property above is not vacuous: at one entry per block each reader takes several blocks
    pair = (spin_one.j1, spin_one.j2)
    rho = qj.random_density(3, np.random.default_rng(3))
    monkeypatch.setattr(distributions, "BLOCK_ENTRIES", 1)
    for spec in (qj.scheme_born_jordan(21), qj.WignerScheme(2)):
        _readers(spec, pair, rho, GRID)
    # block kernel (21 variable-0 frequencies), atom side (441 points), directions
    assert len(block_counts) == 3 and min(block_counts) >= 21


def test_grid_ops_run_in_one_block(block_counts):
    # the 21 x 21 grid ops of the charfunc benchmark, at their largest N, fit in one block each
    rng = np.random.default_rng(5)
    for spec, n in (
        (qj.scheme_kirkwood(2), 8),
        (qj.scheme_s_alpha(0.25), 8),
        (qj.WignerScheme(2), 8),
        (qj.scheme_born_jordan(201), 4),
    ):
        obs = tuple(qj.HermitianObservable(qj.random_hermitian(n, rng)) for _ in range(2))
        qj.characteristic_function(spec, obs, qj.random_density(n, rng), GRID)
    assert block_counts and block_counts == [1] * len(block_counts)


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def pair8():
    rng = np.random.default_rng(8)
    obs = tuple(qj.HermitianObservable(qj.random_hermitian(8, rng)) for _ in range(2))
    return obs, qj.random_density(8, rng), rng


def test_born_jordan_frequencies_stay_under_a_ceiling(pair8):
    # unblocked, the (201, 8, 10^4) phases of each variable-0 factor peak near 808 MB
    obs, rho, rng = pair8
    spec = qj.scheme_born_jordan(201)
    pts = rng.uniform(-8.0, 8.0, size=(10**4, 2))
    qj.characteristic_function(spec, obs, rho, pts[:10])  # warm up
    assert _peak(lambda: qj.characteristic_function(spec, obs, rho, pts)) < 16 * 2**20


def test_atom_side_stays_under_a_ceiling(pair8):
    # unblocked, the (441, 45088) phases of the Born-Jordan distribution peak near 319 MB
    obs, rho, _ = pair8
    dist = qj.evaluate_distribution(qj.build_atoms(qj.scheme_born_jordan(201), obs), rho)
    dist.characteristic(GRID[:1])  # warm up
    assert _peak(lambda: dist.characteristic(GRID)) < 8 * 2**20


def test_density_estimate_stays_under_a_ceiling(pair8):
    # unblocked, the eigenvectors of all directions of the 241 x 241 grid peak near 65 MB
    obs, rho, _ = pair8
    grid = np.linspace(-1.0, 1.0, 5)
    qj.wigner_density_estimate(obs, rho, grid, grid, s_steps=3)  # warm up
    assert _peak(lambda: qj.wigner_density_estimate(obs, rho, grid, grid)) < 40 * 2**20
