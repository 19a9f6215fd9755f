import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import quasijoint as qj
from quasijoint.errors import EmptyMatrixError, NotHermitianError
from quasijoint.linalg import require_hermitian

import atoms_oracle
from analytic_reference import KD_ONE_MAP


def unitary(matrix, s):
    """exp(-i s A): the one-variable Kirkwood mixture is that single exponential."""
    obs = (qj.HermitianObservable(matrix),)
    return atoms_oracle.mixture(qj.scheme_kirkwood(1), obs, [s])[0]


def test_identity_eigensystem():
    eig = qj.eigensystem(np.eye(3))
    assert_allclose(eig.eigenvalues, [1.0])
    assert eig.multiplicities == (3,)
    assert_allclose(atoms_oracle.projectors(eig)[0], np.eye(3), atol=1e-14)


def test_pauli_z_over_two():
    eig = qj.eigensystem(np.diag([0.5, -0.5]))
    assert_allclose(eig.eigenvalues, [0.5, -0.5])
    assert_allclose(atoms_oracle.projectors(eig)[0], np.diag([1.0, 0.0]), atol=1e-14)
    assert_allclose(atoms_oracle.projectors(eig)[1], np.diag([0.0, 1.0]), atol=1e-14)


def test_spin_one_x_eigenvalues(spin_one):
    eig = spin_one.j1.eig
    assert_allclose(eig.eigenvalues, [1.0, 0.0, -1.0], atol=1e-10)
    assert eig.multiplicities == (1, 1, 1)


def test_degenerate_values_merge():
    eig = qj.eigensystem(np.diag([1.0, 1.0 + 1e-12, 0.0]))
    assert len(eig.eigenvalues) == 2
    assert eig.multiplicities == (2, 1)
    assert_allclose(atoms_oracle.projectors(eig)[0], np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_projector_invariants_random():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        h = qj.random_hermitian(dim, rng)
        eig = qj.eigensystem(h)
        projectors = atoms_oracle.projectors(eig)
        spectral = sum(a * p for a, p in zip(eig.eigenvalues, projectors))
        assert np.abs(spectral - h).max() <= 1e-10
        total = np.zeros((dim, dim), dtype=complex)
        for i, p in enumerate(projectors):
            assert np.abs(p @ p - p).max() <= 1e-10
            assert np.abs(p - p.conj().T).max() <= 1e-12
            for q in projectors[i + 1 :]:
                assert np.abs(p @ q).max() <= 1e-10
            total += p
        assert np.abs(total - np.eye(dim)).max() <= 1e-10
        assert sum(eig.multiplicities) == dim


def test_eigensystem_deterministic():
    rng = np.random.default_rng(5)
    h = qj.random_hermitian(5, rng)
    first = qj.eigensystem(h)
    second = qj.eigensystem(h)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    for p, q in zip(atoms_oracle.projectors(first), atoms_oracle.projectors(second)):
        assert np.array_equal(p, q)


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitianError):
        qj.eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitianError):
        qj.eigensystem(np.ones((2, 3)))


def test_exponential_zero_scale():
    u = unitary(np.diag([3.0, -1.0]), 0.0)
    assert_allclose(u, np.eye(2), atol=1e-14)


def test_exponential_spin_half(spin_half):
    s, t = 1.3, -0.7
    ux = unitary(spin_half.j1.matrix, s)
    expected_x = np.array(
        [
            [np.cos(s / 2), -1j * np.sin(s / 2)],
            [-1j * np.sin(s / 2), np.cos(s / 2)],
        ]
    )
    assert_allclose(ux, expected_x, atol=1e-12)
    uy = unitary(spin_half.j2.matrix, t)
    expected_y = np.array(
        [
            [np.cos(t / 2), -np.sin(t / 2)],
            [np.sin(t / 2), np.cos(t / 2)],
        ]
    )
    assert_allclose(uy, expected_y, atol=1e-12)


def test_exponential_group_property():
    rng = np.random.default_rng(99)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        h = qj.random_hermitian(dim, rng)
        s, t = rng.uniform(-4, 4, size=2)
        lhs = unitary(h, s) @ unitary(h, t)
        rhs = unitary(h, s + t)
        assert np.abs(lhs - rhs).max() <= 1e-9


def test_exponential_unitarity():
    rng = np.random.default_rng(11)
    h = qj.random_hermitian(4, rng)
    u = unitary(h, 2.7)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() <= 1e-10


def test_rank_identity():
    rank, pinv = qj.real_rank_and_pinv(np.eye(2))
    assert rank == 2
    assert_allclose(pinv, np.eye(2), atol=1e-14)


def test_rank_outer_product():
    rng = np.random.default_rng(3)
    u = rng.normal(size=5)
    v = rng.normal(size=4)
    rank, _ = qj.real_rank_and_pinv(np.outer(u, v))
    assert rank == 1


def test_rank_of_spin_one_coefficient_map():
    rank, _ = qj.real_rank_and_pinv(KD_ONE_MAP)
    assert rank == 8


def test_pinv_consistency():
    rng = np.random.default_rng(17)
    for _ in range(30):
        rows = int(rng.integers(3, 9))
        cols = int(rng.integers(2, rows + 1))
        m = rng.normal(size=(rows, cols))
        rank, pinv = qj.real_rank_and_pinv(m)
        assert rank == cols
        assert np.abs(pinv @ m - np.eye(cols)).max() <= 1e-8
        assert np.abs(m @ pinv @ m - m).max() <= 1e-8 * np.abs(m).max()


def test_rank_threshold_floor_is_one():
    rng = np.random.default_rng(19)
    noise = 1e-16 * rng.normal(size=(8, 3))
    rank, pinv = qj.real_rank_and_pinv(noise)
    assert rank == 0
    assert pinv.shape == (3, 8) and not pinv.any()
    # small but well above linalg.RANK_RATIO: still full rank
    rank, _ = qj.real_rank_and_pinv(1e-6 * rng.normal(size=(8, 3)))
    assert rank == 3


def test_rank_errors():
    with pytest.raises(EmptyMatrixError):
        qj.real_rank_and_pinv(np.zeros((0, 3)))


def test_vectors_match_grouped_projectors():
    rng = np.random.default_rng(99)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    degenerate = (q * np.array([2.0, -1.0, 2.0, 0.0, -1.0])) @ q.conj().T
    for h in (qj.random_hermitian(5, rng), degenerate):
        eig = qj.eigensystem(h)
        u = eig.vectors
        assert np.abs(u.conj().T @ u - np.eye(5)).max() <= 1e-12
        assert eig.degenerate == (h is degenerate)
        assert list(eig.group_starts) == list(np.cumsum((0,) + eig.multiplicities[:-1]))
        projectors = atoms_oracle.projectors(eig)
        for start, mult, proj in zip(eig.group_starts, eig.multiplicities, projectors):
            block = u[:, start : start + mult]
            assert np.abs(block @ block.conj().T - proj).max() <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_rejected(bad):
    m = np.eye(3, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(NotHermitianError, match="not finite") as info:
        require_hermitian(m)
    assert info.value.index == (1, 2)
    with pytest.raises(NotHermitianError):
        qj.eigensystem(m)


def test_asymmetry_names_entry():
    with pytest.raises(NotHermitianError) as info:
        require_hermitian(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert info.value.index == (0, 1)


def _two_pass_require_hermitian(matrix, name="matrix"):
    """The finiteness scan, then the asymmetry: the reference for the one-pass check."""
    m = np.asarray(matrix, dtype=complex)
    finite = np.isfinite(m)
    if not finite.all():
        i, j = (int(k) for k in np.argwhere(~finite)[0])
        raise NotHermitianError(f"{name} entry [{i}][{j}] is not finite", index=(i, j))
    asym = np.abs(m - m.conj().T)
    defect = float(asym.max())
    if defect > qj.linalg.DEFECT_TOL:
        i, j = (int(k) for k in np.unravel_index(int(asym.argmax()), asym.shape))
        raise NotHermitianError(
            f"{name} is not Hermitian: entry [{i}][{j}] vs [{j}][{i}] differs by "
            f"{defect:.3e}, exceeding {qj.linalg.DEFECT_TOL:.3e}",
            index=(i, j),
        )
    return m


@st.composite
def defective_matrices(draw):
    """A Hermitian matrix with NaN, +-Inf, NaN beside a larger asymmetry, or an asymmetry, at random entries."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = qj.random_hermitian(n, rng)
    kind = draw(st.sampled_from(["nan", "inf", "-inf", "complex-inf", "nan-and-asymmetry", "asymmetry"]))
    i, j = (draw(st.integers(0, n - 1)) for _ in range(2))
    bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "complex-inf": complex(np.inf, -np.inf)}
    if kind in bad:
        m[i, j] = bad[kind]
        if draw(st.booleans()):
            m[j, i] = np.conj(m[i, j])  # non-finite on both mirrored entries: Inf - Inf
    elif kind == "nan-and-asymmetry":
        k, l = (draw(st.integers(0, n - 1)) for _ in range(2))
        m[k, l] += 10.0 + 10j
        m[i, j] = np.nan
    else:
        m[i, j] += draw(st.sampled_from([1e-3, 2e-10, 1j, -5.0]))
    return m


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(m=defective_matrices())
def test_one_pass_check_keeps_type_message_and_index(m):
    # the one-pass check raises what the finiteness scan followed by the asymmetry raised
    try:
        _two_pass_require_hermitian(m, name="obs")
    except NotHermitianError as exc:
        want = exc
    else:
        assert np.array_equal(require_hermitian(m, name="obs"), m, equal_nan=True)
        return
    with pytest.raises(NotHermitianError) as got:
        require_hermitian(m, name="obs")
    assert str(got.value) == str(want) and got.value.index == want.index


def test_eigenvalue_groups_span_at_most_the_tolerance():
    # single linkage would chain all four small eigenvalues into one group spanning 1.8e-9
    eig = qj.eigensystem(np.diag([0.0, 0.6e-9, 1.2e-9, 1.8e-9, 1.0]))
    assert eig.multiplicities == (1, 2, 2)
    assert_allclose(eig.eigenvalues, [1.0, 1.5e-9, 0.3e-9], rtol=1e-12, atol=1e-24)


@st.composite
def clustered_spectra(draw):
    """A Hermitian matrix with eigenvalues in chains of steps near the grouping tolerance."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 30.0]))
    steps = rng.choice([0.0, 0.3e-9, 0.6e-9, 0.9e-9, 1.1e-9, 0.5], size=n) * scale
    values = draw(st.sampled_from([-1.0, 0.0, 2.0])) * scale + np.cumsum(steps)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    m = (q * values) @ q.conj().T
    return (m + m.conj().T) / 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(m=clustered_spectra())
def test_eigenvalue_groups_open_at_the_first_value_beyond_the_tolerance(m):
    raw = np.linalg.eigh(m)[0][::-1]  # the decomposition eigensystem runs, descending
    eig = qj.eigensystem(m)
    tol = qj.linalg.DEGENERACY_TOL * max(1.0, np.abs(raw).max())
    starts = np.cumsum((0,) + eig.multiplicities[:-1])
    assert sum(eig.multiplicities) == raw.size
    for k, (start, size) in enumerate(zip(starts, eig.multiplicities)):
        group = raw[start : start + size]
        assert group[0] - group[-1] <= tol  # no wider than the tolerance
        if start + size < raw.size:  # the next value is the first beyond it
            assert group[0] - raw[start + size] > tol
        want = group[0] if size == 1 else group.mean()
        assert eig.eigenvalues[k] == want
