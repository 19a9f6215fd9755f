import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import quasijoint as qj
from quasijoint.errors import (
    DimensionMismatchError,
    DomainError,
    NotHermitianError,
)

SQRT2 = np.sqrt(2.0)


def test_spin_half_is_pauli_over_two(spin_half):
    assert_allclose(spin_half.j1.matrix, np.array([[0, 1], [1, 0]]) / 2, atol=1e-15)
    assert_allclose(spin_half.j2.matrix, np.array([[0, -1j], [1j, 0]]) / 2, atol=1e-15)
    assert_allclose(spin_half.j3.matrix, np.diag([0.5, -0.5]), atol=1e-15)


def test_spin_one_matrices(spin_one):
    assert_allclose(
        spin_one.j1.matrix,
        np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / SQRT2,
        atol=1e-15,
    )
    assert_allclose(
        spin_one.j2.matrix,
        np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / SQRT2,
        atol=1e-15,
    )
    assert_allclose(spin_one.j3.matrix, np.diag([1.0, 0.0, -1.0]), atol=1e-15)


@pytest.mark.parametrize("j_times_two", range(1, 9))
def test_spin_triple_invariants(j_times_two):
    triple = qj.spin_operators(j_times_two)
    j = j_times_two / 2
    ops = [o.matrix for o in triple.components]
    # su(2) commutators
    for (i, jj, kk) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = ops[i] @ ops[jj] - ops[jj] @ ops[i]
        assert np.abs(comm - 1j * ops[kk]).max() <= 1e-10
    assert np.abs(triple.casimir() - j * (j + 1) * np.eye(triple.dim)).max() <= 1e-10
    expected = np.arange(j, -j - 0.5, -1.0)
    for o in triple.components:
        assert_allclose(o.eigenvalues, expected, atol=1e-10)


def test_spin_domain():
    with pytest.raises(DomainError):
        qj.spin_operators(0)


def test_bloch_poles_and_plane():
    assert_allclose(qj.bloch_state(0.0, 0.0, 1.0).matrix, np.diag([1.0, 0.0]), atol=1e-15)
    theta, phi = 1.1, 2.2
    plane = qj.bloch_state(theta, phi, 0.5).matrix
    expected = 0.5 * np.array(
        [
            [1.0, np.exp(-1j * phi) * np.sin(theta)],
            [np.exp(1j * phi) * np.sin(theta), 1.0],
        ]
    )
    assert_allclose(plane, expected, atol=1e-15)


def test_bloch_y_plus():
    got = qj.bloch_state(np.pi / 2, np.pi / 2, 1.0)
    want = qj.DensityState.pure([1 / SQRT2, 1j / SQRT2])
    assert np.abs(got.matrix - want.matrix).max() <= 1e-15


def test_bloch_expectations(spin_half):
    rng = np.random.default_rng(21)
    for _ in range(50):
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        m = rng.uniform(0, 1)
        state = qj.bloch_state(theta, phi, m)
        # mixing the antipodal pure states only interpolates the z coordinate
        want = 0.5 * np.array(
            [
                np.sin(theta) * np.cos(phi),
                np.sin(theta) * np.sin(phi),
                (2 * m - 1) * np.cos(theta),
            ]
        )
        got = [qj.expectation(o, state) for o in spin_half.components]
        assert np.abs(np.array(got) - want).max() <= 1e-12


def test_bloch_pure_expectations_on_sphere(spin_half):
    rng = np.random.default_rng(22)
    for _ in range(25):
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        state = qj.bloch_state(theta, phi, 1.0)
        want = 0.5 * np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        got = [qj.expectation(o, state) for o in spin_half.components]
        assert np.abs(np.array(got) - want).max() <= 1e-12


@pytest.mark.parametrize(
    "theta,phi,m",
    [(-0.1, 0.0, 1.0), (0.0, -0.5, 1.0), (0.0, 2 * np.pi, 1.0), (0.0, 0.0, 1.5)],
)
def test_bloch_domain(theta, phi, m):
    with pytest.raises(DomainError):
        qj.bloch_state(theta, phi, m)


def test_density_validation():
    with pytest.raises(DomainError):
        qj.DensityState(np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(DomainError):
        qj.DensityState(np.array([[1.5, 0], [0, -0.5]]))  # negative eigenvalue


def test_expectation_examples(spin_half):
    z_plus = qj.DensityState(np.diag([1.0, 0.0]))
    assert abs(qj.expectation(spin_half.j3, z_plus) - 0.5) <= 1e-14
    mixed = qj.DensityState.maximally_mixed(2)
    assert abs(qj.expectation(spin_half.j1, mixed)) <= 1e-14
    theta, phi, m = 0.8, 1.7, 0.3
    state = qj.bloch_state(theta, phi, m)
    want = (2 * m - 1) * np.cos(theta) / 2
    assert abs(qj.expectation(spin_half.j3, state) - want) <= 1e-12


def test_expectation_dimension_mismatch(spin_one):
    with pytest.raises(DimensionMismatchError):
        qj.expectation(spin_one.j3, qj.DensityState.maximally_mixed(2))


def test_observable_caches_eigensystem(spin_half):
    assert spin_half.j3.eig is spin_half.j3.eig


def test_observable_checks_hermiticity_once(monkeypatch):
    # the constructor checks the matrix; .eig decomposes it without a second check
    calls = []
    check = qj.linalg.require_hermitian
    monkeypatch.setattr(
        qj.linalg, "require_hermitian", lambda *a, **k: calls.append(1) or check(*a, **k)
    )
    obs = qj.HermitianObservable(np.diag([1.0, 1.0, -2.0]))
    eig = obs.eig
    assert len(calls) == 1
    want = qj.eigensystem(obs.matrix)
    assert np.array_equal(eig.eigenvalues, want.eigenvalues)
    assert eig.multiplicities == want.multiplicities == (2, 1)
    assert np.array_equal(eig.vectors, want.vectors)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrices_rejected(bad):
    m = np.diag([bad, 0.0])
    with pytest.raises(NotHermitianError):
        qj.HermitianObservable(m)
    with pytest.raises(NotHermitianError):
        qj.DensityState(np.diag([1.0, 0.0]) + np.diag([0.0, bad]))


@pytest.mark.parametrize("make", [qj.HermitianObservable, qj.DensityState])
def test_constructors_leave_the_callers_array_writeable(make):
    # a complex input is already the dtype the constructors keep: they must copy it
    # before freezing, or the caller's array turns read-only and aliases obj.matrix
    a = np.diag([0.75, 0.25]).astype(complex)
    obj = make(a)
    assert a.flags.writeable and not obj.matrix.flags.writeable
    a[0, 0] = 5.0
    assert obj.matrix[0, 0] == 0.75


SLACK = qj.linalg.POSITIVITY_SLACK


@st.composite
def planted_states(draw):
    """Hermitian unit-trace matrices U diag(lam) U^dagger, N = 1-16.

    Pure states, random mixed states, and states whose smallest eigenvalue
    is planted at -slack (1 + 1e-3) or -slack (1 - 1e-3), either side of
    the positivity boundary.
    """
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["pure", "mixed", "planted"] if n > 1 else ["pure"]))
    lam = np.zeros(n)
    if kind == "pure":
        lam[0] = 1.0
    elif kind == "mixed":
        lam = rng.random(n)
        lam /= lam.sum()
    else:
        lam[:-1] = rng.random(n - 1)
        lam[-1] = -SLACK * (1.0 + draw(st.sampled_from([-1e-3, 1e-3])))
        lam[:-1] *= (1.0 - lam[-1]) / lam[:-1].sum()
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    m = (q * lam) @ q.conj().T
    return (m + m.conj().T) / 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(m=planted_states())
def test_density_state_accepts_exactly_by_the_eigenvalue_rule(m):
    smallest = float(np.linalg.eigvalsh(m).min())
    if smallest >= -SLACK:
        assert np.array_equal(qj.DensityState(m).matrix, m)
        return
    with pytest.raises(DomainError) as err:
        qj.DensityState(m)
    assert str(err.value) == f"density matrix has eigenvalue {smallest:.3e} below -{SLACK:.1e}"


@pytest.mark.parametrize("entry", [(0, 0), (1, 2), (2, 0)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unit_hermitian_path_raises_what_the_constructor_raises(entry, bad):
    # the internal path checks finiteness and positivity, and the trace where positivity fails
    i, j = entry
    inputs = [np.diag([0.5, 0.3, 0.2]).astype(complex), np.diag([2.0, -0.5, 0.0]).astype(complex),
              np.diag([0.7, 0.3 + 1e-6, -1e-6]).astype(complex), np.diag([0.5, 0.5, 0.0]).astype(complex)]
    inputs[0][i, j] = bad
    inputs[0][j, i] = np.conj(inputs[0][i, j])
    for m in inputs:
        try:
            want = qj.DensityState(m).matrix
        except (NotHermitianError, DomainError) as exc:
            with pytest.raises(type(exc)) as got:
                qj.DensityState._of_unit_hermitian(m.copy())
            assert str(got.value) == str(exc) and getattr(got.value, "index", None) == getattr(exc, "index", None)
        else:
            got = qj.DensityState._of_unit_hermitian(m.copy()).matrix
            assert np.array_equal(got, want) and not got.flags.writeable
