"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output) so the whole gate can be read at a glance.
"""

import json
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import quasijoint as qj
from quasijoint import cli
from quasijoint.errors import UnsupportedSchemeError

import atoms_oracle
from analytic_reference import (
    KD_ONE_COEFF_ORDER,
    KD_Y_PLUS,
    KD_Z_MINUS,
    KD_Z_PLUS,
    SPLIT_Y_PLUS,
    SPLIT_Z,
    born_jordan_hashed_half,
    kd_half_coefficients,
    kd_one_coefficients,
    three_level_params,
    two_level_params,
    wigner_diagonal_half,
)
from conftest import assert_dist_matches, random_alternating_scheme, random_pair


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} [{name}]: FAIL")
        raise
    print(f"criterion {number:2d} [{name}]: PASS")


def kd_pair_atoms(spin):
    return qj.build_atoms(qj.scheme_kirkwood(2), (spin.j1, spin.j2))


def test_criterion_01_golden_distributions(spin_half, z_plus, z_minus, y_plus):
    with criterion(1, "golden distributions"):
        pair = (spin_half.j1, spin_half.j2)
        kd = qj.build_atoms(qj.scheme_kirkwood(2), pair)
        split = qj.build_atoms(qj.scheme_s_alpha(0.5), pair)
        assert_dist_matches(qj.evaluate_distribution(kd, z_plus), KD_Z_PLUS, 1e-12)
        assert_dist_matches(qj.evaluate_distribution(kd, z_minus), KD_Z_MINUS, 1e-12)
        assert_dist_matches(qj.evaluate_distribution(kd, y_plus), KD_Y_PLUS, 1e-12)
        assert_dist_matches(qj.evaluate_distribution(split, z_plus), SPLIT_Z, 1e-12)
        assert_dist_matches(qj.evaluate_distribution(split, z_minus), SPLIT_Z, 1e-12)
        assert_dist_matches(qj.evaluate_distribution(split, y_plus), SPLIT_Y_PLUS, 1e-12)


def test_criterion_02_coefficient_formulas(spin_half, spin_one):
    with criterion(2, "coefficient formulas"):
        rng = np.random.default_rng(1001)
        atoms2 = kd_pair_atoms(spin_half)
        for _ in range(100):
            rho = qj.random_density(2, rng)
            dist = qj.evaluate_distribution(atoms2, rho, prune_tol=0.0)
            expected = kd_half_coefficients(*two_level_params(rho.matrix))
            for point, want in expected.items():
                assert abs(dist.weight_at(point) - want) <= 1e-12

        atoms3 = kd_pair_atoms(spin_one)
        for _ in range(100):
            rho = qj.random_density(3, rng)
            dist = qj.evaluate_distribution(atoms3, rho, prune_tol=0.0)
            expected = kd_one_coefficients(*three_level_params(rho.matrix))
            for point, want in expected.items():
                assert abs(dist.weight_at(point) - want) <= 1e-11
            assert abs(dist.weight_at((0.0, 0.0))) <= 1e-12


def test_criterion_03_support_theorem(spin_half, y_plus):
    with criterion(3, "support on possible values"):
        rng = np.random.default_rng(1002)
        for dim in range(2, 7):
            pair = random_pair(rng, dim)
            atoms = qj.build_atoms(qj.scheme_kirkwood(2), pair)
            grids = [np.linalg.eigvalsh(o.matrix) for o in pair]
            for _ in range(100):
                dist = qj.evaluate_distribution(atoms, qj.random_density(dim, rng))
                report = qj.verify_support(dist, pair)
                assert report.ok, (dim, report.offending)
                for p, w in zip(dist.points, dist.weights):
                    if abs(w) > 1e-10:
                        for v in range(2):
                            assert np.abs(grids[v] - p[v]).min() <= 1e-9

        split = qj.build_atoms(qj.scheme_s_alpha(0.5), (spin_half.j1, spin_half.j2))
        report = qj.verify_support(
            qj.evaluate_distribution(split, y_plus), (spin_half.j1, spin_half.j2)
        )
        assert not report.ok
        offending = sorted(map(tuple, report.offending.tolist()))
        assert np.abs(np.asarray(offending) - [(0.0, -0.5), (0.0, 0.5)]).max() <= 1e-12


def test_criterion_04_marginal_born_consistency():
    with criterion(4, "marginals match Born statistics"):
        rng = np.random.default_rng(1003)
        schemes = (
            [qj.scheme_kirkwood(2)]
            + [qj.scheme_s_alpha(a) for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
            + [qj.scheme_margenau_hill(a) for a in (-1.0, -0.5, 0.0, 0.5, 1.0)]
            + [qj.scheme_born_jordan(201)]
        )
        worst = 0.0
        for dim in (2, 3, 4):
            pair = random_pair(rng, dim)
            states = [qj.random_density(dim, rng) for _ in range(50)]
            for spec in schemes:
                atoms = qj.build_atoms(spec, pair)
                for rho in states:
                    dist = qj.evaluate_distribution(atoms, rho)
                    for var, obs in enumerate(pair):
                        dev = qj.max_weight_deviation(
                            qj.marginal(dist, var), qj.born_distribution(obs, rho)
                        )
                        worst = max(worst, dev)
        assert worst <= 1e-9, worst


def test_criterion_05_tomography(spin_half, spin_one):
    with criterion(5, "tomography ranks and round trip"):
        kd = qj.scheme_kirkwood(2)
        assert qj.reconstruction_map(spin_one.j1, spin_one.j2, kd).rank == 8
        assert qj.reconstruction_map(spin_half.j1, spin_half.j2, kd).rank == 3
        assert (
            qj.reconstruction_map(spin_half.j1, spin_half.j2, qj.scheme_s_alpha(0.5)).rank
            == 2
        )
        reducible_a = qj.HermitianObservable(
            np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex), "A_red"
        )
        reducible_b = qj.HermitianObservable(
            np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]), "B_red"
        )
        assert qj.reconstruction_map(reducible_a, reducible_b, kd).rank < 8

        rng = np.random.default_rng(1004)
        for spin in (spin_half, spin_one):
            rmap = qj.reconstruction_map(spin.j1, spin.j2, kd)
            worst = 0.0
            for _ in range(500):
                rho = qj.random_density(spin.dim, rng)
                rec = qj.reconstruct_state(
                    rmap, qj.evaluate_distribution(rmap.atoms, rho)
                )
                worst = max(worst, np.abs(rec.matrix - rho.matrix).max())
            assert worst <= 1e-9, worst

        for phi in (np.pi / 6, np.pi / 4, np.pi / 3, 2.0):
            rotated = qj.HermitianObservable(
                np.cos(phi) * spin_one.j3.matrix + np.sin(phi) * spin_one.j1.matrix,
                f"rot({phi:g})",
            )
            assert qj.reconstruction_map(rotated, spin_one.j3, kd).rank == 8
        antiparallel = qj.HermitianObservable(-spin_one.j3.matrix, "-J3")
        assert qj.reconstruction_map(antiparallel, spin_one.j3, kd).rank < 8


def test_criterion_06_realness_vs_z(spin_half, spin_one):
    with criterion(6, "realness equals zero z expectation"):
        report2 = qj.realness_z_report(spin_half, 1000, seed=2024)
        assert report2.disagreements == 0
        assert 0 < report2.real_cases < report2.n_checked

        report3 = qj.realness_z_report(spin_one, 500, seed=2025)
        assert report3.disagreements == 0
        state = report3.counterexample
        assert state is not None
        assert abs(qj.expectation(spin_one.j3, state)) <= 1e-10
        atoms = kd_pair_atoms(spin_one)
        assert not qj.is_real(qj.evaluate_distribution(atoms, state), 1e-9)


def test_criterion_07_distinguishability_probes_agree(spin_half):
    with criterion(7, "distinguishability probes agree"):
        pair = (spin_half.j1, spin_half.j2)
        rng = np.random.default_rng(1005)
        hermitian_count = 0
        for trial in range(200):
            spec = random_alternating_scheme(rng, symmetric=(trial % 4 == 0))
            diag_equal = qj.diag_equality_check(spec, pair)
            hermitian = qj.scheme_is_real(spec, pair)
            deficient = qj.reconstruction_map(*pair, spec).rank < 3
            assert diag_equal == hermitian == deficient, spec.label
            hermitian_count += hermitian
        assert 0 < hermitian_count < 200


def test_criterion_08_degeneracy_arithmetic():
    with criterion(8, "degeneracy counting bound"):
        for n in range(1, 7):
            for n_a in range(1, n + 1):
                for n_b in range(1, n + 1):
                    report = qj.degeneracy_feasible(n, n_a, n_b)
                    assert report.lhs == 2 * n * n - 1
                    assert report.rhs == (2 * n_a - 1) * (2 * n_b - 1)
                    assert report.feasible == (2 * n * n - 1 <= (2 * n_a - 1) * (2 * n_b - 1))
        assert abs(qj.nondegenerate_partner_bound(2) - Fraction(5, 3)) <= 1e-15
        assert abs(qj.nondegenerate_partner_bound(3) - Fraction(11, 5)) <= 1e-15


def test_criterion_09_duality():
    with criterion(9, "classical and quantum expectations agree"):
        rng = np.random.default_rng(1006)
        monomials = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
        for trial in range(100):
            dim = int(rng.integers(2, 4))
            pair = random_pair(rng, dim)
            spec = [
                qj.scheme_kirkwood(2),
                qj.scheme_s_alpha(rng.uniform(0, 1)),
                qj.scheme_margenau_hill(rng.uniform(-1, 1)),
                qj.scheme_born_jordan(51),
            ][trial % 4]
            atoms = qj.build_atoms(spec, pair)
            rho = qj.random_density(dim, rng)
            dist = qj.evaluate_distribution(atoms, rho)
            coeffs = rng.normal(size=len(monomials))

            def poly(x, y):
                return sum(c * x**i * y**j for c, (i, j) in zip(coeffs, monomials))

            classical = qj.quasi_expectation(poly, dist)
            quantum_side = np.trace(qj.quantize(poly, atoms) @ rho.matrix)
            assert abs(classical - quantum_side) <= 1e-10


def test_criterion_10_wigner_characteristic(spin_half, z_plus, z_minus):
    with criterion(10, "symmetric-scheme characteristic function"):
        pair = (spin_half.j1, spin_half.j2)
        axis = np.linspace(-10, 10, 21)
        ss, tt = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([ss.ravel(), tt.ravel()])
        want = np.array([wigner_diagonal_half(s, t) for s, t in pts])
        for rho in (z_plus, z_minus):
            got = qj.characteristic_function(qj.WignerScheme(2), pair, rho, pts)
            assert np.abs(got - want).max() <= 1e-10
        # no atomic density exists: the engine refuses rather than approximating
        with pytest.raises(UnsupportedSchemeError):
            qj.build_atoms(qj.WignerScheme(2), pair)


def test_criterion_11_born_jordan_quadrature(spin_half, z_plus, z_minus):
    with criterion(11, "ordering-average quadrature converges"):
        pair = (spin_half.j1, spin_half.j2)
        axis = np.linspace(-6, 6, 11)
        ss, tt = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([ss.ravel(), tt.ravel()])
        closed = np.array([born_jordan_hashed_half(s, t) for s, t in pts])
        for nodes, tol in ((201, 1e-6), (2001, 1e-9)):
            spec = qj.scheme_born_jordan(nodes)
            h = atoms_oracle.mixture(spec, pair, pts)
            assert np.abs(h - closed).max() <= tol
        # the characteristic function sees the same entries through states
        spec = qj.scheme_born_jordan(201)
        for rho, entry in ((z_plus, closed[:, 0, 0]), (z_minus, closed[:, 1, 1])):
            chi = qj.characteristic_function(spec, pair, rho, pts)
            assert np.abs(chi - entry).max() <= 1e-6


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "CLI determinism and exit codes"):
        def dump(name, doc):
            path = tmp_path / name
            path.write_text(json.dumps(doc))
            return str(path)

        j1 = dump("j1.json", {"builtin": "spin:1/2", "component": 1})
        j2 = dump("j2.json", {"builtin": "spin:1/2", "component": 2})
        state = dump("state.json", {"bloch": {"theta": 1.1, "phi": 0.4, "m": 0.8}})
        two_obs = ["--obs", j1, "--obs", j2]
        commands = {
            "compute": ["compute", "--scheme", "kirkwood", *two_obs, "--state", state],
            "marginals": ["marginals", "--scheme", "born_jordan:51", *two_obs, "--state", state],
            "tomography": ["tomography", "--scheme", "kirkwood", *two_obs, "--state", state],
            "rank": ["rank", "--scheme", "margenau_hill:0.3", *two_obs],
            "verify": ["verify", "--scheme", "s_alpha:0.5", *two_obs, "--state", state],
            "charfunc": [
                "charfunc", "--scheme", "wigner", *two_obs, "--state", state,
                "--grid=-5:5:7,-5:5:7",
            ],
            "degeneracy": ["degeneracy", "--n", "4", "--na", "4", "--nb", "3"],
            "scan-realness": [
                "scan-realness", "--theta-steps", "4", "--phi-steps", "3", "--m-steps", "3",
            ],
        }
        for fmt in ("csv", "json"):
            for name, argv in commands.items():
                outputs = []
                for run_idx in (1, 2):
                    out = tmp_path / f"{name}_{fmt}_{run_idx}"
                    code = cli.main(argv + ["--format", fmt, "--out", str(out)])
                    assert code == 0, (name, fmt)
                    outputs.append(out.read_bytes())
                assert outputs[0] == outputs[1], (name, fmt)

        # documented exit codes
        rank_deficient = [
            "tomography", "--scheme", "s_alpha:0.5", *two_obs, "--state", state,
            "--out", str(tmp_path / "rd.csv"),
        ]
        assert cli.main(rank_deficient) == 1
        malformed = dump("broken.json", None)
        with open(malformed, "w") as handle:
            handle.write("{oops")
        bad_parse = [
            "compute", "--scheme", "kirkwood", "--obs", malformed, "--obs", j2,
            "--state", state, "--out", str(tmp_path / "bp.csv"),
        ]
        assert cli.main(bad_parse) == 2
        non_hermitian = dump(
            "nh.json", {"dim": 2, "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
        )
        bad_input = [
            "compute", "--scheme", "kirkwood", "--obs", non_hermitian, "--obs", j2,
            "--state", state, "--out", str(tmp_path / "bi.csv"),
        ]
        assert cli.main(bad_input) == 3
