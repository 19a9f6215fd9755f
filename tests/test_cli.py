import contextlib
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasijoint import analysis, cli, distributions, linalg
from quasijoint.errors import ValidationError

from analytic_reference import KD_Z_PLUS, wigner_diagonal_half


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fixtures")

    def dump(name, doc):
        path = root / name
        path.write_text(json.dumps(doc))
        return str(path)

    broken = root / "bad.json"
    broken.write_text("{not json")

    return {
        "j1": dump("j1.json", {"builtin": "spin:1/2", "component": 1}),
        "j2": dump("j2.json", {"builtin": "spin:1/2", "component": 2}),
        "j1_explicit": dump(
            "j1_explicit.json",
            {"dim": 2, "matrix": [[[0, 0], [0.5, 0]], [[0.5, 0], [0, 0]]]},
        ),
        "z_plus": dump("zplus.json", {"density": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}),
        "y_plus": dump("yplus.json", {"bloch": {"theta": np.pi / 2, "phi": np.pi / 2, "m": 1.0}}),
        "bad_json": str(broken),
        "non_hermitian": dump(
            "nonherm.json",
            {"dim": 2, "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]},
        ),
        "scheme_custom": dump(
            "custom_scheme.json",
            {
                "terms": [
                    {
                        "weight": [1.0, 0.0],
                        "word": [
                            {"var": 0, "coeff": 1.0, "obs": 0},
                            {"var": 1, "coeff": 1.0, "obs": 1},
                        ],
                    }
                ]
            },
        ),
        "root": root,
    }


def run_cli(args, out_path=None):
    argv = list(args)
    if out_path is not None:
        argv += ["--out", str(out_path)]
    return cli.main(argv)


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def command_lines(fixtures):
    two_obs = ["--obs", fixtures["j1"], "--obs", fixtures["j2"]]
    return {
        "compute": ["compute", "--scheme", "kirkwood", *two_obs, "--state", fixtures["z_plus"]],
        "marginals": ["marginals", "--scheme", "s_alpha:0.5", *two_obs, "--state", fixtures["y_plus"]],
        "tomography": ["tomography", "--scheme", "kirkwood", *two_obs, "--state", fixtures["y_plus"]],
        "rank": ["rank", "--scheme", "kirkwood", *two_obs],
        "verify": ["verify", "--scheme", "s_alpha:0.5", *two_obs, "--state", fixtures["y_plus"]],
        "charfunc": [
            "charfunc",
            "--scheme",
            "wigner",
            *two_obs,
            "--state",
            fixtures["z_plus"],
            "--grid=-4:4:5,-4:4:5",
        ],
        "degeneracy": ["degeneracy", "--n", "3", "--na", "3", "--nb", "2"],
        "scan-realness": ["scan-realness", "--theta-steps", "3", "--phi-steps", "2", "--m-steps", "3"],
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_command_is_deterministic(command_lines, tmp_path, fmt):
    for name, argv in command_lines.items():
        first = tmp_path / f"{name}_1.{fmt}"
        second = tmp_path / f"{name}_2.{fmt}"
        assert run_cli(argv + ["--format", fmt], first) == 0, name
        assert run_cli(argv + ["--format", fmt], second) == 0, name
        assert read(first) == read(second), f"{name} output is not reproducible"


def test_compute_golden_weights(command_lines, tmp_path):
    out = tmp_path / "kz.csv"
    assert run_cli(command_lines["compute"], out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,weight_re,weight_im"
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert len(rows) == 4
    for x1, x2, re, im in rows:
        want = KD_Z_PLUS[(float(x1), float(x2))]
        assert abs(float(re) - want.real) <= 1e-12
        assert abs(float(im) - want.imag) <= 1e-12
    footer = [line for line in lines if line.startswith("#")]
    assert footer and "sum_weight_re" in footer[0]
    total = float(footer[0].split("sum_weight_re=")[1].split()[0])
    assert abs(total - 1.0) <= 1e-10


def test_builtin_and_explicit_observables_agree(fixtures, command_lines, tmp_path):
    base = tmp_path / "builtin.csv"
    explicit = tmp_path / "explicit.csv"
    assert run_cli(command_lines["compute"], base) == 0
    argv = [
        "compute",
        "--scheme",
        "kirkwood",
        "--obs",
        fixtures["j1_explicit"],
        "--obs",
        fixtures["j2"],
        "--state",
        fixtures["z_plus"],
    ]
    assert run_cli(argv, explicit) == 0
    assert read(base) == read(explicit)


def test_custom_scheme_terms_match_named(fixtures, command_lines, tmp_path):
    named = tmp_path / "named.csv"
    custom = tmp_path / "custom.csv"
    assert run_cli(command_lines["compute"], named) == 0
    argv = [
        "compute",
        "--scheme",
        fixtures["scheme_custom"],
        "--obs",
        fixtures["j1"],
        "--obs",
        fixtures["j2"],
        "--state",
        fixtures["z_plus"],
    ]
    assert run_cli(argv, custom) == 0
    assert read(named) == read(custom)


def test_marginals_deviation_footer(command_lines, tmp_path):
    out = tmp_path / "marg.csv"
    assert run_cli(command_lines["marginals"], out) == 0
    footer = [l for l in out.read_text().splitlines() if l.startswith("#")]
    dev = float(footer[0].split("max_deviation=")[1])
    assert dev <= 1e-9


def test_tomography_reconstructs(command_lines, tmp_path):
    out = tmp_path / "tomo.json"
    assert run_cli(command_lines["tomography"] + ["--format", "json"], out) == 0
    doc = json.loads(out.read_text())
    assert doc["rank"] == 3
    assert doc["residual"] <= 1e-9
    rec = np.array([[complex(re, im) for re, im in row] for row in doc["reconstructed"]])
    want = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.abs(rec - want).max() <= 1e-9


def test_tomography_rank_deficient_exit(fixtures, tmp_path, capsys):
    argv = [
        "tomography",
        "--scheme",
        "s_alpha:0.5",
        "--obs",
        fixtures["j1"],
        "--obs",
        fixtures["j2"],
        "--state",
        fixtures["z_plus"],
        "--out",
        str(tmp_path / "t.csv"),
    ]
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    assert "rank" in capsys.readouterr().err


def test_compute_wigner_has_no_atoms(fixtures, tmp_path, capsys):
    argv = [
        "compute",
        "--scheme",
        "wigner",
        "--obs",
        fixtures["j1"],
        "--obs",
        fixtures["j2"],
        "--state",
        fixtures["z_plus"],
        "--out",
        str(tmp_path / "w.csv"),
    ]
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    assert "atom" in capsys.readouterr().err


def test_malformed_json_exit(fixtures, tmp_path, capsys):
    argv = [
        "compute",
        "--scheme",
        "kirkwood",
        "--obs",
        fixtures["bad_json"],
        "--obs",
        fixtures["j2"],
        "--state",
        fixtures["z_plus"],
        "--out",
        str(tmp_path / "x.csv"),
    ]
    assert cli.main(argv) == cli.EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_missing_file_exit(fixtures, tmp_path):
    argv = [
        "compute",
        "--scheme",
        "kirkwood",
        "--obs",
        str(fixtures["root"] / "nope.json"),
        "--obs",
        fixtures["j2"],
        "--state",
        fixtures["z_plus"],
        "--out",
        str(tmp_path / "x.csv"),
    ]
    assert cli.main(argv) == cli.EXIT_PARSE


def test_non_hermitian_names_field(fixtures, tmp_path, capsys):
    argv = [
        "compute",
        "--scheme",
        "kirkwood",
        "--obs",
        fixtures["non_hermitian"],
        "--obs",
        fixtures["j2"],
        "--state",
        fixtures["z_plus"],
        "--out",
        str(tmp_path / "x.csv"),
    ]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "matrix[0][1]" in err


def test_parse_observable_checks_hermiticity_once(monkeypatch):
    # the observable's constructor checks the matrix, and its error names the field
    calls = []
    check = linalg.require_hermitian
    monkeypatch.setattr(
        linalg, "require_hermitian", lambda *a, **k: calls.append(1) or check(*a, **k)
    )
    obs = cli.parse_observable({"matrix": [[[1, 0], [0, -1]], [[0, 1], [-1, 0]]]}, "a.json")
    assert len(calls) == 1
    assert obs.label == "a.json" and np.array_equal(obs.matrix, [[1, -1j], [1j, -1]])
    bad = {"matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]], "label": "X"}
    with pytest.raises(ValidationError) as info:
        cli.parse_observable(bad, "b.json")
    assert str(info.value).startswith("b.json:matrix[0][1]: X is not Hermitian: entry [0][1]")
    assert len(calls) == 2


def test_bad_bloch_parameters_exit(fixtures, tmp_path, capsys):
    bad = fixtures["root"] / "badbloch.json"
    bad.write_text(json.dumps({"bloch": {"theta": -1.0, "phi": 0.0, "m": 1.0}}))
    argv = [
        "compute",
        "--scheme",
        "kirkwood",
        "--obs",
        fixtures["j1"],
        "--obs",
        fixtures["j2"],
        "--state",
        str(bad),
        "--out",
        str(fixtures["root"] / "x.csv"),
    ]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "bloch" in capsys.readouterr().err


def test_charfunc_values(command_lines, tmp_path):
    out = tmp_path / "chi.csv"
    assert run_cli(command_lines["charfunc"], out) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:] if l and not l.startswith("#")]
    assert len(rows) == 25
    for s1, s2, re, im in rows:
        want = wigner_diagonal_half(float(s1), float(s2))
        assert abs(complex(float(re), float(im)) - want) <= 1e-10


def test_degeneracy_report(command_lines, tmp_path):
    out = tmp_path / "deg.json"
    assert run_cli(command_lines["degeneracy"] + ["--format", "json"], out) == 0
    doc = json.loads(out.read_text())
    assert doc["lhs"] == 17 and doc["rhs"] == 15 and doc["feasible"] is False
    assert abs(doc["nondegenerate_partner_bound"] - 11 / 5) <= 1e-12


def test_scan_realness_rows(command_lines, tmp_path):
    out = tmp_path / "scan.csv"
    assert run_cli(command_lines["scan-realness"], out) == 0
    lines = [l for l in out.read_text().splitlines()[1:] if l and not l.startswith("#")]
    assert len(lines) == 3 * 2 * 3
    for line in lines:
        theta, phi, m, top_imag, z = (float(v) for v in line.split(","))
        # the imaginary part tracks the z expectation: both vanish together
        assert (top_imag <= 1e-12) == (abs(z) <= 1e-12)


def test_scan_realness_step_cap(command_lines, tmp_path, capsys, monkeypatch):
    # 3 x 2 x 3 states sit at a cap of 18; one more step, or a count hidden
    # behind a zero, is rejected before any grid is made
    monkeypatch.setattr(cli, "MAX_SCAN_STATES", 18)
    assert run_cli(command_lines["scan-realness"], tmp_path / "scan.csv") == 0
    for steps in (["3", "2", "4"], ["1", "19", "0"]):
        argv = ["scan-realness"] + [f"--{flag}-steps={n}" for flag, n in zip(("theta", "phi", "m"), steps)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: --theta-steps/--phi-steps/--m-steps: step counts ")
        assert "exceed 18 states" in err

def test_rank_csv(command_lines, tmp_path):
    out = tmp_path / "rank.csv"
    assert run_cli(command_lines["rank"], out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "dim,rank,full_rank_needed,support_size,distinguishes_states"
    assert lines[1] == "2,3,3,4,true"


@pytest.mark.parametrize("scheme", ["kirkwood", "s_alpha:0.25", "margenau_hill:0.3", "born_jordan:5"])
def test_rank_of_scalar_pair_is_zero(tmp_path, scheme):
    # V (c I) V^dagger: multiples of the identity whose entries carry rounding
    rng = np.random.default_rng(9)
    argv = ["rank", "--scheme", scheme]
    for k, c in enumerate((1.5, -0.7)):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        m = (q * c) @ q.conj().T
        path = tmp_path / f"scalar{k}.json"
        path.write_text(json.dumps({"matrix": [[[z.real, z.imag] for z in row] for row in m]}))
        argv += ["--obs", str(path)]
    out = tmp_path / "rank.csv"
    assert run_cli(argv, out) == 0
    assert out.read_text().splitlines()[1] == "3,0,8,1,false"


def test_verify_honours_tol_real(fixtures, tmp_path):
    # Kirkwood weights of |z+> for spin-1/2 x and y are (1 +- i)/4: max |Im| = 0.25
    argv = ["verify", "--scheme", "kirkwood", "--obs", fixtures["j1"], "--obs", fixtures["j2"],
            "--state", fixtures["z_plus"], "--format", "json"]
    verdicts = []
    for extra in ([], ["--tol-real", "0.3"]):
        out = tmp_path / "verify.json"
        assert run_cli(argv + extra, out) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["max_abs_imag"] - 0.25) <= 1e-12
        verdicts.append(doc["distribution_real"])
    assert verdicts == [False, True]


@pytest.mark.parametrize("scheme", ["kirkwood", "s_alpha:0.5"])
def test_verify_builds_the_atoms_once(fixtures, tmp_path, monkeypatch, scheme):
    # the scheme realness verdict reads the atoms the distribution was built
    # from, so one cell table serves both
    build, cell_table = distributions.build_atoms, distributions._cell_table
    calls, tables = [], []

    def counted(spec, observables):
        calls.append(spec.label)
        return build(spec, observables)

    def counted_table(*args):
        tables.append(len(args[0]))
        return cell_table(*args)

    monkeypatch.setattr(distributions, "build_atoms", counted)
    monkeypatch.setattr(analysis, "build_atoms", counted)
    monkeypatch.setattr(distributions, "_cell_table", counted_table)
    argv = ["verify", "--scheme", scheme, "--obs", fixtures["j1"], "--obs", fixtures["j2"],
            "--state", fixtures["y_plus"], "--format", "json"]
    out = tmp_path / "verify.json"
    assert run_cli(argv, out) == 0
    assert len(calls) == 1 and len(tables) == 1
    # Kirkwood-Dirac is not real on the spin-1/2 pair, the split word at 1/2 is
    assert json.loads(out.read_text())["scheme_real_for_all_states"] == (scheme != "kirkwood")


def test_tolerance_flags_only_on_verify(command_lines, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(command_lines["compute"] + ["--tol-real", "1"])
    assert exc.value.code == 2
    assert "--tol-real" in capsys.readouterr().err


UNREAD_FLAGS = [
    ["degeneracy", "--scheme", "kirkwood"],
    ["degeneracy", "--state", "x.json"],
    ["rank", "--state", "x.json"],
    ["scan-realness", "--state", "x.json"],
]


@pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=[" ".join(argv) for argv in UNREAD_FLAGS])
def test_commands_take_only_the_flags_they_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_marginals_accept_a_state_at_the_positivity_slack(fixtures, tmp_path):
    # eigenvalue -5e-10 passes DensityState; its Born weight is read as is
    j3 = tmp_path / "j3.json"
    j3.write_text(json.dumps({"builtin": "spin:1/2", "component": 3}))
    state = tmp_path / "slack.json"
    state.write_text(json.dumps({"density": [[[1 + 5e-10, 0], [0, 0]], [[0, 0], [-5e-10, 0]]]}))
    out = tmp_path / "marg.json"
    argv = ["marginals", "--scheme", "kirkwood", "--obs", str(j3), "--obs", fixtures["j1"],
            "--state", str(state), "--format", "json"]
    assert run_cli(argv, out) == 0
    assert json.loads(out.read_text())["max_deviation"] <= 1e-9


def test_marginals_accept_state_trace_within_tolerance(fixtures, tmp_path):
    # trace 1 + 5e-11 passes DensityState; Born weights sum to that trace
    state = tmp_path / "trace_off.json"
    state.write_text(json.dumps({"density": [[[0.5 + 5e-11, 0], [0, 0]], [[0, 0], [0.5, 0]]]}))
    out = tmp_path / "marg.json"
    argv = ["marginals", "--scheme", "kirkwood", "--obs", fixtures["j1"], "--obs", fixtures["j2"],
            "--state", str(state), "--format", "json"]
    assert run_cli(argv, out) == 0
    doc = json.loads(out.read_text())
    assert doc["max_deviation"] <= 1e-12
    for var in doc["variables"]:
        for entry in var["entries"]:
            assert abs(complex(*entry["marginal"]) - entry["born"]) <= 1e-12


def test_console_entry_point_runs(fixtures):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "quasijoint",
            "compute",
            "--scheme",
            "kirkwood",
            "--obs",
            fixtures["j1"],
            "--obs",
            fixtures["j2"],
            "--state",
            fixtures["z_plus"],
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("x1,x2,weight_re,weight_im")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_matrix_exits_validation(fixtures, tmp_path, bad):
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps({"matrix": [[[0, 0], [0, 0]], [[0, 0], [bad, 0]]]}))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "quasijoint",
            "compute",
            "--scheme",
            "kirkwood",
            "--obs",
            str(path),
            "--obs",
            fixtures["j2"],
            "--state",
            fixtures["z_plus"],
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == cli.EXIT_VALIDATION
    assert proc.stdout == ""
    assert "matrix[1][1]" in proc.stderr and "not finite" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_finite_state_exits_validation(fixtures, tmp_path, capsys):
    path = tmp_path / "nanstate.json"
    path.write_text(json.dumps({"density": [[[1, 0], [0, 0]], [[0, 0], [float("nan"), 0]]]}))
    argv = ["compute", "--scheme", "kirkwood", "--obs", fixtures["j1"], "--obs", fixtures["j2"],
            "--state", str(path)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "not finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzz: every command line ends in exit code 0-3, never in a traceback

KD_WORD = [{"var": 0, "coeff": 1.0, "obs": 0}, {"var": 1, "coeff": 1.0, "obs": 1}]
FUZZ_DOCS = {
    "obs_spin_one": {"builtin": "spin:1", "component": 3},
    "obs_float_component": {"builtin": "spin:1/2", "component": 1.0},
    "obs_bad_spin": {"builtin": "spin:x"},
    # Fraction("1/0") divides by zero; 1e400 is an exact integer past the float range
    "obs_spin_zero_denominator": {"builtin": "spin:1/0"},
    "obs_spin_huge": {"builtin": "spin:1e400"},
    "obs_list": [1, 2],
    "state_theta_x": {"bloch": {"theta": "x"}},
    "state_theta_null": {"bloch": {"theta": None}},
    "state_m_out_of_range": {"bloch": {"theta": 0.5, "m": 2}},
    "scheme_weight_string": {"terms": [{"weight": ["a", 0], "word": KD_WORD}]},
    "scheme_word_int": {"terms": [{"weight": [1, 0], "word": 5}]},
    "scheme_terms_int": {"terms": 5},
    "scheme_nan_weight": {"terms": [{"weight": [float("nan"), 0], "word": KD_WORD}]},
    "scheme_alpha_string": {"name": "s_alpha", "alpha": "x"},
    "scheme_alpha_nan": {"name": "margenau_hill", "alpha": float("nan")},
    "scheme_nodes_string": {"name": "born_jordan", "nodes": "x"},
    "scheme_nodes_zero": {"name": "born_jordan", "nodes": 0},
    # 1 followed by 400 zeros: leggauss would overflow building its companion matrix
    "scheme_nodes_huge": {"name": "born_jordan", "nodes": 10**400},
    # JSON true and false are no numbers, though Python reads them as 1 and 0
    "obs_bool_component": {"builtin": "spin:1/2", "component": True},
    "obs_bool_dim": {"matrix": [[[1, 0]]], "dim": True},
    "state_bool_entry": {"density": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]},
    "state_bool_theta": {"bloch": {"theta": True}},
    "state_bool_m": {"bloch": {"theta": 0.5, "m": True}},
    "scheme_bool_weight": {"terms": [{"weight": [True, 0], "word": KD_WORD}]},
    "scheme_bool_var": {"terms": [{"weight": [1, 0], "word": [{**KD_WORD[0], "var": False}, KD_WORD[1]]}]},
    "scheme_bool_coeff": {"terms": [{"weight": [1, 0], "word": [{**KD_WORD[0], "coeff": True}, KD_WORD[1]]}]},
    "scheme_bool_obs": {"terms": [{"weight": [1, 0], "word": [{**KD_WORD[0], "obs": False}, KD_WORD[1]]}]},
    "scheme_bool_alpha": {"name": "s_alpha", "alpha": True},
    "scheme_bool_nodes": {"name": "born_jordan", "nodes": True},
    # strings where a number belongs and fractions where an integer does,
    # which a cast would read as 0.5, 3 nodes, var 0 and 1.0
    "state_string_theta": {"bloch": {"theta": "0.5"}},
    "scheme_fraction_nodes": {"name": "born_jordan", "nodes": 3.7},
    "scheme_fraction_var": {"terms": [{"weight": [1, 0], "word": [{**KD_WORD[0], "var": 0.9}, KD_WORD[1]]}]},
    "scheme_string_coeff": {"terms": [{"weight": [1, 0], "word": [{**KD_WORD[0], "coeff": "1"}, KD_WORD[1]]}]},
}


@pytest.fixture(scope="module")
def fuzz_files(fixtures):
    root = fixtures["root"]
    kept = ("j1", "j2", "z_plus", "y_plus", "bad_json", "non_hermitian", "scheme_custom")
    paths = {name: fixtures[name] for name in kept}
    for name, doc in FUZZ_DOCS.items():
        path = root / f"fuzz_{name}.json"
        path.write_text(json.dumps(doc))  # NaN is written as the token NaN
        paths[name] = str(path)
    paths["missing"] = str(root / "nope.json")
    paths["out_in_missing_dir"] = str(root / "no_such_dir" / "out.csv")
    return paths


def exit_code(argv):
    """``cli.main`` in-process with its output discarded; argparse's own exit counts as 2.

    Warnings are errors, as under ``python -W error``.
    """
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                assert exc.code == 2, argv
                return 2


SCHEME_TOKENS = [
    "kirkwood", "wigner", "s_alpha:0.25", "s_alpha:0.5", "margenau_hill:0.3", "born_jordan:3",
    "s_alpha:nan", "s_alpha:inf", "s_alpha:-inf", "s_alpha:1e308", "s_alpha:x",
    "margenau_hill:nan", "margenau_hill:inf", "born_jordan:0", "born_jordan:-2",
    "born_jordan:1e308", "born_jordan:nan", "kirkwood:nan", "no_such_scheme",
]
GRIDS = [
    "-1:1:3,0:2:2", "0:nan:3,0:1:2", "0:1:3,-inf:1:2", "inf:inf:1,0:1:1", "0:1:0,0:1:2",
    "0:1:-3,0:1:2", "0:1:3", "a:b:c,0:1:2", "0:1,0:1:2", "0:1:2,0:1:2,0:1:2",
    "0:1:9223372036854775807,0:1:2",
]
STEP_FLAGS = {
    "degeneracy": ["--n", "--na", "--nb"],
    "scan-realness": ["--theta-steps", "--phi-steps", "--m-steps"],
}
TOL_FLAGS = ["--tol-support", "--tol-real"]
# the flags each command takes: the names its parsed defaults hold
FLAGS = {command: set(vars(cli.build_parser().parse_args([command]))) for command in cli.COMMANDS}
TOLERANCES = ["0", "1e-10", "0.3", "nan", "inf", "-1", "-0.0", "x"]


@st.composite
def command_lines_to_fuzz(draw, files):
    command = draw(st.sampled_from(cli.COMMANDS))
    doc = st.sampled_from(sorted(files)).map(files.get)
    steps = st.integers(-3, 6).map(str)
    options = [
        st.tuples(st.just("--format"), st.sampled_from(["csv", "json"])),
        st.tuples(st.just("--out"), st.just(files["out_in_missing_dir"])),
    ]
    # only flags the command accepts, so that few draws end in argparse's exit
    if "scheme" in FLAGS[command]:
        options.append(st.tuples(st.just("--scheme"), st.sampled_from(SCHEME_TOKENS)))
    doc_flags = [f"--{name}" for name in ("scheme", "obs", "state") if name in FLAGS[command]]
    if doc_flags:
        options.append(st.tuples(st.sampled_from(doc_flags), doc))
    if command == "charfunc":
        options.append(st.tuples(st.just("--grid"), st.sampled_from(GRIDS)))
    if command in STEP_FLAGS:  # weighted up: they are all these commands take
        options += [st.tuples(st.sampled_from(STEP_FLAGS[command]), steps)] * 2
    if command == "degeneracy":  # 2 n^2 - 1 past int64 at n = 4e9 and past the float range at 1e200
        options.append(st.tuples(st.just("--n"), st.sampled_from([4 * 10**9, 10**200]).map(str)))
    if command == "verify":
        options.append(st.tuples(st.sampled_from(TOL_FLAGS), st.sampled_from(TOLERANCES)))
    # most draws start from a well-formed spin-1/2 problem, so that the
    # later stages, not only the parsers, see the drawn values
    argv = [command]
    if draw(st.integers(0, 3)):
        if command == "degeneracy":
            argv += ["--n=3", "--na=3", "--nb=2"]
        elif command != "scan-realness":
            argv += ["--obs", files["j1"], "--obs", files["j2"]]
            argv += ["--state", files["y_plus"]] if "state" in FLAGS[command] else []
            argv += ["--scheme", draw(st.sampled_from(SCHEME_TOKENS))]
            argv += ["--grid=0:1:2,0:1:2"] if command == "charfunc" else []
    for flag, value in draw(st.lists(st.one_of(options), max_size=5)):
        argv.append(f"{flag}={value}")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_fuzz_exits_with_a_code(fuzz_files, data):
    argv = data.draw(command_lines_to_fuzz(fuzz_files), label="argv")
    assert exit_code(argv) in (0, 1, 2, 3)


INVALID_INPUTS = [
    (["compute", "--scheme=s_alpha:nan"], cli.EXIT_VALIDATION),
    (["compute", "--scheme=s_alpha:inf"], cli.EXIT_VALIDATION),
    (["compute", "--scheme=s_alpha:1e308"], cli.EXIT_VALIDATION),
    (["compute", "--scheme=born_jordan:0"], cli.EXIT_VALIDATION),
    (["compute", "--scheme=margenau_hill:nan"], cli.EXIT_VALIDATION),
    (["compute", "--scheme", "scheme_alpha_string"], cli.EXIT_VALIDATION),
    (["compute", "--scheme", "scheme_alpha_nan"], cli.EXIT_VALIDATION),
    (["compute", "--scheme", "scheme_nodes_string"], cli.EXIT_VALIDATION),
    (["compute", "--scheme", "scheme_nodes_zero"], cli.EXIT_VALIDATION),
    (["compute", "--scheme", "scheme_nodes_huge"], cli.EXIT_VALIDATION),
    (["compute", "--scheme=born_jordan:1" + "0" * 30], cli.EXIT_VALIDATION),
    (["compute", "--scheme", "scheme_weight_string"], cli.EXIT_VALIDATION),
    (["compute", "--scheme", "scheme_word_int"], cli.EXIT_VALIDATION),
    (["compute", "--scheme", "scheme_terms_int"], cli.EXIT_VALIDATION),
    (["compute", "--scheme", "scheme_nan_weight"], cli.EXIT_VALIDATION),
    (["compute", "--scheme=kirkwood", "--state", "state_theta_x"], cli.EXIT_VALIDATION),
    (["compute", "--scheme=kirkwood", "--state", "state_theta_null"], cli.EXIT_VALIDATION),
    (["compute", "--scheme=kirkwood", "--obs", "obs_float_component"], cli.EXIT_VALIDATION),
    (["compute", "--scheme=kirkwood", "--out", "out_in_missing_dir"], cli.EXIT_PARSE),
    (["charfunc", "--scheme=kirkwood", "--grid=0:nan:3,0:1:2"], cli.EXIT_VALIDATION),
    (["charfunc", "--scheme=kirkwood", "--grid=0:1:3,-inf:1:2"], cli.EXIT_VALIDATION),
    # finite ends whose span overflows: linspace would give NaN frequencies
    (["charfunc", "--scheme=kirkwood", "--grid=-1e308:1e308:3,0:1:2"], cli.EXIT_VALIDATION),
    # step counts no array can index: refused before numpy's own errors
    (["charfunc", "--scheme=kirkwood", "--grid=0:1:4611686018427387904,0:1:2"], cli.EXIT_VALIDATION),
    (["charfunc", "--scheme=kirkwood", "--grid=0:1:9223372036854775807,0:1:2"], cli.EXIT_VALIDATION),
    (["charfunc", "--scheme=kirkwood", "--grid=0:1:100000000000000000000,0:1:2"], cli.EXIT_VALIDATION),
    (["scan-realness", "--theta-steps=-1"], cli.EXIT_VALIDATION),
    (["scan-realness", "--phi-steps=-2"], cli.EXIT_VALIDATION),
    (["scan-realness", "--m-steps=-3"], cli.EXIT_VALIDATION),
    (["scan-realness", "--theta-steps=1" + "0" * 200], cli.EXIT_VALIDATION),
    (["scan-realness", "--theta-steps", "4000000000"], cli.EXIT_VALIDATION),
    (["verify", "--scheme=s_alpha:0.5", "--tol-support=nan"], cli.EXIT_VALIDATION),
    (["verify", "--scheme=s_alpha:0.5", "--tol-support=-1"], cli.EXIT_VALIDATION),
    (["verify", "--scheme=s_alpha:0.5", "--tol-support=inf"], cli.EXIT_VALIDATION),
    (["verify", "--scheme=s_alpha:0.5", "--tol-real=nan"], cli.EXIT_VALIDATION),
    (["verify", "--scheme=s_alpha:0.5", "--tol-real=-1"], cli.EXIT_VALIDATION),
    (["verify", "--scheme=s_alpha:0.5", "--tol-real=inf"], cli.EXIT_VALIDATION),
    (["degeneracy", "--n=4000000000", "--na=1", "--nb=1"], cli.EXIT_OK),
    (["degeneracy", f"--n={10**200}", "--na=1", "--nb=1"], cli.EXIT_VALIDATION),
]
# a JSON true or false where a number belongs, and the field its error names
BOOL_FIELDS = {
    "obs_bool_component": ("--obs", ":component"),
    "obs_bool_dim": ("--obs", ":dim"),
    "state_bool_entry": ("--state", ":density[0][0]"),
    "state_bool_theta": ("--state", ":bloch:theta"),
    "state_bool_m": ("--state", ":bloch:m"),
    "scheme_bool_weight": ("--scheme", ":terms[0]:weight"),
    "scheme_bool_var": ("--scheme", ":terms[0]:word[0]:var"),
    "scheme_bool_coeff": ("--scheme", ":terms[0]:word[0]:coeff"),
    "scheme_bool_obs": ("--scheme", ":terms[0]:word[0]:obs"),
    "scheme_bool_alpha": ("--scheme", ":alpha"),
    "scheme_bool_nodes": ("--scheme", ":nodes"),
}
# a JSON string or fraction that a cast would accept, and the field its error names
CAST_FIELDS = {
    "state_string_theta": ("--state", ":bloch:theta"),
    "scheme_fraction_nodes": ("--scheme", ":nodes"),
    "scheme_fraction_var": ("--scheme", ":terms[0]:word[0]:var"),
    "scheme_string_coeff": ("--scheme", ":terms[0]:word[0]:coeff"),
}
# a spin token that parses to no spin matrices, and the field its error names
SPIN_FIELDS = {
    "obs_spin_zero_denominator": ("--obs", ":builtin"),
    "obs_spin_huge": ("--obs", ":builtin"),
}
FIELD_ARGV = {
    doc: ["compute", flag, doc] + ([] if flag == "--scheme" else ["--scheme=kirkwood"])
    for doc, (flag, _) in (BOOL_FIELDS | CAST_FIELDS | SPIN_FIELDS).items()
}
INVALID_INPUTS += [(FIELD_ARGV[doc], cli.EXIT_VALIDATION) for doc in BOOL_FIELDS | SPIN_FIELDS]


def _filled(fuzz_files, argv):
    """A bare file name names a fuzz document; spin-1/2 observables and a
    state fill in what the command line leaves out, where the command takes them."""
    argv = [fuzz_files.get(a, a) for a in argv]
    if argv[0] != "scan-realness":
        if "--obs" not in argv and "obs" in FLAGS[argv[0]]:
            argv += ["--obs", fuzz_files["j1"], "--obs", fuzz_files["j2"]]
        if "--state" not in argv and "state" in FLAGS[argv[0]]:
            argv += ["--state", fuzz_files["y_plus"]]
    if "--obs" in argv and argv.count("--obs") == 1:
        argv += ["--obs", fuzz_files["j2"]]
    return argv


@pytest.mark.parametrize(
    "argv, want", INVALID_INPUTS, ids=[" ".join(argv) for argv, _ in INVALID_INPUTS]
)
def test_invalid_inputs_exit_with_their_code(fuzz_files, argv, want):
    assert exit_code(_filled(fuzz_files, argv)) == want


def _assert_field_named(fuzz_files, capsys, doc, field):
    assert cli.main(_filled(fuzz_files, FIELD_ARGV[doc])) == cli.EXIT_VALIDATION
    assert f"validation error: {fuzz_files[doc]}{field}: " in capsys.readouterr().err


def test_node_counts_past_the_cap_name_their_field(fuzz_files, capsys):
    nodes = "1" + "0" * 30
    cap = f"bad born_jordan parameter: at most {distributions.MAX_QUADRATURE_NODES} quadrature nodes"
    argv = _filled(fuzz_files, ["compute", f"--scheme=born_jordan:{nodes}"])
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert f"validation error: --scheme: {cap}, got {nodes}\n" in capsys.readouterr().err
    argv = _filled(fuzz_files, ["compute", "--scheme", "scheme_nodes_huge"])
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"validation error: {fuzz_files['scheme_nodes_huge']}:name: {cap}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("message", ["Unable to allocate 16.0 GiB for an array", ""])
def test_memory_error_exits_1_with_one_line(fuzz_files, capsys, monkeypatch, message):
    def exhausted(args):
        raise MemoryError(message)

    monkeypatch.setitem(cli.RUNNERS, "compute", exhausted)
    assert cli.main(_filled(fuzz_files, ["compute", "--scheme=kirkwood"])) == cli.EXIT_NUMERICAL
    want = f"error: out of memory: {message}\n" if message else "error: out of memory\n"
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("doc", BOOL_FIELDS)
def test_json_booleans_name_their_field(fuzz_files, capsys, doc):
    _assert_field_named(fuzz_files, capsys, doc, BOOL_FIELDS[doc][1])


@pytest.mark.parametrize("doc", CAST_FIELDS)
def test_json_strings_and_fractions_name_their_field(fuzz_files, capsys, doc):
    # each of these used to be cast and run, with exit code 0
    _assert_field_named(fuzz_files, capsys, doc, CAST_FIELDS[doc][1])


@pytest.mark.parametrize("doc", SPIN_FIELDS)
def test_spin_tokens_without_spin_matrices_name_their_field(fuzz_files, capsys, doc):
    # each of these used to end in a traceback
    _assert_field_named(fuzz_files, capsys, doc, SPIN_FIELDS[doc][1])
