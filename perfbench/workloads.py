"""Benchmark workloads: seeded inputs, the ops of each mix, and their checks.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned. The ops of a workload run in a fixed
cyclic order, so a run of whole cycles always has the same composition.

A workload has three steps:

- ``inputs(seed)``: raw arrays and parameters made from the seed. Never timed.
- ``prepare(inputs)``: the program-side preparation, timed in fresh
  processes as ``setup_s`` together with ``import quasijoint``.
- ``ops(inputs, prepared, ctx)``: the cycle of ops. Each op is a callable
  taking a tracer; it rebuilds its package objects from raw arrays, calls
  the package, and checks the outputs. References for the checks are
  computed here, outside any timed region.

An op raises ``WrongResult`` when an output fails a check and
``UnexpectedExit`` when a subprocess exits with an unexpected code; any
other exception is an unexpected error. All three count as failed ops.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import quasijoint as qj
from quasijoint.errors import RankDeficientError

POOL = 3  # distinct seeded inputs per slot of a mix; ops cycle through them
TOL = 1e-9  # weights, marginals, expectations and characteristic values
RESIDUAL_TOL = 1e-8  # tomography round trip, max-norm
IMAG_TOL = 1e-10  # the package's default realness and support weight tolerance
COORD_TOL = 1e-9  # the package's default support coordinate tolerance

HERMITIAN = "quantum.HermitianObservable"
EIGENSYSTEM = "linalg.eigensystem"
DENSITY = "quantum.DensityState"
BUILD = "distributions.build_atoms"
EVALUATE = "distributions.evaluate_distribution"
MARGINAL = "distributions.marginal"
BORN = "distributions.born_distribution"
QUASI_EXP = "distributions.quasi_expectation"
SUPPORT = "analysis.verify_support"
IS_REAL = "analysis.is_real"
RECON_MAP = "analysis.reconstruction_map"
RECON_STATE = "analysis.reconstruct_state"
CHARFUNC = "distributions.characteristic_function"
WIGNER_EST = "distributions.wigner_density_estimate"
CHECK = "bench.check"
ATOMS_REPLAY = "analysis.reconstruction_map.atoms_replay"
PINV_REPLAY = "linalg.real_rank_and_pinv.replay"


class WrongResult(Exception):
    """An output of the package failed one of the benchmark's checks."""


class UnexpectedExit(Exception):
    """A CLI subprocess exited with a code other than the expected one."""


@dataclass
class Op:
    label: str
    run: Callable  # run(tracer) -> None


@dataclass
class Context:
    """Where the run lives, and what its CLI children report back."""

    root: Path
    workdir: Path
    child_rss_kb: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    prepare: Callable
    ops: Callable
    traced_extra: Callable = None  # run once per traced cycle, outside the ops


# ---------------------------------------------------------------------------
# seeded raw inputs


def _hermitian(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def _ginibre_state(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / m.trace().real


def _bloch_params(rng):
    return (rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi), rng.uniform(0.0, 1.0))


def _spin_pair(j_times_two):
    spin = qj.spin_operators(j_times_two)
    return spin.j1.matrix.copy(), spin.j2.matrix.copy()


def _scheme(token):
    name, _, arg = token.partition(":")
    if name == "kirkwood":
        return qj.scheme_kirkwood(2)
    if name == "wigner":
        return qj.WignerScheme(2)
    if name == "born_jordan":
        return qj.scheme_born_jordan(int(arg))
    if name == "alternating":
        return qj.scheme_alternating([0.3, 0.7], [0.6, 0.4])
    return {"s_alpha": qj.scheme_s_alpha, "margenau_hill": qj.scheme_margenau_hill}[name](
        float(arg)
    )


def _schemes(tokens):
    return {t: _scheme(t) for t in sorted(set(tokens))}


# ---------------------------------------------------------------------------
# shared op steps and checks


def _observables(tr, a, b):
    with tr.span(HERMITIAN):
        obs = (qj.HermitianObservable(a, "A"), qj.HermitianObservable(b, "B"))
    with tr.span(EIGENSYSTEM):
        for o in obs:
            o.eig
    return obs


def _build(tr, spec, obs):
    with tr.span(BUILD):
        atoms = qj.build_atoms(spec, obs)
    if tr.enabled:
        n = obs[0].dim
        tr.add(BUILD + ".candidates", sum(
            math.prod(obs[f.obs].eig.eigenvalues.size for f in word) for _, word in spec.terms
        ))
        tr.add(BUILD + ".atoms", len(atoms))
        tr.peak(BUILD + ".atom_mb", len(atoms) * n * n * 16 / 1e6)
    return atoms


def _max_deviation(a, b):
    """Largest weight difference between two 1-d distributions, by point."""
    match = np.abs(a.points[:, 0][:, None] - b.points[:, 0][None, :]) <= TOL
    devs = [np.abs(a.weights[:, None] - b.weights[None, :])[match]]
    devs.append(np.abs(a.weights[~match.any(axis=1)]))
    devs.append(np.abs(b.weights[~match.any(axis=0)]))
    return max((float(d.max()) for d in devs if d.size), default=0.0)


def _check_identity(atoms):
    defect = atoms.identity_defect()
    if not defect <= TOL:
        raise WrongResult(f"atoms sum to the identity only within {defect:.3e}")


def _on_grid(spec):
    """Support theorem: one factor per variable in every word puts all weight on eigenvalues."""
    return all(sorted(f.var for f in word) == list(range(spec.n_vars)) for _, word in spec.terms)


def _off_grid_count(dist, obs):
    """Points with weight above the support tolerance and a coordinate off the spectrum."""
    off = np.zeros(len(dist), dtype=bool)
    for v, o in enumerate(obs):
        gap = np.abs(dist.points[:, v][:, None] - o.eigenvalues[None, :]).min(axis=1)
        off |= gap > COORD_TOL
    return int((off & (np.abs(dist.weights) > IMAG_TOL)).sum())


def _checked_distribution(tr, atoms, obs, rho, on_grid):
    """evaluate_distribution, both marginals against Born, and the support check.

    ``verify_support`` must flag exactly the weighted off-spectrum points,
    and there must be none when the scheme is ``on_grid``.
    """
    with tr.span(EVALUATE):
        dist = qj.evaluate_distribution(atoms, rho)
    pairs = []
    for v, o in enumerate(obs):
        with tr.span(MARGINAL):
            marg = qj.marginal(dist, v)
        with tr.span(BORN):
            born = qj.born_distribution(o, rho)
        pairs.append((marg, born))
    with tr.span(SUPPORT):
        support = qj.verify_support(dist, obs)
    with tr.span(CHECK):
        total = complex(dist.weights.sum())
        if not abs(total - 1.0) <= TOL:
            raise WrongResult(f"weights sum to {total}")
        for v, (marg, born) in enumerate(pairs):
            dev = _max_deviation(marg, born)
            if not dev <= TOL:
                raise WrongResult(f"marginal {v} deviates from Born by {dev:.3e}")
        off_grid = _off_grid_count(dist, obs)
        if len(support.offending) != off_grid:
            raise WrongResult(f"verify_support flags {len(support.offending)} points, not {off_grid}")
        if on_grid and off_grid:
            raise WrongResult(f"{off_grid} weighted points off the eigenvalue grid")
    return dist


# ---------------------------------------------------------------------------
# atoms_build: building atoms is the work

ATOMS_MIX = (
    [("kirkwood", n) for n in (8, 16, 32)]
    + [("margenau_hill:0.3", n) for n in (8, 16, 32)]
    + [("s_alpha:0.25", n) for n in (8, 16, 24)]
    + [("born_jordan:21", n) for n in (4, 8)]
    + [("alternating", n) for n in (4, 6)]
)


def atoms_build_inputs(seed):
    rng = np.random.default_rng(seed)
    return [
        [(_hermitian(n, rng), _hermitian(n, rng), _ginibre_state(n, rng)) for _ in range(POOL)]
        for _, n in ATOMS_MIX
    ]


def atoms_build_prepare(inputs):
    return _schemes(t for t, _ in ATOMS_MIX)


def _atoms_op(spec, pool, tr):
    a, b, raw_rho = next(pool)
    obs = _observables(tr, a, b)
    with tr.span(DENSITY):
        rho = qj.DensityState(raw_rho)
    atoms = _build(tr, spec, obs)
    with tr.span(CHECK):
        _check_identity(atoms)
    _checked_distribution(tr, atoms, obs, rho, _on_grid(spec))


def atoms_build_ops(inputs, schemes, ctx):
    return [
        Op(f"{token} N={n}", partial(_atoms_op, schemes[token], itertools.cycle(pool)))
        for (token, n), pool in zip(ATOMS_MIX, inputs)
    ]


# ---------------------------------------------------------------------------
# states_stream: atoms built once in set-up, read by many states

STREAM_PAIRS = (
    ("spin-1/2", "kirkwood"),
    ("spin-1", "margenau_hill:0.3"),
    ("random N=8", "s_alpha:0.25"),
    ("random N=16", "kirkwood"),
)
STREAM_MIX = (0, 1, 2, 2, 3)  # pair index per op: p50 mid N=16, p90 inside the N=8 ops
STATES_PER_PAIR = 16


def _xy(x, y):
    return x * y


def states_stream_inputs(seed):
    rng = np.random.default_rng(seed)
    pairs = [_spin_pair(1), _spin_pair(2), (_hermitian(8, rng), _hermitian(8, rng))]
    pairs.append((_hermitian(16, rng), _hermitian(16, rng)))
    states = [[_bloch_params(rng) for _ in range(STATES_PER_PAIR)]]
    for a, _ in pairs[1:]:
        states.append([_ginibre_state(a.shape[0], rng) for _ in range(STATES_PER_PAIR)])
    return pairs, states


def states_stream_prepare(inputs):
    pairs, _ = inputs
    prepared = []
    for (a, b), (_, token) in zip(pairs, STREAM_PAIRS):
        obs = (qj.HermitianObservable(a, "A"), qj.HermitianObservable(b, "B"))
        atoms = qj.build_atoms(_scheme(token), obs)
        prepared.append((obs, atoms, qj.quantize(_xy, atoms)))
    return prepared


def _stream_op(obs, atoms, q_xy, on_grid, states, tr):
    raw = next(states)
    with tr.span(DENSITY):
        rho = qj.bloch_state(*raw) if isinstance(raw, tuple) else qj.DensityState(raw)
    dist = _checked_distribution(tr, atoms, obs, rho, on_grid)
    with tr.span(IS_REAL):
        real = qj.is_real(dist)
    with tr.span(QUASI_EXP):
        value = qj.quasi_expectation(_xy, dist)
    with tr.span(CHECK):
        if real != bool(np.abs(dist.weights.imag).max() <= IMAG_TOL):
            raise WrongResult("is_real disagrees with the imaginary parts of the weights")
        want = complex(np.einsum("ij,ji->", q_xy, rho.matrix))
        if not abs(value - want) <= TOL * max(1.0, abs(want)):
            raise WrongResult(f"quasi_expectation {value} but Tr(quantize rho) {want}")


def states_stream_ops(inputs, prepared, ctx):
    _, states = inputs
    for obs, atoms, _ in prepared:
        _check_identity(atoms)
    pools = [itertools.cycle(s) for s in states]
    ops = []
    for k in STREAM_MIX:
        obs, atoms, q_xy = prepared[k]
        label, token = STREAM_PAIRS[k]
        on_grid = _on_grid(_scheme(token))
        ops.append(Op(f"{label} {token}", partial(_stream_op, obs, atoms, q_xy, on_grid, pools[k])))
    return ops


# ---------------------------------------------------------------------------
# tomography: reconstruction map, then four round trips

TOMO_MIX = [
    (token, n)
    for n in (2, 4, 8)
    for token in ("kirkwood", "s_alpha:0.25", "margenau_hill:0.5")
] + [("kirkwood", 16), ("s_alpha:0.25", 8), ("kirkwood", 16)]  # 13 ops: p50, p90 inside one kind
TOMO_RANK_DEFICIENT = ("s_alpha:0.5", 2)  # rank 2 < 3 for every pair
TOMO_STATES = 4


def tomography_inputs(seed):
    rng = np.random.default_rng(seed)
    out = []
    for _, n in TOMO_MIX + [TOMO_RANK_DEFICIENT]:
        pool = []
        for _ in range(POOL):
            a, b = _hermitian(n, rng), _hermitian(n, rng)
            pool.append((a, b, [_ginibre_state(n, rng) for _ in range(TOMO_STATES)]))
        out.append(pool)
    return out


def tomography_prepare(inputs):
    return _schemes(t for t, _ in TOMO_MIX + [TOMO_RANK_DEFICIENT])


def _tomography_op(spec, pool, expect_full_rank, tr):
    a, b, raw_states = next(pool)
    obs = _observables(tr, a, b)
    with tr.span(RECON_MAP):
        rmap = qj.reconstruction_map(obs[0], obs[1], spec)
    if tr.enabled:
        tr.add(RECON_MAP + ".map_rows", rmap.map_matrix.shape[0])
        tr.add(RECON_MAP + ".map_cols", rmap.map_matrix.shape[1])
        with tr.span(ATOMS_REPLAY):
            qj.build_atoms(spec, obs)
        with tr.span(PINV_REPLAY):
            qj.real_rank_and_pinv(rmap.map_matrix)
    for raw in raw_states:
        with tr.span(DENSITY):
            rho = qj.DensityState(raw)
        with tr.span(EVALUATE):
            dist = qj.evaluate_distribution(rmap.atoms, rho)
        if not expect_full_rank:
            with tr.span(RECON_STATE):
                try:
                    qj.reconstruct_state(rmap, dist)
                except RankDeficientError:
                    return
            raise WrongResult(f"rank {rmap.rank} map reconstructed a state")
        with tr.span(RECON_STATE):
            rec = qj.reconstruct_state(rmap, dist)
        with tr.span(CHECK):
            residual = float(np.abs(rec.matrix - rho.matrix).max())
            if not residual <= RESIDUAL_TOL:
                raise WrongResult(f"round-trip residual {residual:.3e}")


def tomography_ops(inputs, schemes, ctx):
    mix = [(t, n, True) for t, n in TOMO_MIX] + [(*TOMO_RANK_DEFICIENT, False)]
    return [
        Op(
            f"{token} N={n}" + ("" if full else " rank-deficient"),
            partial(_tomography_op, schemes[token], itertools.cycle(pool), full),
        )
        for (token, n, full), pool in zip(mix, inputs)
    ]


# ---------------------------------------------------------------------------
# charfunc: characteristic functions on a 21 x 21 grid

CHAR_AXIS = np.linspace(-6.0, 6.0, 21)
CHAR_POINTS = np.array([(s, t) for s in CHAR_AXIS for t in CHAR_AXIS])
CHAR_ORIGIN = 10 * 21 + 10
CHAR_MIX = [
    (token, pair, n)
    for token in ("kirkwood", "s_alpha:0.25", "wigner")
    for pair, n in (("spin-1/2", 2), ("random", 4), ("random", 8))
] + [
    ("born_jordan:201", "spin-1/2", 2),
    ("born_jordan:201", "random", 4),
    ("s_alpha:0.25", "spin-1", 3),
]
WIGNER_GRID = np.linspace(-1.0, 1.0, 5)
WIGNER_STEPS = 61


def charfunc_inputs(seed):
    rng = np.random.default_rng(seed)
    fixed = {"spin-1/2": _spin_pair(1), "spin-1": _spin_pair(2)}
    out = []
    for _, pair, n in CHAR_MIX:
        pool = []
        for _ in range(POOL):
            a, b = fixed[pair] if pair in fixed else (_hermitian(n, rng), _hermitian(n, rng))
            pool.append((a, b, _ginibre_state(n, rng)))
        out.append(pool)
    estimate_pool = [(*fixed["spin-1/2"], _ginibre_state(2, rng)) for _ in range(POOL)]
    return out, estimate_pool


def charfunc_prepare(inputs):
    return _schemes(t for t, _, _ in CHAR_MIX)


def _born_characteristic(a, rho, s):
    vals, vecs = np.linalg.eigh(a)
    probs = np.einsum("ik,ij,jk->k", vecs.conj(), rho, vecs).real
    return np.exp(-1j * np.outer(s, vals)) @ probs


def _charfunc_reference(spec, a, b, rho):
    """Axis values from numpy's eigh and, for product schemes, the atom side."""
    axes = (_born_characteristic(a, rho, CHAR_AXIS), _born_characteristic(b, rho, CHAR_AXIS))
    full = None
    if not isinstance(spec, qj.WignerScheme):
        obs = (qj.HermitianObservable(a, "A"), qj.HermitianObservable(b, "B"))
        dist = qj.evaluate_distribution(qj.build_atoms(spec, obs), qj.DensityState(rho))
        full = dist.characteristic(CHAR_POINTS)
    return axes, full


def _charfunc_op(spec, pool, tr):
    a, b, raw_rho, (axes, full) = next(pool)
    obs = _observables(tr, a, b)
    with tr.span(DENSITY):
        rho = qj.DensityState(raw_rho)
    with tr.span(CHARFUNC):
        chi = qj.characteristic_function(spec, obs, rho, CHAR_POINTS)
    if tr.enabled:
        word_lengths = sum(len(w) for _, w in spec.terms) if hasattr(spec, "terms") else 1
        tr.add(CHARFUNC + ".points", len(CHAR_POINTS))
        tr.add(CHARFUNC + ".factor_evals", len(CHAR_POINTS) * word_lengths)
    with tr.span(CHECK):
        grid = chi.reshape(21, 21)
        devs = {
            "chi(0)": abs(chi[CHAR_ORIGIN] - 1.0),
            "s axis": np.abs(grid[:, 10] - axes[0]).max(),
            "t axis": np.abs(grid[10, :] - axes[1]).max(),
        }
        if full is not None:
            devs["atom side"] = np.abs(chi - full).max()
        for what, dev in devs.items():
            if not dev <= TOL:
                raise WrongResult(f"characteristic function off by {dev:.3e} at {what}")


def _wigner_estimate_op(pool, tr):
    a, b, raw_rho = next(pool)
    obs = _observables(tr, a, b)
    with tr.span(DENSITY):
        rho = qj.DensityState(raw_rho)
    with tr.span(WIGNER_EST):
        density, meta = qj.wigner_density_estimate(
            obs, rho, WIGNER_GRID, WIGNER_GRID, s_steps=WIGNER_STEPS
        )
    with tr.span(CHECK):
        if density.shape != (5, 5) or not np.isfinite(density).all():
            raise WrongResult("density estimate has the wrong shape or non-finite values")
        if not meta.get("approximate"):
            raise WrongResult("density estimate is not flagged approximate")


def charfunc_ops(inputs, schemes, ctx):
    pools, estimate_pool = inputs
    ops = []
    for (token, pair, n), pool in zip(CHAR_MIX, pools):
        spec = schemes[token]
        refs = [(a, b, rho, _charfunc_reference(spec, a, b, rho)) for a, b, rho in pool]
        ops.append(Op(f"{token} {pair} N={n}", partial(_charfunc_op, spec, itertools.cycle(refs))))
    ops.append(Op("wigner_density_estimate", partial(_wigner_estimate_op, itertools.cycle(estimate_pool))))
    return ops


# ---------------------------------------------------------------------------
# cli: one `python -m quasijoint` subprocess per op

EXIT_OK, EXIT_PARSE, EXIT_VALIDATION = 0, 2, 3


def _spin_doc(spin, component):
    return {"builtin": f"spin:{spin}", "component": component}


def _matrix_doc(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def cli_inputs(seed):
    rng = np.random.default_rng(seed)
    theta, phi, m = _bloch_params(rng)
    files = {
        "half_x.json": _spin_doc("1/2", 1),
        "half_y.json": _spin_doc("1/2", 2),
        "one_x.json": _spin_doc("1", 1),
        "one_y.json": _spin_doc("1", 2),
        "state2.json": {"bloch": {"theta": theta, "phi": phi, "m": m}},
        "state3.json": {"density": _matrix_doc(_ginibre_state(3, rng))},
        "non_hermitian.json": {"matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]},
        "nan.json": {"matrix": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]},
    }
    texts = {name: json.dumps(doc) for name, doc in files.items()}
    texts["malformed.json"] = '{"builtin": "spin:1/2", "component": '
    return texts


def cli_prepare(inputs):
    return None


def _cli_commands():
    """(name, argv, expected exit code) in cycle order; paths are input file names."""
    half = ["--obs", "half_x.json", "--obs", "half_y.json"]
    one = ["--obs", "one_x.json", "--obs", "one_y.json"]
    return [
        ("compute", ["compute", "--scheme", "kirkwood", *half, "--state", "state2.json"], EXIT_OK),
        ("marginals", ["marginals", "--scheme", "margenau_hill:0.3", *one, "--state", "state3.json"], EXIT_OK),
        ("tomography", ["tomography", "--scheme", "kirkwood", *one, "--state", "state3.json"], EXIT_OK),
        ("rank", ["rank", "--scheme", "s_alpha:0.25", *one], EXIT_OK),
        ("verify", ["verify", "--scheme", "kirkwood", *half, "--state", "state2.json"], EXIT_OK),
        ("charfunc", ["charfunc", "--scheme", "born_jordan:21", "--grid=-3:3:11,-3:3:11", *half,
                      "--state", "state2.json"], EXIT_OK),
        ("degeneracy", ["degeneracy", "--n", "3", "--na", "3", "--nb", "2"], EXIT_OK),
        ("scan-realness", ["scan-realness"], EXIT_OK),
        ("scan-realness", ["scan-realness"], EXIT_OK),  # the slowest command twice: p90 inside it
        ("malformed_json", ["compute", "--scheme", "kirkwood", "--obs", "malformed.json",
                            "--obs", "half_y.json", "--state", "state2.json"], EXIT_PARSE),
        ("non_hermitian", ["compute", "--scheme", "kirkwood", "--obs", "non_hermitian.json",
                           "--obs", "half_y.json", "--state", "state2.json"], EXIT_VALIDATION),
        ("nan_matrix", ["compute", "--scheme", "kirkwood", "--obs", "nan.json",
                        "--obs", "half_y.json", "--state", "state2.json"], EXIT_VALIDATION),
    ]


def _resolve(ctx, argv):
    return [str(ctx.workdir / a) if a.endswith(".json") else a for a in argv]


def spawn(ctx, args):
    """Run ``python <args>`` with the checkout's ``src`` on the path.

    Returns (exit code, stdout bytes, peak RSS of the child in KiB, stderr tail).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ctx.root / "src"), env.get("PYTHONPATH")) if p
    )
    err_path = ctx.workdir / "stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=err, env=env, cwd=ctx.root
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss, err_path.read_bytes()[-300:]


def _capture_in_process(argv):
    """stdout of ``cli.main`` run in this process, or None if it did not exit 0."""
    from quasijoint import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # the run's own subprocess op reports the failure
        return None
    return out.getvalue().encode() if code == EXIT_OK else None


def _cli_op(ctx, name, argv, want_code, want_stdout, tr):
    with tr.span("cli." + name):
        code, out, rss_kb, err = spawn(ctx, ["-m", "quasijoint", *argv])
    ctx.child_rss_kb.append(rss_kb)
    if tr.enabled:
        tr.add("cli.stdout_bytes", len(out))
    with tr.span(CHECK):
        if code != want_code:
            raise UnexpectedExit(f"exit {code}, expected {want_code}: {err.decode(errors='replace')}")
        if out != want_stdout:
            raise WrongResult("stdout differs from the in-process run")


def cli_ops(inputs, prepared, ctx):
    for name, text in inputs.items():
        (ctx.workdir / name).write_text(text)
    ops = []
    for name, argv, want_code in _cli_commands():
        argv = _resolve(ctx, argv)
        want_stdout = _capture_in_process(argv) if want_code == EXIT_OK else b""
        ops.append(Op(name, partial(_cli_op, ctx, name, argv, want_code, want_stdout)))
    return ops


def cli_traced_extra(ctx, tr):
    """Interpreter start and package import, each in a fresh process."""
    with tr.span("cli.interpreter"):
        spawn(ctx, ["-c", "pass"])
    with tr.span("cli.import"):
        spawn(ctx, ["-c", "import quasijoint.cli"])


WORKLOADS = {
    "atoms_build": Workload(atoms_build_inputs, atoms_build_prepare, atoms_build_ops),
    "states_stream": Workload(states_stream_inputs, states_stream_prepare, states_stream_ops),
    "tomography": Workload(tomography_inputs, tomography_prepare, tomography_ops),
    "charfunc": Workload(charfunc_inputs, charfunc_prepare, charfunc_ops),
    "cli": Workload(cli_inputs, cli_prepare, cli_ops, cli_traced_extra),
}
