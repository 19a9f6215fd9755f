"""Command-line front end.

Reads observables, states and schemes from JSON, runs the engine, and
writes CSV or JSON tables with deterministic formatting (17 significant
digits, lexicographically sorted support) and stable exit codes:

    0  success
    1  numerical failure (rank-deficient tomography, no atomic form)
    2  parse error (unreadable file, malformed JSON)
    3  validation error (well-formed input violating a constraint)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, distributions, linalg, quantum
from .errors import (
    DomainError,
    NotHermitianError,
    ParseError,
    QuasiJointError,
    ValidationError,
)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3

# most states one scan-realness run evaluates: theta x phi x m steps
MAX_SCAN_STATES = 10**6

SCHEME_NAMES = ("kirkwood", "s_alpha", "margenau_hill", "born_jordan", "wigner")


def fmt_g(x) -> str:
    """Fixed 17-significant-digit decimal formatting."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# input parsing


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _is_number(value) -> bool:
    """JSON numbers only: Python counts true and false as the ints 1 and 0."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_number(value, where: str, *, integral: bool = False):
    """The value, if it is a JSON number, and an integer where ``integral`` asks for one.

    Strings, true and false, and fractions where an integer belongs are
    rejected, not cast.
    """
    if not _is_number(value) or (integral and not isinstance(value, int)):
        kind = "an integer" if integral else "a number"
        raise ValidationError(f"expected {kind}, got {json.dumps(value)}", field=where)
    return value


def _parse_complex_matrix(node, where: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise ValidationError("expected a nonempty list of rows", field=where)
    n = len(node)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(
                f"expected {n} entries in row {i} of a square matrix",
                field=f"{where}[{i}]",
            )
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(_is_number(v) for v in entry)
            ):
                raise ValidationError(
                    "matrix entries must be [re, im] number pairs",
                    field=f"{where}[{i}][{j}]",
                )
            out[i, j] = complex(entry[0], entry[1])
    return out


def _spin_component(token: str, component, where: str) -> quantum.HermitianObservable:
    try:
        j = Fraction(token.split(":", 1)[1])
    except (IndexError, ValueError, ZeroDivisionError) as exc:  # "spin:1/0" divides by zero
        raise ValidationError(f"cannot parse spin token {token!r}", field=where) from exc
    j_times_two = 2 * j
    if j_times_two.denominator != 1 or j_times_two < 1:
        raise ValidationError(f"spin must be a positive multiple of 1/2, got {j}", field=where)
    if component not in (1, 2, 3):
        raise ValidationError(f"component must be 1, 2 or 3, got {component}", field=where)
    try:
        triple = quantum.spin_operators(int(j_times_two))
    except (OverflowError, ValueError) as exc:  # past float range, or no array has that size
        raise ValidationError(f"spin token {token!r} is too large", field=where) from exc
    return triple.components[component - 1]


def parse_observable(doc, where: str) -> quantum.HermitianObservable:
    if not isinstance(doc, dict):
        raise ValidationError("observable document must be a JSON object", field=where)
    if "builtin" in doc:
        component = _json_number(doc.get("component", 3), f"{where}:component", integral=True)
        return _spin_component(str(doc["builtin"]), component, f"{where}:builtin")
    if "matrix" not in doc:
        raise ValidationError("need either 'builtin' or 'matrix'", field=where)
    m = _parse_complex_matrix(doc["matrix"], f"{where}:matrix")
    dim = _json_number(doc.get("dim", m.shape[0]), f"{where}:dim", integral=True)
    if dim != m.shape[0]:
        raise ValidationError(
            f"declared dim {dim} does not match matrix size {m.shape[0]}",
            field=f"{where}:dim",
        )
    try:
        return quantum.HermitianObservable(m, label=doc.get("label", where))
    except NotHermitianError as exc:
        i, j = exc.index
        raise ValidationError(str(exc), field=f"{where}:matrix[{i}][{j}]") from exc


def parse_state(doc, where: str) -> quantum.DensityState:
    if not isinstance(doc, dict):
        raise ValidationError("state document must be a JSON object", field=where)
    if "bloch" in doc:
        b = doc["bloch"]
        if not isinstance(b, dict):
            raise ValidationError("'bloch' must be an object", field=f"{where}:bloch")
        theta, phi, m = (
            _json_number(b.get(key, default), f"{where}:bloch:{key}")
            for key, default in (("theta", 0.0), ("phi", 0.0), ("m", 1.0))
        )
        try:
            return quantum.bloch_state(theta, phi, m)
        except DomainError as exc:
            raise ValidationError(str(exc), field=f"{where}:bloch") from exc
    if "density" not in doc:
        raise ValidationError("need either 'density' or 'bloch'", field=where)
    m = _parse_complex_matrix(doc["density"], f"{where}:density")
    try:
        return quantum.DensityState(m)
    except (DomainError, QuasiJointError) as exc:
        raise ValidationError(str(exc), field=f"{where}:density") from exc


def _scheme_from_name(name: str, n_vars: int, alpha, nodes, where: str):
    if name == "kirkwood":
        return distributions.scheme_kirkwood(n_vars)
    if name == "wigner":
        return distributions.WignerScheme(n_vars)
    if n_vars != 2:
        raise ValidationError(
            f"scheme {name!r} is defined for two observables, got {n_vars}", field=where
        )
    if name not in SCHEME_NAMES:
        raise ValidationError(
            f"unknown scheme {name!r}; expected one of {SCHEME_NAMES}", field=where
        )
    # a parameter that makes no valid scheme (born_jordan:0, s_alpha:nan) is a
    # bad input, not a numerical failure
    try:
        if name == "s_alpha":
            return distributions.scheme_s_alpha(0.5 if alpha is None else alpha)
        if name == "margenau_hill":
            return distributions.scheme_margenau_hill(0.0 if alpha is None else alpha)
        return distributions.scheme_born_jordan(201 if nodes is None else nodes)
    except (DomainError, ValueError) as exc:
        raise ValidationError(f"bad {name} parameter: {exc}", field=where) from exc


def parse_scheme(doc, n_vars: int, where: str):
    if not isinstance(doc, dict):
        raise ValidationError("scheme document must be a JSON object", field=where)
    if "name" in doc:
        for key in ("alpha", "nodes"):
            if doc.get(key) is not None:
                _json_number(doc[key], f"{where}:{key}", integral=key == "nodes")
        return _scheme_from_name(
            str(doc["name"]), n_vars, doc.get("alpha"), doc.get("nodes"), f"{where}:name"
        )
    if "terms" not in doc:
        raise ValidationError("need either 'name' or 'terms'", field=where)
    if not isinstance(doc["terms"], list):
        raise ValidationError("'terms' must be a list", field=f"{where}:terms")
    terms = []
    for t_idx, term in enumerate(doc["terms"]):
        tw = f"{where}:terms[{t_idx}]"
        if not isinstance(term, dict) or "weight" not in term or "word" not in term:
            raise ValidationError("each term needs 'weight' and 'word'", field=tw)
        w = term["weight"]
        if (
            not isinstance(w, list)
            or len(w) != 2
            or not all(_is_number(v) for v in w)
        ):
            raise ValidationError("weight must be a [re, im] number pair", field=f"{tw}:weight")
        if not isinstance(term["word"], list):
            raise ValidationError("word must be a list of factors", field=f"{tw}:word")
        word = []
        for f_idx, factor in enumerate(term["word"]):
            fw = f"{tw}:word[{f_idx}]"
            if not isinstance(factor, dict):
                raise ValidationError("factor must be an object", field=fw)
            word.append(tuple(
                _json_number(factor.get(key), f"{fw}:{key}", integral=key != "coeff")
                for key in ("var", "coeff", "obs")
            ))
        terms.append((complex(w[0], w[1]), word))
    try:
        return distributions.SchemeSpec(n_vars, tuple(terms))
    except DomainError as exc:
        raise ValidationError(str(exc), field=where) from exc


def resolve_scheme(token: str, n_vars: int):
    """Scheme from a file path, or from a name token like 's_alpha:0.25'."""
    if token is None:
        raise ValidationError("a scheme is required", field="--scheme")
    if Path(token).exists():
        return parse_scheme(_load_json(token), n_vars, token)
    name, _, arg = token.partition(":")
    if name not in SCHEME_NAMES:
        raise ParseError(
            f"--scheme {token!r} is neither an existing file nor a known scheme name"
        )
    alpha = nodes = None
    if arg:
        if name == "born_jordan":
            try:
                nodes = int(arg)
            except ValueError as exc:
                raise ValidationError(f"bad node count {arg!r}", field="--scheme") from exc
        else:
            try:
                alpha = float(arg)
            except ValueError as exc:
                raise ValidationError(f"bad parameter {arg!r}", field="--scheme") from exc
    return _scheme_from_name(name, n_vars, alpha, nodes, "--scheme")


def parse_grid(text: str, n_vars: int) -> np.ndarray:
    """Cartesian grid from 'min:max:steps' specs, one per variable."""
    if text is None:
        raise ValidationError("charfunc needs --grid", field="--grid")
    parts = text.split(",")
    if len(parts) != n_vars:
        raise ValidationError(
            f"grid needs {n_vars} comma-separated ranges, got {len(parts)}", field="--grid"
        )
    ranges = []
    for part in parts:
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValidationError(f"range {part!r} is not min:max:steps", field="--grid")
        try:
            lo, hi, steps = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError as exc:
            raise ValidationError(f"range {part!r} is not numeric", field="--grid") from exc
        # a non-finite end, or a span past the float range, on which linspace gives NaN
        if not math.isfinite(hi - lo):
            raise ValidationError(f"range {part!r} has a non-finite end or span", field="--grid")
        if steps < 1:
            raise ValidationError("steps must be at least 1", field="--grid")
        ranges.append((lo, hi, steps))
    # a grid no array can index is refused before numpy sees its step counts;
    # one that fits the index range but not the memory is an out-of-memory error
    points = math.prod(steps for _, _, steps in ranges)
    if points * n_vars * 8 > np.iinfo(np.intp).max:
        raise ValidationError(f"grid of {points} points is past the largest array size", field="--grid")
    mesh = np.meshgrid(*(np.linspace(*r) for r in ranges), indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


# ---------------------------------------------------------------------------
# command runners: each reads the parsed arguments and returns
# (header, rows, footers, json_payload)


def _load_problem(args, *, n_obs=None):
    """Observables, scheme and, for a command that takes ``--state``, the state."""
    observables = tuple(parse_observable(_load_json(p), p) for p in args.obs)
    if not observables:
        raise ValidationError("at least one --obs is required", field="--obs")
    if n_obs is not None and len(observables) != n_obs:
        raise ValidationError(f"this command needs exactly {n_obs} observables", field="--obs")
    dims = {o.dim for o in observables}
    if len(dims) > 1:
        raise ValidationError(f"observables have mixed dimensions {sorted(dims)}", field="--obs")
    scheme = resolve_scheme(args.scheme, len(observables))
    state = None
    if "state" in args:
        if args.state is None:
            raise ValidationError("this command needs --state", field="--state")
        state = parse_state(_load_json(args.state), args.state)
        if state.dim != observables[0].dim:
            raise ValidationError(
                f"state dim {state.dim} does not match observable dim {observables[0].dim}",
                field=args.state,
            )
    return observables, scheme, state


def _weight_table(dist):
    header = [f"x{v + 1}" for v in range(dist.n_vars)] + ["weight_re", "weight_im"]
    rows = [
        [fmt_g(c) for c in p] + [fmt_g(w.real), fmt_g(w.imag)]
        for p, w in zip(dist.points, dist.weights)
    ]
    total = dist.total()
    footers = [
        f"sum_weight_re={fmt_g(total.real)} sum_weight_im={fmt_g(total.imag)}",
    ]
    if dist.meta.get("approximate"):
        footers.append("approximate=true")
    payload = {
        "points": [[float(c) for c in p] for p in dist.points],
        "weights": [[float(w.real), float(w.imag)] for w in dist.weights],
        "weight_sum": [float(total.real), float(total.imag)],
        "meta": {k: v for k, v in sorted(dist.meta.items()) if k != "observables"},
    }
    return header, rows, footers, payload


def run_compute(args):
    observables, scheme, state = _load_problem(args)
    atoms = distributions.build_atoms(scheme, observables)
    dist = distributions.evaluate_distribution(atoms, state)
    return _weight_table(dist)


def run_marginals(args):
    observables, scheme, state = _load_problem(args)
    atoms = distributions.build_atoms(scheme, observables)
    dist = distributions.evaluate_distribution(atoms, state)
    header = ["var", "value", "marginal_re", "marginal_im", "born_weight", "abs_dev"]
    rows = []
    payload_vars = []
    sums = []
    worst = 0.0
    for v, obs in enumerate(observables):
        marg = distributions.marginal(dist, v)
        born = distributions.born_distribution(obs, state)
        dev_v = distributions.max_weight_deviation(marg, born)
        worst = max(worst, dev_v)
        sums.append(marg.total())
        entries = []
        for value, bw in zip(born.points[:, 0], born.weights):
            mw = marg.weight_at([value])
            dev = abs(mw - bw)
            rows.append(
                [str(v), fmt_g(value), fmt_g(mw.real), fmt_g(mw.imag), fmt_g(bw.real), fmt_g(dev)]
            )
            entries.append(
                {
                    "value": float(value),
                    "marginal": [mw.real, mw.imag],
                    "born": bw.real,
                    "abs_dev": dev,
                }
            )
        payload_vars.append({"var": v, "max_dev": dev_v, "entries": entries})
    footers = [f"max_deviation={fmt_g(worst)}"] + [
        f"var{v}_weight_sum_re={fmt_g(total.real)} var{v}_weight_sum_im={fmt_g(total.imag)}"
        for v, total in enumerate(sums)
    ]
    return header, rows, footers, {"variables": payload_vars, "max_deviation": worst}


def _record_rows(header, records):
    """CSV rows of JSON records, one field per header key: bools as true/false, ints as is, floats by ``fmt_g``."""

    def field(value) -> str:
        if isinstance(value, bool):  # before int: a bool is an int
            return str(value).lower()
        return str(value) if isinstance(value, int) else fmt_g(value)

    return [[field(record[key]) for key in header] for record in records]


def _matrix_payload(m: np.ndarray):
    return [[[float(e.real), float(e.imag)] for e in row] for row in m]


def run_tomography(args):
    observables, scheme, state = _load_problem(args, n_obs=2)
    rmap = analysis.reconstruction_map(observables[0], observables[1], scheme)
    dist = distributions.evaluate_distribution(rmap.atoms, state)
    rec = analysis.reconstruct_state(rmap, dist)
    residual = float(np.abs(rec.matrix - state.matrix).max())
    header = ["row", "col", "re", "im"]
    rows = [
        [str(i), str(j), fmt_g(rec.matrix[i, j].real), fmt_g(rec.matrix[i, j].imag)]
        for i in range(rec.dim)
        for j in range(rec.dim)
    ]
    footers = [f"residual={fmt_g(residual)}", f"rank={rmap.rank}"]
    payload = {
        "reconstructed": _matrix_payload(rec.matrix),
        "residual": residual,
        "rank": rmap.rank,
    }
    return header, rows, footers, payload


def run_rank(args):
    observables, scheme, _ = _load_problem(args, n_obs=2)
    rmap = analysis.reconstruction_map(observables[0], observables[1], scheme)
    payload = {
        "dim": rmap.dim,
        "rank": rmap.rank,
        "full_rank_needed": rmap.dim**2 - 1,
        "support_size": len(rmap.support),
        "distinguishes_states": rmap.full_rank,
    }
    header = list(payload)
    return header, _record_rows(header, [payload]), [], payload


def run_verify(args):
    for flag in ("support", "real"):
        tol = getattr(args, f"tol_{flag}")
        if not (np.isfinite(tol) and tol >= 0):
            raise ValidationError(
                f"tolerance must be finite and not negative, got {tol}", field=f"--tol-{flag}"
            )
    observables, scheme, state = _load_problem(args)
    atoms = distributions.build_atoms(scheme, observables)
    dist = distributions.evaluate_distribution(atoms, state)
    support = analysis.verify_support(dist, observables, args.tol_support)
    real = analysis.is_real(dist, args.tol_real)
    scheme_real = analysis._hermitian_atoms(atoms)
    header = ["check", "result", "detail"]
    offending = ";".join(
        "(" + " ".join(fmt_g(c) for c in p) + ")" for p in support.offending
    )
    rows = [
        ["support_on_eigenvalues", str(support.ok).lower(), offending],
        ["distribution_real", str(real).lower(), fmt_g(dist.max_imag())],
        ["scheme_real_for_all_states", str(scheme_real).lower(), ""],
    ]
    payload = {
        "support_on_eigenvalues": support.ok,
        "offending_points": support.offending.tolist(),
        "distribution_real": real,
        "max_abs_imag": dist.max_imag(),
        "scheme_real_for_all_states": scheme_real,
    }
    return header, rows, [], payload


def run_charfunc(args):
    observables, scheme, state = _load_problem(args)
    pts = parse_grid(args.grid, len(observables))
    values = distributions.characteristic_function(scheme, observables, state, pts)
    header = [f"s{v + 1}" for v in range(len(observables))] + ["re", "im"]
    rows = [
        [fmt_g(c) for c in p] + [fmt_g(z.real), fmt_g(z.imag)]
        for p, z in zip(pts, values)
    ]
    payload = {
        "points": [[float(c) for c in p] for p in pts],
        "values": [[float(z.real), float(z.imag)] for z in values],
    }
    return header, rows, [], payload


def run_degeneracy(args):
    n, n_a, n_b = args.n, args.na, args.nb
    if None in (n, n_a, n_b):
        raise ValidationError("degeneracy needs integer --n, --na, --nb", field="--n")
    try:
        report = analysis.degeneracy_feasible(n, n_a, n_b)
    except DomainError as exc:
        raise ValidationError(str(exc), field="--na/--nb") from exc
    try:
        bounds = {
            "equal_spectra_bound": analysis.equal_spectra_bound(n),
            "nondegenerate_partner_bound": analysis.nondegenerate_partner_bound(n),
        }
    except DomainError as exc:
        raise ValidationError(str(exc), field="--n") from exc
    payload = dataclasses.asdict(report) | bounds
    header = list(payload)
    return header, _record_rows(header, [payload]), [], payload


def run_scan_realness(args):
    steps = [args.theta_steps, args.phi_steps, args.m_steps]
    for flag, count in zip(("theta", "phi", "m"), steps):
        if count < 0:
            raise ValidationError("step count must not be negative", field=f"--{flag}-steps")
    # a zero count empties the grid, but the counts before it still reach
    # np.linspace: each count is taken as at least 1
    if math.prod(max(count, 1) for count in steps) > MAX_SCAN_STATES:
        raise ValidationError(
            f"step counts {' x '.join(map(str, steps))} exceed {MAX_SCAN_STATES} states"
            " (zeros count as 1)",
            field="--theta-steps/--phi-steps/--m-steps",
        )
    triple = quantum.spin_operators(1)
    if args.obs:
        observables = tuple(parse_observable(_load_json(p), p) for p in args.obs)
        if len(observables) != 2 or observables[0].dim != 2 or observables[1].dim != 2:
            raise ValidationError(
                "scan-realness needs two two-level observables", field="--obs"
            )
    else:
        observables = (triple.j1, triple.j2)
    scheme = resolve_scheme(args.scheme or "kirkwood", 2)
    atoms = distributions.build_atoms(scheme, observables)
    header = ["theta", "phi", "m", "max_abs_imag", "z_expectation"]
    records = []
    for theta in np.linspace(0.0, np.pi, args.theta_steps):
        for phi in np.linspace(0.0, 2 * np.pi, args.phi_steps, endpoint=False):
            for m in np.linspace(0.0, 1.0, args.m_steps):
                state = quantum.bloch_state(theta, phi, m)
                dist = distributions.evaluate_distribution(atoms, state, prune_tol=0.0)
                z = quantum.expectation(triple.j3, state)
                values = (theta, phi, m, dist.max_imag(), z)
                records.append({key: float(x) for key, x in zip(header, values)})
    return header, _record_rows(header, records), [], {"rows": records}


RUNNERS = {
    "compute": run_compute,
    "marginals": run_marginals,
    "tomography": run_tomography,
    "rank": run_rank,
    "verify": run_verify,
    "charfunc": run_charfunc,
    "degeneracy": run_degeneracy,
    "scan-realness": run_scan_realness,
}
COMMANDS = tuple(RUNNERS)


# ---------------------------------------------------------------------------
# output and entry point


def _write_output(args, header, rows, footers, payload):
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        lines.extend(",".join(row) for row in rows)
        lines.extend("# " + foot for foot in footers)
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:  # exit 2, as for an unreadable input file
            raise ParseError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; raises package errors for the caller to map."""
    header, rows, footers, payload = RUNNERS[args.command](args)
    _write_output(args, header, rows, footers, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasijoint",
        description="Quasi-joint-probability distributions of non-commuting observables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name != "degeneracy":
            p.add_argument("--scheme", help="scheme JSON file, or name token like s_alpha:0.5")
            p.add_argument("--obs", action="append", default=[], help="observable JSON file (repeatable)")
        if name in ("compute", "marginals", "tomography", "verify", "charfunc"):
            p.add_argument("--state", help="state JSON file")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "verify":
            p.add_argument("--tol-support", type=float, default=linalg.DEFECT_TOL)
            p.add_argument("--tol-real", type=float, default=linalg.DEFECT_TOL)
        if name == "charfunc":
            p.add_argument("--grid", help="per-variable ranges 'min:max:steps,min:max:steps'")
        if name == "degeneracy":
            p.add_argument("--n", type=int, help="system dimension")
            p.add_argument("--na", type=int, help="distinct eigenvalues of A")
            p.add_argument("--nb", type=int, help="distinct eigenvalues of B")
        if name == "scan-realness":
            p.add_argument("--theta-steps", type=int, default=9)
            p.add_argument("--phi-steps", type=int, default=8)
            p.add_argument("--m-steps", type=int, default=5)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except QuasiJointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # a problem too large for this machine, not a bug
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
