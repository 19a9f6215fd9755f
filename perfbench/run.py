"""Run one benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload atoms_build --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` the run reports the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics,
from cycles that alternate between tracing off and on. Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A copy of the
result, with the environment, goes to ``perfbench/results/``.

Run from a full checkout: the package is imported from ``src/`` next to
this directory, and the run exits with code 2 if it is missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def load_definition():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_report(report):
    result = report["result"]
    print(
        f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']}: "
        f"{report['cycles']} cycles x {report['ops_per_cycle']} ops = {result['attempted']} ops "
        f"in {report['measured_s']:.2f} s"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    if not report["trace"]:
        raw = " ".join(f"{k}={v:.6g}" for k, v in report["raw"].items())
        cal = report["calibration_ms"]
        print(f"  latency samples {report['latency_samples']}; unscaled {raw}")
        print(f"  calibration loop median {cal['median']:.4g} ms over {cal['samples']} samples, "
              f"reference {cal['reference']:.4g} ms")
    print(f"  failed_frac {report['failed_frac']:.6g} ({result['failed']} of {result['attempted']})")
    env = report["env"]
    print("  env " + " ".join(f"{k}={env[k]}" for k in sorted(env)))
    for kind, label, message in report["failures"][:5]:
        print(f"perfbench: {kind} in op {label!r}: {message}", file=sys.stderr)


def write_results(report, spans):
    RESULTS.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        (RESULTS / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")


def run_all(names, args):
    """Each workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    definition = load_definition()
    names = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quasijoint" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'quasijoint'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(names, args)
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    result, report, spans = bench.run_workload(
        args.workload, args.seed, args.seconds, args.trace, definition
    )
    write_results(report, spans)
    print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
