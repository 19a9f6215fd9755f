"""Tests of the benchmark itself.

Each workload runs for one measured cycle in both modes and must report
exactly the metrics listed in BENCHMARK.json; a wrong result from the
package must be counted as a failed op, not passed.
"""

import math
import shutil
import subprocess
import sys

import pytest

import bench
import quasijoint as qj
import run

DEFINITION = run.load_definition()
NAMES = [w["name"] for w in DEFINITION["workloads"]]
KNOWN_DEFECTS = {"nan_matrix"}  # the CLI exits 1, not 3, on a NaN matrix entry


def _run(name, trace):
    return bench.run_workload(name, seed=5, seconds=0, trace=trace, definition=DEFINITION, probes=1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_workload_reports_every_listed_metric(name, trace):
    result, report, spans = _run(name, trace)
    listed = DEFINITION["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0, m["name"]
    assert result["correct"]
    assert result["attempted"] == report["cycles"] * report["ops_per_cycle"]
    assert {label for _, label, _ in report["failures"]} <= KNOWN_DEFECTS
    assert (spans is not None) == bool(trace)


def test_perturbed_weights_count_as_failed(monkeypatch):
    evaluate = qj.evaluate_distribution

    def perturbed(atoms, rho, **kwargs):
        dist = evaluate(atoms, rho, **kwargs)
        return qj.QuasiDistribution(dist.n_vars, dist.points, dist.weights * 1.01, dist.meta)

    monkeypatch.setattr(qj, "evaluate_distribution", perturbed)
    result, report, _ = _run("states_stream", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert all(kind == "wrong" for kind, _, _ in report["failures"])


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("results", "_work_*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_definition_names_are_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in DEFINITION[key]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in DEFINITION["end_to_end"])
