"""Time ``import quasijoint`` plus one workload's program-side preparation.

Run in a fresh process, so the import is cold in the interpreter:

    python3 perfbench/setup_probe.py <workload> <seed>

Prints one JSON line ``{"import_s": ..., "prepare_s": ...}``. Seeded input
generation runs between the two timed parts and is not counted.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = perf_counter()
    import quasijoint  # noqa: F401

    import_s = perf_counter() - t0

    import json

    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed)
    t0 = perf_counter()
    workload.prepare(inputs)
    prepare_s = perf_counter() - t0
    print(json.dumps({"import_s": import_s, "prepare_s": prepare_s}))


if __name__ == "__main__":
    main()
