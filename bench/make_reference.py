"""Regenerate reference.json, the outputs the benchmark checks against.

    python3 bench/make_reference.py [workload ...]

Runs every workload (or the named ones) once on the current checkout and
records, per operation, the computed value, its tolerance or error estimate
and its pass verdict. The verify checks depend on the seed only through the
surrogate-form and time-integral checks, whose values sit far below their
tolerances, so one seed serves every seed. The solve reference covers the
whole radius grid, from which every seed draws. Regenerate only when a
change of numerics is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import SOLVE_GRID, WORKLOADS  # noqa: E402

REFERENCE_SEED = 0


def main(names) -> int:
    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    out = HERE.parent / ".bench_out"
    out.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        if name.startswith("solve"):
            inputs = {"grid_index": list(range(SOLVE_GRID.size))}
        else:
            inputs = workload.inputs(REFERENCE_SEED)
        rep = workload.run(inputs, out, "reference")
        ref[name] = {op["name"]: {"computed": op["computed"],
                                  "tolerance": op["tolerance"],
                                  "passed": op["passed"]}
                     for op in rep.ops}
        print(name, json.dumps(ref[name]), flush=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
