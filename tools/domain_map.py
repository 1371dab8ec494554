"""The domain map: every command-line run that CI checks, in one process.

Usage: PYTHONPATH=src python tools/domain_map.py OUT

One table (run_table) holds the runs: `verify --format json` on the grid
N in GRID_DIMS x s in GRID_ORDERS (2s < N) x gamma = GRID_FRACS * (N-2s)/2,
and the smoke runs of `verify`, `solve`, `constants` and `kernel`,
usage errors among them. Each run calls fracgreen.cli.main in this process
with stdout and stderr captured and a RuntimeWarning raised as an error; an
escaping exception, SystemExit included, is recorded, never re-raised.

Each run's stdout goes to OUT/<row>.out; its exit code, failing `verify`
rows, stderr, warnings, traceback and seconds go to OUT/summary.json. The
exit code is 1 if a run raises, warns or writes to stderr, if a usage row
does not exit 2 with one `error: ...` line, or if a run's failing rows are
not among those that domain_map.json lists for it (a run it does not list
must exit 0). A run that fails fewer rows than listed passes and is
printed: lower its entry.

To see which reports a change moves, run the driver on both trees and diff
the outputs (summary.json holds the timings):

    PYTHONPATH=<base>/src python tools/domain_map.py base
    PYTHONPATH=src python tools/domain_map.py head
    diff -ru -x summary.json base head
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

import fracgreen
from fracgreen import cli

LISTED = Path(__file__).resolve().with_name("domain_map.json")

GRID_DIMS = (1, 2, 3, 4, 5, 6, 8, 10, 16, 33)
GRID_ORDERS = (0.01, 0.05, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9, 0.99)
GRID_FRACS = (0.01, 0.3, 0.8, 0.99)
KERNELS = ("riesz_exact", "surrogate", "resolvent_surrogate")
OFF_CENTRE = ("--field-center", "1", "--field-radius", "0.35")


def run_table(cfg_dir: Path) -> list[tuple[str, list[str], bool]]:
    """Every run as (row name, argv, usage error expected); the config files
    the runs read are written to cfg_dir."""
    tight = cfg_dir / "tight.cfg"
    tight.write_text("[quadrature]\nrel_tol = 1e-10\n")
    not_utf8 = cfg_dir / "not-utf8.cfg"
    not_utf8.write_bytes(b"[params]\nN = 3 # \xff\n")
    rows = []

    def add(name, *argv, usage=False):
        rows.append((name, [str(a) for a in argv], usage))

    for N in GRID_DIMS:
        for s in GRID_ORDERS:
            if 2 * s >= N:
                continue
            for f in GRID_FRACS:
                add(f"grid-N{N}-s{s}-g{f}", "verify", "--N", N, "--s", s,
                    "--gamma", repr(f * (N - 2 * s) / 2), "--format", "json")
    # the text reports on N = 1..5 x s in {.1, .25, .4, .5, .75, .9}
    for N in (1, 2, 3, 4, 5):
        for s in (0.1, 0.25, 0.4, 0.5, 0.75, 0.9):
            if 2 * s < N:
                add(f"verify-N{N}-s{s}", "verify", "--N", N, "--s", s)
    # small gamma: panel ratios past 1.8e308 at (1, .49), and the origin
    # power of the fundamental residual at the rule's end at N = 8, 10
    add("verify-N1-s0.49-gamma1e-3", "verify", "--N", 1, "--s", 0.49,
        "--gamma", "1e-3")
    for N in (8, 10):
        for s in (0.01, 0.05, 0.1):
            gamma = format(0.01 * (N - 2 * s) / 2, ".6g")
            add(f"verify-N{N}-s{s}-gamma{gamma}", "verify", "--N", N,
                "--s", s, "--gamma", gamma)
    for N, s in ((2, 0.4), (3, 0.5)):
        add(f"verify-tight-N{N}-s{s}", "verify", "--config", tight,
            "--N", N, "--s", s)
    for N, s in ((3, 0.5), (2, 0.4), (4, 0.75), (5, 0.9), (1, 0.25)):
        add(f"verify-json-N{N}-s{s}", "verify", "--N", N, "--s", s,
            "--format", "json")
    add("constants", "constants")
    add("kernel-N2-s0.4-pairs4", "kernel", "--N", 2, "--s", 0.4,
        "--pairs", 4)
    # each kernel centred and off-centre (the pair rule, or the bipolar one
    # for riesz_exact), with points whose pair-rule shells all take the
    # clipped layer width
    for kernel in KERNELS:
        add(f"solve-{kernel}-N2-s0.4", "solve", "--N", 2, "--s", 0.4,
            "--kernel", kernel)
        add(f"solve-{kernel}-N2-s0.4-off-0.5-1.3-3", "solve", "--N", 2,
            "--s", 0.4, "--kernel", kernel, *OFF_CENTRE, "--radii",
            "0.5:1.3:3")
        add(f"solve-{kernel}-N3-s0.5-off-0.001-0.01-4", "solve", "--N", 3,
            "--s", 0.5, "--kernel", kernel, *OFF_CENTRE, "--radii",
            "0.001:0.01:4")
    # the resolvent factors' three routes: x < 1, [1, 2) and from 2
    add("solve-resolvent_surrogate-N2-s0.4-alpha3", "solve", "--N", 2,
        "--s", 0.4, "--kernel", "resolvent_surrogate", "--alpha", 3)
    add("solve-resolvent_surrogate-N5-s0.9", "solve", "--N", 5, "--s", 0.9,
        "--kernel", "resolvent_surrogate")
    # seven radii outside the density's shells on one shared pair rule, and
    # 1.3 inside them on its own diagonal rule
    add("solve-surrogate-N2-s0.4-off-0.001-1.3-8", "solve", "--N", 2,
        "--s", 0.4, "--kernel", "surrogate", *OFF_CENTRE, "--radii",
        "0.001:1.3:8")
    # rel_tol 1e-10, which also sets the diagonal rule's initial grading
    for N, s in ((2, 0.4), (5, 0.9)):
        add(f"solve-tight-resolvent_surrogate-N{N}-s{s}", "solve",
            "--config", tight, "--N", N, "--s", s, "--kernel",
            "resolvent_surrogate")
    add("solve-tight-surrogate-N2-s0.4-off-0.5-1.3-3", "solve", "--config",
        tight, "--N", 2, "--s", 0.4, "--kernel", "surrogate", *OFF_CENTRE,
        "--radii", "0.5:1.3:3")
    # off-centre potentials at N = MAX_DIM, where the surrogate's pair value
    # is one dimension short of overflowing
    for kernel in ("surrogate", "resolvent_surrogate"):
        for s in (0.01, 0.5, 0.99):
            for radii in ("0.5:1.3:3", "0.001:2:12", "0.64:0.66:3",
                          "1.3:1.36:3"):
                add(f"solve-{kernel}-N33-s{s}-off-{radii.replace(':', '-')}",
                    "solve", "--N", 33, "--s", s, "--kernel", kernel,
                    *OFF_CENTRE, "--radii", radii)
    add("usage-verify-seed-1", "verify", "--seed", -1, usage=True)
    add("usage-verify-N34", "verify", "--N", 34, usage=True)
    add("usage-verify-N51-s0.5", "verify", "--N", 51, "--s", 0.5, usage=True)
    add("usage-verify-N100", "verify", "--N", 100, usage=True)
    add("usage-verify-config-not-utf8", "verify", "--config", not_utf8,
        usage=True)
    add("usage-solve-alpha-nan", "solve", "--kernel", "resolvent_surrogate",
        "--alpha", "nan", usage=True)
    add("usage-solve-field-radius-nan", "solve", "--field-radius", "nan",
        usage=True)
    return rows


def failing_rows(argv: list[str], stdout: str) -> list[str]:
    """The names of the rows a `verify` report fails, text or JSON."""
    if argv[0] != "verify" or not stdout:
        return []
    if stdout.startswith("{"):
        return sorted(row["name"] for row in json.loads(stdout)["rows"]
                      if not row["passed"])
    return sorted(re.findall(r"^\[FAIL\] ([^:]+):", stdout, re.M))


def run(argv: list[str]) -> dict:
    """cli.main(argv) in this process: exit code (None if it raised),
    stdout, failing rows, stderr, warnings, traceback and seconds."""
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, ""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except (Exception, SystemExit):
            raised = traceback.format_exc()
    seconds = time.perf_counter() - t0
    stdout = out.getvalue()
    return {"argv": argv, "exit": code, "stdout": stdout,
            "failing": [] if raised else failing_rows(argv, stdout),
            "stderr": err.getvalue(),
            "warnings": [f"{w.category.__name__}: {w.message}"
                         for w in caught],
            "traceback": raised, "seconds": round(seconds, 3)}


def problems(rec: dict, usage: bool, listed: list[str]) -> list[str]:
    """What is wrong with one run, given whether it is a usage row and the
    failing rows listed for it; empty when it passes."""
    found = []
    if rec["traceback"]:
        found.append("raised:\n" + rec["traceback"])
    found += [f"warned: {w}" for w in rec["warnings"]]
    if usage:
        err = rec["stderr"]
        if rec["exit"] != 2 or not (err.startswith("error: ")
                                    and err.count("\n") == 1):
            found.append(f"not a usage error: exit {rec['exit']}, "
                         f"stderr {err!r}")
        return found
    if rec["stderr"]:
        found.append(f"stderr: {rec['stderr']!r}")
    fails = rec["failing"]
    if not rec["traceback"] and rec["exit"] != (1 if fails else 0):
        found.append(f"exit {rec['exit']} with failing rows {fails}")
    unlisted = sorted(set(fails) - set(listed))
    if unlisted:
        found.append(f"failing rows not listed: {unlisted}")
    return found


def gate(table, records: dict, listed: dict) -> bool:
    """Print every run with a problem, and every run that fails fewer rows
    than listed; True if no run has a problem."""
    ok = True
    for name, _, usage in table:
        rec = records[name]
        for problem in problems(rec, usage, listed.get(name, [])):
            print(f"FAIL {name}: {problem}")
            ok = False
        if set(rec["failing"]) < set(listed.get(name, [])):
            print(f"fewer failing rows than listed: {name}: failed "
                  f"{rec['failing']}, listed {listed[name]}")
    names = {name for name, _, _ in table}
    for name in sorted(set(listed) - names):
        print(f"FAIL {name}: listed in {LISTED.name}, not a run")
        ok = False
    return ok


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: domain_map.py OUT", file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    listed = json.loads(LISTED.read_text())
    print(f"fracgreen from {Path(fracgreen.__file__).parent}")
    t0 = time.perf_counter()
    records = {}
    with tempfile.TemporaryDirectory() as cfg_dir:
        table = run_table(Path(cfg_dir))
        for name, argv_row, _ in table:
            rec = run(argv_row)
            (out / f"{name}.out").write_bytes(rec.pop("stdout").encode())
            records[name] = rec
    (out / "summary.json").write_text(
        json.dumps(records, indent=1, sort_keys=True) + "\n")
    ok = gate(table, records, listed)
    codes = [rec["exit"] for rec in records.values()]
    print(f"{len(table)} runs in {time.perf_counter() - t0:.1f} s: "
          + ", ".join(f"exit {c}: {codes.count(c)}"
                      for c in sorted(set(codes), key=str)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
