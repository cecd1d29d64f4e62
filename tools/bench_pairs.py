"""Benchmark a parent commit against the working tree and record every result line.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --out BENCH_7.json --runs fieldlog:1-11 \
        --runs sweep:1-5 --runs fieldlog:1-3:trace

The parent commit (``--parent``, default HEAD) is exported with ``git archive``
to ``<tmp>/parent``, and what ``bench/run.py`` needs of the working tree
(``src/``, ``bench/``, ``tests/`` and ``BENCHMARK.json``, without
``__pycache__`` or ``.bench_work``) is copied to ``<tmp>/change``.  Both sides
run from these sibling copies, whose paths have the same length, because where
a tree sits alone moves own peak RSS by more than the bench's 0.1 MB bound: two
byte-identical copies of one ``src/``, in different places, read 48.07 and
48.32 MB for the same ``rssi`` command with bytecode cached.  For each workload
and seed, ``python3 bench/run.py --workload W --seed S --seconds T [--trace 1]``
runs once from each copy, odd seeds parent first and even seeds the change
first; T is ``run_seconds`` from ``BENCHMARK.json``.  The last line each run
prints, one JSON object, is kept unedited, and the file is rewritten after
every run, so an interrupted session keeps what it measured.  Before the first
run, the header records each side's interpreter floor: the medians of 9 spawns
each of ``python -c pass`` and ``python -c "import numpy"`` under the
environment ``bench/run.py`` gives its commands, so that a start-up figure shows
how much of it is the interpreter and numpy.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# What bench/run.py reads of a checkout.
BENCH_NEEDS = ("src", "bench", "tests", "BENCHMARK.json")

# The interpreter floor: header key -> ``python -c`` program, each timed over FLOOR_SPAWNS.
FLOOR = {"python_pass_s": "pass", "import_numpy_s": "import numpy"}
FLOOR_SPAWNS = 9


def run_specs(spec: str) -> list[tuple[str, int, bool]]:
    """``WORKLOAD:SEEDS[:trace]`` -> (workload, seed, trace); SEEDS as ``3``, ``1-10``, ``1,4``."""
    parts = spec.split(":")
    if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] != "trace"):
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS[:trace], got {spec!r}")
    seeds = []
    try:
        for item in parts[1].split(","):
            lo, _, hi = item.partition("-")
            seeds += range(int(lo), int(hi or lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seeds in {spec!r}") from None
    return [(parts[0], seed, len(parts) == 3) for seed in seeds]


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr[-500:]}")
    return json.loads(lines[-1])


def interpreter_floor(checkouts: dict[str, Path]) -> dict:
    """Per side, the median wall seconds of each ``FLOOR`` program, spawned in turn.

    The environment is the one ``bench/run.py`` gives its commands: this process's,
    with the side's ``src`` first on ``PYTHONPATH``.
    """
    times = {side: {key: [] for key in FLOOR} for side in checkouts}
    for _ in range(FLOOR_SPAWNS):
        for side, checkout in checkouts.items():
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(checkout / "src"), env.get("PYTHONPATH", "")) if p)
            for key, program in FLOOR.items():
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", program], cwd=checkout, env=env, check=True)
                times[side][key].append(time.perf_counter() - start)
    return {side: {key: round(statistics.median(spans), 4) for key, spans in found.items()}
            for side, found in times.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare against (default HEAD)")
    parser.add_argument("--out", required=True, help="JSON file to write, such as BENCH_7.json")
    parser.add_argument("--runs", type=run_specs, action="append", required=True,
                        metavar="WORKLOAD:SEEDS[:trace]")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    commit = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    doc = {
        "what": f"bench/run.py result lines, parent commit {commit} and this change, "
                "each side run from its own checkout",
        "checkouts": "sibling copies <tmp>/parent (git archive) and <tmp>/change (src, bench, "
                     "tests and BENCHMARK.json of the working tree), so that neither side's "
                     "own peak RSS moves with where its tree sits",
        "command": f"python3 bench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace <trace>",
        "trace": "0 unless a record says \"trace\": 1",
        "order": "pairs alternate: odd seeds run the parent first, even seeds the change first",
        "machine": f"{os.cpu_count()}-CPU {platform.machine()}, "
                   f"Python {platform.python_version()}, numpy {np.__version__}",
        "interpreter_floor_what": f"per side, median wall seconds of {FLOOR_SPAWNS} spawns "
                                  "each of python -c 'pass' and python -c 'import numpy', sides "
                                  "alternating, under the environment bench/run.py gives its "
                                  "commands",
        "runs": [],
    }
    out = Path(args.out)
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        parent.mkdir()
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True,
                                 check=True)
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
        skip = shutil.ignore_patterns("__pycache__", ".bench_work")
        for name in BENCH_NEEDS:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, change / name, ignore=skip)
            else:
                shutil.copy2(ROOT / name, change / name)
        doc["interpreter_floor"] = interpreter_floor({"parent": parent, "change": change})
        _write(out, doc)
        for workload, seed, trace in (run for spec in args.runs for run in spec):
            sides = [("parent", parent), ("change", change)]
            for side, checkout in sides if seed % 2 else sides[::-1]:
                result = bench(checkout, workload, seed, seconds, trace)
                record = {"side": side, "workload": workload, "seed": seed}
                if trace:
                    record["trace"] = 1
                doc["runs"].append({**record, "result": result})
                _write(out, doc)
                metrics = result["metrics"]
                shown = metrics.get("wall_s", metrics.get("trace.inproc_s"))
                print(f"{side} {workload} seed {seed}{' traced' if trace else ''}: {shown}",
                      file=sys.stderr, flush=True)
    return 0


def _write(path: Path, doc: dict) -> None:
    """BENCH_6.json's layout: the header keys, then one run per line."""
    head = {k: v for k, v in doc.items() if k != "runs"}
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in head.items()]
    runs = ",\n".join(f"    {json.dumps(run)}" for run in doc["runs"])
    path.write_text("{\n" + "\n".join(lines) + '\n  "runs": [\n' + runs + "\n  ]\n}\n")


if __name__ == "__main__":
    sys.exit(main())
