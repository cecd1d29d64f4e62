"""Each command's own peak RSS for one benchmark workload, spawned from a small process.

Usage, from the root of a checkout:

    python3 tools/own_rss.py --workload fieldlog --seed 1 --reps 7 [--parent HEAD] \
        [--scale stress]

``bench/run.py`` spawns every command from its own process.  A child started with
``posix_spawn`` (a vfork) takes its parent's high-water RSS as the start of its own
``ru_maxrss``, so a command that peaks below the bench process (numpy, the generated
inputs, the outputs it hashes) reads as that floor.  This script builds the workload's
inputs with ``bench/workloads.py`` under ``.bench_work/own_rss/``, then hands the command
lines to a ``python -S`` helper that imports only ``json``, ``os`` and ``sys``.  The helper
starts each command with ``posix_spawn`` and reaps it with ``wait4``, so each reading is the
command's own.  The working tree's ``src/`` is copied to ``<tmp>/change/src`` and runs from
there.  With ``--parent``, that commit's ``src/`` is exported with ``git archive`` to
``<tmp>/parent/src`` and runs the same commands, alternating with the working tree within
each repetition.  The two trees are siblings with paths of the same length, because where a
tree sits alone moves own peak RSS by more than the bench's 0.1 MB bound.  Each command's
median ``ru_maxrss`` is printed per tree, then one JSON line.  Outputs are not checked;
``bench/run.py`` does that.  ``--scale stress`` first sets the sizes of ``bench/workloads.py``,
in this process only, to the stress scale: 200,000 sweep and synth points and log readings,
and a 0.25 degree phi step.  No file under ``bench/`` changes, and the outputs of a stress
run are not checked either.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# ``--scale stress``: the values given to these ``bench/workloads.py`` sizes.
STRESS = {"SWEEP_POINTS": 200_000, "SYNTH_POINTS": 200_000, "LOG_READINGS": 200_000,
          "PHI_STEP_DEG": 0.25}

# Run as ``python -S -c HELPER`` with the job as JSON on stdin; writes
# {tree: {command: [[exit code, ru_maxrss KiB], ...]}} to stdout.
HELPER = r"""
import json, os, sys
job = json.load(sys.stdin)
quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_RDWR, 0) for fd in (0, 1, 2)]
found = {tree: {name: [] for name in job["commands"]} for tree in job["trees"]}
for rep in range(job["reps"]):
    trees = list(job["trees"].items())
    for tree, env in trees if rep % 2 == 0 else trees[::-1]:
        for name, argv in job["commands"].items():
            argv = [job["python"], "-m", "slcap", *argv]
            pid = os.posix_spawn(job["python"], argv, env, file_actions=quiet)
            _, status, usage = os.wait4(pid, 0)
            found[tree][name].append([os.waitstatus_to_exitcode(status), usage.ru_maxrss])
json.dump(found, sys.stdout)
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--parent", help="also run this commit's src/, such as HEAD")
    parser.add_argument("--scale", choices=("seed", "stress"), default="seed")
    args = parser.parse_args(argv)

    import numpy as np

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from run import _load_oracles
    from workloads import WORKLOADS

    if args.scale == "stress":
        for name, value in STRESS.items():
            if not hasattr(workloads, name):
                parser.error(f"bench/workloads.py has no size {name}")
            setattr(workloads, name, value)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    work = ROOT / ".bench_work" / "own_rss" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), work, _load_oracles())
    for cmd in workload.commands:
        cmd.out_dir.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"change": Path(tmp) / "change" / "src"}
        shutil.copytree(ROOT / "src", trees["change"],
                        ignore=shutil.ignore_patterns("__pycache__"))
        if args.parent:
            archive = subprocess.run(["git", "archive", args.parent, "src"], cwd=ROOT,
                                     capture_output=True, check=True)
            (Path(tmp) / "parent").mkdir()
            subprocess.run(["tar", "-x", "-C", str(Path(tmp) / "parent")],
                           input=archive.stdout, check=True)
            trees = {"parent": Path(tmp) / "parent" / "src", **trees}
        job = {
            "python": sys.executable,
            "reps": args.reps,
            "trees": {tree: {**os.environ, "PYTHONPATH": str(src)} for tree, src in trees.items()},
            "commands": {cmd.name: cmd.argv for cmd in workload.commands},
        }
        proc = subprocess.run([sys.executable, "-S", "-c", HELPER], input=json.dumps(job),
                              stdout=subprocess.PIPE, text=True, check=True)
    found = json.loads(proc.stdout)

    medians = {}
    for tree, commands in found.items():
        for name, runs in commands.items():
            codes = sorted({code for code, _ in runs} - {0})
            if codes:
                print(f"error: {tree} {name} exited {codes}", file=sys.stderr)
                return 1
            medians.setdefault(tree, {})[name] = statistics.median(kib for _, kib in runs) / 1024
            print(f"{tree} {name}: median own peak RSS {medians[tree][name]:.2f} MB "
                  f"over {len(runs)}, range {min(kib for _, kib in runs) / 1024:.2f}-"
                  f"{max(kib for _, kib in runs) / 1024:.2f}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "reps": args.reps,
                      "parent": args.parent, "scale": args.scale,
                      "median_own_peak_rss_mb": medians}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
