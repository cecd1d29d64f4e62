"""End-to-end benchmark of the slcap command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Inputs are generated from ``--seed``.  With ``--trace 0`` the workload's
commands run as fresh ``python -m slcap`` processes, one at a time (a closed
loop with one client), in whole rounds until ``--seconds`` have passed; the
end-to-end metrics are printed.  With ``--trace 1`` the same commands run in
this process with spans around each layer, and the per-layer metrics are
printed.  Every output is checked, and must be byte-identical across the
repetitions of a run.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_ROUNDS = 3


def _load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hash_outputs(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def spawn(argv: list[str], env: dict, stderr_path: Path) -> tuple[int, float, int]:
    """Run ``python -m slcap argv``; returns (exit code, wall seconds, peak RSS in KiB).

    The peak RSS is this child's own, from ``wait4``, not the running maximum
    over all children that ``RUSAGE_CHILDREN`` gives.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "slcap", *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss


def run_untraced(workload, seconds: float, env: dict, work: Path) -> dict:
    stderr_path = work / "stderr.txt"
    spawn(["--version"], env, stderr_path)  # compile bytecode, fill the file cache
    setup, times = [], {cmd.name: [] for cmd in workload.commands}
    rss = {cmd.name: [] for cmd in workload.commands}
    digests = {cmd.name: [] for cmd in workload.commands}
    attempted = failed = rounds = 0
    errors = []
    began = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - began < seconds:
        # One start-up probe per round, so it samples the same machine phases
        # as the commands it sits between.
        sub = workload.subcommands[rounds % len(workload.subcommands)]
        code, elapsed, _ = spawn([sub, "--help"], env, stderr_path)
        attempted += 1
        setup.append(elapsed)
        if code != 0:
            failed += 1
            errors.append(f"{sub} --help exited {code}")
        for cmd in workload.commands:
            code, elapsed, peak_kib = spawn(cmd.argv, env, stderr_path)
            attempted += 1
            times[cmd.name].append(elapsed)
            rss[cmd.name].append(peak_kib / 1024.0)
            if code == 0:
                digests[cmd.name].append(hash_outputs(cmd.out_dir))
            else:
                failed += 1
                digests[cmd.name].append(None)
                errors.append(f"{cmd.name} exited {code}: {stderr_path.read_text()[-500:]}")
        rounds += 1
    return {"setup": setup, "times": times, "rss": rss, "digests": digests,
            "attempted": attempted, "failed": failed, "rounds": rounds, "errors": errors}


def check_outputs(workload, digests: dict) -> tuple[int, bool, list[str]]:
    """Failed invocations and correctness from the output checks and determinism.

    Each command's outputs are checked once; they are the outputs of every
    repetition when all repetitions wrote the same bytes.  A repetition whose
    bytes differ from the first fails; a failed check fails them all.
    """
    failed, correct, problems = 0, True, []
    for cmd in workload.commands:
        runs = digests[cmd.name]
        ok = [d for d in runs if d is not None]
        if not ok:
            continue
        mismatched = sum(1 for d in ok if d != ok[0])
        found = cmd.check(cmd.out_dir) if mismatched == 0 else []
        if mismatched:
            failed += mismatched
            problems.append(f"{cmd.name}: {mismatched} of {len(ok)} repetitions wrote different bytes")
        elif found:
            failed += len(ok)
            problems += [f"{cmd.name}: {p}" for p in found]
        correct = correct and not mismatched and not found
    return failed, correct, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "slcap" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    import numpy as np

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), work, _load_oracles())
    for cmd in workload.commands:
        cmd.out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)

    if args.trace:
        from layers import run_traced

        attempted, failed, digests, layer_metrics, split_ok = run_traced(
            workload, args.seconds, SRC, env, work / "trace.json", hash_outputs)
        check_failed, correct, problems = check_outputs(workload, digests)
        failed += check_failed
        correct = correct and split_ok
        if not split_ok:
            problems.append("per-layer self times do not add up to the traced total")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer_metrics.items()}
    else:
        result = run_untraced(workload, args.seconds, env, work)
        raw = {key: result[key] for key in ("rounds", "setup", "times", "rss")}
        (work / "times.json").write_text(json.dumps(raw))
        check_failed, correct, problems = check_outputs(workload, result["digests"])
        attempted, failed = result["attempted"], result["failed"] + check_failed
        problems = result["errors"] + problems
        medians = {name: statistics.median(t) for name, t in result["times"].items()}
        for name, t in result["times"].items():
            print(f"{name}: median {medians[name]:.4f} s over {len(t)}, "
                  f"peak RSS {max(result['rss'][name]):.1f} MB")
        print(f"rounds: {result['rounds']}, start-up probes: {len(result['setup'])}")
        metrics = {
            "wall_s": {"value": sum(medians.values()), "unit": "s"},
            "setup_s": {"value": statistics.median(result["setup"]), "unit": "s"},
            "peak_rss_mb": {"value": max(statistics.median(r) for r in result["rss"].values()), "unit": "MB"},
        }

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
