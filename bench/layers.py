"""Traced in-process run: the per-layer split of one workload.

The workload's commands run in this process through ``slcap.cli.run_command``.
Timing passes alternate between untraced and traced; a traced pass wraps the
public functions that ``slcap.cli`` and ``slcap.matching`` call and records a
span (name, layer, start, end, parent) per call, kept in memory and written to
``trace.json`` at the end.  A separate counting pass gives call counts (via
cProfile, which hooks the same profile events as ``sys.setprofile``) and
tracemalloc peaks, because both inflate times.  Import cost comes from
``python -X importtime`` in fresh interpreters.
"""
from __future__ import annotations

import contextlib
import cProfile
import io
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

# (module, function, layer bucket).  A bucket is "<layer>.<part>" and names the
# per-layer metric "<bucket>_s"; every span falls in exactly one bucket, so
# the buckets' self times add up to the time spent in run_command.
WRAPPED = [
    ("cli", "run_command", "cli.self"),
    ("cli", "_write_csv", "cli.csv"),
    ("cli", "write_impedance_csv", "cli.csv"),
    ("cli", "write_metrics_csv", "cli.csv"),
    ("cli", "write_vswr_csv", "cli.csv"),
    ("cli", "write_pattern_csv", "cli.csv"),
    ("cli", "write_cut_csv", "cli.csv"),
    ("cli", "write_lobes_csv", "cli.csv"),
    ("cli", "write_rssi_csv", "cli.csv"),
    ("cli", "parse_touchstone", "touchstone.parse"),
    ("cli", "validate_passivity", "touchstone.passivity"),
    ("cli", "write_touchstone", "touchstone.write"),
    ("cli", "impedance_profile", "impedance.self"),
    ("cli", "impedance_at", "impedance.self"),
    ("cli", "synthesize_series_rlc", "impedance.self"),
    ("cli", "metrics_report", "metrics.self"),
    ("cli", "vswr_profile", "matching.self"),
    ("cli", "apply_match", "matching.self"),
    ("cli", "design_series_resistive_match", "matching.self"),
    ("cli", "design_l_section", "matching.self"),
    ("cli", "power_split_report", "matching.self"),
    ("matching", "apply_match", "matching.self"),
    ("matching", "vswr_profile", "matching.self"),
    ("matching", "impedance_at", "impedance.self"),
    ("cli", "make_grid", "radiation.evaluate"),
    ("cli", "evaluate_pattern", "radiation.evaluate"),
    ("cli", "directivity", "radiation.summary"),
    ("cli", "gain", "radiation.summary"),
    ("cli", "find_lobes", "radiation.summary"),
    ("cli", "polar_cut", "radiation.summary"),
    ("cli", "parse_at_csq_log", "rssi.parse"),
    ("cli", "parse_rssi_csv", "rssi.parse"),
    ("cli", "compare_datasets", "rssi.compare"),
    ("cli", "line_plot_svg", "svgplot.render"),
]
BUCKETS = sorted({bucket for _, _, bucket in WRAPPED})
COUNTED_LAYERS = ("touchstone", "cli", "metrics", "radiation", "rssi", "svgplot")
MIN_PASSES = 3


class Tracer:
    """Patches the wrapped functions while active and records their spans."""

    def __init__(self, modules: dict, measure_memory: bool = False):
        self.modules = modules
        self.measure_memory = measure_memory
        self.spans: list[list] = []  # [name, bucket, start, end, parent, extra]
        self.stack: list[int] = []
        self.evaluate_peak_bytes = 0

    def _wrap(self, fn, name: str, bucket: str):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, bucket, 0.0, 0.0, self.stack[-1] if self.stack else None, None]
            self.spans.append(span)
            self.stack.append(index)
            memory = self.measure_memory and name == "evaluate_pattern"
            if memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if memory:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.evaluate_peak_bytes = max(self.evaluate_peak_bytes, peak)
            if name == "_write_csv":
                span[5] = os.path.getsize(args[0])
            elif name == "write_touchstone":
                span[5] = len(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def active(self):
        saved = []
        for module_name, name, bucket in WRAPPED:
            module = self.modules[module_name]
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, self._wrap(original, name, bucket))
        try:
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def roots(self) -> list[list]:
        return [span for span in self.spans if span[4] is None]

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] is not None:
                child_time[span[4]] += span[3] - span[2]
        out = dict.fromkeys(BUCKETS, 0.0)
        for span, children in zip(self.spans, child_time):
            out[span[1]] += (span[3] - span[2]) - children
        return out


def _invoke(cli, argv: list[str]) -> int:
    """run_command with its report kept off stdout; an escaped exception is exit 1."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.run_command(list(argv))
        except Exception:
            traceback.print_exc()
            return 1


def import_times(env: dict) -> tuple[float, float]:
    """Median (slcap total, scipy share) in seconds from ``-X importtime``."""
    totals, scipys = [], []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import slcap.cli"],
                              env=env, capture_output=True, text=True, check=True)
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:") or "cumulative" in parts[1]:
                continue
            name = parts[2][1:]
            depth = (len(name) - len(name.lstrip())) // 2
            rows.append((depth, name.strip(), int(parts[1])))
        # Lines come children first; walking them backwards, the open stack
        # holds each line's ancestors.
        total = scipy = 0
        stack: list[tuple[int, str]] = []
        for depth, name, cumulative in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            parent = stack[-1][1] if stack else ""
            if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
                scipy += cumulative
            if depth == 0 and name.split(".")[0] == "slcap":
                total += cumulative
            stack.append((depth, name))
        totals.append(total / 1e6)
        scipys.append(scipy / 1e6)
    return statistics.median(totals), statistics.median(scipys)


def run_traced(workload, seconds: float, src: Path, env: dict, trace_path: Path, hash_outputs):
    """Run the warm-up, timing and counting passes.

    Returns (attempted, failed invocations, output digests per command,
    metrics, whether the self times account for the traced total).
    """
    sys.path.insert(0, str(src))
    import slcap.cli as cli
    import slcap.matching as matching

    modules = {"cli": cli, "matching": matching}
    attempted = failed = 0
    digests: dict[str, list] = {cmd.name: [] for cmd in workload.commands}

    def one_pass(tracer: Tracer | None, profiler: cProfile.Profile | None = None) -> float:
        nonlocal attempted, failed
        total = 0.0
        for cmd in workload.commands:
            attempted += 1
            with tracer.active() if tracer else contextlib.nullcontext():
                if profiler:
                    profiler.enable()
                start = time.perf_counter()
                code = _invoke(cli, cmd.argv)
                total += time.perf_counter() - start
                if profiler:
                    profiler.disable()
            if code != 0:
                failed += 1
            digests[cmd.name].append(hash_outputs(cmd.out_dir) if code == 0 else None)
        return total

    one_pass(None)  # warm-up: first-call costs are paid once per process
    # Timing passes, untraced and traced in turn so both see the same noise.
    untraced, traced = [], []
    began = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - began < seconds:
        untraced.append(one_pass(None))
        tracer = Tracer(modules)
        traced.append((one_pass(tracer), tracer))
    traced.sort(key=lambda item: item[0])
    traced_total, median_tracer = traced[(len(traced) - 1) // 2]
    untraced_total = sorted(untraced)[(len(untraced) - 1) // 2]

    # Counting pass: call counts and allocation peaks, not timed.
    counter = Tracer(modules, measure_memory=True)
    profiler = cProfile.Profile()
    tracemalloc.start()
    try:
        one_pass(counter, profiler)
    finally:
        tracemalloc.stop()
    layer_files = {str(src / "slcap" / f"{layer}.py"): layer for layer in COUNTED_LAYERS}
    py_calls = dict.fromkeys(COUNTED_LAYERS, 0)
    for entry in profiler.getstats():
        layer = layer_files.get(getattr(entry.code, "co_filename", None))
        if layer:
            py_calls[layer] += entry.callcount

    selfs = median_tracer.self_times()
    import_total, import_scipy = import_times(env)
    metrics = {
        "import.total_s": (import_total, "s"),
        "import.scipy_s": (import_scipy, "s"),
        **{f"{bucket}_s": (value, "s") for bucket, value in selfs.items()},
        "cli.csv_mb": (sum(s[5] for s in counter.spans if s[0] == "_write_csv") / 1e6, "MB"),
        "touchstone.write_mb": (sum(s[5] for s in counter.spans if s[0] == "write_touchstone") / 1e6, "MB"),
        "matching.calls": (sum(1 for s in counter.spans if s[1] == "matching.self"), "count"),
        "radiation.evaluate_peak_mb": (counter.evaluate_peak_bytes / 1e6, "MB"),
        **{f"{layer}.py_calls": (count, "count") for layer, count in py_calls.items()},
        "trace.inproc_s": (untraced_total, "s"),
        "trace.self_sum_s": (sum(selfs.values()), "s"),
        "trace.overhead_s": (traced_total - untraced_total, "s"),
    }

    trace_path.write_text(json.dumps({
        "fields": ["name", "bucket", "start", "end", "parent", "bytes"],
        "timing_passes": [{"total_s": total, "spans": tracer.spans} for total, tracer in traced],
        "counting_pass": {"spans": counter.spans, "py_calls": py_calls},
    }))
    # The split must account for the time inside run_command: no span lost or
    # counted twice.
    root_total = sum(span[3] - span[2] for span in median_tracer.roots())
    split_ok = abs(sum(selfs.values()) - root_total) <= 1e-6 * max(root_total, 1.0)
    return attempted, failed, digests, metrics, split_ok
