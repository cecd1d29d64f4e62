"""The ``rssi`` command's baseline log parsed in a forked process (``_cpus.fan_out``).

The two parses are two items of ``fan_out``, whose work is estimated from the
sizes of both logs: with two ranges, the child pickles the baseline dataset
through a spill file while the caller parses the novel log.  The parse and
the block writer follow one rule for how many ranges pay.  Whatever the child
does, the command must give what the serial parses give: the same dataset
bit for bit, the same outputs, or the same first error (the novel log's, then
the baseline's).  The fixtures force the fork by making any file large enough
to pay for a child.
"""
import math
import os
import pickle
import random
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from slcap import _cpus, cli, parse_at_csq_log, parse_rssi_csv
from slcap.cli import run_command
from slcap.rssi import _read_columns

STAMPS = [  # canonical forms, then forms that go through fromisoformat
    "2025-11-04T09:{m:02d}:{s:02d}Z", "2025-11-04 09:{m:02d}:{s:02d}+02:00",
    "2025-11-04T09:{m:02d}:{s:02d}.250000-05:30", "2025-11-04t09:{m:02d}:{s:02d}z",
    "2025-11-04T09:{m:02d}:{s:02d}.000000", "2025-W45-2T09:{m:02d}:{s:02d}",
]


def log_texts(n, seed, stamps=STAMPS):
    """The same ``n`` readings as an AT log, with comments and blank lines, and as CSV."""
    rng = random.Random(seed)
    at, table = ["# session", ""], ["timestamp,rssi,ber"]
    for i in range(n):
        stamp = rng.choice(stamps).format(m=i // 60 % 60, s=i % 60)
        rssi, ber = rng.choice([*range(32), 99]), rng.choice([*range(8), 99])
        at.append(f"{stamp} +CSQ: {rssi},{ber}" + ("\n# marker" if i % 97 == 5 else ""))
        table.append(f"{stamp},{rssi},{ber}")
    return "\n".join(at) + "\n", "\n".join(table) + "\n"


def write_logs(tmp_path, fmt, n_novel=300, n_baseline=250, novel_bad=None, baseline_bad=None,
               stamps=STAMPS):
    """novel and baseline logs under ``tmp_path``; a ``*_bad`` line replaces that line."""
    paths = []
    for name, n, bad in (("novel", n_novel, novel_bad), ("baseline", n_baseline, baseline_bad)):
        text = log_texts(n, name, stamps)[fmt == "csv"]
        if bad is not None:
            lines = text.splitlines(keepends=True)
            lines[bad - 1] = "not a reading\n"
            text = "".join(lines)
        path = tmp_path / f"{name}.{'log' if fmt == 'at' else 'csv'}"
        path.write_text(text)
        paths.append(str(path))
    return paths


def parses(novel, baseline, fmt):
    """The two calls ``cmd_rssi`` hands to ``fan_out``."""
    parse = parse_at_csq_log if fmt == "at" else parse_rssi_csv
    return (partial(cli._parse_input, novel, parse, antenna="novel"),
            partial(cli._parse_input, baseline, parse, antenna="baseline"))


def parse_both(first, second, n_bytes):
    """``(first(), second())`` through ``fan_out``, as ``cmd_rssi`` runs its parses of two logs
    of ``n_bytes`` together."""
    calls = (first, second)
    ranges = _cpus.fan_out(2, n_bytes / _cpus._PARSE_BYTES_PER_S,
                           lambda lo, hi: [call() for call in calls[lo:hi]])
    return tuple(result for found in ranges for result in found)


def counted_forks(monkeypatch):
    """Two usable CPUs; the list of forks made."""
    monkeypatch.setattr(_cpus, "_usable_cpus", lambda: 2)
    made = []
    fork = _cpus._fork
    monkeypatch.setattr(_cpus, "_fork", lambda: made.append(None) or fork())
    return made


@pytest.fixture
def forks(monkeypatch):
    """``counted_forks``, and any file pays for a child."""
    monkeypatch.setattr(_cpus, "_PARSE_BYTES_PER_S", 1e-9)
    return counted_forks(monkeypatch)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_dataset(got, expected):
    # In the parsed form: the isoformat texts as one read-only S column, and neither
    # the tuple of texts nor a datetime built from it.
    assert "iso_timestamps" not in vars(got) and "timestamps" not in vars(got)
    assert got.iso_column.dtype.kind == "S" and not got.iso_column.flags.writeable
    assert got.iso_column.dtype == expected.iso_column.dtype
    assert got.iso_column.tobytes() == expected.iso_column.tobytes()
    assert got.iso_timestamps == expected.iso_timestamps
    for column in ("rssi", "ber"):
        a, b = getattr(got, column), getattr(expected, column)
        assert a.dtype == b.dtype == np.int64
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable and not b.flags.writeable
    assert (got.environment, got.antenna) == (expected.environment, expected.antenna)


def rssi_run(tmp_path, fmt, novel, baseline, capsys, out="out"):
    """exit code, stderr and output bytes of one ``rssi`` run."""
    code = run_command(["--out-dir", str(tmp_path / out), "--svg", "rssi", novel, baseline,
                        "--format", fmt])
    err = capsys.readouterr().err
    files = {p.name: p.read_bytes() for p in sorted((tmp_path / out).glob("*"))}
    return code, err, files


@pytest.mark.parametrize("fmt", ["at", "csv"])
def test_forked_datasets_are_the_serial_ones(tmp_path, forks, fmt):
    novel, baseline = write_logs(tmp_path, fmt)
    first, second = parses(novel, baseline, fmt)
    got = parse_both(first, second, os.path.getsize(novel) + os.path.getsize(baseline))
    assert len(forks) == 1
    assert_no_child_left()
    for dataset, expected in zip(got, (first(), second())):
        assert_same_dataset(dataset, expected)


@pytest.mark.parametrize("fmt", ["at", "csv"])
def test_forked_columnar_datasets_are_the_serial_ones(tmp_path, forks, fmt):
    # Logs of one timestamp layout are read by columns; the mixed logs above, line by line.
    novel, baseline = write_logs(tmp_path, fmt, stamps=STAMPS[1:2])
    for path in (novel, baseline):
        assert _read_columns(Path(path).read_text(), fmt == "csv") is not None
    first, second = parses(novel, baseline, fmt)
    got = parse_both(first, second, os.path.getsize(novel) + os.path.getsize(baseline))
    assert len(forks) == 1
    assert_no_child_left()
    for dataset, expected in zip(got, (first(), second())):
        assert_same_dataset(dataset, expected)


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("fmt", ["at", "csv"])
def test_rssi_outputs_on_any_cpu_count(tmp_path, monkeypatch, forks, capsys, fmt, cpus):
    novel, baseline = write_logs(tmp_path, fmt)
    serial = rssi_run(tmp_path, fmt, novel, baseline, capsys, "serial")
    monkeypatch.setattr(_cpus, "_usable_cpus", lambda: cpus)
    forks.clear()
    assert rssi_run(tmp_path, fmt, novel, baseline, capsys, "forked") == serial
    assert serial[0] == 0 and len(forks) == (cpus > 1)
    assert_no_child_left()


@pytest.mark.parametrize(("novel_bad", "baseline_bad"), [(5, 4), (None, 7), (9, None)])
@pytest.mark.parametrize("fmt", ["at", "csv"])
def test_errors_are_the_serial_ones(tmp_path, monkeypatch, forks, capsys, fmt, novel_bad,
                                    baseline_bad):
    novel, baseline = write_logs(tmp_path, fmt, novel_bad=novel_bad, baseline_bad=baseline_bad)
    code, err, _ = rssi_run(tmp_path, fmt, novel, baseline, capsys)
    assert code == 2 and len(forks) == 1
    bad_path, bad_line = (novel, novel_bad) if novel_bad else (baseline, baseline_bad)
    assert err.startswith(f"error: {bad_path}: line {bad_line}: ")
    monkeypatch.setattr(_cpus, "_usable_cpus", lambda: 1)
    assert rssi_run(tmp_path, fmt, novel, baseline, capsys)[:2] == (code, err)
    assert_no_child_left()


@pytest.mark.parametrize("baseline_bad", [None, 7])
def test_failed_child_is_redone_by_the_caller(tmp_path, monkeypatch, forks, capsys,
                                              baseline_bad):
    novel, baseline = write_logs(tmp_path, "at", baseline_bad=baseline_bad)
    serial = rssi_run(tmp_path, "at", novel, baseline, capsys, "serial")
    caller = os.getpid()

    def only_in_the_caller(text, **kw):
        if os.getpid() != caller:
            raise MemoryError("only in a child")
        return parse_at_csq_log(text, **kw)

    monkeypatch.setattr(cli, "parse_at_csq_log", only_in_the_caller)
    forks.clear()
    assert rssi_run(tmp_path, "at", novel, baseline, capsys, "forked") == serial
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("refused", ["fork", "TemporaryFile"])
@pytest.mark.parametrize("baseline_bad", [None, 7])
def test_no_fork_or_spill_file_parses_in_the_caller(tmp_path, monkeypatch, forks, capsys,
                                                     refused, baseline_bad):
    novel, baseline = write_logs(tmp_path, "csv", baseline_bad=baseline_bad)
    serial = rssi_run(tmp_path, "csv", novel, baseline, capsys, "serial")

    def refuse(*args, **kwargs):
        raise OSError("refused")

    monkeypatch.setattr(_cpus.os if refused == "fork" else _cpus.tempfile, refused, refuse)
    assert rssi_run(tmp_path, "csv", novel, baseline, capsys, "forked") == serial
    assert_no_child_left()


def test_child_is_killed_when_the_first_parse_fails(forks):
    def first():
        raise ValueError("first fails")

    def second():
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(ValueError, match="^first fails$"):
        parse_both(first, second, 1)
    assert time.perf_counter() - start < 30
    assert len(forks) == 1
    assert_no_child_left()


def test_parse_forks_only_when_it_pays(monkeypatch):
    forks = counted_forks(monkeypatch)
    # Bytes of two logs whose parse is four children long: isqrt(W / _CHILD_S) = 2 ranges.
    limit = 4 * _cpus._CHILD_S * _cpus._PARSE_BYTES_PER_S
    for size, cpus, fork_made in ((limit / 2, 2, False), (2 * limit, 1, False),
                                  (2 * limit, 2, True)):
        monkeypatch.setattr(_cpus, "_usable_cpus", lambda: cpus)
        forks.clear()
        assert parse_both(lambda: "first", lambda: "second", size) == ("first", "second")
        assert len(forks) == fork_made
    monkeypatch.delattr(_cpus.os, "fork")
    forks.clear()
    assert parse_both(lambda: "first", lambda: "second", 2 * limit) == ("first", "second")
    assert forks == []
    assert_no_child_left()


def test_small_logs_parse_in_one_process(tmp_path, monkeypatch, capsys):
    made = counted_forks(monkeypatch)  # at the shipped rate, a few KB do not pay for a child
    novel, baseline = write_logs(tmp_path, "at", n_novel=50, n_baseline=50)
    size = os.path.getsize(novel) + os.path.getsize(baseline)
    assert math.isqrt(int(size / _cpus._PARSE_BYTES_PER_S / _cpus._CHILD_S)) < 2
    assert rssi_run(tmp_path, "at", novel, baseline, capsys)[0] == 0
    assert made == []


# (usable CPUs, W in child costs).  W = 3.5 is over one child's cost but short of the four
# that pay for a second range; each W sits half a cost clear of a whole one.
ONE_RULE = [(1, 100.5), (2, 0.5), (2, 3.5), (2, 4.5), (3, 9.5), (8, 3.5), (8, 48.5), (8, 63.5)]


@pytest.mark.parametrize(("cpus", "work"), ONE_RULE)
def test_writer_and_parse_follow_one_rule(tmp_path, monkeypatch, capsys, cpus, work):
    # The writer's 8 blocks and the parse's 2 logs each make
    # min(CPUs, items, isqrt(W / _CHILD_S)) ranges, one of them the caller's, and at least one.
    def ranges(items):
        return max(1, min(cpus, items, math.isqrt(int(work))))

    forks = counted_forks(monkeypatch)
    monkeypatch.setattr(_cpus, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(_cpus, "_CHILD_S", 1.0)
    clock = [0.0]  # moved only by block 0, by an eighth of W: no other write pays for a child
    monkeypatch.setattr(_cpus, "perf_counter", lambda: clock[0])

    def block(i):
        clock[0] += work / 8 if i == 0 else 0.0
        return f"block {i}\n"

    _cpus.write_blocks(tmp_path / "out.txt", "", block, 8)
    assert (tmp_path / "out.txt").read_text() == "".join(f"block {i}\n" for i in range(8))
    assert len(forks) + 1 == ranges(8)
    novel, baseline = write_logs(tmp_path, "csv")
    size = os.path.getsize(novel) + os.path.getsize(baseline)
    monkeypatch.setattr(_cpus, "_PARSE_BYTES_PER_S", size / work)  # both logs parse in W
    forks.clear()
    assert rssi_run(tmp_path, "csv", novel, baseline, capsys)[0] == 0
    assert len(forks) + 1 == ranges(2)
    assert_no_child_left()


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_unpickled_dataset_is_read_only(protocol):
    dataset = parse_at_csq_log(log_texts(20, "pickle")[0])
    assert_same_dataset(pickle.loads(pickle.dumps(dataset, protocol)), dataset)
