"""The ``rssi`` command end to end: its two logs parsed in turn, in the calling process.

Whatever the CPU count, the command gives the outputs of the serial run, and
forks only to write its tables.  A bad novel log is reported before a bad
baseline log, and a bad ``--check-dbm`` before any refusal of the comparison; a log
with too few known readings is named with its count.  A log that the columnar reader
declines gives the same outputs as the one it takes.
"""
import os
import pickle
import random
from pathlib import Path

import numpy as np
import pytest

from slcap import _cpus, parse_at_csq_log, parse_rssi_csv
from slcap.cli import run_command
from slcap.rssi import _read_columns

STAMPS = [  # a log that mixes these forms is read line by line
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


def counted_forks(monkeypatch):
    """Two usable CPUs; the list of forks made."""
    monkeypatch.setattr(_cpus, "_usable_cpus", lambda: 2)
    made = []
    fork = _cpus._fork
    monkeypatch.setattr(_cpus, "_fork", lambda: made.append(None) or fork())
    return made


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


# Rows per block, so that any table of 8 rows or more is written in several ranges.
FORKING_BLOCK_ROWS = 7


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("fmt", ["at", "csv"])
def test_rssi_outputs_on_any_cpu_count(tmp_path, monkeypatch, capsys, fmt, cpus):
    novel, baseline = write_logs(tmp_path, fmt)
    forks = counted_forks(monkeypatch)
    monkeypatch.setattr(_cpus, "_usable_cpus", lambda: 1)
    serial = rssi_run(tmp_path, fmt, novel, baseline, capsys, "serial")
    # Any work pays for a child, so every table of two blocks or more forks.
    monkeypatch.setattr(_cpus, "BLOCK_ROWS", FORKING_BLOCK_ROWS)
    monkeypatch.setattr(_cpus, "_CHILD_S", 1e-15)
    monkeypatch.setattr(_cpus, "_usable_cpus", lambda: cpus)
    assert rssi_run(tmp_path, fmt, novel, baseline, capsys, "forked") == serial
    assert serial[0] == 0
    # The blocks of rssi_novel.csv (300 rows), rssi_baseline.csv (250) and comparison.csv
    # (20): each table forks a child per range after the caller's.
    blocks = [-(-rows // FORKING_BLOCK_ROWS) for rows in (300, 250, 20)]
    assert len(forks) == sum(min(cpus, n) - 1 for n in blocks)
    assert_no_child_left()


@pytest.mark.parametrize(("novel_bad", "baseline_bad"), [(5, 4), (None, 7), (9, None)])
@pytest.mark.parametrize("fmt", ["at", "csv"])
def test_novel_log_error_comes_before_the_baseline_error(tmp_path, capsys, fmt, novel_bad,
                                                         baseline_bad):
    novel, baseline = write_logs(tmp_path, fmt, novel_bad=novel_bad, baseline_bad=baseline_bad)
    code, err, files = rssi_run(tmp_path, fmt, novel, baseline, capsys)
    bad_path, bad_line = (novel, novel_bad) if novel_bad else (baseline, baseline_bad)
    assert code == 2 and err.startswith(f"error: {bad_path}: line {bad_line}: ")
    assert files == {}


@pytest.mark.parametrize("fmt", ["at", "csv"])
@pytest.mark.parametrize("side", ["novel", "baseline"])
def test_too_few_known_readings_name_the_log(tmp_path, capsys, side, fmt):
    paths = dict(zip(("novel", "baseline"), write_logs(tmp_path, fmt)))
    few = "2025-11-04T09:00:00Z +CSQ: 20,0\n2025-11-04T09:00:01Z +CSQ: 99,0\n"
    if fmt == "csv":
        few = "timestamp,rssi,ber\n2025-11-04T09:00:00Z,20,0\n2025-11-04T09:00:01Z,99,0\n"
    Path(paths[side]).write_text(few)
    code, err, files = rssi_run(tmp_path, fmt, paths["novel"], paths["baseline"], capsys)
    assert (code, err) == (
        1, f"error: {paths[side]}: 1 known readings; each dataset needs at least two\n")
    assert files == {}


@pytest.mark.parametrize("fmt", ["at", "csv"])
@pytest.mark.parametrize("side", ["novel", "baseline"])
def test_a_log_of_no_known_reading_is_named(tmp_path, capsys, side, fmt):
    # An empty log, and one whose every reading has the unknown code 99.
    paths = dict(zip(("novel", "baseline"), write_logs(tmp_path, fmt)))
    unknown = ["2025-11-04T09:00:00Z", "99", "0"], ["2025-11-04T09:00:01Z", "99", "99"]
    if fmt == "csv":
        texts = ["timestamp,rssi,ber\n", "timestamp,rssi,ber\n" + "".join(
            f"{stamp},{rssi},{ber}\n" for stamp, rssi, ber in unknown)]
    else:
        texts = ["", "".join(f"{stamp} +CSQ: {rssi},{ber}\n" for stamp, rssi, ber in unknown)]
    for text in texts:
        Path(paths[side]).write_text(text)
        code, err, files = rssi_run(tmp_path, fmt, paths["novel"], paths["baseline"], capsys)
        assert (code, err) == (
            1, f"error: {paths[side]}: 0 known readings; each dataset needs at least two\n")
        assert files == {}


@pytest.mark.parametrize("fmt", ["at", "csv"])
@pytest.mark.parametrize(("novel_codes", "baseline_codes", "named", "message"), [
    ([5, 20, 99], [0, 99, 0], ["baseline"], "baseline mean is zero; ratios are undefined"),
    ([10, 10], [12, 12], ["novel", "baseline"],
     "both samples have zero variance but different means"),
], ids=["zero_baseline_mean", "zero_variance"])
def test_refusals_name_their_logs(tmp_path, capsys, fmt, novel_codes, baseline_codes, named,
                                  message):
    paths = {}
    for side, codes in (("novel", novel_codes), ("baseline", baseline_codes)):
        stamps = [f"2025-11-04T09:00:{s:02d}Z" for s in range(len(codes))]
        if fmt == "csv":
            text = "timestamp,rssi,ber\n" + "".join(f"{t},{c},0\n" for t, c in zip(stamps, codes))
        else:
            text = "".join(f"{t} +CSQ: {c},0\n" for t, c in zip(stamps, codes))
        paths[side] = tmp_path / f"{side}.{fmt}"
        paths[side].write_text(text)
    code, err, files = rssi_run(tmp_path, fmt, str(paths["novel"]), str(paths["baseline"]), capsys)
    assert (code, err) == (1, f"error: {' and '.join(str(paths[s]) for s in named)}: {message}\n")
    assert files == {}


@pytest.mark.parametrize(("novel_codes", "baseline_codes"), [
    ([20, 99], [5, 6]), ([5, 20, 99], [0, 99, 0]), ([10, 10], [12, 12])],
    ids=["too_few_known", "zero_baseline_mean", "zero_variance"])
def test_bad_check_dbm_comes_before_a_refusal(tmp_path, capsys, novel_codes, baseline_codes):
    # The flag is checked before the comparison, so its exit 2 is not hidden by the exit 1.
    paths = []
    for side, codes in (("novel", novel_codes), ("baseline", baseline_codes)):
        paths.append(tmp_path / f"{side}.log")
        paths[-1].write_text("".join(f"2025-11-04T09:00:{s:02d}Z +CSQ: {c},0\n"
                                     for s, c in enumerate(codes)))
    out = tmp_path / "out"
    argv = ["--out-dir", str(out), "rssi", *map(str, paths), "--check-dbm", "40:-33"]
    assert run_command(argv[:-2]) == 1
    capsys.readouterr()
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --check-dbm needs CODE:DBM, got '40:-33': ")
    assert err.count("\n") == 1 and list(out.iterdir()) == []


def declined(text, fmt):
    """``text`` as the line parser reads it and the columnar reader declines it."""
    if fmt == "at":  # a second space before each +CSQ:
        return text.replace(" +CSQ: ", "  +CSQ: ")
    head, *rows = text.splitlines(keepends=True)  # each timestamp quoted
    return head + "".join(f'"{row.partition(",")[0]}",{row.partition(",")[2]}' for row in rows)


@pytest.mark.parametrize("fmt", ["at", "csv"])
def test_declined_logs_give_the_columnar_outputs(tmp_path, capsys, fmt):
    # The line parser writes each timestamp as its isoformat text, as the columns do.
    (tmp_path / "taken").mkdir()
    taken = write_logs(tmp_path / "taken", fmt, stamps=STAMPS[1:2])
    parse = parse_at_csq_log if fmt == "at" else parse_rssi_csv
    for path in taken:
        text = Path(path).read_text()
        assert _read_columns(text, fmt == "csv") is not None
        (tmp_path / Path(path).name).write_text(declined(text, fmt))
        assert _read_columns(declined(text, fmt), fmt == "csv") is None
        assert_same_dataset(parse(declined(text, fmt)), parse(text))
    expected = rssi_run(tmp_path, fmt, *taken, capsys, "taken_out")
    assert expected[0] == 0 and expected[1] == ""
    got = rssi_run(tmp_path, fmt, *(str(tmp_path / Path(p).name) for p in taken), capsys)
    assert got == expected


@pytest.mark.parametrize("fmt", ["at", "csv"])
def test_rssi_forks_nothing_to_parse(tmp_path, monkeypatch, capsys, fmt):
    forks = counted_forks(monkeypatch)
    # A clock that stands still: the writers estimate no work, so none of them forks.
    monkeypatch.setattr(_cpus, "perf_counter", lambda: 0.0)
    novel, baseline = write_logs(tmp_path, fmt, 30_000, 30_000, stamps=STAMPS[:1])
    assert os.path.getsize(novel) + os.path.getsize(baseline) > 1_000_000
    assert rssi_run(tmp_path, fmt, novel, baseline, capsys)[0] == 0
    assert forks == []


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_unpickled_dataset_is_read_only(protocol):
    dataset = parse_at_csq_log(log_texts(20, "pickle")[0])
    assert_same_dataset(pickle.loads(pickle.dumps(dataset, protocol)), dataset)
