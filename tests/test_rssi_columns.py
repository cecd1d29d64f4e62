"""The columnar ``rssi`` reader (``rssi._read_columns``) against the line parsers it stands in for.

Each case of the hazard table states whether the columnar reader takes the log
or declines it; either way the result must be the line parser's, bit for bit,
and ``slcap rssi`` must end the same with the reader bypassed.  The fuzz at the
end mutates the golden logs' bytes and runs them through the command line.
"""
import contextlib
import io
import re
import tempfile
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readers import assert_same_or_declined
from slcap import _cpus, rssi
from slcap.cli import run_command
from test_golden import INPUTS

HEADER = "timestamp,rssi,ber"


def log(fmt, readings, end="\n"):
    """A log of ``readings``: each a (timestamp, rssi, ber) triple, or a line as it stands."""
    lines = [HEADER] if fmt == "csv" else ["# modem log"]
    for reading in readings:
        if isinstance(reading, str):
            lines.append(reading)
        else:
            stamp, code, level = reading
            lines.append(f"{stamp} +CSQ: {code},{level}" if fmt == "at"
                         else f"{stamp},{code},{level}")
    return end.join(lines) + end


def good(n=3, stamp="2025-11-04T09:{i:02d}:00Z"):
    return [(stamp.format(i=i), str(10 + i), str(i % 8)) for i in range(n)]


def with_reading(stamp="2025-11-04T09:59:00Z", code="20", level="0"):
    """Good readings, then one with the given fields."""
    return good() + [(stamp, code, level)]


def joined(char):
    """Two readings on one line, ``char`` between them."""
    def build(fmt):
        first, second = (log(fmt, [r]).splitlines()[1] for r in good(2))
        return log(fmt, [first + char + second] + good(2)[1:])
    return build


# name -> (the log of a format, whether the columnar reader takes it: at, csv)
HAZARDS = {
    # Line breaks.
    "crlf_only": (lambda fmt: log(fmt, good(), end="\r\n"), (True, True)),
    "lone_cr": (lambda fmt: log(fmt, good(), end="\r"), (False, False)),
    "cr_inside_a_line": (joined("\r"), (False, False)),
    **{f"split_at_{ord(c):02x}": (joined(c), (False, False))
       for c in ("\f", "\v", "\x1c", "\x1d", "\x1e")},
    # Non-ASCII.
    "arabic_indic_codes": (lambda fmt: log(fmt, with_reading(code="٢٠", level="٠")),
                           (False, False)),
    "ideographic_spaces": (lambda fmt: log(fmt, good() + [
        "2025-11-04T09:59:00Z　+CSQ:　20,0" if fmt == "at"
        else "2025-11-04T09:59:00Z　,20,0"]), (False, False)),
    # Leading or trailing blanks and tabs.
    **{f"{where}_{name}": (lambda fmt, pad=pad, where=where: log(fmt, [
        pad + line if where == "leading" else line + pad
        for line in log(fmt, good()).splitlines()[1:]]), (False, False))
       for where in ("leading", "trailing") for name, pad in (("blank", " "), ("tab", "\t"))},
    # CSV only; in an AT log a # line is a comment.
    "hash_line": (lambda fmt: log(fmt, good() + ["# 2025-11-04T09:59:00Z,1,0"] + good(1)),
                  (True, False)),
    "quoted_cell": (lambda fmt: log(fmt, good() + ['"2025-11-04T09:59:00Z",20,0']),
                    (False, False)),
    # Dates and times.
    **{f"feb_29_{year}": (lambda fmt, year=year: log(fmt, with_reading(f"{year}-02-29T09:00:00Z")),
                          (year in (2000, 2024),) * 2) for year in (2023, 1900, 2000, 2024)},
    "year_0000": (lambda fmt: log(fmt, with_reading("0000-01-01T00:00:00Z")), (False, False)),
    "years_0001_and_9999": (lambda fmt: log(fmt, good(stamp="0001-01-01T00:00:{i:02d}")
                                            + [("9999-12-31T23:59:59", "1", "0")]), (True, True)),
    "hour_24": (lambda fmt: log(fmt, with_reading("2025-11-04T24:00:00Z")), (False, False)),
    "second_60": (lambda fmt: log(fmt, with_reading("2025-11-04T23:59:60Z")), (False, False)),
    "space_before_the_time": (lambda fmt: log(fmt, good(stamp="2025-11-04 09:{i:02d}:00Z")),
                              (True, True)),
    # Offsets.
    "offset_minus_zero": (lambda fmt: log(fmt, good(stamp="2025-11-04T09:{i:02d}:00-00:00")),
                          (True, True)),
    "offset_minutes_carried": (lambda fmt: log(fmt, good(stamp="2025-11-04T09:{i:02d}:00+01:75")),
                               (False, False)),
    "offset_24_hours": (lambda fmt: log(fmt, good(stamp="2025-11-04T09:{i:02d}:00+24:00")),
                        (False, False)),
    "offsets_either_side": (lambda fmt: log(fmt, good(stamp="2025-11-04T09:{i:02d}:00+05:30")
                                            + [("2025-11-04T09:59:00-23:59", "1", "0")]),
                            (True, True)),
    "lowercase_z": (lambda fmt: log(fmt, good(stamp="2025-11-04t09:{i:02d}:00z")),
                    (False, False)),
    "lowercase_z_after_a_t": (lambda fmt: log(fmt, good(stamp="2025-11-04T09:{i:02d}:00z")),
                              (True, True)),
    # Fractions.
    "fraction_zero": (lambda fmt: log(fmt, good(stamp="2025-11-04T09:{i:02d}:00.000000")),
                      (True, True)),
    "fraction_zero_beside_others": (lambda fmt: log(fmt, good(
        stamp="2025-11-04T09:{i:02d}:00.000000+02:00") + [
        ("2025-11-04T09:59:00.250000+02:00", "1", "0")]), (True, True)),
    "fraction_half": (lambda fmt: log(fmt, good(stamp="2025-11-04T09:{i:02d}:00.5")),
                      (False, False)),
    # Codes.
    "code_007": (lambda fmt: log(fmt, with_reading(code="007")), (False, False)),
    "codes_with_leading_zeros": (lambda fmt: log(fmt, with_reading(code="07", level="00")),
                                 (True, True)),
    "unknown_codes": (lambda fmt: log(fmt, with_reading(code="99", level="99")), (True, True)),
    **{f"rssi_{code}": (lambda fmt, code=code: log(fmt, with_reading(code=str(code))),
                        (False, False)) for code in range(32, 99)},
    **{f"ber_{level}": (lambda fmt, level=level: log(fmt, with_reading(level=str(level))),
                        (False, False)) for level in range(8, 99)},
    # File shape.
    "bad_last_line": (lambda fmt: log(fmt, good() + ["not a reading"]), (False, False)),
    "bad_last_line_unended": (lambda fmt: log(fmt, good() + ["2025-11-04T09:59:00Z"])[:-1],
                              (False, False)),
    "last_line_unended": (lambda fmt: log(fmt, good())[:-1], (True, True)),
    "layout_changes": (lambda fmt: log(fmt, good() + good(2, "2025-11-04T10:{i:02d}:00+02:00")),
                       (False, False)),
    "no_data_line": (lambda fmt: log(fmt, []), (False, False)),
    "blank_lines": (lambda fmt: log(fmt, ["", *good(2), "", "", *good(1)], end="\r\n"),
                    (True, True)),
    "empty": (lambda fmt: "", (False, False)),
    "golden_baseline": (lambda fmt: INPUTS["baseline.log" if fmt == "at" else "baseline.csv"],
                        (True, True)),
}

PARSERS = {"at": (partial(rssi._read_columns, table=False), rssi._at_lines),
           "csv": (partial(rssi._read_columns, table=True), rssi._csv_records)}
OTHER_LOG = {"at": INPUTS["baseline.log"], "csv": INPUTS["baseline.csv"]}


def rssi_run(fmt, novel, baseline, out):
    """Exit code, stderr and output files of ``slcap rssi`` on two log files."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_command(["--out-dir", str(out), "rssi", str(novel), str(baseline),
                            "--format", fmt])
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.is_dir() else {}
    return code, err.getvalue(), files


def cli_ending(fmt, document, fast):
    """How ``slcap rssi`` ends with ``document`` as the novel log, the columnar reader used
    or bypassed; the temporary directory reads ``<tmp>`` in stderr."""
    bypass = mock.patch.object(rssi, "_read_columns", lambda *args, **kwargs: None)
    with tempfile.TemporaryDirectory() as tmp, (contextlib.nullcontext() if fast else bypass):
        novel, baseline = Path(tmp) / f"novel.{fmt}", Path(tmp) / f"baseline.{fmt}"
        novel.write_text(document, encoding="utf-8", newline="")
        baseline.write_text(OTHER_LOG[fmt], encoding="utf-8", newline="")
        code, err, files = rssi_run(fmt, novel, baseline, Path(tmp) / "out")
        return code, err.replace(tmp, "<tmp>"), files


@pytest.mark.parametrize("fmt", ["at", "csv"])
@pytest.mark.parametrize("name", sorted(HAZARDS))
def test_hazard(name, fmt):
    build, taken = HAZARDS[name]
    document = build(fmt)
    fast, slow = PARSERS[fmt]
    cli = partial(cli_ending, fmt)
    assert assert_same_or_declined(fast, slow, document, cli=cli) is taken[fmt == "csv"]


@pytest.mark.parametrize("fmt", ["at", "csv"])
def test_public_parser_is_the_columnar_or_the_line_result(fmt):
    public = rssi.parse_at_csq_log if fmt == "at" else rssi.parse_rssi_csv
    fast, slow = PARSERS[fmt]
    for name, (build, taken) in HAZARDS.items():
        document = build(fmt)
        assert_same_or_declined(public, slow, document)
        if taken[fmt == "csv"]:
            assert_same_or_declined(fast, public, document)


def test_offsets_and_fractions_are_written_as_their_isoformat():
    ds = rssi.parse_at_csq_log(log("at", [
        ("2025-11-04 09:00:00.000000-00:00", "1", "0"),
        ("2025-11-04T09:00:01.250000-00:00", "2", "0"),
        ("2025-11-04T09:00:02.000000-05:30", "3", "0")]))
    assert ds.iso_column.dtype == "S32"
    assert ds.iso_timestamps == ("2025-11-04T09:00:00+00:00", "2025-11-04T09:00:01.250000+00:00",
                                 "2025-11-04T09:00:02-05:30")
    assert [t.isoformat() for t in ds.timestamps] == list(ds.iso_timestamps)


# ---------------------------------------------------------------------------
# Byte mutations of the golden logs through the command line

GOLDEN_LOGS = {"at": ("novel.log", "baseline.log"), "csv": ("novel.csv", "baseline.csv")}
# Bytes that make or break the readings: digits and the grammar's literals, line breaks
# and other splitters, blanks, a quote, and bytes that are not UTF-8 on their own.
TOKENS = [*b"0123456789", *b",:+-.ZzT #\"\t\r\n\x0b\x0c\x1c\x00", 0xA0, 0xD9, 0xFF]


def mutated(draw, data: bytes, tokens) -> bytes:
    """``data`` in LF or CR LF form, then 1-8 bytes deleted, inserted or replaced (each new
    byte one of ``tokens`` or any byte), or the head of one line spliced onto the tail of
    another."""
    if draw(st.booleans()):
        data = data.replace(b"\n", b"\r\n")
    n = draw(st.integers(1, 8))
    new = bytes(draw(st.lists(st.one_of(st.sampled_from(tokens), st.integers(0, 255)),
                              min_size=n, max_size=n)))
    at = draw(st.integers(0, len(data)))
    kind = draw(st.sampled_from(["delete", "insert", "replace", "splice"]))
    if kind == "delete":
        data = data[:at] + data[at + n:]
    elif kind == "insert":
        data = data[:at] + new + data[at:]
    elif kind == "replace":
        data = data[:at] + new + data[at + n:]
    else:
        lines = data.splitlines(keepends=True)
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))] + \
            lines[j][draw(st.integers(0, len(lines[j]))):]
        data = b"".join(lines)
    return data


@st.composite
def mutations(draw):
    """(format, which golden log is mutated, its bytes, as ``mutated`` makes them)."""
    fmt = draw(st.sampled_from(sorted(GOLDEN_LOGS)))
    which = draw(st.integers(0, 1))
    return fmt, which, mutated(draw, INPUTS[GOLDEN_LOGS[fmt][which]].encode(), TOKENS)


# Examples per run: with 2 runs of the command each, the two tests below take about
# 4 s together on a 2-CPU x86_64 host.
FUZZ_EXAMPLES = 60


@pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(mutations())
def test_mutated_logs_keep_the_exit_contract(forked, mutation):
    fmt, which, data = mutation
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        if forked:  # any work pays for a child on two CPUs, so each table of 8 rows forks
            stack.enter_context(mock.patch.object(_cpus, "BLOCK_ROWS", 7))
            stack.enter_context(mock.patch.object(_cpus, "_CHILD_S", 1e-15))
            stack.enter_context(mock.patch.object(_cpus, "_usable_cpus", lambda: 2))
        paths = [Path(tmp) / name for name in GOLDEN_LOGS[fmt]]
        for path, name in zip(paths, GOLDEN_LOGS[fmt]):
            path.write_text(INPUTS[name], encoding="utf-8", newline="")
        paths[which].write_bytes(data)
        first = rssi_run(fmt, *paths, Path(tmp) / "first")
        code, err, _ = first
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert re.match(rf"error: {re.escape(str(paths[which]))}: line \d+: ", err)
        assert rssi_run(fmt, *paths, Path(tmp) / "again") == first
    try:
        text = data.decode()
    except UnicodeDecodeError:
        return
    assert_same_or_declined(*PARSERS[fmt], text)
