"""The columnar log parsers against the per-line parsers they replaced.

Each reference below is the earlier parser, kept as the definition of what a
log means: one ``RssiSample`` per reading, checked as it is read.  The
columnar parsers must give the same columns, or the same error text and line
number, on every input; where a log has several faults, the first bad line
in file order wins.  The property tests at the end also feed generated logs
through the command line.
"""
import contextlib
import csv
import dataclasses
import io
import re
import tempfile
import tracemalloc
from dataclasses import dataclass
from datetime import datetime, timedelta, tzinfo
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slcap import AtLogParseError, RssiDataset, parse_at_csq_log, parse_rssi_csv
from slcap.cli import run_command, write_rssi_csv
from slcap.rssi import _CSQ_LINE

REF_CSQ_LINE = re.compile(r"^(?P<ts>.+?)\s+\+CSQ:\s*(?P<rssi>\d+)\s*,\s*(?P<ber>\d+)\s*$")


@dataclass(frozen=True)
class RssiSample:
    timestamp: datetime
    rssi: int
    ber: int

    def __post_init__(self):
        if not (0 <= self.rssi <= 31 or self.rssi == 99):
            raise ValueError(f"rssi {self.rssi} outside 0..31 / 99")
        if not (0 <= self.ber <= 7 or self.ber == 99):
            raise ValueError(f"ber {self.ber} outside 0..7 / 99")


def ref_timestamp(text, line_number):
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(cleaned)
    except ValueError:
        raise AtLogParseError(line_number, f"timestamp {text.strip()!r} is not ISO-8601") from None


def ref_sample(ts, rssi, ber, line_number):
    try:
        return RssiSample(timestamp=ts, rssi=rssi, ber=ber)
    except ValueError as exc:
        raise AtLogParseError(line_number, str(exc)) from None


def reference_at(text):
    samples = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = REF_CSQ_LINE.match(line)
        if m is None:
            raise AtLogParseError(line_number, f"not a +CSQ reading: {line!r}")
        ts = ref_timestamp(m.group("ts"), line_number)
        samples.append(ref_sample(ts, int(m.group("rssi")), int(m.group("ber")), line_number))
    return samples


def reference_csv(text):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise AtLogParseError(1, "empty document") from None
    if header != ["timestamp", "rssi", "ber"]:
        raise AtLogParseError(1, f"expected header timestamp,rssi,ber; got {','.join(header)!r}")
    samples = []
    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise AtLogParseError(line_number, f"expected 3 fields, got {len(row)}")
        ts = ref_timestamp(row[0], line_number)
        try:
            rssi, ber = int(row[1]), int(row[2])
        except ValueError:
            raise AtLogParseError(line_number, "rssi and ber must be integers") from None
        samples.append(ref_sample(ts, rssi, ber, line_number))
    return samples


def outcome(parse, text):
    """("ok", columns) or ("error", message, line) for one parse of ``text``."""
    try:
        result = parse(text)
    except AtLogParseError as exc:
        return ("error", str(exc), exc.line_number)
    if isinstance(result, RssiDataset):
        stamps, rssi, ber = result.timestamps, result.rssi.tolist(), result.ber.tolist()
    else:
        stamps = [s.timestamp for s in result]
        rssi, ber = [s.rssi for s in result], [s.ber for s in result]
    # isoformat as well as ==: aware datetimes in two zones can compare equal.
    return ("ok", [(t, t.isoformat()) for t in stamps], rssi, ber)


def assert_same(text, fmt):
    parse, reference = {"at": (parse_at_csq_log, reference_at),
                        "csv": (parse_rssi_csv, reference_csv)}[fmt]
    try:
        expected = outcome(reference, text)
    except csv.Error as exc:  # escaped the reference; now a line-numbered error
        got = outcome(parse, text)
        assert got[0] == "error" and got[1].endswith(f": {exc}")
        return
    assert outcome(parse, text) == expected


T = "2025-11-04T09:00:00Z"
AT_CASES = {
    # The existing bad inputs.
    "garbage": "garbage\n",
    "junk_line_2": f"{T} +CSQ: 20,0\njunk line\n",
    "bad_timestamp": "not-a-date +CSQ: 20,0\n",
    "rssi_42": f"{T} +CSQ: 42,0\n",
    "ber_9": f"{T} +CSQ: 20,9\n",
    "negative_code": f"{T} +CSQ: -3,0\n",
    "no_plus": f"# fine\n{T} CSQ 20,0\n",
    "trailing_junk_line_13":
        "# log\n" + "".join(f"{T} +CSQ: {v},0\n" for v in range(11)) + "not a reading\n",
    # Accepted today, and still accepted.
    "code_25_digits": f"{T} +CSQ: 99999999999999999999999,0\n",
    "ber_25_digits": f"{T} +CSQ: 20,99999999999999999999999\n",
    "code_2_pow_63": f"{T} +CSQ: 9223372036854775808,0\n",
    "arabic_indic": f"{T} +CSQ: ٢٠,٠\n",
    "leading_zeros": f"{T} +CSQ: 007,00\n",
    "lowercase_z": "2025-11-04T09:00:00z +CSQ: 20,0\n",
    "offset": "2025-11-04T09:00:00+02:00 +CSQ: 20,0\n",
    "space_separated": "2025-11-04 09:00:00+02:00 \t +CSQ:20 , 3 \n",
    "crlf": f"# a\r\n{T} +CSQ: 20,0\r\n\r\n{T} +CSQ: 99,99\r\n",
    "cr_only": f"{T} +CSQ: 20,0\r{T} +CSQ: 21,1\r",
    "comments_and_blanks": f"  # x\n\n   \n{T} +CSQ: 5,0\n#{T} +CSQ: 6,0\n",
    "empty": "",
    "two_csq": f"{T} +CSQ: 1 +CSQ: 2,3\n",
    "no_space_before_csq": f"{T}+CSQ: 20,0\n",
    "ideographic_space": f"{T}　+CSQ:　20,0\n",
    "form_feed_split": f"{T} +CSQ: 20,0\x0c{T} +CSQ: 21,0\n",
    "superscript_digit": f"{T} +CSQ: 2²,0\n",
    "date_only": "2025-11-04 +CSQ: 20,0\n",
    # Several faults: the first bad line in file order wins.
    "rssi_line3_ts_line5": f"# h\n{T} +CSQ: 1,0\n{T} +CSQ: 40,0\n{T} +CSQ: 2,0\nnope +CSQ: 3,0\n",
    "ts_line3_rssi_line5": f"# h\n{T} +CSQ: 1,0\nnope +CSQ: 1,0\n{T} +CSQ: 2,0\n{T} +CSQ: 40,0\n",
    "ber_line2_grammar_line3": f"{T} +CSQ: 1,0\n{T} +CSQ: 1,8\nbad\n",
    "grammar_line2_rssi_line3": f"{T} +CSQ: 1,0\nbad\n{T} +CSQ: 40,0\n",
    "ts_and_rssi_one_line": "nope +CSQ: 40,9\n",
    "rssi_and_ber_one_line": f"{T} +CSQ: 40,9\n",
    "ber_then_rssi_lines": f"{T} +CSQ: 1,9\n{T} +CSQ: 40,0\n",
}
CSV_HEAD = "timestamp,rssi,ber\n"
CSV_CASES = {
    # The existing bad inputs.
    "empty": "",
    "bad_header": "time,rssi,ber\n",
    "two_fields": CSV_HEAD + f"{T},20\n",
    "not_integer": CSV_HEAD + f"{T},x,0\n",
    "bad_timestamp": CSV_HEAD + "nope,20,0\n",
    "rssi_42": CSV_HEAD + f"{T},42,0\n",
    "ber_9": CSV_HEAD + f"{T},20,9\n",
    "blank_header": "\n" + CSV_HEAD,
    # Accepted today, and still accepted.
    "code_25_digits": CSV_HEAD + f"{T},99999999999999999999999,0\n",
    "negative_25_digits": CSV_HEAD + f"{T},-99999999999999999999999,0\n",
    "underscore": CSV_HEAD + f"{T},1_0,0\n",
    "leading_space": CSV_HEAD + f"{T}, 20,0\n",
    "plus_sign": CSV_HEAD + f"{T},+5,0\n",
    "arabic_indic": CSV_HEAD + f"{T},٢٠,٠\n",
    "lowercase_z": CSV_HEAD + "2025-11-04T09:00:00z,20,0\n",
    "padded_timestamp": CSV_HEAD + f"  {T} ,20,0\n",
    "empty_timestamp": CSV_HEAD + ",20,0\n",
    "crlf": "timestamp,rssi,ber\r\n" + f"{T},20,0\r\n\r\n{T},99,99\r\n",
    "quoted": CSV_HEAD + f'"{T}","20","0"\n"{T}",21,"1"\n',
    "quoted_newline": CSV_HEAD + f'"{T}\n",20,0\n{T},x,0\n',
    "blank_rows": CSV_HEAD + f"\n\n{T},20,0\n\n",
    "float_code": CSV_HEAD + f"{T},20.0,0\n",
    # Several faults: the first bad line in file order wins.
    "rssi_line3_ts_line5": CSV_HEAD + f"{T},1,0\n{T},40,0\n{T},2,0\nnope,3,0\n",
    "ts_line3_rssi_line5": CSV_HEAD + f"{T},1,0\nnope,1,0\n{T},2,0\n{T},40,0\n",
    "int_line2_width_line3": CSV_HEAD + f"{T},x,0\n{T},1\n",
    "width_line2_rssi_line3": CSV_HEAD + f"{T},1,0,0\n{T},40,0\n",
    "ts_and_int_one_line": CSV_HEAD + "nope,x,0\n",
    "int_and_rssi_lines": CSV_HEAD + f"{T},40,0\n{T},x,0\n",
    "rssi_and_ber_one_line": CSV_HEAD + f"{T},40,9\n",
}


@pytest.mark.parametrize("name", sorted(AT_CASES))
def test_at_log_matches_reference(name):
    assert_same(AT_CASES[name], "at")


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_csv_log_matches_reference(name):
    assert_same(CSV_CASES[name], "csv")


def test_first_bad_line_wins():
    with pytest.raises(AtLogParseError) as excinfo:
        parse_at_csq_log(AT_CASES["rssi_line3_ts_line5"])
    assert excinfo.value.line_number == 3
    assert str(excinfo.value) == "line 3: rssi 40 outside 0..31 / 99"


def test_code_past_int64_keeps_its_message():
    with pytest.raises(AtLogParseError) as excinfo:
        parse_at_csq_log(AT_CASES["code_25_digits"])
    assert str(excinfo.value) == "line 1: rssi 99999999999999999999999 outside 0..31 / 99"


# Inputs that escaped the reference parsers as other exceptions; each is now a
# line-numbered AtLogParseError.
def test_code_over_the_int_digit_limit_names_its_line():
    text = f"{T} +CSQ: 1,0\n{T} +CSQ: {'1' * 5000},0\n"
    with pytest.raises(ValueError) as ref:
        reference_at(text)
    assert not isinstance(ref.value, AtLogParseError)
    with pytest.raises(AtLogParseError) as excinfo:
        parse_at_csq_log(text)
    assert excinfo.value.line_number == 2 and "digits" in str(excinfo.value)


@pytest.mark.parametrize(
    ("bad_record", "message"),
    [
        (f"{T},1,{'0' * (csv.field_size_limit() + 1)}", "field larger than field limit"),
        (f"{T}\r,1,0", "new-line character seen in unquoted field"),
    ],
    ids=["field_size_limit", "bare_cr"],
)
def test_csv_reader_error_names_its_line(bad_record, message):
    text = CSV_HEAD + f"{T},1,0\n{bad_record}\n{T},x,0\n"
    with pytest.raises(csv.Error):
        reference_csv(text)
    with pytest.raises(AtLogParseError) as excinfo:
        parse_rssi_csv(text)
    assert excinfo.value.line_number == 3 and message in str(excinfo.value)
    # An earlier bad line still wins.
    with pytest.raises(AtLogParseError, match="^line 2: rssi 40 "):
        parse_rssi_csv(CSV_HEAD + f"{T},40,0\n{bad_record}\n")


@pytest.mark.parametrize("rssi", [[1, 2], [[1, 2, 3]]])
def test_dataset_rejects_ragged_columns(rssi):
    with pytest.raises(ValueError, match="one length"):
        RssiDataset((datetime(2025, 11, 4),) * 3, rssi, [0, 0, 0])


# ---------------------------------------------------------------------------
# The timestamp column: kept as isoformat text, datetimes built on first read


@st.composite
def iso_stamps(draw):
    """A timestamp in a form ``fromisoformat`` reads: half of them ``isoformat``'s own form
    or a near miss of it (a space, ``.000000``, a short fraction, ``-00:00``, offset minutes
    past 59, which fromisoformat carries), the rest compact, week-date and other forms."""
    t = draw(st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)))
    day = t.date().isoformat()  # strftime's %Y need not pad years below 1000
    sign = draw(st.sampled_from("+-"))
    hours, minutes = draw(st.integers(0, 23)), draw(st.integers(0, 99))
    fraction = draw(st.sampled_from(
        ["", f".{t.microsecond:06d}", ".000000", f".{t.microsecond:06d}"[: draw(st.integers(2, 8))]]
    ))
    if draw(st.booleans()):
        return (day + draw(st.sampled_from("T ")) + f"{t:%H:%M:%S}" + fraction
                + draw(st.sampled_from(["", "Z", "z", "+00:00", "-00:00",
                                        f"{sign}{hours:02d}:{minutes:02d}"])))
    year, week, weekday = t.isocalendar()
    date = draw(st.sampled_from([day, day.replace("-", ""), f"{year:04d}-W{week:02d}-{weekday}",
                                 f"{year:04d}W{week:02d}{weekday}"]))
    clock = draw(st.sampled_from([f"{t:%H}", f"{t:%H:%M}", f"{t:%H%M}", f"{t:%H:%M:%S}{fraction}",
                                  f"{t:%H%M%S}{fraction}"]))
    offset = draw(st.sampled_from([
        "", "Z", f"{sign}{hours:02d}{minutes % 60:02d}", f"{sign}{hours:02d}",
        f"{sign}{hours:02d}:{minutes % 60:02d}:{t.second:02d}{fraction}",
    ]))
    if draw(st.integers(0, 9)) == 0:
        return date + offset
    return date + draw(st.sampled_from("T t_x")) + clock + offset


@settings(max_examples=300, deadline=None)
@given(stamps=st.lists(iso_stamps(), min_size=1, max_size=6), fmt=st.sampled_from(["at", "csv"]))
def test_timestamp_column_is_the_reference_isoformat(stamps, fmt):
    if fmt == "at":
        text = "".join(f"{stamp} +CSQ: 20,0\n" for stamp in stamps)
    else:
        text = CSV_HEAD + "".join(f"{stamp},20,0\n" for stamp in stamps)
    assert_same(text, fmt)
    parse, reference = {"at": (parse_at_csq_log, reference_at),
                        "csv": (parse_rssi_csv, reference_csv)}[fmt]
    try:
        expected = [s.timestamp for s in reference(text)]
    except AtLogParseError:
        return
    ds = parse(text)
    assert "timestamps" not in vars(ds)  # no datetime is kept by the parse
    assert list(ds.iso_timestamps) == [t.isoformat() for t in expected]
    assert [(t, t.isoformat(), t.utcoffset()) for t in ds.timestamps] == [
        (t, t.isoformat(), t.utcoffset()) for t in expected]


@pytest.mark.parametrize(("stamp", "iso"), [
    ("2025-11-04T09:00:00", "2025-11-04T09:00:00"),
    ("2025-11-04 09:00:00+02:00", "2025-11-04T09:00:00+02:00"),
    ("2025-11-04T09:00:00.123456-05:30", "2025-11-04T09:00:00.123456-05:30"),
    ("2025-11-04T09:00:00Z", "2025-11-04T09:00:00+00:00"),
    ("2025-11-04 09:00:00z", "2025-11-04T09:00:00+00:00"),
    ("2025-11-04T09:00:00.000000", "2025-11-04T09:00:00"),
    ("2025-11-04T09:00:00-00:00", "2025-11-04T09:00:00+00:00"),
    ("2025-11-04T09:00:00+02:60", "2025-11-04T09:00:00+03:00"),
    ("2025-11-04T09:00:00.123Z", "2025-11-04T09:00:00.123000+00:00"),
    ("2025-W45-2T09:00", "2025-11-04T09:00:00"),
])
def test_timestamps_are_written_as_their_isoformat(tmp_path, stamp, iso):
    ds = parse_at_csq_log(f"{stamp} +CSQ: 20,0\n")
    assert ds.iso_timestamps == (iso,)
    write_rssi_csv(tmp_path / "out.csv", ds)
    assert (tmp_path / "out.csv").read_bytes() == f"timestamp,rssi,dbm\r\n{iso},20,-73\r\n".encode()


@pytest.mark.parametrize("stamp", [
    "2025-11-04T09:00:00",
    "2025-11-04 09:00:00+02:00",
    "2025-11-04T09:00:00.123456-05:30",
    "2025-11-04T09:00:00Z",
    "2025-11-04 09:00:00z",
    "2025-11-04T09:00:00.000000",
    "2025-11-04T09:00:00-00:00",
    "2025-11-04T09:00:00+02:60",
    "2025-11-04T09:00:00.123Z",
    "2025-11-04T09:00:00+02:00Z",
    "2025-W45-2T09:00",
    "2025-11-04T09:00:00 +CSQ: 1,0",
])
def test_one_match_splits_a_line(stamp):
    m = _CSQ_LINE.fullmatch(f"{stamp}  +CSQ: 20,0")
    assert (m["ts"], m["rssi"], m["ber"]) == (stamp, "20", "0")


class _HalfHour(tzinfo):
    def utcoffset(self, dt):
        return timedelta(hours=5, minutes=30)

    def dst(self, dt):
        return None


def test_dataset_from_datetimes_keeps_those_objects():
    stamps = [datetime(2025, 11, 4, 9, 0, s, 250, tzinfo=_HalfHour()) for s in range(3)]
    ds = RssiDataset(stamps, [1, 2, 99], [0, 0, 99])
    assert all(got is want for got, want in zip(ds.timestamps, stamps))
    assert ds.iso_timestamps == ("2025-11-04T09:00:00.000250+05:30",
                                 "2025-11-04T09:00:01.000250+05:30",
                                 "2025-11-04T09:00:02.000250+05:30")
    assert ds.timestamps is ds.timestamps and ds.iso_timestamps is ds.iso_timestamps
    for column in ("timestamps", "iso_timestamps"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ds, column, ())


def test_dataset_keeps_its_dataclass_fields():
    ds = parse_at_csq_log(f"{T} +CSQ: 20,0\n", antenna="a")
    fields = [f.name for f in dataclasses.fields(ds)]
    assert fields == ["timestamps", "rssi", "ber", "environment", "antenna"]
    other = dataclasses.replace(ds, antenna="b")
    assert other.antenna == "b" and other.timestamps == ds.timestamps and other.rssi.tolist() == [20]


@pytest.mark.parametrize(("form", "peak_bound"), [
    ("columns", 6e6), ("at_declined", 8e6), ("csv_declined", 8e6)])
def test_parse_holds_no_datetime_column(form, peak_bound):
    """tracemalloc peak of one 30k-reading parse, as the benchmark's baseline log is written.

    Keeping a datetime per reading (each with its own +02:00 timezone object) peaked at
    11.07 MB on this log and held 4.45 MB after it.  The columnar reader takes the log: it
    peaks at 4.32 MB and holds 1.24 MB, so a doubled peak (8.64 MB) fails its 6 MB bound;
    every form is held to 3.5 MB after the parse.  The same readings with two spaces
    before ``+CSQ:``, or as CSV with each timestamp quoted, are declined by the columnar
    reader and read one reading at a time by the line parser: they peak at 5.78 and 6.90 MB,
    against 9.34 and 9.25 MB when that parser kept a list per column.  Their bound is 8 MB.
    """
    start = datetime(2024, 3, 1, 10, 0, 0)
    text = "".join(f"{start + timedelta(seconds=2 * i)}+02:00 +CSQ: {i % 32},{i % 8}\n"
                   for i in range(30_000))
    parse = parse_at_csq_log
    if form == "at_declined":
        text = text.replace(" +CSQ: ", "  +CSQ: ")
    elif form == "csv_declined":
        text, parse = CSV_HEAD + re.sub(r"(?m)^(.*) \+CSQ: ", r'"\1",', text), parse_rssi_csv
    tracemalloc.start()
    try:
        ds = parse(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n_samples == 30_000 and ds.iso_timestamps[-1] == "2024-03-02T02:39:58+02:00"
    assert peak < peak_bound and held < 3.5e6


# ---------------------------------------------------------------------------
# Generated logs

GOOD_STAMPS = [T, "2025-11-04T09:00:00z", "2025-11-04 09:00:00+02:00", "2025-11-04T09:00:00.5"]
BAD_STAMPS = ["2025-11-04", "2025-13-04T09:00:00Z", "nope", "Z", "+CSQ:",
              "2025-11-04T09:00:00+01:00Z"]
GOOD_CODES = ["0", "7", "20", "31", "99", "007", "٢٠"]
BAD_CODES = ["32", "100", "-3", " 5", "1_0", "99999999999999999999999", "", "x", "2.0"]
SPACES = ["", " ", "  ", "\t", "　"]
text_chars = st.characters(blacklist_categories=("Cs",))


def pick(draw, good, bad):
    """Mostly a good item, so that a log of several lines often parses."""
    return draw(st.sampled_from(bad if draw(st.integers(0, 9)) == 0 else good))


@st.composite
def at_logs(draw):
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = pick(draw, ["reading"], ["comment", "blank", "free"])
        if kind == "reading":
            sp = lambda: pick(draw, [" "], SPACES)  # noqa: E731
            pad = lambda: pick(draw, [""], SPACES)  # noqa: E731
            csq = pick(draw, ["+CSQ:"], ["CSQ", "+csq:", "+CSQ: 1 +CSQ:"])
            rssi = pick(draw, GOOD_CODES, BAD_CODES)
            ber = pick(draw, ["0", "3", "99"], BAD_CODES)
            lines.append(f"{pad()}{pick(draw, GOOD_STAMPS, BAD_STAMPS)}{sp()}"
                         f"{csq}{sp()}{rssi}{pad()},{sp()}{ber}{pad()}")
        elif kind == "comment":
            lines.append("# " + draw(st.text(text_chars, max_size=8)))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(SPACES)))
        else:
            lines.append(draw(st.text(text_chars, max_size=12)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@st.composite
def csv_logs(draw):
    quote = lambda cell: f'"{cell}"' if draw(st.booleans()) else cell  # noqa: E731
    rows = [pick(draw, ["timestamp,rssi,ber"], ["time,rssi,ber", "", '"timestamp",rssi,ber']),]
    for _ in range(draw(st.integers(0, 6))):
        cells = [pick(draw, GOOD_STAMPS, BAD_STAMPS), pick(draw, GOOD_CODES, BAD_CODES),
                 pick(draw, ["0", "3", "99"], BAD_CODES)]
        cells = cells[: pick(draw, [3], [2])] + pick(draw, [[]], [["0"]])
        rows.append(",".join(quote(c) for c in cells))
        if draw(st.integers(0, 4)) == 0:
            rows.append("")
    if draw(st.integers(0, 4)) == 0:
        rows.append(draw(st.text(text_chars, max_size=12)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(rows) + end


@settings(max_examples=100, deadline=None)
@given(at_logs())
def test_generated_at_logs_match_reference(text):
    assert_same(text, "at")


@settings(max_examples=100, deadline=None)
@given(csv_logs())
def test_generated_csv_logs_match_reference(text):
    assert_same(text, "csv")


FILLER = "".join(f"2025-11-04T09:{i:02d}:00Z +CSQ: {10 + i % 5},0\n" for i in range(6))


@settings(max_examples=40, deadline=None)
@given(fmt=st.sampled_from(["at", "csv"]), data=st.data())
def test_rssi_command_exit_contract(fmt, data):
    logs = at_logs() if fmt == "at" else csv_logs()
    texts = [data.draw(logs), data.draw(logs)]
    if fmt == "at" and data.draw(st.booleans()):
        texts[1] = FILLER + texts[1]  # lets a good novel log reach the comparison
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / f"{name}.{fmt}") for name in ("novel", "baseline")]
        for path, text in zip(paths, texts):
            Path(path).write_text(text, encoding="utf-8", newline="")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_command(
                ["--out-dir", str(Path(tmp) / "out"), "rssi", *paths, "--format", fmt]
            )
    assert code in (0, 1, 2)
    if code == 2:
        named = "|".join(map(re.escape, paths))
        assert re.search(rf"^error: ({named}): line \d+: ", err.getvalue())
