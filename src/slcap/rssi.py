"""Field-trial signal statistics: AT +CSQ log ingestion and dataset comparison.

Modem logs carry one reading per line, ``<ISO-8601 timestamp> +CSQ: <rssi>,<ber>``,
with ``#`` comment lines.  RSSI codes follow the GSM convention: 0..31 map
affinely to received power (dBm = -113 + 2 * rssi) and 99 means unknown.
Two datasets are compared with a Welch two-sample t-test plus the ratio and
footprint summaries used when trading a reference antenna against a compact one.
"""
from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property

import numpy as np

from ._frozen import Frozen, freeze_arrays
from ._options import SPLITLINES_ONLY, LineError, check_positive
from .report import num, report_text

__all__ = [
    "RSSI_UNKNOWN",
    "AtLogParseError",
    "RssiDataset",
    "parse_at_csq_log",
    "parse_rssi_csv",
    "rssi_to_dbm",
    "dbm_levels",
    "dbm_to_rssi",
    "check_dbm_mapping",
    "WelchResult",
    "welch_t_test",
    "ComparisonReport",
    "ComparisonError",
    "compare_datasets",
    "format_p_value",
]

RSSI_UNKNOWN = 99

# Matched in full against one stripped line.  The codes hold no "+", so the timestamp
# ends at the whitespace before the last "+CSQ:": it is found from the end by a greedy
# ``.*\S``, with less backtracking than ``.+?`` from the start.
_CSQ_LINE = re.compile(r"(?P<ts>.*\S)\s+\+CSQ:\s*(?P<rssi>\d+)\s*,\s*(?P<ber>\d+)\s*")


class AtLogParseError(LineError):
    """Raised for malformed log content; carries the offending line number."""


@dataclass(frozen=True, eq=False, init=False, repr=False)
class RssiDataset(Frozen):
    """A labelled series of readings from one antenna in one environment, as columns.

    ``iso_column`` holds the timestamps' ``isoformat`` texts as one read-only numpy ``S``
    array; ``iso_timestamps`` (a tuple of those texts) and ``timestamps`` (a tuple of
    ``datetime``) are built from it on first read.  A dataset made from datetimes keeps
    those objects as ``timestamps``.  ``rssi`` and ``ber`` are read-only int64 arrays of the
    same length.  The codes are checked pair by pair as Python ints before the cast, so one
    past int64 is reported, not wrapped: the first rssi outside 0..31 or ber outside 0..7,
    other than 99 (unknown), raises ValueError.  ber is kept but unused by the statistics.
    A copy or an unpickled dataset is read-only too, and ``repr`` reads neither tuple.
    """

    timestamps: tuple[datetime, ...]  # read through the cached_property below
    rssi: np.ndarray
    ber: np.ndarray
    environment: str = ""
    antenna: str = ""

    def __init__(self, timestamps, rssi, ber, environment: str = "", antenna: str = ""):
        timestamps = tuple(timestamps)
        rssi, ber = _code_columns(rssi, ber, len(timestamps))
        iso = np.array([t.isoformat() for t in timestamps], dtype="S")
        freeze_arrays(self, timestamps=timestamps, iso_column=iso, rssi=rssi, ber=ber,
                      environment=environment, antenna=antenna)

    @classmethod
    def _parsed(cls, iso, rssi, ber, environment: str, antenna: str) -> RssiDataset:
        """The dataset of checked columns: ``isoformat`` texts and int64 codes."""
        dataset = cls.__new__(cls)
        freeze_arrays(dataset, iso_column=iso, rssi=rssi, ber=ber, environment=environment,
                      antenna=antenna)
        return dataset

    @cached_property
    def timestamps(self) -> tuple[datetime, ...]:
        return tuple(map(datetime.fromisoformat, self.iso_timestamps))

    @cached_property
    def iso_timestamps(self) -> tuple[str, ...]:
        return tuple(self.iso_column.astype(str).tolist())

    @property
    def known(self) -> np.ndarray:
        """True where the rssi code is a level, not 99 (unknown)."""
        return self.rssi != RSSI_UNKNOWN

    def known_rssi(self) -> np.ndarray:
        return self.rssi[self.known].astype(float)

    @property
    def n_samples(self) -> int:
        return self.rssi.size

    @property
    def n_known(self) -> int:
        return int(np.count_nonzero(self.known))


def _code_columns(rssi, ber, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``rssi`` and ``ber`` as int64 columns of length ``n``, checked as Python ints first."""
    rssi, ber = np.array(rssi, dtype=object), np.array(ber, dtype=object)
    if rssi.shape != (n,) or ber.shape != rssi.shape:
        raise ValueError("timestamps, rssi and ber must be columns of one length")
    fault = next(filter(None, map(_code_fault, rssi, ber)), None)
    if fault:
        raise ValueError(fault)
    return rssi.astype(np.int64), ber.astype(np.int64)


def _code_fault(rssi, ber) -> str | None:
    """Why one reading's codes are out of range, or None: rssi 0..31, ber 0..7, or 99."""
    if not (0 <= rssi <= 31 or rssi == RSSI_UNKNOWN):
        return f"rssi {rssi} outside 0..31 / 99"
    if not (0 <= ber <= 7 or ber == RSSI_UNKNOWN):
        return f"ber {ber} outside 0..7 / 99"
    return None


# The timestamp layouts that ``_read_columns`` takes, by width, one character class per
# column: d a digit, T a "T" or space, + a sign, Z a "Z" or "z", any other itself.
_LAYOUTS = {len(p): p for p in ("dddd-dd-ddTdd:dd:dd" + fraction + offset
                                for fraction in ("", ".dddddd") for offset in ("", "Z", "+dd:dd"))}
# A class as the least byte and the span of bytes above it that it takes (in uint8, a
# byte below the least wraps far above it); the three two-byte classes are checked apart.
_SPANS = {"d": (ord("0"), 9), "T": (0, 255), "+": (0, 255), "Z": (0, 255)}
_PAIRS = {"T": b"T ", "+": b"+-", "Z": b"Zz"}
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _number(columns: np.ndarray) -> np.ndarray:
    """The decimal value of each row of digit bytes."""
    value = np.zeros(len(columns), dtype=np.int32)
    for column in columns.T:
        value = value * 10 + column - ord("0")
    return value


def _read_columns(text: str, table: bool, environment: str = "", antenna: str = ""):
    """The dataset of an AT log, or of a CSV log if ``table``, read by numpy; or None.

    Taken only where every line breaks as ``str.splitlines`` and ``csv`` break it: an ASCII
    text whose breaks are LF or CR LF, and with no ``"`` in a CSV.  Blank lines are skipped,
    and in an AT log the lines that start with ``#``; a CSV starts with its exact header.
    Every other line must be one reading, ``<timestamp> +CSQ: <rssi>,<ber>`` or
    ``<timestamp>,<rssi>,<ber>``, its timestamp in the layout of the first (``_LAYOUTS``)
    and valid as ``datetime.fromisoformat`` reads it, and each code one or two digits and
    in its range.  For anything else, None: the line parser then reads the text and names
    any fault.  The timestamps are kept as their ``isoformat`` texts.
    """
    if (not text or not text.isascii() or "\r" in text and text.count("\r") != text.count("\r\n")
            or any(c in text for c in SPLITLINES_ONLY) or table and '"' in text):
        return None
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    breaks = np.flatnonzero(raw == ord("\n"))
    ends = breaks if text[-1] == "\n" else np.append(breaks, raw.size)
    starts = np.concatenate(([0], breaks + 1))[:ends.size]
    ends = ends - ((ends > starts) & (raw[ends - 1] == ord("\r")))
    if table:
        if raw[starts[0]:ends[0]].tobytes() != b"timestamp,rssi,ber":
            return None
        starts, ends = starts[1:], ends[1:]
    kept = (ends > starts) if table else (ends > starts) & (raw[starts] != ord("#"))
    starts, ends = starts[kept], ends[kept]
    if not starts.size:
        return None
    sep = b"," if table else b" +CSQ: "
    width = raw[starts[0]:ends[0]].tobytes().find(sep)
    layout = _LAYOUTS.get(width)
    if layout is None or not np.all((ends - starts >= width + len(sep) + 3)
                                    & (ends - starts <= width + len(sep) + 5)):
        return None
    head = np.lib.stride_tricks.sliding_window_view(raw, width + len(sep))[starts]
    if not ((head[:, width:] == np.frombuffer(sep, np.uint8)).all()
            and _valid_stamps(head[:, :width], layout)):
        return None
    codes = _codes(raw, starts + width + len(sep), ends)
    if codes is None:
        return None
    return RssiDataset._parsed(_iso_texts(head[:, :width], layout), *codes, environment, antenna)


def _valid_stamps(ts: np.ndarray, layout: str) -> bool:
    """Whether each row of ``ts`` is in ``layout`` and valid as ``fromisoformat`` reads it."""
    low, span = np.array([_SPANS.get(c, (ord(c), 0)) for c in layout], dtype=np.uint8).T
    if not (((ts - low) <= span).all()
            and all(((ts[:, i] == _PAIRS[c][0]) | (ts[:, i] == _PAIRS[c][1])).all()
                    for i, c in enumerate(layout) if c in _PAIRS)):
        return False
    year, month, day, hour, minute, second = (
        _number(ts[:, i:i + n]) for i, n in ((0, 4), (5, 2), (8, 2), (11, 2), (14, 2), (17, 2)))
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    days = _MONTH_DAYS[np.clip(month, 0, 12)] + ((month == 2) & leap)
    valid = ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= days)
             & (hour <= 23) & (minute <= 59) & (second <= 59))
    offset = layout.find("+")
    if offset >= 0:  # under 24 hours, as a timezone must be; minutes past 59 are carried
        valid &= (_number(ts[:, offset + 1:offset + 3]) <= 23) & (_number(ts[:, offset + 4:]) <= 59)
    return bool(valid.all())


def _codes(raw: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The int64 rssi and ber columns of the texts ``raw[starts:ends]``, or None.

    Each text must be ``<rssi>,<ber>``, both codes of one or two digits and in range.
    """
    comma = np.where(raw[starts + 1] == ord(","), starts + 1, starts + 2)
    if not ((raw[comma] == ord(",")).all() and (ends - comma >= 2).all()
            and (ends - comma <= 3).all()):
        return None
    first, last = ((raw[a] - ord("0"), raw[b] - ord("0")) for a, b in ((starts, comma - 1),
                                                                      (comma + 1, ends - 1)))
    if not all((digit <= 9).all() for digit in (*first, *last)):
        return None
    rssi = np.where(comma - starts == 2, 10 * first[0].astype(np.int64) + first[1], first[1])
    ber = np.where(ends - comma == 3, 10 * last[0].astype(np.int64) + last[1], last[1])
    if not (((rssi <= 31) | (rssi == RSSI_UNKNOWN)) & ((ber <= 7) | (ber == RSSI_UNKNOWN))).all():
        return None
    return rssi, ber


def _iso_texts(ts: np.ndarray, layout: str) -> np.ndarray:
    """The ``isoformat`` texts of valid timestamp rows in ``layout``, as one ``S`` column.

    ``T`` between date and time, a fraction only where it is not zero, and ``Z``, ``z`` and
    ``-00:00`` as ``+00:00``: as ``np.array(texts, dtype="S")`` holds them, its width that
    of the longest text and each shorter one padded with NUL bytes.
    """
    fraction, offset = "." in layout, "+" in layout or "Z" in layout
    iso = np.empty((len(ts), 19 + 7 * fraction + 6 * offset), dtype=np.uint8)
    iso[:, :26 if fraction else 19] = ts[:, :26 if fraction else 19]
    iso[:, 10] = ord("T")
    if offset:
        if "Z" in layout:
            iso[:, -6:] = np.frombuffer(b"+00:00", np.uint8)
        else:
            iso[:, -6:] = ts[:, -6:]
            iso[(ts[:, -5:] == np.frombuffer(b"00:00", np.uint8)).all(axis=1), -6] = ord("+")
    if fraction:
        zero = (ts[:, 20:26] == ord("0")).all(axis=1)
        iso[zero, 19:-7] = iso[zero, 26:]
        iso[zero, -7:] = 0
        if zero.all():
            iso = iso[:, :-7].copy()
    return iso.view(f"S{iso.shape[1]}").reshape(-1)


def _readings(rows, int_message, environment, antenna) -> RssiDataset:
    """The dataset of ``rows``: each a line number and its reading's (timestamp, rssi, ber)
    texts, or the message of the format's own error on that line.

    The first bad line raises; on it the checks run in the order format, timestamp, integers,
    ranges.  A failed ``int`` reads ``int_message``, or its own text.  Each timestamp is
    checked by ``fromisoformat`` and kept as its ``isoformat`` text.
    """
    iso, rssi, ber = [], [], []
    for number, fields in rows:
        if type(fields) is str:
            raise AtLogParseError(number, fields)
        ts = fields[0].strip()
        try:
            stamp = datetime.fromisoformat(ts[:-1] + "+00:00" if ts[-1:] in ("Z", "z") else ts)
        except ValueError:
            raise AtLogParseError(number, f"timestamp {ts!r} is not ISO-8601") from None
        try:
            code, level = int(fields[1]), int(fields[2])
        except ValueError as exc:
            raise AtLogParseError(number, int_message or str(exc)) from None
        fault = _code_fault(code, level)
        if fault:
            raise AtLogParseError(number, fault)
        iso.append(stamp.isoformat())
        rssi.append(code)
        ber.append(level)
    return RssiDataset._parsed(np.array(iso, dtype="S"), np.array(rssi, dtype=np.int64),
                               np.array(ber, dtype=np.int64), environment, antenna)


def parse_at_csq_log(text: str, environment: str = "", antenna: str = "") -> RssiDataset:
    """Parse a raw modem log into a dataset.

    Blank lines and lines starting with ``#`` are skipped.  Anything else must
    match the +CSQ line grammar; violations raise :class:`AtLogParseError`
    with the line number.  A log that ``_read_columns`` declines is read line by line.
    """
    found = _read_columns(text, False, environment, antenna)
    return _at_lines(text, environment, antenna) if found is None else found


def _at_lines(text: str, environment: str = "", antenna: str = "") -> RssiDataset:
    """``parse_at_csq_log`` of any text, line by line: the grammar behind every error."""
    lines = enumerate(map(str.strip, text.splitlines()), start=1)
    rows = ((n, m.groups() if (m := _CSQ_LINE.fullmatch(line)) else
             f"not a +CSQ reading: {line!r}") for n, line in lines if line and line[0] != "#")
    return _readings(rows, None, environment, antenna)


def parse_rssi_csv(text: str, environment: str = "", antenna: str = "") -> RssiDataset:
    """Alternative CSV ingestion with exact header ``timestamp,rssi,ber``.

    Empty records are skipped; the line numbers in errors count records.  A log that
    ``_read_columns`` declines is read by ``csv``.
    """
    found = _read_columns(text, True, environment, antenna)
    return _csv_records(text, environment, antenna) if found is None else found


def _csv_records(text: str, environment: str = "", antenna: str = "") -> RssiDataset:
    """``parse_rssi_csv`` of any text, record by record: the grammar behind every error."""
    return _readings(_csv_rows(text), "rssi and ber must be integers", environment, antenna)


def _csv_rows(text: str):
    """The line number and fields, or the fault, of each non-empty record after the header."""
    n = 0
    try:  # csv.Error is raised for the record after the last one read
        for n, record in enumerate(csv.reader(io.StringIO(text)), start=1):
            if n == 1 and record != ["timestamp", "rssi", "ber"]:
                raise AtLogParseError(1, f"expected header timestamp,rssi,ber; got "
                                         f"{','.join(record)!r}")
            if n > 1 and record:
                yield n, record if len(record) == 3 else f"expected 3 fields, got {len(record)}"
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise AtLogParseError(n + 1, str(exc)) from None
    if not n:
        raise AtLogParseError(1, "empty document")


def rssi_to_dbm(rssi: int) -> float:
    """GSM mapping dBm = -113 + 2 * rssi for codes 0..31; 99 (unknown) raises."""
    if rssi == RSSI_UNKNOWN:
        raise ValueError("rssi 99 encodes an unknown signal level")
    if not 0 <= rssi <= 31:
        raise ValueError(f"rssi {rssi} outside 0..31")
    return float(dbm_levels(rssi))


def dbm_levels(codes: np.ndarray) -> np.ndarray:
    """dBm = -113 + 2 * rssi of each code or mean code at once; the unknown code 99 reads nan."""
    return np.where(codes == RSSI_UNKNOWN, math.nan, -113.0 + 2.0 * codes)


def dbm_to_rssi(dbm: float) -> int:
    """Inverse of :func:`rssi_to_dbm`; the level must sit exactly on the grid."""
    code = (dbm + 113.0) / 2.0
    if not -0.5 <= code <= 31.5 or abs(code - round(code)) > 1e-9:  # nan and inf fail
        raise ValueError(f"{dbm} dBm is not a valid rssi level")
    return int(round(code))


def check_dbm_mapping(claimed: list[tuple[int, float]]) -> list[str]:
    """Flag (rssi, dBm) pairs inconsistent with the affine GSM mapping.

    Returns one message per mismatching pair; an empty list means every
    claimed level sits on dBm = -113 + 2 * rssi.  A code outside 0..31 or a
    level that is not finite raises ValueError.
    """
    flags = []
    for code, dbm in claimed:
        expected = rssi_to_dbm(code)
        if not math.isfinite(dbm):
            raise ValueError(f"claimed level for rssi {code} must be finite, got {dbm}")
        if abs(dbm - expected) > 1e-9:
            flags.append(
                f"rssi {code}: claimed {dbm:g} dBm inconsistent with affine map "
                f"(expected {expected:g} dBm)"
            )
    return flags


@dataclass(frozen=True)
class WelchResult:
    """Welch two-sample t statistic, Welch-Satterthwaite df, two-sided p."""

    t: float
    df: float
    p_value: float


# Modified Lentz method: a stand-in for a zero denominator, the relative
# change of the last term that ends the continued fraction, and a cap on its
# terms.  Up to df = 1e10 the fraction ends within 70 terms.
_LENTZ_TINY = 1e-300
_LENTZ_EPS = 1e-15
_LENTZ_MAX_TERMS = 200


def _t_two_sided_p(t: float, df: float) -> float:
    """P(|T| > |t|) for Student's t with ``df`` degrees: I_x(df/2, 1/2), x = df/(df + t^2).

    The regularised incomplete beta is evaluated as its continued fraction by
    the modified Lentz method (Numerical Recipes, 3rd ed., section 6.4), on
    whichever side of I_x(a, b) = 1 - I_{1-x}(b, a) converges.  Field logs
    give df in the tens of thousands, where two differences would cancel:
    1 - x is formed as t^2/(df + t^2), and lgamma(a + 1/2) - lgamma(a)
    comes from its asymptotic series once a >= 20.  The relative error is then
    about 3e-17 * df.
    """
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    a, b = 0.5 * df, 0.5
    x, y = df / (df + t2), t2 / (df + t2)
    if a >= 20.0:
        r = 1.0 / a
        lg = 0.5 * math.log(a) - r / 8 + r**3 / 192 - r**5 / 640 + 17 * r**7 / 14336
    else:
        lg = math.lgamma(a + b) - math.lgamma(a)
    # x^a y^b / B(a, b), with lgamma(1/2) = ln(pi)/2
    front = math.exp(lg - 0.5 * math.log(math.pi) - a * math.log1p(t2 / df) + b * math.log(y))
    swap = x >= (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x = b, a, y
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _LENTZ_TINY else _LENTZ_TINY)
    h = d
    for m in range(1, _LENTZ_MAX_TERMS + 1):
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _LENTZ_TINY else _LENTZ_TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _LENTZ_TINY else _LENTZ_TINY
            h *= d * c
        if abs(d * c - 1.0) < _LENTZ_EPS:
            p = front * h / a
            return 1.0 - p if swap else p
    raise ArithmeticError(f"Student-t tail did not converge at t = {t:g}, df = {df:g}")


def welch_t_test(a, b) -> WelchResult:
    """Unequal-variance two-sample t-test (Welch).

    t = (mean_a - mean_b) / sqrt(s2_a/n_a + s2_b/n_b) with the
    Welch-Satterthwaite degrees of freedom; the two-sided p is the Student-t
    tail I_x(df/2, 1/2), x = df/(df + t^2), a regularised incomplete beta
    evaluated by its continued fraction (Numerical Recipes, 3rd ed., section
    6.4).  Two zero-variance samples with equal means return t = 0, p = 1 by
    convention; with unequal means there is no valid test and a ValueError is
    raised.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("each sample needs at least two values")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("samples must be finite")

    na, nb = a.size, b.size
    va, vb = a.var(ddof=1), b.var(ddof=1)
    diff = a.mean() - b.mean()
    if va == 0 and vb == 0:
        if diff == 0:
            return WelchResult(t=0.0, df=float(na + nb - 2), p_value=1.0)
        raise ValueError("both samples have zero variance but different means")

    se_a, se_b = va / na, vb / nb
    t = diff / math.sqrt(se_a + se_b)
    df = (se_a + se_b) ** 2 / (se_a**2 / (na - 1) + se_b**2 / (nb - 1))
    p = _t_two_sided_p(float(t), float(df))
    return WelchResult(t=float(t), df=float(df), p_value=min(p, 1.0))


def format_p_value(p: float) -> str:
    """Display form: values below 1e-3 print as '< 0.001'."""
    if p < 1e-3:
        return "< 0.001"
    return f"{p:.4f}"


@dataclass(frozen=True)
class ComparisonReport:
    """Summary statistics comparing a novel antenna's readings to a baseline's."""

    novel: RssiDataset
    baseline: RssiDataset
    novel_mean_rssi: float
    baseline_mean_rssi: float
    novel_sd_rssi: float
    baseline_sd_rssi: float
    novel_mean_dbm: float
    baseline_mean_dbm: float
    percent_difference: float
    performance_ratio_rssi_pct: float
    performance_ratio_dbm_pct: float
    welch: WelchResult
    novel_area_mm2: float | None = None
    baseline_area_mm2: float | None = None
    footprint_ratio: float | None = None
    mapping_flags: tuple[str, ...] = ()

    def to_rows(self) -> list[tuple[str, str]]:
        """Key-value pairs in a fixed order, shared by the text and CSV emitters."""
        rows = [
            ("novel.environment", self.novel.environment),
            ("novel.antenna", self.novel.antenna),
            ("novel.n_samples", str(self.novel.n_samples)),
            ("novel.n_known", str(self.novel.n_known)),
            ("novel.mean_rssi", num(self.novel_mean_rssi)),
            ("novel.sd_rssi", num(self.novel_sd_rssi)),
            ("novel.mean_dbm", num(self.novel_mean_dbm)),
            ("baseline.environment", self.baseline.environment),
            ("baseline.antenna", self.baseline.antenna),
            ("baseline.n_samples", str(self.baseline.n_samples)),
            ("baseline.n_known", str(self.baseline.n_known)),
            ("baseline.mean_rssi", num(self.baseline_mean_rssi)),
            ("baseline.sd_rssi", num(self.baseline_sd_rssi)),
            ("baseline.mean_dbm", num(self.baseline_mean_dbm)),
            ("percent_difference", num(self.percent_difference)),
            ("performance_ratio_rssi_pct", num(self.performance_ratio_rssi_pct)),
            ("performance_ratio_dbm_pct", num(self.performance_ratio_dbm_pct)),
            ("welch.t", num(self.welch.t)),
            ("welch.df", num(self.welch.df)),
            ("welch.p_value", format_p_value(self.welch.p_value)),
        ]
        if self.footprint_ratio is not None:
            rows.append(("novel.area_mm2", num(self.novel_area_mm2)))
            rows.append(("baseline.area_mm2", num(self.baseline_area_mm2)))
            rows.append(("footprint_ratio", num(self.footprint_ratio)))
        for i, flag in enumerate(self.mapping_flags):
            rows.append((f"mapping_check.{i}", flag))
        return rows

    def to_text(self) -> str:
        return report_text(self.to_rows())


class ComparisonError(ValueError):
    """A comparison refused; ``datasets`` names the datasets at fault: "novel", "baseline" or both."""

    def __init__(self, message: str, datasets: tuple[str, ...]):
        super().__init__(message)
        self.datasets = datasets


def compare_datasets(
    novel: RssiDataset,
    baseline: RssiDataset,
    novel_area_mm2: float | None = None,
    baseline_area_mm2: float | None = None,
    claimed_dbm: list[tuple[int, float]] | None = None,
) -> ComparisonReport:
    """Compare two datasets on their known readings.

    The percent difference is baseline-relative,
    (mean_baseline - mean_novel) / mean_baseline * 100, and the performance
    ratios give the novel mean as a percentage of the baseline mean on both
    the RSSI and dBm scales (dBm means are negative, so a weaker novel signal
    shows a ratio above 100 there).  ``footprint_ratio`` =
    baseline_area / novel_area when both areas are supplied.  ``claimed_dbm``
    pairs are checked against the affine mapping and mismatches flagged in
    the report.  It refuses, with a :class:`ComparisonError` in this order: a dataset
    of fewer than two known readings (the novel one first, with its count), a zero
    baseline mean, and a refusal of ``welch_t_test`` (naming both datasets).
    """
    a = novel.known_rssi()
    b = baseline.known_rssi()
    for name, known in (("novel", a), ("baseline", b)):
        if known.size < 2:
            raise ComparisonError(f"{known.size} known readings; each dataset needs at least two",
                                  (name,))
    if b.mean() == 0:
        raise ComparisonError("baseline mean is zero; ratios are undefined", ("baseline",))
    try:
        welch = welch_t_test(a, b)
    except ValueError as exc:
        raise ComparisonError(str(exc), ("novel", "baseline")) from None
    mean_dbm_a, mean_dbm_b = dbm_levels(np.array([a.mean(), b.mean()]))

    footprint = None
    if novel_area_mm2 is not None and baseline_area_mm2 is not None:
        check_positive(novel_area_mm2=novel_area_mm2, baseline_area_mm2=baseline_area_mm2)
        footprint = baseline_area_mm2 / novel_area_mm2

    return ComparisonReport(
        novel=novel,
        baseline=baseline,
        novel_mean_rssi=float(a.mean()),
        baseline_mean_rssi=float(b.mean()),
        novel_sd_rssi=float(a.std(ddof=1)),
        baseline_sd_rssi=float(b.std(ddof=1)),
        novel_mean_dbm=mean_dbm_a,
        baseline_mean_dbm=mean_dbm_b,
        percent_difference=float((b.mean() - a.mean()) / b.mean() * 100.0),
        performance_ratio_rssi_pct=float(a.mean() / b.mean() * 100.0),
        performance_ratio_dbm_pct=float(mean_dbm_a / mean_dbm_b * 100.0),
        welch=welch,
        novel_area_mm2=novel_area_mm2,
        baseline_area_mm2=baseline_area_mm2,
        footprint_ratio=footprint,
        mapping_flags=tuple(check_dbm_mapping(claimed_dbm or [])),
    )
