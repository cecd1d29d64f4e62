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
from collections import deque
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from itertools import count

import numpy as np

from ._options import check_positive
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
    "compare_datasets",
    "format_p_value",
]

RSSI_UNKNOWN = 99

# A timestamp as ``isoformat`` writes it once a Z is read as +00:00, or with a space before
# the time: a fraction unless zero, an offset as +-HH:MM but -00:00 (``fromisoformat``
# carries minutes past 59).
_ISO = (r"(?a:\d{4}-\d\d-\d\d[T ]\d\d:\d\d:\d\d(?!\.0{6})(?:\.\d{6})?"
        r"(?:(?!-00:00)[+-]\d\d:[0-5]\d|[Zz])?)")
_ISO_TEXT = re.compile(_ISO)
# Matched in full against one stripped line.  The codes hold no "+", so the timestamp
# ends at the whitespace before the last "+CSQ:".  A canonical one is tried first, and
# sets the empty group ``iso``; any other is found from the end by a greedy ``.*\S``,
# with less backtracking than ``.+?`` from the start.
_CSQ_LINE = re.compile(
    rf"(?P<ts>{_ISO}(?P<iso>)|.*\S)\s+\+CSQ:\s*(?P<rssi>\d+)\s*,\s*(?P<ber>\d+)\s*"
)


class AtLogParseError(ValueError):
    """Raised for malformed log content; carries the offending line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class _CodeRangeError(ValueError):
    """A code outside its range; ``index`` is the reading's row."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class _IsoText(tuple):
    """The ``isoformat`` texts of a parsed, checked timestamp column."""


@dataclass(frozen=True, eq=False, init=False)
class RssiDataset:
    """A labelled series of readings from one antenna in one environment, as columns.

    ``timestamps`` is a tuple of ``datetime`` and ``iso_timestamps`` of their ``isoformat``
    texts; a parsed dataset holds the texts, and either column is built on first read.
    ``rssi`` and ``ber`` are read-only int64 arrays of the same length.  The codes are checked
    as arrays of Python ints before the cast, so one past int64 is reported, not wrapped: the
    first rssi outside 0..31 or ber outside 0..7, other than 99 (unknown), raises ValueError.
    ber is kept but unused by the statistics.
    """

    timestamps: tuple[datetime, ...]  # read through the cached_property below
    rssi: np.ndarray
    ber: np.ndarray
    environment: str = ""
    antenna: str = ""

    def __init__(self, timestamps, rssi, ber, environment: str = "", antenna: str = ""):
        parsed = type(timestamps) is _IsoText
        timestamps = timestamps if parsed else tuple(timestamps)
        self.__dict__["iso_timestamps" if parsed else "timestamps"] = timestamps
        rssi, ber = np.array(rssi, dtype=object), np.array(ber, dtype=object)
        if rssi.shape != (len(timestamps),) or ber.shape != rssi.shape:
            raise ValueError("timestamps, rssi and ber must be columns of one length")
        bad_rssi = ((rssi < 0) | (rssi > 31)) & (rssi != RSSI_UNKNOWN)
        bad_ber = ((ber < 0) | (ber > 7)) & (ber != RSSI_UNKNOWN)
        bad = np.flatnonzero(bad_rssi | bad_ber)
        if bad.size:
            i = int(bad[0])
            if bad_rssi[i]:
                raise _CodeRangeError(i, f"rssi {rssi[i]} outside 0..31 / 99")
            raise _CodeRangeError(i, f"ber {ber[i]} outside 0..7 / 99")
        rssi, ber = rssi.astype(np.int64), ber.astype(np.int64)
        rssi.flags.writeable = ber.flags.writeable = False
        self.__dict__.update(rssi=rssi, ber=ber, environment=environment, antenna=antenna)

    def __setstate__(self, state):
        # An unpickled array may be writeable; the columns of a dataset are not.
        self.__dict__.update(state)
        self.rssi.flags.writeable = self.ber.flags.writeable = False

    @cached_property
    def timestamps(self) -> tuple[datetime, ...]:
        return tuple(map(datetime.fromisoformat, self.iso_timestamps))

    @cached_property
    def iso_timestamps(self) -> tuple[str, ...]:
        return tuple(t.isoformat() for t in self.timestamps)

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


def _dataset(numbers, fields, fault, int_message, environment, antenna) -> RssiDataset:
    """The dataset of the readings on lines ``numbers``.

    Each of ``fields`` is a reading's (timestamp, rssi, ber) texts, or the message of the
    format's own error on its line; ``fault`` is an error after the last of them, or None.
    An AT line's match holds ``_CSQ_LINE``'s ``iso`` group second, not None where its
    timestamp is already canonical; a CSV cell's timestamp is checked here.
    Each check runs only on the readings before the first that failed an earlier one, so the
    first bad line is reported, and on it the checks run in the order format, timestamp,
    integers, ranges.  A failed ``int`` reads ``int_message``, or its own text.  ``fields``
    is emptied once its columns are taken, to free its rows early.  Timestamps are checked by
    ``fromisoformat`` and kept as their ``isoformat`` text; no datetime is kept.
    """
    bad = [type(f) is str for f in fields]
    if True in bad:
        n = bad.index(True)
        fault = AtLogParseError(numbers[n], fields[n])
        del fields[n:]
    # A comprehension per column: zip(*fields) would make a tracked iterator per row.
    ts_texts = [f[0].strip() for f in fields]
    codes, levels = [f[-2] for f in fields], [f[-1] for f in fields]
    canonical = [f[1] is not None for f in fields] if fields and len(fields[0]) == 4 else None
    n = len(fields)
    fields.clear()
    cleaned = [ts[:-1] + "+00:00" if ts[-1:] in ("Z", "z") else ts for ts in ts_texts]
    parsed = count()
    try:  # at C speed, dropping each datetime; ``parsed`` counts the texts that parsed
        deque(zip(map(datetime.fromisoformat, cleaned), parsed), maxlen=0)
    except ValueError:
        n = next(parsed)
        fault = AtLogParseError(numbers[n], f"timestamp {ts_texts[n]!r} is not ISO-8601")
    del ts_texts
    rssi, ber = [], []
    for column, texts in ((rssi, codes), (ber, levels)):
        try:  # extend keeps what it appended before the item that raised
            column.extend(map(int, texts[:n]))
        except ValueError as exc:
            n = len(column)
            fault = AtLogParseError(numbers[n], int_message or str(exc))
    del codes, levels, cleaned[n:], rssi[n:]
    if canonical is None:
        canonical = map(_ISO_TEXT.fullmatch, cleaned)
    # In place: a new text can take its old one's memory.
    for i, (text, known) in enumerate(zip(cleaned, canonical)):
        cleaned[i] = text.replace(" ", "T") if known else datetime.fromisoformat(text).isoformat()
    iso = _IsoText(cleaned)
    del cleaned
    try:
        dataset = RssiDataset(iso, rssi, ber, environment, antenna)
    except _CodeRangeError as exc:
        raise AtLogParseError(numbers[exc.index], str(exc)) from None
    if fault is not None:
        raise fault
    return dataset


def parse_at_csq_log(text: str, environment: str = "", antenna: str = "") -> RssiDataset:
    """Parse a raw modem log into a dataset.

    Blank lines and lines starting with ``#`` are skipped.  Anything else must
    match the +CSQ line grammar; violations raise :class:`AtLogParseError`
    with the line number.
    """
    lines = [raw.strip() for raw in text.splitlines()]
    numbers = [n for n, line in enumerate(lines, start=1) if line and line[0] != "#"]
    data = [lines[n - 1] for n in numbers]
    del lines
    fields = [m.groups() if m else f"not a +CSQ reading: {line!r}"
              for line, m in zip(data, map(_CSQ_LINE.fullmatch, data))]
    del data
    return _dataset(numbers, fields, None, None, environment, antenna)


def parse_rssi_csv(text: str, environment: str = "", antenna: str = "") -> RssiDataset:
    """Alternative CSV ingestion with exact header ``timestamp,rssi,ber``.

    Empty records are skipped; the line numbers in errors count records.
    """
    reader = csv.reader(io.StringIO(text))
    records, fault = [], None
    try:  # tuples of strings leave the garbage collector's care at its first pass
        records.extend(map(tuple, reader))
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        fault = AtLogParseError(len(records) + 1, str(exc))
    del reader  # and with it its copy of the text
    if not records:
        raise fault or AtLogParseError(1, "empty document")
    header = records[0]
    if header != ("timestamp", "rssi", "ber"):
        raise AtLogParseError(1, f"expected header timestamp,rssi,ber; got {','.join(header)!r}")
    numbers = [n for n, record in enumerate(records, start=1) if record and n > 1]
    fields = [r if len(r) == 3 else f"expected 3 fields, got {len(r)}" for r in records[1:] if r]
    del records
    return _dataset(numbers, fields, fault, "rssi and ber must be integers", environment, antenna)


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
    the report.
    """
    a = novel.known_rssi()
    b = baseline.known_rssi()
    if a.size < 2 or b.size < 2:
        raise ValueError("each dataset needs at least two known readings")
    if b.mean() == 0:
        raise ValueError("baseline mean is zero; ratios are undefined")

    welch = welch_t_test(a, b)
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
