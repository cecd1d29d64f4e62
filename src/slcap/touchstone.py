"""Touchstone v1 S-parameter reader/writer.

Handles 1- and 2-port files in the three standard encodings (real-imaginary,
magnitude-angle, dB-angle) with frequency units Hz/kHz/MHz/GHz.  Touchstone v2
keyword blocks are rejected.  Parsing is total over the documented grammar:
every input either yields a :class:`NetworkData` or raises
:class:`TouchstoneParseError` naming the offending line and cause.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import _cpus
from ._frozen import Frozen, freeze_arrays
from ._options import ENCODINGS, SPLITLINES_ONLY, UNIT_SCALE, LineError, check_positive

__all__ = [
    "NetworkData",
    "TouchstoneFormat",
    "TouchstoneParseError",
    "parse_touchstone",
    "write_touchstone",
    "write_touchstone_file",
    "validate_passivity",
    "ENCODINGS",
    "UNIT_SCALE",
]

_UNIT_DISPLAY = {"hz": "Hz", "khz": "kHz", "mhz": "MHz", "ghz": "GHz"}
_PARAMETER_KINDS = ("s", "y", "z", "g", "h")
# Each option-line slot, named as its duplicate-token error names it, and its tokens.
_OPTION_SLOTS = {
    "frequency unit": tuple(UNIT_SCALE),
    "encoding": ENCODINGS,
    "parameter-kind": _PARAMETER_KINDS,
    "reference-impedance": ("r",),
}

DEFAULT_Z0 = 50.0
PASSIVITY_TOL = 1e-9
# dB levels up to here convert to at most 1e300; the line grammar checks any above it.
_DB_SAFE = 6000.0


class TouchstoneParseError(LineError):
    """Raised for any input outside the accepted grammar; carries the line number."""


@dataclass(frozen=True)
class TouchstoneFormat:
    """Serialization choices from (or for) an option line."""

    unit: str = "ghz"
    encoding: str = "ma"
    z0_ohm: float = DEFAULT_Z0

    def __post_init__(self):
        if self.unit not in UNIT_SCALE:
            raise ValueError(f"unknown frequency unit {self.unit!r}")
        if self.encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {self.encoding!r}")
        check_positive(z0_ohm=self.z0_ohm)


def _check_sweep(f: np.ndarray) -> None:
    """Raise ValueError unless the frequencies are finite, positive and strictly increasing."""
    if not np.all(np.isfinite(f)) or not np.all(f > 0):
        raise ValueError("frequencies must be finite and positive")
    if f.size > 1 and not np.all(np.diff(f) > 0):
        raise ValueError("frequencies must be strictly increasing")


@dataclass(frozen=True, eq=False)
class NetworkData(Frozen):
    """Frequency sweep of scattering matrices against a real reference impedance.

    ``s`` has shape (n_points, n_ports, n_ports) with ``s[k, i, j]`` holding
    S(i+1)(j+1) at ``frequencies_hz[k]``.  Only 1- and 2-port data is supported.
    Both arrays are stored as read-only views.
    """

    frequencies_hz: np.ndarray
    s: np.ndarray
    z0_ohm: float = DEFAULT_Z0

    def __post_init__(self):
        f = np.asarray(self.frequencies_hz, dtype=float)
        s = np.asarray(self.s, dtype=complex)
        if f.ndim != 1 or f.size == 0:
            raise ValueError("frequencies must be a non-empty 1-D array")
        _check_sweep(f)
        if s.ndim != 3 or s.shape[0] != f.size or s.shape[1] != s.shape[2]:
            raise ValueError("s must have shape (n_points, n_ports, n_ports)")
        if s.shape[1] not in (1, 2):
            raise ValueError("only 1- and 2-port networks are supported")
        if not np.all(np.isfinite(s)):
            raise ValueError("scattering parameters must be finite")
        check_positive(z0_ohm=self.z0_ohm)
        freeze_arrays(self, frequencies_hz=f, s=s)

    @property
    def n_points(self) -> int:
        return self.frequencies_hz.size

    @property
    def n_ports(self) -> int:
        return self.s.shape[1]

    def s11(self) -> np.ndarray:
        return self.s[:, 0, 0]

    def s21(self) -> np.ndarray:
        if self.n_ports < 2:
            raise ValueError("s21 requires a 2-port network")
        return self.s[:, 1, 0]


def _parse_option_line(line: str, line_number: int) -> TouchstoneFormat:
    tokens = line[1:].split()
    found: dict[str, str] = {}
    z0 = DEFAULT_Z0
    i = 0
    while i < len(tokens):
        tok = tokens[i].lower()
        slot = next((name for name, choices in _OPTION_SLOTS.items() if tok in choices), None)
        if slot is None:
            raise TouchstoneParseError(line_number, f"unknown option token {tokens[i]!r}")
        if slot in found:
            raise TouchstoneParseError(line_number, f"duplicate {slot} token")
        found[slot] = tok
        if tok == "r":
            if i + 1 >= len(tokens):
                raise TouchstoneParseError(line_number, "'R' token missing its impedance value")
            try:
                z0 = float(tokens[i + 1])
            except ValueError:
                raise TouchstoneParseError(
                    line_number, f"reference impedance {tokens[i + 1]!r} is not a number"
                ) from None
            if not (z0 > 0 and math.isfinite(z0)):
                raise TouchstoneParseError(line_number, "reference impedance must be positive")
            i += 1
        i += 1
    kind = found.get("parameter-kind", "s")
    if kind != "s":
        raise TouchstoneParseError(
            line_number, f"parameter kind {kind.upper()!r} is not supported (scattering only)"
        )
    # Touchstone v1 defaults apply for any omitted token.
    return TouchstoneFormat(
        unit=found.get("frequency unit", "ghz"), encoding=found.get("encoding", "ma"), z0_ohm=z0
    )


def _network(fmt: TouchstoneFormat, table: np.ndarray) -> NetworkData:
    """The network of a table of data rows: frequency in Hz, then the (a, b) pairs in v1 order.

    RI parts are stored as they are: ``a + 1j*b`` could flip the sign of a zero.  The
    angle's radians, cosine and sine are numpy's, which match ``math`` bit for bit;
    ``np.power`` can differ from ``**`` in the last bit, so the dB level is a scalar
    ``pow`` per entry.
    """
    a, b = table[:, 1::2], table[:, 2::2]
    s = np.empty(a.shape, dtype=complex)
    if fmt.encoding == "ri":
        s.real, s.imag = a, b
    else:
        if fmt.encoding == "db":
            # A block of rows at a time, so the Python floats of one block are alive at once.
            mag, rows = np.empty(a.shape), _cpus.BLOCK_ROWS
            for lo in range(0, len(a), rows):
                levels = (a[lo:lo + rows] / 20.0).ravel().tolist()
                mag[lo:lo + rows] = np.fromiter(
                    map(pow, repeat(10.0), levels), float, len(levels)
                ).reshape(-1, a.shape[1])
            a = mag
        angle = np.radians(b)
        s.real, s.imag = a * np.cos(angle), a * np.sin(angle)
    p = 1 if table.shape[1] == 3 else 2
    # v1 rows list S11 S21 S12 S22: column-major, hence the transpose.
    s = s.reshape(-1, p, p).transpose(0, 2, 1)
    return NetworkData(np.ascontiguousarray(table[:, 0]), s, fmt.z0_ohm)


def _read_table(lines) -> tuple[TouchstoneFormat, np.ndarray] | None:
    """The option line and the data table of ``lines``, an iterator over a document's lines.

    The lines up to the first significant one are read here, and numpy reads the rest
    in one pass.  Returns None, for the line grammar to read, when that line is not an
    option line, or when numpy declines the rows or a check on them fails.  An option
    line is parsed, and rejected, as the line grammar would.
    """
    for start, raw in enumerate(lines, start=1):
        line = raw.split("!", 1)[0].strip()
        if line:
            break
    else:
        return None
    if not line.startswith("#"):
        return None
    fmt = _parse_option_line(line, start)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a block with no rows
            table = np.loadtxt(lines, comments="!", ndmin=2)
    except ValueError:
        return None
    if table.shape[0] == 0 or table.shape[1] not in (3, 9) or not np.isfinite(table).all():
        return None
    if fmt.encoding == "db" and (table[:, 1::2] > _DB_SAFE).any():
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # inf, as the line grammar's float gives
        table[:, 0] *= UNIT_SCALE[fmt.unit]
        if not (table[0, 0] > 0 and (np.diff(table[:, 0]) > 0).all()):
            return None
    return fmt, table


_SCAN_BYTES = 2**20


def _parse_file(path) -> NetworkData | None:
    """The network of the Touchstone file at ``path``, its table read by numpy from the file.

    The text is never held.  The file is read so only when its bytes are ASCII with none
    of ``SPLITLINES_ONLY``: then the lines of the file are those that
    :func:`parse_touchstone` splits its text into, and the network is the same, bit for
    bit.  Returns None otherwise, or when the table is declined or the file cannot be
    read; ``parse_touchstone`` of the file's text then reads it, and names any fault.
    """
    try:
        with open(path, "rb") as f:
            while block := f.read(_SCAN_BYTES):
                if not block.isascii() or any(c in block for c in SPLITLINES_ONLY.encode()):
                    return None
        with open(path, encoding="ascii") as f:  # universal newlines: \n, \r\n and \r
            found = _read_table(f)
        return found and _network(*found)
    except (OSError, ValueError):
        return None


def _read_lines(text: str) -> tuple[TouchstoneFormat, np.ndarray]:
    """The option line and the data table, line by line: the grammar behind every error."""
    fmt: TouchstoneFormat | None = None
    rows: list[list[float]] = []
    row_lines: list[int] = []
    n_cols = None
    last_line = 0

    for line_number, raw in enumerate(text.splitlines(), start=1):
        last_line = line_number
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            raise TouchstoneParseError(
                line_number, "Touchstone v2 keyword blocks are not supported"
            )
        if line.startswith("#"):
            if fmt is not None:
                raise TouchstoneParseError(line_number, "second option line")
            fmt = _parse_option_line(line, line_number)
            continue
        if fmt is None:
            raise TouchstoneParseError(line_number, "data row before the option line")

        tokens = line.split()
        values = []
        for tok in tokens:
            try:
                v = float(tok)
            except ValueError:
                raise TouchstoneParseError(
                    line_number, f"non-numeric token {tok!r}"
                ) from None
            if not math.isfinite(v):
                raise TouchstoneParseError(line_number, f"non-finite value {tok!r}")
            values.append(v)

        if n_cols is None:
            if len(values) not in (3, 9):
                raise TouchstoneParseError(
                    line_number,
                    f"expected 3 columns (1-port) or 9 columns (2-port), got {len(values)}",
                )
            n_cols = len(values)
        elif len(values) != n_cols:
            raise TouchstoneParseError(
                line_number, f"expected {n_cols} columns, got {len(values)}"
            )

        values[0] *= UNIT_SCALE[fmt.unit]
        if values[0] <= 0:
            raise TouchstoneParseError(line_number, "frequency must be positive")
        if rows and values[0] <= rows[-1][0]:
            raise TouchstoneParseError(line_number, "frequencies must be strictly increasing")
        rows.append(values)
        row_lines.append(line_number)

    if fmt is None:
        raise TouchstoneParseError(max(last_line, 1), "missing option line")
    if not rows:
        raise TouchstoneParseError(max(last_line, 1), "no data rows")
    table = np.array(rows)
    if fmt.encoding == "db":
        # The first level, in reading order, whose linear magnitude overflows.
        for i, j in zip(*np.nonzero(table[:, 1::2] > _DB_SAFE)):
            level = rows[i][1 + 2 * j]
            try:
                pow(10.0, level / 20.0)
            except OverflowError:
                raise TouchstoneParseError(
                    row_lines[i], f"dB level {level!r} overflows the float range"
                ) from None
    return fmt, table


def parse_touchstone(text: str) -> NetworkData:
    """Parse a Touchstone v1 document into a :class:`NetworkData`.

    The data block is read in one array pass (``np.loadtxt``), and its column count,
    finiteness and frequency order are checked as arrays.  Anything that pass declines,
    such as a malformed row or text that ``float`` reads but numpy does not (``1_0``,
    non-ASCII digits), is re-read by the line grammar, with the same values and errors.

    Raises
    ------
    TouchstoneParseError
        With a line number, for any deviation from the v1 grammar: v2 keyword
        blocks, malformed or duplicated option lines, unsupported parameter
        kinds, wrong column counts, non-numeric or non-finite values, dB levels
        whose magnitude overflows, non-positive or non-increasing frequencies,
        or missing data.
    """
    return _network(*(_read_table(iter(text.splitlines())) or _read_lines(text)))


def _fmt_z0(z0: float) -> str:
    return str(int(z0)) if z0 == int(z0) else repr(float(z0))


def _magnitude(z: np.ndarray) -> np.ndarray:
    """|z| of each entry: every complex magnitude slcap computes or writes is this one.

    np.hypot, not np.abs: like scalar abs(complex), np.hypot calls the C
    library's hypot, so the two agree bit for bit.  numpy's complex abs kernel
    can differ in the last bit, which would move the .9g text of some rows.
    """
    return np.hypot(z.real, z.imag)


def _pairs(encoding: str, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two numbers written for each entry of ``z`` in ``encoding``.

    ``_magnitude`` and np.degrees match scalar ``abs`` and ``math.degrees`` bit for
    bit; np.arctan2 and np.log10 can differ in the last bit, and ``%r`` prints
    every bit, so the angle and the dB level stay ``math`` calls per entry.
    """
    if encoding == "ri":
        return z.real, z.imag
    shape = z.shape
    angle = list(map(math.atan2, z.imag.ravel().tolist(), z.real.ravel().tolist()))
    ang = np.degrees(np.array(angle)).reshape(shape)
    mag = _magnitude(z)
    if encoding == "ma":
        return mag, ang
    # dB of an exact zero has no finite representation; floor keeps the file
    # parseable and the reconstructed value indistinguishable from zero.
    floored = np.maximum(mag, 1e-30).ravel().tolist()
    return 20.0 * np.array(list(map(math.log10, floored))).reshape(shape), ang


def _block_text(freqs: np.ndarray, z: np.ndarray, encoding: str) -> str:
    """Rows of ``freqs`` and the entries ``z`` (one column per entry) as text.

    An entry column equal bit for bit to an earlier one (S12 = S21 or S22 = S11
    in a reciprocal or symmetric network) reuses that column's text, so each
    distinct column goes through ``_pairs`` and ``repr`` once.
    """
    first: dict[bytes, int] = {}
    cols = [first.setdefault(z[:, j].tobytes(), j) for j in range(z.shape[1])]
    distinct = list(first.values())
    a, b = _pairs(encoding, z[:, distinct])
    text = {j: (list(map(repr, a[:, k].tolist())), list(map(repr, b[:, k].tolist())))
            for k, j in enumerate(distinct)}
    cells = [list(map(repr, freqs.tolist()))]
    for j in cols:
        cells += text[j]
    row = " ".join(["%s"] * len(cells)) + "\n"
    return (row * len(freqs)) % tuple(chain.from_iterable(zip(*cells)))


def _touchstone_blocks(net: NetworkData, fmt: TouchstoneFormat | None = None):
    """``net`` as a Touchstone v1 document in parts: (option line, ``block``, block count).

    ``block(i)`` formats the rows ``i * _cpus.BLOCK_ROWS`` up to ``(i + 1) * _cpus.BLOCK_ROWS``,
    reordering only that part of ``net.s``, so the blocks can be formatted one at a
    time, in any order or apart.
    """
    if fmt is None:
        fmt = TouchstoneFormat(z0_ohm=net.z0_ohm)
    scale = UNIT_SCALE[fmt.unit]
    rows = _cpus.BLOCK_ROWS

    def block(i: int) -> str:
        lo, hi = i * rows, (i + 1) * rows
        # v1 rows list S11 S21 S12 S22: column-major, hence the transpose.
        z = net.s[lo:hi].transpose(0, 2, 1).reshape(-1, net.n_ports ** 2)
        return _block_text(net.frequencies_hz[lo:hi] / scale, z, fmt.encoding)

    option = f"# {_UNIT_DISPLAY[fmt.unit]} S {fmt.encoding.upper()} R {_fmt_z0(fmt.z0_ohm)}\n"
    return option, block, -(-net.n_points // rows)


def write_touchstone(net: NetworkData, fmt: TouchstoneFormat | None = None) -> str:
    """Serialize ``net`` as one Touchstone v1 string: the option line, then the rows.

    Every number is ``repr`` of a float, the shortest text that reads back to
    the same value.  To write a file, use :func:`write_touchstone_file`, which
    never holds the whole text.
    """
    option, block, n_blocks = _touchstone_blocks(net, fmt)
    return option + "".join(map(block, range(n_blocks)))


def write_touchstone_file(path, net: NetworkData, fmt: TouchstoneFormat | None = None) -> None:
    """Write ``write_touchstone(net, fmt)``'s text to ``path``, one block of rows at a time.

    The file is UTF-8 with LF rows on every OS.  On more than one usable CPU the
    blocks may be formatted in forked processes, with the same bytes.
    """
    _cpus.write_blocks(path, *_touchstone_blocks(net, fmt))


def validate_passivity(net: NetworkData) -> list[str]:
    """Return a warning string per scattering entry with magnitude above 1 + ``PASSIVITY_TOL``."""
    mags = _magnitude(net.s)
    # np.nonzero yields (point, row, column) in C order: by point, then port pair.
    return [
        f"|S{i + 1}{j + 1}| = {mags[k, i, j]:.9g} exceeds 1 "
        f"at {net.frequencies_hz[k]:.9g} Hz"
        for k, i, j in zip(*np.nonzero(mags > 1.0 + PASSIVITY_TOL))
    ]
