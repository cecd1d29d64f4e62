"""Seeded inputs, command lists and output checks for the four workloads.

Every input is generated here with numpy from the run's seed; none comes from
``slcap synth``, so a change to slcap's writers cannot change another
workload's input.  Each check recomputes the expected values apart from slcap,
with the benchmark's own formulas and the closed forms in ``tests/oracles.py``.
A check returns a list of problems; an empty list means the outputs are right.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable

import numpy as np

Z0 = 50.0
C_LIGHT = 299_792_458.0

# Sizes, chosen so that one round of a workload's commands takes a few
# seconds and a run of the length in BENCHMARK.json holds several rounds.
SWEEP_POINTS = 20_000
SYNTH_POINTS = 40_000
THETA_STEP_DEG = 0.25
PHI_STEP_DEG = 1.0
LOG_READINGS = 30_000
UNKNOWN_SHARE = 0.03


@dataclass
class Command:
    """One CLI invocation: ``python -m slcap <argv>`` writing into ``out_dir``."""

    name: str
    argv: list[str]
    out_dir: Path
    check: Callable[[Path], list[str]]


@dataclass
class Workload:
    commands: list[Command]
    # Subcommands whose ``--help`` times the start-up every command pays.
    subcommands: list[str]


def _report(path: Path) -> dict[str, str]:
    rows = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            rows[key] = value
    return rows


def _csv(path: Path, n_cols: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != n_cols:
        raise ValueError(f"{path.name}: {data.shape[1]} columns, expected {n_cols}")
    return data


def _close(name: str, got: float, want: float, rtol: float, atol: float = 0.0) -> list[str]:
    if abs(got - want) <= atol + rtol * abs(want):
        return []
    return [f"{name} = {got!r}, expected {want!r}"]


def _array_close(name: str, got, want, tol) -> list[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    bad = ~(np.abs(got - want) <= tol)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        return [f"{name}: {int(bad.sum())} values off, first at row {i}: "
                f"{got.flat[i]!r} vs {want.flat[i]!r}"]
    return []


def _svg_ok(path: Path) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    text = path.read_text()
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        return [f"{path.name} is not an SVG document"]
    return []


def _guarded(check: Callable[[Path], list[str]]) -> Callable[[Path], list[str]]:
    """A check that raises (missing file, unparsable CSV) reports a problem."""

    def run(out: Path) -> list[str]:
        try:
            return check(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{type(exc).__name__}: {exc}"]

    return run


# ---------------------------------------------------------------------------
# Series RLC embedded in fixtures, written as Touchstone by the benchmark


@dataclass(frozen=True)
class Rlc:
    r: float
    l: float
    c: float

    def z(self, f):
        w = 2.0 * np.pi * np.asarray(f, dtype=float)
        return self.r + 1j * (w * self.l - 1.0 / (w * self.c))

    @property
    def f0(self) -> float:
        return 1.0 / (2.0 * math.pi * math.sqrt(self.l * self.c))


def _draw_rlc(rng: np.random.Generator) -> Rlc:
    return Rlc(r=rng.uniform(0.5, 1.5), l=rng.uniform(0.6e-9, 1.0e-9), c=rng.uniform(1.5e-12, 2.5e-12))


def embed(z, fixture: str) -> np.ndarray:
    """S-parameter columns in Touchstone v1 order (S11, S21, S12, S22 or S11)."""
    if fixture == "reflection":
        return ((z - Z0) / (z + Z0))[:, None]
    if fixture == "series-through":
        den = z + 2.0 * Z0
        s11, s21 = z / den, 2.0 * Z0 / den
    else:
        den = 2.0 * z + Z0
        s11, s21 = -Z0 / den, 2.0 * z / den
    return np.stack([s11, s21, s21, s11], axis=1)


UNIT_SCALE = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
UNIT_NAME = {"hz": "Hz", "khz": "kHz", "mhz": "MHz", "ghz": "GHz"}


def encode_pairs(s: np.ndarray, encoding: str) -> np.ndarray:
    if encoding == "ri":
        a, b = s.real, s.imag
    else:
        a, b = np.abs(s), np.degrees(np.angle(s))
        if encoding == "db":
            a = 20.0 * np.log10(a)
    out = np.empty((s.shape[0], 2 * s.shape[1]))
    out[:, 0::2], out[:, 1::2] = a, b
    return out


def decode_pairs(cols: np.ndarray, encoding: str) -> np.ndarray:
    a, b = cols[:, 0::2], cols[:, 1::2]
    if encoding == "ri":
        return a + 1j * b
    mag = a if encoding == "ma" else 10.0 ** (a / 20.0)
    return mag * np.exp(1j * np.radians(b))


def write_touchstone(path: Path, f_hz, s, unit: str, encoding: str) -> None:
    body = np.column_stack([np.asarray(f_hz) / UNIT_SCALE[unit], encode_pairs(s, encoding)])
    with open(path, "w") as fh:
        fh.write("! benchmark sweep of a series RLC\n")
        fh.write(f"# {UNIT_NAME[unit]} S {encoding.upper()} R 50\n")
        np.savetxt(fh, body, fmt="%.17g")


def read_touchstone(path: Path) -> tuple[str, np.ndarray, np.ndarray]:
    """(option line, frequencies in the file's unit, data columns) via numpy."""
    option = next(line for line in path.read_text().splitlines() if line.startswith("#"))
    data = np.loadtxt(path, comments=("!", "#"), ndmin=2)
    return option, data[:, 0], data[:, 1:]


# ---------------------------------------------------------------------------
# sweep: analyze and match on one series-through sweep in three encodings


def make_sweep(rng: np.random.Generator, work: Path, oracles) -> Workload:
    rlc = _draw_rlc(rng)
    f = np.linspace(1e9, 8e9, SWEEP_POINTS)
    step = f[1] - f[0]
    z = rlc.z(f)
    s = embed(z, "series-through")
    files = {}
    for unit, encoding in (("ghz", "ri"), ("mhz", "ma"), ("hz", "db")):
        files[encoding] = work / f"sweep_{encoding}.s2p"
        write_touchstone(files[encoding], f, s, unit, encoding)
    # A grid point off resonance, where the element is reactive.
    k_design = int(np.argmin(np.abs(f - rlc.f0 * rng.uniform(1.05, 1.15))))
    f_design = float(f[k_design])
    z_design = complex(z[k_design])

    def z_rows(path: Path, n_cols: int) -> np.ndarray:
        data = _csv(path, n_cols)
        if data.shape[0] != f.size:
            raise ValueError(f"{path.name}: {data.shape[0]} rows, expected {f.size}")
        return data

    def check_vswr(path: Path, z_load) -> list[str]:
        data = z_rows(path, 5)
        g = (z_load - Z0) / (z_load + Z0)
        vswr = (1 + np.abs(g)) / (1 - np.abs(g))
        return _array_close(f"{path.name} vswr", data[:, 4], vswr, 2e-8 * vswr)

    def check_analyze(out: Path) -> list[str]:
        problems = []
        imp = z_rows(out / "impedance.csv", 4)
        mag = np.abs(z)
        # 9 significant digits, plus de-embedding rounding relative to |Z|.
        problems += _array_close("impedance.csv freq", imp[:, 0], f, 6e-9 * f)
        problems += _array_close("impedance.csv re", imp[:, 1], z.real, 6e-9 * np.abs(z.real) + 1e-11 * mag)
        problems += _array_close("impedance.csv im", imp[:, 2], z.imag, 6e-9 * np.abs(z.imag) + 1e-11 * mag)
        problems += _array_close("impedance.csv mag", imp[:, 3], mag, 6e-9 * mag)

        met = z_rows(out / "metrics.csv", 6)
        x = np.abs(z.imag)
        eps = 1e-3  # slcap's default reactance dead band
        defined, undefined = x > 1.01 * eps, x < 0.99 * eps
        df = z.real / x
        problems += _array_close("metrics.csv df", met[defined, 3], df[defined], 2e-8 * df[defined])
        if not np.all(np.isnan(met[undefined, 3])):
            problems.append("metrics.csv df is not nan inside the reactance dead band")

        rep = _report(out / "analyze_report.txt")
        problems += _close("n_points", float(rep["n_points"]), f.size, 0.0)
        problems += _close("resonant_frequency_hz", float(rep["resonant_frequency_hz"]), rlc.f0, 0.0, step)
        lo, hi = oracles.rlc_band_edges(rlc.r, rlc.l, rlc.c, 3.0)
        problems += _close("bandwidth_low_hz", float(rep["bandwidth_low_hz"]), lo, 0.0, step)
        problems += _close("bandwidth_high_hz", float(rep["bandwidth_high_hz"]), hi, 0.0, step)
        return problems + _svg_ok(out / "impedance.svg")

    def check_match(out: Path, topology: str) -> list[str]:
        rep = _report(out / "match_report.txt")
        problems = check_vswr(out / "vswr_unmatched.csv", z)
        problems += _close(
            "vswr_unmatched_at_f_design", float(rep["vswr_unmatched_at_f_design"]),
            oracles.vswr_from_z(z_design, Z0), 1e-8,
        )
        if topology == "series-r":
            r_series = Z0 - rlc.r
            problems += _close("series_r_ohm", float(rep["series_r_ohm"]), r_series, 1e-8)
            problems += check_vswr(out / "vswr_matched.csv", z + r_series)
            matched = oracles.vswr_from_z(z_design + r_series, Z0)
        else:
            matched = oracles.vswr_from_z(complex(Z0, 0.0), Z0)
            z_rows(out / "vswr_matched.csv", 5)
        problems += _close("vswr_matched_at_f_design", float(rep["vswr_matched_at_f_design"]), matched, 1e-8)
        z_rows(out / "impedance_matched.csv", 4)
        return problems

    fd = repr(f_design)
    commands = [
        Command("analyze_ri", ["--svg", "--out-dir", str(work / "analyze"), "analyze", str(files["ri"])],
                work / "analyze", _guarded(check_analyze)),
        Command("match_series_r_ma",
                ["--out-dir", str(work / "match_sr"), "match", str(files["ma"]), "--f-design", fd,
                 "--topology", "series-r"],
                work / "match_sr", _guarded(lambda out: check_match(out, "series-r"))),
        Command("match_l_section_db",
                ["--out-dir", str(work / "match_l"), "match", str(files["db"]), "--f-design", fd,
                 "--topology", "l-section"],
                work / "match_l", _guarded(lambda out: check_match(out, "l-section"))),
    ]
    return Workload(commands, ["analyze", "match"])


# ---------------------------------------------------------------------------
# synth: slcap writes large sweeps; the benchmark reads them back with numpy

SYNTH_CASES = (
    # (fixture, encoding, unit, file name)
    ("reflection", "ri", "ghz", "synth_ri.s1p"),
    ("series-through", "ma", "mhz", "synth_ma.s2p"),
    ("shunt-through", "db", "hz", "synth_db.s2p"),
)


def make_synth(rng: np.random.Generator, work: Path, oracles) -> Workload:
    rlc = _draw_rlc(rng)
    start, stop = 0.5e9, 8e9
    f = np.linspace(start, stop, SYNTH_POINTS)
    commands = []
    for fixture, encoding, unit, name in SYNTH_CASES:
        out = work / f"synth_{encoding}"

        def check(out: Path, fixture=fixture, encoding=encoding, unit=unit, name=name) -> list[str]:
            option, freq, cols = read_touchstone(out / name)
            want_option = f"# {UNIT_NAME[unit]} S {encoding.upper()} R 50"
            problems = [] if option == want_option else [f"{name}: option line {option!r}"]
            want = embed(rlc.z(f), fixture)
            problems += _array_close(f"{name} freq", freq * UNIT_SCALE[unit], f, 1e-12 * f)
            return problems + _array_close(f"{name} S", decode_pairs(cols, encoding), want, 1e-12)

        argv = ["--out-dir", str(out), "--fixture", fixture, "synth",
                "--r", repr(rlc.r), "--l", repr(rlc.l), "--c", repr(rlc.c),
                "--sweep", f"{start!r}:{stop!r}:{SYNTH_POINTS}",
                "--unit", unit, "--encoding", encoding, "--out", name]
        commands.append(Command(f"synth_{fixture}_{encoding}", argv, out, _guarded(check)))
    return Workload(commands, ["synth"])


# ---------------------------------------------------------------------------
# array: 64-element patterns on a fine grid


def _direction(theta_deg: float, phi_deg: float) -> np.ndarray:
    t, p = math.radians(theta_deg), math.radians(phi_deg)
    return np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])


def own_pattern(pos, weights, k, axis, theta, phi) -> np.ndarray:
    """|AF|^2 times the element factor, by one matrix product per theta row block."""
    st, ct = np.sin(theta)[:, None], np.cos(theta)[:, None]
    u_hat = np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi), ct), axis=-1)
    af = np.exp(1j * k * (u_hat @ pos.T)) @ weights
    u = np.abs(af) ** 2
    if axis is not None:
        u = u * (1.0 - (u_hat @ axis) ** 2)
    return u


def own_directivity(u: np.ndarray, theta, phi) -> float:
    """4 pi u_max over the sphere integral: trapezoid in theta with sin(theta), periodic in phi."""
    ring = u.mean(axis=1) * 2.0 * math.pi
    integrand = ring * np.sin(theta)
    total = float(np.sum((integrand[:-1] + integrand[1:]) * 0.5 * np.diff(theta)))
    return 4.0 * math.pi * float(u.max()) / total


def closed_form_directivity(pos, weights, k) -> float:
    """Isotropic elements: D = 4 pi u_max / (4 pi sum_mn w_m w_n* sinc(k r_mn))."""
    r = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    kr = k * r
    sinc = np.where(kr == 0, 1.0, np.sin(kr) / np.where(kr == 0, 1.0, kr))
    power = float(np.real(weights @ sinc @ np.conj(weights)))
    # The steered weights bring every element into phase at the peak.
    return float(np.abs(weights).sum()) ** 2 / power


def make_array(rng: np.random.Generator, work: Path, oracles) -> Workload:
    freq = 2.45e9
    lam = C_LIGHT / freq
    k = 2.0 * math.pi / lam
    theta = np.linspace(0.0, math.pi, round(180 / THETA_STEP_DEG) + 1)
    phi = np.linspace(0.0, 2.0 * math.pi, round(360 / PHI_STEP_DEG), endpoint=False)

    ix, iy = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    lattice = np.column_stack([ix.ravel(), iy.ravel(), np.zeros(64)]) * (lam / 2)
    irregular = rng.uniform([-lam, -lam, -lam / 4], [lam, lam, lam / 4], size=(64, 3))

    commands = []
    for name, pos, dipole in (("lattice_isotropic", lattice, False), ("irregular_dipole", irregular, True)):
        # Steer to a grid direction; the dipole axis is perpendicular to it,
        # so the element factor is 1 there and the peak stays on it.
        i0 = int(rng.integers(10, 61)) * round(1 / THETA_STEP_DEG)
        j0 = int(rng.integers(0, phi.size))
        d0 = _direction(math.degrees(theta[i0]), math.degrees(phi[j0]))
        weights = np.exp(-1j * k * (pos @ d0))
        axis = None
        doc = {"frequency_hz": freq, "positions": pos.tolist(),
               "weights": [[w.real, w.imag] for w in weights.tolist()]}
        if dipole:
            # Tilted out of the xy plane: an axis on a grid direction makes
            # slcap exit 1 (see the FOUND note in CHANGES.md).
            e1 = np.cross(d0, [0.0, 0.0, 1.0])
            e1 /= np.linalg.norm(e1)
            alpha = rng.uniform(0.3, 1.2)
            axis = math.cos(alpha) * e1 + math.sin(alpha) * np.cross(d0, e1)
            doc["element"] = {"kind": "hertzian-dipole", "axis": axis.tolist()}
        layout = work / f"{name}.json"
        layout.write_text(json.dumps(doc))

        def check(out: Path, pos=pos, weights=weights, axis=axis, i0=i0, j0=j0) -> list[str]:
            data = _csv(out / "pattern.csv", 4)
            if data.shape[0] != theta.size * phi.size:
                return [f"pattern.csv has {data.shape[0]} rows, expected {theta.size * phi.size}"]
            u_own = own_pattern(pos, weights, k, axis, theta, phi)
            u_csv = data[:, 2].reshape(theta.size, phi.size)
            u_max = float(u_own.max())
            problems = _array_close("pattern.csv u", u_csv, u_own, 1e-8 * u_max)
            problems += _array_close("pattern.csv theta", data[:, 0], np.repeat(np.degrees(theta), phi.size),
                                     1e-6)
            u_db = data[:, 3].reshape(u_csv.shape)
            if not (abs(u_db[i0, j0]) <= 1e-9 and u_db.max() <= 1e-9):
                problems.append(f"pattern.csv 0 dB peak is not at the steered row ({u_db[i0, j0]!r} dB there)")
            d_report = float(_report(out / "pattern_report.txt")["directivity"])
            if axis is None:
                problems += _close("directivity (closed form)", d_report, closed_form_directivity(pos, weights, k),
                                   2e-4)
            else:
                problems += _close("directivity (own quadrature)", d_report, own_directivity(u_own, theta, phi),
                                   2e-4)
            return problems + _svg_ok(out / "cut.svg")

        out = work / name
        argv = ["--svg", "--out-dir", str(out), "pattern", "--layout", str(layout),
                "--theta-step", repr(THETA_STEP_DEG), "--phi-step", repr(PHI_STEP_DEG),
                "--phi-cut-deg", repr(math.degrees(phi[j0]))]
        commands.append(Command(f"pattern_{name}", argv, out, _guarded(check)))
    return Workload(commands, ["pattern"])


# ---------------------------------------------------------------------------
# fieldlog: two AT +CSQ logs, and the same readings as CSV tables


def _readings(rng: np.random.Generator, n: int, mean: float) -> tuple[np.ndarray, np.ndarray]:
    rssi = np.clip(np.rint(rng.normal(mean, 4.0, n)), 0, 31).astype(int)
    rssi[rng.random(n) < UNKNOWN_SHARE] = 99
    ber = rng.integers(0, 8, n)
    ber[rssi == 99] = 99
    return rssi, ber


def _log_texts(times: list[datetime], rssi, ber, stamp) -> tuple[str, str]:
    """The same readings as an AT log (with comments and blank lines) and as CSV."""
    at, table = ["# modem session log", ""], ["timestamp,rssi,ber"]
    for i, (t, r, b) in enumerate(zip(times, rssi.tolist(), ber.tolist())):
        if i % 500 == 250:
            at.append(f"# marker {i}")
        if i % 700 == 350:
            at.append("")
        ts = stamp(t)
        at.append(f"{ts} +CSQ: {r},{b}")
        table.append(f"{ts},{r},{b}")
    return "\n".join(at) + "\n", "\n".join(table) + "\n"


def two_sided_p(t: float, df: float, panels: int = 16, order: int = 64) -> float:
    """Two-sided Student-t p-value: 1 - 2 x (density integral over [0, |t|]).

    The same Gauss-Legendre quadrature as ``oracles.student_t_sf``, with the
    normalisation taken through ``lgamma``: ``math.gamma`` overflows there for
    df above about 340, and these logs give df near 2 x LOG_READINGS.
    """
    c = math.exp(math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(df * math.pi)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, abs(t), panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        density = c * np.exp(-(df + 1.0) / 2.0 * np.log1p(x * x / df))
        total += 0.5 * (b - a) * float(np.sum(weights * density))
    return min(1.0, 1.0 - 2.0 * total)


def make_fieldlog(rng: np.random.Generator, work: Path, oracles) -> Workload:
    t0 = datetime(2024, 3, 1, 8, 0, 0, tzinfo=timezone.utc)
    logs = {}
    for antenna, mean, tz, stamp in (
        ("novel", 16.0, timezone.utc, lambda t: t.strftime("%Y-%m-%dT%H:%M:%SZ")),
        ("baseline", 16.05, timezone(timedelta(hours=2)), lambda t: t.isoformat(sep=" ")),
    ):
        rssi, ber = _readings(rng, LOG_READINGS, mean)
        times = [(t0 + timedelta(seconds=2 * i)).astimezone(tz) for i in range(LOG_READINGS)]
        at, table = _log_texts(times, rssi, ber, stamp)
        (work / f"{antenna}.log").write_text(at)
        (work / f"{antenna}.csv").write_text(table)
        logs[antenna] = (times, rssi)

    codes = rng.integers(0, 32, 6)
    off_map = np.array([True, False, True, False, False, True])
    claims = [(int(c), -113.0 + 2.0 * int(c) + (3.0 if off else 0.0)) for c, off in zip(codes, off_map)]
    claim_args = [arg for c, d in claims for arg in ("--check-dbm", f"{c}:{d!r}")]

    def check(out: Path) -> list[str]:
        problems = []
        for antenna, (times, rssi) in logs.items():
            rows = (out / f"rssi_{antenna}.csv").read_text().splitlines()[1:]
            if len(rows) != rssi.size:
                problems.append(f"rssi_{antenna}.csv has {len(rows)} rows, expected {rssi.size}")
                continue
            fields = [row.split(",") for row in rows]
            if [f[0] for f in fields] != [t.isoformat() for t in times]:
                problems.append(f"rssi_{antenna}.csv timestamps differ from the log")
            got_rssi = np.array([int(f[1]) for f in fields])
            got_dbm = np.array([float(f[2]) for f in fields])
            want_dbm = np.where(rssi == 99, np.nan, -113.0 + 2.0 * rssi)
            problems += _array_close(f"rssi_{antenna}.csv rssi", got_rssi, rssi, 0)
            if not np.array_equal(got_dbm, want_dbm, equal_nan=True):
                problems.append(f"rssi_{antenna}.csv dbm is not -113 + 2 rssi (nan for 99)")

        rep = _report(out / "comparison.txt")
        a = [float(v) for v in logs["novel"][1] if v != 99]
        b = [float(v) for v in logs["baseline"][1] if v != 99]
        for tag, sample in (("novel", a), ("baseline", b)):
            mean = math.fsum(sample) / len(sample)
            sd = math.sqrt(math.fsum((x - mean) ** 2 for x in sample) / (len(sample) - 1))
            problems += _close(f"{tag}.n_known", float(rep[f"{tag}.n_known"]), len(sample), 0.0)
            problems += _close(f"{tag}.mean_rssi", float(rep[f"{tag}.mean_rssi"]), mean, 1e-8)
            problems += _close(f"{tag}.sd_rssi", float(rep[f"{tag}.sd_rssi"]), sd, 1e-8)
        t, df = oracles.welch_stats(a, b)
        problems += _close("welch.t", float(rep["welch.t"]), t, 1e-7)
        problems += _close("welch.df", float(rep["welch.df"]), df, 1e-7)
        p = two_sided_p(t, df)
        shown = rep["welch.p_value"]
        if p < 1e-3:
            p_ok = shown == "< 0.001"
        else:
            p_ok = shown != "< 0.001" and abs(float(shown) - p) <= 5.1e-5
        if not p_ok:
            problems.append(f"welch.p_value = {shown}, oracle gives {p!r}")
        flagged = sorted(int(key.split(".")[1]) for key in rep if key.startswith("mapping_check."))
        want = [f"rssi {c}:" for (c, _), off in zip(claims, off_map) if off]
        got = [rep[f"mapping_check.{i}"].split(" claimed")[0] for i in flagged]
        if got != want or flagged != list(range(len(want))):
            problems.append(f"mapping_check lines {got}, expected {want}")
        return problems

    commands = []
    for fmt, ext in (("at", "log"), ("csv", "csv")):
        out = work / f"rssi_{fmt}"
        argv = ["--out-dir", str(out), "rssi", str(work / f"novel.{ext}"), str(work / f"baseline.{ext}"),
                "--format", fmt, "--novel-area-mm2", "0.4", "--baseline-area-mm2", "1600", *claim_args]
        commands.append(Command(f"rssi_{fmt}", argv, out, _guarded(check)))
    return Workload(commands, ["rssi"])


WORKLOADS = {
    "sweep": make_sweep,
    "synth": make_synth,
    "array": make_array,
    "fieldlog": make_fieldlog,
}
