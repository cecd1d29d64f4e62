"""Command-line front end.

Subcommands: ``analyze`` (impedance + loss metrics from a Touchstone file),
``match`` (matching-network design and VSWR evaluation), ``pattern`` (array
far-field grid, cut, lobes, directivity), ``rssi`` (field-log comparison) and
``synth`` (reference series-RLC sweep generator).

Exit codes: 0 on success, 2 for input problems (file/parse/config errors, each
with a line-numbered diagnostic where applicable), 1 for numeric failures
inside the computation.  All outputs are deterministic: rerunning a command
writes byte-identical files.
"""
from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass, fields
from importlib import import_module
from pathlib import Path

from . import __version__, _cpus
from ._options import (ENCODINGS, FIXTURE_MODES, REACTANCE_EPSILON, REFLECTION,
                       SERIES_RESISTOR, SERIES_THROUGH, TOPOLOGIES, UNIT_SCALE, grid_shape)
from .report import num, report_text

# What this module calls of each numeric module.  None is imported with this module:
# each command binds its modules' names here when it runs (``_bind``), and any other
# reader, such as the per-layer trace (bench/layers.py) or a test, on first access
# (PEP 562).  So --help, --version and usage errors load no numpy.
_CALLEES = {
    "touchstone": ("TouchstoneFormat", "_magnitude", "_parse_file", "parse_touchstone",
                   "validate_passivity", "write_touchstone_file",
                   "write_touchstone"),  # unused here; the per-layer trace wraps it by name
    "impedance": ("SeriesRlcModel", "impedance_at", "impedance_profile", "synthesize_series_rlc"),
    "metrics": ("metrics_report",),
    "matching": ("apply_match", "design_l_section", "design_series_resistive_match",
                 "power_split_report", "vswr_profile"),
    "radiation": ("directivity", "evaluate_pattern", "find_lobes", "gain", "make_grid",
                  "parse_layout", "polar_cut"),
    "rssi": ("ComparisonError", "check_dbm_mapping", "compare_datasets", "dbm_levels",
             "parse_at_csq_log", "parse_rssi_csv"),
    "svgplot": ("line_plot_svg",),
}


def _bind(*modules: str) -> None:
    """Import numpy as ``np`` and ``modules``, and bind here each of their names that this
    module calls, except where a name is bound already (by a tracer's wrapper, say)."""
    globals().setdefault("np", import_module("numpy"))
    for module in modules:
        found = import_module(f".{module}", __package__)
        for name in _CALLEES[module]:
            globals().setdefault(name, getattr(found, name))


def __getattr__(name: str):
    for module, names in _CALLEES.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["RunConfig", "InputError", "load_config", "run_command", "main"]


class InputError(ValueError):
    """User-input problem (bad file, bad config, bad option value): exit code 2.

    ``keys`` names the config settings at fault, if any; of two, the second is blamed.
    """

    def __init__(self, message: str, keys: tuple[str, ...] = ()):
        super().__init__(message)
        self.keys = keys


@dataclass(frozen=True)
class RunConfig:
    """Run-wide settings; file values override defaults, CLI flags override both."""

    z0_ohm: float = 50.0
    fixture: str = SERIES_THROUGH
    out_dir: str = "."
    theta_step_deg: float = 1.0
    phi_step_deg: float = 1.0
    df_threshold: float = 0.02
    z_threshold_ohm: float = 3.0
    lobe_db_down: float = 10.0
    reactance_epsilon_ohm: float = REACTANCE_EPSILON

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not (value > 0 and math.isfinite(value)):
                raise InputError(f"config value {f.name} must be positive", keys=(f.name,))
        if self.fixture not in FIXTURE_MODES:
            raise InputError(
                f"config value fixture must be one of {FIXTURE_MODES}", keys=("fixture",)
            )
        # Each step alone (the other axis at its coarsest), then the grid they
        # make together, which is blamed on the axis with more points.
        coarsest = {"theta_step_deg": 180.0, "phi_step_deg": 180.0}
        for key in coarsest:
            step = getattr(self, key)
            try:
                grid_shape(**{**coarsest, key: step})
            except ValueError as exc:
                raise InputError(f"config value {key} = {step:g}: {exc}", keys=(key,)) from None
        try:
            grid_shape(self.theta_step_deg, self.phi_step_deg)
        except ValueError as exc:
            keys = ("phi_step_deg", "theta_step_deg")
            if 180.0 / self.theta_step_deg <= 360.0 / self.phi_step_deg:
                keys = keys[::-1]
            raise InputError(
                f"config values theta_step_deg = {self.theta_step_deg:g}, "
                f"phi_step_deg = {self.phi_step_deg:g}: {exc}",
                keys=keys,
            ) from None


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Read a plain ``key = value`` config file, if any, then apply ``overrides``.

    Unknown keys are rejected.  ``overrides`` maps a key to a (value, origin)
    pair, the origin such as a flag.  The merged values are checked once, and a
    rejection names where each value at fault came from: ``{path}: line N``,
    its override's origin, or ``default``.
    """
    defaults = {f.name: f.default for f in fields(RunConfig)}
    values: dict[str, object] = {}
    origins: dict[str, str] = {}
    for line_number, raw in enumerate(_read_text(path).splitlines() if path else [], start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}: line {line_number}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in defaults:
            raise InputError(f"{path}: line {line_number}: unknown key {key!r}")
        origins[key] = f"{path}: line {line_number}"
        if not isinstance(defaults[key], float):
            values[key] = value
            continue
        try:
            values[key] = float(value)
        except ValueError:
            raise InputError(
                f"{path}: line {line_number}: {key} needs a number, got {value!r}"
            ) from None
    for key, (value, origin) in (overrides or {}).items():
        values[key], origins[key] = value, origin
    try:
        return RunConfig(**values)
    except InputError as exc:
        if not exc.keys:
            raise
        where = " and ".join(origins.get(key, "default") for key in exc.keys)
        raise InputError(f"{where}: {exc}") from None


class _ConfigFlag(argparse.Action):
    """Stores a config flag's value as (value, flag), the flag being that value's origin."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, (values, option_string))


def _effective_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the ``--config`` file, then the flags (each flag's dest is its key)."""
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    return load_config(args.config, overrides)


# ---------------------------------------------------------------------------
# CSV and report emission


def _csv_text(column) -> list[str]:
    """A text column's cells as ``csv.writer`` writes them: quoted when they hold , " CR or LF."""
    return [
        '"' + c.replace('"', '""') + '"' if any(ch in c for ch in ',"\r\n') else c
        for c in map(str, column)
    ]


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns under ``header`` with CRLF rows, by ``_cpus.write_blocks``.

    numpy arrays print as ``num`` does (``%.9g``); any other column is text.
    Each block of ``_cpus.BLOCK_ROWS`` rows is one ``%`` format over a flat tuple of its cells.
    """
    _bind()
    columns = [c if isinstance(c, np.ndarray) else _csv_text(c) for c in columns]
    k = len(columns)
    n_rows = len(columns[0]) if columns else 0
    row = ",".join("%.9g" if isinstance(c, np.ndarray) else "%s" for c in columns) + "\r\n"
    rows = _cpus.BLOCK_ROWS

    def block(i: int) -> str:
        part = [c[i * rows:(i + 1) * rows] for c in columns]
        cells = [None] * (k * len(part[0]))
        for j, column in enumerate(part):
            cells[j::k] = column.tolist() if isinstance(column, np.ndarray) else column
        return (row * len(part[0])) % tuple(cells)

    _cpus.write_blocks(path, ",".join(_csv_text(header)) + "\r\n", block, -(-n_rows // rows))


def _db_below_peak(values: np.ndarray) -> np.ndarray:
    """10 log10(values / max(values)); zero intensity reads -inf."""
    _bind()
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(values / values.max())


def write_impedance_csv(path: Path, profile: ImpedanceProfile) -> None:
    z = profile.z
    columns = [profile.frequencies_hz, z.real, z.imag, profile.magnitude]
    _write_csv(path, ["freq_hz", "re_z_ohm", "im_z_ohm", "mag_z_ohm"], columns)


def write_metrics_csv(path: Path, metrics) -> None:
    columns = [metrics.frequencies_hz, metrics.esr_ohm, metrics.reactance_ohm,
               metrics.df, metrics.efficiency, metrics.q]
    _write_csv(path, ["freq_hz", "esr_ohm", "reactance_ohm", "df", "efficiency", "q"], columns)


def write_vswr_csv(path: Path, vswr) -> None:
    _bind("touchstone")
    g = vswr.gamma
    columns = [vswr.frequencies_hz, g.real, g.imag, _magnitude(g), vswr.vswr]
    _write_csv(path, ["freq_hz", "re_gamma", "im_gamma", "mag_gamma", "vswr"], columns)


def write_pattern_csv(path: Path, pattern) -> None:
    """Write one CSV row per grid cell, theta-major: theta_deg, phi_deg, u, u_db.

    The same bytes as ``_write_csv`` over the four columns, but each theta and
    phi is printed once: one row template holds every phi's text, each theta
    row fills in its theta text, then ``u`` and ``u_db`` with one ``%`` format.
    ``u_db`` is one call over the grid: per row, SIMD kernels could round cells apart.
    The theta rows are the blocks of ``_cpus.write_blocks``, so they may be formatted
    on several CPUs.
    """
    _bind()
    u, u_db = pattern.u, _db_below_peak(pattern.u)
    # Each cell's text after its theta: ",<phi>,%.9g,%.9g\r\n" (no %.9g text holds a %).
    tails = ["," + "%.9g" % p + ",%.9g,%.9g\r\n" for p in np.degrees(pattern.phi_rad).tolist()]
    thetas = ["%.9g" % t for t in np.degrees(pattern.theta_rad).tolist()]
    cells = np.empty((u.shape[1], 2))

    def row(i: int) -> str:
        cells[:, 0], cells[:, 1] = u[i], u_db[i]
        return (thetas[i] + thetas[i].join(tails)) % tuple(cells.ravel().tolist())

    _cpus.write_blocks(path, "theta_deg,phi_deg,u,u_db\r\n", row, len(thetas))


def write_cut_csv(path: Path, angles_rad: np.ndarray, values: np.ndarray) -> None:
    _bind()
    _write_csv(path, ["theta_deg", "u_db"], [np.degrees(angles_rad), _db_below_peak(values)])


def write_lobes_csv(path: Path, lobes) -> None:
    _bind()
    columns = [
        np.degrees([lobe.angle_rad for lobe in lobes]),
        np.array([lobe.level for lobe in lobes], dtype=float),
        np.array([lobe.level_db for lobe in lobes], dtype=float),
        ["main" if lobe.is_main else "minor" for lobe in lobes],
    ]
    _write_csv(path, ["angle_deg", "level", "level_db", "kind"], columns)


def write_rssi_csv(path: Path, dataset) -> None:
    """One row per reading: timestamp, rssi, dbm, as ``_write_csv`` writes those columns.

    Each row is its ``isoformat`` text from ``dataset.iso_column`` and the tail
    ``,<rssi>,<dbm>\\r\\n`` of its code, formatted once per distinct code.  A block's rows
    are put together as a byte matrix, from which the NUL padding of the two ``S``
    columns is dropped.
    """
    _bind("rssi")
    iso = dataset.iso_column
    codes, which = np.unique(dataset.rssi, return_inverse=True)
    tails = np.array([",%.9g,%.9g\r\n" % cells
                      for cells in zip(codes.tolist(), dbm_levels(codes).tolist())], dtype="S")
    rows = _cpus.BLOCK_ROWS

    def block(i: int) -> str:
        part = slice(i * rows, (i + 1) * rows)
        cells = np.concatenate([iso[part].view(np.uint8).reshape(-1, iso.itemsize),
                                tails[which[part]].view(np.uint8).reshape(-1, tails.itemsize)],
                               axis=1)
        return cells[cells != 0].tobytes().decode()

    _cpus.write_blocks(path, "timestamp,rssi,dbm\r\n", block, -(-iso.size // rows))


def _emit_report(path: Path, rows: list[tuple[str, str]]) -> None:
    """Write the ``key = value`` report to ``path`` and echo it to stdout."""
    text = report_text(rows)
    _cpus.write_blocks(path, text, None, 0)
    print(text, end="")


def _write_svg(path: Path, x, series, xlabel: str, ylabel: str) -> None:
    """Write ``line_plot_svg``'s plot; the name is read on ``cli``, where the trace wraps it."""
    _bind("svgplot")
    _cpus.write_blocks(path, line_plot_svg(x, series, xlabel=xlabel, ylabel=ylabel), None, 0)


# Largest input file read (Touchstone, layout, log or config), checked with stat first.
MAX_INPUT_BYTES = 256 * 2**20


def _check_size(path: str | Path) -> None:
    size = Path(path).stat().st_size
    if size > MAX_INPUT_BYTES:
        raise InputError(
            f"{path}: {size} bytes exceeds the input budget of {MAX_INPUT_BYTES} bytes"
        )


def _read_text(path: str | Path) -> str:
    _check_size(path)
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # the whole file was decoded at once
        # The line of the first bad byte, counted as the parsers count a text's lines.
        line = len((exc.object[:exc.start].decode() + "?").splitlines())
        raise InputError(
            f"{path}: line {line}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _parse_input(path: str, parse, from_path=None, **kw):
    """``parse`` of the input file's text; any ValueError it raises names the file.

    ``from_path(path)``, if given, is tried first, within the same budget, and the text
    is read only when it returns None.
    """
    if not Path(path).is_file():
        raise InputError(f"no such file: {path}")
    if from_path is not None:
        _check_size(path)
        found = from_path(path)
        if found is not None:
            return found
    text = _read_text(path)
    try:
        return parse(text, **kw)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands


def _profile_from_file(path: str, cfg: RunConfig):
    net = _parse_input(path, parse_touchstone, from_path=_parse_file)
    for line in validate_passivity(net):
        warnings.warn(line)
    try:
        return impedance_profile(net, mode=cfg.fixture)
    except ValueError as exc:  # the fixture does not fit the file's port count
        raise InputError(f"{path}: {exc}") from None


def cmd_analyze(args: argparse.Namespace, cfg: RunConfig) -> int:
    _bind("touchstone", "impedance", "metrics")
    profile = _profile_from_file(args.s_file, cfg)
    metrics = metrics_report(
        profile,
        df_threshold=cfg.df_threshold,
        z_threshold_ohm=cfg.z_threshold_ohm,
        reactance_epsilon=cfg.reactance_epsilon_ohm,
    )
    out = Path(cfg.out_dir)
    write_impedance_csv(out / "impedance.csv", profile)
    write_metrics_csv(out / "metrics.csv", metrics.pointwise)

    res = metrics.resonance
    rows = [
        ("n_points", str(profile.n_points)),
        ("fixture", cfg.fixture),
        ("resonance_reactance_zero_hz", num(res.reactance_zero_hz)),
        ("resonance_min_magnitude_hz", num(res.min_magnitude_hz)),
        ("resonant_frequency_hz", num(metrics.resonant_frequency_hz)),
        ("bandwidth_low_hz", num(metrics.bandwidth_hz and metrics.bandwidth_hz[0])),
        ("bandwidth_high_hz", num(metrics.bandwidth_hz and metrics.bandwidth_hz[1])),
        ("z_threshold_ohm", num(cfg.z_threshold_ohm)),
        ("df_threshold", num(cfg.df_threshold)),
        ("fraction_df_below", num(metrics.fraction_df_below)),
        ("fraction_df_undefined", num(metrics.fraction_df_undefined)),
    ]
    _emit_report(out / "analyze_report.txt", rows)
    if args.svg:
        _write_svg(out / "impedance.svg", profile.frequencies_hz,
                   [("|Z| (ohm)", profile.magnitude)], "frequency (Hz)", "|Z| (ohm)")
    return 0


# The report rows of each L-section variant, in order: its MatchingNetwork fields.
_L_SECTION_ROWS = ("series_x_ohm", "shunt_x_ohm", "series_l_h", "series_c_f",
                   "shunt_l_h", "shunt_c_f")


def cmd_match(args: argparse.Namespace, cfg: RunConfig) -> int:
    _bind("touchstone", "impedance", "matching")
    profile = _profile_from_file(args.s_file, cfg)
    f = profile.frequencies_hz
    if not f[0] <= args.f_design <= f[-1]:
        raise InputError(
            f"--f-design {args.f_design:g} Hz is outside the sweep "
            f"[{f[0]:g}, {f[-1]:g}] Hz"
        )
    out = Path(cfg.out_dir)
    unmatched = vswr_profile(profile, z0=cfg.z0_ohm)

    if args.topology == SERIES_RESISTOR:
        network = design_series_resistive_match(profile, args.f_design, z0=cfg.z0_ohm)
        networks = [network]
    else:
        z_load = impedance_at(profile, args.f_design)
        low, high = design_l_section(z_load, args.f_design, z0=cfg.z0_ohm)
        networks = [low, high]
        network = low if args.variant == "low-pass" else high

    matched_profile = apply_match(profile, network)
    matched = vswr_profile(matched_profile, z0=cfg.z0_ohm)
    split = power_split_report(profile, network, matched)

    write_vswr_csv(out / "vswr_unmatched.csv", unmatched)
    write_vswr_csv(out / "vswr_matched.csv", matched)
    write_impedance_csv(out / "impedance_matched.csv", matched_profile)

    rows = [
        ("topology", network.topology),
        ("f_design_hz", num(args.f_design)),
        ("z0_ohm", num(cfg.z0_ohm)),
    ]
    if network.topology == SERIES_RESISTOR:
        rows.append(("series_r_ohm", num(network.series_r_ohm)))
    else:
        rows.append(("variant", network.variant))
        for net in networks:
            tag = net.variant.replace("-", "_")
            rows += [(f"{tag}.{key}", num(getattr(net, key))) for key in _L_SECTION_ROWS]
    at = args.f_design
    rows += [
        ("vswr_unmatched_at_f_design", num(unmatched.at(at))),
        ("vswr_matched_at_f_design", num(matched.at(at))),
        ("antenna_fraction_at_f_design", num(np.interp(at, f, split.antenna_fraction))),
        ("mismatch_loss_db_at_f_design", num(np.interp(at, f, split.mismatch_loss_db))),
    ]
    _emit_report(out / "match_report.txt", rows)
    if args.svg:
        _write_svg(out / "vswr.svg", f, [("unmatched", unmatched.vswr), ("matched", matched.vswr)],
                   "frequency (Hz)", "VSWR")
    return 0


def cmd_pattern(args: argparse.Namespace, cfg: RunConfig) -> int:
    _bind("radiation")
    layout = _parse_input(args.layout, parse_layout)
    if not 0.0 <= args.efficiency <= 1.0:
        raise InputError(f"--efficiency must be within [0, 1], got {args.efficiency:g}")
    if not math.isfinite(args.phi_cut_deg):
        raise InputError(f"--phi-cut-deg must be finite, got {args.phi_cut_deg:g}")
    theta, phi = make_grid(cfg.theta_step_deg, cfg.phi_step_deg)
    pattern = evaluate_pattern(layout, theta, phi)
    d = directivity(pattern)
    g = gain(d, args.efficiency)
    phi_cut = math.radians(args.phi_cut_deg)
    lobes = find_lobes(pattern, phi_cut_rad=phi_cut, main_threshold_db=cfg.lobe_db_down)
    angles, values = polar_cut(pattern, phi_cut)

    out = Path(cfg.out_dir)
    write_pattern_csv(out / "pattern.csv", pattern)
    write_cut_csv(out / "cut.csv", angles, values)
    write_lobes_csv(out / "lobes.csv", lobes)

    rows = [
        ("frequency_hz", num(layout.frequency_hz)),
        ("n_elements", str(layout.n_elements)),
        ("element_kind", layout.element.kind),
        ("theta_step_deg", num(cfg.theta_step_deg)),
        ("phi_step_deg", num(cfg.phi_step_deg)),
        ("phi_cut_deg", num(args.phi_cut_deg)),
        ("directivity", num(d)),
        ("efficiency", num(args.efficiency)),
        ("gain", num(g)),
        ("main_lobe_threshold_db", num(-cfg.lobe_db_down)),
        ("n_lobes", str(len(lobes))),
        ("n_main_lobes", str(sum(1 for lobe in lobes if lobe.is_main))),
    ]
    for i, lobe in enumerate(lobes):
        kind = "degenerate" if lobe.degenerate else ("main" if lobe.is_main else "minor")
        rows.append(
            (f"lobe.{i}", f"{math.degrees(lobe.angle_rad):.3f} deg {lobe.level_db:.3f} dB {kind}")
        )
    _emit_report(out / "pattern_report.txt", rows)
    if args.svg:
        _write_svg(out / "cut.svg", np.degrees(angles), [("cut", _db_below_peak(values))],
                   "angle (deg)", "u (dB rel. peak)")
    return 0


def _parse_claimed(pairs: list[str] | None) -> list[tuple[int, float]]:
    claimed = []
    for item in pairs or []:
        code, _, dbm = item.partition(":")
        try:
            claimed.append((int(code), float(dbm)))
            check_dbm_mapping(claimed[-1:])
        except ValueError as exc:
            raise InputError(f"--check-dbm needs CODE:DBM, got {item!r}: {exc}") from None
    return claimed


def _area(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"area must be positive and finite, got {text!r}")
    return value


def cmd_rssi(args: argparse.Namespace, cfg: RunConfig) -> int:
    _bind("rssi")
    parse = parse_at_csq_log if args.format == "at" else parse_rssi_csv
    logs = {"novel": args.novel_log, "baseline": args.baseline_log}
    novel, baseline = (_parse_input(path, parse, antenna=name) for name, path in logs.items())
    claimed = _parse_claimed(args.check_dbm)
    try:
        report = compare_datasets(novel, baseline, novel_area_mm2=args.novel_area_mm2,
                                  baseline_area_mm2=args.baseline_area_mm2, claimed_dbm=claimed)
    except ComparisonError as exc:  # name the logs it is about
        raise ValueError(f"{' and '.join(logs[name] for name in exc.datasets)}: {exc}") from None
    out = Path(cfg.out_dir)
    write_rssi_csv(out / "rssi_novel.csv", novel)
    write_rssi_csv(out / "rssi_baseline.csv", baseline)
    rows = report.to_rows()
    _write_csv(out / "comparison.csv", ["key", "value"], zip(*rows))
    _emit_report(out / "comparison.txt", rows)
    if args.svg:
        known = novel.known_rssi()
        _write_svg(out / "rssi.svg", np.arange(known.size), [("novel rssi", known)],
                   "sample", "rssi")
    return 0


# Largest synth sweep accepted, checked before the sweep is built.
MAX_SWEEP_POINTS = 1_000_000


def _sweep(spec: str) -> tuple[float, float, int]:
    """``start:stop:points``, checked; ``cmd_synth`` builds the sweep, so parsing loads no numpy."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("sweep must be start:stop:points")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("sweep must be start:stop:points") from None
    if not (0 < start < stop < math.inf) or points < 2:
        raise argparse.ArgumentTypeError(
            "sweep needs finite 0 < start < stop and at least 2 points"
        )
    if points > MAX_SWEEP_POINTS:
        raise argparse.ArgumentTypeError(
            f"{points} sweep points exceed the budget of {MAX_SWEEP_POINTS}"
        )
    return start, stop, points


def cmd_synth(args: argparse.Namespace, cfg: RunConfig) -> int:
    _bind("touchstone", "impedance")
    try:
        model = SeriesRlcModel(r_ohm=args.r, l_h=args.l, c_f=args.c)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    net = synthesize_series_rlc(model, np.linspace(*args.sweep), z0=cfg.z0_ohm, mode=cfg.fixture)
    fmt = TouchstoneFormat(unit=args.unit, encoding=args.encoding, z0_ohm=cfg.z0_ohm)
    default_name = "synth.s1p" if cfg.fixture == REFLECTION else "synth.s2p"
    out_path = Path(cfg.out_dir) / (args.out or default_name)
    write_touchstone_file(out_path, net, fmt)
    rows = [
        ("written", str(out_path)),
        ("fixture", cfg.fixture),
        ("n_points", str(net.n_points)),
        ("model_resonance_hz", num(model.resonant_frequency_hz)),
    ]
    print(report_text(rows), end="")
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slcap",
        description="Network-parameter analysis for chip-scale capacitive antenna elements.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", help="key = value settings file")
    parser.add_argument("--out-dir", action=_ConfigFlag,
                        help="directory for output files (default .)")
    parser.add_argument("--z0", dest="z0_ohm", metavar="Z0", type=float, action=_ConfigFlag,
                        help="system impedance in ohms (default 50)")
    parser.add_argument("--fixture", choices=FIXTURE_MODES, action=_ConfigFlag,
                        help="impedance extraction convention")
    parser.add_argument("--svg", action="store_true", help="also write SVG plots")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="impedance profile and loss metrics from a Touchstone file")
    p.add_argument("s_file")
    p.add_argument("--df-threshold", type=float, action=_ConfigFlag,
                   help="DF band-fraction threshold")
    p.add_argument("--z-threshold", dest="z_threshold_ohm", metavar="Z_THRESHOLD",
                   type=float, action=_ConfigFlag, help="|Z| bandwidth threshold in ohms")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("match", help="design a matching network and evaluate VSWR")
    p.add_argument("s_file")
    p.add_argument("--f-design", type=float, required=True, help="design frequency in Hz")
    p.add_argument(
        "--topology",
        choices=TOPOLOGIES,
        default=SERIES_RESISTOR,
    )
    p.add_argument(
        "--variant",
        choices=("low-pass", "high-pass"),
        default="low-pass",
        help="which L-section variant to apply",
    )
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("pattern", help="array far-field pattern, cut, lobes, directivity")
    p.add_argument("--layout", required=True, help="JSON layout file")
    p.add_argument("--phi-cut-deg", type=float, default=0.0)
    p.add_argument("--efficiency", type=float, default=1.0)
    p.add_argument("--theta-step", dest="theta_step_deg", metavar="THETA_STEP",
                   type=float, action=_ConfigFlag, help="theta grid step in degrees")
    p.add_argument("--phi-step", dest="phi_step_deg", metavar="PHI_STEP",
                   type=float, action=_ConfigFlag, help="phi grid step in degrees")
    p.add_argument("--lobe-db", dest="lobe_db_down", metavar="LOBE_DB",
                   type=float, action=_ConfigFlag, help="main-lobe threshold, dB below peak")
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("rssi", help="compare two field logs (novel vs baseline)")
    p.add_argument("novel_log")
    p.add_argument("baseline_log")
    p.add_argument("--format", choices=("at", "csv"), default="at")
    p.add_argument("--novel-area-mm2", type=_area)
    p.add_argument("--baseline-area-mm2", type=_area)
    p.add_argument(
        "--check-dbm",
        action="append",
        metavar="CODE:DBM",
        help="flag a claimed rssi->dBm reading against the affine map (repeatable)",
    )
    p.set_defaults(func=cmd_rssi)

    p = sub.add_parser("synth", help="write a reference series-RLC Touchstone sweep")
    p.add_argument("--r", type=float, required=True, help="series resistance in ohms")
    p.add_argument("--l", type=float, required=True, help="series inductance in henries")
    p.add_argument("--c", type=float, required=True, help="series capacitance in farads")
    p.add_argument("--sweep", type=_sweep, required=True, metavar="START:STOP:POINTS")
    p.add_argument("--unit", choices=tuple(UNIT_SCALE), default="ghz")
    p.add_argument("--encoding", choices=ENCODINGS, default="ma")
    p.add_argument("--out", help="output filename (default synth.s2p / synth.s1p)")
    p.set_defaults(func=cmd_synth)

    return parser


def run_command(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    try:
        cfg = _effective_config(args)
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            # Every slcap warning is a UserWarning: each is recorded, whatever the
            # interpreter's filters (-W error, -W ignore, once per source line).
            warnings.simplefilter("always", UserWarning)
            try:
                return args.func(args, cfg)
            finally:  # the one place a warning is printed, with no source line
                for warning in caught:
                    print(f"warning: {warning.message}", file=sys.stderr)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command())
