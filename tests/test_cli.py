import ast
import importlib
import inspect
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cases
from slcap import TouchstoneFormat, parse_touchstone, write_touchstone
from slcap import cli
from slcap.cli import load_config, run_command


def run(*argv: str) -> int:
    return run_command(list(argv))


def report_dict(path: Path) -> dict:
    pairs = [line.partition(" = ") for line in path.read_text().splitlines()]
    return {key: value for key, _, value in pairs}


def first_line(path: Path) -> str:
    return path.read_text().splitlines()[0]


@pytest.fixture
def envelope_s2p(tmp_path) -> Path:
    f, z = cases.envelope_impedance()
    net = cases.series_through_network(f, z)
    path = tmp_path / "envelope.s2p"
    path.write_text(write_touchstone(net, TouchstoneFormat(encoding="ri")))
    return path


@pytest.fixture
def dipole_layout(tmp_path) -> Path:
    path = tmp_path / "layout.json"
    path.write_text(
        json.dumps(
            {
                "frequency_hz": 1e9,
                "positions": [[0.0, 0.0, 0.0]],
                "element": {"kind": "hertzian-dipole"},
            }
        )
    )
    return path


@pytest.fixture
def field_logs(tmp_path):
    novel = tmp_path / "novel.log"
    baseline = tmp_path / "baseline.log"
    novel.write_text(cases.NOVEL_LOG)
    baseline.write_text(cases.BASELINE_LOG)
    return novel, baseline


class TestSynthAndAnalyze:
    def test_synth_writes_parseable_sweep(self, tmp_path):
        code = run(
            "--out-dir", str(tmp_path), "synth",
            "--r", "1", "--l", "2e-9", "--c", "1e-12",
            "--sweep", "1e8:2e10:601", "--unit", "hz", "--encoding", "ri",
        )
        assert code == 0
        net = parse_touchstone((tmp_path / "synth.s2p").read_text())
        assert net.n_points == 601 and net.n_ports == 2

    def test_reflection_fixture_writes_one_port(self, tmp_path):
        code = run(
            "--out-dir", str(tmp_path), "--fixture", "reflection", "synth",
            "--r", "1", "--l", "2e-9", "--c", "1e-12", "--sweep", "1e8:2e10:11",
        )
        assert code == 0
        assert parse_touchstone((tmp_path / "synth.s1p").read_text()).n_ports == 1

    def test_analyze_recovers_the_model(self, tmp_path):
        run(
            "--out-dir", str(tmp_path), "synth",
            "--r", "1", "--l", "2e-9", "--c", "1e-12",
            "--sweep", "1e8:2e10:1000", "--unit", "hz", "--encoding", "ri",
        )
        code = run(
            "--out-dir", str(tmp_path),
            "analyze", str(tmp_path / "synth.s2p"), "--z-threshold", "2",
        )
        assert code == 0
        for name in ("impedance.csv", "metrics.csv", "analyze_report.txt"):
            assert (tmp_path / name).is_file()
        assert first_line(tmp_path / "impedance.csv") == "freq_hz,re_z_ohm,im_z_ohm,mag_z_ohm"
        assert first_line(tmp_path / "metrics.csv") == "freq_hz,esr_ohm,reactance_ohm,df,efficiency,q"
        rep = report_dict(tmp_path / "analyze_report.txt")
        assert rep["n_points"] == "1000"
        assert rep["fixture"] == "series-through"
        assert float(rep["resonant_frequency_hz"]) == pytest.approx(
            cases.RLC_F0_HZ, abs=1e5
        )
        assert float(rep["bandwidth_low_hz"]) < float(rep["bandwidth_high_hz"])
        assert 0.0 <= float(rep["fraction_df_below"]) <= 1.0

    def test_outputs_are_byte_deterministic(self, tmp_path):
        run(
            "--out-dir", str(tmp_path), "synth",
            "--r", "1", "--l", "2e-9", "--c", "1e-12", "--sweep", "1e8:2e10:301",
            "--unit", "hz", "--encoding", "ri",
        )
        args = ("--out-dir", str(tmp_path), "analyze", str(tmp_path / "synth.s2p"))
        assert run(*args) == 0
        snapshot = {
            name: (tmp_path / name).read_bytes()
            for name in ("impedance.csv", "metrics.csv", "analyze_report.txt")
        }
        assert run(*args) == 0
        for name, blob in snapshot.items():
            assert (tmp_path / name).read_bytes() == blob

    def test_analyze_rejects_malformed_touchstone(self, tmp_path, capsys):
        bad = tmp_path / "bad.s2p"
        bad.write_text("# Hz S RI R 50\n1 abc 0\n")
        assert run("--out-dir", str(tmp_path), "analyze", str(bad)) == 2
        assert "line 2" in capsys.readouterr().err

    def test_fixture_port_mismatch_is_input_error(self, tmp_path):
        run(
            "--out-dir", str(tmp_path), "--fixture", "reflection", "synth",
            "--r", "1", "--l", "2e-9", "--c", "1e-12", "--sweep", "1e8:2e10:11",
        )
        # 1-port file analyzed with the default series-through fixture
        assert run("--out-dir", str(tmp_path), "analyze", str(tmp_path / "synth.s1p")) == 2

    def test_bad_synth_parameters(self, tmp_path):
        assert (
            run(
                "--out-dir", str(tmp_path), "synth",
                "--r", "-1", "--l", "2e-9", "--c", "1e-12", "--sweep", "1e8:2e10:11",
            )
            == 2
        )
        assert (
            run(
                "--out-dir", str(tmp_path), "synth",
                "--r", "1", "--l", "2e-9", "--c", "1e-12", "--sweep", "5:1:10",
            )
            == 2
        )


class TestMatchCommand:
    F_MID = str(0.5 * (1e8 + 2e10))

    def test_series_resistor_flow(self, tmp_path, envelope_s2p):
        code = run(
            "--out-dir", str(tmp_path), "match", str(envelope_s2p),
            "--f-design", self.F_MID,
        )
        assert code == 0
        for name in (
            "vswr_unmatched.csv",
            "vswr_matched.csv",
            "impedance_matched.csv",
            "match_report.txt",
        ):
            assert (tmp_path / name).is_file()
        rep = report_dict(tmp_path / "match_report.txt")
        assert rep["topology"] == "series-r"
        assert float(rep["series_r_ohm"]) == pytest.approx(49.0, abs=1e-6)
        assert float(rep["vswr_unmatched_at_f_design"]) == pytest.approx(50.0, abs=0.5)
        assert float(rep["vswr_matched_at_f_design"]) == pytest.approx(1.04, abs=0.01)
        assert float(rep["antenna_fraction_at_f_design"]) == pytest.approx(0.02, abs=1e-3)
        assert first_line(tmp_path / "vswr_matched.csv") == "freq_hz,re_gamma,im_gamma,mag_gamma,vswr"

    def test_l_section_flow(self, tmp_path, envelope_s2p):
        code = run(
            "--out-dir", str(tmp_path), "match", str(envelope_s2p),
            "--f-design", self.F_MID, "--topology", "l-section",
        )
        assert code == 0
        rep = report_dict(tmp_path / "match_report.txt")
        assert rep["variant"] == "low-pass"
        assert "low_pass.series_x_ohm" in rep and "high_pass.series_x_ohm" in rep
        assert float(rep["vswr_matched_at_f_design"]) == pytest.approx(1.0, abs=0.01)
        assert float(rep["mismatch_loss_db_at_f_design"]) == pytest.approx(0.0, abs=0.01)

    def test_high_pass_variant_applied(self, tmp_path, envelope_s2p):
        code = run(
            "--out-dir", str(tmp_path), "match", str(envelope_s2p),
            "--f-design", self.F_MID, "--topology", "l-section",
            "--variant", "high-pass",
        )
        assert code == 0
        rep = report_dict(tmp_path / "match_report.txt")
        assert rep["variant"] == "high-pass"
        assert float(rep["vswr_matched_at_f_design"]) == pytest.approx(1.0, abs=0.01)

    def test_design_frequency_outside_sweep(self, tmp_path, envelope_s2p, capsys):
        code = run(
            "--out-dir", str(tmp_path), "match", str(envelope_s2p),
            "--f-design", "9e10",
        )
        assert code == 2
        assert "outside the sweep" in capsys.readouterr().err

    def test_unknown_topology_is_usage_error(self, tmp_path, envelope_s2p):
        code = run(
            "--out-dir", str(tmp_path), "match", str(envelope_s2p),
            "--f-design", self.F_MID, "--topology", "stub",
        )
        assert code == 2

    def test_stdout_mirrors_report_file(self, tmp_path, envelope_s2p, capsys):
        run(
            "--out-dir", str(tmp_path), "match", str(envelope_s2p),
            "--f-design", self.F_MID,
        )
        out = capsys.readouterr().out
        assert out == (tmp_path / "match_report.txt").read_text()


class TestPatternCommand:
    def test_dipole_flow(self, tmp_path, dipole_layout):
        code = run("--out-dir", str(tmp_path), "pattern", "--layout", str(dipole_layout))
        assert code == 0
        for name in ("pattern.csv", "cut.csv", "lobes.csv", "pattern_report.txt"):
            assert (tmp_path / name).is_file()
        rep = report_dict(tmp_path / "pattern_report.txt")
        assert float(rep["directivity"]) == pytest.approx(1.5, rel=5e-3)
        assert rep["n_main_lobes"] == "2"
        assert first_line(tmp_path / "pattern.csv") == "theta_deg,phi_deg,u,u_db"
        assert first_line(tmp_path / "lobes.csv") == "angle_deg,level,level_db,kind"
        lobe_rows = (tmp_path / "lobes.csv").read_text().splitlines()[1:]
        assert len(lobe_rows) == 2
        assert all(row.endswith(",main") for row in lobe_rows)
        # One cut sample per degree: 2 * 181 - 2.
        assert len((tmp_path / "cut.csv").read_text().splitlines()) == 361

    def test_four_lobe_array(self, tmp_path):
        wavelength = 299792458.0 / 1e9
        layout = tmp_path / "pair.json"
        layout.write_text(
            json.dumps(
                {
                    "frequency_hz": 1e9,
                    "positions": [
                        [0.0, 0.0, -0.5 * wavelength],
                        [0.0, 0.0, 0.5 * wavelength],
                    ],
                    "weights": [[1.0, 0.0], [1.0, 0.0]],
                }
            )
        )
        code = run("--out-dir", str(tmp_path), "pattern", "--layout", str(layout))
        assert code == 0
        rep = report_dict(tmp_path / "pattern_report.txt")
        assert rep["n_main_lobes"] == "4"

    def test_efficiency_scales_gain(self, tmp_path, dipole_layout):
        run(
            "--out-dir", str(tmp_path), "pattern", "--layout", str(dipole_layout),
            "--efficiency", "0.5",
        )
        rep = report_dict(tmp_path / "pattern_report.txt")
        assert float(rep["gain"]) == pytest.approx(0.5 * float(rep["directivity"]))

    def test_efficiency_out_of_range(self, tmp_path, dipole_layout):
        code = run(
            "--out-dir", str(tmp_path), "pattern", "--layout", str(dipole_layout),
            "--efficiency", "1.5",
        )
        assert code == 2

    def test_coarse_grid_flags(self, tmp_path, dipole_layout):
        code = run(
            "--out-dir", str(tmp_path), "pattern", "--layout", str(dipole_layout),
            "--theta-step", "2", "--phi-step", "2",
        )
        assert code == 0
        rep = report_dict(tmp_path / "pattern_report.txt")
        assert rep["theta_step_deg"] == "2"

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        layout = tmp_path / "broken.json"
        layout.write_text('{\n  "frequency_hz": 1e9,\n  "positions": [[0, 0, 0]\n}\n')
        assert run("--out-dir", str(tmp_path), "pattern", "--layout", str(layout)) == 2
        assert "line" in capsys.readouterr().err

    def test_unknown_layout_key(self, tmp_path, capsys):
        layout = tmp_path / "extra.json"
        layout.write_text(
            json.dumps({"frequency_hz": 1e9, "positions": [[0, 0, 0]], "spacing": 1})
        )
        assert run("--out-dir", str(tmp_path), "pattern", "--layout", str(layout)) == 2
        assert "unknown layout keys" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        layout = tmp_path / "missing.json"
        layout.write_text(json.dumps({"frequency_hz": 1e9}))
        assert run("--out-dir", str(tmp_path), "pattern", "--layout", str(layout)) == 2
        assert "missing layout keys" in capsys.readouterr().err

    def test_pattern_csv_deterministic(self, tmp_path, dipole_layout):
        args = ("--out-dir", str(tmp_path), "pattern", "--layout", str(dipole_layout))
        assert run(*args) == 0
        blob = (tmp_path / "pattern.csv").read_bytes()
        assert run(*args) == 0
        assert (tmp_path / "pattern.csv").read_bytes() == blob


class TestRssiCommand:
    def test_comparison_flow(self, tmp_path, field_logs, capsys):
        novel, baseline = field_logs
        code = run(
            "--out-dir", str(tmp_path), "rssi", str(novel), str(baseline),
            "--novel-area-mm2", str(cases.NOVEL_AREA_MM2),
            "--baseline-area-mm2", str(cases.BASELINE_AREA_MM2),
            "--check-dbm", "11:-89", "--check-dbm", "13:-89",
        )
        assert code == 0
        text = (tmp_path / "comparison.txt").read_text()
        assert "percent_difference = 26.6666667\n" in text
        assert "performance_ratio_rssi_pct = 73.3333333\n" in text
        assert "footprint_ratio = 617.283951\n" in text
        assert "welch.p_value = < 0.001\n" in text
        assert "mapping_check.0 = rssi 11" in text
        assert "mapping_check.1 = rssi 13" in text
        assert capsys.readouterr().out == text
        assert first_line(tmp_path / "comparison.csv") == "key,value"
        novel_rows = (tmp_path / "rssi_novel.csv").read_text().splitlines()
        assert novel_rows[0] == "timestamp,rssi,dbm"
        assert len(novel_rows) == 12  # header + 11 samples
        assert novel_rows[-1].endswith(",99,nan")  # unknown reading kept, no dBm

    def test_csv_input_format(self, tmp_path):
        novel = tmp_path / "novel.csv"
        baseline = tmp_path / "baseline.csv"
        rows = "\n".join(
            f"2025-11-04T09:{i:02d}:00Z,{v},0" for i, v in enumerate(cases.NOVEL_RSSI)
        )
        novel.write_text("timestamp,rssi,ber\n" + rows + "\n")
        rows = "\n".join(
            f"2025-11-04T09:{i:02d}:00Z,{v},0" for i, v in enumerate(cases.BASELINE_RSSI)
        )
        baseline.write_text("timestamp,rssi,ber\n" + rows + "\n")
        code = run(
            "--out-dir", str(tmp_path), "rssi", str(novel), str(baseline),
            "--format", "csv",
        )
        assert code == 0
        text = (tmp_path / "comparison.txt").read_text()
        assert "percent_difference = 26.6666667\n" in text

    def test_malformed_log_names_file_and_line(self, tmp_path, field_logs, capsys):
        novel, baseline = field_logs
        novel.write_text(cases.NOVEL_LOG + "not a reading\n")
        assert run("--out-dir", str(tmp_path), "rssi", str(novel), str(baseline)) == 2
        err = capsys.readouterr().err
        assert str(novel) in err and "line 13" in err

    def test_too_few_known_samples_is_numeric_failure(self, tmp_path):
        a = tmp_path / "a.log"
        b = tmp_path / "b.log"
        a.write_text("2025-11-04T09:00:00Z +CSQ: 20,0\n")
        b.write_text(cases.BASELINE_LOG)
        assert run("--out-dir", str(tmp_path), "rssi", str(a), str(b)) == 1

    def test_missing_file(self, tmp_path, capsys):
        assert run("--out-dir", str(tmp_path), "rssi", "nope.log", "nada.log") == 2
        assert "no such file" in capsys.readouterr().err

    def test_bad_check_dbm_syntax(self, tmp_path, field_logs):
        novel, baseline = field_logs
        code = run(
            "--out-dir", str(tmp_path), "rssi", str(novel), str(baseline),
            "--check-dbm", "eleven",
        )
        assert code == 2


class TestConfigAndGlobalFlags:
    def test_config_file_sets_z0(self, tmp_path, envelope_s2p):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("z0_ohm = 75  # system impedance\nout_dir = .\n")
        code = run(
            "--config", str(cfg), "--out-dir", str(tmp_path),
            "match", str(envelope_s2p), "--f-design", TestMatchCommand.F_MID,
        )
        assert code == 0
        rep = report_dict(tmp_path / "match_report.txt")
        assert rep["z0_ohm"] == "75"
        assert float(rep["series_r_ohm"]) == pytest.approx(74.0, abs=1e-6)

    def test_flag_overrides_config(self, tmp_path, envelope_s2p):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("z0_ohm = 75\n")
        code = run(
            "--config", str(cfg), "--out-dir", str(tmp_path), "--z0", "50",
            "match", str(envelope_s2p), "--f-design", TestMatchCommand.F_MID,
        )
        assert code == 0
        assert report_dict(tmp_path / "match_report.txt")["z0_ohm"] == "50"

    def test_unknown_config_key(self, tmp_path, envelope_s2p, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("impedance = 50\n")
        code = run(
            "--config", str(cfg), "--out-dir", str(tmp_path),
            "analyze", str(envelope_s2p),
        )
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path, envelope_s2p, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("z0_ohm 75\n")
        code = run(
            "--config", str(cfg), "--out-dir", str(tmp_path),
            "analyze", str(envelope_s2p),
        )
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_nonpositive_config_value(self, tmp_path, envelope_s2p, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("z0_ohm = -5\n")
        assert (
            run(
                "--config", str(cfg), "--out-dir", str(tmp_path),
                "analyze", str(envelope_s2p),
            )
            == 2
        )
        err = capsys.readouterr().err
        assert f"{cfg}: line 1: config value z0_ohm must be positive" in err

    def test_grid_is_checked_after_the_flags(self, tmp_path):
        # 0.001 deg alone would make too large a grid with the default phi
        # step; with --phi-step 90 the grid is 180001 x 4, within the budget.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta_step_deg = 0.001\n")
        parser = cli.build_parser()
        args = parser.parse_args(
            ["--config", str(cfg), "pattern", "--layout", "x.json", "--phi-step", "90"]
        )
        merged = cli._effective_config(args)
        assert (merged.theta_step_deg, merged.phi_step_deg) == (0.001, 90.0)

    def test_grid_budget_names_file_line_and_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# grid\ntheta_step_deg = 0.009\n")
        code = run(
            "--config", str(cfg), "--out-dir", str(tmp_path),
            "pattern", "--layout", "unused.json", "--phi-step", "0.5",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"--phi-step and {cfg}: line 2: config values theta_step_deg = 0.009, " in err
        assert "20001 x 720 grid" in err

    def test_load_config_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fixture = reflection\nz_threshold_ohm = 5\n# comment only\n")
        loaded = load_config(cfg)
        assert loaded.fixture == "reflection"
        assert loaded.z_threshold_ohm == 5.0
        assert loaded.z0_ohm == 50.0  # untouched default

    def test_out_dir_is_created(self, tmp_path, dipole_layout):
        nested = tmp_path / "a" / "b"
        code = run("--out-dir", str(nested), "pattern", "--layout", str(dipole_layout))
        assert code == 0
        assert (nested / "pattern_report.txt").is_file()

    def test_usage_errors_exit_2(self):
        assert run() == 2  # a subcommand is required
        assert run("frobnicate") == 2
        assert run("analyze") == 2  # missing positional

    def test_help_and_version_exit_0(self, capsys):
        assert run("--help") == 0
        assert "analyze" in capsys.readouterr().out
        assert run("--version") == 0
        assert capsys.readouterr().out.startswith("slcap ")

    def test_svg_outputs(self, tmp_path, dipole_layout):
        code = run(
            "--out-dir", str(tmp_path), "--svg",
            "pattern", "--layout", str(dipole_layout),
        )
        assert code == 0
        svg = (tmp_path / "cut.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_module_entry_point(self, tmp_path, dipole_layout):
        import os
        import subprocess
        import sys

        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [
                sys.executable, "-m", "slcap",
                "--out-dir", str(tmp_path),
                "pattern", "--layout", str(dipole_layout),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0
        assert "directivity = " in proc.stdout

    def test_library_warning_reaches_stderr_as_one_line(self, tmp_path):
        import os
        import subprocess
        import sys

        f = np.linspace(1e8, 2e10, 50)
        net = cases.series_through_network(f, np.full(f.size, 60.0 + 0j))
        s2p = tmp_path / "r60.s2p"
        s2p.write_text(write_touchstone(net, TouchstoneFormat(encoding="ri")))
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "slcap", "--out-dir", str(tmp_path / "out"),
             "match", str(s2p), "--f-design", "1e9"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0
        assert proc.stderr == ("warning: antenna resistance 60 ohm exceeds z0 = 50 ohm; "
                               "series resistor clipped to zero\n")

    PASSIVITY_STDERR = (
        "warning: |S11| = 1.5 exceeds 1 at 1e+09 Hz\n"
        "warning: |S22| = 1.5 exceeds 1 at 1e+09 Hz\n"
        "warning: |S12| = 1.2 exceeds 1 at 3e+09 Hz\n"
        "warning: |S21| = 1.2 exceeds 1 at 3e+09 Hz\n"
        "warning: negative resistance extracted from passive data; check the fixture mode\n"
    )

    def run_active_two_port(self, tmp_path, flags=()):
        import os
        import subprocess
        import sys

        s2p = tmp_path / "active.s2p"
        s2p.write_text("# GHz S MA R 50\n1 1.5 0 0.5 0 0.5 0 1.5 0\n3 0.1 0 1.2 0 1.2 0 0.1 0\n")
        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run(
            [sys.executable, *flags, "-m", "slcap", "--out-dir", str(tmp_path / "out"),
             "analyze", str(s2p)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )

    def test_passivity_lines_then_library_warnings(self, tmp_path):
        """Every warning goes through one channel: passivity lines first, in file order."""
        proc = self.run_active_two_port(tmp_path)
        assert proc.returncode == 0
        assert proc.stderr == self.PASSIVITY_STDERR

    # -W error would raise the first warning as an exception, and -W ignore
    # would drop them all: neither filter reaches slcap's warnings.
    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_interpreter_warning_filters_leave_the_lines(self, tmp_path, action):
        proc = self.run_active_two_port(tmp_path, ["-W", action])
        assert proc.returncode == 0
        assert proc.stderr == self.PASSIVITY_STDERR

    def test_repeated_warning_prints_each_time(self, tmp_path, capsys, monkeypatch):
        # Under the default filters, a repeat from one source line would print once.
        def twice(args, cfg):
            for _ in range(2):
                warnings.warn("same text")
            return 0

        monkeypatch.setattr(cli, "cmd_synth", twice)
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            assert cli.run_command(["--out-dir", str(tmp_path), *SYNTH, "--sweep", "1:2:2"]) == 0
        assert capsys.readouterr().err == "warning: same text\nwarning: same text\n"

    def test_cli_import_pulls_in_no_scipy(self, tmp_path):
        import os
        import subprocess
        import sys

        src = Path(__file__).resolve().parents[1] / "src"
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps(LAYOUT))
        # Nor a process pool: the pattern's threads come from threading alone, and
        # the writers' forked processes from os.fork.  With any work paying for a
        # child, a synth of 3 blocks and a pattern of 181 theta rows fork on a
        # machine with more than one CPU.
        check = (
            "import sys; from slcap import _cpus; from slcap.cli import run_command; "
            "_cpus._CHILD_S = 1e-15; "
            f"assert run_command(['--out-dir', {str(tmp_path)!r}, 'synth', '--r', '1', "
            "'--l', '1e-9', '--c', '1e-12', '--sweep', '1e8:2e10:12289']) == 0; "
            f"assert run_command(['--out-dir', {str(tmp_path)!r}, 'pattern', "
            f"'--layout', {str(layout)!r}]) == 0; "
            "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules); "
            "loaded = {'multiprocessing', 'concurrent.futures', 'subprocess'} & set(sys.modules); "
            "assert not loaded, loaded"
        )
        proc = subprocess.run(
            [sys.executable, "-c", check],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr


LAYOUT = {"frequency_hz": 1e9, "positions": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]}
SYNTH = ["synth", "--r", "1", "--l", "1e-9", "--c", "1e-12"]

# name -> (input files, argv with @file for a path under tmp_path, exit code,
# text the message must contain: the offending file, flag or setting).
BAD_INPUTS = {
    "positions_not_a_list": (
        {"layout.json": json.dumps({**LAYOUT, "positions": 5})},
        ["pattern", "--layout", "@layout.json"], 2, "layout.json",
    ),
    "weights_not_a_list": (
        {"layout.json": json.dumps({**LAYOUT, "weights": 3})},
        ["pattern", "--layout", "@layout.json"], 2, "layout.json",
    ),
    "axis_not_a_list": (
        {"layout.json": json.dumps({**LAYOUT, "element": {"axis": 5}})},
        ["pattern", "--layout", "@layout.json"], 2, "layout.json",
    ),
    "axis_int_overflows": (
        {"layout.json": json.dumps({**LAYOUT, "element": {"axis": [10**400, 0, 1]}})},
        ["pattern", "--layout", "@layout.json"], 2, "layout.json: int too large to convert",
    ),
    "fixture_needs_two_ports": (
        {"one.s1p": "# Hz S RI R 50\n1 0.1 0\n"},
        ["analyze", "@one.s1p"], 2, "one.s1p: series-through extraction requires a 2-port",
    ),
    # JSON's NaN and Infinity parse as floats; a footprint must still be positive and finite.
    **{
        f"footprint_{value}": (
            {"layout.json": json.dumps(
                {**LAYOUT, "element": {"footprint_mm": [1, float(value), 1]}})},
            ["pattern", "--layout", "@layout.json"], 2,
            "layout.json: footprint_mm[1] must be positive and finite",
        )
        for value in ("nan", "inf")
    },
    "weight_pair_not_numeric": (
        {"layout.json": json.dumps({**LAYOUT, "weights": [["a", 1], 1]})},
        ["pattern", "--layout", "@layout.json"], 2, "layout.json",
    ),
    "input_not_utf8": (
        {"sweep.s2p": b"\xff\xfe# Hz S RI R 50\n"},
        ["analyze", "@sweep.s2p"], 2, "sweep.s2p",
    ),
    "config_not_utf8": (
        {"run.cfg": b"z0_ohm = 5\xff\n", "layout.json": json.dumps(LAYOUT)},
        ["--config", "@run.cfg", "pattern", "--layout", "@layout.json"], 2, "run.cfg",
    ),
    "fixture_config": (
        {"run.cfg": "# shared settings\nfixture = bogus\n"},
        ["--config", "@run.cfg", *SYNTH, "--sweep", "1:2:3"], 2, "run.cfg: line 2: ",
    ),
    "phi_cut_nan": (
        {"layout.json": json.dumps(LAYOUT)},
        ["pattern", "--layout", "@layout.json", "--phi-cut-deg", "nan"], 2, "--phi-cut-deg",
    ),
    "sweep_stop_inf": ({}, [*SYNTH, "--sweep", "1:inf:10"], 2, "--sweep"),
    "theta_step_flag": (
        {"layout.json": json.dumps(LAYOUT)},
        ["pattern", "--layout", "@layout.json", "--theta-step", "7"], 2, "theta_step_deg",
    ),
    "theta_step_config": (
        {"run.cfg": "theta_step_deg = 7\n", "layout.json": json.dumps(LAYOUT)},
        ["--config", "@run.cfg", "pattern", "--layout", "@layout.json"], 2, "run.cfg: line 1: ",
    ),
    "phi_step_config": (
        {"run.cfg": "theta_step_deg = 2\nphi_step_deg = 7\n"},
        ["--config", "@run.cfg", *SYNTH, "--sweep", "1:2:3"], 2, "run.cfg: line 2: ",
    ),
    # A rejected flag value is named by its flag, not by its config key.
    "z0_flag": ({}, ["--z0", "-5", *SYNTH, "--sweep", "1:2:3"], 2, "--z0: "),
    "theta_step_flag_named": (
        {"layout.json": json.dumps(LAYOUT)},
        ["pattern", "--layout", "@layout.json", "--theta-step", "7"], 2, "--theta-step: ",
    ),
    "phi_step_flag": (
        {"layout.json": json.dumps(LAYOUT)},
        ["pattern", "--layout", "@layout.json", "--phi-step", "7"], 2, "--phi-step: ",
    ),
    "phi_step_one_point": (
        {"layout.json": json.dumps(LAYOUT)},
        ["pattern", "--layout", "@layout.json", "--phi-step", "360"], 2, "--phi-step: ",
    ),
    # Size budgets, checked before anything is allocated.
    "theta_step_budget": (
        {"layout.json": json.dumps(LAYOUT)},
        ["pattern", "--layout", "@layout.json", "--theta-step", "1e-9"], 2, "--theta-step: ",
    ),
    "grid_budget_flags": (
        {"layout.json": json.dumps(LAYOUT)},
        ["pattern", "--layout", "@layout.json", "--theta-step", "0.01", "--phi-step", "0.01"],
        2, "--phi-step: ",
    ),
    "grid_budget_config": (
        {"run.cfg": "theta_step_deg = 0.01\nphi_step_deg = 0.01\n"},
        ["--config", "@run.cfg", *SYNTH, "--sweep", "1:2:3"], 2, "run.cfg: line 2: ",
    ),
    "sweep_budget": ({}, [*SYNTH, "--sweep", "1:2:10000000000"], 2, "--sweep"),
    # A Touchstone rejection names the file, then the line.
    "touchstone_analyze": (
        {"bad.s1p": "# Hz S RI R 50\n1 abc 0\n"},
        ["analyze", "@bad.s1p"], 2, "bad.s1p: line 2: non-numeric token 'abc'",
    ),
    "touchstone_match": (
        {"bad.s2p": "# Hz S RI R 50\n1 0 0 0 0 0 0 0 0\n1 0 0 0 0 0 0 0 0\n"},
        ["match", "@bad.s2p", "--f-design", "1"], 2,
        "bad.s2p: line 3: frequencies must be strictly increasing",
    ),
    "touchstone_db_overflow_analyze": (
        {"bad.s1p": "# Hz S DB R 50\n1 1e5 0\n"},
        ["--fixture", "reflection", "analyze", "@bad.s1p"], 2,
        "bad.s1p: line 2: dB level 100000.0 overflows the float range",
    ),
    "touchstone_db_overflow_match": (
        {"bad.s2p": "# Hz S DB R 50\n1 0 0 0 0 0 0 0 0\n2 0 0 1e5 0 0 0 0 0\n"},
        ["match", "@bad.s2p", "--f-design", "1"], 2,
        "bad.s2p: line 3: dB level 100000.0 overflows the float range",
    ),
    # Every input file is read through one wrapper: a missing file and a parser's
    # rejection both name the file.
    "analyze_missing_file": ({}, ["analyze", "@gone.s2p"], 2, "gone.s2p"),
    "layout_missing_file": ({}, ["pattern", "--layout", "@gone.json"], 2, "gone.json"),
    "rssi_at_malformed": (
        {"novel.log": "2025-11-04T09:00:00Z +CSQ: twenty,0\n", "baseline.log": cases.BASELINE_LOG},
        ["rssi", "@novel.log", "@baseline.log"], 2, "novel.log: line 1: not a +CSQ reading",
    ),
    "rssi_csv_malformed": (
        {"novel.csv": "timestamp,rssi,ber\n2025-11-04T09:00:00Z,x,0\n",
         "baseline.csv": "timestamp,rssi,ber\n"},
        ["rssi", "--format", "csv", "@novel.csv", "@baseline.csv"], 2,
        "novel.csv: line 2: rssi and ber must be integers",
    ),
    # A claimed code outside 0..31, a claimed level that is not finite, and an area that
    # is not a positive finite number are bad input, named by their flag.
    "check_dbm_code_40": (
        {"novel.log": cases.NOVEL_LOG, "baseline.log": cases.BASELINE_LOG},
        ["rssi", "@novel.log", "@baseline.log", "--check-dbm", "40:-33"], 2, "--check-dbm",
    ),
    "check_dbm_code_99": (
        {"novel.log": cases.NOVEL_LOG, "baseline.log": cases.BASELINE_LOG},
        ["rssi", "@novel.log", "@baseline.log", "--check-dbm", "99:-113"], 2, "--check-dbm",
    ),
    "check_dbm_level_nan": (
        {"novel.log": cases.NOVEL_LOG, "baseline.log": cases.BASELINE_LOG},
        ["rssi", "@novel.log", "@baseline.log", "--check-dbm", "11:nan"], 2, "--check-dbm",
    ),
    **{
        f"{side}_area_{value}": (
            {"novel.log": cases.NOVEL_LOG, "baseline.log": cases.BASELINE_LOG},
            ["rssi", "@novel.log", "@baseline.log", "--novel-area-mm2", "2",
             "--baseline-area-mm2", "2", f"--{side}-area-mm2", value],
            2, f"--{side}-area-mm2",
        )
        for side in ("novel", "baseline")
        for value in ("nan", "inf", "-1", "0")
    },
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exit_code_and_message(tmp_path, capsys, name):
    files, argv, expected_code, named = BAD_INPUTS[name]
    for file_name, content in files.items():
        path = tmp_path / file_name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code = run("--out-dir", str(tmp_path / "out"), *argv)
    err = capsys.readouterr().err
    assert code == expected_code
    assert "Traceback" not in err
    assert named in err


def test_traced_names_resolve():
    """Each function that the per-layer trace (``bench/layers.py``) patches by name exists.

    ``WRAPPED`` is read from the file's syntax tree, so nothing under ``bench/`` is
    imported.  It names ``cli.write_touchstone``, which ``cli`` imports only for the
    trace; that import goes when the trace wraps functions on their own modules.
    """
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]
    ]
    missing = [
        (module, name)
        for module, name, _ in wrapped
        if not callable(getattr(importlib.import_module(f"slcap.{module}"), name, None))
    ]
    assert wrapped and missing == []
    # The trace reads the size of the file at _write_csv's first argument.
    assert list(inspect.signature(cli._write_csv).parameters) == ["path", "header", "columns"]
