"""The exit-code contract for input files: the size budget, and generated layouts and configs.

Every input file is checked against ``MAX_INPUT_BYTES`` before it is read. The
property tests send generated layout JSON through ``pattern`` and generated
``--config`` files through ``analyze`` and ``pattern``: each run exits 0, 1 or
2, nothing propagates, and every exit-2 message names the file at fault.
"""
import contextlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cases
from slcap import cli
from slcap.cli import run_command

LAYOUT = {"frequency_hz": 1e9, "positions": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]}
COARSE = ["--theta-step", "30", "--phi-step", "30"]


def run_quietly(argv: list[str]) -> tuple[int, str]:
    """``run_command`` with stdout dropped and the library's warnings ignored; (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run_command(argv)
    return code, err.getvalue()


def write_inputs(tmp: Path) -> dict[str, Path]:
    paths = {name: tmp / name for name in ("sweep.s1p", "layout.json", "novel.log", "run.cfg")}
    paths["sweep.s1p"].write_text("# Hz S RI R 50\n1 0.1 0\n2 0.2 0\n")
    paths["layout.json"].write_text(json.dumps(LAYOUT))
    paths["novel.log"].write_text(cases.NOVEL_LOG)
    # The config is read first, so it is the largest file: a budget of its size reads them all.
    paths["run.cfg"].write_text("# " + "-" * 100 + "\nz0_ohm = 50\n")
    return paths


def budget_argv(paths: dict[str, Path], oversized: str) -> list[str]:
    """A command that reads the file ``oversized`` names."""
    if oversized == "sweep.s1p":
        return ["--fixture", "reflection", "analyze", str(paths["sweep.s1p"])]
    if oversized == "layout.json":
        return ["pattern", "--layout", str(paths["layout.json"]), *COARSE]
    if oversized == "novel.log":
        return ["rssi", str(paths["novel.log"]), str(paths["novel.log"])]
    return ["--config", str(paths["run.cfg"]), "pattern", "--layout",
            str(paths["layout.json"]), *COARSE]


FILE_KINDS = ["sweep.s1p", "layout.json", "novel.log", "run.cfg"]


@pytest.mark.parametrize("oversized", FILE_KINDS)
def test_file_over_the_input_budget_exits_2(tmp_path, oversized):
    paths = write_inputs(tmp_path)
    size = cli.MAX_INPUT_BYTES + 1
    os.truncate(paths[oversized], size)  # sparse: nothing large is written
    code, err = run_quietly(["--out-dir", str(tmp_path / "out"), *budget_argv(paths, oversized)])
    assert code == 2
    assert err == (f"error: {paths[oversized]}: {size} bytes exceeds the input budget "
                   f"of 268435456 bytes\n")


@pytest.mark.parametrize("oversized", FILE_KINDS)
def test_file_at_the_input_budget_is_read(tmp_path, monkeypatch, oversized):
    paths = write_inputs(tmp_path)
    argv = ["--out-dir", str(tmp_path / "out"), *budget_argv(paths, oversized)]
    size = paths[oversized].stat().st_size
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size)
    assert run_quietly(argv)[0] != 2
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size - 1)
    assert run_quietly(argv) == (2, f"error: {paths[oversized]}: {size} bytes exceeds the "
                                    f"input budget of {size - 1} bytes\n")


@pytest.mark.parametrize("kind", FILE_KINDS)
@pytest.mark.parametrize(("head", "line"), [(b"", 1), (b"x", 1), (b"a\r\nb\rc\n", 4),
                                            (b"a\x0cb\n", 3)])
def test_file_not_utf8_names_the_line_of_its_first_bad_byte(tmp_path, kind, head, line):
    # Lines as str.splitlines counts them, universal newlines and form feeds included.
    paths = write_inputs(tmp_path)
    data = head + b"\xff" + paths[kind].read_bytes()
    paths[kind].write_bytes(data)
    code, err = run_quietly(["--out-dir", str(tmp_path / "out"), *budget_argv(paths, kind)])
    assert (code, err) == (2, f"error: {paths[kind]}: line {line}: not UTF-8 text "
                              f"(invalid start byte at byte {len(head)})\n")


# ---------------------------------------------------------------------------
# Generated layouts

json_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.just([]), st.just({}),
)
numbers = st.one_of(
    st.floats(-0.5, 0.5), st.integers(-3, 3), st.sampled_from([0.0, 1e300, -1e300, 5e-324, 10**400]),
    json_values,
)
weights = st.one_of(numbers, st.lists(numbers, min_size=1, max_size=3))
elements = st.fixed_dictionaries({}, optional={
    "kind": st.one_of(st.sampled_from(["isotropic", "hertzian-dipole", "patch"]), json_values),
    "axis": st.one_of(st.lists(numbers, max_size=4), json_values),
    "footprint_mm": st.one_of(st.lists(numbers, max_size=4), json_values),
    "size": json_values,
})
layouts = st.fixed_dictionaries({}, optional={
    "frequency_hz": st.one_of(st.sampled_from([1e9, 2.4e9, 1e-300, 1e300]), numbers),
    "positions": st.one_of(st.lists(st.lists(numbers, min_size=2, max_size=4), max_size=4),
                           json_values),
    "weights": st.one_of(st.lists(weights, max_size=4), json_values),
    "element": st.one_of(elements, json_values),
    "spacing": json_values,
})


@st.composite
def layout_documents(draw):
    """JSON text: mostly layout-shaped objects, some other values, some cut short."""
    doc = draw(st.one_of(layouts, layouts, layouts, json_values, st.lists(json_values, max_size=3)))
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=60, deadline=None)
@given(layout_documents())
def test_pattern_layout_exit_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "layout.json"
        path.write_text(text, encoding="utf-8")
        code, err = run_quietly(["--out-dir", str(Path(tmp) / "out"), "pattern",
                                 "--layout", str(path), *COARSE])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith(f"error: {path}: ")


# ---------------------------------------------------------------------------
# Generated config files

config_keys = st.sampled_from([
    "z0_ohm", "fixture", "out_dir", "theta_step_deg", "phi_step_deg", "df_threshold",
    "z_threshold_ohm", "lobe_db_down", "reactance_epsilon_ohm", "Z0_OHM", "bogus", "",
])
config_values = st.one_of(
    st.sampled_from(["1", "2", "7", "30", "90", "180", "360", "0", "-1", "1e-9", "0.02",
                     "nan", "inf", "-inf", "1e400", "1_0", "0x10", "5 6", "",
                     "reflection", "series-through", "shunt-through", "bogus"]),
    st.text(alphabet=st.characters(blacklist_categories=["Cs"], blacklist_characters="\r\n"),
            max_size=5),
)
config_lines = st.one_of(
    st.builds(lambda k, v, sp: f"{k}{sp}={sp}{v}", config_keys, config_values,
              st.sampled_from(["", " ", "\t"])),
    st.sampled_from(["", "# comment", "  ", "key value", "= 5", "z0_ohm = 50 # trailing"]),
)


@settings(max_examples=60, deadline=None)
@given(lines=st.lists(config_lines, max_size=6),
       command=st.sampled_from(["analyze 1-port", "analyze 2-port", "pattern"]))
def test_config_file_exit_contract(lines, command):
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        paths["run.cfg"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        sweep = Path(tmp) / "sweep.s2p"
        sweep.write_text("# Hz S RI R 50\n1 0.1 0 0.9 0 0.9 0 0.1 0\n2 0.2 0 0.8 0 0.8 0 0.2 0\n")
        argv = {
            "analyze 1-port": ["analyze", str(paths["sweep.s1p"])],
            "analyze 2-port": ["analyze", str(sweep)],
            "pattern": ["pattern", "--layout", str(paths["layout.json"])],
        }[command]
        # --out-dir keeps every output in the temporary directory, whatever the file says.
        code, err = run_quietly(["--config", str(paths["run.cfg"]),
                                 "--out-dir", str(Path(tmp) / "out"), *argv])
    assert code in (0, 1, 2)
    if code == 2:
        named = (str(paths["run.cfg"]), argv[1] if command != "pattern" else argv[2])
        assert err.startswith("error: ") and any(name in err for name in named)
