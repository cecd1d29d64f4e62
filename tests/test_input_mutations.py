"""Byte mutations of the inputs that are not ``rssi`` logs, through the command line.

Touchstone files (RI, MA and DB, 1- and 2-port, and the golden ``open.s2p``), the two
golden layouts (as written there, and one value per line) and a config file are mutated
as ``test_rssi_columns`` mutates the logs, and run through ``analyze``, ``match`` and
``pattern``.  Each run exits 0, 1 or 2 with no traceback; an exit-2 message names the
file at fault, and a line of it for Touchstone and config files, or names the flag at
fault; and a rerun ends the same.  Each mutated Touchstone file is also read by both
readers, which must agree (``readers.assert_same_or_declined``).
"""
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cases
from slcap import TouchstoneFormat, _cpus, synthesize_series_rlc, write_touchstone
from slcap.cli import run_command
from test_golden import INPUTS
from test_rssi_columns import mutated
from test_touchstone import assert_same_from_file

# 12 points from 1 to 20 GHz: each CSV of analyze and match is two blocks of 7 rows.
SWEEP_HZ = np.linspace(1e9, 2e10, 12)
F_DESIGN = {"open.s2p": "3.2e9"}  # the golden sweep is 0.5-5.5 GHz; the others' is SWEEP_HZ


def touchstone(encoding: str, n_ports: int) -> str:
    net = synthesize_series_rlc(cases.RLC, SWEEP_HZ, mode="reflection" if n_ports == 1
                                else "series-through")
    text = write_touchstone(net, TouchstoneFormat(unit="ghz", encoding=encoding))
    return "! series RLC, 1 ohm + 2 nH + 1 pF\n" + text


CONFIG = """\
# analysis settings
z0_ohm = 50
fixture = series-through
theta_step_deg = 30
phi_step_deg = 30
df_threshold = 0.02  # a trailing comment
z_threshold_ohm = 3
lobe_db_down = 10
"""

DOCUMENTS = {
    **{f"{encoding}.s{n}p": touchstone(encoding, n) for encoding in ("ri", "ma", "db")
       for n in (1, 2)},
    "open.s2p": INPUTS["open.s2p"],
    **{name: INPUTS[name] for name in ("lattice.json", "dipole.json")},
    **{f"lines_{name}": json.dumps(json.loads(INPUTS[name]), indent=1) + "\n"
       for name in ("lattice.json", "dipole.json")},
    "run.cfg": CONFIG,
}
# Bytes of the three grammars: numbers, Touchstone options and comments, JSON and config
# punctuation, line breaks and other splitters, blanks, and bytes that are not UTF-8 alone.
TOKENS = [*b"0123456789.-+eE!#=HzSRIMADB{}[]\",: \t\r\n\x0b\x0c\x1c\x00", 0xA0, 0xD9, 0xFF]
# The coarse grid of every pattern run: a flag overrides the config's steps, so no mutated
# step makes a large grid.
COARSE = ["--theta-step", "30", "--phi-step", "30"]


def argv(name: str, command: str, paths: dict) -> list[str]:
    """The command line after ``--out-dir`` that reads the file ``name`` as its input."""
    kind = Path(name).suffix
    sweep = str(paths[name if kind in (".s1p", ".s2p") else "ri.s2p"])
    layout = str(paths[name if kind == ".json" else "lattice.json"])
    fixture = ["--fixture", "reflection"] if kind == ".s1p" else []
    f_design = ["--f-design", F_DESIGN.get(name, "1e10")]
    config = ["--config", str(paths[name])] if kind == ".cfg" else []
    return config + {
        "analyze": [*fixture, "analyze", sweep],
        "match": [*fixture, "match", sweep, *f_design],
        "match l-section": [*fixture, "match", sweep, *f_design, "--topology", "l-section"],
        "pattern": ["pattern", "--layout", layout, *COARSE],
    }[command]


@st.composite
def mutations(draw):
    """(the mutated file's name, its bytes, the command that reads it)."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    data = mutated(draw, DOCUMENTS[name].encode(), TOKENS)
    commands = (["pattern"] if name.endswith(".json")
                else ["analyze", "match", "match l-section"] + ["pattern"] * (name == "run.cfg"))
    return name, data, draw(st.sampled_from(commands))


def run(args: list[str], out: Path):
    """Exit code, stderr and output files of one command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_command(["--out-dir", str(out), *args])
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.is_dir() else {}
    return code, err.getvalue(), files


def names_the_fault(err: str, path: Path, args: list[str]) -> bool:
    """Whether an exit-2 message names ``path``, with a line where it is a line format,
    or else a flag of ``args``."""
    where = re.escape(str(path)) + (r"" if path.suffix == ".json" else r": line \d+")
    flags = [a for a in args if a.startswith("--")]
    return bool(re.match(rf"error: (.* and )?{where}(: | and )", err)) or any(
        err.startswith(f"error: {flag} ") for flag in flags)


# Examples per test: with 2 runs of a command each, and both readers on each mutated
# Touchstone file, the two tests below take about 8 s together on a 2-CPU x86_64 host.
FUZZ_EXAMPLES = {"serial": 600, "forked": 200}


def check(mutation, forked: bool):
    name, data, command = mutation
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        if forked:  # any work pays for a child on two CPUs, so each table of 8 rows forks
            stack.enter_context(mock.patch.object(_cpus, "BLOCK_ROWS", 7))
            stack.enter_context(mock.patch.object(_cpus, "_CHILD_S", 1e-15))
            stack.enter_context(mock.patch.object(_cpus, "_usable_cpus", lambda: 2))
        paths = {n: Path(tmp) / n for n in DOCUMENTS}
        for n, path in paths.items():
            path.write_text(DOCUMENTS[n], encoding="utf-8", newline="")
        paths[name].write_bytes(data)
        args = argv(name, command, paths)
        first = run(args, Path(tmp) / "first")
        code, err, _ = first
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert names_the_fault(err, paths[name], args), err
        assert run(args, Path(tmp) / "again") == first
    if Path(name).suffix in (".s1p", ".s2p"):
        assert_same_from_file(data)


@settings(max_examples=FUZZ_EXAMPLES["serial"], deadline=None)
@given(mutations())
def test_mutated_inputs_keep_the_exit_contract(mutation):
    check(mutation, forked=False)


@settings(max_examples=FUZZ_EXAMPLES["forked"], deadline=None)
@given(mutations())
def test_mutated_inputs_keep_the_exit_contract_when_the_writers_fork(mutation):
    check(mutation, forked=True)
