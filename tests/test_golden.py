"""Pinned sha256 of every file the CLI writes for a fixed set of seed-scale runs.

A rerun-against-rerun check cannot see a writer change that moves the same
bytes on both runs; these hashes can.  Each run's stdout is pinned too, with
the scratch directory replaced by ``ROOT``.  If an output format changes on
purpose, print the new table with ``PYTHONPATH=src python tests/test_golden.py``
and say in the change why the bytes moved.
"""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slcap import _cpus, cli
from slcap.cli import run_command

ROOT = Path(__file__).resolve().parents[1]

RLC = ["--r", "1", "--l", "2e-9", "--c", "1e-12", "--sweep", "1e8:2e10:201"]
F_DESIGN = ["--f-design", "1.005e10"]
AREAS = [
    "--novel-area-mm2", "0.3969", "--baseline-area-mm2", "245",
    "--check-dbm", "11:-89", "--check-dbm", "13:-89",
]

INPUTS = {
    "lattice.json": json.dumps(
        {
            "frequency_hz": 2.4e9,
            "positions": [
                [0.0, 0.0, 0.0], [0.0625, 0.0, 0.0],
                [0.0, 0.0625, 0.0], [0.0625, 0.0625, 0.0],
            ],
        }
    ),
    "dipole.json": json.dumps(
        {
            "frequency_hz": 1e9,
            "positions": [[0.0, 0.0, -0.15], [0.0, 0.0, 0.0], [0.0, 0.0, 0.15]],
            "weights": [[1.0, 0.0], [0.5, 0.5], 1.0],
            "element": {"kind": "hertzian-dipole", "axis": [0, 0, 1]},
        }
    ),
    # A series-through sweep whose s21 = 0 row at 4.5 GHz has no finite
    # impedance, so every analyze and match output carries a nan row there.
    "open.s2p": (
        "! series-through RLC with an open (s21 = 0) row\n"
        "# HZ S RI R 50\n"
        "500000000 0.906100 -0.290091 0.093900 0.290091 0.093900 0.290091 0.906100 -0.290091\n"
        "1000000000 0.681280 -0.462582 0.318720 0.462582 0.318720 0.462582 0.681280 -0.462582\n"
        "1500000000 0.433037 -0.489798 0.566963 0.489798 0.566963 0.489798 0.433037 -0.489798\n"
        "2000000000 0.232828 -0.413549 0.767172 0.413549 0.767172 0.413549 0.232828 -0.413549\n"
        "2500000000 0.101488 -0.286866 0.898512 0.286866 0.898512 0.286866 0.101488 -0.286866\n"
        "3000000000 0.032261 -0.147101 0.967739 0.147101 0.967739 0.147101 0.032261 -0.147101\n"
        "3500000000 0.010117 -0.014609 0.989883 0.014609 0.989883 0.014609 0.010117 -0.014609\n"
        "4000000000 0.020441 0.101610 0.979559 -0.101610 0.979559 -0.101610 0.020441 0.101610\n"
        "4500000000 1.000000 0.000000 0.000000 0.000000 0.000000 0.000000 1.000000 0.000000\n"
        "5000000000 0.095149 0.277734 0.904851 -0.277734 0.904851 -0.277734 0.095149 0.277734\n"
        "5500000000 0.145173 0.340050 0.854827 -0.340050 0.854827 -0.340050 0.145173 0.340050\n"
    ),
    "novel.log": (
        "# novel chip antenna, office\n"
        "2025-11-04T09:00:00Z +CSQ: 11,0\n"
        "2025-11-04T09:01:00Z +CSQ: 12,0\n"
        "2025-11-04T09:02:00+01:00 +CSQ: 10,1\n"
        "\n"
        "2025-11-04T09:03:00Z +CSQ: 99,99\n"
        "2025-11-04T09:04:00Z +CSQ: 13,0\n"
        "2025-11-04T09:05:00Z +CSQ: 11,2\n"
    ),
    "baseline.log": (
        "2025-11-04T09:00:00Z +CSQ: 17,0\n"
        "2025-11-04T09:01:00Z +CSQ: 18,0\n"
        "2025-11-04T09:02:00Z +CSQ: 16,0\n"
        "2025-11-04T09:03:00Z +CSQ: 19,1\n"
        "2025-11-04T09:04:00Z +CSQ: 17,0\n"
    ),
    "novel.csv": (
        "timestamp,rssi,ber\n"
        "2025-11-04T09:00:00Z,11,0\n"
        "2025-11-04T09:01:00,12,0\n"
        "2025-11-04T09:02:00Z,99,99\n"
        "2025-11-04T09:03:00Z,10,1\n"
    ),
    "baseline.csv": (
        "timestamp,rssi,ber\n"
        "2025-11-04T09:00:00Z,17,0\n"
        "2025-11-04T09:01:00Z,18,0\n"
        "2025-11-04T09:02:00Z,16,3\n"
    ),
}


def runs(root: Path) -> dict[str, list[str]]:
    """Run name -> argv after ``--out-dir``; later runs read earlier outputs."""
    ri_s1p = str(root / "synth_ri_s1p" / "sweep.s1p")
    ri_s2p = str(root / "synth_ri_s2p" / "sweep.s2p")
    shunt_s2p = str(root / "synth_ma_s2p" / "synth.s2p")
    inp = root / "inputs"
    return {
        "synth_ri_s1p": ["--fixture", "reflection", "synth", *RLC,
                         "--unit", "hz", "--encoding", "ri", "--out", "sweep.s1p"],
        "synth_ri_s2p": ["synth", *RLC, "--unit", "hz", "--encoding", "ri",
                         "--out", "sweep.s2p"],
        "synth_ma_s1p": ["--fixture", "reflection", "synth", *RLC, "--encoding", "ma"],
        "synth_ma_s2p": ["--fixture", "shunt-through", "synth", *RLC,
                         "--unit", "mhz", "--encoding", "ma"],
        "synth_db_s1p": ["--fixture", "reflection", "--z0", "75", "synth", *RLC,
                         "--unit", "khz", "--encoding", "db"],
        "synth_db_s2p": ["synth", *RLC, "--unit", "ghz", "--encoding", "db"],
        "analyze_series": ["--svg", "analyze", ri_s2p],
        "analyze_reflection": ["--fixture", "reflection", "analyze", ri_s1p,
                               "--df-threshold", "0.05", "--z-threshold", "20"],
        "analyze_shunt": ["--fixture", "shunt-through", "analyze", shunt_s2p],
        "match_series_r": ["--svg", "match", ri_s2p, *F_DESIGN],
        "match_l_low": ["match", ri_s2p, *F_DESIGN, "--topology", "l-section"],
        "match_l_high": ["--z0", "75", "match", ri_s2p, *F_DESIGN,
                         "--topology", "l-section", "--variant", "high-pass"],
        "analyze_open": ["--svg", "analyze", str(inp / "open.s2p")],
        "match_open_series_r": ["--svg", "match", str(inp / "open.s2p"),
                                "--f-design", "3.2e9"],
        "pattern_lattice": ["--svg", "pattern", "--layout", str(inp / "lattice.json"),
                            "--theta-step", "2", "--phi-step", "5", "--lobe-db", "6"],
        "pattern_dipole": ["--svg", "pattern", "--layout", str(inp / "dipole.json"),
                           "--phi-cut-deg", "90", "--efficiency", "0.8"],
        "rssi_at": ["--svg", "rssi", str(inp / "novel.log"), str(inp / "baseline.log"),
                    *AREAS],
        "rssi_csv": ["rssi", str(inp / "novel.csv"), str(inp / "baseline.csv"),
                     "--format", "csv", *AREAS],
    }


GOLDEN = {
    "synth_ri_s1p": {
        "sweep.s1p":
            "8214326a8d3059dd4f7d96167a026188fb3dfdc8ce36d456ad77890fc814a7b8",
        "stdout":
            "65e0bea7191dd0e2e92804d9b256644e0926a530e73bdbeeb20b544beea57b91",
    },
    "synth_ri_s2p": {
        "sweep.s2p":
            "328bd17cc774916a1d283b9ce4082c1fecbae66e207537d062e91c43b15e3894",
        "stdout":
            "67d2b51f1b6b02ee350643657fd5828f9e2ccc5af6935f575dbf68d231244673",
    },
    "synth_ma_s1p": {
        "synth.s1p":
            "53f45dc88623f2b035eaa2220799962d141251816e885555e35ea2f983f16f22",
        "stdout":
            "fc9c0d8da3e38489dc5ecd6e722b9c513b939db9685ac08634f2e8ecfa739ba8",
    },
    "synth_ma_s2p": {
        "synth.s2p":
            "f1f51685e454dacd35243eecc9c99e10753264b33be4f3e2686aad08c742e992",
        "stdout":
            "1335f30fb22b7112a5c1ac8faba79ec9d461fc88561a9b0a22ea6d8db7532989",
    },
    "synth_db_s1p": {
        "synth.s1p":
            "3c40e27b22963af377ec30cda14fc1995159c2f40c62a3e2678f245d3dd6b090",
        "stdout":
            "64adbf24a66f41630e5b08a8cfbcf3bdf39995fbefeb49e3fc4ea6b870d03519",
    },
    "synth_db_s2p": {
        "synth.s2p":
            "fc8ab56aa3ba1479f4ce26a1cffb4735c66454eafaa8a7ce2f13086dfccbda15",
        "stdout":
            "a3fd64b9e2beec2c517e5e505b8f69f35858c30dd0a19101486e8e6f2753215e",
    },
    "analyze_series": {
        "analyze_report.txt":
            "00db71eea343095aee18a7ef6d249c19e34ae9d3b0cfb8cb720b9e78dcb8268a",
        "impedance.csv":
            "ad3d2f617a0691e84dac28a54c206da5e411c48b60ebed76d23f5769288ab8ed",
        "impedance.svg":
            "46cea6b93df0d64f34fb85b97699c0a8a00936dce65ccc569275d76c63a348da",
        "metrics.csv":
            "a7512dd0deae8221335cafb53163e1848d75a6be9ed6df2251206c8b90c049ff",
        "stdout":
            "00db71eea343095aee18a7ef6d249c19e34ae9d3b0cfb8cb720b9e78dcb8268a",
    },
    "analyze_reflection": {
        "analyze_report.txt":
            "420b0f5982666a09e42279bd571188bc92f839cbbb618490f51454033422e77f",
        "impedance.csv":
            "ad3d2f617a0691e84dac28a54c206da5e411c48b60ebed76d23f5769288ab8ed",
        "metrics.csv":
            "a7512dd0deae8221335cafb53163e1848d75a6be9ed6df2251206c8b90c049ff",
        "stdout":
            "420b0f5982666a09e42279bd571188bc92f839cbbb618490f51454033422e77f",
    },
    "analyze_shunt": {
        "analyze_report.txt":
            "277f924e0d65041208134fd5e842bf897f938b534b3b0c70930c967d84b5038c",
        "impedance.csv":
            "ad3d2f617a0691e84dac28a54c206da5e411c48b60ebed76d23f5769288ab8ed",
        "metrics.csv":
            "a7512dd0deae8221335cafb53163e1848d75a6be9ed6df2251206c8b90c049ff",
        "stdout":
            "277f924e0d65041208134fd5e842bf897f938b534b3b0c70930c967d84b5038c",
    },
    "match_series_r": {
        "impedance_matched.csv":
            "017a1cd62b5b6c5d3b4262ea42982fc5cee004304ff88ffed99e7b6568bc6258",
        "match_report.txt":
            "d7ecd8d3fee7811f2298207c19503386ae1dd1fd44c273b14cb0e90f687e2f87",
        "vswr.svg":
            "5b3419d77ea16544f39a65c1c872fabf58e1b387c1d2d7b23834c4aa12969b26",
        "vswr_matched.csv":
            "152edc3af99d3eac3eec237470aff4cc67d93978ef8479d5f34ce9fb5bc4ea69",
        "vswr_unmatched.csv":
            "9eacc08f87a9b90c96379e98845f6259a2610bdfa09fd23442b7d8747250354c",
        "stdout":
            "d7ecd8d3fee7811f2298207c19503386ae1dd1fd44c273b14cb0e90f687e2f87",
    },
    "match_l_low": {
        "impedance_matched.csv":
            "10009470bcbb7de376b4ffc0f7b465100f6edcb71d8f765509a0ca6b701dfe33",
        "match_report.txt":
            "bb027fdacf05af31a9dd412f06fe55501f14136a929102b15a42012e7422e90b",
        "vswr_matched.csv":
            "b01a8af15117ccf0307b571da2eb1e867258aa9ece952bddfedfb9ba72503f8e",
        "vswr_unmatched.csv":
            "9eacc08f87a9b90c96379e98845f6259a2610bdfa09fd23442b7d8747250354c",
        "stdout":
            "bb027fdacf05af31a9dd412f06fe55501f14136a929102b15a42012e7422e90b",
    },
    "match_l_high": {
        "impedance_matched.csv":
            "86a521d10208f3c7b154dab4a2e4886ac60c93df71d555ae796d5e69af3350d7",
        "match_report.txt":
            "573107e9ce9770953f5266384e38a52bafdd76dbf18ead0e02c61d0effe1ab51",
        "vswr_matched.csv":
            "587536c716641b88a4cd74e40c9eb0026771c22bf3b6c770baf24df6d0f67341",
        "vswr_unmatched.csv":
            "0589236166f50dcbfdabe492f0fe7f2c4300fb061de458e3559d3f8247990976",
        "stdout":
            "573107e9ce9770953f5266384e38a52bafdd76dbf18ead0e02c61d0effe1ab51",
    },
    "analyze_open": {
        "analyze_report.txt":
            "8fa791bda8da83053df3965be62f83920e2d5a005130366be181a38217aa3717",
        "impedance.csv":
            "cf51591d1d9eb3e6bf4e25473743cf09baab053a563c438c7ce7b4da2e1924fa",
        "impedance.svg":
            "ad492621321021294269e03a94913e354b24a1af804f5b7fb731867206d0be2e",
        "metrics.csv":
            "cddfc6ec58f4f10a9671d47dc34d39090692441d9ded682a87acedb05e94eabb",
        "stdout":
            "8fa791bda8da83053df3965be62f83920e2d5a005130366be181a38217aa3717",
    },
    "match_open_series_r": {
        "impedance_matched.csv":
            "54f4424cff6cfff92927773e9d92cde341bc559d402c03090261bc79c6a81b9d",
        "match_report.txt":
            "87828841b550e290f085965aaecccaa7d115a2515e1546af6e55211c5378d0ca",
        "vswr.svg":
            "7bc00d17afcdad11684de97255b597b4fda14ffe79adb78c560e627bbbb80c14",
        "vswr_matched.csv":
            "6c95c0574adcbbb9a46b38404dc76e797af5fdb0f0ffaa61faaf8b37c7d13d61",
        "vswr_unmatched.csv":
            "560d21eb8449952282b86c5a9bc948f34a6da0199648424f6772686b9292a5ae",
        "stdout":
            "87828841b550e290f085965aaecccaa7d115a2515e1546af6e55211c5378d0ca",
    },
    "pattern_lattice": {
        "cut.csv":
            "fbd9fcff9aef316913c72f0a0c47158c2a1e18a15c73b4ce03093f1006110147",
        "cut.svg":
            "2e691f0975f87b0d8b0d5894a655323ea75ab2e00dc69a57b6d7790f4ccd4040",
        "lobes.csv":
            "fa9daf34b3e0acd887a920d89953753b80192ac934de9c7f7dca12aa3e4803ee",
        "pattern.csv":
            "69ba74670f0de93e3790bcf6fcbbcac5b3b74c695dff72fca473e8dbf5e1e50a",
        "pattern_report.txt":
            "f5316dfdb17d3eff8fff9e2c6b99634dd03177aba11b7c3fe98163804b38d93c",
        "stdout":
            "f5316dfdb17d3eff8fff9e2c6b99634dd03177aba11b7c3fe98163804b38d93c",
    },
    "pattern_dipole": {
        "cut.csv":
            "3c0ea1641e6af443f52192f493d1b86e5fa8ea899d4f7180887ceb26f21b67bd",
        "cut.svg":
            "12b713eb1b089a5f7c986c32945899142ef6115d69e650e3a2594516138b929e",
        "lobes.csv":
            "ede81a3a73245206cfb752666913cd5fdb242c42bb08f8569a83f814fea56aab",
        "pattern.csv":
            "0823846abf25fcae8d1f8c85f7ae469d2128e4d5a7ec394b153d1c05c35dd174",
        "pattern_report.txt":
            "b0a1e1a681473594866dadd6e80c0998cd60b67f5d7e71288ccb11a3a094313b",
        "stdout":
            "b0a1e1a681473594866dadd6e80c0998cd60b67f5d7e71288ccb11a3a094313b",
    },
    "rssi_at": {
        "comparison.csv":
            "c7a81e3bbf66b25d9c9c9f67bb6c01fe7f7bf83368d2a42d272487a011f265fd",
        "comparison.txt":
            "3458f6d04ef49cb2be3186eaeac0be9661714607375f506e81c7be94ccf9f287",
        "rssi.svg":
            "b26bf9bfef9eda5babdbd36e52a6879de9a95f5d77258690acfb44062d8d32a7",
        "rssi_baseline.csv":
            "a50efbc2dbee81eb0ec0f1c0d1800eaf759e1e01f1bfea6252411abc401f0076",
        "rssi_novel.csv":
            "20e7743e30cc368c312512bd4586a988a9ecee4be3e3647ccb4e3155b4636e57",
        "stdout":
            "3458f6d04ef49cb2be3186eaeac0be9661714607375f506e81c7be94ccf9f287",
    },
    "rssi_csv": {
        "comparison.csv":
            "12a1430c2ec031de57ae7b99ad1cd3f1c2da8b37a40a09894d057d558f2ac89d",
        "comparison.txt":
            "e23e9b25df90a5a83964c961d06c485596d1ccc65ab061862eb8a8fb967e7e5a",
        "rssi_baseline.csv":
            "2e04ea9e7a02b189d012a4152f2313d6730d8d9321541096e21d5382c2fe0356",
        "rssi_novel.csv":
            "375c0b51d0e6a16477f645ddfb915f76a7e6cde3179a75e50fb866786710483a",
        "stdout":
            "e23e9b25df90a5a83964c961d06c485596d1ccc65ab061862eb8a8fb967e7e5a",
    },
}


def golden_outputs(root: Path, names=None) -> dict[str, dict[str, str]]:
    """Run every command, or those in ``names``, under ``root``; run name -> {file name: sha256}."""
    (root / "inputs").mkdir(parents=True)
    for name, text in INPUTS.items():
        (root / "inputs" / name).write_text(text)
    hashes = {}
    for name, argv in runs(root).items():
        if names is not None and name not in names:
            continue
        out = root / name
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run_command(["--out-dir", str(out), *argv])
        assert code == 0, f"{name} exited {code}"
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        files["stdout"] = stdout.getvalue().replace(str(root), "ROOT").encode()
        hashes[name] = {k: hashlib.sha256(v).hexdigest() for k, v in files.items()}
    return hashes


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_pinned_hashes(outputs, name):
    assert outputs[name] == GOLDEN[name]


def test_every_run_is_pinned(outputs):
    assert sorted(outputs) == sorted(GOLDEN)


def test_outputs_match_pinned_hashes_when_every_writer_forks(tmp_path, monkeypatch):
    # Blocks of 7 rows on 3 CPUs, and any work pays for a child: every CSV,
    # pattern.csv and Touchstone file of three blocks or more is written in
    # three ranges, two of them forked.  Every fork is a writer's: an rssi run
    # parses its two logs in turn, in the caller.
    monkeypatch.setattr(_cpus, "BLOCK_ROWS", 7)
    monkeypatch.setattr(_cpus, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(_cpus, "_CHILD_S", 1e-15)
    forks, jobs, writing = [], [], []
    fork = _cpus._fork
    monkeypatch.setattr(_cpus, "_fork", lambda: forks.append(None) or fork())

    class Child(_cpus._Child):
        def __init__(self, work):
            # A job made inside write_blocks is a range of a file; any other is counted
            # apart, and the last assert finds none.
            jobs.append("write_blocks" if writing else "parse")
            super().__init__(work)

    def write_blocks(*args):
        writing.append(None)
        try:
            return write(*args)
        finally:
            writing.pop()

    write = _cpus.write_blocks
    monkeypatch.setattr(_cpus, "_Child", Child)
    monkeypatch.setattr(_cpus, "write_blocks", write_blocks)
    assert golden_outputs(tmp_path) == GOLDEN
    assert len(forks) == len(jobs) and set(jobs) == {"write_blocks"}


def test_every_output_file_passes_the_one_writer(tmp_path, monkeypatch):
    # Tables, reports and SVGs alike: each file in an output directory was
    # written by _cpus.write_blocks, once.
    written = []
    write_blocks = _cpus.write_blocks
    monkeypatch.setattr(_cpus, "write_blocks",
                        lambda path, *args: written.append(Path(path)) or write_blocks(path, *args))
    golden_outputs(tmp_path)
    files = [path for name in GOLDEN for path in (tmp_path / name).iterdir()]
    assert sorted(written) == sorted(files)


def test_analyze_and_match_read_no_text(tmp_path, monkeypatch):
    # Each Touchstone input is read from its file: the text is never held, and
    # the bytes are those pinned.
    def no_text(path):
        raise AssertionError(f"{path} was read as text")

    monkeypatch.setattr(cli, "_read_text", no_text)
    names = [name for name in GOLDEN if name.startswith(("synth_", "analyze_", "match_"))]
    assert golden_outputs(tmp_path, names) == {name: GOLDEN[name] for name in names}


# The pattern runs read only their inputs, so they can run on their own.
ONE_CPU = """
import json, os, sys, tempfile
from pathlib import Path
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import test_golden
with tempfile.TemporaryDirectory() as tmp:
    hashes = test_golden.golden_outputs(Path(tmp), sys.argv[1:])
print(json.dumps([len(os.sched_getaffinity(0)), hashes]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_pattern_hashes_hold_on_one_cpu():
    # The pattern grid is evaluated on every CPU the process may use; pinned to
    # one, it runs in the calling thread alone and must write the same bytes.
    names = sorted(name for name in GOLDEN if name.startswith("pattern_"))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")])
        ),
    }
    proc = subprocess.run([sys.executable, "-c", ONE_CPU, *names], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    cpus, hashes = json.loads(proc.stdout.splitlines()[-1])
    assert cpus == 1
    assert hashes == {name: GOLDEN[name] for name in names}


# The synth file is written on every CPU the process may use once it has more
# than one block and its work pays for a child; 3 x 4096 + 1 points make four
# blocks, the last of one row, and the unpinned run counts any work as paying.
SYNTH_RUNS = {
    "synth.s1p": ["--fixture", "reflection", "synth", "--encoding", "ri"],
    "synth.s2p": ["synth", "--encoding", "db"],
}
SYNTH_MODEL = ["--r", "1.5", "--l", "2e-9", "--c", "1e-12", "--sweep", "1e8:2e10:12289"]
ONE_CPU_SYNTH = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from slcap.cli import run_command
assert len(os.sched_getaffinity(0)) == 1
sys.exit(run_command(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
@pytest.mark.parametrize("name", sorted(SYNTH_RUNS))
def test_synth_bytes_hold_on_one_cpu(tmp_path, monkeypatch, name):
    monkeypatch.setattr(_cpus, "_CHILD_S", 1e-15)
    argv = [*SYNTH_RUNS[name], *SYNTH_MODEL]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    pinned = tmp_path / "pinned"
    proc = subprocess.run([sys.executable, "-c", ONE_CPU_SYNTH, "--out-dir", str(pinned), *argv],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(["--out-dir", str(tmp_path / "free"), *argv]) == 0
    written = (tmp_path / "free" / name).read_bytes()
    assert written.count(b"\n") == 1 + 12289
    assert written == (pinned / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = golden_outputs(Path(tmp))
    json.dump(table, sys.stdout, indent=4)
    print()
