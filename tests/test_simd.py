"""The golden table and the Touchstone reader with numpy's wider SIMD kernels switched off.

numpy picks a kernel for each ufunc by CPU feature, and kernels of different
width may round differently.  Running ``tests/test_golden.py`` with the AVX-512
groups, and then also AVX2 (``X86_V3``), disabled through
``NPY_DISABLE_CPU_FEATURES`` shows that the pinned output bytes do not depend
on the kernel this machine happens to pick.  The reader's path-agreement tests
run the same way, since its MA and dB conversion uses numpy's ``cos`` and ``sin``,
and so do the pattern's reference tests, since ``evaluate_pattern`` builds each
``exp(j phase)`` from them.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parents[1]
AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
DISABLED = {"avx512_off": AVX512, "avx2_off": (*AVX512, "X86_V3")}


def run_with_groups_off(name: str, target: str) -> None:
    """Run the pytest ``target`` (relative to the root) with the groups of ``name`` off."""
    groups = DISABLED[name]
    if not any(__cpu_features__.get(group) for group in groups):
        pytest.skip(f"this CPU has none of {', '.join(groups)}")
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": " ".join(groups),
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        ),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", target],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("name", sorted(DISABLED))
def test_golden_hashes_hold_with_simd_groups_off(name):
    run_with_groups_off(name, "tests/test_golden.py")


@pytest.mark.parametrize("name", sorted(DISABLED))
def test_reader_paths_agree_with_simd_groups_off(name):
    run_with_groups_off(name, "tests/test_touchstone.py::TestReaderPaths")


@pytest.mark.parametrize("name", sorted(DISABLED))
def test_pattern_matches_reference_with_simd_groups_off(name):
    run_with_groups_off(name, "tests/test_radiation.py::TestReferenceEquivalence")
