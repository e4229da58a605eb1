"""Bitwise results that must not depend on which SIMD kernel NumPy picks at run time.

The angle laws write their results in place (``population.unit_clip``), and
the simulator's per-trial rows evaluate the gain law on K-element rows where
its whole-chunk reference evaluates it on one array, so a kernel's vector
tail falls in different places.  The in-place angle laws of
``tests/test_analytic.py::TestOnePathPerLaw``, the three simulate golden
hashes and the record oracle of ``tests/test_simulate.py`` therefore run
again here, in a fresh interpreter with every dispatched target above
NumPy's baseline switched off.
"""

import os
import subprocess
import sys
from pathlib import Path

from vlcnoma import cli

ROOT = Path(__file__).resolve().parent.parent


def pass_under_baseline_dispatch(tests):
    """Run the pytest node ids ``tests`` in a fresh interpreter with NumPy at its baseline; all must pass."""
    # every target NumPy dispatches to above its baseline, and that this CPU has, switched off
    above = cli._numpy_simd()["dispatch"]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(above),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    check = subprocess.run([sys.executable, "-c", "from vlcnoma import cli; print(*cli._numpy_simd()['dispatch'])"],
                           env=env, capture_output=True, text=True, timeout=120)
    assert check.returncode == 0 and check.stdout.split() == [], check.stdout + check.stderr


def test_simulate_hashes_and_chunk_rows_keep_their_bits_under_baseline_dispatch():
    golden = str(ROOT / "tests" / "test_golden.py")
    pass_under_baseline_dispatch([*(f"{golden}::test_csv_bytes_match_golden_hash[simulate-{preset}]"
                                    for preset in ("fig2", "fig3", "fig4")),
                                  str(ROOT / "tests" / "test_simulate.py") + "::TestRecordOracle",
                                  str(ROOT / "tests" / "test_analytic.py") + "::TestOnePathPerLaw"])
