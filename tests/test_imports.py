"""Import-time pins: no command of the CLI loads SciPy.

``simulate`` and ``plot`` never integrate; the closed-form engine integrates
with its own Gauss-Kronrod rule and computes its binomial laws and its
interpolant itself.  So neither ``import vlcnoma.cli`` nor ``simulate``,
``plot``, ``analytic`` or ``validate`` may load any ``scipy`` module.  Only
``quadrature.integrate``, which the benchmark harness reads, imports
``scipy.integrate``, on first access.  Each check runs in a fresh
interpreter, since this test process has SciPy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(script, cwd):
    """Run ``script`` in a new interpreter with the package on its path; return its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


SIMULATE_AND_PLOT = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
seen = {}
from vlcnoma import cli
seen["import"] = scipy_modules()
assert cli.main(["simulate", "--preset", "fig3", "--trials", "40", "--seed", "3", "--set", "sweep.workers=1",
                 "--out", "fig3.csv"]) == 0
seen["simulate"] = scipy_modules()
assert cli.main(["plot", "fig3.csv", "--out", "plot_fig3.py"]) == 0
seen["plot"] = scipy_modules()
print(json.dumps(seen))
"""


def test_cli_import_simulate_and_plot_load_no_scipy(tmp_path):
    seen = run_fresh(SIMULATE_AND_PLOT, tmp_path)
    assert seen == {"import": [], "simulate": [], "plot": []}


CLOSED_FORM = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from vlcnoma import cli
seen = {}
for preset in ("fig2", "fig3", "fig4"):
    assert cli.main(["analytic", "--preset", preset, "--out", preset + ".csv"]) == 0
    seen["analytic " + preset] = scipy_modules()
assert cli.main(["validate", "--quick", "--out", "validate-quick.json"]) == 0
seen["validate --quick"] = scipy_modules()
print(json.dumps(seen))
"""


def test_analytic_and_validate_load_no_scipy(tmp_path):
    seen = run_fresh(CLOSED_FORM, tmp_path)
    assert seen == {"analytic fig2": [], "analytic fig3": [], "analytic fig4": [], "validate --quick": []}


LAZY_INTEGRATE = """
import json, sys
from vlcnoma import quadrature
before = "scipy.integrate" in sys.modules
import scipy.integrate
resolved = quadrature.integrate is scipy.integrate
try:
    quadrature.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({"loaded_at_import": before, "resolved": resolved, "unknown": unknown}))
"""


def test_integrate_attribute_resolves_to_scipy_on_first_access(tmp_path):
    seen = run_fresh(LAZY_INTEGRATE, tmp_path)
    assert seen == {"loaded_at_import": False, "resolved": True, "unknown": "AttributeError"}
