"""Import-time pins: SciPy is loaded by the closed-form engine only, on its first use.

``simulate`` and ``plot`` never integrate, so neither they nor ``import
vlcnoma.cli`` may load any ``scipy`` module.  The closed form computes its
binomial laws itself, so ``analytic`` never loads ``scipy.stats``.  Each
check runs in a fresh interpreter, since this test process has SciPy loaded
already.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

from vlcnoma import quadrature
from vlcnoma.quadrature import QuadratureConfig, integrate_adaptive

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


ANALYTIC = """
import json, sys
from vlcnoma import cli
seen = {}
for preset in ("fig2", "fig3"):
    assert cli.main(["analytic", "--preset", preset, "--out", preset + ".csv"]) == 0
    seen[preset] = "scipy.stats" in sys.modules
print(json.dumps(seen))
"""


def test_analytic_loads_no_scipy_stats(tmp_path):
    assert run_fresh(ANALYTIC, tmp_path) == {"fig2": False, "fig3": False}


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


def test_integrate_adaptive_calls_a_replacement_of_the_module_attribute(monkeypatch):
    """A proxy assigned to ``quadrature.integrate`` (as a tracing harness does) serves every integral."""
    calls = []

    def quad(f, a, b, **kwargs):
        calls.append((a, b, kwargs["points"]))
        return 0.25, 1e-12, {}

    monkeypatch.setattr(quadrature, "integrate", types.SimpleNamespace(quad=quad))
    assert integrate_adaptive(lambda x: x, 0.0, 1.0, QuadratureConfig(), breakpoints=(0.5, 2.0)) == (0.25, 1e-12)
    assert len(calls) == 1 and calls[0][:2] == (0.0, 1.0) and list(calls[0][2]) == [0.5]
