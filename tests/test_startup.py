"""Start-up cost: scipy's interpolation and root-finding load only where they are called, its quadrature never.

Each check runs in a fresh interpreter, because the test process itself has
long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import fdxlab

DEFERRED = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")

SUBCOMMANDS = """
import sys
from fdxlab import cli

out = sys.argv[1]
params = ["--set", "N = 1", "--set", "m = 0.5", "--set", "p = 3.0"]
power = [*params, "--set", "profile.kind = power", "--set", "profile.a = 0.8"]
runs = [
    ["gronwall-check", "--set", "gronwall.n_draws = 5", "--set", "gronwall.n_steps = 100"],
    ["exponents", *params],
    ["norms", *power, "--set", "profile.c = 0.1", "--set", "norm.q = 1.25",
     "--set", "scan.centers = 0, 1", "--set", "scan.radii_per_decade = 4"],
    ["threshold", *power, "--set", "solver.n_cells = 64", "--set", "solver.r_dom = 4",
     "--set", "threshold.horizon = 0.05", "--set", "threshold.bisect_steps = 4"],
]
for argv in runs:
    assert cli.main([*argv, "--out", f"{out}/{argv[0]}"]) == 0, argv
print("loaded:", *(m for m in sys.argv[2:] if m in sys.modules))
"""

DEFERRED_CALLERS = """
import sys
import numpy as np
from fdxlab import profiles, special_functions
from fdxlab.exponents import ProblemParams

# without the w-space slice, r^-0.999 exhausts the panel budget and raises; no quadrature loads
try:
    profiles.radial_ball_integral(profiles.power_law(1.0, 0.999, 1).value, 1, 0.0, np.array([0.5, 1.0]), 1e-9)
except RuntimeError as exc:
    assert str(exc).endswith("[0.5, 1.0]"), exc
else:
    raise AssertionError("the budget-exhausting call returned")

params = ProblemParams(N=1, m=0.5, p=3.0)
assert "scipy.interpolate" not in sys.modules
gamma = special_functions.GammaFn.build(params)
assert "scipy.interpolate" in sys.modules
assert gamma.c_eta == special_functions.c_eta(params)
exact = gamma.value_exact(0.5)  # scipy.interpolate has loaded scipy.optimize already
assert 0.0 < exact < 1.0 and abs(gamma(0.5) - exact) < 1e-3, (gamma(0.5), exact)
assert "scipy.integrate" not in sys.modules
print("ok")
"""


def _python(code: str, *args: str) -> str:
    src = str(Path(fdxlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]  # the subcommands print their results first


def test_subcommands_leave_quadrature_interpolation_and_root_finding_unloaded(tmp_path):
    assert _python(SUBCOMMANDS, str(tmp_path), *DEFERRED) == "loaded:"
    # the deferred imports still resolve where they are called
    assert _python(DEFERRED_CALLERS) == "ok"
