"""Start-up imports, checked in fresh interpreters.

SciPy's ODE stack (``scipy.integrate`` and what it pulls in) serves only the
stiff integrator ``linalg.integrate_ode``, which no path of the package
calls; it imports the stack on its first call, so the CLI, the scenarios
and ``verify`` run without it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: loaded by ``scipy.integrate`` and by nothing else on the package's paths
DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.fft", "scipy.spatial")

_INTEGRATE = """
import sys
{first}
import numpy as np
from atomcavity import ModelParams, dynamics, linalg, make_space, models
space = make_space(3)
sup = models.Superoperator(models.build_full(space, ModelParams(g0=0.3, n_th=0.5, gamma=0.1)))
y0 = models.vec(dynamics.ground_state(space).matrix)
y = linalg.integrate_ode(sup.apply, y0, np.array([0.0, 0.5, 2.0, 10.0]), sup.as_sparse())
print("scipy.integrate" in sys.modules)
print(y.tobytes().hex())
"""


def _run(code: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_startup_does_not_load_the_ode_stack():
    loaded = _run(
        "import sys\n"
        "import atomcavity, atomcavity.cli, atomcavity.scenarios\n"
        f"print(*[m for m in {DEFERRED!r} if m in sys.modules])\n"
    )
    assert loaded == []


def test_integrate_ode_loads_the_integrator_and_matches_an_eager_import():
    lazy = _run(_INTEGRATE.format(first=""))
    eager = _run(_INTEGRATE.format(first="import scipy.integrate"))
    assert lazy[0] == "True"
    assert len(lazy[1]) > 0
    assert lazy == eager  # every sample, bit for bit


def test_criterion_10_runs_without_the_ode_stack():
    # its trajectory leg runs the spectral path that every scenario runs
    out = _run(
        "import sys\n"
        "from atomcavity import verify\n"
        "res = verify.criterion_10_cptp_suite()\n"
        "print(res.passed, 'scipy.integrate' in sys.modules)\n"
    )
    assert out == ["True", "False"]
