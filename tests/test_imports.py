"""Start-up imports, checked in fresh interpreters.

SciPy's ODE stack (``scipy.integrate`` and what it pulls in) serves only the
BDF reference ``dynamics.evolve_ode``; ``linalg.integrate_ode`` imports it on
its first call, so the CLI and the scenarios start without it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: loaded by ``scipy.integrate`` and by nothing else on the package's paths
DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.fft", "scipy.spatial")

_EVOLVE = """
import sys
{first}
import numpy as np
from atomcavity import ModelParams, dynamics, make_space, models
space = make_space(3)
sup = models.Superoperator(models.build_full(space, ModelParams(g0=0.3, n_th=0.5, gamma=0.1)))
traj = dynamics.evolve_ode(sup, dynamics.ground_state(space), np.array([0.0, 0.5, 2.0, 10.0]))
print("scipy.integrate" in sys.modules)
print(traj.support.tobytes().hex())
print(traj.entries.tobytes().hex())
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


def test_evolve_ode_loads_the_integrator_and_matches_an_eager_import():
    lazy = _run(_EVOLVE.format(first=""))
    eager = _run(_EVOLVE.format(first="import scipy.integrate"))
    assert lazy[0] == "True"
    assert len(lazy[2]) > 0
    assert lazy == eager  # support and every sample, bit for bit
