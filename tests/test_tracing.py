"""The benchmark's tracer (``bench/tracing.py``) binds package names by
string; a renamed function, method or cache attribute must fail here, not
silently in a traced benchmark run."""

import importlib
import sys
from pathlib import Path

import numpy as np
import scipy.integrate._ivp.bdf as bdf
import scipy.sparse.linalg as spla

from atomcavity import ModelParams, atomic_space, dynamics as dyn, models, observables, scenarios

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _package_bindings() -> dict:
    """Every module-level binding of the package, and the class, dict and
    scipy entries the tracer replaces."""
    out = {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name.startswith("atomcavity") and mod is not None
        for attr, value in vars(mod).items()
    }
    for attr in ("as_dense", "as_sparse", "apply"):
        out[("Superoperator", attr)] = vars(models.Superoperator)[attr]
    out.update({("RUNNERS", k): v for k, v in scenarios.RUNNERS.items()})
    out[("spla", "eigs")] = spla.eigs
    out[("bdf", "splu")] = bdf.splu
    return out


def test_bench_tracer_installs_traces_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    before = _package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, name, _ in tracing.FUNCTIONS:
            assert getattr(module, name) is not before[(module.__name__, name)]
        # one small traced run goes through every wrapper kind: a builder, the
        # lazy assembly (which reads the Superoperator caches), a dense
        # eigendecomposition, the spectral evolution and the mutual
        # information, which ``mi_curve`` takes once for all its samples
        me = models.build_effective_coherent(ModelParams(g0=0.25, eps=10.0))
        sup = models.vectorize(me, materialize=False)
        sup.as_dense()
        dyn.evolve_spectral(sup, dyn.ground_state(atomic_space()), np.array([0.0, 1.0]))
        observables.mi_curve(sup, dyn.ground_state(atomic_space()), np.array([0.0, 1.0, 2.0]))
        names = [s["name"] for s in tracer.spans]
        assert {"models.assembly", "linalg.eig", "dynamics.evolve_spectral"} <= set(names)
        assert names.count("observables.mi") == 1
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
