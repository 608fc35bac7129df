"""Spans and counts around calls into the package's layers (traced runs only).

``Tracer.install`` replaces, for the life of the process, each instrumented
public function of ``atomcavity`` (wherever a module holds a reference to
it) and the two scipy entry points the package reaches the heavy kernels
through: ``scipy.sparse.linalg.eigs`` (shift-invert) and the ``splu`` that
scipy's BDF integrator factorizes with.  Each call records one span - name,
start, end, parent span, and the operation it belongs to.  Spans stay in
memory; ``write`` dumps them as JSON when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import scipy.integrate._ivp.bdf as bdf
import scipy.sparse.linalg as spla

from atomcavity import dynamics, linalg, models, observables, scenarios

#: (module, function name, span name) of every instrumented package function
FUNCTIONS = (
    (scenarios, "run_scenario", "scenarios.run_scenario"),
    (linalg, "eig_general", "linalg.eig"),
    (linalg, "integrate_ode", "linalg.ode"),
    (dynamics, "evolve_spectral", "dynamics.evolve_spectral"),
    (dynamics, "steady_state", "dynamics.steady_state"),
    (dynamics, "converged_cutoff_for_gap", "dynamics.truncation"),
    (observables, "atomic_mutual_information", "observables.mi"),
    (observables, "mutual_information", "observables.mi"),
) + tuple(
    (models, name, "models.assembly")
    for name in dir(models)
    if name.startswith("build_")
)

#: per-layer metrics: name -> unit
METRICS = {
    "models.assembly_s": "s",
    "models.liouvillians": "count",
    "linalg.eig_s": "s",
    "linalg.eig_calls": "count",
    "linalg.eig_dim_max": "count",
    "linalg.ode_s": "s",
    "dynamics.rhs_calls": "count",
    "dynamics.rhs_s": "s",
    "dynamics.lu_factorizations": "count",
    "dynamics.lu_s": "s",
    "dynamics.lu_solves": "count",
    "dynamics.lu_solve_s": "s",
    "dynamics.evolve_spectral_s": "s",
    "dynamics.steady_state_s": "s",
    "dynamics.truncation_s": "s",
    "dynamics.truncation_cutoffs": "count",
    "spectra.shift_invert_s": "s",
    "spectra.shift_invert_calls": "count",
    "spectra.shift_invert_dim_max": "count",
    "observables.mi_s": "s",
    "observables.mi_samples": "count",
    "scenarios.write_s": "s",
    "traced.run_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._undo: list = []
        self.op: str = ""
        self.round: int = 0

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args=(), kwargs=None, **attrs):
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "op": self.op,
            "round": self.round,
            **attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, attrs=lambda *a, **k: {}):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, **attrs(*args, **kwargs))

        return traced

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every module-level reference to ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name.startswith("atomcavity") or mod_name == "workloads"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module, fname, span in FUNCTIONS:
            original = getattr(module, fname)
            if span == "linalg.eig":
                wrapped = self._wrap(span, original, lambda m, *a, **k: {"dim": int(m.shape[0])})
            else:
                wrapped = self._wrap(span, original)
            self._replace_everywhere(original, wrapped)

        for name, runner in list(scenarios.RUNNERS.items()):
            self._set_item(scenarios.RUNNERS, name, self._wrap("scenarios.runner", runner))

        sup_cls = models.Superoperator
        tracer = self

        def assembling(method):
            cache = "_dense" if method.__name__ == "as_dense" else "_sparse"

            @functools.wraps(method)
            def traced(self_, *args, **kwargs):
                if getattr(self_, cache) is not None:
                    return method(self_, *args, **kwargs)
                return tracer.call("models.assembly", method, (self_,) + args, kwargs,
                                   liouvillian=True, dim=self_.dim)

            return traced

        self._set(sup_cls, "as_dense", assembling(sup_cls.as_dense))
        self._set(sup_cls, "as_sparse", assembling(sup_cls.as_sparse))
        self._set(sup_cls, "apply", self._wrap("dynamics.rhs", sup_cls.apply))

        eigs = spla.eigs

        @functools.wraps(eigs)
        def traced_eigs(a, *args, **kwargs):
            if kwargs.get("sigma") is None:
                return eigs(a, *args, **kwargs)
            return self.call("spectra.shift_invert", eigs, (a,) + args, kwargs, dim=int(a.shape[0]))

        self._set(spla, "eigs", traced_eigs)

        splu = bdf.splu

        @functools.wraps(splu)
        def traced_splu(*args, **kwargs):
            return _TracedLU(self, self.call("dynamics.lu", splu, args, kwargs))

        self._set(bdf, "splu", traced_splu)

    def _set_item(self, mapping: dict, key, value) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- reduction ---------------------------------------------------------

    def round_metrics(self, rnd: int, run_s: float, op: str | None = None) -> dict[str, float]:
        """Per-layer metrics of one round (or of one operation in it).

        A time is the summed duration of the outermost spans of that name
        (a span nested in one of the same name is not counted twice); it
        includes the instrumented layers it calls.
        """
        by_id = {s["id"]: s for s in self.spans}

        def ancestors(span):
            p = span["parent"]
            while p is not None:
                yield by_id[p]
                p = by_id[p]["parent"]

        spans = [s for s in self.spans if s["round"] == rnd and op in (None, s["op"])]
        outer = [s for s in spans if all(a["name"] != s["name"] for a in ancestors(s))]

        def total(name):
            return float(sum(s["end"] - s["start"] for s in outer if s["name"] == name))

        def count(name):
            return sum(1 for s in outer if s["name"] == name)

        def dim_max(name):
            return max((s["dim"] for s in spans if s["name"] == name), default=0)

        children = {}
        for s in spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        write_s = sum(
            (s["end"] - s["start"]) - sum(c["end"] - c["start"] for c in children.get(s["id"], []))
            for s in outer if s["name"] == "scenarios.run_scenario"
        )
        return {
            "models.assembly_s": total("models.assembly"),
            "models.liouvillians": sum(1 for s in spans if s.get("liouvillian")),
            "linalg.eig_s": total("linalg.eig"),
            "linalg.eig_calls": count("linalg.eig"),
            "linalg.eig_dim_max": dim_max("linalg.eig"),
            "linalg.ode_s": total("linalg.ode"),
            "dynamics.rhs_calls": count("dynamics.rhs"),
            "dynamics.rhs_s": total("dynamics.rhs"),
            "dynamics.lu_factorizations": count("dynamics.lu"),
            "dynamics.lu_s": total("dynamics.lu"),
            "dynamics.lu_solves": count("dynamics.lu_solve"),
            "dynamics.lu_solve_s": total("dynamics.lu_solve"),
            "dynamics.evolve_spectral_s": total("dynamics.evolve_spectral"),
            "dynamics.steady_state_s": total("dynamics.steady_state"),
            "dynamics.truncation_s": total("dynamics.truncation"),
            "dynamics.truncation_cutoffs": sum(
                1 for s in spans
                if s["name"] == "models.assembly" and not s.get("liouvillian")
                and any(a["name"] == "dynamics.truncation" for a in ancestors(s))
                and all(a["name"] != "models.assembly" for a in ancestors(s))
            ),
            "spectra.shift_invert_s": total("spectra.shift_invert"),
            "spectra.shift_invert_calls": count("spectra.shift_invert"),
            "spectra.shift_invert_dim_max": dim_max("spectra.shift_invert"),
            "observables.mi_s": total("observables.mi"),
            "observables.mi_samples": count("observables.mi"),
            "scenarios.write_s": float(write_s),
            "traced.run_s": run_s,
        }

    def write(self, path: Path, rounds: list[dict[str, float]]) -> None:
        """Dump the spans, the per-round metrics and, for the first round,
        the metrics of each operation on its own."""
        path.parent.mkdir(parents=True, exist_ok=True)
        ops = dict.fromkeys(s["op"] for s in self.spans if s["round"] == 0)
        payload = {
            "rounds": rounds,
            "first_round_by_operation": {
                op: self.round_metrics(0, sum(
                    s["end"] - s["start"] for s in self.spans
                    if s["round"] == 0 and s["op"] == op and s["name"] == "bench.operation"
                ), op)
                for op in ops
            },
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


class _TracedLU:
    """A SuperLU factorization whose ``solve`` calls are recorded."""

    def __init__(self, tracer: Tracer, lu) -> None:
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        return self._tracer.call("dynamics.lu_solve", self._lu.solve, args, kwargs)
