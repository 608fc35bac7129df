"""The benchmark's workloads: operations on the package and their output checks.

Each operation drives the package through a public entry point, normally
``scenarios.run_scenario`` with a config restricted to one parameter point
(so artifact writing is included), and is then checked against
``reference`` - never against the package's own analytic columns.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from atomcavity import models, spectra
from atomcavity.models import ModelParams, vectorize
from atomcavity.operators import make_space
from atomcavity.scenarios import ScenarioConfig, run_scenario

WORKLOADS = ("thermal-ode", "coherent-dense", "gap-sweep")

#: |MI_exact - MI_reference| allowed beyond kappa*t > 10, in bits
MI_EXACT_TOL = 2e-2
#: |MI_effective - MI_reference| allowed at every sample, in bits
MI_EFFECTIVE_TOL = 1e-6


@dataclass
class Operation:
    """One unit of benchmarked work.

    ``run(outdir)`` executes it; ``check(outdir, result)`` returns the list of
    problems found in its outputs (empty when correct).  ``known_fault``
    names a defect of the program that makes this operation fail on every
    run; such a failure is counted but does not make the run incorrect.
    """

    name: str
    run: Callable[[Path], object]
    check: Callable[[Path, object], list[str]]
    known_fault: str = ""
    # values other operations of the round compare against
    record: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# artifact readers
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> dict[str, list]:
    """Columns of a scenario CSV; numeric cells become floats."""
    columns: list[str] = []
    rows: list[list[str]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# columns: "):
            columns = line[len("# columns: "):].split(",")
        elif line and not line.startswith("#"):
            rows.append(line.split(","))
    out: dict[str, list] = {}
    for i, name in enumerate(columns):
        cells = [r[i] for r in rows]
        try:
            out[name] = [float(c) for c in cells]
        except ValueError:
            out[name] = cells
    return out


#: the ``seeds`` value of a scenario config that no benchmark seed reaches
DEFAULT_SCENARIO_SEED = ScenarioConfig.__dataclass_fields__["seeds"].default


def _artifacts(outdir: Path, scenario: str, seed: int) -> tuple[dict[str, list], dict]:
    csv = read_csv(outdir / f"{scenario}.csv")
    if set(csv["seed"]) != {seed}:
        raise ValueError(f"seed column {sorted(set(csv['seed']))} != [{seed}]")
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    return csv, summary["summary"]


def _scenario_run(scenario: str, params: dict, cutoff, seed: int, time_grid: dict | None = None):
    def run(outdir: Path) -> int:
        config = ScenarioConfig(
            scenario=scenario,
            params=params,
            cutoff=cutoff,
            time_grid=dict(time_grid or {}),
            output=str(outdir),
            seeds=seed,
        )
        code = run_scenario(config, quiet=True)
        if code != 0:
            raise RuntimeError(f"run_scenario returned exit code {code}")
        return code

    return run


def _grid(t_max: float, points: int, t_min: float) -> np.ndarray:
    """The log grid the scenarios sample: 0, then log-uniform to t_max."""
    body = np.logspace(math.log10(t_min), math.log10(t_max), points)
    body[-1] = t_max
    return np.concatenate(([0.0], body))


def _grid_problems(t, grid: np.ndarray) -> list[str]:
    t = np.asarray(t)
    if t.shape != grid.shape or not np.allclose(t, grid, rtol=1e-12, atol=0.0):
        return [f"time column ({t.size} samples) differs from the requested grid"]
    return []


def _curve_problems(
    label: str, t: np.ndarray, values: np.ndarray, reference: np.ndarray, tol: float, t_from: float
) -> list[str]:
    sel = t > t_from
    if not np.all(np.isfinite(values[sel])):
        return [f"{label}: non-finite values"]
    dev = float(np.abs(values[sel] - reference[sel]).max())
    if dev > tol:
        return [f"{label}: max deviation {dev:.3e} bits from the reference > {tol:.0e}"]
    return []


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def mi_coherent(g0: float, eps: float, cutoff="auto", t_min_scale: float = 1.0,
                known_fault: str = "", seed: int = DEFAULT_SCENARIO_SEED) -> Operation:
    tau = (2.0 * eps) ** 2
    t_max, points, t_min = 30.0 * tau, 140, 0.1 * t_min_scale
    grid = _grid(t_max, points, t_min)

    def check(outdir: Path, _result) -> list[str]:
        csv, _ = _artifacts(outdir, "mi-coherent", seed)
        t = np.array(csv["t"])
        if problems := _grid_problems(t, grid):
            return problems
        curve = ref.mi_curve(ref.coherent_generator(g0, eps), t)
        eff = np.array(csv["mi_effective"])
        problems = _curve_problems("mi_exact", t, np.array(csv["mi_exact"]), curve, MI_EXACT_TOL, 10.0)
        problems += _curve_problems("mi_effective", t, eff, curve, MI_EFFECTIVE_TOL, -1.0)
        if abs(eff[-1] - ref.COHERENT_STEADY_MI) > MI_EFFECTIVE_TOL:
            problems.append(f"final mi_effective {eff[-1]:.9f} != 2 - log2(3)")
        return problems

    return Operation(
        f"mi-coherent g0={g0:g} eps={eps:g}",
        _scenario_run("mi-coherent", {"g0": [g0], "eps": [eps]}, cutoff, seed,
                      {"t_max": t_max, "points": points, "t_min": t_min}),
        check,
        known_fault,
    )


def mi_incoherent(g0: float, n_th: float, t_min_scale: float, seed: int) -> Operation:
    t_max, points, t_min = 5.0 / ref.gap_thermal(g0, n_th), 60, 1.0 * t_min_scale
    grid = _grid(t_max, points, t_min)

    def check(outdir: Path, _result) -> list[str]:
        csv, summary = _artifacts(outdir, "mi-incoherent", seed)
        t = np.array(csv["t"])
        if problems := _grid_problems(t, grid):
            return problems
        curve = ref.mi_curve(ref.thermal_generator(g0, n_th), t)
        problems = _curve_problems("mi_exact", t, np.array(csv["mi_exact"]), curve, MI_EXACT_TOL, 10.0)
        problems += _curve_problems(
            "mi_effective", t, np.array(csv["mi_effective"]), curve, MI_EFFECTIVE_TOL, -1.0)
        steady = summary["curves"][f"g0={g0:g},n_th={n_th:g}"]["steady_mi_effective"]
        want = ref.thermal_steady_mi(n_th)
        if abs(steady - want) > MI_EFFECTIVE_TOL:
            problems.append(f"steady_mi_effective {steady:.9f} != triplet Gibbs {want:.9f}")
        return problems

    return Operation(
        f"mi-incoherent g0={g0:g} n_th={n_th:g}",
        _scenario_run("mi-incoherent", {"g0": [g0], "n_th": [n_th]}, "auto", seed,
                      {"t_max": t_max, "points": points, "t_min": t_min}),
        check,
    )


def real_detector(case: str, gamma: float, cutoff, t_max: float, points: int,
                  t_min: float, seed: int) -> Operation:
    grid = _grid(t_max, points, t_min)

    def check(outdir: Path, _result) -> list[str]:
        csv, summary = _artifacts(outdir, "real-detector", seed)
        mi = np.array(csv["mi"])
        steady = summary["steady"][f"{case},gamma={gamma:g}"]
        problems = _grid_problems(csv["t"], grid)
        if not np.all(np.isfinite(mi)) or mi.min() < 0.0 or mi.max() > 2.0:
            problems.append("mutual information outside [0, 2] bits")
        elif abs(steady["peak_mi"] - mi.max()) > 1e-12:
            problems.append("summary peak_mi differs from the CSV maximum")
        if not steady["peak_mi"] > 1e-2:
            problems.append(f"peak MI {steady['peak_mi']:.3e} <= 1e-2")
        if not steady["steady_mi"] < 1e-3:
            problems.append(f"steady MI {steady['steady_mi']:.3e} >= 1e-3")
        return problems

    return Operation(
        f"real-detector {case} gamma={gamma:g}",
        _scenario_run("real-detector", {"case": [case], "gamma": [gamma]}, cutoff, seed,
                      {"t_max": t_max, "points": points, "t_min": t_min}),
        check,
    )


def dense_analyze(g0: float, eps: float, cutoff: int, known_fault: str = "") -> Operation:
    def run(_outdir: Path):
        sup = vectorize(models.build_coherent_displaced(make_space(cutoff), ModelParams(g0=g0, eps=eps)),
                        materialize=False)
        return spectra.analyze(sup)

    def check(_outdir: Path, rep) -> list[str]:
        problems = []
        if rep.partial:
            problems.append("report is partial; expected the dense path")
        if rep.kernel_dim != 2:
            problems.append(f"kernel_dim {rep.kernel_dim} != 2")
        want = ref.gap_coherent(eps)
        if abs(rep.gap - want) > 1e-2 * want:
            problems.append(f"gap {rep.gap:.6e} not within 1% of 1/(2 eps)^2 = {want:.6e}")
        return problems

    return Operation(f"analyze dense g0={g0:g} eps={eps:g} cutoff={cutoff}", run, check, known_fault)


def _gap_row(outdir: Path, scenario: str, seed: int) -> dict:
    csv, _ = _artifacts(outdir, scenario, seed)
    if len(csv["g0"]) != 1:
        raise ValueError(f"{scenario}: {len(csv['g0'])} rows, expected 1")
    return {k: v[0] for k, v in csv.items()}


def gap_incoherent(g0: float, n_th: float, seed: int) -> Operation:
    def check(outdir: Path, _result) -> list[str]:
        row = _gap_row(outdir, "gap-incoherent", seed)
        want = ref.gap_thermal(g0, n_th)
        problems = []
        if row["kernel_dim"] != 2:
            problems.append(f"kernel_dim {row['kernel_dim']:g} != 2")
        if not abs(row["gap_exact"] - want) <= 0.1 * want:
            problems.append(f"gap {row['gap_exact']:.6e} not within 10% of 2 n_th g0^2 = {want:.6e}")
        return problems

    return Operation(f"gap-incoherent g0={g0:g} n_th={n_th:g}",
                     _scenario_run("gap-incoherent", {"g0": [g0], "n_th": [n_th]}, "auto", seed), check)


def gap_coherent(g0: float, eps: float, seed: int, cutoff="auto", tol: float = 1e-2) -> Operation:
    op = Operation(f"gap-coherent g0={g0:g} eps={eps:g}",
                   _scenario_run("gap-coherent", {"g0": [g0], "eps": [eps]}, cutoff, seed), None)

    def check(outdir: Path, _result) -> list[str]:
        row = _gap_row(outdir, "gap-coherent", seed)
        want = ref.gap_coherent(eps)
        err = abs(row["gap_exact"] - want) / want
        op.record["rel_error"] = err
        problems = []
        if row["kernel_dim"] != 2:
            problems.append(f"kernel_dim {row['kernel_dim']:g} != 2")
        if not err <= tol:
            problems.append(f"gap {row['gap_exact']:.6e} off 1/(2 eps)^2 = {want:.6e} by {err:.2e} > {tol:g}")
        return problems

    op.check = check
    return op


def second_rate(g0: float, eps: float, seed: int) -> Operation:
    def check(outdir: Path, _result) -> list[str]:
        row = _gap_row(outdir, "second-rate-coherent", seed)
        want = ref.lambda3(g0, eps)
        if not abs(row["second_rate_exact"] - want) <= 1e-2 * want:
            return [f"second rate {row['second_rate_exact']:.6e} not within 1% of "
                    f"4 Gamma_g0 + 2 Gamma_eps = {want:.6e}"]
        return []

    return Operation(f"second-rate-coherent g0={g0:g} eps={eps:g}",
                     _scenario_run("second-rate-coherent", {"g0": [g0], "eps": [eps]}, "auto", seed), check)


DEFECT_1 = ("zgeev returns the kernel eigenvalues as ~1e-13 instead of 0; "
            "evolve_spectral's invariant check trips at kappa*t ~ 1e6")
DEFECT_2 = ("dense analyze's zero threshold (1e-9 x spectral radius) exceeds the "
            "physical gap 2.5e-7: kernel_dim 6, gap 0.0625")


def build(workload: str, seed: int, smoke: bool = False) -> tuple[list[Operation], Callable]:
    """Operations of one round and the round-level check (called with the
    operations after they ran).

    The seed is every passing scenario's ``seeds`` value, which each CSV row
    records, and it moves the first sample time of every passing trajectory
    by a factor in [1/2, 2] (seed 0: the scenarios' default grids).  Neither
    changes the amount of work: the parameter points, cutoffs, final times
    and the order stay fixed.  The two known-fault operations never take it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    scale = 1.0 if seed == 0 else 2.0 ** random.Random(seed).uniform(-1.0, 1.0)
    round_check = lambda ops: []  # noqa: E731
    if smoke:
        ops = {
            "thermal-ode": [mi_incoherent(0.01, 0.5, scale, seed)],
            "coherent-dense": [mi_coherent(0.25, 10.0, 4, scale, seed=seed)],
            "gap-sweep": [gap_coherent(0.25, 100.0, seed, cutoff=8)],
        }[workload]
    elif workload == "thermal-ode":
        ops = [
            real_detector("incoherent", 1e-3, 40, 2.0e4, 70, 0.5 * scale, seed),
            mi_incoherent(0.01, 3.0, scale, seed),
        ]
    elif workload == "coherent-dense":
        ops = [
            mi_coherent(0.25, 10.0, t_min_scale=scale, seed=seed),
            mi_coherent(0.25, 100.0, t_min_scale=scale, seed=seed),
            mi_coherent(0.25, 1000.0, known_fault=DEFECT_1),
            real_detector("coherent", 1e-3, "auto", 1.0e5, 100, 0.5 * scale, seed),
            dense_analyze(0.25, 1000.0, 8, known_fault=DEFECT_2),
        ]
    else:
        # the displaced-model gap approaches 1/(2 eps)^2 as 1/eps^2 (2.3% off
        # at eps = 10), so the 1% tolerance applies from eps = 100 on
        coherent = [gap_coherent(0.25, 10.0, seed, tol=0.05), gap_coherent(0.25, 100.0, seed),
                    gap_coherent(0.25, 1000.0, seed)]
        ops = [gap_incoherent(0.1, n, seed) for n in (0.5, 1.9, 4.0)]
        ops += coherent + [second_rate(0.25, 100.0, seed), second_rate(0.25, 1000.0, seed)]

        def round_check(_ops) -> list[str]:
            e100 = coherent[1].record.get("rel_error")
            e1000 = coherent[2].record.get("rel_error")
            if e100 is None or e1000 is None:
                return []  # the failed operation is already counted
            if not e100 >= 50.0 * e1000:
                return [f"coherent gap error falls only {e100 / e1000:.1f}x from eps=100 to 1000 (< 50x)"]
            return []

    return ops, round_check
