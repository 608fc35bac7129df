"""Named experiments behind the CLI: figure-style sweeps and the verify suite.

Every scenario writes one CSV (17-significant-digit floats, fully resolved
parameters on every row), a ``summary.json`` mirroring the derived numbers,
a generated ``SCHEMA.md`` documenting the columns, and optional SVG plots.
All rates and times are in units of kappa (kappa = 1).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import dynamics as dyn
from . import models, observables as obs, spectra, verify
from .models import ModelParams, vectorize
from .operators import atomic_space, make_space

SCENARIOS = (
    "gap-coherent",
    "second-rate-coherent",
    "mi-coherent",
    "gap-incoherent",
    "mi-incoherent",
    "real-detector",
    "verify",
)

UNITS_HEADER = "# units: all rates and times in units of kappa (kappa = 1)"

_PARAM_COLUMNS = ["g0", "eps", "n_th", "gamma", "cutoff", "seed"]

#: CSV columns of every scenario, in file order
COLUMNS: dict[str, list[str]] = {
    "gap-coherent": _PARAM_COLUMNS + ["gap_exact", "gap_analytic", "rel_error", "kernel_dim"],
    "second-rate-coherent": _PARAM_COLUMNS + ["second_rate_exact", "lambda3_analytic", "rel_error"],
    "mi-coherent": _PARAM_COLUMNS + ["t", "mi_exact", "mi_effective"],
    "gap-incoherent": _PARAM_COLUMNS + ["gap_exact", "gap_analytic", "rel_error", "kernel_dim"],
    "mi-incoherent": _PARAM_COLUMNS + ["t", "mi_exact", "mi_effective"],
    "real-detector": ["case"] + _PARAM_COLUMNS + ["t", "mi"],
    "verify": ["criterion", "passed", "seconds", "details"],
}


@dataclass
class ScenarioConfig:
    """Resolved run configuration (defaults per scenario, file/flags override)."""

    scenario: str
    params: dict = field(default_factory=dict)
    cutoff: int | str = "auto"
    time_grid: dict = field(default_factory=dict)
    output: str = "out"
    seeds: int = 20260810
    workers: int = 1
    exact_cutoff_cap: int = 80

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        for key, axis in self.params.items():
            if isinstance(axis, (str, int, float)):
                continue  # scalar axes are always non-empty
            values = _resolve_axis(axis) if isinstance(axis, dict) else list(axis)
            if not values:
                raise ValueError(f"parameter range {key!r} is empty")
        tg = self.time_grid
        if tg:
            if tg.get("t_max", 1.0) <= 0.0:
                raise ValueError("time_grid.t_max must be positive")
            if tg.get("points", 2) < 2:
                raise ValueError("time_grid.points must be >= 2")
        if self.cutoff != "auto" and (not isinstance(self.cutoff, int) or self.cutoff < 1):
            raise ValueError("cutoff must be 'auto' or a positive integer")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def _resolve_axis(axis) -> list[float]:
    """A parameter axis: scalar, explicit list, or {log|lin: [lo, hi, n]}."""
    if isinstance(axis, (int, float)):
        return [float(axis)]
    if isinstance(axis, dict):
        if "log" in axis:
            lo, hi, n = axis["log"]
            return list(np.logspace(math.log10(lo), math.log10(hi), int(n)))
        if "lin" in axis:
            lo, hi, n = axis["lin"]
            return list(np.linspace(lo, hi, int(n)))
        raise ValueError(f"unknown axis form {axis!r}")
    return [float(v) for v in axis]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, scenario: str, columns: list[str], rows: list[dict]) -> None:
    lines = [UNITS_HEADER, f"# scenario: {scenario}", "# columns: " + ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _time_grid_from(config: ScenarioConfig, t_max: float, points: int, t_min: float) -> np.ndarray:
    tg = config.time_grid
    return dyn.time_grid(
        float(tg.get("t_max", t_max)),
        int(tg.get("points", points)),
        spacing=str(tg.get("spacing", "log")),
        t_min=float(tg.get("t_min", t_min)),
    )


def _map_points(fn: Callable, points: list, workers: int) -> list:
    if workers <= 1 or len(points) <= 1:
        return [fn(pt) for pt in points]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, points))


def _auto_cutoff_displaced(p: ModelParams, config: ScenarioConfig) -> int:
    if config.cutoff != "auto":
        return int(config.cutoff)
    return dyn.converged_cutoff_for_gap(models.build_coherent_displaced, p)[0]


def _thermal_cutoff(n_th: float) -> int:
    """Thermal runs need several times n_th Fock states; round up to 4."""
    return int(4 * math.ceil((8 + 5.0 * n_th) / 4))


def _gap_point(
    builder: Callable, p: ModelParams, config: ScenarioConfig, k: int
) -> tuple[int, spectra.SpectrumReport]:
    """Cutoff and targeted spectrum report of one gap-scenario point.

    Under ``auto`` the report is the one the truncation sweep solved at the
    converged cutoff.
    """
    if config.cutoff == "auto":
        return dyn.converged_cutoff_for_gap(builder, p, k=k)
    cutoff = int(config.cutoff)
    sup = vectorize(builder(make_space(cutoff), p), materialize=False)
    return cutoff, spectra.analyze(sup, k=k)


def _base_row(p: ModelParams, cutoff, seed: int) -> dict:
    return {
        "g0": p.g0,
        "eps": p.eps,
        "n_th": p.n_th,
        "gamma": p.gamma,
        "cutoff": cutoff,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# scenario implementations
# ---------------------------------------------------------------------------


def run_gap_coherent(config: ScenarioConfig) -> tuple[list[dict], dict]:
    g0s = _resolve_axis(config.params.get("g0", [0.125, 0.25, 0.5]))
    epss = _resolve_axis(config.params.get("eps", {"log": [1.0, 1000.0, 7]}))
    points = [(g0, eps) for g0 in g0s for eps in epss]

    def one(pt):
        g0, eps = pt
        p = ModelParams(g0=g0, eps=eps)
        cutoff, rep = _gap_point(models.build_coherent_displaced, p, config, k=24)
        ana = spectra.gap_coherent(p)
        row = _base_row(p, cutoff, config.seeds)
        row.update(
            gap_exact=rep.gap,
            gap_analytic=ana,
            rel_error=abs(rep.gap - ana) / ana,
            kernel_dim=rep.kernel_dim,
        )
        return row

    rows = _map_points(one, points, config.workers)
    rows.sort(key=lambda r: (r["g0"], r["eps"]))
    summary = {
        "worst_rel_error_at_max_eps": max(
            r["rel_error"] for r in rows if r["eps"] == max(epss)
        ),
        "gaps": {f"g0={r['g0']:g},eps={r['eps']:g}": r["gap_exact"] for r in rows},
    }
    return rows, summary


def run_second_rate_coherent(config: ScenarioConfig) -> tuple[list[dict], dict]:
    g0s = _resolve_axis(config.params.get("g0", [0.125, 0.25, 0.5]))
    epss = _resolve_axis(config.params.get("eps", [10.0, 30.0, 100.0, 300.0, 1000.0]))
    points = [(g0, eps) for g0 in g0s for eps in epss]

    def one(pt):
        g0, eps = pt
        p = ModelParams(g0=g0, eps=eps)
        cutoff = _auto_cutoff_displaced(p, config)
        sup = vectorize(models.build_coherent_displaced(make_space(cutoff), p), materialize=False)
        # the lambda3 family rotates at 2*Omega in the displaced frame
        w = spectra.slowest_eigenvalues(sup, 4, k=10, sigma=1e-3 + 2j * p.omega)
        rate = float(np.min(-w.real))
        ana = spectra.coherent_lambda3(p)
        row = _base_row(p, cutoff, config.seeds)
        row.update(second_rate_exact=rate, lambda3_analytic=ana, rel_error=abs(rate - ana) / ana)
        return row

    rows = _map_points(one, points, config.workers)
    rows.sort(key=lambda r: (r["g0"], r["eps"]))
    return rows, {"worst_rel_error": max(r["rel_error"] for r in rows)}


def run_mi_coherent(config: ScenarioConfig) -> tuple[list[dict], dict]:
    g0s = _resolve_axis(config.params.get("g0", [0.25]))
    epss = _resolve_axis(config.params.get("eps", [10.0, 100.0, 1000.0]))
    rows: list[dict] = []
    summary: dict = {"curves": {}}
    for g0 in g0s:
        for eps in epss:
            p = ModelParams(g0=g0, eps=eps)
            cutoff = _auto_cutoff_displaced(p, config)
            tau = spectra.tau_coherent(p)
            grid = _time_grid_from(config, t_max=30.0 * tau, points=140, t_min=0.1)
            space = make_space(cutoff)
            mi_exact = obs.mi_curve(
                models.build_coherent_displaced(space, p), dyn.ground_state(space), grid
            )
            mi_eff = obs.mi_curve(
                models.build_effective_coherent(p), dyn.ground_state(atomic_space()), grid
            )
            for t, mx, me_ in zip(grid, mi_exact, mi_eff):
                row = _base_row(p, cutoff, config.seeds)
                row.update(t=float(t), mi_exact=float(mx), mi_effective=float(me_))
                rows.append(row)
            plateaus = dyn.detect_plateau(grid, mi_exact)
            summary["curves"][f"g0={g0:g},eps={eps:g}"] = {
                "tau_coherent": tau,
                "plateau_windows": plateaus,
                "final_mi": float(mi_exact[-1]),
            }
    return rows, summary


def run_gap_incoherent(config: ScenarioConfig) -> tuple[list[dict], dict]:
    g0s = _resolve_axis(config.params.get("g0", [0.1, 0.2, 0.3]))
    n_ths = _resolve_axis(config.params.get("n_th", {"lin": [0.5, 4.0, 6]}))
    points = [(g0, n) for g0 in g0s for n in n_ths]

    def one(pt):
        g0, n_th = pt
        p = ModelParams(g0=g0, n_th=n_th)
        cutoff, rep = _gap_point(models.build_incoherent, p, config, k=16)
        ana = spectra.gap_incoherent(p)
        row = _base_row(p, cutoff, config.seeds)
        row.update(
            gap_exact=rep.gap,
            gap_analytic=ana,
            rel_error=abs(rep.gap - ana) / max(ana, 1e-300),
            kernel_dim=rep.kernel_dim,
        )
        return row

    rows = _map_points(one, points, config.workers)
    rows.sort(key=lambda r: (r["g0"], r["n_th"]))
    return rows, {"worst_rel_error": max(r["rel_error"] for r in rows)}


def run_mi_incoherent(config: ScenarioConfig) -> tuple[list[dict], dict]:
    g0s = _resolve_axis(config.params.get("g0", [0.01]))
    n_ths = _resolve_axis(config.params.get("n_th", [1.0, 3.0, 10.0]))
    rows: list[dict] = []
    summary: dict = {"curves": {}}
    for g0 in g0s:
        for n_th in n_ths:
            p = ModelParams(g0=g0, n_th=n_th)
            gap = spectra.gap_incoherent(p)
            grid = _time_grid_from(config, t_max=5.0 / gap, points=60, t_min=1.0)
            cutoff = _thermal_cutoff(n_th) if config.cutoff == "auto" else int(config.cutoff)
            run_exact = cutoff <= config.exact_cutoff_cap
            if run_exact:
                space = make_space(cutoff)
                sup = vectorize(models.build_incoherent(space, p), materialize=False)
                traj = dyn.evolve_ode(sup, dyn.ground_state(space), grid)
                mi_exact = traj.observable(obs.atomic_mutual_information)
            else:
                mi_exact = np.full(grid.size, np.nan)
            mi_eff = obs.mi_curve(
                models.build_effective_incoherent(p), dyn.ground_state(atomic_space()), grid
            )
            for t, mx, me_ in zip(grid, mi_exact, mi_eff):
                row = _base_row(p, cutoff if run_exact else "effective-only", config.seeds)
                row.update(t=float(t), mi_exact=float(mx), mi_effective=float(me_))
                rows.append(row)
            ss = dyn.steady_state(vectorize(models.build_effective_incoherent(p)),
                                  dyn.ground_state(atomic_space()))
            summary["curves"][f"g0={g0:g},n_th={n_th:g}"] = {
                "tau_incoherent": 1.0 / gap,
                "steady_mi_effective": float(obs.mutual_information(ss)),
                "exact_run": bool(run_exact),
            }
    return rows, summary


def run_real_detector(config: ScenarioConfig) -> tuple[list[dict], dict]:
    gammas = _resolve_axis(config.params.get("gamma", [1e-3, 1e-4, 1e-5, 0.0]))
    cases = config.params.get("case", ["coherent", "incoherent"])
    if isinstance(cases, str):
        cases = [cases]
    rows: list[dict] = []
    summary: dict = {"steady": {}}
    for case in cases:
        for gamma in gammas:
            if case == "coherent":
                p = ModelParams(g0=0.1, eps=math.sqrt(10.0), gamma=gamma)
                cutoff = 8 if config.cutoff == "auto" else int(config.cutoff)
                space = make_space(cutoff)
                me = models.build_full_displaced(space, p)
                grid = _time_grid_from(config, t_max=1.0e5, points=100, t_min=0.5)
                mi = obs.mi_curve(me, dyn.ground_state(space), grid)
                sup = vectorize(me, materialize=False)
            elif case == "incoherent":
                p = ModelParams(g0=0.1, eps=0.0, n_th=10.0, gamma=gamma)
                if config.cutoff == "auto":
                    cutoff = min(_thermal_cutoff(p.n_th), config.exact_cutoff_cap)
                else:
                    cutoff = int(config.cutoff)
                space = make_space(cutoff)
                me = models.build_full(space, p)
                sup = vectorize(me, materialize=False)
                grid = _time_grid_from(config, t_max=1.0e5, points=70, t_min=0.5)
                traj = dyn.evolve_ode(sup, dyn.ground_state(space), grid)
                mi = traj.observable(obs.atomic_mutual_information)
            else:
                raise ValueError(f"unknown case {case!r}")
            for t, m in zip(grid, mi):
                row = _base_row(p, cutoff, config.seeds)
                row.update(case=case, t=float(t), mi=float(m))
                rows.append(row)
            ss = dyn.steady_state(sup, dyn.ground_state(space))
            summary["steady"][f"{case},gamma={gamma:g}"] = {
                "steady_mi": float(obs.atomic_mutual_information(ss)),
                "peak_mi": float(mi.max()),
                "kernel_unique": not me.conserved,
            }
    return rows, summary


def run_verify_scenario(config: ScenarioConfig) -> tuple[list[dict], dict]:
    results = verify.run_acceptance()
    rows = []
    for res in results:
        rows.append(
            {
                "criterion": res.name,
                "passed": int(res.passed),
                "seconds": res.seconds,
                "details": '"' + res.details.replace('"', "'") + '"',
            }
        )
    summary = {
        "all_passed": all(r.passed for r in results),
        "criteria": {r.name: {"passed": r.passed, "details": r.details} for r in results},
    }
    return rows, summary


RUNNERS: dict[str, Callable[[ScenarioConfig], tuple[list[dict], dict]]] = {
    "gap-coherent": run_gap_coherent,
    "second-rate-coherent": run_second_rate_coherent,
    "mi-coherent": run_mi_coherent,
    "gap-incoherent": run_gap_incoherent,
    "mi-incoherent": run_mi_incoherent,
    "real-detector": run_real_detector,
    "verify": run_verify_scenario,
}

SCHEMA_NOTES = {
    "gap-coherent": "Spectral gap of the displaced-frame driven model vs the "
    "closed-form gap; one row per (g0, eps) point.",
    "second-rate-coherent": "Third distinct decay rate (the 4*Gamma_g0 + "
    "2*Gamma_eps family, reached through the sector rotating at 2*Omega) vs "
    "its closed form; one row per (g0, eps) point.",
    "mi-coherent": "Atomic mutual information vs time for the exact displaced "
    "model and the effective atomic model; one row per time sample.",
    "gap-incoherent": "Spectral gap of the lab-frame thermal model vs "
    "2 n_th (g0/kappa)^2 kappa; one row per (g0, n_th) point.",
    "mi-incoherent": "Atomic mutual information vs time, exact lab-frame "
    "thermal model (where the cutoff fits the cap; otherwise NaN) and the "
    "effective model; one row per time sample.",
    "real-detector": "Mutual information vs time with atomic decay gamma for "
    "the driven (displaced frame) and thermal cases; one row per time sample.",
    "verify": "Acceptance matrix results, one row per criterion.",
}

SCHEMA_COLUMNS = {name: ",".join(cols) for name, cols in COLUMNS.items()}


def write_schema(outdir: Path) -> Path:
    lines = [
        "# Output schema",
        "",
        UNITS_HEADER.lstrip("# "),
        "",
        "Every CSV starts with comment lines (`# units: ...`, `# scenario: ...`,",
        "`# columns: ...`) followed by comma-separated rows; floats carry 17",
        "significant digits so files round-trip exactly.  Each row repeats the",
        "fully resolved parameter set - nothing is implicit.",
        "",
    ]
    for name in SCENARIOS:
        lines += [
            f"## {name}",
            "",
            SCHEMA_NOTES[name],
            "",
            f"Columns: `{SCHEMA_COLUMNS[name]}`",
            "",
        ]
    path = outdir / "SCHEMA.md"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def _plot(outdir: Path, scenario: str, columns: list[str], rows: list[dict]) -> Path | None:
    """Static SVG plot of the scenario output (line per parameter group)."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return None
    fig, ax = plt.subplots(figsize=(6, 4))
    if scenario in ("mi-coherent", "mi-incoherent", "real-detector"):
        ycol = "mi" if scenario == "real-detector" else "mi_exact"
        groups: dict[str, list] = {}
        for r in rows:
            key = ",".join(
                f"{k}={r[k]:g}" if isinstance(r[k], float) else f"{k}={r[k]}"
                for k in ("case", "g0", "eps", "n_th", "gamma")
                if k in r and not (isinstance(r[k], float) and r[k] == 0.0)
            )
            groups.setdefault(key, []).append((r["t"], r[ycol]))
        for key, pts in groups.items():
            pts = [(t, v) for t, v in pts if t > 0 and np.isfinite(v)]
            if pts:
                t, v = zip(*pts)
                ax.semilogx(t, v, label=key)
        ax.set_xlabel("kappa t")
        ax.set_ylabel("mutual information (bits)")
    elif scenario in ("gap-coherent", "second-rate-coherent", "gap-incoherent"):
        xcol = "n_th" if scenario == "gap-incoherent" else "eps"
        ycol = "gap_exact" if "gap" in scenario else "second_rate_exact"
        acol = "gap_analytic" if "gap" in scenario else "lambda3_analytic"
        groups = {}
        for r in rows:
            groups.setdefault(f"g0={r['g0']:g}", []).append((r[xcol], r[ycol], r[acol]))
        for key, pts in groups.items():
            x, y, a = zip(*sorted(pts))
            ax.loglog(x, y, "-o", label=key)
            ax.loglog(x, a, "k:", alpha=0.5)
        ax.set_xlabel(xcol)
        ax.set_ylabel(ycol + " / kappa")
    else:
        plt.close(fig)
        return None
    ax.legend(fontsize=7)
    fig.tight_layout()
    path = outdir / f"{scenario}.svg"
    fig.savefig(path, format="svg")
    plt.close(fig)
    return path


def run_scenario(config: ScenarioConfig, plot: bool = False, quiet: bool = False) -> int:
    """Execute a scenario and write its artifacts; returns the exit code."""
    config.validate()
    outdir = Path(config.output)
    outdir.mkdir(parents=True, exist_ok=True)
    rows, summary = RUNNERS[config.scenario](config)
    columns = COLUMNS[config.scenario]
    csv_path = outdir / f"{config.scenario}.csv"
    _write_csv(csv_path, config.scenario, columns, rows)
    summary_payload = {
        "scenario": config.scenario,
        "units": "all rates and times in units of kappa (kappa = 1)",
        "config": {
            "params": config.params,
            "cutoff": config.cutoff,
            "time_grid": config.time_grid,
            "seeds": config.seeds,
            "workers": config.workers,
        },
        "summary": summary,
    }
    (outdir / "summary.json").write_text(
        json.dumps(summary_payload, indent=2, sort_keys=True, default=float) + "\n",
        encoding="utf-8",
    )
    write_schema(outdir)
    if plot:
        _plot(outdir, config.scenario, columns, rows)
    if not quiet:
        print(f"wrote {csv_path}")
        if config.scenario == "verify":
            for row in rows:
                status = "PASS" if row["passed"] else "FAIL"
                print(f"{status}  {row['criterion']:28s} {row['seconds']:7.1f}s  {row['details'][1:-1]}")
    if config.scenario == "verify" and not summary["all_passed"]:
        return 1
    return 0
