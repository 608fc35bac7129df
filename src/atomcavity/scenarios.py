"""Named experiments behind the CLI: figure-style sweeps and the verify suite.

Every scenario writes one CSV (17-significant-digit floats, fully resolved
parameters on every row), a ``summary.json`` mirroring the derived numbers,
a generated ``SCHEMA.md`` documenting the columns, and optional SVG plots.
All rates and times are in units of kappa (kappa = 1).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import dynamics as dyn
from . import models, observables as obs, spectra, verify
from .models import ModelParams, Superoperator
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

#: parameter axes of every scenario, the only keys ``params`` may hold, each
#: with its default (for the real-detector ``case``, every valid case); points
#: run with the first axis outermost
AXES: dict[str, dict] = {
    "gap-coherent": {"g0": [0.125, 0.25, 0.5], "eps": {"log": [1.0, 1000.0, 7]}},
    "second-rate-coherent": {"g0": [0.125, 0.25, 0.5], "eps": [10.0, 30.0, 100.0, 300.0, 1000.0]},
    "mi-coherent": {"g0": [0.25], "eps": [10.0, 100.0, 1000.0]},
    "gap-incoherent": {"g0": [0.1, 0.2, 0.3], "n_th": {"lin": [0.5, 4.0, 6]}},
    "mi-incoherent": {"g0": [0.01], "n_th": [1.0, 3.0, 10.0]},
    "real-detector": {"case": ["coherent", "incoherent"], "gamma": [1e-3, 1e-4, 1e-5, 0.0]},
    "verify": {},
}

#: default time grid (t_max, points, t_min) of each time-resolved scenario at
#: one parameter point; the config's ``time_grid`` entries override it
GRIDS: dict[str, Callable[[dict], tuple[float, int, float]]] = {
    "mi-coherent": lambda pt: (
        30.0 * spectra.tau_coherent(ModelParams(g0=pt["g0"], eps=pt["eps"])), 140, 0.1
    ),
    "mi-incoherent": lambda pt: (
        5.0 / spectra.gap_incoherent(ModelParams(g0=pt["g0"], n_th=pt["n_th"])), 60, 1.0
    ),
    "real-detector": lambda pt: (1.0e5, 100 if pt["case"] == "coherent" else 70, 0.5),
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

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        axes = AXES[self.scenario]
        unknown = sorted(set(self.params) - set(axes))
        if unknown:
            raise ValueError(f"unknown parameters {unknown}; {self.scenario} axes: {sorted(axes)}")
        for key, axis in self.params.items():
            if key == "case":
                values = _cases(axis)
                bad = [c for c in values if c not in axes["case"]]
                if bad:
                    raise ValueError(f"unknown case {bad}; choose from {axes['case']}")
            else:
                values = _resolve_axis(axis)
                bad = [v for v in values
                       if not (math.isfinite(v) and (v > 0.0 or key == "gamma" and v == 0.0))]
                if bad:
                    raise ValueError(
                        f"parameter {key!r} takes finite values > 0 (gamma may be 0), got {bad}"
                    )
            if not values:
                raise ValueError(f"parameter range {key!r} is empty")
        tg = self.time_grid
        unknown = sorted(set(tg) - {"t_max", "points", "spacing", "t_min"})
        if unknown:
            raise ValueError(f"unknown time_grid keys {unknown}; use t_max, points, spacing, t_min")
        if _number(tg.get("t_max", 1.0)) <= 0.0:
            raise ValueError("time_grid.t_max must be positive")
        if not _is_int(tg.get("points", 2)) or tg.get("points", 2) < 2:
            raise ValueError(f"time_grid.points must be an integer >= 2, got {tg['points']!r}")
        if tg.get("spacing", "log") not in ("log", "linear"):
            raise ValueError("time_grid.spacing must be 'log' or 'linear'")
        # cutoff 1 keeps only the vacuum, where the annihilation operator is 0
        if self.cutoff != "auto" and (not _is_int(self.cutoff) or self.cutoff < 2):
            raise ValueError(f"cutoff must be 'auto' or an integer >= 2, got {self.cutoff!r}")
        if not _is_int(self.seeds):
            raise ValueError(f"seeds must be an integer, got {self.seeds!r}")
        if self.scenario in GRIDS:
            for point in _points(self):
                try:
                    _grid(self, point)
                except ZeroDivisionError as exc:  # a rate that underflows to 0
                    raise ValueError(f"no default time grid at {point}: {exc}") from exc


def _is_int(value) -> bool:
    """An integer count; JSON true/false load as bool, an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> float:
    """One numeric config value; true/false and strings are not numbers."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"config value {value!r} is not a number")
    return float(value)


def _resolve_axis(axis) -> list[float]:
    """A parameter axis: scalar, explicit list, or {log|lin: [lo, hi, n]}."""
    if isinstance(axis, (int, float)):
        return [_number(axis)]
    if isinstance(axis, dict):
        if "log" not in axis and "lin" not in axis:
            raise ValueError(f"unknown axis form {axis!r}")
        lo, hi, n = axis.get("log", axis.get("lin"))
        if not _is_int(n):
            raise ValueError(f"axis {axis!r} needs an integer point count")
        lo, hi = _number(lo), _number(hi)
        if "log" in axis:
            return list(np.logspace(math.log10(lo), math.log10(hi), n))
        return list(np.linspace(lo, hi, n))
    if isinstance(axis, str):  # a string would be read one character at a time
        raise ValueError(f"parameter axis {axis!r} is not a number, list or grid")
    return [_number(v) for v in axis]


def _cases(axis) -> list:
    """The real-detector ``case`` axis: one name or a list of names."""
    return [axis] if isinstance(axis, str) else list(axis)


def _points(config: ScenarioConfig) -> list[dict]:
    """Every parameter point of the config, each axis its default unless given."""
    axes = AXES[config.scenario]
    values = [
        (_cases if name == "case" else _resolve_axis)(config.params.get(name, default))
        for name, default in axes.items()
    ]
    return [dict(zip(axes, combo)) for combo in itertools.product(*values)]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, scenario: str, columns: list[str], rows: list[dict]) -> None:
    lines = [UNITS_HEADER, f"# scenario: {scenario}", "# columns: " + ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _grid(config: ScenarioConfig, point: dict) -> np.ndarray:
    """Time grid of one point: the scenario's default, overridden by the config."""
    t_max, points, t_min = GRIDS[config.scenario](point)
    tg = config.time_grid
    return dyn.time_grid(
        float(tg.get("t_max", t_max)),
        int(tg.get("points", points)),
        spacing=str(tg.get("spacing", "log")),
        t_min=_number(tg.get("t_min", t_min)),
    )


def _cutoff(config: ScenarioConfig, auto: Callable[[], int]) -> int:
    """The config's fixed cutoff, or the scenario's own choice ``auto()``,
    called only under ``--cutoff auto``."""
    return auto() if config.cutoff == "auto" else int(config.cutoff)


def _swept_cutoff(p: ModelParams) -> int:
    """The displaced model's converged cutoff for the gap at ``p``."""
    return dyn.converged_cutoff_for_gap(models.build_coherent_displaced, p)[0]


def _thermal_cutoff(n_th: float) -> int:
    """Thermal runs need several times n_th Fock states; round up to 4."""
    return int(4 * math.ceil((8 + 5.0 * n_th) / 4))


def _base_row(p: ModelParams, cutoff, seed: int) -> dict:
    return dict(g0=p.g0, eps=p.eps, n_th=p.n_th, gamma=p.gamma, cutoff=cutoff, seed=seed)


def _gap_rows(config: ScenarioConfig, builder: Callable, axis: str, k: int, analytic: Callable) -> list[dict]:
    """One row per point of a gap scenario, sorted by g0, then ``axis``,
    with the ``k`` slowest eigenvalues solved by shift-invert: under
    ``auto``, the truncation sweep's solve at its converged cutoff.  Each
    row carries its ``summary.solves`` entry under ``solve``: the solver
    and generator dimension behind its gap, the least rate bound of the
    sectors a certified solve left out (or whose bound its gap failed to
    clear before the fallback to all of G), and the (cutoff, gap) history
    of the sweep, empty at a fixed cutoff.
    """
    rows = []
    for pt in _points(config):
        p = ModelParams(g0=pt["g0"], **{axis: pt[axis]})
        if config.cutoff == "auto":
            cutoff, rep, history = dyn.converged_cutoff_for_gap(builder, p, k=k)
        else:
            cutoff, history = int(config.cutoff), []
            rep = spectra.analyze(Superoperator(builder(make_space(cutoff), p)), k=k)
        ana = analytic(p)
        solve = {"solver": rep.solver, "dim": rep.dim, "history": [[c, gap] for c, gap in history]}
        if rep.excluded_bound is not None:
            solve["excluded_bound"] = rep.excluded_bound
        row = _base_row(p, cutoff, config.seeds)
        row.update(
            gap_exact=rep.gap,
            gap_analytic=ana,
            rel_error=abs(rep.gap - ana) / max(ana, 1e-300),
            kernel_dim=rep.kernel_dim,
            solve=solve,
        )
        rows.append(row)
    rows.sort(key=lambda r: (r["g0"], r[axis]))
    return rows


def _mi_rows(p: ModelParams, cutoff, seed: int, grid: np.ndarray, **curves) -> list[dict]:
    """One row per time of ``grid``: the point, t and each named curve's sample."""
    return [
        dict(_base_row(p, cutoff, seed), t=float(t), **{name: float(c[i]) for name, c in curves.items()})
        for i, t in enumerate(grid)
    ]


# ---------------------------------------------------------------------------
# scenario implementations
# ---------------------------------------------------------------------------


def run_gap_coherent(config: ScenarioConfig) -> tuple[list[dict], dict]:
    rows = _gap_rows(config, models.build_coherent_displaced, "eps", 24, spectra.gap_coherent)
    keys = [f"g0={r['g0']:g},eps={r['eps']:g}" for r in rows]
    max_eps = max(r["eps"] for r in rows)
    summary = {
        "worst_rel_error_at_max_eps": max(r["rel_error"] for r in rows if r["eps"] == max_eps),
        "gaps": {key: r["gap_exact"] for key, r in zip(keys, rows)},
        "solves": {key: r["solve"] for key, r in zip(keys, rows)},
    }
    return rows, summary


def run_second_rate_coherent(config: ScenarioConfig) -> tuple[list[dict], dict]:
    def one(pt):
        p = ModelParams(g0=pt["g0"], eps=pt["eps"])
        cutoff = _cutoff(config, lambda: _swept_cutoff(p))
        sup = Superoperator(models.build_coherent_displaced(make_space(cutoff), p))
        # the lambda3 family rotates at 2*Omega in the displaced frame
        w = spectra.slowest_eigenvalues(sup, 4, k=10, sigma=1e-3 + 2j * p.omega)
        rate = float(np.min(-w.real))
        ana = spectra.coherent_lambda3(p)
        row = _base_row(p, cutoff, config.seeds)
        row.update(second_rate_exact=rate, lambda3_analytic=ana, rel_error=abs(rate - ana) / ana)
        return row

    rows = [one(pt) for pt in _points(config)]
    rows.sort(key=lambda r: (r["g0"], r["eps"]))
    return rows, {"worst_rel_error": max(r["rel_error"] for r in rows)}


def run_mi_coherent(config: ScenarioConfig) -> tuple[list[dict], dict]:
    rows: list[dict] = []
    summary: dict = {"curves": {}}
    for pt in _points(config):
        p = ModelParams(g0=pt["g0"], eps=pt["eps"])
        cutoff = _cutoff(config, lambda: _swept_cutoff(p))
        grid = _grid(config, pt)
        space = make_space(cutoff)
        sup = Superoperator(models.build_coherent_displaced(space, p))
        mi_exact, evolution = _exact_curve(sup, grid)
        sup_eff = Superoperator(models.build_effective_coherent(p))
        mi_eff = obs.mi_curve(sup_eff, dyn.ground_state(atomic_space()), grid)
        rows += _mi_rows(p, cutoff, config.seeds, grid, mi_exact=mi_exact, mi_effective=mi_eff)
        summary["curves"][f"g0={p.g0:g},eps={p.eps:g}"] = {
            "tau_coherent": spectra.tau_coherent(p),
            "plateau_windows": dyn.detect_plateau(grid, mi_exact),
            "final_mi": float(mi_exact[-1]),
            **evolution,
        }
    return rows, summary


def _first_sector_dim(sup: Superoperator) -> int:
    """Size of the first sector of G, the one |gg,0> occupies and a trajectory from it evolves."""
    first = sup.sectors()[0]
    return first.stop - first.start


def _exact_curve(sup: Superoperator, grid: np.ndarray) -> tuple[np.ndarray, dict]:
    """The mutual information from |gg,0> at each time of ``grid``, and how
    its trajectory was evolved: ``evolution`` "krylov-sector" with its
    Krylov dimension ``krylov_dim`` for a model that states a
    detailed-balance weight, "spectral-sector" (dense eigenbasis) otherwise,
    and ``dim``, the size of the first sector."""
    traj = dyn.evolve_spectral(sup, dyn.ground_state(sup.me.space), grid)
    how = {"evolution": "spectral-sector", "dim": _first_sector_dim(sup)}
    if traj.krylov_dim is not None:
        how.update(evolution="krylov-sector", krylov_dim=traj.krylov_dim)
    return obs.mutual_information(obs.atomic_states(traj)), how


def run_gap_incoherent(config: ScenarioConfig) -> tuple[list[dict], dict]:
    rows = _gap_rows(config, models.build_full, "n_th", 16, spectra.gap_incoherent)
    solves = {f"g0={r['g0']:g},n_th={r['n_th']:g}": r["solve"] for r in rows}
    return rows, {"worst_rel_error": max(r["rel_error"] for r in rows), "solves": solves}


def run_mi_incoherent(config: ScenarioConfig) -> tuple[list[dict], dict]:
    rows: list[dict] = []
    summary: dict = {"curves": {}}
    for pt in _points(config):
        p = ModelParams(g0=pt["g0"], n_th=pt["n_th"])
        grid = _grid(config, pt)
        cutoff = _cutoff(config, lambda: _thermal_cutoff(p.n_th))
        space = make_space(cutoff)
        # |gg,0> occupies only the d = 0, even, Theta = +1 sector, which is evolved by Krylov
        sup = Superoperator(models.build_full(space, p))
        dim = _first_sector_dim(sup)
        run_exact = dim <= dyn.KRYLOV_CAP
        if run_exact:
            mi_exact, evolution = _exact_curve(sup, grid)
        else:
            mi_exact, evolution = np.full(grid.size, np.nan), {"evolution": "effective-only", "dim": dim}
        sup_eff = Superoperator(models.build_effective_incoherent(p))
        mi_eff = obs.mi_curve(sup_eff, dyn.ground_state(atomic_space()), grid)
        shown = cutoff if run_exact else "effective-only"
        rows += _mi_rows(p, shown, config.seeds, grid, mi_exact=mi_exact, mi_effective=mi_eff)
        ss = dyn.steady_state(sup_eff, dyn.ground_state(atomic_space()))
        summary["curves"][f"g0={p.g0:g},n_th={p.n_th:g}"] = {
            "tau_incoherent": spectra.tau_incoherent(p),
            "steady_mi_effective": float(obs.mutual_information(ss)),
            "exact_run": bool(run_exact),
            **evolution,
        }
    return rows, summary


def run_real_detector(config: ScenarioConfig) -> tuple[list[dict], dict]:
    rows: list[dict] = []
    summary: dict = {"steady": {}}
    for pt in _points(config):
        case, gamma = pt["case"], pt["gamma"]
        grid = _grid(config, pt)
        if case == "coherent":
            p = ModelParams(g0=0.1, eps=math.sqrt(10.0), gamma=gamma)
            build, cutoff = models.build_coherent_displaced, _cutoff(config, lambda: 8)
        elif case == "incoherent":
            p = ModelParams(g0=0.1, eps=0.0, n_th=10.0, gamma=gamma)
            build, cutoff = models.build_full, _cutoff(config, lambda: _thermal_cutoff(p.n_th))
        else:
            raise ValueError(f"unknown case {case!r}")
        space = make_space(cutoff)
        # one generator per point: the trajectory and the steady state share
        # its assembly and its stated-kernel solve
        sup = Superoperator(build(space, p))
        mi, evolution = _exact_curve(sup, grid)
        rows += [dict(row, case=case) for row in _mi_rows(p, cutoff, config.seeds, grid, mi=mi)]
        ss = dyn.steady_state(sup, dyn.ground_state(space))
        summary["steady"][f"{case},gamma={gamma:g}"] = {
            "steady_mi": float(obs.atomic_mutual_information(ss)),
            "peak_mi": float(mi.max()),
            "kernel_unique": not sup.me.conserved,
            **evolution,
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
    "thermal model (where its d = 0, exchange-even, Theta = +1 sector fits the "
    "dense cap; otherwise NaN) and the effective model; one row per time sample.",
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


def _plot(outdir: Path, scenario: str, rows: list[dict]) -> Path | None:
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
        },
        "summary": summary,
    }
    (outdir / "summary.json").write_text(
        json.dumps(summary_payload, indent=2, sort_keys=True, default=float) + "\n",
        encoding="utf-8",
    )
    write_schema(outdir)
    if plot:
        _plot(outdir, config.scenario, rows)
    if not quiet:
        print(f"wrote {csv_path}")
        if config.scenario == "verify":
            for row in rows:
                status = "PASS" if row["passed"] else "FAIL"
                print(f"{status}  {row['criterion']:28s} {row['seconds']:7.1f}s  {row['details'][1:-1]}")
    if config.scenario == "verify" and not summary["all_passed"]:
        return 1
    return 0
