"""Acceptance matrix: analytic-vs-numeric checks bundled behind one runner.

Each criterion is a callable returning a CheckResult; the CLI ``verify``
scenario and the acceptance test module both run these.  Criteria 4, 8 and 9
run the scenario runners at pinned points, cutoffs and time grids and judge
their rows and summaries.  Every tolerance is pinned here, not configurable
at run time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import dynamics as dyn
from . import models, observables as obs, scenarios, spectra
from .models import ModelParams, Superoperator, vec
from .operators import atomic_space, make_space

#: frozen oracle values of criterion 7 (spectral kernel projection)
COHERENT_STEADY_MI = 0.4150374992788438       # = 2 - log2(3)
COHERENT_PLATEAU_MI = 0.499006                # eps=1000, g0=1/4, from |gg>

#: random-number seeds of criteria 1 (parameter points), 6 (initial state)
#: and 10 (test matrices)
COHERENT_TABLE_SEED = 20260810
RELAXATION_FIT_SEED = 7
CPTP_SEED = 11


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    seconds: float = 0.0


def _result(name: str, passed: bool, details: str) -> CheckResult:
    return CheckResult(name, bool(passed), details)


def _pinned(scenario: str, params: dict, cutoff: int, time_grid: dict) -> scenarios.ScenarioConfig:
    """A validated config running one scenario at a pinned point of the matrix."""
    config = scenarios.ScenarioConfig(scenario, params, cutoff, time_grid)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1_coherent_table() -> CheckResult:
    """Dense 16x16 diagonalization matches the six-entry coherent table at
    5 random parameter points, <= 1e-10 relative, multiplicities exact."""
    rng = np.random.default_rng(COHERENT_TABLE_SEED)
    worst = 0.0
    ok = True
    for _ in range(5):
        p = ModelParams(
            g0=float(10 ** rng.uniform(-1.3, 0.0)), eps=float(10 ** rng.uniform(0.3, 2.3))
        )
        rep = spectra.analyze(Superoperator(models.build_effective_coherent(p)))
        match = spectra.compare_spectra(rep, spectra.analytic_coherent(p))
        worst = max(worst, match.max_rel_error)
        ok = ok and match.all_matched
    return _result(
        "1-coherent-table",
        ok and worst <= 1e-10,
        f"5 random (eps, g0) points, worst relative error {worst:.2e} (tol 1e-10)",
    )


def criterion_2_incoherent_table() -> CheckResult:
    """Same for the eight-entry thermal table at n_th in {0, 0.5, 1, 2, 10}."""
    worst = 0.0
    ok = True
    for n_th in (0.0, 0.5, 1.0, 2.0, 10.0):
        p = ModelParams(g0=0.1, n_th=n_th)
        rep = spectra.analyze(Superoperator(models.build_effective_incoherent(p)))
        match = spectra.compare_spectra(rep, spectra.analytic_incoherent(p))
        worst = max(worst, match.max_rel_error)
        ok = ok and match.all_matched
    return _result(
        "2-incoherent-table",
        ok and worst <= 1e-10,
        f"n_th in {{0, 0.5, 1, 2, 10}}, worst relative error {worst:.2e} (tol 1e-10)",
    )


def criterion_3_gap_formulas() -> CheckResult:
    """Numeric gaps equal kappa(2 eps/kappa)^-2 and 2 n_th (g0/kappa)^2 kappa
    to 1e-10 relative."""
    worst = 0.0
    for p in (ModelParams(g0=0.25, eps=10.0), ModelParams(g0=0.1, eps=40.0)):
        rep = spectra.analyze(Superoperator(models.build_effective_coherent(p)))
        target = p.kappa * (2.0 * p.eps / p.kappa) ** -2
        worst = max(worst, abs(rep.gap - target) / target)
    for p in (ModelParams(g0=0.1, n_th=1.0), ModelParams(g0=0.01, n_th=10.0)):
        rep = spectra.analyze(Superoperator(models.build_effective_incoherent(p)))
        target = 2.0 * p.n_th * (p.g0 / p.kappa) ** 2 * p.kappa
        worst = max(worst, abs(rep.gap - target) / target)
    return _result(
        "3-gap-formulas",
        worst <= 1e-10,
        f"coherent and thermal gap formulas, worst relative error {worst:.2e} (tol 1e-10)",
    )


def criterion_4_exact_gap() -> CheckResult:
    """Displaced-frame exact Liouvillian reproduces the analytic gap within
    10% at eps=100 (improving with eps), and the rate ladder's third distinct
    entry matches lambda_3 within 10% at eps=100."""
    g0s = [0.125, 0.25, 0.5]
    rows, summary = scenarios.run_gap_coherent(
        _pinned("gap-coherent", {"g0": g0s, "eps": [10.0, 30.0, 100.0]}, 12, {})
    )
    gap_rows = {(r["g0"], r["eps"]): r for r in rows}
    worst_gap = summary["worst_rel_error_at_max_eps"]
    ok_gap = all(gap_rows[g0, 100.0]["rel_error"] <= 0.10 for g0 in g0s)
    ok_trend = all(
        gap_rows[g0, 100.0]["rel_error"] < max(gap_rows[g0, 10.0]["rel_error"], 1e-12)
        for g0 in g0s
    )

    rows, summary = scenarios.run_second_rate_coherent(
        _pinned("second-rate-coherent", {"g0": g0s, "eps": [100.0]}, 12, {})
    )
    worst_lam3 = summary["worst_rel_error"]
    ok_lam3 = all(r["rel_error"] <= 0.10 for r in rows)

    # dense full-spectrum cross-check at one point: the targeted gap and the
    # index-2 distinct rate agree with full diagonalization
    p = ModelParams(g0=0.25, eps=100.0)
    sup = Superoperator(models.build_coherent_displaced(make_space(8), p))
    dense_rep = spectra.analyze(sup)
    targeted_gap = gap_rows[p.g0, p.eps]["gap_exact"]
    ok_cross = abs(dense_rep.gap - targeted_gap) / targeted_gap <= 1e-3
    lam3 = spectra.coherent_lambda3(p)
    ok_cross = ok_cross and abs(float(dense_rep.distinct_rates[2]) - lam3) / lam3 <= 0.10

    return _result(
        "4-exact-vs-analytic-gap",
        ok_gap and ok_trend and ok_lam3 and ok_cross,
        f"gap error at eps=100: {worst_gap:.2e}; lambda3 error: {worst_lam3:.2e} "
        f"(tol 0.10); improvement with eps: {ok_trend}; dense cross-check: {ok_cross}",
    )


def criterion_5_isospectrality() -> CheckResult:
    """Lab and displaced coherent frames share the 10 slowest eigenvalues at
    eps=2, g0=1/4 (truncation-converged), relative 1e-3."""
    p = ModelParams(g0=0.25, eps=2.0)
    lab = Superoperator(models.build_full(make_space(24), p))
    disp = Superoperator(models.build_coherent_displaced(make_space(10), p))
    w_lab = spectra.slowest_eigenvalues(lab, 10)
    w_disp = spectra.slowest_eigenvalues(disp, 10)
    devs = spectra.match_eigenvalue_sets(w_lab, w_disp)
    return _result(
        "5-isospectrality",
        devs.max() <= 1e-3,
        f"10 slowest eigenvalues, worst matched deviation {devs.max():.2e} (tol 1e-3)",
    )


def criterion_6_relaxation_fit() -> CheckResult:
    """Fitted tau equals 1/gap within 5% (generic initial state; |gg> is
    blind to the gap mode by symmetry)."""
    rng = np.random.default_rng(RELAXATION_FIT_SEED)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    rho0 = dyn.DensityMatrix.from_matrix(m / np.trace(m), atomic_space())

    p = ModelParams(g0=0.25, eps=10.0)
    sup = Superoperator(models.build_effective_coherent(p))
    grid = dyn.time_grid(12.0 * 400.0, 200, t_min=0.5)
    traj = dyn.evolve_spectral(sup, rho0, grid)
    est_c = dyn.fit_relaxation(traj, dyn.steady_state(sup, rho0))
    dev_c = abs(est_c.tau_fit - 400.0) / 400.0

    p = ModelParams(g0=0.1, n_th=1.0)
    sup = Superoperator(models.build_effective_incoherent(p))
    grid = dyn.time_grid(12.0 * 50.0, 200, t_min=0.1)
    traj = dyn.evolve_spectral(sup, rho0, grid)
    est_i = dyn.fit_relaxation(traj, dyn.steady_state(sup, rho0))
    dev_i = abs(est_i.tau_fit - 50.0) / 50.0

    return _result(
        "6-relaxation-fit",
        dev_c <= 0.05 and dev_i <= 0.05,
        f"coherent tau {est_c.tau_fit:.1f} vs 400 ({dev_c:.1%}); "
        f"thermal tau {est_i.tau_fit:.2f} vs 50 ({dev_i:.1%}); tol 5%",
    )


def criterion_7_metastability() -> CheckResult:
    """Coherent eps=1000, g0=1/4: splitting ratio > 1e4 and a plateau of
    >= 2 decades inside (1/fast_rate, 1/gap); plateau and steady levels match
    the frozen kernel-projection oracle; thermal n_th=10 shows no plateau."""
    p = ModelParams(g0=0.25, eps=1000.0)
    sup = Superoperator(models.build_effective_coherent(p))
    rep = spectra.analyze(sup)
    split = spectra.splitting_diagnostic(rep)
    ok_ratio = split.metastable and split.ratio > 1e4

    rho0 = dyn.ground_state(atomic_space())
    grid = dyn.time_grid(3.0 / rep.gap, 260, t_min=0.1 / split.fast_rate)
    mi = obs.mi_curve(sup, rho0, grid)
    windows = dyn.detect_plateau(grid, mi)
    inside = [
        (a, b)
        for a, b in windows
        if a >= 1.0 / split.fast_rate and b <= 1.0 / split.gap and b / a >= 100.0
    ]
    ok_plateau = bool(inside)

    # regression locks from the one-time spectral-projection oracle
    if inside:
        a, b = inside[0]
        sel = (grid >= a) & (grid <= b)
        plateau_level = float(np.mean(mi[sel]))
    else:
        plateau_level = float("nan")
    ss = dyn.steady_state(sup, rho0)
    steady_mi = obs.mutual_information(ss)
    ok_levels = (
        ok_plateau
        and abs(plateau_level - COHERENT_PLATEAU_MI) <= 2e-3
        and abs(steady_mi - COHERENT_STEADY_MI) <= 1e-6
    )

    sup_inc = Superoperator(models.build_effective_incoherent(ModelParams(g0=0.01, n_th=10.0)))
    rep_inc = spectra.analyze(sup_inc)
    split_inc = spectra.splitting_diagnostic(rep_inc)
    grid_inc = dyn.time_grid(3.0 / rep_inc.gap, 200, t_min=0.1 / split_inc.fast_rate)
    mi_inc = obs.mi_curve(sup_inc, rho0, grid_inc)
    ok_inc = not dyn.detect_plateau(grid_inc, mi_inc) and not split_inc.metastable

    return _result(
        "7-metastability",
        ok_ratio and ok_plateau and ok_levels and ok_inc,
        f"splitting ratio {split.ratio:.2e} (> 1e4: {ok_ratio}); plateau windows "
        f"inside (1/fast, 1/gap): {[(round(a, 1), round(b, 1)) for a, b in inside]}; "
        f"plateau level {plateau_level:.6f} vs {COHERENT_PLATEAU_MI} (tol 2e-3); "
        f"steady {steady_mi:.8f} vs {COHERENT_STEADY_MI:.8f} (tol 1e-6); "
        f"thermal case plateau-free: {ok_inc}",
    )


def _late_deviation(rows: list[dict]) -> float:
    """max |MI_exact - MI_effective| over the rows beyond kappa*t > 10."""
    return float(np.max([abs(r["mi_exact"] - r["mi_effective"]) for r in rows if r["t"] > 10.0]))


def criterion_8_effective_vs_exact() -> CheckResult:
    """Mutual-information curves of exact and effective models agree within
    2e-2 bits at all log-grid samples beyond kappa*t > 10."""
    tau = spectra.tau_coherent(ModelParams(g0=0.25, eps=10.0))
    grid = {"t_max": 5.0 * tau, "points": 60, "t_min": 1.0}
    rows, _ = scenarios.run_mi_coherent(
        _pinned("mi-coherent", {"g0": [0.25], "eps": [10.0]}, 8, grid)
    )
    devs = {"coherent eps=10": _late_deviation(rows)}

    for n_th, cutoff in ((1.0, 16), (3.0, 28)):
        gap = spectra.gap_incoherent(ModelParams(g0=0.01, n_th=n_th))
        grid = {"t_max": 5.0 / gap, "points": 50, "t_min": 1.0}
        rows, _ = scenarios.run_mi_incoherent(
            _pinned("mi-incoherent", {"g0": [0.01], "n_th": [n_th]}, cutoff, grid)
        )
        devs[f"incoherent n_th={n_th}"] = _late_deviation(rows)

    worst = max(devs.values())
    return _result(
        "8-effective-vs-exact",
        worst <= 2e-2,
        "max |MI_exact - MI_effective| beyond kappa*t>10: "
        + ", ".join(f"{k}: {v:.2e}" for k, v in devs.items())
        + " (tol 2e-2 bits)",
    )


def criterion_9_real_detector() -> CheckResult:
    """With atomic decay gamma = 1e-3 the kernel is unique, mutual information
    exceeds 1e-2 bits at intermediate times and falls below 1e-3 in the steady
    state, for both the driven and the thermal case."""
    # the driven case runs in the displaced frame, unitarily equivalent to the lab frame
    results = {}
    for case, cutoff, t_max, points in (("coherent", 8, 1.0e5, 120), ("incoherent", 40, 2.0e4, 70)):
        grid = {"t_max": t_max, "points": points, "t_min": 0.5}
        _, summary = scenarios.run_real_detector(
            _pinned("real-detector", {"case": case, "gamma": [1e-3]}, cutoff, grid)
        )
        (results[case],) = summary["steady"].values()

    unique = all(r["kernel_unique"] for r in results.values())
    ok = unique and all(r["peak_mi"] > 1e-2 and r["steady_mi"] < 1e-3 for r in results.values())
    return _result(
        "9-real-detector",
        ok,
        "; ".join(
            f"{k}: peak MI {r['peak_mi']:.3f} (> 1e-2), steady MI {r['steady_mi']:.1e} (< 1e-3)"
            for k, r in results.items()
        )
        + ("; kernels unique" if unique else "; kernel not unique"),
    )


def criterion_10_cptp_suite() -> CheckResult:
    """Trace functional annihilated (<= 1e-10 relative) by every generator;
    trajectory invariants hold within the stated slacks."""
    rng = np.random.default_rng(CPTP_SEED)
    space4 = make_space(4)
    gens = {
        "full": models.build_full(space4, ModelParams(g0=0.1, eps=np.sqrt(10.0), gamma=1e-3)),
        "incoherent": models.build_full(space4, ModelParams(g0=0.1, n_th=10.0)),
        "effective-coherent": models.build_effective_coherent(ModelParams(g0=0.25, eps=10.0)),
        "effective-incoherent": models.build_effective_incoherent(ModelParams(g0=0.1, n_th=1.0)),
        "rwa-displaced": models.build_rwa_displaced(space4, ModelParams(g0=0.25, eps=100.0)),
    }
    worst_tr = 0.0
    for me in gens.values():
        sup = Superoperator(me)
        g = rng.standard_normal((me.dim, me.dim)) + 1j * rng.standard_normal((me.dim, me.dim))
        rho = (g + g.conj().T) / 2.0
        resid = abs(np.trace(models.unvec(sup.apply(vec(rho)))))
        worst_tr = max(worst_tr, resid / sup.norm_estimate())
    ok_tr = worst_tr <= 1e-10

    # trajectory invariants at the strict state slacks
    p = ModelParams(g0=0.01, n_th=1.0)
    space = make_space(12)
    sup = Superoperator(models.build_full(space, p))
    grid = dyn.time_grid(5.0e3, 40, t_min=0.5)
    states = [s.matrix for s in dyn.evolve_ode(sup, dyn.ground_state(space), grid).states]
    tr_dev = max(abs(np.trace(m) - 1.0) for m in states)
    herm_dev = max(float(np.abs(m - m.conj().T).max()) for m in states)
    min_eig = min(float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min()) for m in states)
    ok_traj = tr_dev <= 1e-8 and herm_dev <= 1e-10 and min_eig >= -1e-8
    return _result(
        "10-cptp-suite",
        ok_tr and ok_traj,
        f"worst trace-functional residual {worst_tr:.1e} (tol 1e-10); trajectory "
        f"trace dev {tr_dev:.1e} (tol 1e-8), hermiticity {herm_dev:.1e} (tol 1e-10), "
        f"min eigenvalue {min_eig:.1e} (tol -1e-8)",
    )


def negative_control() -> CheckResult:
    """Self-test: a deliberately mis-scaled dissipator convention (1/2 of the
    factor-2 form) must be caught by the table comparison."""
    p = ModelParams(g0=0.25, eps=10.0)
    me = models.build_effective_coherent(p)
    halved = replace(
        me,
        dissipators=tuple((op, 0.5 * rate) for op, rate in me.dissipators),
        label="wrong-convention",
    )
    rep = spectra.analyze(Superoperator(halved))
    match = spectra.compare_spectra(rep, spectra.analytic_coherent(p))
    return _result(
        "negative-control",
        not match.all_matched,
        "halved dissipator rates are rejected by the table comparison"
        if not match.all_matched
        else "forced failure went undetected",
    )


CRITERIA: tuple[tuple[str, Callable[[], CheckResult]], ...] = (
    ("1-coherent-table", criterion_1_coherent_table),
    ("2-incoherent-table", criterion_2_incoherent_table),
    ("3-gap-formulas", criterion_3_gap_formulas),
    ("4-exact-vs-analytic-gap", criterion_4_exact_gap),
    ("5-isospectrality", criterion_5_isospectrality),
    ("6-relaxation-fit", criterion_6_relaxation_fit),
    ("7-metastability", criterion_7_metastability),
    ("8-effective-vs-exact", criterion_8_effective_vs_exact),
    ("9-real-detector", criterion_9_real_detector),
    ("10-cptp-suite", criterion_10_cptp_suite),
)


def run_acceptance() -> list[CheckResult]:
    """Run the acceptance matrix and the self-test."""
    results = []
    for name, fn in CRITERIA + (("negative-control", negative_control),):
        start = time.perf_counter()
        try:
            res = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            res = _result(name, False, f"raised {type(exc).__name__}: {exc}")
        res.seconds = time.perf_counter() - start
        results.append(res)
    return results
