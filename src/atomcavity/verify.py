"""Acceptance matrix: analytic-vs-numeric checks bundled behind one runner.

Each criterion is a self-contained callable returning a CheckResult; the CLI
``verify`` scenario and the acceptance test module both run these.  Every
tolerance is pinned here, not configurable at run time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import dynamics as dyn
from . import models, observables as obs, spectra
from .models import ModelParams, vec, vectorize
from .operators import atomic_space, make_space

#: frozen oracle values (spectral kernel projection / closed-form triplet
#: chain), regression-tested; see tests for the independent derivations
COHERENT_STEADY_MI = 0.4150374992788438       # = 2 - log2(3)
COHERENT_PLATEAU_MI = 0.499006                # eps=1000, g0=1/4, from |gg>
INCOHERENT_STEADY_MI = {1.0: 0.347457643647, 3.0: 0.402079471935, 10.0: 0.413585122155}


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    data: dict = field(default_factory=dict)
    seconds: float = 0.0


def _result(name: str, passed: bool, details: str, **data) -> CheckResult:
    return CheckResult(name, bool(passed), details, data)


def _random_atomic_state(rng) -> dyn.DensityMatrix:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    m /= np.trace(m)
    return dyn.DensityMatrix.from_matrix(m, atomic_space())


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1_coherent_table(seed: int = 20260810) -> CheckResult:
    """Dense 16x16 diagonalization matches the six-entry coherent table at
    5 random parameter points, <= 1e-10 relative, multiplicities exact."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    points = []
    for _ in range(5):
        p = ModelParams(
            g0=float(10 ** rng.uniform(-1.3, 0.0)), eps=float(10 ** rng.uniform(0.3, 2.3))
        )
        rep = spectra.analyze(vectorize(models.build_effective_coherent(p)))
        match = spectra.compare_spectra(rep, spectra.analytic_coherent(p), rel_tol=1e-10)
        worst = max(worst, match.max_rel_error)
        ok = ok and match.all_matched
        points.append({"eps": p.eps, "g0": p.g0, "max_rel_error": match.max_rel_error})
    return _result(
        "1-coherent-table",
        ok and worst <= 1e-10,
        f"5 random (eps, g0) points, worst relative error {worst:.2e} (tol 1e-10)",
        points=points,
    )


def criterion_2_incoherent_table() -> CheckResult:
    """Same for the eight-entry thermal table at n_th in {0, 0.5, 1, 2, 10}."""
    worst = 0.0
    ok = True
    for n_th in (0.0, 0.5, 1.0, 2.0, 10.0):
        p = ModelParams(g0=0.1, n_th=n_th)
        rep = spectra.analyze(vectorize(models.build_effective_incoherent(p)))
        match = spectra.compare_spectra(rep, spectra.analytic_incoherent(p), rel_tol=1e-10)
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
        rep = spectra.analyze(vectorize(models.build_effective_coherent(p)))
        target = p.kappa * (2.0 * p.eps / p.kappa) ** -2
        worst = max(worst, abs(rep.gap - target) / target)
    for p in (ModelParams(g0=0.1, n_th=1.0), ModelParams(g0=0.01, n_th=10.0)):
        rep = spectra.analyze(vectorize(models.build_effective_incoherent(p)))
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
    cutoff = 12
    gap_errors: dict[float, dict[float, float]] = {}
    for g0 in (0.125, 0.25, 0.5):
        gap_errors[g0] = {}
        for eps in (10.0, 30.0, 100.0):
            p = ModelParams(g0=g0, eps=eps)
            sup = vectorize(models.build_coherent_displaced(make_space(cutoff), p), materialize=False)
            rep = spectra.analyze(sup, k=24)
            ana = spectra.gap_coherent(p)
            gap_errors[g0][eps] = abs(rep.gap - ana) / ana
    ok_gap = all(errs[100.0] <= 0.10 for errs in gap_errors.values())
    ok_trend = all(errs[100.0] < max(errs[10.0], 1e-12) for errs in gap_errors.values())

    # second slowest distinct rate at eps=100: the lambda3 family sits in the
    # sector rotating at 2*Omega, reached with a complex shift
    lam3_errors = {}
    for g0 in (0.125, 0.25, 0.5):
        p = ModelParams(g0=g0, eps=100.0)
        sup = vectorize(models.build_coherent_displaced(make_space(cutoff), p), materialize=False)
        w = spectra.slowest_eigenvalues(sup, 4, k=10, sigma=1e-3 + 2j * p.omega)
        rate = float(np.min(-w.real))
        lam3 = spectra.coherent_lambda3(p)
        lam3_errors[g0] = abs(rate - lam3) / lam3
    ok_lam3 = all(e <= 0.10 for e in lam3_errors.values())

    # dense full-spectrum cross-check at one point: the targeted gap and the
    # index-2 distinct rate agree with full diagonalization
    p = ModelParams(g0=0.25, eps=100.0)
    sup = vectorize(models.build_coherent_displaced(make_space(8), p), materialize=False)
    dense_rep = spectra.analyze(sup)
    sup12 = vectorize(models.build_coherent_displaced(make_space(12), p), materialize=False)
    targeted = spectra.analyze(sup12, k=24)
    ok_cross = abs(dense_rep.gap - targeted.gap) / targeted.gap <= 1e-3
    lam3_dense = float(dense_rep.distinct_rates[2])
    ok_cross = ok_cross and abs(lam3_dense - spectra.coherent_lambda3(p)) / spectra.coherent_lambda3(p) <= 0.10

    worst_gap = max(errs[100.0] for errs in gap_errors.values())
    worst_lam3 = max(lam3_errors.values())
    return _result(
        "4-exact-vs-analytic-gap",
        ok_gap and ok_trend and ok_lam3 and ok_cross,
        f"gap error at eps=100: {worst_gap:.2e}; lambda3 error: {worst_lam3:.2e} "
        f"(tol 0.10); improvement with eps: {ok_trend}; dense cross-check: {ok_cross}",
        gap_errors={str(k): v for k, v in gap_errors.items()},
        lam3_errors={str(k): v for k, v in lam3_errors.items()},
    )


def criterion_5_isospectrality() -> CheckResult:
    """Lab and displaced coherent frames share the 10 slowest eigenvalues at
    eps=2, g0=1/4 (truncation-converged), relative 1e-3."""
    p = ModelParams(g0=0.25, eps=2.0)
    lab = vectorize(models.build_full(make_space(24), p), materialize=False)
    disp = vectorize(models.build_coherent_displaced(make_space(10), p), materialize=False)
    w_lab = spectra.slowest_eigenvalues(lab, 10)
    w_disp = spectra.slowest_eigenvalues(disp, 10)
    devs = spectra.match_eigenvalue_sets(w_lab, w_disp)
    return _result(
        "5-isospectrality",
        devs.max() <= 1e-3,
        f"10 slowest eigenvalues, worst matched deviation {devs.max():.2e} (tol 1e-3)",
    )


def criterion_6_relaxation_fit(seed: int = 7) -> CheckResult:
    """Fitted tau equals 1/gap within 5% (generic initial state; |gg> is
    blind to the gap mode by symmetry)."""
    rng = np.random.default_rng(seed)
    rho0 = _random_atomic_state(rng)

    p = ModelParams(g0=0.25, eps=10.0)
    sup = vectorize(models.build_effective_coherent(p))
    grid = dyn.time_grid(12.0 * 400.0, 200, t_min=0.5)
    traj = dyn.evolve_spectral(sup, rho0, grid)
    est_c = dyn.fit_relaxation(traj, dyn.steady_state(sup, rho0))
    dev_c = abs(est_c.tau_fit - 400.0) / 400.0

    p = ModelParams(g0=0.1, n_th=1.0)
    sup = vectorize(models.build_effective_incoherent(p))
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
    me = models.build_effective_coherent(p)
    sup = vectorize(me)
    rep = spectra.analyze(sup)
    split = spectra.splitting_diagnostic(rep)
    ok_ratio = split.metastable and split.ratio > 1e4

    rho0 = dyn.ground_state(atomic_space())
    grid = dyn.time_grid(3.0 / rep.gap, 260, t_min=0.1 / split.fast_rate)
    mi = obs.mi_curve(me, rho0, grid)
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

    me_inc = models.build_effective_incoherent(ModelParams(g0=0.01, n_th=10.0))
    rep_inc = spectra.analyze(vectorize(me_inc))
    split_inc = spectra.splitting_diagnostic(rep_inc)
    grid_inc = dyn.time_grid(3.0 / rep_inc.gap, 200, t_min=0.1 / split_inc.fast_rate)
    mi_inc = obs.mi_curve(me_inc, rho0, grid_inc)
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


def criterion_8_effective_vs_exact(store: dict | None = None) -> CheckResult:
    """Mutual-information curves of exact and effective models agree within
    2e-2 bits at all log-grid samples beyond kappa*t > 10."""
    devs = {}

    p = ModelParams(g0=0.25, eps=10.0)
    grid = dyn.time_grid(5.0 * spectra.tau_coherent(p), 60, t_min=1.0)
    space = make_space(8)
    mi_x = obs.mi_curve(models.build_coherent_displaced(space, p), dyn.ground_state(space), grid)
    mi_e = obs.mi_curve(models.build_effective_coherent(p), dyn.ground_state(atomic_space()), grid)
    sel = grid > 10.0
    devs["coherent eps=10"] = float(np.abs(mi_x[sel] - mi_e[sel]).max())

    for n_th, cutoff in ((1.0, 16), (3.0, 28)):
        p = ModelParams(g0=0.01, n_th=n_th)
        grid = dyn.time_grid(5.0 / spectra.gap_incoherent(p), 50, t_min=1.0)
        space = make_space(cutoff)
        sup = vectorize(models.build_incoherent(space, p), materialize=False)
        traj = dyn.evolve_ode(sup, dyn.ground_state(space), grid)
        if store is not None:
            store[f"incoherent n_th={n_th}"] = traj
        mi_x = traj.observable(obs.atomic_mutual_information)
        mi_e = obs.mi_curve(
            models.build_effective_incoherent(p), dyn.ground_state(atomic_space()), grid
        )
        sel = grid > 10.0
        devs[f"incoherent n_th={n_th}"] = float(np.abs(mi_x[sel] - mi_e[sel]).max())

    worst = max(devs.values())
    return _result(
        "8-effective-vs-exact",
        worst <= 2e-2,
        "max |MI_exact - MI_effective| beyond kappa*t>10: "
        + ", ".join(f"{k}: {v:.2e}" for k, v in devs.items())
        + " (tol 2e-2 bits)",
        deviations=devs,
    )


def criterion_9_real_detector() -> CheckResult:
    """With atomic decay gamma = 1e-3 the kernel is unique, mutual information
    exceeds 1e-2 bits at intermediate times and falls below 1e-3 in the steady
    state, for both the driven and the thermal case."""
    results = {}

    # driven case, displaced frame (unitarily equivalent to the lab frame;
    # the displacement acts on the field only, so atomic observables and the
    # spectrum are unchanged while the drive term disappears)
    p = ModelParams(g0=0.1, eps=np.sqrt(10.0), gamma=1e-3)
    space = make_space(8)
    me = models.build_full_displaced(space, p)
    mi = obs.mi_curve(me, dyn.ground_state(space), dyn.time_grid(1.0e5, 120, t_min=0.5))
    # raises KernelAmbiguityError unless unique
    ss = dyn.steady_state(vectorize(me, materialize=False))
    results["coherent"] = {
        "peak_mi": float(mi.max()),
        "steady_mi": float(obs.atomic_mutual_information(ss)),
    }

    p = ModelParams(g0=0.1, eps=0.0, n_th=10.0, gamma=1e-3)
    space = make_space(40)
    sup = vectorize(models.build_full(space, p), materialize=False)
    grid = dyn.time_grid(2.0e4, 70, t_min=0.5)
    traj = dyn.evolve_ode(sup, dyn.ground_state(space), grid)
    mi = traj.observable(obs.atomic_mutual_information)
    ss = dyn.steady_state(sup)
    results["incoherent"] = {
        "peak_mi": float(mi.max()),
        "steady_mi": float(obs.atomic_mutual_information(ss)),
    }

    ok = all(r["peak_mi"] > 1e-2 and r["steady_mi"] < 1e-3 for r in results.values())
    return _result(
        "9-real-detector",
        ok,
        "; ".join(
            f"{k}: peak MI {r['peak_mi']:.3f} (> 1e-2), steady MI {r['steady_mi']:.1e} (< 1e-3)"
            for k, r in results.items()
        )
        + "; kernels unique",
        results=results,
    )


def criterion_10_cptp_suite(seed: int = 11) -> CheckResult:
    """Trace functional annihilated (<= 1e-10 relative) by every generator;
    trajectory invariants hold within the stated slacks."""
    rng = np.random.default_rng(seed)
    space4 = make_space(4)
    gens = {
        "full": models.build_full(space4, ModelParams(g0=0.1, eps=np.sqrt(10.0), gamma=1e-3)),
        "incoherent": models.build_incoherent(space4, ModelParams(g0=0.1, n_th=10.0)),
        "effective-coherent": models.build_effective_coherent(ModelParams(g0=0.25, eps=10.0)),
        "effective-incoherent": models.build_effective_incoherent(ModelParams(g0=0.1, n_th=1.0)),
        "rwa-displaced": models.build_rwa_displaced(space4, ModelParams(g0=0.25, eps=100.0)),
    }
    worst_tr = 0.0
    for me in gens.values():
        sup = models.Superoperator(me)
        g = rng.standard_normal((me.dim, me.dim)) + 1j * rng.standard_normal((me.dim, me.dim))
        rho = (g + g.conj().T) / 2.0
        resid = abs(np.trace(models.unvec(sup.apply(vec(rho)))))
        worst_tr = max(worst_tr, resid / sup.norm_estimate())
    ok_tr = worst_tr <= 1e-10

    # trajectory invariants at the strict state slacks
    p = ModelParams(g0=0.01, n_th=1.0)
    space = make_space(12)
    sup = vectorize(models.build_incoherent(space, p), materialize=False)
    grid = dyn.time_grid(5.0e3, 40, t_min=0.5)
    traj = dyn.evolve_ode(sup, dyn.ground_state(space), grid)
    tr_dev = max(abs(np.trace(s.matrix) - 1.0) for s in traj.states)
    herm_dev = max(float(np.abs(s.matrix - s.matrix.conj().T).max()) for s in traj.states)
    min_eig = min(
        float(np.linalg.eigvalsh((s.matrix + s.matrix.conj().T) / 2.0).min())
        for s in traj.states
    )
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
    rep = spectra.analyze(vectorize(halved))
    match = spectra.compare_spectra(rep, spectra.analytic_coherent(p), rel_tol=1e-10)
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


def run_acceptance(
    names: list[str] | None = None, include_negative_control: bool = True
) -> list[CheckResult]:
    """Run the acceptance matrix (optionally a subset) and the self-test."""
    results = []
    for name, fn in CRITERIA:
        if names is not None and name not in names:
            continue
        start = time.perf_counter()
        try:
            res = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            res = _result(name, False, f"raised {type(exc).__name__}: {exc}")
        res.seconds = time.perf_counter() - start
        results.append(res)
    if include_negative_control and names is None:
        start = time.perf_counter()
        res = negative_control()
        res.seconds = time.perf_counter() - start
        results.append(res)
    return results
