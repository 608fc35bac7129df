"""Liouvillian spectrum analysis: gaps, rate ordering, clusters, analytic tables.

Both solves read the model's one real generator G (``Superoperator.generator``):
the dense one each sector's block G[s, s], shift-invert all of G, whose sparse
LU fills in only inside those blocks.

A model that states a detailed-balance weight x (``MasterEquation.balance``)
bounds the rates of each sector from below (Temme, Kastoryano, Ruskai, Wolf &
Verstraete, J. Math. Phys. 51, 122201 (2010)).  In the KMS inner product of
sigma ~ x^N the dissipative part of L is self-adjoint and negative
semidefinite, and H contributes an anti-self-adjoint part, so every
eigenvalue of a sector has -Re lambda at least the least eigenvalue of minus
the dissipative part there, and at least that of the cavity's part alone,
the atoms' part being semidefinite too.  On the field band k (rho_{n,n+k})
the cavity part is tridiagonal of size cutoff - k and symmetric after a
diagonal similarity; its least eigenvalue is 0 on k = 0.  A sector of
|N_ket - N_bra| = |d| holds field bands k = |d| - 2, ..., |d| + 2, so

    bound_|d| = min over k in {|d| - 2, ..., |d| + 2}, |k| < cutoff, of lambda_min(band |k|)

(``rate_bounds``), which is 0 for |d| <= 2.  The targeted solve of such a
model runs on the sectors whose bound is 0 alone, a prefix G[:m, :m] since
sectors are ordered by |d|, and keeps the gap only when it lies strictly
below the least bound of the sectors left out; otherwise it solves all of G.

No magnitude threshold decides a zero mode: the rates of interest span many
orders of magnitude, and at strong drive the gap falls to within a few decades
of the round-off a dense solver leaves on the kernel eigenvalues.  The model
states its kernel instead (1 + len(``MasterEquation.conserved``)), and the
zero modes are that many eigenvalues of least modulus (``zero_modes``), for
spectrum reports and spectral evolution alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import SpectrumDiagnosticError, UnsupportedRegimeError
from .linalg import eig_general
from .models import ModelParams, Superoperator
from .operators import annihilation

#: eigenvalues closer than this, relative to the spectral radius, form a cluster
CLUSTER_TOL = 1e-7

#: relative error up to which a numeric cluster matches an analytic table entry
TABLE_REL_TOL = 1e-10

#: ``match_eigenvalue_sets`` measures deviations relative to at least this
#: fraction of the largest magnitude, so near-zero eigenvalues compare absolutely
MATCH_ZERO_FLOOR = 1e-3

#: ratio of the rate above the widest break to the gap that marks metastability
METASTABLE_RATIO = 10.0


@dataclass(frozen=True)
class Cluster:
    """A group of numerically coincident eigenvalues."""

    value: complex
    count: int


@dataclass(frozen=True)
class SpectrumReport:
    """Classified Liouvillian spectrum.

    ``eigenvalues`` are sorted by |Re| ascending; ``distinct_rates`` holds the
    clustered nonzero decay rates (-Re) ascending; ``gap`` is the smallest
    nonzero rate; ``second_rate`` the next distinct one (None when absent).
    ``partial`` marks reports built from a targeted (shift-invert) solve that
    only sees the slow end of the spectrum.  ``analyze`` records the solver
    behind the report, the dimension of the generator it solved and, when
    sectors were left out of a targeted solve or the gap failed to clear
    their bound, the least rate bound of those sectors.
    """

    eigenvalues: np.ndarray
    clusters: tuple[Cluster, ...]
    gap: float
    second_rate: float | None
    distinct_rates: np.ndarray
    kernel_dim: int
    near_defective: bool
    partial: bool = False
    condition_estimate: float = np.nan
    dim: int = 0  # of the generator solved (0 for eigenvalues classified alone)
    solver: str = ""
    excluded_bound: float | None = None


@dataclass(frozen=True)
class AnalyticSpectrum:
    """Closed-form eigenvalue table of an effective model."""

    case: str
    entries: tuple[tuple[float, int], ...]
    params: ModelParams


@dataclass(frozen=True)
class MatchedEntry:
    analytic_value: float
    multiplicity: int
    numeric_value: complex | None
    rel_error: float
    multiplicity_ok: bool


@dataclass(frozen=True)
class MatchReport:
    """Result of pairing numeric clusters with an analytic table."""

    entries: tuple[MatchedEntry, ...]
    unmatched_clusters: tuple[Cluster, ...]
    all_matched: bool
    max_rel_error: float


@dataclass(frozen=True)
class SplittingDiagnostic:
    """Dominant separation of time scales in the rate ladder.

    ``ratio`` compares the rate just above the widest multiplicative break in
    the distinct-rate ladder with the spectral gap; ratios much greater than 1
    signal metastability (quasi-stationarity between 1/fast_rate and 1/gap).
    """

    ratio: float
    gap: float
    fast_rate: float
    metastable: bool


def _cluster_complex(values: np.ndarray, tol: float) -> list[list[int]]:
    """Greedy clustering of complex values with absolute tolerance ``tol``."""
    order = np.lexsort((values.imag, values.real))
    groups: list[list[int]] = []
    reps: list[complex] = []
    for idx in order:
        z = values[idx]
        placed = False
        for g, rep in enumerate(reps):
            if abs(z - rep) <= tol:
                groups[g].append(int(idx))
                reps[g] = np.mean(values[groups[g]])
                placed = True
                break
        if not placed:
            groups.append([int(idx)])
            reps.append(z)
    return groups


def analyze(sup: Superoperator, k: int | None = None) -> SpectrumReport:
    """Spectrum report for a Liouvillian.

    Dense full diagonalization when ``k`` is None, one sector of
    ``sup.sectors()`` at a time: the report classifies the union of the
    sector spectra and carries the worst sector's condition number and
    near-defective flag.  Otherwise a targeted shift-invert solve for the
    ``k`` eigenvalues nearest a small positive real shift (never an
    eigenvalue of a Lindblad generator), yielding a partial report of the
    slow end of the spectrum: of the sectors whose rate bound is 0 when the
    model states a detailed-balance weight and the gap lies strictly below
    the least bound of the sectors left out (``certified-shift-invert``),
    of all of G otherwise (``shift-invert``, or ``shift-invert-fallback``
    when a gap failed to clear the bound).  The kernel is the one the model
    states, 1 + len(``conserved``) zero modes.
    """
    kernel_dim = 1 + len(sup.me.conserved)
    if k is not None:
        return _targeted(sup, k, kernel_dim)
    parts, conditions, defective = [], [], False
    for s in sup.sectors():
        decomp = eig_general(sup.as_dense(s))
        parts.append(decomp.eigenvalues)
        conditions.append(decomp.condition_estimate)
        defective = defective or decomp.near_defective
    report = classify(
        np.concatenate(parts),
        kernel_dim,
        condition=max(conditions),
        near_defective=defective,
    )
    return replace(report, dim=sup.dim, solver="dense")


def _targeted(sup: Superoperator, k: int, kernel_dim: int) -> SpectrumReport:
    """``analyze``'s shift-invert report: on the prefix of G whose sectors
    have rate bound 0, when the gap found there lies below the least bound
    of the rest; on all of G otherwise."""
    bounds, excluded = rate_bounds(sup), None
    if bounds is not None:
        last = int(np.flatnonzero(bounds <= 0.0).max())
        size = sup.sectors()[last].stop
        if size < sup.dim and k < size - 1:
            excluded = float(bounds[last + 1 :].min())
            report = classify(_shift_invert(sup, k, 1e-3, size), kernel_dim, partial=True)
            if report.gap < excluded:
                return replace(
                    report, dim=size, solver="certified-shift-invert", excluded_bound=excluded
                )
    report = classify(_shift_invert(sup, k, 1e-3), kernel_dim, partial=True)
    solver = "shift-invert" if excluded is None else "shift-invert-fallback"
    return replace(report, dim=sup.dim, solver=solver, excluded_bound=excluded)


def rate_bounds(sup: Superoperator) -> np.ndarray | None:
    """Lower bound on the rate -Re lambda of every eigenvalue of each of
    ``sup.sectors()``, from the model's stated detailed-balance weight (see
    the module docstring); None when the model states none or has no field.

    The cavity part is the pair of jumps a (rate r_-) and a^dag (r_+ = x r_-
    once the weight is stated).  On band k, rho_{n,m} with m = n + k, minus
    it has diagonal r_- (n + m) + r_+ (f_n + f_m), f the diagonal of the
    truncated a a^dag, and symmetrized off-diagonal
    sqrt(L_{i,i+1} L_{i+1,i}) = 2 sqrt(r_- r_+ n m) between rho_{n-1,m-1}
    and rho_{n,m}.
    """
    me = sup.me
    if me.balance is None or not me.space.has_field:
        return None
    a = annihilation(me.space).matrix
    down = sum(r for op, r in me.dissipators if np.array_equal(op.matrix, a))
    up = sum(r for op, r in me.dissipators if np.array_equal(op.matrix, a.conj().T))
    c = me.space.fock_cutoff
    fill = np.append(np.arange(1.0, c), 0.0)  # diagonal of the truncated a a^dag
    floor = np.zeros(c)  # least eigenvalue of minus the cavity part on band k
    for k in range(1, c):
        n = np.arange(c - k)
        m = n + k
        diag = down * (n + m) + up * (fill[n] + fill[m])
        off = 2.0 * np.sqrt(down * up * n[1:] * m[1:])
        floor[k] = sla.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
    basis, _ = sup.maps()
    labels, dim = me.excitations, me.dim
    bounds = []
    for s in sup.sectors():
        r = basis.indices[basis.indptr[s.start]]  # a vec(rho) entry of the sector
        d = abs(int(labels[r % dim]) - int(labels[r // dim]))
        bounds.append(min(floor[abs(k)] for k in range(d - 2, d + 3) if abs(k) < c))
    return np.array(bounds)


def zero_modes(eigenvalues: np.ndarray, kernel_dim: int) -> np.ndarray:
    """Mask of the ``kernel_dim`` eigenvalues of least modulus.

    The count comes from the model's statement of its kernel, not from a
    magnitude threshold: a dense solver returns the zero modes as round-off
    of order 1e-13, which a physical gap of a strongly driven model
    (2.5e-7 at eps = 1000) does not exceed by much.
    """
    w = np.asarray(eigenvalues)
    mask = np.zeros(w.size, dtype=bool)
    mask[np.argsort(np.abs(w), kind="stable")[:kernel_dim]] = True
    return mask


def classify(
    eigenvalues: np.ndarray,
    kernel_dim: int,
    partial: bool = False,
    condition: float = np.nan,
    near_defective: bool = False,
) -> SpectrumReport:
    """Build a SpectrumReport from raw eigenvalues and the kernel dimension."""
    w = np.asarray(eigenvalues, dtype=complex)
    order = np.lexsort((w.imag, np.abs(w.real)))
    w = w[order]
    scale = float(np.abs(w).max()) if w.size else 0.0
    zero_mask = zero_modes(w, kernel_dim)
    groups = _cluster_complex(w, CLUSTER_TOL * scale)
    clusters = tuple(
        Cluster(complex(np.mean(w[g])), len(g))
        for g in sorted(groups, key=lambda g: (abs(np.mean(w[g]).real), np.mean(w[g]).imag))
    )
    rates = -w[~zero_mask].real
    if rates.size:
        gap = float(rates.min())
        rate_groups = _cluster_complex(rates.astype(complex), CLUSTER_TOL * scale)
        distinct = np.sort([float(np.mean(rates[g])) for g in rate_groups])
    else:
        gap = 0.0
        distinct = np.array([])
    second = float(distinct[1]) if distinct.size >= 2 else None
    return SpectrumReport(
        eigenvalues=w,
        clusters=clusters,
        gap=gap,
        second_rate=second,
        distinct_rates=distinct,
        kernel_dim=int(zero_mask.sum()),
        near_defective=near_defective,
        partial=partial,
        condition_estimate=condition,
    )


# ---------------------------------------------------------------------------
# analytic results for the effective models
# ---------------------------------------------------------------------------


def gap_coherent(params: ModelParams) -> float:
    """Gap of the effective coherent model: 4 Gamma_eps = kappa (2 eps/kappa)^-2."""
    return 4.0 * params.gamma_eps


def tau_coherent(params: ModelParams) -> float:
    """Longest relaxation time, kappa*tau = (2 eps/kappa)^2."""
    return 1.0 / gap_coherent(params)


def coherent_lambda3(params: ModelParams) -> float:
    """Decay rate of the third distinct coherent cluster, 4 Gamma_g0 + 2 Gamma_eps."""
    return 4.0 * params.gamma_g0 + 2.0 * params.gamma_eps


def gap_incoherent(params: ModelParams) -> float:
    """Gap of the effective thermal model: 2 n_th Gamma = 2 n_th (g0/kappa)^2 kappa."""
    return 2.0 * params.n_th * params.gamma_collective


def tau_incoherent(params: ModelParams) -> float:
    """Longest relaxation time, kappa*tau = (kappa/g0)^2 / (2 n_th)."""
    gap = gap_incoherent(params)
    if gap == 0.0:
        raise UnsupportedRegimeError("tau_incoherent requires n_th > 0 and g0 > 0")
    return 1.0 / gap


def analytic_coherent(params: ModelParams) -> AnalyticSpectrum:
    """Six-entry eigenvalue table of the effective coherent model."""
    if params.eps <= 0.0:
        raise UnsupportedRegimeError("the coherent table requires eps > 0")
    ge = params.gamma_eps
    gg = params.gamma_g0
    entries = (
        (0.0, 2),
        (-4.0 * ge, 3),
        (-12.0 * ge, 1),
        (-4.0 * gg - 2.0 * ge, 6),
        (-4.0 * gg - 10.0 * ge, 2),
        (-4.0 * (4.0 * gg + ge), 2),
    )
    return AnalyticSpectrum("coherent", entries, params)


def analytic_incoherent(params: ModelParams) -> AnalyticSpectrum:
    """Eight-entry eigenvalue table of the effective thermal model."""
    if params.n_th < 0.0:
        raise ValueError("n_th must be nonnegative")
    g = params.gamma_collective
    n = params.n_th
    s1 = np.sqrt(1.0 + 16.0 * n * (n + 1.0))
    s2 = np.sqrt(n * (n + 1.0))
    entries = (
        (0.0, 2),
        (-2.0 * n * g, 2),
        ((-3.0 * (2.0 * n + 1.0) + s1) * g, 2),
        (-2.0 * (n + 1.0) * g, 2),
        (-2.0 * (2.0 * n + 1.0) * g, 4),
        ((-4.0 * (2.0 * n + 1.0) + 4.0 * s2) * g, 1),
        ((-3.0 * (2.0 * n + 1.0) - s1) * g, 2),
        ((-4.0 * (2.0 * n + 1.0) - 4.0 * s2) * g, 1),
    )
    return AnalyticSpectrum("incoherent", entries, params)


def _merge_entries(
    entries: tuple[tuple[float, int], ...], tol: float
) -> list[tuple[float, int]]:
    """Merge analytic entries that coincide (degenerate parameter points)."""
    merged: list[tuple[float, int]] = []
    for value, mult in sorted(entries, key=lambda e: e[0], reverse=True):
        if merged and abs(value - merged[-1][0]) <= tol:
            merged[-1] = (merged[-1][0], merged[-1][1] + mult)
        else:
            merged.append((value, mult))
    return merged


def compare_spectra(numeric: SpectrumReport, analytic: AnalyticSpectrum) -> MatchReport:
    """Greedy pairing of numeric clusters with the analytic table.

    Each analytic entry takes the nearest unused numeric cluster; per-entry
    relative errors use the entry magnitude (the spectral scale for the zero
    entry).  All match when every entry finds a cluster of its multiplicity
    within ``TABLE_REL_TOL``.  Unmatched clusters are reported, never raised.
    """
    scale = max(abs(v) for v, _ in analytic.entries)
    merged = _merge_entries(analytic.entries, 1e-12 * scale)
    available = list(numeric.clusters)
    results: list[MatchedEntry] = []
    max_rel = 0.0
    for value, mult in sorted(merged, key=lambda e: abs(e[0])):
        if not available:
            results.append(MatchedEntry(value, mult, None, np.inf, False))
            max_rel = np.inf
            continue
        dists = [abs(c.value - value) for c in available]
        best = int(np.argmin(dists))
        cluster = available.pop(best)
        denom = abs(value) if abs(value) > 0.0 else scale
        rel = abs(cluster.value - value) / denom
        results.append(
            MatchedEntry(value, mult, cluster.value, float(rel), cluster.count == mult)
        )
        max_rel = max(max_rel, rel)
    all_matched = (
        not available
        and all(e.multiplicity_ok for e in results)
        and all(e.rel_error <= TABLE_REL_TOL for e in results)
    )
    return MatchReport(tuple(results), tuple(available), all_matched, float(max_rel))


def match_eigenvalue_sets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Greedy nearest-pair matching of two eigenvalue lists.

    Conjugate partners are first folded onto the upper half plane (spectra of
    Hermiticity-preserving generators are conjugation-symmetric, so Re + i|Im|
    carries the full information); this keeps truncated lists comparable when
    a selection boundary splits a conjugate pair.  Returns per-pair relative
    deviations |a_i - b_j| / max(|a_i|, MATCH_ZERO_FLOOR * scale), with scale
    the largest magnitude present.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.size != b.size:
        raise ValueError("eigenvalue lists must have equal length")
    a = a.real + 1j * np.abs(a.imag)
    b = b.real + 1j * np.abs(b.imag)
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()), 1e-300)
    remaining = list(range(b.size))
    devs = np.empty(a.size)
    for i, z in enumerate(a):
        dists = [abs(z - b[j]) for j in remaining]
        pick = int(np.argmin(dists))
        j = remaining.pop(pick)
        devs[i] = abs(z - b[j]) / max(abs(z), MATCH_ZERO_FLOOR * scale)
    return devs


def _shift_invert(
    sup: Superoperator, k: int, sigma: complex, size: int | None = None
) -> np.ndarray:
    """The ``k`` eigenvalues nearest ``sigma`` (ARPACK shift-invert of G, or
    of its leading sectors G[:size, :size]), from a deterministic generic
    start vector so targeted solves are reproducible.  G is cast to complex
    for a shift off the real axis, where real ARPACK would iterate on the
    real part of the shifted inverse."""
    g = sup.generator()
    if size is not None:
        g = g[:size, :size]
    return spla.eigs(
        g.astype(complex) if np.imag(sigma) else g,
        k=k,
        sigma=sigma,
        which="LM",
        return_eigenvectors=False,
        v0=np.cos(0.7 * np.arange(g.shape[0])) + 0.3,
    )


def slowest_eigenvalues(
    sup: Superoperator, count: int, k: int = 48, sigma: complex = 0.05
) -> np.ndarray:
    """The ``count`` eigenvalues of smallest |Re|, via shift-invert near ``sigma``.

    ``k`` controls how many eigenvalues the targeted solve retrieves before
    the |Re| selection; it must comfortably exceed ``count`` so slow modes
    with large imaginary parts are not missed near the selection boundary.
    """
    w = _shift_invert(sup, k, sigma)
    order = np.lexsort((np.abs(w.imag), np.abs(w.real)))
    return w[order][:count]


def splitting_diagnostic(report: SpectrumReport) -> SplittingDiagnostic:
    """Locate the dominant break in the distinct-rate ladder.

    The break is the largest ratio between consecutive distinct rates; the
    reported ratio compares the rate just above the break with the gap, and
    the metastable flag fires when it exceeds ``METASTABLE_RATIO``.
    """
    rates = report.distinct_rates
    if rates.size < 2:
        raise SpectrumDiagnosticError(
            "splitting diagnostic requires at least 2 distinct nonzero rates"
        )
    consecutive = rates[1:] / rates[:-1]
    split = int(np.argmax(consecutive)) + 1
    ratio = float(rates[split] / report.gap)
    return SplittingDiagnostic(
        ratio=ratio,
        gap=report.gap,
        fast_rate=float(rates[split]),
        metastable=ratio > METASTABLE_RATIO,
    )
