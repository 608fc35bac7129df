from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from atomcavity import ModelParams, make_space, models, spectra
from atomcavity.errors import (
    NumericalAccuracyError,
    SpectrumDiagnosticError,
    UnsupportedRegimeError,
)
from atomcavity.models import MasterEquation, vectorize
from atomcavity.operators import LabeledOperator


class _Dim3:
    dim = 3
    has_field = False
    fock_cutoff = None
    dims = (3,)


def diag_superop(values):
    """Wrap a diagonal matrix as a fake Superoperator of a trivial model
    (unique kernel: nothing but the trace is conserved)."""

    class _Sup:
        dim = len(values)
        me = MasterEquation(LabeledOperator("0", np.zeros((3, 3), dtype=complex)), (), _Dim3())

        def sectors(self):
            return [slice(0, self.dim)]

        def generator(self, sector=None):
            return np.diag(np.asarray(values, dtype=float)), 0.0

    return _Sup()


class TestAnalyze:
    def test_diagonal_liouvillian(self):
        rep = spectra.analyze(diag_superop([0.0, -1.0, -2.0]))
        assert rep.gap == pytest.approx(1.0)
        assert rep.kernel_dim == 1
        assert rep.distinct_rates[1] == pytest.approx(2.0)

    def test_coherent_gap_and_kernel(self):
        p = ModelParams(g0=0.25, eps=10.0)
        rep = spectra.analyze(vectorize(models.build_effective_coherent(p)))
        assert rep.kernel_dim == 2
        assert rep.gap == pytest.approx(4.0 * p.gamma_eps, rel=1e-10)
        assert rep.gap == pytest.approx(2.5e-3, rel=1e-10)

    def test_incoherent_gap(self):
        p = ModelParams(g0=0.1, n_th=1.0)
        rep = spectra.analyze(vectorize(models.build_effective_incoherent(p)))
        assert rep.gap == pytest.approx(0.02, rel=1e-10)
        assert rep.kernel_dim == 2

    def test_cluster_counts_sum(self):
        p = ModelParams(g0=0.3, eps=5.0)
        rep = spectra.analyze(vectorize(models.build_effective_coherent(p)))
        assert sum(c.count for c in rep.clusters) == rep.eigenvalues.size == 16

    def test_rates_near_underflow_are_refused_not_misread(self):
        # a thermal rate of 1e-16 leaves entries the dense solve cannot
        # resolve, and its eigenpair residual check refuses them; at 1e-10
        # the gap is resolved, within the 1% (g0^2) correction to the
        # effective model's 2 n_th g0^2
        space = make_space(3)
        with pytest.raises(NumericalAccuracyError, match="eigenpair residual"):
            spectra.analyze(vectorize(models.build_full(space, ModelParams(g0=0.1, n_th=1e-16))))
        p = ModelParams(g0=0.1, n_th=1e-10)
        rep = spectra.analyze(vectorize(models.build_full(space, p)))
        assert rep.gap == pytest.approx(spectra.gap_incoherent(p), rel=2e-2)


def _cluster_reference(values: np.ndarray, tol: float) -> list[list[int]]:
    """Greedy clustering that scans every group for every value, closed or
    not: the reference ``spectra._cluster_complex`` must reproduce."""
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


#: coordinates on a coarse lattice, where groups tie and chain, or anywhere
_coordinate = st.one_of(st.integers(-16, 16).map(lambda k: k / 8.0), st.floats(-2.0, 2.0))


class TestClusterComplex:
    @settings(max_examples=200)
    @given(
        values=st.lists(st.builds(complex, _coordinate, _coordinate), max_size=60),
        tol=st.sampled_from([0.0, 0.05, 0.125, 0.3, 1.0]),
    )
    def test_closed_groups_are_skipped_without_moving_a_value(self, values, tol):
        w = np.array(values, dtype=complex)
        assert spectra._cluster_complex(w, tol) == _cluster_reference(w, tol)

    @pytest.mark.parametrize("eps", [10.0, 1000.0])
    @pytest.mark.parametrize("rel_tol", [1e-9, spectra.CLUSTER_TOL, 1e-5, 1e-3])
    def test_displaced_spectra_group_as_before(self, eps, rel_tol):
        sup = models.Superoperator(models.build_coherent_displaced(make_space(5), ModelParams(g0=0.25, eps=eps)))
        w = np.concatenate([np.linalg.eigvals(sup.as_dense(s)) for s in sup.sectors()])
        tol = rel_tol * np.abs(w).max()
        assert spectra._cluster_complex(w, tol) == _cluster_reference(w, tol)


class TestAnalyticTables:
    def test_coherent_entries(self):
        p = ModelParams(g0=0.25, eps=100.0)
        tab = spectra.analytic_coherent(p)
        assert sum(m for _, m in tab.entries) == 16
        assert [m for _, m in tab.entries] == [2, 3, 1, 6, 2, 2]
        # lambda3 at the Fig. 1(c) anchor parameters
        assert tab.entries[3][0] == pytest.approx(-0.0625125)

    def test_coherent_gap_ordering(self):
        p = ModelParams(g0=0.125, eps=10.0)
        tab = spectra.analytic_coherent(p)
        nonzero = sorted(-v for v, _ in tab.entries if v != 0.0)
        assert nonzero[0] == pytest.approx(4.0 * p.gamma_eps)
        assert nonzero[0] == pytest.approx(2.5e-3)

    def test_coherent_requires_drive(self):
        with pytest.raises(UnsupportedRegimeError):
            spectra.analytic_coherent(ModelParams(g0=0.1, eps=0.0))

    def test_incoherent_entries(self):
        p = ModelParams(g0=0.1, n_th=1.0)
        tab = spectra.analytic_incoherent(p)
        assert sum(m for _, m in tab.entries) == 16
        assert [m for _, m in tab.entries] == [2, 2, 2, 2, 4, 1, 2, 1]
        g = p.gamma_collective
        assert tab.entries[2][0] / g == pytest.approx(-9.0 + np.sqrt(33.0))

    def test_incoherent_zero_temperature_merges(self):
        p = ModelParams(g0=0.1, n_th=0.0)
        tab = spectra.analytic_incoherent(p)
        g = p.gamma_collective
        values = sorted(v / g for v, _ in tab.entries)
        assert values[0] == pytest.approx(-4.0)   # lambda7
        assert values[2] == pytest.approx(-4.0)   # lambda5 merges at -4
        assert tab.entries[1][0] == 0.0           # lambda1 merges with kernel

    def test_incoherent_gap_value(self):
        p = ModelParams(g0=0.01, n_th=10.0)
        assert spectra.gap_incoherent(p) == pytest.approx(2e-3, rel=1e-12)
        assert spectra.tau_incoherent(p) == pytest.approx(500.0, rel=1e-12)


class TestCompareSpectra:
    @pytest.mark.parametrize("seed", range(5))
    def test_coherent_random_points(self, seed):
        rng = np.random.default_rng(1000 + seed)
        p = ModelParams(g0=float(10 ** rng.uniform(-1.3, 0)), eps=float(10 ** rng.uniform(0.3, 2.3)))
        rep = spectra.analyze(vectorize(models.build_effective_coherent(p)))
        match = spectra.compare_spectra(rep, spectra.analytic_coherent(p))
        assert match.all_matched
        assert match.max_rel_error <= 1e-10

    @pytest.mark.parametrize("n_th", [0.5, 1.0, 2.0])
    def test_incoherent_points(self, n_th):
        p = ModelParams(g0=0.1, n_th=n_th)
        rep = spectra.analyze(vectorize(models.build_effective_incoherent(p)))
        match = spectra.compare_spectra(rep, spectra.analytic_incoherent(p))
        assert match.all_matched

    def test_mismatch_reported_not_raised(self):
        p = ModelParams(g0=0.25, eps=10.0)
        rep = spectra.analyze(vectorize(models.build_effective_coherent(p)))
        wrong = ModelParams(g0=0.25, eps=11.0)
        match = spectra.compare_spectra(rep, spectra.analytic_coherent(wrong))
        assert not match.all_matched
        assert match.max_rel_error > 1e-10


class TestSplitting:
    def test_strong_metastability(self):
        p = ModelParams(g0=0.25, eps=1000.0)
        rep = spectra.analyze(vectorize(models.build_effective_coherent(p)))
        diag = spectra.splitting_diagnostic(rep)
        assert diag.metastable
        assert diag.ratio == pytest.approx(2.5e5, rel=5e-3)
        assert diag.fast_rate == pytest.approx(spectra.coherent_lambda3(p), rel=1e-6)

    def test_moderate_regime(self):
        p = ModelParams(g0=0.125, eps=10.0)
        rep = spectra.analyze(vectorize(models.build_effective_coherent(p)))
        diag = spectra.splitting_diagnostic(rep)
        assert not diag.metastable
        assert diag.ratio < 10.0

    def test_incoherent_no_splitting(self):
        p = ModelParams(g0=0.1, n_th=10.0)
        rep = spectra.analyze(vectorize(models.build_effective_incoherent(p)))
        diag = spectra.splitting_diagnostic(rep)
        assert not diag.metastable
        assert diag.ratio < 10.0

    def test_unavailable_without_rates(self):
        with pytest.raises(SpectrumDiagnosticError):
            spectra.splitting_diagnostic(spectra.classify(np.array([0.0, -1.0]), 1))


class TestMonotonicity:
    def test_coherent_gap_decreases_with_drive(self):
        gaps = [spectra.gap_coherent(ModelParams(g0=0.25, eps=e)) for e in np.logspace(0.5, 3, 8)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_incoherent_gap_increases_with_temperature(self):
        gaps = [
            spectra.gap_incoherent(ModelParams(g0=0.1, n_th=n)) for n in np.linspace(0.5, 20, 8)
        ]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    def test_numeric_tracks_analytic_on_grid(self):
        for eps in (5.0, 50.0):
            p = ModelParams(g0=0.2, eps=eps)
            rep = spectra.analyze(vectorize(models.build_effective_coherent(p)))
            assert rep.gap == pytest.approx(spectra.gap_coherent(p), rel=1e-10)


class TestTargetedPath:
    def test_lab_frame_thermal_gap_approaches_formula(self):
        # exact lab-frame gap tends to 2 n_th (g0/kappa)^2 kappa as g0 -> 0
        from atomcavity import make_space

        n_th = 1.0
        errors = []
        for g0, cutoff in ((0.1, 24), (0.03, 24)):
            p = ModelParams(g0=g0, n_th=n_th)
            sup = vectorize(models.build_full(make_space(cutoff), p), materialize=False)
            rep = spectra.analyze(sup, k=12)
            ana = spectra.gap_incoherent(p)
            errors.append(abs(rep.gap - ana) / ana)
        assert errors[0] < 0.05          # ~2% at g0 = 0.1 (Fig. 3 regime)
        assert errors[1] < errors[0]     # improves toward the formula

    @pytest.mark.parametrize("eps", [1000.0, 3000.0])
    def test_dense_agrees_with_targeted_at_strong_drive(self, eps):
        # the gap 1/(2 eps)^2 sits a few decades above the ~1e-13 round-off
        # zgeev leaves on the kernel eigenvalues; a zero threshold of 1e-9 x
        # spectral radius counted four slow modes into the kernel here
        from atomcavity import make_space

        p = ModelParams(g0=0.25, eps=eps)
        sup = vectorize(models.build_coherent_displaced(make_space(8), p), materialize=False)
        dense = spectra.analyze(sup)
        targeted = spectra.analyze(sup, k=24)
        assert not dense.partial and targeted.partial
        assert dense.kernel_dim == targeted.kernel_dim == 2
        assert dense.gap == pytest.approx(targeted.gap, rel=1e-4)
        assert targeted.gap == pytest.approx(spectra.gap_coherent(p), rel=1e-3)

    def test_matches_dense_on_slow_modes(self):
        # dual-route check: shift-invert vs full diagonalization
        p = ModelParams(g0=0.25, eps=2.0)
        me = models.build_coherent_displaced(models.make_space(6) if hasattr(models, "make_space") else __import__("atomcavity").make_space(6), p)
        sup = vectorize(me, materialize=False)
        dense_rep = spectra.analyze(sup)
        slow = spectra.slowest_eigenvalues(sup, 8, k=40)
        devs = spectra.match_eigenvalue_sets(dense_rep.eigenvalues[:8], slow)
        assert devs.max() < 1e-8


_THERMAL = ModelParams(g0=1.0, n_th=1.0)
_DRIVEN = ModelParams(g0=0.25, eps=2.0)


# each k stops at a clear gap in the distances to the shift, so "the k
# nearest" is one set
@pytest.mark.parametrize(
    "build,params,cutoff,k,sigma",
    [pytest.param(models.build_full, _THERMAL, c, 16, 1e-3, id=f"thermal-cutoff{c}") for c in (4, 5, 6)]
    + [
        pytest.param(models.build_coherent_displaced, _DRIVEN, 6, 10, 1e-3, id="displaced"),
        pytest.param(models.build_coherent_displaced, ModelParams(g0=0.25, eps=2.0, gamma=0.05), 6, 8,
                     1e-3, id="displaced-gamma"),
        pytest.param(models.build_coherent_displaced, _DRIVEN, 6, 10, 1e-3 + 2j * _DRIVEN.omega,
                     id="displaced-complex-shift"),
    ],
)
def test_shift_invert_of_the_real_generator_matches_the_complex_csr(build, params, cutoff, k, sigma):
    # the targeted solves run ARPACK on the real generator G; the complex CSR
    # matrix, diagonalized densely, is their oracle: the k eigenvalues
    # nearest the shift, to 1e-10 relative (kernel eigenvalues relative to
    # MATCH_ZERO_FLOOR of the largest)
    sup = models.Superoperator(build(make_space(cutoff), params))
    w = np.linalg.eigvals(sup.as_sparse().toarray())
    dist = np.abs(w - sigma)
    order = np.argsort(dist)
    assert dist[order[k]] - dist[order[k - 1]] > 1e-2 * dist[order[k]]
    want = w[order[:k]]
    floor = spectra.MATCH_ZERO_FLOOR * np.abs(want).max()

    def worst(got):
        cost = np.abs(np.asarray(got)[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(cost)
        return (cost[rows, cols] / np.maximum(np.abs(want[cols]), floor)).max()

    assert worst(spectra.slowest_eigenvalues(sup, k, k=k, sigma=sigma)) <= 1e-10
    if not np.imag(sigma):
        rep = spectra.analyze(sup, k=k)
        assert rep.partial and rep.eigenvalues.size == k
        assert worst(rep.eigenvalues) <= 1e-10


def _whole(sup: models.Superoperator) -> models.Superoperator:
    """The same model without its detailed-balance statement: its targeted
    solves run on all of G."""
    return models.Superoperator(replace(sup.me, balance=None))


@given(
    g0=st.floats(0.03, 3.0),
    n_th=st.floats(0.0, 5.0, exclude_min=True),
    gamma=st.sampled_from([0.0, 1e-3, 0.3]),
    cutoff=st.integers(3, 7),
)
@example(g0=2.1137433487345567, n_th=5e-324, gamma=1e-3, cutoff=7)
@example(g0=2.1137433487345567, n_th=5e-324, gamma=0.0, cutoff=7)
def test_every_sector_decays_at_least_at_its_rate_bound(g0, n_th, gamma, cutoff):
    # the oracle is the dense spectrum of each sector of G: under the stated
    # detailed balance every eigenvalue's rate -Re lambda is at or above the
    # sector's bound, which is 0 exactly on the |d| <= 2 sectors that lead G
    sup = models.Superoperator(models.build_full(make_space(cutoff), ModelParams(g0=g0, n_th=n_th, gamma=gamma)))
    bounds = spectra.rate_bounds(sup)
    if bounds is None:
        # a raising rate gamma n_th that underflows leaves sigma_- unpaired:
        # the model states no weight and its solves take all of G
        assert gamma * n_th == 0.0 and sup.me.balance is None
        return
    sectors = sup.sectors()
    assert bounds.shape == (len(sectors),)
    basis, _ = sup.maps()
    n, dim = sup.me.excitations, sup.me.dim
    tol = 1e-12 * sup.norm_estimate()
    for s, bound in zip(sectors, bounds):
        rows = basis[:, s].tocoo().row
        assert (bound == 0.0) == (np.abs(n[rows % dim] - n[rows // dim]).max() <= 2)
        rates = -np.linalg.eigvals(sup.as_dense(s)).real
        assert rates.min() >= bound - tol


@pytest.mark.parametrize(
    "cutoff,g0,n_th,gamma",
    [(8, 0.1, 1.9, 0.0), (16, 0.3, 4.0, 1e-3), (24, 0.3, 2.0, 0.3), (32, 0.3, 0.5, 0.0)],
)
def test_certified_gap_equals_the_whole_generator_gap(cutoff, g0, n_th, gamma):
    sup = models.Superoperator(models.build_full(make_space(cutoff), ModelParams(g0=g0, n_th=n_th, gamma=gamma)))
    rep = spectra.analyze(sup, k=16)
    whole = spectra.analyze(_whole(sup), k=16)
    assert rep.solver == "certified-shift-invert" and whole.solver == "shift-invert"
    assert rep.dim < whole.dim == sup.dim and whole.excluded_bound is None
    assert rep.gap < rep.excluded_bound
    assert rep.gap == pytest.approx(whole.gap, rel=1e-12)
    assert rep.kernel_dim == whole.kernel_dim == 1 + len(sup.me.conserved)


def test_a_gap_above_the_bound_falls_back_to_the_whole_generator():
    # strong coupling at cutoff 8: at n_th = 1 the gap clears the least bound
    # of the |d| >= 3 sectors by 4e-5; at n_th = 4 it does not, and the
    # report is the whole-G one
    def report(n_th):
        p = ModelParams(g0=3.0, n_th=n_th, gamma=0.3)
        return models.Superoperator(models.build_full(make_space(8), p))

    sup = report(1.0)
    rep = spectra.analyze(sup, k=16)
    assert rep.solver == "certified-shift-invert" and rep.dim == 528
    assert rep.gap == pytest.approx(1.12669, rel=1e-5)
    assert rep.excluded_bound == pytest.approx(1.12673, rel=1e-5)
    sup = report(4.0)
    rep = spectra.analyze(sup, k=16)
    whole = spectra.analyze(_whole(sup), k=16)
    assert rep.solver == "shift-invert-fallback" and rep.dim == whole.dim == 1024
    assert rep.excluded_bound == pytest.approx(3.0, rel=1e-12)
    assert rep.gap == pytest.approx(3.449, rel=1e-3)
    assert np.array_equal(rep.eigenvalues, whole.eigenvalues)
    assert (rep.gap, rep.kernel_dim) == (whole.gap, whole.kernel_dim)


@pytest.mark.parametrize(
    "build,params",
    [
        (models.build_full, ModelParams(g0=0.3, n_th=0.0, gamma=1e-3)),
        (models.build_full, ModelParams(g0=0.3, eps=0.5, n_th=1.0)),
        (models.build_coherent_displaced, ModelParams(g0=0.25, eps=2.0)),
    ],
)
def test_models_without_a_weight_solve_the_whole_generator(build, params):
    sup = models.Superoperator(build(make_space(6), params))
    assert spectra.rate_bounds(sup) is None
    rep = spectra.analyze(sup, k=12)
    assert (rep.solver, rep.dim, rep.excluded_bound) == ("shift-invert", sup.dim, None)
