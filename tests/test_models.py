from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from atomcavity import ModelParams, atomic_space, make_space, models, spectra
from atomcavity.errors import DimensionLimitError, NumericalAccuracyError, UnsupportedRegimeError
from atomcavity.linalg import DENSE_CAP, eig_general
from atomcavity.models import (
    MasterEquation,
    Superoperator,
    build_coherent_displaced,
    build_effective_coherent,
    build_effective_incoherent,
    build_full,
    build_rwa_displaced,
    unvec,
    vec,
    vectorize,
)
from atomcavity.operators import (
    LabeledOperator,
    SystemSpace,
    atom_swap,
    collective_spin,
    dressed_spin,
    excitation_number,
    single_atom,
)

from conftest import random_hermitian


def trace_functional_residual(sup: Superoperator, rho: np.ndarray) -> float:
    """|<vec(I), L vec(rho)>| = |d/dt Tr rho|."""
    out = sup.apply(vec(rho))
    return abs(np.trace(unvec(out)))


def apply_oracle(me: MasterEquation, rho: np.ndarray) -> np.ndarray:
    """The generator applied to a D x D matrix by matrix algebra, term by
    term as the master equation is written (no vectorization)."""
    h = me.hamiltonian.matrix
    out = -1j * (h @ rho - rho @ h)
    for op, rate in me.dissipators:
        o = op.matrix
        odo = o.conj().T @ o
        out += rate * (2.0 * (o @ rho @ o.conj().T) - odo @ rho - rho @ odo)
    for ct in me.cross_terms:
        bd = ct.right.conj().T
        bda = bd @ ct.left
        out += ct.weight * (2.0 * (ct.left @ rho @ bd) - bda @ rho - rho @ bda)
    return out


BUILDERS = [
    ("full", lambda: build_full(make_space(3), ModelParams(g0=0.2, eps=0.5, n_th=0.2, gamma=0.02))),
    ("incoherent", lambda: build_full(make_space(4), ModelParams(g0=0.1, n_th=1.0))),
    ("coherent-displaced", lambda: build_coherent_displaced(make_space(4), ModelParams(g0=0.25, eps=2.0))),
    ("full-displaced", lambda: build_coherent_displaced(make_space(4), ModelParams(g0=0.25, eps=2.0, gamma=0.05))),
    ("rwa-displaced", lambda: build_rwa_displaced(make_space(4), ModelParams(g0=0.25, eps=100.0))),
    ("effective-coherent", lambda: build_effective_coherent(ModelParams(g0=0.25, eps=10.0))),
    ("effective-incoherent", lambda: build_effective_incoherent(ModelParams(g0=0.1, n_th=1.0))),
]


@pytest.mark.parametrize("name,factory", BUILDERS, ids=[b[0] for b in BUILDERS])
def test_apply_matches_matrix_algebra(name, factory, rng):
    me = factory()
    sup = vectorize(me, materialize=False)
    rho = rng.standard_normal((me.dim, me.dim)) + 1j * rng.standard_normal((me.dim, me.dim))
    expected = apply_oracle(me, rho)
    assert_allclose(unvec(sup.apply(vec(rho))), expected, rtol=0.0,
                    atol=1e-13 * np.abs(expected).max())


#: every builder, given the parameters of its regime out of one full draw
#: (the lab and displaced frames also at eps = gamma = 0 and gamma = 0)
PARAMETRIC_BUILDERS = {
    "full": build_full,
    "incoherent": lambda s, p: build_full(s, replace(p, eps=0.0, gamma=0.0)),
    "thermal": lambda s, p: build_full(s, replace(p, eps=0.0)),
    "coherent-displaced": lambda s, p: build_coherent_displaced(s, replace(p, n_th=0.0, gamma=0.0)),
    "full-displaced": lambda s, p: build_coherent_displaced(s, replace(p, n_th=0.0)),
    "rwa-displaced": lambda s, p: build_rwa_displaced(s, replace(p, n_th=0.0, gamma=0.0)),
    "effective-coherent": lambda s, p: build_effective_coherent(p),
    "effective-incoherent": lambda s, p: build_effective_incoherent(p),
}


@pytest.mark.parametrize("name", sorted(PARAMETRIC_BUILDERS))
@given(
    g0=st.floats(0.05, 1.0),
    eps=st.floats(3.0, 30.0),
    n_th=st.floats(0.2, 5.0),
    gamma=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
    cutoff=st.sampled_from([3, 4]),
)
def test_stated_conserved_quantities_span_the_kernel(name, g0, eps, n_th, gamma, cutoff):
    # g0 and n_th stay away from 0, where decoupled atoms or a zero-temperature
    # bath enlarge the kernel beyond what any builder states
    me = PARAMETRIC_BUILDERS[name](make_space(cutoff), ModelParams(g0, eps, n_th, gamma))
    sup = vectorize(me)
    lv = sup.as_sparse()
    for q in (np.eye(me.dim, dtype=complex),) + tuple(q.matrix for q in me.conserved):
        # L^dag annihilates vec(Q): Tr[Q rho] is constant in time
        resid = np.linalg.norm(lv.conj().T @ vec(q))
        assert resid <= 1e-12 * sup.norm_estimate() * np.linalg.norm(vec(q))
    assert scipy.linalg.null_space(sup.as_dense()).shape[1] == 1 + len(me.conserved)
    rho = random_hermitian(me.dim, np.random.default_rng(cutoff))
    out = unvec(sup.apply(vec(rho)))
    assert_allclose(out, out.conj().T, rtol=0.0, atol=1e-13 * np.abs(out).max())


class TestParams:
    def test_kappa_pinned(self):
        with pytest.raises(ValueError):
            ModelParams(g0=0.1, kappa=2.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(g0=0.1, gamma=-1.0)

    def test_effective_rates(self):
        p = ModelParams(g0=0.25, eps=10.0)
        assert_allclose(p.gamma_eps, 1.0 / 1600.0)
        assert_allclose(p.gamma_g0, 1.0 / 64.0)


class TestVectorizeOracle:
    def test_two_level_cascade(self):
        # hand-computed: H=0, single jump a at rate kappa on a 2-dim Fock-only
        # space gives eigenvalues {0, -kappa, -kappa, -2 kappa}
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        space = SystemSpace(None)  # any 4-dim marker is wrong here; build manually
        me = MasterEquation(
            LabeledOperator("0", np.zeros((2, 2), dtype=complex)),
            ((LabeledOperator("a", a), 1.0),),
            _TwoDim(),
        )
        sup = vectorize(me)
        w = np.linalg.eigvals(sup.as_dense())
        assert_allclose(sorted(w.real), [-2.0, -1.0, -1.0, 0.0], atol=1e-12)
        assert_allclose(w.imag, 0.0, atol=1e-12)

    def test_effective_coherent_matches_table(self):
        from atomcavity import spectra

        p = ModelParams(g0=0.25, eps=10.0)
        sup = vectorize(build_effective_coherent(p))
        rep = spectra.analyze(sup)
        match = spectra.compare_spectra(rep, spectra.analytic_coherent(p))
        assert match.all_matched

    def test_steady_state_annihilated(self):
        from atomcavity.dynamics import ground_state, steady_state

        p = ModelParams(g0=0.1, n_th=2.0)
        sup = vectorize(build_effective_incoherent(p))
        ss = steady_state(sup, ground_state(atomic_space()))
        resid = np.linalg.norm(sup.apply(vec(ss.matrix)))
        assert resid <= 1e-10 * sup.norm_estimate()

    def test_dense_cap(self):
        p = ModelParams(g0=0.1, n_th=1.0)
        me = build_full(make_space(32), p)
        with pytest.raises(DimensionLimitError):
            vectorize(me, materialize=True)
        sup = vectorize(me, materialize=False)
        assert sup._dense is None and sup.as_sparse().shape == (128**2, 128**2)

    def test_dense_copy_is_lazy(self):
        sup = vectorize(build_effective_incoherent(ModelParams(g0=0.1, n_th=1.0)), materialize=False)
        sup.apply(np.ones(sup.dim, dtype=complex))
        sup.norm_estimate()
        assert sup._dense is None
        dense = sup.as_dense()
        assert sup._dense is dense

    def test_dense_copy_refuses_a_generator_that_breaks_hermiticity(self):
        # H = i D is not Hermitian: -i[H, rho] = D rho - rho D is
        # anti-Hermitian for Hermitian rho, so T L T^-1 is not real
        space = atomic_space()
        h = LabeledOperator("iD", 1j * np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
        sup = vectorize(MasterEquation(h, (), space), materialize=False)
        with pytest.raises(NumericalAccuracyError, match="not real"):
            sup.as_dense()


class _TwoDim:
    """Minimal space stand-in for the 2-level cascade oracle."""

    dim = 2
    has_field = True
    fock_cutoff = 2
    dims = (2,)


class TestBuildFull:
    def test_pure_cavity_decay_vacuum_stationary(self):
        p = ModelParams(g0=0.0, eps=0.0)
        space = make_space(3)
        me = build_full(space, p)
        sup = vectorize(me)
        # vacuum (x) any atomic state is stationary
        for atomic in (0, 3):
            rho = np.zeros((12, 12), dtype=complex)
            rho[atomic * 3, atomic * 3] = 1.0
            assert np.linalg.norm(sup.apply(vec(rho))) < 1e-12

    def test_reduces_to_displaced_form_termwise(self):
        # gamma=0, n_th=0: H = H_TC + H_d with single dissipator (a, kappa),
        # and H equals the dressed-basis form of the displaced builder plus
        # the drive (the displaced H1 with Omega from the same params)
        p = ModelParams(g0=0.25, eps=2.0)
        space = make_space(4)
        me = build_full(space, p)
        assert len(me.dissipators) == 1
        op, rate = me.dissipators[0]
        assert op.label == "a" and rate == 1.0
        # H is exactly H_TC + i eps (a^dag - a)
        from atomcavity.operators import annihilation

        a = annihilation(space).matrix
        sp_ = collective_spin(space, "plus").matrix
        sx = collective_spin(space, "x").matrix
        h_tc = p.g0 * (a @ sp_ + a.conj().T @ sp_.conj().T)
        h_d = 1j * p.eps * (a.conj().T - a)
        assert_allclose(me.hamiltonian.matrix, h_tc + h_d, atol=1e-14)
        # and H_TC + Omega S_x equals the displaced H1 (basis identity)
        h1 = build_coherent_displaced(space, p).hamiltonian.matrix
        assert_allclose(h_tc + p.omega * sx, h1, atol=1e-13)

    def test_fig5_model_has_atomic_channels(self):
        p = ModelParams(g0=0.1, eps=np.sqrt(10.0), gamma=1e-3)
        me = build_full(make_space(2), p)
        labels = [op.label for op, _ in me.dissipators]
        assert labels == ["a", "sigma_minus^1", "sigma_minus^2"]
        rates = [r for _, r in me.dissipators]
        assert_allclose(rates, [1.0, 5e-4, 5e-4])


class TestDisplacedModels:
    def test_eps_zero_reduces_to_tc(self):
        p = ModelParams(g0=0.3, eps=0.0)
        space = make_space(3)
        h1 = build_coherent_displaced(space, p).hamiltonian.matrix
        h_full = build_full(space, p).hamiltonian.matrix
        assert_allclose(h1, h_full, atol=1e-14)

    def test_regime_guard(self):
        with pytest.raises(UnsupportedRegimeError):
            build_coherent_displaced(make_space(2), ModelParams(g0=0.1, n_th=1.0))

    def test_atomic_decay_channels(self):
        # gamma > 0 adds each atom's decay after the cavity channel, and
        # single-atom decay breaks the exchange symmetry the singlet rests on
        me = build_coherent_displaced(make_space(2), ModelParams(g0=0.1, eps=3.0, gamma=1e-3))
        assert [op.label for op, _ in me.dissipators] == ["a", "sigma_minus^1", "sigma_minus^2"]
        assert [r for _, r in me.dissipators] == [1.0, 5e-4, 5e-4]
        assert me.conserved == ()

    def test_gamma_variant_isospectral_with_lab_frame(self):
        # the displacement commutes with the atomic decay channels, so the
        # gamma > 0 displaced surrogate shares the lab-frame spectrum
        from atomcavity import spectra

        p = ModelParams(g0=0.25, eps=1.0, gamma=0.05)
        lab = vectorize(build_full(make_space(20), p), materialize=False)
        disp = vectorize(build_coherent_displaced(make_space(10), p), materialize=False)
        w_lab = spectra.slowest_eigenvalues(lab, 10, k=40, sigma=0.02)
        w_disp = spectra.slowest_eigenvalues(disp, 10, k=40, sigma=0.02)
        devs = spectra.match_eigenvalue_sets(w_lab, w_disp)
        assert devs.max() < 1e-3


class TestRwaDisplaced:
    def test_decoupled_limit(self):
        # g0 -> 0: H collapses to the bare Omega J_z rotation on top of cavity
        # decay; the J_+- rates stay at kappa (kappa/4 eps)^2 by construction
        # (g0/4 Omega = kappa/4 eps is g0-independent)
        p = ModelParams(g0=1e-12, eps=100.0)
        me = build_rwa_displaced(make_space(3), p)
        jz = dressed_spin(make_space(3), "z").matrix
        assert_allclose(me.hamiltonian.matrix, p.omega * jz, atol=1e-10)
        assert me.dissipators[0][1] == 1.0  # cavity channel at kappa
        assert me.dissipators[1][1] == pytest.approx(p.gamma_eps)

    def test_regime_warning(self):
        with pytest.warns(UserWarning):
            build_rwa_displaced(make_space(2), ModelParams(g0=0.25, eps=1.0))

    def test_cross_terms_annihilate_trace(self, rng):
        p = ModelParams(g0=0.25, eps=100.0)
        space = make_space(4)
        me = build_rwa_displaced(space, p)
        cross_only = MasterEquation(
            LabeledOperator("0", np.zeros((space.dim, space.dim), dtype=complex)),
            (),
            space,
            cross_terms=me.cross_terms,
        )
        sup = vectorize(cross_only, materialize=False)
        for _ in range(5):
            rho = random_hermitian(space.dim, rng)
            assert trace_functional_residual(sup, rho) < 1e-12

    def test_cross_terms_preserve_hermiticity(self, rng):
        p = ModelParams(g0=0.25, eps=100.0)
        space = make_space(3)
        sup = vectorize(build_rwa_displaced(space, p), materialize=False)
        rho = random_hermitian(space.dim, rng)
        out = unvec(sup.apply(vec(rho)))
        assert_allclose(out, out.conj().T, atol=1e-12)

    def test_atomic_reduction_matches_effective(self):
        # adiabatic elimination cross-model oracle at desk scale:
        # mutual-information trajectories agree to 1e-3 for eps=1000, g0=1/4
        from atomcavity import dynamics as dyn
        from atomcavity import observables as obs

        p = ModelParams(g0=0.25, eps=1000.0)
        space = make_space(4)
        # the elimination carries an O(1/kappa) time offset, so compare after
        # the initial rise has completed
        grid = dyn.time_grid(2.0e4, 40, t_min=40.0)

        sup_rwa = vectorize(build_rwa_displaced(space, p), materialize=False)
        traj_rwa = dyn.evolve_spectral(sup_rwa, dyn.ground_state(space), grid)
        mi_rwa = np.array([obs.atomic_mutual_information(s) for s in traj_rwa.states])

        sup_eff = vectorize(build_effective_coherent(p))
        traj_eff = dyn.evolve_spectral(sup_eff, dyn.ground_state(atomic_space()), grid)
        mi_eff = np.array([obs.mutual_information(s) for s in traj_eff.states])
        assert np.max(np.abs(mi_rwa - mi_eff)) < 1e-3


class TestEffectiveModels:
    def test_effective_coherent_rates(self):
        p = ModelParams(g0=0.25, eps=10.0)
        me = build_effective_coherent(p)
        rates = {op.label: r for op, r in me.dissipators}
        assert_allclose(rates["J_minus"], 1.0 / 1600.0)
        assert_allclose(rates["J_plus"], 1.0 / 1600.0)
        assert_allclose(rates["J_z"], 1.0 / 64.0)

    def test_effective_coherent_requires_drive(self):
        with pytest.raises(UnsupportedRegimeError):
            build_effective_coherent(ModelParams(g0=0.25, eps=0.0))

    def test_effective_incoherent_dark_singlet(self):
        from atomcavity.dynamics import singlet_state

        p = ModelParams(g0=0.1, n_th=0.0)
        sup = vectorize(build_effective_incoherent(p))
        s = singlet_state()
        assert np.linalg.norm(sup.apply(vec(s.matrix))) < 1e-12

    def test_kernel_dimension_two(self):
        for me in (
            build_effective_coherent(ModelParams(g0=0.25, eps=10.0)),
            build_effective_incoherent(ModelParams(g0=0.1, n_th=10.0)),
            build_effective_incoherent(ModelParams(g0=0.1, n_th=0.5)),
        ):
            sup = vectorize(me)
            assert scipy.linalg.null_space(sup.as_dense(), rcond=1e-10).shape[1] == 2


class TestGeneratorInvariants:
    MODELS = [
        ("full", lambda: build_full(make_space(4), ModelParams(g0=0.2, eps=1.0, n_th=0.3, gamma=0.01))),
        ("incoherent", lambda: build_full(make_space(4), ModelParams(g0=0.1, n_th=1.0))),
        ("eff-coh", lambda: build_effective_coherent(ModelParams(g0=0.25, eps=10.0))),
        ("eff-inc", lambda: build_effective_incoherent(ModelParams(g0=0.1, n_th=1.0))),
    ]

    @pytest.mark.parametrize("name,factory", MODELS, ids=[m[0] for m in MODELS])
    def test_trace_hermiticity_and_spectrum(self, name, factory, rng):
        me = factory()
        sup = vectorize(me, materialize=me.dim**2 <= DENSE_CAP)
        rho = random_hermitian(me.dim, rng)
        # trace functional annihilated
        assert trace_functional_residual(sup, rho) < 1e-10 * sup.norm_estimate()
        # Hermitian maps to Hermitian
        out = unvec(sup.apply(vec(rho)))
        assert_allclose(out, out.conj().T, atol=1e-12)
        # all eigenvalues in the closed left half plane (numerical slack)
        w = np.linalg.eigvals(sup.as_dense())
        assert w.real.max() <= 1e-9 * np.abs(w).max()
        # conjugate-pair symmetry of the spectrum (greedy multiset matching;
        # lexicographic sorting misaligns conjugate partners under noise)
        from atomcavity.spectra import match_eigenvalue_sets

        devs = match_eigenvalue_sets(w, w.conj())
        assert devs.max() <= 1e-7

    def test_sparse_dense_agree(self, rng):
        # on any vector, not only Hermitian ones: B G F T = L on the maps of
        # all of vec(rho)
        me = build_full(make_space(3), ModelParams(g0=0.2, eps=0.5, n_th=0.2, gamma=0.02))
        sup = vectorize(me)
        basis, inverse = sup.maps()
        v = rng.standard_normal(me.dim**2) + 1j * rng.standard_normal(me.dim**2)
        assert_allclose(sup.apply(v), basis @ (sup.as_dense() @ (inverse @ v)), atol=1e-11)


@pytest.mark.parametrize("name", sorted(PARAMETRIC_BUILDERS))
@given(
    g0=st.floats(0.05, 1.0),
    eps=st.floats(3.0, 30.0),
    n_th=st.floats(0.2, 5.0),
    gamma=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
    cutoff=st.sampled_from([3, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_copy_is_the_real_generator(name, g0, eps, n_th, gamma, cutoff, seed):
    me = PARAMETRIC_BUILDERS[name](make_space(cutoff), ModelParams(g0, eps, n_th, gamma))
    sup = vectorize(me)
    dense = sup.as_dense()
    assert dense.dtype == np.float64
    rho = random_hermitian(me.dim, np.random.default_rng(seed))
    # the round trip through the coordinates x is exact, and x of a
    # Hermitian matrix is real
    to_x, from_x = models.hermitian_coordinates(me.dim)
    x = to_x @ vec(rho)
    assert np.array_equal(from_x @ x, vec(rho))
    assert np.array_equal(x.imag, np.zeros(x.size))
    # so are the sector coordinates y, and the dense copy of G acts on them
    # as the CSR generator
    basis, inverse = sup.maps()
    y = inverse @ vec(rho)
    assert np.array_equal(y.imag, np.zeros(y.size))
    want = sup.apply(vec(rho))
    got = basis @ (dense @ y.real)
    assert np.abs(got - want).max() <= 1e-13 * sup.norm_estimate() * np.abs(y).max()


#: the builders of PARAMETRIC_BUILDERS that drive the system (eps > 0 in
#: every draw): a drive breaks the excitation-number symmetry
DRIVEN = {"full", "coherent-displaced", "full-displaced", "rwa-displaced", "effective-coherent"}


@pytest.mark.parametrize("name", sorted(PARAMETRIC_BUILDERS))
@given(
    g0=st.floats(0.05, 1.0),
    eps=st.floats(3.0, 30.0),
    n_th=st.floats(0.0, 5.0),
    gamma=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
    cutoff=st.sampled_from([2, 3, 4]),
)
def test_excitation_sectors(name, g0, eps, n_th, gamma, cutoff):
    me = PARAMETRIC_BUILDERS[name](make_space(cutoff), ModelParams(g0, eps, n_th, gamma))
    if name in DRIVEN:
        assert me.excitations is None
        return
    assert np.array_equal(me.excitations, excitation_number(me.space))
    sup = vectorize(me, materialize=False)
    # no entry of L links rho_ij and rho_kl of different d = N_i - N_j
    n = me.excitations
    d = np.array([n[p % me.dim] - n[p // me.dim] for p in range(sup.dim)])
    lv = sup.as_sparse().tocoo()
    assert np.array_equal(d[lv.row], d[lv.col])
    # each sector maps to and reads from one |d| of vec(rho), d = 0 (with
    # the diagonal) first
    gap = np.abs(d)
    basis, inverse = sup.maps()
    sectors = sup.sectors()
    for s in sectors:
        assert len(set(gap[basis[:, s].tocoo().row])) == 1
        assert set(gap[inverse[s].tocoo().col]) == set(gap[basis[:, s].tocoo().row])
    assert not gap[basis[:, sectors[0]].tocoo().row].any()
    assert sectors[0].stop - sectors[0].start == models.zero_sector_dim(n, me.swap)


@pytest.mark.parametrize("name", sorted(PARAMETRIC_BUILDERS))
@given(
    g0=st.floats(0.05, 1.0),
    eps=st.floats(3.0, 30.0),
    n_th=st.floats(0.0, 5.0),
    gamma=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
    cutoff=st.sampled_from([2, 3, 4]),
)
@example(g0=0.5, eps=3.0, n_th=0.0, gamma=0.0, cutoff=2)
def test_sector_spectra_make_up_the_full_spectrum(name, g0, eps, n_th, gamma, cutoff):
    # every builder states the atom swap; its (|d|, parity) sectors partition
    # vec(rho) exactly, the first holds the even part of the diagonal, and
    # the union of their spectra is the full one
    me = PARAMETRIC_BUILDERS[name](make_space(cutoff), ModelParams(g0, eps, n_th, gamma))
    assert np.array_equal(me.swap, atom_swap(me.space))
    sup = vectorize(me, materialize=False)
    basis, inverse = sup.maps()
    sectors = sup.sectors()
    assert len(sectors) > 1
    whole = sum((basis[:, s] @ inverse[s]).toarray() for s in sectors)
    assert np.array_equal(whole, np.eye(sup.dim))
    for s in sectors:
        assert np.array_equal((inverse[s] @ basis[:, s]).toarray(), np.eye(s.stop - s.start))
    first = sectors[0]
    for rho in (np.eye(me.dim), np.outer(np.eye(me.dim)[0], np.eye(me.dim)[0])):
        y = inverse[first] @ vec(rho)
        assert np.array_equal(y.imag, np.zeros(first.stop - first.start))
        assert np.array_equal(basis[:, first] @ y, vec(rho))
    # every sector reads real coordinates off any Hermitian matrix
    h = vec(random_hermitian(me.dim, np.random.default_rng(cutoff)))
    for s in sectors:
        assert not (inverse[s] @ h).imag.any()
    assert first.stop - first.start == models.zero_sector_dim(me.excitations, me.swap)
    # the sectors tile G, which stores no entry linking two of them, and
    # B G F T acts on Hermitian matrices as the CSR generator
    assert [s.start for s in sectors[1:]] == [s.stop for s in sectors[:-1]]
    assert sectors[0].start == 0 and sectors[-1].stop == sup.dim
    g = sup.generator().tocoo()
    sector_of = np.repeat(np.arange(len(sectors)), [s.stop - s.start for s in sectors])
    assert np.array_equal(sector_of[g.row], sector_of[g.col])
    for seed in range(3):
        v = vec(random_hermitian(me.dim, np.random.default_rng(seed)))
        assert_allclose(basis @ (g @ (inverse @ v)), sup.apply(v), rtol=0.0, atol=1e-11)
    # the full spectrum from the generator in the coordinates x, unsplit
    to_x, from_x = models.hermitian_coordinates(me.dim)
    full = np.linalg.eigvals((to_x @ sup.as_sparse() @ from_x).real.toarray())
    parts = [np.linalg.eigvals(sup.as_dense(s)) for s in sectors]
    part_sector = np.repeat(np.arange(len(sectors)), [w.size for w in parts])
    parts = np.concatenate(parts)
    cost = np.abs(full[:, None] - parts[None, :])
    rows, cols = linear_sum_assignment(cost)
    scale = np.abs(full).max()
    # every eigenvalue matches on its own, except in a sector whose dense
    # solve flags it as near-defective: there an eigenvalue of multiplicity m
    # with too few eigenvectors scatters by about (round-off)^(1/m) in any
    # dense solve (5e-9 relative in the second sector of the rwa-displaced
    # model at the pinned example, condition 1.5e8), and only the mean of
    # its cluster is stable
    missed = cost[rows, cols] > 1e-10 * scale
    for k in np.unique(part_sector[cols][missed]):
        assert eig_general(sup.as_dense(sectors[k])).near_defective
        mine = part_sector[cols] == k
        near_full, near_parts = full[rows][mine], parts[cols][mine]
        for group in spectra._cluster_complex(near_full, spectra.CLUSTER_TOL * scale):
            assert abs(near_full[group].mean() - near_parts[group].mean()) <= 1e-10 * scale


def test_a_broken_swap_is_refused():
    # decay of atom 1 alone breaks the exchange symmetry the model states
    space = make_space(3)
    me = build_full(space, ModelParams(g0=0.2, n_th=0.5, gamma=0.1))
    one_atom = tuple((op, rate) for op, rate in me.dissipators if not op.label.endswith("^2"))
    assert len(one_atom) == len(me.dissipators) - 2
    broken = replace(me, dissipators=one_atom)
    with pytest.raises(NumericalAccuracyError, match="swap"):
        vectorize(broken, materialize=False).sectors()
    # the same channels at equal rates on both atoms keep it
    both = one_atom + tuple(
        (single_atom(space, "minus" if "minus" in op.label else "plus", 2), rate)
        for op, rate in one_atom if op.label.endswith("^1")
    )
    assert len(vectorize(replace(me, dissipators=both), materialize=False).sectors()) > 1


def test_a_swap_that_moves_the_excitation_numbers_is_refused():
    space = make_space(3)
    with pytest.raises(ValueError, match="excitation numbers"):
        replace(build_full(space, ModelParams(g0=0.2, n_th=0.5)), swap=np.arange(12)[::-1])


def test_zero_sector_dim_of_the_lab_frame():
    for cutoff in (2, 5, 40, 508):
        space = make_space(cutoff)
        assert models.zero_sector_dim(excitation_number(space), None) == 16 * cutoff - 12
        # the atom swap halves it, up to the states it fixes (gg and ee)
        assert models.zero_sector_dim(excitation_number(space), atom_swap(space)) == 10 * cutoff - 8


def test_a_wrongly_stated_label_is_refused():
    # the drive changes N by one on one side only: d is not conserved
    space = make_space(3)
    me = replace(build_full(space, ModelParams(g0=0.2, eps=0.5)), excitations=excitation_number(space))
    with pytest.raises(NumericalAccuracyError, match="excitation sectors"):
        vectorize(me, materialize=False).sectors()


def test_dense_eig_runs_in_real_arithmetic(monkeypatch):
    # mi_curve (spectral evolution) and dense analyze hand LAPACK float64
    # matrices, so it runs dgeev, not zgeev, on the exchange sectors: from
    # |gg,0> only the even 640, for the full spectrum the even 640 and the
    # odd 384 of the 1024 coordinates at cutoff 8
    from atomcavity import observables, spectra
    from atomcavity.dynamics import ground_state

    seen = []
    eig = np.linalg.eig

    def recording_eig(a):
        seen.append((a.dtype, a.shape))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", recording_eig)
    space = make_space(8)
    me = build_coherent_displaced(space, ModelParams(g0=0.25, eps=10.0))
    observables.mi_curve(vectorize(me, materialize=False), ground_state(space),
                         np.array([0.0, 1.0, 10.0]))
    assert seen == [(np.float64, (640, 640))]
    spectra.analyze(vectorize(me, materialize=False))
    assert seen[1:] == [(np.float64, (640, 640)), (np.float64, (384, 384))]


def test_the_undriven_thermal_model_states_its_detailed_balance_weight():
    # sigma ~ x^N with x = n_th / (n_th + 1); nothing at n_th = 0 (sigma is
    # not faithful), under a drive, or for the displaced and effective models
    space = make_space(4)
    for gamma in (0.0, 0.3):
        me = build_full(space, ModelParams(g0=0.3, n_th=1.5, gamma=gamma))
        assert me.balance == 1.5 / 2.5
    # at cutoff 1 the cavity's jumps are zero; every sector's bound is then 0
    # and the targeted solve takes all of G
    me = build_full(make_space(1), ModelParams(g0=0.3, n_th=1.5, gamma=0.3))
    assert me.balance == 1.5 / 2.5
    rep = spectra.analyze(Superoperator(me), k=3)
    assert (rep.solver, rep.dim, rep.excluded_bound) == ("shift-invert", 16, None)
    assert build_full(space, ModelParams(g0=0.3, gamma=0.3)).balance is None
    # the smallest n_th keeps the cavity's raising channel, but gamma n_th
    # underflows and drops the atoms' ones
    assert build_full(space, ModelParams(g0=0.3, n_th=5e-324)).balance == 5e-324
    assert build_full(space, ModelParams(g0=0.3, n_th=5e-324, gamma=1e-3)).balance is None
    assert build_full(space, ModelParams(g0=0.3, eps=0.5, n_th=1.5)).balance is None
    p = ModelParams(g0=0.3, eps=2.0)
    for me in (build_coherent_displaced(space, p), build_effective_coherent(p),
               build_effective_incoherent(replace(p, n_th=1.5))):
        assert me.balance is None


def test_a_wrong_detailed_balance_statement_is_refused():
    space = make_space(4)
    me = build_full(space, ModelParams(g0=0.3, n_th=1.5, gamma=0.3))
    x = me.balance
    with pytest.raises(ValueError, match="ratio"):
        replace(me, balance=x * (1.0 + 1e-9))
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            replace(me, balance=bad)
    # a raising rate off by a part in 1e9
    off = tuple((op, rate * (1.0 + 1e-9) if op.label == "a^dag" else rate) for op, rate in me.dissipators)
    with pytest.raises(ValueError, match="ratio"):
        replace(me, dissipators=off)
    # a jump that is no N-eigenoperator, a lowering jump without its partner
    sx = collective_spin(space, "x")
    with pytest.raises(ValueError, match="N-eigenoperator"):
        replace(me, dissipators=me.dissipators + ((sx, 0.1),))
    with pytest.raises(ValueError, match="partner"):
        replace(me, dissipators=tuple(d for d in me.dissipators if d[0].label != "a^dag"))
    with pytest.raises(ValueError, match="partner"):
        replace(me, dissipators=tuple(d for d in me.dissipators if d[0].label != "a"))
    # a drive breaks [H, N] = 0 even where the excitation numbers are stated
    driven = build_full(space, ModelParams(g0=0.3, eps=0.5, n_th=1.5))
    with pytest.raises(ValueError, match="commute"):
        replace(driven, excitations=excitation_number(space), balance=x)
    with pytest.raises(ValueError, match="excitation numbers"):
        replace(driven, balance=x)
