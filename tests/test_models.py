from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
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
    annihilation,
    atom_parity,
    atom_swap,
    collective_spin,
    dressed_spin,
    excitation_number,
    single_atom,
)

from conftest import random_hermitian, singlet_state


def trace_functional_residual(sup: Superoperator, rho: np.ndarray) -> float:
    """|<vec(I), L vec(rho)>| = |d/dt Tr rho|."""
    out = sup.apply(vec(rho))
    return abs(np.trace(unvec(out)))


def hermitian_coordinates(d: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The maps (T, T^-1) between vec(rho) and the coordinates
    x = [rho_ii; Re rho_ij; Im rho_ij  (i < j, row by row)] of a d x d matrix,
    as sparse matrices: the reference that ``HermitianSectors.maps`` composes
    in closed form.

    x is real exactly when rho is Hermitian (for any rho, Re x holds the
    coordinates of its Hermitian part).  Rows of T take rho_ii, (rho_ij +
    rho_ji)/2 and (rho_ij - rho_ji)/2i; T^-1 rebuilds rho_ij = Re + i Im and
    rho_ji = Re - i Im.  The basis is not orthonormal: Tr[Q^dag rho] is
    vec(Q)^dag T^-1 x.
    """
    i, j = np.triu_indices(d, 1)
    m = i.size
    # positions in x and in vec(rho) of each nonzero: rho_ii, then rho_ij and
    # rho_ji for each Re rho_ij and each Im rho_ij
    re, im = d + np.arange(m), d + m + np.arange(m)
    x_pos = np.concatenate((np.arange(d), re, re, im, im))
    vec_pos = np.concatenate((np.arange(d) * (d + 1), i + j * d, j + i * d, i + j * d, j + i * d))
    to_x = np.concatenate((np.ones(d), np.full(2 * m, 0.5), np.full(m, -0.5j), np.full(m, 0.5j)))
    to_vec = np.concatenate((np.ones(d + 2 * m), np.full(m, 1j), np.full(m, -1j)))
    shape = (d * d, d * d)
    return (
        sp.csr_matrix((to_x, (x_pos, vec_pos)), shape=shape),
        sp.csr_matrix((to_vec, (vec_pos, x_pos)), shape=shape),
    )


def counted_sector_sizes(
    d: int, labels: np.ndarray | None, swap: np.ndarray | None, signature: np.ndarray | None = None
) -> list[int]:
    """The size of each sector, in ``HermitianSectors`` order, counted as
    the rank of the symmetries' projectors on the real coordinates x of
    ``hermitian_coordinates``: the swap S (rho -> P rho P) and Theta (rho ->
    U rho* U, U = diag(signature)) act on real x as real matrices, read off
    T and T^-1 (conj(rho) of a real x is conj(T^-1) x), and the part of one
    |N_i - N_j| of exchange parity p and Theta = t has
    Tr[(1 + p S)/2 (1 + t Theta)/2] dimensions there (Theta not split when
    no signature is given)."""
    to_x, from_x = hermitian_coordinates(d)
    k = np.arange(d * d)
    row, col = k % d, k // d  # rho_ij sits at i + j d
    p = np.arange(d) if swap is None else np.asarray(swap)
    u = np.ones(d) if signature is None else np.asarray(signature, dtype=float)
    moved = sp.csr_matrix((np.ones(d * d), (p[row] + p[col] * d, k)), shape=(d * d, d * d))
    s = (to_x @ moved @ from_x).real.toarray()
    theta = (to_x @ sp.diags(u[row] * u[col]) @ from_x.conj()).real.toarray()
    n = np.zeros(d, dtype=int) if labels is None else np.asarray(labels)
    first = from_x.tocsc().indices[from_x.tocsc().indptr[:-1]]  # a position each coordinate touches
    gap = np.abs(n[row[first]] - n[col[first]])
    eye = np.eye(d * d)
    sizes = []
    for g in np.unique(gap):
        on = np.ix_(gap == g, gap == g)
        for parity in (1, -1):
            for t in ((1, -1) if signature is not None else (0,)):
                projector = (eye + parity * s)[on] @ (eye + t * theta)[on] / (4 if t else 2)
                size = round(float(np.trace(projector)))
                sizes += [size] if size else []
    return sizes


def apply_oracle(me: MasterEquation, rho: np.ndarray) -> np.ndarray:
    """The generator applied to a D x D matrix by matrix algebra, term by
    term as the master equation is written (no vectorization)."""
    h = me.hamiltonian.matrix.toarray()
    out = -1j * (h @ rho - rho @ h)
    for op, rate in me.dissipators:
        o = op.matrix.toarray()
        odo = o.conj().T @ o
        out += rate * (2.0 * (o @ rho @ o.conj().T) - odo @ rho - rho @ odo)
    for ct in me.cross_terms:
        left, bd = ct.left.toarray(), ct.right.toarray().conj().T
        bda = bd @ left
        out += ct.weight * (2.0 * (left @ rho @ bd) - bda @ rho - rho @ bda)
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
    for q in (np.eye(me.dim, dtype=complex),) + tuple(q.matrix.toarray() for q in me.conserved):
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

        a = annihilation(space).matrix.toarray()
        sp_ = collective_spin(space, "plus").matrix.toarray()
        sx = collective_spin(space, "x").matrix.toarray()
        h_tc = p.g0 * (a @ sp_ + a.conj().T @ sp_.conj().T)
        h_d = 1j * p.eps * (a.conj().T - a)
        assert_allclose(me.hamiltonian.matrix.toarray(), h_tc + h_d, atol=1e-14)
        # and H_TC + Omega S_x equals the displaced H1 (basis identity)
        h1 = build_coherent_displaced(space, p).hamiltonian.matrix.toarray()
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
        h1 = build_coherent_displaced(space, p).hamiltonian.matrix.toarray()
        h_full = build_full(space, p).hamiltonian.matrix.toarray()
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
        jz = dressed_spin(make_space(3), "z").matrix.toarray()
        assert_allclose(me.hamiltonian.matrix.toarray(), p.omega * jz, atol=1e-10)
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
    to_x, from_x = hermitian_coordinates(me.dim)
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
    assert [s.stop - s.start for s in sectors] == counted_sector_sizes(me.dim, n, me.swap, me.signature)


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
    assert [s.stop - s.start for s in sectors] == counted_sector_sizes(
        me.dim, me.excitations, me.swap, me.signature
    )
    # the sectors tile G, which stores no entry linking two of them, and
    # B G F T acts on Hermitian matrices as the CSR generator
    assert [s.start for s in sectors[1:]] == [s.stop for s in sectors[:-1]]
    assert sectors[0].start == 0 and sectors[-1].stop == sup.dim
    g = sup.generator()[0].tocoo()
    sector_of = np.repeat(np.arange(len(sectors)), [s.stop - s.start for s in sectors])
    assert np.array_equal(sector_of[g.row], sector_of[g.col])
    for seed in range(3):
        v = vec(random_hermitian(me.dim, np.random.default_rng(seed)))
        assert_allclose(basis @ (g @ (inverse @ v)), sup.apply(v), rtol=0.0, atol=1e-11)
    # the full spectrum from the generator in the coordinates x, unsplit
    to_x, from_x = hermitian_coordinates(me.dim)
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
    with pytest.raises(ValueError, match="jump sigma_minus\\^1 .* breaks its stated swap"):
        replace(me, dissipators=one_atom)
    # the same channels at equal rates on both atoms keep it
    both = one_atom + tuple(
        (single_atom(space, "minus" if "minus" in op.label else "plus", 2), rate)
        for op, rate in one_atom if op.label.endswith("^1")
    )
    assert len(vectorize(replace(me, dissipators=both), materialize=False).sectors()) > 1
    # a Hamiltonian that couples atom 1 only
    a = annihilation(space).matrix.toarray()
    plus, minus = single_atom(space, "plus", 1).matrix.toarray(), single_atom(space, "minus", 1).matrix.toarray()
    h = 0.2 * (a @ plus + a.conj().T @ minus)
    with pytest.raises(ValueError, match="Hamiltonian .* breaks its stated swap"):
        replace(me, hamiltonian=LabeledOperator("H_1", h))
    # atom 2 decaying at another rate than atom 1
    displaced = build_coherent_displaced(space, ModelParams(g0=0.25, eps=2.0, gamma=0.1))
    uneven = tuple(
        (op, 1.5 * rate if op.label == "sigma_minus^2" else rate) for op, rate in displaced.dissipators
    )
    assert uneven != displaced.dissipators
    with pytest.raises(ValueError, match="breaks its stated swap"):
        replace(displaced, dissipators=uneven)
    # a cross-term pair on atom 1 alone, without its swapped partner
    rwa = build_rwa_displaced(space, ModelParams(g0=0.25, eps=100.0))
    left = single_atom(space, "z", 1).matrix.toarray() @ a.conj().T
    pair = (models.CrossTerm(left, a, -0.01), models.CrossTerm(a, left, -0.01))
    with pytest.raises(ValueError, match="cross term 2 .* breaks its stated swap"):
        replace(rwa, cross_terms=rwa.cross_terms + pair)


#: the builders that state a signature u: all but the rotating-wave model
SIGNED = sorted(set(PARAMETRIC_BUILDERS) - {"rwa-displaced"})


@pytest.mark.parametrize("name", SIGNED)
@given(
    g0=st.floats(0.05, 1.0),
    eps=st.floats(3.0, 30.0),
    n_th=st.floats(0.0, 5.0),
    gamma=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
    cutoff=st.integers(2, 6),
)
def test_the_stated_signature_splits_every_sector_in_two(name, g0, eps, n_th, gamma, cutoff):
    # Theta(rho) = U rho* U, U = diag(u), commutes with L: checked on matrices,
    # L(Theta rho) = Theta(L rho), with no reference to the sectors
    me = PARAMETRIC_BUILDERS[name](make_space(cutoff), ModelParams(g0, eps, n_th, gamma))
    u = me.signature
    assert u is not None and np.array_equal(u[me.swap], u)
    assert np.array_equal(u, np.ones(me.dim) if not me.space.has_field else atom_parity(me.space))
    sup = Superoperator(me)
    rng = np.random.default_rng(cutoff)
    rho = random_hermitian(me.dim, rng) + 1j * random_hermitian(me.dim, rng)  # any matrix

    def theta(m: np.ndarray) -> np.ndarray:
        return u[:, None] * m.conj() * u[None, :]

    want = theta(unvec(sup.apply(vec(rho))))
    assert_allclose(unvec(sup.apply(vec(theta(rho)))), want, rtol=0.0, atol=1e-13 * np.abs(want).max())
    # no entry of the whole product F T L B, before G drops anything, links
    # the two Theta halves of any (|d|, parity) sector: exactly none in its
    # real part, which G keeps (the imaginary part is round-off, 1.7e-18 in
    # the effective coherent model, which G refuses above DENSE_IMAG_TOL)
    basis, inverse = sup.maps()
    raw = (inverse @ sup.as_sparse() @ basis).tocoo()
    sectors, keys = sup.sectors(), sup.sector_index()._keys
    half = np.repeat([t for *_, t in keys], [s.stop - s.start for s in sectors])
    assert set(half) == {1, -1}
    assert not raw.data.real[half[raw.row] != half[raw.col]].any()
    # the sectors split each (|d|, parity) part of the unsigned index in two,
    # its Theta = +1 half first
    unsigned = models.HermitianSectors(me.dim, me.excitations, me.swap)
    sizes = dict(zip(keys, [s.stop - s.start for s in sectors]))
    for (g, parity, _), whole in zip(unsigned._keys, unsigned.slices):
        assert sizes.get((g, parity, 1), 0) + sizes.get((g, parity, -1), 0) == whole.stop - whole.start
    assert keys[0] == (0, 1, 1)
    # the union of the split sectors' dense spectra is the spectrum of the
    # dense complex L, paired by least total distance: each eigenvalue to
    # 1e-10 of the spectral radius, a repeated one as the mean of its
    # cluster, which the solve of the whole L scatters where it straddles a
    # near-defective block (-1 +- 6.9e-10 i at n_th = 0, g0 = 0.05, cutoff 2,
    # exactly -1 in each half)
    full = np.linalg.eigvals(sup.as_sparse().toarray())
    parts = np.concatenate([np.linalg.eigvals(sup.as_dense(s)) for s in sectors])
    rows, cols = linear_sum_assignment(np.abs(full[:, None] - parts[None, :]))
    full, parts, scale = full[rows], parts[cols], np.abs(full).max()
    for group in spectra._cluster_complex(full, spectra.CLUSTER_TOL * scale):
        assert abs(full[group].mean() - parts[group].mean()) <= 1e-10 * scale


def photon_parity(space: SystemSpace) -> np.ndarray:
    """(-1)^n of each basis state: swap-invariant, but no symmetry of a driven model."""
    return np.tile((-1) ** np.arange(space.fock_cutoff), 4)


def test_a_wrong_signature_is_refused():
    # photon parity on the driven lab frame and on the displaced frame, and
    # any signature on the rotating-wave model (its cross terms), are refused
    # when stated; each really leaks: forced past the check, the generator
    # in its split sectors links the two halves
    space = make_space(4)
    p = ModelParams(g0=0.3, eps=2.0)
    driven, displaced = build_full(space, p), build_coherent_displaced(space, p)
    rwa = build_rwa_displaced(space, ModelParams(g0=0.25, eps=100.0))
    assert rwa.signature is None
    cases = [(driven, photon_parity(space), "Hamiltonian .* breaks its stated signature"),
             (displaced, photon_parity(space), "Hamiltonian .* breaks its stated signature")]
    cases += [(rwa, u, "without cross terms") for u in (atom_parity(space), photon_parity(space), np.ones(space.dim))]
    for me, u, message in cases:
        with pytest.raises(ValueError, match=message):
            replace(me, signature=u)
        forced = replace(me, signature=None)
        object.__setattr__(forced, "signature", u)
        with pytest.raises(NumericalAccuracyError, match="links two of its sectors"):
            Superoperator(forced).generator()
    # a signature that is not one sign per state, or that the swap changes
    with pytest.raises(ValueError, match="one sign"):
        replace(driven, signature=2 * atom_parity(space))
    moved = atom_parity(space).copy()
    moved[space.fock_cutoff] = -moved[2 * space.fock_cutoff]  # |ge,0> against |eg,0>
    with pytest.raises(ValueError, match="swap changes the stated signature"):
        replace(driven, signature=moved)


def test_a_swap_that_moves_the_excitation_numbers_is_refused():
    space = make_space(3)
    with pytest.raises(ValueError, match="excitation numbers"):
        replace(build_full(space, ModelParams(g0=0.2, n_th=0.5)), swap=np.arange(12)[::-1])


def test_zero_sector_dim_of_the_lab_frame():
    # the first sector's size in closed form, without listing a coordinate
    def first(space, swap, signature=None):
        (s, *_) = models.HermitianSectors(space.dim, excitation_number(space), swap, signature).slices
        return s.stop - s.start

    for cutoff in (2, 5, 8, 24, 40, 508):
        space = make_space(cutoff)
        assert first(space, None) == 16 * cutoff - 12
        # the atom swap halves it, up to the states it fixes (gg and ee)
        assert first(space, atom_swap(space)) == 10 * cutoff - 8
        # Theta keeps the diagonal and the Re of the exchanged pairs, and
        # halves the rest
        assert first(space, atom_swap(space), atom_parity(space)) == 7 * cutoff - 4


def test_map_positions_past_32_bits():
    # at cutoff 11600, D^2 = 46400^2 = 2153 * 10^6 lies above 2^31 - 1: every
    # entry of B on the first sector sits at a position in [0, D^2) that its
    # coordinate lists (column c at the positions of row c of _coordinates'
    # fourth array), none wrapped to a negative index
    space = make_space(11600)
    index = models.HermitianSectors(space.dim, excitation_number(space), atom_swap(space), atom_parity(space))
    first = index.slices[0]
    lift, _ = index.maps(first)
    size = np.int64(space.dim) ** 2
    assert size > np.iinfo(np.int32).max
    assert lift.indices.min() >= 0 and lift.indices.max() < size
    *_, positions, theta = index._coordinates(0, 1)
    positions = positions[theta == 1]
    assert positions.shape == (first.stop - first.start, 4)
    columns = np.repeat(np.arange(lift.shape[1], dtype=np.int64), np.diff(lift.indptr))
    want = np.unique(np.arange(positions.shape[0], dtype=np.int64)[:, None] * size + positions)
    assert np.array_equal(np.unique(columns * size + lift.indices), want)


@pytest.mark.parametrize("name,factory", BUILDERS, ids=[b[0] for b in BUILDERS])
def test_zero_sector_dim_without_statements(name, factory):
    # with no symmetry stated the one sector is all of vec(rho)
    me = replace(factory(), excitations=None, swap=None, balance=None, signature=None)
    (whole,) = Superoperator(me).sectors()
    assert models.HermitianSectors(me.dim, None, None).slices == [whole] == [slice(0, me.dim**2)]


def test_a_wrongly_stated_label_is_refused():
    # the drive changes N by one on one side only: d is not conserved
    space = make_space(3)
    with pytest.raises(ValueError, match="does not commute with N"):
        replace(build_full(space, ModelParams(g0=0.2, eps=0.5)), excitations=excitation_number(space))
    # S_x raises and lowers N, so S_x rho S_x moves d by 2, without any
    # detailed-balance weight stated
    me = build_full(space, ModelParams(g0=0.2, gamma=0.1))
    assert me.excitations is not None and me.balance is None
    with pytest.raises(ValueError, match="jump S_x .* N-eigenoperator"):
        replace(me, dissipators=me.dissipators + ((collective_spin(space, "x"), 0.1),))
    # a cross term whose operators shift N by different amounts
    a = annihilation(space).matrix.toarray()
    pair = (models.CrossTerm(a, a @ a, -0.01), models.CrossTerm(a @ a, a, -0.01))
    with pytest.raises(ValueError, match="cross term 0 .* N-eigenoperator"):
        replace(me, cross_terms=pair)


@pytest.mark.parametrize("name", sorted(PARAMETRIC_BUILDERS))
def test_sectors_do_not_assemble_the_liouvillian(name):
    me = PARAMETRIC_BUILDERS[name](make_space(3), ModelParams(0.3, 5.0, 1.5, 0.1))
    sup = Superoperator(me)
    sup.sectors()
    sup.maps()
    assert sup._sparse is None


def _leaky_assembly(monkeypatch, me: MasterEquation, entries: list[tuple[int, int]]) -> None:
    """Add ||L||_1 / 10 of ``me`` to every L that ``models._build_liouvillian``
    assembles at each (row, column) of vec(rho) positions it covers: all of
    them for the whole L, those in the rows or the columns ``at`` otherwise,
    where L is indexed by the positions it reaches, to which theirs are added."""
    value = Superoperator(me).norm_estimate() / 10.0
    build = models._build_liouvillian
    rows, cols = (np.array(v) for v in zip(*entries))

    def leaky(me, at=None):
        lv, reach = build(me, at)
        held = np.ones(rows.size, dtype=bool) if at is None else np.isin(rows, at) | np.isin(cols, at)
        r, c = rows[held], cols[held]
        if reach is not None:
            wider = np.union1d(reach, np.concatenate((r, c)))
            lv = lv.tocoo()
            moved = (np.searchsorted(wider, reach[lv.row]), np.searchsorted(wider, reach[lv.col]))
            lv = sp.csr_matrix((lv.data, moved), shape=(wider.size,) * 2)
            r, c, reach = np.searchsorted(wider, r), np.searchsorted(wider, c), wider
        extra = sp.csr_matrix((np.full(r.size, value), (r, c)), shape=lv.shape)
        return (lv + extra).tocsr(), reach

    monkeypatch.setattr(models, "_build_liouvillian", leaky)


def test_the_generator_refuses_sector_leaks(monkeypatch):
    space = make_space(3)
    me = build_full(space, ModelParams(g0=0.2, n_th=0.5, gamma=0.1))
    d = me.dim  # vec(rho) holds rho_ij at i + d j
    # rho_00 (|gg,0>, d = 0) fed by Re rho_0j with N_j = 1 (|d| = 1); the
    # entry and its transposed partner keep L Hermiticity-preserving
    j = int(np.flatnonzero(me.excitations == 1)[0])
    _leaky_assembly(monkeypatch, me, [(0, d * j), (0, j)])
    with pytest.raises(NumericalAccuracyError, match="links two of its sectors"):
        Superoperator(me).generator()
    monkeypatch.undo()
    # rho_00 (even) fed by the population of a state the swap moves, whose
    # odd part lies in the other parity
    k = int(np.flatnonzero(me.swap != np.arange(d))[0])
    _leaky_assembly(monkeypatch, me, [(0, k * (d + 1))])
    with pytest.raises(NumericalAccuracyError, match="links two of its sectors"):
        Superoperator(me).generator()
    monkeypatch.undo()
    # the two atoms' channels summed in either order leave round-off across
    # the parities of the displaced model, which G drops; none links the two
    # Theta halves
    for cutoff in (8, 16):
        me = build_coherent_displaced(make_space(cutoff), ModelParams(g0=0.1, eps=10**0.5, gamma=1e-3))
        sup = Superoperator(me)
        basis, inverse = sup.maps()
        raw = (inverse @ sup.as_sparse() @ basis).tocoo()
        sectors, keys = sup.sectors(), sup.sector_index()._keys
        sector_of = np.repeat(np.arange(len(sectors)), [s.stop - s.start for s in sectors])
        cross = (sector_of[raw.row] != sector_of[raw.col]) & (raw.data != 0.0)
        assert np.count_nonzero(cross) > 0
        for a, b in zip(sector_of[raw.row[cross]], sector_of[raw.col[cross]]):
            (_, parity_a, theta_a), (_, parity_b, theta_b) = keys[a], keys[b]
            assert parity_a != parity_b and theta_a == theta_b
        assert sup.generator()[0].nnz == np.count_nonzero(raw.data[~cross])


def test_a_one_way_leak_into_the_sectors_before_a_range_is_refused(monkeypatch):
    # rho_00 (|gg,0>, the first sector) fed by Re rho_0j and its transposed
    # partner, N_j = 1, with nothing flowing back: the entries lie in the
    # columns of a range that starts after the first sector and in rows
    # before it, which only the columns' check reads
    me = build_full(make_space(3), ModelParams(g0=0.2, n_th=0.5, gamma=0.1))
    d = me.dim  # vec(rho) holds rho_ij at i + d j
    j = int(np.flatnonzero(me.excitations == 1)[0])
    sup = Superoperator(me)
    _leaky_assembly(monkeypatch, me, [(0, d * j), (0, j)])
    with pytest.raises(NumericalAccuracyError, match="links two of its sectors"):
        sup.generator(slice(sup.sectors()[0].stop, sup.dim))


def _whole_product_block(sup: Superoperator, s: slice) -> sp.csr_matrix:
    """G[s, s] from one whole product inverse @ L @ basis: its real part,
    without the entries that link two sectors and without zeros."""
    basis, inverse = sup.maps()
    sectors = sup.sectors()
    g = inverse @ sup.as_sparse() @ basis
    sector_of = np.repeat(np.arange(len(sectors)), [t.stop - t.start for t in sectors])
    row = np.repeat(np.arange(g.shape[0]), np.diff(g.indptr))
    g.data[sector_of[row] != sector_of[g.indices]] = 0.0
    g = g.real
    g.eliminate_zeros()
    return g[s, s]


@pytest.mark.parametrize("name", sorted(PARAMETRIC_BUILDERS))
@given(
    g0=st.floats(0.05, 1.0),
    eps=st.floats(3.0, 30.0),
    n_th=st.floats(0.0, 5.0),
    gamma=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
    cutoff=st.integers(2, 6),
    data=st.data(),
)
def test_a_range_of_sectors_is_bitwise_the_block_of_the_whole_product(name, g0, eps, n_th, gamma, cutoff, data):
    me = PARAMETRIC_BUILDERS[name](make_space(cutoff), ModelParams(g0, eps, n_th, gamma))
    sup = Superoperator(me)
    sectors = sup.sectors()
    i = data.draw(st.integers(0, len(sectors) - 1), label="first sector")
    j = data.draw(st.integers(i, len(sectors) - 1), label="last sector")
    s = slice(sectors[i].start, sectors[j].stop)
    (got, _), want = sup.generator(s), _whole_product_block(sup, s)
    assert got.shape == want.shape == (s.stop - s.start,) * 2
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(want, part))
    # only ranges of whole sectors
    cut = slice(s.start, s.stop - 1)
    if cut.stop not in [t.stop for t in sectors]:
        with pytest.raises(ValueError, match="whole sectors"):
            sup.generator(cut)


def test_a_one_way_leak_out_of_a_range_is_refused(monkeypatch):
    # rho_00 (|gg,0>, first sector) feeds rho_0j and rho_j0, N_j = 1, and
    # nothing flows back: the entries lie in the columns of the first sector
    # but in the rows of another, so every solve that reads the first sector
    # must find them
    from atomcavity import dynamics as dyn

    space = make_space(3)
    me = build_full(space, ModelParams(g0=0.2, n_th=0.5, gamma=0.1))
    d = me.dim  # vec(rho) holds rho_ij at i + d j
    j = int(np.flatnonzero(me.excitations == 1)[0])
    first = Superoperator(me).sectors()[0]
    _leaky_assembly(monkeypatch, me, [(d * j, 0), (j, 0)])
    for solve in (lambda sup: sup.generator(first), dyn.stated_kernel,
                  lambda sup: dyn.evolve_spectral(sup, dyn.ground_state(space), np.array([0.0, 1.0])),
                  lambda sup: dyn.steady_state(sup, dyn.ground_state(space))):
        with pytest.raises(NumericalAccuracyError, match="links two of its sectors"):
            solve(Superoperator(me))
    monkeypatch.undo()
    # a prefix sector feeding a |d| = 3 row, which the certified solve leaves out
    me = build_full(make_space(8), ModelParams(g0=0.1, n_th=1.9))
    assert spectra.analyze(Superoperator(me), k=16).solver == "certified-shift-invert"
    j = int(np.flatnonzero(me.excitations == 3)[0])
    _leaky_assembly(monkeypatch, me, [(me.dim * j, 0), (j, 0)])
    with pytest.raises(NumericalAccuracyError, match="links two of its sectors"):
        spectra.analyze(Superoperator(me), k=16)


def test_solves_form_only_the_sectors_they_read(monkeypatch):
    from atomcavity import dynamics as dyn, observables

    seen = []
    generator = Superoperator.generator

    def recording(self, s=None):
        seen.append(slice(0, self.dim) if s is None else s)
        return generator(self, s)

    monkeypatch.setattr(Superoperator, "generator", recording)
    # a certified gap: the |d| <= 2 prefix alone
    sup = Superoperator(build_full(make_space(32), ModelParams(g0=0.3, n_th=0.5)))
    rep = spectra.analyze(sup, k=16)
    assert rep.solver == "certified-shift-invert" and rep.dim < sup.dim
    assert seen == [slice(0, rep.dim)]
    # a trajectory from |gg,0>: the first sector alone
    space = make_space(8)
    sup = Superoperator(build_full(space, ModelParams(g0=0.1, n_th=1.0)))
    seen.clear()
    observables.mi_curve(sup, dyn.ground_state(space), np.array([0.0, 1.0, 10.0]))
    first = sup.sectors()[0]
    assert seen and all(s == first for s in seen)
    # the steady state: the other sectors whose rate bound is 0, at once
    seen.clear()
    dyn.steady_state(sup, dyn.ground_state(space))
    stop, _ = spectra.unbounded_prefix(sup)
    assert stop < sup.dim and seen == [slice(first.stop, stop)]


@pytest.mark.parametrize("name", sorted(PARAMETRIC_BUILDERS))
@given(
    g0=st.floats(0.05, 1.0),
    eps=st.floats(3.0, 30.0),
    n_th=st.floats(0.0, 5.0),
    gamma=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
    cutoff=st.integers(2, 6),
    data=st.data(),
)
def test_the_maps_of_a_range_are_bitwise_the_slices_of_the_whole_product(name, g0, eps, n_th, gamma, cutoff, data):
    # maps() is B = T^-1 E and F T entry for entry as the sparse products
    # compose them from T and T^-1 of hermitian_coordinates, in the same
    # order within each row of F T; and the maps of a range of sectors are
    # the slices of maps(), bitwise
    me = PARAMETRIC_BUILDERS[name](make_space(cutoff), ModelParams(g0, eps, n_th, gamma))
    sup = Superoperator(me)
    basis, inverse = sup.maps()
    to_x, from_x = hermitian_coordinates(me.dim)
    e = sp.csc_matrix((to_x @ basis).real)  # E, with entries 1 and -1
    e.eliminate_zeros()
    f = sp.csr_matrix((inverse @ from_x).real)  # F, with entries 1, -1/2 and 1/2
    f.eliminate_zeros()
    f.sort_indices()
    pairs = [(basis, (from_x @ e).tocsc()), (inverse, f @ to_x)]
    sectors = sup.sectors()
    i = data.draw(st.integers(0, len(sectors) - 1), label="first sector")
    j = data.draw(st.integers(i, len(sectors) - 1), label="last sector")
    s = slice(sectors[i].start, sectors[j].stop)
    lift, rows = sup.maps(s)
    pairs += [(lift, basis[:, s]), (rows, inverse[s])]
    for got, want in pairs:
        assert got.shape == want.shape
        for part in ("data", "indices", "indptr"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_a_certified_gap_builds_nothing_of_the_whole_space(monkeypatch):
    # the certified solve at cutoff 32 reads the |d| <= 2 sectors: L is
    # assembled on their positions alone and no map of all of vec(rho) is
    # composed; a trajectory from |gg,0> composes only the maps of the d = 0
    # sectors
    from atomcavity import dynamics as dyn, observables

    composed, assembled, listed = [], [], []
    maps, coordinates = models.HermitianSectors.maps, models.HermitianSectors._coordinates
    build = models._build_liouvillian

    def recording_maps(self, s=None):
        composed.append(slice(0, self.size) if s is None else s)
        return maps(self, s)

    def recording_build(me, at=None):
        assembled.append(at)
        return build(me, at)

    def recording_coordinates(self, g, parity):
        listed.extend(s for s, key in zip(self.slices, self._keys) if key[:2] == (g, parity))
        return coordinates(self, g, parity)

    monkeypatch.setattr(models.HermitianSectors, "maps", recording_maps)
    monkeypatch.setattr(models, "_build_liouvillian", recording_build)
    monkeypatch.setattr(models.HermitianSectors, "_coordinates", recording_coordinates)
    sup = Superoperator(build_full(make_space(32), ModelParams(g0=0.3, n_th=0.5)))
    rep = spectra.analyze(sup, k=16)
    assert rep.solver == "certified-shift-invert" and rep.dim < sup.dim
    assert sup._sparse is None
    assert composed and all(s.stop - s.start <= rep.dim for s in composed)
    assert assembled and all(at is not None and at.size <= rep.dim for at in assembled)
    # the index lists the coordinates of the sectors asked for alone, and
    # holds no array longer than the basis or the list of its sectors (four
    # per |d| under the swap and Theta, 136 against the 128 states here)
    assert listed and all(s.stop <= rep.dim for s in listed)
    held = [v for v in vars(sup.sector_index()).values() if isinstance(v, np.ndarray)]
    assert held and all(v.size <= max(sup.me.dim, len(sup.sectors())) for v in held)
    space = make_space(8)
    sup = Superoperator(build_full(space, ModelParams(g0=0.1, n_th=1.0)))
    composed.clear()
    observables.mi_curve(sup, dyn.ground_state(space), np.array([0.0, 1.0, 10.0]))
    gaps = dict(zip([(t.start, t.stop) for t in sup.sectors()], sup.sector_index().gaps))
    zero = [t for t in sup.sectors() if gaps[t.start, t.stop] == 0]
    assert composed and all(zero[0].start <= s.start < s.stop <= zero[-1].stop for s in composed)


def test_a_certified_gap_at_cutoff_128_holds_little_memory():
    # the model's sparse operators, their statement checks, the sectors'
    # sizes in closed form and the |d| <= 2 solve (10128 of the 262144
    # coordinates) trace about 9 MB; dense operators and their checks, or a
    # list of every coordinate of vec(rho), take the peak to about 50 MB
    import tracemalloc

    tracemalloc.start()
    try:
        rep = spectra.analyze(Superoperator(build_full(make_space(128), ModelParams(g0=0.1, n_th=4.0))), k=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.solver, rep.dim) == ("certified-shift-invert", 10128)
    assert peak < 24e6


@pytest.mark.parametrize("direction", ["into", "out of"])
def test_a_leak_planted_at_the_range_assembly_is_refused(monkeypatch, direction):
    # the entries pair rho_00 (first sector) with rho_0j and rho_j0, which
    # keeps L Hermiticity-preserving; "into" feeds rho_00 from them (the rows
    # of the range), "out of" feeds them from rho_00 alone (its columns).
    # Both are refused from the rows and columns assembled for the range,
    # before any whole L exists
    def leak(me, n):
        j = int(np.flatnonzero(me.excitations == n)[0])
        pairs = [(0, me.dim * j), (0, j)]
        return pairs if direction == "into" else [(c, r) for r, c in pairs]

    small = build_full(make_space(3), ModelParams(g0=0.2, n_th=0.5, gamma=0.1))
    # a |d| = 3 entry at cutoff 8, which the certified solve of the |d| <= 2 sectors leaves out
    large = build_full(make_space(8), ModelParams(g0=0.1, n_th=1.9))
    assert spectra.analyze(Superoperator(large), k=16).solver == "certified-shift-invert"
    for me, n, solve in ((small, 1, lambda sup: sup.generator(sup.sectors()[0])),
                         (large, 3, lambda sup: spectra.analyze(sup, k=16))):
        _leaky_assembly(monkeypatch, me, leak(me, n))
        sup = Superoperator(me)
        with pytest.raises(NumericalAccuracyError, match="links two of its sectors"):
            solve(sup)
        assert sup._sparse is None
        monkeypatch.undo()


def test_dense_eig_runs_in_real_arithmetic(monkeypatch):
    # mi_curve (spectral evolution) and dense analyze hand LAPACK's dgeev
    # float64 matrices, not zgeev complex ones, on the sectors: from |gg,0>
    # only the even, Theta = +1 336, for the full spectrum the even 336 and
    # 304 and the odd 192 and 192 of the 1024 coordinates at cutoff 8
    from atomcavity import linalg, observables, spectra
    from atomcavity.dynamics import ground_state

    seen = []
    dgeev = linalg.lapack.dgeev

    def recording_dgeev(a, *args, **kwargs):
        seen.append((a.dtype, a.shape))
        return dgeev(a, *args, **kwargs)

    monkeypatch.setattr(linalg.lapack, "dgeev", recording_dgeev)
    space = make_space(8)
    me = build_coherent_displaced(space, ModelParams(g0=0.25, eps=10.0))
    observables.mi_curve(vectorize(me, materialize=False), ground_state(space),
                         np.array([0.0, 1.0, 10.0]))
    assert seen == [(np.float64, (336, 336))]
    spectra.analyze(vectorize(me, materialize=False))
    assert seen[1:] == [(np.float64, (n, n)) for n in (336, 304, 192, 192)]


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
