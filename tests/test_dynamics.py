import re
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from atomcavity import ModelParams, atomic_space, dynamics as dyn, linalg, make_space, models, spectra
from atomcavity import observables as obs
from atomcavity.errors import (
    DimensionLimitError,
    FitWindowError,
    KernelAmbiguityError,
    NumericalAccuracyError,
    ShapeError,
    StateValidityError,
    TruncationLimitError,
    UnsupportedRegimeError,
)
from atomcavity.models import unvec, vec, vectorize
from atomcavity.operators import LabeledOperator, annihilation, collective_spin, singlet_projector

from conftest import (
    bell_state,
    maximally_mixed,
    partial_trace_field,
    photon_number,
    random_density_matrix,
    random_hermitian,
    singlet_state,
)


def _dense_exponential(sup, starts, grid):
    """expm(t L) vec(rho0) for each state rho0 of ``starts`` at every t of
    ``grid`` (ascending, from 0), L the dense complex generator: an oracle
    free of the sectors, the real coordinates and the eigendecomposition
    (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  One (samples x D^2) array
    per start; each sample is propagated from the one before, and steps of
    equal length share one exponential."""
    l = sup.as_sparse().toarray()
    x = [np.column_stack([vec(rho0.matrix) for rho0 in starts])]
    steps = {}
    for dt in np.diff(grid):
        if dt not in steps:
            steps[dt] = scipy.linalg.expm(dt * l)
        x.append(steps[dt] @ x[-1])
    return np.stack(x).transpose(2, 0, 1)


class TestDensityMatrix:
    def test_valid_state(self):
        dm = dyn.ground_state(make_space(3))
        assert dm.dim == 12

    def test_rejects_traceless(self):
        with pytest.raises(StateValidityError):
            dyn.DensityMatrix.from_matrix(np.eye(4, dtype=complex), atomic_space())

    def test_rejects_negative(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(StateValidityError):
            dyn.DensityMatrix.from_matrix(m, atomic_space())

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(StateValidityError):
            dyn.DensityMatrix.from_matrix(m, atomic_space())

    @staticmethod
    def _whole_matrix_verdict(m):
        """The first check that fails on all of ``m``, as ``from_matrix``
        checked every state before it read only the rows and columns that
        hold a nonzero entry; None when every check passes."""
        if not np.abs(m - m.conj().T).max() <= dyn.HERM_TOL:
            return "Hermiticity"
        if not abs(np.trace(m) - 1.0) <= dyn.TRACE_TOL:
            return "trace"
        if not np.linalg.eigvalsh((m + m.conj().T) / 2.0).min() >= -dyn.POSITIVITY_TOL:
            return "negative"
        return None

    @pytest.mark.parametrize("defect", [None, "Hermiticity", "trace", "negative", "NaN"])
    def test_block_checks_decide_as_the_whole_matrix(self, rng, defect):
        # a NaN on the diagonal, or in an off-diagonal pair, leaves every
        # deviation NaN: refused by the first check, Hermiticity
        verdict = "Hermiticity" if defect == "NaN" else defect
        for _ in range(20):
            space = make_space(int(rng.integers(1, 5)))
            k = int(rng.integers(2 if defect == "negative" else 1, space.dim + 1))
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            w, u = np.linalg.eigh(g @ g.conj().T)
            w /= w.sum()
            if defect == "negative":
                w[0] = -0.05
                w[1:] *= 1.05 / w[1:].sum()
            block = (u * w) @ u.conj().T
            if defect == "Hermiticity":
                block[0, -1] += 1e-3 if k > 1 else 1e-3j
            elif defect == "trace":
                block *= 1.01
            elif defect == "NaN":
                block[0, -1] = block[-1, 0] = np.nan
            m = np.zeros((space.dim, space.dim), dtype=complex)
            held = rng.choice(space.dim, k, replace=False)
            m[np.ix_(held, held)] = block
            assert self._whole_matrix_verdict(m) == verdict
            if defect is None:
                assert np.array_equal(dyn.DensityMatrix.from_matrix(m, space).matrix, m)
            else:
                with pytest.raises(StateValidityError, match=f"^{verdict} "):
                    dyn.DensityMatrix.from_matrix(m, space)


class TestEvolveOde:
    """The master equation rho' = L rho, solved by ``evolve_spectral``,
    against closed forms and the state invariants."""

    def test_cavity_decay_photon_number(self):
        # closed-form oracle: <n>(t) = e^{-2 kappa t} under the 2x convention.
        # gamma > 0 pins the decoupled atoms to |gg>; at gamma = 0 they keep
        # every atomic state, a kernel larger than the model states
        space = make_space(3)
        p = ModelParams(g0=0.0, eps=0.0, gamma=0.1)
        sup = vectorize(models.build_full(space, p))
        one_photon = dyn.pure_state(dyn.basis_vector(space, 0, 0, 1), space)
        grid = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
        traj = dyn.evolve_spectral(sup, one_photon, grid)
        n_t = np.array([photon_number(s) for s in traj.states])
        assert_allclose(n_t, np.exp(-2.0 * grid), rtol=1e-10, atol=1e-12)

    def test_invariants_enforced_along_trajectory(self):
        p = ModelParams(g0=0.1, n_th=1.0)
        space = make_space(6)
        sup = vectorize(models.build_full(space, p), materialize=False)
        grid = dyn.time_grid(50.0, 20, t_min=0.5)
        traj = dyn.evolve_spectral(sup, dyn.ground_state(space), grid)
        for s in traj.states:
            m = s.matrix
            assert abs(np.trace(m) - 1.0) < 1e-8
            assert np.abs(m - m.conj().T).max() < 1e-8
            assert np.linalg.eigvalsh((m + m.conj().T) / 2).min() > -1e-8


class TestEvolveSpectral:
    def test_t0_recovers_initial_state(self, rng):
        # bit for bit: V (V^-1 vec(rho0)) is rho0 only up to round-off, which
        # gave product states a mutual information of -1e-14 at t = 0
        for me in (
            models.build_effective_coherent(ModelParams(g0=0.25, eps=10.0)),
            models.build_coherent_displaced(make_space(4), ModelParams(g0=0.25, eps=10.0)),
            models.build_coherent_displaced(make_space(4), ModelParams(g0=0.1, eps=3.0, gamma=1e-3)),
        ):
            sup = vectorize(me)
            for rho0 in (random_density_matrix(me.dim, rng, me.space), dyn.ground_state(me.space)):
                traj = dyn.evolve_spectral(sup, rho0, np.array([0.0, 1.0]))
                assert np.array_equal(traj.states[0].matrix, rho0.matrix)

    def test_rho0_enters_as_its_hermitian_part_bit_for_bit(self):
        # v0 is formed at rho0's nonzero entries and their transposes alone:
        # an entry within HERM_TOL of Hermitian whose transpose is 0 enters
        # halved at both positions, as in vec((m + m^H) / 2)
        space = make_space(3)
        m = np.zeros((space.dim, space.dim), dtype=complex)
        m[0, 0], m[5, 5] = 0.6, 0.4
        m[0, 5], m[5, 0] = 0.1 + 0.2j, 0.1 - 0.2j
        m[0, 1] = 3e-11 + 1e-11j
        assert m[1, 0] == 0.0
        rho0 = dyn.DensityMatrix.from_matrix(m, space)
        sup = models.Superoperator(models.build_full(space, ModelParams(g0=0.1, n_th=1.0, gamma=1e-3)))
        traj = dyn.evolve_spectral(sup, rho0, np.array([0.0, 1.0]))
        assert traj.states[0].matrix.tobytes() == ((m + m.conj().T) / 2.0).tobytes()

    def test_samples_are_hermitian_exactly(self, rng):
        # each sample is read back from real Hermitian coordinates
        for me in (
            models.build_coherent_displaced(make_space(4), ModelParams(g0=0.25, eps=1000.0)),
            models.build_full(make_space(3), ModelParams(g0=0.2, eps=0.5, n_th=0.2, gamma=0.02)),
        ):
            rho0 = random_density_matrix(me.dim, rng, me.space)
            traj = dyn.evolve_spectral(vectorize(me), rho0, dyn.time_grid(1.0e7, 30))
            for s in traj.states:
                assert np.array_equal(s.matrix, s.matrix.conj().T)

    def test_kernel_must_not_split_a_conjugate_pair(self):
        # a stated kernel of two whose second least-modulus eigenvalue is one
        # member of the pair -1e-3 +- i: the pair's mode is not a kernel mode
        class _Dim3:
            dim = 3
            has_field = False
            fock_cutoff = None
            dims = (3,)

        class _Sup(models.Superoperator):
            def generator(self, s=None):
                return sp.csr_matrix(np.array([[0.0, 0.0, 0.0], [0.0, -1e-3, 1.0], [0.0, -1.0, -1e-3]])), 1.0

        me = models.MasterEquation(
            LabeledOperator("0", np.zeros((3, 3), dtype=complex)), (), _Dim3(),
            conserved=(LabeledOperator("Q", np.eye(3, dtype=complex)),),
        )
        rho0 = dyn.DensityMatrix.from_matrix(np.eye(3, dtype=complex) / 3.0, _Dim3())
        with pytest.raises(NumericalAccuracyError, match="conjugate pair"):
            dyn.evolve_spectral(_Sup(me), rho0, np.array([0.0]))

    def test_kernel_part_does_not_evolve(self):
        # at eps = 1000 zgeev returns the two kernel eigenvalues as ~1e-13;
        # left in, e^{w t} grew them enough to drift the trace past the
        # invariant check by kappa t ~ 1e6.  Each sample is validated against
        # that check, and once the slowest mode (gap 2.5e-7) has decayed the
        # state must stop changing.
        p = ModelParams(g0=0.25, eps=1000.0)
        space = make_space(8)
        sup = vectorize(models.build_coherent_displaced(space, p))
        grid = np.array([0.0, 1.0e6, 1.0e9, 1.0e11])
        traj = dyn.evolve_spectral(sup, dyn.ground_state(space), grid)
        assert np.abs(traj.states[3].matrix - traj.states[2].matrix).max() < 1e-12

    def test_decaying_modes_carry_no_conserved_charge(self):
        # at eps = 1000 zgeev's slow modes hold kernel admixtures of 4e-6;
        # unprojected, their decay drifted the trace by 2.4e-7 and pushed the
        # dark singlet population to -5.9e-8, past the entropy clip slack,
        # and zgeev's kernel vectors left the late state 6e-7 off the
        # steady state
        p = ModelParams(g0=0.25, eps=1000.0)
        space = make_space(8)
        me = models.build_coherent_displaced(space, p)
        sup = vectorize(me)
        rho0 = dyn.ground_state(space)
        grid = np.array([0.0, 1.0e4, 1.0e6, 1.0e8, 1.0e10])
        traj = dyn.evolve_spectral(sup, rho0, grid)
        (singlet,) = me.conserved
        for s in traj.states:
            assert abs(np.trace(s.matrix) - 1.0) < 1e-12
            assert abs(np.trace(singlet.matrix.toarray() @ s.matrix)) < 1e-12
            assert np.linalg.eigvalsh((s.matrix + s.matrix.conj().T) / 2.0).min() > -1e-10
        ss = dyn.steady_state(sup, rho0)
        assert np.abs(traj.states[-1].matrix - ss.matrix).max() < 1e-10

    def test_matches_ode_path(self, rng):
        # cross-method oracle on the effective coherent model: the path of
        # the ODE rho' = L rho is expm(t L) vec(rho0)
        p = ModelParams(g0=0.25, eps=10.0)
        sup = vectorize(models.build_effective_coherent(p))
        grid = dyn.time_grid(2000.0, 25, t_min=1.0)
        starts = [random_density_matrix(4, np.random.default_rng(seed)) for seed in range(3)]
        for rho0, want in zip(starts, _dense_exponential(sup, starts, grid)):
            t_spec = dyn.evolve_spectral(sup, rho0, grid)
            for a, b in zip(t_spec.states, want):
                assert dyn.trace_norm(a.matrix - unvec(b)) < 1e-10

    @pytest.mark.parametrize("gamma", [0.0, 1e-3])
    @pytest.mark.parametrize("start", ["ground", "random"])
    def test_sector_path_matches_ode_reference(self, gamma, start):
        # the thermal model states its excitation numbers, so it evolves one
        # |d| sector at a time: from |gg,0> only d = 0, from a generic state
        # every sector.  The reference solves the ODE as expm(t L) vec(rho0);
        # at cutoff 4 (D^2 = 256) each of its exponentials costs 1/11 of one
        # at cutoff 6
        space = make_space(4)
        me = models.build_full(space, ModelParams(g0=0.1, n_th=1.0, gamma=gamma))
        sup = vectorize(me, materialize=False)
        assert len(sup.sectors()) > 1
        if start == "ground":
            rho0 = dyn.ground_state(space)
        else:
            rho0 = random_density_matrix(me.dim, np.random.default_rng(3), space)
        grid = dyn.time_grid(300.0, 20, t_min=0.5)
        (want,) = _dense_exponential(sup, [rho0], grid)
        t_spec = dyn.evolve_spectral(sup, rho0, grid)
        for a, b in zip(t_spec.states, want):
            assert dyn.trace_norm(a.matrix - unvec(b)) < 1e-10

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    def test_both_exchange_parities_match_ode_reference(self, gamma):
        # the driven model states no excitation numbers, only the atom swap
        # and its signature: a generic state occupies both parities and both
        # Theta halves of each, and each of the four evolves alone; the
        # reference solves the ODE as expm(t L) vec(rho0)
        space = make_space(4)
        me = models.build_coherent_displaced(space, ModelParams(g0=0.25, eps=2.0, gamma=gamma))
        sup = vectorize(me, materialize=False)
        rho0 = random_density_matrix(me.dim, np.random.default_rng(5), space)
        v0 = vec(rho0.matrix)
        sectors = sup.sectors()
        _, inverse = sup.maps()
        assert len(sectors) == 4 and all(np.abs(inverse[s] @ v0).max() > 1e-3 for s in sectors)
        grid = dyn.time_grid(200.0, 20, t_min=0.5)
        (want,) = _dense_exponential(sup, [rho0], grid)
        t_spec = dyn.evolve_spectral(sup, rho0, grid)
        for a, b in zip(t_spec.states, want):
            assert dyn.trace_norm(a.matrix - unvec(b)) < 1e-10

    def test_a_charge_outside_the_first_sector_is_refused(self):
        # each charge breaks one statement of the first sector, where the
        # kernel lies, and the model is refused with that statement's message
        # before any solve; without the statement the same charge is taken
        space = make_space(4)
        a = annihilation(space).matrix
        cases = (
            # the population difference of |ge> and |eg> is swap-odd, even under N and Theta
            (models.build_effective_coherent(ModelParams(g0=0.25, eps=10.0)),
             LabeledOperator("Q", np.diag([0.0, 1.0, -1.0, 0.0]).astype(complex)),
             dict(swap=None), "charge Q of effective-coherent breaks its stated swap: P Q P is not Q"),
            # a + a^dag is swap-even and Theta-even, but changes N by one
            (models.build_full(space, ModelParams(g0=0.3, n_th=1.0)), LabeledOperator("X", a + a.conj().T),
             dict(excitations=None, balance=None), "charge X of full does not commute with N"),
            # S_x is swap-even and meets no stated N (the drive states none),
            # but flips one atom: U S_x* U = -S_x
            (models.build_coherent_displaced(space, ModelParams(g0=0.3, eps=3.0)), collective_spin(space, "x"),
             dict(signature=None), r"charge S_x of coherent-displaced breaks its stated signature: U Q\* U is not Q"),
        )
        for me, q, unstated, message in cases:
            with pytest.raises(ValueError, match=message):
                replace(me, conserved=me.conserved + (q,))
            replace(me, conserved=me.conserved + (q,), **unstated)

    def test_ground_state_diagonalizes_only_the_zero_sector(self, monkeypatch):
        # the thermal model states a detailed-balance weight, so its one
        # occupied sector evolves by Krylov: the only dense
        # eigendecompositions are of the small Krylov matrices H_m
        space = make_space(8)
        me = models.build_full(space, ModelParams(g0=0.1, n_th=10.0, gamma=1e-3))
        evolved, dims = [], []
        krylov, eig = dyn._krylov_sector, dyn.eig_general

        def recording(sup, s, y0, t):
            evolved.append(s)
            return krylov(sup, s, y0, t)

        def recording_eig(a):
            dims.append(a.shape[0])
            return eig(a)

        monkeypatch.setattr(dyn, "_krylov_sector", recording)
        monkeypatch.setattr(dyn, "eig_general", recording_eig)
        traj = dyn.evolve_spectral(vectorize(me, materialize=False), dyn.ground_state(space),
                                   np.array([0.0, 10.0]))
        assert evolved == [slice(0, 7 * 8 - 4)]
        assert max(dims) == traj.krylov_dim < 7 * 8 - 4 - 2

    def test_sector_bookkeeping_is_built_once_per_generator(self, monkeypatch):
        # the sectors' index bookkeeping is built once, when the generator is
        # first split; the trajectory and the steady state compose their maps
        # from it
        space = make_space(6)
        me = models.build_full(space, ModelParams(g0=0.1, n_th=1.0, gamma=1e-3))
        calls = []
        build = models.HermitianSectors

        def counting(d, labels, swap, signature):
            calls.append(d)
            return build(d, labels, swap, signature)

        monkeypatch.setattr(models, "HermitianSectors", counting)
        sup = vectorize(me, materialize=False)
        dyn.evolve_spectral(sup, dyn.ground_state(space), np.array([0.0, 10.0]))
        dyn.steady_state(sup, dyn.ground_state(space))
        assert calls == [me.dim]

    def test_gap_mode_dominates_late_tail(self, rng):
        p = ModelParams(g0=0.25, eps=10.0)
        sup = vectorize(models.build_effective_coherent(p))
        rho0 = random_density_matrix(4, rng)
        ss = dyn.steady_state(sup, rho0)
        gap = 4.0 * p.gamma_eps
        t1, t2 = 4.0 / gap, 5.0 / gap
        traj = dyn.evolve_spectral(sup, rho0, np.array([0.0, t1, t2]))
        d1 = dyn.trace_norm(traj.states[1].matrix - ss.matrix)
        d2 = dyn.trace_norm(traj.states[2].matrix - ss.matrix)
        assert d2 / d1 == pytest.approx(np.exp(-gap * (t2 - t1)), rel=1e-2)

    def test_refuses_near_defective(self, monkeypatch):
        # with the guard at 1 every eigenvector matrix counts as near-defective
        monkeypatch.setattr(linalg, "NEAR_DEFECTIVE_COND", 1.0)
        sup = vectorize(models.build_effective_coherent(ModelParams(g0=0.25, eps=10.0)))
        with pytest.raises(UnsupportedRegimeError):
            dyn.evolve_spectral(sup, bell_state(), np.array([0.0]))

    def test_a_state_on_another_space_is_refused(self):
        # a 4 x 4 atomic state, and an 8 x 8 cutoff-2 state, for a 12 x 12
        # cutoff-3 model: numpy's "cannot reshape" or "dimension mismatch" before
        sup = models.Superoperator(models.build_full(make_space(3), ModelParams(g0=0.1, n_th=1.0)))
        for rho0, dim in ((bell_state(), 4), (dyn.ground_state(make_space(2)), 8)):
            with pytest.raises(ShapeError, match=f"dimension {dim}, the model's space 12"):
                dyn.evolve_spectral(sup, rho0, np.array([0.0, 1.0]))
            with pytest.raises(ShapeError, match=f"dimension {dim}, the model's space 12"):
                dyn.steady_state(sup, rho0)

    @pytest.mark.parametrize("bad", [np.inf, -1.0, np.nan])
    def test_a_time_grid_with_a_bad_time_is_refused_before_any_solve(self, bad):
        # t = inf ended in LinAlgError after a RuntimeWarning, t = -1 in a
        # misleading invariant error (min eigenvalue -1e5)
        space = make_space(2)
        sup = models.Superoperator(models.build_full(space, ModelParams(g0=0.1, n_th=1.0)))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            dyn.evolve_spectral(sup, dyn.ground_state(space), np.array([0.0, 1.0, bad]))
        assert sup._sparse is None  # L was never assembled

    def test_an_oversized_sector_is_refused_before_its_block_is_formed(self, monkeypatch):
        # the driven model states no excitation numbers, so the Theta = +1
        # half of its even parity holds (D^2 + f^2 + 2 D) / 4 = 4263
        # coordinates at cutoff 29 (D = 116, and the swap fixes f = 58
        # states); its dense block alone would be 145 MB
        space = make_space(29)
        sup = models.Superoperator(models.build_full(space, ModelParams(g0=0.1, eps=1.0)))
        assert sup.sectors()[0] == slice(0, 4263) and linalg.DENSE_CAP == 4096

        def unreachable(*args):
            raise AssertionError("a block above the dense cap was formed")

        monkeypatch.setattr(sup, "generator", unreachable)
        monkeypatch.setattr(dyn, "eig_general", unreachable)
        with pytest.raises(DimensionLimitError, match="dimension 4263 exceeds the dense cap 4096"):
            dyn.evolve_spectral(sup, dyn.ground_state(space), np.array([0.0, 1.0]))


class TestKrylovEvolution:
    """A model that states a detailed-balance weight evolves each occupied
    sector by Krylov on a sparse LU (the first sector's is the bordered one
    of ``stated_kernel``); the same model without the statement evolves
    through the dense eigenbasis."""

    @pytest.mark.parametrize("gamma", [0.0, 1e-3])
    def test_matches_the_dense_path_and_the_exponential(self, gamma):
        # from |gg,0> only the first sector is occupied; from a generic state
        # every sector is, and each but the first is evolved on one LU of
        # its own block
        space = make_space(4)
        me = models.build_full(space, ModelParams(g0=0.3, n_th=2.0, gamma=gamma))
        starts = (dyn.ground_state(space), random_density_matrix(me.dim, np.random.default_rng(11), space))
        grid = dyn.time_grid(300.0, 20, t_min=0.5)
        sup = models.Superoperator(me)
        for rho0, want in zip(starts, _dense_exponential(sup, starts, grid)):
            krylov = dyn.evolve_spectral(sup, rho0, grid)
            dense = dyn.evolve_spectral(models.Superoperator(replace(me, balance=None)), rho0, grid)
            assert krylov.krylov_dim > 0 and dense.krylov_dim is None
            for a, b, c in zip(krylov.states, dense.states, want):
                assert dyn.trace_norm(a.matrix - b.matrix) < 1e-10
                assert dyn.trace_norm(a.matrix - unvec(c)) < 1e-10
            mi = [obs.mutual_information(obs.atomic_states(traj)) for traj in (krylov, dense)]
            assert np.abs(mi[0] - mi[1]).max() < 1e-10

    def test_rho0_is_exact_at_t0(self, rng):
        # the motion is formed through expm1, so it is exactly 0 at t = 0
        space = make_space(4)
        sup = models.Superoperator(models.build_full(space, ModelParams(g0=0.1, n_th=1.0, gamma=1e-3)))
        for rho0 in (random_density_matrix(space.dim, rng, space), dyn.ground_state(space)):
            traj = dyn.evolve_spectral(sup, rho0, np.array([0.0, 1.0]))
            assert traj.krylov_dim > 0
            assert np.array_equal(traj.states[0].matrix, rho0.matrix)

    @pytest.mark.parametrize("step", [10, 20])
    @pytest.mark.parametrize("start", ["ground", "random"])
    def test_a_space_that_spans_its_sector_is_accepted_whole(self, monkeypatch, step, start):
        # at cutoff 3 the first sector has 7 * 3 - 4 = 17 coordinates, 15 of
        # them free of the two charges, and the largest other sector 18.
        # From |gg,0> the space closes after 13 directions (a breakdown);
        # from a generic state it spans every sector it occupies.  Either
        # way it is accepted whole, whether or not the step is above its size
        monkeypatch.setattr(dyn, "KRYLOV_STEP", step)
        space = make_space(3)
        sup = models.Superoperator(models.build_full(space, ModelParams(g0=0.3, n_th=2.0)))
        assert sup.sectors()[0] == slice(0, 17)
        if start == "ground":
            rho0, dim = dyn.ground_state(space), 13
        else:
            rho0, dim = random_density_matrix(space.dim, np.random.default_rng(1), space), 18
        grid = dyn.time_grid(300.0, 20, t_min=0.5)
        traj = dyn.evolve_spectral(sup, rho0, grid)
        assert traj.krylov_dim == dim
        (want,) = _dense_exponential(sup, [rho0], grid)
        for a, b in zip(traj.states, want):
            assert dyn.trace_norm(a.matrix - unvec(b)) < 1e-10

    @pytest.mark.parametrize("largest", [5, 20])
    def test_a_motion_not_settled_within_the_largest_space_is_refused(self, monkeypatch, largest):
        # from |gg,0> at cutoff 8 the motion settles at about 40 vectors
        monkeypatch.setattr(dyn, "KRYLOV_MAX", largest)
        space = make_space(8)
        sup = models.Superoperator(models.build_full(space, ModelParams(g0=0.1, n_th=10.0)))
        with pytest.raises(NumericalAccuracyError, match=f"within {largest} vectors"):
            dyn.evolve_spectral(sup, dyn.ground_state(space), dyn.time_grid(1.0e3, 20))

    def test_a_sector_singular_to_working_precision_is_refused(self, monkeypatch, rng):
        # a generic state occupies every sector; each but the first is
        # evolved on one LU of its own block, which is refused as the
        # bordered one is when its condition estimate is above
        # BORDERED_COND_MAX (stated_kernel has solved the first sector
        # already, under the default bound)
        space = make_space(4)
        sup = models.Superoperator(models.build_full(space, ModelParams(g0=0.3, n_th=2.0)))
        dyn.stated_kernel(sup)
        second = sup.sectors()[1]
        _, norm, inverse_norm = dyn._lu_norms(sup.generator(second)[0].tocsc())
        monkeypatch.setattr(dyn, "BORDERED_COND_MAX", norm * inverse_norm / 2.0)
        rho0 = random_density_matrix(space.dim, rng, space)
        refusal = re.escape(f"on sector {second} is singular to working precision")
        with pytest.raises(KernelAmbiguityError, match=refusal):
            dyn.evolve_spectral(sup, rho0, np.array([0.0, 1.0]))

    def test_a_trajectory_reads_no_object_of_d_squared_entries(self):
        # n_th = 200 at cutoff 1008: D^2 = 16257024, and the first sector
        # from |gg,0> has 7 * 1008 - 4 = 7052 coordinates.  The trajectory,
        # after the kernel solve, peaks at about 51 MB, below one int32
        # array of D^2 entries (65 MB); reading B by its rows of D^2 took
        # 70 MB
        n_th = 200.0
        space = make_space(1008)
        sup = models.Superoperator(models.build_full(space, ModelParams(g0=0.01, n_th=n_th)))
        dyn.stated_kernel(sup)
        rho0 = dyn.ground_state(space)
        grid = dyn.time_grid(5.0 / (2.0 * n_th * 0.01**2), 60, t_min=1.0)
        tracemalloc.start()
        try:
            traj = dyn.evolve_spectral(sup, rho0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.krylov_dim > 0
        assert peak < space.dim**2 * 4

    def test_a_trajectory_on_a_sector_above_3000_coordinates(self):
        # n_th = 100 at cutoff 512: the first sector from |gg,0> has
        # 7 * 512 - 4 = 3580 coordinates.  On one BLAS thread the dense path
        # took 37 s and 494 MB on it, and this trajectory takes about 0.3 s
        # and 290 MB, most of it in D^2-sized objects outside the solve
        # (process peaks, model build included).  Its late samples reach
        # the closed-form detailed-balance state sigma ~ x^N on the triplet
        # (x = n_th / (n_th + 1)), whose atoms hold the populations 1, x, x^2
        # of |gg>, |T0> and |ee>
        n_th = 100.0
        space = make_space(512)
        sup = models.Superoperator(models.build_full(space, ModelParams(g0=0.01, n_th=n_th)))
        assert sup.sectors()[0] == slice(0, 3580)
        gap = 2.0 * n_th * 0.01**2
        traj = dyn.evolve_spectral(sup, dyn.ground_state(space), dyn.time_grid(40.0 / gap, 20, t_min=1.0))
        assert 0 < traj.krylov_dim <= dyn.KRYLOV_MAX
        x = n_th / (n_th + 1.0)
        t0 = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
        sigma = np.diag([1.0, 0.0, 0.0, x * x]).astype(complex) + x * np.outer(t0, t0)
        want = obs.mutual_information(dyn.DensityMatrix.from_matrix(sigma / (1.0 + x + x * x), atomic_space()))
        assert obs.mutual_information(obs.atomic_states(traj))[-1] == pytest.approx(want, abs=1e-9)


class TestEvolveDispatch:
    def test_invariant_breach_raises_instead_of_correcting(self):
        # the rotating-wave model far outside its regime is not completely
        # positive and produces transient negativity beyond the 1e-6 slack;
        # evolution must refuse (no silent renormalization)
        p = ModelParams(g0=1.0, eps=0.5)
        space = make_space(4)
        with pytest.warns(UserWarning):
            me = models.build_rwa_displaced(space, p)
        sup = vectorize(me, materialize=False)
        grid = dyn.time_grid(20.0, 20, t_min=0.1)
        with pytest.raises(NumericalAccuracyError):
            dyn.evolve_spectral(sup, dyn.ground_state(space), grid)


class TestSteadyState:
    def test_cavity_decay_reaches_vacuum(self, rng):
        # g0 = 0 decouples the atoms; atomic decay pins them to |gg>, so the
        # kernel is unique and every initial state reaches the vacuum
        space = make_space(4)
        sup = vectorize(models.build_full(space, ModelParams(g0=0.0, gamma=0.1)))
        for rho0 in (dyn.ground_state(space), random_density_matrix(space.dim, rng, space)):
            ss = dyn.steady_state(sup, rho0)
            assert photon_number(ss) < 1e-9
            assert dyn.trace_norm(ss.matrix - dyn.ground_state(space).matrix) < 1e-9

    def test_dark_state_preserved(self):
        # the singlet is dark at every bath occupation
        p = ModelParams(g0=0.1, n_th=0.5)
        sup = vectorize(models.build_effective_incoherent(p))
        s = singlet_state()
        ss = dyn.steady_state(sup, s)
        assert dyn.trace_norm(ss.matrix - s.matrix) < 1e-9

    @pytest.mark.parametrize(
        "me",
        [
            # decoupled atoms keep every atomic state: exactly singular ...
            models.build_full(make_space(4), ModelParams(g0=0.0)),
            # ... or singular to working precision once the field is driven
            models.build_full(make_space(4), ModelParams(g0=0.0, eps=1.0)),
            # a zero-temperature bath also keeps |gg><S| and |S><gg|
            models.build_effective_incoherent(ModelParams(g0=0.1)),
        ],
        ids=["g0=0", "g0=0-driven", "effective-n_th=0"],
    )
    def test_larger_kernel_than_stated_raises(self, me):
        rho0 = dyn.ground_state(me.space)
        with pytest.raises(KernelAmbiguityError):
            dyn.steady_state(vectorize(me, materialize=False), rho0)

    def test_wrongly_stated_conserved_quantity_raises(self):
        # single-atom decay breaks the exchange symmetry, so P_S is not conserved
        space = make_space(4)
        me = models.build_coherent_displaced(space, ModelParams(g0=0.1, eps=3.0, gamma=1e-3))
        wrong = models.MasterEquation(
            me.hamiltonian, me.dissipators, space, conserved=(singlet_projector(space),)
        )
        with pytest.raises(NumericalAccuracyError):
            dyn.steady_state(vectorize(wrong, materialize=False), dyn.ground_state(space))

    @pytest.mark.parametrize(
        "me",
        [
            models.build_effective_coherent(ModelParams(g0=0.25, eps=10.0)),
            models.build_effective_incoherent(ModelParams(g0=0.1, n_th=1.0)),
            models.build_coherent_displaced(make_space(4), ModelParams(g0=0.5, eps=2.0)),
        ],
        ids=["effective-coherent", "effective-incoherent", "coherent-displaced"],
    )
    def test_equals_long_time_limit(self, me, rng):
        sup = vectorize(me)
        t_inf = 60.0 / spectra.analyze(sup).gap
        for _ in range(3):
            rho0 = random_density_matrix(me.dim, rng, me.space)
            late = dyn.evolve_spectral(sup, rho0, np.array([0.0, t_inf])).states[-1]
            ss = dyn.steady_state(sup, rho0)
            assert dyn.trace_norm(ss.matrix - late.matrix) < 1e-9

    def test_thermal_steady_mutual_information_oracle(self):
        # frozen value from the closed-form triplet-chain oracle (stationary
        # weights proportional to (n/(n+1))^m within the triplet ladder)
        from atomcavity.observables import mutual_information

        p = ModelParams(g0=0.01, n_th=10.0)
        sup = vectorize(models.build_effective_incoherent(p))
        ss = dyn.steady_state(sup, dyn.ground_state(atomic_space()))
        assert mutual_information(ss) == pytest.approx(0.413585122155, abs=1e-9)

    def test_detailed_balance_steady_state_above_the_dense_range(self):
        # at gamma = 0 build_full states the weight x = n_th / (n_th + 1)
        # and conserves the singlet projector, so from |gg,0> the steady
        # state is sigma ~ x^N on the triplet (x) field in closed form: the
        # atoms' |gg>, |T0>, |ee> with weights 1, x, x^2 times the truncated
        # thermal field x^n.  At cutoff 512 (D = 2048) one complex D x D
        # matrix takes 64 MB: the state, its kernel and its checks must stay
        # below that (the kernel lifted to vec(rho) alone took 128 MB)
        n_th, cutoff = 100.0, 512
        space = make_space(cutoff)
        sup = models.Superoperator(models.build_full(space, ModelParams(g0=0.01, n_th=n_th)))
        rho0 = dyn.ground_state(space)
        tracemalloc.start()
        try:
            ss = dyn.steady_state(sup, rho0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < space.dim**2 * 16
        x = n_th / (n_th + 1.0)
        n = np.arange(cutoff)
        z = (1.0 + x + x * x) * (1.0 - x**cutoff) / (1.0 - x)
        gg, ge, eg, ee = (k * cutoff + n for k in range(4))  # |a1 a2 n>, atom1 (x) atom2 (x) field
        d = space.dim
        rows = np.concatenate([gg, ge, ge, eg, eg, ee])
        cols = np.concatenate([gg, ge, eg, ge, eg, ee])
        weights = np.concatenate([x**n, *([x ** (n + 1) / 2.0] * 4), x ** (n + 2)]) / z
        at = dyn._kept_at(ss.support, rows + cols * d)
        assert np.all(at < ss.support.size)
        want = np.zeros(ss.support.size)
        want[at] = weights
        assert np.abs(ss.entries - want).max() < 1e-12
        t0 = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
        sigma = np.diag([1.0, 0.0, 0.0, x * x]).astype(complex) + x * np.outer(t0, t0)
        want_mi = obs.mutual_information(dyn.DensityMatrix.from_matrix(sigma / (1.0 + x + x * x), atomic_space()))
        assert obs.atomic_mutual_information(ss) == pytest.approx(want_mi, abs=1e-9)

    def test_residual_bound(self, rng):
        p = ModelParams(g0=0.25, eps=10.0)
        sup = vectorize(models.build_effective_coherent(p))
        ss = dyn.steady_state(sup, random_density_matrix(4, rng))
        resid = np.linalg.norm(sup.apply(vec(ss.matrix)))
        assert resid <= 1e-10 * sup.norm_estimate()

    def test_kernel_is_solved_once_per_generator(self, monkeypatch):
        # a trajectory factorizes only the bordered generator on the first
        # sector; the steady state reuses that solve and adds one LU of the
        # other sectors that may hold a kernel: those of rate bound 0 (|d| <= 2)
        # when the model states a detailed-balance weight, all of G otherwise
        calls = []
        splu = dyn.spla.splu

        def counting_splu(a):
            calls.append(a.shape)
            return splu(a)

        monkeypatch.setattr(dyn.spla, "splu", counting_splu)
        space = make_space(4)
        balanced = models.build_full(space, ModelParams(g0=0.1, n_th=1.0, gamma=1e-3))
        for me in (balanced, replace(balanced, balance=None)):
            calls.clear()
            sup = vectorize(me, materialize=False)
            dyn.evolve_spectral(sup, dyn.ground_state(space), np.array([0.0, 10.0]))
            dim = sup.sectors()[0].stop
            assert calls == [(dim + 1, dim + 1)]
            dyn.steady_state(sup, dyn.ground_state(space))
            rest = _kernel_prefix(sup) - dim
            assert calls == [(dim + 1, dim + 1), (rest, rest)]
            k = dyn.stated_kernel(sup)
            assert k is dyn.stated_kernel(sup) and not k.flags.writeable

    def test_other_sectors_are_factorized_a_few_at_a_time(self, monkeypatch):
        # the kernel check of the sectors other than the first factorizes runs
        # of whole sectors of at least _LU_BLOCK coordinates that tile those
        # of rate bound 0 (all of G for a model that states no weight), and
        # still refuses a kernel that lies in one of them
        calls = []
        splu = dyn.spla.splu

        def recording_splu(a):
            calls.append(a.shape[0])
            return splu(a)

        monkeypatch.setattr(dyn.spla, "splu", recording_splu)
        monkeypatch.setattr(dyn, "_LU_BLOCK", 64)
        space = make_space(4)
        balanced = models.build_full(space, ModelParams(g0=0.1, n_th=1.0, gamma=1e-3))
        for me in (balanced, replace(balanced, balance=None)):
            calls.clear()
            sup = models.Superoperator(me)
            dyn.steady_state(sup, dyn.ground_state(space))
            first, *others = sup.sectors()
            runs = calls[1:]  # after the bordered solve of the first sector
            assert len(runs) > 1 and min(runs[:-1]) >= 64
            assert set(first.stop + np.cumsum(runs)) <= {s.stop for s in others}
            assert first.stop + sum(runs) == _kernel_prefix(sup)
        monkeypatch.setattr(dyn, "_LU_BLOCK", 1)
        me = models.build_effective_incoherent(ModelParams(g0=0.1))  # keeps |gg><S| at n_th = 0
        with pytest.raises(KernelAmbiguityError, match="other than the first"):
            dyn.steady_state(models.Superoperator(me), dyn.ground_state(atomic_space()))

    def test_a_trajectory_and_its_steady_state_never_assemble_the_whole_liouvillian(self, monkeypatch):
        # both read the first sector and the other sectors of rate bound 0,
        # each assembled on its own positions
        assembled = []
        build = models._build_liouvillian

        def recording_build(me, at=None):
            assembled.append(at)
            return build(me, at)

        monkeypatch.setattr(models, "_build_liouvillian", recording_build)
        space = make_space(8)
        sup = models.Superoperator(models.build_full(space, ModelParams(g0=0.1, n_th=1.0, gamma=1e-3)))
        obs.mi_curve(sup, dyn.ground_state(space), np.array([0.0, 1.0, 10.0]))
        dyn.steady_state(sup, dyn.ground_state(space))
        assert sup._sparse is None
        assert len(assembled) == 2 and all(at is not None and at.size < sup.dim for at in assembled)

    def test_a_wrongly_stated_charge_is_refused_on_a_part_of_the_generator(self):
        # single-atom decay breaks the exchange symmetry, so P_S is not
        # conserved; the first sector (d = 0, exchange-even) is a proper range
        # of G, and its residual is taken relative to its own columns of L
        space = make_space(4)
        me = models.build_full(space, ModelParams(g0=0.1, n_th=1.0, gamma=1e-3))
        wrong = replace(me, conserved=(singlet_projector(space),))
        sup = models.Superoperator(wrong)
        assert sup.sectors()[0].stop < sup.dim
        with pytest.raises(NumericalAccuracyError, match="not conserved"):
            dyn.steady_state(sup, dyn.ground_state(space))


def _kernel_prefix(sup) -> int:
    """The end of the sectors that may hold a kernel: the |d| <= 2 sectors,
    whose rate bound is 0, when the model states a detailed-balance weight,
    all of G otherwise."""
    if sup.me.balance is None:
        return sup.dim
    return max(s.stop for s, d in zip(sup.sectors(), sup.sector_index().gaps) if d <= 2)


def _check_at(x, t, index):
    """``_check_sample`` of a trajectory's sample at time ``t``, with the
    slack and the refusal that ``_check_samples`` gives it."""
    dyn._check_sample(x, index, (dyn.EVOLUTION_INVARIANT_TOL,) * 3, partial(dyn._refuse_sample, t))


def _kept(m):
    """The nonzero entries of a matrix as a one-sample trajectory keeps them,
    and their ``_SampleIndex``."""
    support = np.flatnonzero(vec(m))
    x = vec(m)[support]
    return x, dyn._sample_index(support, x[None], m.shape[0])


class TestSampleCheck:
    def test_block_minimum_equals_full_minimum(self, rng):
        # block diagonal by its exact zeros, in a scrambled basis order
        for sizes in ([1, 1, 2, 4, 4, 3], [6], [2] * 5):
            blocks = [random_hermitian(n, rng) for n in sizes]
            d = sum(sizes)
            m = np.zeros((d, d), dtype=complex)
            start = 0
            for b in blocks:
                m[start : start + b.shape[0], start : start + b.shape[0]] = b
                start += b.shape[0]
            perm = rng.permutation(d)
            m = m[np.ix_(perm, perm)]
            want = np.linalg.eigvalsh(m).min()
            x, index = _kept(m)
            assert dyn._min_eigenvalue(x, index.blocks) == pytest.approx(want, abs=1e-14)

    def test_negative_block_is_caught(self):
        # trace 1, Hermitian, one 2 x 2 block with eigenvalues 1.1 and -0.1
        m = np.zeros((4, 4), dtype=complex)
        m[2:, 2:] = [[0.5, 0.6], [0.6, 0.5]]
        x, index = _kept(m)
        assert dyn._min_eigenvalue(x, index.blocks) == pytest.approx(-0.1)
        with pytest.raises(NumericalAccuracyError, match="min eigenvalue"):
            _check_at(x, 1.0, index)

    @pytest.mark.parametrize("breach", ["hermiticity", "trace"])
    def test_kept_entries_carry_hermiticity_and_trace(self, breach):
        # a coupling whose transpose lies outside the support, or a diagonal
        # entry that moves the trace, is refused as on the full matrix
        m = np.diag([0.25] * 4).astype(complex)
        if breach == "hermiticity":
            m[0, 3] = 1e-5
        else:
            m[3, 3] += 1e-5
        x, index = _kept(m)
        with pytest.raises(NumericalAccuracyError, match=f"{breach} 1.00e-05"):
            _check_at(x, 1.0, index)

    def test_a_non_finite_sample_is_refused(self):
        # a NaN in the kept entries fails the Hermiticity test, alone or in
        # a chunk that the certificate hands to the sample check
        m = np.diag([0.25] * 4).astype(complex)
        m[1, 1] = np.nan
        x, index = _kept(m)
        with pytest.raises(NumericalAccuracyError, match="t=1: hermiticity nan"):
            _check_at(x, 1.0, index)
        entries, t, index = _samples(np.diag([0.25] * 4).astype(complex), m)
        with pytest.raises(NumericalAccuracyError, match="t=1: hermiticity nan"):
            dyn._check_samples(entries, t, index)

    def test_trajectory_checks_the_union_of_its_patterns(self):
        # the coupling that makes the second sample negative is absent from
        # the first, which is diagonal: only the union partition sees it
        first = np.diag([0.25] * 4).astype(complex)
        second = np.zeros((4, 4), dtype=complex)
        second[2:, 2:] = [[0.5, 0.6], [0.6, 0.5]]
        raw = np.array([vec(first), vec(second)])
        index = dyn._sample_index(np.arange(16), raw, 4)
        _check_at(raw[0], 0.0, index)
        with pytest.raises(NumericalAccuracyError, match="t=1:"):
            _check_at(raw[1], 1.0, index)

    def test_blocks_are_found_once_per_trajectory(self, monkeypatch):
        # the partition belongs to the trajectory, not to each of its samples
        calls = []
        components = dyn.connected_components

        def counting(*args, **kwargs):
            calls.append(1)
            return components(*args, **kwargs)

        space = make_space(4)
        rho0 = dyn.ground_state(space)  # checked on its own partition
        monkeypatch.setattr(dyn, "connected_components", counting)
        sup = vectorize(models.build_full(space, ModelParams(g0=0.1, n_th=1.0)), materialize=False)
        traj = dyn.evolve_spectral(sup, rho0, dyn.time_grid(100.0, 19))
        assert len(traj) == 20
        assert len(calls) == 1


def _dipped(least: float) -> np.ndarray:
    """A 6 x 6 state of trace 1, Hermitian, block diagonal over a 2 x 2 and
    a 4 x 4 block in a scrambled order, with least eigenvalue ``least``."""
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    big = u @ np.diag([least, 0.2, 0.3, 0.35 - least]) @ u.conj().T
    m = scipy.linalg.block_diag([[0.1, 0.02], [0.02, 0.05]], big)
    perm = [3, 0, 5, 1, 4, 2]
    return m[np.ix_(perm, perm)]


def _samples(*states):
    """The samples of a trajectory of ``states`` on the times 0, 1, ...: its
    kept entries, times and ``_SampleIndex``."""
    raw = np.array([vec(m) for m in states])
    support = np.flatnonzero(np.any(raw, axis=0))
    entries = raw[:, support]
    index = dyn._sample_index(support, entries, states[0].shape[0])
    return entries, np.arange(len(states), dtype=float), index


class TestChunkedSampleCheck:
    tol = dyn.EVOLUTION_INVARIANT_TOL

    @pytest.fixture
    def per_sample(self, monkeypatch):
        """The times at which ``_check_sample`` runs."""
        calls = []
        check = dyn._check_sample

        def recording(x, index, tol, refuse):
            calls.append(refuse.args[0])  # the sample's time
            check(x, index, tol, refuse)

        monkeypatch.setattr(dyn, "_check_sample", recording)
        return calls

    def test_a_certified_chunk_skips_eigvalsh(self, per_sample):
        entries, t, index = _samples(*(_dipped(0.1 * k) for k in range(4)))
        dyn._check_samples(entries, t, index)
        assert per_sample == []

    def test_a_sample_within_the_slack_passes_after_the_certificate_fails(self, per_sample):
        entries, t, index = _samples(_dipped(0.05), _dipped(-0.75 * self.tol))
        assert not dyn._certified(entries, index, self.tol / 2.0)
        dyn._check_samples(entries, t, index)
        assert per_sample == [0.0, 1.0]

    def test_a_sample_beyond_the_slack_is_refused_at_its_own_time(self):
        entries, t, index = _samples(_dipped(0.05), _dipped(0.0), _dipped(-2.0 * self.tol))
        with pytest.raises(NumericalAccuracyError, match=r"t=2: .*min eigenvalue -2\.00e-06"):
            dyn._check_samples(entries, t, index)

    def test_a_failing_sample_is_found_in_its_own_chunk(self, monkeypatch, per_sample):
        monkeypatch.setattr(dyn, "_CHECK_BLOCK", 2)
        states = [_dipped(0.05)] * 5
        states[3] = _dipped(-2.0 * self.tol)
        entries, t, index = _samples(*states)
        with pytest.raises(NumericalAccuracyError, match="t=3:"):
            dyn._check_samples(entries, t, index)
        assert per_sample == [2.0, 3.0]

    @given(
        least=st.floats(-3.0, 1.0),
        trace=st.floats(-2.0, 2.0),
        herm=st.floats(0.0, 2.0),
    )
    def test_the_same_decisions_as_the_sample_check(self, least, trace, herm):
        # least eigenvalue, trace and Hermiticity misses of either side of
        # the slack, in units of it
        m = _dipped(least * self.tol)
        m[3, 3] += trace * self.tol
        m[3, 5] += herm * self.tol
        entries, t, index = _samples(m)
        try:
            _check_at(entries[0], 0.0, index)
        except NumericalAccuracyError as refused:
            with pytest.raises(NumericalAccuracyError) as chunked:
                dyn._check_samples(entries, t, index)
            assert str(chunked.value) == str(refused)
        else:
            dyn._check_samples(entries, t, index)


@pytest.mark.parametrize("thermal", [True, False], ids=["thermal", "coherent-displaced"])
@given(
    g0=st.floats(0.05, 1.0),
    eps=st.floats(3.0, 30.0),
    n_th=st.floats(0.2, 5.0),
    gamma=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
    cutoff=st.integers(2, 5),
)
def test_trajectories_stay_positive(thermal, g0, eps, n_th, gamma, cutoff):
    # every sample from |gg,0> passes the check (a refusal fails the draw),
    # and its least eigenvalue over the trajectory's blocks is the whole one
    space = make_space(cutoff)
    if thermal:
        me = models.build_full(space, ModelParams(g0=g0, n_th=n_th, gamma=gamma))
    else:
        me = models.build_coherent_displaced(space, ModelParams(g0=g0, eps=eps, gamma=gamma))
    sup = vectorize(me, materialize=False)
    traj = dyn.evolve_spectral(sup, dyn.ground_state(space), dyn.time_grid(1e3, 12))
    blocks = dyn._sample_index(traj.support, traj.entries, space.dim).blocks
    for x, state in zip(traj.entries, traj.states):
        h = (state.matrix + state.matrix.conj().T) / 2.0
        assert abs(dyn._min_eigenvalue(x, blocks) - np.linalg.eigvalsh(h)[0]) <= 1e-12


@pytest.mark.parametrize("thermal", [True, False], ids=["thermal", "coherent-displaced"])
@given(
    g0=st.floats(0.05, 1.0),
    eps=st.floats(3.0, 30.0),
    n_th=st.floats(0.2, 5.0),
    gamma=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
    cutoff=st.integers(2, 5),
    mix=st.floats(0.1, 0.9),
)
def test_atomic_states_match_the_dense_exponential(thermal, g0, eps, n_th, gamma, cutoff, mix):
    # the partial trace of ``_dense_exponential``.  Besides |gg,0>, rho0
    # mixes in (|gg> + |ge>)|0> / sqrt(2), whose |ge><gg| coherence and |ge>
    # population have weight outside the first sector
    space = make_space(cutoff)
    if thermal:
        me = models.build_full(space, ModelParams(g0=g0, n_th=n_th, gamma=gamma))
    else:
        me = models.build_coherent_displaced(space, ModelParams(g0=g0, eps=eps, gamma=gamma))
    sup = models.Superoperator(me)
    gg = dyn.basis_vector(space, 0, 0, 0)
    psi = (gg + dyn.basis_vector(space, 0, 1, 0)) / np.sqrt(2.0)
    mixed = (1.0 - mix) * np.outer(gg, gg.conj()) + mix * np.outer(psi, psi.conj())
    starts = (dyn.ground_state(space), dyn.DensityMatrix.from_matrix(mixed, space))
    grid = dyn.time_grid(50.0, 5, spacing="linear")
    for rho0, vs in zip(starts, _dense_exponential(sup, starts, grid)):
        for got, v in zip(obs.atomic_states(dyn.evolve_spectral(sup, rho0, grid)), vs):
            want = partial_trace_field(dyn.DensityMatrix(space, np.arange(v.size), v)).matrix
            assert np.abs(got - want).max() <= 1e-10


def test_spectral_trajectory_does_not_hold_full_samples():
    # from |gg,0> a thermal trajectory occupies about 16 cutoff of the D^2
    # entries of vec(rho): it must stay far below one complex D^2 x samples
    # array (210 MB here), with the generator and its kernel already built
    space = make_space(64)
    sup = models.Superoperator(models.build_full(space, ModelParams(g0=0.01, n_th=10.0)))
    dyn.stated_kernel(sup)
    rho0 = dyn.ground_state(space)
    grid = dyn.time_grid(1.0e4, 199)
    tracemalloc.start()
    try:
        traj = dyn.evolve_spectral(sup, rho0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 200
    assert peak < sup.dim * len(traj) * 16 / 8


class TestFitRelaxation:
    def test_pure_exponential_recovered(self):
        space = atomic_space()
        ss = maximally_mixed(space)
        tau = 37.0
        times = dyn.time_grid(6 * tau, 60, t_min=0.1)
        direction = np.diag([1.5, 0.5, -0.5, -1.5]).astype(complex) / 4
        entries = np.array([vec(ss.matrix + np.exp(-t / tau) * direction) for t in times])
        traj = dyn.Trajectory(times, space, np.arange(16), entries)
        est = dyn.fit_relaxation(traj, ss)
        assert est.tau_fit == pytest.approx(tau, rel=1e-6)
        assert est.residual < 1e-8

    def test_coherent_target(self, rng):
        p = ModelParams(g0=0.25, eps=10.0)
        sup = vectorize(models.build_effective_coherent(p))
        rho0 = random_density_matrix(4, rng)
        grid = dyn.time_grid(6.0 * 400.0, 140, t_min=0.5)
        traj = dyn.evolve_spectral(sup, rho0, grid)
        ss = dyn.steady_state(sup, rho0)
        est = dyn.fit_relaxation(traj, ss)
        assert est.tau_fit == pytest.approx(400.0, rel=0.05)

    def test_incoherent_target(self, rng):
        p = ModelParams(g0=0.1, n_th=1.0)
        sup = vectorize(models.build_effective_incoherent(p))
        rho0 = random_density_matrix(4, rng)
        grid = dyn.time_grid(6.0 * 50.0, 140, t_min=0.1)
        traj = dyn.evolve_spectral(sup, rho0, grid)
        ss = dyn.steady_state(sup, rho0)
        est = dyn.fit_relaxation(traj, ss)
        assert est.tau_fit == pytest.approx(50.0, rel=0.05)

    def test_insufficient_decay_rejected(self, rng):
        p = ModelParams(g0=0.25, eps=10.0)
        sup = vectorize(models.build_effective_coherent(p))
        rho0 = random_density_matrix(4, rng)
        grid = dyn.time_grid(20.0, 20, t_min=0.5)  # far shorter than tau=400
        traj = dyn.evolve_spectral(sup, rho0, grid)
        ss = dyn.steady_state(sup, rho0)
        with pytest.raises(FitWindowError):
            dyn.fit_relaxation(traj, ss)


class TestDetectPlateau:
    def test_constant_series(self):
        t = np.logspace(-1, 3, 50)
        wins = dyn.detect_plateau(t, np.full(50, 0.3))
        assert len(wins) == 1
        assert wins[0][0] == pytest.approx(t[0])
        assert wins[0][1] == pytest.approx(t[-1])

    def test_two_level_series(self):
        # synthetic metastable shape: rise, plateau, final settle
        t = np.logspace(-1, 7, 300)
        v = 0.5 / (1 + (3.0 / t) ** 2) - 0.085 / (1 + (1e5 / t) ** 2)
        wins = dyn.detect_plateau(t, v)
        assert any(b / a >= 100.0 for a, b in wins)

    def test_monotonic_rise_has_no_plateau(self):
        t = np.logspace(-1, 3, 120)
        v = np.log10(t)  # constant slope per decade
        assert dyn.detect_plateau(t, v) == []


class TestCheckTruncation:
    def test_decoupled_field_converges_immediately(self):
        # g0 = 0, n_th = 0: the atoms decouple and every atomic state is
        # stationary, a kernel larger than the stated one (identity and
        # singlet); the surplus zero modes count as rates, so the gap is 0
        # at every cutoff
        p = ModelParams(g0=0.0, eps=0.0, n_th=0.0)
        gaps = []

        def extractor(me):
            gaps.append(spectra.analyze(vectorize(me, materialize=False)).gap)
            return gaps[-1]

        cutoff, history = dyn.check_truncation(models.build_full, p, extractor)
        assert cutoff == 8
        assert gaps == [0.0, 0.0]
        assert history == [(4, 0.0), (8, 0.0)]

    def test_displaced_coherent_converges_small(self):
        p = ModelParams(g0=0.5, eps=10.0)
        cutoff, rep, history = dyn.converged_cutoff_for_gap(models.build_coherent_displaced, p)
        assert cutoff <= 16
        # the sweep doubled from the start to the converged cutoff, whose gap it returns
        assert [c for c, _ in history] == [4 * 2**i for i in range(len(history))]
        assert history[-1] == (cutoff, rep.gap)
        # the returned report is the targeted solve at the converged cutoff
        assert rep.partial and rep.kernel_dim == 2
        sup = vectorize(models.build_coherent_displaced(make_space(cutoff), p), materialize=False)
        again = spectra.analyze(sup, k=12)
        assert rep.gap == pytest.approx(again.gap, rel=1e-12)

    def test_thermal_cutoff_scales_with_occupation(self, monkeypatch):
        # converged cutoff is a few times n_th (convergence sweep at 1% on
        # the gap keeps this test light)
        monkeypatch.setattr(dyn, "TRUNCATION_REL_TOL", 1e-2)
        p = ModelParams(g0=0.05, n_th=2.0)
        cutoff, _, _ = dyn.converged_cutoff_for_gap(models.build_full, p, k=10)
        assert 8 <= cutoff <= 64

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(dyn, "TRUNCATION_HARD_CAP", 32)
        p = ModelParams(g0=0.1, n_th=0.5)
        flip = {"x": 1.0}

        def never_converges(me):
            flip["x"] = -flip["x"]
            return 1.0 + flip["x"]

        with pytest.raises(TruncationLimitError):
            dyn.check_truncation(models.build_full, p, never_converges)
