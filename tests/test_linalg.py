import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from atomcavity import ModelParams, dynamics, linalg, make_space, models, observables, spectra
from atomcavity.errors import (
    DimensionLimitError,
    NumericalAccuracyError,
    ShapeError,
    StiffnessError,
)
from atomcavity.operators import SIGMA_X


class TestEigGeneral:
    def test_diagonal(self):
        dec = linalg.eig_general(np.diag([1.0, 2.0, 3.0]))
        assert_allclose(sorted(dec.eigenvalues.real), [1, 2, 3], atol=1e-12)
        assert not dec.near_defective

    def test_pauli_x(self):
        dec = linalg.eig_general(SIGMA_X)
        assert_allclose(sorted(dec.eigenvalues.real), [-1, 1], atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            linalg.eig_general(np.ones((2, 3)))

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(linalg, "DENSE_CAP", 8)
        with pytest.raises(DimensionLimitError):
            linalg.eig_general(np.eye(10))
        assert linalg.eig_general(np.eye(8)).eigenvalues.size == 8

    def test_residual_postcondition_triggers(self, rng, monkeypatch):
        monkeypatch.setattr(linalg, "EIG_RESIDUAL_TOL", 1e-30)
        m = rng.standard_normal((6, 6))
        with pytest.raises(NumericalAccuracyError):
            linalg.eig_general(m)

    def test_real_input_gives_exact_conjugate_pairs(self, rng):
        m = rng.standard_normal((40, 40))
        dec = linalg.eig_general(m)
        w = dec.eigenvalues
        upper = np.flatnonzero(w.imag > 0.0)
        assert upper.size > 0
        assert np.array_equal(w[upper + 1], w[upper].conj())
        v = np.linalg.eig(m)[1]  # the eigenvectors behind dec.basis
        assert np.array_equal(v[:, upper + 1], v[:, upper].conj())
        assert np.array_equal(dec.basis, linalg.real_eigenbasis(w, v))
        # every eigenvalue off the real axis belongs to exactly one pair
        assert np.count_nonzero(w.imag != 0.0) == 2 * upper.size

    def test_real_input_condition_matches_complex_svd(self, rng):
        m = rng.standard_normal((40, 40))
        dec = linalg.eig_general(m)
        v = np.linalg.eig(m)[1]
        complex_cond = linalg.condition_estimate(v.astype(complex))
        assert dec.condition_estimate == pytest.approx(complex_cond, rel=1e-10)
        # the real basis B spans the eigenvectors: B^-1 A B is w_j on the
        # diagonal for a real eigenvalue and [[a, b], [-b, a]] for a + ib
        w = dec.eigenvalues
        basis = linalg.real_eigenbasis(w, v)
        assert basis.dtype == np.float64
        blocks = np.diag(w.real)
        upper = np.flatnonzero(w.imag > 0.0)
        blocks[upper, upper + 1] = w[upper].imag
        blocks[upper + 1, upper] = -w[upper].imag
        assert_allclose(np.linalg.solve(basis, m @ basis), blocks, atol=1e-10)

    def test_real_eigenbasis_rejects_unpaired_spectrum(self):
        # an eigenvalue above the real axis without its conjugate next to it
        # cannot come from a real matrix
        with pytest.raises(ValueError):
            linalg.real_eigenbasis(np.array([1.0 + 1.0j, 1.0 + 1.0j]), np.eye(2, dtype=complex))

    def test_near_defective_flagged(self):
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        dec = linalg.eig_general(jordan)
        assert dec.near_defective


def _with_condition(kappa: float, complex_: bool, n: int = 8) -> np.ndarray:
    """A matrix with eigenvalues 1..n whose eigenvector basis has condition
    number about ``kappa``: columns 0 and 1 are e0 and e0 + (2 / kappa) e1."""
    b = np.eye(n, dtype=complex if complex_ else float)
    b[1, 1] = 2.0 / kappa
    b[0, 1] = 1.0
    if complex_:
        b[2:, 2:] += 0.1j
    return b @ np.diag(np.arange(1.0, n + 1.0)) @ np.linalg.inv(b)


class TestConditionBound:
    """``condition_bound`` is an upper bound on the exact 2-norm condition
    number, and ``near_defective`` decides as the exact value does."""

    @pytest.mark.parametrize("n", [2, 7, 40, 120])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_bounds_the_exact_condition_of_random_matrices(self, rng, n, complex_):
        m = rng.standard_normal((n, n))
        if complex_:
            m = m + 1j * rng.standard_normal((n, n))
        dec = linalg.eig_general(m)
        assert dec.condition_estimate <= dec.condition_bound < np.inf
        assert not dec.near_defective

    @pytest.mark.parametrize(
        "build, params",
        [
            (models.build_coherent_displaced, ModelParams(g0=0.25, eps=10.0)),
            (models.build_coherent_displaced, ModelParams(g0=0.25, eps=1000.0, gamma=1e-3)),
            (models.build_full, ModelParams(g0=0.1, n_th=2.0)),
            (models.build_full, ModelParams(g0=0.1, n_th=2.0, gamma=1e-3)),
        ],
    )
    def test_bounds_the_exact_condition_of_model_sectors(self, build, params):
        sup = models.Superoperator(build(make_space(5), params))
        for s in sup.sectors():
            dec = linalg.eig_general(sup.as_dense(s))
            assert dec.condition_estimate <= dec.condition_bound <= linalg.NEAR_DEFECTIVE_COND

    @pytest.mark.parametrize("kappa", [1e6, 1e7, 1e9, 1e12])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_near_defective_is_the_exact_decision(self, monkeypatch, kappa, complex_):
        exact = []
        svd = linalg.condition_estimate
        monkeypatch.setattr(linalg, "condition_estimate", lambda b: exact.append(svd(b)) or exact[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = linalg.eig_general(_with_condition(kappa, complex_))
            flagged = dec.near_defective
        truth = svd(dec.basis) > linalg.NEAR_DEFECTIVE_COND
        assert flagged == truth == (kappa > linalg.NEAR_DEFECTIVE_COND)
        # the SVD is taken only when the bound does not clear the limit
        assert bool(exact) == (dec.condition_bound > linalg.NEAR_DEFECTIVE_COND)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_jordan_block_falls_back_to_the_svd(self, dtype):
        jordan = np.diag(np.ones(5), 1).astype(dtype) + 2.0 * np.eye(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = linalg.eig_general(jordan)
            assert dec.condition_bound > linalg.NEAR_DEFECTIVE_COND
            assert dec.near_defective

    def test_no_svd_on_well_conditioned_sectors(self, monkeypatch):
        """The coherent MI curve and a dense spectrum of the displaced model
        run with the exact condition number out of reach."""

        def unreachable(_b):
            raise AssertionError("condition_estimate called on a well-conditioned basis")

        monkeypatch.setattr(linalg, "condition_estimate", unreachable)
        space = make_space(8)  # the coherent MI curve's auto cutoff at g0 = 1/4
        sup = models.Superoperator(models.build_coherent_displaced(space, ModelParams(g0=0.25, eps=100.0)))
        mi = observables.mi_curve(sup, dynamics.ground_state(space), np.array([0.0, 10.0, 100.0]))
        assert np.all(np.isfinite(mi))
        rep = spectra.analyze(sup)
        assert not rep.near_defective
        assert 1.0 <= rep.condition_estimate <= linalg.NEAR_DEFECTIVE_COND


MINUS_ONE = sp.csr_matrix(-np.eye(1))


class TestIntegrateOde:
    def test_zero_generator_constant(self):
        y0 = np.array([1.0, 2.0j], dtype=complex)
        t = np.array([0.0, 1.0, 5.0])
        traj = linalg.integrate_ode(lambda y: 0.0 * y, y0, t, sp.csr_matrix((2, 2)))
        assert_allclose(traj, np.broadcast_to(y0, (3, 2)), atol=1e-12)

    def test_scalar_decay(self, monkeypatch):
        monkeypatch.setattr(linalg, "ODE_RTOL", 1e-10)
        monkeypatch.setattr(linalg, "ODE_ATOL", 1e-12)
        y0 = np.array([1.0 + 0.0j])
        t = np.array([0.0, 1.0])
        traj = linalg.integrate_ode(lambda y: -y, y0, t, MINUS_ONE)
        assert_allclose(traj[-1, 0], np.exp(-1.0), rtol=1e-8)

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError):
            linalg.integrate_ode(lambda y: -y, np.ones(1), np.array([1.0, 2.0]), MINUS_ONE)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            linalg.integrate_ode(lambda y: -y, np.ones(1), np.array([0.0, 2.0, 1.0]), MINUS_ONE)

    def test_stiff_failure_reports(self):
        # blow-up ODE exhausts the step budget and must raise, not return junk
        with pytest.raises(StiffnessError):
            linalg.integrate_ode(
                lambda y: y * y.real * 1e8,
                np.ones(1, dtype=complex),
                np.array([0.0, 1e6]),
                sp.csr_matrix(2e8 * np.eye(1)),
            )

    def test_bdf_with_sparse_jacobian(self, rng):
        d = np.concatenate((-(10.0 ** rng.uniform(0, 6, 30)), [0.0]))
        jac = sp.diags(d).tocsr()
        y0 = np.ones(31, dtype=complex)
        t = np.array([0.0, 1.0, 100.0])
        traj = linalg.integrate_ode(lambda y: jac @ y, y0, t, jac)
        assert_allclose(traj[-1], np.exp(d * 100.0), atol=1e-8)
