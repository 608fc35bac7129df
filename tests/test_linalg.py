import numpy as np
import pytest
from numpy.testing import assert_allclose

from atomcavity import linalg
from atomcavity.errors import (
    DimensionLimitError,
    HermiticityError,
    NumericalAccuracyError,
    ShapeError,
    StiffnessError,
)
from atomcavity.operators import SIGMA_X, SIGMA_Z

from conftest import random_hermitian

I2 = np.eye(2, dtype=complex)


class TestKron:
    def test_identity_case(self):
        assert_allclose(linalg.kron(I2, I2), np.eye(4))

    def test_sigma_z_embedding(self):
        assert_allclose(np.diag(linalg.kron(SIGMA_Z, I2)), [1, 1, -1, -1])

    def test_annihilation_pattern(self):
        # a on a 3-level Fock factor applied to e2 (x) e0 lowers to sqrt(2) e1 (x) e0
        a3 = np.diag(np.sqrt([1.0, 2.0]), k=1).astype(complex)
        full = linalg.kron(a3, I2)
        vin = np.kron(np.array([0, 0, 1.0]), np.array([1.0, 0]))
        vout = full @ vin
        expected = np.sqrt(2.0) * np.kron(np.array([0, 1.0, 0]), np.array([1.0, 0]))
        assert_allclose(vout, expected)

    def test_associativity(self, rng):
        # integer-valued entries so the pairwise float products are exact
        a = rng.integers(-4, 5, (2, 3)).astype(float)
        b = rng.integers(-4, 5, (3, 2)).astype(float)
        c = rng.integers(-4, 5, (2, 2)).astype(float)
        left = linalg.kron(linalg.kron(a, b), c)
        right = linalg.kron(a, linalg.kron(b, c))
        assert np.array_equal(left, right)

    def test_dimension_cap(self):
        big = np.ones((1200, 1200))
        with pytest.raises(DimensionLimitError):
            linalg.kron(big, big)


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

    def test_residual_postcondition_triggers(self, rng):
        m = rng.standard_normal((6, 6))
        with pytest.raises(NumericalAccuracyError):
            linalg.eig_general(m, residual_tol=1e-30)

    def test_round_trip_reconstruction(self, rng):
        for _ in range(5):
            m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            dec = linalg.eig_general(m)
            if dec.condition_estimate < 1e6:
                rel = np.linalg.norm(linalg.reconstruct(dec) - m) / np.linalg.norm(m)
                assert rel < 1e-8

    def test_near_defective_flagged(self):
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        dec = linalg.eig_general(jordan)
        assert dec.near_defective


class TestEigHermitian:
    def test_half_identity(self):
        dec = linalg.eig_hermitian(I2 / 2)
        assert_allclose(dec.eigenvalues.real, [0.5, 0.5])

    def test_sigma_z_sorted_ascending(self):
        dec = linalg.eig_hermitian(SIGMA_Z)
        assert_allclose(dec.eigenvalues.real, [-1.0, 1.0])

    def test_bell_state_spectrum(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        rho = np.outer(v, v.conj())
        dec = linalg.eig_hermitian(rho)
        assert_allclose(dec.eigenvalues.real, [0, 0, 0, 1], atol=1e-12)

    def test_orthonormal_eigenvectors(self, rng):
        m = random_hermitian(8, rng)
        dec = linalg.eig_hermitian(m)
        v = dec.right_eigenvectors
        assert_allclose(v.conj().T @ v, np.eye(8), atol=1e-10)

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(HermiticityError):
            linalg.eig_hermitian(rng.standard_normal((4, 4)) + SIGMA_X.repeat(2, 0).repeat(2, 1) * 1j)


class TestNullSpace:
    def test_identity_has_empty_kernel(self):
        assert linalg.null_space(np.eye(5)).shape == (5, 0)

    def test_projector_kernel(self):
        p = np.diag([1.0, 1.0, 0.0, 0.0])
        basis = linalg.null_space(p, tol=1e-12)
        assert basis.shape == (4, 2)
        assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)
        assert_allclose(p @ basis, 0.0, atol=1e-12)


class TestIntegrateOde:
    def test_zero_generator_constant(self):
        y0 = np.array([1.0, 2.0j], dtype=complex)
        t = np.array([0.0, 1.0, 5.0])
        traj = linalg.integrate_ode(lambda y: 0.0 * y, y0, t)
        assert_allclose(traj, np.broadcast_to(y0, (3, 2)), atol=1e-12)

    def test_scalar_decay(self):
        y0 = np.array([1.0 + 0.0j])
        t = np.array([0.0, 1.0])
        traj = linalg.integrate_ode(lambda y: -y, y0, t, rtol=1e-10, atol=1e-12)
        assert_allclose(traj[-1, 0], np.exp(-1.0), rtol=1e-8)

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError):
            linalg.integrate_ode(lambda y: -y, np.ones(1), np.array([1.0, 2.0]))

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            linalg.integrate_ode(lambda y: -y, np.ones(1), np.array([0.0, 2.0, 1.0]))

    def test_stiff_failure_reports(self):
        # blow-up ODE exhausts the step budget and must raise, not return junk
        with pytest.raises(StiffnessError):
            linalg.integrate_ode(
                lambda y: y * y.real * 1e8, np.ones(1, dtype=complex), np.array([0.0, 1e6])
            )

    def test_bdf_with_sparse_jacobian(self, rng):
        import scipy.sparse as sp

        d = np.concatenate((-(10.0 ** rng.uniform(0, 6, 30)), [0.0]))
        jac = sp.diags(d).tocsr()
        y0 = np.ones(31, dtype=complex)
        t = np.array([0.0, 1.0, 100.0])
        traj = linalg.integrate_ode(lambda y: jac @ y, y0, t, jac=jac)
        assert_allclose(traj[-1], np.exp(d * 100.0), atol=1e-8)
