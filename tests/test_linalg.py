import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

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

SRC = Path(__file__).resolve().parents[1] / "src"


def real_eigenbasis(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Real basis of the eigenvectors V (eigenvalues ``w``) of a real matrix
    as ``np.linalg.eig`` returns them: the NumPy reference that
    ``eig_general``'s basis must equal bit for bit.

    Column j is v_j for a real eigenvalue; a conjugate pair (w_j with
    Im w_j > 0, w_{j+1} = conj(w_j)) becomes sqrt(2) Re v_j, sqrt(2) Im v_j.
    """
    if not np.iscomplexobj(v):
        return v.copy()
    upper = np.flatnonzero(w.imag > 0.0)
    if upper.size and (
        upper[-1] + 1 == w.size or not np.array_equal(w[upper + 1], w[upper].conj())
    ):
        raise ValueError("eigenvalues do not come in conjugate pairs; the matrix is not real")
    basis = v.real.copy()
    basis[:, upper] *= np.sqrt(2.0)
    basis[:, upper + 1] = np.sqrt(2.0) * v[:, upper].imag
    return basis


#: model sectors whose decompositions are compared with NumPy's: the two
#: Theta halves 336 and 304 of the displaced model's even parity at cutoff
#: 8, those of the thermal d = 0 even sector, 164 and 68 (cutoff 24) and
#: 276 and 116 (cutoff 40), and a thermal 24 whose spectrum is all real
SECTORS = {
    "displaced-eps100": ("build_coherent_displaced", 8, dict(g0=0.25, eps=100.0), 2),
    "displaced-gamma": ("build_coherent_displaced", 8, dict(g0=0.25, eps=10**0.5, gamma=1e-3), 2),
    "thermal-3": ("build_full", 24, dict(g0=0.1, n_th=3.0), 2),
    "thermal-10-gamma": ("build_full", 40, dict(g0=0.1, n_th=10.0, gamma=1e-3), 2),
    "thermal-all-real": ("build_full", 4, dict(g0=0.1, n_th=3.0), 1),
}

_DECOMPOSE = """
import sys
import numpy as np
from atomcavity import ModelParams, linalg, make_space, models
arrays = {}
for name, (build, cutoff, params, count) in %r.items():
    sup = models.Superoperator(getattr(models, build)(make_space(cutoff), ModelParams(**params)))
    for k, s in enumerate(sup.sectors()[:count]):
        g = sup.generator(s)[0]
        dec = linalg.eig_general(g)
        w, v = np.linalg.eig(g.toarray())
        arrays.update({f"{name}/{k}/{key}": x for key, x in
                       (("w", dec.eigenvalues), ("basis", dec.basis), ("numpy_w", w), ("numpy_v", v))})
        arrays[f"{name}/{k}/c_ordered"] = np.array(dec.basis.flags.c_contiguous)
np.savez(sys.argv[1], **arrays)
"""


@pytest.fixture(scope="module")
def one_thread_sectors(tmp_path_factory):
    """``eig_general`` and ``np.linalg.eig`` on each of ``SECTORS``, in an
    interpreter with one BLAS thread.  The bits of both libraries' LAPACK
    depend on the BLAS thread count, and NumPy and SciPy bundle separate
    OpenBLAS builds, which agree bit for bit on one thread (as the
    benchmark runs) but not on several."""
    out = tmp_path_factory.mktemp("sectors") / "sectors.npz"
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", _DECOMPOSE % (SECTORS,), str(out)], env=env, check=True)
    with np.load(out) as arrays:
        return dict(arrays)


class TestEigGeneral:
    def test_diagonal(self):
        dec = linalg.eig_general(np.diag([1.0, 2.0, 3.0]))
        assert_allclose(sorted(dec.eigenvalues.real), [1, 2, 3], atol=1e-12)
        assert not dec.near_defective

    def test_pauli_x(self):
        dec = linalg.eig_general(SIGMA_X.real)
        assert_allclose(sorted(dec.eigenvalues.real), [-1, 1], atol=1e-12)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_complex_input_refused_before_lapack(self, monkeypatch, sparse):
        def unreachable(*args, **kwargs):
            raise AssertionError("LAPACK called on a complex matrix")

        for name in ("dgeev", "dgeev_lwork", "dgetrf", "dgetri"):
            monkeypatch.setattr(linalg.lapack, name, unreachable)
        m = SIGMA_X + 0j  # complex dtype, real entries: refused by its dtype
        with pytest.raises(TypeError, match="real matrix"):
            linalg.eig_general(sp.csr_matrix(m) if sparse else m)

    def test_callers_matrix_is_not_canonicalized(self):
        # duplicate entries are summed on eig_general's own copy
        m = sp.csr_matrix((np.array([1.0, 1.0, 3.0]), np.array([0, 0, 1]), np.array([0, 2, 3])), shape=(2, 2))
        assert not m.has_canonical_format
        dec = linalg.eig_general(m)
        assert_allclose(sorted(dec.eigenvalues), [2.0, 3.0], atol=1e-12)
        assert not m.has_canonical_format
        assert np.array_equal(m.data, [1.0, 1.0, 3.0]) and np.array_equal(m.indices, [0, 0, 1])

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
        assert np.array_equal(dec.basis, real_eigenbasis(w, v))
        # every eigenvalue off the real axis belongs to exactly one pair
        assert np.count_nonzero(w.imag != 0.0) == 2 * upper.size

    @pytest.mark.parametrize("name", SECTORS)
    def test_model_sectors_give_numpys_bits(self, one_thread_sectors, name):
        # dgeev run in place gives np.linalg.eig's eigenvalues, dtype
        # included, and the real form of its eigenvectors, bit for bit
        for k in range(SECTORS[name][3]):
            got = {key: one_thread_sectors[f"{name}/{k}/{key}"] for key in ("w", "basis", "numpy_w", "numpy_v")}
            w, v = got["numpy_w"], got["numpy_v"]
            assert got["w"].dtype == w.dtype and np.array_equal(got["w"], w)
            assert got["basis"].dtype == np.float64
            assert np.array_equal(got["basis"], real_eigenbasis(w, v))
            assert one_thread_sectors[f"{name}/{k}/c_ordered"]
        if name == "thermal-all-real":  # NumPy returns real dtypes here
            assert w.dtype == v.dtype == np.float64

    def test_sparse_and_dense_input_agree(self):
        sup = models.Superoperator(models.build_full(make_space(6), ModelParams(g0=0.1, n_th=2.0, gamma=1e-3)))
        g = sup.generator(sup.sectors()[0])[0]
        sparse, dense = linalg.eig_general(g), linalg.eig_general(g.toarray())
        assert np.array_equal(sparse.eigenvalues, dense.eigenvalues)
        assert np.array_equal(sparse.basis, dense.basis)
        assert sparse.condition_bound == dense.condition_bound

    def test_working_set_of_a_sparse_sector(self):
        # one dense copy, which dgeev overwrites, and its eigenvectors; then
        # the C-ordered basis, and the basis with its inverse: under 3.5 n^2
        # doubles traced (np.linalg.eig behind a dense copy of the block read
        # 4 n^2 traced, its own buffers untraced, and about 7 n^2 by RSS)
        sup = models.Superoperator(models.build_full(make_space(60), ModelParams(g0=0.01, n_th=10.0)))
        g = sup.generator(sup.sectors()[0])[0]
        n = g.shape[0]
        assert n == 7 * 60 - 4
        tracemalloc.start()
        try:
            linalg.eig_general(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 8 * n * n

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_non_finite_input_refused(self, bad, sparse):
        m = np.eye(4)
        m[1, 2] = bad
        with pytest.raises(NumericalAccuracyError):
            linalg.eig_general(sp.csr_matrix(m) if sparse else m)

    def test_failed_iteration_refused(self, monkeypatch):
        dgeev = linalg.lapack.dgeev

        def failing(*args, **kwargs):
            return dgeev(*args, **kwargs)[:-1] + (1,)

        monkeypatch.setattr(linalg.lapack, "dgeev", failing)
        with pytest.raises(NumericalAccuracyError, match="did not converge"):
            linalg.eig_general(np.diag([1.0, 2.0]))

    def test_real_input_condition_matches_complex_svd(self, rng):
        m = rng.standard_normal((40, 40))
        dec = linalg.eig_general(m)
        v = np.linalg.eig(m)[1]
        complex_cond = linalg.condition_estimate(v.astype(complex))
        assert dec.condition_estimate == pytest.approx(complex_cond, rel=1e-10)
        # the real basis B spans the eigenvectors: B^-1 A B is w_j on the
        # diagonal for a real eigenvalue and [[a, b], [-b, a]] for a + ib
        w = dec.eigenvalues
        basis = real_eigenbasis(w, v)
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
            real_eigenbasis(np.array([1.0 + 1.0j, 1.0 + 1.0j]), np.eye(2, dtype=complex))

    def test_near_defective_flagged(self):
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        dec = linalg.eig_general(jordan)
        assert dec.near_defective


def _with_condition(kappa: float, pair: bool, n: int = 8) -> np.ndarray:
    """A real matrix with eigenvalues 1..n, or 1 +- i, 3..n with ``pair``,
    whose eigenvector basis has condition number about ``kappa``: columns 0
    and 1 of its real basis are e0 and e0 + (2 / kappa) e1."""
    b = np.eye(n)
    b[1, 1] = 2.0 / kappa
    b[0, 1] = 1.0
    j = np.diag(np.arange(1.0, n + 1.0))
    if pair:
        j[:2, :2] = [[1.0, 1.0], [-1.0, 1.0]]
    return b @ j @ np.linalg.inv(b)


class TestConditionBound:
    """``condition_bound`` is an upper bound on the exact 2-norm condition
    number, and ``near_defective`` decides as the exact value does."""

    @pytest.mark.parametrize("n", [2, 7, 40, 120])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_bounds_the_exact_condition_of_random_matrices(self, rng, n, sparse):
        m = rng.standard_normal((n, n))
        dec = linalg.eig_general(sp.csr_matrix(m) if sparse else m)
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
    @pytest.mark.parametrize("pair", [False, True])
    def test_near_defective_is_the_exact_decision(self, monkeypatch, kappa, pair):
        exact = []
        svd = linalg.condition_estimate
        monkeypatch.setattr(linalg, "condition_estimate", lambda b: exact.append(svd(b)) or exact[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = linalg.eig_general(_with_condition(kappa, pair))
            flagged = dec.near_defective
        truth = svd(dec.basis) > linalg.NEAR_DEFECTIVE_COND
        assert flagged == truth == (kappa > linalg.NEAR_DEFECTIVE_COND)
        # the SVD is taken only when the bound does not clear the limit
        assert bool(exact) == (dec.condition_bound > linalg.NEAR_DEFECTIVE_COND)

    @pytest.mark.parametrize("eigenvalue", ["float", "complex"])
    def test_jordan_block_falls_back_to_the_svd(self, eigenvalue):
        # a real Jordan block of 2, or of the pair 2 +- i (three 2 x 2
        # rotation blocks coupled by identities)
        if eigenvalue == "float":
            jordan = np.diag(np.ones(5), 1) + 2.0 * np.eye(6)
        else:
            jordan = np.kron(np.eye(3), [[2.0, 1.0], [-1.0, 2.0]]) + np.kron(np.diag(np.ones(2), 1), np.eye(2))
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
