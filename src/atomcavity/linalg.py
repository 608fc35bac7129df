"""Dense linear-algebra kernel.

Everything the physics layers consume: general eigendecompositions of real
matrices, sparse or dense, with residual checks, refused above
``DENSE_CAP``, the package's one dense-size limit.  The input is copied
once to float64 CSR; LAPACK ``dgeev`` (SciPy's, with its optimal
workspace) runs in place on one private Fortran-ordered dense copy and
returns exact conjugate pairs, and the real eigenbasis is taken from its
eigenvectors and copied once to C order (on one BLAS thread, NumPy's bits).
Residuals are formed from the sparse copy a block of columns at a time, and
the condition bound from an in-place LU inverse of the basis, so no n x n
product is held.  ``integrate_ode``, stiff (BDF) integration of linear
ODEs, has no caller in the package, whose one evolution path is
``dynamics.evolve_spectral``; it stays only because the benchmark's tracer
(``bench/tracing.py``) binds it by name and patches the LU that SciPy's
BDF factorizes with.  SciPy's integrator is imported on its first call: it
pulls in ``scipy.optimize``, ``scipy.fft`` and ``scipy.spatial``, which no
other path needs.  All functions are pure and all returned arrays are
freshly allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import (
    DimensionLimitError,
    NumericalAccuracyError,
    ShapeError,
    StiffnessError,
)

#: largest matrix dimension that is handled densely: dense superoperator
#: copies, dense eigendecompositions and the dense path of spectrum analysis
DENSE_CAP = 4096

#: eigenpair residual bound, relative to ||A||_F * ||v||
EIG_RESIDUAL_TOL = 1e-9

#: columns of the eigenbasis whose residuals, or whose products with the
#: basis's inverse, are formed at a time, so no n x n product is held
_COLUMN_BLOCK = 256

#: eigenvector-matrix condition number above which a decomposition is
#: treated as near-defective and spectral evolution must not be used
NEAR_DEFECTIVE_COND = 1e8

#: relative and absolute tolerances of the BDF integrator
ODE_RTOL = 1e-8
ODE_ATOL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a square real matrix.

    The complex eigenvalues come in pairs, the one with positive imaginary
    part first and its conjugate, bit for bit, next, with conjugate
    eigenvectors V.  ``basis`` is the real form B of V, C-ordered, one
    column per eigenvalue in their order: column j is v_j for a real
    eigenvalue, and a pair's v_j, conj(v_j) become sqrt(2) Re v_j,
    sqrt(2) Im v_j (V times a unitary, so B has V's condition number).
    ``condition_bound`` is an upper bound on the 2-norm condition number of
    the basis from its computed inverse (``inf`` when the inverse does not
    give one, see ``eig_general``); ``condition_estimate``, the exact value
    from the singular values of the basis, is computed only when read.
    ``near_defective`` (condition number above ``NEAR_DEFECTIVE_COND``: too
    close to defective for V-based reconstruction) is False when the bound
    clears that limit and reads the exact value otherwise, so it is always
    the decision the exact value makes.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    condition_bound: float

    @cached_property
    def condition_estimate(self) -> float:
        return condition_estimate(self.basis)

    @property
    def near_defective(self) -> bool:
        if self.condition_bound <= NEAR_DEFECTIVE_COND:
            return False
        return not np.isfinite(self.condition_estimate) or (
            self.condition_estimate > NEAR_DEFECTIVE_COND
        )


def _as_square(m: np.ndarray | sp.spmatrix, who: str) -> np.ndarray | sp.spmatrix:
    a = m if sp.issparse(m) else np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{who} requires a square matrix, got shape {a.shape}")
    return a


def condition_estimate(v: np.ndarray) -> float:
    """Exact 2-norm condition number of a square matrix, from its singular
    values; ``inf`` when the smallest one is zero or any is not finite."""
    s = np.linalg.svd(_as_square(v, "condition_estimate"), compute_uv=False)
    if s[-1] == 0.0 or not np.all(np.isfinite(s)):
        return np.inf
    return float(s[0] / s[-1])


def _condition_bound(b: np.ndarray) -> float:
    """Upper bound on the 2-norm condition number of the real C-ordered
    ``b`` from its computed inverse X, with the residual E = B X - I formed
    ``_COLUMN_BLOCK`` columns at a time.

    X comes from LAPACK's ``dgetrf``/``dgetri`` in place on one copy of B (the
    LU of B^T, whose inverse X^T is X in C order).  B^-1 = X (I + E)^-1, so
    when r = ||E||_F < 1, kappa_2(B) <= ||B||_F ||X||_F / (1 - r) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 14), for
    any computed X.  The bound is taken only for r <= 1/2, far above the
    GEMM's own rounding of E (n u ||B||_F ||X||_F < 5e-5 for n <=
    ``DENSE_CAP`` and a bound up to ``NEAR_DEFECTIVE_COND``), and is ``inf``
    otherwise, for a singular ``b`` and whenever a norm is not finite: the
    overflow a nearly singular basis gives is expected here.
    """
    n = b.shape[0]
    with np.errstate(all="ignore"):
        lu, piv, info = lapack.dgetrf(b.T)
        if info != 0:
            return np.inf
        lwork, _ = lapack.dgetri_lwork(n)
        xt, info = lapack.dgetri(lu, piv, lwork=int(lwork), overwrite_lu=True)
        if info != 0:
            return np.inf
        x = xt.T
        squares = 0.0
        for lo in range(0, n, _COLUMN_BLOCK):
            e = b @ x[:, lo : lo + _COLUMN_BLOCK]
            e[np.arange(e.shape[1]) + lo, np.arange(e.shape[1])] -= 1.0
            squares += np.linalg.norm(e) ** 2
        r = np.sqrt(squares)
        bound = np.linalg.norm(b) * np.linalg.norm(x) / (1.0 - r)
    return float(bound) if r <= 0.5 and np.isfinite(bound) else np.inf


def _residual_norms(a: sp.csr_matrix, basis: np.ndarray, w: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """||A b_j - w_j b_j|| of each column of the real ``basis`` B, formed
    from the sparse ``a`` ``_COLUMN_BLOCK`` columns at a time.

    For the pairs w = a +- ib first at ``upper``, on columns x, y
    (sqrt(2) Re v, sqrt(2) Im v), column j holds A x - a x + b y and column
    j + 1 holds A y - b x - a y, the real and imaginary parts of
    sqrt(2) (A v - w v), in real products only.
    """
    n = basis.shape[1]
    norms = np.empty(n)
    for lo in range(0, n, _COLUMN_BLOCK):
        hi = min(lo + _COLUMN_BLOCK, n)
        cols = basis[:, lo:hi]
        r = a @ cols
        r -= cols * w.real[lo:hi]
        first = upper[(upper >= lo) & (upper < hi)]
        r[:, first - lo] += basis[:, first + 1] * w.imag[first]
        second = upper[(upper + 1 >= lo) & (upper + 1 < hi)]
        r[:, second + 1 - lo] -= basis[:, second] * w.imag[second]
        norms[lo:hi] = np.linalg.norm(r, axis=0)
    return norms


def _dgeev(a: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and C-ordered real eigenbasis B (see
    ``EigenDecomposition``) of the float64 ``a``, from LAPACK ``dgeev`` with
    its optimal workspace, which overwrites the one private Fortran-ordered
    dense copy of ``a``.  B is ``dgeev``'s VR with each pair's two columns
    scaled by sqrt(2); the eigenvalues are real (float64) when none is off
    the real axis, as NumPy returns them."""
    n = a.shape[0]
    dense = a.toarray(order="F")
    lwork, _ = lapack.dgeev_lwork(n, compute_vl=0, compute_vr=1)
    wr, wi, _, vr, info = lapack.dgeev(dense, compute_vl=0, compute_vr=1, lwork=int(lwork), overwrite_a=True)
    del dense  # overwritten with the Schur form
    if info != 0:
        raise NumericalAccuracyError(
            f"eigenvalue iteration did not converge for a {n}x{n} matrix (dgeev info {info})"
        )
    if not wi.any():
        return wr, np.ascontiguousarray(vr)
    upper = np.flatnonzero(wi > 0.0)
    vr[:, upper] *= np.sqrt(2.0)
    vr[:, upper + 1] *= np.sqrt(2.0)
    w = wr.astype(complex)
    w.imag = wi
    return w, np.ascontiguousarray(vr)


def eig_general(m: np.ndarray | sp.spmatrix) -> EigenDecomposition:
    """Full eigendecomposition of a general real matrix, sparse or dense.

    ``m`` is copied once to a canonical float64 CSR matrix (the caller's is
    never changed), which ``_dgeev`` decomposes in place on one dense copy.
    Postconditions: per-pair residuals ``||A v - w v|| <= EIG_RESIDUAL_TOL
    * ||A||_F * ||v||``, formed from the sparse copy a block of columns at
    a time (``_residual_norms``), so they cost its nonzeros (raises
    ``NumericalAccuracyError`` otherwise), and the condition bound of the
    real basis B from its LU inverse (``_condition_bound``), so no SVD is
    taken unless the bound fails to clear ``NEAR_DEFECTIVE_COND``.
    Refused: a matrix above ``DENSE_CAP`` (``DimensionLimitError``, before
    it is densified), a complex one (``TypeError``) and one with a
    non-finite entry (``NumericalAccuracyError``).
    """
    a = _as_square(m, "eig_general")
    n = a.shape[0]
    if n > DENSE_CAP:
        raise DimensionLimitError(
            f"matrix dimension {n} exceeds the dense cap {DENSE_CAP}"
        )
    if np.iscomplexobj(a):
        raise TypeError(f"eig_general takes a real matrix, got dtype {a.dtype}")
    a = sp.csr_matrix(a, dtype=np.float64, copy=True)
    a.sum_duplicates()  # on the copy, so that its entries are its data
    if not np.all(np.isfinite(a.data)):
        raise NumericalAccuracyError(f"a {n}x{n} matrix with non-finite entries has no eigendecomposition")
    w, basis = _dgeev(a)
    upper = np.flatnonzero(w.imag > 0.0)
    residuals = _residual_norms(a, basis, w, upper)
    norms = np.linalg.norm(basis, axis=0)
    for q in (residuals, norms):  # a pair's two columns share its norm
        q[upper] = q[upper + 1] = np.hypot(q[upper], q[upper + 1]) / np.sqrt(2.0)
    norm_a = np.linalg.norm(a.data)
    if norm_a > 0.0:
        bound = EIG_RESIDUAL_TOL * norm_a * norms
        worst = int(np.argmax(residuals - bound))
        if residuals[worst] > bound[worst]:
            raise NumericalAccuracyError(
                "eigenpair residual check failed: "
                f"||A v - w v|| = {residuals[worst]:.3e} for eigenvalue "
                f"{w[worst]:.6g} exceeds {bound[worst]:.3e}"
            )
    return EigenDecomposition(w, basis, _condition_bound(basis))


def integrate_ode(
    apply: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_grid: np.ndarray,
    jac: sp.spmatrix,
) -> np.ndarray:
    """Integrate ``y' = apply(y)`` on a sorted time grid starting at 0.

    Stiff BDF with the constant sparse generator ``jac`` as its Jacobian, at
    ``ODE_RTOL`` and ``ODE_ATOL``: Liouvillian rates span many orders of
    magnitude.  Returns one row per grid point.
    """
    from scipy.integrate import solve_ivp

    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ShapeError("t_grid must be a 1-D array of times")
    if t[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    if t.size > 1 and not np.all(np.diff(t) > 0.0):
        raise ValueError("t_grid must be strictly increasing")
    y0 = np.asarray(y0, dtype=complex)
    if t.size == 1:
        return y0[None, :].copy()
    sol = solve_ivp(
        lambda _t, y: apply(y),
        (0.0, float(t[-1])),
        y0,
        method="BDF",
        t_eval=t,
        rtol=ODE_RTOL,
        atol=ODE_ATOL,
        jac=sp.csc_matrix(jac),
    )
    if sol.status != 0 or sol.y.shape[1] != t.size:
        raise StiffnessError(
            f"BDF integration failed ({sol.message!r}); use the "
            "spectral-decomposition path"
        )
    return sol.y.T.copy()
