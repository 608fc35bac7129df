"""Dense linear-algebra kernel.

Everything the physics layers consume: general eigendecompositions with
residual checks (real input stays real, so LAPACK runs ``dgeev`` and
returns exact conjugate pairs), refused above ``DENSE_CAP``, the package's
one dense-size limit.  ``integrate_ode``, stiff (BDF) integration of
linear ODEs, has no caller in the package, whose one evolution path is
``dynamics.evolve_spectral``; it stays only because the benchmark's tracer
(``bench/tracing.py``) binds it by name and patches the LU that SciPy's
BDF factorizes with.  SciPy's integrator is imported on its first call: it
pulls in ``scipy.optimize``, ``scipy.fft`` and ``scipy.spatial``, which no
other path needs.  All functions are pure and all returned arrays are
freshly allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

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

#: eigenvector-matrix condition number above which a decomposition is
#: treated as near-defective and spectral evolution must not be used
NEAR_DEFECTIVE_COND = 1e8

#: relative and absolute tolerances of the BDF integrator
ODE_RTOL = 1e-8
ODE_ATOL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a square real or complex matrix.

    For a real matrix the complex eigenvalues come in pairs, the one with
    positive imaginary part first and its conjugate, bit for bit, next, with
    conjugate eigenvectors.  ``basis`` is the matrix V of eigenvectors, one
    per column in the order of ``eigenvalues``, for a complex matrix, and
    its real form (``real_eigenbasis``) for a real one.
    ``condition_estimate`` is the exact 2-norm condition number of V; values
    above ``NEAR_DEFECTIVE_COND`` mark the matrix as too close to defective
    for V-based reconstruction.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    condition_estimate: float

    @property
    def near_defective(self) -> bool:
        return not np.isfinite(self.condition_estimate) or (
            self.condition_estimate > NEAR_DEFECTIVE_COND
        )


def _as_square(m: np.ndarray, who: str) -> np.ndarray:
    a = np.asarray(m)
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


def real_eigenbasis(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Real basis of the eigenvectors V (eigenvalues ``w``) of a real matrix.

    Column j is v_j for a real eigenvalue; a conjugate pair (w_j with
    Im w_j > 0, w_{j+1} = conj(w_j)) becomes sqrt(2) Re v_j, sqrt(2) Im v_j.
    The result is V times a unitary, so it has V's condition number.
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


def eig_general(m: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a general real or complex matrix.

    A real matrix is decomposed in real arithmetic (``dgeev``), and the
    residuals and the condition number are taken from the real form B of V
    (``real_eigenbasis``), with real products only: for a pair w = a +- ib
    with B columns x, y (sqrt(2) Re v, sqrt(2) Im v), A v - w v is
    (A x - a x + b y + i (A y - b x - a y)) / sqrt(2).  Postconditions:
    per-pair residuals ``||A v - w v|| <= EIG_RESIDUAL_TOL * ||A||_F *
    ||v||`` (raises ``NumericalAccuracyError`` otherwise) and a populated
    condition estimate of the eigenvector matrix.
    """
    a = _as_square(m, "eig_general")
    n = a.shape[0]
    if n > DENSE_CAP:
        raise DimensionLimitError(
            f"matrix dimension {n} exceeds the dense cap {DENSE_CAP}"
        )
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # QR iteration failure
        raise NumericalAccuracyError(
            f"eigenvalue iteration did not converge for a {n}x{n} matrix: {exc}"
        ) from exc
    if np.iscomplexobj(a):
        basis = v
        residuals = np.linalg.norm(a @ v - v * w, axis=0)
        norms = np.linalg.norm(v, axis=0)
    else:
        basis = real_eigenbasis(w, v)
        upper = np.flatnonzero(w.imag > 0.0)
        r = a @ basis
        r -= basis * w.real
        r[:, upper] += basis[:, upper + 1] * w.imag[upper]
        r[:, upper + 1] -= basis[:, upper] * w.imag[upper]
        residuals = np.linalg.norm(r, axis=0)
        norms = np.linalg.norm(basis, axis=0)
        for q in (residuals, norms):  # a pair's two columns share its norm
            q[upper] = q[upper + 1] = np.hypot(q[upper], q[upper + 1]) / np.sqrt(2.0)
    norm_a = np.linalg.norm(a)
    if norm_a > 0.0:
        bound = EIG_RESIDUAL_TOL * norm_a * norms
        worst = int(np.argmax(residuals - bound))
        if residuals[worst] > bound[worst]:
            raise NumericalAccuracyError(
                "eigenpair residual check failed: "
                f"||A v - w v|| = {residuals[worst]:.3e} for eigenvalue "
                f"{w[worst]:.6g} exceeds {bound[worst]:.3e}"
            )
    return EigenDecomposition(w, basis, condition_estimate(basis))


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
