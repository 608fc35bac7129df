"""Time evolution, steady states, relaxation fits and truncation checks.

Two evolution paths: adaptive ODE integration of the vectorized state, and
spectral expansion rho(t) = sum_k c_k e^{w_k t} r_k when the generator is
safely diagonalizable.  They cross-check each other; neither renormalizes
drifting traces - accuracy failures surface as errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import spectra
from .errors import (
    FitWindowError,
    KernelAmbiguityError,
    NumericalAccuracyError,
    StateValidityError,
    TruncationLimitError,
    UnsupportedRegimeError,
)
from .linalg import eig_general, integrate_ode
from .models import MasterEquation, ModelParams, Superoperator, unvec, vec, vectorize
from .operators import SystemSpace, atomic_space, make_space, singlet_projector

#: default slacks for density-matrix invariants at construction time
HERM_TOL = 1e-10
TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-8

#: invariant slack enforced along integrated trajectories
EVOLUTION_INVARIANT_TOL = 1e-6

#: condition number of the bordered steady-state matrix above which it is
#: singular to working precision, i.e. the kernel is larger than stated;
#: stated kernels measure 2.4e7 at the effective coherent model's eps = 1000
#: (it grows as eps^2), numerically singular ones above 1e16
BORDERED_COND_MAX = 1e12

#: rows of the eigenvector matrix updated at a time by ``evolve_spectral``
_ROW_BLOCK = 256

#: bound on the steady-state residuals ||L x|| and ||C mu||, relative to
#: ||L||_1 ||x||; round-off stays below 1e-16, a wrongly stated conserved
#: quantity leaves a residual of the order of the rate that breaks it
STEADY_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix on a SystemSpace (or the atomic-only space)."""

    matrix: np.ndarray
    space: SystemSpace

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        space: SystemSpace,
        herm_tol: float = HERM_TOL,
        trace_tol: float = TRACE_TOL,
        pos_tol: float = POSITIVITY_TOL,
    ) -> "DensityMatrix":
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (space.dim, space.dim):
            raise StateValidityError(
                f"state shape {m.shape} does not match space dimension {space.dim}"
            )
        herm_dev = float(np.abs(m - m.conj().T).max())
        if herm_dev > herm_tol:
            raise StateValidityError(f"Hermiticity deviation {herm_dev:.3e} > {herm_tol:.1e}")
        trace_dev = abs(np.trace(m) - 1.0)
        if trace_dev > trace_tol:
            raise StateValidityError(f"trace deviation {trace_dev:.3e} > {trace_tol:.1e}")
        min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
        if min_eig < -pos_tol:
            raise StateValidityError(f"negative eigenvalue {min_eig:.3e} < -{pos_tol:.1e}")
        return cls(m, space)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """States sampled on a time grid (times in units of 1/kappa)."""

    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    model: str = ""

    def observable(self, fn: Callable[[DensityMatrix], float]) -> np.ndarray:
        return np.array([fn(s) for s in self.states])

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class RelaxationEstimate:
    tau_fit: float
    fit_window: tuple[float, float]
    residual: float
    method: str


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------


def pure_state(vector: np.ndarray, space: SystemSpace) -> DensityMatrix:
    v = np.asarray(vector, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix.from_matrix(np.outer(v, v.conj()), space)


def basis_vector(space: SystemSpace, atom1: int, atom2: int, n: int = 0) -> np.ndarray:
    """Product basis ket |atom1 atom2 n>; atom indices 0 = ground, 1 = excited."""
    v1 = np.zeros(2, dtype=complex)
    v1[atom1] = 1.0
    v2 = np.zeros(2, dtype=complex)
    v2[atom2] = 1.0
    out = np.kron(v1, v2)
    if space.has_field:
        vf = np.zeros(space.fock_cutoff, dtype=complex)
        vf[n] = 1.0
        out = np.kron(out, vf)
    return out


def ground_state(space: SystemSpace) -> DensityMatrix:
    """Both atoms in the ground state, cavity in the vacuum (the default of
    every time-evolution scenario)."""
    return pure_state(basis_vector(space, 0, 0, 0), space)


def singlet_state() -> DensityMatrix:
    """Atomic singlet (|ge> - |eg>)/sqrt(2), the collective dark state."""
    space = atomic_space()
    return DensityMatrix.from_matrix(singlet_projector(space).matrix, space)


def bell_state() -> DensityMatrix:
    """(|gg> + |ee>)/sqrt(2) on the atomic space."""
    space = atomic_space()
    v = (basis_vector(space, 0, 0) + basis_vector(space, 1, 1)) / np.sqrt(2.0)
    return pure_state(v, space)


def maximally_mixed(space: SystemSpace) -> DensityMatrix:
    return DensityMatrix.from_matrix(
        np.eye(space.dim, dtype=complex) / space.dim, space
    )


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------


def time_grid(
    t_max: float, points: int, spacing: str = "log", t_min: float = 0.1
) -> np.ndarray:
    """Sampling grid starting at 0; log-uniform over [t_min, t_max] by default."""
    if t_max <= 0.0 or points < 2:
        raise ValueError("time grid requires t_max > 0 and points >= 2")
    if spacing == "log":
        if t_min <= 0.0 or t_min >= t_max:
            raise ValueError("log spacing requires 0 < t_min < t_max")
        body = np.logspace(np.log10(t_min), np.log10(t_max), points)
        body[-1] = t_max
        return np.concatenate(([0.0], body))
    if spacing == "linear":
        return np.linspace(0.0, t_max, points + 1)
    raise ValueError(f"unknown spacing {spacing!r}")


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def _check_sample(
    m: np.ndarray, t: float, tol: float
) -> None:
    herm = float(np.abs(m - m.conj().T).max())
    tr = abs(np.trace(m) - 1.0)
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
    if herm > tol or tr > tol or min_eig < -tol:
        raise NumericalAccuracyError(
            f"state invariants violated at t={t:.6g}: hermiticity {herm:.2e}, "
            f"trace {tr:.2e}, min eigenvalue {min_eig:.2e} (slack {tol:.0e}); "
            "tighten rtol/atol"
        )


def _as_trajectory(
    raw: np.ndarray,
    t_grid: np.ndarray,
    space: SystemSpace,
    model: str,
    validate: bool,
    invariant_tol: float,
) -> Trajectory:
    states = []
    for row, t in zip(raw, t_grid):
        m = unvec(row)
        if validate:
            _check_sample(m, t, invariant_tol)
        states.append(DensityMatrix(m, space))
    return Trajectory(np.asarray(t_grid, dtype=float), tuple(states), model)


def evolve_ode(
    sup: Superoperator,
    rho0: DensityMatrix,
    t_grid: np.ndarray,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    validate: bool = True,
    invariant_tol: float = EVOLUTION_INVARIANT_TOL,
) -> Trajectory:
    """Integrate rho' = L rho on the grid (grid must start at 0).

    The CSR generator is both the right-hand side (through ``sup.apply``)
    and the Jacobian of the stiff BDF scheme.  The right-hand side takes
    d rho_00/dt as minus the other diagonal derivatives, which the generator
    guarantees: the assembled matrix misses the trace functional by a fixed
    round-off vector (about 1e-16 of its norm per column), and BDF would
    integrate that into a trace drift growing linearly in time.  State
    invariants are checked at every sample; violations raise instead of
    being renormalized away.
    """
    d = rho0.space.dim
    others = np.arange(1, d) * (d + 1)  # positions of rho_kk, k >= 1, in vec(rho)

    def rhs(v: np.ndarray) -> np.ndarray:
        out = sup.apply(v)
        out[0] = -out[others].sum()
        return out

    raw = integrate_ode(rhs, vec(rho0.matrix), t_grid, rtol=rtol, atol=atol, jac=sup.as_sparse())
    return _as_trajectory(
        raw, t_grid, rho0.space, sup.me.label, validate, invariant_tol
    )


def evolve_spectral(
    sup: Superoperator,
    rho0: DensityMatrix,
    t_grid: np.ndarray,
    validate: bool = True,
    invariant_tol: float = EVOLUTION_INVARIANT_TOL,
) -> Trajectory:
    """Evolve through the dense eigenbasis of the generator.

    With L = V diag(w) V^-1 and the model's kernel eigenvalues set to exactly
    0 (``spectra.zero_modes``), vec(rho(t)) = vec(rho0) + V diag(expm1(w t))
    V^-1 vec(rho0): rho0 itself at t = 0, and the kernel part of rho0 never
    changes, however far the solver's kernel eigenvalues sit from 0.  The
    solver's slowest eigenvectors, kernel ones included, mix with each other
    by about 1e-16 ||L|| / gap (4e-6 at the displaced model's eps = 1000,
    cutoff 8), which their decay would leave behind in rho(t) as trace and
    Hermiticity errors.  So the kernel columns of V are replaced by
    ``stated_kernel`` K (exact to round-off, C^dag K = I), and each decaying
    mode r, which carries no conserved charge (C^dag r = 0), has its
    admixture K C^dag r removed: rho(t) tends to ``steady_state(sup, rho0)``
    and keeps the trace and the conserved values of rho0 at every t.  Refuses
    near-defective decompositions (eigenvector condition above the guard
    threshold); fall back to ``evolve_ode`` in that case.
    """
    decomp = eig_general(sup.as_dense())
    if decomp.near_defective:
        raise UnsupportedRegimeError(
            "eigendecomposition is near-defective (condition estimate "
            f"{decomp.condition_estimate:.2e}); use evolve_ode instead"
        )
    w = decomp.eigenvalues
    kernel = spectra.zero_modes(w, 1 + len(sup.me.conserved))
    w = np.where(kernel, 0.0, w)
    v = decomp.right_eigenvectors
    k = stated_kernel(sup)
    charges = np.column_stack([vec(q) for q in _charges(sup.me)])
    admixture = charges.conj().T @ v
    admixture[:, kernel] = 0.0
    for i in range(0, sup.dim, _ROW_BLOCK):  # in place: V is the largest array here
        v[i : i + _ROW_BLOCK] -= k[i : i + _ROW_BLOCK] @ admixture
    v[:, kernel] = k
    x0 = vec(rho0.matrix)
    c = np.linalg.solve(v, x0)
    t = np.asarray(t_grid, dtype=float)
    raw = x0 + (np.expm1(np.outer(t, w)) * c) @ v.T
    return _as_trajectory(raw, t, rho0.space, sup.me.label, validate, invariant_tol)


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------


def _charges(me: MasterEquation) -> list[np.ndarray]:
    """The identity (trace) and the model's stated conserved quantities."""
    return [np.eye(me.dim, dtype=complex)] + [q.matrix for q in me.conserved]


def stated_kernel(sup: Superoperator) -> np.ndarray:
    """Basis of the generator's kernel dual to the model's conserved charges.

    With C = [vec(I), vec(Q_1), ...] for the conserved quantities Q_j of
    ``me.conserved``, column j of the returned K solves the bordered system

        [[L, C], [C^dag, 0]] [x; mu] = [0; e_j]

    from one sparse LU, so L K = 0 and C^dag K = I to round-off: the
    asymptotic state of rho0 is K C^dag vec(rho0).  The charges are Hermitian
    and L commutes with the adjoint, so each column is a Hermitian matrix; the
    solve leaves an anti-Hermitian error of about 1e-16 ||L|| / gap (2.4e-6 on
    the displaced model at eps = 3000, cutoff 8), which is dropped.  A
    bordered matrix that is
    singular, exactly or to working precision, means the kernel is larger
    than the model states (``KernelAmbiguityError``); a residual ||L x|| or
    multiplier mu above round-off means a stated Q is not conserved
    (``NumericalAccuracyError``).
    """
    me = sup.me
    name = me.label or "the model"
    charges = _charges(me)
    c = sp.csc_matrix(np.column_stack([vec(q) for q in charges]))
    lv = sup.as_sparse()
    bordered = sp.bmat([[lv, c], [c.conj().T, None]], format="csc")
    rhs = np.zeros((bordered.shape[0], len(charges)), dtype=complex)
    rhs[sup.dim :] = np.eye(len(charges))
    try:
        lu = spla.splu(bordered)
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        cond = np.inf
    else:
        inv = spla.LinearOperator(
            bordered.shape,
            matvec=lu.solve,
            rmatvec=lambda v: lu.solve(v, trans="H"),
            dtype=complex,
        )
        cond = float(abs(bordered).sum(axis=0).max()) * spla.onenormest(inv)
    if not cond <= BORDERED_COND_MAX:
        raise KernelAmbiguityError(
            f"the kernel of {name} is larger than its {len(charges)} stated conserved "
            "quantities (identity included) fix: the bordered matrix is singular to "
            f"working precision (condition {cond:.1e})"
        )
    sol = lu.solve(rhs)
    mu = sol[sup.dim :]
    cube = sol[: sup.dim].reshape(me.dim, me.dim, len(charges), order="F")
    k = ((cube + cube.conj().transpose(1, 0, 2)) / 2.0).reshape(sup.dim, -1, order="F")
    scale = sup.norm_estimate() * np.linalg.norm(k, axis=0)
    resid = np.maximum(np.linalg.norm(lv @ k, axis=0), np.linalg.norm(c @ mu, axis=0))
    worst = float((resid / scale).max())
    if not worst <= STEADY_RESIDUAL_TOL:
        raise NumericalAccuracyError(
            f"steady-state residual {worst:.2e} > {STEADY_RESIDUAL_TOL:.0e} (relative to "
            f"||L||_1 ||x||); a stated conserved quantity of {name} is not conserved"
        )
    return k


def steady_state(sup: Superoperator, rho0: DensityMatrix | None = None) -> DensityMatrix:
    """The t -> infinity limit of the generator: the element of
    ``stated_kernel`` with the conserved values of ``rho0`` (trace 1 for
    Q = I).  ``rho0`` may be omitted only when nothing but the trace is
    conserved."""
    me = sup.me
    if rho0 is None and me.conserved:
        raise KernelAmbiguityError(
            f"{me.label or 'the model'} conserves "
            f"{', '.join(q.label for q in me.conserved)}; the asymptotic state "
            "depends on the initial state - pass rho0"
        )
    k = stated_kernel(sup)
    if rho0 is None:
        x = k[:, 0]
    else:
        charges = _charges(me)
        x = k @ np.array([np.vdot(q, rho0.matrix) for q in charges])
    m = unvec(x)
    return DensityMatrix.from_matrix((m + m.conj().T) / 2.0, me.space)


# ---------------------------------------------------------------------------
# relaxation fits and plateaus
# ---------------------------------------------------------------------------


def trace_norm(m: np.ndarray) -> float:
    """Tr sqrt(X^dag X) = sum of singular values."""
    return float(np.linalg.svd(m, compute_uv=False).sum())


def fit_relaxation(
    traj: Trajectory,
    rho_ss: DensityMatrix,
    min_decay: float = 0.1,
) -> RelaxationEstimate:
    """Fit tau from the exponential tail of ||rho(t) - rho_ss||.

    Requires the final distance below ``min_decay`` times the initial one.
    The fit window starts at the first sample whose distance has fallen below
    the geometric half-decay point sqrt(d_initial * d_final) - the midpoint
    of the decay on a log scale - so the window covers the final log-linear
    regime even in the presence of an intermediate plateau.
    """
    d = np.array([trace_norm(s.matrix - rho_ss.matrix) for s in traj.states])
    t = traj.times
    positive = d > 0.0
    if not positive[0] or d[0] == 0.0:
        raise FitWindowError("initial state coincides with the steady state")
    if d[-1] >= min_decay * d[0]:
        raise FitWindowError(
            f"trajectory has not decayed enough to fit: final/initial distance "
            f"= {d[-1] / d[0]:.3g} >= {min_decay}"
        )
    threshold = np.sqrt(d[0] * max(d[-1], 1e-300))
    below = np.nonzero(d <= threshold)[0]
    start = int(below[0])
    window = slice(start, len(d))
    tw = t[window]
    dw = d[window]
    good = dw > 0.0
    tw, dw = tw[good], dw[good]
    if tw.size < 3:
        raise FitWindowError("fewer than 3 usable samples in the fit window")
    slope, intercept = np.polyfit(tw, np.log(dw), 1)
    if slope >= 0.0:
        raise FitWindowError("tail distance is not decaying; cannot fit a rate")
    resid = float(np.sqrt(np.mean((np.log(dw) - (slope * tw + intercept)) ** 2)))
    return RelaxationEstimate(
        tau_fit=float(-1.0 / slope),
        fit_window=(float(tw[0]), float(tw[-1])),
        residual=resid,
        method="trajectory-fit",
    )


def detect_plateau(
    times: np.ndarray,
    values: np.ndarray,
    slope_tol: float = 0.01,
    min_decades: float = 1.0,
) -> list[tuple[float, float]]:
    """Flat windows of a log-sampled series.

    A plateau is a maximal window where |d(value)/d(log10 t)| stays below
    ``slope_tol`` times the series range and which spans at least
    ``min_decades`` decades.  Expects t > 0 samples (leading zeros are
    dropped); returns (t_start, t_end) pairs.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = t > 0.0
    t, v = t[keep], v[keep]
    if t.size < 3:
        return []
    x = np.log10(t)
    vrange = float(v.max() - v.min())
    slopes = np.diff(v) / np.diff(x)
    flat = np.abs(slopes) <= slope_tol * vrange
    windows: list[tuple[float, float]] = []
    i = 0
    while i < flat.size:
        if flat[i]:
            j = i
            while j + 1 < flat.size and flat[j + 1]:
                j += 1
            if x[j + 1] - x[i] >= min_decades:
                windows.append((float(t[i]), float(t[j + 1])))
            i = j + 1
        i += 1
    return windows


# ---------------------------------------------------------------------------
# truncation convergence
# ---------------------------------------------------------------------------


def check_truncation(
    builder: Callable[[SystemSpace, ModelParams], MasterEquation],
    params: ModelParams,
    extractor: Callable[[MasterEquation], float],
    rel_tol: float = 1e-3,
    start: int = 4,
    hard_cap: int = 512,
) -> int:
    """Double the Fock cutoff until the extracted observable stabilizes.

    Returns the first cutoff whose observable differs from the previous
    (half-size) one by less than ``rel_tol`` in relative terms.
    """
    cutoff = start
    prev = extractor(builder(make_space(cutoff), params))
    while cutoff < hard_cap:
        cutoff *= 2
        cur = extractor(builder(make_space(cutoff), params))
        denom = max(abs(cur), abs(prev), 1e-300)
        if abs(cur - prev) <= rel_tol * denom:
            return cutoff
        prev = cur
    raise TruncationLimitError(
        f"observable did not converge below relative change {rel_tol} by cutoff {hard_cap}"
    )


def converged_cutoff_for_gap(
    builder: Callable[[SystemSpace, ModelParams], MasterEquation],
    params: ModelParams,
    rel_tol: float = 1e-3,
    start: int = 4,
    hard_cap: int = 512,
    k: int = 12,
) -> tuple[int, spectra.SpectrumReport]:
    """Truncation sweep using the spectral gap as the convergence observable.

    Always uses the targeted shift-invert path (``k`` eigenvalues): the sweep
    visits sizes where full dense diagonalization would dominate the runtime
    for no benefit.  Returns the converged cutoff and the spectrum report
    solved at it, so callers need not solve that cutoff again.
    """
    reports = []

    def gap_of(me: MasterEquation) -> float:
        reports.append(spectra.analyze(vectorize(me, materialize=False), k=k))
        return reports[-1].gap

    cutoff = check_truncation(builder, params, gap_of, rel_tol, start, hard_cap)
    return cutoff, reports[-1]
