"""Reduced states, entropies and mutual information.

Entropy is measured in bits (log base 2) throughout.  Mutual information
between the two atoms, I = S(rho_1) + S(rho_2) - S(rho_atoms), is the
correlation witness extracted from every dynamical scenario; it is evaluated
as the relative entropy D(rho_atoms || rho_1 (x) rho_2), a sum of
nonnegative terms, so round-off cannot make it negative.  ``mi_curve`` is
the one model -> spectral trajectory -> mutual information pipeline.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.special import xlogy

from .dynamics import DensityMatrix, Trajectory, evolve_spectral
from .errors import NumericalAccuracyError, ShapeError, StateValidityError
from .models import Superoperator
from .operators import SystemSpace, atomic_space

#: eigenvalues this far below zero are clipped; anything worse is an error
ENTROPY_CLIP_SLACK = 1e-8

#: tolerated numerical negativity of the mutual information
MI_SLACK = 1e-9


def partial_trace_field(rho: DensityMatrix) -> DensityMatrix:
    """Trace out the Fock factor (ordering atom1 (x) atom2 (x) field)."""
    space = rho.space
    if not space.has_field:
        warnings.warn("state has no field factor; returning it unchanged", stacklevel=2)
        return rho
    f = space.fock_cutoff
    m = rho.matrix.reshape(2, 2, f, 2, 2, f)
    reduced = np.trace(m, axis1=2, axis2=5).reshape(4, 4)
    return DensityMatrix(reduced, atomic_space())


def partial_trace_atom(rho_at: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state of one atom (keep = 1 or 2) from a 4x4 atomic state."""
    if rho_at.matrix.shape != (4, 4):
        raise ShapeError("partial_trace_atom expects a 4x4 atomic state")
    if keep not in (1, 2):
        raise ValueError("keep must be 1 or 2")
    m = rho_at.matrix.reshape(2, 2, 2, 2)
    if keep == 1:
        reduced = np.trace(m, axis1=1, axis2=3)
    else:
        reduced = np.trace(m, axis1=0, axis2=2)
    return DensityMatrix(reduced, SystemSpace(None))


def _clipped_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a state's Hermitian part, eigenvalues
    in [-ENTROPY_CLIP_SLACK, 0) clipped to zero; anything more negative
    raises, because it signals an invalid state rather than rounding."""
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    if w.min() < -ENTROPY_CLIP_SLACK:
        raise StateValidityError(
            f"entropy of a non-positive state: min eigenvalue {w.min():.3e}"
        )
    return np.maximum(w, 0.0), v


def _entropy(w: np.ndarray) -> float:
    """-sum w log2 w over clipped eigenvalues, with 0 log 0 = 0."""
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


#: below this |u| the term (1 + u) log(1 + u) - u is summed as its series
_SERIES_BELOW = 0.05
#: series coefficients (-1)^k / (k (k - 1)), k = 2..15, highest order first;
#: the first omitted term is below 1e-21 of the leading one at |u| = 0.05
_SERIES = np.array([(-1.0) ** k / (k * (k - 1)) for k in range(15, 1, -1)])


def _relative_entropy_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a log(a/b) - a + b in nats, elementwise for a >= 0 and b > 0 of one
    shape: the nonnegative terms of a relative entropy.  Taken as
    a log a - a log b, which stays finite for a subnormal b; near a = b,
    where that cancels, as b f(u) with u = (a - b)/b, summed as the series
    f(u) = u^2/2 (1 - u/3 + ...)."""
    out = xlogy(a, a) - xlogy(a, b) - a + b
    near = np.abs(a - b) < _SERIES_BELOW * b
    u = (a[near] - b[near]) / b[near]
    out[near] = b[near] * u**2 * np.polyval(_SERIES, u)
    return out


def mutual_information(rho_at: DensityMatrix) -> float:
    """I(rho_at) = S(rho_1) + S(rho_2) - S(rho_at), in bits, nonnegative.

    Evaluated as the relative entropy D(rho_at || rho_1 (x) rho_2) =
    sum_ij P_ij [a_i log(a_i/b_j) - a_i + b_j], with a_i the eigenvalues of
    rho_at, b_j the products of the single-atom eigenvalues and P_ij the
    squared overlaps of their eigenvectors; every term is nonnegative.  The
    entropy difference is computed as well: below -MI_SLACK it is an invalid
    state, and a disagreement of the two beyond MI_SLACK is a numerical
    failure.  Weight of rho_at outside the support of rho_1 (x) rho_2 (where
    the relative entropy is infinite) is an invalid state beyond
    ENTROPY_CLIP_SLACK and round-off below it.
    """
    a, va = _clipped_eigh(rho_at.matrix)
    w1, v1 = _clipped_eigh(partial_trace_atom(rho_at, 1).matrix)
    w2, v2 = _clipped_eigh(partial_trace_atom(rho_at, 2).matrix)
    mi = _entropy(w1) + _entropy(w2) - _entropy(a)
    if mi < -MI_SLACK:
        raise StateValidityError(f"mutual information {mi:.3e} below -{MI_SLACK:.0e}")
    b = np.outer(w1, w2).ravel()
    vb = (v1[:, None, :, None] * v2[None, :, None, :]).reshape(4, 4)  # v1 (x) v2
    p = np.abs(va.conj().T @ vb) ** 2  # P_ij = |<a_i|b_j>|^2
    weight = p * a[:, None]
    outside = float(weight[:, b == 0.0].sum())
    if outside > ENTROPY_CLIP_SLACK:
        raise StateValidityError(
            f"weight {outside:.3e} of the atomic state outside the support of "
            "the product of its marginals"
        )
    inside = b > 0.0
    a_ij, b_ij = np.broadcast_arrays(a[:, None], b[None, inside])
    terms = _relative_entropy_terms(a_ij, b_ij)
    relative = float((p[:, inside] * terms).sum()) / np.log(2.0)
    if abs(relative - mi) > MI_SLACK:
        raise NumericalAccuracyError(
            f"mutual information {relative:.6e} as a relative entropy differs from "
            f"S1 + S2 - S12 = {mi:.6e} by more than {MI_SLACK:.0e}"
        )
    if relative < 0.0:
        warnings.warn(f"clipping slightly negative mutual information {relative:.3e}", stacklevel=2)
        return 0.0
    return relative


def atomic_mutual_information(rho: DensityMatrix) -> float:
    """Mutual information of the atoms, tracing the field first if present."""
    at = partial_trace_field(rho) if rho.space.has_field else rho
    return mutual_information(at)


def atomic_states(traj: Trajectory) -> np.ndarray:
    """The 4 x 4 atomic state of every sample of ``traj`` (samples x 4 x 4),
    the field traced out by one sparse map R from the trajectory's kept
    entries, built once: R sums rho_(a n)(b n) over the Fock number n in
    ascending order, as ``partial_trace_field`` does."""
    space = traj.space
    d, f = space.dim, space.fock_cutoff if space.has_field else 1
    i, j = traj.support % d, traj.support // d
    traced = np.flatnonzero(i % f == j % f)  # the same Fock number on both sides
    r = sp.csr_matrix(
        (np.ones(traced.size), (4 * (i[traced] // f) + j[traced] // f, traced)),
        shape=(16, traj.support.size),
    )
    return (r @ traj.entries.T).T.reshape(-1, 4, 4)


def mi_curve(sup: Superoperator, rho0: DensityMatrix, t_grid: np.ndarray) -> np.ndarray:
    """Atomic mutual information at each time of ``t_grid``, starting from
    ``rho0``: spectral evolution of the generator, one sector (excitation
    block, exchange parity and Theta half) at a time, then one mutual information per
    sample of its atomic states."""
    at = atomic_space()
    states = atomic_states(evolve_spectral(sup, rho0, t_grid))
    return np.array([mutual_information(DensityMatrix(m, at)) for m in states])

