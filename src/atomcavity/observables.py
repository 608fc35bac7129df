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
from .operators import atomic_space

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


def _marginals(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reduced states of atom 1 and of atom 2 of each 4x4 atomic state
    in a stack (samples x 4 x 4), as two samples x 2 x 2 stacks."""
    m = m.reshape(-1, 2, 2, 2, 2)
    return np.trace(m, axis1=2, axis2=4), np.trace(m, axis1=1, axis2=3)


def _spectra(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues clipped at zero, eigenvectors and least eigenvalue before
    clipping of the Hermitian part of each state in a stack (... x n x n),
    in one LAPACK call."""
    w, v = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2.0)
    return np.maximum(w, 0.0), v, w[..., 0]


def _entropy(w: np.ndarray) -> np.ndarray:
    """-sum w log2 w over the last axis of clipped eigenvalues, with
    0 log 0 = 0."""
    return -(w * np.log2(np.where(w > 0.0, w, 1.0))).sum(axis=-1)


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


def mutual_information(rho_at: DensityMatrix | np.ndarray) -> float | np.ndarray:
    """I(rho_at) = S(rho_1) + S(rho_2) - S(rho_at), in bits, nonnegative, of
    one atomic state (a float) or of each of a stack of them (samples x 4 x 4
    entries, an array).

    Evaluated as the relative entropy D(rho_at || rho_1 (x) rho_2) =
    sum_ij P_ij [a_i log(a_i/b_j) - a_i + b_j], with a_i the eigenvalues of
    rho_at, b_j the products of the single-atom eigenvalues and P_ij the
    squared overlaps of their eigenvectors; every term is nonnegative.  The
    entropy difference is computed as well: below -MI_SLACK it is an invalid
    state, and a disagreement of the two beyond MI_SLACK is a numerical
    failure.  Weight of rho_at outside the support of rho_1 (x) rho_2 (where
    the relative entropy is infinite) is an invalid state beyond
    ENTROPY_CLIP_SLACK and round-off below it, and so is an eigenvalue of
    rho_at or of a marginal below -ENTROPY_CLIP_SLACK.

    A stack is evaluated in one vectorized pass - one ``eigh`` each of the
    states and of both marginals, the overlaps and the terms - and gives
    every sample the bits it would have alone.  Every check is made per
    sample, and the first sample that fails any is refused with its first
    failing check, as if the samples were taken one at a time; a stack's
    message names that sample.  Values between -MI_SLACK and 0 are round-off
    and read 0, with one warning per call that counts them.
    """
    stacked = not isinstance(rho_at, DensityMatrix)
    m = np.asarray(rho_at) if stacked else rho_at.matrix[None]
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise ShapeError(f"mutual_information expects 4x4 atomic states, not shape {m.shape}")
    n = m.shape[0]
    r1, r2 = _marginals(m)
    a, va, low = _spectra(m)
    w1, v1, low1 = _spectra(r1)
    w2, v2, low2 = _spectra(r2)
    mi = _entropy(w1) + _entropy(w2) - _entropy(a)
    b = (w1[:, :, None] * w2[:, None, :]).reshape(n, 4)
    vb = (v1[:, :, None, :, None] * v2[:, None, :, None, :]).reshape(n, 4, 4)  # v1 (x) v2
    p = np.abs(va.conj().swapaxes(1, 2) @ vb) ** 2  # P_ij = |<a_i|b_j>|^2
    inside = (b > 0.0)[:, None, :]
    outside = np.where(inside, 0.0, p * a[:, :, None]).sum(axis=(1, 2))
    a_ij, b_ij = np.broadcast_arrays(a[:, :, None], np.where(inside, b[:, None, :], 1.0))
    terms = _relative_entropy_terms(a_ij, b_ij)
    relative = np.where(inside, p * terms, 0.0).sum(axis=(1, 2)) / np.log(2.0)

    lows = np.stack([low, low1, low2])  # the state's, then each marginal's
    checks = (  # in the order a single state meets them
        (lows.min(axis=0) < -ENTROPY_CLIP_SLACK, StateValidityError,
         lambda k: "entropy of a non-positive state: min eigenvalue "
                   f"{lows[np.argmax(lows[:, k] < -ENTROPY_CLIP_SLACK), k]:.3e}"),
        (mi < -MI_SLACK, StateValidityError,
         lambda k: f"mutual information {mi[k]:.3e} below -{MI_SLACK:.0e}"),
        (outside > ENTROPY_CLIP_SLACK, StateValidityError,
         lambda k: f"weight {outside[k]:.3e} of the atomic state outside the support of "
                   "the product of its marginals"),
        (np.abs(relative - mi) > MI_SLACK, NumericalAccuracyError,
         lambda k: f"mutual information {relative[k]:.6e} as a relative entropy differs from "
                   f"S1 + S2 - S12 = {mi[k]:.6e} by more than {MI_SLACK:.0e}"),
    )
    failed = np.stack([bad for bad, _, _ in checks])
    if failed.any():
        k = int(np.flatnonzero(failed.any(axis=0))[0])
        _, error, message = checks[int(np.argmax(failed[:, k]))]
        raise error((f"sample {k}: " if stacked else "") + message(k))
    clipped = relative < 0.0
    if clipped.any():
        warnings.warn(
            f"clipping {np.count_nonzero(clipped)} slightly negative mutual information "
            f"value(s) to 0, the least {relative.min():.3e}",
            stacklevel=2,
        )
        relative = np.where(clipped, 0.0, relative)
    return relative if stacked else float(relative[0])


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
    block, exchange parity and Theta half) at a time, then one
    ``mutual_information`` call on the stack of all its atomic states."""
    return mutual_information(atomic_states(evolve_spectral(sup, rho0, t_grid)))

