"""Reduced states, entropies, mutual information and photon number.

Entropy is measured in bits (log base 2) throughout.  Mutual information
between the two atoms, I = S(rho_1) + S(rho_2) - S(rho_atoms), is the
correlation witness extracted from every dynamical scenario; ``mi_curve`` is
the one model -> spectral trajectory -> mutual information pipeline.
"""

from __future__ import annotations

import warnings

import numpy as np

from .dynamics import DensityMatrix, evolve_spectral
from .errors import ShapeError, StateValidityError
from .models import MasterEquation, vectorize
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


def von_neumann_entropy(rho: DensityMatrix, clip_slack: float = ENTROPY_CLIP_SLACK) -> float:
    """-Tr[rho log2 rho] in bits, with 0 log 0 = 0.

    Eigenvalues in [-clip_slack, 0) are clipped to zero; anything more
    negative raises, because it signals an invalid state rather than rounding.
    """
    w = np.linalg.eigvalsh((rho.matrix + rho.matrix.conj().T) / 2.0)
    if w.min() < -clip_slack:
        raise StateValidityError(
            f"entropy of a non-positive state: min eigenvalue {w.min():.3e}"
        )
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def mutual_information(rho_at: DensityMatrix, slack: float = MI_SLACK) -> float:
    """I(rho_at) = S(rho_1) + S(rho_2) - S(rho_at), in bits, nonnegative."""
    s1 = von_neumann_entropy(partial_trace_atom(rho_at, 1))
    s2 = von_neumann_entropy(partial_trace_atom(rho_at, 2))
    s12 = von_neumann_entropy(rho_at)
    mi = s1 + s2 - s12
    if mi < -slack:
        raise StateValidityError(f"mutual information {mi:.3e} below -{slack:.0e}")
    if mi < 0.0:
        warnings.warn(f"clipping slightly negative mutual information {mi:.3e}", stacklevel=2)
        return 0.0
    return mi


def atomic_mutual_information(rho: DensityMatrix) -> float:
    """Mutual information of the atoms, tracing the field first if present."""
    at = partial_trace_field(rho) if rho.space.has_field else rho
    return mutual_information(at)


def mi_curve(me: MasterEquation, rho0: DensityMatrix, t_grid: np.ndarray) -> np.ndarray:
    """Atomic mutual information at each time of ``t_grid``, starting from
    ``rho0``: spectral evolution of the generator, then one mutual
    information per sample."""
    return evolve_spectral(vectorize(me), rho0, t_grid).observable(atomic_mutual_information)


def photon_number(rho: DensityMatrix) -> float:
    """Mean cavity photon number Tr(rho a^dag a)."""
    space = rho.space
    if not space.has_field:
        raise ShapeError("photon_number requires a state with a field factor")
    f = space.fock_cutoff
    m = rho.matrix.reshape(2, 2, f, 2, 2, f)
    field = np.trace(np.trace(m, axis1=0, axis2=3), axis1=0, axis2=2)
    return float(np.real(np.sum(np.diag(field) * np.arange(f))))
