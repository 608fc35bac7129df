"""Hilbert-space operator factory for two two-level atoms and one cavity mode.

Tensor ordering is fixed once and for all as atom1 (x) atom2 (x) field; every
embedding, partial trace and state constructor in the package derives from
this convention.  Single-atom basis: |g> = (1,0), |e> = (0,1).  The dressed
single-atom basis is |+-> = (|g> +- |e>)/sqrt(2).

Operators are built on the truncated Fock space without renormalizing the
top level; truncation convergence is handled at the experiment level (see
``dynamics.check_truncation``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import kron

# single-atom matrices in the bare basis
GROUND = np.array([1.0, 0.0], dtype=complex)
EXCITED = np.array([0.0, 1.0], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_PLUS = SIGMA_MINUS.conj().T

# dressed single-atom projectors/ladders: |+><+| - |-><-| = sigma_x, etc.
_PLUS = (GROUND + EXCITED) / np.sqrt(2.0)
_MINUS = (GROUND - EXCITED) / np.sqrt(2.0)
DRESSED_Z = np.outer(_PLUS, _PLUS.conj()) - np.outer(_MINUS, _MINUS.conj())
DRESSED_RAISE = np.outer(_PLUS, _MINUS.conj())  # |+><-|
DRESSED_LOWER = DRESSED_RAISE.conj().T


@dataclass(frozen=True)
class SystemSpace:
    """Composition descriptor: two qubits (x) truncated Fock space.

    ``fock_cutoff`` is the number of retained Fock states (0..cutoff-1);
    ``None`` marks the atomic-only 4-dimensional space used by the effective
    models.
    """

    fock_cutoff: int | None

    @property
    def has_field(self) -> bool:
        return self.fock_cutoff is not None

    @property
    def dims(self) -> tuple[int, ...]:
        if self.fock_cutoff is None:
            return (2, 2)
        return (2, 2, self.fock_cutoff)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))


@dataclass(frozen=True)
class LabeledOperator:
    """A named matrix on the full tensor-product space."""

    label: str
    matrix: np.ndarray

    @property
    def dag(self) -> "LabeledOperator":
        return LabeledOperator(self.label + "^dag", self.matrix.conj().T)


def make_space(fock_cutoff: int) -> SystemSpace:
    """Full space with ``fock_cutoff`` retained Fock states (dim 4*cutoff)."""
    if not isinstance(fock_cutoff, (int, np.integer)) or fock_cutoff < 1:
        raise ValueError(f"fock_cutoff must be an integer >= 1, got {fock_cutoff!r}")
    return SystemSpace(int(fock_cutoff))


def atomic_space() -> SystemSpace:
    """The 4-dimensional two-atom space with the field traced away."""
    return SystemSpace(None)


def _embed_atom(space: SystemSpace, op: np.ndarray, atom: int) -> np.ndarray:
    """Embed a single-atom operator at position ``atom`` (1 or 2)."""
    if atom not in (1, 2):
        raise ValueError("atom index must be 1 or 2")
    eye2 = np.eye(2, dtype=complex)
    atomic = kron(op, eye2) if atom == 1 else kron(eye2, op)
    if not space.has_field:
        return atomic
    return kron(atomic, np.eye(space.fock_cutoff, dtype=complex))


def single_atom(space: SystemSpace, which: str, atom: int) -> LabeledOperator:
    """Embedded Pauli/ladder operator for one atom.

    ``which`` is one of ``x, y, z, plus, minus``.
    """
    table = {
        "x": SIGMA_X,
        "y": SIGMA_Y,
        "z": SIGMA_Z,
        "plus": SIGMA_PLUS,
        "minus": SIGMA_MINUS,
    }
    if which not in table:
        raise ValueError(f"unknown single-atom operator {which!r}")
    return LabeledOperator(f"sigma_{which}^{atom}", _embed_atom(space, table[which], atom))


def annihilation(space: SystemSpace) -> LabeledOperator:
    """Cavity annihilation operator ``a``: <n-1|a|n> = sqrt(n)."""
    if not space.has_field:
        raise ShapeError("annihilation requires a space with a field factor")
    cutoff = space.fock_cutoff
    a = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1).astype(complex)
    return LabeledOperator("a", kron(np.eye(4, dtype=complex), a))


def creation(space: SystemSpace) -> LabeledOperator:
    op = annihilation(space)
    return LabeledOperator("a^dag", op.matrix.conj().T)


def collective_spin(space: SystemSpace, which: str) -> LabeledOperator:
    """Bare-basis collective operator: S_+- = sum_j sigma_+-^j, S_x = S_+ + S_-."""
    if which == "x":
        sp_ = collective_spin(space, "plus").matrix
        return LabeledOperator("S_x", sp_ + sp_.conj().T)
    if which not in ("plus", "minus"):
        raise ValueError(f"unknown collective spin component {which!r}")
    single = SIGMA_PLUS if which == "plus" else SIGMA_MINUS
    mat = _embed_atom(space, single, 1) + _embed_atom(space, single, 2)
    return LabeledOperator("S_" + which, mat)


def excitation_number(space: SystemSpace) -> np.ndarray:
    """N = atom1 + atom2 + n of each basis state (an excited atom counts 1).

    Models whose Hamiltonian and jumps each change N by a fixed amount on
    ket and bra alike conserve d = N_ket - N_bra (a weak U(1) symmetry).
    """
    atoms = np.add.outer(np.arange(2), np.arange(2)).ravel()  # gg, ge, eg, ee
    if not space.has_field:
        return atoms
    return np.add.outer(atoms, np.arange(space.fock_cutoff)).ravel()


def atom_swap(space: SystemSpace) -> np.ndarray:
    """The basis permutation that exchanges the atoms, (a1, a2, n) -> (a2, a1, n):
    entry k is the index of basis state k with its atoms swapped.

    Collective operators commute with it, and so do per-atom channels at
    equal rates; a model built from those alone is symmetric under the swap
    (a weak symmetry of its generator).
    """
    atoms = np.array([0, 2, 1, 3])  # gg, ge, eg, ee -> gg, eg, ge, ee
    if not space.has_field:
        return atoms
    f = space.fock_cutoff
    return np.add.outer(atoms * f, np.arange(f)).ravel()


def singlet_projector(space: SystemSpace) -> LabeledOperator:
    """P_S = |S><S| (x) I_F with |S> = (|ge> - |eg>)/sqrt(2).

    Every collective operator commutes with P_S (it conserves the total
    spin), so Tr[P_S rho] is conserved by any model built from them alone.
    """
    singlet = (np.kron(GROUND, EXCITED) - np.kron(EXCITED, GROUND)) / np.sqrt(2.0)
    mat = np.outer(singlet, singlet.conj())
    if space.has_field:
        mat = kron(mat, np.eye(space.fock_cutoff, dtype=complex))
    return LabeledOperator("P_S", mat)


def dressed_spin(space: SystemSpace, which: str) -> LabeledOperator:
    """Collective operator in the dressed (sigma_x eigen) basis.

    ``J_z = sum_j(|+_j><+_j| - |-_j><-_j|)`` coincides with ``S_x`` as a
    matrix; ``J_+ = J_-^dag = sum_j |+_j><-_j|``; ``J_x = J_+ + J_-``.
    """
    if which == "x":
        jp = dressed_spin(space, "plus").matrix
        return LabeledOperator("J_x", jp + jp.conj().T)
    table = {"z": DRESSED_Z, "plus": DRESSED_RAISE, "minus": DRESSED_LOWER}
    if which not in table:
        raise ValueError(f"unknown dressed spin component {which!r}")
    single = table[which]
    mat = _embed_atom(space, single, 1) + _embed_atom(space, single, 2)
    return LabeledOperator("J_" + which, mat)
