"""Hilbert-space operator factory for two two-level atoms and one cavity mode.

Tensor ordering is fixed once and for all as atom1 (x) atom2 (x) field; every
embedding, partial trace and state constructor in the package derives from
this convention.  Single-atom basis: |g> = (1,0), |e> = (0,1).  The dressed
single-atom basis is |+-> = (|g> +- |e>)/sqrt(2).

Operators are built on the truncated Fock space without renormalizing the
top level; truncation convergence is handled at the experiment level (see
``dynamics.check_truncation``).  They are held as sparse CSR matrices: an
operator on the full space has at most a few entries per row, and no model
forms a dense D x D matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError

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
    """A named matrix on the full tensor-product space, held as a canonical
    complex CSR matrix (sorted indices, no duplicates, no stored zeros), the
    form ``sp.csr_matrix`` gives a dense array: a dense ``matrix`` is
    converted, and ``matrix.toarray()`` is its dense copy."""

    label: str
    matrix: sp.csr_matrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", canonical(self.matrix))


def canonical(m) -> sp.csr_matrix:
    """``m`` (dense or sparse) as a canonical complex CSR matrix: ``m``
    itself when it is one already, a new matrix otherwise."""
    if isinstance(m, sp.csr_matrix) and m.dtype == complex and m.has_canonical_format and m.data.all():
        return m
    out = sp.csr_matrix(m, dtype=complex, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


def equal(x: sp.csr_matrix, y: sp.csr_matrix) -> bool:
    """Whether two canonical CSR matrices hold the same entries: their
    shapes, index arrays and values agree (values compared as numbers)."""
    return (
        x.shape == y.shape
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.indices, y.indices)
        and np.array_equal(x.data, y.data)
    )


def _entries(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and value of each nonzero entry of ``m`` (dense, or
    canonical sparse), by rows, then columns."""
    if sp.issparse(m):
        m = m.tocsr()
        return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices, m.data
    m = np.asarray(m, dtype=complex)
    row, col = np.nonzero(m)
    return row, col, m[row, col]


def _kron(a, b) -> sp.csr_matrix:
    """Kronecker product of two matrices (dense, or canonical sparse) as a
    canonical CSR matrix; each entry the one product a_ij b_kl, as
    ``sp.kron`` forms it."""
    (ra, ca, va), (rb, cb, vb), (p, q) = _entries(a), _entries(b), b.shape
    row = (ra[:, None] * p + rb).ravel()
    order = np.argsort(row, kind="stable")  # by row; within one, by a's column, then b's
    col = (ca[:, None] * q + cb).ravel()[order]
    val = (va[:, None] * vb).ravel()[order]
    ptr = np.searchsorted(row[order], np.arange(a.shape[0] * p + 1))
    return sp.csr_matrix((val, col, ptr), shape=(a.shape[0] * p, a.shape[1] * q))


def make_space(fock_cutoff: int) -> SystemSpace:
    """Full space with ``fock_cutoff`` retained Fock states (dim 4*cutoff)."""
    if not isinstance(fock_cutoff, (int, np.integer)) or fock_cutoff < 1:
        raise ValueError(f"fock_cutoff must be an integer >= 1, got {fock_cutoff!r}")
    return SystemSpace(int(fock_cutoff))


def atomic_space() -> SystemSpace:
    """The 4-dimensional two-atom space with the field traced away."""
    return SystemSpace(None)


def _atomic(op: np.ndarray, atom: int) -> np.ndarray:
    """A single-atom operator at position ``atom`` (1 or 2) of the two-atom space."""
    if atom not in (1, 2):
        raise ValueError("atom index must be 1 or 2")
    eye2 = np.eye(2, dtype=complex)
    return np.kron(op, eye2) if atom == 1 else np.kron(eye2, op)


def _field(space: SystemSpace, diagonal: np.ndarray, k: int = 0) -> sp.csr_matrix:
    """The field operator with ``diagonal`` on its k-th upper diagonal (k >= 0)."""
    c = space.fock_cutoff
    rows = np.arange(c + 1)
    return sp.csr_matrix((diagonal.astype(complex), rows[k:c], np.minimum(rows, c - k)), shape=(c, c))


def _on_space(space: SystemSpace, *atomic: np.ndarray) -> sp.csr_matrix | np.ndarray:
    """The sum of 4 x 4 two-atom operators on ``space``: each times the
    field's identity, if it has one.  The sum is formed on the 4 x 4
    factors, of the same products a_ij 1 as on the whole space; a product
    with 1 is then unchanged by another, so the entries are bitwise those
    of the sum of the Kronecker products."""
    if not space.has_field:
        return functools.reduce(np.add, atomic)
    total = functools.reduce(np.add, [a * complex(1.0) for a in atomic])
    return _kron(total, _field(space, np.ones(space.fock_cutoff)))


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
    return LabeledOperator(f"sigma_{which}^{atom}", _on_space(space, _atomic(table[which], atom)))


def annihilation(space: SystemSpace) -> LabeledOperator:
    """Cavity annihilation operator ``a``: <n-1|a|n> = sqrt(n)."""
    if not space.has_field:
        raise ShapeError("annihilation requires a space with a field factor")
    a = _field(space, np.sqrt(np.arange(1, space.fock_cutoff, dtype=float)), 1)
    return LabeledOperator("a", _kron(np.eye(4, dtype=complex), a))


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
    return LabeledOperator("S_" + which, _on_space(space, _atomic(single, 1), _atomic(single, 2)))


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


def atom_parity(space: SystemSpace) -> np.ndarray:
    """u = (-1)^(excited atoms) of each basis state, invariant under the atom swap.

    Theta(rho) = U rho* U with U = diag(u) commutes with the generators of
    the lab and displaced frames (a weak antiunitary symmetry), which state
    it; ``MasterEquation.signature`` checks the condition on H and the jumps.
    """
    atoms = np.array([1, -1, -1, 1])  # gg, ge, eg, ee
    if not space.has_field:
        return atoms
    return np.repeat(atoms, space.fock_cutoff)


def singlet_projector(space: SystemSpace) -> LabeledOperator:
    """P_S = |S><S| (x) I_F with |S> = (|ge> - |eg>)/sqrt(2).

    Every collective operator commutes with P_S (it conserves the total
    spin), so Tr[P_S rho] is conserved by any model built from them alone.
    """
    singlet = (np.kron(GROUND, EXCITED) - np.kron(EXCITED, GROUND)) / np.sqrt(2.0)
    return LabeledOperator("P_S", _on_space(space, np.outer(singlet, singlet.conj())))


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
    return LabeledOperator("J_" + which, _on_space(space, _atomic(single, 1), _atomic(single, 2)))
