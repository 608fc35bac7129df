"""Master equations for the driven-dissipative two-atom/cavity system.

Dissipator convention (fixed, no configuration flag):

    D[O] rho = 2 O rho O^dag - O^dag O rho - rho O^dag O

i.e. the factor-2 form without a 1/2 prefactor.  All analytic gap and
eigenvalue results in this package hold only under this convention; under it
a bare cavity amplitude decays at kappa and the photon number at 2*kappa.

Vectorization is column-stacking: vec(rho) stacks columns, so
vec(A rho B) = (B^T kron A) vec(rho) and the generator reads

    L = -i (I kron H - H^T kron I)
        + sum_k r_k (2 conj(O_k) kron O_k - I kron O_k^dag O_k
                     - (O_k^dag O_k)^T kron I)

assembled as a CSR matrix from the model's sparse operators: whole for a
solve that reads all of G, or only on the rows and columns of the vec(rho)
positions that a solve on a few sectors reads, indexed by the positions
those reach, with each entry the same sum of the same products.

Every builder is symmetric under exchanging the two atoms (collective
operators, per-atom channels at equal rates): L commutes with rho ->
P rho P, P the swap (a weak symmetry).  Each builder states the swap
(``MasterEquation.swap``), and the generator then never mixes the parts of
even and odd exchange parity.  Models without a drive also conserve
d = N_ket - N_bra, with N = atom1 + atom2 + n the excitation number (a weak
U(1) symmetry; atomic decay keeps it too, since sigma_- rho sigma_+ lowers
N on both sides).  Such a builder states N of each basis state
(``MasterEquation.excitations``), and the generator never mixes the
elements rho_ij of different |N_i - N_j|.  A sector is one |d| (all of
vec(rho) when no N is stated) intersected with one exchange parity and, when
the model states the signature below, one half of Theta.  These
statements are conditions on H and the jumps (Buca & Prosen, NJP 14,
073007 (2012)), checked on those operators' nonzero entries when the model
is made, and the sectors are index bookkeeping on the statements alone,
their sizes in closed form.  The same statements check on its entries that
each stated charge lies in the first sector, with the kernel.

Every builder without cross terms also states a weak antiunitary symmetry
Theta(rho) = U rho* U, U = diag(u) with one sign u_i = +-1 per basis state
(Buca & Prosen, NJP 14, 073007 (2012); Albert & Jiang, PRA 89, 022118
(2014)): L commutes with it when u_i u_j conj(H_ij) = -H_ij and each jump
has one sign s with u_i u_j conj(O_ij) = s O_ij.  ``build_full`` and
``build_coherent_displaced`` state u = (-1)^(excited atoms), the effective
models u = +1 (H = 0 and real jumps: Theta is complex conjugation), each
checked on the operators' nonzero entries like the other statements
(``MasterEquation.signature``).  In the coordinates x below Theta is
diagonal, +1 on rho_ii, u_i u_j on Re rho_ij and -u_i u_j on Im rho_ij, so
it splits each sector in two with no change of basis.

The thermal model without a drive (``build_full`` at eps = 0, n_th > 0)
also obeys quantum detailed balance with respect to sigma ~ x^N,
x = n_th / (n_th + 1) (Kossakowski, Frigerio, Gorini & Verri, CMP 57, 97
(1977)): H commutes with N, every jump is an N-eigenoperator
([N, O] = -+O, truncated operators included), and each lowering jump O at
rate r has its partner O^dag at rate x r.  The model states x
(``MasterEquation.balance``), which is checked on those terms; in the KMS
inner product of sigma the dissipative part of L is then self-adjoint and
negative semidefinite, which bounds the rates of every sector from below
(``spectra.rate_bounds``).  At n_th = 0 sigma is not faithful, and the
driven, displaced and effective models state no weight.

Every solve reads one real generator G = (F T) L B, ordered sector by
sector, on the range of sectors it needs: a sector is a ``slice`` of G
(``Superoperator.generator`` and ``sectors``).  L maps Hermitian matrices
to Hermitian matrices, so in the coordinates

    x = [rho_ii; Re rho_ij; Im rho_ij  (i < j)]

of a D x D matrix it is T L T^-1 with real entries; a column of the real
basis E of x is a unit vector or a swapped pair of them (both of one
Theta, since the stated u is swap-invariant), and the map F T (vec(rho) ->
y) of a range of sectors (``HermitianSectors.maps``) is composed from index
bookkeeping alone; B = T^-1 E (y -> vec(rho)) is its conjugate transpose
with each entry divided by its modulus.
Their entries are +-1, +-i and +-1/2^k, so y is real exactly for a
Hermitian rho and every matrix read back from real y is Hermitian exactly.
G drops round-off that links two sectors, refusing more.

Rates and times are expressed in units of kappa, which is pinned to 1.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .errors import DimensionLimitError, NumericalAccuracyError, ShapeError, UnsupportedRegimeError
from .linalg import DENSE_CAP
from .operators import (
    LabeledOperator,
    SystemSpace,
    annihilation,
    atom_parity,
    atom_swap,
    atomic_space,
    canonical,
    collective_spin,
    creation,
    dressed_spin,
    equal,
    excitation_number,
    single_atom,
    singlet_projector,
)

#: largest imaginary part of the dense generator in Hermitian coordinates,
#: relative to ||L||_1; measured exactly 0.0 on every builder, so anything
#: above round-off means L does not preserve Hermiticity
DENSE_IMAG_TOL = 1e-14

#: largest entry of G that links two sectors, relative to ||L||_1; none at
#: gamma = 0, and at gamma = 1e-3 (the two atoms' channels summed in either
#: order) the displaced model's reach 1.5e-17 (8 at cutoff 8) and 2.8e-17
#: (24 at cutoff 16), so anything above round-off means L was assembled wrong
SECTOR_LEAK_TOL = 1e-14

#: rows of G formed per product: F T L of a block stays under 3 MB at any cutoff
GENERATOR_ROW_BLOCK = 2**12

#: coordinates per step of ``HermitianSectors.maps``: its temporaries stay under 2 MB
MAP_BLOCK = 2**12

#: largest |r_+ - x r_-| of a jump pair under a stated detailed-balance weight
#: x, relative to the lowering rate r_-; ``build_full``'s pairs miss by a few
#: ulps, so anything above round-off means the stated weight is wrong
BALANCE_TOL = 1e-14


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters, all rates in units of kappa (pinned to 1).

    g0: atom-field coupling; eps: coherent drive strength; n_th: mean thermal
    photon number of the bath; gamma: atomic decay rate.
    """

    g0: float
    eps: float = 0.0
    n_th: float = 0.0
    gamma: float = 0.0
    kappa: float = 1.0

    def __post_init__(self):
        if self.kappa != 1.0:
            raise ValueError("kappa is the unit of rate and must equal 1")
        for name in ("eps", "n_th", "gamma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def omega(self) -> float:
        """Dressed-atom splitting Omega = g0*eps/kappa."""
        return self.g0 * self.eps / self.kappa

    @property
    def gamma_eps(self) -> float:
        """Drive-side effective rate kappa*(kappa/4 eps)^2."""
        if self.eps == 0.0:
            raise UnsupportedRegimeError("gamma_eps requires eps > 0")
        return self.kappa * (self.kappa / (4.0 * self.eps)) ** 2

    @property
    def gamma_g0(self) -> float:
        """Coupling-side effective rate kappa*(g0/2 kappa)^2."""
        return self.kappa * (self.g0 / (2.0 * self.kappa)) ** 2

    @property
    def gamma_collective(self) -> float:
        """Collective-emission rate kappa*(g0/kappa)^2 of the thermal effective model."""
        return self.kappa * (self.g0 / self.kappa) ** 2


@dataclass(frozen=True)
class CrossTerm:
    """Non-Lindblad bilinear term  w * (2 A rho B^dag - B^dag A rho - rho B^dag A).

    Each such term annihilates the trace functional on its own.  Hermiticity
    preservation requires the list to be closed under (A, B, w) -> (B, A,
    conj(w)); the builders construct closed pairs.  A and B are held as
    canonical CSR matrices, as ``LabeledOperator.matrix`` is.
    """

    left: sp.csr_matrix
    right: sp.csr_matrix
    weight: complex

    def __post_init__(self):
        object.__setattr__(self, "left", canonical(self.left))
        object.__setattr__(self, "right", canonical(self.right))


@dataclass(frozen=True)
class MasterEquation:
    """Hamiltonian plus weighted jump list (and optional cross terms).

    ``conserved`` lists the operators Q, other than the identity, for which
    Tr[Q rho] is constant in time (L^dag vec(Q) = 0).  It is the model's
    statement of its kernel: the stationary states form a space of dimension
    1 + len(conserved), and the steady state reached from rho0 is the one
    with the same conserved values.  Builders whose operators are all
    collective state the singlet projector (atom exchange is a strong
    symmetry); single-atom decay breaks it and leaves the tuple empty.

    ``excitations`` states the excitation number N of each basis state when
    the model conserves d = N_ket - N_bra, and is None when it states no
    such symmetry (any drive breaks it).  ``swap`` states a basis
    permutation P (an involution; ``operators.atom_swap``) when L commutes
    with rho -> P rho P, and is None when it states none.  ``balance``
    states x in (0, 1) when L obeys detailed balance with respect to
    sigma ~ x^N, N the stated excitation numbers.  ``signature`` states u,
    one sign +-1 per basis state and swap-invariant, when L commutes with
    Theta(rho) = U rho* U, U = diag(u), and is None when it states none (a
    model with cross terms states none).  Each statement is checked
    here, once, on the nonzero entries of the sparse operators it is about
    (``ValueError`` otherwise), with no D x D array formed, and so is each
    charge's place in the first sector, where the kernel lies: Q commutes
    with the stated N, P Q P = Q and U Q* U = Q.
    """

    hamiltonian: LabeledOperator
    dissipators: tuple[tuple[LabeledOperator, float], ...]
    space: SystemSpace
    cross_terms: tuple[CrossTerm, ...] = ()
    label: str = ""
    conserved: tuple[LabeledOperator, ...] = ()
    excitations: np.ndarray | None = None
    swap: np.ndarray | None = None
    balance: float | None = None
    signature: np.ndarray | None = None

    def __post_init__(self):
        dim = self.space.dim
        if self.hamiltonian.matrix.shape != (dim, dim):
            raise ShapeError("hamiltonian dimension does not match the space")
        for op, rate in self.dissipators:
            if op.matrix.shape != (dim, dim):
                raise ShapeError(f"jump operator {op.label} does not match the space")
            if rate < 0.0:
                raise ValueError(f"negative dissipator rate for {op.label}")
        for ct in self.cross_terms:
            if ct.left.shape != (dim, dim) or ct.right.shape != (dim, dim):
                raise ShapeError("cross-term operator does not match the space")
        for q in self.conserved:
            if q.matrix.shape != (dim, dim):
                raise ShapeError(f"conserved operator {q.label} does not match the space")
        if self.excitations is not None and np.shape(self.excitations) != (dim,):
            raise ShapeError("excitation numbers do not match the space")
        jumps = None if self.excitations is None else self._excitation_shifts()
        if self.swap is not None:
            p = np.asarray(self.swap)
            if p.shape != (dim,) or not np.array_equal(np.sort(p), np.arange(dim)):
                raise ShapeError("the stated swap is not a permutation of the basis")
            if not np.array_equal(p[p], np.arange(dim)):
                raise ValueError("the stated swap is not an involution")
            if self.excitations is not None and not np.array_equal(self.excitations[p], self.excitations):
                raise ValueError("the stated swap changes the stated excitation numbers")
            self._check_swap(p)
        if self.signature is not None:
            self._check_signature()
        if self.balance is not None:
            self._check_balance(jumps)

    def _excitation_shifts(self) -> list[tuple[LabeledOperator, float, int]]:
        """Refuse stated excitation numbers N unless H and each charge commute
        with N and each nonzero jump, and a cross term's two operators
        together, shift N by one amount s ([N, O] = s O), which keeps d;
        returns each such (O, rate, s).  Read on the operators' nonzero
        entries O_ij, each shifting N by N_i - N_j."""
        name, n = self.label or "the model", np.asarray(self.excitations)

        def steps(o: sp.csr_matrix) -> np.ndarray:
            return n[_rows(o)] - n[o.indices]

        if np.any(steps(self.hamiltonian.matrix)):
            raise ValueError(f"the Hamiltonian of {name} does not commute with N")
        for q in self.conserved:
            if np.any(steps(q.matrix)):
                raise ValueError(f"the charge {q.label} of {name} does not commute with N")

        def shift(what: str, *ops: sp.csr_matrix) -> int | None:
            s = np.unique(np.concatenate([steps(o) for o in ops]))
            if s.size > 1:
                raise ValueError(f"{what} of {name} is not an N-eigenoperator (one s for all its operators)")
            return int(s[0]) if s.size else None

        for k, ct in enumerate(self.cross_terms):
            shift(f"cross term {k}", ct.left, ct.right)
        shifts = [(op, rate, shift(f"jump {op.label}", op.matrix)) for op, rate in self.dissipators]
        return [jump for jump in shifts if jump[2] is not None]  # a zero jump adds nothing to L

    def _check_swap(self, p: np.ndarray) -> None:
        """Refuse a stated swap P unless P H P = H, P Q P = Q for each charge
        and O -> P O P permutes the jumps and the cross terms at equal rates
        and weights, all exactly: a permutation moves entries without
        arithmetic (O_ij to (P O P)_kl at p(k) = i, p(l) = j), compared as
        sparse matrices."""
        name, back = self.label or "the model", np.argsort(p)

        def image(o: sp.csr_matrix) -> sp.csr_matrix:
            row, col = back[_rows(o)], back[o.indices]
            order = np.lexsort((col, row))
            ptr = np.searchsorted(row[order], np.arange(o.shape[0] + 1))
            return sp.csr_matrix((o.data[order], col[order], ptr), shape=o.shape)

        jumps = [(f"jump {op.label}", (op.matrix,), rate) for op, rate in self.dissipators]
        cross = [(f"cross term {k}", (c.left, c.right), c.weight) for k, c in enumerate(self.cross_terms)]
        for terms in ([("the Hamiltonian", (self.hamiltonian.matrix,), 0.0)], jumps, cross):
            for what, ops, scale in list(terms):  # each term's image takes one term of the list
                moved = [image(o) for o in ops]
                k = next((k for k, (_, o, s) in enumerate(terms)
                          if s == scale and all(map(equal, moved, o))), None)
                if k is None:
                    raise ValueError(f"{what} of {name} breaks its stated swap: P O P at its rate is no term")
                terms.pop(k)
        for q in self.conserved:
            if not equal(image(q.matrix), q.matrix):
                raise ValueError(f"the charge {q.label} of {name} breaks its stated swap: P Q P is not Q")

    def _check_signature(self) -> None:
        """Refuse a stated signature u unless it is a swap-invariant sign per
        basis state, the model has no cross terms, u_i u_j conj(H_ij) = -H_ij,
        u_i u_j conj(Q_ij) = Q_ij for each charge and each jump has one sign s
        with u_i u_j conj(O_ij) = s O_ij, all exactly on the operators'
        nonzero entries: U O* U moves no entry and changes only signs."""
        name, u = self.label or "the model", np.asarray(self.signature)
        if u.shape != (self.dim,):
            raise ShapeError("the stated signature does not match the space")
        if not np.all(np.abs(u) == 1):
            raise ValueError(f"the stated signature of {name} is not one sign +-1 per basis state")
        if self.swap is not None and not np.array_equal(u[self.swap], u):
            raise ValueError(f"the stated swap changes the stated signature of {name}")
        if self.cross_terms:
            raise ValueError(f"a signature needs a model without cross terms ({name})")

        def image(o: sp.csr_matrix) -> np.ndarray:  # the entries of U O* U, at those of O
            return u[_rows(o)] * u[o.indices] * o.data.conj()

        h = self.hamiltonian.matrix
        if not np.array_equal(image(h), -h.data):
            raise ValueError(f"the Hamiltonian of {name} breaks its stated signature: U H* U is not -H")
        for q in self.conserved:
            if not np.array_equal(image(q.matrix), q.matrix.data):
                raise ValueError(f"the charge {q.label} of {name} breaks its stated signature: U Q* U is not Q")
        for op, _ in self.dissipators:
            o = op.matrix
            if not any(np.array_equal(image(o), s * o.data) for s in (1, -1)):
                raise ValueError(f"jump {op.label} of {name} breaks its stated signature: U O* U is not +-O")

    def _check_balance(self, jumps: list[tuple[LabeledOperator, float, int]] | None) -> None:
        """Refuse a stated weight x unless the nonzero ``jumps`` pair as (O, r), (O^dag, x r)."""
        x, name = self.balance, self.label or "the model"
        if not 0.0 < x < 1.0:
            raise ValueError(f"the detailed-balance weight of {name} must lie in (0, 1), got {x!r}")
        if jumps is None or self.cross_terms:
            raise ValueError(
                f"a detailed-balance weight needs stated excitation numbers and no cross terms ({name})"
            )
        lowering, raising = [], []
        for op, rate, s in jumps:
            if s not in (-1, 1):
                raise ValueError(f"jump {op.label} of {name} is not an N-eigenoperator with [N, O] = -+O")
            (lowering if s < 0 else raising).append((op, rate))
        for op, rate in lowering:
            adj = canonical(op.matrix.conj().T)
            match = [i for i, (q, _) in enumerate(raising) if equal(q.matrix, adj)]
            if not match:
                raise ValueError(f"jump {op.label} of {name} has no partner {op.label}^dag")
            partner, up = raising.pop(match[0])
            if abs(up - x * rate) > BALANCE_TOL * rate:
                raise ValueError(
                    f"the rates of {op.label} ({rate!r}) and {partner.label} ({up!r}) of {name} "
                    f"are not in the ratio 1/x = {1.0 / x!r}"
                )
        if raising:
            raise ValueError(f"jump {raising[0][0].label} of {name} has no lowering partner")

    @property
    def dim(self) -> int:
        return self.space.dim


def _rows(o: sp.csr_matrix) -> np.ndarray:
    """The row of each stored entry of a CSR matrix."""
    return np.repeat(np.arange(o.shape[0]), np.diff(o.indptr))


class Superoperator:
    """Liouvillian acting on column-stacked density matrices.

    Every solve forms the real generator G = (F T) L B on the sectors it
    reads (``generator``, ``sectors``, ``maps``) from L's rows and columns at
    their positions alone, in a matrix indexed by the positions those reach,
    and the whole L only for all of G; ``as_dense`` is its dense copy on one
    sector or on all, refused above ``linalg.DENSE_CAP``.  No solve holds L.
    The whole complex CSR L is assembled and cached only when asked for
    (``as_sparse``), by ``apply`` and ``norm_estimate``.  The sectors' index
    bookkeeping (their sizes in closed form; no coordinate is listed until a
    range's maps are composed) and ``dynamics.stated_kernel``'s solve are
    kept.  A solve's cost so follows the sectors it reads: nothing of size
    D^2 is formed for a proper range of them.
    """

    def __init__(self, me: MasterEquation):
        self.me = me
        self.dim = me.dim**2
        self._dense: np.ndarray | None = None
        self._sparse: sp.csr_matrix | None = None
        self._index: HermitianSectors | None = None
        self._kernel: np.ndarray | None = None
        #: the first sector's kernel in y, charge rows and bordered LU (None
        #: unless the model states a detailed-balance weight), kept with
        #: ``_kernel`` by ``dynamics.stated_kernel``
        self._bordered: tuple | None = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply the generator to a vectorized state."""
        return self.as_sparse() @ v

    def sector_index(self) -> HermitianSectors:
        """The index bookkeeping of G's sectors (``HermitianSectors`` of the
        model's statements), built when first asked for, without L."""
        if self._index is None:
            me = self.me
            self._index = HermitianSectors(me.dim, me.excitations, me.swap, me.signature)
        return self._index

    def sectors(self) -> list[slice]:
        """The index ranges of G that the generator never mixes, the
        diagonal's even, Theta = +1 part first (d = 0, exchange parity +1:
        where |gg,0>, the kernel and the stated charges lie)."""
        return self.sector_index().slices

    def maps(self, s: slice | None = None) -> tuple[sp.csc_matrix, sp.csr_matrix]:
        """B[:, s] (y -> vec(rho)) and (F T)[s] (vec(rho) -> y) on a range of
        sectors, all of vec(rho) by default."""
        return self.sector_index().maps(s)

    def generator(self, s: slice | None = None) -> tuple[sp.csr_matrix, float]:
        """G[s, s] of G = (F T) L B, ``s`` a range of whole sectors (all of G
        by default), formed anew from its rows ``GENERATOR_ROW_BLOCK`` at a
        time (each as in one whole product) without entries that link two
        sectors, and its scale: the largest absolute column sum of the
        columns of L it was formed from, never above ||L||_1.  Only L's rows
        and columns at the positions of ``s`` are assembled (all of L when
        ``s`` is all of G), indexed by the positions they reach
        (``_build_liouvillian``), and the maps of the one range t of sectors
        those reach (``HermitianSectors.span``; t = s for all of G) are
        composed once and read on the same positions (``restrict``): every
        row block is formed against B[:, t].

        Refused when an entry in the rows or columns of ``s``, in G's
        coordinates, has an imaginary part above ``DENSE_IMAG_TOL`` times the
        scale (L breaks Hermiticity) or links two sectors above
        ``SECTOR_LEAK_TOL`` times it.  The columns' check forms L B[:, s] and
        only the rows of (F T)[t] L B[:, s] before and after ``s``, so it
        costs the sectors t adds around ``s``, not G[s, s] again."""
        index = self.sector_index()
        stops = np.array([t.stop for t in index.slices])
        s = slice(0, self.dim) if s is None else s
        if s.step is not None or s.start not in (0, *stops) or s.stop not in stops or s.start >= s.stop:
            raise ValueError(f"{s} is not a range of whole sectors of G")
        n = s.stop - s.start
        basis, inverse = index.maps(s)
        at = None if n == self.dim else np.unique(basis.indices)
        lv, reach = _build_liouvillian(self.me, at)
        sums = _column_sums(lv)
        norm = float((sums if at is None else sums[np.searchsorted(reach, at)]).max())
        t = s if at is None else index.span(s, reach)  # every sector that L's rows and columns of s reach
        basis, inverse = restrict(basis, reach), restrict(inverse, reach)
        right, left = (basis, inverse) if t == s else (restrict(m, reach) for m in index.maps(t))
        imag = leak = 0.0
        if t != s:  # every entry of (F T)[t] L B[:, s] outside the rows of s links two sectors
            y = lv @ basis
            for rows in (left[: s.start - t.start], left[s.stop - t.start :]):
                f = rows @ y
                imag = max(imag, float(abs(f.data.imag).max(initial=0.0)))
                leak = max(leak, float(abs(f.data).max(initial=0.0)))
            del y, f
        del basis, left
        right = right.tocsr()  # B[:, t], by rows
        blocks = []
        for lo in range(0, n, GENERATOR_ROW_BLOCK):
            g = inverse[lo : lo + GENERATOR_ROW_BLOCK] @ lv @ right
            imag = max(imag, float(abs(g.data.imag).max(initial=0.0)))
            first = s.start + lo
            sector = np.searchsorted(stops, np.arange(first, first + g.shape[0]), "right")  # of each row
            cross = np.repeat(sector, np.diff(g.indptr)) != np.searchsorted(stops, g.indices + t.start, "right")
            leak = max(leak, float(abs(g.data[cross]).max(initial=0.0)))
            g.data[cross | (g.data.real == 0.0)] = 0.0  # G keeps real parts, and no zeros
            g.eliminate_zeros()
            real = np.ascontiguousarray(g.data.real)  # not a view that keeps the complex parts
            blocks.append(sp.csr_matrix((real, g.indices + (t.start - s.start), g.indptr), shape=(g.shape[0], n)))
        if imag > DENSE_IMAG_TOL * norm:
            raise NumericalAccuracyError(
                f"the generator of {self.me.label or 'the model'} is not real in Hermitian "
                f"coordinates (imaginary part {imag:.2e}): it does not preserve Hermiticity"
            )
        if leak > SECTOR_LEAK_TOL * norm:
            name = self.me.label or "the model"
            raise NumericalAccuracyError(f"the generator of {name} links two of its sectors ({leak:.2e})")
        return sp.vstack(blocks, format="csr"), norm

    def as_dense(self, sector: slice | None = None) -> np.ndarray:
        """The dense copy of ``generator(sector)``; of all of G, cached, by default."""
        if sector is None and self._dense is not None:
            return self._dense
        s = slice(0, self.dim) if sector is None else sector
        if s.stop - s.start > DENSE_CAP:
            raise DimensionLimitError(
                f"superoperator dimension {s.stop - s.start} exceeds the dense cap "
                f"{DENSE_CAP}; use the sparse representation"
            )
        dense = self.generator(sector)[0].toarray()
        if sector is None:
            self._dense = dense
        return dense

    def as_sparse(self) -> sp.csr_matrix:
        if self._sparse is None:
            self._sparse = _build_liouvillian(self.me)[0]
        return self._sparse

    def norm_estimate(self) -> float:
        """1-norm of the generator: ``abs(L).sum(axis=0).max()``, without copying L's indices."""
        return float(_column_sums(self.as_sparse()).max())


def _column_sums(lv: sp.csr_matrix) -> np.ndarray:
    """The absolute column sums of ``lv``, summed over a CSR matrix that shares its indices."""
    return np.asarray(sp.csr_matrix((abs(lv.data), lv.indices, lv.indptr), shape=lv.shape).sum(axis=0)).ravel()


def restrict(m: sp.csr_matrix | sp.csc_matrix, reach: np.ndarray | None) -> sp.csr_matrix | sp.csc_matrix:
    """A map of ``maps`` read on the sorted vec(rho) positions ``reach``
    (unchanged for None, all of them): the positions it is indexed by (the
    columns of a CSR matrix, the rows of a CSC one) become their indices in
    ``reach``, and its entries at positions outside it are dropped.  Each
    row or column keeps its entries in their order, so a product with a
    matrix indexed by ``reach`` that has nothing at those positions forms
    every entry as the whole product does, bitwise."""
    if reach is None:
        return m
    k = np.searchsorted(reach, m.indices)
    keep = reach[np.minimum(k, reach.size - 1)] == m.indices
    ptr = np.concatenate(([0], np.cumsum(keep)))[m.indptr]
    k = k[keep]
    shape = (m.shape[0], reach.size) if m.format == "csr" else (reach.size, m.shape[1])
    return type(m)((m.data[keep], k, ptr), shape=shape)


def _build_liouvillian(me: MasterEquation, at: np.ndarray | None = None) -> tuple[sp.csr_matrix, np.ndarray | None]:
    """Assemble L as a CSR matrix in the column-stacking convention, and the
    vec(rho) positions that index it.  All of L, indexed by position itself
    (None), or only its rows and its columns at the sorted vec(rho)
    positions ``at``, in a shape indexed by ``reach``: the sorted positions
    of ``at`` and of the columns and rows that theirs reach.  Each Kronecker
    factor is then cut to those rows and columns (``_kron_at``) before the
    terms are summed, so every entry there is the same sum of the same
    products as in the whole L, bitwise, and in the same order within its
    row: ``reach`` is sorted, so the relabelling keeps each row's order."""
    eye = sp.identity(me.dim, dtype=complex, format="csr")
    h = me.hamiltonian.matrix
    pairs = [(eye, h), (h.T, eye)]
    for op, rate in me.dissipators:
        o = op.matrix
        odo = o.conj().T @ o
        pairs += [(o.conj(), o), (eye, odo), (odo.T, eye)]
    for ct in me.cross_terms:
        bda = ct.right.conj().T @ ct.left
        pairs += [(ct.right.conj(), ct.left), (eye, bda), (bda.T, eye)]
    if at is None:
        reach, term = None, (sp.kron(a, b, format="csr") for a, b in pairs)
    else:
        reach, term = _kron_at(pairs, at)
    lv = -1j * (next(term) - next(term))
    for _, rate in me.dissipators:
        lv = lv + rate * (2.0 * next(term) - next(term) - next(term))
    for ct in me.cross_terms:
        lv = lv + ct.weight * (2.0 * next(term) - next(term) - next(term))
    return lv.tocsr(), reach


def _kron_at(pairs: list[tuple[sp.spmatrix, ...]], at: np.ndarray) -> tuple[np.ndarray, Iterator[sp.csr_matrix]]:
    """The entries of each ``sp.kron(a, b)`` of ``pairs`` in the rows or the
    columns ``at`` (sorted), each the same product a_ij b_kl, as one CSR
    matrix per pair indexed by ``reach``, the sorted positions they lie in;
    returns ``reach`` and those matrices."""
    parts = []
    for a, b in pairs:
        row, col, val = _kron_rows(a.tocsr(), b.tocsr(), at)
        col_t, row_t, val_t = _kron_rows(a.tocsc(), b.tocsc(), at)  # the columns at, read as rows of the transpose
        k = np.minimum(np.searchsorted(at, row_t), at.size - 1)
        out = at[k] != row_t  # entries in rows of at are in the rows' part already
        parts.append(tuple(np.concatenate(c) for c in ((row, row_t[out]), (col, col_t[out]), (val, val_t[out]))))
    reach = np.unique(np.concatenate([p for row, col, _ in parts for p in (row, col)]))
    n = reach.size
    terms = (
        sp.csr_matrix((val, (np.searchsorted(reach, row), np.searchsorted(reach, col))), shape=(n, n))
        for row, col, val in parts
    )
    return reach, terms


def _kron_rows(a: sp.spmatrix, b: sp.spmatrix, at: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row, column and value of each entry of kron(a, b) in the rows ``at``,
    ``a`` and ``b`` compressed by rows (CSR; CSC stands for the transpose):
    row r pairs row r // b.rows of ``a`` with row r % b.rows of ``b``."""
    ra, rb = np.divmod(at, b.shape[0])
    lo_a, lo_b = a.indptr[ra], b.indptr[rb]
    nb = b.indptr[rb + 1] - lo_b
    count = (a.indptr[ra + 1] - lo_a) * nb
    k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    per = np.repeat(nb, count)
    ia = np.repeat(lo_a, count) + k // per
    ib = np.repeat(lo_b, count) + k % per
    return np.repeat(at, count), a.indices[ia].astype(np.int64) * b.shape[1] + b.indices[ib], a.data[ia] * b.data[ib]


class HermitianSectors:
    """Index bookkeeping of the real coordinates y of vec(rho) of a d x d
    matrix, ordered sector by sector: one sector per |N_i - N_j| of the
    integer excitation numbers ``labels`` (ascending; all of vec(rho) when
    None), exchange parity under the basis permutation ``swap`` (+1 first;
    all +1 when None) and Theta = +-1 under the swap-invariant ``signature``
    u (+1 first; not split when None), and within a sector by coordinate
    number in x = [rho_ii; Re rho_ij; Im rho_ij  (i < j, row by row)].
    ``slices`` are the sectors as index ranges of y, ``gaps`` their
    |N_i - N_j| and ``size`` is d^2.  ``maps(s)`` composes B = T^-1 E and
    F T on a range of them from this bookkeeping alone; F T B = I.

    Re and Im of rho_ij hold rho_ij (d) and rho_ji (-d), so a |d| sector is
    closed under the adjoint; the first one holds the diagonal.  The swap
    acts on x as a signed permutation (rho_ij -> rho_p(i)p(j), Im changing
    sign when p(i) > p(j)); a coordinate it fixes lies in the parity of its
    sign, and a swapped pair e_k, e_l with sign s spans e_k + s e_l (+1)
    and e_k - s e_l (-1).  Column c of E is 1 at the coordinate listed for
    it and, for a pair, its sign at the partner (``_coordinates``).

    Theta(rho) = U rho* U is +1 on rho_ii, u_i u_j on Re rho_ij and
    -u_i u_j on Im rho_ij, so it keeps every coordinate and commutes with
    the swap; a swapped pair has one Theta.  Each pair i < j puts one of its
    Re and Im in either half, and the diagonal lies in Theta = +1.

    The sizes come in closed form from the m_N basis states with N
    excitations and the f_N of them the swap fixes (it keeps N): (sum_N
    m_N^2 +- f_N^2) / 2 at |d| = 0, parity +-1, and sum_N m_N m_{N+g} +-
    f_N f_{N+g} at |d| = g > 0.  Theta halves each of them, but for the d
    diagonal coordinates of the even d = 0 sector, which add d / 2 to its
    +1 half and take d / 2 from its -1 half: the swap-fixed coordinates
    there are the diagonal, the Re of exchanged pairs (all in +1) and both
    parts of each pair of fixed states (one in each).  No coordinate is
    listed until ``maps`` asks for a range, and then only those of the
    sectors it meets, so the index itself holds O(d) numbers.
    """

    def __init__(self, d: int, labels: np.ndarray | None, swap: np.ndarray | None,
                 signature: np.ndarray | None = None):
        self.d, self.size, self.labels = d, d * d, labels
        self.swap = np.arange(d) if swap is None else np.asarray(swap)
        self.signature = None if signature is None else np.asarray(signature)
        n = np.zeros(d, dtype=np.int64) if labels is None else np.asarray(labels) - np.min(labels)
        m = np.bincount(n)  # basis states per N
        f = np.bincount(n, weights=self.swap == np.arange(d)).astype(np.int64)  # those the swap fixes
        mm, ff = (np.correlate(c, c, "full")[c.size - 1 :] for c in (m, f))  # sum_N c_N c_{N+g}
        even, odd = mm + ff, mm - ff
        even[0], odd[0] = even[0] // 2, odd[0] // 2
        if signature is None:  # theta 0: the parity sector whole
            halves = [(0, even, odd)]
        else:
            diagonal = np.zeros_like(mm)
            diagonal[0] = d
            halves = [(1, (even + diagonal) // 2, odd // 2), (-1, (even - diagonal) // 2, odd // 2)]
        self._keys, sizes = [], []
        for g in np.flatnonzero(mm):
            for parity in (1, -1):
                for theta, by_even, by_odd in halves:
                    size = (by_even if parity > 0 else by_odd)[g]
                    if size:
                        self._keys.append((int(g), parity, theta))
                        sizes.append(size)
        edges = np.concatenate(([0], np.cumsum(sizes))).tolist()
        self.slices = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
        self.gaps = np.array([g for g, *_ in self._keys])
        # the states by N, then by index: group N is _by_n[_start[N] : _start[N + 1]]
        self._n, self._by_n = n, np.argsort(n, kind="stable")
        self._start = np.concatenate(([0], np.cumsum(m), [d]))

    def _pairs(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """Every (i, j), i < j, with |N_i - N_j| = g, in coordinate order
        (by i, then j): each state paired with the states of N_i + g (the
        later ones of its own group at g = 0)."""
        n, by_n, start = self._n, self._by_n, self._start
        if g == 0:
            rank = np.empty(self.d, dtype=np.int64)
            rank[by_n] = np.arange(self.d)
            lo, count = rank + 1, start[n + 1] - rank - 1
        else:
            top = np.minimum(n + g, start.size - 2)  # the last group is empty
            lo, count = start[top], start[top + 1] - start[top]
        i = np.repeat(np.arange(self.d), count)
        k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        j = by_n[np.repeat(lo, count) + k]
        i, j = np.minimum(i, j), np.maximum(i, j)
        order = np.lexsort((j, i))
        return i[order], j[order]

    def _coordinates(self, g: int, parity: int) -> tuple[np.ndarray, ...]:
        """The coordinates of the part (|d| = g, ``parity``) in order: each
        one's number, its partner under the swap (-1 when it fixes it), the
        sign of the partner in E's column, the vec(rho) positions (second
        high, second low, first high, first low) of the two, where rho_ii
        sits at i (d + 1) and Re or Im rho_ij at j + i d (low) and i + j d
        (high), and its Theta (+1 for all when no signature is stated); an
        unpaired coordinate stands in for its partner."""
        d, p = self.d, self.swap
        u = np.ones(d, dtype=np.int64) if self.signature is None else self.signature
        half = (d * d - d) // 2
        parts = []
        if g == 0:  # the diagonal: the swap moves rho_ii to rho_p(i)p(i) with sign +1
            k = np.arange(d)
            k = k[(p > k) if parity < 0 else (p >= k)]
            other = np.where(p[k] != k, p[k], -1)
            at, to = k * (d + 1), np.where(other >= 0, other, k) * (d + 1)
            parts.append((k, other, np.full(k.size, parity), np.column_stack((to, to, at, at)), np.ones(k.size)))
        i, j = self._pairs(g)
        a, b = np.minimum(p[i], p[j]), np.maximum(p[i], p[j])
        q, qp = i * d - i * (i + 1) // 2 + j - i - 1, a * d - a * (a + 1) // 2 + b - a - 1
        rep, moved = qp >= q, qp != q  # the first of each pair, and whether the swap moves it
        flip = np.where(p[i] < p[j], 1, -1)  # the swap's sign on Im
        # Re: +1 holds every first of a pair, -1 those the swap moves; a fixed
        # Im lies in the parity of its sign
        for offset, take, sign, conj in ((d, rep & (moved | (parity > 0)), np.ones_like(flip), 1),
                                         (d + half, rep & (moved | (flip == parity)), flip, -1)):
            c, m = np.flatnonzero(take), moved[take]
            ci, cj, ca, cb = i[c], j[c], np.where(m, a[c], i[c]), np.where(m, b[c], j[c])
            pos = np.column_stack((ca + cb * d, cb + ca * d, ci + cj * d, cj + ci * d))
            parts.append((offset + q[c], np.where(m, offset + qp[c], -1), parity * sign[c], pos, conj * u[ci] * u[cj]))
        return tuple(np.concatenate(a) for a in zip(*parts))

    def maps(self, s: slice | None = None) -> tuple[sp.csc_matrix, sp.csr_matrix]:
        """B[:, s] (y -> vec(rho)) and (F T)[s] (vec(rho) -> y) on the range
        ``s`` of coordinates (all by default), from the ``_coordinates`` of
        the sectors it meets alone.  Their entries are +-1, +-i and +-1/2^k,
        so y is real exactly for a Hermitian rho and every matrix read back
        from real y is Hermitian exactly.  Each is entry for entry, in the
        same order, the product it stands for: F T in CSR, whose row holds
        the positions of the second coordinate and then of the first, each
        from the higher down, formed ``MAP_BLOCK`` coordinates at a time;
        and T^-1 E in CSC, whose every entry, +-1 or +-i, is the phase of
        F T's entry there, conjugated (its two parts' signs, zeros +0)."""
        s = slice(0, self.size) if s is None else s
        met = [k for k, t in enumerate(self.slices) if t.start < s.stop and s.start < t.stop]
        cut = slice(s.start - self.slices[met[0]].start, s.stop - self.slices[met[0]].start)
        parts = []  # each (|d|, parity) part listed once, then cut into its Theta halves
        for (g, parity), keys in itertools.groupby((self._keys[k] for k in met), key=lambda key: key[:2]):
            *columns, half_of = self._coordinates(g, parity)
            parts += [[c[half_of == theta] for c in columns] if theta else columns for *_, theta in keys]
        x0, x1, e, at = (np.concatenate(c)[cut] for c in zip(*parts))
        n, d = x0.size, self.d
        # the entries of a coordinate: the second's high and low position, the first's
        keep = np.column_stack((x1 >= 0, x1 >= d, np.ones(n, dtype=bool), x0 >= d))
        ptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
        f_data, f_pos = np.empty(ptr[-1], dtype=complex), np.empty(ptr[-1], dtype=np.int32)
        phase = np.empty(ptr[-1], dtype=complex)
        high, second = np.array([True, False, True, False]), np.array([True, True, False, False])
        for lo in range(0, n, MAP_BLOCK):
            c = slice(lo, lo + MAP_BLOCK)
            out, k = slice(ptr[lo], ptr[min(lo + MAP_BLOCK, n)]), keep[c]
            paired = x1[c] >= 0
            x = np.where(second & paired[:, None], x1[c, None], x0[c, None])  # stand-ins are not kept
            imag = x >= d + (d * d - d) // 2
            # F: sign/2 at the second, 1/2 (1 unpaired) at the first; T at (x, high)
            # is 1 on the diagonal, 1/2 at Re and -i/2 at Im, at (x, low) 1/2 and i/2
            f = np.where(second, 0.5 * e[c, None], np.where(paired, 0.5, 1.0)[:, None])
            t_re = np.where(x < d, 1.0, np.where(imag, 0.0, 0.5))
            f_data[out] = _complex(f * t_re, np.where(imag, np.where(high, -0.5, 0.5) * f, 0.0))[k]
            f_pos[out] = at[c][k]
            phase[out] = _complex(np.sign(f_data[out].real), -np.sign(f_data[out].imag))
        basis = sp.csc_matrix((phase, f_pos.copy(), ptr), shape=(d * d, n))  # sort_indices sorts in place
        basis.sort_indices()
        return basis, sp.csr_matrix((f_data, f_pos, ptr), shape=(n, d * d))

    def holding(self, positions: np.ndarray) -> list[slice]:
        """The sectors that hold one of the vec(rho) ``positions``: all of
        their |N_i - N_j|, in either parity and either half of Theta."""
        if self.labels is None:
            return list(self.slices)
        d, held = self.d, np.zeros(self.gaps.max() + 1, dtype=bool)
        held[np.abs(self.labels[positions % d] - self.labels[positions // d])] = True
        return [s for s, g in zip(self.slices, self.gaps) if held[g]]

    def span(self, s: slice, positions: np.ndarray) -> slice:
        """The range of sectors from ``s`` out to every sector ``holding`` one of ``positions``."""
        held = self.holding(positions)
        return slice(min([s.start] + [t.start for t in held]), max([s.stop] + [t.stop for t in held]))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im without complex arithmetic, and with +0 for every zero
    part, as a product summed onto 0 holds it."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re + 0.0, im + 0.0
    return z


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of ``vec`` for square targets."""
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ShapeError(f"vector of length {v.size} is not a stacked square matrix")
    return np.asarray(v).reshape(d, d, order="F")


def vectorize(me: MasterEquation, materialize: bool = True) -> Superoperator:
    """Turn a MasterEquation into a Superoperator.

    ``materialize=True`` also makes the dense copy of the real generator
    (subject to ``linalg.DENSE_CAP``).  The package calls ``Superoperator``
    directly; this wrapper and its flag stay only for the benchmark
    workloads' ``vectorize(..., materialize=False)`` and go with that call.
    """
    sup = Superoperator(me)
    if materialize:
        sup.as_dense()
    return sup


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------


def build_full(space: SystemSpace, params: ModelParams) -> MasterEquation:
    """Lab-frame model: Tavis-Cummings + drive, thermal cavity and atomic baths.

    H = g0 (a S_+ + a^dag S_-) + i eps (a^dag - a); dissipators
    (a, kappa(n_th+1)), (a^dag, kappa n_th), and per atom
    (sigma_-^j, gamma(n_th+1)/2), (sigma_+^j, gamma n_th/2).
    Zero-rate channels are omitted.  At gamma = 0 every operator is
    collective and the singlet weight is conserved.  The model states the
    atom swap, the signature u = (-1)^(excited atoms) (the coupling is real
    and flips one atom, the drive imaginary and flips none), without a
    drive its excitation numbers, and without a drive at n_th > 0 its
    detailed-balance weight x = n_th / (n_th + 1).
    """
    k = params.kappa
    a = annihilation(space)
    adag = creation(space)
    s_plus = collective_spin(space, "plus")
    s_minus = collective_spin(space, "minus")
    h = params.g0 * (a.matrix @ s_plus.matrix + adag.matrix @ s_minus.matrix)
    h = h + 1j * params.eps * (adag.matrix - a.matrix)
    diss: list[tuple[LabeledOperator, float]] = []
    if k * (params.n_th + 1.0) > 0.0:
        diss.append((a, k * (params.n_th + 1.0)))
    if k * params.n_th > 0.0:
        diss.append((adag, k * params.n_th))
    for j in (1, 2):
        if params.gamma * (params.n_th + 1.0) > 0.0:
            diss.append((single_atom(space, "minus", j), params.gamma * (params.n_th + 1.0) / 2.0))
        if params.gamma * params.n_th > 0.0:
            diss.append((single_atom(space, "plus", j), params.gamma * params.n_th / 2.0))
    conserved = () if params.gamma > 0.0 else (singlet_projector(space),)
    undriven = params.eps == 0.0
    # sigma ~ x^N needs every raising channel, which n_th = 0 omits, and so
    # does a rate gamma n_th that underflows
    balanced = undriven and all(r * params.n_th > 0.0 for r in (k, params.gamma) if r > 0.0)
    return MasterEquation(
        LabeledOperator("H_TC + H_d", h), tuple(diss), space, label="full", conserved=conserved,
        excitations=excitation_number(space) if undriven else None,
        swap=atom_swap(space),
        balance=params.n_th / (params.n_th + 1.0) if balanced else None,
        signature=atom_parity(space),
    )


def build_coherent_displaced(space: SystemSpace, params: ModelParams) -> MasterEquation:
    """Displaced-frame form of ``build_full`` at n_th = 0 (drive removed by
    the displacement).

    H1 = Omega J_z + (g0/2) J_z (a^dag + a) + (g0/2)(J_+ a + J_- a^dag)
         - (g0/2)(J_+ a^dag + J_- a),  dissipators (a, kappa) and, when
    gamma > 0, (sigma_-^j, gamma/2).  The displacement acts on the field
    only, so the atomic decay channels pass through unchanged: the model is
    unitarily equivalent to the lab frame (same spectrum, same atomic
    observables) but free of the drive term, which makes large-drive runs
    tractable.  At gamma = 0 the singlet weight is conserved.  H1 is real
    and flips one atom in each term, so the model states the signature
    u = (-1)^(excited atoms).
    """
    if params.n_th != 0.0:
        raise UnsupportedRegimeError("the displaced coherent model requires n_th = 0")
    a = annihilation(space)
    adag_m = a.matrix.conj().T
    jz = dressed_spin(space, "z").matrix
    jp = dressed_spin(space, "plus").matrix
    jm = dressed_spin(space, "minus").matrix
    half_g = params.g0 / 2.0
    h = params.omega * jz
    h = h + half_g * (jz @ (adag_m + a.matrix))
    h = h + half_g * (jp @ a.matrix + jm @ adag_m)
    h = h - half_g * (jp @ adag_m + jm @ a.matrix)
    diss: list[tuple[LabeledOperator, float]] = [(a, params.kappa)]
    if params.gamma > 0.0:
        diss += [(single_atom(space, "minus", j), params.gamma / 2.0) for j in (1, 2)]
    conserved = () if params.gamma > 0.0 else (singlet_projector(space),)
    return MasterEquation(
        LabeledOperator("H_1", h), tuple(diss), space, label="coherent-displaced",
        conserved=conserved, swap=atom_swap(space), signature=atom_parity(space),
    )


def build_rwa_displaced(space: SystemSpace, params: ModelParams) -> MasterEquation:
    """Displaced model after the rotating-wave approximation.

    Lindblad part (a, kappa), (J_-, w), (J_+, w) with w = kappa (g0/4 Omega)^2,
    plus the two conjugate non-Lindblad cross terms carrying weight -w:
    (J_z a^dag) rho-bilinear with a, and its Hermitian partner.  Intended for
    Omega >> kappa; emits a warning when 4 eps/kappa < 10.  The cross
    terms leave it no signature: atom parity, photon parity and the
    constant signature all leak.
    """
    if params.n_th != 0.0 or params.gamma != 0.0:
        raise UnsupportedRegimeError(
            "the RWA displaced model requires n_th = 0 and gamma = 0"
        )
    if params.eps == 0.0:
        raise UnsupportedRegimeError("the RWA displaced model requires eps > 0")
    if 4.0 * params.eps / params.kappa < 10.0:
        warnings.warn(
            "RWA displaced model outside its regime: 4*eps/kappa = "
            f"{4.0 * params.eps / params.kappa:.3g} < 10",
            stacklevel=2,
        )
    omega = params.omega
    a = annihilation(space)
    am = a.matrix
    adag_m = am.conj().T
    jz = dressed_spin(space, "z").matrix
    jp = dressed_spin(space, "plus")
    jm = dressed_spin(space, "minus")
    h = omega * jz
    h = h + (params.g0 / 2.0) * (jz @ (am + adag_m))
    x = am - adag_m
    h = h - (params.g0**2 / (8.0 * omega)) * (jz @ (x @ x))
    w = params.kappa * (params.g0 / (4.0 * omega)) ** 2
    jza_dag = jz @ adag_m
    cross = (CrossTerm(jza_dag, am, -w), CrossTerm(am, jza_dag, -w))
    return MasterEquation(
        LabeledOperator("H_3", h),
        ((a, params.kappa), (jm, w), (jp, w)),
        space,
        cross_terms=cross,
        label="rwa-displaced",
        conserved=(singlet_projector(space),),
        swap=atom_swap(space),
    )


def build_effective_coherent(params: ModelParams) -> MasterEquation:
    """Adiabatically eliminated atomic model of the coherent case (4-dim).

    H = 0; dissipators (J_-, Gamma_eps), (J_+, Gamma_eps), (J_z, Gamma_g0)
    with Gamma_eps = kappa (kappa/4 eps)^2 and Gamma_g0 = kappa (g0/2 kappa)^2.
    Valid for eps >> kappa >> g0; the spectrum is exact for the model itself
    at any parameters.  H = 0 and real jumps: the signature is u = +1.
    """
    if params.eps == 0.0:
        raise UnsupportedRegimeError(
            "the effective coherent model requires eps > 0 (Gamma_eps diverges)"
        )
    space = atomic_space()
    g_eps = params.gamma_eps
    g_g0 = params.gamma_g0
    zero = LabeledOperator("0", np.zeros((4, 4), dtype=complex))
    return MasterEquation(
        zero,
        (
            (dressed_spin(space, "minus"), g_eps),
            (dressed_spin(space, "plus"), g_eps),
            (dressed_spin(space, "z"), g_g0),
        ),
        space,
        label="effective-coherent",
        conserved=(singlet_projector(space),),
        swap=atom_swap(space),
        signature=np.ones(space.dim, dtype=np.int64),
    )


def build_effective_incoherent(params: ModelParams) -> MasterEquation:
    """Adiabatically eliminated atomic model of the thermal case (4-dim).

    H = 0; dissipators (S_-, Gamma(n_th+1)), (S_+, Gamma n_th) with
    Gamma = kappa (g0/kappa)^2: two atoms sharing one thermal bath.  H = 0
    and real jumps: the signature is u = +1.
    """
    space = atomic_space()
    g = params.gamma_collective
    zero = LabeledOperator("0", np.zeros((4, 4), dtype=complex))
    diss: list[tuple[LabeledOperator, float]] = [(collective_spin(space, "minus"), g * (params.n_th + 1.0))]
    if g * params.n_th > 0.0:
        diss.append((collective_spin(space, "plus"), g * params.n_th))
    return MasterEquation(
        zero, tuple(diss), space, label="effective-incoherent",
        conserved=(singlet_projector(space),), excitations=excitation_number(space),
        swap=atom_swap(space), signature=np.ones(space.dim, dtype=np.int64),
    )
