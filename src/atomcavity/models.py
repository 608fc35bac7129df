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

assembled once as a CSR matrix.

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
vec(rho) when no N is stated) intersected with one exchange parity.

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
sector, and a sector is a ``slice`` of it (``Superoperator.generator`` and
``sectors``).  L maps Hermitian matrices to Hermitian matrices, so in the
coordinates

    x = [rho_ii; Re rho_ij; Im rho_ij  (i < j)]

of a D x D matrix it is T L T^-1 with real entries; a column of the real
basis E of x is a unit vector or a swapped pair of them, and the maps
B = T^-1 E (y -> vec(rho)) and F T (vec(rho) -> y) of all of vec(rho)
(``hermitian_sectors``) have entries +-1, +-i and +-1/2^k, so y is real
exactly for a Hermitian rho and every matrix read back from real y is
Hermitian exactly.  G keeps no entry that links two sectors.

Rates and times are expressed in units of kappa, which is pinned to 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionLimitError, NumericalAccuracyError, ShapeError, UnsupportedRegimeError
from .linalg import DENSE_CAP
from .operators import (
    LabeledOperator,
    SystemSpace,
    annihilation,
    atom_swap,
    atomic_space,
    collective_spin,
    creation,
    dressed_spin,
    excitation_number,
    single_atom,
    singlet_projector,
)

#: largest imaginary part of the dense generator in Hermitian coordinates,
#: relative to ||L||_1; measured exactly 0.0 on every builder, so anything
#: above round-off means L does not preserve Hermiticity
DENSE_IMAG_TOL = 1e-14

#: largest entry of P L P - L, P the stated swap on vec(rho), relative to
#: ||L||_1; measured exactly 0 at gamma = 0 and 8.9e-16 at gamma = 1e-3
#: (the two atoms' channels summed in either order), so anything above
#: round-off means L breaks the stated symmetry
SECTOR_LEAK_TOL = 1e-14

#: rows of G formed per product: F T L of a block stays under 40 MB at any cutoff
GENERATOR_ROW_BLOCK = 2**16

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
    conj(w)); the builders construct closed pairs.
    """

    left: np.ndarray
    right: np.ndarray
    weight: complex


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
    sigma ~ x^N, N the stated excitation numbers, and is refused unless H
    commutes with N, there are no cross terms, every jump is an
    N-eigenoperator and the jumps pair up as (O, r), (O^dag, x r).
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
        if self.swap is not None:
            p = np.asarray(self.swap)
            if p.shape != (dim,) or not np.array_equal(np.sort(p), np.arange(dim)):
                raise ShapeError("the stated swap is not a permutation of the basis")
            if not np.array_equal(p[p], np.arange(dim)):
                raise ValueError("the stated swap is not an involution")
            if self.excitations is not None and not np.array_equal(
                self.excitations[p], self.excitations
            ):
                raise ValueError("the stated swap changes the stated excitation numbers")
        if self.balance is not None:
            self._check_balance()

    def _check_balance(self) -> None:
        """Refuse a stated detailed-balance weight the terms do not obey."""
        x, name = self.balance, self.label or "the model"
        if not 0.0 < x < 1.0:
            raise ValueError(f"the detailed-balance weight of {name} must lie in (0, 1), got {x!r}")
        if self.excitations is None or self.cross_terms:
            raise ValueError(
                f"a detailed-balance weight needs stated excitation numbers and no cross terms ({name})"
            )
        step = np.subtract.outer(self.excitations, self.excitations)  # N_i - N_j
        if np.any(self.hamiltonian.matrix[step != 0]):
            raise ValueError(f"the Hamiltonian of {name} does not commute with N")
        lowering, raising = [], []
        for op, rate in self.dissipators:
            shifts = np.unique(step[op.matrix != 0])
            if not shifts.size:
                continue  # a zero jump (a at cutoff 1) adds nothing to L
            if shifts.tolist() not in ([-1], [1]):
                raise ValueError(f"jump {op.label} of {name} is not an N-eigenoperator ([N, O] = -+O)")
            (lowering if shifts[0] < 0 else raising).append((op, rate))
        for op, rate in lowering:
            adj = op.matrix.conj().T
            match = [i for i, (q, _) in enumerate(raising) if np.array_equal(q.matrix, adj)]
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


class Superoperator:
    """Liouvillian acting on column-stacked density matrices.

    The complex CSR matrix L is assembled on first use; ``apply`` is a
    mat-vec with it.  Every solve reads the real generator G = (F T) L B
    (``generator``), whose sectors are index ranges (``sectors``), and
    ``as_dense`` is its dense copy on one sector or on all of them, refused
    above ``linalg.DENSE_CAP``.  G, its maps and ``dynamics.stated_kernel``'s
    solve are kept beside L, so one generator is split and factorized once.
    """

    def __init__(self, me: MasterEquation):
        self.me = me
        self.dim = me.dim**2
        self._dense: np.ndarray | None = None
        self._sparse: sp.csr_matrix | None = None
        self._split: tuple[sp.csc_matrix, sp.csr_matrix, list[slice]] | None = None
        self._generator: sp.csr_matrix | None = None
        self._kernel: np.ndarray | None = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply the generator to a vectorized state."""
        return self.as_sparse() @ v

    def sectors(self) -> list[slice]:
        """The index ranges of G that the generator never mixes
        (``hermitian_sectors``), the one of the diagonal's even part first
        (d = 0, exchange parity +1: where |gg,0>, the kernel and the stated
        charges lie).  Built when first asked for; a stated symmetry that L
        breaks raises ``NumericalAccuracyError``: for the excitation numbers
        any entry of L that links two d, for the swap P any entry of
        P L P - L above ``SECTOR_LEAK_TOL`` ||L||_1."""
        if self._split is not None:
            return self._split[2]
        me = self.me
        name = me.label or "the model"
        lv = self.as_sparse()
        labels = me.excitations
        if labels is not None:
            d = np.subtract.outer(labels, labels).ravel(order="F")  # N_i - N_j of vec(rho)
            coo = lv.tocoo()
            leaks = int(np.count_nonzero(coo.data[d[coo.row] != d[coo.col]]))
            if leaks:
                raise NumericalAccuracyError(
                    f"{leaks} entries of the generator of {name} link different "
                    "excitation sectors; it does not conserve its stated excitation numbers"
                )
        if me.swap is not None:
            q = vec_swap(me.swap)
            breach = float(abs(lv[q][:, q] - lv).max())
            if breach > SECTOR_LEAK_TOL * self.norm_estimate():
                raise NumericalAccuracyError(
                    f"the generator of {name} breaks its stated swap symmetry: "
                    f"|P L P - L| reaches {breach:.2e}"
                )
        self._split = hermitian_sectors(me.dim, labels, me.swap)
        return self._split[2]

    def maps(self) -> tuple[sp.csc_matrix, sp.csr_matrix]:
        """B (y -> vec(rho)) and F T (vec(rho) -> y) of all of vec(rho); a
        sector's maps are the columns and rows of its slice."""
        self.sectors()
        return self._split[:2]

    def generator(self) -> sp.csr_matrix:
        """The real generator G = (F T) L B on all sectors, cached, formed
        ``GENERATOR_ROW_BLOCK`` rows at a time (F T L holds 21 to 29 entries a
        row; each row comes out as in one whole product).  Entries that link
        two sectors (round-off once the stated symmetries hold) are dropped,
        so each sector's block is G[s, s].  Refused when its imaginary part
        exceeds ``DENSE_IMAG_TOL`` ||L||_1: L does not preserve Hermiticity."""
        if self._generator is not None:
            return self._generator
        basis, inverse = self.maps()
        sectors = self.sectors()
        lv, right = self.as_sparse(), basis.tocsr()
        sector_of = np.repeat(np.arange(len(sectors)), [s.stop - s.start for s in sectors])
        blocks, imag = [], 0.0
        for lo in range(0, self.dim, GENERATOR_ROW_BLOCK):
            g = inverse[lo : lo + GENERATOR_ROW_BLOCK] @ lv @ right
            imag = max(imag, float(abs(g.imag).max()))
            row = lo + np.repeat(np.arange(g.shape[0]), np.diff(g.indptr))
            g.data[sector_of[row] != sector_of[g.indices]] = 0.0
            g.eliminate_zeros()
            blocks.append(g.real)
        if imag > DENSE_IMAG_TOL * self.norm_estimate():
            raise NumericalAccuracyError(
                f"the generator of {self.me.label or 'the model'} is not real in Hermitian "
                f"coordinates (imaginary part {imag:.2e}): it does not preserve Hermiticity"
            )
        self._generator = sp.vstack(blocks, format="csr")
        return self._generator

    def as_dense(self, sector: slice | None = None) -> np.ndarray:
        """The dense copy of G[sector, sector]; of all of G, cached, by
        default."""
        if sector is None and self._dense is not None:
            return self._dense
        s = slice(0, self.dim) if sector is None else sector
        if s.stop - s.start > DENSE_CAP:
            raise DimensionLimitError(
                f"superoperator dimension {s.stop - s.start} exceeds the dense cap "
                f"{DENSE_CAP}; use the sparse representation"
            )
        dense = self.generator()[s, s].toarray()
        if sector is None:
            self._dense = dense
        return dense

    def as_sparse(self) -> sp.csr_matrix:
        if self._sparse is None:
            self._sparse = _build_liouvillian(self.me)
        return self._sparse

    def norm_estimate(self) -> float:
        """1-norm of the generator."""
        return float(abs(self.as_sparse()).sum(axis=0).max())


def _build_liouvillian(me: MasterEquation) -> sp.csr_matrix:
    """Assemble L as a CSR matrix in the column-stacking convention."""
    eye = sp.identity(me.dim, dtype=complex, format="csr")

    def krn(a, b):
        return sp.kron(a, b, format="csr")

    h = sp.csr_matrix(me.hamiltonian.matrix)
    lv = -1j * (krn(eye, h) - krn(h.T, eye))
    for op, rate in me.dissipators:
        o = sp.csr_matrix(op.matrix)
        odo = o.conj().T @ o
        lv = lv + rate * (2.0 * krn(o.conj(), o) - krn(eye, odo) - krn(odo.T, eye))
    for ct in me.cross_terms:
        a = sp.csr_matrix(ct.left)
        b = sp.csr_matrix(ct.right)
        bda = b.conj().T @ a
        lv = lv + ct.weight * (2.0 * krn(b.conj(), a) - krn(eye, bda) - krn(bda.T, eye))
    return lv.tocsr()


def hermitian_coordinates(d: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The maps (T, T^-1) between vec(rho) and the coordinates
    x = [rho_ii; Re rho_ij; Im rho_ij  (i < j, row by row)] of a d x d matrix.

    x is real exactly when rho is Hermitian (for any rho, Re x holds the
    coordinates of its Hermitian part).  Rows of T take rho_ii, (rho_ij +
    rho_ji)/2 and (rho_ij - rho_ji)/2i; T^-1 rebuilds rho_ij = Re + i Im and
    rho_ji = Re - i Im.  The basis is not orthonormal: Tr[Q^dag rho] is
    vec(Q)^dag T^-1 x.
    """
    i, j = np.triu_indices(d, 1)
    m = i.size
    # positions in x and in vec(rho) of each nonzero: rho_ii, then rho_ij and
    # rho_ji for each Re rho_ij and each Im rho_ij
    re, im = d + np.arange(m), d + m + np.arange(m)
    x_pos = np.concatenate((np.arange(d), re, re, im, im))
    vec_pos = np.concatenate((np.arange(d) * (d + 1), i + j * d, j + i * d, i + j * d, j + i * d))
    to_x = np.concatenate((np.ones(d), np.full(2 * m, 0.5), np.full(m, -0.5j), np.full(m, 0.5j)))
    to_vec = np.concatenate((np.ones(d + 2 * m), np.full(m, 1j), np.full(m, -1j)))
    shape = (d * d, d * d)
    return (
        sp.csr_matrix((to_x, (x_pos, vec_pos)), shape=shape),
        sp.csr_matrix((to_vec, (vec_pos, x_pos)), shape=shape),
    )


def hermitian_sectors(
    d: int, labels: np.ndarray | None, swap: np.ndarray | None
) -> tuple[sp.csc_matrix, sp.csr_matrix, list[slice]]:
    """The maps B = T^-1 E and F T between vec(rho) of a d x d matrix and
    its real coordinates y, ordered sector by sector, and the sectors as
    index ranges of y: one per |N_i - N_j| of the excitation numbers
    ``labels`` (ascending; all of vec(rho) when None) and exchange parity
    under the basis permutation ``swap`` (+1 first; all +1 when None).  E
    and F split the coordinates x of ``hermitian_coordinates`` and are
    composed with T^-1 and T once, for all of vec(rho); F T B = I.  With
    neither symmetry the one sector is T^-1 and T themselves.

    Re and Im of rho_ij hold rho_ij (d) and rho_ji (-d), so a |d| sector is
    closed under the adjoint; the first one holds the diagonal.  The swap
    acts on x as a signed permutation (rho_ij -> rho_p(i)p(j), Im changing
    sign when p(i) > p(j)); a coordinate it fixes lies in the parity of its
    sign, and a swapped pair e_k, e_l with sign s spans e_k + s e_l (+1)
    and e_k - s e_l (-1).
    """
    i, j = np.triu_indices(d, 1)
    m = i.size
    p = np.arange(d) if swap is None else np.asarray(swap)
    gap = np.zeros(m, dtype=int) if labels is None else np.abs(labels[i] - labels[j])
    key = np.concatenate((np.zeros(d, dtype=gap.dtype), gap, gap))
    # the swap moves coordinate k to partner[k] with sign[k]
    a, b = np.minimum(p[i], p[j]), np.maximum(p[i], p[j])
    pair = a * d - a * (a + 1) // 2 + b - a - 1  # position of (a, b) among i < j
    partner = np.concatenate((p, d + pair, d + m + pair))
    sign = np.concatenate((np.ones(d + m), np.where(p[i] < p[j], 1.0, -1.0)))
    coords = np.arange(partner.size)
    rep = coords[partner >= coords]  # fixed coordinates and the first of each pair
    fixed = partner[rep] == rep
    cols = np.concatenate((rep, rep[~fixed]))
    parity = np.concatenate((np.where(fixed, sign[rep], 1.0), np.full((~fixed).sum(), -1.0)))
    order = np.lexsort((cols, -parity, key[cols]))
    cols, parity = cols[order], parity[order]
    paired = partner[cols] != cols
    # column c of E: 1 at cols[c] and, for a pair, parity * sign at its partner
    n = cols.size
    rows = np.concatenate((cols, partner[cols[paired]]))
    col_of = np.concatenate((np.arange(n), np.flatnonzero(paired)))
    vals = np.concatenate((np.ones(n), (parity * sign[cols])[paired]))
    fwd, inv = hermitian_coordinates(d)
    basis = (inv @ sp.csc_matrix((vals, (rows, col_of)), shape=(partner.size, n))).tocsc()
    scale = np.where(paired, 0.5, 1.0)[col_of]
    inverse = (sp.csr_matrix((vals * scale, (col_of, rows)), shape=(n, partner.size)) @ fwd).tocsr()
    sorted_key = key[cols]
    bounds = np.flatnonzero((np.diff(sorted_key) != 0) | (np.diff(parity) != 0)) + 1
    edges = np.concatenate(([0], bounds, [n])).tolist()
    return basis, inverse, [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def vec_swap(swap: np.ndarray) -> np.ndarray:
    """The positions q with vec(P rho P) = vec(rho)[q], P the basis
    permutation ``swap`` (an involution, so P rho P = rho_{p(i) p(j)})."""
    return np.add.outer(swap.size * swap, swap).ravel()


def zero_sector_dim(labels: np.ndarray | None, swap: np.ndarray | None) -> int:
    """Size of the first sector of ``hermitian_sectors`` without forming it,
    the one |gg,0> occupies: sum over N of (m_N^2 + f_N^2) / 2, m_N the
    basis states with N excitations (one N for all when ``labels`` is None)
    and f_N those the swap fixes (all of them when ``swap`` is None).  For
    two atoms and a mode that is 16 cutoff - 12 for the d = 0 block alone
    and 10 cutoff - 8 with the atom swap."""
    dim = (labels if labels is not None else swap).size
    n = np.zeros(dim, dtype=int) if labels is None else labels
    fixed = np.ones(dim) if swap is None else (swap == np.arange(dim))
    m = np.bincount(n)
    f = np.bincount(n, weights=fixed)
    return int(((m**2 + f**2) // 2).sum())


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
    atom swap, without a drive its excitation numbers, and without a drive
    at n_th > 0 its detailed-balance weight x = n_th / (n_th + 1).
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
    tractable.  At gamma = 0 the singlet weight is conserved.
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
        conserved=conserved, swap=atom_swap(space),
    )


def build_rwa_displaced(space: SystemSpace, params: ModelParams) -> MasterEquation:
    """Displaced model after the rotating-wave approximation.

    Lindblad part (a, kappa), (J_-, w), (J_+, w) with w = kappa (g0/4 Omega)^2,
    plus the two conjugate non-Lindblad cross terms carrying weight -w:
    (J_z a^dag) rho-bilinear with a, and its Hermitian partner.  Intended for
    Omega >> kappa; emits a warning when 4 eps/kappa < 10.
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
    cross = (
        CrossTerm(jza_dag, am, -w),
        CrossTerm(am, jza_dag, -w),
    )
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
    at any parameters.
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
    )


def build_effective_incoherent(params: ModelParams) -> MasterEquation:
    """Adiabatically eliminated atomic model of the thermal case (4-dim).

    H = 0; dissipators (S_-, Gamma(n_th+1)), (S_+, Gamma n_th) with
    Gamma = kappa (g0/kappa)^2: two atoms sharing one thermal bath.
    """
    space = atomic_space()
    g = params.gamma_collective
    zero = LabeledOperator("0", np.zeros((4, 4), dtype=complex))
    diss: list[tuple[LabeledOperator, float]] = [
        (collective_spin(space, "minus"), g * (params.n_th + 1.0))
    ]
    if g * params.n_th > 0.0:
        diss.append((collective_spin(space, "plus"), g * params.n_th))
    return MasterEquation(
        zero, tuple(diss), space, label="effective-incoherent",
        conserved=(singlet_projector(space),), excitations=excitation_number(space),
        swap=atom_swap(space),
    )
