"""Time evolution, steady states, relaxation fits and truncation checks.

Trajectories come from ``evolve_spectral``, one sector (an excitation block
|d| intersected with an exchange parity and a half of the antiunitary
symmetry Theta, an index range of the model's one real generator G) at a
time: from |gg,0> a thermal model evolves only its d = 0, even,
Theta = +1 sector (276 of 25600 coordinates at cutoff 40), and the
displaced driven model its even, Theta = +1 sector (336 of 1024 at cutoff
8).  A model that states a detailed-balance weight (the thermal model)
evolves each sector by shift-and-invert Krylov: Arnoldi on G_s^-1 from one
sparse LU, for the first sector the bordered LU that ``stated_kernel``
factorizes, so no dense block and no object of D x D or D^2 entries is
formed, and a sector of any size is evolved, in time and memory that grow
linearly with it.  The driven, displaced and effective models use the
spectral expansion rho(t) = sum_k c_k e^{w_k t} r_k of the dense block
instead, up to ``linalg.DENSE_CAP``, the one size limit.  A
``Trajectory`` keeps only the entries of vec(rho) its samples can
occupy, and so does every full-space state (``DensityMatrix``), and
every state is checked one way (``_check_sample``).  Drifting traces are
never renormalized - accuracy failures surface as errors.  This is the one
evolution entry point: the scenarios and ``verify`` run it, and the tests
compare both of its paths with ``scipy.linalg.expm`` of the dense complex
generator, and with each other, at small cutoffs.  The package has no BDF path: the stiff
integrator ``linalg.integrate_ode`` has no caller here and stays only
because the benchmark's tracer (``bench/tracing.py``) binds it by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from . import spectra
from .errors import (
    DimensionLimitError,
    FitWindowError,
    KernelAmbiguityError,
    NumericalAccuracyError,
    ShapeError,
    StateValidityError,
    TruncationLimitError,
    UnsupportedRegimeError,
)
from .linalg import DENSE_CAP, eig_general
from .models import MasterEquation, ModelParams, Superoperator, restrict, unvec, vec
from .operators import SystemSpace, make_space

#: default slacks for density-matrix invariants at construction time
HERM_TOL = 1e-10
TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-8

#: invariant slack enforced along trajectories
EVOLUTION_INVARIANT_TOL = 1e-6

#: ``fit_relaxation`` needs the final distance to the steady state below this
#: fraction of the initial one
FIT_MIN_DECAY = 0.1

#: ``detect_plateau``: largest |d(value)/d(log10 t)|, relative to the series
#: range, that still counts as flat, and the fewest decades a plateau spans
PLATEAU_SLOPE_TOL = 0.01
PLATEAU_MIN_DECADES = 1.0

#: truncation sweeps double the Fock cutoff from ``TRUNCATION_START`` until the
#: observable changes by less than ``TRUNCATION_REL_TOL``, giving up at
#: ``TRUNCATION_HARD_CAP``
TRUNCATION_REL_TOL = 1e-3
TRUNCATION_START = 4
TRUNCATION_HARD_CAP = 512

#: condition number of the bordered steady-state matrix above which it is
#: singular to working precision, i.e. the kernel is larger than stated;
#: stated kernels measure 2.4e7 at the effective coherent model's eps = 1000
#: (it grows as eps^2), numerically singular ones above 1e16
BORDERED_COND_MAX = 1e12

#: rows of the eigenvector matrix updated at a time by ``evolve_spectral``
_ROW_BLOCK = 256

#: Krylov evolution of a sector of a model that states a detailed-balance
#: weight (``_krylov_motion``): the space grows ``KRYLOV_STEP`` vectors at a
#: time until the motion on the time grid changes by at most ``KRYLOV_TOL``
#: ||y0|| from one size to the next, and is refused past ``KRYLOV_MAX``
#: vectors (from |gg,0> of the thermal model, n_th from 1 to 2320 and
#: cutoffs up to 11608, 40 or 50 were needed)
KRYLOV_STEP = 10
KRYLOV_TOL = 1e-12
KRYLOV_MAX = 200

#: samples of a trajectory whose invariants ``_check_samples`` certifies at
#: a time: a few copies of that many samples' kept entries are held at once
#: (128 KiB for the displaced model's 1024 at cutoff 8); 16 samples raised
#: the peak memory of a coherent-dense benchmark round by 0.5 MB, and all
#: 141 of its trajectories' samples by 10 MB
_CHECK_BLOCK = 8

#: fewest coordinates of the consecutive sectors that ``steady_state``
#: factorizes in one sparse LU, so that the LU's memory is that of a few
#: sectors, not of all of them
_LU_BLOCK = 2**12

#: bound on the steady-state residuals ||L x|| and ||C mu||, relative to
#: ||L||_1 ||x||; round-off stays below 1e-16, a wrongly stated conserved
#: quantity leaves a residual of the order of the rate that breaks it
STEADY_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class DensityMatrix:
    """A state on a SystemSpace (or the atomic-only space), held as a
    ``Trajectory`` sample is: the ascending vec(rho) positions it keeps
    (``support``) and their values (``entries``), every other entry 0;
    ``matrix`` is built on request.  ``from_entries`` and ``from_matrix``
    (its nonzeros) check it as a sample is checked (``_check_sample``), with
    ``HERM_TOL``, ``TRACE_TOL`` and ``POSITIVITY_TOL``."""

    space: SystemSpace
    support: np.ndarray
    entries: np.ndarray

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, space: SystemSpace) -> "DensityMatrix":
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (space.dim, space.dim):
            raise StateValidityError(f"state shape {m.shape} does not match space dimension {space.dim}")
        v = vec(m)
        support = np.flatnonzero(v)
        return cls.from_entries(space, support, v[support])

    @classmethod
    def from_entries(cls, space: SystemSpace, support: np.ndarray, entries: np.ndarray) -> "DensityMatrix":
        index = _sample_index(support, entries[None], space.dim)
        _check_sample(entries, index, (HERM_TOL, TRACE_TOL, POSITIVITY_TOL), _refuse_state)
        return cls(space, support, entries)

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def matrix(self) -> np.ndarray:
        """The D x D matrix, built on each call."""
        full = np.zeros(self.dim**2, dtype=complex)
        full[self.support] = self.entries
        return unvec(full)


@dataclass(frozen=True)
class Trajectory:
    """States sampled on a time grid (times in units of 1/kappa), kept as the
    entries of vec(rho) that the evolution can reach: ``support`` holds their
    ascending positions and ``entries`` their values, one row per sample;
    every other entry of every sample is 0.  From |gg,0> of a model that
    keeps the excitation number these are the N_i = N_j entries (about
    16 cutoff of the D^2)."""

    times: np.ndarray
    space: SystemSpace
    support: np.ndarray
    entries: np.ndarray
    #: the largest Krylov dimension m of its evolved sectors, None when they
    #: were evolved through the dense eigenbasis
    krylov_dim: int | None = None

    @property
    def states(self) -> tuple[DensityMatrix, ...]:
        """Every sample as a ``DensityMatrix`` on the trajectory's support."""
        return tuple(DensityMatrix(self.space, self.support, x) for x in self.entries)

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class RelaxationEstimate:
    tau_fit: float
    fit_window: tuple[float, float]
    residual: float


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------


def pure_state(vector: np.ndarray, space: SystemSpace) -> DensityMatrix:
    """|v><v|, kept at i + j D for the nonzero v_i and v_j of the normalized ``vector``."""
    v = np.asarray(vector, dtype=complex)
    if v.shape != (space.dim,):
        raise StateValidityError(f"state vector shape {v.shape} does not match space dimension {space.dim}")
    v, held = v / np.linalg.norm(v), np.flatnonzero(v)
    support = (held[None, :] + space.dim * held[:, None]).ravel()  # ascending: j, then i
    return DensityMatrix.from_entries(space, support, (v[held][None, :] * v[held].conj()[:, None]).ravel())


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


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------


def time_grid(
    t_max: float, points: int, spacing: str = "log", t_min: float = 0.1
) -> np.ndarray:
    """Sampling grid starting at 0; log-uniform over [t_min, t_max] by default."""
    if not 0.0 < t_max < np.inf or points < 2:
        raise ValueError("time grid requires a finite t_max > 0 and points >= 2")
    if spacing == "log":
        if not 0.0 < t_min < t_max:
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


def _blocks(pattern: sp.csr_matrix) -> list[np.ndarray]:
    """The connected components of a square sparse nonzero pattern, one
    (blocks x size) index array per block size.  A matrix whose nonzeros lie
    in ``pattern`` has exactly the union of these blocks' eigenvalues; a
    trajectory from |gg,0> of a model that keeps the excitation number splits
    into blocks of at most 4 states, and one of the driven model is one block."""
    _, comp = connected_components(pattern, directed=False)
    sizes = np.bincount(comp)[comp]
    order = np.lexsort((comp, sizes))  # states grouped by block, blocks by size
    size, count = np.unique(sizes[order], return_counts=True)
    return [idx.reshape(-1, n) for n, idx in zip(size, np.split(order, np.cumsum(count)[:-1]))]


@dataclass(frozen=True)
class _SampleIndex:
    """Where ``_check_sample`` reads the kept entries x of a state, with one
    0 appended for the entries outside them: ``transpose`` gives each
    entry's transpose, ``diagonal`` the diagonal, and ``blocks`` the
    (blocks x size x size) entries of each block size of ``_blocks``."""

    transpose: np.ndarray
    diagonal: np.ndarray
    blocks: list[np.ndarray]


def _kept_at(support: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Where each of the vec(rho) ``positions`` is kept in the ascending
    ``support``: its index there, or ``support.size`` (the 0 appended past
    the kept entries) for a position outside it."""
    k = np.searchsorted(support, positions)
    return np.where(np.append(support, -1)[k] == positions, k, support.size)


def _sample_index(support: np.ndarray, entries: np.ndarray, d: int) -> _SampleIndex:
    """The ``_SampleIndex`` of d x d states kept at the vec positions
    ``support`` (``entries``: one row per state, a trajectory's samples or
    one state), its blocks split from the union of the rows' exact nonzero
    patterns: every row is block diagonal over them."""
    rows, cols = support % d, support // d
    nonzero = np.any(entries, axis=0)
    pattern = sp.csr_matrix((nonzero[nonzero], (rows[nonzero], cols[nonzero])), shape=(d, d))
    blocks = [_kept_at(support, i[..., None] + i[:, None] * d) for i in _blocks(pattern)]
    return _SampleIndex(_kept_at(support, cols + rows * d), np.flatnonzero(rows == cols), blocks)


def _min_eigenvalue(x: np.ndarray, blocks: list[np.ndarray]) -> float:
    """Least eigenvalue of the Hermitian part of a sample (its kept entries
    ``x``) that is block diagonal over ``blocks`` (``_SampleIndex``), blocks
    of one size in one LAPACK stack."""
    x = np.append(x, 0.0)
    parts = (x[g] for g in blocks)
    return min(float(np.linalg.eigvalsh((b + b.conj().swapaxes(1, 2)) / 2.0)[:, 0].min()) for b in parts)


def _check_sample(x: np.ndarray, index: _SampleIndex, tol: tuple, refuse: Callable[..., Exception]) -> None:
    """Raise ``refuse(hermiticity, trace, min_eig)`` for a state or sample
    (its kept entries ``x``) whose Hermiticity or trace deviation, or least
    eigenvalue over the blocks of ``index``, misses its slack in ``tol``.
    Entries outside the support are 0, so the kept entries carry the whole
    deviations.  A test passes only at most at its slack: a non-finite
    entry, whose Hermiticity deviation is not finite, is refused."""
    herm = float(np.abs(x - np.append(x, 0.0)[index.transpose].conj()).max(initial=0.0))
    tr = abs(x[index.diagonal].sum() - 1.0)
    min_eig = _min_eigenvalue(x, index.blocks) if np.isfinite(herm) else np.nan
    if not (herm <= tol[0] and tr <= tol[1] and min_eig >= -tol[2]):
        raise refuse(herm, tr, min_eig)


def _refuse_state(herm: float, tr: float, min_eig: float) -> StateValidityError:
    """A state's refusal at construction: its first failing check."""
    if not herm <= HERM_TOL:
        return StateValidityError(f"Hermiticity deviation {herm:.3e} > {HERM_TOL:.1e}")
    if not tr <= TRACE_TOL:
        return StateValidityError(f"trace deviation {tr:.3e} > {TRACE_TOL:.1e}")
    return StateValidityError(f"negative eigenvalue {min_eig:.3e} < -{POSITIVITY_TOL:.1e}")


def _refuse_sample(t: float, herm: float, tr: float, min_eig: float) -> NumericalAccuracyError:
    return NumericalAccuracyError(f"state invariants violated at t={t:.6g}: hermiticity {herm:.2e}, trace "
                                  f"{tr:.2e}, min eigenvalue {min_eig:.2e} (slack {EVOLUTION_INVARIANT_TOL:.0e})")


def _certified(x: np.ndarray, index: _SampleIndex, margin: float) -> bool:
    """Whether every sample of a chunk (its rows ``x`` of kept entries)
    misses Hermiticity and trace by at most ``margin`` and has no eigenvalue
    below -``margin`` over the blocks of its trajectory.  Positivity is read
    from one stacked Cholesky factorization per block size of the Hermitian
    parts plus ``margin`` I, which succeeds only when the least eigenvalue
    exceeds -``margin`` up to round-off of order 1e-16 ||rho||."""
    padded = np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1)
    herm = np.abs(x - padded[:, index.transpose].conj()).max()
    tr = np.abs(x[:, index.diagonal].sum(axis=1) - 1.0).max()
    if not (herm <= margin and tr <= margin):  # also refuses a NaN
        return False
    for g in index.blocks:
        b = padded[:, g]
        h = (b + b.conj().swapaxes(-1, -2)) / 2.0
        h += margin * np.eye(g.shape[-1])
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            return False
    return True


def _check_samples(entries: np.ndarray, t: np.ndarray, index: _SampleIndex) -> None:
    """``_check_sample`` every sample (a row of ``entries``) of a trajectory
    against ``EVOLUTION_INVARIANT_TOL``, ``_CHECK_BLOCK`` samples at a time.
    A chunk ``_certified`` with half of that slack passes whole, since
    round-off cannot carry any of its samples past the full slack; any other
    chunk is checked sample by sample, so every decision and every refusal
    is ``_check_sample``'s own."""
    tol = (EVOLUTION_INVARIANT_TOL,) * 3
    for start in range(0, t.size, _CHECK_BLOCK):
        chunk = slice(start, start + _CHECK_BLOCK)
        if not _certified(entries[chunk], index, EVOLUTION_INVARIANT_TOL / 2.0):
            for x, ti in zip(entries[chunk], t[chunk]):
                _check_sample(x, index, tol, partial(_refuse_sample, ti))


def evolve_spectral(sup: Superoperator, rho0: DensityMatrix, t_grid: np.ndarray) -> Trajectory:
    """Evolve the generator from ``rho0`` over ``t_grid``, in real
    arithmetic, one sector at a time: by Krylov on a sparse LU when the
    model states a detailed-balance weight (``MasterEquation.balance``),
    through the dense eigenbasis otherwise.  The path follows the model's
    statement alone, never a refusal of the other.

    ``sup.generator(s)`` forms the block G[s, s] of the real generator on
    one of ``sup.sectors()``, which it never mixes, so each one that rho0
    occupies evolves alone from its rows of y0 = F T vec(rho0), with
    vec(rho(t)) = vec(rho0) + B[:, s] (y(t) - y0), and the others stay
    0.  y(t) - y0 is formed through expm1, so it is exactly 0, and the
    sample rho0 itself, at t = 0.  Only the maps of the sectors of the |d|
    that rho0's entries have are composed, and each block is formed at most
    once, from L's rows and columns at its positions alone; the first
    sector's is also the one ``stated_kernel`` solves.  The trajectory keeps
    only the entries of vec(rho) that rho0 or an evolved sector's columns
    of B touch, and B is read at those positions alone (``restrict``), so
    nothing of D^2 entries is formed.  The motion is real and B maps real
    y to Hermitian matrices exactly, so every sample is Hermitian exactly;
    rho0 enters as the Hermitian part of its kept entries, rho0 itself for
    a Hermitian rho0.  Every sample is checked (``_check_samples``).  The
    Krylov path takes an occupied sector of any size; on the dense path one
    above ``linalg.DENSE_CAP`` coordinates is refused
    (``DimensionLimitError``) before its block is formed.

    The kernel lies in the first sector, and so do the stated charges
    (``MasterEquation`` refuses them otherwise).  The Krylov path
    (``_krylov_sector``) keeps the kernel part K C^T y0 of ``stated_kernel``
    fixed and evolves only the charge-free rest.  On the dense path the
    solver's slowest eigenvectors, kernel ones included, mix with each
    other by about 1e-16 ||L|| / gap (4e-6 at the displaced model's
    eps = 1000, cutoff 8), which their decay would leave behind in rho(t) as
    trace errors.  So in the first sector the kernel columns of the
    eigenbasis are replaced by ``stated_kernel`` K (exact to round-off,
    C^dag K = I, read in y), and each decaying mode r, which carries no
    conserved charge (C^dag r = 0, with the charges as the rows
    ``_charge_rows``), has its admixture K C^dag r removed.  On either path
    rho(t) tends to ``steady_state(sup, rho0)`` and keeps the trace and the
    conserved values of rho0 at every t.  ``Trajectory.krylov_dim`` records
    the largest Krylov dimension of the sectors, None on the dense path.
    """
    if rho0.dim != sup.me.dim:
        raise ShapeError(f"rho0 has dimension {rho0.dim}, the model's space {sup.me.dim}")
    t = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0.0)):
        raise ValueError(f"every time must be finite and nonnegative, not {t.min()!r} .. {t.max()!r}")
    d, kept = rho0.dim, np.append(rho0.entries, 0.0)
    held = rho0.support[rho0.entries != 0.0]
    at = np.union1d(held, held % d * d + held // d)  # the nonzeros' vec positions and their transposes'
    v0 = (kept[_kept_at(rho0.support, at)] + kept[_kept_at(rho0.support, at % d * d + at // d)].conj()) / 2.0
    at, v0 = at[v0 != 0.0], v0[v0 != 0.0]  # the nonzeros of vec((m + m^H) / 2)
    krylov = sup.me.balance is not None
    motions, dims = [], []
    for s in sup.sector_index().holding(at):
        lift, inverse = sup.maps(s)
        y0 = (restrict(inverse, at) @ v0).real
        first = s.start == 0
        if not (first or y0.any()):
            continue  # an empty sector stays empty
        if krylov:
            dy, dim = _krylov_sector(sup, s, y0, t)
            dims.append(dim)
        else:
            n = s.stop - s.start
            if n > DENSE_CAP:
                raise DimensionLimitError(
                    f"sector {s} of dimension {n} exceeds the dense cap {DENSE_CAP} of spectral evolution"
                )
            g, scale = sup.generator(s)
            w, v, kernel = _real_modes(g, 1 + len(sup.me.conserved) if first else 0)
            if first:
                stated_kernel(sup, (g, scale))
                k, c, _ = sup._bordered
                admixture = c.T @ v
                admixture[:, kernel] = 0.0
                for i in range(0, v.shape[0], _ROW_BLOCK):  # in place: v is the largest array here
                    v[i : i + _ROW_BLOCK] -= k[i : i + _ROW_BLOCK] @ admixture
                v[:, kernel] = k
            dy = _motion(w, v, y0, t)
            del w, v  # freed before the next sector's eigendecomposition
        rows = np.unique(lift.indices)  # the positions the sector touches
        motions.append((rows, restrict(lift, rows) @ dy))
    support = np.union1d(at, np.concatenate([rows for rows, _ in motions]))
    entries = np.zeros((t.size, support.size), dtype=complex)
    entries[:, np.searchsorted(support, at)] = v0
    for rows, dx in motions:
        entries[:, np.searchsorted(support, rows)] += dx.T
    _check_samples(entries, t, _sample_index(support, entries, rho0.space.dim))
    return Trajectory(t, rho0.space, support, entries, max(dims, default=0) if krylov else None)


def _krylov_sector(sup: Superoperator, s: slice, y0: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, int]:
    """y(t) - y0 on the sector ``s`` of a model that states a detailed-balance
    weight, one column per time, and the Krylov dimension it took
    (``_krylov_motion``).  The first sector's kernel part y_inf = K C^T y0
    stays, and its decaying part r0 = y0 - y_inf carries no charge; the
    bordered LU of ``stated_kernel`` solves [[G_0, c^T], [c, 0]] [x; mu] =
    [r; 0] for such an r with mu = 0, so x = G_0^-1 r on the charge-free
    coordinates, which have n - q dimensions.  Any other sector holds no
    kernel, and one sparse LU of its G_s gives G_s^-1 on all n of them; a
    G_s that is singular, exactly or to working precision, is refused as
    ``stated_kernel`` refuses the bordered matrix (``_refuse_singular``)."""
    n = s.stop - s.start
    if s.start == 0:
        stated_kernel(sup)
        k, c, lu = sup._bordered
        pad = np.zeros(c.shape[1])
        return _krylov_motion(
            lambda r: lu.solve(np.concatenate([r, pad]))[:n], y0, t, n - pad.size, lambda r: r - k @ (c.T @ r)
        )
    g, _ = sup.generator(s)
    lu, norm, inverse_norm = _lu_norms(g.tocsc())
    _refuse_singular(
        norm,
        inverse_norm,
        f"the generator of {sup.me.label or 'the model'} on sector {s} is singular to working "
        "precision: it holds a kernel the model does not state",
    )
    return _krylov_motion(lu.solve, y0, t, n)


def _krylov_motion(
    solve: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    t: np.ndarray,
    span: int,
    project: Callable[[np.ndarray], np.ndarray] = lambda r: r,
) -> tuple[np.ndarray, int]:
    """y(t) - y0 at each time of ``t`` (one column per time) for y' = G y,
    and the Krylov dimension m it took (0 when y0 does not move).  G is
    real, ``project`` is a projection that commutes with it and keeps the
    part that moves, and ``solve`` applies G^-1 on that part, a space of
    ``span`` dimensions: y(t) - y0 = e^{t G} r0 - r0 for r0 = project(y0).
    Each new direction is projected again after its orthogonalization, so
    round-off, which the division by its small norm amplifies from step to
    step, never carries the space out of that part.

    Arnoldi on G^-1 from r0, with full (twice classical Gram-Schmidt)
    reorthogonalization, gives an orthonormal V_m and H_m = V_m^T G^-1 V_m;
    then e^{t G} r0 ~ beta V_m e^{t G_m} e_1 with G_m = H_m^-1 and
    beta = ||r0||, the shift-and-invert approximant with its pole at 0 (van
    den Eshof & Hochbruck, SIAM J. Sci. Comput. 27, 1438 (2006); Moret &
    Novati, BIT 44, 595 (2004)).  The motion is beta V_m expm1(t G_m) e_1,
    through the eigendecomposition of H_m, so it is exactly 0 at t = 0.  The
    space grows ``KRYLOV_STEP`` vectors at a time until the motion on the
    grid moves by at most ``KRYLOV_TOL`` ||y0|| (2-norm, largest over the
    times; V is orthonormal, so it is read off the coefficients), and is
    accepted whole once it spans the space (m = ``span``, or a breakdown: a
    new direction below ``KRYLOV_TOL`` of its image).  A motion that is not
    finite, or not settled by ``KRYLOV_MAX`` vectors, is refused
    (``NumericalAccuracyError``).
    """
    r0 = project(y0)
    beta = float(np.linalg.norm(r0))
    if beta == 0.0:
        return np.zeros((r0.size, t.size)), 0
    size = min(span, KRYLOV_MAX)
    basis = np.empty((size + 1, r0.size))
    h = np.zeros((size + 1, size))
    basis[0] = r0 / beta
    scale = float(np.linalg.norm(y0))
    tol = KRYLOV_TOL * scale / beta  # in units of the coefficients
    m, last, spanned = 0, None, False
    while True:
        for j in range(m, min(m + KRYLOV_STEP, size)):
            w = solve(basis[j])
            image = np.linalg.norm(w)
            for _ in range(2):
                c = basis[: j + 1] @ w
                w -= c @ basis[: j + 1]
                h[: j + 1, j] += c
            w = project(w)
            h[j + 1, j] = np.linalg.norm(w)
            m = j + 1
            if h[j + 1, j] <= KRYLOV_TOL * image:
                spanned = True
                break
            basis[m] = w / h[j + 1, j]
        spanned = spanned or m == span
        coef = _krylov_coefficients(h[:m, :m], t)
        if not np.all(np.isfinite(coef)):
            raise NumericalAccuracyError(f"the Krylov motion of dimension {m} is not finite")
        change = np.inf
        if last is not None:
            diff = coef.copy()
            diff[: last.shape[0]] -= last
            change = float(np.linalg.norm(diff, axis=0).max())
        if spanned or change <= tol:
            break
        if m >= KRYLOV_MAX:
            raise NumericalAccuracyError(
                f"Krylov evolution did not settle to {KRYLOV_TOL:.0e} ||y0|| within "
                f"{KRYLOV_MAX} vectors (last change {change * beta:.2e}, ||y0|| = {scale:.2e})"
            )
        last = coef
    return beta * (basis[:m].T @ coef), m


def _krylov_coefficients(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """expm1(t G_m) e_1 for G_m = h^-1, one column per time, by ``_motion``
    on the real eigenbasis of h (``_real_modes``, which refuses a
    near-defective one), which is G_m's: an eigenvalue mu of h is 1/mu of
    G_m.  A pair's first vector u = V_j + i V_(j+1) belongs to 1/mu, whose
    imaginary part has the opposite sign, so ``_motion`` is handed
    1/conj(mu) and the pair's second column negated.  Exactly 0 at t = 0."""
    mu, v, _ = _real_modes(h, 0)
    v[:, np.flatnonzero(mu.imag > 0.0) + 1] *= -1.0
    e1 = np.zeros(h.shape[0])
    e1[0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _motion(1.0 / np.conj(mu), v, e1, t)


def _real_modes(a: sp.csr_matrix, kernel_dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues w, real eigenbasis V and kernel mask of a real generator
    block, given sparse (``linalg.eig_general`` densifies its own copy).

    The eigenvalues of a real matrix are real or come in exact conjugate
    pairs, and V is the C-ordered real basis of ``linalg.EigenDecomposition``.
    The ``kernel_dim`` kernel eigenvalues (``spectra.zero_modes``) are set
    to exactly 0, so the kernel part of a state never changes, however far
    the solver puts them from 0; a kernel that splits a conjugate pair
    raises.
    Refuses near-defective decompositions (eigenvector condition above the
    guard threshold).
    """
    decomp = eig_general(a)
    if decomp.near_defective:
        raise UnsupportedRegimeError(
            "eigendecomposition is near-defective (condition estimate "
            f"{decomp.condition_estimate:.2e}); spectral evolution cannot resolve it"
        )
    w = decomp.eigenvalues
    kernel = spectra.zero_modes(w, kernel_dim)
    upper = np.flatnonzero(w.imag > 0.0)  # first of each conjugate pair
    if np.any(kernel[upper] != kernel[upper + 1]):
        raise NumericalAccuracyError(
            "the stated kernel splits a conjugate pair of eigenvalues: the slowest "
            "decaying modes are not resolved from the kernel"
        )
    return np.where(kernel, 0.0, w), decomp.basis, kernel


def _motion(w: np.ndarray, v: np.ndarray, y0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """y(t) - y0 for the modes (w, V) of ``_real_modes``, one column per time.

    With real coefficients b = V^-1 y0, y(t) - y0 = sum_j Re[(e^{w_j t} - 1)
    g_j u_j] over the real eigenvalues and the first member of each pair,
    where u_j = V_j + i V_{j+1} and g_j = b_j - i b_{j+1} for a pair
    (u_j = V_j, g_j = b_j otherwise).
    """
    upper = np.flatnonzero(w.imag > 0.0)
    b = np.linalg.solve(v, y0)
    g = b.astype(complex)
    g[upper] -= 1j * b[upper + 1]
    z = np.expm1(np.outer(t, w)) * g
    weights = z.real
    weights[:, upper + 1] = -z[:, upper].imag
    return v @ weights.T


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------


def _charges(me: MasterEquation) -> list[sp.csr_matrix]:
    """The identity (trace) and the model's stated conserved quantities, sparse."""
    return [sp.identity(me.dim, dtype=complex, format="csr")] + [q.matrix for q in me.conserved]


def _charge_rows(me: MasterEquation, lift: sp.csc_matrix) -> np.ndarray:
    """The charges Q_j of ``_charges`` as the columns c_j^T = B^T conj(vec(Q_j))
    on the sector whose columns of B are ``lift``: Tr[Q_j rho] = c_j y for a
    state in it, real for a Hermitian Q_j.  Read at the positions B touches
    alone, each c_j the same sum as over all of vec(Q_j)."""
    rows = np.unique(lift.indices)
    col, row = np.divmod(rows, me.dim)  # Q_ij sits at i + j D
    values = np.column_stack([np.asarray(q[row, col]).ravel() for q in _charges(me)])
    return (restrict(lift, rows).T @ values.conj()).real


def stated_kernel(sup: Superoperator, block: tuple[sp.csr_matrix, float] | None = None) -> np.ndarray:
    """Basis of the generator's kernel dual to the model's conserved charges,
    solved on the first sector, where the kernel lies and, as checked when
    the model is made (``MasterEquation``), the charges too.

    In the coordinates y of the first of ``sup.sectors()`` (d = 0, exchange
    parity +1, Theta = +1), with L_0 = G[first, first] and the charges as the real
    rows c_j = vec(Q_j)^dag B of ``_charge_rows`` (Tr[Q_j rho] = c_j y;
    Q_0 = I, then ``me.conserved``), column j of K solves the real bordered
    system

        [[L_0, c^T], [c, 0]] [y; mu] = [0; e_j]

    from one sparse LU, so L K = 0 and C^dag K = I to round-off: the
    asymptotic state of rho0 is B K C^dag vec(rho0).  K is returned in y,
    never lifted to vec(rho).  A bordered matrix that is singular, exactly
    or to working precision, means the kernel is larger in the first sector
    than the model states (``KernelAmbiguityError``; ``steady_state`` also
    checks the other sectors); a residual ||L_0 y|| or multiplier mu above
    round-off, relative to ||y|| times the scale ``sup.generator`` returns
    with L_0 (never above ||L||_1), means a stated Q is not conserved
    (``NumericalAccuracyError``).  Solved once per generator: K and the rows
    c (read-only) and, for a model that states a detailed-balance weight,
    the bordered LU are kept on ``sup._bordered``.  ``block`` is
    ``sup.generator`` of the first sector when the caller has formed it
    already (``evolve_spectral``), so it is formed once.
    """
    if sup._bordered is not None:
        return sup._bordered[0]
    me = sup.me
    name = me.label or "the model"
    charges = _charges(me)
    first = sup.sectors()[0]
    lift, _ = sup.maps(first)
    c = _charge_rows(me, lift)
    l0, norm = sup.generator(first) if block is None else block
    dim = l0.shape[0]
    bordered = sp.bmat([[l0, sp.csc_matrix(c)], [sp.csr_matrix(c.T), None]], format="csc")
    rhs = np.zeros((bordered.shape[0], len(charges)))
    rhs[dim:] = np.eye(len(charges))
    lu, norm, inverse_norm = _lu_norms(bordered)
    _refuse_singular(
        norm,
        inverse_norm,
        f"the kernel of {name} is larger than its {len(charges)} stated conserved "
        "quantities (identity included) fix: the bordered generator on the first "
        "sector is singular to working precision",
    )
    sol = lu.solve(rhs)
    y, mu = sol[:dim], sol[dim:]
    scale = norm * np.linalg.norm(y, axis=0)
    resid = np.maximum(np.linalg.norm(l0 @ y, axis=0), np.linalg.norm(c @ mu, axis=0))
    worst = float((resid / scale).max())
    if not worst <= STEADY_RESIDUAL_TOL:
        raise NumericalAccuracyError(
            f"steady-state residual {worst:.2e} > {STEADY_RESIDUAL_TOL:.0e} (relative to the "
            f"column scale of L_0 times ||y||); a stated conserved quantity of {name} is not conserved"
        )
    for a in (y, c):
        a.setflags(write=False)
    # only the Krylov path (a stated detailed-balance weight) solves with the LU again
    sup._bordered = (y, c, lu if me.balance is not None else None)
    return y


def _lu_norms(a: sp.csc_matrix) -> tuple[spla.SuperLU | None, float, float]:
    """Sparse LU of ``a``, ||a||_1 and the estimate of ||a^-1||_1, which is
    infinite (and the LU None) when ``a`` is exactly singular (SuperLU:
    "Factor is exactly singular")."""
    norm = float(abs(a).sum(axis=0).max())
    try:
        lu = spla.splu(a)
    except RuntimeError:
        return None, norm, np.inf
    op = spla.LinearOperator(
        a.shape, matvec=lu.solve, rmatvec=lambda v: lu.solve(v, trans="T"), dtype=a.dtype
    )
    return lu, norm, spla.onenormest(op)


def _refuse_singular(norm: float, inverse_norm: float, message: str) -> None:
    """Refuse with ``KernelAmbiguityError(message)`` a matrix that is
    singular, exactly or to working precision: its 1-norm condition
    estimate ``norm * inverse_norm`` is above ``BORDERED_COND_MAX``."""
    cond = np.inf if np.isinf(inverse_norm) else norm * inverse_norm
    if not cond <= BORDERED_COND_MAX:
        raise KernelAmbiguityError(f"{message} (condition {cond:.1e})")


def steady_state(sup: Superoperator, rho0: DensityMatrix) -> DensityMatrix:
    """The t -> infinity limit of the generator from ``rho0``: the element
    of ``stated_kernel`` with the conserved values of ``rho0`` (trace 1 for
    Q = I).  Every sector other than the first must be free of a kernel,
    since rho0 may occupy any of them.  A sector whose rate bound is
    positive (``spectra.rate_bounds``) has none, so only the others of the
    ``spectra.unbounded_prefix`` are checked: all of G when the model states
    no bound.

    Tr[Q rho0] is read from rho0's kept entries, and (B K) C^dag vec(rho0)
    is formed, each entry as in the whole product, and checked only at the
    positions the first sector touches: nothing of size D x D or D^2."""
    if rho0.dim != sup.me.dim:
        raise ShapeError(f"rho0 has dimension {rho0.dim}, the model's space {sup.me.dim}")
    me = sup.me
    y = stated_kernel(sup)
    # those sectors must hold no stationary state the model does not state
    # (an atomic coherence |gg><S| under a zero-temperature bath, say).  G is
    # block diagonal over them, so the 1-norms of their block and of its
    # inverse are the largest of its diagonal blocks': runs of consecutive
    # sectors of at least ``_LU_BLOCK`` coordinates are factorized one at a
    # time, each LU dropped before the next
    (first, *others), (stop, _) = sup.sectors(), spectra.unbounded_prefix(sup)
    cuts = [s.stop - first.stop for s in others if s.stop <= stop]  # sector ends in that block
    if cuts:
        g, _ = sup.generator(slice(first.stop, stop))
        lo, norms = 0, []
        for hi in cuts:
            if hi - lo >= _LU_BLOCK or hi == cuts[-1]:
                norms.append(_lu_norms(g[lo:hi, lo:hi].tocsc())[1:])
                lo = hi
        _refuse_singular(
            max(n for n, _ in norms),
            max(i for _, i in norms),
            f"the kernel of {me.label or 'the model'} is larger than stated: the generator "
            "on the sectors other than the first is singular to working precision",
        )
    d, kept = me.dim, np.append(rho0.entries, 0.0)
    # Tr[Q^dag rho0] = vec(Q)^dag vec(rho0), summed over the entries Q holds
    overlaps = [np.vdot(q.data, kept[_kept_at(rho0.support, q.row + q.col.astype(np.int64) * d)])
                for q in (q.tocoo() for q in _charges(me))]
    lift, _ = sup.maps(first)
    rows = np.unique(lift.indices)  # the positions the first sector touches, closed under transposition
    x = (restrict(lift, rows) @ y) @ np.array(overlaps)
    x_t = np.append(x, 0.0)[_kept_at(rows, rows % d * d + rows // d)]
    return DensityMatrix.from_entries(me.space, rows, (x + x_t.conj()) / 2.0)


# ---------------------------------------------------------------------------
# relaxation fits and plateaus
# ---------------------------------------------------------------------------


def trace_norm(m: np.ndarray) -> float:
    """Tr sqrt(X^dag X) = sum of singular values."""
    return float(np.linalg.svd(m, compute_uv=False).sum())


def fit_relaxation(traj: Trajectory, rho_ss: DensityMatrix) -> RelaxationEstimate:
    """Fit tau from the exponential tail of ||rho(t) - rho_ss||.

    Requires the final distance below ``FIT_MIN_DECAY`` times the initial one.
    The fit window starts at the first sample whose distance has fallen below
    the geometric half-decay point sqrt(d_initial * d_final) - the midpoint
    of the decay on a log scale - so the window covers the final log-linear
    regime even in the presence of an intermediate plateau.
    """
    d = np.array([trace_norm(s.matrix - rho_ss.matrix) for s in traj.states])
    if d[0] == 0.0:
        raise FitWindowError("initial state coincides with the steady state")
    if d[-1] >= FIT_MIN_DECAY * d[0]:
        raise FitWindowError(
            f"trajectory has not decayed enough to fit: final/initial distance "
            f"= {d[-1] / d[0]:.3g} >= {FIT_MIN_DECAY}"
        )
    start = int(np.argmax(d <= np.sqrt(d[0] * max(d[-1], 1e-300))))  # d[-1] lies below
    good = d[start:] > 0.0
    tw, dw = traj.times[start:][good], d[start:][good]
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
    )


def detect_plateau(times: np.ndarray, values: np.ndarray) -> list[tuple[float, float]]:
    """Flat windows of a log-sampled series.

    A plateau is a maximal window where |d(value)/d(log10 t)| stays below
    ``PLATEAU_SLOPE_TOL`` times the series range and which spans at least
    ``PLATEAU_MIN_DECADES`` decades.  Expects t > 0 samples (leading zeros are
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
    flat = np.abs(slopes) <= PLATEAU_SLOPE_TOL * vrange
    windows: list[tuple[float, float]] = []
    i = 0
    while i < flat.size:
        if flat[i]:
            j = i
            while j + 1 < flat.size and flat[j + 1]:
                j += 1
            if x[j + 1] - x[i] >= PLATEAU_MIN_DECADES:
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
) -> tuple[int, list[tuple[int, float]]]:
    """Double the Fock cutoff until the extracted observable stabilizes.

    Returns the first cutoff whose observable differs from the previous
    (half-size) one by less than ``TRUNCATION_REL_TOL`` in relative terms,
    and the history of the sweep: every (cutoff, observable) pair it
    computed, in order, the converged cutoff last.
    """
    rel_tol, hard_cap = TRUNCATION_REL_TOL, TRUNCATION_HARD_CAP
    cutoff = TRUNCATION_START
    history = [(cutoff, extractor(builder(make_space(cutoff), params)))]
    while cutoff < hard_cap:
        cutoff *= 2
        history.append((cutoff, extractor(builder(make_space(cutoff), params))))
        (_, prev), (_, cur) = history[-2:]
        denom = max(abs(cur), abs(prev), 1e-300)
        if abs(cur - prev) <= rel_tol * denom:
            return cutoff, history
    raise TruncationLimitError(
        f"observable did not converge below relative change {rel_tol} by cutoff {hard_cap}"
    )


def converged_cutoff_for_gap(
    builder: Callable[[SystemSpace, ModelParams], MasterEquation],
    params: ModelParams,
    k: int = 12,
) -> tuple[int, spectra.SpectrumReport, list[tuple[int, float]]]:
    """Truncation sweep using the spectral gap as the convergence observable.

    Always uses the targeted shift-invert path (``k`` eigenvalues): the sweep
    visits sizes where full dense diagonalization would dominate the runtime
    for no benefit.  Returns the converged cutoff, the spectrum report
    solved at it, so callers need not solve that cutoff again, and the
    sweep's (cutoff, gap) history (``check_truncation``).
    """
    reports = []

    def gap_of(me: MasterEquation) -> float:
        reports.append(spectra.analyze(Superoperator(me), k=k))
        return reports[-1].gap

    cutoff, history = check_truncation(builder, params, gap_of)
    return cutoff, reports[-1], history
