"""Independent references for the benchmark's output checks.

Nothing here imports ``atomcavity``: the two effective atomic models are
rebuilt from the paper's formulas with their own operators, their own
(row-stacking) vectorization, ``scipy.linalg.expm`` propagation, their own
partial trace and their own entropy.  Rates are in units of kappa = 1 and the
dissipator is the factor-2 form D[O] rho = 2 O rho O^+ - O^+ O rho - rho O^+ O.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

_G = np.array([1.0, 0.0], dtype=complex)
_E = np.array([0.0, 1.0], dtype=complex)
_PLUS = (_G + _E) / math.sqrt(2.0)
_MINUS = (_G - _E) / math.sqrt(2.0)
_I2 = np.eye(2, dtype=complex)


def _collective(single: np.ndarray) -> np.ndarray:
    return np.kron(single, _I2) + np.kron(_I2, single)


S_MINUS = _collective(np.outer(_G, _E.conj()))
S_PLUS = S_MINUS.conj().T
J_Z = _collective(np.outer(_PLUS, _PLUS.conj()) - np.outer(_MINUS, _MINUS.conj()))
J_PLUS = _collective(np.outer(_PLUS, _MINUS.conj()))
J_MINUS = J_PLUS.conj().T

#: |gg><gg|, the initial state of every benchmarked trajectory
GROUND = np.outer(np.kron(_G, _G), np.kron(_G, _G).conj())


def gamma_eps(eps: float) -> float:
    return (1.0 / (4.0 * eps)) ** 2


def gamma_g0(g0: float) -> float:
    return (g0 / 2.0) ** 2


def lindbladian(jumps: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """16x16 generator (H = 0) acting on row-stacked 4x4 density matrices.

    Row stacking gives vec(A rho B) = (A kron B^T) vec(rho).
    """
    eye = np.eye(4, dtype=complex)
    out = np.zeros((16, 16), dtype=complex)
    for op, rate in jumps:
        odo = op.conj().T @ op
        out += rate * (2.0 * np.kron(op, op.conj()) - np.kron(odo, eye) - np.kron(eye, odo.T))
    return out


def coherent_generator(g0: float, eps: float) -> np.ndarray:
    """J_- and J_+ at Gamma_eps, J_z at Gamma_g0."""
    ge = gamma_eps(eps)
    return lindbladian([(J_MINUS, ge), (J_PLUS, ge), (J_Z, gamma_g0(g0))])


def thermal_generator(g0: float, n_th: float) -> np.ndarray:
    """S_- at Gamma (n_th + 1), S_+ at Gamma n_th, Gamma = g0^2."""
    g = g0**2
    return lindbladian([(S_MINUS, g * (n_th + 1.0)), (S_PLUS, g * n_th)])


def evolve(generator: np.ndarray, times, rho0: np.ndarray = GROUND) -> list[np.ndarray]:
    """rho(t) = expm(L t) rho0 at each time."""
    v0 = rho0.reshape(-1)
    return [(expm(generator * float(t)) @ v0).reshape(4, 4) for t in times]


def entropy_bits(rho: np.ndarray) -> float:
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    w = w[w > 1e-300]
    return float(-(w * np.log2(w)).sum())


def reduced_atom(rho: np.ndarray, atom: int) -> np.ndarray:
    r = rho.reshape(2, 2, 2, 2)
    return np.einsum("ijkj->ik", r) if atom == 1 else np.einsum("ijil->jl", r)


def mutual_information(rho: np.ndarray) -> float:
    """S(rho_1) + S(rho_2) - S(rho), in bits."""
    return (
        entropy_bits(reduced_atom(rho, 1))
        + entropy_bits(reduced_atom(rho, 2))
        - entropy_bits(rho)
    )


def mi_curve(generator: np.ndarray, times) -> np.ndarray:
    return np.array([mutual_information(r) for r in evolve(generator, times)])


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


#: steady mutual information of the coherent model started from |gg>
COHERENT_STEADY_MI = 2.0 - math.log2(3.0)


def thermal_steady_mi(n_th: float) -> float:
    """Triplet Gibbs mixture |gg>, |T0>, |ee> with population ratio n/(n+1)."""
    r = n_th / (n_th + 1.0)
    p = np.array([1.0, r, r * r])
    p /= p.sum()
    t0 = (np.kron(_G, _E) + np.kron(_E, _G)) / math.sqrt(2.0)
    ee = np.kron(_E, _E)
    rho = p[0] * GROUND + p[1] * np.outer(t0, t0.conj()) + p[2] * np.outer(ee, ee.conj())
    return mutual_information(rho)


def gap_coherent(eps: float) -> float:
    """1 / (2 eps)^2."""
    return 1.0 / (2.0 * eps) ** 2


def gap_thermal(g0: float, n_th: float) -> float:
    """2 n_th g0^2."""
    return 2.0 * n_th * g0**2


def lambda3(g0: float, eps: float) -> float:
    """Third distinct coherent rate, 4 Gamma_g0 + 2 Gamma_eps."""
    return 4.0 * gamma_g0(g0) + 2.0 * gamma_eps(eps)


def coherent_table(g0: float, eps: float) -> list[tuple[float, int]]:
    """Eigenvalues and multiplicities of the effective coherent model."""
    ge, gg = gamma_eps(eps), gamma_g0(g0)
    return [
        (0.0, 2),
        (-4.0 * ge, 3),
        (-12.0 * ge, 1),
        (-4.0 * gg - 2.0 * ge, 6),
        (-4.0 * gg - 10.0 * ge, 2),
        (-4.0 * (4.0 * gg + ge), 2),
    ]


def thermal_table(g0: float, n_th: float) -> list[tuple[float, int]]:
    """Eigenvalues and multiplicities of the effective thermal model."""
    g, n = g0**2, n_th
    s1 = math.sqrt(1.0 + 16.0 * n * (n + 1.0))
    s2 = math.sqrt(n * (n + 1.0))
    return [
        (0.0, 2),
        (-2.0 * n * g, 2),
        ((-3.0 * (2.0 * n + 1.0) + s1) * g, 2),
        (-2.0 * (n + 1.0) * g, 2),
        (-2.0 * (2.0 * n + 1.0) * g, 4),
        ((-4.0 * (2.0 * n + 1.0) + 4.0 * s2) * g, 1),
        ((-3.0 * (2.0 * n + 1.0) - s1) * g, 2),
        ((-4.0 * (2.0 * n + 1.0) - 4.0 * s2) * g, 1),
    ]
