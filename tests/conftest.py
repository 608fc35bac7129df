import numpy as np
import pytest
from hypothesis import Phase, settings

from atomcavity import atomic_space, observables
from atomcavity.dynamics import DensityMatrix, Trajectory, basis_vector, pure_state
from atomcavity.errors import ShapeError, StateValidityError
from atomcavity.models import vec
from atomcavity.operators import SystemSpace, singlet_projector

# Every property test draws the same examples on every run and stores none.
# A failing draw is reported as Hypothesis found it, unshrunk and
# unexplained: shrinking one failure of the dense-exponential oracle re-ran
# its trajectories for 305 s at 1.45 GB.  Tests override ``max_examples``
# only.
settings.register_profile(
    "atomcavity",
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
settings.load_profile("atomcavity")


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_density_matrix(dim: int, rng, space=None) -> DensityMatrix:
    """Full-rank Hilbert-Schmidt random state (generic: overlaps all modes)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m = m / np.trace(m)
    if space is None:
        space = atomic_space()
    return DensityMatrix.from_matrix(m, space)


def random_hermitian(dim: int, rng) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def singlet_state() -> DensityMatrix:
    """Atomic singlet (|ge> - |eg>)/sqrt(2), the collective dark state."""
    space = atomic_space()
    return DensityMatrix.from_matrix(singlet_projector(space).matrix.toarray(), space)


def bell_state() -> DensityMatrix:
    """(|gg> + |ee>)/sqrt(2) on the atomic space."""
    space = atomic_space()
    v = (basis_vector(space, 0, 0) + basis_vector(space, 1, 1)) / np.sqrt(2.0)
    return pure_state(v, space)


def maximally_mixed(space: SystemSpace) -> DensityMatrix:
    return DensityMatrix.from_matrix(np.eye(space.dim, dtype=complex) / space.dim, space)


def partial_trace_field(rho: DensityMatrix) -> DensityMatrix:
    """The atomic state of ``rho`` with the Fock factor traced out densely
    (ordering atom1 (x) atom2 (x) field): the oracle of
    ``observables.atomic_states``."""
    f = rho.space.fock_cutoff
    m = rho.matrix.reshape(2, 2, f, 2, 2, f)
    return DensityMatrix(np.trace(m, axis1=2, axis2=5).reshape(4, 4), atomic_space())


def one_sample(rho: DensityMatrix) -> Trajectory:
    """``rho`` as a trajectory of one sample at t = 0 that keeps every entry."""
    return Trajectory(np.zeros(1), rho.space, np.arange(rho.dim**2), vec(rho.matrix)[None])


def partial_trace_atom(rho_at: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state of one atom (keep = 1 or 2) of a 4x4 atomic state, as
    ``observables.mutual_information`` forms it."""
    return DensityMatrix(observables._marginals(rho_at.matrix)[keep - 1][0], SystemSpace(None))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr[rho log2 rho] in bits, with 0 log 0 = 0, from the clipped
    eigenvalues that ``observables.mutual_information`` reads: anything
    below -ENTROPY_CLIP_SLACK raises."""
    w, _, least = observables._spectra(rho.matrix)
    if least < -observables.ENTROPY_CLIP_SLACK:
        raise StateValidityError(f"entropy of a non-positive state: min eigenvalue {least:.3e}")
    return float(observables._entropy(w))


def photon_number(rho: DensityMatrix) -> float:
    """Mean cavity photon number Tr(rho a^dag a)."""
    space = rho.space
    if not space.has_field:
        raise ShapeError("photon_number requires a state with a field factor")
    f = space.fock_cutoff
    m = rho.matrix.reshape(2, 2, f, 2, 2, f)
    field = np.trace(np.trace(m, axis1=0, axis2=3), axis1=0, axis2=2)
    return float(np.real(np.sum(np.diag(field) * np.arange(f))))
