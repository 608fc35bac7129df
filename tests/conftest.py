import numpy as np
import pytest
from hypothesis import Phase, settings

from atomcavity import atomic_space, observables
from atomcavity.dynamics import DensityMatrix, basis_vector, pure_state
from atomcavity.errors import ShapeError
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


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr[rho log2 rho] in bits, with 0 log 0 = 0, from the clipped
    eigenvalues that ``observables.mutual_information`` reads: anything
    below -ENTROPY_CLIP_SLACK raises."""
    return observables._entropy(observables._clipped_eigh(rho.matrix)[0])


def photon_number(rho: DensityMatrix) -> float:
    """Mean cavity photon number Tr(rho a^dag a)."""
    space = rho.space
    if not space.has_field:
        raise ShapeError("photon_number requires a state with a field factor")
    f = space.fock_cutoff
    m = rho.matrix.reshape(2, 2, f, 2, 2, f)
    field = np.trace(np.trace(m, axis1=0, axis2=3), axis1=0, axis2=2)
    return float(np.real(np.sum(np.diag(field) * np.arange(f))))
