import numpy as np
import pytest
from hypothesis import Phase, settings

from atomcavity import atomic_space
from atomcavity.dynamics import DensityMatrix

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
