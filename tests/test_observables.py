import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from atomcavity import atomic_space, dynamics as dyn, make_space, observables as obs
from atomcavity.errors import StateValidityError

from conftest import random_density_matrix


class TestPartialTraceField:
    def test_product_state(self):
        space = make_space(3)
        rho = dyn.pure_state(dyn.basis_vector(space, 1, 0, 0), space)  # |eg,0>
        at = obs.partial_trace_field(rho)
        expected = np.zeros((4, 4))
        expected[2, 2] = 1.0  # |eg><eg| with atom1 (x) atom2 ordering
        assert_allclose(at.matrix, expected, atol=1e-14)

    def test_maximally_mixed(self):
        space = make_space(5)
        at = obs.partial_trace_field(dyn.maximally_mixed(space))
        assert_allclose(at.matrix, np.eye(4) / 4, atol=1e-14)

    def test_trace_preserved(self, rng):
        space = make_space(4)
        rho = random_density_matrix(space.dim, rng, space)
        at = obs.partial_trace_field(rho)
        assert abs(np.trace(at.matrix) - np.trace(rho.matrix)) < 1e-12

    def test_atomic_passthrough_warns(self):
        rho = dyn.bell_state()
        with pytest.warns(UserWarning):
            out = obs.partial_trace_field(rho)
        assert out is rho


class TestPartialTraceAtom:
    def test_bell_reduces_to_mixed(self):
        for keep in (1, 2):
            r = obs.partial_trace_atom(dyn.bell_state(), keep)
            assert_allclose(r.matrix, np.eye(2) / 2, atol=1e-14)

    def test_ground_reduces_to_ground(self):
        r = obs.partial_trace_atom(dyn.ground_state(atomic_space()), 1)
        assert_allclose(r.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_symmetric_state_identical_reductions(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        swap = np.zeros((4, 4))
        for i, j in ((0, 0), (1, 2), (2, 1), (3, 3)):
            swap[i, j] = 1.0
        m = m + swap @ m @ swap.T
        m /= np.trace(m)
        rho = dyn.DensityMatrix.from_matrix(m, atomic_space())
        r1 = obs.partial_trace_atom(rho, 1)
        r2 = obs.partial_trace_atom(rho, 2)
        assert_allclose(r1.matrix, r2.matrix, atol=1e-12)


class TestEntropy:
    def test_pure_state_zero(self):
        assert obs.von_neumann_entropy(dyn.bell_state()) == pytest.approx(0.0, abs=1e-12)

    def test_qubit_mixed_one_bit(self):
        half = dyn.DensityMatrix(np.eye(2, dtype=complex) / 2, atomic_space())
        assert obs.von_neumann_entropy(half) == pytest.approx(1.0)

    def test_two_qubit_mixed_two_bits(self):
        assert obs.von_neumann_entropy(dyn.maximally_mixed(atomic_space())) == pytest.approx(2.0)

    def test_rejects_deep_negativity(self):
        bad = dyn.DensityMatrix(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex), atomic_space())
        with pytest.raises(StateValidityError):
            obs.von_neumann_entropy(bad)

    def test_concavity_spot_check(self, rng):
        for _ in range(10):
            a = random_density_matrix(4, rng)
            b = random_density_matrix(4, rng)
            mix = dyn.DensityMatrix((a.matrix + b.matrix) / 2, atomic_space())
            s_mix = obs.von_neumann_entropy(mix)
            s_avg = (obs.von_neumann_entropy(a) + obs.von_neumann_entropy(b)) / 2
            assert s_mix >= s_avg - 1e-9


class TestMutualInformation:
    def test_product_state_zero(self):
        assert obs.mutual_information(dyn.ground_state(atomic_space())) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state_two_bits(self):
        assert obs.mutual_information(dyn.bell_state()) == pytest.approx(2.0)

    def test_invariant_under_symmetric_local_unitaries(self, rng):
        for _ in range(6):
            rho = random_density_matrix(4, rng)
            base = obs.mutual_information(rho)
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            u, _ = np.linalg.qr(g)
            uu = np.kron(u, u)
            rotated = dyn.DensityMatrix(uu @ rho.matrix @ uu.conj().T, atomic_space())
            assert obs.mutual_information(rotated) == pytest.approx(base, abs=1e-9)


def _legacy_mi(rho: dyn.DensityMatrix) -> float:
    """S(rho_1) + S(rho_2) - S(rho_12), the entropy difference as written."""
    return (obs.von_neumann_entropy(obs.partial_trace_atom(rho, 1))
            + obs.von_neumann_entropy(obs.partial_trace_atom(rho, 2))
            - obs.von_neumann_entropy(rho))


def _state(entries: list[float], rows: int, cols: int) -> np.ndarray:
    g = np.array(entries[: rows * cols]) + 1j * np.array(entries[rows * cols : 2 * rows * cols])
    m = g.reshape(rows, cols)
    m = m @ m.conj().T
    return m / np.trace(m)


def _entries(size: int):
    return st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size).filter(
        lambda v: np.abs(v).max() > 1e-3
    )


class TestMutualInformationProperties:
    @settings(max_examples=300)
    @given(entries=_entries(32), rank=st.sampled_from([1, 2, 4]))
    def test_nonnegative_and_equal_to_the_entropy_difference(self, entries, rank):
        rho = dyn.DensityMatrix(_state(entries, 4, rank), atomic_space())
        mi = obs.mutual_information(rho)
        assert mi >= 0.0
        assert abs(mi - _legacy_mi(rho)) <= 1e-12

    @settings(max_examples=300)
    @given(first=_entries(8), second=_entries(8), mix=st.floats(1e-3, 1.0))
    def test_product_states_carry_none(self, first, second, mix):
        # mixed factors: a pure one has eigenvalues of round-off size (1e-17),
        # whose entropy alone is of order 1e-15 in either formula
        r1, r2 = ((1.0 - mix) * _state(v, 2, 2) + mix * np.eye(2) / 2.0 for v in (first, second))
        m = np.kron(r1, r2)
        assert 0.0 <= obs.mutual_information(dyn.DensityMatrix(m, atomic_space())) <= 1e-15

    def test_weight_outside_the_marginal_supports_is_refused(self):
        # both marginals are |g><g| exactly, yet |ge> and |eg> carry weight
        # beyond the clip slack: a relative entropy of +inf, never returned
        x = 0.9 * obs.ENTROPY_CLIP_SLACK
        m = np.diag([1.0 - x, x, x, -x]).astype(complex)
        with pytest.raises(StateValidityError):
            obs.mutual_information(dyn.DensityMatrix(m, atomic_space()))


class TestPhotonNumber:
    def test_vacuum(self):
        assert obs.photon_number(dyn.ground_state(make_space(4))) == pytest.approx(0.0)

    def test_fock_three(self):
        space = make_space(5)
        rho = dyn.pure_state(dyn.basis_vector(space, 0, 0, 3), space)
        assert obs.photon_number(rho) == pytest.approx(3.0)

    def test_driven_cavity_steady_state(self):
        # decoupled cavity (g0 = 0) under drive eps: steady state is the
        # coherent state with amplitude eps/kappa, so <n> = (eps/kappa)^2;
        # the cutoff moves it by 4e-9.  Atomic decay pins the decoupled atoms
        # to |gg>, so the steady state is unique
        from atomcavity import ModelParams, models

        p = ModelParams(g0=0.0, eps=2.0, gamma=0.1)
        space = make_space(24)
        sup = models.Superoperator(models.build_full(space, p))
        ss = dyn.steady_state(sup, dyn.ground_state(space))
        assert obs.photon_number(ss) == pytest.approx(4.0, rel=1e-8)
