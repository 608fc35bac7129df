import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from atomcavity import ModelParams, atomic_space, dynamics as dyn, make_space, models, observables as obs
from atomcavity.errors import NumericalAccuracyError, ShapeError, StateValidityError

from conftest import (
    atomic,
    bell_state,
    maximally_mixed,
    one_sample,
    partial_trace_atom,
    partial_trace_field,
    photon_number,
    qubit,
    random_density_matrix,
    von_neumann_entropy,
)


class TestPartialTraceField:
    # the field is traced out by the one map of ``atomic_states``
    def test_product_state(self):
        space = make_space(3)
        rho = dyn.pure_state(dyn.basis_vector(space, 1, 0, 0), space)  # |eg,0>
        (at,) = obs.atomic_states(one_sample(rho))
        expected = np.zeros((4, 4))
        expected[2, 2] = 1.0  # |eg><eg| with atom1 (x) atom2 ordering
        assert_allclose(at, expected, atol=1e-14)

    def test_maximally_mixed(self):
        space = make_space(5)
        (at,) = obs.atomic_states(one_sample(maximally_mixed(space)))
        assert_allclose(at, np.eye(4) / 4, atol=1e-14)

    def test_trace_preserved(self, rng):
        space = make_space(4)
        rho = random_density_matrix(space.dim, rng, space)
        (at,) = obs.atomic_states(one_sample(rho))
        assert abs(np.trace(at) - np.trace(rho.matrix)) < 1e-12

    def test_an_atomic_state_passes_through_unchanged(self):
        rho = bell_state()  # no field: f = 1
        (at,) = obs.atomic_states(one_sample(rho))
        assert np.array_equal(at, rho.matrix)
        assert obs.atomic_mutual_information(rho) == obs.mutual_information(rho)

    def test_steady_states_give_the_bits_of_the_dense_trace(self):
        # real-detector's two steady states, each at its default cutoff
        cases = (
            (models.build_coherent_displaced, ModelParams(g0=0.1, eps=np.sqrt(10.0), gamma=1e-3), 8),
            (models.build_full, ModelParams(g0=0.1, n_th=10.0, gamma=1e-3), 60),
        )
        for build, p, cutoff in cases:
            space = make_space(cutoff)
            ss = dyn.steady_state(models.Superoperator(build(space, p)), dyn.ground_state(space))
            assert obs.atomic_mutual_information(ss) == obs.mutual_information(partial_trace_field(ss))


class TestPartialTraceAtom:
    def test_bell_reduces_to_mixed(self):
        for keep in (1, 2):
            r = partial_trace_atom(bell_state(), keep)
            assert_allclose(r.matrix, np.eye(2) / 2, atol=1e-14)

    def test_ground_reduces_to_ground(self):
        r = partial_trace_atom(dyn.ground_state(atomic_space()), 1)
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
        r1 = partial_trace_atom(rho, 1)
        r2 = partial_trace_atom(rho, 2)
        assert_allclose(r1.matrix, r2.matrix, atol=1e-12)


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(bell_state()) == pytest.approx(0.0, abs=1e-12)

    def test_qubit_mixed_one_bit(self):
        half = qubit(np.eye(2, dtype=complex) / 2)
        assert von_neumann_entropy(half) == pytest.approx(1.0)

    def test_two_qubit_mixed_two_bits(self):
        assert von_neumann_entropy(maximally_mixed(atomic_space())) == pytest.approx(2.0)

    def test_rejects_deep_negativity(self):
        bad = atomic(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))
        with pytest.raises(StateValidityError):
            von_neumann_entropy(bad)

    def test_concavity_spot_check(self, rng):
        for _ in range(10):
            a = random_density_matrix(4, rng)
            b = random_density_matrix(4, rng)
            mix = atomic((a.matrix + b.matrix) / 2)
            s_mix = von_neumann_entropy(mix)
            s_avg = (von_neumann_entropy(a) + von_neumann_entropy(b)) / 2
            assert s_mix >= s_avg - 1e-9


class TestMutualInformation:
    def test_product_state_zero(self):
        assert obs.mutual_information(dyn.ground_state(atomic_space())) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state_two_bits(self):
        assert obs.mutual_information(bell_state()) == pytest.approx(2.0)

    def test_invariant_under_symmetric_local_unitaries(self, rng):
        for _ in range(6):
            rho = random_density_matrix(4, rng)
            base = obs.mutual_information(rho)
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            u, _ = np.linalg.qr(g)
            uu = np.kron(u, u)
            rotated = atomic(uu @ rho.matrix @ uu.conj().T)
            assert obs.mutual_information(rotated) == pytest.approx(base, abs=1e-9)


def _legacy_mi(rho: dyn.DensityMatrix) -> float:
    """S(rho_1) + S(rho_2) - S(rho_12), the entropy difference as written."""
    return (von_neumann_entropy(partial_trace_atom(rho, 1))
            + von_neumann_entropy(partial_trace_atom(rho, 2))
            - von_neumann_entropy(rho))


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
        rho = atomic(_state(entries, 4, rank))
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
        assert 0.0 <= obs.mutual_information(atomic(m)) <= 1e-15

    def test_weight_outside_the_marginal_supports_is_refused(self):
        # both marginals are |g><g| exactly, yet |ge> and |eg> carry weight
        # beyond the clip slack: a relative entropy of +inf, never returned
        x = 0.9 * obs.ENTROPY_CLIP_SLACK
        m = np.diag([1.0 - x, x, x, -x]).astype(complex)
        with pytest.raises(StateValidityError):
            obs.mutual_information(atomic(m))


def _qubit(entries: list[float], kind: str) -> np.ndarray:
    """A random mixed qubit state, or a basis state whose eigenvalues are
    exactly 0 and 1."""
    if kind == "mixed":
        return 0.5 * _state(entries, 2, 2) + 0.25 * np.eye(2)
    return np.diag([1.0, 0.0] if kind == "ground" else [0.0, 1.0]).astype(complex)


@st.composite
def _atomic_stacks(draw) -> np.ndarray:
    """Stacks of random 4x4 states of rank 1, 2 and 4, and of product states
    whose marginals may have exact zero eigenvalues."""
    states = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            states.append(_state(draw(_entries(32)), 4, draw(st.sampled_from([1, 2, 4]))))
        else:
            kinds = st.sampled_from(["mixed", "ground", "excited"])
            first, second = (_qubit(draw(_entries(8)), draw(kinds)) for _ in range(2))
            states.append(np.kron(first, second))
    return np.array(states)


class TestStackedMutualInformation:
    @settings(max_examples=200)
    @given(stack=_atomic_stacks())
    def test_a_stack_gives_each_sample_its_own_bits(self, stack):
        alone = np.array([obs.mutual_information(atomic(m)) for m in stack])
        together = obs.mutual_information(stack)
        assert together.shape == (len(stack),)
        assert together.tobytes() == alone.tobytes()

    @settings(max_examples=50)
    @given(stack=_atomic_stacks(), position=st.integers(0, 6),
           invalid=st.sampled_from(["negative", "outside"]))
    def test_a_stack_refuses_its_invalid_sample_as_that_sample_alone(self, stack, position, invalid):
        x = 0.9 * obs.ENTROPY_CLIP_SLACK
        bad = (np.diag([1.2, -0.2, 0.0, 0.0]) if invalid == "negative"
               else np.diag([1.0 - x, x, x, -x])).astype(complex)
        with pytest.raises(StateValidityError) as alone:
            obs.mutual_information(atomic(bad))
        k = min(position, len(stack))
        with pytest.raises(type(alone.value), match=f"^sample {k}: "):
            obs.mutual_information(np.insert(stack, k, bad, axis=0))

    def test_a_non_finite_sample_is_refused(self):
        # none of the other checks fires on a NaN, which read nan bits
        product = np.kron(np.diag([0.75, 0.25]), np.diag([0.5, 0.5])).astype(complex)
        bad = np.diag([0.5, 0.5, np.nan, 0.0]).astype(complex)
        with pytest.raises(NumericalAccuracyError, match="^sample 1: .* not finite"):
            obs.mutual_information(np.array([product, bad, product]))
        with pytest.raises(NumericalAccuracyError, match="^the atomic state .* not finite"):
            obs.mutual_information(atomic(bad))

    def test_a_stack_of_other_shapes_is_refused(self):
        with pytest.raises(ShapeError):
            obs.mutual_information(np.eye(4) / 4)

    def test_clipped_samples_give_one_warning_that_counts_them(self, monkeypatch):
        # terms lowered by 1e-13 nats leave every product state's relative
        # entropy a little below 0 (its entropy difference is 0 to 1e-16),
        # and a Bell state's well above
        terms = obs._relative_entropy_terms
        monkeypatch.setattr(obs, "_relative_entropy_terms", lambda a, b: terms(a, b) - 1e-13)
        product = np.kron(np.diag([0.75, 0.25]), np.diag([0.5, 0.5])).astype(complex)
        stack = np.array([product, bell_state().matrix, product, product])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mi = obs.mutual_information(stack)
        assert [str(w.message).split(" slightly")[0] for w in caught] == ["clipping 3"]
        assert mi[[0, 2, 3]].tolist() == [0.0, 0.0, 0.0] and mi[1] > 1.9


class TestPhotonNumber:
    def test_vacuum(self):
        assert photon_number(dyn.ground_state(make_space(4))) == pytest.approx(0.0)

    def test_fock_three(self):
        space = make_space(5)
        rho = dyn.pure_state(dyn.basis_vector(space, 0, 0, 3), space)
        assert photon_number(rho) == pytest.approx(3.0)

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
        assert photon_number(ss) == pytest.approx(4.0, rel=1e-8)
