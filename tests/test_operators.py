import numpy as np
import pytest
from numpy.testing import assert_allclose

from atomcavity import operators as ops
from atomcavity.errors import ShapeError


class TestSpace:
    def test_minimal_space(self):
        assert ops.make_space(1).dim == 4

    def test_ten_levels(self):
        assert ops.make_space(10).dim == 40

    def test_large_space_for_thermal_runs(self):
        assert ops.make_space(60).dim == 240

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            ops.make_space(0)

    def test_atomic_space(self):
        sp = ops.atomic_space()
        assert sp.dim == 4 and not sp.has_field


class TestAnnihilation:
    def test_single_fock_block_entry(self):
        a = ops.annihilation(ops.make_space(2)).matrix.toarray()
        block = a[:2, :2]
        assert_allclose(block, [[0, 1], [0, 0]])

    def test_number_operator_diagonal(self):
        a = ops.annihilation(ops.make_space(5)).matrix.toarray()
        assert_allclose(np.diag(a.conj().T @ a)[:5], [0, 1, 2, 3, 4])

    def test_commutator_truncation_artifact(self):
        # [a, a~dag] = I except in the top retained Fock level
        space = ops.make_space(6)
        a = ops.annihilation(space).matrix.toarray()
        comm = a @ a.conj().T - a.conj().T @ a
        eye = np.eye(space.dim)
        full = np.ones(space.dim, dtype=bool)
        top = np.arange(space.dim) % 6 == 5
        assert_allclose(comm[np.ix_(~top, ~top)], eye[np.ix_(~top, ~top)], atol=1e-14)
        assert_allclose(np.diag(comm)[top], 1 - 6.0)

    def test_requires_field(self):
        with pytest.raises(ShapeError):
            ops.annihilation(ops.atomic_space())


def ket(space, a1, a2, n=0):
    v1 = np.zeros(2)
    v1[a1] = 1
    v2 = np.zeros(2)
    v2[a2] = 1
    out = np.kron(v1, v2)
    if space.has_field:
        vf = np.zeros(space.fock_cutoff)
        vf[n] = 1
        out = np.kron(out, vf)
    return out.astype(complex)


class TestCollectiveSpin:
    def test_lowering_doubly_excited(self):
        space = ops.atomic_space()
        sm = ops.collective_spin(space, "minus").matrix.toarray()
        out = sm @ ket(space, 1, 1)
        assert_allclose(out, ket(space, 0, 1) + ket(space, 1, 0))

    def test_ground_annihilated(self):
        space = ops.atomic_space()
        sm = ops.collective_spin(space, "minus").matrix.toarray()
        assert_allclose(sm @ ket(space, 0, 0), 0.0, atol=1e-15)

    def test_sx_squared_spectrum(self):
        # brute-force diagonalization: eigenvalues {0, 0, 4, 4} on two atoms
        space = ops.atomic_space()
        sx = ops.collective_spin(space, "x").matrix.toarray()
        w = np.linalg.eigvalsh(sx @ sx)
        assert_allclose(sorted(w), [0, 0, 4, 4], atol=1e-12)

    def test_plus_minus_adjoint(self):
        space = ops.make_space(3)
        sp_ = ops.collective_spin(space, "plus").matrix.toarray()
        sm = ops.collective_spin(space, "minus").matrix.toarray()
        assert_allclose(sp_, sm.conj().T)

    def test_raising_twice_and_cubed_zero(self):
        space = ops.atomic_space()
        sp_ = ops.collective_spin(space, "plus").matrix.toarray()
        gg = ket(space, 0, 0)
        assert_allclose(sp_ @ sp_ @ gg, 2.0 * ket(space, 1, 1))
        assert_allclose(sp_ @ sp_ @ sp_, 0.0, atol=1e-15)


class TestDressedSpin:
    def test_jz_equals_sx(self):
        for space in (ops.atomic_space(), ops.make_space(3)):
            jz = ops.dressed_spin(space, "z").matrix.toarray()
            sx = ops.collective_spin(space, "x").matrix.toarray()
            assert_allclose(jz, sx, atol=1e-15)

    def test_raising_from_bottom_dressed(self):
        space = ops.atomic_space()
        jp = ops.dressed_spin(space, "plus").matrix.toarray()
        minus = (ket(space, 0, 0) - ket(space, 1, 0) - ket(space, 0, 1) + ket(space, 1, 1)) / 2
        plus_minus = jp @ minus
        # J_+|--> = |+-> + |-+>
        pm = np.kron((ket(ops.atomic_space(), 0, 0)[:2] * 0 + [1, 1]) / np.sqrt(2), [1, -1] / np.sqrt(2))
        mp = np.kron([1, -1] / np.sqrt(2), [1, 1] / np.sqrt(2))
        assert_allclose(plus_minus, pm + mp, atol=1e-12)

    def test_jx_hermitian(self):
        jx = ops.dressed_spin(ops.make_space(2), "x").matrix.toarray()
        assert_allclose(jx, jx.conj().T)

    def test_adjoint_pair(self):
        space = ops.make_space(2)
        jp = ops.dressed_spin(space, "plus").matrix.toarray()
        jm = ops.dressed_spin(space, "minus").matrix.toarray()
        assert_allclose(jp, jm.conj().T)

    def test_basis_change_conjugation(self):
        # conjugating sigma_z-type collectives by the per-atom Hadamard maps
        # the bare algebra onto the dressed one exactly
        space = ops.atomic_space()
        h1 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        u = np.kron(h1, h1)
        sz_sum = np.kron(ops.SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), ops.SIGMA_Z)
        jz = ops.dressed_spin(space, "z").matrix.toarray()
        assert_allclose(u @ sz_sum @ u.conj().T, jz, atol=1e-14)


class TestEmbeddingCommutation:
    def test_different_atoms_commute(self):
        space = ops.make_space(2)
        for w1 in ("plus", "minus", "x"):
            a1 = ops.single_atom(space, w1, 1).matrix.toarray()
            for w2 in ("plus", "minus", "z"):
                a2 = ops.single_atom(space, w2, 2).matrix.toarray()
                assert_allclose(a1 @ a2, a2 @ a1, atol=1e-15)


class TestAtomSwap:
    def test_exchanges_the_atoms(self):
        space = ops.make_space(3)
        p = ops.atom_swap(space)
        assert np.array_equal(p[p], np.arange(space.dim))
        swap = np.eye(space.dim)[p]  # (swap @ v)[k] = v[p[k]]
        s1 = ops.single_atom(space, "minus", 1).matrix.toarray()
        s2 = ops.single_atom(space, "minus", 2).matrix.toarray()
        assert_allclose(swap @ s1 @ swap.T, s2)
        for op in (ops.collective_spin(space, "plus"), ops.dressed_spin(space, "z"),
                   ops.annihilation(space), ops.singlet_projector(space)):
            assert_allclose(swap @ op.matrix.toarray() @ swap.T, op.matrix.toarray())
        assert np.array_equal(ops.atom_swap(ops.atomic_space()), [0, 2, 1, 3])
