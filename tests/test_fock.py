import numpy as np
import pytest

from rotcav import ModeOperator, annihilator_a, annihilator_b, build_basis
from rotcav import SystemParams, run_point


@pytest.mark.parametrize("na,nb,dim", [(4, 2, 15), (1, 1, 4), (6, 3, 28)])
def test_basis_dimension(na, nb, dim):
    assert build_basis(na, nb).dim == dim


@pytest.mark.parametrize("na,nb", [(0, 1), (1, 0), (-1, 2), (2, -3)])
def test_bad_cutoffs_rejected(na, nb):
    with pytest.raises(ValueError):
        build_basis(na, nb)


@pytest.mark.parametrize("na,nb", [(2.5, 1), (2.0, 1), (True, True), (3, "2")])
def test_non_integer_cutoffs_rejected(na, nb):
    with pytest.raises(ValueError, match="integers"):
        build_basis(na, nb)


def test_numpy_integer_cutoffs_accepted():
    assert build_basis(np.int64(4), np.int32(2)) == build_basis(4, 2)
    # Stored as Python ints, so that dim does not wrap in the cutoffs' dtype.
    basis = build_basis(np.uint8(200), np.uint8(2))
    assert basis.dim == 603 and type(basis.na_cut) is int
    p = SystemParams(g=0.867, drive_strength=0.05)
    assert run_point(p, (np.uint8(8), np.uint8(4))) == run_point(p, (8, 4))


def test_index_is_a_bijection():
    basis = build_basis(4, 2)
    seen = set()
    for n_a in range(5):
        for n_b in range(3):
            i = basis.index(n_a, n_b)
            assert 0 <= i < basis.dim
            assert (basis.occ_a[i], basis.occ_b[i]) == (n_a, n_b)
            seen.add(i)
    assert seen == set(range(basis.dim))


def test_vacuum_is_index_zero():
    assert build_basis(6, 3).index(0, 0) == 0


def test_index_rejects_out_of_range():
    basis = build_basis(2, 2)
    with pytest.raises(ValueError):
        basis.index(3, 0)
    with pytest.raises(ValueError):
        basis.index(-1, 0)
    with pytest.raises(ValueError):
        basis.index(0, basis.nb_cut + 1)


def test_annihilator_a_matrix_elements():
    basis = build_basis(4, 2)
    a = annihilator_a(basis).matrix
    assert a[basis.index(0, 0), basis.index(1, 0)] == 1.0
    assert a[basis.index(1, 0), basis.index(2, 0)] == pytest.approx(np.sqrt(2))
    # vacuum is annihilated
    assert np.all(a @ np.eye(basis.dim)[basis.index(0, 0)] == 0)


def test_annihilator_b_matrix_elements():
    basis = build_basis(4, 2)
    b = annihilator_b(basis).matrix
    assert b[basis.index(0, 0), basis.index(0, 1)] == 1.0
    assert b[basis.index(0, 1), basis.index(0, 2)] == pytest.approx(np.sqrt(2))
    assert np.all(b @ np.eye(basis.dim)[basis.index(0, 0)] == 0)


@pytest.mark.parametrize("na,nb", [(1, 1), (4, 2), (6, 3), (3, 5)])
def test_ladder_operators_match_their_definition(na, nb):
    # element by element from c|n> = sqrt(n)|n-1>, exactly
    basis = build_basis(na, nb)
    for build, mode in ((annihilator_a, 0), (annihilator_b, 1)):
        expected = np.zeros((basis.dim, basis.dim), dtype=complex)
        for n_a in range(na + 1):
            for n_b in range(nb + 1):
                n = (n_a, n_b)[mode]
                if n:
                    lowered = (n_a - 1, n_b) if mode == 0 else (n_a, n_b - 1)
                    expected[basis.index(*lowered), basis.index(n_a, n_b)] = np.sqrt(n)
        np.testing.assert_array_equal(build(basis).matrix, expected)


def test_occupation_vectors_follow_the_index():
    basis = build_basis(4, 2)
    for n_a in range(5):
        for n_b in range(3):
            i = basis.index(n_a, n_b)
            assert (basis.occ_a[i], basis.occ_b[i]) == (n_a, n_b)
    with pytest.raises(ValueError):
        basis.occ_a[0] = 1
    assert basis == build_basis(4, 2) and hash(basis) == hash(build_basis(4, 2))


def test_annihilator_only_lowers_its_own_mode():
    basis = build_basis(3, 2)
    a = annihilator_a(basis).matrix
    vec = a @ np.eye(basis.dim)[basis.index(2, 1)]
    expected = np.sqrt(2) * np.eye(basis.dim)[basis.index(1, 1)]
    np.testing.assert_allclose(vec, expected, atol=0)


@pytest.mark.parametrize("na,nb", [(2, 1), (6, 3), (4, 2)])
def test_truncated_commutator_diagonal(na, nb):
    # [a, a^dag] = 1 below the cutoff; the cutoff row carries -na_cut.
    # Holds up to one ulp in sqrt(n)^2.
    basis = build_basis(na, nb)
    a = annihilator_a(basis)
    comm = a.matrix @ a.dag() - a.dag() @ a.matrix
    np.testing.assert_allclose(comm - np.diag(np.diag(comm)), 0, atol=0)
    for n_a, n_b in zip(basis.occ_a.tolist(), basis.occ_b.tolist()):
        expected = -na if n_a == na else 1.0
        assert comm[basis.index(n_a, n_b), basis.index(n_a, n_b)] == pytest.approx(
            expected, abs=1e-12
        )


def test_modes_commute_exactly():
    basis = build_basis(4, 3)
    a = annihilator_a(basis).matrix
    b = annihilator_b(basis).matrix
    np.testing.assert_array_equal(a @ b - b @ a, np.zeros((basis.dim, basis.dim)))


def test_number_operators_commute():
    basis = build_basis(3, 2)
    a = annihilator_a(basis)
    b = annihilator_b(basis)
    num_a = a.dag() @ a.matrix
    num_b = b.dag() @ b.matrix
    np.testing.assert_allclose(num_a @ num_b - num_b @ num_a, 0, atol=0)


def test_operators_are_frozen():
    basis = build_basis(2, 1)
    a = annihilator_a(basis)
    with pytest.raises(ValueError):
        a.matrix[0, 0] = 5.0


def test_mode_operator_rejects_shape_mismatch():
    basis = build_basis(2, 1)
    with pytest.raises(ValueError):
        ModeOperator(np.zeros((3, 3), dtype=complex), basis)
