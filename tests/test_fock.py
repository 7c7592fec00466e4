import numpy as np
import pytest
import scipy.sparse as sp

from oracles import index_of
from triwell.fock import build_basis, check_hermitian, hop_operator


def test_dimension_formula():
    for n in range(0, 12):
        basis = build_basis(n)
        assert basis.dimension == (n + 1) * (n + 2) // 2


def test_states_sum_to_n():
    basis = build_basis(7)
    assert np.all(basis.states.sum(axis=1) == 7)
    # all distinct
    assert len({tuple(s) for s in basis.states}) == basis.dimension


def test_index_roundtrip():
    basis = build_basis(5)
    for idx, occ in enumerate(basis.states):
        assert index_of(basis, tuple(occ)) == idx


def test_lexicographic_order():
    basis = build_basis(4)
    keys = [(s[0], s[1]) for s in basis.states]
    assert keys == sorted(keys)


def test_hop_matrix_elements():
    basis = build_basis(3)
    a12 = hop_operator(basis, 1, 2)          # a_1^dag a_2
    src = index_of(basis, (1, 2, 0))
    dst = index_of(basis, (2, 1, 0))
    assert a12[dst, src] == pytest.approx(np.sqrt(2 * 2))
    # annihilating an empty mode gives nothing
    col = index_of(basis, (3, 0, 0))
    assert a12[:, col].nnz == 0


def test_hop_adjoint_pair():
    basis = build_basis(4)
    a13 = hop_operator(basis, 1, 3)
    a31 = hop_operator(basis, 3, 1)
    assert abs(a13 - a31.conj().T).max() == 0


def test_hop_rejects_bad_mode():
    basis = build_basis(2)
    with pytest.raises(ValueError):
        hop_operator(basis, 0, 1)


def test_number_operator_diagonal():
    basis = build_basis(6)
    for i in (1, 2, 3):
        ni = hop_operator(basis, i, i)
        dense = ni.toarray()
        assert np.allclose(np.diag(dense), basis.states[:, i - 1])
        assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0


def test_number_equals_hop_self():
    """The diagonal hop a_i^dag a_i is the number operator of the
    off-diagonal hops: [a_i^dag a_j, a_j^dag a_i] = n_i - n_j."""
    basis = build_basis(5)
    for i, j in ((1, 2), (2, 3), (3, 1)):
        up, dn = hop_operator(basis, i, j), hop_operator(basis, j, i)
        diff = (up @ dn - dn @ up
                - (hop_operator(basis, i, i) - hop_operator(basis, j, j)))
        assert abs(diff).max() < 1e-12


def test_commutator_canonical():
    # [a_i a_j^dag] acting within the fixed-N sector: a_i a_j^dag = a_j^dag a_i
    # for i != j; the i = j case picks up the +1 from the commutator.
    basis = build_basis(4)
    big = build_basis(5)
    # cross-check via two-step hops: a0^dag a1 a1^dag a2 = a0^dag (n1+1) a2
    h12 = hop_operator(basis, 1, 2)
    h23 = hop_operator(basis, 2, 3)
    prod = (h12 @ h23).toarray()
    n2 = basis.states[:, 1].astype(float)
    h13 = hop_operator(basis, 1, 3).toarray()
    expected = h13 * (n2 + 1.0)[None, :]
    assert np.allclose(prod, expected, atol=1e-13)
    assert big.dimension > basis.dimension


def test_hermiticity_guard():
    m = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        check_hermitian(m)


def test_operator_arithmetic_and_expectation():
    basis = build_basis(2)
    op = check_hermitian(hop_operator(basis, 1, 1))
    combined = op * 2.0 + op - op
    v = np.zeros(basis.dimension)
    v[index_of(basis, (2, 0, 0))] = 1.0
    assert np.vdot(v, combined @ v).real == pytest.approx(4.0)
    assert abs(op - op.conj().T).max() == 0.0


def _hop_reference(basis, i, j):
    """Loop over basis states with a dict lookup of the target state."""
    index = {tuple(int(x) for x in occ): k for k, occ in enumerate(basis.states)}
    m = np.zeros((basis.dimension, basis.dimension))
    for col, occ in enumerate(basis.states):
        if occ[j - 1] == 0:
            continue
        target = occ.copy()
        target[j - 1] -= 1
        target[i - 1] += 1
        m[index[tuple(int(x) for x in target)], col] = np.sqrt(
            occ[j - 1] * (occ[i - 1] + 1.0))
    return m


@pytest.mark.parametrize("n", [0, 1, 4, 7])
def test_hop_matches_loop_reference(n):
    basis = build_basis(n)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i != j:
                assert np.array_equal(hop_operator(basis, i, j).toarray(),
                                      _hop_reference(basis, i, j))


def test_index_of_rejects_foreign_triples():
    basis = build_basis(4)
    for occ in ((1, 1, 1), (5, 0, -1), (0, 0, 5)):
        with pytest.raises(KeyError):
            index_of(basis, occ)
