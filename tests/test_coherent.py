import numpy as np
import pytest

from oracles import (expectation_cross_collision_closed_form,
                     expectation_hop_closed_form,
                     expectation_self_collision_closed_form, index_of,
                     matrix_expectation, point_from_canonical,
                     product_form_check)
from triwell.coherent import (ClassicalPoint, QuantumState, coherent_state,
                              log_multinomial)
from triwell.fock import build_basis, hop_operator

POINTS = [
    ClassicalPoint(1.0, 1.0),
    ClassicalPoint(0.0, 0.0),
    ClassicalPoint(0.3 + 0.2j, -0.7 + 0.1j),
    ClassicalPoint(2.5, 0.4j),
    ClassicalPoint(0.0, 1.3 - 0.6j),
]


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("n", [1, 4, 12])
def test_coherent_state_normalized(point, n):
    basis = build_basis(n)
    state = coherent_state(basis, point)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("point", POINTS)
def test_product_form_identity(point):
    """(w . a^dag)^N |0> / sqrt(N! D^N) reproduces the amplitude formula."""
    basis = build_basis(8)
    assert product_form_check(basis, point) == pytest.approx(1.0, abs=1e-12)


def test_amplitude_formula_small_case():
    # N = 2, w = (1, 1): amplitudes proportional to sqrt(2!/(n1! n2! n3!))
    basis = build_basis(2)
    state = coherent_state(basis, ClassicalPoint(1.0, 1.0))
    d = 3.0
    for idx, (n1, n2, n3) in enumerate(basis.states):
        from math import factorial
        expected = np.sqrt(factorial(2) / (factorial(n1) * factorial(n2)
                                           * factorial(n3))) / d
        assert state.amplitudes[idx] == pytest.approx(expected, abs=1e-14)


def test_log_multinomial_values():
    basis = build_basis(3)
    vals = np.exp(log_multinomial(3, basis.states))
    assert vals[index_of(basis, (3, 0, 0))] == pytest.approx(1.0)
    assert vals[index_of(basis, (1, 1, 1))] == pytest.approx(6.0)


@pytest.mark.parametrize("point", POINTS)
def test_hop_closed_form_vs_matrix(point):
    basis = build_basis(9)
    for i, j in [(1, 1), (1, 2), (2, 3), (3, 1)]:
        closed = expectation_hop_closed_form(point, 9, i, j)
        brute = matrix_expectation(basis, point, i, j)
        assert closed == pytest.approx(brute, abs=1e-12)


@pytest.mark.parametrize("point", POINTS)
def test_collision_closed_forms(point):
    n = 7
    basis = build_basis(n)
    state = coherent_state(basis, point)
    v = state.amplitudes
    for i in (1, 2, 3):
        num = hop_operator(basis, i, i)
        op = (num @ num - num).toarray()
        brute = float(np.real(np.vdot(v, op @ v)))
        closed = expectation_self_collision_closed_form(point, n, i)
        assert closed == pytest.approx(brute, abs=1e-11)
    # one cross term <n_1 a_2^dag a_3>
    op = (hop_operator(basis, 1, 1) @ hop_operator(basis, 2, 3)).toarray()
    brute = complex(np.vdot(v, op @ v))
    closed = expectation_cross_collision_closed_form(point, n, 1, 2, 3)
    assert closed == pytest.approx(brute, abs=1e-11)


def test_canonical_chart_roundtrip():
    point = ClassicalPoint(0.8 - 0.3j, 0.2 + 0.6j)
    n = 20
    i1, i2, p1, p2 = point.canonical(n)
    back = point_from_canonical(i1, i2, p1, p2, n)
    assert back.w1 == pytest.approx(point.w1, abs=1e-12)
    assert back.w2 == pytest.approx(point.w2, abs=1e-12)
    assert i1 == pytest.approx(n * abs(point.w1) ** 2 / point.d)
    assert i2 == pytest.approx(n * abs(point.w2) ** 2 / point.d)


def test_quantum_state_shape_guard():
    basis = build_basis(3)
    with pytest.raises(ValueError):
        QuantumState(basis, np.zeros(basis.dimension + 1))


def test_fuzzed_overlap_symmetry():
    """<N; u | N; v> magnitude is symmetric under exchanging both labels."""
    rng = np.random.default_rng(7)
    basis = build_basis(6)
    for _ in range(10):
        u = ClassicalPoint(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
        v = ClassicalPoint(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
        uv = np.vdot(coherent_state(basis, u).amplitudes,
                     coherent_state(basis, v).amplitudes)
        vu = np.vdot(coherent_state(basis, v).amplitudes,
                     coherent_state(basis, u).amplitudes)
        assert abs(uv) == pytest.approx(abs(vu), abs=1e-13)
        assert uv == pytest.approx(np.conj(vu), abs=1e-13)
