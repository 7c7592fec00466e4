import numpy as np
import pytest

from oracles import expectation, index_of
from triwell.algebra import ModelParams, model_context
from triwell.coherent import ClassicalPoint, coherent_state
from triwell.spectral import (degenerate_clusters, eigensolve_lowest,
                              ground_state, spectrum)


def test_dense_oracle_small():
    params = ModelParams(-1.0, 0.4, 0.1, 6)
    ctx = model_context(6)
    vals, vecs, h = eigensolve_lowest(ctx.terms, params, 5)
    ref = np.linalg.eigvalsh(ctx.hamiltonian(params).toarray())
    assert np.allclose(vals, ref[:5], atol=1e-11)
    residuals = np.linalg.norm(h @ vecs - vecs * vals[None, :], axis=0)
    assert np.all(residuals < 1e-10)


def test_eigenvectors_orthonormal_and_phase_fixed():
    params = ModelParams(-1.0, 0.2, 0.0, 8)
    result = spectrum(params, 4)
    mats = np.stack([s.amplitudes for s in result.states], axis=1)
    gram = mats.conj().T @ mats
    assert np.allclose(gram, np.eye(4), atol=1e-12)
    for s in result.states:
        pivot = np.argmax(np.abs(s.amplitudes))
        z = s.amplitudes[pivot]
        assert abs(z.imag) < 1e-12 and z.real > 0


def test_variational_bound():
    """Coherent-state energy upper-bounds the true ground energy."""
    for chi in (0.0, 1.0, 2.5):
        params = ModelParams.from_reduced(-1.0, chi, 0.0, 12)
        e0, _ = ground_state(params)
        ctx = model_context(12)
        st = coherent_state(ctx.basis, ClassicalPoint(1.0, 1.0))
        e_coh = expectation(ctx.hamiltonian(params), st.amplitudes)
        assert e0 <= e_coh + 1e-10


def test_mode_exchange_symmetry():
    """Swapping modes 1 and 2 leaves the spectrum invariant."""
    params = ModelParams(-1.0, 0.7, 0.2, 7)
    ctx = model_context(7)
    h = ctx.hamiltonian(params).toarray()
    basis = ctx.basis
    perm = np.array([index_of(basis, (n2, n1, n3))
                     for (n1, n2, n3) in basis.states])
    swapped = h[np.ix_(perm, perm)]
    assert np.allclose(np.linalg.eigvalsh(h), np.linalg.eigvalsh(swapped),
                       atol=1e-11)


def test_noninteracting_ground_energy():
    """chi = mu = 0: the ground energy is N * omega * 2 (all modes in the
    symmetric single-particle orbital with eigenvalue 2 omega, omega < 0)."""
    for n in (5, 17, 30):
        params = ModelParams.from_reduced(-1.0, 0.0, 0.0, n)
        e0, _ = ground_state(params)
        assert e0 == pytest.approx(-2.0 * n, abs=1e-9)


def test_triplet_splitting_shrinks_with_interaction():
    """Deep in the self-trapped regime the lowest three levels collapse
    toward a degenerate triplet (one well choice out of three)."""
    def splitting(chi):
        params = ModelParams.from_reduced(-1.0, chi, 0.0, 20)
        vals = spectrum(params, 3).eigenvalues
        return vals[2] - vals[0]

    assert splitting(8.0) < splitting(4.0) < splitting(2.0)


def test_degenerate_clusters_grouping():
    vals = np.array([1.0, 1.0 + 1e-12, 2.0, 3.0, 3.0])
    assert degenerate_clusters(vals) == [[0, 1], [2], [3, 4]]


def test_k_out_of_range():
    ctx = model_context(3)
    params = ModelParams(-1.0, 0.0, 0.0, 3)
    with pytest.raises(ValueError):
        eigensolve_lowest(ctx.terms, params, 0)
    with pytest.raises(ValueError):
        eigensolve_lowest(ctx.terms, params, ctx.basis.dimension + 1)


def test_deterministic_repeat():
    params = ModelParams.from_reduced(-1.0, 2.0, 0.1, 15)
    r1 = spectrum(params, 3)
    r2 = spectrum(params, 3)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    for a, b in zip(r1.states, r2.states):
        assert np.array_equal(a.amplitudes, b.amplitudes)
