import itertools

import numpy as np
import pytest

from oracles import (ModelConsistencyError, expectation, hamiltonian_direct,
                     hamiltonian_generators, hamiltonian_terms_from_hops,
                     index_of, verify_equivalence)
from triwell import algebra
from triwell.algebra import (HamiltonianTerms, ModelParams, generators,
                             hamiltonian_terms, model_context, partner_mode)
from triwell.fock import build_basis, symmetry_sectors
from triwell.spectral import spectrum


def test_partner_mode_cycle():
    # mode pairs (k, j(k)) for the off-diagonal generators: (1,3),(2,1),(3,2)
    assert [partner_mode(k) for k in (1, 2, 3)] == [3, 1, 2]


def test_generators_hermitian_and_traceless():
    basis = build_basis(4)
    for g in generators(basis):
        assert abs(g - g.conj().T).max() < 1e-14
        assert abs(np.trace(g.toarray())) < 1e-12


def test_generator_expectations_on_fock_state():
    basis = build_basis(3)
    q1, q2, *hops = generators(basis)
    v = np.zeros(basis.dimension)
    v[index_of(basis, (2, 1, 0))] = 1.0
    assert expectation(q1, v) == pytest.approx(0.5)       # (n1 - n2)/2
    assert expectation(q2, v) == pytest.approx(1.0)       # (n1 + n2 - 2 n3)/3
    for g in hops:                                        # P1..P3, J1..J3
        assert expectation(g, v) == pytest.approx(0.0)


def test_algebra_closure_least_squares():
    """Commutators of the 8 generators stay inside their span (su(3))."""
    for n in (2, 3, 4):
        basis = build_basis(n)
        mats = [g.toarray() for g in generators(basis)]
        span = np.stack([m.ravel() for m in mats], axis=1)
        for a, b in itertools.combinations(range(8), 2):
            comm = (mats[a] @ mats[b] - mats[b] @ mats[a]).ravel()
            _, residual, _, _ = np.linalg.lstsq(span, comm, rcond=None)
            misfit = float(residual[0]) if residual.size else 0.0
            assert misfit < 1e-10, (n, a, b, misfit)


def test_hamiltonian_term_structure():
    basis = build_basis(3)
    T, K, V = hamiltonian_terms(basis)
    n = basis.states.astype(float)
    assert np.allclose(np.diag(K.toarray()),
                       np.sum(n * (n - 1.0), axis=1))
    # T is the total hop sum, so acting on (3,0,0) it reaches (2,1,0), (2,0,1)
    col = index_of(basis, (3, 0, 0))
    dense_t = T.toarray()
    nz = np.nonzero(dense_t[:, col])[0]
    assert set(nz) == {index_of(basis, (2, 1, 0)), index_of(basis, (2, 0, 1))}
    assert V.shape == T.shape


def test_hamiltonian_hermitian():
    basis = build_basis(5)
    params = ModelParams(-1.0, 0.3, 0.1, 5)
    for h in (hamiltonian_direct(basis, params),
              hamiltonian_generators(basis, params)):
        assert abs(h - h.conj().T).max() < 1e-13


def test_equivalence_shift_grid():
    """H_direct - H_generators = kappa (N^2/3 - N) * identity."""
    for n in (1, 2, 5):
        basis = build_basis(n)
        for omega, kappa, lam in itertools.product((-1.0, 0.0, 1.0), repeat=3):
            params = ModelParams(omega, kappa, lam, n)
            c = verify_equivalence(basis, params)
            assert c == pytest.approx(kappa * (n ** 2 / 3.0 - n), abs=1e-10)


def test_verify_equivalence_detects_corruption():
    basis = build_basis(3)
    params = ModelParams(-1.0, 0.5, 0.2, 3)

    class Broken:
        pass

    # corrupt one generator path by perturbing the direct Hamiltonian
    hd = hamiltonian_direct(basis, params).tolil()
    hd[0, 1] += 0.05
    hd[1, 0] += 0.05

    hg = hamiltonian_generators(basis, params)
    diff = (hd.tocsr() - hg).toarray()
    c = np.trace(diff) / basis.dimension
    off = np.linalg.norm(diff - c * np.eye(basis.dimension))
    assert off > 1e-3  # the corrupted difference is visibly non-identity


def test_verify_equivalence_raises_on_corrupt_input():
    """Parameters whose particle number disagrees with the basis break the
    identity-shift relation (the cross-collision term depends on N), and
    ``verify_equivalence`` must refuse them."""
    basis = build_basis(3)
    verify_equivalence(basis, ModelParams(-1.0, 0.5, 0.2, 3))
    with pytest.raises(ModelConsistencyError):
        verify_equivalence(basis, ModelParams(-1.0, 0.5, 0.2, 5))


def test_reduced_parameter_roundtrip():
    params = ModelParams.from_reduced(-1.0, 2.0, 0.5, 30)
    assert params.chi == pytest.approx(2.0)
    assert params.mu == pytest.approx(0.5)
    assert params.omega_eff == pytest.approx(
        params.omega + 2.0 * params.lam * 29)


def test_reduced_requires_nonzero_omega():
    params = ModelParams(0.0, 1.0, 0.0, 5)
    with pytest.raises(ValueError):
        params.chi


def test_single_particle_reduced_only_noninteracting():
    p = ModelParams.from_reduced(-1.0, 0.0, 0.0, 1)
    assert p.kappa == 0.0 and p.lam == 0.0
    with pytest.raises(ValueError):
        ModelParams.from_reduced(-1.0, 1.0, 0.0, 1)


def test_model_context_cache_and_hamiltonian():
    ctx1 = model_context(6)
    ctx2 = model_context(6)
    assert ctx1 is ctx2
    params = ModelParams(-1.0, 0.2, 0.1, 6)
    h_ctx = ctx1.hamiltonian(params)
    h_dir = hamiltonian_direct(ctx1.basis, params)
    assert abs(h_ctx - h_dir).max() < 1e-13


@pytest.mark.parametrize("n, omega, chi, mu", [
    (30, -1.0, 2.0, 0.0), (30, -1.0, 2.0, 0.1), (60, -1.0, 3.0, 0.0),
    (60, -1.0, 3.0, 0.1), (90, -1.0, 3.0, 0.0), (120, -1.0, 3.0, 0.0),
    (31, 1.0, 1.0, 0.2)])
def test_full_space_hamiltonian_equals_the_merged_pattern(n, omega, chi, mu):
    """``ModelContext.hamiltonian``, the CSR sum of T, K and V, holds the
    values of the merged (T, K, V) pattern's matrix, and the residuals
    ``spectrum`` reports for its lifted vectors are bit for bit those of
    that pattern."""
    ctx = model_context(n)
    pattern = HamiltonianTerms.from_matrices(*ctx.operators)
    for params in (ModelParams.from_reduced(omega, chi, mu, n),
                   ModelParams(0.0, 0.0, 0.0, n),
                   ModelParams(-1.0, -0.0, 0.0, n)):
        h, want = ctx.hamiltonian(params), pattern.hamiltonian(params)
        assert h.format == "csr" and h.dtype == np.float64
        assert (h != want).nnz == 0
    params = ModelParams.from_reduced(omega, chi, mu, n)
    result = spectrum(params, 6)
    vecs = np.column_stack([s.amplitudes for s in result.states])
    vals = result.eigenvalues
    ref = np.linalg.norm(pattern.hamiltonian(params) @ vecs
                         - vecs * vals[None, :], axis=0)
    assert np.array_equal(result.residuals.view(np.int64), ref.view(np.int64))


def test_tunneling_collision_stacks_t_over_k():
    ctx = model_context(5)
    T, K, _ = hamiltonian_terms(ctx.basis)
    x = np.random.default_rng(3).standard_normal(ctx.basis.dimension)
    terms = HamiltonianTerms.from_matrices(*ctx.operators)
    stacked = terms.tunneling_collision @ x
    assert np.allclose(stacked, np.concatenate([T @ x, K @ x]),
                       rtol=0.0, atol=1e-12)
    assert terms.tunneling_collision is terms.tunneling_collision


def _assert_bitwise(got, want):
    """The same CSR arrays, float bits included (-0.0 apart from 0.0)."""
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        if g.dtype.kind == "f":
            g, w = g.view(np.uint64), w.view(np.uint64)
        assert np.array_equal(g, w)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 31])
def test_hamiltonian_terms_bitwise_equal_hop_sums(n):
    """The one-pass build equals the hop-operator sums bit for bit, and so
    do the full-space pattern and every sector's projected blocks."""
    basis = build_basis(n)
    want = hamiltonian_terms_from_hops(basis)
    for got, ref in zip(hamiltonian_terms(basis), want):
        _assert_bitwise((got.data, got.indices, got.indptr),
                        (ref.data, ref.indices, ref.indptr))
    ctx = model_context(n)
    fields = ("values", "indptr", "indices")
    pairs = [(HamiltonianTerms.from_matrices(*ctx.operators),
              HamiltonianTerms.from_matrices(*want))]
    for sector, (label, isometries) in zip(ctx.sectors,
                                           symmetry_sectors(basis),
                                           strict=True):
        assert sector.label == label
        pairs.append((sector.terms, HamiltonianTerms.from_matrices(
            *(algebra._project(isometries[0], m) for m in want))))
    for got, ref in pairs:
        _assert_bitwise([getattr(got, f) for f in fields],
                        [getattr(ref, f) for f in fields])


@pytest.mark.parametrize("n", [1, 2, 5, 10, 25, 60])
def test_dense_assembly_bitwise_equals_densified_csr(n):
    """``dense`` is ``hamiltonian(params).toarray()`` bit for bit on the
    full space and on every sector, for all-zero couplings and for data
    with -0.0 entries, which both add into +0.0."""
    ctx = model_context(n)
    params = [ModelParams(0.0, 0.0, 0.0, n), ModelParams(-1.0, -0.0, 0.0, n)]
    params += [ModelParams.from_reduced(omega, chi, mu, n)
               for omega, chi, mu in itertools.product(
                   (-1.0, 1.0), (-3.0, 0.0, 2.1), (0.0, 0.3))
               if n >= 2 or chi == mu == 0.0]
    negative_zeros = 0
    full = HamiltonianTerms.from_matrices(*ctx.operators)
    for terms in (full, *(sector.terms for sector in ctx.sectors)):
        for p in params:
            got, want = terms.dense(p), terms.hamiltonian(p).toarray()
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            data = terms.hamiltonian(p).data
            negative_zeros += np.sum((data == 0.0) & np.signbit(data))
    assert len(ctx.sectors) == (3 if n >= 3 else 2)
    assert negative_zeros > 0 or n == 1
