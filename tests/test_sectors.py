"""S3 symmetry sectors: the isometries, the merged sector spectrum, and the
symmetric ground state they give."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import index_of, symmetry_sectors_one_pass
from triwell.algebra import ModelParams, model_context
from triwell.fock import build_basis, symmetry_sectors
from triwell.purity import generalized_purity
from triwell.spectral import ground_state, spectrum

CYCLIC = (2, 0, 1)          # (n1, n2, n3) -> (n3, n1, n2)
SWAP_23 = (0, 2, 1)         # (n1, n2, n3) -> (n1, n3, n2)


def mode_map(basis, perm):
    """Index i -> index of the state with occupations states[i][perm]."""
    return np.array([index_of(basis, occ[list(perm)]) for occ in basis.states])


@pytest.mark.parametrize("n", range(13))
def test_sector_isometries_orthonormal_and_complete(n):
    basis = build_basis(n)
    sectors = symmetry_sectors(basis)
    stacked = np.hstack([iso.toarray() for _, isos in sectors
                         for iso in isos])
    # orthonormal, mutually orthogonal, and d_A1 + d_A2 + 2 d_E = D
    assert stacked.shape == (basis.dimension, basis.dimension)
    assert np.allclose(stacked.T @ stacked, np.eye(basis.dimension),
                       atol=1e-14)
    cyc, swap = mode_map(basis, CYCLIC), mode_map(basis, SWAP_23)
    parity = {"A1": (1.0,), "A2": (-1.0,), "E": (1.0, -1.0)}
    for label, isos in sectors:
        for iso, sign in zip(isos, parity[label]):
            b = iso.toarray()
            assert np.allclose(b[swap], sign * b, atol=1e-15)
            if label != "E":
                assert np.allclose(b[cyc], b, atol=1e-15)


@pytest.mark.parametrize("n", [*range(13), 31, 60])
def test_per_sector_isometries_bitwise_equal_one_pass(n):
    """Each sector's isometries, built on their own from the basis' orbits,
    are the one-pass CSR matrices bit for bit, as ``symmetry_sectors`` and
    as the lazily built ``Sector.isometries``."""
    want = symmetry_sectors_one_pass(build_basis(n))
    lazy = [(s.label, s.isometries) for s in model_context(n).sectors]
    for got in (symmetry_sectors(build_basis(n)), lazy):
        assert [label for label, _ in got] == [label for label, _ in want]
        for (_, isos), (_, ref) in zip(got, want):
            assert len(isos) == len(ref)
            for g, w in zip(isos, ref):
                assert g.shape == w.shape
                for a, b in ((g.data, w.data), (g.indices, w.indices),
                             (g.indptr, w.indptr)):
                    assert a.dtype == b.dtype
                    assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


@pytest.mark.parametrize("n", [3, 6, 7])
def test_sector_blocks_reduce_the_hamiltonian(n):
    ctx = model_context(n)
    params = ModelParams(-1.3, 0.4, 0.3, n)
    h = ctx.hamiltonian(params).toarray()
    for sector in ctx.sectors:
        block = sector.terms.hamiltonian(params).toarray()
        for iso in sector.isometries:
            b = iso.toarray()
            # the sector is invariant and both E partners share the block
            assert np.allclose(h @ b, b @ block, atol=1e-12)
            assert np.allclose(b.T @ h @ b, block, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 8), sign=st.sampled_from((-1.0, 1.0)),
       magnitude=st.floats(0.1, 2.0), kappa=st.floats(-1.0, 1.0),
       lam=st.floats(-1.0, 1.0))
def test_merged_sector_spectrum_equals_full(n, sign, magnitude, kappa, lam):
    params = ModelParams(sign * magnitude, kappa, lam, n)
    ctx = model_context(n)
    full = np.linalg.eigvalsh(ctx.hamiltonian(params).toarray())
    result = spectrum(params, ctx.basis.dimension)
    assert np.allclose(np.sort(result.eigenvalues), full, rtol=0, atol=1e-10)
    dims = {sector.label: sector.terms.dimension for sector in ctx.sectors}
    assert result.labels.count("A1") == dims["A1"]
    assert result.labels.count("A2") == dims.get("A2", 0)
    assert result.labels.count("E") == 2 * dims.get("E", 0)


def test_ground_state_positive_omega_is_the_full_minimum():
    labels = set()
    for n, kappa, lam in [(5, 0.05, 0.0), (6, 0.3, -0.2), (7, -0.3, 0.0),
                          (8, 0.05, 0.2), (9, 0.05, 0.0)]:
        params = ModelParams(1.0, kappa, lam, n)
        h = model_context(n).hamiltonian(params).toarray()
        e0, state = ground_state(params)
        assert e0 == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-10)
        v = state.amplitudes
        assert np.linalg.norm(h @ v - e0 * v) < 1e-10
        labels.add(spectrum(params, 1).labels[0])
    assert labels == {"A1", "E"}


@pytest.mark.parametrize("chi", [3.0, 4.0, 6.0])
def test_quasi_degenerate_ground_state_is_symmetric(chi):
    """At N = 60 the lowest A1 and E levels are 1e-13 apart; the reported
    ground state must still be the fully symmetric one."""
    ctx = model_context(60)
    _, state = ground_state(ModelParams.from_reduced(-1.0, chi, 0.0, 60))
    v = state.amplitudes
    for perm in (CYCLIC, SWAP_23):
        assert np.max(np.abs(v[mode_map(ctx.basis, perm)] - v)) < 1e-12
    if chi == 3.0:
        assert generalized_purity(state, ctx.gens, 60) == pytest.approx(
            0.1896, abs=1e-4)
