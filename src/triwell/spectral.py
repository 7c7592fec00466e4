"""Symmetry-adapted eigensolver for ground states and low-lying spectra.

The Hamiltonian is real and commutes with every permutation of the three
modes (the group S3), so it is block diagonal on the A1, A2 and E sectors
that ``model_context`` carries (see ``fock.symmetry_sectors``).  Each block
is solved on its own in float64 and the levels are merged; an E level is
doubly degenerate and is reported once per partner.  Inside a cluster of
levels closer than the ``degenerate_clusters`` tolerance the order is A1,
A2, E, so a quasi-degenerate ground state is the symmetric one whenever A1
is in its cluster: symmetry, not LAPACK, picks the vector.
Perron-Frobenius proves an A1 ground state only for omega < 0, mu = 0;
otherwise the minimum over the sectors decides.

Dense LAPACK solves the blocks (``HamiltonianTerms.dense``) while the full
dimension is at most 2000 (N = 60 gives dimension 1891); above that a restarted
Krylov solve of the CSR block from a fixed starting vector keeps results
deterministic.  A dense fallback guards against Krylov misconvergence.
Reported residuals are those of the lifted vectors in the full space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .algebra import HamiltonianTerms, ModelParams, model_context
from .coherent import QuantumState
from .errors import SolverError

DENSE_LIMIT = 2000
_RESIDUAL_FACTOR = 1e-10
# Relative spacing below which levels form one degenerate cluster.
_CLUSTER_TOL = 1e-9
# Order of the sectors inside a quasi-degenerate cluster.
_SECTOR_ORDER = {"A1": 0, "A2": 1, "E": 2}


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray          # ascending; A1, A2, E inside a cluster
    states: list                     # QuantumState, one per level
    residuals: np.ndarray            # per-pair ||Hv - Ev||
    labels: tuple                    # per-level sector: "A1", "A2" or "E"
    # lowest level of a sector other than the ground level's, minus the
    # ground level (inf when there is no other sector)
    sector_gap: float


def eigensolve_lowest(terms: HamiltonianTerms, params: ModelParams, k: int):
    """k lowest eigenpairs of the real symmetric matrix
    ``terms.hamiltonian(params)``: (ascending eigenvalues, orthonormal
    sign-fixed eigenvectors as columns, the matrix solved: dense for LAPACK).

    ``terms`` is the whole N-particle space or one of its symmetry blocks.
    LAPACK solves it while the whole space, of dimension (N+1)(N+2)/2, is
    at most DENSE_LIMIT or k exceeds a quarter of the block; Krylov
    otherwise.  Non-finite couplings raise ValueError on either path, and
    the LAPACK wrappers here and in ``purity`` skip their own finiteness
    scans.  Finite couplings can still overflow an entry of the matrix; a
    solve that then fails or returns fewer than k pairs or a non-finite
    value raises ValueError naming those entries, so only a failed solve
    scans the matrix.
    """
    if not np.isfinite([params.omega_eff, params.kappa, params.lam]).all():
        raise ValueError(f"couplings must be finite: omega_eff = "
                         f"{params.omega_eff:g}, kappa = {params.kappa:g}, "
                         f"lam = {params.lam:g}")
    dim = terms.dimension
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in 1..{dim}, got {k}")
    n = params.n_particles
    if (n + 1) * (n + 2) // 2 <= DENSE_LIMIT or k > dim // 4:
        m = terms.dense(params)
        vals, vecs = la.eigh(m, subset_by_index=[0, k - 1],
                             check_finite=False)
    else:
        m = terms.hamiltonian(params)
        try:
            vals, vecs = _krylov_lowest(m, k)
        except spla.ArpackError:
            _check_entries(m, params)
            raise
    if vals.size < k or not np.all(np.isfinite(vals)):
        _check_entries(m, params)
        raise SolverError(f"the eigensolver returned {vals.size} of {k} "
                          f"pairs or a non-finite value")
    vecs = _fix_signs(vecs[:, np.argsort(vals)])
    vals = np.sort(vals)
    residuals = np.linalg.norm(m @ vecs - vecs * vals[None, :], axis=0)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.any(residuals > _RESIDUAL_FACTOR * scale):
        # Krylov result did not meet the residual invariant; redo densely.
        m = terms.dense(params)
        vals, vecs = la.eigh(m, subset_by_index=[0, k - 1],
                             check_finite=False)
        vecs = _fix_signs(vecs)
        residuals = np.linalg.norm(m @ vecs - vecs * vals[None, :], axis=0)
        _check_residuals(residuals, scale)
    return vals, vecs, m


def _check_entries(m, params: ModelParams):
    """Raise ValueError if the dense or CSR matrix ``m`` holds entries that
    overflowed to inf or nan."""
    data = m.data if sp.issparse(m) else m
    bad = np.count_nonzero(~np.isfinite(data))
    if bad:
        raise ValueError(
            f"Hamiltonian entries overflow: {bad} of {data.size} stored "
            f"entries are not finite at omega_eff = {params.omega_eff:g}, "
            f"kappa = {params.kappa:g}, lam = {params.lam:g}")


def _check_residuals(residuals, scale):
    if np.any(residuals > _RESIDUAL_FACTOR * scale):
        raise SolverError(
            f"residuals {residuals} exceed {_RESIDUAL_FACTOR:g} * {scale:g}")


def _krylov_lowest(m, k):
    v0 = np.ones(m.shape[0]) / np.sqrt(m.shape[0])
    try:
        vals, vecs = spla.eigsh(m, k=k, which="SA", v0=v0,
                                ncv=min(m.shape[0], max(4 * k + 20, 40)))
    except spla.ArpackNoConvergence as exc:
        raise SolverError(
            f"ARPACK did not converge: {len(exc.eigenvalues)} of {k} pairs "
            f"found") from exc
    return vals, vecs


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude amplitude of each real vector positive."""
    pivots = np.argmax(np.abs(vecs), axis=0)
    return vecs * np.sign(vecs[pivots, np.arange(vecs.shape[1])])


def degenerate_clusters(eigenvalues: np.ndarray) -> list:
    """Group indices of eigenvalues closer than _CLUSTER_TOL * spectral
    scale."""
    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    clusters, current = [], [0]
    for i in range(1, len(eigenvalues)):
        if abs(eigenvalues[i] - eigenvalues[i - 1]) < _CLUSTER_TOL * scale:
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    clusters.append(current)
    return clusters


def sector_order(levels: list) -> list:
    """Levels, tuples that start (energy, sector label), in ascending
    energy with the order A1, A2, E inside each ``degenerate_clusters``
    cluster."""
    levels = sorted(levels, key=lambda level: level[0])
    clusters = degenerate_clusters(np.array([level[0] for level in levels]))
    return [level for cluster in clusters
            for level in sorted((levels[i] for i in cluster),
                                key=lambda level: _SECTOR_ORDER[level[1]])]


def spectrum(params: ModelParams, k: int) -> SpectrumResult:
    """k lowest eigenpairs of the model Hamiltonian at the given parameters,
    solved sector by sector and labelled A1, A2 or E."""
    ctx = model_context(params.n_particles)
    dim = ctx.basis.dimension
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in 1..{dim}, got {k}")
    levels = []                      # (energy, label, block vector, isometry)
    for sector in ctx.sectors:
        partners = len(sector.isometries)
        vals, vecs = eigensolve_lowest(
            sector.terms, params,
            min(-(-k // partners), sector.terms.dimension))[:2]
        for energy, vec in zip(vals, vecs.T):
            levels += [(float(energy), sector.label, vec, isometry)
                       for isometry in sector.isometries]
    levels = sector_order(levels)
    ground, ground_label = levels[0][0], levels[0][1]
    other = [level[0] for level in levels if level[1] != ground_label]
    kept = levels[:k]
    vals = np.array([level[0] for level in kept])
    vecs = _fix_signs(np.column_stack(
        [isometry @ vec for _, _, vec, isometry in kept]))
    h = ctx.hamiltonian(params)
    residuals = np.linalg.norm(h @ vecs - vecs * vals[None, :], axis=0)
    _check_residuals(residuals, max(1.0, float(np.max(np.abs(vals)))))
    return SpectrumResult(
        vals, [QuantumState(ctx.basis, vecs[:, i]) for i in range(k)],
        residuals, tuple(level[1] for level in kept),
        min(other, default=math.inf) - ground)


def ground_state(params: ModelParams):
    """Lowest eigenpair; returns (energy, QuantumState)."""
    result = spectrum(params, 1)
    return float(result.eigenvalues[0]), result.states[0]
