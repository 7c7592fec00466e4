"""Model parameters, su(3) generators and the three-mode Hamiltonian.

The Hamiltonian is built from the bosonic bilinears.  Its rewriting
through the eight su(3) generators differs from it by the multiple
kappa*(N^2/3 - N) of the identity; the tests check that shift
(``verify_equivalence`` in ``tests/oracles.py``).

Note on the generator definitions: the hopping combinations are taken in
their Hermitian form, P_k = a_k^dag a_j + a_j^dag a_k and
J_k = i (a_k^dag a_j - a_j^dag a_k) with j = ((k+1) mod 3) + 1, i.e. mode
pairs (1,3), (2,1), (3,2).  These are the unique Hermitian bilinears
consistent with the generator form of the Hamiltonian and with the
coherent-state purity normalization.

``model_context(N)`` builds the basis and the full-space (T, K, V) once
per N; the full-space pattern, each sector's isometries and blocks, and the
generators wait for their first read (an A1-only run builds no A2 or E).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .fock import (SECTOR_COLUMNS, FockBasis, build_basis, check_hermitian,
                   hop_operator, lex_rank, sector_isometries)


@dataclass(frozen=True)
class ModelParams:
    """Physical couplings of the triple-well model.

    omega: tunneling rate; kappa: self-collision; lam: cross-collision;
    n_particles: total boson number.  The reduced parameters chi, mu and the
    effective tunneling rate are derived.
    """

    omega: float
    kappa: float
    lam: float
    n_particles: int

    def __post_init__(self):
        if self.n_particles < 0:
            raise ValueError("particle number must be non-negative")

    @property
    def omega_eff(self) -> float:
        return self.omega + 2.0 * self.lam * (self.n_particles - 1)

    @property
    def chi(self) -> float:
        self._require_reducible()
        return self.kappa * (self.n_particles - 1) / self.omega

    @property
    def mu(self) -> float:
        self._require_reducible()
        return self.lam * (self.n_particles - 1) / self.omega

    def _require_reducible(self):
        if self.omega == 0.0:
            raise ValueError("reduced parameters are undefined for omega = 0")
        if self.n_particles < 1:
            raise ValueError("reduced parameters require at least one particle")

    @classmethod
    def from_reduced(cls, omega: float, chi: float, mu: float,
                     n_particles: int) -> "ModelParams":
        """Invert chi = kappa (N-1)/omega, mu = lam (N-1)/omega."""
        if omega == 0.0:
            raise ValueError("reduced parameters are undefined for omega = 0")
        if n_particles < 2:
            if chi == 0.0 and mu == 0.0:
                return cls(omega, 0.0, 0.0, n_particles)
            raise ValueError("nonzero chi or mu requires N >= 2")
        scale = omega / (n_particles - 1)
        return cls(omega, chi * scale, mu * scale, n_particles)


def partner_mode(k: int) -> int:
    """Mode pairing j(k) = ((k+1) mod 3) + 1: (1,3), (2,1), (3,2)."""
    return ((k + 1) % 3) + 1


def generators(basis: FockBasis) -> tuple:
    """The eight su(3) generators as Hermitian CSR matrices, in the order
    Q1, Q2, P1, P2, P3, J1, J2, J3.

    Q and P are real; only the J are complex (imaginary antisymmetric).
    """
    n_op = {i: hop_operator(basis, i, i) for i in (1, 2, 3)}
    q1 = 0.5 * (n_op[1] - n_op[2])
    q2 = (n_op[1] + n_op[2] - 2.0 * n_op[3]) / 3.0
    ps, js = [], []
    for k in (1, 2, 3):
        j = partner_mode(k)
        up = hop_operator(basis, k, j)
        dn = hop_operator(basis, j, k)
        ps.append(up + dn)
        js.append(1j * (up - dn))
    return tuple(check_hermitian(g) for g in (q1, q2, *ps, *js))


def hamiltonian_terms(basis: FockBasis):
    """Parameter-independent pieces of the direct Hamiltonian.

    Returns (T, K, V) with H = omega_eff*T + kappa*K - 2*lam*V, where
    T = sum_{i!=j} a_i^dag a_j, K = sum_i a_i^dag2 a_i^2 and
    V = sum over distinct (i,j,k) of n_i a_j^dag a_k.

    Each off-diagonal entry is one hop j -> i: T holds sqrt(n_j (n_i + 1))
    and V that times n_k, the third mode's occupation, which the hop keeps.
    """
    occ = basis.states.T                                  # (3, D)
    i, j = np.array([(a, b) for a in range(3) for b in range(3) if a != b]).T
    hop = occ[j] > 0                                      # (6, D)
    n1, n2 = ((occ[m] + (i == m)[:, None] - (j == m)[:, None])[hop]
              for m in (0, 1))                            # after the hop
    at = (lex_rank(basis.total_particles, n1, n2), np.nonzero(hop)[1])
    t = np.sqrt(occ[j] * (occ[i] + 1.0))[hop]
    T, V = (sp.csr_matrix((x, at), shape=(basis.dimension,) * 2)
            for x in (t, occ[3 - i - j][hop] * t))
    V.eliminate_zeros()
    K = sp.diags(np.sum(occ * (occ - 1.0), axis=0), format="csr")
    return T, K, V


@dataclass(frozen=True)
class HamiltonianTerms:
    """T, K and V of ``hamiltonian_terms`` on one shared CSR pattern.

    ``values`` holds the three matrices' entries on that pattern, so that
    H = omega_eff T + kappa K - 2 lam V is one elementwise sum, stored as
    CSR (``hamiltonian``) or added into a dense array (``dense``).
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray               # (3, nnz): T, K, V

    @classmethod
    def from_matrices(cls, T, K, V) -> "HamiltonianTerms":
        dim = T.shape[0]
        coo = [m.tocoo() for m in (T, K, V)]
        keys = np.concatenate([c.row.astype(np.int64) * dim + c.col
                               for c in coo])
        pattern, slot = np.unique(keys, return_inverse=True)
        values = np.zeros((3, pattern.size))
        ends = np.cumsum([c.nnz for c in coo])
        for row, c, end in zip(values, coo, ends):
            np.add.at(row, slot[end - c.nnz:end], c.data)
        indptr = np.searchsorted(pattern // dim, np.arange(dim + 1))
        return cls(indptr, pattern % dim, values)

    @property
    def dimension(self) -> int:
        return self.indptr.size - 1

    def _data(self, params: ModelParams) -> np.ndarray:
        t, k, v = self.values
        return params.omega_eff * t + params.kappa * k - 2.0 * params.lam * v

    def hamiltonian(self, params: ModelParams) -> sp.csr_matrix:
        return sp.csr_matrix((self._data(params), self.indices, self.indptr),
                             shape=(self.dimension,) * 2)

    @cached_property
    def _flat(self) -> np.ndarray:
        """Row-major dense position of each entry, built on first use."""
        rows = np.repeat(np.arange(self.dimension), np.diff(self.indptr))
        return rows * self.dimension + self.indices

    def dense(self, params: ModelParams) -> np.ndarray:
        """``hamiltonian(params).toarray()`` bit for bit, without the CSR."""
        h = np.zeros(self.dimension ** 2)
        h[self._flat] += self._data(params)
        return h.reshape(self.dimension, -1)

    @cached_property
    def tunneling_collision(self) -> sp.csr_matrix:
        """T stacked over K, (2D, D), built on first use: one product
        ``tunneling_collision @ x`` gives T x and K x."""
        dim, nnz = self.dimension, self.indices.size
        return sp.csr_matrix(
            (self.values[:2].ravel(), np.tile(self.indices, 2),
             np.concatenate([self.indptr, self.indptr[1:] + nnz])),
            shape=(2 * dim, dim))


@dataclass(frozen=True)
class Sector:
    """One S3 symmetry sector of an N-particle space: its isometries B and
    the real blocks B^T T B, B^T K B, B^T V B of the Hamiltonian terms.

    ``isometries`` holds one (D, d) matrix for A1 and A2 and the two
    partners for E, which share the block.  Both are built on first read,
    ``terms`` by projecting the full-space ``operators``.
    """

    label: str
    basis: FockBasis
    operators: tuple                # full-space (T, K, V), CSR

    @cached_property
    def isometries(self) -> tuple:
        return sector_isometries(self.basis, self.label)

    @cached_property
    def terms(self) -> HamiltonianTerms:
        return HamiltonianTerms.from_matrices(
            *(_project(self.isometries[0], m) for m in self.operators))


def _project(isometry: sp.csr_matrix, m: sp.csr_matrix) -> sp.csr_matrix:
    """B^T M B, symmetrized so that roundoff leaves it exactly symmetric."""
    block = isometry.T @ m @ isometry
    return ((block + block.T) * 0.5).tocsr()


@dataclass(frozen=True)
class ModelContext:
    """Cached per-N operator machinery shared by scans and solvers; the
    shared pattern ``terms`` and the generators are built on first read."""

    basis: FockBasis
    operators: tuple                # (T, K, V) of ``hamiltonian_terms``
    sectors: tuple                  # Sector, in the order A1, A2, E

    @cached_property
    def terms(self) -> HamiltonianTerms:
        return HamiltonianTerms.from_matrices(*self.operators)

    @cached_property
    def gens(self) -> tuple:
        """``generators(basis)``, built on first use."""
        return generators(self.basis)

    def hamiltonian(self, params: ModelParams) -> sp.csr_matrix:
        if params.n_particles != self.basis.total_particles:
            raise ValueError("parameter N does not match cached context")
        return self.terms.hamiltonian(params)


@lru_cache(maxsize=None)
def model_context(n_particles: int) -> ModelContext:
    basis = build_basis(n_particles)
    ops = hamiltonian_terms(basis)
    return ModelContext(basis, ops, tuple(
        Sector(label, basis, ops) for label, columns in SECTOR_COLUMNS.items()
        if np.take(columns, basis.orbits[2]).any()))
