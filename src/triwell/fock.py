"""N-boson, three-mode Fock space, sparse bilinear ladder operators and the
S3 symmetry sectors.

The basis enumerates occupation triples (n1, n2, n3) with n1 + n2 + n3 = N
in lexicographic order on (n1, n2); n3 is implied, and ``lex_rank`` gives
the position of a triple in closed form.  All bilinears a_i^dag a_j are
realized as real sparse matrices on this basis, and each S3 sector's
isometries are built on their own from the basis' orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

MODES = (1, 2, 3)

_HERMITICITY_TOL = 1e-12


def lex_rank(n_particles: int, n1, n2):
    """Position of (n1, n2, N - n1 - n2) in the lexicographic basis order.

    The states whose first occupation is below n1 number
    n1 (N + 1) - n1 (n1 - 1) / 2; works elementwise on integer arrays.
    """
    return n1 * (n_particles + 1) - n1 * (n1 - 1) // 2 + n2


@dataclass(frozen=True)
class FockBasis:
    """Ordered enumeration of the N-particle, 3-mode occupation triples."""

    total_particles: int
    states: np.ndarray                       # (dim, 3) integer occupations

    @property
    def dimension(self) -> int:
        return self.states.shape[0]

    @cached_property
    def orbits(self) -> tuple:
        """S3 orbit index and kind of each state, and kind of each orbit."""
        desc = -np.sort(-self.states, axis=1)
        _, rep, orbit = np.unique(lex_rank(self.total_particles, *desc.T[:2]),
                                  return_index=True, return_inverse=True)
        kind = 1 + (desc[:, 0] != desc[:, 1]) + (desc[:, 1] != desc[:, 2])
        return orbit, kind, kind[rep]       # rep: one state of each orbit


def build_basis(n_particles: int) -> FockBasis:
    """Enumerate the N-boson sector; dimension is (N+1)(N+2)/2."""
    if n_particles < 0:
        raise ValueError(f"particle number must be non-negative, got {n_particles}")
    n = int(n_particles)
    n1 = np.repeat(np.arange(n + 1), np.arange(n + 1, 0, -1))
    n2 = np.arange(n1.size) - lex_rank(n, n1, 0)
    return FockBasis(n, np.stack([n1, n2, n - n1 - n2], axis=1))


def check_hermitian(m) -> sp.csr_matrix:
    """``m`` as a CSR matrix; raises ValueError unless it is square and
    Hermitian to 1e-12 of its largest entry (or of 1, if that is larger)."""
    m = sp.csr_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("operator matrix must be square")
    d = m - m.conjugate().transpose()
    defect = 0.0 if d.nnz == 0 else float(np.max(np.abs(d.data)))
    scale = 0.0 if m.nnz == 0 else float(np.max(np.abs(m.data)))
    if defect > _HERMITICITY_TOL * max(1.0, scale):
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    return m


def hop_operator(basis: FockBasis, i: int, j: int) -> sp.csr_matrix:
    """Matrix of a_i^dag a_j on the basis (one non-Hermitian part).

    <n'| a_i^dag a_j |n> = sqrt(n_j) sqrt(n_i + 1) for n' = n - e_j + e_i;
    i = j gives the diagonal number operator of mode i.
    """
    if i not in MODES or j not in MODES:
        raise ValueError(f"mode indices must be in {MODES}, got ({i}, {j})")
    dim = basis.dimension
    occ = basis.states
    if i == j:
        return sp.diags(occ[:, i - 1].astype(float), format="csr")
    cols = np.flatnonzero(occ[:, j - 1])
    target = occ[cols]
    target[:, j - 1] -= 1
    target[:, i - 1] += 1
    rows = lex_rank(basis.total_particles, target[:, 0], target[:, 1])
    vals = np.sqrt(occ[cols, j - 1] * (occ[cols, i - 1] + 1.0))
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


# Orthonormal partners of the two-dimensional irrep E of S3 on the three
# mode positions (the sum-zero plane): e1 is even and e2 odd under the swap
# of positions 2 and 3.
_E_PARTNERS = np.array([[2.0, -1.0, -1.0],
                        [0.0, np.sqrt(3.0), -np.sqrt(3.0)]]) / np.sqrt(6.0)


# Columns of A1, A2, E from an orbit of 1, 2 or 3 distinct occupations (kind).
SECTOR_COLUMNS = {"A1": (0, 1, 1, 1), "A2": (0, 0, 0, 1), "E": (0, 0, 1, 2)}


def sector_isometries(basis: FockBasis, label: str) -> tuple:
    """Real orthonormal isometries onto one S3 irreducible sector.

    Mode permutations map basis states onto basis states, so the orbit of a
    triple spans an invariant subspace.  An orbit of one state (all
    occupations equal) carries A1, one of three (two equal) A1 + E, one of
    six (all distinct) A1 + A2 + 2E.  A1 columns are normalized orbit sums,
    A2 columns signed sums over six-state orbits.  An E column reads the
    partner vectors at the position of the odd occupation (three-state
    orbits) or of the largest one (six-state orbits); the second E copy of
    a six-state orbit multiplies the other partner by the permutation sign.

    Returns one (D, d) CSR matrix for A1 and A2, and for E two: the partners
    even and odd under the swap of modes 2 and 3, on which an S3-invariant
    operator has the same block (d_A1 + d_A2 + 2 d_E = D).
    """
    occ, dim = basis.states, basis.dimension
    orbit, kind, orbit_kind = basis.orbits
    columns = np.take(SECTOR_COLUMNS[label], orbit_kind)
    shape = (dim, int(columns.sum()))
    first = (np.cumsum(columns) - columns)[orbit]   # orbit's first column
    if label == "A1":
        norm = 1.0 / np.sqrt(np.array([0.0, 1.0, 3.0, 6.0])[kind])
        return (_isometry(np.arange(dim), first, norm, shape),)
    inversions = np.sum(occ[:, [0, 0, 1]] < occ[:, [1, 2, 2]], axis=1)
    sign = 1.0 - 2.0 * (inversions % 2)
    six = np.flatnonzero(kind == 3)
    if label == "A2":
        return (_isometry(six, first[six], sign[six] / np.sqrt(6.0), shape),)
    odd_one = np.where(occ[:, 0] == occ[:, 1], 2,
                       np.where(occ[:, 0] == occ[:, 2], 1, 0))
    pos = np.where(kind == 2, odd_one, np.argmax(occ, axis=1))
    carry = np.flatnonzero(kind > 1)
    rows = np.concatenate([carry, six])
    cols = np.concatenate([first[carry], first[six] + 1])
    weight = np.where(kind == 2, 1.0, np.sqrt(0.5))
    e1, e2 = _E_PARTNERS[0][pos], _E_PARTNERS[1][pos]
    even = np.concatenate([weight[carry] * e1[carry],
                           weight[six] * sign[six] * e2[six]])
    odd = np.concatenate([weight[carry] * e2[carry],
                          -weight[six] * sign[six] * e1[six]])
    return tuple(_isometry(rows, cols, v, shape) for v in (even, odd))


def symmetry_sectors(basis: FockBasis) -> list:
    """[(label, ``sector_isometries``)] of the non-empty sectors, A1, A2, E."""
    return [(label, isos) for label in SECTOR_COLUMNS
            for isos in [sector_isometries(basis, label)] if isos[0].shape[1]]


def _isometry(rows, cols, vals, shape):
    m = sp.csr_matrix((vals, (rows, cols)), shape=shape)
    m.eliminate_zeros()
    return m
