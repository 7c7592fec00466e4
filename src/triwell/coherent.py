"""SU(3) coherent states and normalized states on the Fock basis.

A point of the coherent-state manifold is the complex pair (w1, w2) with the
third amplitude gauge fixed to 1; the same point is the mean-field
phase-space point of ``semiclassical``.  Fock amplitudes use log-gamma
accumulation so particle numbers of several hundred stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockBasis


@dataclass(frozen=True)
class ClassicalPoint:
    """Point (w1, w2) of the coherent-state manifold, w3 = 1 gauge.

    It labels the coherent state |N; w> and is the mean-field phase-space
    point.  w1 and w2 are scalars, or complex arrays of one shape (the
    samples of a trajectory), on which ``d``, ``canonical`` and ``i_z``
    act element-wise.  |w|^2 is ``abs(w) ** 2``: Python's hypot on a
    scalar, ``np.absolute`` on an array.
    """

    w1: complex
    w2: complex

    @classmethod
    def from_twin_w(cls, w) -> "ClassicalPoint":
        """The twin-sector point w1 = w2 = w."""
        return cls(complex(w), complex(w))

    @classmethod
    def from_twin_angles(cls, theta: float, phi: float) -> "ClassicalPoint":
        """Twin sphere chart tau = sqrt(2) w = tan(theta/2) e^{-i phi}."""
        return cls.from_twin_w(
            math.tan(theta / 2.0) * np.exp(-1j * phi) / math.sqrt(2.0))

    @property
    def d(self):
        """Normalization denominator |w1|^2 + |w2|^2 + 1."""
        return abs(self.w1) ** 2 + abs(self.w2) ** 2 + 1.0

    def canonical(self, n_particles: int):
        """Chart (I1, I2, phi1, phi2): w_j = sqrt(I_j/(N-I1-I2)) e^{-i phi_j}.

        phi_j is ``-np.angle(w_j)`` everywhere, w_j = 0 included.
        """
        d = self.d
        return (n_particles * abs(self.w1) ** 2 / d,
                n_particles * abs(self.w2) ** 2 / d,
                -np.angle(self.w1), -np.angle(self.w2))

    @property
    def theta(self) -> float:
        """Twin sphere polar angle, tan(theta/2) = sqrt(2) |w1|."""
        return 2.0 * math.atan(abs(math.sqrt(2.0) * self.w1))

    @property
    def i_z(self):
        """Population balance (4 I1 - N)/N on the twin sphere."""
        a2 = abs(self.w1) ** 2
        return (2.0 * a2 - 1.0) / (2.0 * a2 + 1.0)


@dataclass(frozen=True)
class QuantumState:
    """Normalized amplitude vector over a Fock basis."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (self.basis.dimension,):
            raise ValueError("amplitude vector does not match basis dimension")


def log_multinomial(n: int, occ: np.ndarray) -> np.ndarray:
    """ln( N! / (n1! n2! n3!) ) per basis state, via log-gamma."""
    from scipy.special import gammaln
    return gammaln(n + 1.0) - np.sum(gammaln(occ + 1.0), axis=1)


def coherent_state(basis: FockBasis, point: ClassicalPoint) -> QuantumState:
    """Fock expansion C sqrt(N!/(n1! n2! n3!)) w1^n1 w2^n2, C = D^{-N/2}."""
    n = basis.total_particles
    occ = basis.states
    logmult = log_multinomial(n, occ)
    w = (point.w1, point.w2)
    log_mag = 0.5 * logmult - 0.5 * n * np.log(point.d)
    phase = np.zeros(basis.dimension)
    alive = np.ones(basis.dimension, dtype=bool)
    for j, wj in enumerate(w):
        nj = occ[:, j]
        if wj == 0:
            alive &= (nj == 0)
        else:
            log_mag = log_mag + nj * np.log(abs(wj))
            phase = phase + nj * np.angle(wj)
    amps = np.where(alive, np.exp(log_mag) * np.exp(1j * phase), 0.0)
    return QuantumState(basis, amps)
