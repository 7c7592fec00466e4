"""Occupational Husimi function and collective-phase distribution.

The Husimi phase integral is evaluated in closed form (the uniform phase
average kills all cross terms), with log-space accumulation so large N stays
finite.  Grid points are taken in blocks whose (points x basis) log matrix
is built, exponentiated and summed in place in two reused buffers.  The
phase distribution is the squared collective-phase overlap, normalized
automatically because (n1, n2) uniquely labels basis states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherent import QuantumState, log_multinomial


@dataclass(frozen=True)
class ScalarField2D:
    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray             # (len(axis1), len(axis2)), >= 0, finite
    mask: np.ndarray               # True where the grid point is valid

    def max_value(self) -> float:
        return float(np.max(self.values[self.mask])) if np.any(self.mask) else 0.0


# Elements of the (points x dim) log matrix evaluated at once.
_BLOCK = 1 << 14
# Finite stand-in for ln 0: times n = 0 it gives -0.0, not NaN.
_LOG_FLOOR = -1e308


def husimi_population(state: QuantumState, i1_grid,
                      i2_grid) -> ScalarField2D:
    """Quasi-probability of mean occupations Q_I(I1, I2).

    Closed form: the phase average leaves |C|^2 sum_n multinomial *
    r1^{2 n1} r2^{2 n2} |c_n|^2 with r_j^2 = I_j / (N - I1 - I2); the
    simplex boundary I1 + I2 = N is the analytic n3 = 0 shell limit.
    Grid points outside the simplex are masked out and read 0.
    """
    n = state.basis.total_particles
    i1 = np.asarray(i1_grid, dtype=float)
    i2 = np.asarray(i2_grid, dtype=float)
    x1, x2 = np.meshgrid(i1, i2, indexing="ij")
    mask = ~((x1 < 0) | (x2 < 0) | (x1 + x2 > n * (1.0 + 1e-12)))
    values = np.zeros(mask.shape)
    if n == 0:
        values[mask] = float(np.abs(state.amplitudes[0]) ** 2)
    else:
        values[mask] = _husimi_points(state, x1[mask], x2[mask])
    values = np.clip(values, 0.0, None)
    return ScalarField2D(i1, i2, values, mask)


def _husimi_points(state: QuantumState, x1, x2) -> np.ndarray:
    """Q_I at the points (x1[k], x2[k]) of the simplex, N >= 1."""
    n = state.basis.total_particles
    occ = state.basis.states
    base = log_multinomial(n, occ) + 2.0 * _safe_log(np.abs(state.amplitudes))
    n1 = occ[:, 0].astype(float)
    n2 = occ[:, 1].astype(float)
    i3 = n - x1 - x2
    shell = i3 <= 1e-12 * n
    inner = ~shell
    q = np.empty(x1.size)
    q[inner] = _sum_exp(base, n1, n2, x1[inner] / i3[inner],
                        x2[inner] / i3[inner], n * np.log(n / i3[inner]))
    # boundary shell: only n3 = 0 states contribute
    total = x1[shell] + x2[shell]
    on_shell = occ[:, 2] == 0
    q[shell] = _sum_exp(base[on_shell], n1[on_shell], n2[on_shell],
                        x1[shell] / total, x2[shell] / total,
                        np.zeros(total.size))
    return q


def _sum_exp(base, n1, n2, r1, r2, shift):
    """sum_n exp(base_n + n1 ln r1 + n2 ln r2 - shift) for each point.

    Blocks of points are evaluated in place in two buffers of about _BLOCK
    elements.  With the log ratios clamped at _LOG_FLOOR, n = 0 at ratio 0
    adds -0.0 and n >= 1 adds a term whose exp is exactly 0."""
    out = np.empty(r1.size)
    ln1 = np.maximum(_safe_log(r1), _LOG_FLOOR)
    ln2 = np.maximum(_safe_log(r2), _LOG_FLOOR)
    step = max(1, _BLOCK // base.size)
    logs = np.empty((min(step, r1.size), base.size))
    term = np.empty_like(logs)
    with np.errstate(over="ignore"):
        for lo in range(0, r1.size, step):
            hi = min(lo + step, r1.size)
            block, extra = logs[:hi - lo], term[:hi - lo]
            np.multiply(ln1[lo:hi, None], n1, out=block)
            block += base
            np.multiply(ln2[lo:hi, None], n2, out=extra)
            block += extra
            block -= shift[lo:hi, None]
            np.exp(block, out=block)
            np.sum(block, axis=1, out=out[lo:hi])
    return out


def _safe_log(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(x > 0.0, np.log(np.where(x > 0.0, x, 1.0)), -np.inf)


def phase_distribution(state: QuantumState, phi1_grid,
                       phi2_grid) -> ScalarField2D:
    """Collective-phase distribution |sum_n e^{i(n1 phi1 + n2 phi2)} c_n|^2."""
    basis = state.basis
    n = basis.total_particles
    phi1 = np.asarray(phi1_grid, dtype=float)
    phi2 = np.asarray(phi2_grid, dtype=float)
    occ = basis.states
    coeff = np.zeros((n + 1, n + 1), dtype=complex)
    coeff[occ[:, 0], occ[:, 1]] = state.amplitudes
    modes = np.arange(n + 1)
    e1 = np.exp(1j * np.outer(phi1, modes))          # (P1, n+1)
    e2 = np.exp(1j * np.outer(modes, phi2))          # (n+1, P2)
    field = e1 @ coeff @ e2
    values = np.abs(field) ** 2
    mask = np.ones(values.shape, dtype=bool)
    return ScalarField2D(phi1, phi2, values, mask)


def phase_marginal_variance(field: ScalarField2D, axis: int = 0) -> float:
    """Circular variance 1 - |<e^{i phi}>| of one phase marginal."""
    if axis == 0:
        marginal = np.sum(field.values, axis=1)
        angles = field.axis1
    else:
        marginal = np.sum(field.values, axis=0)
        angles = field.axis2
    weight = float(np.sum(marginal))
    if weight == 0.0:
        return 1.0
    resultant = np.abs(np.sum(marginal * np.exp(1j * angles))) / weight
    return float(1.0 - resultant)


def count_local_maxima(field: ScalarField2D, rel_threshold: float) -> int:
    """Strict 8-neighborhood maxima above rel_threshold * max, with plateau
    components merged (symmetric states produce exact ties)."""
    if not 0.0 < rel_threshold < 1.0:
        raise ValueError("relative threshold must lie in (0, 1)")
    vals = np.where(field.mask, field.values, -np.inf)
    peak = field.max_value()
    if peak <= 0.0:
        return 0
    from scipy import ndimage
    local_max = ndimage.maximum_filter(vals, size=3, mode="constant",
                                       cval=-np.inf)
    candidates = (vals == local_max) & field.mask & (vals > rel_threshold * peak)
    labels, count = ndimage.label(candidates)
    total = 0
    for comp in range(1, count + 1):
        inside = labels == comp
        ring = ndimage.binary_dilation(inside) & ~inside & field.mask
        if not np.any(ring) or np.max(vals[ring]) < np.min(vals[inside]):
            total += 1
    return total
