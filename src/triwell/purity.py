"""Generalized su(3) purity, its chi-derivative and finite-size scaling.

The purity of the ground state drops from 1 (coherent, separable) toward 0
as particle entanglement builds up across the transition; the minimizer of
dP/dchi defines the scalable quantum critical parameter chi_c^q(N), which
approaches the semiclassical critical value as a power law in N.

The ground level lies in one S3 sector (A1 wherever Perron-Frobenius
applies: omega < 0, mu = 0).  Its state is S3-symmetric: the real vector v
of a one-dimensional sector, or, for an E doublet, the mixture
(|e1><e1| + |e2><e2|) / 2 of the two partners, which share the E-block
vector v.  On such a state Q1 and Q2, which transform as E, have zero
expectation; the J, imaginary antisymmetric, vanish on real vectors; and
P1, P2, P3 share <T>/3, where T = P1 + P2 + P3 is the tunneling term.
Hence P = <T>^2 / (4 N^2) with <T> = v^T T v on the sector's block.  At
fixed mu, dH/dchi = omega / (N - 1) K, so first-order perturbation theory
on the same block gives the exact chi-derivative

    dP/dchi = <T> / (2 N^2) * d<T>/dchi,
    d<T>/dchi = -2 omega / (N - 1) * x^T K v,

where x = (H - E0)^+ T v solves the bordered system
[[H - E0, v], [v^T, 0]] [x; l] = [T v; 0].
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import spectral
from .algebra import ModelParams, model_context
from .coherent import QuantumState
from .errors import BracketingError


@dataclass(frozen=True)
class PurityScan:
    chi_grid: np.ndarray
    purity: np.ndarray
    derivative: np.ndarray          # centered differences; nan at the ends
                                    # and across a ground-sector change
    sectors: tuple                  # ground sector label per chi


@dataclass(frozen=True)
class ScalingFit:
    ln_prefactor: float
    ln_prefactor_stderr: float
    exponent: float
    exponent_stderr: float
    residuals: np.ndarray


# Generalized-purity weights: P = (9/N^2) * sum <G>^2 / weight over the
# eight generators, chosen so coherent states give exactly 1.
_PURITY_WEIGHTS = {"q1": 3.0, "q2": 4.0, "p": 12.0, "j": 12.0}


def generalized_purity(state: QuantumState, gens: tuple,
                       n_particles: int) -> float:
    """Squared-expectation purity over the eight su(3) generators
    (``algebra.generators``: Q1, Q2, P1, P2, P3, J1, J2, J3).

    Equals 1 exactly on coherent states and 0 on maximally spread states.
    """
    if n_particles == 0:
        raise ValueError("purity is undefined for zero particles")
    v = state.amplitudes
    q1, q2, p1, p2, p3, j1, j2, j3 = (float(np.real(np.vdot(v, g @ v)))
                                      for g in gens)
    total = (q1 ** 2 / _PURITY_WEIGHTS["q1"]
             + q2 ** 2 / _PURITY_WEIGHTS["q2"]
             + (p1 ** 2 + p2 ** 2 + p3 ** 2) / _PURITY_WEIGHTS["p"]
             + (j1 ** 2 + j2 ** 2 + j3 ** 2) / _PURITY_WEIGHTS["j"])
    return 9.0 / n_particles ** 2 * total


def _ground_block(omega: float, mu: float, n_particles: int, chi: float):
    """(sector label, block Hamiltonian as CSR, E0, real block vector v,
    T v, K v) of the ground level's S3 sector.

    Where Perron-Frobenius proves an A1 ground state (omega < 0, mu = 0)
    only the A1 block is solved; elsewhere each sector's lowest level is,
    and ``spectral.sector_order`` picks the ground level among them.
    """
    params = ModelParams.from_reduced(omega, chi, mu, n_particles)
    sectors = model_context(n_particles).sectors
    if omega < 0 and mu == 0:
        sectors = sectors[:1]
    levels = []
    for sector in sectors:
        vals, vecs, h = spectral.eigensolve_lowest(sector.terms, params, 1)
        levels.append((float(vals[0]), sector.label, h, vecs[:, 0],
                       sector.terms))
    if len(levels) > 1:
        levels = spectral.sector_order(levels)
    e0, label, h, v, terms = levels[0]
    tv, kv = np.split(terms.tunneling_collision @ v, 2)
    return label, h, e0, v, tv, kv


def ground_state_purity(omega: float, mu: float, n_particles: int,
                        chi: float) -> float:
    """Generalized purity of the ground level at reduced parameters; an E
    doublet counts as the mixture of its two partners."""
    if n_particles == 0:
        raise ValueError("purity is undefined for zero particles")
    _, _, _, v, tv, _ = _ground_block(omega, mu, n_particles, chi)
    t = float(v @ tv)
    return t * t / (4.0 * n_particles ** 2)


def purity_derivative(omega: float, mu: float, n_particles: int,
                      chi: float) -> float:
    """Exact dP/dchi of the ground level's purity for N >= 2."""
    return _ground_derivative(omega, mu, n_particles, chi)[1]


def _ground_derivative(omega: float, mu: float, n_particles: int,
                       chi: float):
    """(ground sector label, exact dP/dchi)."""
    if n_particles < 2:
        raise ValueError("the exact dP/dchi needs N >= 2")
    label, h, e0, v, tv, kv = _ground_block(omega, mu, n_particles, chi)
    x = _bordered_solve(h.toarray(), e0, v, tv)
    dt_dchi = -2.0 * omega / (n_particles - 1) * float(x @ kv)
    return label, float(v @ tv) / (2.0 * n_particles ** 2) * dt_dchi


def _bordered_solve(h: np.ndarray, e0: float, v: np.ndarray,
                    rhs: np.ndarray) -> np.ndarray:
    """x with (H - E0) x = rhs - (v.rhs) v and v.x = 0, i.e.
    x = (H - E0)^+ rhs for the nondegenerate eigenpair (E0, v)."""
    dim = v.size
    a = np.zeros((dim + 1, dim + 1))
    a[:dim, :dim] = h
    a[np.arange(dim), np.arange(dim)] -= e0
    a[:dim, dim] = v
    a[dim, :dim] = v
    return np.linalg.solve(a, np.append(rhs, 0.0))[:dim]


def _ground_sector(*args):
    return _ground_block(*args)[0]


def map_tasks(fn, tasks, workers: int = 1) -> list:
    """[fn(*t) for t in tasks], in a pool of ``workers`` processes if > 1."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*tasks)))
    return [fn(*t) for t in tasks]


def purity_scan(omega: float, mu: float, n_particles: int, chi_grid,
                workers: int = 1) -> PurityScan:
    """Ground-state purity and sector over an ascending chi grid, with a
    centered-difference dP/dchi where the stencil shares one sector."""
    grid = np.asarray(chi_grid, dtype=float)
    if grid.size < 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("chi grid must be non-empty and strictly ascending")
    tasks = [(omega, mu, n_particles, chi) for chi in grid]
    purity = np.array(map_tasks(ground_state_purity, tasks, workers))
    # A1 by Perron-Frobenius at omega < 0, mu = 0, as in ``_ground_block``.
    sectors = (("A1",) * grid.size if omega < 0 and mu == 0
               else tuple(map_tasks(_ground_sector, tasks, workers)))
    derivative = np.full_like(purity, np.nan)
    if grid.size >= 3:
        label = np.array(sectors)
        shared = (label[:-2] == label[1:-1]) & (label[1:-1] == label[2:])
        derivative[1:-1] = np.where(
            shared, (purity[2:] - purity[:-2]) / (grid[2:] - grid[:-2]), np.nan)
    return PurityScan(grid, purity, derivative, sectors)


def critical_chi_q(omega: float, mu: float, n_particles: int,
                   window: tuple, tol: float = 1e-3) -> float:
    """Minimizer of the exact dP/dchi (``purity_derivative``) inside the
    window, refined to the tolerance (see ``_window_minimum``).

    BracketingError if the ground level changes sector inside the window:
    P jumps there, and no minimum is taken across the jump.
    """
    labels = []

    def deriv(chi):
        label, value = _ground_derivative(omega, mu, n_particles, chi)
        if labels and label != labels[0]:
            raise BracketingError(
                f"the ground level changes sector from {labels[0]} to "
                f"{label} at chi={chi:g} inside the window")
        labels.append(label)
        return value

    return _window_minimum(deriv, window, tol)


def _window_minimum(f, window: tuple, tol: float) -> float:
    """Minimizer of f inside the window: a coarse grid of 25 points
    locates the minimum and golden-section search refines it to the
    tolerance; BracketingError if the coarse minimum is on the window's
    edge or ties a neighbour."""
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must satisfy lo < hi")
    coarse = np.linspace(lo, hi, 25)
    values = np.array([f(c) for c in coarse])
    imin = int(np.argmin(values))
    if imin in (0, len(coarse) - 1):
        raise BracketingError(
            f"dP/dchi minimum sits on the window boundary at chi={coarse[imin]:g}")
    return _golden(f, coarse[imin - 1:imin + 2], values[imin - 1:imin + 2],
                   tol)


# Golden-ratio conjugate as scipy's golden-section search rounds it.
_GR = 0.61803399


def _golden(f, xs, fs, tol: float) -> float:
    """Golden-section minimizer of f on the bracket xs = (xa, xb, xc) with
    known values fs, step for step as scipy's
    ``minimize_scalar(method="golden", options={"xtol": tol})`` but
    without evaluating f again at the bracket points."""
    (xa, xb, xc), (fa, fb, fc) = xs, fs
    if not (fb < fa and fb < fc):
        raise BracketingError(
            f"no strict dP/dchi minimum at chi={xb:g}: {fa:g}, {fb:g}, {fc:g}")
    gc = 1.0 - _GR
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, f1 = xb, fb
        x2 = xb + gc * (xc - xb)
        f2 = f(x2)
    else:
        x2, f2 = xb, fb
        x1 = xb - gc * (xb - xa)
        f1 = f(x1)
    for _ in range(5000):                     # scipy's maxiter
        if abs(x3 - x0) <= tol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, f1 = x1, x2, f2
            x2 = _GR * x1 + gc * x3
            f2 = f(x2)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = _GR * x2 + gc * x0
            f1 = f(x1)
    return float(x1 if f1 < f2 else x2)


def power_law_fit(n_values, chi_cq_values, chi_c: float) -> ScalingFit:
    """Least-squares line on (ln N, ln(chi_c^q - chi_c)), with the
    standard errors of ``scipy.stats.linregress``."""
    ns = np.asarray(n_values, dtype=float)
    cq = np.asarray(chi_cq_values, dtype=float)
    if ns.size != cq.size or ns.size < 3:
        raise ValueError("need at least 3 (N, chi_c^q) pairs")
    if np.all(ns == ns[0]):
        raise ValueError("need at least 2 distinct N for the log fit")
    excess = cq - chi_c
    if np.any(excess <= 0):
        raise ValueError("all chi_c^q must exceed chi_c for the log fit")
    x, y = np.log(ns), np.log(excess)
    sxx, sxy, _, syy = np.cov(x, y, bias=1).flat
    r = np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0)
    slope = sxy / sxx
    intercept = np.mean(y) - slope * np.mean(x)
    slope_stderr = np.sqrt((1 - r ** 2) * syy / sxx / (ns.size - 2))
    return ScalingFit(
        ln_prefactor=float(intercept),
        ln_prefactor_stderr=float(
            slope_stderr * np.sqrt(sxx + np.mean(x) ** 2)),
        exponent=float(slope),
        exponent_stderr=float(slope_stderr),
        residuals=y - (intercept + slope * x),
    )
