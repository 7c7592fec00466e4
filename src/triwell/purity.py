"""Generalized su(3) purity, its chi-derivative and finite-size scaling.

The purity of the ground state drops from 1 (coherent, separable) toward 0
as particle entanglement builds up across the transition; the minimizer of
dP/dchi defines the scalable quantum critical parameter chi_c^q(N), which
approaches the semiclassical critical value as a power law in N.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.stats import linregress

from .algebra import ModelParams, model_context
from .coherent import QuantumState
from .errors import BracketingError


@dataclass(frozen=True)
class PurityScan:
    chi_grid: np.ndarray
    purity: np.ndarray
    derivative: np.ndarray          # centered differences, grid interior
    omega: float
    mu: float
    n_particles: int


@dataclass(frozen=True)
class ScalingFit:
    n_values: np.ndarray
    chi_cq: np.ndarray
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


def ground_state_purity(omega: float, mu: float, n_particles: int,
                        chi: float) -> float:
    """Generalized purity of the ground state at reduced parameters."""
    from .spectral import ground_state

    params = ModelParams.from_reduced(omega, chi, mu, n_particles)
    _, state = ground_state(params)
    ctx = model_context(n_particles)
    return generalized_purity(state, ctx.gens, n_particles)


def _scan_point(args):
    omega, mu, n, chi = args
    return chi, ground_state_purity(omega, mu, n, chi)


def map_tasks(fn, tasks, workers: int = 1) -> list:
    """[fn(t) for t in tasks], in a pool of ``workers`` processes if > 1."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return list(map(fn, tasks))


def purity_scan(omega: float, mu: float, n_particles: int, chi_grid,
                workers: int = 1) -> PurityScan:
    """Ground-state purity over an ascending chi grid, with dP/dchi."""
    grid = np.asarray(chi_grid, dtype=float)
    if grid.size < 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("chi grid must be non-empty and strictly ascending")
    tasks = [(omega, mu, n_particles, chi) for chi in grid]
    results = dict(map_tasks(_scan_point, tasks, workers))
    purity = np.array([results[chi] for chi in grid])
    derivative = np.full_like(purity, np.nan)
    if grid.size >= 3:
        derivative[1:-1] = (purity[2:] - purity[:-2]) / (grid[2:] - grid[:-2])
    return PurityScan(grid, purity, derivative, omega, mu, n_particles)


def critical_chi_q(omega: float, mu: float, n_particles: int,
                   window: tuple, tol: float = 1e-3, step: float = 0.005,
                   purity_fn=None) -> float:
    """Minimizer of dP/dchi inside the window, refined to the tolerance.

    The derivative is a centered finite difference with half-width ``step``;
    a coarse grid locates the minimum and golden-section search refines it.
    ``purity_fn`` (chi -> purity) may replace the ground-state purity, e.g.
    for synthetic-oracle tests.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must satisfy lo < hi")
    if purity_fn is None:
        cache = {}

        def purity_fn(chi, _c=cache):
            if chi not in _c:
                _c[chi] = ground_state_purity(omega, mu, n_particles, chi)
            return _c[chi]

    def deriv(chi):
        return (purity_fn(chi + step) - purity_fn(chi - step)) / (2.0 * step)

    coarse = np.linspace(lo, hi, 25)
    values = np.array([deriv(c) for c in coarse])
    imin = int(np.argmin(values))
    if imin in (0, len(coarse) - 1):
        raise BracketingError(
            f"dP/dchi minimum sits on the window boundary at chi={coarse[imin]:g}")
    bracket = (coarse[imin - 1], coarse[imin], coarse[imin + 1])
    res = minimize_scalar(deriv, bracket=bracket, method="golden",
                          options={"xtol": tol})
    return float(res.x)


def power_law_fit(n_values, chi_cq_values, chi_c: float) -> ScalingFit:
    """Least-squares line on (ln N, ln(chi_c^q - chi_c))."""
    ns = np.asarray(n_values, dtype=float)
    cq = np.asarray(chi_cq_values, dtype=float)
    if ns.size != cq.size or ns.size < 3:
        raise ValueError("need at least 3 (N, chi_c^q) pairs")
    excess = cq - chi_c
    if np.any(excess <= 0):
        raise ValueError("all chi_c^q must exceed chi_c for the log fit")
    x, y = np.log(ns), np.log(excess)
    fit = linregress(x, y)
    residuals = y - (fit.intercept + fit.slope * x)
    return ScalingFit(
        n_values=ns.astype(int),
        chi_cq=cq,
        ln_prefactor=float(fit.intercept),
        ln_prefactor_stderr=float(fit.intercept_stderr),
        exponent=float(fit.slope),
        exponent_stderr=float(fit.stderr),
        residuals=residuals,
    )
