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
fixed mu, dH/dchi = c K with c = omega / (N - 1).  With R = (H - E0)^+,
read from the bordered system [[H - E0, v], [v^T, 0]] [R b; l] = [b; 0],
perturbation theory on the same block gives (primes are d/dchi)

    v' = -c R K v,  E0' = c v^T K v,  <T>' = 2 v'^T T v,
    <T>'' = 2 v'^T T v' - 4 ((c K - E0') v')^T R T v - 2 |v'|^2 <T>,
    dP/dchi = <T> <T>' / (2 N^2),  d2P/dchi2 = (<T>'^2 + <T> <T>'') / (2 N^2),

and chi_c^q is where d2P/dchi2 turns from negative to non-negative.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import lu_factor, lu_solve

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


@dataclass(frozen=True, eq=False)
class GroundLevel:
    """The ground level at one (omega, mu, N, chi) on its S3 sector's
    block.  P reads the eigenpair alone; the first read of ``derivatives``
    factorizes the bordered matrix, once per record."""

    label: str
    block: object             # the matrix solved: dense for LAPACK, else CSR
    e0: float
    v: np.ndarray
    tk: object                # T stacked over K on the block
    tv_kv: np.ndarray         # (T v, K v)
    omega: float
    n_particles: int

    @property
    def purity(self) -> float:
        t = float(self.v @ self.tv_kv[0])
        return t * t / (4.0 * self.n_particles ** 2)

    @cached_property
    def derivatives(self) -> tuple:
        """(dP/dchi, d2P/dchi2) by one LU factorization of the bordered
        matrix, solved for the right-hand sides T v and K v."""
        if self.n_particles < 2:
            raise ValueError("the exact dP/dchi needs N >= 2")
        v, (tv, kv), dim = self.v, self.tv_kv, self.v.size
        a, rhs = np.zeros((dim + 1, dim + 1)), np.zeros((2, dim + 1))
        a[:dim, :dim] = (self.block if isinstance(self.block, np.ndarray)
                         else self.block.toarray())
        a[dim, :dim] = a[:dim, dim] = v
        a[np.arange(dim), np.arange(dim)] -= self.e0
        rhs[:, :dim] = self.tv_kv                        # [T v, K v; 0, 0]
        x_t, x_k = lu_solve(lu_factor(a), rhs.T)[:dim].T
        c = self.omega / (self.n_particles - 1)
        t, dv = float(v @ tv), -c * x_k
        t_dv, k_dv = np.split(self.tk @ dv, 2)
        dt = 2.0 * float(dv @ tv)
        d2t = 2.0 * (float(dv @ t_dv) - float(dv @ dv) * t
                     - 2.0 * c * float((k_dv - float(v @ kv) * dv) @ x_t))
        norm = 2.0 * self.n_particles ** 2
        return t * dt / norm, (dt * dt + t * d2t) / norm


def _ground_block(omega: float, mu: float, n_particles: int,
                  chi: float) -> GroundLevel:
    """The ground level's record.  Where Perron-Frobenius proves an A1
    ground state (omega < 0, mu = 0) only the A1 block is solved; elsewhere
    each sector's lowest level is, and ``spectral.sector_order`` picks the
    ground level among them."""
    if n_particles == 0:
        raise ValueError("purity is undefined for zero particles")
    params = ModelParams.from_reduced(omega, chi, mu, n_particles)
    sectors = model_context(n_particles).sectors
    if omega < 0 and mu == 0:
        sectors = sectors[:1]
    levels = []
    for sector in sectors:
        vals, vecs, h = spectral.eigensolve_lowest(sector.terms, params, 1)
        levels.append((float(vals[0]), sector.label, h, vecs[:, 0],
                       sector.terms.tunneling_collision))
    e0, label, h, v, tk = spectral.sector_order(levels)[0]
    return GroundLevel(label, h, e0, v, tk, (tk @ v).reshape(2, -1), omega,
                       n_particles)


def ground_state_purity(omega: float, mu: float, n_particles: int,
                        chi: float) -> float:
    """Generalized purity of the ground level at reduced parameters; an E
    doublet counts as the mixture of its two partners."""
    return _ground_block(omega, mu, n_particles, chi).purity


def purity_derivative(omega: float, mu: float, n_particles: int,
                      chi: float) -> float:
    """Exact dP/dchi of the ground level's purity for N >= 2."""
    return _ground_block(omega, mu, n_particles, chi).derivatives[0]


def _purity_and_sector(*args) -> tuple:
    """(P, sector label) of the ground level at (omega, mu, N, chi)."""
    level = _ground_block(*args)
    return level.purity, level.label


# C entry points that set an OpenBLAS thread count, as the scipy-openblas
# wheels (64- and 32-bit integer builds) and upstream OpenBLAS name them.
_SET_BLAS_THREADS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


_blas_setters = []          # found by the first call; forked workers inherit


def _one_blas_thread() -> None:
    """One thread for each bundled OpenBLAS, in pool workers (which would
    contend for the cores) and in ``cli.main`` (so results do not depend on
    the thread count); nothing changes where none is found."""
    for pkg in () if _blas_setters else (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            setter = next((getattr(handle, sym) for sym in _SET_BLAS_THREADS
                           if hasattr(handle, sym)), None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                _blas_setters.append(setter)
    for setter in _blas_setters:
        setter(1)


def map_tasks(fn, tasks, workers: int = 1) -> list:
    """[fn(*t) for t in tasks], in a pool of ``workers`` processes if > 1,
    each limited to one BLAS thread."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_one_blas_thread) as pool:
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
    purity, sectors = zip(*map_tasks(_purity_and_sector, tasks, workers))
    purity = np.array(purity)
    derivative = np.full_like(purity, np.nan)
    if grid.size >= 3:
        label = np.array(sectors)
        shared = (label[:-2] == label[1:-1]) & (label[1:-1] == label[2:])
        derivative[1:-1] = np.where(
            shared, (purity[2:] - purity[:-2]) / (grid[2:] - grid[:-2]), np.nan)
    return PurityScan(grid, purity, derivative, sectors)


def critical_chi_q(omega: float, mu: float, n_particles: int,
                   window: tuple, tol: float = 1e-3) -> float:
    """Minimizer of the exact dP/dchi inside the window: the root of
    d2P/dchi2 to within tol * (chi - window[0]) (see ``_upward_root``).

    BracketingError if the ground level changes sector inside the window:
    P jumps there, and no minimum is taken across the jump.
    """
    labels = []

    def curvature(chi):
        level = _ground_block(omega, mu, n_particles, chi)
        if labels and level.label != labels[0]:
            raise BracketingError(
                f"the ground level changes sector from {labels[0]} to "
                f"{level.label} at chi={chi:g} inside the window")
        labels.append(level.label)
        return level.derivatives[1]

    return _upward_root(curvature, window, tol)


def _upward_root(f, window: tuple, tol: float) -> float:
    """The one x in the window where f turns from < 0 to >= 0.

    A 7-point grid must show exactly one such sign change, else
    BracketingError: none puts the minimum of f's antiderivative on the
    window's edge, and more than one is ambiguous.  Regula falsi with
    Illinois halving then narrows the bracket below tol * (x - window[0]).
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must satisfy lo < hi")
    xs = np.linspace(lo, hi, 7)
    fs = np.array([f(x) for x in xs])
    up = np.flatnonzero((fs[:-1] < 0) & (fs[1:] >= 0))
    if up.size != 1:
        raise BracketingError(
            f"d2P/dchi2 turns upward {up.size} times on the grid "
            f"{lo:g}..{hi:g}, where exactly one is needed")
    (x0, x1), (f0, f1) = xs[up[0]:up[0] + 2], fs[up[0]:up[0] + 2]
    for _ in range(100):            # ends even at tol = 0
        x = x1 - f1 * (x1 - x0) / (f1 - f0)
        if f1 == 0 or abs(x1 - x0) <= tol * (x - lo):
            break
        fx = f(x)
        if (fx < 0) != (f1 < 0):
            x0, f0 = x1, f1
        else:
            f0 /= 2                 # Illinois: the stale end weighs less
        x1, f1 = x, fx
    return float(x)


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
