"""Classical limit of the triple-well model on the coherent-state manifold.

Covers the coherent-state energy surface, the w-chart equations of motion,
trajectory integration, twin-sector fixed points with stability, the
saddle-node bifurcation chi_plus, the level-crossing transition chi_c, and
the theta_min / H_min first-order analysis.

Points are ``coherent.ClassicalPoint``, the coherent-state label (w1, w2),
imported here under the same name.  Trajectories are integrated in the
w-chart, which is free of coordinate singularities at empty wells or
equal phases; the canonical chart (I1, I2, phi1, phi2) is a
post-processing conversion.  The w-chart flow, the energy samples and the
canonical Hessian behind the fixed-point stability are closed forms in
numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.polynomial import Polynomial

from .algebra import ModelParams
from .coherent import ClassicalPoint
from .errors import BracketingError, IntegrationError

_STABLE = "stable-center"
_UNSTABLE = "unstable"

_STABILITY_REL = 1e-8
# Largest relative energy drift an integrated trajectory may keep.
_DRIFT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FixedPointRecord:
    point: ClassicalPoint
    energy_per_particle: float
    label: str                     # one of 1+, 2+, 3+, 4+, other
    stability: str                 # stable-center or unstable
    sector: str                    # twin restriction containing the point
    gradient_norm: float


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    point: ClassicalPoint          # w1, w2 as arrays over the times
    energies: np.ndarray
    params: ModelParams
    rtol: float                    # integrator tolerance the run passed at

    @property
    def relative_energy_drift(self) -> float:
        e0 = self.energies[0]
        return float(np.max(np.abs(self.energies - e0)) / max(1.0, abs(e0)))


# ---------------------------------------------------------------------------
# Energy surface and its w-chart flow
# ---------------------------------------------------------------------------

def _moments(w1, w2):
    """(h1, h2, h3, D) of the 3-vector (w1, w2, 1), in closed form.

    h1 = |sum w|^2 - D, h2 = sum |w_i|^4 and h3 = sum over distinct
    (i, j, k) of |w_i|^2 conj(w_j) w_k = 2 sum_i |w_i|^2 Re(conj(w_j) w_k),
    which is real.  Only operators and ``.real``/``.conjugate()`` are used,
    so w1, w2 may be Python scalars or complex arrays of one shape.
    """
    a1 = (w1 * w1.conjugate()).real
    a2 = (w2 * w2.conjugate()).real
    x12 = (w1.conjugate() * w2).real
    d = a1 + a2 + 1.0
    h1 = 2.0 * (x12 + w1.real + w2.real)
    h2 = a1 * a1 + a2 * a2 + 1.0
    h3 = 2.0 * (a1 * w2.real + a2 * w1.real + x12)
    return h1, h2, h3, d


def classical_hamiltonian(point: ClassicalPoint, params: ModelParams):
    """Coherent-state energy surface <N; w| H |N; w> in closed form.

    A float at a point; an array of energies when ``point.w1`` and
    ``point.w2`` are complex arrays of one shape.
    """
    h1, h2, h3, d = _moments(point.w1, point.w2)
    n = params.n_particles
    value = (params.omega_eff * n * h1 / d
             + n * (n - 1) * (params.kappa * h2 - 2.0 * params.lam * h3)
             / d ** 2)
    return value if isinstance(value, np.ndarray) else float(value)


def _gradient(w1: complex, w2: complex, params: ModelParams):
    """Wirtinger gradient (dH/d conj(w1), dH/d conj(w2)) at a scalar point."""
    h1, h2, h3, d = _moments(w1, w2)
    a1, a2 = (w1 * w1.conjugate()).real, (w2 * w2.conjugate()).real
    n = params.n_particles
    lin = params.omega_eff * n / (d * d)
    quad = n * (n - 1) / (d * d * d)
    kappa, lam2 = params.kappa, 2.0 * params.lam

    def component(wm, dh1, dh2, dh3):
        return (lin * (dh1 * d - h1 * wm)
                + quad * (kappa * (dh2 * d - 2.0 * h2 * wm)
                          - lam2 * (dh3 * d - 2.0 * h3 * wm)))

    return (component(w1, w2 + 1.0, 2.0 * a1 * w1,
                      2.0 * w1 * w2.real + a2 + w2),
            component(w2, w1 + 1.0, 2.0 * a2 * w2,
                      2.0 * w2 * w1.real + a1 + w1))


def _velocity(w1: complex, w2: complex, params: ModelParams):
    """dw/dt = -i g^{-1} dH/d(conj w) at a scalar point.

    The coherent-state metric g = N (D 1 - w w^dag) / D^2 has the closed-form
    inverse g^{-1} = (D/N)(1 + w w^dag), since D = 1 + w^dag w.
    """
    g1, g2 = _gradient(w1, w2, params)
    d = (w1 * w1.conjugate()).real + (w2 * w2.conjugate()).real + 1.0
    scale = -1j * d / params.n_particles
    proj = w1.conjugate() * g1 + w2.conjugate() * g2
    return scale * (g1 + w1 * proj), scale * (g2 + w2 * proj)


# ---------------------------------------------------------------------------
# Canonical chart
# ---------------------------------------------------------------------------

# H(I1, I2, phi1, phi2) with I3 = N - I1 - I2 is the sum of nine terms
# c_t * I1^e1 I2^e2 I3^e3 * cos(a1 phi1 + a2 phi2): rows of exponents e and
# phase multipliers a, three each for tunneling (c = 2 omega_eff), self
# collision (c = kappa (N-1)/N) and cross collision (c = -4 lam (N-1)/N).
_TERM_EXPONENTS = np.array([
    [0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5],
    [2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0],
    [1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])
_TERM_PHASES = np.array([
    [1.0, -1.0], [1.0, 0.0], [0.0, 1.0],
    [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
    [0.0, 1.0], [1.0, 0.0], [1.0, -1.0]])
# d(I1, I2, I3)/d(I1, I2)
_CHAIN = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])


def linearization(point: ClassicalPoint, params: ModelParams) -> np.ndarray:
    """Linearized canonical flow matrix S * Hess(H) at a phase-space point.

    S maps the gradient to the flow dI/dt = -dH/dphi, dphi/dt = dH/dI.
    The Hessian is summed in closed form over the nine terms of H.
    """
    n = params.n_particles
    i1, i2, phi1, phi2 = point.canonical(n)
    occ = np.array([i1, i2, n - i1 - i2])
    q = (n - 1) / n
    coeff = np.repeat([2.0 * params.omega_eff, q * params.kappa,
                       -4.0 * q * params.lam], 3)
    term = coeff * np.prod(occ ** _TERM_EXPONENTS, axis=1)
    angle = _TERM_PHASES @ np.array([phi1, phi2])
    tc, ts = term * np.cos(angle), term * np.sin(angle)
    # Per term, with C = _CHAIN and u = C (e/I): grad I^e = I^e u and
    # Hess I^e = I^e (u u^T - C diag(e/I^2) C^T).
    u = (_TERM_EXPONENTS / occ) @ _CHAIN.T
    curv = (tc @ (_TERM_EXPONENTS / occ ** 2)) * _CHAIN
    h_ii = (u.T * tc) @ u - curv @ _CHAIN.T
    h_ip = -(u.T * ts) @ _TERM_PHASES
    h_pp = -(_TERM_PHASES.T * tc) @ _TERM_PHASES
    return np.block([[-h_ip.T, -h_pp], [h_ii, h_ip]])


def _classify_stability(eigenvalues: np.ndarray) -> str:
    scale = float(np.max(np.abs(eigenvalues)))
    if scale == 0.0:
        return _STABLE
    return (_STABLE if np.max(np.abs(eigenvalues.real)) <= _STABILITY_REL * scale
            else _UNSTABLE)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first use so that only
    trajectory runs load scipy.integrate."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def _rhs(_t, y, params):
    x1, y1, x2, y2 = y.tolist()
    v1, v2 = _velocity(complex(x1, y1), complex(x2, y2), params)
    return [v1.real, v1.imag, v2.real, v2.imag]


def integrate_trajectory(init: ClassicalPoint, params: ModelParams,
                         t_max: float, dt: float) -> Trajectory:
    """Adaptive high-order integration in the w-chart with drift control."""
    if t_max <= 0 or dt <= 0:
        raise ValueError("t_max and dt must be positive")
    y0 = [init.w1.real, init.w1.imag, init.w2.real, init.w2.imag]
    t_eval = np.arange(0.0, t_max + 0.5 * dt, dt)
    last = None
    for rtol in (1e-10, 1e-12):
        sol = solve_ivp(_rhs, (0.0, t_max), y0, method="DOP853",
                        t_eval=t_eval, rtol=rtol, atol=1e-12, args=(params,))
        if not sol.success:
            raise IntegrationError(f"integrator failed: {sol.message}")
        point = ClassicalPoint(sol.y[0] + 1j * sol.y[1],
                               sol.y[2] + 1j * sol.y[3])
        last = Trajectory(sol.t, point, classical_hamiltonian(point, params),
                          params, rtol)
        if last.relative_energy_drift <= _DRIFT_TOL:
            return last
    raise IntegrationError(f"energy drift {last.relative_energy_drift:.3e} "
                           f"exceeds {_DRIFT_TOL:g}")


# ---------------------------------------------------------------------------
# Twin-sector reduction and fixed points
# ---------------------------------------------------------------------------

def twin_energy_reduced(w, chi: float, mu: float):
    """H/(N Omega) restricted to w1 = w2 = w real; depends only on chi, mu."""
    w = np.asarray(w, dtype=float)
    d = 2.0 * w ** 2 + 1.0
    return ((1.0 + 2.0 * mu) * (2.0 * w ** 2 + 4.0 * w) / d
            + chi * (2.0 * w ** 4 + 1.0) / d ** 2
            - 2.0 * mu * (4.0 * w ** 3 + 2.0 * w ** 2) / d ** 2)


def _twin_cubic_roots(chi: float, mu: float) -> list:
    """Real roots, ascending and Newton-polished, of the cubic C in the
    exact factorization -4 (w - 1) C(w) of the numerator of d/dw of the
    reduced twin energy."""
    poly = Polynomial([1.0 + 2.0 * mu, 2.0 - 2.0 * chi + 2.0 * mu,
                       2.0 - 2.0 * chi - 4.0 * mu, 4.0 * (1.0 + mu)])
    roots = poly.roots()
    real = np.sort(np.unique(np.round(
        roots[np.abs(roots.imag) < 1e-8 * (1.0 + np.abs(roots))].real, 12)))
    dpoly = poly.deriv()
    polished = []
    for r in real:
        x = float(r)
        for _ in range(50):
            fx, dfx = poly(x), dpoly(x)
            if dfx == 0.0:
                break
            step = fx / dfx
            x -= step
            if abs(step) < 1e-15 * max(1.0, abs(x)):
                break
        polished.append(x)
    out = []
    for x in sorted(polished):
        if not out or abs(x - out[-1]) > 1e-9 * max(1.0, abs(x)):
            out.append(x)
    return out


def twin_critical_points(chi: float, mu: float) -> np.ndarray:
    """Real critical points of the reduced twin energy, ascending: w = 1
    (one for every chi, mu) once, and the other real roots of C."""
    others = [w for w in _twin_cubic_roots(chi, mu) if abs(w - 1.0) > 1e-9]
    return np.array(sorted([1.0, *others]))


def find_fixed_points(params: ModelParams,
                      replicate: bool = False) -> list:
    """Twin-sector equilibria with labels and full 4-D stability, in
    ascending w.

    Labels: 1+ is w = 1 (present for every chi, mu); 2+ is the persistent
    companion root of C at negative w; 3+/4+ are the saddle-node pair of
    C's other roots, the stable member being 4+.  On the line
    chi = 9/4 + mu, C has the root w = 1, so a pair member meets 1+ there.
    ``replicate`` adds the two equivalent twin sectors for every record.
    """
    chi, mu = params.chi, params.mu
    roots = [(1.0, "1+")] + [(w, "2+" if w < 0.0 else None)
                             for w in _twin_cubic_roots(chi, mu)]
    records = []
    pair = []
    for w, label in sorted(roots, key=lambda root: root[0]):
        rec = _record_for(ClassicalPoint.from_twin_w(w), params,
                          sector="w1=w2")
        if label is None:
            pair.append(rec)
        else:
            rec = replace(rec, label=label)
        records.append(rec)
    if len(pair) == 2:
        stable = [r for r in pair if r.stability == _STABLE]
        if len(stable) == 1:
            four = stable[0]
        else:  # fall back to energy ordering in the energy-minimum sense
            four = min(pair, key=lambda r: r.energy_per_particle)
        for i, rec in enumerate(records):
            if rec in pair:
                records[i] = replace(rec, label="4+" if rec is four else "3+")
    if replicate:
        extra = []
        for rec in records:
            w = rec.point.w1
            if abs(w) < 1e-9:
                continue
            for sector, pt in (("w1=1", ClassicalPoint(1.0, 1.0 / w)),
                               ("w2=1", ClassicalPoint(1.0 / w, 1.0))):
                twin_rec = _record_for(pt, params, sector=sector)
                extra.append(replace(twin_rec, label=rec.label))
        records.extend(extra)
    return records


def _record_for(point: ClassicalPoint, params: ModelParams,
                sector: str) -> FixedPointRecord:
    n = params.n_particles
    grad = np.array(_gradient(point.w1, point.w2, params)) / n
    scale = max(1.0, abs(classical_hamiltonian(point, params)) / n)
    gnorm = float(np.linalg.norm(grad)) / scale
    eigs = np.linalg.eigvals(linearization(point, params))
    return FixedPointRecord(
        point=point,
        energy_per_particle=classical_hamiltonian(point, params) / n,
        label="other",
        stability=_classify_stability(eigs),
        sector=sector,
        gradient_norm=gnorm,
    )


def _positive_twin_roots(chi: float, mu: float) -> list:
    """Positive roots of C: the 3+/4+ pair."""
    return [w for w in _twin_cubic_roots(chi, mu) if w > 1e-6]


def _saddle_node_pair_present(chi: float, mu: float) -> bool:
    return len(_positive_twin_roots(chi, mu)) >= 2


def bifurcation_scan(mu: float, chi_range: tuple,
                     tol: float = 1e-4) -> float:
    """chi_plus(mu): bisection on appearance of the 3+/4+ root pair."""
    lo, hi = float(chi_range[0]), float(chi_range[1])
    if _saddle_node_pair_present(lo, mu) or not _saddle_node_pair_present(hi, mu):
        raise BracketingError(
            f"range ({lo}, {hi}) does not bracket the saddle-node bifurcation")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _saddle_node_pair_present(mid, mu):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _twin_branch_w4(chi: float, mu: float) -> Optional[float]:
    """Location of the 4+ fixed point (smallest positive non-unit root)."""
    positive = _positive_twin_roots(chi, mu)
    return min(positive) if len(positive) >= 2 else None


def level_crossing(mu: float, chi_search: tuple = (1.0, 4.0),
                   tol: float = 1e-6) -> float:
    """chi_c(mu): energy crossing of the 1+ and 4+ fixed points.

    Works in energy-minimum units (Omega < 0 convention), where the ground
    branch switches from 1+ to 4+ at the crossing.
    """
    chi_plus = bifurcation_scan(mu, chi_search)

    def energy_gap(chi):
        w4 = _twin_branch_w4(chi, mu)
        if w4 is None:
            raise BracketingError(f"4+ branch missing at chi={chi:g}")
        # H/N with Omega = -1 is -twin_energy_reduced.
        return twin_energy_reduced(w4, chi, mu) - twin_energy_reduced(1.0, chi, mu)

    lo = chi_plus + 1e-3
    hi = float(chi_search[1])
    if energy_gap(lo) * energy_gap(hi) > 0:
        raise BracketingError(
            f"no 1+/4+ crossing between chi={lo:g} and chi={hi:g}")
    from scipy.optimize import brentq
    return float(brentq(energy_gap, lo, hi, xtol=tol))


# ---------------------------------------------------------------------------
# theta_min / H_min first-order analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaMinRow:
    chi: float
    theta_min: float
    h_min: float                   # min of H/N on the twin manifold
    dh_dchi: float                 # finite-difference derivative
    d2h_dchi2: float
    h1_at_min: float               # quadratic-term portion at theta_min
    first_order_residual: float    # |dh_dchi - h1_at_min|
    degenerate: bool               # flagged at the crossing point


def twin_quadratic_portion(w, omega: float = -1.0):
    """H1/N: the chi-coefficient of the reduced twin energy (per particle)."""
    w = np.asarray(w, dtype=float)
    d = 2.0 * w ** 2 + 1.0
    return omega * (2.0 * w ** 4 + 1.0) / d ** 2


def _twin_minimum(chi: float, mu: float, omega: float):
    """(w_min, H_min/N, degenerate?) over the real twin manifold."""
    roots = twin_critical_points(chi, mu)
    energies = omega * twin_energy_reduced(roots, chi, mu)
    order = np.argsort(energies)
    w_min = float(roots[order[0]])
    e_min = float(energies[order[0]])
    degenerate = (len(roots) > 1
                  and energies[order[1]] - e_min < 1e-9 * max(1.0, abs(e_min)))
    return w_min, e_min, degenerate


def theta_min_analysis(chi_values, mu: float = 0.0, omega: float = -1.0,
                       fd_step: float = 1e-4) -> list:
    """Global twin-manifold minimizer and the first/second chi-derivatives.

    On smooth branches the first derivative of H_min equals the
    quadratic-term portion evaluated at theta_min; the residual column
    records how well the identity holds.
    """
    rows = []
    for chi in np.asarray(chi_values, dtype=float):
        w_min, e_min, degenerate = _twin_minimum(chi, mu, omega)
        e_p = _twin_minimum(chi + fd_step, mu, omega)[1]
        e_m = _twin_minimum(chi - fd_step, mu, omega)[1]
        dh = (e_p - e_m) / (2.0 * fd_step)
        d2h = (e_p - 2.0 * e_min + e_m) / fd_step ** 2
        h1 = float(twin_quadratic_portion(w_min, omega))
        rows.append(ThetaMinRow(
            chi=float(chi),
            theta_min=ClassicalPoint.from_twin_w(w_min).theta,
            h_min=e_min,
            dh_dchi=dh,
            d2h_dchi2=d2h,
            h1_at_min=h1,
            first_order_residual=abs(dh - h1),
            degenerate=degenerate,
        ))
    return rows
