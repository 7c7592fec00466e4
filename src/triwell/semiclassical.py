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
w-chart Jacobian behind the fixed-point stability are closed forms in
numpy; the canonical chart serves output only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import permutations, product

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


def _flow_terms(params: ModelParams) -> tuple:
    """(N, omega_eff N, N (N - 1), kappa, 2 lam): the constants of the
    w-chart flow, taken once per trajectory."""
    n = params.n_particles
    return n, params.omega_eff * n, n * (n - 1), params.kappa, 2.0 * params.lam


def _gradient(w1: complex, w2: complex, terms: tuple):
    """Wirtinger gradient (dH/d conj(w1), dH/d conj(w2)) at a scalar point,
    with ``terms`` from ``_flow_terms``."""
    h1, h2, h3, d = _moments(w1, w2)
    a1, a2 = (w1 * w1.conjugate()).real, (w2 * w2.conjugate()).real
    _, n_omega, n_pairs, kappa, lam2 = terms
    lin = n_omega / (d * d)
    quad = n_pairs / (d * d * d)
    return (lin * ((w2 + 1.0) * d - h1 * w1)
            + quad * (kappa * (2.0 * a1 * w1 * d - 2.0 * h2 * w1)
                      - lam2 * ((2.0 * w1 * w2.real + a2 + w2) * d
                                - 2.0 * h3 * w1)),
            lin * ((w1 + 1.0) * d - h1 * w2)
            + quad * (kappa * (2.0 * a2 * w2 * d - 2.0 * h2 * w2)
                      - lam2 * ((2.0 * w2 * w1.real + a1 + w1) * d
                                - 2.0 * h3 * w2)))


def _velocity(w1: complex, w2: complex, terms: tuple):
    """dw/dt = -i g^{-1} dH/d(conj w) at a scalar point.

    The coherent-state metric g = N (D 1 - w w^dag) / D^2 has the closed-form
    inverse g^{-1} = (D/N)(1 + w w^dag), since D = 1 + w^dag w.
    """
    g1, g2 = _gradient(w1, w2, terms)
    d = (w1 * w1.conjugate()).real + (w2 * w2.conjugate()).real + 1.0
    scale = -1j * d / terms[0]
    proj = w1.conjugate() * g1 + w2.conjugate() * g2
    return scale * (g1 + w1 * proj), scale * (g2 + w2 * proj)


# ---------------------------------------------------------------------------
# Linear stability in the w-chart
# ---------------------------------------------------------------------------

# H/N = (omega_eff z^dag T z D + (N-1) Q) / D^2 on z = (w1, w2, 1), with
# D = z^dag z, T = ones(3, 3) - 1, Q = kappa sum |z_i|^4 - 2 lam sum over
# distinct (i, j, k) of |z_i|^2 conj(z_j) z_k.  Each tensor holds the c of
# a quartic form sum c_abcd conj(z_a z_b) z_c z_d, symmetric per index pair.
def _quartic_form(terms) -> np.ndarray:
    c = np.zeros((3, 3, 3, 3))
    for term in terms:
        c[term] += 0.25
    c = c + c.transpose(1, 0, 2, 3)
    return c + c.transpose(0, 1, 3, 2)


_TUNNEL = _quartic_form((i, k, j, k) for i, j, k in product(range(3), repeat=3)
                        if i != j)
_SELF = _quartic_form((i, i, i, i) for i in range(3))
_CROSS = _quartic_form((i, j, i, k) for i, j, k in permutations(range(3)))


def _wirtinger_hessian(point: ClassicalPoint, params: ModelParams):
    """(A, B) = (d2H/d(conj w) dw, d2H/d(conj w)^2), the top-left 2x2
    blocks of the Hessian of H = F / D^2 on z, by the quotient rule."""
    n = params.n_particles
    c = n * (params.omega_eff * _TUNNEL
             + (n - 1) * (params.kappa * _SELF - 2.0 * params.lam * _CROSS))
    z = np.array([point.w1, point.w2, 1.0], dtype=complex)
    zc, d = z.conjugate(), point.d
    p = np.einsum("aebd,e,d->ab", c, zc, z)
    f = float((zc @ p @ z).real)
    u = 2.0 * p @ z                              # dF/d(conj z)
    a = (4.0 * p / d ** 2
         - 2.0 * (np.outer(u, zc) + np.outer(z, u.conjugate())) / d ** 3
         + 6.0 * f * np.outer(z, zc) / d ** 4 - 2.0 * f * np.eye(3) / d ** 3)
    b = (2.0 * np.einsum("abcd,c,d->ab", c, z, z) / d ** 2
         - 2.0 * (np.outer(u, z) + np.outer(z, u)) / d ** 3
         + 6.0 * f * np.outer(z, z) / d ** 4)
    return a[:2, :2], b[:2, :2]


def linearization(point: ClassicalPoint, params: ModelParams) -> np.ndarray:
    """Flow matrix J on (dw, conj dw) of dw/dt = -i g^{-1} dH/d(conj w) at
    a fixed point, where only the Wirtinger Hessian varies:
    J = [[-i g^{-1} A, -i g^{-1} B], [its conjugate, blocks swapped]],
    g^{-1} = (D/N)(1 + w w^dag) as in ``_velocity``.  Finite at empty wells.
    """
    w = np.array([point.w1, point.w2], dtype=complex)
    ginv = point.d / params.n_particles * (np.eye(2) + np.outer(w, w.conj()))
    top = -1j * ginv @ np.hstack(_wirtinger_hessian(point, params))
    return np.vstack([top, np.hstack([top[:, 2:], top[:, :2]]).conjugate()])


def _classify_stability(jac: np.ndarray) -> str:
    """Stable centre iff every eigenvalue of J^2 is real and <= 0 within
    _STABILITY_REL ||J||_F^2.  A zero pair of J stays at roundoff size in
    J^2; J's own eigenvalues would spread to its square root."""
    tol = _STABILITY_REL * float(np.linalg.norm(jac)) ** 2
    mu = np.linalg.eigvals(jac @ jac)
    return (_STABLE if np.all((mu.real <= tol) & (np.abs(mu.imag) <= tol))
            else _UNSTABLE)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first use so that only
    trajectory runs load scipy.integrate."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def _rhs(_t, y, terms):
    x1, y1, x2, y2 = y.tolist()
    v1, v2 = _velocity(complex(x1, y1), complex(x2, y2), terms)
    return [v1.real, v1.imag, v2.real, v2.imag]


def integrate_trajectory(init: ClassicalPoint, params: ModelParams,
                         t_max: float, dt: float) -> Trajectory:
    """Adaptive high-order integration in the w-chart with drift control."""
    if t_max <= 0 or dt <= 0:
        raise ValueError("t_max and dt must be positive")
    y0 = [init.w1.real, init.w1.imag, init.w2.real, init.w2.imag]
    t_eval = np.arange(0.0, t_max + 0.5 * dt, dt)
    terms = _flow_terms(params)
    last = None
    for rtol in (1e-10, 1e-12):
        sol = solve_ivp(_rhs, (0.0, t_max), y0, method="DOP853",
                        t_eval=t_eval, rtol=rtol, atol=1e-12, args=(terms,))
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


def _twin_roots(chi: float, mu: float):
    """C's real roots: the 2+ roots (w < 0) and the 3+/4+ pair (w >= 0)."""
    roots = _twin_cubic_roots(chi, mu)
    return [w for w in roots if w < 0.0], [w for w in roots if w >= 0.0]


def _four_plus(stabilities, energies) -> int:
    """Index of 4+ in the 3+/4+ pair: its stable-center member, or the
    lower-energy one where stability picks none or both."""
    stable = [i for i, s in enumerate(stabilities) if s == _STABLE]
    return stable[0] if len(stable) == 1 else int(np.argmin(energies))


def find_fixed_points(params: ModelParams,
                      replicate: bool = False) -> list:
    """Twin-sector equilibria with labels and full 4-D stability, in
    ascending w.

    Labels: 1+ is w = 1 (present for every chi, mu); 2+ is a root of C
    at w < 0; the roots of C at w >= 0 are the saddle-node pair, whose
    stable member is 4+ and the other 3+ (where stability does not pick
    one member, the lower-energy one is 4+).  On the line
    chi = 9/4 + mu, C has the root w = 1, so a pair member meets 1+ there.
    ``replicate`` adds the two equivalent twin sectors for every record.
    """
    def twin(w, label="other"):
        return _record_for(ClassicalPoint.from_twin_w(w), params, label=label)

    companions, pair = _twin_roots(params.chi, params.mu)
    members = [twin(w) for w in pair]
    if len(members) == 2:
        four = _four_plus([r.stability for r in members],
                          [r.energy_per_particle for r in members])
        members = [replace(r, label="4+" if i == four else "3+")
                   for i, r in enumerate(members)]
    records = sorted([twin(1.0, "1+"), *(twin(w, "2+") for w in companions),
                      *members], key=lambda r: r.point.w1.real)
    if replicate:
        for rec in list(records):
            w = rec.point.w1
            if abs(w) >= 1e-9:   # w = 0 has no image in the other sectors
                for sector, pt in (("w1=1", ClassicalPoint(1.0, 1.0 / w)),
                                   ("w2=1", ClassicalPoint(1.0 / w, 1.0))):
                    records.append(_record_for(pt, params, sector, rec.label))
    return records


def _record_for(point: ClassicalPoint, params: ModelParams,
                sector: str = "w1=w2",
                label: str = "other") -> FixedPointRecord:
    n = params.n_particles
    energy = classical_hamiltonian(point, params) / n
    grad = np.array(_gradient(point.w1, point.w2, _flow_terms(params))) / n
    return FixedPointRecord(
        point=point,
        energy_per_particle=energy,
        label=label,
        stability=_classify_stability(linearization(point, params)),
        sector=sector,
        gradient_norm=float(np.linalg.norm(grad)) / max(1.0, abs(energy)),
    )


def bifurcation_scan(mu: float, chi_range: tuple) -> float:
    """chi_plus(mu), where the 3+/4+ pair appears (C has a double root):
    the root in ``chi_range`` of disc_w(C)/16, whose coefficients below run
    in ascending powers of chi.  BracketingError unless the pair is absent
    at lo and present at hi, with exactly one real root between."""
    lo, hi = float(chi_range[0]), float(chi_range[1])
    if len(_twin_roots(lo, mu)[1]) >= 2 or len(_twin_roots(hi, mu)[1]) < 2:
        raise BracketingError(
            f"range ({lo}, {hi}) does not bracket the saddle-node bifurcation")
    roots = Polynomial([-np.polyval([152.0, 528.0, 456.0, 152.0, 18.0], mu),
                        np.polyval([104.0, 36.0, -24.0, -10.0], mu),
                        33.0 * mu ** 2 - 6.0, 14.0 * mu + 6.0, 1.0]).roots()
    inside = [r.real for r in roots
              if abs(r.imag) < 1e-8 * (1.0 + abs(r)) and lo < r.real < hi]
    if len(inside) != 1:
        raise BracketingError(
            f"{len(inside)} discriminant roots in ({lo}, {hi}), want one")
    return float(inside[0])


def level_crossing(mu: float) -> float:
    """chi_c(mu) = 2 (3 + 6 mu + 2 mu^2) / (3 + 4 mu), where the 1+ and 4+
    fixed points have equal energy (the ground branch at Omega < 0 turns
    from 1+ to 4+).  There C of ``_twin_cubic_roots`` factors as
    (2 (1 + mu) w - (1 + 2 mu)) (2 (3 + 4 mu) w^2 - 4 mu w - (3 + 4 mu))
    / (3 + 4 mu); its root w4 = (1 + 2 mu) / (2 + 2 mu) is the stable 4+
    member of the pair, at the reduced twin energy of w = 1.  Below
    mu = -1/2, w4 < 0 and no pair exists at chi_c: BracketingError there
    and at nan or inf."""
    if not -0.5 <= mu < np.inf:
        raise BracketingError(
            f"no 1+/4+ crossing at mu={mu:g}: chi_c(mu) needs mu >= -1/2")
    return float(2.0 * (3.0 + 6.0 * mu + 2.0 * mu * mu) / (3.0 + 4.0 * mu))


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
