"""Reference implementations that the library's closed forms are tested
against.  They follow the definitions term by term and favour clarity
over speed."""

import functools

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import brentq
from scipy.special import gammaln

from triwell.algebra import (ModelParams, generators, hamiltonian_terms,
                             model_context)
from triwell.coherent import (ClassicalPoint, QuantumState, coherent_state,
                              log_multinomial)
from triwell.distributions import husimi_population, phase_distribution
from triwell.errors import BracketingError
from triwell.fock import (_E_PARTNERS, FockBasis, build_basis, check_hermitian,
                         hop_operator, lex_rank)
from triwell.purity import generalized_purity
from triwell.semiclassical import (_classify_stability, _flow_terms,
                                   _four_plus, _twin_roots, _velocity,
                                   bifurcation_scan, linearization,
                                   twin_energy_reduced)


class ModelConsistencyError(RuntimeError):
    """The two Hamiltonian forms do not agree up to an identity shift."""


class ConsistencyError(RuntimeError):
    """Internal cross-check between two purity routes failed."""


def index_of(basis: FockBasis, occupations) -> int:
    """Position of an occupation triple in the basis; KeyError if it is
    not an N-particle triple."""
    n1, n2, n3 = (int(n) for n in occupations)
    if min(n1, n2, n3) < 0 or n1 + n2 + n3 != basis.total_particles:
        raise KeyError(f"{(n1, n2, n3)} is not an N = "
                       f"{basis.total_particles} occupation triple")
    return int(lex_rank(basis.total_particles, n1, n2))


def expectation(op, v) -> float:
    """<v|A|v> of a Hermitian matrix; real up to roundoff."""
    return float(np.real(np.vdot(v, op @ v)))


# ---------------------------------------------------------------------------
# Hamiltonian forms
# ---------------------------------------------------------------------------

def hamiltonian_direct(basis: FockBasis, params: ModelParams):
    """The Hamiltonian from bosonic bilinears (canonical form)."""
    T, K, V = hamiltonian_terms(basis)
    m = params.omega_eff * T + params.kappa * K - 2.0 * params.lam * V
    return check_hermitian(m)


def hamiltonian_terms_from_hops(basis: FockBasis):
    """(T, K, V) of ``algebra.hamiltonian_terms``, summed term by term
    from ``hop_operator`` matrices: T = sum_{i!=j} a_i^dag a_j,
    K = sum_i a_i^dag2 a_i^2, V = sum over distinct (i,j,k) of
    n_i a_j^dag a_k."""
    modes = (1, 2, 3)
    n_op = {i: hop_operator(basis, i, i) for i in modes}
    hop = {(i, j): hop_operator(basis, i, j)
           for i in modes for j in modes if i != j}
    dim = basis.dimension
    T = sp.csr_matrix((dim, dim))
    V = sp.csr_matrix((dim, dim))
    for i, j in hop:
        T = T + hop[(i, j)]
    occ = basis.states.astype(float)
    K = sp.diags(np.sum(occ * (occ - 1.0), axis=1), format="csr")
    for i in modes:
        for j in modes:
            for k in modes:
                if len({i, j, k}) == 3:
                    V = V + n_op[i] @ hop[(j, k)]
    return T.tocsr(), K, V.tocsr()


def hamiltonian_generators(basis: FockBasis, params: ModelParams):
    """The Hamiltonian rewritten through the su(3) generators."""
    q1, q2, p1, p2, p3, _, _, _ = generators(basis)
    n = params.n_particles
    lin = (params.omega_eff - 2.0 * params.lam * n / 3.0) * (p1 + p2 + p3)
    quad = 0.5 * params.kappa * (4.0 * (q1 @ q1) + 3.0 * (q2 @ q2))
    cross = params.lam * (2.0 * q1 @ (p1 - p3) + q2 @ (2.0 * p2 - p1 - p3))
    return check_hermitian(lin + quad + cross)


def verify_equivalence(basis: FockBasis, params: ModelParams,
                       tol: float = 1e-10) -> float:
    """Return c with H_direct - H_generators = c * Identity.

    Raises ModelConsistencyError if the difference is not proportional to
    the identity within tol relative to the matrix norm (a generator
    definition bug).  Analytically c = kappa * (N^2/3 - N).
    """
    hd = hamiltonian_direct(basis, params)
    hg = hamiltonian_generators(basis, params)
    diff = (hd - hg).toarray()
    c = float(np.real(np.trace(diff))) / basis.dimension
    residual = diff - c * np.eye(basis.dimension)
    scale = max(1.0, float(np.max(np.abs(hd.toarray()))))
    worst = float(np.max(np.abs(residual)))
    if worst > tol * scale:
        raise ModelConsistencyError(
            f"difference is not a scalar shift (residual {worst:.3e}, "
            f"scale {scale:.3e})")
    return c


# ---------------------------------------------------------------------------
# Coherent states
# ---------------------------------------------------------------------------

def amplitudes3(point: ClassicalPoint) -> np.ndarray:
    """The three mode amplitudes (w1, w2, 1)."""
    return np.array([point.w1, point.w2, 1.0], dtype=complex)


def product_form_check(basis: FockBasis, point: ClassicalPoint) -> float:
    """Fidelity between the Fock expansion and (a_w^dag)^N |0> / sqrt(N!).

    The product form is built by repeated application of the collective
    creation operator a_w^dag = (w1 a1^dag + w2 a2^dag + a3^dag)/sqrt(D)
    across the particle-number sectors.
    """
    n = basis.total_particles
    coeff = amplitudes3(point) / np.sqrt(point.d)
    current_basis = build_basis(0)
    vec = np.ones(1, dtype=complex)
    for m in range(n):
        next_basis = build_basis(m + 1)
        out = np.zeros(next_basis.dimension, dtype=complex)
        for idx in range(current_basis.dimension):
            occ = current_basis.states[idx]
            for mode in range(3):
                target = occ.copy()
                target[mode] += 1
                out[index_of(next_basis, target)] += (
                    coeff[mode] * np.sqrt(target[mode]) * vec[idx])
        current_basis, vec = next_basis, out
    vec /= np.sqrt(np.exp(gammaln(n + 1.0)))  # divide by sqrt(N!)
    reference = coherent_state(basis, point).amplitudes
    return float(abs(np.vdot(vec, reference)) ** 2)


def expectation_hop_closed_form(point: ClassicalPoint, n_particles: int,
                                i: int, j: int) -> complex:
    """<a_i^dag a_j> on |N; w> = N conj(w_i) w_j / D."""
    w = amplitudes3(point)
    _check_modes(i, j)
    return n_particles * np.conj(w[i - 1]) * w[j - 1] / point.d


def expectation_self_collision_closed_form(point: ClassicalPoint,
                                           n_particles: int, i: int) -> float:
    """<a_i^dag2 a_i^2> = N(N-1) |w_i|^4 / D^2."""
    _check_modes(i)
    w = amplitudes3(point)
    return (n_particles * (n_particles - 1)
            * abs(w[i - 1]) ** 4 / point.d ** 2)


def expectation_cross_collision_closed_form(point: ClassicalPoint,
                                            n_particles: int,
                                            i: int, j: int, k: int) -> complex:
    """<n_i a_j^dag a_k> = N(N-1) |w_i|^2 conj(w_j) w_k / D^2, i,j,k distinct."""
    _check_modes(i, j, k)
    if len({i, j, k}) != 3:
        raise ValueError("mode indices must be distinct")
    w = amplitudes3(point)
    return (n_particles * (n_particles - 1) * abs(w[i - 1]) ** 2
            * np.conj(w[j - 1]) * w[k - 1] / point.d ** 2)


def matrix_expectation(basis: FockBasis, point: ClassicalPoint, i: int,
                       j: int) -> complex:
    """Matrix-sandwich oracle for <a_i^dag a_j> on the coherent state."""
    psi = coherent_state(basis, point).amplitudes
    return complex(np.vdot(psi, hop_operator(basis, i, j) @ psi))


def _check_modes(*modes):
    for m in modes:
        if m not in (1, 2, 3):
            raise ValueError(f"mode index must be 1, 2 or 3, got {m}")


# ---------------------------------------------------------------------------
# Algebra-reduced purity
# ---------------------------------------------------------------------------

def orthonormal_generator_basis(basis: FockBasis, gens: tuple):
    """Orthonormalize the 8 generators under the N-sector trace product."""
    mats = [g.toarray() for g in gens]
    gram = np.zeros((8, 8))
    for a in range(8):
        for b in range(a, 8):
            gram[a, b] = gram[b, a] = float(
                np.real(np.trace(mats[a].conj().T @ mats[b])))
    vals, vecs = np.linalg.eigh(gram)
    if np.min(vals) <= 0:
        raise ConsistencyError("generator Gram matrix is not positive definite")
    coeffs = vecs / np.sqrt(vals)          # columns map gens -> orthonormal
    return [sum(coeffs[a, b] * mats[a] for a in range(8)) for b in range(8)]


def algebra_reduced_purity(state: QuantumState, basis: FockBasis,
                           gens: tuple) -> tuple:
    """Trace of the squared algebra-reduced density operator.

    Returns (sum_j Tr(rho A_j)^2, K) where {A_j} is the trace-orthonormal
    generator basis and K is the proportionality constant making
    K * sum_j Tr(rho A_j)^2 equal the generalized purity for this state.
    """
    ortho = orthonormal_generator_basis(basis, gens)
    v = state.amplitudes
    traces = [float(np.real(np.vdot(v, a @ v))) for a in ortho]
    s = float(np.sum(np.square(traces)))
    p = generalized_purity(state, gens, basis.total_particles)
    if s == 0.0:
        return 0.0, np.inf if p > 0 else np.nan
    return s, p / s


def algebra_purity_constant(n_particles: int, n_states: int = 20,
                            seed: int = 0, tol: float = 1e-8) -> float:
    """Empirical K(N) with a state-independence check over random states."""
    ctx = model_context(n_particles)
    rng = np.random.default_rng(seed)
    ks = []
    for _ in range(n_states):
        v = rng.normal(size=ctx.basis.dimension) \
            + 1j * rng.normal(size=ctx.basis.dimension)
        v /= np.linalg.norm(v)
        state = QuantumState(ctx.basis, v)
        _, k = algebra_reduced_purity(state, ctx.basis, ctx.gens)
        ks.append(k)
    ks = np.asarray(ks)
    spread = float(np.max(ks) - np.min(ks)) / max(1.0, float(np.mean(np.abs(ks))))
    if spread > tol:
        raise ConsistencyError(
            f"K is not state independent at N={n_particles} (spread {spread:.3e})")
    return float(np.mean(ks))


# ---------------------------------------------------------------------------
# w-chart flow
# ---------------------------------------------------------------------------

def w_moments(w1, w2):
    """(h1, h2, h3, D) of (w1, w2, 1) by explicit sums; h3 stays complex."""
    wf = np.array([w1, w2, 1.0], dtype=complex)
    d = float(np.sum(np.abs(wf) ** 2))
    h1 = abs(np.sum(wf)) ** 2 - d
    h2 = float(np.sum(np.abs(wf) ** 4))
    h3 = 0.0 + 0.0j
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if len({i, j, k}) == 3:
                    h3 += abs(wf[i]) ** 2 * np.conj(wf[j]) * wf[k]
    return h1, h2, h3, d


def w_gradient(w1, w2, params):
    """dH/d(conj w_m), m = 1, 2, by the quotient rule on each moment."""
    wf = np.array([w1, w2, 1.0], dtype=complex)
    h1, h2, h3, d = w_moments(w1, w2)
    s = np.sum(wf)
    n = params.n_particles
    grad = np.zeros(2, dtype=complex)
    for m in range(2):
        a, b = (wf[i] for i in range(3) if i != m)
        dh1 = s - wf[m]
        dh2 = 2.0 * abs(wf[m]) ** 2 * wf[m]
        dh3 = (wf[m] * 2.0 * np.real(np.conj(a) * b)
               + abs(a) ** 2 * b + abs(b) ** 2 * a)
        dd = wf[m]
        grad[m] = (params.omega_eff * n * (dh1 * d - h1 * dd) / d ** 2
                   + n * (n - 1)
                   * (params.kappa * (dh2 * d - 2.0 * h2 * dd)
                      - 2.0 * params.lam * (dh3 * d - 2.0 * h3 * dd))
                   / d ** 3)
    return grad


def w_metric(w1, w2, n_particles):
    """Coherent-state (Kaehler) metric g_jk on the w-chart."""
    w = np.array([w1, w2], dtype=complex)
    d = abs(w1) ** 2 + abs(w2) ** 2 + 1.0
    return n_particles * (d * np.eye(2) - np.outer(w, np.conj(w))) / d ** 2


def w_velocity(w1, w2, params):
    """dw/dt = -i g^{-1} dH/d(conj w) by a linear solve on the metric."""
    return -1j * np.linalg.solve(w_metric(w1, w2, params.n_particles),
                                 w_gradient(w1, w2, params))


def w_velocity_closed_form(w1, w2, params):
    """dw/dt in closed form, with every constant read from ``params`` at
    the point and the two gradient components from one shared formula.
    Each product and sum runs in the order that ``semiclassical._velocity``
    uses, so the two agree bit for bit."""
    a1, a2 = (w1 * w1.conjugate()).real, (w2 * w2.conjugate()).real
    x12 = (w1.conjugate() * w2).real
    d = a1 + a2 + 1.0
    h1 = 2.0 * (x12 + w1.real + w2.real)
    h2 = a1 * a1 + a2 * a2 + 1.0
    h3 = 2.0 * (a1 * w2.real + a2 * w1.real + x12)
    n = params.n_particles
    lin = params.omega_eff * n / (d * d)
    quad = n * (n - 1) / (d * d * d)
    kappa, lam2 = params.kappa, 2.0 * params.lam

    def component(wm, dh1, dh2, dh3):
        return (lin * (dh1 * d - h1 * wm)
                + quad * (kappa * (dh2 * d - 2.0 * h2 * wm)
                          - lam2 * (dh3 * d - 2.0 * h3 * wm)))

    g1 = component(w1, w2 + 1.0, 2.0 * a1 * w1, 2.0 * w1 * w2.real + a2 + w2)
    g2 = component(w2, w1 + 1.0, 2.0 * a2 * w2, 2.0 * w2 * w1.real + a1 + w1)
    scale = -1j * d / n
    proj = w1.conjugate() * g1 + w2.conjugate() * g2
    return scale * (g1 + w1 * proj), scale * (g2 + w2 * proj)


def scipy_dop853(point: ClassicalPoint, params, t_max: float, times,
                 rtol: float):
    """(w1, w2) at ``times`` by ``scipy.integrate.solve_ivp`` with DOP853 on
    the four real components (atol 1e-12), the integration the library
    used before its scalar DOP853."""
    from scipy.integrate import solve_ivp
    terms = _flow_terms(params)

    def rhs(_t, y):
        x1, y1, x2, y2 = y.tolist()
        v1, v2 = _velocity(complex(x1, y1), complex(x2, y2), terms)
        return [v1.real, v1.imag, v2.real, v2.imag]

    w1, w2 = complex(point.w1), complex(point.w2)
    sol = solve_ivp(rhs, (0.0, t_max), [w1.real, w1.imag, w2.real, w2.imag],
                    method="DOP853", t_eval=times, rtol=rtol, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"scipy DOP853 failed: {sol.message}")
    return sol.y[0] + 1j * sol.y[1], sol.y[2] + 1j * sol.y[3]


# ---------------------------------------------------------------------------
# Canonical chart (sympy)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _canonical_functions():
    """H(I1, I2, phi1, phi2) with I3 = N - I1 - I2, built once in sympy, and
    its gradient and Hessian, lambdified to (ham, grad, hess)."""
    import sympy as sym

    x1, x2, p1, p2 = sym.symbols("I1 I2 p1 p2", real=True)
    omega_eff, kappa, lam, n = sym.symbols("omega_eff kappa lam n", real=True)
    x3 = n - x1 - x2
    tunneling = 2 * (sym.sqrt(x1 * x2) * sym.cos(p1 - p2)
                     + sym.sqrt(x1 * x3) * sym.cos(p1)
                     + sym.sqrt(x2 * x3) * sym.cos(p2))
    collision = (n - 1) / n * (
        kappa * (x1 ** 2 + x2 ** 2 + x3 ** 2)
        - 4 * lam * (x1 * sym.sqrt(x2 * x3) * sym.cos(p2)
                     + x2 * sym.sqrt(x1 * x3) * sym.cos(p1)
                     + x3 * sym.sqrt(x1 * x2) * sym.cos(p1 - p2)))
    ham = omega_eff * tunneling + collision
    coords = (x1, x2, p1, p2)
    args = coords + (omega_eff, kappa, lam, n)
    return tuple(sym.lambdify(args, f, "numpy")
                 for f in (ham, [sym.diff(ham, v) for v in coords],
                           sym.hessian(ham, coords)))


def _chart_call(index, i1, i2, phi1, phi2, params):
    return _canonical_functions()[index](
        i1, i2, phi1, phi2, params.omega_eff, params.kappa, params.lam,
        params.n_particles)


def canonical_hamiltonian(i1, i2, phi1, phi2, params) -> float:
    return float(_chart_call(0, i1, i2, phi1, phi2, params))


def canonical_gradient(i1, i2, phi1, phi2, params) -> np.ndarray:
    """(dH/dI1, dH/dI2, dH/dphi1, dH/dphi2), analytic."""
    return np.asarray(_chart_call(1, i1, i2, phi1, phi2, params), dtype=float)


def canonical_velocity(point: ClassicalPoint, params) -> np.ndarray:
    """Canonical flow (dI1, dI2, dphi1, dphi2)/dt."""
    i1, i2, phi1, phi2 = point.canonical(params.n_particles)
    g = canonical_gradient(i1, i2, phi1, phi2, params)
    return np.array([-g[2], -g[3], g[0], g[1]])


def equations_of_motion(point: ClassicalPoint, params,
                        boundary_margin: float = 1e-6):
    """Phase-space velocity at a point.

    Returns ("canonical", (dI1, dI2, dphi1, dphi2)) away from the chart
    boundary, and ("w", (dw1, dw2)) when any mean occupation is within
    boundary_margin * N of the boundary.
    """
    n = params.n_particles
    i1, i2, _, _ = point.canonical(n)
    i3 = n - i1 - i2
    eps = boundary_margin * n
    if min(i1, i2, i3) < eps:
        return "w", w_velocity(point.w1, point.w2, params)
    return "canonical", canonical_velocity(point, params)


def canonical_flow_matrix(i1, i2, phi1, phi2, params):
    """S * Hess(H) in the canonical chart, with the Hessian from sympy."""
    hess = np.array(_chart_call(2, i1, i2, phi1, phi2, params), dtype=float)
    s = np.zeros((4, 4))
    s[0, 2] = s[1, 3] = -1.0
    s[2, 0] = s[3, 1] = 1.0
    return s @ hess


# ---------------------------------------------------------------------------
# Level crossing by root search
# ---------------------------------------------------------------------------

def level_crossing_root_search(mu: float, chi_search: tuple = (1.0, 4.0),
                               tol: float = 1e-6) -> float:
    """chi_c(mu) by ``brentq`` on the 1+/4+ energy gap in energy-minimum
    units (Omega < 0), between chi_plus(mu) + 1e-3 and chi_search[1].
    4+ is chosen by ``_four_plus`` as in ``find_fixed_points``; the flow
    matrix J depends on Omega, chi and mu alone, so N = 2 serves."""
    chi_plus = bifurcation_scan(mu, chi_search)

    def energy_gap(chi):
        pair = _twin_roots(chi, mu)[1]
        if len(pair) != 2:
            raise BracketingError(f"4+ branch missing at chi={chi:g}")
        params = ModelParams.from_reduced(-1.0, chi, mu, 2)
        energy = -twin_energy_reduced(pair, chi, mu)    # H/N at Omega = -1
        four = _four_plus([_classify_stability(linearization(
            ClassicalPoint.from_twin_w(w), params)) for w in pair], energy)
        return float(energy[four] + twin_energy_reduced(1.0, chi, mu))

    lo = chi_plus + 1e-3
    hi = float(chi_search[1])
    if energy_gap(lo) * energy_gap(hi) > 0:
        raise BracketingError(
            f"no 1+/4+ crossing between chi={lo:g} and chi={hi:g}")
    return float(brentq(energy_gap, lo, hi, xtol=tol))


# ---------------------------------------------------------------------------
# Husimi function
# ---------------------------------------------------------------------------

def _safe_log(x):
    """ln x, with -inf at x <= 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(x > 0.0, np.log(np.where(x > 0.0, x, 1.0)), -np.inf)


def _occ_term(n_arr, ratio):
    """n * ln(ratio) with the n = 0, ratio = 0 corner fixed to 0."""
    with np.errstate(invalid="ignore"):
        return np.where(n_arr > 0, n_arr * _safe_log(ratio), 0.0)


def husimi_population_loop(state, i1_grid, i2_grid):
    """Q_I(I1, I2) point by point: the values and mask that
    ``distributions.husimi_population`` evaluates block-wise."""
    basis = state.basis
    n = basis.total_particles
    occ = basis.states
    i1 = np.asarray(i1_grid, dtype=float)
    i2 = np.asarray(i2_grid, dtype=float)
    base = log_multinomial(n, occ) + 2.0 * _safe_log(np.abs(state.amplitudes))
    n1 = occ[:, 0].astype(float)
    n2 = occ[:, 1].astype(float)
    on_shell = occ[:, 2] == 0

    values = np.zeros((i1.size, i2.size))
    mask = np.zeros((i1.size, i2.size), dtype=bool)
    for a, x1 in enumerate(i1):
        for b, x2 in enumerate(i2):
            if x1 < 0 or x2 < 0 or x1 + x2 > n * (1.0 + 1e-12):
                continue
            mask[a, b] = True
            if n == 0:
                values[a, b] = float(np.abs(state.amplitudes[0]) ** 2)
                continue
            i3 = n - x1 - x2
            if i3 <= 1e-12 * n:
                # boundary shell: only n3 = 0 states contribute
                total = x1 + x2
                logs = (base[on_shell]
                        + _occ_term(n1[on_shell], x1 / total)
                        + _occ_term(n2[on_shell], x2 / total))
            else:
                logs = (base + _occ_term(n1, x1 / i3) + _occ_term(n2, x2 / i3)
                        - n * np.log(n / i3))
            values[a, b] = float(np.sum(np.exp(logs)))
    return np.clip(values, 0.0, None), mask


def fields_full_grid(states, pop_grid: int, phase_grid: int):
    """The Husimi and phase fields of the equal mixture of ``states`` on the
    ``fields`` grids, every cell evaluated: (Husimi values, Husimi mask,
    phase values)."""
    n = states[0].basis.total_particles
    i_grid = np.linspace(0.0, float(n), pop_grid)
    phi = 2.0 * np.pi * np.arange(phase_grid) / phase_grid
    husimi = [husimi_population(s, i_grid, i_grid) for s in states]
    phase = [phase_distribution(s, phi, phi).values for s in states]
    return (np.mean([f.values for f in husimi], axis=0), husimi[0].mask,
            np.mean(phase, axis=0))


def count_local_maxima_ndimage(field, rel_threshold: float) -> int:
    """``distributions.count_local_maxima`` with scipy.ndimage: a 3 x 3
    maximum filter, edge-connected labels and a one-cell dilation."""
    from scipy import ndimage
    vals = np.where(field.mask, field.values, -np.inf)
    peak = field.max_value()
    if peak <= 0.0:
        return 0
    local_max = ndimage.maximum_filter(vals, size=3, mode="constant",
                                       cval=-np.inf)
    candidates = ((vals == local_max) & field.mask
                  & (vals > rel_threshold * peak))
    labels, count = ndimage.label(candidates)
    total = 0
    for comp in range(1, count + 1):
        inside = labels == comp
        ring = ndimage.binary_dilation(inside) & ~inside & field.mask
        if not np.any(ring) or np.max(vals[ring]) < np.min(vals[inside]):
            total += 1
    return total


def point_from_canonical(i1: float, i2: float, phi1: float, phi2: float,
                         n_particles: int) -> ClassicalPoint:
    """Inverse of ``ClassicalPoint.canonical``: the point with occupations
    I1, I2 (I3 = N - I1 - I2 > 0) and phases phi1, phi2."""
    i3 = n_particles - i1 - i2
    if i3 <= 0 or i1 < 0 or i2 < 0:
        raise ValueError("canonical chart requires 0 <= I1, I2 and "
                         "I1 + I2 < N")
    return ClassicalPoint(complex(np.sqrt(i1 / i3) * np.exp(-1j * phi1)),
                          complex(np.sqrt(i2 / i3) * np.exp(-1j * phi2)))


def husimi_quadrature_oracle(state, i1: float, i2: float,
                             phase_points: int = 64) -> float:
    """Brute-force phase average of |<N; w|psi>|^2.

    The rectangle rule on a uniform periodic grid is exact once the number
    of points exceeds the trigonometric degree 2N of the integrand.
    """
    basis = state.basis
    n = basis.total_particles
    i3 = n - i1 - i2
    if i3 <= 0:
        raise ValueError("quadrature oracle requires I1 + I2 < N")
    phis = 2.0 * np.pi * np.arange(phase_points) / phase_points
    total = 0.0
    for p1 in phis:
        for p2 in phis:
            point = point_from_canonical(i1, i2, p1, p2, n)
            overlap = np.vdot(coherent_state(basis, point).amplitudes,
                              state.amplitudes)
            total += abs(overlap) ** 2
    return total / phase_points ** 2


def symmetry_sectors_one_pass(basis: FockBasis) -> list:
    """[(label, isometries)] of the non-empty S3 sectors, A1, A2, E, all
    built in one pass over the orbits: the former ``fock.symmetry_sectors``,
    kept as the reference for the per-sector builder."""
    n = basis.total_particles
    occ = basis.states
    dim = basis.dimension
    desc = -np.sort(-occ, axis=1)
    _, orbit = np.unique(lex_rank(n, desc[:, 0], desc[:, 1]),
                         return_inverse=True)
    kind = 1 + (desc[:, 0] != desc[:, 1]) + (desc[:, 1] != desc[:, 2])
    orbit_kind = np.zeros(orbit.max() + 1, dtype=int)
    orbit_kind[orbit] = kind
    inversions = np.sum(occ[:, [0, 0, 1]] < occ[:, [1, 2, 2]], axis=1)
    sign = 1.0 - 2.0 * (inversions % 2)
    odd_one = np.where(occ[:, 0] == occ[:, 1], 2,
                       np.where(occ[:, 0] == occ[:, 2], 1, 0))
    pos = np.where(kind == 2, odd_one, np.argmax(occ, axis=1))

    def isometry(rows, cols, vals, width):
        m = sp.csr_matrix((vals, (rows, cols)), shape=(dim, width))
        m.eliminate_zeros()
        return m

    a1 = isometry(np.arange(dim), orbit,
                  1.0 / np.sqrt(np.array([0.0, 1.0, 3.0, 6.0])[kind]),
                  orbit_kind.size)
    six = np.flatnonzero(kind == 3)
    a2_col = np.cumsum(orbit_kind == 3) - 1
    a2 = isometry(six, a2_col[orbit[six]], sign[six] / np.sqrt(6.0),
                  int(np.sum(orbit_kind == 3)))
    width = np.array([0, 0, 1, 2])[orbit_kind]
    start = np.cumsum(width) - width
    carry = np.flatnonzero(kind > 1)
    rows = np.concatenate([carry, six])
    cols = np.concatenate([start[orbit[carry]], start[orbit[six]] + 1])
    weight = np.where(kind == 2, 1.0, np.sqrt(0.5))
    e1, e2 = _E_PARTNERS[0][pos], _E_PARTNERS[1][pos]
    even = np.concatenate([weight[carry] * e1[carry],
                           weight[six] * sign[six] * e2[six]])
    odd = np.concatenate([weight[carry] * e2[carry],
                          -weight[six] * sign[six] * e1[six]])
    e_isometries = tuple(isometry(rows, cols, v, int(width.sum()))
                         for v in (even, odd))
    sectors = [("A1", (a1,)), ("A2", (a2,)), ("E", e_isometries)]
    return [(label, isos) for label, isos in sectors if isos[0].shape[1]]


def bordered_derivatives_block_pad(level) -> tuple:
    """(dP/dchi, d2P/dchi2) of a ``purity.GroundLevel``, its bordered
    matrix and right-hand sides assembled by ``np.block`` and ``np.pad``:
    the former ``GroundLevel.derivatives``."""
    v, (tv, kv), dim = level.v, level.tv_kv, level.v.size
    h = (level.block if isinstance(level.block, np.ndarray)
         else level.block.toarray())
    a = np.block([[h, v[:, None]], [v, 0.0]])
    a[np.arange(dim), np.arange(dim)] -= level.e0
    rhs = np.pad(level.tv_kv, ((0, 0), (0, 1))).T     # [T v, K v; 0, 0]
    x_t, x_k = lu_solve(lu_factor(a), rhs)[:dim].T
    c = level.omega / (level.n_particles - 1)
    t, dv = float(v @ tv), -c * x_k
    t_dv, k_dv = np.split(level.tk @ dv, 2)
    dt = 2.0 * float(dv @ tv)
    d2t = 2.0 * (float(dv @ t_dv) - float(dv @ dv) * t
                 - 2.0 * c * float((k_dv - float(v @ kv) * dv) @ x_t))
    norm = 2.0 * level.n_particles ** 2
    return t * dt / norm, (dt * dt + t * d2t) / norm
