"""Reference implementations that the library's closed forms are tested
against.  They follow the definitions term by term and favour clarity
over speed."""

import functools

import numpy as np


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


@functools.lru_cache(maxsize=None)
def _canonical_hessian():
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
    coords = (x1, x2, p1, p2)
    hess = sym.hessian(omega_eff * tunneling + collision, coords)
    return sym.lambdify(coords + (omega_eff, kappa, lam, n), hess, "numpy")


def canonical_flow_matrix(i1, i2, phi1, phi2, params):
    """S * Hess(H) in the canonical chart, with the Hessian from sympy."""
    hess = np.array(_canonical_hessian()(
        i1, i2, phi1, phi2, params.omega_eff, params.kappa, params.lam,
        params.n_particles), dtype=float)
    s = np.zeros((4, 4))
    s[0, 2] = s[1, 3] = -1.0
    s[2, 0] = s[3, 1] = 1.0
    return s @ hess


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
    from triwell.coherent import log_multinomial

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


def husimi_quadrature_oracle(state, i1: float, i2: float,
                             phase_points: int = 64) -> float:
    """Brute-force phase average of |<N; w|psi>|^2.

    The rectangle rule on a uniform periodic grid is exact once the number
    of points exceeds the trigonometric degree 2N of the integrand.
    """
    from triwell.coherent import CoherentPoint, coherent_state

    basis = state.basis
    n = basis.total_particles
    i3 = n - i1 - i2
    if i3 <= 0:
        raise ValueError("quadrature oracle requires I1 + I2 < N")
    phis = 2.0 * np.pi * np.arange(phase_points) / phase_points
    total = 0.0
    for p1 in phis:
        for p2 in phis:
            point = CoherentPoint.from_canonical(i1, i2, p1, p2, n)
            overlap = np.vdot(coherent_state(basis, point).amplitudes,
                              state.amplitudes)
            total += abs(overlap) ** 2
    return total / phase_points ** 2
