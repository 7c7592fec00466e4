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
