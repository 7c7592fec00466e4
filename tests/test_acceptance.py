"""Acceptance suite: one test per headline claim, one printed verdict each.

These tests exercise the full stack end to end and print a PASS/FAIL line
directly to the terminal (bypassing capture) so a plain pytest run shows a
ten-line scorecard.
"""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from oracles import (canonical_gradient, canonical_hamiltonian, expectation,
                     hamiltonian_direct, hamiltonian_generators,
                     husimi_quadrature_oracle)
from triwell.algebra import ModelParams, model_context
from triwell.coherent import ClassicalPoint, coherent_state
from triwell.distributions import (count_local_maxima, husimi_population,
                                   phase_distribution,
                                   phase_marginal_variance)
from triwell.purity import critical_chi_q, generalized_purity, power_law_fit
from triwell.semiclassical import (bifurcation_scan, classical_hamiltonian,
                                   find_fixed_points, integrate_trajectory,
                                   level_crossing, theta_min_analysis)
from triwell.spectral import ground_state


def report(capsys, num, name, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_level_crossing(capsys):
    chi_c = level_crossing(0.0)
    ok = abs(chi_c - 2.000) <= 0.005
    report(capsys, 1, "level crossing", ok, f"chi_c = {chi_c:.6f} (2.000 +/- 0.005)")


def test_criterion_02_saddle_node(capsys):
    chi_plus = bifurcation_scan(0.0, (1.0, 3.0))
    ok = abs(chi_plus - 1.97) <= 0.01
    report(capsys, 2, "saddle-node bifurcation", ok,
           f"chi_plus = {chi_plus:.6f} (1.97 +/- 0.01)")


def test_criterion_03_coherent_purity(capsys):
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in (1, 2, 10, 30, 60):
        ctx = model_context(n)
        for _ in range(50):
            w = rng.normal(size=2) + 1j * rng.normal(size=2)
            st = coherent_state(ctx.basis, ClassicalPoint(*w))
            p = generalized_purity(st, ctx.gens, n)
            worst = max(worst, abs(p - 1.0))
    ok = worst < 1e-10
    report(capsys, 3, "coherent-state purity", ok,
           f"max |P - 1| = {worst:.2e} over 250 points (tol 1e-10)")


def test_criterion_04_noninteracting_ground_state(capsys):
    params = ModelParams.from_reduced(-1.0, 0.0, 0.0, 30)
    e0, gs = ground_state(params)
    ref = coherent_state(model_context(30).basis, ClassicalPoint(1.0, 1.0))
    fidelity = abs(np.vdot(ref.amplitudes, gs.amplitudes)) ** 2
    ok = abs(e0 + 60.0) <= 1e-9 and fidelity >= 1.0 - 1e-10
    report(capsys, 4, "non-interacting ground state", ok,
           f"E0 = {e0:.12f} (target -60), fidelity = {fidelity:.12f}")


def _chi_task(n):
    window = (2.0, 2.6) if n >= 20 else (2.0, 3.2)
    return n, critical_chi_q(-1.0, 0.0, n, window, tol=1e-3)


def test_criterion_05_finite_size_scaling(capsys):
    ns = [10, 15, 20, 25, 30, 40, 50, 60]
    with ProcessPoolExecutor(max_workers=4) as pool:
        results = dict(pool.map(_chi_task, ns))
    fit = power_law_fit(ns, [results[n] for n in ns], 2.0)
    ok = (abs(fit.exponent + 0.99) <= 0.10
          and abs(fit.ln_prefactor - 1.2) <= 0.3)
    report(capsys, 5, "finite-size scaling", ok,
           f"exponent = {fit.exponent:.4f} (-0.99 +/- 0.10), "
           f"ln-prefactor = {fit.ln_prefactor:.4f} (1.2 +/- 0.3)")


def _husimi_maxima(chi):
    params = ModelParams.from_reduced(-1.0, chi, 0.0, 30)
    _, gs = ground_state(params)
    grid = np.linspace(0.0, 30.0, 101)
    return count_local_maxima(husimi_population(gs, grid, grid), 0.2)


def test_criterion_06_trifurcation(capsys):
    deep = _husimi_maxima(3.0)
    symmetric = _husimi_maxima(0.0)
    ok = deep == 3 and symmetric == 1
    report(capsys, 6, "occupational trifurcation", ok,
           f"maxima(chi=3) = {deep} (want 3), maxima(chi=0) = {symmetric} "
           f"(want 1)")


def _phase_variance(chi):
    params = ModelParams.from_reduced(-1.0, chi, 0.0, 30)
    _, gs = ground_state(params)
    phi = 2.0 * np.pi * np.arange(128) / 128
    return phase_marginal_variance(phase_distribution(gs, phi, phi))


def test_criterion_07_phase_squeezing(capsys):
    v2, v0 = _phase_variance(2.0), _phase_variance(0.0)
    ok = v2 < v0
    report(capsys, 7, "phase squeezing", ok,
           f"circ. var(chi=2) = {v2:.5f} < var(chi=0) = {v0:.5f}")


def test_criterion_08_dynamical_regimes(capsys):
    n = 30
    theta_star = 2.0 * np.arctan(np.sqrt(2.0))       # symmetric point 1+
    params_ro = ModelParams.from_reduced(-1.0, 1.5, 0.0, n)
    worst_dev, worst_drift = 0.0, 0.0
    for k in range(10):
        angle = 2.0 * np.pi * k / 10.0
        radius = 0.1 + 0.02 * k                       # 0.10 .. 0.28 rad
        start = ClassicalPoint.from_twin_angles(
            theta_star + radius * np.cos(angle), radius * np.sin(angle))
        traj = integrate_trajectory(start, params_ro, 100.0, 0.05)
        worst_dev = max(worst_dev,
                        abs(float(np.mean(traj.point.i_z)) - 1.0 / 3.0))
        worst_drift = max(worst_drift, traj.relative_energy_drift)
    params_mst = ModelParams.from_reduced(-1.0, 3.0, 0.0, n)
    w4 = [r for r in find_fixed_points(params_mst) if r.label == "4+"]
    start = ClassicalPoint.from_twin_w(float(w4[0].point.w1.real) + 0.05)
    traj = integrate_trajectory(start, params_mst, 100.0, 0.05)
    worst_drift = max(worst_drift, traj.relative_energy_drift)
    iz_max = float(np.max(traj.point.i_z))
    ok = worst_dev < 0.1 and iz_max < 0.0 and worst_drift <= 1e-8
    report(capsys, 8, "dynamical regimes", ok,
           f"RO max |mean Iz - 1/3| = {worst_dev:.4f} (< 0.1), "
           f"MST max Iz = {iz_max:.4f} (< 0), drift = {worst_drift:.1e}")


def test_criterion_09_envelope_identity(capsys):
    grid = np.concatenate([np.arange(1.5, 1.9501, 0.05),
                           np.arange(2.05, 2.5001, 0.05)])
    grid = grid[(grid < 1.949) | (grid > 2.051)]
    rows = theta_min_analysis(grid)
    residual = max(r.first_order_residual for r in rows)
    theta_lo = theta_min_analysis([1.95])[0].theta_min
    theta_hi = theta_min_analysis([2.05])[0].theta_min
    jump = abs(theta_lo - theta_hi)
    ok = residual < 1e-6 and jump >= 0.1
    report(capsys, 9, "first-order envelope identity", ok,
           f"max residual = {residual:.2e} (< 1e-6), theta jump = "
           f"{jump:.4f} rad (>= 0.1)")


def test_criterion_10_oracle_equivalences(capsys):
    # (a) the two Hamiltonian forms differ by a scalar multiple of identity
    worst_off = 0.0
    for n in (2, 4, 6):
        basis = model_context(n).basis
        for omega in (-1.0, 1.0):
            for kappa in (0.0, 0.5):
                for lam in (0.0, 0.3):
                    params = ModelParams(omega, kappa, lam, n)
                    hd = hamiltonian_direct(basis, params)
                    hg = hamiltonian_generators(basis, params)
                    diff = (hd - hg).toarray()
                    c = np.trace(diff).real / basis.dimension
                    off = np.max(np.abs(diff - c * np.eye(basis.dimension)))
                    worst_off = max(worst_off, float(off))
    # (b) closed-form energy surface vs exact coherent expectation
    worst_h = 0.0
    rng = np.random.default_rng(9)
    for n in (2, 4, 6):
        ctx = model_context(n)
        params = ModelParams(-1.0, 0.4, 0.15, n)
        h = ctx.hamiltonian(params)
        for _ in range(5):
            w = rng.normal(size=2) + 1j * rng.normal(size=2)
            pt = ClassicalPoint(*w)
            st = coherent_state(ctx.basis, pt)
            exact = expectation(h, st.amplitudes)
            worst_h = max(worst_h,
                          abs(classical_hamiltonian(pt, params) - exact))
    # (c) closed-form Husimi vs quadrature at N = 10
    params = ModelParams.from_reduced(-1.0, 2.0, 0.0, 10)
    _, gs = ground_state(params)
    worst_q = 0.0
    for i1, i2 in [(2.0, 3.0), (4.0, 4.0), (1.0, 6.5)]:
        closed = husimi_population(gs, np.array([i1]),
                                   np.array([i2])).values[0, 0]
        worst_q = max(worst_q,
                      abs(closed - husimi_quadrature_oracle(gs, i1, i2)))
    # (d) analytic canonical gradient vs finite differences
    params = ModelParams.from_reduced(-1.0, 2.2, 0.15, 30)
    x = np.array([9.0, 7.5, 0.4, -0.3])
    grad = canonical_gradient(*x, params)
    worst_g = 0.0
    for m in range(4):
        dx = np.zeros(4)
        dx[m] = 1e-6
        fd = (canonical_hamiltonian(*(x + dx), params)
              - canonical_hamiltonian(*(x - dx), params)) / 2e-6
        worst_g = max(worst_g, abs(fd - grad[m]))
    ok = (worst_off < 1e-12 and worst_h < 1e-12 and worst_q < 1e-10
          and worst_g < 1e-7)
    report(capsys, 10, "oracle equivalences", ok,
           f"identity-shift off-residual = {worst_off:.1e} (< 1e-12), "
           f"energy surface = {worst_h:.1e} (< 1e-12), "
           f"Husimi = {worst_q:.1e} (< 1e-10), "
           f"gradient = {worst_g:.1e} (< 1e-7)")
