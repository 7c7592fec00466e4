import cmath
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import (canonical_gradient, canonical_hamiltonian,
                     canonical_velocity, equations_of_motion)
from triwell import semiclassical
from triwell.algebra import ModelParams
from triwell.errors import BracketingError, IntegrationError
from triwell.semiclassical import (ClassicalPoint, _classify_stability,
                                   _flow_terms, _gradient, _rhs, _velocity,
                                   _wirtinger_hessian,
                                   bifurcation_scan, classical_hamiltonian,
                                   find_fixed_points, integrate_trajectory,
                                   level_crossing, linearization,
                                   theta_min_analysis, twin_critical_points,
                                   twin_energy_reduced, twin_quadratic_portion)

PARAMS = ModelParams.from_reduced(-1.0, 2.2, 0.15, 30)


def w_gradient(point, params):
    """The library's closed-form dH/d(conj w) at a point, as an array."""
    return np.array(_gradient(complex(point.w1), complex(point.w2),
                              _flow_terms(params)))


def w_velocity(point, params):
    """The integrator's closed-form dw/dt at a point, as an array."""
    return np.array(_velocity(complex(point.w1), complex(point.w2),
                              _flow_terms(params)))


def test_coherent_energy_matches_quantum_expectation():
    from triwell.algebra import model_context
    from triwell.coherent import coherent_state

    ctx = model_context(9)
    params = ModelParams(-1.0, 0.3, 0.1, 9)
    pt = ClassicalPoint(0.7 + 0.4j, -0.2 + 0.9j)
    st = coherent_state(ctx.basis, pt)
    quantum = oracles.expectation(ctx.hamiltonian(params), st.amplitudes)
    assert classical_hamiltonian(pt, params) == pytest.approx(
        quantum, abs=1e-10)


def test_w_gradient_finite_difference():
    w = np.array([0.8 + 0.2j, -0.3 + 0.5j])
    grad = w_gradient(ClassicalPoint(*w), PARAMS)
    eps = 1e-6
    for m in range(2):
        for part, picker in ((1.0, np.real), (1j, np.imag)):
            dw = np.zeros(2, dtype=complex)
            dw[m] = eps * part
            hp = classical_hamiltonian(ClassicalPoint(*(w + dw)), PARAMS)
            hm = classical_hamiltonian(ClassicalPoint(*(w - dw)), PARAMS)
            # dH/dRe w = 2 Re grad, dH/dIm w = 2 Im grad (Wirtinger)
            assert (hp - hm) / (2 * eps) == pytest.approx(
                2.0 * picker(grad[m]), rel=1e-6, abs=1e-6)


def _complex_w():
    """Zero, or a modulus from 1e-9 to 30 (log-uniform) at any phase."""
    return st.one_of(
        st.just(0j),
        st.builds(lambda e, a: 10.0 ** e * cmath.exp(1j * a),
                  st.floats(-9.0, math.log10(30.0)),
                  st.floats(0.0, 2.0 * math.pi)))


def _params():
    return st.builds(ModelParams.from_reduced, st.sampled_from([-1.0, 1.0]),
                     st.floats(-4.0, 4.0), st.floats(-1.0, 1.0),
                     st.integers(2, 500))


@settings(max_examples=300, deadline=None)
@given(_complex_w(), _complex_w(), _params())
def test_closed_form_flow_matches_metric_solve(w1, w2, params):
    """1e-12 relative, with a roundoff floor of 1e-14 of the size the
    gradient and velocity have without cancellation (near a fixed point
    both vanish)."""
    pt = ClassicalPoint(w1, w2)
    n, d = params.n_particles, abs(w1) ** 2 + abs(w2) ** 2 + 1.0
    energy_scale = n * (abs(params.omega_eff)
                        + (n - 1) * (abs(params.kappa) + 2 * abs(params.lam)))
    grad_scale = energy_scale / math.sqrt(d)
    grad = oracles.w_gradient(w1, w2, params)
    assert np.linalg.norm(w_gradient(pt, params) - grad) <= (
        1e-12 * np.linalg.norm(grad) + 1e-14 * grad_scale)
    ref = oracles.w_velocity(w1, w2, params)
    assert np.linalg.norm(w_velocity(pt, params) - ref) <= (
        1e-12 * np.linalg.norm(ref) + 1e-14 * grad_scale * d ** 2 / n)


def test_rhs_equals_closed_form_oracle_bit_for_bit():
    """The integrator's right-hand side is ``_velocity`` itself, and with
    its constants taken once per trajectory it repeats the oracle's
    per-point arithmetic exactly on the Python complex scalars that the
    integrator steps: random points, w = 0, large |w|, lam = 0 and
    lam != 0, both signs of Omega."""
    assert _rhs is _velocity
    rng = np.random.default_rng(20)
    points = [0j, 1e-9j, 1e3 - 2e3j, -4e5 + 1e5j, 1.0 + 0j,
              *(rng.normal(size=12) * 3.0 + 1j * rng.normal(size=12))]
    cases = [ModelParams.from_reduced(-1.0, 1.5, 0.0, 30),
             ModelParams.from_reduced(-1.0, 1.5, 0.3, 30),
             ModelParams.from_reduced(1.0, -2.2, -0.7, 2),
             ModelParams(-1.0, 0.3, 0.1, 9), ModelParams(0.5, 0.0, -0.2, 500)]
    for params in cases:
        terms = _flow_terms(params)
        for w1, w2 in itertools.product(points, repeat=2):
            assert np.array_equal(
                np.array(_velocity(w1, w2, terms)),
                np.array(oracles.w_velocity_closed_form(w1, w2, params)))
            w1, w2 = complex(w1), complex(w2)
            v1, v2 = oracles.w_velocity_closed_form(w1, w2, params)
            want = np.array([v1.real, v1.imag, v2.real, v2.imag])
            g1, g2 = _rhs(w1, w2, terms)
            assert type(g1) is complex and type(g2) is complex
            got = np.array([g1.real, g1.imag, g2.real, g2.imag])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_energy_samples_on_arrays_match_scalar_calls():
    rng = np.random.default_rng(5)
    w1 = rng.normal(size=40) + 1j * rng.normal(size=40)
    w2 = 3.0 * (rng.normal(size=40) + 1j * rng.normal(size=40))
    w1[0] = w2[0] = 0.0
    values = classical_hamiltonian(ClassicalPoint(w1, w2), PARAMS)
    assert isinstance(values, np.ndarray) and values.shape == (40,)
    scalar = [classical_hamiltonian(ClassicalPoint(complex(a), complex(b)),
                                    PARAMS) for a, b in zip(w1, w2)]
    assert np.allclose(values, scalar, rtol=1e-15, atol=0.0)
    h1, h2, h3, d = oracles.w_moments(w1[1], w2[1])
    n = PARAMS.n_particles
    loop = (PARAMS.omega_eff * n * h1 / d + n * (n - 1) * (
        PARAMS.kappa * h2 - 2.0 * PARAMS.lam * h3.real) / d ** 2)
    assert scalar[1] == pytest.approx(loop, rel=1e-13)


def test_array_point_chart_matches_scalar_points():
    """d, the canonical chart and i_z of an array-valued point (the samples
    of a trajectory) equal the scalar values element by element."""
    rng = np.random.default_rng(7)
    w1 = rng.normal(size=40) + 1j * rng.normal(size=40)
    w2 = 3.0 * (rng.normal(size=40) + 1j * rng.normal(size=40))
    w1[0] = w2[0] = w1[1] = 0.0
    n = PARAMS.n_particles
    arrays = ClassicalPoint(w1, w2)
    points = [ClassicalPoint(complex(a), complex(b)) for a, b in zip(w1, w2)]
    pairs = [(arrays.d, [p.d for p in points]),
             (arrays.i_z, [p.i_z for p in points])]
    chart = [p.canonical(n) for p in points]
    pairs += [(got, [c[k] for c in chart])
              for k, got in enumerate(arrays.canonical(n))]
    for got, scalar in pairs:
        assert isinstance(got, np.ndarray) and got.shape == (40,)
        assert np.allclose(got, scalar, rtol=1e-15, atol=0.0)
    # phi = -np.angle(w) on both forms, so an empty well reads -0.0
    assert math.copysign(1.0, arrays.canonical(n)[2][0]) == -1.0
    assert math.copysign(1.0, chart[0][2]) == -1.0


@pytest.mark.parametrize("n", [7, 30, 200])
def test_wirtinger_hessian_matches_gradient_difference(n):
    """A = d(grad)/dw and B = d(grad)/d(conj w) from a centered difference
    of the closed-form gradient grad = dH/d(conj w)."""
    rng = np.random.default_rng(n)
    params = ModelParams.from_reduced(-1.0, 2.2, 0.15, n)
    terms = _flow_terms(params)
    eps = 1e-6
    for _ in range(10):
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        a, b = _wirtinger_hessian(ClassicalPoint(*w), params)
        ref_a, ref_b = np.zeros((2, 2), complex), np.zeros((2, 2), complex)
        for m in range(2):
            dx = np.zeros(2, complex)
            dx[m] = eps
            gx = (np.array(_gradient(*(w + dx), terms))
                  - np.array(_gradient(*(w - dx), terms))) / (2 * eps)
            gy = (np.array(_gradient(*(w + 1j * dx), terms))
                  - np.array(_gradient(*(w - 1j * dx), terms))) / (2 * eps)
            # d/dw = (d/dx - i d/dy)/2, d/d(conj w) = (d/dx + i d/dy)/2
            ref_a[:, m] = (gx - 1j * gy) / 2
            ref_b[:, m] = (gx + 1j * gy) / 2
        scale = max(np.max(np.abs(ref_a)), np.max(np.abs(ref_b)))
        assert np.max(np.abs(a - ref_a)) <= 1e-6 * scale
        assert np.max(np.abs(b - ref_b)) <= 1e-6 * scale


def _same_spectrum(got, ref, tol):
    return all(np.min(np.abs(got - x)) <= tol for x in ref) and all(
        np.min(np.abs(ref - x)) <= tol for x in got)


@pytest.mark.parametrize("omega, chi, mu, n", [
    (-1.0, 3.0, 0.0, 30), (-1.0, 2.2, 0.15, 7), (1.0, 1.5, 0.2, 30),
    (1.0, -1.75, -2.0, 200), (-1.0, 4.0, 0.6, 30)])
def test_linearization_eigenvalues_match_canonical_oracle(omega, chi, mu, n):
    """At every fixed point off the chart boundary the w-chart flow matrix
    has the eigenvalues of the sympy canonical flow matrix."""
    params = ModelParams.from_reduced(omega, chi, mu, n)
    checked = 0
    for rec in find_fixed_points(params, replicate=True):
        x = rec.point.canonical(n)
        if min(x[0], x[1], n - x[0] - x[1]) < 1e-9 * n:
            continue
        got = np.linalg.eigvals(linearization(rec.point, params))
        ref = np.linalg.eigvals(oracles.canonical_flow_matrix(*x, params))
        assert _same_spectrum(got, ref, 1e-8 * np.max(np.abs(ref)))
        checked += 1
    assert checked >= 6


def test_empty_well_fixed_point():
    """At mu = -1/2 the cubic factor has the root w = 0, where wells 1 and
    2 are empty; the flow matrix is finite there: a stable centre with
    eigenvalues +-3i and +-5i."""
    params = ModelParams.from_reduced(-1.0, 2.0, -0.5, 30)
    (rec,) = [r for r in find_fixed_points(params) if r.point.w1 == 0.0]
    assert (rec.label, rec.stability) == ("4+", "stable-center")
    eigs = np.linalg.eigvals(linearization(rec.point, params))
    assert np.max(np.abs(eigs.real)) < 1e-12
    assert np.sort(eigs.imag) == pytest.approx([-5.0, -3.0, 3.0, 5.0],
                                               abs=1e-12)


@pytest.mark.parametrize("omega", [-1.0, 1.0])
@pytest.mark.parametrize("n", [30, 31])
@pytest.mark.parametrize("chi, mu", [(2.25, 0.0), (1.3, -0.95),
                                     (1.45, -0.8)])
def test_stability_at_a_zero_pair(chi, mu, n, omega):
    """On chi = 9/4 + mu the flow matrix at w = 1 is nilpotent, so its
    eigenvalues come out at the square root of roundoff with either
    sign; the J^2 rule reads every such record stable-center."""
    params = ModelParams.from_reduced(omega, chi, mu, n)
    at_one = [r for r in find_fixed_points(params, replicate=True)
              if abs(r.point.w1 - 1.0) < 1e-6 and abs(r.point.w2 - 1.0) < 1e-6]
    assert at_one
    for rec in at_one:
        jac = linearization(rec.point, params)
        assert np.max(np.abs(np.linalg.eigvals(jac))) < 1e-6 * np.linalg.norm(
            jac)
        assert rec.stability == "stable-center"
    assert _classify_stability(np.zeros((4, 4), complex)) == "stable-center"


def test_trajectories_and_fixed_points_run_without_sympy(tmp_path):
    """sympy is a test-only dependency: every module imports, and every
    CLI command runs, with any import of sympy failing."""
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['sympy'] = None\n"
        "import triwell\n"
        "for info in pkgutil.iter_modules(triwell.__path__):\n"
        "    importlib.import_module('triwell.' + info.name)\n"
        "from triwell.algebra import ModelParams\n"
        "from triwell.cli import main\n"
        "from triwell.semiclassical import (ClassicalPoint, "
        "find_fixed_points, integrate_trajectory)\n"
        "p = ModelParams.from_reduced(-1.0, 3.0, 0.0, 30)\n"
        "integrate_trajectory(ClassicalPoint.from_twin_w(0.3), p, 2.0, 0.5)\n"
        "assert len(find_fixed_points(p, replicate=True)) == 12\n"
        "for argv in sys.argv[2:]:\n"
        "    assert main(argv.split() + ['--out', sys.argv[1]]) == 0, argv\n")
    commands = [
        "spectrum --n 6 --chi 1.0 --k 3",
        "purity-scan --n 6 --chi-steps 3",
        "scaling --n 10 12 --window-min 2.0 --window-max 3.2",
        "fields --n 6 --chi 3.0 --pop-grid 11 --phase-grid 16",
        "fixed-points --n 10 --chi 3.0 --replicate",
        "fixed-points --n 10 --chi 2.0 --mu -0.5",
        "trajectory --n 10 --chi 1.5 --t-max 1.0 --dt 0.5",
        "theta-min --chi-steps 5",
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path),
                             *commands],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    # the two fixed-points runs write the same file names
    assert len(list(tmp_path.glob("*.meta.json"))) == len(
        {argv.split()[0] for argv in commands})


def test_canonical_gradient_finite_difference():
    x = np.array([9.0, 7.5, 0.4, -0.3])
    grad = canonical_gradient(*x, PARAMS)
    eps = 1e-6
    for m in range(4):
        dx = np.zeros(4)
        dx[m] = eps
        hp = canonical_hamiltonian(*(x + dx), PARAMS)
        hm = canonical_hamiltonian(*(x - dx), PARAMS)
        assert (hp - hm) / (2 * eps) == pytest.approx(grad[m], rel=1e-6)


def test_charts_give_the_same_flow():
    pt = ClassicalPoint(0.8 + 0.2j, 0.6 - 0.1j)
    n = PARAMS.n_particles
    wdot = w_velocity(pt, PARAMS)
    cv = canonical_velocity(pt, PARAMS)
    w = np.array([pt.w1, pt.w2])
    eps = 1e-7

    def canon_of(wv):
        d = abs(wv[0]) ** 2 + abs(wv[1]) ** 2 + 1.0
        return np.array([n * abs(wv[0]) ** 2 / d, n * abs(wv[1]) ** 2 / d,
                         -np.angle(wv[0]), -np.angle(wv[1])])

    mapped = np.zeros(4)
    for k in range(2):
        for part in (1.0, 1j):
            dw = np.zeros(2, dtype=complex)
            dw[k] = eps * part
            comp = wdot[k].real if part == 1.0 else wdot[k].imag
            mapped += (canon_of(w + dw) - canon_of(w - dw)) / (2 * eps) * comp
    assert np.allclose(cv, mapped, rtol=1e-6, atol=1e-6)


def test_chart_switch_near_boundary():
    inner = ClassicalPoint(0.5, 0.5)
    chart, _ = equations_of_motion(inner, PARAMS)
    assert chart == "canonical"
    edge = ClassicalPoint(1e-8, 1e-8)
    chart, vel = equations_of_motion(edge, PARAMS)
    assert chart == "w"
    assert vel.shape == (2,)


def test_energy_per_particle_scale_free():
    """With fixed (chi, mu) the energy per particle does not depend on N."""
    pt = ClassicalPoint(0.9, 1.1)
    values = []
    for n in (10, 30, 100):
        p = ModelParams.from_reduced(-1.0, 1.7, 0.2, n)
        values.append(classical_hamiltonian(pt, p) / n)
    assert values[0] == pytest.approx(values[1], abs=1e-12)
    assert values[1] == pytest.approx(values[2], abs=1e-12)


def test_twin_energy_matches_full_surface():
    for w in (0.3, 1.0, 1.8, -0.4):
        pt = ClassicalPoint.from_twin_w(w)
        p = ModelParams.from_reduced(-1.0, 2.4, 0.3, 40)
        full = classical_hamiltonian(pt, p) / 40
        reduced = p.omega * twin_energy_reduced(w, 2.4, 0.3)
        assert full == pytest.approx(reduced, abs=1e-12)


def test_twin_critical_points_chi_zero():
    roots = twin_critical_points(0.0, 0.0)
    assert np.allclose(sorted(roots), [-0.5, 1.0], atol=1e-10)


def test_twin_critical_points_chi_two():
    roots = sorted(twin_critical_points(2.0, 0.0))
    expected = sorted([1.0, 0.5, 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)])
    assert np.allclose(roots, expected, atol=1e-9)


def twin_gradient_numerator(chi, mu):
    """Numerator of d/dw of the reduced twin energy, by polynomial
    algebra on its quotient form."""
    w = np.polynomial.Polynomial([0.0, 1.0])
    d = 2.0 * w ** 2 + 1.0
    n1 = (1.0 + 2.0 * mu) * (2.0 * w ** 2 + 4.0 * w)
    n2 = chi * (2.0 * w ** 4 + 1.0) - 2.0 * mu * (4.0 * w ** 3 + 2.0 * w ** 2)
    return ((n1.deriv() * d - n1 * d.deriv()) * d
            + n2.deriv() * d - 2.0 * n2 * d.deriv())


def test_twin_critical_points_are_the_gradient_roots():
    """Off the line chi = 9/4 + mu the critical points are the distinct
    real roots of the gradient numerator."""
    rng = np.random.default_rng(4)
    for chi, mu in rng.uniform((-3.0, -0.9), (5.0, 1.0), size=(60, 2)):
        roots = twin_gradient_numerator(chi, mu).roots()
        real = np.sort(roots[np.abs(roots.imag) < 1e-6].real)
        assert twin_critical_points(chi, mu) == pytest.approx(real,
                                                              abs=1e-7)


@pytest.mark.parametrize("chi, mu", [(2.25, 0.0), (1.45, -0.8),
                                     (1.3, -0.95)])
def test_twin_unit_root_once_on_the_double_root_line(chi, mu):
    """On chi = 9/4 + mu, w = 1 is a double root of the gradient; it is
    reported once and exactly."""
    roots = twin_critical_points(chi, mu)
    near_one = roots[np.abs(roots - 1.0) < 1e-6]
    assert near_one.tolist() == [1.0]
    for w in roots:
        assert twin_gradient_numerator(chi, mu)(w) == pytest.approx(
            0.0, abs=1e-9)


def test_fixed_points_where_the_pair_meets_one_plus():
    """At chi = 9/4, mu = 0 the cubic factor's root w = 1 makes the 3+
    branch pass through 1+, while 4+ stays apart."""
    records = find_fixed_points(ModelParams.from_reduced(-1.0, 2.25, 0.0, 30))
    labels = {r.label: r for r in records}
    assert set(labels) == {"1+", "2+", "3+", "4+"}
    assert labels["3+"].point.w1 == pytest.approx(1.0, abs=1e-12)
    assert labels["4+"].energy_per_particle < labels["1+"].energy_per_particle
    ws = [r.point.w1.real for r in records]
    assert ws == sorted(ws)


def test_fixed_point_labels_and_stability():
    params = ModelParams.from_reduced(-1.0, 3.0, 0.0, 30)
    records = {r.label: r for r in find_fixed_points(params)}
    assert set(records) == {"1+", "2+", "3+", "4+"}
    assert records["4+"].stability == "stable-center"
    assert records["1+"].stability == "unstable"
    assert records["4+"].point.i_z < -0.8
    assert records["4+"].point.w1.real == pytest.approx(0.2140, abs=2e-4)
    for r in records.values():
        assert r.gradient_norm < 1e-8
    # global minimum sits on the self-trapped branch past the crossing
    assert records["4+"].energy_per_particle < records["1+"].energy_per_particle


def test_fixed_point_symmetric_branch_below_transition():
    params = ModelParams.from_reduced(-1.0, 1.0, 0.0, 30)
    records = {r.label: r for r in find_fixed_points(params)}
    assert "1+" in records and records["1+"].stability == "stable-center"
    assert "3+" not in records and "4+" not in records


def test_replicated_sectors_share_energy():
    params = ModelParams.from_reduced(-1.0, 3.0, 0.0, 30)
    records = find_fixed_points(params, replicate=True)
    by_label = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r)
    assert len(by_label["4+"]) == 3
    energies = [r.energy_per_particle for r in by_label["4+"]]
    assert np.ptp(energies) < 1e-9
    sectors = {r.sector for r in by_label["4+"]}
    assert len(sectors) == 3


def test_saddle_node_location():
    chi_plus = bifurcation_scan(0.0, (1.0, 3.0))
    assert chi_plus == pytest.approx(1.9708, abs=1e-3)
    with pytest.raises(BracketingError):
        bifurcation_scan(0.0, (0.1, 0.5))


def test_saddle_node_square_root_scaling():
    chi_plus = bifurcation_scan(0.0, (1.0, 3.0))

    def gap(chi):
        roots = sorted(r for r in twin_critical_points(chi, 0.0)
                       if 0.0 < r < 0.99)
        assert len(roots) == 2
        return roots[1] - roots[0]

    delta = 1e-4
    ratio = gap(chi_plus + 4 * delta) / gap(chi_plus + delta)
    assert ratio == pytest.approx(2.0, rel=0.05)


def test_saddle_node_is_where_the_pair_appears():
    """chi_plus, the discriminant root, separates no pair from a pair."""
    for mu in np.linspace(-0.3, 1.5, 7):
        chi_plus = bifurcation_scan(mu, (0.5, 8.0))
        below = find_fixed_points(ModelParams.from_reduced(
            -1.0, chi_plus - 1e-7, mu, 30))
        above = find_fixed_points(ModelParams.from_reduced(
            -1.0, chi_plus + 1e-7, mu, 30))
        assert not {"3+", "4+"} & {r.label for r in below}
        assert {"3+", "4+"} <= {r.label for r in above}


def test_level_crossing_at_two():
    """Exactly 2 at mu = 0, and exactly 1 at the domain's edge mu = -1/2."""
    assert level_crossing(0.0) == 2.0
    assert level_crossing(-0.5) == 1.0


@pytest.mark.parametrize("mu", [-0.3, 0.0, 0.3])
def test_level_crossing_is_where_one_plus_and_four_plus_meet(mu):
    """level_crossing is the chi at which the 1+ and 4+ records of
    find_fixed_points have equal energy, the gap changing sign there."""
    chi_c = level_crossing(mu)

    def gap(chi):
        records = {r.label: r for r in find_fixed_points(
            ModelParams.from_reduced(-1.0, chi, mu, 30))}
        return (records["4+"].energy_per_particle
                - records["1+"].energy_per_particle)

    assert abs(gap(chi_c)) < 1e-6
    assert gap(chi_c - 1e-3) * gap(chi_c + 1e-3) < 0


def test_level_crossing_identities_in_sympy():
    """The numerator of d/dw of the reduced twin energy is -4 (w - 1) C(w);
    at chi_c(mu) C factors with the root w4, and the reduced twin energy
    at w4 equals that at w = 1."""
    sym = pytest.importorskip("sympy")
    w, chi, mu = sym.symbols("w chi mu", real=True)
    d = 2 * w ** 2 + 1
    energy = ((1 + 2 * mu) * (2 * w ** 2 + 4 * w) / d
              + chi * (2 * w ** 4 + 1) / d ** 2
              - 2 * mu * (4 * w ** 3 + 2 * w ** 2) / d ** 2)
    rng = np.random.default_rng(5)
    args = rng.normal(size=(3, 20))
    np.testing.assert_allclose(sym.lambdify((w, chi, mu), energy)(*args),
                               twin_energy_reduced(*args), atol=1e-13)
    cubic = (4 * (1 + mu) * w ** 3 + (2 - 2 * chi - 4 * mu) * w ** 2
             + (2 - 2 * chi + 2 * mu) * w + (1 + 2 * mu))
    assert sym.simplify(sym.diff(energy, w) * d ** 3
                        + 4 * (w - 1) * cubic) == 0
    chi_c = 2 * (3 + 6 * mu + 2 * mu ** 2) / (3 + 4 * mu)
    w4 = (1 + 2 * mu) / (2 + 2 * mu)
    factored = ((2 * (1 + mu) * w - (1 + 2 * mu))
                * (2 * (3 + 4 * mu) * w ** 2 - 4 * mu * w - (3 + 4 * mu))
                / (3 + 4 * mu))
    assert sym.simplify(cubic.subs(chi, chi_c) - factored) == 0
    assert sym.simplify((energy.subs(w, w4) - energy.subs(w, 1))
                        .subs(chi, chi_c)) == 0


@pytest.mark.parametrize("mu", [-0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3,
                                0.5, 1.0])
def test_level_crossing_matches_the_root_search(mu):
    reference = oracles.level_crossing_root_search(mu, (0.5, 6.0), tol=1e-14)
    assert level_crossing(mu) == pytest.approx(reference, rel=0, abs=1e-12)


def test_level_crossing_is_the_four_plus_crossing_on_its_domain():
    """On mu in [-1/2, 10], the root w4 = (1 + 2 mu) / (2 + 2 mu) is the
    4+ record of find_fixed_points at chi_c, at the energy of 1+."""
    for mu in np.linspace(-0.5, 10.0, 43):
        records = {r.label: r for r in find_fixed_points(
            ModelParams.from_reduced(-1.0, level_crossing(mu), mu, 30))}
        four, one = records["4+"], records["1+"]
        assert four.point.w1 == pytest.approx((1 + 2 * mu) / (2 + 2 * mu),
                                              abs=1e-9)
        assert four.stability == "stable-center"
        assert (abs(four.energy_per_particle - one.energy_per_particle)
                <= 1e-12 * abs(one.energy_per_particle))


@pytest.mark.parametrize("mu", [-0.505, -0.6, -1.0, -2.0, math.nan])
def test_level_crossing_outside_its_domain(mu):
    with pytest.raises(BracketingError):
        level_crossing(mu)


def test_trajectory_conserves_energy_and_twin_symmetry():
    params = ModelParams.from_reduced(-1.0, 2.5, 0.0, 30)
    start = ClassicalPoint.from_twin_w(0.4)
    traj = integrate_trajectory(start, params, 30.0, 0.05)
    assert traj.relative_energy_drift < 1e-8
    assert traj.rtol in (1e-10, 1e-12)
    assert np.max(np.abs(traj.point.w1 - traj.point.w2)) < 1e-7


def _trajectory_starts():
    """(id, params, start): the benchmark's eleven dynamics starts at seed 0
    (ten Rabi starts on rings of radius 0.10..0.28 about 1+ at chi = 1.5,
    and the self-trapping start 0.05 beyond 4+ at chi = 3) and three random
    twin starts at random chi and mu."""
    theta_star = 2.0 * math.atan(math.sqrt(2.0))
    rabi = ModelParams.from_reduced(-1.0, 1.5, 0.0, 30)
    starts = []
    for k in range(10):
        angle, radius = 2.0 * math.pi * k / 10.0, 0.1 + 0.02 * k
        starts.append((f"rabi{k}", rabi, ClassicalPoint.from_twin_angles(
            theta_star + radius * math.cos(angle), radius * math.sin(angle))))
    mst = ModelParams.from_reduced(-1.0, 3.0, 0.0, 30)
    w4 = next(r.point.w1.real for r in find_fixed_points(mst)
              if r.label == "4+")
    starts.append(("mst", mst, ClassicalPoint.from_twin_w(w4 + 0.05)))
    rng = np.random.default_rng(23)
    for k in range(3):
        theta, phi = rng.uniform(0.3, 2.6), rng.uniform(-math.pi, math.pi)
        params = ModelParams.from_reduced(-1.0, rng.uniform(0.0, 3.5),
                                          rng.uniform(-0.2, 0.2), 30)
        starts.append((f"twin{k}", params,
                       ClassicalPoint.from_twin_angles(theta, phi)))
    return starts


@pytest.mark.parametrize("params, start", [
    pytest.param(params, start, id=name)
    for name, params, start in _trajectory_starts()])
def test_scalar_dop853_follows_scipy_dop853(params, start):
    """The scalar DOP853 stays within 1e-10 of scipy's DOP853 (the stage
    sums differ only in summation order) at both rtols, on every sample of
    t = 0..20; at rtol 1e-10 the run meets the drift bound."""
    times = 0.05 * np.arange(401)
    for rtol in (1e-10, 1e-12):
        got = semiclassical.solve_ivp(complex(start.w1), complex(start.w2),
                                      _flow_terms(params), 20.0,
                                      times.tolist(), rtol)
        want = oracles.scipy_dop853(start, params, 20.0, times, rtol)
        for g, w in zip(got, want, strict=True):
            assert g.shape == times.shape
            assert np.max(np.abs(g - w)) <= 1e-10
    traj = integrate_trajectory(start, params, 20.0, 0.05)
    assert traj.rtol == 1e-10 and traj.relative_energy_drift <= 1e-8
    assert np.array_equal(traj.times, times)


def test_integrator_calls_the_flow_by_its_module_name(monkeypatch):
    """Every evaluation goes through ``semiclassical._rhs``, so a flow
    patched there is the one integrated; one that turns non-finite makes
    each step fail until the step is below the spacing of floats, which
    raises IntegrationError, as scipy's minimum-step failure did."""
    params = ModelParams.from_reduced(-1.0, 1.5, 0.0, 30)
    start = ClassicalPoint.from_twin_w(0.6)
    calls = []

    def flow(w1, w2, terms):
        calls.append(1)
        if len(calls) > 200:
            return complex(math.nan, 0.0), complex(math.nan, 0.0)
        return _velocity(w1, w2, terms)

    monkeypatch.setattr(semiclassical, "_rhs", flow)
    with pytest.raises(IntegrationError, match="below the spacing of floats"):
        integrate_trajectory(start, params, 20.0, 0.05)
    assert len(calls) > 200
    calls.clear()
    monkeypatch.setattr(semiclassical, "_rhs",
                        lambda *args: calls.append(1) or _velocity(*args))
    traj = integrate_trajectory(start, params, 1.0, 0.05)
    assert traj.rtol == 1e-10 and len(calls) > 12


def test_trajectory_stays_near_stable_center():
    params = ModelParams.from_reduced(-1.0, 1.0, 0.0, 30)
    theta_star = 2.0 * np.arctan(np.sqrt(2.0))
    start = ClassicalPoint.from_twin_angles(theta_star + 0.05, 0.0)
    traj = integrate_trajectory(start, params, 40.0, 0.05)
    assert np.max(np.abs(traj.point.i_z - 1.0 / 3.0)) < 0.1


def test_theta_min_analysis_identities():
    rows = theta_min_analysis(np.linspace(1.7, 2.3, 13))
    by_chi = {round(r.chi, 3): r for r in rows}
    # first-order identity holds away from the degenerate crossing
    for r in rows:
        if not r.degenerate:
            assert r.first_order_residual < 1e-6
    # the minimizing angle jumps at chi = 2
    assert by_chi[1.95].theta_min == pytest.approx(
        2.0 * np.arctan(np.sqrt(2.0)), abs=1e-9)
    assert by_chi[2.05].theta_min < 1.2
    assert by_chi[2.0].degenerate


def test_theta_min_second_derivative_cross_check():
    """d2H_min/dchi2 equals the slope of the quadratic portion along the
    moving minimum (chain rule through theta_min)."""
    chis = np.array([2.3, 2.31, 2.32])
    rows = theta_min_analysis(chis, fd_step=1e-5)
    # independent check: finite difference of dh_dchi across the grid
    fd = (rows[2].dh_dchi - rows[0].dh_dchi) / (chis[2] - chis[0])
    assert rows[1].d2h_dchi2 == pytest.approx(fd, rel=1e-3)


def test_twin_quadratic_portion_value():
    # at w = 1 (symmetric point) the quadratic portion is omega/3
    assert twin_quadratic_portion(1.0, -1.0) == pytest.approx(-1.0 / 3.0)
