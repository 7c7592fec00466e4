import ctypes
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.stats import linregress

import oracles
from oracles import (ConsistencyError, algebra_purity_constant,
                     algebra_reduced_purity, orthonormal_generator_basis)
from triwell import algebra, purity, spectral
from triwell.algebra import (HamiltonianTerms, ModelContext, ModelParams,
                             model_context)
from triwell.coherent import ClassicalPoint, QuantumState, coherent_state
from triwell.errors import BracketingError
from triwell.purity import (critical_chi_q, generalized_purity,
                            ground_state_purity, map_tasks, power_law_fit,
                            purity_derivative, purity_scan)
from triwell.semiclassical import level_crossing
from triwell.spectral import ground_state, spectrum


def generator_purity(omega, mu, n, chi):
    """The eight generator expectations on the ``spectrum`` ground state."""
    _, state = ground_state(ModelParams.from_reduced(omega, chi, mu, n))
    return generalized_purity(state, model_context(n).gens, n)


@pytest.mark.parametrize("n", [1, 2, 10, 25])
def test_coherent_states_have_unit_purity(n):
    ctx = model_context(n)
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        st = coherent_state(ctx.basis, ClassicalPoint(*w))
        assert generalized_purity(st, ctx.gens, n) == pytest.approx(
            1.0, abs=1e-11)


def test_purity_bounded_for_random_states():
    ctx = model_context(8)
    rng = np.random.default_rng(11)
    for _ in range(25):
        v = rng.normal(size=ctx.basis.dimension) \
            + 1j * rng.normal(size=ctx.basis.dimension)
        v /= np.linalg.norm(v)
        p = generalized_purity(QuantumState(ctx.basis, v), ctx.gens, 8)
        assert 0.0 <= p <= 1.0 + 1e-12


def test_purity_zero_particles_rejected():
    ctx = model_context(0)
    st = QuantumState(ctx.basis, np.ones(1))
    with pytest.raises(ValueError):
        generalized_purity(st, ctx.gens, 0)


def test_algebra_reduced_route_proportional():
    """Sum of squared orthonormal-generator traces matches the weighted
    purity up to the state-independent constant K(N)."""
    for n in (3, 6):
        k_const = algebra_purity_constant(n, n_states=12, seed=5)
        ctx = model_context(n)
        rng = np.random.default_rng(2)
        v = rng.normal(size=ctx.basis.dimension) * 1.0
        v /= np.linalg.norm(v)
        st = QuantumState(ctx.basis, v.astype(complex))
        s, k = algebra_reduced_purity(st, ctx.basis, ctx.gens)
        assert k == pytest.approx(k_const, rel=1e-8)
        assert k_const * s == pytest.approx(
            generalized_purity(st, ctx.gens, n), rel=1e-10)


def test_generator_gram_must_be_positive_definite():
    """At N = 0 every generator is the zero matrix, so the Gram matrix is
    singular and the orthonormalization must refuse it."""
    ctx = model_context(0)
    with pytest.raises(ConsistencyError):
        orthonormal_generator_basis(ctx.basis, ctx.gens)


def test_purity_constant_detects_state_dependence(monkeypatch):
    """A purity with a state-dependent extra term breaks the proportionality
    to the algebra-reduced purity, and the constant check must say so."""
    true_purity = oracles.generalized_purity

    def skewed(state, gens, n):
        return true_purity(state, gens, n) + abs(state.amplitudes[0]) ** 2

    monkeypatch.setattr(oracles, "generalized_purity", skewed)
    with pytest.raises(ConsistencyError):
        algebra_purity_constant(3, n_states=6, seed=5)


def test_ground_state_purity_monotone_trend():
    ps = [ground_state_purity(-1.0, 0.0, 15, chi) for chi in (0.0, 1.0, 2.5)]
    assert ps[0] > 0.99
    assert ps[0] > ps[1] > ps[2]


def test_purity_scan_grid_and_derivative():
    grid = np.linspace(0.0, 1.0, 5)
    scan = purity_scan(-1.0, 0.0, 8, grid)
    assert scan.purity.shape == grid.shape
    assert np.isnan(scan.derivative[0]) and np.isnan(scan.derivative[-1])
    expected = (scan.purity[2] - scan.purity[0]) / (grid[2] - grid[0])
    assert scan.derivative[1] == pytest.approx(expected)
    with pytest.raises(ValueError):
        purity_scan(-1.0, 0.0, 8, grid[::-1])


def test_purity_scan_no_difference_across_a_sector_change():
    """At N = 17, omega = +1, mu = 0.2 the ground level is A1 at
    chi = 0.8 and 0.9 and E around them; no centered difference spans the
    jump of P, and the others are the plain differences."""
    grid = np.linspace(-1.0, 3.0, 41)
    scan = purity_scan(1.0, 0.2, 17, grid)
    assert scan.sectors[17:21] == ("E", "A1", "A1", "E")
    assert set(scan.sectors) == {"A1", "E"}
    for k in range(1, grid.size - 1):
        if len(set(scan.sectors[k - 1:k + 2])) > 1:
            assert np.isnan(scan.derivative[k])
        else:
            assert scan.derivative[k] == (
                (scan.purity[k + 1] - scan.purity[k - 1])
                / (grid[k + 1] - grid[k - 1]))
    assert np.all(np.isnan(scan.derivative[17:21]))


@pytest.mark.parametrize("n", [10, 30, 60])
def test_a1_tunneling_purity_matches_generators(n):
    """P = <T>^2 / (4 N^2) on the A1 block equals the generator purity of
    the full ground state, also at N = 60, chi = 3, where the A1-E gap is
    about 1e-13."""
    for chi in (0.0, 1.0, 2.2, 3.0):
        assert abs(ground_state_purity(-1.0, 0.0, n, chi)
                   - generator_purity(-1.0, 0.0, n, chi)) <= 1e-14


def test_a1_route_takes_no_generator_expectations(monkeypatch):
    """No ground-state path reads the generators or the full-space
    spectrum, for omega < 0 (A1) or omega > 0 (E doublets at N = 8, 31
    and at N = 17, mu = 0.2)."""
    def refuse(*args):
        raise AssertionError("generator route taken")

    monkeypatch.setattr(purity, "generalized_purity", refuse)
    monkeypatch.setattr(spectral, "spectrum", refuse)
    monkeypatch.setattr(ModelContext, "gens", property(refuse))
    assert 0.0 < ground_state_purity(-1.0, 0.0, 12, 2.2) < 1.0
    critical_chi_q(-1.0, 0.0, 10, (2.0, 3.2))
    assert 0.0 < ground_state_purity(1.0, 0.0, 31, 0.5) < 1.0
    assert 0.0 < ground_state_purity(1.0, 0.2, 17, 0.5) < 1.0
    critical_chi_q(1.0, 0.0, 8, (0.5, 3.2))


def test_a1_runs_project_the_a1_block_alone(monkeypatch):
    """Where only the A1 block is solved, only its isometry is built and
    its three terms projected, and the full-space pattern is never built;
    ``spectrum`` builds every isometry, every block and the pattern."""
    projected = []
    project = algebra._project

    def counted(isometry, m):
        projected.append(isometry.shape[1])
        return project(isometry, m)

    def built(ctx):
        return ("terms" in vars(ctx),
                ["terms" in vars(sector) for sector in ctx.sectors])

    def isometries_built(ctx):
        return ["isometries" in vars(sector) for sector in ctx.sectors]

    model_context.cache_clear()
    monkeypatch.setattr(algebra, "_project", counted)
    ground_state_purity(-1.0, 0.0, 20, 2.0)
    critical_chi_q(-1.0, 0.0, 10, (2.0, 2.6))
    a1 = [model_context(n).sectors[0].terms.dimension for n in (20, 10)]
    assert projected == [a1[0]] * 3 + [a1[1]] * 3
    for n in (20, 10):
        assert built(model_context(n)) == (False, [True, False, False])
        assert [s.label for s in model_context(n).sectors] == ["A1", "A2", "E"]
        assert isometries_built(model_context(n)) == [True, False, False]
    spectrum(ModelParams.from_reduced(-1.0, 2.0, 0.0, 20), 4)
    assert len(projected) == 12
    assert built(model_context(20)) == (True, [True, True, True])
    assert isometries_built(model_context(20)) == [True, True, True]
    assert isometries_built(model_context(10)) == [True, False, False]


@pytest.mark.parametrize("n, chis", [(10, (2.0, 2.2, 2.4)),
                                     (25, (2.0, 2.2, 2.4)),
                                     (60, (2.2, 2.4))])
def test_exact_derivative_matches_centered_difference(n, chis):
    h = 1e-4
    for chi in chis:
        centered = (generator_purity(-1.0, 0.0, n, chi + h)
                    - generator_purity(-1.0, 0.0, n, chi - h)) / (2.0 * h)
        assert abs(purity_derivative(-1.0, 0.0, n, chi) - centered) <= 1e-6


def test_exact_derivative_krylov_route(monkeypatch):
    """Above DENSE_LIMIT the A1 block is solved by Krylov; the derivative
    matches the one from the dense eigensolve."""
    dense = [purity_derivative(-1.0, 0.0, 25, chi) for chi in (2.0, 2.3)]
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 0)
    krylov = [purity_derivative(-1.0, 0.0, 25, chi) for chi in (2.0, 2.3)]
    assert krylov == pytest.approx(dense, rel=1e-9, abs=0.0)


def lifted_e_partners(omega, mu, n, chi):
    """The two full-space partners of the E block's lowest vector."""
    e = model_context(n).sectors[-1]
    assert e.label == "E"
    params = ModelParams.from_reduced(omega, chi, mu, n)
    _, vecs, _ = spectral.eigensolve_lowest(e.terms, params, 1)
    return [isometry @ vecs[:, 0] for isometry in e.isometries]


def weighted_purity(expectations, n):
    """The generalized purity of eight generator expectations."""
    weights = np.array([3.0, 4.0, 12.0, 12.0, 12.0, 12.0, 12.0, 12.0])
    return 9.0 / n ** 2 * float(np.sum(np.asarray(expectations) ** 2
                                       / weights))


@pytest.mark.parametrize("n, mu", [(31, 0.0), (17, 0.2)])
def test_e_doublet_purity_is_the_mixture(n, mu):
    """At an E-doublet ground level (omega = +1, chi = 0.5) the purity is
    that of the mixture (|e1><e1| + |e2><e2|) / 2: the eight generator
    expectations averaged over the two partners in any U(2) frame of the
    pair.  A single partner's purity depends on the frame."""
    chi = 0.5
    assert spectrum(ModelParams.from_reduced(1.0, chi, mu, n),
                    1).labels == ("E",)
    gens = model_context(n).gens
    pair = np.column_stack(lifted_e_partners(1.0, mu, n, chi))
    rng = np.random.default_rng(7)
    single = []
    for _ in range(5):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        rotated = (pair @ u).T
        expectations = [np.mean([np.real(np.vdot(f, g @ f)) for f in rotated])
                        for g in gens]
        assert abs(weighted_purity(expectations, n)
                   - ground_state_purity(1.0, mu, n, chi)) <= 1e-14
        single.append(generalized_purity(
            QuantumState(model_context(n).basis, rotated[0]), gens, n))
    assert np.ptp(single) > 1e-2


@pytest.mark.parametrize("omega, mu, n, chi", [(-1.0, 0.3, 12, 2.2),
                                               (-1.0, 0.05, 10, 2.3),
                                               (1.0, 0.0, 16, -1.0),
                                               (1.0, 0.0, 24, 3.0)])
def test_one_formula_matches_generators_off_perron_frobenius(omega, mu, n,
                                                             chi):
    """Nondegenerate ground states where Perron-Frobenius does not apply
    (mu != 0 or omega > 0): <T>^2 / (4 N^2) on the ground sector's block
    equals the generator purity of the ``spectrum`` ground state."""
    assert spectrum(ModelParams.from_reduced(omega, chi, mu, n),
                    1).labels == ("A1",)
    assert abs(ground_state_purity(omega, mu, n, chi)
               - generator_purity(omega, mu, n, chi)) <= 1e-14


@pytest.mark.parametrize("omega, mu, n, chis, label", [
    (1.0, 0.0, 31, (1.0, 2.5), "E"),
    (1.0, 0.2, 17, (0.5,), "E"),
    (-1.0, 0.3, 12, (2.2,), "A1"),
    (-1.0, 0.05, 10, (2.0, 2.3), "A1"),
])
def test_exact_derivative_off_perron_frobenius(omega, mu, n, chis, label):
    """The bordered-solve dP/dchi holds on any sector's block, since
    dH/dchi = omega / (N - 1) K at fixed mu."""
    h = 1e-4
    for chi in chis:
        assert {purity._ground_block(omega, mu, n, c).label
                for c in (chi - h, chi, chi + h)} == {label}
        centered = (ground_state_purity(omega, mu, n, chi + h)
                    - ground_state_purity(omega, mu, n, chi - h)) / (2.0 * h)
        assert purity_derivative(omega, mu, n, chi) == pytest.approx(
            centered, rel=1e-6, abs=0.0)


def test_critical_chi_refuses_a_sector_change():
    """At omega = +1, mu = 0.2, N = 17 the ground level flips between E and
    A1 for chi in (0.7, 0.95): P jumps, and no minimum is taken across."""
    with pytest.raises(BracketingError, match="changes sector"):
        critical_chi_q(1.0, 0.2, 17, (0.3, 1.5))


def test_exact_derivative_needs_two_particles():
    with pytest.raises(ValueError):
        purity_derivative(-1.0, 0.0, 1, 0.0)


def test_purity_scan_solves_each_point_once(monkeypatch):
    """Every grid point is one ground-block solve, which gives both P and
    the sector label, on Perron-Frobenius (A1 alone) and off it."""
    block = purity._ground_block
    grid = np.linspace(0.0, 3.0, 7)
    for omega, mu in ((-1.0, 0.0), (1.0, 0.2)):
        calls = []

        def counted_block(*args):
            calls.append(args)
            return block(*args)

        monkeypatch.setattr(purity, "_ground_block", counted_block)
        scan = purity_scan(omega, mu, 10, grid)
        assert len(calls) == 7
        assert scan.sectors == tuple(block(omega, mu, 10, chi).label
                                     for chi in grid)
    assert purity_scan(-1.0, 0.0, 10, grid).sectors == ("A1",) * 7


def test_purity_scan_zero_particles_rejected():
    with pytest.raises(ValueError, match="zero particles"):
        purity_scan(-1.0, 0.0, 0, [0.0, 1.0])


def test_purity_derivative_builds_the_a1_hamiltonian_once(monkeypatch):
    """The bordered solve reuses the dense matrix the eigensolve assembled:
    one dense assembly per call, and no CSR matrix built or densified."""
    calls, built, dense = [], [], []
    assemble, build = HamiltonianTerms.dense, HamiltonianTerms.hamiltonian
    csr = type(build(model_context(10).sectors[0].terms,
                     ModelParams(-1.0, 0.0, 0.0, 10)))
    densify = csr.toarray

    def counted_assemble(self, params):
        h = assemble(self, params)
        calls.append(h)
        return h

    def counted_build(self, params):
        built.append(self.dimension)
        return build(self, params)

    def counted_densify(self, *args, **kwargs):
        dense.append(self.shape[0])
        return densify(self, *args, **kwargs)

    purity_derivative(-1.0, 0.0, 10, 2.2)      # warm the model context
    monkeypatch.setattr(HamiltonianTerms, "dense", counted_assemble)
    monkeypatch.setattr(HamiltonianTerms, "hamiltonian", counted_build)
    monkeypatch.setattr(csr, "toarray", counted_densify)
    purity_derivative(-1.0, 0.0, 10, 2.3)
    a1 = model_context(10).sectors[0].terms.dimension
    assert [h.shape for h in calls] == [(a1, a1)]
    level = purity._ground_block(-1.0, 0.0, 10, 2.3)
    assert len(calls) == 2 and level.block is calls[1]
    _ = level.derivatives                   # the bordered solve
    assert len(calls) == 2
    assert built == [] and dense == []


def test_purity_needs_no_factorization(monkeypatch):
    """P and the purity scan solve the eigenproblem only; the bordered
    matrix is factorized on the first derivative read."""
    def refuse(*args, **kwargs):
        raise AssertionError("bordered matrix factorized")

    monkeypatch.setattr(purity, "lu_factor", refuse)
    assert 0.0 < ground_state_purity(-1.0, 0.0, 10, 2.2) < 1.0
    scan = purity_scan(-1.0, 0.0, 10, np.linspace(0.0, 3.0, 7))
    assert np.all((scan.purity > 0.0) & (scan.purity <= 1.0))
    with pytest.raises(AssertionError, match="factorized"):
        purity_derivative(-1.0, 0.0, 10, 2.2)


@pytest.mark.parametrize("omega, mu, n", [(-1.0, 0.0, 10), (-1.0, 0.0, 25),
                                          (1.0, 0.2, 17), (1.0, 0.2, 31)])
def test_bordered_derivatives_bitwise_equal_block_pad_oracle(omega, mu, n):
    """The bordered matrix and right-hand sides filled in place give the
    (dP/dchi, d2P/dchi2) of the np.block / np.pad assembly bit for bit, on
    the A1 and E blocks, from the dense block and from its CSR form."""
    labels = []
    for chi in (0.7, 2.2):
        params = ModelParams.from_reduced(omega, chi, mu, n)
        for sector in model_context(n).sectors:
            if sector.label == "A2":
                continue
            labels.append(sector.label)
            terms = sector.terms
            vals, vecs, h = spectral.eigensolve_lowest(terms, params, 1)
            tk, v = terms.tunneling_collision, vecs[:, 0]
            for block in (h, terms.hamiltonian(params)):
                level = purity.GroundLevel(
                    sector.label, block, float(vals[0]), v, tk,
                    (tk @ v).reshape(2, -1), omega, n)
                want = oracles.bordered_derivatives_block_pad(level)
                assert all(isinstance(x, float) for x in level.derivatives)
                assert (np.array(level.derivatives).view(np.int64).tolist()
                        == np.array(want).view(np.int64).tolist())
    assert labels == ["A1", "E"] * 2


@pytest.mark.parametrize("n", [10, 25, 60])
def test_second_derivative_matches_centered_difference(n):
    """Second-order perturbation theory on the ground block gives
    d2P/dchi2; a centered difference of the exact dP/dchi agrees to its
    own O(h^2) and roundoff error."""
    h = 1e-4
    for chi in (1.5, 2.1, 2.5):
        centered = (purity_derivative(-1.0, 0.0, n, chi + h)
                    - purity_derivative(-1.0, 0.0, n, chi - h)) / (2.0 * h)
        exact = purity._ground_block(-1.0, 0.0, n, chi).derivatives[1]
        assert exact == pytest.approx(centered, rel=2e-6, abs=0.0)


@pytest.mark.parametrize("n", [10, 20, 40])
def test_critical_chi_matches_a_fine_golden_search(n):
    """The root of d2P/dchi2 at tol 1e-3 is the minimizer of dP/dchi that
    a golden search at xtol 1e-10 finds, to that search's resolution."""
    window = (2.0, 2.6) if n >= 20 else (2.0, 3.2)

    def deriv(chi):
        return purity_derivative(-1.0, 0.0, n, chi)

    coarse = np.linspace(*window, 13)
    i = int(np.argmin([deriv(c) for c in coarse]))
    ref = minimize_scalar(deriv, bracket=tuple(coarse[i - 1:i + 2]),
                          method="golden", options={"xtol": 1e-10})
    found = critical_chi_q(-1.0, 0.0, n, window, tol=1e-3)
    assert found == pytest.approx(ref.x, abs=1e-7)


# chi_c^q - chi_c(mu) at N = 20 and 40 on the window (chi_c, chi_c + 0.8),
# tol 1e-6, as first measured.
_EXCESS_ALONG_MU = {-0.3: (0.02173, 0.00724), -0.1: (0.11922, 0.05195),
                    0.1: (0.26399, 0.13460), 0.3: (0.43287, 0.23876)}


@pytest.mark.parametrize("mu", sorted(_EXCESS_ALONG_MU))
def test_critical_chi_approaches_chi_c_from_above_along_mu(mu):
    chi_c = level_crossing(mu)
    excess = [critical_chi_q(-1.0, mu, n, (chi_c, chi_c + 0.8), tol=1e-6)
              - chi_c for n in (20, 40)]
    assert 0.0 < excess[1] < excess[0]
    assert excess == pytest.approx(_EXCESS_ALONG_MU[mu], abs=1e-5)


def test_critical_chi_synthetic_oracle():
    """The upward root of an analytic d2P/dchi2 (P = 1 - tanh(5 (chi -
    2.31)) / 2, steepest descent at 2.31) is recovered."""
    center = 2.31

    def curvature(chi):
        u = 5.0 * (chi - center)
        return 25.0 * np.tanh(u) / np.cosh(u) ** 2

    found = purity._upward_root(curvature, (1.5, 3.0), 1e-5)
    assert found == pytest.approx(center, abs=1e-8)


def test_critical_chi_boundary_detection():
    """d2P/dchi2 < 0 on the whole window: the dP/dchi minimum sits on the
    right edge, and no crossing brackets it."""
    with pytest.raises(BracketingError):
        purity._upward_root(lambda chi: chi - 10.0, (0.0, 1.0), 1e-3)


def test_critical_chi_two_upward_crossings():
    """Two local dP/dchi minima in the window are ambiguous: a numerical
    failure (BracketingError), not a usage error."""
    with pytest.raises(BracketingError, match="2 times"):
        purity._upward_root(math.sin, (-1.0, 12.0), 1e-3)


def test_power_law_fit_matches_linregress():
    rng = np.random.default_rng(11)
    for size in (3, 4, 9):
        ns = np.sort(rng.choice(np.arange(8, 200), size, replace=False))
        cq = 2.0 + rng.uniform(0.5, 2.0) * ns ** rng.uniform(-1.5, -0.5) \
            * np.exp(rng.normal(scale=0.05, size=size))
        fit = power_law_fit(ns, cq, 2.0)
        ref = linregress(np.log(ns.astype(float)), np.log(cq - 2.0))
        assert fit.exponent == ref.slope
        assert fit.ln_prefactor == ref.intercept
        assert fit.exponent_stderr == ref.stderr
        assert fit.ln_prefactor_stderr == ref.intercept_stderr


def test_power_law_fit_exact_recovery():
    ns = np.array([10, 20, 40, 80])
    chi_c = 2.0
    cq = chi_c + np.exp(1.2) * ns ** -0.99
    fit = power_law_fit(ns, cq, chi_c)
    assert fit.exponent == pytest.approx(-0.99, abs=1e-12)
    assert fit.ln_prefactor == pytest.approx(1.2, abs=1e-12)
    assert np.max(np.abs(fit.residuals)) < 1e-12


def test_power_law_fit_input_guards():
    with pytest.raises(ValueError):
        power_law_fit([10, 20], [2.1, 2.05], 2.0)
    with pytest.raises(ValueError):
        power_law_fit([10, 20, 40], [2.1, 2.0, 1.9], 2.0)
    with pytest.raises(ValueError):
        power_law_fit([10, 10, 10], [2.1, 2.05, 2.02], 2.0)


def _openblas(prefix):
    """{library: its C entry point named prefix + "num_threads"} for every
    OpenBLAS bundled with numpy or scipy, as the scipy-openblas wheels and
    upstream OpenBLAS name it."""
    import scipy

    found = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in (f"scipy_openblas_{prefix}num_threads64_",
                        f"scipy_openblas_{prefix}num_threads",
                        f"openblas_{prefix}num_threads64_",
                        f"openblas_{prefix}num_threads"):
                if hasattr(handle, sym):
                    fn = found[lib.name] = getattr(handle, sym)
                    fn.argtypes = [ctypes.c_int] if prefix == "set_" else []
                    fn.restype = None if prefix == "set_" else ctypes.c_int
                    break
    return found


def _blas_threads(_task):
    return {name: fn() for name, fn in _openblas("get_").items()}


def test_one_blas_thread_looks_up_its_setters_once(monkeypatch):
    """After the first call the setters are cached: a later call loads no
    library and still sets every bundled OpenBLAS back to one thread."""
    setters, getters = _openblas("set_"), _openblas("get_")
    if not setters:
        pytest.skip("no OpenBLAS bundled with numpy or scipy")
    before = _blas_threads(None)
    purity._one_blas_thread()

    def refuse(*args, **kwargs):
        raise AssertionError("library loaded again")

    try:
        for setter in setters.values():
            setter(2)
        monkeypatch.setattr(ctypes, "CDLL", refuse)
        purity._one_blas_thread()
        monkeypatch.undo()
        assert {name: fn() for name, fn in getters.items()} == {
            name: 1 for name in setters}
    finally:
        monkeypatch.undo()
        for name, setter in setters.items():
            setter(before[name])


def test_pool_workers_run_one_blas_thread():
    """A forked worker inherits its parent's OpenBLAS thread count;
    ``map_tasks`` sets each worker back to one thread."""
    setters = _openblas("set_")
    if not setters:
        pytest.skip("no OpenBLAS bundled with numpy or scipy")
    before = _blas_threads(None)
    for setter in setters.values():
        setter(2)
    try:
        raised = _blas_threads(None)
        reports = map_tasks(_blas_threads, [(k,) for k in range(4)], workers=2)
        assert set(reports[0]) == set(setters)
        assert all(threads == 1 for report in reports
                   for threads in report.values())
        assert _blas_threads(None) == raised
    finally:
        for name, setter in setters.items():
            setter(before[name])
    assert _blas_threads(None) == before
