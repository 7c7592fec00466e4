import numpy as np
import pytest

from oracles import husimi_population_loop, husimi_quadrature_oracle, index_of
from triwell import distributions
from triwell.algebra import ModelParams, model_context
from triwell.coherent import ClassicalPoint, QuantumState, coherent_state
from triwell.fock import symmetry_sectors
from triwell.distributions import (ScalarField2D, count_local_maxima,
                                   husimi_population, phase_distribution,
                                   phase_marginal_variance)
from triwell.spectral import ground_state


def _ground(chi, n=10):
    params = ModelParams.from_reduced(-1.0, chi, 0.0, n)
    return ground_state(params)[1]


def test_husimi_matches_phase_quadrature():
    """Closed-form phase average vs brute-force quadrature, interior points."""
    state = _ground(2.0)
    for i1, i2 in [(2.0, 3.0), (4.5, 1.0), (0.5, 0.5), (3.3333, 3.3333)]:
        closed = husimi_population(state, np.array([i1]),
                                   np.array([i2])).values[0, 0]
        oracle = husimi_quadrature_oracle(state, i1, i2)
        assert closed == pytest.approx(oracle, abs=1e-10)


def _random_state(n, seed):
    basis = model_context(n).basis
    rng = np.random.default_rng(seed)
    v = rng.normal(size=basis.dimension) \
        + 1j * rng.normal(size=basis.dimension)
    return QuantumState(basis, v / np.linalg.norm(v))


def test_husimi_oracle_on_random_state():
    state = _random_state(6, seed=4)
    for i1, i2 in [(1.0, 2.0), (2.5, 0.7)]:
        closed = husimi_population(state, np.array([i1]),
                                   np.array([i2])).values[0, 0]
        oracle = husimi_quadrature_oracle(state, i1, i2)
        assert closed == pytest.approx(oracle, abs=1e-11)


def test_husimi_boundary_shell_continuity():
    """The analytic n3 = 0 limit continues the interior values smoothly."""
    state = _ground(1.0)
    n = 10
    inner = husimi_population(state, np.array([4.0]),
                              np.array([n - 4.0 - 1e-7])).values[0, 0]
    edge = husimi_population(state, np.array([4.0]),
                             np.array([float(n - 4)])).values[0, 0]
    assert edge == pytest.approx(inner, rel=1e-4)


def test_husimi_mask_excludes_invalid_corner():
    state = _ground(0.0)
    grid = np.linspace(0.0, 10.0, 11)
    field = husimi_population(state, grid, grid)
    assert not field.mask[10, 10]          # I1 + I2 = 20 > N
    assert field.mask[0, 10] and field.mask[10, 0]
    assert np.all(field.values[~field.mask] == 0.0)


def test_husimi_peak_location_noninteracting():
    """chi = 0 ground state is coherent at equal occupations N/3."""
    state = _ground(0.0, n=30)
    grid = np.linspace(0.0, 30.0, 61)
    field = husimi_population(state, grid, grid)
    a, b = np.unravel_index(np.argmax(field.values), field.values.shape)
    assert grid[a] == pytest.approx(10.0, abs=0.5)
    assert grid[b] == pytest.approx(10.0, abs=0.5)
    assert count_local_maxima(field, 0.2) == 1


def test_husimi_trifurcation_deep_phase():
    state = _ground(3.0, n=30)
    grid = np.linspace(0.0, 30.0, 101)
    field = husimi_population(state, grid, grid)
    assert count_local_maxima(field, 0.2) == 3


@pytest.mark.parametrize("n", [0, 1, 7, 30])
def test_husimi_blocks_equal_point_loop(n):
    """The block kernel reproduces the point-by-point loop bit for bit."""
    state = _random_state(n, seed=n)
    full = np.linspace(0.0, n, 21)
    # points off the simplex on every side, and on the I1 + I2 = N shell
    # (exactly, and within the 1e-12 slack)
    ragged = np.array([-0.5, 0.0, 0.3 * n, n - 0.25, n, n * (1.0 + 5e-13),
                       n + 1.0])
    shell = n - full            # (full[k], shell[k]) lies on I1 + I2 = N
    for i1, i2 in [(full, full), (ragged, ragged), (ragged, full[::-1]),
                   (full, shell)]:
        field = husimi_population(state, i1, i2)
        values, mask = husimi_population_loop(state, i1, i2)
        assert np.array_equal(field.mask, mask)
        assert np.array_equal(field.values, values)
    if n:
        assert np.all(field.values.diagonal() > 0.0)     # the shell points


def _zero_amplitude_states(n):
    """States with exact-zero amplitudes (base = -inf in the kernel): two
    Fock vectors and the first A2 column, a signed six-state orbit sum."""
    basis = model_context(n).basis
    states = []
    for occupation in ((0, 0, n), (2, n - 2, 0)):
        v = np.zeros(basis.dimension, dtype=complex)
        v[index_of(basis, occupation)] = 1.0
        states.append(QuantumState(basis, v))
    (a2,), = [isos for label, isos in symmetry_sectors(basis) if label == "A2"]
    states.append(QuantumState(basis, a2[:, 0].toarray().ravel() + 0j))
    return states


@pytest.mark.parametrize("n", [7, 30])
@pytest.mark.parametrize("rows_per_block", [4, 11, None])
def test_husimi_blocks_equal_point_loop_on_zero_amplitudes(n, rows_per_block,
                                                           monkeypatch):
    """Bit for bit against the point loop where amplitudes vanish exactly,
    on grids with I1 = 0 and I2 = 0 rows.  The 21 x 21 grid has 210 interior
    points, so 4 and 11 points per block leave a ragged last block."""
    if rows_per_block is not None:
        monkeypatch.setattr(distributions, "_BLOCK",
                            rows_per_block * model_context(n).basis.dimension)
    full = np.linspace(0.0, n, 21)
    edge = np.array([0.0, 0.5, n - 0.5, float(n)])
    for state in _zero_amplitude_states(n):
        assert np.any(state.amplitudes == 0.0)
        for i1, i2 in [(full, full), (edge, full), (full, edge[::-1])]:
            field = husimi_population(state, i1, i2)
            values, mask = husimi_population_loop(state, i1, i2)
            assert np.array_equal(field.mask, mask)
            assert np.array_equal(field.values, values)
            assert np.all(np.isfinite(field.values))


def test_husimi_symmetry_under_mode_swap():
    state = _ground(2.0, n=12)
    grid = np.linspace(0.0, 12.0, 25)
    field = husimi_population(state, grid, grid)
    valid = field.mask & field.mask.T
    assert np.allclose(field.values[valid], field.values.T[valid], atol=1e-12)


def test_phase_distribution_parseval():
    """Mean of the phase density over the uniform grid equals sum |c_n|^2 = 1."""
    state = _ground(1.5, n=8)
    m = 64
    phi = 2.0 * np.pi * np.arange(m) / m
    field = phase_distribution(state, phi, phi)
    assert np.mean(field.values) == pytest.approx(1.0, abs=1e-12)


def test_phase_distribution_coherent_peak_at_zero():
    ctx = model_context(10)
    state = coherent_state(ctx.basis, ClassicalPoint(1.0, 1.0))
    m = 128
    phi = 2.0 * np.pi * np.arange(m) / m
    field = phase_distribution(state, phi, phi)
    a, b = np.unravel_index(np.argmax(field.values), field.values.shape)
    assert a == 0 and b == 0


def test_phase_variance_limits():
    # flat density: fully spread phase, circular variance 1
    flat = ScalarField2D(np.linspace(0, 2 * np.pi, 32, endpoint=False),
                         np.linspace(0, 2 * np.pi, 32, endpoint=False),
                         np.ones((32, 32)), np.ones((32, 32), dtype=bool))
    assert phase_marginal_variance(flat) == pytest.approx(1.0, abs=1e-12)
    # delta at phi = 0: variance 0
    vals = np.zeros((32, 32))
    vals[0, 0] = 1.0
    delta = ScalarField2D(flat.axis1, flat.axis2, vals, flat.mask)
    assert phase_marginal_variance(delta) == pytest.approx(0.0, abs=1e-12)
    assert phase_marginal_variance(delta, axis=1) == pytest.approx(0.0,
                                                                   abs=1e-12)


def test_phase_squeezing_near_transition():
    def variance(chi):
        state = _ground(chi, n=30)
        m = 128
        phi = 2.0 * np.pi * np.arange(m) / m
        return phase_marginal_variance(phase_distribution(state, phi, phi))

    assert variance(2.0) < variance(0.0)


def test_count_local_maxima_synthetic():
    x = np.linspace(-1.0, 1.0, 81)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    three = (np.exp(-((xx - 0.5) ** 2 + yy ** 2) / 0.01)
             + np.exp(-((xx + 0.5) ** 2 + (yy - 0.4) ** 2) / 0.01)
             + np.exp(-((xx + 0.2) ** 2 + (yy + 0.5) ** 2) / 0.01))
    mask = np.ones_like(three, dtype=bool)
    field = ScalarField2D(x, x, three, mask)
    assert count_local_maxima(field, 0.2) == 3
    # raising the threshold above the relative peak heights removes none here,
    # but an invalid threshold is rejected
    with pytest.raises(ValueError):
        count_local_maxima(field, 0.0)
    with pytest.raises(ValueError):
        count_local_maxima(field, 1.0)


def test_count_local_maxima_plateau_merged():
    vals = np.zeros((9, 9))
    vals[4, 4] = vals[4, 5] = 1.0          # two tied cells form one plateau
    field = ScalarField2D(np.arange(9.0), np.arange(9.0), vals,
                          np.ones((9, 9), dtype=bool))
    assert count_local_maxima(field, 0.5) == 1
