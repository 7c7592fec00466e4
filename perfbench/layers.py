"""Where the traced run wraps triwell, and the per-layer metrics it derives.

Each public function is wrapped at the name its caller looks it up by, so
the program itself is unchanged: ``cli`` finds ``critical_chi_q`` in its
own namespace, ``spectral`` finds ``model_context`` in its namespace, and
so on.  A span's layer is the first component of its name, which is the
triwell module that owns the function.
"""

from __future__ import annotations

import statistics
import types

from spans import Tracer, has_ancestor, self_times

LAYERS = ("fock", "algebra", "spectral", "purity", "semiclassical",
          "distributions", "cli")

# Dense complex128 matrix of dimension d, in MB (computed, not measured).
_DENSE_BYTES_PER_ENTRY = 16


def _hop_modes(args, kwargs, result):
    return args[1], args[2]


def _operator_dim(args, kwargs, result):
    return args[0].dimension


def _matrix_dim(args, kwargs, result):
    return args[0].shape[0]


def _husimi_cell_states(args, kwargs, result):
    return int(result.mask.sum()) * args[0].basis.dimension


def _csv_bytes(args, kwargs, result):
    return args[0].stat().st_size


def instrument(tracer: Tracer, triwell) -> None:
    """Wrap triwell's layer boundaries; ``tracer.restore()`` undoes it."""
    cli, algebra, spectral = triwell.cli, triwell.algebra, triwell.spectral
    purity, semi = triwell.purity, triwell.semiclassical
    dist = triwell.distributions
    p = tracer.patch
    p(algebra, "build_basis", "fock.build_basis")
    p(algebra, "hop_operator", "fock.hop_operator", _hop_modes)
    p(spectral, "model_context", "algebra.model_context")
    p(purity, "model_context", "algebra.model_context")
    p(algebra.ModelContext, "hamiltonian", "algebra.hamiltonian")
    p(spectral, "eigensolve_lowest", "spectral.eigensolve", _operator_dim)
    p(spectral, "_krylov_lowest", "spectral.krylov")
    # spectral calls la.eigh on scipy.linalg; trace it through a copy of
    # that module so scipy's own callers stay untraced.
    dense = types.ModuleType(spectral.la.__name__)
    dense.__dict__.update(vars(spectral.la))
    tracer.replace(spectral, "la", dense)
    p(dense, "eigh", "spectral.dense_eigh", _matrix_dim)
    p(cli, "critical_chi_q", "purity.critical_chi_q")
    p(cli, "purity_scan", "purity.purity_scan")
    p(purity, "ground_state_purity", "purity.ground_state_purity")
    p(purity, "generalized_purity", "purity.generalized_purity")
    p(cli, "integrate_trajectory", "semiclassical.integrate_trajectory")
    p(semi, "solve_ivp", "semiclassical.solve_ivp")
    p(semi, "_rhs", "semiclassical.rhs")
    p(semi, "classical_hamiltonian", "semiclassical.classical_hamiltonian")
    p(cli, "find_fixed_points", "semiclassical.find_fixed_points")
    p(semi, "linearization", "semiclassical.linearization")
    p(dist, "husimi_population", "distributions.husimi_population",
      _husimi_cell_states)
    p(dist, "phase_distribution", "distributions.phase_distribution")
    p(dist, "count_local_maxima", "distributions.count_local_maxima")
    p(cli, "write_csv", "cli.write_csv", _csv_bytes)
    p(cli, "write_metadata", "cli.write_metadata")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass over a workload's jobs.

    Returns name -> (value, unit).  A layer the workload never enters
    reports zero calls and zero seconds.
    """
    names, parents, attrs = tracer.names, tracer.parents, tracer.attrs
    dur = tracer.durations()
    own = self_times(parents, dur)

    by_name = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(ix):
        return sum(dur[i] for i in ix)

    def ratio(a, b):
        return a / b if b else 0.0

    hop = idx("fock.hop_operator")
    ctx = idx("algebra.model_context")
    has_child = set(parents)
    eig = idx("spectral.eigensolve")
    dense = idx("spectral.dense_eigh")
    ccq = idx("purity.critical_chi_q")
    traj = idx("semiclassical.integrate_trajectory")
    ivp = idx("semiclassical.solve_ivp")
    rhs = idx("semiclassical.rhs")
    energy = [i for i in idx("semiclassical.classical_hamiltonian")
              if parents[i] >= 0
              and names[parents[i]] == "semiclassical.integrate_trajectory"]
    husimi = idx("distributions.husimi_population")
    csv = idx("cli.write_csv")
    solves_in_ccq = sum(has_ancestor(parents, names, i, "purity.critical_chi_q")
                        for i in eig)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, name in enumerate(names):
        layer_self[name.split(".", 1)[0]] += own[i]

    m = {
        "fock.hop_operator.calls": (len(hop), "count"),
        "fock.hop_operator.s": (total(hop), "s"),
        # distinct (i, j) within each operator build, over all calls
        "fock.hop_operator.distinct_frac":
            (ratio(len({(parents[i], attrs[i]) for i in hop}), len(hop)),
             "ratio"),
        "fock.build_basis.s": (total(idx("fock.build_basis")), "s"),
        "algebra.model_context.builds":
            (sum(i in has_child for i in ctx), "count"),
        "algebra.model_context.self_s": (sum(own[i] for i in ctx), "s"),
        "algebra.hamiltonian.calls": (len(idx("algebra.hamiltonian")), "count"),
        "algebra.hamiltonian.s": (total(idx("algebra.hamiltonian")), "s"),
        "spectral.eigensolve.calls": (len(eig), "count"),
        "spectral.eigensolve.s": (total(eig), "s"),
        "spectral.eigensolve.dense_calls": (len(dense), "count"),
        "spectral.eigensolve.krylov_calls":
            (len(idx("spectral.krylov")), "count"),
        "spectral.eigensolve.dim_mean":
            (ratio(sum(attrs[i] for i in eig), len(eig)), "dim"),
        "spectral.eigensolve.dim3_sum":
            (float(sum(attrs[i] ** 3 for i in eig)), "dim3"),
        "spectral.eigensolve.dense_mb_max":
            (max((_DENSE_BYTES_PER_ENTRY * attrs[i] ** 2 / 1e6 for i in dense),
                 default=0.0), "MB"),
        "purity.critical_chi_q.calls": (len(ccq), "count"),
        "purity.critical_chi_q.self_s": (sum(own[i] for i in ccq), "s"),
        "purity.ground_state_purity.calls":
            (len(idx("purity.ground_state_purity")), "count"),
        "purity.solves_per_critical_point":
            (ratio(solves_in_ccq, len(ccq)), "count"),
        "purity.generalized_purity.calls":
            (len(idx("purity.generalized_purity")), "count"),
        "purity.generalized_purity.s":
            (total(idx("purity.generalized_purity")), "s"),
        "semiclassical.integrate_trajectory.calls": (len(traj), "count"),
        "semiclassical.integrate_trajectory.s": (total(traj), "s"),
        "semiclassical.rhs.calls": (len(rhs), "count"),
        "semiclassical.rhs.us_per_call": (ratio(total(rhs), len(rhs)) * 1e6,
                                          "us"),
        "semiclassical.rtol_retries": (len(ivp) - len(traj), "count"),
        "semiclassical.energy_samples.calls": (len(energy), "count"),
        "semiclassical.energy_samples.s": (total(energy), "s"),
        "semiclassical.find_fixed_points.s":
            (total(idx("semiclassical.find_fixed_points")), "s"),
        "semiclassical.linearization.calls":
            (len(idx("semiclassical.linearization")), "count"),
        "semiclassical.linearization.s":
            (total(idx("semiclassical.linearization")), "s"),
        "distributions.husimi_population.calls": (len(husimi), "count"),
        "distributions.husimi_population.s": (total(husimi), "s"),
        "distributions.husimi.cell_states":
            (sum(attrs[i] for i in husimi), "count"),
        "distributions.phase_distribution.s":
            (total(idx("distributions.phase_distribution")), "s"),
        "distributions.count_local_maxima.s":
            (total(idx("distributions.count_local_maxima")), "s"),
        "cli.write_csv.calls": (len(csv), "count"),
        "cli.write_csv.s": (total(csv), "s"),
        "cli.csv_bytes": (sum(attrs[i] for i in csv), "bytes"),
        "cli.write_metadata.s": (total(idx("cli.write_metadata")), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    return m


def median_metrics(passes: list) -> dict:
    """Per-metric median over traced passes (counts repeat exactly)."""
    return {name: (statistics.median(p[name][0] for p in passes), unit)
            for name, (_, unit) in passes[0].items()}
