"""Command-line front end: scan orchestration and bit-stable CSV/JSON output.

Every data file is CSV with a header row and shortest round-trip float
formatting, paired with a JSON metadata sidecar carrying the fully resolved
parameter set, the command name, the version and the command's wall time.
Reruns with identical configuration produce byte-identical CSV; wall times
live only in the sidecars.  ``main`` writes the files once the command has
done all of its work, so a failed command writes none.

Exit codes: 0 success, 2 usage error (a malformed or out-of-range value:
``UsageError`` or ``ValueError``), 3 numerical failure
(``errors.NumericalError`` or a LAPACK ``LinAlgError``).  Any other
exception propagates.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import ModelParams
from .errors import BracketingError, NumericalError
from .purity import (_one_blas_thread, critical_chi_q, map_tasks,
                     power_law_fit, purity_scan)
from .semiclassical import (ClassicalPoint, find_fixed_points,
                            integrate_trajectory, level_crossing,
                            theta_min_analysis)
from .spectral import spectrum

_CSV_CHUNK_ROWS = 4096              # rows ``write_csv`` formats at a time


class UsageError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _format_column(col):
    """The cells of one column as a sequence of UTF-8 bytes.

    A float array is formatted once per distinct bit pattern, so repeated
    grid values cost one ``repr`` and -0.0 stays apart from 0.0.
    """
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        col = np.asarray(col, dtype=np.float64)
        bits, inverse = np.unique(col.view(np.uint64), return_inverse=True)
        text = [repr(v).encode() for v in bits.view(np.float64).tolist()]
        return np.array(text, dtype=object)[inverse]
    return [_fmt(v).encode() for v in col]


def write_csv(path: Path, header, columns):
    """Write equal-length columns under a header row in row chunks, so that
    peak memory does not grow with the table; ragged columns raise
    ValueError before the file is opened."""
    lengths = {len(col) for col in columns} or {0}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    with open(path, "wb") as f:
        f.write(",".join(header).encode() + b"\n")
        for i in range(0, lengths.pop(), _CSV_CHUNK_ROWS):
            cells = [_format_column(c[i:i + _CSV_CHUNK_ROWS]) for c in columns]
            f.write(b"\n".join(map(b",".join, zip(*cells))) + b"\n")


def write_metadata(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _params_dict(params: ModelParams) -> dict:
    d = {"omega": params.omega, "kappa": params.kappa, "lam": params.lam,
         "n_particles": params.n_particles, "omega_eff": params.omega_eff}
    if params.omega != 0.0 and params.n_particles >= 1:
        d["chi"] = params.chi
        d["mu"] = params.mu
    return d


def resolve_params(args, n_particles: int) -> ModelParams:
    raw = args.kappa is not None or args.lam is not None
    reduced = args.chi is not None or args.mu is not None
    if raw and reduced:
        raise UsageError("raw (--kappa/--lam) and reduced (--chi/--mu) "
                         "parameters are mutually exclusive")
    if raw:
        return ModelParams(args.omega, args.kappa or 0.0, args.lam or 0.0,
                           n_particles)
    return ModelParams.from_reduced(args.omega, args.chi or 0.0,
                                    args.mu or 0.0, n_particles)


def _single_n(args) -> int:
    if len(args.n) != 1:
        raise UsageError("this command takes exactly one --n value")
    return args.n[0]


# ---------------------------------------------------------------------------
# Commands
#
# A command computes everything and returns its output files by name, CSVs
# first: a ``.csv`` name maps to (header, columns), a ``.meta.json`` name to
# the sidecar payload.  ``main`` writes them, so a failed command writes
# nothing.
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> dict:
    n = _single_n(args)
    params = resolve_params(args, n)
    result = spectrum(params, args.k)
    return {
        "spectrum.csv": (["index", "energy", "residual"],
                         [range(args.k), result.eigenvalues[:args.k],
                          result.residuals[:args.k]]),
        "spectrum.meta.json": {
            "params": _params_dict(params),
            "k": args.k,
            "max_residual": float(np.max(result.residuals)),
            "labels": list(result.labels),
            "sector_gap": result.sector_gap,
        },
    }


def cmd_purity_scan(args) -> dict:
    if args.chi_steps < 1 or args.chi_max <= args.chi_min:
        raise UsageError("need chi_min < chi_max and at least one step")
    mu = args.mu or 0.0
    grid = np.linspace(args.chi_min, args.chi_max, args.chi_steps)
    files, sidecars = {}, {}
    for n in args.n:
        scan = purity_scan(args.omega, mu, n, grid, workers=args.workers)
        files[f"purity_N{n}.csv"] = (["chi", "purity", "dP_dchi"],
                                     [scan.chi_grid, scan.purity,
                                      scan.derivative])
        sidecars[f"purity_N{n}.meta.json"] = {
            "params": {"omega": args.omega, "mu": mu, "n_particles": n},
            "chi_grid": {"min": args.chi_min, "max": args.chi_max,
                         "steps": args.chi_steps},
            "workers": args.workers,
            "ground_sectors": list(scan.sectors),
        }
    return files | sidecars


def _scaling_task(omega, mu, n, window, tol):
    return n, critical_chi_q(omega, mu, n, window, tol=tol)


def cmd_scaling(args) -> dict:
    if len(args.n) < 2:
        raise UsageError("scaling requires at least two --n values")
    mu = args.mu or 0.0
    try:
        chi_c = level_crossing(mu) if args.chi_c is None else args.chi_c
    except BracketingError as exc:
        raise BracketingError(f"{exc}; give --chi-c") from exc
    window = (args.window_min, args.window_max)
    tasks = [(args.omega, mu, n, window, args.tol) for n in args.n]
    results = dict(map_tasks(_scaling_task, tasks, args.workers))
    ns = sorted(results)
    chi_cq = [results[n] for n in ns]
    meta = {
        "params": {"omega": args.omega, "mu": mu, "chi_c": chi_c},
        "n_values": ns,
        "window": list(window),
        "tolerance": args.tol,
        "workers": args.workers,
    }
    if len(ns) >= 3:
        fit = power_law_fit(ns, chi_cq, chi_c)
        meta["fit"] = {
            "exponent": fit.exponent,
            "exponent_stderr": fit.exponent_stderr,
            "ln_prefactor": fit.ln_prefactor,
            "ln_prefactor_stderr": fit.ln_prefactor_stderr,
            "residuals": fit.residuals.tolist(),
        }
    return {"scaling.csv": (["n", "chi_cq"], [ns, chi_cq]),
            "scaling.meta.json": meta}


def cmd_fields(args) -> dict:
    from .distributions import (count_local_maxima, husimi_population,
                                phase_distribution, phase_marginal_variance)

    n = _single_n(args)
    params = resolve_params(args, n)
    result = spectrum(params, 1)
    state = result.states[0]
    i_grid = np.linspace(0.0, float(n), args.pop_grid)
    husimi = husimi_population(state, i_grid, i_grid)
    phi_grid = 2.0 * np.pi * np.arange(args.phase_grid) / args.phase_grid
    phases = phase_distribution(state, phi_grid, phi_grid)
    valid = husimi.mask.ravel()
    return {
        "husimi.csv": (["i1", "i2", "q"],
                       [np.repeat(i_grid, args.pop_grid)[valid],
                        np.tile(i_grid, args.pop_grid)[valid],
                        husimi.values.ravel()[valid]]),
        "phase.csv": (["phi1", "phi2", "density"],
                      [np.repeat(phi_grid, args.phase_grid),
                       np.tile(phi_grid, args.phase_grid),
                       phases.values.ravel()]),
        "fields.meta.json": {
            "params": _params_dict(params),
            "pop_grid": args.pop_grid,
            "phase_grid": args.phase_grid,
            "labels": list(result.labels),
            "sector_gap": result.sector_gap,
            "husimi_maxima_rel02": count_local_maxima(husimi, 0.2),
            "phase_circular_variance": phase_marginal_variance(phases),
        },
    }


def cmd_fixed_points(args) -> dict:
    if args.chi_scan is not None and (args.kappa is not None
                                      or args.lam is not None):
        raise UsageError("--chi-scan reads --mu only; it does not take "
                         "--kappa or --lam")
    n = _single_n(args)
    params = resolve_params(args, n)
    records = find_fixed_points(params, replicate=args.replicate)
    pts = [rec.point for rec in records]
    files = {"fixed_points.csv": (
        ["label", "sector", "w1_re", "w1_im", "w2_re", "w2_im", "theta",
         "i_z", "energy_per_particle", "stability", "gradient_norm"],
        [[rec.label for rec in records], [rec.sector for rec in records],
         [p.w1.real for p in pts], [p.w1.imag for p in pts],
         [p.w2.real for p in pts], [p.w2.imag for p in pts],
         [p.theta for p in pts], [p.i_z for p in pts],
         [rec.energy_per_particle for rec in records],
         [rec.stability for rec in records],
         [rec.gradient_norm for rec in records]])}
    meta = {"params": _params_dict(params)}
    if args.chi_scan is not None:
        lo, hi, steps = args.chi_scan
        chis = np.linspace(lo, hi, int(steps))
        branch = {label: np.full(chis.size, np.nan)
                  for label in ("1+", "2+", "3+", "4+")}
        for k, chi in enumerate(chis):
            scan_params = ModelParams.from_reduced(args.omega, chi,
                                                   args.mu or 0.0, n)
            for rec in find_fixed_points(scan_params):
                if rec.label in branch:
                    branch[rec.label][k] = rec.energy_per_particle
        files["branch_energies.csv"] = (
            ["chi", "kappa", "h_1p", "h_2p", "h_3p", "h_4p", "gap_1p_4p"],
            [chis, chis * args.omega / (n - 1), *branch.values(),
             branch["1+"] - branch["4+"]])
        meta["chi_scan"] = {"min": lo, "max": hi, "steps": int(steps)}
    files["fixed_points.meta.json"] = meta
    return files


def cmd_trajectory(args) -> dict:
    if not (0 < args.t_max < math.inf and 0 < args.dt < math.inf):
        raise UsageError("--t-max and --dt must be positive and finite")
    n = _single_n(args)
    params = resolve_params(args, n)
    inits = args.init or [(1.9106332362490186, 0.0)]
    files, runs = {}, []
    for idx, (theta, phi) in enumerate(inits):
        start = ClassicalPoint.from_twin_angles(theta, phi)
        traj = integrate_trajectory(start, params, args.t_max, args.dt)
        name = f"trajectory_{idx:03d}.csv"
        files[name] = (["t", "i1", "i2", "phi1", "phi2", "i_z", "energy"],
                       [traj.times, *traj.point.canonical(n),
                        traj.point.i_z, traj.energies])
        runs.append({"file": name, "rtol": traj.rtol,
                     "relative_energy_drift": traj.relative_energy_drift})
    files["trajectory.meta.json"] = {
        "params": _params_dict(params),
        "initial_conditions": [list(ic) for ic in inits],
        "t_max": args.t_max,
        "dt": args.dt,
        "trajectories": runs,
        "max_relative_energy_drift": max(r["relative_energy_drift"]
                                         for r in runs),
    }
    return files


def cmd_theta_min(args) -> dict:
    if args.chi_steps < 2 or args.chi_max <= args.chi_min:
        raise UsageError("need chi_min < chi_max and at least two steps")
    mu = args.mu or 0.0
    grid = np.linspace(args.chi_min, args.chi_max, args.chi_steps)
    rows = theta_min_analysis(grid, mu=mu, omega=args.omega)
    n_ref = _single_n(args)
    return {
        "theta_min.csv": (
            ["chi", "kappa", "theta_min", "h_min_per_particle", "dh_dchi",
             "d2h_dchi2", "h1_at_min", "first_order_residual", "degenerate"],
            [grid, grid * args.omega / (n_ref - 1),
             *([getattr(r, f) for r in rows]
               for f in ("theta_min", "h_min", "dh_dchi", "d2h_dchi2",
                         "h1_at_min", "first_order_residual",
                         "degenerate"))]),
        "theta_min.meta.json": {
            "params": {"omega": args.omega, "mu": mu, "n_reference": n_ref},
            "chi_grid": {"min": args.chi_min, "max": args.chi_max,
                         "steps": args.chi_steps},
        },
    }

# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _parse_init(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected THETA,PHI")
    return float(parts[0]), float(parts[1])


def _add_common(sub, couplings: bool = False):
    """Shared options; ``couplings`` adds the --chi, --kappa and --lam of
    the commands that call resolve_params."""
    sub.add_argument("--n", type=int, nargs="+", default=[30],
                     help="total particle number(s)")
    sub.add_argument("--omega", type=float, default=-1.0,
                     help="tunneling rate (default -1)")
    sub.add_argument("--mu", type=float, default=None,
                     help="reduced cross-collision parameter")
    if couplings:
        sub.add_argument("--chi", type=float, default=None,
                         help="reduced self-collision parameter")
        sub.add_argument("--kappa", type=float, default=None,
                         help="raw self-collision coupling")
        sub.add_argument("--lam", type=float, default=None,
                         help="raw cross-collision coupling")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker-pool size for scans")
    sub.add_argument("--config", default=None,
                     help="key = value file read as the command's own flags")


def build_parser() -> argparse.ArgumentParser:
    """The ``triwell`` parser."""
    parser = argparse.ArgumentParser(
        prog="triwell",
        description="Triple-well condensate simulation engine")
    subs = parser.add_subparsers(dest="command", required=True)
    # No abbreviations: an option a command lacks must not be read as a
    # prefix of one it has (scaling's --chi-c for --chi).
    command = functools.partial(subs.add_parser, allow_abbrev=False)

    p = command("spectrum", help="low-lying eigenvalues")
    p.add_argument("--k", type=int, default=4, help="number of eigenpairs")
    _add_common(p, couplings=True)
    p.set_defaults(func=cmd_spectrum)

    p = command("purity-scan", help="ground-state purity vs chi")
    p.add_argument("--chi-min", type=float, default=0.0)
    p.add_argument("--chi-max", type=float, default=3.0)
    p.add_argument("--chi-steps", type=int, default=61)
    _add_common(p)
    p.set_defaults(func=cmd_purity_scan)

    p = command("scaling", help="chi_c^q(N) and power-law fit")
    p.add_argument("--window-min", type=float, default=2.0)
    p.add_argument("--window-max", type=float, default=2.6)
    p.add_argument("--tol", type=float, default=1e-3,
                   help="tolerance relative to chi_c^q minus --window-min")
    p.add_argument("--chi-c", type=float, default=None,
                   help="semiclassical chi_c of the fit (default "
                        "2 (3 + 6 mu + 2 mu^2) / (3 + 4 mu), mu >= -1/2)")
    _add_common(p)
    p.set_defaults(func=cmd_scaling)

    p = command("fields", help="Husimi and phase distributions")
    p.add_argument("--pop-grid", type=int, default=101)
    p.add_argument("--phase-grid", type=int, default=256)
    _add_common(p, couplings=True)
    p.set_defaults(func=cmd_fields)

    p = command("fixed-points", help="classical equilibria table")
    p.add_argument("--replicate", action="store_true",
                   help="emit the equivalent twin sectors too")
    p.add_argument("--chi-scan", type=float, nargs=3, default=None,
                   metavar=("LO", "HI", "STEPS"),
                   help="also scan branch energies over chi")
    _add_common(p, couplings=True)
    p.set_defaults(func=cmd_fixed_points)

    p = command("trajectory", help="semiclassical trajectories")
    p.add_argument("--init", type=_parse_init, action="append", default=None,
                   metavar="THETA,PHI",
                   help="twin-sector initial condition (repeatable)")
    p.add_argument("--t-max", type=float, default=100.0)
    p.add_argument("--dt", type=float, default=0.05)
    _add_common(p, couplings=True)
    p.set_defaults(func=cmd_trajectory)

    p = command("theta-min", help="twin-manifold minimum analysis")
    p.add_argument("--chi-min", type=float, default=0.0)
    p.add_argument("--chi-max", type=float, default=4.0)
    p.add_argument("--chi-steps", type=int, default=81)
    _add_common(p)
    p.set_defaults(func=cmd_theta_min)

    return parser


def _with_config(argv) -> list:
    """argv with the entries of the file given by --config, if any, put
    after the command name as that command's own flags: ``key = v1 v2``
    reads as ``--key v1 v2``, so an explicit flag still wins and a key the
    command does not take is a usage error."""
    pre = argparse.ArgumentParser(prog="triwell", add_help=False,
                                  allow_abbrev=False)
    pre.add_argument("--config")
    name = pre.parse_known_args(argv)[0].config
    if name is None:
        return argv
    path = Path(name)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    flags = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line: {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        flags += ["--" + key.replace("_", "-"),
                  *value.replace(",", " ").split()]
    return argv[:1] + flags + argv[1:]


def main(argv=None) -> int:
    _one_blas_thread()      # bytes independent of OPENBLAS_NUM_THREADS
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        if len(set(args.n)) != len(args.n):
            raise UsageError(f"--n values must be distinct, got {args.n}")
        t0 = time.perf_counter()
        files = args.func(args)
        stamp = {"command": args.command, "triwell_version": __version__,
                 "wall_time_s": time.perf_counter() - t0}
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            if name.endswith(".csv"):
                write_csv(out / name, *content)
            else:
                write_metadata(out / name, {**content, **stamp})
        return 0
    # LinAlgError (a LAPACK failure) subclasses ValueError; catch it first.
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
