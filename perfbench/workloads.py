"""The benchmark's workloads: the CLI jobs each one runs, and their checks.

Each workload is a list of ``triwell`` CLI invocations, one per paper
result it reproduces.  The lists are cut to about 2-5 s per pass on one
core, so that a run repeats them several times and reports a median: the
paper's sizes (N up to 60, trajectories to t = 100) take 15-25 s a pass.

- ``qpt_scaling``: the chi_c^q(N) finite-size scan for N = 10..25 and a
  purity scan at N = 30.  The dense complex eigensolve is most of the
  time, so this is where an eigensolver or a cheaper dP/dchi shows.
- ``fields``: Husimi and phase fields of ground states at N = 30 and one
  at N = 60.  Mostly ``distributions`` and CSV writing; the N = 60, chi = 3
  job also carries one large dense solve and the known symmetry defect.
- ``dynamics``: the mean-field trajectories (to t = 20) and fixed points
  behind the dynamical-regimes result; the trajectory right-hand side is
  nearly all of the time and no eigensolve runs.
- ``large_n``: Krylov spectra and purities at N = 90 and 120, where the cold
  operator build (``fock.hop_operator``) dominates and the solver must
  resolve a quasi-degenerate triplet of excited levels.

Only ``dynamics`` uses the seed: it rotates the phases of the ten
Rabi-oscillation starts, and seed 0 gives the original set.  The other
workloads run fixed grids, because their checks (reference chi_c^q values,
maxima counts, purity values) hold only on those grids.

A check returns ``(check, detail)`` pairs for what failed; an empty list
means the job's outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("qpt_scaling", "fields", "dynamics", "large_n")

# chi_c^q(N) from `scaling --n 10 15 20 25 --tol 1e-3` at the commit
# that introduced this benchmark; a result must stay within 2 * tol.
SCALING_TOL = 1e-3
REFERENCE_CHI_CQ = {10: 2.33454915025, 15: 2.244098300569883,
                    20: 2.188196601166459, 25: 2.15}

# Location w of the stable 4+ fixed point on the twin line at chi = 3,
# mu = 0; the self-trapping run starts at w + 0.05.
W_4PLUS_CHI3 = 0.2140033658418985

POP_GRID = 101
PHASE_GRID = 256

# Checks that fail at the commit that introduced this benchmark.  At
# N = 60, chi = 3 the ground state is a near-degenerate triplet (gap about
# 1e-13) and the solver returns an arbitrary mix of it, which breaks the
# three-fold mode symmetry.  The failure is counted in `failed`; it is
# listed here so that it alone does not mark the run incorrect.
KNOWN_DEFECTS = {("fields-n60-chi3", "cyclic_symmetry"),
                 ("fields-n60-chi3", "husimi_maxima")}


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    check: Callable          # (out_dir, {earlier job name: out_dir}) -> failures


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def column(rows: list, key: str) -> np.ndarray:
    return np.array([float(r[key]) for r in rows])


def read_meta(path: Path) -> dict:
    return json.loads(path.read_text())


def csv_digests(out: Path) -> dict:
    """sha256 of every CSV a job wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


def digest_mismatches(store: dict, key: str, digests: dict) -> list:
    """CSV names whose digest differs from an earlier run of the same job.

    ``store`` maps job key -> digests; the first run of a key records its
    digests, and later runs must reproduce them byte for byte.
    """
    seen = store.setdefault(key, digests)
    return sorted(name for name in set(seen) | set(digests)
                  if seen.get(name) != digests.get(name))


def cyclic_defect(q: np.ndarray) -> float:
    """Largest change of a population field under the cyclic mode map.

    ``q[a, b]`` is Q(I1, I2) on the grid I = (0..G-1) * N/(G-1), set where
    a + b <= G-1.  Cycling the modes (I1, I2, I3) -> (I3, I1, I2) maps cell
    (a, b) to (G-1-a-b, a); the result is relative to the field's maximum.
    """
    top = q.shape[0] - 1
    a, b = np.nonzero(np.add.outer(np.arange(top + 1), np.arange(top + 1))
                      <= top)
    moved = q[top - a - b, a]
    return float(np.max(np.abs(moved - q[a, b])) / np.max(q[a, b]))


def husimi_grid(rows: list, n: int) -> np.ndarray:
    """The husimi.csv rows of a `fields` job on its (POP_GRID, POP_GRID) grid."""
    step = n / (POP_GRID - 1)
    q = np.full((POP_GRID, POP_GRID), np.nan)
    a = np.rint(column(rows, "i1") / step).astype(int)
    b = np.rint(column(rows, "i2") / step).astype(int)
    q[a, b] = column(rows, "q")
    return q


# ---------------------------------------------------------------------------
# qpt_scaling
# ---------------------------------------------------------------------------

def _check_scaling(out, done):
    rows = read_csv(out / "scaling.csv")
    ns = [int(r["n"]) for r in rows]
    chi = column(rows, "chi_cq")
    fails = []
    if ns != sorted(REFERENCE_CHI_CQ):
        return [("n_values", f"N = {ns}")]
    if not np.all(np.diff(chi) < 0):
        fails.append(("decreasing", f"chi_cq = {chi.tolist()}"))
    if not np.all((chi > 2.0) & (chi < 2.6)):
        fails.append(("window", f"chi_cq = {chi.tolist()}"))
    ref = np.array([REFERENCE_CHI_CQ[n] for n in ns])
    worst = float(np.max(np.abs(chi - ref)))
    if worst > 2 * SCALING_TOL:
        fails.append(("reference", f"max |chi_cq - ref| = {worst:.3g}"))
    return fails


def _check_purity_n30(out, done):
    rows = read_csv(out / "purity_N30.csv")
    p0 = float(rows[0]["purity"])
    if float(rows[0]["chi"]) != 0.0 or abs(p0 - 1.0) > 1e-10:
        return [("purity_chi0", f"P(0) = {p0!r}")]
    return []


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def _fields_check(n, chi):
    def check(out, done):
        fails = []
        phase = column(read_csv(out / "phase.csv"), "density")
        if abs(phase.mean() - 1.0) > 1e-10:
            fails.append(("phase_norm", f"mean density {phase.mean()!r}"))
        defect = cyclic_defect(husimi_grid(read_csv(out / "husimi.csv"), n))
        if not defect <= 1e-6:
            fails.append(("cyclic_symmetry", f"relative defect {defect:.3g}"))
        meta = read_meta(out / "fields.meta.json")
        want = {0.0: 1, 3.0: 3}.get(chi)
        if want is not None and meta["husimi_maxima_rel02"] != want:
            fails.append(("husimi_maxima", f"{meta['husimi_maxima_rel02']} "
                                           f"maxima, want {want}"))
        if chi == 2.0:
            var0 = read_meta(done["fields-n30-chi0"] / "fields.meta.json")[
                "phase_circular_variance"]
            var2 = meta["phase_circular_variance"]
            if not var2 < var0:
                fails.append(("phase_squeezing",
                              f"variance {var2:.5g} not below chi=0 {var0:.5g}"))
        return fails
    return check


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def rabi_inits(seed: int) -> list:
    """Ten (theta, phi) starts on rings of radius 0.10..0.28 around 1+.

    Seed 0 places start k at angle 2 pi k / 10; another seed turns all of
    them by the same fraction of that spacing.
    """
    turn = 0.0 if seed == 0 else random.Random(seed).random()
    theta_star = 2.0 * math.atan(math.sqrt(2.0))
    inits = []
    for k in range(10):
        angle = 2.0 * math.pi * (k + turn) / 10.0
        radius = 0.1 + 0.02 * k
        inits.append((theta_star + radius * math.cos(angle),
                      radius * math.sin(angle)))
    return inits


def _i_z(path: Path) -> np.ndarray:
    return column(read_csv(path), "i_z")


def _check_rabi(out, done):
    files = sorted(out.glob("trajectory_*.csv"))
    if len(files) != 10:
        return [("trajectories", f"{len(files)} files, want 10")]
    worst = max(abs(float(np.mean(_i_z(p))) - 1.0 / 3.0) for p in files)
    return [] if worst < 0.1 else [("rabi", f"max |mean Iz - 1/3| = {worst:.4f}")]


def _check_mst(out, done):
    top = float(np.max(_i_z(out / "trajectory_000.csv")))
    return [] if top < 0.0 else [("self_trapping", f"max Iz = {top:.4f}")]


def _check_fixed_points(out, done):
    labels = {r["label"] for r in read_csv(out / "fixed_points.csv")}
    missing = {"1+", "2+", "3+", "4+"} - labels
    return [("labels", f"missing {sorted(missing)}")] if missing else []


# ---------------------------------------------------------------------------
# large_n
# ---------------------------------------------------------------------------

def _check_spectrum(out, done):
    rows = read_csv(out / "spectrum.csv")
    e = column(rows, "energy")
    res = column(rows, "residual")
    fails = []
    bad = res > 1e-10 * np.maximum(1.0, np.abs(e))
    if np.any(bad):
        fails.append(("residual", f"residuals {res[bad].tolist()}"))
    spread = float((e[2] - e[0]) / abs(e[0]))
    if not spread <= 1e-9:
        fails.append(("triplet", f"lowest three spread {spread:.3g} relative"))
    if not e[3] - e[2] > 1.0:
        fails.append(("triplet_gap", f"gap to fourth level {e[3] - e[2]:.4g}"))
    return fails


def _check_purity_large(out, done):
    fails = []
    for n in (90, 120):
        rows = read_csv(out / f"purity_N{n}.csv")
        p = dict(zip(column(rows, "chi"), column(rows, "purity")))
        if not p[1.5] > 0.99:
            fails.append(("purity_weak", f"N={n}: P(1.5) = {p[1.5]:.5f}"))
        if not abs(p[3.0] - 0.189) <= 0.005:
            fails.append(("purity_strong", f"N={n}: P(3) = {p[3.0]:.5f}"))
    return fails


def jobs(workload: str, seed: int) -> list:
    """The job list of one workload; only ``dynamics`` depends on the seed."""
    if workload == "qpt_scaling":
        return [
            Job("scaling", ("scaling", "--n", "10", "15", "20", "25",
                            "--window-min", "2.0", "--window-max", "2.6",
                            "--tol", repr(SCALING_TOL)), _check_scaling),
            Job("purity-scan-n30", ("purity-scan", "--n", "30", "--chi-min",
                                    "0", "--chi-max", "3", "--chi-steps", "21"),
                _check_purity_n30),
        ]
    if workload == "fields":
        return [
            Job(f"fields-n{n}-chi{chi:g}",
                ("fields", "--n", str(n), "--chi", repr(chi), "--pop-grid",
                 str(POP_GRID), "--phase-grid", str(PHASE_GRID)),
                _fields_check(n, chi))
            for n, chi in ((30, 0.0), (30, 2.0), (30, 3.0), (60, 3.0))
        ]
    if workload == "dynamics":
        rabi = ("trajectory", "--n", "30", "--chi", "1.5", "--t-max", "20",
                "--dt", "0.05")
        for theta, phi in rabi_inits(seed):
            rabi += ("--init", f"{theta!r},{phi!r}")
        theta_mst = 2.0 * math.atan(math.sqrt(2.0) * (W_4PLUS_CHI3 + 0.05))
        return [
            Job("trajectory-rabi", rabi, _check_rabi),
            Job("trajectory-mst", ("trajectory", "--n", "30", "--chi", "3",
                                   "--t-max", "20", "--dt", "0.05",
                                   "--init", f"{theta_mst!r},0.0"), _check_mst),
            Job("fixed-points", ("fixed-points", "--n", "30", "--chi", "3",
                                 "--replicate", "--chi-scan", "1.5", "2.5",
                                 "41"), _check_fixed_points),
        ]
    if workload == "large_n":
        return [
            *(Job(f"spectrum-n{n}", ("spectrum", "--n", str(n), "--k", "6",
                                     "--chi", "3.0"), _check_spectrum)
              for n in (90, 120)),
            Job("purity-scan-large", ("purity-scan", "--n", "90", "120",
                                      "--chi-min", "1.5", "--chi-max", "3.0",
                                      "--chi-steps", "2"), _check_purity_large),
        ]
    raise ValueError(f"unknown workload {workload!r}")
