"""Benchmark of the triwell CLI: four workloads timed end to end.

    python3 perfbench/run.py --workload qpt_scaling --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, one summary

Run it from any directory; it imports triwell from ``src/`` next to this
directory and fails (exit 2, no result line) when that is missing.

Each workload runs in a fresh process with BLAS pinned to one thread (the
single-threaded baseline: two threads spread an N = 40 dense solve by about
25 % between runs on a 2-core host, one thread by about 2 %).  A pass runs
the workload's jobs one after another, each an in-process
``triwell.cli.main([...])`` with ``--workers 1`` writing to a scratch
directory, after ``model_context.cache_clear()`` so that every job pays the
per-N operator build as a separate CLI invocation does.  This is a closed
loop with one client.  Passes repeat while the next one would still end
within ``--seconds`` (at least one).  Every job's outputs are checked and
their CSV digests must repeat between passes and runs of the same code.

Times are scaled by ``calibrate.py``: while untraced passes run, the
calibration kernel runs every quarter second, and each stretch of program
time reads as it would on a host where the kernel takes
``calibrate.REFERENCE_S``; every set-up probe runs the kernel too.  That
takes out most of the speed drift of a shared host; the unscaled times are
printed and kept in the record.

End-to-end metrics (``--trace 0``), all measured with tracing off:

- ``wall_s``: median over passes of the scaled time to run the job list;
- ``setup_s``: median over 3 fresh interpreters of the scaled time of
  ``import triwell`` plus the warm-up of the process-wide lazy state this
  workload's jobs touch (the sympy canonical chart for ``dynamics``,
  scipy's first ARPACK call for ``large_n``); the operator cache is not
  warmed;
- ``peak_rss_mb``: peak resident memory of the workload's process at the
  end of its first pass (later passes add allocator fragmentation that
  depends on how many passes fit in ``--seconds``).

The share of jobs that raised, exited non-zero or failed a check is
``failed / attempted`` in the result line.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``layers.py`` as medians over traced passes (their
seconds are unscaled; no kernel runs during a traced pass), plus the
unscaled set-up split, ``trace.overhead_frac`` (traced over untraced
scaled pass time, minus one; a traced pass is scaled by the kernel runs
just before and after it), the unscaled untraced pass time
``wall.unscaled_s`` and the kernel's median time ``calibration.kernel_s``.

The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, with host facts and per-job outcomes, goes to
``.perfbench_work/results/``.
"""

import os

# Before numpy loads: one BLAS thread, inherited by the set-up probes.
# The imports below come after this on purpose.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy
import scipy

import calibrate
import layers
import workloads
from probe import SRC, SetupError, import_program, warm_up
from spans import Tracer

ROOT = SRC.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 170


def probe_setup(workload: str):
    """(import_s, warmup_s, kernel_s) measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe.py")), workload],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(proc.stderr.strip())
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["import_s"], sample["warmup_s"], sample["kernel_s"]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "triwell").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(triwell, jobs, digests: dict, code: str, clock=None,
             tracer=None):
    """Run the job list once; returns ([(seconds, scaled seconds) per job],
    [(job, failures)]).  Without a ``clock`` (a running
    ``calibrate.SpeedClock``) the scaled seconds are None."""
    main = triwell.cli.main
    if tracer is not None:
        main = tracer.wrap("cli.main", main)
    outs, outcomes, timings = {}, [], []
    for job in jobs:
        out = WORK / "jobs" / job.name
        shutil.rmtree(out, ignore_errors=True)
        triwell.algebra.model_context.cache_clear()
        argv = [*job.argv, "--workers", "1", "--out", str(out)]
        failures = []
        before = (clock.mark() if clock is not None
                  else (time.perf_counter(), None))
        try:
            rc = main(argv)
        except SystemExit as exc:          # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:           # the job failed; record, go on
            rc = None
            failures.append(("raised", f"{type(exc).__name__}: {exc}"))
        if clock is not None:
            after = clock.mark()
            timings.append((after[0] - before[0], after[1] - before[1]))
        else:
            timings.append((time.perf_counter() - before[0], None))
        if rc not in (0, None):
            failures.append(("exit", f"exit code {rc}"))
        if not failures:
            try:
                failures += job.check(out, outs)
            except Exception as exc:       # unreadable or missing output
                failures.append(("output", f"{type(exc).__name__}: {exc}"))
            changed = workloads.digest_mismatches(
                digests, f"{code}:{job.name}:{' '.join(job.argv)}",
                workloads.csv_digests(out))
            if changed:
                failures.append(("csv_digest", f"bytes changed: {changed}"))
        outs[job.name] = out
        outcomes.append((job.name, failures))
    shutil.rmtree(WORK / "jobs", ignore_errors=True)
    return timings, outcomes


def blas_facts() -> dict:
    """BLAS build and the thread count each loaded OpenBLAS reports."""
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    facts = {"library": f"{blas['name']} {blas.get('version', '')}".strip(),
             "threads": {}}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libs / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    facts["threads"][Path(lib).name] = fn()
                    break
    return facts


def host_facts(triwell, code: str) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": metadata.version("sympy"),
        "blas": blas_facts(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "triwell_source_sha256": code,
        "triwell_version": triwell.__version__,
    }


def measure(triwell, jobs, code, seconds, trace):
    """Run passes for ``seconds`` (at least one; with ``trace``, untraced and
    traced passes alternate, at least one of each).  Untraced passes run
    under a ``SpeedClock``, traced ones without it, so that no kernel run
    lands in a span.

    Returns (untraced passes' job timings, [(traced pass scaled seconds,
    layer metrics)], outcomes of every pass, kernel times of the clock, peak
    resident memory in MB at the end of the first untraced pass).
    """
    store = WORK / "digests.json"
    digests = json.loads(store.read_text()) if store.exists() else {}
    plain, traced, passes = [], [], []
    start, longest = time.perf_counter(), 0.0
    with calibrate.SpeedClock() as clock:
        while True:
            began = time.perf_counter()
            if trace and len(plain) > len(traced):
                tracer = Tracer()
                first = len(clock.kernels)
                with clock.paused():
                    try:
                        layers.instrument(tracer, triwell)
                        timings, outcomes = run_pass(
                            triwell, jobs, digests, code, tracer=tracer)
                    finally:
                        tracer.restore()
                # scaled by the kernel runs just before and after the pass
                kernel = (clock.kernels[first] + clock.kernels[-1]) / 2
                traced.append((calibrate.scaled(sum(t for t, _ in timings),
                                                kernel),
                               layers.layer_metrics(tracer)))
            else:
                timings, outcomes = run_pass(triwell, jobs, digests, code,
                                             clock=clock)
                plain.append(timings)
                if len(plain) == 1:
                    peak_mb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0
            passes.append(outcomes)
            now = time.perf_counter()
            longest = max(longest, now - began)
            # Stop before a pass that would run past ``seconds``.
            if now - start + longest > seconds and (traced or not trace):
                break
    WORK.mkdir(exist_ok=True)
    store.write_text(json.dumps(digests, indent=1, sort_keys=True))
    return plain, traced, passes, clock.kernels, peak_mb


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = [probe_setup(workload)
              for _ in range(1 if trace else SETUP_SAMPLES)]
    triwell = import_program()
    warm_up(workload, triwell)
    jobs = workloads.jobs(workload, seed)
    code = source_digest()
    plain, traced, passes, kernels, peak_mb = measure(
        triwell, jobs, code, seconds, trace)
    raw_passes = [sum(t for t, _ in p) for p in plain]
    scaled_passes = [sum(s for _, s in p) for p in plain]

    failures = {}
    for outcomes in passes:
        for job, fails in outcomes:
            for check, detail in fails:
                failures.setdefault((job, check), detail)
    attempted = sum(len(o) for o in passes)
    failed = sum(bool(f) for o in passes for _, f in o)
    if trace:
        metrics = layers.median_metrics([m for _, m in traced])
        samples = {name: len(traced) for name in metrics}
        import_s, warmup_s, _ = setups[0]
        metrics["setup.import_s"] = (import_s, "s")
        metrics["setup.canonical_chart_s"] = (
            warmup_s if workload == "dynamics" else 0.0, "s")
        metrics["trace.overhead_frac"] = (
            statistics.median(w for w, _ in traced)
            / statistics.median(scaled_passes) - 1.0, "ratio")
        metrics["wall.unscaled_s"] = (statistics.median(raw_passes), "s")
        metrics["calibration.kernel_s"] = (statistics.median(kernels), "s")
        samples.update({"setup.import_s": 1, "setup.canonical_chart_s": 1,
                        "trace.overhead_frac": len(traced),
                        "wall.unscaled_s": len(plain),
                        "calibration.kernel_s": len(kernels)})
    else:
        metrics = {
            "wall_s": (statistics.median(scaled_passes), "s"),
            "setup_s": (statistics.median(calibrate.scaled(i + w, k)
                                          for i, w, k in setups), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        samples = {"wall_s": len(plain), "setup_s": len(setups),
                   "peak_rss_mb": 1}

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"passes {len(passes)} x {len(jobs)} jobs")
    for (job, check), detail in failures.items():
        known = (job, check) in workloads.KNOWN_DEFECTS
        print(f"  {'known defect' if known else 'FAIL'}: {job}: {check}: "
              f"{detail}")
    for job, check in sorted(workloads.KNOWN_DEFECTS):
        if any(j.name == job for j in jobs) and (job, check) not in failures:
            print(f"  known defect no longer fails: {job}: {check}")
    if trace:
        ranked = sorted(layers.LAYERS, key=lambda l: -metrics[f"{l}.self_s"][0])
        print("  self time by layer: " + ", ".join(
            f"{l} {metrics[f'{l}.self_s'][0]:.3f} s" for l in ranked))
    else:
        med = statistics.median
        print(f"  unscaled: pass {med(raw_passes):.4f} s,"
              f" import {med(i for i, _, _ in setups):.4f} s,"
              f" warm-up {med(w for _, w, _ in setups):.4f} s;"
              f" kernel {med(kernels):.4f} s over {len(kernels)} runs"
              f" (reference {calibrate.REFERENCE_S} s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit:5s} median of {samples[name]}")
    print(f"  {'failed_frac':42s} {failed / attempted:14.6g} {'':5s} "
          f"{failed} of {attempted} jobs")

    result = {"correct": all(k in workloads.KNOWN_DEFECTS for k in failures),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "host": host_facts(triwell, code),
              "untraced_timings": plain, "traced_scaled_pass_s": [w for w, _ in traced],
              "kernel_s": kernels,
              "setup_samples_s": setups,
              "jobs": [{"name": j.name, "argv": list(j.argv)} for j in jobs],
              "failures": [{"job": j, "check": c, "detail": d}
                           for (j, c), d in failures.items()],
              "result": result}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("host " + json.dumps(record["host"], sort_keys=True))
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(proc.returncode)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
