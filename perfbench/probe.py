"""Set-up of a benchmark process: import triwell, warm its lazy state.

    python3 perfbench/probe.py WORKLOAD

times both steps in this fresh interpreter, then the calibration kernel
of ``calibrate.py`` (median of 10 runs), and prints the three as JSON; the
benchmark runs it several times per run for ``setup_s``.  Nothing heavy is imported at
module level, so the timed import starts from scratch.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class SetupError(Exception):
    """The checkout's triwell cannot be imported and set up."""


def import_program():
    """Import triwell from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "triwell" / "__init__.py").is_file():
        raise SetupError(f"no triwell package under {SRC}")
    sys.path.insert(0, str(SRC))
    import triwell
    import triwell.cli  # noqa: F401  (the CLI imports every layer)
    if Path(triwell.__file__).resolve().parent != SRC / "triwell":
        raise SetupError(f"triwell imported from {triwell.__file__}")
    return triwell


def warm_up(workload: str, triwell) -> None:
    """Fill the process-wide lazy state this workload's jobs would touch:
    the sympy canonical chart (``dynamics``) and scipy's first ARPACK call
    (``large_n``).  The per-N operator cache is left cold."""
    if workload == "dynamics":
        from triwell.semiclassical import ClassicalPoint, linearization
        params = triwell.ModelParams.from_reduced(-1.0, 1.5, 0.0, 30)
        linearization(ClassicalPoint.from_twin_w(1.0), params)
    elif workload == "large_n":
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        spla.eigsh(sp.diags(np.arange(1.0, 65.0)).tocsr(), k=2, which="SA",
                   v0=np.ones(64))


if __name__ == "__main__":
    try:
        t0 = time.perf_counter()
        program = import_program()
        t1 = time.perf_counter()
        warm_up(sys.argv[1], program)
    except SetupError as exc:
        sys.exit(str(exc))
    t2 = time.perf_counter()
    import statistics

    import calibrate
    calibrate.kernel_seconds()        # the first run pays lazy set-up
    kernel = statistics.median(calibrate.kernel_seconds() for _ in range(10))
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1,
                      "kernel_s": kernel}))
