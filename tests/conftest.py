"""Test-session setup, loaded by pytest before any test module.

OpenBLAS starts one thread per core by default.  The process pools that
some tests fork then run more BLAS threads than there are cores, which
made acceptance criterion 5 about ten times slower on two cores.  One
BLAS thread per process is pinned here, before any test imports numpy;
a value already set in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
