"""Test-session set-up: one BLAS thread, fixed before numpy is first
imported, as ``bench/run.py`` fixes it. Timings then do not depend on the
caller's environment, and the forked workers of runs and the harness do
not compete with BLAS threads for the cores."""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could fix "
                       "its BLAS thread count")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
