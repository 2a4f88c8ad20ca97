"""Process set-up shared by the benchmark scripts.

Pins every BLAS thread pool to one thread before numpy is imported, puts
the checkout's ``src`` first on ``sys.path`` and imports ``mrmaxwell``
from there.  A checkout without ``src/mrmaxwell`` (or one whose import
resolves elsewhere) is an error: the benchmark must never measure a
different copy of the library.
"""

import os
import sys

BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

try:
    import mrmaxwell  # noqa: E402
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import mrmaxwell from {SRC}: {exc}")
if not os.path.abspath(mrmaxwell.__file__).startswith(SRC + os.sep):
    raise SystemExit(
        f"perfbench: mrmaxwell resolved to {mrmaxwell.__file__}, not under {SRC}"
    )
