"""Process isolation for the benchmark: import this module first.

Everything here must run before ``numpy`` or ``repro`` is imported:

* every inherited ``REPRO_*`` knob is removed, so each workload runs the
  program a user gets by setting nothing (``REPRO_ENGINE=auto``, no
  shards, no result store, no async rollouts, no fault injection); the
  names removed are kept for the run's stamp;
* BLAS/OpenMP pools are capped at one thread, which keeps the numerics
  of a run independent of the core count and keeps a run from competing
  with itself on a small shared machine;
* the repository's ``src/`` directory goes first on ``sys.path``, so the
  benchmark measures the checkout it sits in, not an installed copy.
"""

from __future__ import annotations

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
SRC = ROOT / "src"
DATA = BENCH_DIR / "data"
#: Span dumps and run records of traced runs (ignored by git).
OUT = BENCH_DIR / "out"

BLAS_THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")

#: ``REPRO_*`` names found in the inherited environment and removed.
CLEARED_KNOBS = sorted(k for k in os.environ if k.startswith("REPRO_"))
for _name in CLEARED_KNOBS:
    del os.environ[_name]
for _name in _THREAD_VARS:
    os.environ[_name] = str(BLAS_THREADS)


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def require_program() -> None:
    """Put ``src/`` on the import path, or raise :class:`MissingProgram`."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def effective_knobs() -> dict[str, str]:
    """The ``REPRO_*`` variables currently set (empty after isolation)."""
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
