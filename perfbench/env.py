"""Process set-up shared by the benchmark runner and its set-up probe.

Importing this module pins the BLAS thread pools to one thread, so it must
be imported before numpy.  It imports nothing heavy itself.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def use_checkout_source():
    """Make ``import ris_crn`` load the checkout's own source tree.

    Exits with status 2 when the tree is missing, rather than falling back
    to some other installed copy of the package.
    """
    if not (SRC / "ris_crn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ris_crn source tree at {SRC}")
    sys.path.insert(0, str(SRC))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(argv) -> dict:
    """The record every result carries: code, machine, versions, command."""
    import numpy
    import scipy
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "command": [Path(sys.executable).name] + list(argv),
    }
