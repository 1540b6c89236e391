"""Child processes, timing and the run record shared by `run.py` and `report.py`.

Only one CLI child runs at a time, started by launch.py, which times it from
spawn to exit and takes its CPU time and peak RSS from `getrusage`. Numerical
libraries get one thread each, in the child and in this process.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent  # the checkout holding src/ and perfbench/
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD_TIMEOUT_S = 40.0  # three timed-out children still end a run within 180 s


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: List[str], log: Path, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one child to completion through launch.py; a child past `timeout`
    is killed."""
    launcher = [sys.executable, str(HERE / "launch.py"), str(timeout), str(log), "--"]
    done = subprocess.run(launcher + argv, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def import_child(log: Path) -> dict:
    """A child that only imports the CLI module: what every CLI run pays first."""
    return run_child([sys.executable, "-c", "import lidarshape.cli"], log)


def cli_child(args: List[str], log: Path) -> dict:
    return run_child([sys.executable, "-m", "lidarshape.cli", *args], log)


def summary(values: List[float]) -> dict:
    """Median, quartiles (Python's default quantile method) and sample count."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _commit() -> str:
    """HEAD's commit when the checkout is a git repository, else 'unknown'."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "threads_env": {var: "1" for var in THREAD_VARS},
    }


def loadavg() -> Optional[List[float]]:
    try:
        return list(os.getloadavg())
    except OSError:
        return None
