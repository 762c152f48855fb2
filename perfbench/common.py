"""Shared plumbing for the benchmark: paths, statistics, memory, run dirs.

The benchmark runs from the root of a source checkout and imports the
program from ``src/`` there; nothing is installed. Everything a run
writes goes under ``perfbench/.runs/`` inside the checkout.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import tempfile
from typing import Dict, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(BENCH_DIR, ".runs")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. no program sources)."""


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and prove that
    ``repro`` is imported from there, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    origin = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(origin) != SRC:
        raise SetupError(f"repro was imported from {origin}, not {SRC}")


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def nproc() -> int:
    """CPUs this process may run on (the closed loop's client count and
    the queue's worker count)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class RunDir:
    """A scratch directory under ``perfbench/.runs`` removed on close."""

    def __init__(self, label: str) -> None:
        os.makedirs(RUNS_DIR, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=f"{label}-", dir=RUNS_DIR)

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of already sorted values."""
    idx = min(len(sorted_values) - 1, max(0, int(round(q * len(sorted_values))) - 1))
    return float(sorted_values[idx])


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set of this process (or of its largest waited-for
    child) in MiB; ``ru_maxrss`` is in KiB on Linux."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def process_cpu_s(pid: int) -> float:
    """CPU time (user + system) a live process has used, in seconds."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
