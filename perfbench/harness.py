"""The measurement loop shared by every workload.

A run sets its workload up, then repeats whole *rounds* (the same
operations on the same seeded inputs) until the timed work reaches the
requested seconds. After each round the workload keeps only what its
checks need; every round is checked for correctness once the metrics
are read, so the checks' own computations never count in the measured
figures (``peak_rss_mb`` in particular). End-to-end rates and
latencies are per-round figures reduced to their median over the run's
rounds; ``setup_s`` is the median over several fresh processes that
each set the workload up, started between rounds so that they sample
the host at several moments.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from common import BENCH_DIR, ROOT, median
from tracer import LayerTracer, Phase

#: Fresh processes whose set-up time ``setup_s`` is the median of.
SETUP_PROBES = 7


class Round:
    """One round's timed phases and what the checks need."""

    def __init__(self) -> None:
        self.phases: Dict[str, Phase] = {}
        self.units: Dict[str, int] = {}
        self.data: Dict[str, object] = {}

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.phases.values())


class Workload:
    """Base class: a seeded input set and the rounds run over it."""

    name = ""
    #: whether the traced layers should cover each phase (census, campaign)
    attributed = False

    def __init__(self, seed: int, scale: float, rundir, sizes: Dict) -> None:
        self.seed = seed
        self.scale = scale
        self.rundir = rundir
        self.sizes = sizes
        self.tracer: Optional[LayerTracer] = None

    def scaled(self, count: int, floor: int = 2) -> int:
        return max(floor, int(round(count * self.scale)))

    @contextmanager
    def phase(self, rnd: Round, name: str, units: int):
        """Time one phase; through the tracer when the run is traced."""
        if self.tracer is not None:
            with self.tracer.phase(f"{self.name}.{name}") as ph:
                yield ph
        else:
            ph = Phase(f"{self.name}.{name}")
            start = time.perf_counter()
            try:
                yield ph
            finally:
                ph.wall = time.perf_counter() - start
        rnd.phases[name] = ph
        rnd.units[name] = units

    # subclasses implement these
    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Work the checks need before timing that is not the program's
        set-up (e.g. the service oracle); set-up probes skip it."""

    def install_layers(self, tracer: LayerTracer) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def keep(self, rnd: Round) -> None:
        """Reduce a finished round's outputs to what :meth:`check_round`
        needs (untimed); runs before the next round starts."""

    def check_round(self, rnd: Round) -> Tuple[int, int]:
        """``(attempted, failed)`` operations of a round; runs after the
        metrics are read."""
        raise NotImplementedError

    def end_to_end(self, rounds: List[Round]) -> Dict[str, Tuple[float, str]]:
        raise NotImplementedError

    def per_layer(self, rounds: List[Round]) -> Dict[str, Tuple[float, str]]:
        raise NotImplementedError

    def info(self, rounds: List[Round]) -> Dict[str, Tuple[float, str]]:
        """Figures an untraced run prints but does not report or gate."""
        return {}

    def close(self) -> None:
        pass


def rate(rounds: List[Round], phase: str) -> float:
    """A phase's units per second, median over the rounds."""
    return median([r.units[phase] / r.phases[phase].wall for r in rounds])


def busy_metrics(rounds: List[Round], names: Dict[str, str]) -> Dict[str, Tuple[float, str]]:
    """Per-round medians of layer self times summed over each round's
    phases: ``names`` maps tracer layer -> metric name."""
    out = {}
    for layer, metric in names.items():
        out[metric] = (median([
            sum(p.busy.get(layer, 0.0) for p in r.phases.values()) for r in rounds
        ]), "s")
    return out


def count_metric(rounds: List[Round], key: str, source: str = "counts") -> float:
    """Per-round median of a tracer count (or call count) over phases."""
    return median([
        sum(getattr(p, source).get(key, 0) for p in r.phases.values())
        for r in rounds
    ])


def measure(workload: Workload, seconds: float, trace: bool,
            probes: Optional["SetupProbes"] = None):
    """Run rounds for ``seconds`` of timed work; returns
    ``(rounds, untraced)``.

    A traced run alternates untraced and traced rounds: ``rounds`` are
    the traced ones, ``untraced`` the others, so the difference of their
    median walls is the tracing overhead. ``probes``, if given, get one
    set-up probe after each round while they want more.
    """
    rounds: List[Round] = []
    untraced: List[Round] = []
    timed = 0.0
    tracer = LayerTracer() if trace else None
    while not rounds or timed < seconds:
        if tracer is not None and len(untraced) <= len(rounds):
            workload.tracer = None
            rnd = workload.run_round()
            untraced.append(rnd)
        else:
            workload.tracer = tracer
            if tracer is not None:
                workload.install_layers(tracer)
            try:
                rnd = workload.run_round()
            finally:
                if tracer is not None:
                    tracer.restore()
            rounds.append(rnd)
        timed += rnd.wall
        workload.keep(rnd)
        if probes is not None and not probes.done:
            probes.one()
    workload.tracer = tracer
    return rounds, untraced


def check_rounds(workload: Workload, rounds: List[Round]) -> Tuple[int, int]:
    """``(attempted, failed)`` operations over every round."""
    attempted = failed = 0
    for rnd in rounds:
        a, f = workload.check_round(rnd)
        attempted, failed = attempted + a, failed + f
    return attempted, failed


class SetupProbes:
    """The set-up probes of one run; ``setup_s`` is their median.

    A probe is a fresh benchmark process timed from its start until its
    workload is set up and ready for the first timed operation. Finished
    probes are reaped only in :meth:`finish`, after the metrics are
    read: a child's peak memory joins this process's ``RUSAGE_CHILDREN``
    (the queue's worker peak) only when it is reaped.
    """

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
                    "--seed", str(seed), "--scale", repr(scale), "--setup-probe"]
        self.times: List[float] = []
        self.procs: List[subprocess.Popen] = []

    @property
    def done(self) -> bool:
        return len(self.times) >= SETUP_PROBES

    def one(self) -> None:
        start = time.perf_counter()
        proc = subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.procs.append(proc)
        with proc.stdout:
            line = proc.stdout.readline()
            self.times.append(time.perf_counter() - start)
            proc.stdout.read()  # until the probe exits
        if not line.startswith("READY"):
            raise RuntimeError(f"setup probe failed: {' '.join(self.cmd)}")

    def reap(self) -> None:
        """Wait for every probe started; raise if one failed."""
        codes = [proc.wait(timeout=120) for proc in self.procs]
        if any(codes):
            raise RuntimeError(f"setup probe exit codes {codes}")

    def finish(self) -> float:
        while not self.done:
            self.one()
        self.reap()
        return median(self.times)
