"""End-to-end benchmark of the census engine, campaign runner, HTTP
service and work queue, with a per-layer breakdown in traced runs.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload large --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
rounds with the layers' entry points timed from here, prints the
per-layer metrics and writes the spans to ``perfbench/.runs/``. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``; ``correct`` is false, and the exit code 1, when a check
rejected any output. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import RUNS_DIR, RunDir, SetupError, median, use_checkout_sources  # noqa: E402
from harness import SetupProbes, check_rounds, measure  # noqa: E402
from suite import PROFILES, Suite  # noqa: E402


def layer_report(workload, rounds) -> Tuple[str, float]:
    """Per-phase table of layer self times (median over traced rounds)
    and the smallest attributed share of a phase the layers should
    cover."""
    lines = []
    worst = 1.0
    for name in rounds[0].phases:
        phases = [r.phases[name] for r in rounds]
        wall = median([p.wall for p in phases])
        layers = sorted({k for p in phases for k in p.busy})
        if layers == ["unattributed"]:  # nothing traced in-process
            continue
        share = min(p.attributed_share for p in phases)
        if workload.attributed_phase(name):
            worst = min(worst, share)
        lines.append(f"  {phases[0].name}: wall {wall:.3f} s, layers account for "
                     f">= {share:.1%}")
        busy = {k: median([p.busy.get(k, 0.0) for p in phases]) for k in layers}
        for k in sorted(busy, key=busy.get, reverse=True):
            lines.append(f"    {k:<16} {busy[k]:8.4f} s  {busy[k] / wall:6.1%}")
    return "\n".join(lines), worst


def traced_metrics(args, workload, rounds, untraced) -> Dict:
    """Per-layer metrics of a traced run; prints the per-layer table and
    writes the span log."""
    metrics = workload.per_layer(rounds)
    untraced_wall = median([r.wall for r in untraced])
    overhead = median([r.wall for r in rounds]) - untraced_wall
    metrics["trace.overhead_s"] = (overhead, "s")
    table, worst = layer_report(workload, rounds)
    metrics["attributed_share_min"] = (worst, "ratio")
    path = os.path.join(RUNS_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    events = workload.tracer.write(path, {"workload": args.workload, "seed": args.seed})
    if table:
        print(f"per-layer self time, {len(rounds)} traced round(s):\n{table}")
    print(f"tracing overhead: {overhead:+.4f} s per round (median of "
          f"{len(untraced)} untraced round(s) {untraced_wall:.3f} s)")
    print(f"spans: {events} events in {os.path.relpath(path)}")
    return metrics


def run(args) -> Dict:
    use_checkout_sources()
    rundir = RunDir(args.workload)
    workload = Suite(args.workload, args.seed, args.scale, rundir)
    probes = None
    try:
        workload.setup()
        if args.setup_probe:
            print("READY", flush=True)
            return {}
        workload.prepare()
        if not args.trace:
            probes = SetupProbes(args.workload, args.seed, args.scale)
        rounds, untraced = measure(workload, args.seconds, bool(args.trace), probes)
        info = {}
        if args.trace:
            metrics = traced_metrics(args, workload, rounds, untraced)
        else:
            metrics = workload.end_to_end(rounds)
            info = workload.info(rounds)
        attempted, failed = check_rounds(workload, rounds + untraced)
    finally:
        workload.close()
        rundir.close()
        if probes is not None:
            probes.reap()
    if probes is not None:
        metrics["setup_s"] = (probes.finish(), "s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<24} {value:14.6g} {unit}")
    for name, (value, unit) in info.items():
        print(f"{name:<24} {value:14.6g} {unit}  (printed, not gated)")
    for name in rounds[0].phases:
        walls = " ".join(f"{r.phases[name].wall:.3f}" for r in rounds)
        print(f"phase {name} wall per round (s): {walls}")
    print(f"rounds {len(rounds)}, operations {attempted} attempted, {failed} failed")
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="timed work per run (whole rounds, at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the self-test runs tiny inputs)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if result:
        print(json.dumps(result, separators=(",", ":")))
        if not result["correct"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
