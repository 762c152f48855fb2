"""Steadiness report: repeat runs and compare their spread with the bounds.

Runs ``perfbench/run.py`` untraced once per seed for each workload, one
run at a time, and prints for every end-to-end metric the median, the quartiles
and the spread (q3 - q1) / median beside the metric's bound from
``BENCHMARK.json``, plus the share of failed operations. With ``--save``
the raw results go to a JSON file; ``--compare OLD NEW`` checks that the
second set's medians are not worse than the first's by more than each
bound and that the failed shares are equal::

    python3 perfbench/steady.py --workloads small --seeds 1-5
    python3 perfbench/steady.py --seeds 11-20 --save perfbench/.runs/a.json
    python3 perfbench/steady.py --compare perfbench/.runs/a.json perfbench/.runs/b.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def seeds_arg(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: Dict, workload: str, seed: int) -> Dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(spec: Dict, results: Dict[str, List[Dict]]) -> bool:
    """Print the spread table; True when every spread is within its
    bound."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    steady = True
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, failed share {sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            ok = spread <= bound
            steady = steady and ok
            mark = "ok" if spread <= bound / 3 else "WIDE" if not ok else "near"
            print(f"  {name:<22} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:6.1%}  bound {bound}  {mark}")
    return steady


def compare(spec: Dict, old: Dict[str, List[Dict]], new: Dict[str, List[Dict]]) -> bool:
    """True when no median of ``new`` is worse than ``old``'s by more
    than its bound and the failed shares match."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    agree = True
    for workload in old:
        for name in old[workload][0]["metrics"]:
            a = statistics.median(r["metrics"][name]["value"] for r in old[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in new[workload])
            m = metrics[name]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = worse <= m["bound"]
            agree = agree and ok
            print(f"{workload:<9} {name:<22} {a:12.5g} -> {b:12.5g}  worse by "
                  f"{worse:+7.1%}  bound {m['bound']}  {'ok' if ok else 'WORSE'}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in (old[workload], new[workload])]
        agree = agree and shares[0] == shares[1]
        print(f"{workload:<9} failed share {shares[0]} -> {shares[1]}")
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every workload)")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--save", help="write the raw results to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh))
        return 0 if compare(spec, *sets) else 1
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    results = {}
    for name in names:
        results[name] = []
        for seed in args.seeds:
            results[name].append(run_once(spec, name, seed))
            print(f"  {name} seed {seed} done", file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    return 0 if summarize(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
