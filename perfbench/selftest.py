"""Self-test of the benchmark: toy-size runs plus corrupted outputs.

1. Runs every workload through ``run.py`` at toy size, untraced and
   traced, and checks the result line: the keys, ``failed == 0``, every
   end-to-end (untraced) or per-layer (traced) metric of
   ``BENCHMARK.json`` and no other, in its unit, and that the span log
   validates against ``repro.obs.events`` and summarizes.
2. Runs one toy round of every part in-process, corrupts its
   outputs (a census record, a campaign digest, a replay digest, a
   service response, a queue row) and checks that each corruption is
   counted as failed, through the same ``check_round`` the runs use.

Run from the root of a source checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BENCH_DIR, ROOT, RUNS_DIR, RunDir, use_checkout_sources  # noqa: E402
from suite import PROFILES  # noqa: E402

TOY = 0.02
FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def toy_runs(spec) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
                   "--seed", "7", "--seconds", "0.1", "--trace", str(trace),
                   "--scale", str(TOY)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{name} --trace {trace}"
            if out.returncode != 0:
                expect(False, f"{label} exits 0 ({out.stderr.strip()[-300:]})")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            expect(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                   f"{label}: {result['attempted']} attempted, {result['failed']} failed")
            wanted = layer if trace else e2e
            metrics = result["metrics"]
            expect(set(metrics) == wanted and all(
                metrics[m]["unit"] == units[m] for m in metrics),
                f"{label}: metric names and units")
            if not trace:
                expect(all(metrics[m]["value"] > 0 for m in metrics),
                       f"{label}: end-to-end metrics are positive")
            else:
                from repro.obs.events import read_events
                from repro.obs.summary import summarize_file

                path = os.path.join(RUNS_DIR, f"trace-{name}-seed7.jsonl")
                events = read_events(path, validate=True)
                expect(len(events) >= 4, f"{label}: span log validates ({len(events)} events)")
                expect(bool(summarize_file(path)), f"{label}: trace summarize reads it")


def corruptions() -> None:
    import w_campaign
    import w_census
    import w_queue
    import w_service

    rundir = RunDir("selftest")
    sizes = PROFILES["large"]
    try:
        # census: every cold record wrong, so the bruteforce sample sees it
        census = w_census.CensusWorkload(7, TOY, rundir, sizes)
        census.setup()
        census.prepare()
        rnd = census.run_round()
        cache = rnd.data["cold_cache"]
        for key in list(cache._entries):
            record = dict(cache._entries[key])
            record["feasible"] = not record["feasible"]
            cache._entries[key] = record
        census.keep(rnd)
        clean = census.run_round()
        census.keep(clean)
        attempted, failed = census.check_round(rnd)
        expect(failed == 1, f"census: corrupted records fail the cold phase "
               f"({failed}/{attempted} failed)")
        attempted, failed = census.check_round(clean)
        expect(failed == 0, "census: a clean round after it passes")

        # campaign: a wrong no-op digest and a wrong replay digest
        campaign = w_campaign.CampaignWorkload(7, TOY, rundir, sizes)
        campaign.setup()
        rnd = campaign.run_round()
        noop = next(r for r in rnd.data["records"] if r["strategy"] == "none")
        noop["digest"] = "0" * 64
        report = rnd.data["reports"][0]
        rnd.data["reports"][0] = type(report)(
            index=report.index, outcome=report.outcome,
            recorded_outcome=report.recorded_outcome,
            digest="f" * 64, recorded_digest=report.recorded_digest)
        campaign.keep(rnd)
        attempted, failed = campaign.check_round(rnd)
        expect(failed == 2, f"campaign: wrong digests counted ({failed}/{attempted} failed)")

        # service: one wrong response body
        service = w_service.ServiceWorkload(7, TOY, rundir, sizes)
        try:
            service.setup()
            service.prepare()
            rnd = service.run_round()
            status, body = rnd.data["answers"][0]
            answer = json.loads(body)
            answer["report"]["feasible"] = not answer["report"]["feasible"]
            rnd.data["answers"][0] = (status, json.dumps(answer).encode())
            service.keep(rnd)
            attempted, failed = service.check_round(rnd)
            expect(failed == 1, f"service: wrong response counted ({failed}/{attempted} failed)")
        finally:
            service.close()

        # queue: a corrupted census row
        queue = w_queue.QueueWorkload(7, TOY, rundir, sizes)
        queue.setup()
        rnd = queue.run_round()
        rows = rnd.data["rows"]
        group = next(iter(rows))
        rows[group] = (rows[group][0], rows[group][1] + 1) + rows[group][2:]
        queue.keep(rnd)
        attempted, failed = queue.check_round(rnd)
        expect(failed == 1, f"queue: corrupted row counted ({failed}/{attempted} failed)")
    finally:
        rundir.close()


def main() -> int:
    use_checkout_sources()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    toy_runs(spec)
    corruptions()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
