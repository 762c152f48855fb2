"""Part ``queue`` of every workload: a census and a campaign through
the work queue.

Each round runs ``engine.distributed_census`` and then
``campaigns.distributed_campaign``, each with ``nproc`` forked worker
processes draining a fresh SQLite queue (default 4 shards per worker,
default 0.2 s ``poll``). The canon memo is cleared before each run, so
forked workers start cold. Outputs must equal the in-process run of the
same spec (``sharded_census`` / ``run_campaign``).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from typing import Dict, List, Tuple

import checks
from common import median, nproc, peak_rss_mb
from harness import Round, Workload, busy_metrics, rate
from layers import install_queue
from w_campaign import STRATEGIES


def records_digest(records: List[Dict]) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class QueueWorkload(Workload):
    name = "queue"

    def setup(self) -> None:
        from repro.campaigns import CampaignSpec, runner
        from repro.canon import clear_memo
        from repro.engine import RandomGnpWorkload, WorkQueue, pipeline

        self._clear_memo = clear_memo
        self._pipeline = pipeline
        self._runner = runner
        self._queue_cls = WorkQueue
        self.workers = nproc()
        census_n = list(self.sizes["census_n"])
        self.census = RandomGnpWorkload(
            census_n, 2, 0.3, self.scaled(self.sizes["queue_census_per_n"]), self.seed
        )
        self.spec = CampaignSpec(
            name="perfbench-queue", seed=self.seed,
            trials=self.scaled(self.sizes["queue_trials"], 10),
            n_values=tuple(self.sizes["campaign_n"]), span=2, p=0.3,
            strategies=STRATEGIES,
        )
        self.expected: Dict[str, object] = {}
        self.runs = 0
        # warm-up: a tiny in-process census finishes the parent's lazy
        # one-time initialisation, which forked workers would otherwise
        # repeat in the first round only
        pipeline.sharded_census(RandomGnpWorkload(census_n[:1], 2, 0.3, 3, self.seed))

    def install_layers(self, tracer) -> None:
        install_queue(tracer)

    def _fresh_queue(self, label: str) -> str:
        self.runs += 1
        return self.rundir.file(f"{label}-{self.runs}.sqlite")

    def _queue_counts(self, path: str) -> Dict[str, int]:
        with self._queue_cls(path) as queue:
            counts = queue.counts()
        for name in glob.glob(path + "*"):
            os.remove(name)
        return counts

    def run_round(self) -> Round:
        rnd = Round()
        path = self._fresh_queue("census")
        self._clear_memo()
        with self.phase(rnd, "census", len(self.census)):
            census = self._pipeline.distributed_census(
                self.census, path, num_workers=self.workers
            )
        counts = [self._queue_counts(path)]
        path = self._fresh_queue("campaign")
        self._clear_memo()
        with self.phase(rnd, "campaign", self.spec.trials):
            campaign = self._runner.distributed_campaign(
                self.spec, path, num_workers=self.workers
            )
        counts.append(self._queue_counts(path))
        rnd.data.update(
            rows=checks.rows_signature(census.result),
            records=records_digest(campaign.results),
            queue={k: sum(c[k] for c in counts) for k in ("total", "retried", "reclaimed")},
        )
        return rnd

    def check_round(self, rnd: Round) -> Tuple[int, int]:
        """Rows and records against the in-process run of the same spec,
        computed here once, after ``peak_rss_mb`` is read."""
        if not self.expected:
            self._clear_memo()
            self.expected = {
                "rows": checks.rows_signature(
                    self._pipeline.sharded_census(self.census, num_shards=8).result),
                "records": records_digest(self._runner.run_campaign(self.spec).results),
            }
            self._clear_memo()
        wrong = (self.expected["rows"] != rnd.data.pop("rows")) + (
            self.expected["records"] != rnd.data.pop("records"))
        return 2, wrong

    def end_to_end(self, rounds: List[Round]):
        return {
            "queue_configs_per_s": (rate(rounds, "census"), "configs/s"),
            "queue_trials_per_s": (rate(rounds, "campaign"), "trials/s"),
            "peak_rss_mb": (max(peak_rss_mb(), peak_rss_mb(children=True)), "MiB"),
        }

    def per_layer(self, rounds: List[Round]):
        out = busy_metrics(rounds, {
            "queue.create": "queue.create_s",
            "queue.drain": "queue.drain_s",
            "queue.collect": "queue.collect_s",
        })
        for key, metric in (("total", "queue.shards"), ("retried", "queue.retried"),
                            ("reclaimed", "queue.reclaimed")):
            out[metric] = (median([r.data["queue"][key] for r in rounds]), "count")
        return out
