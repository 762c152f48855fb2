"""Part ``census`` of every workload: cold, warm and isomorph-heavy
in-process censuses.

Each round runs ``engine.sharded_census`` three times:

* cold — a seeded ``RandomGnpWorkload`` (the profile's n values, sigma
  2, p 0.3) into a fresh persistent JSONL cache, canon memo cleared;
* warm — the same census through a new ``ResultCache`` over that file,
  memo cleared: what a second ``repro-radio census --cache`` pays,
  including the cache load;
* iso — relabelled, tag-shifted copies of a seeded base pool in seeded
  order, so keying collapses about 90% of the items.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Tuple

import checks
from harness import Round, Workload, busy_metrics, count_metric, rate
from common import median, peak_rss_mb
from layers import install_census

SPAN = 2
P = 0.3
ISO_COPIES = 10  # copies of every iso base
SHARDS = 8
BRUTEFORCE_SAMPLE = 24
ISO_CHECKED_BASES = 12


def relabelled_copies(base, copies: int, rng: random.Random) -> List:
    """``copies`` isomorphic variants of ``base``: random node
    permutations with a random tag shift."""
    out = []
    nodes = list(base.nodes)
    for _ in range(copies):
        image = nodes[:]
        rng.shuffle(image)
        out.append(base.relabel(dict(zip(nodes, image))).shift_tags(rng.randrange(3)))
    return out


class CensusWorkload(Workload):
    name = "census"
    attributed = True

    def setup(self) -> None:
        from repro.canon import clear_memo
        from repro.engine import RandomGnpWorkload, ResultCache, SequenceWorkload
        from repro.engine import pipeline

        self._clear_memo = clear_memo
        self._cache_cls = ResultCache
        self._pipeline = pipeline
        n_values = list(self.sizes["census_n"])
        self.cold = RandomGnpWorkload(
            n_values, SPAN, P, self.scaled(self.sizes["census_per_n"]), self.seed
        )
        bases = list(RandomGnpWorkload(
            n_values, SPAN, P, self.scaled(self.sizes["iso_bases_per_n"]), self.seed + 1
        ))
        rng = random.Random(self.seed + 2)
        groups = [relabelled_copies(b, ISO_COPIES, rng) for b in bases]
        population = [cfg for group in groups for cfg in group]
        rng.shuffle(population)
        self.bases = bases
        self.iso_groups = groups
        self.iso = SequenceWorkload(population, label="iso")
        self.cache_path = self.rundir.file("census-cache.jsonl")

    def install_layers(self, tracer) -> None:
        install_census(tracer)

    def run_round(self) -> Round:
        rnd = Round()
        census = self._pipeline.sharded_census
        if os.path.exists(self.cache_path):
            os.remove(self.cache_path)
        self._clear_memo()
        with self.phase(rnd, "cold", len(self.cold)):
            cache = self._cache_cls(self.cache_path)
            cold = census(self.cold, num_shards=SHARDS, cache=cache)
            cache.close()
        self._clear_memo()
        with self.phase(rnd, "warm", len(self.cold)):
            warm_cache = self._cache_cls(self.cache_path)
            warm = census(self.cold, num_shards=SHARDS, cache=warm_cache)
            warm_cache.close()
        self._clear_memo()
        with self.phase(rnd, "iso", len(self.iso)):
            iso = census(self.iso, num_shards=SHARDS)
        rnd.data.update(cold=cold, warm=warm, iso=iso, cold_cache=cache)
        return rnd

    def prepare(self) -> None:
        """The checked configurations and the keys to look them up by."""
        from repro.engine.keys import canonical_key

        rng = random.Random(self.seed + 3)
        picks = rng.sample(range(len(self.cold)), min(BRUTEFORCE_SAMPLE, len(self.cold)))
        self.samples = [next(self.cold.generate(i, i + 1)) for i in picks]
        checked = rng.sample(range(len(self.bases)), min(ISO_CHECKED_BASES, len(self.bases)))
        self._sample_keys = [canonical_key(c.normalize()) for c in self.samples]
        self._copy_keys = [[canonical_key(c.normalize()) for c in self.iso_groups[i]]
                           for i in checked]
        self.truths = None

    def keep(self, rnd: Round) -> None:
        """Keep the rows, the classified counts and the records of the
        sampled configurations and of the checked bases' iso copies."""
        cold, warm, iso = rnd.data["cold"], rnd.data["warm"], rnd.data["iso"]
        cache = rnd.data["cold_cache"]
        rnd.data = {
            "signatures": {
                phase: (checks.rows_signature(run.result), run.stats.classified)
                for phase, run in (("cold", cold), ("warm", warm), ("iso", iso))
            },
            "samples": [cache.peek(key) for key in self._sample_keys],
            "copies": [[iso.cache.peek(key) for key in keys] for keys in self._copy_keys],
        }

    def _oracle(self) -> None:
        """Ground truth from computations apart from the census: the
        sampled configurations' bruteforce verdicts and reference
        iteration counts, every base's reference verdict and the
        workload's own (n, sigma) totals."""
        from repro.core.classifier import reference_classify

        self.truths = [checks.census_truth(cfg) for cfg in self.samples]
        self.base_feasible = [reference_classify(b).feasible for b in self.bases]
        self.totals: Dict[tuple, int] = {}
        for cfg in self.cold:
            self.totals[(cfg.n, cfg.span)] = self.totals.get((cfg.n, cfg.span), 0) + 1

    def check_round(self, rnd: Round) -> Tuple[int, int]:
        """Each round against the ground truth; its rows and counts must
        also equal the first round's."""
        if self.truths is None:
            self._oracle()
            self.first = rnd.data["signatures"]
        sig = rnd.data["signatures"]
        cold_rows = sig["cold"][0]
        iso_rows, iso_classified = sig["iso"]
        ok = {
            "cold": (
                all(checks.census_record_ok(record, truth)
                    for record, truth in zip(rnd.data["samples"], self.truths))
                and {g: row[0] for g, row in cold_rows.items()} == self.totals
            ),
            "warm": sig["warm"] == (cold_rows, 0),
            "iso": (
                checks.iso_ok(rnd.data["copies"], self.base_feasible, iso_rows, ISO_COPIES)
                and iso_classified <= len(self.bases)
            ),
        }
        for phase in ("cold", "iso"):
            ok[phase] = ok[phase] and sig[phase] == self.first[phase]
        return len(ok), sum(1 for good in ok.values() if not good)

    def end_to_end(self, rounds: List[Round]):
        return {
            "cold_configs_per_s": (rate(rounds, "cold"), "configs/s"),
            "warm_configs_per_s": (rate(rounds, "warm"), "configs/s"),
            "iso_configs_per_s": (rate(rounds, "iso"), "configs/s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }

    def per_layer(self, rounds: List[Round]):
        out = busy_metrics(rounds, {
            "gen": "gen.busy_s",
            "normalize": "normalize.busy_s",
            "key": "key.busy_s",
            "cache.load": "cache.load_s",
            "cache.get": "cache.get_s",
            "cache.put": "cache.put_s",
            "kernel": "kernel.busy_s",
            "merge": "merge.busy_s",
            "unattributed": "unattributed_s",
        })
        calls = count_metric(rounds, "key", "calls")
        unique = median([sum(p.unique_keys for p in r.phases.values()) for r in rounds])
        gets = count_metric(rounds, "cache.get", "calls")
        out.update({
            "gen.configs": (count_metric(rounds, "gen.items"), "count"),
            "key.calls": (calls, "count"),
            "key.unique": (unique, "count"),
            "key.collapse_ratio": (unique / calls if calls else 0.0, "ratio"),
            "cache.hit_ratio": (
                count_metric(rounds, "cache.hits") / gets if gets else 0.0, "ratio"),
            "_cache.hits": (count_metric(rounds, "cache.hits"), "count"),
            "_cache.gets": (gets, "count"),
            "kernel.configs": (count_metric(rounds, "kernel.configs"), "count"),
        })
        return out
