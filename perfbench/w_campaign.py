"""Part ``campaign`` of every workload: an adversary campaign sweep,
then bundle replay.

Each round runs ``campaigns.run_campaign`` on the five-arm E28 strategy
mix at the profile's n values and writes
its bundle (phase ``sweep``), then reads the bundle back and replays a
seeded sample of its trials through ``replay_trial`` (phase
``replay``). The sweep classifies through the batch kernel; replay uses
the per-configuration classifier. Nothing here keys canonically, so a
keying change should leave this workload alone.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import checks
from common import peak_rss_mb
from harness import Round, Workload, busy_metrics, count_metric, rate
from layers import install_campaign

STRATEGIES = (
    {"strategy": "none", "weight": 1.0},
    {"strategy": "random_budget", "weight": 1.0, "budget": 2},
    {"strategy": "phase_targeting", "weight": 1.0, "phase": 1, "hits": 1},
    {"strategy": "reactive", "weight": 1.0, "probability": 0.5, "budget": 1},
    {"strategy": "crash_sleep", "weight": 1.0, "count": 1},
)

def reference_election(spec, index: int) -> Tuple[str, str]:
    """``(digest, outcome)`` of a failure-free election of trial
    ``index``'s configuration: reference classifier, reference backend."""
    from repro.campaigns import derive_trial, execution_digest
    from repro.core.canonical import CanonicalProtocol
    from repro.core.classifier import classify
    from repro.radio.simulator import simulate

    plan = derive_trial(spec, index)
    trace = classify(plan.config, algorithm="reference")
    protocol = CanonicalProtocol.from_trace(trace)
    network = trace.config
    execution = simulate(
        network, protocol.factory,
        max_rounds=protocol.round_budget(network.span),
        record_trace=True, backend="reference",
    )
    leaders = execution.decide_leaders(protocol.decision)
    return (execution_digest(execution, leaders),
            "survived" if trace.feasible else "infeasible")


class CampaignWorkload(Workload):
    name = "campaign"
    attributed = True

    def setup(self) -> None:
        from repro.campaigns import CampaignSpec, bundle, runner

        self._runner = runner
        self._bundle = bundle
        self.spec = CampaignSpec(
            name="perfbench", seed=self.seed,
            trials=self.scaled(self.sizes["trials"], 10),
            n_values=tuple(self.sizes["campaign_n"]), span=2, p=0.3,
            strategies=STRATEGIES,
        )
        rng = random.Random(self.seed + 1)
        self.replays = sorted(rng.sample(
            range(self.spec.trials), min(self.scaled(self.sizes["replays"], 5), self.spec.trials)
        ))
        self.bundle_dir = self.rundir.file("bundle")
        self.first = None
        self.reference = None

    def install_layers(self, tracer) -> None:
        install_campaign(tracer)

    def run_round(self) -> Round:
        rnd = Round()
        with self.phase(rnd, "sweep", self.spec.trials):
            run = self._runner.run_campaign(self.spec)
            run.write_bundle(self.bundle_dir)
        with self.phase(rnd, "replay", len(self.replays)):
            manifest = self._bundle.read_bundle(self.bundle_dir)
            reports = [self._bundle.replay_trial(manifest, i) for i in self.replays]
        rnd.data.update(records=run.results, reports=reports)
        return rnd

    def keep(self, rnd: Round) -> None:
        """Keep each trial's ``(index, strategy, outcome, digest)`` and
        each replay's ``(index, match)``; a round equal to the first
        shares the first round's lists."""
        records, reports = rnd.data.pop("records"), rnd.data.pop("reports")
        trials = [checks.trial_fields(r) for r in records]
        replays = [(rep.index, checks.replay_ok(rep)) for rep in reports]
        if self.first is None:
            self.first = (trials, replays)
        rnd.data["trials"] = trials if trials != self.first[0] else self.first[0]
        rnd.data["replays"] = replays if replays != self.first[1] else self.first[1]

    def check_round(self, rnd: Round) -> Tuple[int, int]:
        """Every trial and replay of each round; a round must also
        reproduce the first round's records and reports."""
        if self.reference is None:
            self.reference = {
                index: reference_election(self.spec, index)
                for index, strategy, _, _ in self.first[0] if strategy == "none"
            }
        trials, replays = rnd.data["trials"], rnd.data["replays"]
        same = trials == self.first[0] and replays == self.first[1]
        ok = [same and checks.trial_ok(t, self.reference) for t in trials]
        ok += [same and match for _, match in replays]
        return len(ok), ok.count(False)

    def end_to_end(self, rounds: List[Round]):
        return {
            "trials_per_s": (rate(rounds, "sweep"), "trials/s"),
            "replay_trials_per_s": (rate(rounds, "replay"), "trials/s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }

    def per_layer(self, rounds: List[Round]):
        out = busy_metrics(rounds, {
            "gen": "gen.busy_s",
            "kernel": "kernel.busy_s",
            "classify": "classify.busy_s",
            "protocol": "protocol.busy_s",
            "adversary": "adversary.busy_s",
            "sim": "sim.busy_s",
            "decide": "decide.busy_s",
            "digest": "digest.busy_s",
            "bundle.write": "bundle.write_s",
            "bundle.read": "bundle.read_s",
            "replay": "replay.busy_s",
            "merge": "merge.busy_s",
            "unattributed": "unattributed_s",
        })
        out.update({
            "gen.configs": (count_metric(rounds, "gen", "calls"), "count"),
            "kernel.configs": (count_metric(rounds, "kernel.configs"), "count"),
            "classify.calls": (count_metric(rounds, "classify", "calls"), "count"),
            "sim.rounds": (count_metric(rounds, "sim.rounds"), "count"),
            "sim.fast_trials": (count_metric(rounds, "sim.fast_trials"), "count"),
            "sim.reference_trials": (
                count_metric(rounds, "sim.reference_trials"), "count"),
        })
        return out
