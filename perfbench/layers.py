"""Which program entry point belongs to which layer, for traced runs.

Each ``install_*`` function patches, through :class:`LayerTracer`, the
public functions a workload's timed phases call into (plus the two
private pipeline helpers that hold the census merge). Names are looked
up where the caller resolves them at call time (module globals, class
attributes), so the program runs unchanged apart from the timing.
"""

from __future__ import annotations

from tracer import LayerTracer


def _count(tracer: LayerTracer, name: str, fn):
    """An ``after`` hook adding ``fn(args, kwargs, result)`` to a count."""
    def after(args, kwargs, result):
        tracer.counts[name] += fn(args, kwargs, result)
    return after


def _install_keys_and_cache(tracer: LayerTracer) -> None:
    """Canonical keying (recording the distinct keys) and cache lookups."""
    from repro.engine import cache, keys

    def record_key(args, kwargs, result):
        tracer.keys.add(result)
    tracer.patch(keys, "canonical_key", "key", after=record_key)
    tracer.patch(cache.ResultCache, "get", "cache.get", after=_count(
        tracer, "cache.hits", lambda a, k, r: r is not None))
    tracer.patch(cache.ResultCache, "put", "cache.put")


def install_census(tracer: LayerTracer) -> None:
    """graphs/engine.workloads, core.configuration, canon+engine.keys,
    engine.cache, core.batch and engine.pipeline for census phases."""
    from repro.core import batch
    from repro.core.configuration import Configuration
    from repro.engine import cache, pipeline, workloads

    tracer.patch(workloads.RandomGnpWorkload, "generate", "gen", kind="iter")
    tracer.patch(workloads.SequenceWorkload, "generate", "gen", kind="iter")
    tracer.patch(Configuration, "normalize", "normalize")

    _install_keys_and_cache(tracer)
    tracer.patch(cache.ResultCache, "__init__", "cache.load", span="cache.load")
    tracer.patch(batch, "batch_census_records", "kernel", span="core.batch",
                 after=_count(tracer, "kernel.configs",
                              lambda a, k, r: len(r)))
    tracer.patch(pipeline, "_merge_rows", "merge")
    tracer.patch(pipeline, "_shard_rows", "merge")
    tracer.patch(pipeline, "sharded_census", "unattributed",
                 span="engine.sharded_census")


def install_campaign(tracer: LayerTracer) -> None:
    """campaigns.spec generation, core.batch, core.classifier,
    core.canonical, adversary, radio and campaigns.bundle for campaign
    sweeps and replays."""
    import repro.adversary as adversary
    from repro.campaigns import bundle, runner, spec
    from repro.core import batch
    from repro.core.canonical import CanonicalProtocol
    from repro.radio import events, faults

    tracer.patch(spec, "seeded_config", "gen")
    tracer.patch(bundle, "config_from_spec", "gen")
    tracer.patch(batch, "batch_outcomes", "kernel", span="core.batch",
                 after=_count(tracer, "kernel.configs",
                              lambda a, k, r: len(r)))
    tracer.patch(runner, "classify", "classify")
    tracer.patch(CanonicalProtocol, "from_trace", "protocol", kind="classmethod")
    tracer.patch(runner, "instantiate_adversary", "adversary")
    tracer.patch(runner, "adversary_to_spec", "adversary")
    tracer.patch(adversary, "adversary_from_spec", "adversary")

    def backend_kind(args, kwargs, result):
        kind = "fast" if type(result).__name__ == "FastBackend" else "reference"
        tracer.counts[f"sim.{kind}_trials"] += 1
    tracer.patch(faults, "resolve_backend", "sim", after=backend_kind)
    tracer.patch(faults.JammedRadioSimulator, "__init__", "sim")
    tracer.patch(faults.JammedRadioSimulator, "run", "sim", after=_count(
        tracer, "sim.rounds", lambda a, k, r: r.rounds_elapsed))
    tracer.patch(events.ExecutionResult, "decide_leaders", "decide")
    tracer.patch(runner, "execution_digest", "digest")
    tracer.patch(runner, "failure_digest", "digest")
    tracer.patch(runner, "config_spec", "digest")
    tracer.patch(runner, "campaign_metrics", "merge")
    tracer.patch(runner, "write_bundle", "bundle.write", span="bundle.write")
    tracer.patch(bundle, "read_bundle", "bundle.read", span="bundle.read")
    tracer.patch(bundle, "replay_trial", "replay")
    tracer.patch(runner, "run_campaign", "unattributed",
                 span="campaigns.run_campaign")


def install_queue(tracer: LayerTracer) -> None:
    """engine.queue / scheduler coordinator calls. Only the coordinator
    side is wrapped: forked workers inherit these patches but never call
    them. The drain is the self time of the distributed call: forking
    the workers, waiting for them to empty the queue, joining them."""
    from repro.campaigns import runner
    from repro.engine import pipeline

    tracer.patch(pipeline, "create_census_queue", "queue.create",
                 span="queue.create")
    tracer.patch(pipeline, "collect_census_queue", "queue.collect",
                 span="queue.collect")
    tracer.patch(runner, "create_campaign_queue", "queue.create",
                 span="queue.create")
    tracer.patch(runner, "collect_campaign_queue", "queue.collect",
                 span="queue.collect")
    tracer.patch(pipeline, "distributed_census", "queue.drain",
                 span="engine.distributed_census")
    tracer.patch(runner, "distributed_campaign", "queue.drain",
                 span="campaigns.distributed_campaign")


def install_service(tracer: LayerTracer) -> None:
    """canon+engine.keys, engine.cache and core.batch inside the server
    process (see ``traced_serve.py``). All three run only on the
    classifier's dispatcher thread, so one call stack suffices."""
    from repro.core import batch

    _install_keys_and_cache(tracer)
    tracer.patch(batch, "batch_census_records", "kernel",
                 after=_count(tracer, "kernel.configs", lambda a, k, r: len(r)))
