"""A benchmark workload: the four parts run in every round, at one size.

Every run measures every end-to-end metric, so each workload is the
same sequence of parts — ``census``, ``campaign``, ``service``,
``queue`` (``w_*.py``) — and the workloads differ only in the size of
the configurations the parts work on (:data:`PROFILES`). A round of the
suite is one round of each part, in that order; when the run is traced,
each part's layers are patched in just around its own round, so forked
queue workers never inherit another part's patches.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from harness import Round, Workload
from w_campaign import CampaignWorkload
from w_census import CensusWorkload
from w_queue import QueueWorkload
from w_service import ServiceWorkload

PARTS = (CensusWorkload, CampaignWorkload, ServiceWorkload, QueueWorkload)

#: Input sizes per workload. ``census_per_n`` cold configurations and
#: ``iso_bases_per_n`` iso bases (ten copies each) per census n value;
#: campaign ``trials`` with ``replays`` of them replayed; the queue's
#: census and campaign sizes. The service mix is E25's in both.
PROFILES: Dict[str, Dict] = {
    "large": {
        "census_n": (10, 12, 14), "census_per_n": 200, "iso_bases_per_n": 40,
        "campaign_n": (12, 16), "trials": 500, "replays": 400,
        "queue_census_per_n": 400, "queue_trials": 1000,
    },
    "small": {
        "census_n": (6, 8), "census_per_n": 500, "iso_bases_per_n": 80,
        "campaign_n": (6, 8), "trials": 1000, "replays": 800,
        "queue_census_per_n": 1000, "queue_trials": 2000,
    },
}

#: Per-layer metrics computed from two summed helper counts.
RATIOS = {
    "key.collapse_ratio": ("key.unique", "key.calls"),
    "cache.hit_ratio": ("_cache.hits", "_cache.gets"),
}


class SuiteRound(Round):
    """One round of every part; ``phases`` holds them all, named
    ``part.phase``."""

    def __init__(self) -> None:
        super().__init__()
        self.parts: Dict[str, Round] = {}


class Suite(Workload):
    def __init__(self, name: str, seed: int, scale: float, rundir) -> None:
        super().__init__(seed, scale, rundir, PROFILES[name])
        self.name = name
        self.parts = [cls(seed, scale, rundir, self.sizes) for cls in PARTS]

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    def prepare(self) -> None:
        for part in self.parts:
            part.prepare()

    def install_layers(self, tracer) -> None:
        """Nothing here: :meth:`run_round` patches each part's layers
        around that part's round."""

    def run_round(self) -> SuiteRound:
        rnd = SuiteRound()
        for part in self.parts:
            part.tracer = self.tracer
            if self.tracer is not None:
                part.install_layers(self.tracer)
            try:
                sub = part.run_round()
            finally:
                if self.tracer is not None:
                    self.tracer.restore()
            rnd.parts[part.name] = sub
            for name, phase in sub.phases.items():
                rnd.phases[f"{part.name}.{name}"] = phase
                rnd.units[f"{part.name}.{name}"] = sub.units[name]
        return rnd

    def _rounds(self, part, rounds: List[SuiteRound]) -> List[Round]:
        return [r.parts[part.name] for r in rounds]

    def keep(self, rnd: SuiteRound) -> None:
        for part in self.parts:
            part.keep(rnd.parts[part.name])

    def check_round(self, rnd: SuiteRound) -> Tuple[int, int]:
        attempted = failed = 0
        for part in self.parts:
            a, f = part.check_round(rnd.parts[part.name])
            attempted, failed = attempted + a, failed + f
        return attempted, failed

    def attributed_phase(self, name: str) -> bool:
        """Whether the traced layers should cover a phase (census and
        campaign ones; queue phases are one coordinator call, the
        service's run in the server)."""
        part = name.split(".", 1)[0]
        return any(p.name == part and p.attributed for p in self.parts)

    def end_to_end(self, rounds: List[SuiteRound]) -> Dict[str, Tuple[float, str]]:
        """Every part's metrics; ``peak_rss_mb`` is the largest of the
        parts' peaks (this process, the queue's workers, the server)."""
        out: Dict[str, Tuple[float, str]] = {}
        for part in self.parts:
            for name, (value, unit) in part.end_to_end(self._rounds(part, rounds)).items():
                if name in out:
                    value = max(value, out[name][0])
                out[name] = (value, unit)
        return out

    def info(self, rounds: List[SuiteRound]) -> Dict[str, Tuple[float, str]]:
        out: Dict[str, Tuple[float, str]] = {}
        for part in self.parts:
            out.update(part.info(self._rounds(part, rounds)))
        return out

    def per_layer(self, rounds: List[SuiteRound]) -> Dict[str, Tuple[float, str]]:
        """Every part's per-layer metrics. A layer several parts use
        (keying, the kernel, the cache, generation) reports the sum of
        its per-round figures; its ratios are recomputed from the summed
        counts, and helper counts (``_``-prefixed) are dropped."""
        out: Dict[str, Tuple[float, str]] = {}
        for part in self.parts:
            for name, (value, unit) in part.per_layer(self._rounds(part, rounds)).items():
                if name in out:
                    value += out[name][0]
                out[name] = (value, unit)
        for name, (num, den) in RATIOS.items():
            total = out[den][0]
            out[name] = (out[num][0] / total if total else 0.0, "ratio")
        return {k: v for k, v in out.items() if not k.startswith("_")}

    def close(self) -> None:
        for part in self.parts:
            part.close()
