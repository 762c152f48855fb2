"""Part ``service`` of every workload: ``repro-radio serve`` under a
closed loop.

The server runs as a subprocess (``--port 0``) with its stdout and its
access log (stderr) sent to files in the run's directory: a pipe that
nobody drains would stall it. ``nproc`` client threads each hold one
keep-alive connection and send their next request only after the reply
to the previous one (a closed loop).

The traffic mix is the one of ``benchmarks/bench_e25_service_load.py``
(``mixed_workload``), drawn from ``--seed`` and repeated in blocks of
60 requests per client: ten warm uniques (the paper's ``G_m`` for
m in {6, 8, 10} and four G(12, p) with span 14, all ``decide``; three
G(8, p) with span 9, ``elect``: 3/10 of the uniques) picked uniformly
for 59 requests, plus one cold unique G(10, p) ``decide`` with span 12
at a seeded place in the block; every round draws fresh cold
configurations.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

import checks
from common import (BENCH_DIR, ROOT, child_env, median, nproc,
                    percentile, process_cpu_s, process_peak_rss_mb)
from harness import Round, Workload, rate

# the request mix of benchmarks/bench_e25_service_load.py
GM_SIZES = (6, 8, 10)  # G_m, decide
DECIDE_UNIQUES, DECIDE_N, DECIDE_SPAN = 4, 12, 14  # G(n, p), decide
ELECT_UNIQUES, ELECT_N, ELECT_SPAN = 3, 8, 9  # G(n, p), elect
BLOCK = 60  # requests per cold straggler
COLD_N, COLD_SPAN = 10, 12  # the straggler: a cold unique G(n, p), decide
BLOCKS_PER_CLIENT = 9  # 540 requests per client per round
START_TIMEOUT_S = 60.0


def payload(cfg, mode: str) -> bytes:
    return json.dumps({
        "edges": [list(e) for e in cfg.edges],
        "tags": {str(v): t for v, t in cfg.tags.items()},
        "mode": mode,
    }).encode("utf-8")


def default_sigint() -> None:
    """The server stops on Ctrl-C (``KeyboardInterrupt``) only; a shell
    starts background jobs with SIGINT ignored, and the server would
    inherit that, so restore the default before it starts."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """A ``repro-radio serve --port 0`` subprocess with its output in
    files under the run directory."""

    def __init__(self, rundir, label: str, argv: List[str]) -> None:
        self.out_path = rundir.file(f"{label}.out")
        self._out = open(self.out_path, "w")
        self._log = open(rundir.file(f"{label}.log"), "w")
        self.proc = subprocess.Popen(
            argv + ["serve", "--port", "0"],
            cwd=ROOT, env=child_env(), stdout=self._out, stderr=self._log,
            preexec_fn=default_sigint,
        )
        try:
            self._wait_ready(label)
        except BaseException:
            self.close()
            raise

    def _wait_ready(self, label: str) -> None:
        """Read the bound port from stdout, then poll ``/healthz``."""
        deadline = time.monotonic() + START_TIMEOUT_S
        self.port = None
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"{label}: repro-radio serve did not start")
            with open(self.out_path) as fh:
                m = re.search(r"listening on http://[^:]+:(\d+)", fh.read())
            if m:
                self.port = int(m.group(1))
            else:
                time.sleep(0.01)
        while True:
            try:
                self.get("/healthz")
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def get(self, path: str) -> bytes:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return conn.getresponse().read()
        finally:
            conn.close()

    def warm_up(self, bodies: List[bytes]) -> None:
        """One pass over the warm pool, so timed warm traffic is warm."""
        conn = self.connect()
        try:
            for body in bodies:
                conn.request("POST", "/classify", body=body,
                             headers={"Content-Type": "application/json"})
                conn.getresponse().read()
        finally:
            conn.close()

    def counters(self) -> Dict[str, float]:
        """The server's own accounting (``/stats``, ``/metrics``)."""
        from repro.service import parse_prometheus_text

        stats = json.loads(self.get("/stats"))
        metrics = parse_prometheus_text(self.get("/metrics").decode("utf-8"))
        return {
            "requests": stats["requests"],
            "fast_hits": stats["fast_hits"],
            "batches": stats["batches"],
            "classified": stats["classified"],
            "coalesced": stats["coalesced"],
            "latency_sum": metrics["repro_http_request_latency_seconds_sum"],
            "latency_count": metrics["repro_http_request_latency_seconds_count"],
            "batch_size_sum": metrics["repro_service_batch_size_sum"],
            "batch_size_count": metrics["repro_service_batch_size_count"],
        }

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()
        self._log.close()


class TracedServer(Server):
    """The server under ``traced_serve.py``: layer totals on request."""

    def __init__(self, rundir) -> None:
        self.snapshot_path = rundir.file("layers.json")
        self._dumps = 0
        super().__init__(rundir, "serve-traced", [
            sys.executable, os.path.join(BENCH_DIR, "traced_serve.py"),
            self.snapshot_path,
        ])

    def layers(self) -> Dict:
        """Ask the server for its layer totals and wait for the dump."""
        self._dumps += 1
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                with open(self.snapshot_path, encoding="utf-8") as fh:
                    state = json.load(fh)
                if state["dump"] == self._dumps:
                    return state
            except (OSError, ValueError):
                pass
            time.sleep(0.005)
        raise RuntimeError("traced server did not dump its layer totals")


def layer_delta(before: Dict, after: Dict) -> Dict[str, float]:
    """Per-round layer figures from two snapshots of the traced server."""
    def diff(group, key):
        return after[group].get(key, 0) - before[group].get(key, 0)
    out = {f"{layer}.busy": diff("busy", layer) for layer in after["busy"]}
    out.update({f"{layer}.calls": diff("calls", layer) for layer in after["calls"]})
    out.update({key: diff("counts", key) for key in after["counts"]})
    out["key.unique"] = after["unique_keys"]
    return out


def engine_layers(deltas: List[Dict[str, float]]) -> Dict:
    """Per-round medians of the traced server's key, cache and kernel
    figures."""
    def med(key):
        return median([d.get(key, 0) for d in deltas])

    calls, gets = med("key.calls"), med("cache.get.calls")
    return {
        "key.busy_s": (med("key.busy"), "s"),
        "key.calls": (calls, "count"),
        "key.unique": (med("key.unique"), "count"),
        "key.collapse_ratio": (med("key.unique") / calls if calls else 0.0, "ratio"),
        "cache.get_s": (med("cache.get.busy"), "s"),
        "cache.put_s": (med("cache.put.busy"), "s"),
        "cache.hit_ratio": (med("cache.hits") / gets if gets else 0.0, "ratio"),
        "_cache.hits": (med("cache.hits"), "count"),
        "_cache.gets": (gets, "count"),
        "kernel.busy_s": (med("kernel.busy"), "s"),
        "kernel.configs": (med("kernel.configs"), "count"),
    }


class ServiceWorkload(Workload):
    name = "service"

    def setup(self) -> None:
        from repro.engine.workloads import seeded_config
        from repro.graphs.families import g_m

        self._seeded_config = seeded_config
        base = self.seed * 1000
        self.warm = [(g_m(m), "decide") for m in GM_SIZES] + [
            (seeded_config(base + s, DECIDE_N, DECIDE_SPAN), "decide")
            for s in range(DECIDE_UNIQUES)
        ] + [
            (seeded_config(base + 100 + s, ELECT_N, ELECT_SPAN), "elect")
            for s in range(ELECT_UNIQUES)
        ]
        self.warm_bodies = [payload(cfg, mode) for cfg, mode in self.warm]
        rng = random.Random(self.seed)
        # each client's sequence: warm indices, or -1 for the cold straggler
        self.plans = []
        for _ in range(nproc()):
            plan = []
            for _ in range(self.scaled(BLOCKS_PER_CLIENT, 1)):
                block = [rng.randrange(len(self.warm)) for _ in range(BLOCK - 1)]
                block.insert(rng.randrange(BLOCK), -1)
                plan.extend(block)
            self.plans.append(plan)
        self.round_index = 0
        self.expected_warm: List[Dict] = []
        self.traced = None
        self.server = Server(self.rundir, "serve", [sys.executable, "-m", "repro.cli"])
        self.server.warm_up(self.warm_bodies)

    def prepare(self) -> None:
        from repro.service import serial_report

        self._serial_report = serial_report
        self.expected_warm = [serial_report(cfg, mode) for cfg, mode in self.warm]

    def install_layers(self, tracer) -> None:
        """Traced rounds go to a second server that times its own key,
        cache and kernel layers (``traced_serve.py``); it starts, warmed
        up, before the first traced round."""
        if self.traced is None:
            self.traced = TracedServer(self.rundir)
            self.traced.warm_up(self.warm_bodies)

    def run_round(self) -> Round:
        rnd = Round()
        base = (self.seed * 7919 + self.round_index) * 1_000_003
        self.round_index += 1
        sequences, expected = [], []
        for c, plan in enumerate(self.plans):
            bodies, reports = [], []
            for i, idx in enumerate(plan):
                if idx < 0:
                    cfg = self._seeded_config(base + c * 100_000 + i, COLD_N, COLD_SPAN)
                    bodies.append(payload(cfg, "decide"))
                    reports.append(self._serial_report(cfg, "decide"))
                else:
                    bodies.append(self.warm_bodies[idx])
                    reports.append(self.expected_warm[idx])
            sequences.append(bodies)
            expected.append(reports)
        server = self.traced if self.tracer is not None else self.server
        conns = [server.connect() for _ in sequences]
        answers = [[] for _ in sequences]
        latencies = [[] for _ in sequences]
        gate = threading.Barrier(len(sequences) + 1)

        def client(k: int) -> None:
            conn, out, lat = conns[k], answers[k], latencies[k]
            gate.wait()
            try:
                for body in sequences[k]:
                    t0 = time.perf_counter()
                    conn.request("POST", "/classify", body=body,
                                 headers={"Content-Type": "application/json"})
                    resp = conn.getresponse()
                    data = resp.read()
                    lat.append(time.perf_counter() - t0)
                    out.append((resp.status, data))
            except (OSError, http.client.HTTPException) as exc:
                print(f"service client {k}: {exc!r}", file=sys.stderr)

        before = server.counters()
        layers0 = server.layers() if server is self.traced else None
        threads = [threading.Thread(target=client, args=(k,)) for k in range(len(sequences))]
        for t in threads:
            t.start()
        total = sum(len(s) for s in sequences)
        # the load generator's own cycle collections would pause the
        # clients in proportion to this process's heap, not the server's
        gc.disable()
        cpu0 = process_cpu_s(server.proc.pid)
        try:
            with self.phase(rnd, "loop", total):
                gate.wait()
                for t in threads:
                    t.join()
        finally:
            gc.enable()
        rnd.data["server_cpu_s"] = process_cpu_s(server.proc.pid) - cpu0
        for conn in conns:
            conn.close()
        for out, seq in zip(answers, sequences):  # a broken client's rest failed
            out.extend([(0, b"")] * (len(seq) - len(out)))
        after = server.counters()
        delta = {k: after[k] - before[k] for k in after}
        if layers0 is not None:
            rnd.data["layers"] = layer_delta(layers0, server.layers())
        rnd.data.update(
            answers=[a for out in answers for a in out],
            expected=[e for rep in expected for e in rep],
            latencies=[x for lat in latencies for x in lat],
            server=delta,
        )
        return rnd

    def keep(self, rnd: Round) -> None:
        """Check the responses right away (the figures measured are the
        server's, not this process's) and keep only the verdict."""
        answers = rnd.data.pop("answers")
        expected = rnd.data.pop("expected")
        ok = [checks.response_ok(a, e) for a, e in zip(answers, expected)]
        rnd.data["verdict"] = (len(ok), ok.count(False))

    def check_round(self, rnd: Round) -> Tuple[int, int]:
        return rnd.data["verdict"]

    def end_to_end(self, rounds: List[Round]):
        return {
            # over all rounds: the clock ticks at 10 ms, a round uses ~1 s
            "server_cpu_ms_per_req": (
                sum(r.data["server_cpu_s"] for r in rounds)
                / sum(r.units["loop"] for r in rounds) * 1e3, "ms"),
            "peak_rss_mb": (process_peak_rss_mb(self.server.proc.pid), "MiB"),
        }

    def info(self, rounds: List[Round]):
        """What the clients saw: on the shared host these moved by 36-70%
        between runs of the same code, so they are printed, not gated."""
        def latency_ms(q):
            return median([
                percentile(sorted(r.data["latencies"]), q) * 1e3 for r in rounds
            ])

        return {
            "requests_per_s": (rate(rounds, "loop"), "req/s"),
            "p50_ms": (latency_ms(0.50), "ms"),
            "p99_ms": (latency_ms(0.99), "ms"),
        }

    def per_layer(self, rounds: List[Round]):
        def per_round(fn):
            return median([fn(r.data["server"], r) for r in rounds])

        server_s = per_round(lambda d, r: d["latency_sum"] / d["latency_count"])
        client_s = per_round(lambda d, r: sum(r.data["latencies"]) / len(r.data["latencies"]))
        return {
            "service.server_s": (server_s, "s"),
            "service.transport_s": (client_s - server_s, "s"),
            "service.batches": (per_round(lambda d, r: d["batches"]), "count"),
            "service.batch_size_mean": (per_round(
                lambda d, r: d["batch_size_sum"] / max(1, d["batch_size_count"])), "count"),
            "service.fast_hit_ratio": (per_round(
                lambda d, r: d["fast_hits"] / max(1, d["requests"])), "ratio"),
            "service.classified": (per_round(lambda d, r: d["classified"]), "count"),
            "service.coalesced": (per_round(lambda d, r: d["coalesced"]), "count"),
            **engine_layers([r.data["layers"] for r in rounds]),
        }

    def close(self) -> None:
        for server in (getattr(self, "server", None), getattr(self, "traced", None)):
            if server is not None:
                server.close()
