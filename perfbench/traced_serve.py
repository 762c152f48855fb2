"""``repro-radio serve`` with the service's engine layers timed.

The traced ``service`` rounds run against this launcher instead of the
plain CLI: it installs :func:`layers.install_service` in the server
process, then runs the CLI unchanged. On ``SIGUSR1`` it writes the layer
totals so far (and the distinct keys since the previous dump) to
``SNAPSHOT`` atomically, so the benchmark can take per-round deltas::

    python3 perfbench/traced_serve.py SNAPSHOT serve --port 0
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import use_checkout_sources  # noqa: E402
from layers import install_service  # noqa: E402
from tracer import LayerTracer  # noqa: E402


def main() -> int:
    snapshot, argv = sys.argv[1], sys.argv[2:]
    use_checkout_sources()
    tracer = LayerTracer()
    install_service(tracer)
    dumps = 0

    def dump(signum, frame) -> None:
        nonlocal dumps
        dumps += 1
        state = {
            "dump": dumps,
            "busy": dict(tracer.busy),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "unique_keys": len(tracer.keys),
        }
        tracer.keys = set()
        tmp = f"{snapshot}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        os.replace(tmp, snapshot)

    signal.signal(signal.SIGUSR1, dump)
    from repro.cli import main as cli

    return cli(argv)


if __name__ == "__main__":
    sys.exit(main())
