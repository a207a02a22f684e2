"""The server process of the ``tiny-http`` workload.

Run from the root of a checkout::

    python3 perfbench/http_server.py --seed 1 --trace 0

It builds the tiny MLP from ``--seed``, serves it through the default asyncio
front-end (``AsyncServeHTTPServer``) with the CLI-default serving settings on
an ephemeral loopback port, and prints ``{"url": ..., "setup_s": ...}`` once
it is ready.  ``setup_s`` is the median time of ``SETUPS`` builds, each from
constructing the server (warm-up included) until the front-end listens,
divided by the host slowdown (see ``measure.timed_setups``); interpreter
start-up and imports are left out, as they vary with the host more than with
the program.  The last build serves.  On
``POST /v1/shutdown`` it drains, stops and prints one more JSON line: its
peak RSS, its host-kernel timings (``HostSpeed.sampling`` runs while it
serves) and, with ``--trace 1``, the per-layer metrics of its spans.  With
``--trace 1`` the wrappers are installed before anything is built, so timed
and traced runs differ only by tracing.
"""

from __future__ import annotations

import argparse
import json
import sys

import measure
from layers import LayerTrace, add_server_stats

SETUPS = 45


def tiny_model(seed: int):
    """``(network, weights, config)`` of the tiny-http workload."""
    from repro.config.presets import small_test_chip
    from repro.core.inference import generate_random_weights
    from repro.nn.models import build_mlp

    network = build_mlp(64, (128,), 10)
    weights = generate_random_weights(network, seed=seed, scale=0.3)
    return network, weights, small_test_chip(rows=32, columns=32, num_cores=2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tiny-http server process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    measure.import_program()
    layer_trace = LayerTrace(serving=True, http=True) if args.trace else None
    if layer_trace is not None:
        layer_trace.enabled = True

    from repro.serve import AsyncServeHTTPServer, InferenceServer

    network, weights, config = tiny_model(args.seed)

    def build():
        server = InferenceServer(network, weights, config).start()
        return server, AsyncServeHTTPServer(server, host="127.0.0.1", port=0,
                                            allow_shutdown=True).start()

    def teardown(built):
        server, front = built
        front.stop()
        server.stop()

    host = measure.HostSpeed()
    (server, front), setup_s = measure.timed_setups(host, SETUPS, build, teardown)
    with server:
        with front, host.sampling(measure.SAMPLE_EVERY_S):
            print(json.dumps({"url": front.url, "setup_s": setup_s}), flush=True)
            front.wait()
        if layer_trace is not None:
            layer_trace.enabled = False
        stats = server.stats()

    summary = {"peak_rss_mb": measure.peak_rss_mb(), "host_points": host.points}
    if layer_trace is not None:
        per_layer = layer_trace.metrics()
        add_server_stats(per_layer, stats)
        layer_trace.finish("tiny-http", args.seed)
        summary["per_layer"] = per_layer
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
