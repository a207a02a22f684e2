"""``lenet-open``: LeNet-5 behind an in-process InferenceServer, open-loop load.

The conv-heavy serving path: im2col, many vectors per tile, ADC detection and
boundary repair.  The server runs the CLI-default serving settings (serial
executor, fixed policy, max_batch 8, max_wait 2 ms, queue 128, warmup and
tracing on) on the 32x32 dual-core test chip.

* Phase 1 offers Poisson arrivals at a light fixed rate.  Most batches hold
  one image, so its latency shows the small-batch datapath cost.  A rate
  near saturation would be bistable, so the rate stays well below it.
* Phase 2 offers about twice the saturation rate with blocking admission, so
  the queue stays full and completions per second show the batch-8 cost.

Each phase runs in rounds, and each round is normalised by the host-kernel
calls made inside it (see ``measure.HostSpeed.sampling``).  Every served
output is then compared bitwise with a direct ``run_batch`` of the same image
on a reference engine built after the timed window; those reference calls
are timed at batch sizes 1, 8 and 64 for ``ms_per_image``.
"""

from __future__ import annotations

import time

import numpy as np

import openloop
from layers import LayerTrace, add_server_stats, add_traced_e2e
from measure import (
    SAMPLE_EVERY_S,
    HostSpeed,
    Tally,
    completion_rate,
    latency_summary,
    peak_rss_mb,
    percentile_ms,
    pin_to_one_cpu,
    reference_pass,
    timed_setups,
)

#: Light enough that a host running 1.7x slower than usual, as the reference
#: box often did, keeps batch-1 utilisation near one third: queueing grows
#: faster than linearly with the slowdown, so a heavier rate would measure
#: the neighbours more than the program.
RATE_RPS = 20.0
OVERLOAD_RPS = 400.0
#: Share of the measured seconds given to phase 1; phase 2 gets the rest.
PHASE1_SHARE = 0.75
#: Each phase runs in rounds, each normalised by the kernel calls inside it.
PHASE1_ROUNDS = 16
PHASE2_ROUNDS = 12
#: Phase-2 completions are counted after this ramp, once the queue is full.
RAMP_S = 0.2
SETUPS = 45
WARM_REQUESTS = 16
WAIT_S = 60.0
#: Reference-pass calls per cycle, by batch size, and the pass's shortest length.
REFERENCE_CYCLE = {1: 4, 8: 1, 64: 1}
REFERENCE_MIN_S = 4.0
#: Lateness above this share of latency_p50_ms flags the run.
LATE_SHARE = 0.25


def run(seed: int, seconds: float, trace: bool):
    from repro.config.presets import small_test_chip
    from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
    from repro.nn.models import build_lenet5
    from repro.serve import InferenceServer

    network = build_lenet5()
    config = small_test_chip(rows=32, columns=32, num_cores=2)
    weights = generate_random_weights(network, seed=seed, scale=0.3)
    shape = network.input_shape.as_tuple()
    rng = np.random.default_rng(seed)
    pin_to_one_cpu()
    host = HostSpeed()
    layer_trace = LayerTrace(serving=True) if trace else None
    notes = []

    def make_image(_index: int) -> np.ndarray:
        return rng.uniform(0.0, 1.0, shape)

    if layer_trace is not None:
        layer_trace.enabled = True
    server, setup_s = timed_setups(
        host, SETUPS, lambda: InferenceServer(network, weights, config).start(),
        lambda server: server.stop())
    try:
        if layer_trace is not None:
            layer_trace.enabled = False
        warm_images = [make_image(index) for index in range(WARM_REQUESTS)]
        warm = [server.submit(image) for image in warm_images]
        for future in warm:
            future.exception(timeout=WAIT_S)
        if layer_trace is not None:
            layer_trace.enabled = True

        def open_loop(rate_rps: float, round_s: float, stop: bool):
            offsets = openloop.conditioned_poisson(rng, rate_rps, round_s)
            start, requests = openloop.drive(server.submit, make_image, offsets,
                                             stop_after_s=round_s if stop else None)
            openloop.wait_all(requests, WAIT_S)
            return start, time.perf_counter(), requests

        phase1_s = seconds * PHASE1_SHARE
        phase2_s = (seconds - phase1_s) / PHASE2_ROUNDS
        with host.sampling(SAMPLE_EVERY_S):
            phase1 = [open_loop(RATE_RPS, phase1_s / PHASE1_ROUNDS, False)
                      for _ in range(PHASE1_ROUNDS)]
            phase2 = [open_loop(OVERLOAD_RPS, phase2_s, True) for _ in range(PHASE2_ROUNDS)]
        if layer_trace is not None:
            layer_trace.enabled = False
        stats = server.stats()
    finally:
        server.stop()
    rss_mb = peak_rss_mb()

    latencies, rates = [], []
    for slowdown, (_, _, requests) in zip(host.factors(phase1), phase1):
        served = [r for r in requests if r.error is None and r.done is not None]
        latencies += [(r.done - r.due) / slowdown for r in served]
        rates.append(completion_rate([r.done for r in served]))
    values = latency_summary(latencies, "phase 1", notes)
    values["throughput_rps"] = float(np.median(rates))
    # Every completion after the ramp counts, so a cost that hits only some
    # batches shows; the median over rounds absorbs a round the host stalled.
    values["saturation_rps"] = float(np.median([
        completion_rate([r.done for r in requests if r.error is None and r.done is not None
                         and r.done >= start + RAMP_S]) * slowdown
        for slowdown, (start, _, requests) in zip(host.factors(phase2), phase2)
    ]))
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = rss_mb
    requests1 = [r for _, _, requests in phase1 for r in requests]
    requests2 = [r for _, _, requests in phase2 for r in requests]
    lateness = [r.sent - r.due for r in requests1]
    late_p99_ms = percentile_ms(lateness, 99)
    if late_p99_ms > LATE_SHARE * values["latency_p50_ms"]:
        notes.append(f"generator ran late: lateness p99 {late_p99_ms:.3f} ms against "
                     f"latency_p50_ms {values['latency_p50_ms']:.3f} ms")
    notes.append(f"phase 2: {len(requests2)} sent in {PHASE2_ROUNDS} rounds")

    # Verification, outside the timed window.
    reference = FunctionalInferenceEngine(network, weights, config)
    requests = requests1 + requests2
    images = np.stack(warm_images + [request.image for request in requests])
    expected, ms_per_image = reference_pass(reference, images, REFERENCE_CYCLE,
                                            REFERENCE_MIN_S, host)
    values.update(ms_per_image)
    notes.append(host.describe())
    tally = Tally()
    tally.attempt(len(warm) + len(requests))
    for future, want in zip(warm, expected):
        error = future.exception()
        if error is not None:
            tally.error(error)
        else:
            tally.check(future.result(), want)
    for request, want in zip(requests, expected[len(warm):]):
        if request.error is not None:
            tally.error(request.error)
        else:
            tally.check(request.future.result(), want)

    if layer_trace is None:
        return tally, values, notes
    per_layer = layer_trace.metrics()
    add_traced_e2e(per_layer, values)
    add_server_stats(per_layer, stats)
    per_layer["loadgen.open_loop.lateness_p50_ms"] = percentile_ms(lateness, 50)
    per_layer["loadgen.open_loop.lateness_p99_ms"] = late_p99_ms
    layer_trace.finish("lenet-open", seed)
    return tally, per_layer, notes
