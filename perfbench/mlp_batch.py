"""``mlp-batch``: back-to-back offline ``run_batch`` calls, no serving layer.

An MLP 784-1024-512-10 on the paper's design point (``optimal_chip()``,
128x128, dual core).  Each batch makes few vector passes over many large
tiles, so per-tile Python overhead and the tile-plan lookup dominate.  The
measured seconds repeat a cycle of calls at batch sizes 1, 8 and 64, so every
size is timed across the whole window, and the host kernel in every cycle.
Set-up builds the engine and runs its first batch, which programs every PCM
tile (184 programming events), so work moved into tile programming shows in
``setup_s``.  Sampled output rows are compared bitwise with a single-image
``run()`` on a separately built reference engine.
"""

from __future__ import annotations

import time

import numpy as np

from layers import LayerTrace, add_functional_statistics, add_traced_e2e
from measure import (
    CYCLE_SAMPLES,
    HostSpeed,
    Tally,
    latency_summary,
    normalized_calls,
    peak_rss_mb,
    pin_to_one_cpu,
    timed_setups,
)

#: Batch size -> calls per cycle; each size takes a similar share of the time,
#: batch 1 the most so its per-call latency has a tail worth reporting.
CYCLE = {1: 6, 8: 2, 64: 1}
SETUPS = 30
#: Every SAMPLE_EVERY-th call of a size has one row checked, at most SAMPLES per size.
SAMPLE_EVERY = 16
SAMPLES = 8


def run(seed: int, seconds: float, trace: bool):
    from repro.config.presets import optimal_chip
    from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
    from repro.nn.models import build_mlp

    network = build_mlp(784, (1024, 512), 10)
    config = optimal_chip()
    weights = generate_random_weights(network, seed=seed, scale=0.3)
    shape = network.input_shape.as_tuple()
    rng = np.random.default_rng(seed)
    pin_to_one_cpu()
    host = HostSpeed()
    layer_trace = LayerTrace() if trace else None
    if layer_trace is not None:
        layer_trace.enabled = True
    notes = []

    def build():
        engine = FunctionalInferenceEngine(network, weights, config)
        engine.run_batch(np.zeros((1,) + shape))
        return engine

    engine, setup_s = timed_setups(host, SETUPS, build)

    tally = Tally()
    calls_by_size = {size: [] for size in CYCLE}  # (start, seconds) per call
    samples = []  # (input row, served output row)
    calls = 0
    window_start = time.perf_counter()
    while time.perf_counter() - window_start < seconds:
        host.sample(CYCLE_SAMPLES)
        for size, repeats in CYCLE.items():
            for _ in range(repeats):
                images = rng.uniform(0.0, 1.0, (size,) + shape)
                if layer_trace is not None:
                    layer_trace.recorder.set_context(calls)
                calls += 1
                tally.attempt()
                start = time.perf_counter()
                try:
                    outputs = engine.run_batch(images)
                except Exception as error:  # counted; the run goes on
                    tally.error(error)
                    continue
                calls_by_size[size].append((start, time.perf_counter() - start))
                taken = len(calls_by_size[size])
                if taken % SAMPLE_EVERY == 1 and taken // SAMPLE_EVERY < SAMPLES:
                    row = int(rng.integers(size))
                    samples.append((images[row], outputs[row]))
    window_s = time.perf_counter() - window_start
    if layer_trace is not None:
        layer_trace.enabled = False
    rss_mb = peak_rss_mb()

    reference = FunctionalInferenceEngine(network, weights, config)
    for image, served in samples:
        tally.check(served, reference.run(image))
    notes.append(f"{len(samples)} sampled rows checked against run()")
    notes.append("calls per batch size: "
                 + ", ".join(f"b{size} {len(timed)}" for size, timed in calls_by_size.items()))
    notes.append(host.describe())

    normalized = {size: normalized_calls(timed, host, window_start, window_s)
                  for size, timed in calls_by_size.items()}
    values = latency_summary(normalized[1], "batch-1 calls", notes)
    for size, times in normalized.items():
        values[f"ms_per_image.b{size}"] = float(np.median(times)) * 1e3 / size
    values["throughput_rps"] = (sum(size * len(times) for size, times in normalized.items())
                                / sum(sum(times) for times in normalized.values()))
    values["saturation_rps"] = 64 * len(normalized[64]) / sum(normalized[64])
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = rss_mb

    if layer_trace is None:
        return tally, values, notes
    per_layer = layer_trace.metrics()
    add_traced_e2e(per_layer, values)
    add_functional_statistics(per_layer, engine.accelerator.functional_statistics(), calls)
    layer_trace.finish("mlp-batch", seed)
    return tally, per_layer, notes
