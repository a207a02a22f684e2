"""Multi-core sharding benchmarks of the functional GEMM datapath.

These guard the `repro.core.sharding` subsystem's per-core accounting: the
round-robin tile assignment must split the tile load evenly across the chip's
crossbar cores and agree with the analytical dual-core schedule
(:class:`~repro.crossbar.dual_core.DualCoreCrossbar`) on the resulting
speed-up, and a dual-core chip must compute bitwise the same outputs as a
single-core one.

Scaling is asserted on the *modelled* chip timeline (per-core busy times and
the event-driven dual-core makespan): the crossbar cores are photonic cores of
the modelled chip, so their concurrency does not depend on how many host CPUs
the benchmark machine has.
"""

from __future__ import annotations

import csv

import numpy as np

from repro.config import small_test_chip
from repro.core.accelerator import OpticalCrossbarAccelerator
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.nn import build_lenet5

#: LeNet-scale sharding scenario: a dual-core 64x64 chip and an 8-image batch.
_CHIP = dict(rows=64, columns=64, num_cores=2)
_BATCH = 8


def _lenet_setup():
    network = build_lenet5()
    weights = generate_random_weights(network, seed=0, scale=0.3)
    images = np.random.default_rng(1).uniform(
        0.0, 1.0, (_BATCH,) + network.input_shape.as_tuple()
    )
    return network, weights, images


def test_sharded_lenet_batch_multicore_scaling(results_dir):
    """LeNet batch on two cores: bitwise-equal, balanced cores, dual-core speedup."""
    network, weights, images = _lenet_setup()
    single_core = small_test_chip(**{**_CHIP, "num_cores": 1})
    single = FunctionalInferenceEngine(network, weights, single_core)
    dual = FunctionalInferenceEngine(network, weights, small_test_chip(**_CHIP))
    # Acceptance criterion: the core count must not change a single bit.
    assert np.array_equal(single.run_batch(images), dual.run_batch(images))

    # The round-robin shard split keeps both crossbar cores near-equally busy,
    # which is where the multi-core scaling comes from.
    accelerator = dual.accelerator
    core_busy = accelerator.functional_statistics()["per_core_busy_time_s"]
    assert len(core_busy) == 2 and min(core_busy) > 0.0
    balance = min(core_busy) / max(core_busy)
    assert balance > 0.5

    # Analytical cross-check on the widest layer: the dual-core schedule of
    # the very tile plan the functional path executed shows real scaling.
    widest = max(weights.values(), key=lambda w: w.reshape(-1, w.shape[-1]).size)
    gemm_weights = widest.reshape(-1, widest.shape[-1])
    summary = accelerator.analytical_schedule(gemm_weights, num_vectors=_BATCH)
    assert summary["speedup"] > 1.3

    with open(results_dir / "sharding_scaling.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["core0_busy_s", "core1_busy_s", "dual_core_speedup"])
        writer.writerow(
            [f"{core_busy[0]:.3e}", f"{core_busy[1]:.3e}", f"{summary['speedup']:.3f}"]
        )
    print(
        f"sharded LeNet batch: core balance {balance:.2f}, analytical dual-core "
        f"speedup {summary['speedup']:.2f}x"
    )


def test_sharded_gemm_throughput(benchmark):
    """Warm fused GEMM streaming on a 16-tile plan (4 k-blocks of 4 tiles)."""
    chip = small_test_chip(**_CHIP)
    rng = np.random.default_rng(2)
    weights = rng.normal(size=(256, 256))  # 4x4 tile grid on the 64x64 chip
    inputs = rng.uniform(0, 1, (512, 256))
    accelerator = OpticalCrossbarAccelerator(chip)
    accelerator.linear(weights, inputs)  # program once

    result = benchmark(lambda: accelerator.linear(weights, inputs))
    assert result.shape == (512, 256)
    counts = accelerator.functional_statistics()["per_core_tile_dispatches"]
    assert counts[0] == counts[1]  # 16 tiles split 8/8 round-robin


def test_dual_core_schedule_speedup_on_uniform_tiles():
    """An even tile grid approaches the ideal 2x dual-core makespan speedup."""
    accelerator = OpticalCrossbarAccelerator(small_test_chip(**_CHIP))
    rng = np.random.default_rng(3)
    weights = rng.normal(size=(256, 64))  # 4 equal tiles
    summary = accelerator.analytical_schedule(weights, num_vectors=_BATCH)
    assert summary["speedup"] > 1.5
    assert summary["dual_core_utilisation"] >= summary["single_core_utilisation"]
