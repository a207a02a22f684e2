"""Where the traced run wraps the program, and the per-layer metrics it yields.

Each entry names a public function by the module a caller looks it up in:
``accelerator.py`` imports ``im2col_matrix`` by name, and ``http_async.py``
imports the codec helpers by name, so those are wrapped in the importing
module.  Methods are wrapped on their class.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional, Tuple

from spans import SpanRecorder, summarize, write_spans

#: (module, attribute, span name) of the functional datapath.
DATAPATH = (
    ("repro.core.inference", "FunctionalInferenceEngine.run_batch", "core.inference.run_batch"),
    ("repro.core.accelerator", "OpticalCrossbarAccelerator.conv2d", "core.accelerator.conv2d"),
    ("repro.core.accelerator", "im2col_matrix", "nn.im2col.im2col_matrix"),
    ("repro.core.accelerator", "OpticalCrossbarAccelerator.linear", "core.accelerator.linear"),
    ("repro.core.sharding", "ShardedExecutionEngine.execute", "core.sharding.execute"),
    ("repro.crossbar.signed", "SignedCrossbarEngine.matmul", "crossbar.signed.matmul"),
    ("repro.crossbar.array", "CrossbarArray.matmul", "crossbar.array.matmul"),
    ("repro.photonics.ring", "RingResonatorODAC.modulate", "photonics.ring.modulate"),
    ("repro.crossbar.signed", "SignedCrossbarEngine.program", "crossbar.signed.program"),
)

#: The serving stack, in request order.
SERVING = (
    ("repro.serve.server", "InferenceServer.submit", "serve.server.submit"),
    ("repro.serve.batcher", "MicroBatcher.next_batch", "serve.batcher.next_batch"),
    ("repro.serve.workers", "EngineWorkerPool.submit", "serve.workers.submit"),
)

#: The HTTP codec and the metrics scrape.
HTTP = (
    ("repro.serve.http_async", "parse_infer_request", "serve.http.parse_infer_request"),
    ("repro.serve.http", "decode_infer_payload", "serve.http.decode_infer_payload"),
    ("repro.serve.http_async", "infer_response_body", "serve.http.infer_response_body"),
    ("repro.serve.http_async", "dump_json", "serve.http.dump_json"),
    ("repro.obs.metrics", "MetricsRegistry.render_prometheus", "obs.metrics.render_prometheus"),
)

MAX_BATCH = 8

TRACED_E2E = (
    "latency_p50_ms",
    "latency_p99_ms",
    "throughput_rps",
    "saturation_rps",
    "ms_per_image.b1",
    "ms_per_image.b8",
    "ms_per_image.b64",
)


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric, with its unit, in report order."""
    names: List[Tuple[str, str]] = []
    for _, _, span in DATAPATH + SERVING + HTTP:
        names += [(f"{span}.calls", "count"), (f"{span}.total_ms", "ms"), (f"{span}.self_ms", "ms")]
    names += [
        ("core.accelerator.functional_statistics.programming_events", "count"),
        ("core.accelerator.functional_statistics.programming_energy_j", "J"),
        ("core.accelerator.functional_statistics.tile_cache_misses", "count"),
        ("core.accelerator.functional_statistics.tile_cache_hits_per_batch", "count"),
        *[(f"serve.batcher.next_batch.size_{size}", "count") for size in range(1, MAX_BATCH + 1)],
        ("serve.batcher.next_batch.queue_wait_p50_ms", "ms"),
        ("serve.batcher.next_batch.queue_wait_p99_ms", "ms"),
        ("serve.server.reorder_deliver.p50_ms", "ms"),
        ("serve.server.reorder_deliver.p99_ms", "ms"),
        ("serve.http.transport_residual.p50_ms", "ms"),
        ("serve.http.transport_residual.p99_ms", "ms"),
        ("serve.server.stats.requests_failed", "count"),
        ("serve.server.stats.requests_rejected", "count"),
        ("serve.workers.fault_statistics.batches_recovered", "count"),
        ("serve.workers.fault_statistics.replica_restarts", "count"),
        ("serve.http.client.connections_opened", "count"),
        ("loadgen.open_loop.lateness_p50_ms", "ms"),
        ("loadgen.open_loop.lateness_p99_ms", "ms"),
        ("trace.spans", "count"),
    ]
    names += [(f"trace.{name}", unit) for name, unit in (
        ("latency_p50_ms", "ms"),
        ("latency_p99_ms", "ms"),
        ("throughput_rps", "1/s"),
        ("saturation_rps", "1/s"),
        ("ms_per_image.b1", "ms"),
        ("ms_per_image.b8", "ms"),
        ("ms_per_image.b64", "ms"),
    )]
    return names


class LayerTrace:
    """A :class:`SpanRecorder` over the program's layers, plus serving hooks.

    Beyond plain spans it keeps, per micro-batch, the batch size and each
    request's queue wait (``flush_time - enqueue_time``), and per request the
    time from the end of its batch's replica ``run_batch`` to its future's
    done callback (reorder plus deliver).

    ``MicroBatcher.next_batch`` spans cover only calls that return a batch,
    and start no earlier than the batch's first request was queued: the
    dispatch loop polls with a timeout, and the idle wait for a first request
    is neither batch assembly nor the ``max_wait`` cost.  So its ``calls`` is
    the number of micro-batches.
    """

    def __init__(self, serving: bool = False, http: bool = False) -> None:
        self.recorder = SpanRecorder()
        self.batch_sizes: List[int] = []
        self.queue_waits_s: List[float] = []
        self.deliver_s: List[float] = []
        self._batch_ids = itertools.count(1)
        self._run_end: Dict[object, float] = {}
        self._lock = threading.Lock()
        for module, attribute, name in DATAPATH:
            after = self._after_run_batch if name == "core.inference.run_batch" else None
            self.recorder.install(module, attribute, name, after)
        if serving:
            for module, attribute, name in SERVING:
                after = self._after_next_batch if name == "serve.batcher.next_batch" else None
                self.recorder.install(module, attribute, name, after)
        if http:
            for module, attribute, name in HTTP:
                self.recorder.install(module, attribute, name)

    @property
    def enabled(self) -> bool:
        return self.recorder.enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self.recorder.enabled = value

    def finish(self, workload: str, seed: int) -> None:
        """Unwrap the program and write the spans under ``.perfbench/``."""
        from measure import ROOT

        self.recorder.uninstall()
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        write_spans(out / f"{workload}-seed{seed}.spans.json.gz", self.recorder.spans)

    # ------------------------------------------------------------------ hooks
    def _after_next_batch(self, args, batch, start, end) -> Optional[float]:
        if not batch:
            return None
        # The batcher's clock is time.monotonic; the recorder's is perf_counter.
        first_queued = end - (time.monotonic() - batch[0].enqueue_time)
        batch_id = next(self._batch_ids)
        self.recorder.set_context(batch_id)
        self.batch_sizes.append(len(batch))
        for request in batch:
            if request.flush_time is not None:
                self.queue_waits_s.append(request.flush_time - request.enqueue_time)
            request.future.add_done_callback(
                lambda _future, batch_id=batch_id: self._delivered(batch_id)
            )
        return max(start, first_queued)

    def _after_run_batch(self, args, result, start, end) -> float:
        context = self.recorder.context()
        if context is not None:
            with self._lock:
                self._run_end[context] = end
        return start

    def _delivered(self, batch_id: int) -> None:
        now = time.perf_counter()
        with self._lock:
            end = self._run_end.get(batch_id)
        if end is not None:
            self.deliver_s.append(now - end)

    # ------------------------------------------------------------------ metrics
    def metrics(self) -> Dict[str, float]:
        """Span and hook metrics; per-layer names this run did not touch read 0."""
        from measure import percentile_ms

        spans = list(self.recorder.spans)
        values: Dict[str, float] = {name: 0.0 for name, _ in per_layer_names()}
        for name, entry in summarize(spans).items():
            for stat, value in entry.items():
                key = f"{name}.{stat}"
                if key in values:
                    values[key] = float(value)
        values["trace.spans"] = float(len(spans))
        for size in self.batch_sizes:
            key = f"serve.batcher.next_batch.size_{min(size, MAX_BATCH)}"
            values[key] += 1.0
        values["serve.batcher.next_batch.queue_wait_p50_ms"] = percentile_ms(self.queue_waits_s, 50)
        values["serve.batcher.next_batch.queue_wait_p99_ms"] = percentile_ms(self.queue_waits_s, 99)
        values["serve.server.reorder_deliver.p50_ms"] = percentile_ms(self.deliver_s, 50)
        values["serve.server.reorder_deliver.p99_ms"] = percentile_ms(self.deliver_s, 99)
        return values


def add_traced_e2e(values: Dict[str, float], e2e: Dict[str, float]) -> None:
    """Copy the traced run's end-to-end figures under ``trace.<name>``."""
    for name in TRACED_E2E:
        values[f"trace.{name}"] = float(e2e[name])


def add_functional_statistics(values: Dict[str, float], stats: Dict[str, object],
                              batches: int) -> None:
    """Exact accelerator counts; cache hits as hits per ``run_batch``."""
    prefix = "core.accelerator.functional_statistics"
    values[f"{prefix}.programming_events"] = float(stats["programming_events"])
    values[f"{prefix}.programming_energy_j"] = float(stats["programming_energy_j"])
    values[f"{prefix}.tile_cache_misses"] = float(stats["tile_cache_misses"])
    values[f"{prefix}.tile_cache_hits_per_batch"] = (
        float(stats["tile_cache_hits"]) / batches if batches else 0.0
    )


def add_server_stats(values: Dict[str, float], stats: Dict[str, object]) -> None:
    """Failure, retry and accelerator counts from ``InferenceServer.stats()``."""
    telemetry = stats["telemetry"]
    pool = stats["pool"]
    add_functional_statistics(values, pool, telemetry["batches"])
    values["serve.server.stats.requests_failed"] = float(telemetry["requests_failed"])
    values["serve.server.stats.requests_rejected"] = float(telemetry["requests_rejected"])
    faults = pool["faults"]
    values["serve.workers.fault_statistics.batches_recovered"] = float(faults["batches_recovered"])
    values["serve.workers.fault_statistics.replica_restarts"] = float(faults["replica_restarts"])
