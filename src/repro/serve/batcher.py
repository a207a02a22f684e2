"""Request admission queue + dynamic micro-batcher with pluggable flush policies.

Single-image requests are admitted into a bounded FIFO; a consumer (the
server's dispatch loop) pulls *micro-batches*.  When a partial batch flushes
is decided by a :class:`FlushPolicy`:

:class:`FixedFlushPolicy`
    The classic static pair of knobs.  ``max_batch`` flushes as soon as that
    many requests are queued (**flush-on-full**); ``max_wait_s`` flushes no
    later than that long after the *oldest* queued request arrived
    (**flush-on-timeout**).  Larger values build bigger batches, which
    amortise dispatch overhead exactly the way the paper's Fig. 7 batch
    analysis amortises PCM programming, at the cost of head-of-line latency.

:class:`AdaptiveFlushPolicy`
    Deadline/SLO-aware batching.  Every request carries an implicit latency
    budget (``slo_s``); the policy flushes when waiting any longer would blow
    the oldest request's budget, and auto-tunes its flush-on-full target to
    the largest batch whose predicted service time still fits inside the
    budget.  The service-time model starts from
    :meth:`~repro.core.accelerator.OpticalCrossbarAccelerator.analytical_schedule`
    cost estimates of the served workload (see :class:`AnalyticalCostModel`)
    and calibrates its wall-clock scale online from observed batch service
    times.

Backpressure: the queue holds at most ``capacity`` requests.  A blocking
submit waits for space (bounding the producer's rate to the server's); a
non-blocking submit raises :class:`~repro.errors.QueueOverflowError` so
open-loop load generators can count shed load instead of stalling.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from repro.concurrency import make_condition, make_lock, thread_shared
from repro.errors import QueueOverflowError, ServeError, SimulationError

#: Flush policy spellings accepted by :func:`make_flush_policy` and the CLI.
POLICY_KINDS = ("fixed", "adaptive")

#: Reasons a micro-batch can flush, as reported to ``on_flush`` observers.
FLUSH_REASONS = ("full", "deadline", "close")


@dataclass
class ServeRequest:
    """One admitted single-image inference request.

    ``trace`` is the request's :class:`repro.obs.RequestTrace` (``None`` when
    tracing is off or the request was not sampled); ``flush_time`` and
    ``flush_reason`` are stamped by :meth:`MicroBatcher.next_batch` when the
    request leaves the queue, bounding its ``queue_wait`` span.
    """

    seq: int
    image: np.ndarray
    enqueue_time: float
    future: "Future[np.ndarray]" = field(default_factory=Future)
    trace: Optional[object] = None
    flush_time: Optional[float] = None
    flush_reason: Optional[str] = None


# ---------------------------------------------------------------------------
# flush policies
# ---------------------------------------------------------------------------


class FlushPolicy:
    """Decides when the micro-batcher flushes a partial batch.

    A policy answers two questions the consumer loop asks while a batch is
    forming — *how big should this batch get* (:meth:`target_batch`) and *how
    long may the oldest request keep waiting* (:meth:`flush_deadline`) — and
    optionally learns from completed batches via :meth:`observe_batch`.
    Implementations must be thread-safe: the consumer polls while dispatch
    callbacks feed observations.
    """

    kind = "abstract"

    def target_batch(self) -> int:
        """Current flush-on-full threshold (>= 1)."""
        raise NotImplementedError

    def flush_deadline(self, oldest_enqueue_s: float) -> float:
        """Latest clock time a partial batch may keep waiting.

        ``oldest_enqueue_s`` is the admission timestamp of the oldest queued
        request, on the batcher's clock; the return value is on the same
        clock.
        """
        raise NotImplementedError

    def observe_batch(self, size: int, service_time_s: float) -> None:
        """Feedback hook: one ``size``-request batch took ``service_time_s``."""

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly description of the policy's current state."""
        return {"policy": self.kind, "max_batch": self.target_batch()}


class FixedFlushPolicy(FlushPolicy):
    """The static ``max_batch`` / ``max_wait_s`` policy (the PR-3 behaviour)."""

    kind = "fixed"

    def __init__(self, max_batch: int = 8, max_wait_s: float = 0.002) -> None:
        if max_batch < 1:
            raise SimulationError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise SimulationError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)

    def target_batch(self) -> int:
        return self.max_batch

    def flush_deadline(self, oldest_enqueue_s: float) -> float:
        return oldest_enqueue_s + self.max_wait_s

    def snapshot(self) -> Dict[str, object]:
        return {
            "policy": self.kind,
            "max_batch": self.max_batch,
            "max_wait_s": self.max_wait_s,
        }


class AnalyticalCostModel:
    """Affine batch-cost model ``units(B) = fixed + per_image * B``.

    The *units* are analytical seconds from the accelerator's dual-core tile
    schedule — a modelled quantity many orders of magnitude below wall-clock
    simulation time.  What the model contributes is the **shape** of the
    batch-size dependence (how much of a batch's cost is B-independent
    programming/dispatch work versus per-image streaming); the
    :class:`AdaptiveFlushPolicy` fits a single wall-clock scale factor on top
    of it from observed service times.
    """

    def __init__(self, fixed_units: float, per_image_units: float) -> None:
        if per_image_units <= 0:
            raise SimulationError(
                f"per_image_units must be > 0, got {per_image_units}"
            )
        if fixed_units < 0:
            raise SimulationError(f"fixed_units must be >= 0, got {fixed_units}")
        self.fixed_units = float(fixed_units)
        self.per_image_units = float(per_image_units)

    def units(self, batch: int) -> float:
        """Modelled cost of one ``batch``-image micro-batch, in model units."""
        return self.fixed_units + self.per_image_units * max(int(batch), 1)

    @classmethod
    def from_workload(cls, network, weights, config=None) -> "AnalyticalCostModel":
        """Fit the model to a workload via ``analytical_schedule`` queries.

        Sums the analytical makespan of every crossbar layer's tile plan at
        batch sizes 1 and 2 (convolutions stream one im2col patch row per
        output position, dense layers one vector per image) and decomposes
        the two points into the B-independent and per-image components.
        Both points are read from one tile plan per layer.
        """
        from repro.core.accelerator import OpticalCrossbarAccelerator
        from repro.nn.im2col import conv_weights_matrix
        from repro.nn.layers import ConvLayer

        accelerator = OpticalCrossbarAccelerator(config)
        makespan_key = (
            "dual_core_makespan_s"
            if accelerator.config.num_cores >= 2
            else "single_core_makespan_s"
        )
        m1 = m2 = 0.0
        for info in network.crossbar_layers:
            layer = info.layer
            if isinstance(layer, ConvLayer):
                matrix = conv_weights_matrix(np.asarray(weights[layer.name], dtype=float))
                vectors = info.output_shape.height * info.output_shape.width
            else:
                matrix = np.asarray(weights[layer.name], dtype=float)
                vectors = 1
            one, two = accelerator.analytical_schedules(matrix, (vectors, 2 * vectors))
            m1 += one[makespan_key]
            m2 += two[makespan_key]
        per_image = max(m2 - m1, 1e-15)
        fixed = max(m1 - per_image, 0.0)
        return cls(fixed_units=fixed, per_image_units=per_image)


class AdaptiveFlushPolicy(FlushPolicy):
    """Deadline/SLO-aware flush policy with auto-tuned batch sizes.

    Parameters
    ----------
    slo_s:
        Per-request latency budget (enqueue → response delivery).
    cost_model:
        Optional :class:`AnalyticalCostModel` providing the batch-size shape
        of the service time; without one the model degenerates to a purely
        per-image cost (no B-independent component).
    max_batch_cap:
        Hard upper bound on the auto-tuned flush-on-full target.
    safety:
        Fraction of ``slo_s`` the policy actually budgets (the rest is
        headroom for queueing jitter and delivery overhead).
    ewma_alpha:
        Weight of the newest observation in the wall-clock scale calibration.

    Behaviour
    ---------
    * **Flush deadline**: a partial batch flushes when the oldest request has
      consumed its budget minus the predicted service time of the batch that
      would dispatch — i.e. just in time for its response to land inside the
      SLO.
    * **Auto-tuned ``max_batch``**: the flush-on-full target is the largest
      batch whose predicted service time fits in the budget, so under load
      the policy builds the biggest SLO-compatible batches (max PCM-program
      amortisation) instead of a fixed guess.
    * **Calibration**: until the first batch completes there is no wall-clock
      scale, so the policy optimistically budgets the full ``safety * slo_s``
      wait and caps batches at ``max_batch_cap``; every completed batch then
      EWMA-updates the scale.
    """

    kind = "adaptive"

    def __init__(
        self,
        slo_s: float = 0.05,
        cost_model: Optional[AnalyticalCostModel] = None,
        max_batch_cap: int = 64,
        safety: float = 0.8,
        ewma_alpha: float = 0.3,
    ) -> None:
        if slo_s <= 0:
            raise SimulationError(f"slo_s must be > 0, got {slo_s}")
        if max_batch_cap < 1:
            raise SimulationError(f"max_batch_cap must be >= 1, got {max_batch_cap}")
        if not 0 < safety <= 1:
            raise SimulationError(f"safety must be in (0, 1], got {safety}")
        if not 0 < ewma_alpha <= 1:
            raise SimulationError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.slo_s = float(slo_s)
        self.cost_model = cost_model
        self.max_batch_cap = int(max_batch_cap)
        self.safety = float(safety)
        self.ewma_alpha = float(ewma_alpha)
        self._lock = make_lock("AdaptiveFlushPolicy._lock")
        self._scale: Optional[float] = None  # wall-clock seconds per model unit
        self._observed_batches = 0

    # ------------------------------------------------------------------ model
    def _units(self, batch: int) -> float:
        if self.cost_model is not None:
            return self.cost_model.units(batch)
        return float(max(int(batch), 1))

    def estimate_service_s(self, batch: int) -> Optional[float]:
        """Predicted wall-clock service time of a ``batch``-image dispatch.

        ``None`` until the first completed batch calibrates the scale.
        """
        with self._lock:
            scale = self._scale
        if scale is None:
            return None
        return scale * self._units(batch)

    @property
    def budget_s(self) -> float:
        """The portion of the SLO the policy plans against."""
        return self.safety * self.slo_s

    # ------------------------------------------------------------------ policy
    def target_batch(self) -> int:
        with self._lock:
            scale = self._scale
        if scale is None or scale <= 0:
            return self.max_batch_cap
        # largest B with scale * (fixed + per_image * B) <= budget
        per_image = self._units(2) - self._units(1)
        fixed = self._units(1) - per_image
        best = int((self.budget_s / scale - fixed) / per_image)
        return max(1, min(best, self.max_batch_cap))

    def flush_deadline(self, oldest_enqueue_s: float) -> float:
        estimate = self.estimate_service_s(self.target_batch())
        wait_budget = self.budget_s - (estimate or 0.0)
        return oldest_enqueue_s + max(wait_budget, 0.0)

    def observe_batch(self, size: int, service_time_s: float) -> None:
        if size < 1 or service_time_s <= 0:
            return
        observed_scale = float(service_time_s) / self._units(size)
        with self._lock:
            if self._scale is None:
                self._scale = observed_scale
            else:
                self._scale = (
                    self.ewma_alpha * observed_scale
                    + (1.0 - self.ewma_alpha) * self._scale
                )
            self._observed_batches += 1

    def snapshot(self) -> Dict[str, object]:
        target = self.target_batch()
        return {
            "policy": self.kind,
            "slo_s": self.slo_s,
            "safety": self.safety,
            "max_batch": target,
            "max_batch_cap": self.max_batch_cap,
            "calibrated": self._scale is not None,
            "observed_batches": self._observed_batches,
            "estimated_service_s": self.estimate_service_s(target),
        }


def make_flush_policy(
    spec: "str | FlushPolicy",
    *,
    max_batch: int = 8,
    max_wait_s: float = 0.002,
    slo_s: float = 0.05,
    cost_model: Optional[AnalyticalCostModel] = None,
) -> FlushPolicy:
    """Build a flush policy from a CLI-style spelling.

    ``"fixed"`` maps ``max_batch``/``max_wait_s`` onto a
    :class:`FixedFlushPolicy`; ``"adaptive"`` maps ``slo_s``/``cost_model``
    onto an :class:`AdaptiveFlushPolicy` whose auto-tuned batch is capped at
    ``max_batch``.  An already-built :class:`FlushPolicy` passes through.
    """
    if isinstance(spec, FlushPolicy):
        return spec
    if spec == "fixed":
        return FixedFlushPolicy(max_batch=max_batch, max_wait_s=max_wait_s)
    if spec == "adaptive":
        return AdaptiveFlushPolicy(
            slo_s=slo_s, cost_model=cost_model, max_batch_cap=max_batch
        )
    raise SimulationError(
        f"unknown flush policy {spec!r}: expected one of {POLICY_KINDS} "
        "or a FlushPolicy instance"
    )


# ---------------------------------------------------------------------------
# micro-batcher
# ---------------------------------------------------------------------------


@thread_shared
class MicroBatcher:
    """Bounded request queue whose flushes are governed by a :class:`FlushPolicy`.

    Parameters
    ----------
    max_batch, max_wait_s:
        Legacy spelling of the default :class:`FixedFlushPolicy`; ignored
        when ``policy`` is given explicitly.
    capacity:
        Admission-queue bound (>= 1); see the module docstring for the
        backpressure semantics.
    policy:
        The flush policy.  Adaptive policies whose target exceeds
        ``capacity`` are clamped to it.
    on_flush:
        Optional ``callback(reason, size)`` invoked (outside the queue lock)
        for every flushed batch, with ``reason`` one of
        :data:`FLUSH_REASONS`.
    """

    def __init__(
        self,
        max_batch: int = 8,
        max_wait_s: float = 0.002,
        capacity: int = 128,
        clock=time.monotonic,
        policy: Optional[FlushPolicy] = None,
        on_flush: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        if policy is None:
            policy = FixedFlushPolicy(max_batch=max_batch, max_wait_s=max_wait_s)
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        if isinstance(policy, FixedFlushPolicy) and capacity < policy.max_batch:
            raise SimulationError(
                f"capacity ({capacity}) must be >= max_batch ({policy.max_batch}); "
                "a full batch could otherwise never assemble"
            )
        self.policy = policy
        self.capacity = int(capacity)
        self._clock = clock
        self._on_flush = on_flush
        self._queue: Deque[ServeRequest] = deque()
        self._cond = make_condition("MicroBatcher._cond")
        self._closed = False
        self._seq = 0
        # EWMA of batch service time, fed by observe_batch(); powers the
        # Retry-After hint the HTTP front-ends attach to 429 responses.
        self._ewma_batch_s: Optional[float] = None

    # ------------------------------------------------------------------ producer
    @property
    def max_batch(self) -> int:
        """The policy's current flush-on-full target (capacity-clamped)."""
        return self._target()

    @property
    def max_wait_s(self) -> Optional[float]:
        """The fixed policy's wait knob; ``None`` for adaptive policies."""
        return getattr(self.policy, "max_wait_s", None)

    @property
    def depth(self) -> int:
        """Current number of queued (not yet batched) requests."""
        with self._cond:
            return len(self._queue)

    def submit(
        self,
        image: np.ndarray,
        block: bool = True,
        timeout: Optional[float] = None,
        trace: Optional[object] = None,
    ) -> ServeRequest:
        """Admit one request; returns it with its response future attached.

        With ``block=False`` (or when ``timeout`` expires) a full queue raises
        :class:`QueueOverflowError` instead of waiting for space.  ``trace``
        (a :class:`repro.obs.RequestTrace`) is attached to the request under
        the queue lock — before the dispatch loop can pop it — and its
        ``admit`` span (trace start → admission) is recorded here.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while len(self._queue) >= self.capacity and not self._closed:
                if not block:
                    raise QueueOverflowError(
                        f"admission queue is full ({self.capacity} requests)"
                    )
                remaining = None if deadline is None else deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    raise QueueOverflowError(
                        f"admission queue still full ({self.capacity} requests) "
                        f"after {timeout:.3f} s"
                    )
                self._cond.wait(remaining)
            if self._closed:
                raise ServeError("micro-batcher is closed to new requests")
            request = ServeRequest(
                seq=self._seq,
                image=np.asarray(image, dtype=float),
                enqueue_time=self._clock(),
                trace=trace,
            )
            if trace is not None:
                trace.add_span("admit", trace.start_s, request.enqueue_time)
            self._seq += 1
            self._queue.append(request)
            self._cond.notify_all()
            return request

    # ------------------------------------------------------------------ consumer
    def _target(self) -> int:
        """The policy's flush-on-full target, clamped into [1, capacity]."""
        return max(1, min(int(self.policy.target_batch()), self.capacity))

    def next_batch(self, poll_timeout_s: Optional[float] = None) -> Optional[List[ServeRequest]]:
        """Pull the next micro-batch, honouring the flush policy.

        Blocks until at least one request is queued, then keeps collecting
        until the policy's target batch is available (flush-on-full) or the
        policy's flush deadline for the oldest request passes.  Returns
        ``None`` when ``poll_timeout_s`` elapses with an empty queue, or when
        the batcher is closed and drained — the consumer's signal to exit.
        """
        with self._cond:
            wait_deadline = (
                None if poll_timeout_s is None else self._clock() + poll_timeout_s
            )
            while not self._queue:
                if self._closed:
                    return None
                remaining = (
                    None if wait_deadline is None else wait_deadline - self._clock()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)

            # Re-evaluate the policy every wake-up: adaptive targets and
            # deadlines move as observations arrive while the batch forms.
            while True:
                target = self._target()
                if self._closed or len(self._queue) >= target:
                    break
                remaining = (
                    self.policy.flush_deadline(self._queue[0].enqueue_time)
                    - self._clock()
                )
                if remaining <= 0:
                    break
                self._cond.wait(remaining)

            target = self._target()
            size = min(target, len(self._queue))
            if size >= target:
                reason = "full"
            elif self._closed:
                reason = "close"
            else:
                reason = "deadline"
            batch = [self._queue.popleft() for _ in range(size)]
            flush_time = self._clock()
            for request in batch:
                request.flush_time = flush_time
                request.flush_reason = reason
            # space freed: wake producers blocked on backpressure
            self._cond.notify_all()
        if self._on_flush is not None:
            self._on_flush(reason, len(batch))
        return batch

    def observe_batch(self, size: int, service_time_s: float) -> None:
        """Forward a completed batch's service time to the flush policy."""
        with self._cond:
            if self._ewma_batch_s is None:
                self._ewma_batch_s = float(service_time_s)
            else:
                self._ewma_batch_s += 0.3 * (float(service_time_s) - self._ewma_batch_s)
        self.policy.observe_batch(size, service_time_s)

    def retry_after_hint_s(self) -> float:
        """Estimated seconds until a queue slot frees (backpressure hint).

        Used by the HTTP front-ends for the ``Retry-After`` header on 429
        responses: the number of flush targets queued ahead times the EWMA
        batch service time, clamped to [0.05 s, 30 s].  Before any batch has
        completed there is no service-time signal, so the hint defaults to
        one second (the smallest value the wire can express anyway — HTTP
        Retry-After is whole seconds, rounded up).
        """
        with self._cond:
            depth = len(self._queue)
            ewma = self._ewma_batch_s
            target = max(1, min(int(self.policy.target_batch()), self.capacity))
        if ewma is None:
            return 1.0
        batches_ahead = max(1, -(-depth // target))
        return min(30.0, max(0.05, batches_ahead * ewma))

    # ------------------------------------------------------------------ lifecycle
    def close(self, drain: bool = True) -> None:
        """Refuse new submissions.

        With ``drain=True`` (the default, and the graceful-shutdown path)
        queued requests remain drainable: the dispatch loop keeps pulling
        batches until the queue is empty.  With ``drain=False`` the queue is
        abandoned instead — every pending request's future fails with a
        :class:`~repro.errors.ServeError` so no caller blocks forever on a
        response that will never be computed.
        """
        abandoned: List[ServeRequest] = []
        with self._cond:
            self._closed = True
            if not drain:
                abandoned = list(self._queue)
                self._queue.clear()
            self._cond.notify_all()
        if abandoned:
            error = ServeError(
                "server shut down before this request was dispatched"
            )
            for request in abandoned:
                if not request.future.done():
                    request.future.set_exception(error)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed
