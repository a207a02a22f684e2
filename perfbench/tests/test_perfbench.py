"""Tests of the benchmark's own logic: tail rule, self time, failure counting."""

import json
from concurrent.futures import Future

import numpy as np
import pytest

import layers
import measure
import openloop
from spans import SpanRecorder, covered_length, self_times, summarize


# ---------------------------------------------------------------------- percentile rule
@pytest.mark.parametrize(
    "count, tail",
    [(1000, 99.0), (999, 98.0), (500, 98.0), (499, 95.0), (200, 95.0), (100, 90.0),
     (20, 50.0), (19, None)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, tail):
    assert measure.tail_percentile(count) == tail
    if tail is not None:
        assert measure.samples_beyond(count, tail) >= measure.MIN_BEYOND


def test_samples_beyond_is_exact_at_the_boundary():
    assert measure.samples_beyond(1000, 99.0) == 10
    assert measure.samples_beyond(999, 99.0) == 9
    assert measure.samples_beyond(10000, 99.9) == 10


def test_latency_summary_names_the_percentile_it_reports():
    notes = []
    samples = np.arange(1, 501) / 1e3  # 1..500 ms
    values = measure.latency_summary(samples, "probe", notes)
    assert values["latency_p50_ms"] == pytest.approx(250.5)
    assert values["latency_p99_ms"] == pytest.approx(np.percentile(samples, 98.0) * 1e3)
    assert "p98" in notes[0] and "n=500" in notes[0]
    with pytest.raises(RuntimeError):
        measure.latency_summary(samples[:5], "too few", [])


# ---------------------------------------------------------------------- self time
def span(span_id, start, end, parent=0, name="x"):
    return (span_id, name, float(start), float(end), parent, None)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered_length([(5, 6), (1, 2)], 0, 10) == 2
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, 0, 10, name="root"),
        span(2, 1, 4, parent=1, name="child"),
        span(3, 3, 6, parent=1, name="child"),  # overlaps span 2
        span(4, 8, 12, parent=1, name="child"),  # runs past its parent
        span(5, 2, 3, parent=2, name="leaf"),
    ]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0}
    summary = summarize(spans)
    assert summary["child"] == {"calls": 3, "total_ms": 10e3, "self_ms": 9e3}
    assert summary["root"]["self_ms"] == 3e3


def test_recorder_nests_spans_by_thread_and_restores_functions():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    def inner():
        return "inner"

    def outer():
        return wrapped_inner() + "+outer"

    wrapped_inner = recorder.wrap("inner", inner)
    wrapped_outer = recorder.wrap("outer", outer)
    assert wrapped_outer() == "inner+outer"  # disabled: no spans
    assert recorder.spans == []
    recorder.enabled = True
    recorder.set_context(7)
    wrapped_outer()
    (inner_span, outer_span) = recorder.spans
    assert inner_span[1] == "inner" and inner_span[4] == outer_span[0]
    assert outer_span[4] == 0 and outer_span[5] == 7
    assert summarize(recorder.spans)["outer"]["self_ms"] == pytest.approx(2e3)

    recorder.install("measure", "bitwise_equal", "measure.bitwise_equal")
    assert measure.bitwise_equal.__wrapped__ is not None
    recorder.uninstall()
    assert not hasattr(measure.bitwise_equal, "__wrapped__")


def test_after_hook_retimes_or_drops_a_span():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.enabled = True
    # Like next_batch: no span for an empty poll, and a span from when work arrived.
    poll = recorder.wrap("poll", lambda batch: batch,
                         after=lambda args, batch, start, end: end - 0.5 if batch else None)
    assert poll([]) == []
    assert recorder.spans == []
    poll([1])
    [(_, name, start, end, _, _)] = recorder.spans
    assert (name, end - start) == ("poll", 0.5)


# ---------------------------------------------------------------------- failure counting
def test_tally_counts_mismatched_refused_and_raised():
    from repro.errors import CircuitOpenError, QueueOverflowError, ServeError

    tally = measure.Tally()
    tally.attempt(8)
    want = np.array([0.0, 1.5])
    assert tally.check(want.copy(), want)
    assert not tally.check(np.array([-0.0, 1.5]), want)  # equal values, different bits
    assert not tally.check(np.array([0.0, 1.5 + 1e-15]), want)
    assert not tally.check(want[:1], want)
    tally.error(QueueOverflowError("queue full"))
    tally.error(CircuitOpenError("open", retry_after_s=1.0, model="m"))
    tally.error(ServeError("replica died"))
    tally.status(429)
    tally.status(500)
    tally.mismatch()
    assert (tally.wrong, tally.refused, tally.raised) == (4, 3, 2)
    assert tally.failed == 9
    assert "failed_ratio" in tally.describe()


# ---------------------------------------------------------------------- rates and host speed
def test_host_factor_uses_calls_inside_else_the_pauses_around():
    host = measure.HostSpeed()
    reference = measure.CALIBRATION_REFERENCE_S
    host.points = [(0.5, reference), (1.5, 3 * reference), (9.0, 2 * reference)]
    assert host.factor(1.0, 2.0) == pytest.approx(3.0)
    assert host.factor(2.0, 8.0) == pytest.approx(2.0)  # median of 1x, 3x before and 2x after
    timed = [(1.2, 0.3), (1.8, 0.6)]
    assert measure.normalized_calls(timed, host, 1.0, 1.0, rounds=1) == pytest.approx([0.1, 0.2])


# ---------------------------------------------------------------------- open loop
def test_open_loop_times_requests_from_their_due_time():
    now = [100.0]
    done_futures = []

    def clock():
        return now[0]

    def submit(image):
        now[0] += 0.5  # admission takes half a second
        future = Future()
        done_futures.append(future)
        return future

    start, requests = openloop.drive(submit, lambda index: np.full(2, index),
                                     np.array([0.0, 0.1]), clock=clock)
    assert [r.due - start for r in requests] == pytest.approx([0.0, 0.1])
    assert requests[1].sent - requests[1].due == pytest.approx(0.4)  # late by the first submit
    now[0] += 1.0
    for future in done_futures:
        future.set_result(np.zeros(1))
    assert all(r.done == now[0] for r in requests)


def test_conditioned_poisson_fixes_the_count():
    rng = np.random.default_rng(3)
    offsets = openloop.conditioned_poisson(rng, 60.0, 18.0)
    assert len(offsets) == 1080
    assert np.all(np.diff(offsets) >= 0) and 0 <= offsets[0] and offsets[-1] <= 18.0


# ---------------------------------------------------------------------- benchmark file
def test_declared_per_layer_metrics_are_the_ones_the_trace_produces():
    spec = json.loads(measure.BENCHMARK_FILE.read_text())
    declared = [(entry["name"], entry["unit"]) for entry in spec["per_layer"]]
    assert declared == layers.per_layer_names()
