"""Statistics, host calibration, failure accounting and result printing shared by the workloads."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: Percentiles tried, highest first, when reporting the tail of a sample.
TAIL_CANDIDATES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

#: Median time of one calibration kernel call on the reference box (2-vCPU
#: x86-64 VM, Python 3.11, numpy 2.4) while its host was quiet.
CALIBRATION_REFERENCE_S = 2.7e-3
#: Kernel calls taken from each side of a stretch that has none inside it.
NEIGHBOUR_SAMPLES = 20
#: Kernel calls per cycle of an offline loop.
CYCLE_SAMPLES = 3
#: Interval of the kernel calls made inside busy stretches (HostSpeed.sampling).
SAMPLE_EVERY_S = 0.1
#: Kernel calls before each set-up repeat (see :func:`timed_setups`).
SETUP_SAMPLES = 2

#: HTTP statuses that mean the server refused the request (backpressure or a
#: shedding breaker) rather than failing while serving it.
REFUSED_STATUSES = (429, 503)


def import_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; exit 2 if it is missing.

    The benchmark measures the program in the checkout it runs from, never a
    copy installed elsewhere, so a directory without ``src/repro`` is an error.
    """
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no program to measure: {package} is missing", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))


def pin_to_one_cpu() -> None:
    """Run this process, every thread and process it starts, on one vCPU.

    The host-speed kernel then times the vCPU the program runs on.  On the
    shared reference box one vCPU often ran 1.5x slower than the other for
    seconds at a time, and a kernel timed on one while the program's threads
    ran on the other made the normalisation add noise instead of removing it.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def samples_beyond(count: int, percentile: float) -> int:
    """Samples strictly above the nearest-rank ``percentile`` of ``count`` samples."""
    tenths = int(round(percentile * 10))
    rank = -(-count * tenths // 1000)  # ceil(count * percentile / 100), exactly
    return count - rank


def tail_percentile(count: int, wanted: float = 99.0) -> Optional[float]:
    """The highest percentile <= ``wanted`` with ``MIN_BEYOND`` samples beyond it."""
    for percentile in TAIL_CANDIDATES:
        if percentile <= wanted and samples_beyond(count, percentile) >= MIN_BEYOND:
            return percentile
    return None


def latency_summary(samples_s: Sequence[float], label: str, notes: List[str]) -> Dict[str, float]:
    """``latency_p50_ms`` and ``latency_p99_ms`` of ``samples_s`` (seconds).

    The tail is the 99th percentile when the sample supports it; otherwise the
    highest percentile that does, and ``notes`` says which one and why.
    """
    values = np.asarray(samples_s, dtype=float)
    tail = tail_percentile(len(values))
    if tail is None:
        raise RuntimeError(f"{label}: {len(values)} latency samples cannot support a tail")
    notes.append(
        f"{label}: n={len(values)}, latency_p99_ms reports p{tail:g} "
        f"({samples_beyond(len(values), tail)} samples beyond it)"
    )
    return {
        "latency_p50_ms": float(np.percentile(values, 50.0)) * 1e3,
        "latency_p99_ms": float(np.percentile(values, tail)) * 1e3,
    }


class HostSpeed:
    """How much slower than the reference box the host runs, over one run.

    On a shared host, neighbours slow whole stretches of a run: on the
    reference box, 5-second medians of one warm batch-1 LeNet call ranged from
    10.6 to 36 ms within two minutes, and the same call's time divided by this
    kernel's time stayed within a few percent.  So each run times this fixed
    kernel, which belongs to the benchmark and never to the program, between
    units of work, and divides its timings by the kernel's slowdown against
    :data:`CALIBRATION_REFERENCE_S` (rates are multiplied).  A change to the
    program cannot move the kernel, so normalised figures compare commits.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._inputs = rng.uniform(0.0, 1.0, (64, 32))
        self._weights = rng.uniform(0.0, 1.0, (32, 32))
        self.points: List[tuple] = []  # (midpoint, seconds) per kernel call
        self.round_factors: List[List[float]] = []

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(150):
            codes = np.round(np.clip(self._inputs @ self._weights * 0.1, 0.0, 1.0) * 63.0)
            total += float(codes.sum()) + sum(index * 0.5 for index in range(20))
        return total

    def sample(self, repeats: int = 1, clock=time.perf_counter) -> None:
        """Time ``repeats`` kernel calls by ``clock``; each lands at its midpoint."""
        for _ in range(repeats):
            start, began = time.perf_counter(), clock()
            self._kernel()
            seconds = clock() - began
            self.points.append(((start + time.perf_counter()) / 2, seconds))

    @contextlib.contextmanager
    def sampling(self, interval_s: float):
        """Time one kernel call every ``interval_s`` on a thread of its own
        while the block runs, so a round's slowdown comes from inside it.

        Host slowdowns on the reference box came and went within half a
        second, too fast for kernel calls in the pauses around a busy round.
        These calls run beside the program's threads, so they are timed by the
        thread's own CPU time: waiting for the GIL or the CPU does not count.
        The kernel takes its share of the CPU from the program, the same share
        on every run.
        """
        stop = threading.Event()

        def loop():
            while not stop.wait(interval_s):
                self.sample(1, clock=time.thread_time)

        thread = threading.Thread(target=loop, name="perfbench-host-speed", daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def factors(self, rounds: Sequence[tuple]) -> List[float]:
        """Slowdown of each ``(start, end, ...)`` round, kept for :meth:`describe`."""
        factors = [self.factor(start, end) for start, end, *_ in rounds]
        self.round_factors.append(factors)
        return factors

    def factor(self, start: float, end: float) -> float:
        """Slowdown over ``[start, end]``, from the kernel calls inside it, or
        else from the nearest calls before and after it."""
        inside = [seconds for moment, seconds in self.points if start <= moment <= end]
        if not inside:
            before = [seconds for moment, seconds in self.points if moment < start]
            after = [seconds for moment, seconds in self.points if moment > end]
            inside = before[-NEIGHBOUR_SAMPLES:] + after[:NEIGHBOUR_SAMPLES]
        return float(np.median(inside)) / CALIBRATION_REFERENCE_S

    def describe(self) -> str:
        seconds = [seconds for _, seconds in self.points]
        text = (f"host slowdown {np.median(seconds) / CALIBRATION_REFERENCE_S:.3f} "
                f"(median of {len(seconds)} kernel calls, "
                f"range {min(seconds) / CALIBRATION_REFERENCE_S:.2f}-"
                f"{max(seconds) / CALIBRATION_REFERENCE_S:.2f})")
        if self.round_factors:
            text += "; per round: " + "; ".join(
                " ".join(f"{factor:.2f}" for factor in factors) for factors in self.round_factors)
        return text


def timed_setups(host: HostSpeed, count: int, build, teardown=None) -> tuple:
    """Set the system under test up ``count`` times; keep the last one.

    ``build()`` sets it up and returns it; ``teardown(built)`` takes down
    every one but the last.  The host kernel runs ``SETUP_SAMPLES`` times
    before each build and after the last, and each build's time is divided by
    the slowdown of the kernel calls around it, so a neighbour that slows part
    of the set-up slows only the builds it overlapped.  Each build but the
    last is freed before the next starts, so peak memory is that of one
    system.  Returns ``(built, setup_s)``: the last build and the median
    normalised build time.
    """
    times = []
    for attempt in range(count):
        host.sample(SETUP_SAMPLES)
        start = time.perf_counter()
        built = build()
        times.append((start, time.perf_counter() - start))
        if attempt < count - 1:
            if teardown is not None:
                teardown(built)
            built = None
            gc.collect()
    host.sample(SETUP_SAMPLES)
    normalized = [seconds / host.factor(start, start + seconds) for start, seconds in times]
    return built, float(np.median(normalized))


def split_rounds(items: Sequence, key, start: float, duration: float,
                 rounds: int) -> List[list]:
    """``items`` grouped into ``rounds`` equal time slices of ``[start, start + duration)``."""
    groups: List[list] = [[] for _ in range(rounds)]
    for item in items:
        index = int((key(item) - start) / duration * rounds)
        groups[min(max(index, 0), rounds - 1)].append(item)
    return groups


def normalized_calls(timed: Sequence[tuple], host: HostSpeed, start: float, duration: float,
                     rounds: int = 8) -> List[float]:
    """``(start, seconds)`` call timings divided by the host slowdown of their slice."""
    normalized: List[float] = []
    bounds = np.linspace(start, start + duration, rounds + 1)
    for index, group in enumerate(split_rounds(timed, lambda call: call[0], start, duration,
                                               rounds)):
        if group:
            factor = host.factor(bounds[index], bounds[index + 1])
            normalized += [seconds / factor for _, seconds in group]
    return normalized


def percentile_ms(samples_s: Iterable[float], percentile: float) -> float:
    values = np.asarray(list(samples_s), dtype=float)
    return float(np.percentile(values, percentile)) * 1e3 if values.size else 0.0


def completion_rate(done_times: Sequence[float]) -> float:
    """Completions per second between the first and the last of ``done_times``."""
    if len(done_times) < 2:
        raise RuntimeError(f"{len(done_times)} completions cannot give a rate")
    return (len(done_times) - 1) / (max(done_times) - min(done_times))


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bitwise_equal(actual, expected) -> bool:
    """True when two float64 arrays have the same shape and the same bytes."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    return (
        actual.dtype == np.float64
        and expected.dtype == np.float64
        and actual.shape == expected.shape
        and actual.tobytes() == expected.tobytes()
    )


class Tally:
    """Requests attempted, and the three ways a request can fail.

    * refused: the server declined it (queue overflow, open breaker, 429/503);
    * raised: it was admitted, or sent, and then raised or got another error;
    * wrong: it answered, but not bitwise equal to the reference output.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.refused = 0
        self.raised = 0
        self.wrong = 0

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def check(self, output, expected) -> bool:
        """Count ``output`` as wrong unless it is bitwise equal to ``expected``."""
        equal = bitwise_equal(output, expected)
        if not equal:
            self.wrong += 1
        return equal

    def mismatch(self) -> None:
        """Count an answer that could not be read as a wrong output."""
        self.wrong += 1

    def error(self, error: BaseException) -> None:
        from repro.errors import CircuitOpenError, QueueOverflowError

        if isinstance(error, (QueueOverflowError, CircuitOpenError)):
            self.refused += 1
        else:
            self.raised += 1

    def status(self, status: int) -> None:
        """Count an HTTP answer other than 200."""
        if status in REFUSED_STATUSES:
            self.refused += 1
        else:
            self.raised += 1

    @property
    def failed(self) -> int:
        return self.refused + self.raised + self.wrong

    def describe(self) -> str:
        ratio = self.failed / self.attempted if self.attempted else 0.0
        return (
            f"attempted {self.attempted}, failed {self.failed} (refused {self.refused}, "
            f"raised {self.raised}, wrong {self.wrong}), failed_ratio {ratio:.6f}"
        )


def reference_pass(engine, images: np.ndarray, cycle: Dict[int, int],
                   min_seconds: float, host: HostSpeed) -> tuple:
    """Reference outputs for ``images`` from direct ``run_batch`` calls, timed.

    Repeats a cycle of ``cycle[size]`` calls per batch size, walking through
    ``images`` (wrapping round when they run out), until every image has an
    output and at least ``min_seconds`` have passed, so each size is timed
    across the whole pass; the host kernel runs ``CYCLE_SAMPLES`` times per
    cycle.  Returns ``(outputs, ms_per_image)``: image ``i``'s output from its
    first call, and ``ms_per_image.b<size>`` as the median normalised call
    time divided by the batch size.
    """
    count = len(images)
    outputs: List[Optional[np.ndarray]] = [None] * count
    timed: Dict[int, List[tuple]] = {size: [] for size in cycle}
    position = 0
    begin = time.perf_counter()
    with host.sampling(SAMPLE_EVERY_S):
        while position < count or time.perf_counter() - begin < min_seconds:
            host.sample(CYCLE_SAMPLES)
            for size, repeats in cycle.items():
                for _ in range(repeats):
                    indices = [(position + offset) % count for offset in range(size)]
                    start = time.perf_counter()
                    result = engine.run_batch(images[indices])
                    timed[size].append((start, time.perf_counter() - start))
                    for index, row in zip(indices, result):
                        if outputs[index] is None:
                            outputs[index] = row
                    position += size
    duration = time.perf_counter() - begin
    ms_per_image = {
        f"ms_per_image.b{size}":
            float(np.median(normalized_calls(calls, host, begin, duration))) * 1e3 / size
        for size, calls in timed.items()
    }
    return outputs, ms_per_image


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit for one mode, as ``BENCHMARK.json`` declares them."""
    spec = json.loads(BENCHMARK_FILE.read_text())
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def emit(
    workload: str,
    seed: int,
    trace: bool,
    tally: Tally,
    values: Dict[str, float],
    notes: Sequence[str] = (),
) -> None:
    """Print a readable report, then the one-line JSON result as the last line."""
    declared = declared_metrics(trace)
    missing = sorted(set(declared) - set(values))
    if missing:
        raise RuntimeError(f"{workload} did not measure: {', '.join(missing)}")
    print(f"workload {workload}, seed {seed}, trace {int(trace)}")
    for note in notes:
        print(f"  note: {note}")
    print(f"  requests: {tally.describe()}")
    for name, unit in declared.items():
        print(f"  {name:<58} {values[name]:>14.6g} {unit}")
    for name in sorted(set(values) - set(declared)):
        print(f"  {name:<58} {values[name]:>14.6g} (reported, not a declared metric)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in declared.items()
        },
    }
    print(json.dumps(result), flush=True)
