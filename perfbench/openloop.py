"""An open-loop load generator that times each request from when it was due.

``repro.serve.loadgen.LoadGenerator.run_open_loop`` measures latency from the
moment ``submit()`` returned, so a generator that falls behind its schedule
hides the wait it imposed.  Here every request carries its due time, the time
it was actually sent (``sent - due`` is the generator's lateness) and the time
its future completed, taken in the future's done callback.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

import numpy as np


def conditioned_poisson(rng: np.random.Generator, rate_rps: float, duration_s: float) -> np.ndarray:
    """Arrival offsets of a Poisson process with exactly ``rate * duration`` arrivals.

    Given its count, a Poisson process on ``[0, duration]`` places arrivals as
    sorted uniform draws; fixing the count keeps the offered load, and so the
    sample size, identical across seeds.
    """
    count = max(1, int(round(rate_rps * duration_s)))
    return np.sort(rng.uniform(0.0, duration_s, count))


class Request:
    """One open-loop request: its input, due/sent/done times and outcome."""

    __slots__ = ("image", "due", "sent", "done", "future", "error")

    def __init__(self, image: np.ndarray, due: float) -> None:
        self.image = image
        self.due = due
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.future = None
        self.error: Optional[BaseException] = None


def wait_all(requests: List[Request], timeout_s: float) -> None:
    """Wait, up to ``timeout_s`` in all, for every request; record raised errors."""
    deadline = time.monotonic() + timeout_s
    for request in requests:
        if request.future is None:
            continue
        try:
            request.future.result(timeout=max(0.0, deadline - time.monotonic()))
        except Exception as error:  # counted by the caller, never fatal to the run
            request.error = error
        # A future wakes its waiters before it runs its done callbacks.
        while request.done is None and time.monotonic() < deadline:
            time.sleep(0.0005)


def drive(
    submit: Callable,
    make_image: Callable[[int], np.ndarray],
    offsets_s: np.ndarray,
    stop_after_s: Optional[float] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple:
    """Send ``make_image(i)`` at ``start + offsets_s[i]`` through ``submit``.

    ``submit(image)`` returns a future.  Sending stops early once
    ``stop_after_s`` has passed, which bounds a phase whose admission blocks.
    Returns ``(start, requests)``; call :func:`wait_all` before reading
    outcomes.
    """
    requests: List[Request] = []
    start = clock()
    for index, offset in enumerate(offsets_s):
        image = make_image(index)
        due = start + float(offset)
        now = clock()
        if stop_after_s is not None and now - start >= stop_after_s:
            break
        if due > now:
            time.sleep(due - now)
        request = Request(image, due)
        request.sent = clock()
        try:
            future = submit(image)
        except Exception as error:  # refused at admission; counted by the caller
            request.error = error
            request.done = clock()
        else:
            request.future = future
            future.add_done_callback(lambda _f, request=request: _mark_done(request, clock))
        requests.append(request)
    return start, requests


def _mark_done(request: Request, clock: Callable[[], float]) -> None:
    request.done = clock()
