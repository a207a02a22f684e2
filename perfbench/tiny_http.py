"""``tiny-http``: a tiny MLP behind the async HTTP front-end, in its own process.

Compute is about a millisecond of each request, so the HTTP codec, admission,
the batching wait and reorder/deliver do most of the work.  The server
process (``http_server.py``) runs the CLI-default serving settings on the
32x32 dual-core test chip.

* Phase 1 is an open loop over two keep-alive connections, each sending
  Poisson arrivals at half of ``RATE_RPS``: one sends JSON, the other
  ``npy_b64``, and every ``SCRAPE_EVERY``-th request on the JSON connection
  is a ``GET /metrics``.  The two encodings
  and the scrape use the HTTP and metrics layers differently, so a change
  that helps one path and costs another shows.  A request is timed from the
  moment it was due.  (A closed loop of two connections locked into phase
  with the batcher's max_wait deadline and settled into different batching
  patterns from run to run.)
* Phase 2 is a closed loop of ``OVERLOAD_CONNECTIONS`` connections, so
  requests always wait for the server and completions per second show its
  saturation rate.

The server process and this one share one vCPU, so the client's work and
the server's slow down together.  While it serves, the server times the host
kernel every ``measure.SAMPLE_EVERY_S`` (``HostSpeed.sampling``), and each
round is normalised by the calls made inside it.  Every output is compared bitwise with a direct
``run_batch`` of the same input on a reference engine in this process, built
after the timed window.
"""

from __future__ import annotations

import http.client
import json
import queue
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path
from typing import List, Optional

import numpy as np

import openloop
from http_server import tiny_model
from layers import add_traced_e2e
from measure import (
    ROOT,
    HostSpeed,
    Tally,
    completion_rate,
    latency_summary,
    percentile_ms,
    pin_to_one_cpu,
    reference_pass,
)

#: Light enough that each connection stays mostly idle when the host runs
#: 2-3x slower than usual: a connection that falls behind its schedule makes
#: every later request on it late, which would measure the neighbours.
RATE_RPS = 40.0
PHASE1_SHARE = 0.5
#: Each phase runs in rounds, each normalised by the kernel calls inside it.
PHASE1_ROUNDS = 8
PHASE2_ROUNDS = 8
OVERLOAD_CONNECTIONS = 8
SCRAPE_EVERY = 50
#: Phase-2 completions are counted after this ramp.
RAMP_S = 0.2
WARM_REQUESTS = 20
READY_TIMEOUT_S = 60.0
SOCKET_TIMEOUT_S = 30.0
#: Reference-pass calls per cycle, by batch size, and the pass's shortest length.
REFERENCE_CYCLE = {1: 4, 8: 1, 64: 1}
REFERENCE_MIN_S = 4.0
ENCODINGS = ("json", "npy_b64")


class ServerProcess:
    """``http_server.py`` in a child process, from launch to its final report."""

    def __init__(self, seed: int, trace: bool) -> None:
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("http_server.py")),
             "--seed", str(seed), "--trace", str(int(trace))],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, name="perfbench-server-stdout",
                                        daemon=True)
        self._reader.start()
        try:
            ready = self._next_line(READY_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.launch_s = time.perf_counter() - start
        self.setup_s = float(ready["setup_s"])
        parts = urllib.parse.urlsplit(ready["url"])
        self.host, self.port = parts.hostname, parts.port

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next_line(self, timeout_s: float) -> dict:
        line = self._lines.get(timeout=timeout_s)
        if line is None:
            raise RuntimeError(f"server process exited with code {self.process.wait()}")
        return json.loads(line)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=SOCKET_TIMEOUT_S)

    def shutdown(self) -> dict:
        """Ask the server to stop; returns its final report."""
        try:
            connection = self.connect()
            connection.request("POST", "/v1/shutdown", b"{}", {"Content-Type": "application/json"})
            connection.getresponse().read()
            connection.close()
            report = self._next_line(READY_TIMEOUT_S)
            self.process.wait(READY_TIMEOUT_S)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._reader.join(READY_TIMEOUT_S)
        self.process.stdout.close()


class Exchange:
    """One HTTP request a client connection made, with its raw answer."""

    __slots__ = ("image", "encoding", "due", "sent", "done", "status", "body", "error")

    def __init__(self, image, encoding: str, due: Optional[float] = None) -> None:
        self.image = image
        self.encoding = encoding
        self.due = due
        self.sent = self.done = 0.0
        self.status: Optional[int] = None
        self.body = b""
        self.error: Optional[BaseException] = None


class Client:
    """One keep-alive connection: requests go one at a time, each after the
    answer to the one before."""

    def __init__(self, server: ServerProcess, encoding: str, rng, shape, scrape_every: int = 0):
        self.server = server
        self.encoding = encoding
        self.rng = rng
        self.shape = shape
        self.scrape_every = scrape_every
        self.exchanges: List[Exchange] = []
        self.scrapes: List[Exchange] = []
        self.connections_opened = 0
        self._connection: Optional[http.client.HTTPConnection] = None

    def _send(self, method: str, path: str, body: Optional[bytes], exchange: Exchange) -> None:
        if self._connection is None:
            self._connection = self.server.connect()
            self.connections_opened += 1
        exchange.sent = time.perf_counter()
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            self._connection.request(method, path, body, headers)
            response = self._connection.getresponse()
            exchange.body = response.read()
            exchange.status = response.status
        except (OSError, http.client.HTTPException) as error:
            exchange.error = error
            self._connection.close()
            self._connection = None
        exchange.done = time.perf_counter()

    def infer(self, due: Optional[float] = None) -> None:
        from repro.serve import encode_array_b64

        image = self.rng.uniform(0.0, 1.0, self.shape)
        if self.encoding == "npy_b64":
            payload = {"image_npy_b64": encode_array_b64(image)}
        else:
            payload = {"image": image.tolist()}
        body = json.dumps(payload).encode()
        if due is not None and due > time.perf_counter():
            time.sleep(due - time.perf_counter())
        exchange = Exchange(image, self.encoding, due)
        self._send("POST", "/v1/infer", body, exchange)
        self.exchanges.append(exchange)
        if self.scrape_every and len(self.exchanges) % self.scrape_every == 0:
            scrape = Exchange(None, "metrics")
            self._send("GET", "/metrics", None, scrape)
            self.scrapes.append(scrape)

    def run_until(self, deadline: float) -> None:
        """Closed loop: send until ``deadline``."""
        while time.perf_counter() < deadline:
            self.infer()

    def run_schedule(self, start: float, offsets) -> None:
        """Open loop: send at ``start + offset`` for each offset, or late."""
        for offset in offsets:
            self.infer(start + float(offset))

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()


def in_threads(clients: List[Client], work) -> tuple:
    """Run ``work(client, start)`` for every client on its own thread; returns
    ``(start, end)``."""
    start = time.perf_counter()
    threads = [threading.Thread(target=work, args=(client, start),
                                name=f"perfbench-client-{index}")
               for index, client in enumerate(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, time.perf_counter()


def decode_output(exchange: Exchange):
    """``(output, server latency in s)`` of a 200 answer."""
    from repro.serve import decode_array_b64

    payload = json.loads(exchange.body)
    if exchange.encoding == "npy_b64":
        output = decode_array_b64(payload["output_npy_b64"])
    else:
        output = np.asarray(payload["output"], dtype=float)
    return output, float(payload["latency_ms"]) / 1e3


def run(seed: int, seconds: float, trace: bool):
    from repro.core.inference import FunctionalInferenceEngine
    from repro.errors import BadRequestError

    network, weights, config = tiny_model(seed)
    shape = network.input_shape.as_tuple()
    host = HostSpeed()
    notes = []

    pin_to_one_cpu()  # the server process inherits the same vCPU
    server = ServerProcess(seed, trace)
    rngs = np.random.default_rng(seed).spawn(4 + OVERLOAD_CONNECTIONS)
    schedule_rng = rngs[-1]
    try:
        warm = Client(server, "json", rngs[0], shape)
        for _ in range(WARM_REQUESTS):
            warm.infer()
        phase1 = [Client(server, "json", rngs[1], shape, SCRAPE_EVERY),
                  Client(server, "npy_b64", rngs[2], shape)]
        phase1_s = seconds * PHASE1_SHARE / PHASE1_ROUNDS

        def open_round():
            schedules = {id(client): openloop.conditioned_poisson(
                schedule_rng, RATE_RPS / len(phase1), phase1_s) for client in phase1}
            return in_threads(phase1, lambda client, start: client.run_schedule(
                start, schedules[id(client)]))

        rounds1 = [open_round() for _ in range(PHASE1_ROUNDS)]
        phase2 = [Client(server, ENCODINGS[index % 2], rngs[3 + index], shape)
                  for index in range(OVERLOAD_CONNECTIONS)]
        phase2_s = seconds * (1 - PHASE1_SHARE) / PHASE2_ROUNDS
        rounds2 = [in_threads(phase2, lambda client, start: client.run_until(start + phase2_s))
                   for _ in range(PHASE2_ROUNDS)]
        clients = [warm] + phase1 + phase2
        for client in clients:
            client.close()
        report = server.shutdown()
    finally:
        server.kill()

    # Verification, outside the timed window.
    exchanges = [exchange for client in clients for exchange in client.exchanges]
    scrapes = [scrape for client in phase1 for scrape in client.scrapes]
    reference = FunctionalInferenceEngine(network, weights, config)
    images = np.stack([exchange.image for exchange in exchanges])
    expected, ms_per_image = reference_pass(reference, images, REFERENCE_CYCLE,
                                            REFERENCE_MIN_S, host)
    tally = Tally()
    tally.attempt(len(exchanges) + len(scrapes))
    handler_s = {}  # id(exchange) -> the server's own latency_ms, in seconds
    for exchange, want in zip(exchanges, expected):
        if exchange.error is not None:
            tally.error(exchange.error)
        elif exchange.status != 200:
            tally.status(exchange.status)
        else:
            try:
                output, handler_s[id(exchange)] = decode_output(exchange)
            except (ValueError, KeyError, TypeError, BadRequestError):
                tally.mismatch()  # an answer that does not parse is a wrong answer
                continue
            if not tally.check(output, want):
                del handler_s[id(exchange)]
    for scrape in scrapes:
        if scrape.error is not None:
            tally.error(scrape.error)
        elif scrape.status != 200:
            tally.status(scrape.status)
        elif b"repro_serve_requests_total" not in scrape.body:
            tally.mismatch()

    def served(clients, begins, low, high):
        """Correct answers with ``low <= begins(exchange) < high``."""
        return [e for client in clients for e in client.exchanges
                if id(e) in handler_s and low <= begins(e) < high]

    # Each round's slowdown comes from the kernel calls the server process
    # made on its vCPU during the round.
    host.points += [tuple(point) for point in report["host_points"]]
    factors1 = host.factors(rounds1)
    factors2 = host.factors(rounds2)
    latencies, rates, residual, lateness = [], [], [], []
    for slowdown, (start, _) in zip(factors1, rounds1):
        # By due time: a request due in the round but sent after it, behind
        # slow answers on its connection, still belongs to the round.
        answered = served(phase1, lambda e: e.due, start, start + phase1_s)
        latencies += [(e.done - e.due) / slowdown for e in answered]
        residual += [e.done - e.sent - handler_s[id(e)] for e in answered]
        lateness += [e.sent - e.due for e in answered]
        rates.append(completion_rate([e.done for e in answered]))
    values = latency_summary(latencies, "phase 1", notes)
    values["throughput_rps"] = float(np.median(rates))
    values["saturation_rps"] = float(np.median([
        completion_rate([e.done for e in served(phase2, lambda e: e.sent, start + RAMP_S,
                                                start + phase2_s)]) * slowdown
        for slowdown, (start, _) in zip(factors2, rounds2)
    ]))
    values["setup_s"] = server.setup_s
    values["peak_rss_mb"] = float(report["peak_rss_mb"])
    values.update(ms_per_image)
    notes.append(f"phase 1: {len(scrapes)} /metrics scrapes; phase 2: "
                 f"{sum(len(client.exchanges) for client in phase2)} requests over "
                 f"{OVERLOAD_CONNECTIONS} connections")
    notes.append(f"server process launch to ready: {server.launch_s:.3f} s, not normalised")
    notes.append(host.describe())
    if not trace:
        return tally, values, notes

    per_layer = report["per_layer"]
    add_traced_e2e(per_layer, values)
    per_layer["serve.http.transport_residual.p50_ms"] = percentile_ms(residual, 50)
    per_layer["serve.http.transport_residual.p99_ms"] = percentile_ms(residual, 99)
    per_layer["serve.http.client.connections_opened"] = float(
        sum(client.connections_opened for client in clients)
    )
    per_layer["loadgen.open_loop.lateness_p50_ms"] = percentile_ms(lateness, 50)
    per_layer["loadgen.open_loop.lateness_p99_ms"] = percentile_ms(lateness, 99)
    return tally, per_layer, notes
