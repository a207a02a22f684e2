"""The keep-alive connection wave shared by the serving benchmarks.

``bench_serving.py`` (the 100/500/2000-connection comparison) and
``export_json.py`` (the CI-sized sweep in ``BENCH_serving.json``) both drive
an HTTP front-end with :func:`drive_keepalive_wave`, so the two measurements
cannot drift apart.
"""

from __future__ import annotations

import asyncio
import json
import time

#: Seconds allowed for every client to dial, then for every client to finish.
CONNECT_TIMEOUT_S = 120.0
SERVE_TIMEOUT_S = 300.0


async def drive_keepalive_wave(url: str, request_bodies, expected_b64, count: int) -> dict:
    """``count`` concurrent keep-alive clients, one infer + one healthz each.

    Every client dials, parks until *all* clients are connected (so the
    measured window really holds ``count`` simultaneous keep-alive
    connections), then sends one ``POST /v1/infer`` followed by one
    ``GET /healthz`` on the same connection.  Client ``i`` sends
    ``request_bodies[i % len]`` and expects ``expected_b64[i % len]`` back as
    ``output_npy_b64`` (string equality of the payload is byte equality of
    the tensor).

    Failures are counted by kind: ``non_200`` (an infer answered with another
    status), ``wrong_bytes`` (a 200 whose output differs) and
    ``healthz_failed`` (a healthz answered with another status).
    ``all_ok_bitwise`` holds when all three are zero.  A client that cannot
    dial raises :class:`OSError`; a wave that overruns its budget raises
    :class:`asyncio.TimeoutError`.
    """
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    dial_gate = asyncio.Semaphore(64)  # spare the listen backlog, keep conns open
    connected = 0
    all_connected = asyncio.Event()
    go = asyncio.Event()
    dial_failure = None
    failures = {"non_200": 0, "wrong_bytes": 0, "healthz_failed": 0}

    async def read_response(reader):
        status = (await reader.readline()).split(b" ")[1]
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.lower() == "content-length":
                length = int(value.strip())
        return status, await reader.readexactly(length)

    async def client(index: int) -> None:
        nonlocal connected, dial_failure
        async with dial_gate:
            for attempt in range(20):  # the accept backlog is finite: retry dials
                try:
                    reader, writer = await asyncio.open_connection(host, int(port))
                    break
                except OSError:
                    await asyncio.sleep(0.05 * (attempt + 1))
            else:
                # Fail the whole wave immediately instead of letting the
                # all-connected barrier time out.
                dial_failure = OSError(f"client {index}: could not connect to {url}")
                all_connected.set()
                raise dial_failure
        connected += 1
        if connected == count:
            all_connected.set()
        await go.wait()
        try:
            body = request_bodies[index % len(request_bodies)]
            writer.write(
                b"POST /v1/infer HTTP/1.1\r\nHost: bench\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
            status, payload = await read_response(reader)
            if status != b"200":
                failures["non_200"] += 1
            elif json.loads(payload).get("output_npy_b64") != expected_b64[
                index % len(expected_b64)
            ]:
                failures["wrong_bytes"] += 1
            # Second request on the same socket: keep-alive actually reused.
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")
            await writer.drain()
            status, _ = await read_response(reader)
            if status != b"200":
                failures["healthz_failed"] += 1
        finally:
            writer.close()

    tasks = [asyncio.create_task(client(i)) for i in range(count)]
    dial_start = time.perf_counter()
    try:
        await asyncio.wait_for(all_connected.wait(), timeout=CONNECT_TIMEOUT_S)
        if dial_failure is not None:
            raise dial_failure
        connect_s = time.perf_counter() - dial_start
        serve_start = time.perf_counter()
        go.set()
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=SERVE_TIMEOUT_S)
    except BaseException:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        raise
    serve_s = time.perf_counter() - serve_start
    return {
        "connections": count,
        "all_ok_bitwise": not any(failures.values()),
        **failures,
        "connect_s": connect_s,
        "serve_s": serve_s,
        "throughput_rps": count / serve_s,
    }
