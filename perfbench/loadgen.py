"""Open-loop load generation over keep-alive HTTP connections.

Independent serving clients make an open loop: requests fall due on a
seeded Poisson schedule however fast the server answers, so a stall
delays later requests instead of thinning the load. Each request is
timed from the moment it was *due*; waiting for a free connection (the
generator holds at most ``connections`` keep-alive sockets) counts
toward its latency. Lateness — how long after its due time the
generator issued a request — is reported separately: a late generator
did not offer the stated rate.

The generator is one asyncio loop in one thread and reads the loop's
clock, so tests run it on a virtual-time loop without sleeping. A run
may cut its schedule into segments (:func:`split`) driven one after the
other over the same connections, with a pause between them.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Due:
    rid: int
    #: Seconds after the start of the run.
    due: float
    template: int


@dataclass
class Record:
    rid: int
    template: int
    due: float
    #: When the generator issued the request (seconds after the start).
    issued: float = 0.0
    #: When a connection started sending it.
    sent: float = 0.0
    done: float = 0.0
    #: HTTP status; 0 when no reply arrived.
    status: int = 0
    payload: "dict | None" = None
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.issued - self.due


def poisson_schedule(rng, *, rate: float, count: int, templates: int) -> "list[Due]":
    """``count`` requests with exponential gaps of mean ``1 / rate``
    (all due at once for an infinite rate), each naming a template. The
    templates are dealt in seeded shuffled rounds, so every template is
    sent equally often, give or take one."""
    order: list = []
    while len(order) < count:
        order.extend(int(template) for template in rng.permutation(templates))
    schedule = []
    due = 0.0
    for rid in range(count):
        if rid and math.isfinite(rate):
            due += float(rng.exponential(1.0 / rate))
        schedule.append(Due(rid, due, order[rid]))
    return schedule


async def drive(schedule, send, *, connections: int, clock=None) -> "list[Record]":
    """Issue every request at its due time; return one record each.

    ``send(connection, record) -> (status, payload)`` performs one
    exchange; an exception is recorded on the request, never raised.
    """
    loop = asyncio.get_running_loop()
    clock = clock or loop.time
    idle: asyncio.Queue = asyncio.Queue()
    for connection in range(connections):
        idle.put_nowait(connection)
    start = clock()

    async def issue(record: Record) -> None:
        connection = await idle.get()
        record.sent = clock() - start
        try:
            record.status, record.payload = await send(connection, record)
        except Exception as exc:  # a failed request is data, not a crash
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            record.done = clock() - start
            idle.put_nowait(connection)

    records, tasks = [], []
    for item in schedule:
        delay = start + item.due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        record = Record(item.rid, item.template, item.due, issued=clock() - start)
        records.append(record)
        tasks.append(asyncio.ensure_future(issue(record)))
    await asyncio.gather(*tasks)
    return records


class HttpPool:
    """``connections`` keep-alive HTTP/1.1 sockets posting ``/predict``.

    ``bodies[template]`` is the pre-encoded JSON body of each request
    template; the request id travels in the query string so server-side
    spans can be joined with client timings.
    """

    def __init__(self, host: str, port: int, bodies, *, connections: int,
                 timeout: float) -> None:
        self.host = host
        self.port = port
        self.bodies = bodies
        self.timeout = timeout
        self._streams: list = [None] * connections

    async def send(self, connection: int, record: Record):
        try:
            return await asyncio.wait_for(
                self._exchange(connection, f"/predict?rid={record.rid}",
                               self.bodies[record.template]),
                self.timeout,
            )
        except BaseException:
            # A timed-out or broken socket is never reused mid-response.
            await self._drop(connection)
            raise

    async def _exchange(self, connection: int, path: str, body: bytes):
        if self._streams[connection] is None:
            self._streams[connection] = await asyncio.open_connection(
                self.host, self.port
            )
        reader, writer = self._streams[connection]
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = json.loads(await reader.readexactly(length)) if length else None
        return status, payload

    async def _drop(self, connection: int) -> None:
        stream = self._streams[connection]
        self._streams[connection] = None
        if stream is not None:
            stream[1].close()
            try:
                await stream[1].wait_closed()
            except OSError:
                pass

    async def close(self) -> None:
        for connection in range(len(self._streams)):
            await self._drop(connection)


def split(schedule, parts: int) -> "list[list[Due]]":
    """``schedule`` cut into ``parts`` consecutive segments of (nearly)
    equal length, each re-timed to start at 0."""
    size = max(1, math.ceil(len(schedule) / parts))
    segments = []
    for start in range(0, len(schedule), size):
        chunk = schedule[start:start + size]
        base = chunk[0].due
        segments.append([Due(item.rid, item.due - base, item.template) for item in chunk])
    return segments


def stretched(schedule, factor: float) -> "list[Due]":
    """``schedule`` with every due time multiplied by ``factor``."""
    return [Due(item.rid, item.due * factor, item.template) for item in schedule]


def run_http(host: str, port: int, segments, bodies, *, connections: int,
             timeout: float, stretch=None, between=None) -> "list[list[Record]]":
    """Drive each schedule of ``segments`` in turn against a live server
    over the same keep-alive connections; blocks until every request has
    a reply, an error or a timeout. Before a segment, ``stretch()`` gives
    the factor its due times are stretched by; after it, ``between()``
    is called, when no request is in flight."""

    async def main():
        pool = HttpPool(host, port, bodies, connections=connections,
                        timeout=timeout)
        try:
            done = []
            for schedule in segments:
                if stretch is not None:
                    schedule = stretched(schedule, stretch())
                done.append(await drive(schedule, pool.send, connections=connections))
                if between is not None:
                    between()
            return done
        finally:
            await pool.close()

    return asyncio.run(main())


# --------------------------------------------------------------------- #
# Latency accounting
# --------------------------------------------------------------------- #


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0.0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int, beyond: int = 10) -> "int | None":
    """The highest whole percentile leaving at least ``beyond`` of ``n``
    samples above it (None when no percentile does)."""
    for q in range(99, 0, -1):
        if n * (100 - q) / 100.0 >= beyond:
            return q
    return None
