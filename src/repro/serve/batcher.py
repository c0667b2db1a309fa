"""Continuous batching of predict requests — the serving-throughput core.

The engine's cross-block math is far cheaper per graph when the
``(ΔN, N)`` rectangle is big (``benchmarks/bench_serve.py``: graphs/sec
rises steeply with batch size — one batched eigendecomposition sweep and
one conditioning/voting pass amortise over every row). A request-per-call
server throws that away: each caller pays the one-graph price.

:class:`MicroBatcher` recovers the batch shape from *concurrent* traffic
without making any request wait for company (continuous batching, as in
Orca, Yu et al., OSDI 2022):

* a request's graphs enqueue and the caller blocks on a per-request
  future;
* an idle dispatcher thread wakes on the enqueue and at once drains the
  queue, FIFO and up to ``max_batch_graphs``, into **one** ``predict``
  over the concatenated graph list — one cross-block rectangle — then
  fans the result slices back to each waiter;
* requests that arrive while that predict computes queue up and form the
  next batch, which the dispatcher starts as soon as the predict returns.

An idle server therefore adds no wait, and a busy one coalesces exactly
the requests that would otherwise queue behind each other.

The identity guarantee (tested in ``tests/serve`` and asserted by
``benchmarks/bench_http_serve.py``): each waiter's slice equals what a
solo ``predict`` over just its graphs would have returned, labels, votes
and margins byte for byte, because cross rows, their conditioning and
each machine's decision value are computed row-independently —
coalescing changes *when* rows are computed, never their values.
Batching is therefore a pure throughput switch: ``batching=False``
degrades to per-request calls.

Backpressure is explicit: past ``max_queue_graphs`` queued graphs,
:meth:`submit` raises :class:`~repro.errors.ServerBusyError` (→ HTTP 503
with ``Retry-After``) instead of queueing unboundedly — under sustained
overload the queue would otherwise grow without limit while every
caller's latency diverges. A closed batcher (a retrain replaced it, or
the server is shutting down) fails every request it will not answer
with the same error: the bundle exists, and a retry reaches its next
batcher.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.errors import (
    ServeTimeoutError,
    ServerBusyError,
    ValidationError,
)

#: Default seconds a caller waits on its future before giving up.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Seconds :meth:`MicroBatcher.close` waits for an in-flight predict
#: before failing that batch's waiters.
CLOSE_DRAIN_SECONDS = 5.0

#: ``Retry-After`` seconds a refused request is told to wait.
RETRY_AFTER_SECONDS = 0.05


@dataclass(frozen=True)
class BatchedPrediction:
    """One request's slice of a coalesced prediction.

    ``coalesced_graphs`` / ``coalesced_requests`` report the batch this
    request rode in — a request served alone reports its own size and 1.
    """

    result: object
    coalesced_graphs: int
    coalesced_requests: int


class _Pending:
    """One enqueued request: graphs in, a filled slice (or error) out."""

    __slots__ = ("graphs", "event", "outcome", "error")

    def __init__(self, graphs: list) -> None:
        self.graphs = graphs
        self.event = threading.Event()
        self.outcome: "BatchedPrediction | None" = None
        self.error: "BaseException | None" = None

    def settle(self, outcome=None, error=None) -> None:
        """Answer this request unless it already has its answer.

        Callers hold the batcher's lock, so a predict that returns after
        :meth:`MicroBatcher.close` failed its waiters cannot overwrite
        that error, and a timed-out waiter reads a settled-or-not state
        no other thread is changing.
        """
        if self.event.is_set():
            return
        self.outcome = outcome
        self.error = error
        self.event.set()


class MicroBatcher:
    """Coalesces concurrent predict calls into one cross-block evaluation.

    Parameters
    ----------
    predict:
        ``graphs -> PredictionResult`` — typically a bound
        :meth:`~repro.serve.service.PredictionService.predict`. Must be
        row-independent: the slice of a batched result belonging to a
        request equals the result of predicting that request alone.
    batching:
        ``True`` runs the dispatcher thread: a request reaching an idle
        batcher is predicted at once, and requests that arrive during a
        predict share the next one. ``False`` disables batching —
        :meth:`submit` calls ``predict`` synchronously (the no-batching
        baseline the benchmarks compare against).
    max_batch_graphs:
        The drain bound: one evaluation never takes more queued graphs
        than this (a single oversized request still runs, alone —
        refusing it would turn a throughput knob into a request-size
        limit).
    max_queue_graphs:
        Backpressure high-water mark: :meth:`submit` raises
        :class:`ServerBusyError` when accepting the request would leave
        more than this many graphs queued.
    timeout:
        Default seconds a caller blocks awaiting its slice before
        :class:`ServeTimeoutError`; per-call override via ``submit``.
    """

    def __init__(
        self,
        predict,
        *,
        batching: bool = True,
        max_batch_graphs: int = 64,
        max_queue_graphs: int = 512,
        timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        if max_batch_graphs < 1:
            raise ValidationError(
                f"max_batch_graphs must be >= 1, got {max_batch_graphs}"
            )
        if max_queue_graphs < max_batch_graphs:
            raise ValidationError(
                f"max_queue_graphs ({max_queue_graphs}) must be >= "
                f"max_batch_graphs ({max_batch_graphs})"
            )
        self.predict = predict
        self.batching = bool(batching)
        self.max_batch_graphs = int(max_batch_graphs)
        self.max_queue_graphs = int(max_queue_graphs)
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: "deque[_Pending]" = deque()
        self._queued_graphs = 0
        self._in_flight: "list[_Pending]" = []
        self._closed = False
        self._stats = {
            "requests": 0,
            "graphs": 0,
            "batches": 0,
            "coalesced_requests_max": 0,
            "coalesced_graphs_max": 0,
            "rejected": 0,
        }
        self._dispatcher: "threading.Thread | None" = None
        if self.batching:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="serve-microbatcher", daemon=True
            )
            self._dispatcher.start()

    # ------------------------------------------------------------------ #
    # Caller side
    # ------------------------------------------------------------------ #

    def submit(
        self, graphs: list, *, timeout: "float | None" = None
    ) -> BatchedPrediction:
        """Block until this request's slice is ready; return it.

        Raises :class:`ServerBusyError` at the high-water mark or once
        the batcher is closed, :class:`ServeTimeoutError` past the
        deadline (a request still queued then is withdrawn, so no batch
        computes it), and re-raises any exception the coalesced
        ``predict`` call died with (every waiter in the batch sees it).
        """
        graphs = list(graphs)
        deadline = self.timeout if timeout is None else float(timeout)
        if not self.batching or not graphs:
            # No-batching baseline (and the trivial empty request): call
            # through synchronously, still counted in the stats so /info
            # reflects all traffic.
            with self._lock:
                if self._closed:
                    raise ServerBusyError(
                        "MicroBatcher is closed", retry_after=RETRY_AFTER_SECONDS
                    )
                self._record_batch(len(graphs), 1)
            return BatchedPrediction(
                result=self.predict(graphs),
                coalesced_graphs=len(graphs),
                coalesced_requests=1,
            )
        pending = _Pending(graphs)
        with self._wake:
            if self._closed:
                raise ServerBusyError(
                    "MicroBatcher is closed", retry_after=RETRY_AFTER_SECONDS
                )
            if self._queued_graphs + len(graphs) > self.max_queue_graphs:
                self._stats["rejected"] += 1
                raise ServerBusyError(
                    f"serving queue full ({self._queued_graphs} graphs "
                    f"queued, high-water mark {self.max_queue_graphs}); "
                    "retry shortly",
                    retry_after=RETRY_AFTER_SECONDS,
                )
            self._queue.append(pending)
            self._queued_graphs += len(graphs)
            self._wake.notify_all()
        if not pending.event.wait(deadline):
            with self._lock:
                if pending in self._queue:
                    self._queue.remove(pending)
                    self._queued_graphs -= len(graphs)
                settled = pending.event.is_set()
            if not settled:
                raise ServeTimeoutError(
                    f"prediction not ready within {deadline:.1f}s "
                    f"({len(graphs)} graphs submitted)"
                )
        if pending.error is not None:
            raise pending.error
        assert pending.outcome is not None
        return pending.outcome

    def stats(self) -> dict:
        """Coalescing accounting for ``/info`` and the benchmarks."""
        with self._lock:
            stats = dict(self._stats)
        stats["max_batch_graphs"] = self.max_batch_graphs
        stats["max_queue_graphs"] = self.max_queue_graphs
        requests = stats["requests"] or 1
        batches = stats["batches"] or 1
        stats["mean_coalesced_requests"] = round(requests / batches, 3)
        return stats

    def close(self) -> None:
        """Stop the dispatcher; fail every waiter it will not answer.

        Queued requests fail at once. The in-flight batch gets
        :data:`CLOSE_DRAIN_SECONDS` to finish; past that its waiters fail
        too, and a predict that returns later answers no one.
        """
        with self._wake:
            if self._closed:
                return
            self._closed = True
            for pending in self._queue:
                pending.settle(error=ServerBusyError(
                    "MicroBatcher closed while queued",
                    retry_after=RETRY_AFTER_SECONDS,
                ))
            self._queue.clear()
            self._queued_graphs = 0
            self._wake.notify_all()
        if self._dispatcher is None:
            return
        self._dispatcher.join(timeout=CLOSE_DRAIN_SECONDS)
        with self._lock:
            for pending in self._in_flight:
                pending.settle(error=ServerBusyError(
                    f"MicroBatcher closed while predicting (the batch did "
                    f"not finish within {CLOSE_DRAIN_SECONDS:g}s)",
                    retry_after=RETRY_AFTER_SECONDS,
                ))

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Dispatcher side
    # ------------------------------------------------------------------ #

    def _record_batch(self, n_graphs: int, n_requests: int) -> None:
        # Caller holds self._lock.
        self._stats["requests"] += n_requests
        self._stats["graphs"] += n_graphs
        self._stats["batches"] += 1
        self._stats["coalesced_requests_max"] = max(
            self._stats["coalesced_requests_max"], n_requests
        )
        self._stats["coalesced_graphs_max"] = max(
            self._stats["coalesced_graphs_max"], n_graphs
        )

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._run_batch(batch)

    def _next_batch(self) -> "list[_Pending] | None":
        """Block until a request is queued; drain and return the batch.

        Returns ``None`` when the batcher closed with nothing queued.
        """
        with self._wake:
            while not self._queue and not self._closed:
                self._wake.wait()
            if not self._queue:
                return None  # closed
            batch: "list[_Pending]" = []
            total = 0
            while self._queue:
                nxt = self._queue[0]
                if batch and total + len(nxt.graphs) > self.max_batch_graphs:
                    break
                batch.append(self._queue.popleft())
                total += len(nxt.graphs)
            self._queued_graphs -= total
            self._in_flight = batch
            self._record_batch(total, len(batch))
            return batch

    def _run_batch(self, batch: "list[_Pending]") -> None:
        """One coalesced predict; fan slices (or the error) back out."""
        graphs: list = []
        for pending in batch:
            graphs.extend(pending.graphs)
        error: "BaseException | None" = None
        try:
            result = self.predict(graphs)
            outcomes: list = []
            start = 0
            for pending in batch:
                stop = start + len(pending.graphs)
                outcomes.append(BatchedPrediction(
                    result=_slice_result(result, start, stop),
                    coalesced_graphs=len(graphs),
                    coalesced_requests=len(batch),
                ))
                start = stop
        except BaseException as exc:  # noqa: BLE001 - fanned to waiters
            outcomes, error = [None] * len(batch), exc
        with self._lock:
            self._in_flight = []
            for pending, outcome in zip(batch, outcomes):
                pending.settle(outcome, error)


def _slice_result(result, start: int, stop: int):
    """Rows ``start:stop`` of a PredictionResult (classes shared)."""
    from repro.serve.service import PredictionResult

    return PredictionResult(
        labels=result.labels[start:stop],
        votes=result.votes[start:stop],
        margins=result.margins[start:stop],
        classes=result.classes,
    )
