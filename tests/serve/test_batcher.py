"""Unit tests for :class:`repro.serve.batcher.MicroBatcher`.

The batcher is tested against a fake predict function (graphs are plain
integers) so coalescing mechanics — dispatch, slicing, backpressure,
timeouts, shutdown, error fan-out — are exercised without kernel math;
the real end-to-end identity runs in ``test_http_server.py`` and the
benchmarks. Ordering is forced with events, never with wall-clock
windows (``held_predict.py``).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.errors import (
    ServeTimeoutError,
    ServerBusyError,
    ServingError,
    ValidationError,
)
from repro.serve import batcher as batcher_module
from repro.serve.batcher import MicroBatcher
from repro.serve.service import PredictionResult

from held_predict import PATIENCE, HeldPredict, wait_queued

CLASSES = np.array([0, 1])


def fake_predict(graphs, *, calls=None):
    """Labels each fake graph (an int) with itself; rows carry identity."""
    if calls is not None:
        calls.append(list(graphs))
    values = np.asarray(list(graphs), dtype=float)
    rows = np.stack([values, -values], axis=1) if len(graphs) else np.zeros((0, 2))
    return PredictionResult(
        labels=values, votes=rows.copy(), margins=rows, classes=CLASSES
    )


def start(target, *args):
    thread = threading.Thread(target=target, args=args)
    thread.start()
    return thread


def join_all(threads):
    for thread in threads:
        thread.join(PATIENCE)
        assert not thread.is_alive()


class TestValidation:
    def test_zero_max_batch_refused(self):
        with pytest.raises(ValidationError, match="max_batch_graphs"):
            MicroBatcher(fake_predict, max_batch_graphs=0)

    def test_queue_smaller_than_batch_refused(self):
        with pytest.raises(ValidationError, match="max_queue_graphs"):
            MicroBatcher(fake_predict, max_batch_graphs=8, max_queue_graphs=4)


class TestNoBatching:
    def test_passthrough_calls_predict_directly(self):
        calls = []
        with MicroBatcher(
            lambda g: fake_predict(g, calls=calls), batching=False
        ) as batcher:
            outcome = batcher.submit([3, 1, 4])
        assert batcher._dispatcher is None
        assert calls == [[3, 1, 4]]
        assert outcome.coalesced_requests == 1
        assert outcome.coalesced_graphs == 3
        assert list(outcome.result.labels) == [3, 1, 4]

    def test_stats_still_counted(self):
        with MicroBatcher(fake_predict, batching=False) as batcher:
            batcher.submit([1])
            batcher.submit([2, 3])
            stats = batcher.stats()
        assert stats["requests"] == 2
        assert stats["graphs"] == 3
        assert stats["batches"] == 2
        assert "window_ms" not in stats


class TestCoalescing:
    def test_lone_submit_to_idle_batcher_dispatches_without_waiting(
        self, monkeypatch
    ):
        # Record the dispatcher thread's waits: it may block only until
        # work arrives (no timeout), never for a span of time hoping for
        # company.
        timeouts = []
        idle = threading.Event()

        class RecordingCondition(threading.Condition):
            def wait(self, timeout=None):
                if threading.current_thread().name == "serve-microbatcher":
                    timeouts.append(timeout)
                    idle.set()
                return super().wait(timeout)

        monkeypatch.setattr(batcher_module.threading, "Condition", RecordingCondition)
        calls = []
        with MicroBatcher(lambda g: fake_predict(g, calls=calls)) as batcher:
            assert idle.wait(PATIENCE)
            outcome = batcher.submit([7, 8], timeout=PATIENCE)
            second = batcher.submit([9], timeout=PATIENCE)
        assert calls == [[7, 8], [9]]
        assert list(outcome.result.labels) == [7, 8]
        assert (outcome.coalesced_requests, outcome.coalesced_graphs) == (1, 2)
        assert (second.coalesced_requests, second.coalesced_graphs) == (1, 1)
        assert timeouts and all(timeout is None for timeout in timeouts)

    def test_concurrent_submits_share_one_predict(self):
        held = HeldPredict(fake_predict)
        outcomes = [None] * 6
        with MicroBatcher(held, max_batch_graphs=64) as batcher:
            first = start(batcher.submit, [0])
            assert held.started.wait(PATIENCE)

            def fire(i):
                outcomes[i] = batcher.submit([10 * i, 10 * i + 1])

            threads = [start(fire, i) for i in range(6)]
            wait_queued(batcher, 12)
            held.release.set()
            join_all([first, *threads])
        # The lone first request ran at once; the six that queued while
        # it computed shared exactly one next predict.
        assert len(held.calls) == 2
        assert held.calls[0] == [0]
        assert sorted(held.calls[1]) == sorted(
            g for i in range(6) for g in (10 * i, 10 * i + 1)
        )
        for i, outcome in enumerate(outcomes):
            # Identity: each waiter's slice is exactly its own graphs.
            assert list(outcome.result.labels) == [10 * i, 10 * i + 1]
            assert outcome.coalesced_requests == 6
            assert outcome.coalesced_graphs == 12
            assert np.array_equal(
                outcome.result.margins,
                fake_predict([10 * i, 10 * i + 1]).margins,
            )

    def test_max_batch_graphs_bounds_a_drain(self):
        held = HeldPredict(fake_predict)
        outcomes = {}
        with MicroBatcher(held, max_batch_graphs=4) as batcher:
            threads = [start(batcher.submit, [0])]
            assert held.started.wait(PATIENCE)

            def fire(value):
                outcomes[value] = batcher.submit([value, value])

            # Queue three 2-graph requests in a known FIFO order.
            for queued, value in enumerate((1, 2, 3), start=1):
                threads.append(start(fire, value))
                wait_queued(batcher, 2 * queued)
            held.release.set()
            join_all(threads)
        assert held.calls == [[0], [1, 1, 2, 2], [3, 3]]
        assert {v: o.coalesced_graphs for v, o in outcomes.items()} == {
            1: 4, 2: 4, 3: 2,
        }
        for value, outcome in outcomes.items():
            assert list(outcome.result.labels) == [value, value]

    def test_single_oversized_request_still_runs(self):
        calls = []
        with MicroBatcher(
            lambda g: fake_predict(g, calls=calls),
            max_batch_graphs=2,
            max_queue_graphs=16,
        ) as batcher:
            outcome = batcher.submit(list(range(7)))
        assert calls == [list(range(7))]
        assert outcome.coalesced_graphs == 7

    def test_empty_request_short_circuits(self):
        calls = []
        with MicroBatcher(lambda g: fake_predict(g, calls=calls)) as batcher:
            outcome = batcher.submit([])
        assert calls == [[]]
        assert len(outcome.result.labels) == 0
        assert outcome.coalesced_requests == 1


class TestFailureModes:
    def test_backpressure_raises_server_busy(self):
        held = HeldPredict(fake_predict)
        batcher = MicroBatcher(held, max_batch_graphs=2, max_queue_graphs=2)
        try:
            threads = [start(batcher.submit, [1, 2])]
            assert held.started.wait(PATIENCE)
            threads.append(start(batcher.submit, [3, 4]))
            wait_queued(batcher, 2)
            with pytest.raises(ServerBusyError) as excinfo:
                batcher.submit([5])
            assert excinfo.value.retry_after == batcher_module.RETRY_AFTER_SECONDS
            assert batcher.stats()["rejected"] == 1
            held.release.set()
            join_all(threads)
            assert held.calls == [[1, 2], [3, 4]]
        finally:
            held.release.set()
            batcher.close()

    def test_timeout_raises_named_error(self):
        held = HeldPredict(fake_predict)
        with MicroBatcher(held) as batcher:
            try:
                with pytest.raises(ServeTimeoutError, match="within 0.1s"):
                    batcher.submit([1], timeout=0.1)
            finally:
                held.release.set()
            # The dispatcher outlives a waiter that gave up.
            outcome = batcher.submit([2], timeout=PATIENCE)
        assert list(outcome.result.labels) == [2]

    def test_timed_out_submit_withdraws_its_request(self):
        held = HeldPredict(fake_predict)
        with MicroBatcher(held) as batcher:
            first = start(batcher.submit, [1])
            assert held.started.wait(PATIENCE)
            with pytest.raises(ServeTimeoutError):
                batcher.submit([2], timeout=0.05)
            # Withdrawn: no longer queued nor counted against the
            # high-water mark.
            assert batcher._queued_graphs == 0
            assert not batcher._queue
            held.release.set()
            join_all([first])
            batcher.submit([3], timeout=PATIENCE)
        # [2] never reached a predict, alone or alongside [3].
        assert held.calls == [[1], [3]]

    def test_close_fails_a_stuck_batch_and_queued_waiters(self, monkeypatch):
        monkeypatch.setattr(batcher_module, "CLOSE_DRAIN_SECONDS", 0.01)
        held = HeldPredict(fake_predict)
        errors = {}

        def fire(name, graphs):
            try:
                batcher.submit(graphs, timeout=3 * PATIENCE)
            except ServingError as exc:
                errors[name] = exc

        batcher = MicroBatcher(held)
        try:
            stuck = start(fire, "in_flight", [1])
            assert held.started.wait(PATIENCE)
            (pending,) = batcher._in_flight
            queued = start(fire, "queued", [2])
            wait_queued(batcher, 1)
            batcher.close()
            # Both waiters are answered now, not at their timeout.
            join_all([stuck, queued])
            assert "closed while queued" in str(errors["queued"])
            assert type(errors["queued"]) is ServerBusyError
            assert "closed while predicting" in str(errors["in_flight"])
            assert type(errors["in_flight"]) is ServerBusyError
            assert batcher._dispatcher.is_alive()
        finally:
            held.release.set()
        batcher._dispatcher.join(PATIENCE)
        assert not batcher._dispatcher.is_alive()
        # The predict that returned late answered no one: the error
        # close() settled stands.
        assert pending.error is errors["in_flight"]
        assert pending.outcome is None
        assert held.calls == [[1]]

    def test_predict_error_fans_out_to_every_waiter(self):
        held = HeldPredict(fake_predict)

        def broken_predict(graphs):
            held(graphs)
            raise RuntimeError("boom")

        errors = []
        with MicroBatcher(broken_predict) as batcher:
            def fire():
                try:
                    batcher.submit([1])
                except RuntimeError as exc:
                    errors.append(str(exc))

            threads = [start(fire)]
            assert held.started.wait(PATIENCE)
            threads += [start(fire) for _ in range(3)]
            wait_queued(batcher, 3)
            held.release.set()
            join_all(threads)
        assert errors == ["boom"] * 4
        assert held.calls == [[1], [1, 1, 1]]

    def test_submit_after_close_refused(self):
        batcher = MicroBatcher(fake_predict)
        batcher.close()
        with pytest.raises(ServerBusyError, match="closed"):
            batcher.submit([1])

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(fake_predict)
        batcher.close()
        batcher.close()


class TestConcurrency:
    def test_racing_timeouts_keep_the_accounting_exact(self):
        # 8 client threads (more than cores), a quarter of whose requests
        # time out almost at once — some while queued (withdrawn), some
        # in flight — under a tiny switch interval. A lost update would
        # leave graphs counted as queued, predict a graph twice, or hand
        # a waiter someone else's rows.
        calls = []
        answers = []
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MicroBatcher(
                lambda g: fake_predict(g, calls=calls), max_batch_graphs=8
            ) as batcher:
                def client(c):
                    for r in range(25):
                        graphs = [1000 * c + 10 * r + j for j in range(1 + (c + r) % 3)]
                        timeout = 1e-4 if (c + r) % 4 == 0 else PATIENCE
                        try:
                            outcome = batcher.submit(graphs, timeout=timeout)
                        except ServeTimeoutError:
                            continue
                        answers.append((graphs, list(outcome.result.labels)))

                join_all([start(client, c) for c in range(8)])
                queued_after = (batcher._queued_graphs, len(batcher._queue))
                stats = batcher.stats()
        finally:
            sys.setswitchinterval(switch_interval)
        assert queued_after == (0, 0)
        predicted = [graph for call in calls for graph in call]
        assert len(predicted) == len(set(predicted)) == stats["graphs"]
        assert all(graphs == labels for graphs, labels in answers)
        assert {g for graphs, _ in answers for g in graphs} <= set(predicted)
        assert len(answers) >= 8 * 25 * 3 // 4
