"""Unit tests for :class:`repro.serve.batcher.MicroBatcher`.

The batcher is tested against a fake predict function (graphs are plain
integers) so coalescing mechanics — windows, slicing, backpressure,
timeouts, error fan-out — are exercised without kernel math; the real
end-to-end identity runs in ``test_http_server.py`` and the benchmarks.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ServeTimeoutError,
    ServerBusyError,
    ServingError,
    ValidationError,
)
from repro.serve.batcher import MicroBatcher
from repro.serve.service import PredictionResult

CLASSES = np.array([0, 1])


def fake_predict(graphs, *, delay=0.0, calls=None):
    """Labels each fake graph (an int) with itself; rows carry identity."""
    if calls is not None:
        calls.append(list(graphs))
    if delay:
        time.sleep(delay)
    values = np.asarray(list(graphs), dtype=float)
    rows = np.stack([values, -values], axis=1) if len(graphs) else np.zeros((0, 2))
    return PredictionResult(
        labels=values, votes=rows.copy(), margins=rows, classes=CLASSES
    )


class TestValidation:
    def test_negative_window_refused(self):
        with pytest.raises(ValidationError, match="window_ms"):
            MicroBatcher(fake_predict, window_ms=-1)

    def test_zero_max_batch_refused(self):
        with pytest.raises(ValidationError, match="max_batch_graphs"):
            MicroBatcher(fake_predict, max_batch_graphs=0)

    def test_queue_smaller_than_batch_refused(self):
        with pytest.raises(ValidationError, match="max_queue_graphs"):
            MicroBatcher(fake_predict, max_batch_graphs=8, max_queue_graphs=4)


class TestWindowZero:
    def test_passthrough_calls_predict_directly(self):
        calls = []
        with MicroBatcher(
            lambda g: fake_predict(g, calls=calls), window_ms=0
        ) as batcher:
            outcome = batcher.submit([3, 1, 4])
        assert calls == [[3, 1, 4]]
        assert outcome.coalesced_requests == 1
        assert outcome.coalesced_graphs == 3
        assert list(outcome.result.labels) == [3, 1, 4]

    def test_stats_still_counted(self):
        with MicroBatcher(fake_predict, window_ms=0) as batcher:
            batcher.submit([1])
            batcher.submit([2, 3])
            stats = batcher.stats()
        assert stats["requests"] == 2
        assert stats["graphs"] == 3
        assert stats["batches"] == 2


class TestCoalescing:
    def test_concurrent_submits_share_one_predict(self):
        calls = []
        outcomes = [None] * 6
        with MicroBatcher(
            lambda g: fake_predict(g, calls=calls),
            window_ms=100.0,
            max_batch_graphs=64,
        ) as batcher:
            def fire(i):
                outcomes[i] = batcher.submit([10 * i, 10 * i + 1])

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # All six requests landed within one window: one predict call.
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted(
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

    def test_max_batch_graphs_cuts_window_short(self):
        calls = []
        with MicroBatcher(
            lambda g: fake_predict(g, calls=calls),
            window_ms=60_000.0,  # would block forever without the early-out
            max_batch_graphs=4,
        ) as batcher:
            outcomes = [None, None]

            def fire(i):
                outcomes[i] = batcher.submit([i, i, i][: 2 + i])

            threads = [threading.Thread(target=fire, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        total = sum(len(c) for c in calls)
        assert total == 5  # 2 + 3 graphs served, across 1-2 batches
        assert all(o is not None for o in outcomes)

    def test_single_oversized_request_still_runs(self):
        calls = []
        with MicroBatcher(
            lambda g: fake_predict(g, calls=calls),
            window_ms=5.0,
            max_batch_graphs=2,
            max_queue_graphs=16,
        ) as batcher:
            outcome = batcher.submit(list(range(7)))
        assert calls == [list(range(7))]
        assert outcome.coalesced_graphs == 7

    def test_empty_request_short_circuits(self):
        calls = []
        with MicroBatcher(
            lambda g: fake_predict(g, calls=calls), window_ms=50.0
        ) as batcher:
            outcome = batcher.submit([])
        assert calls == [[]]
        assert len(outcome.result.labels) == 0
        assert outcome.coalesced_requests == 1


class TestFailureModes:
    def test_backpressure_raises_server_busy(self):
        release = threading.Event()

        def slow_predict(graphs):
            release.wait(10.0)
            return fake_predict(graphs)

        batcher = MicroBatcher(
            slow_predict, window_ms=1.0, max_batch_graphs=2, max_queue_graphs=2
        )
        try:
            background = threading.Thread(
                target=lambda: batcher.submit([1, 2], timeout=10.0)
            )
            background.start()
            # Wait until the first batch is in flight, then fill the queue.
            deadline = time.monotonic() + 5.0
            while batcher.stats()["batches"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            filler = threading.Thread(
                target=lambda: batcher.submit([3, 4], timeout=10.0)
            )
            filler.start()
            deadline = time.monotonic() + 5.0
            while batcher._queued_graphs < 2:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            with pytest.raises(ServerBusyError) as excinfo:
                batcher.submit([5])
            assert excinfo.value.retry_after > 0
            assert batcher.stats()["rejected"] == 1
            release.set()
            background.join(timeout=10)
            filler.join(timeout=10)
        finally:
            release.set()
            batcher.close()

    def test_timeout_raises_named_error(self):
        release = threading.Event()

        def stuck_predict(graphs):
            release.wait(timeout=10)
            return fake_predict(graphs)

        with MicroBatcher(stuck_predict, window_ms=1.0) as batcher:
            try:
                with pytest.raises(ServeTimeoutError, match="within 0.1s"):
                    batcher.submit([1], timeout=0.1)
            finally:
                # close() joins the dispatcher, which is inside predict.
                release.set()

    def test_predict_error_fans_out_to_every_waiter(self):
        def broken_predict(graphs):
            raise RuntimeError("boom")

        errors = []
        with MicroBatcher(broken_predict, window_ms=50.0) as batcher:
            def fire():
                try:
                    batcher.submit([1])
                except RuntimeError as exc:
                    errors.append(str(exc))

            threads = [threading.Thread(target=fire) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        assert errors == ["boom", "boom", "boom"]

    def test_submit_after_close_refused(self):
        batcher = MicroBatcher(fake_predict, window_ms=1.0)
        batcher.close()
        with pytest.raises(ServingError, match="closed"):
            batcher.submit([1])

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(fake_predict, window_ms=1.0)
        batcher.close()
        batcher.close()
