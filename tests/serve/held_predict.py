"""Helpers that order batcher tests with events instead of sleeps.

A predict held on an event keeps the dispatcher busy, so every request
submitted meanwhile queues behind it; :func:`wait_queued` blocks on the
batcher's own condition (``submit`` notifies it) until they have.
"""

from __future__ import annotations

import threading

#: Seconds a test waits for something that should happen at once.
PATIENCE = 10.0


class HeldPredict:
    """Wraps ``predict``; its first call blocks until :attr:`release` is set.

    :attr:`started` is set when that first call begins, and :attr:`calls`
    records the graphs of every call in order.
    """

    def __init__(self, predict) -> None:
        self.predict = predict
        self.calls: list = []
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, graphs):
        if not self.started.is_set():
            self.started.set()
            self.release.wait(PATIENCE)
        self.calls.append(list(graphs))
        return self.predict(graphs)


def wait_queued(batcher, n_graphs: int) -> None:
    """Block until ``n_graphs`` graphs are queued in ``batcher``."""
    with batcher._wake:
        assert batcher._wake.wait_for(
            lambda: batcher._queued_graphs == n_graphs, PATIENCE
        ), f"{batcher._queued_graphs} graphs queued, expected {n_graphs}"
