"""HTTP serving benchmarks — continuous-batching throughput and tail latency.

The question the :class:`~repro.serve.batcher.MicroBatcher` design
(DESIGN.md, "Continuous batching") leaves quantitative: how much
sustained throughput does request coalescing buy under concurrent
traffic, and what does it cost the tail? Each run fires ``N_CLIENTS``
client threads at a live ``ThreadingHTTPServer`` over a real socket in
synchronized bursts — every round, all clients send a small ``/predict``
request at once (the arrival pattern coalescing targets, and
deterministic enough to benchmark on a noisy single-core box) — and
measures wall-clock graphs/sec plus per-request p50/p99 latency. The
sweep runs the server with batching off (the baseline: every request
pays the small-rectangle cross-block price) and on, where the first
request of a burst is predicted at once and the rest of the burst
queues behind it and shares the next predict; ``max_batch_graphs`` is
sized to the burst, so one drain can take all of it.

Every bench emits a machine-readable JSON record in
``extra_info["serve_row"]`` (batching, clients, graphs, wall-clock,
graphs/s, p50/p99 ms, coalescing accounting), and asserts the identity
guarantee: every response's labels must equal a solo
:meth:`PredictionService.predict` over just that request's graphs — a
throughput win that changed the answers would be measuring the wrong
thing. The final test asserts the point of batching: with >= 8
concurrent clients, it beats the no-batching baseline.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.datasets import load_dataset
from repro.kernels import WeisfeilerLehmanKernel
from repro.serve import PredictionService, make_server, train_bundle
from repro.serve.protocol import graph_to_wire
from repro.store import ArtifactStore

#: Batching modes of the sweep; ``False`` is the no-batching baseline.
BATCHING = (False, True)

#: Concurrent client threads — the acceptance bar is "wins at >= 8".
N_CLIENTS = 8

#: Synchronized request bursts each client participates in.
REQUESTS_PER_CLIENT = 6

#: Graphs per request — small on purpose: per-request cross-block
#: overhead dominates, which is exactly the regime coalescing targets.
GRAPHS_PER_REQUEST = 4

#: Cross-run accounting for the final baseline-vs-coalesced assertion,
#: keyed by batching mode. Populated in sweep order by the parametrized
#: test.
RESULTS: "dict[bool, dict]" = {}


@pytest.fixture(scope="module")
def store():
    training = load_dataset("MUTAG", scale=0.15, seed=0)
    store = ArtifactStore("mem:bench-http-serve")
    bundle = train_bundle(
        WeisfeilerLehmanKernel(), training.graphs, training.targets, c=10.0
    )
    bundle.save(store, "bench")
    return store


@pytest.fixture(scope="module")
def request_pool(store):
    """The fixed request mix every run replays: one graph-list per
    (client, request) slot, cycled from a probe set disjoint in seed from
    the training split."""
    probe = load_dataset("MUTAG", scale=0.25, seed=3).graphs
    pool = []
    cursor = 0
    for _ in range(N_CLIENTS * REQUESTS_PER_CLIENT):
        graphs = [probe[(cursor + j) % len(probe)] for j in range(GRAPHS_PER_REQUEST)]
        cursor += GRAPHS_PER_REQUEST
        pool.append(graphs)
    return pool


@pytest.fixture(scope="module")
def reference_labels(store, request_pool):
    """Solo-predict labels per request slot — the identity oracle."""
    service = PredictionService.from_store(
        store, "bench", ctx=ExecutionContext.from_env(store=None)
    )
    return [
        [int(x) for x in service.predict(graphs).labels]
        for graphs in request_pool
    ]


@pytest.fixture(scope="module")
def wire_bodies(request_pool):
    """Pre-encoded request bytes — JSON encoding happens outside the
    timed drive, so the measurement is server-side serving cost."""
    return [
        json.dumps({"graphs": [graph_to_wire(g) for g in graphs]}).encode("utf-8")
        for graphs in request_pool
    ]


def _post_predict(url, body, timeout=60.0):
    request = urllib.request.Request(
        url + "/predict",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


def _drive_clients(url, wire_bodies):
    """N_CLIENTS threads sending REQUESTS_PER_CLIENT synchronized bursts.

    Every round, a barrier releases all clients at once, and each posts
    one request — bursty concurrent arrivals, the regime batching exists
    for (and the no-batching baseline must absorb one request at a
    time). Returns ``(responses, latencies_seconds, wall_seconds)``
    with responses index-aligned to ``wire_bodies``.
    """
    responses: "list[dict | None]" = [None] * len(wire_bodies)
    latencies = [0.0] * len(wire_bodies)
    barrier = threading.Barrier(N_CLIENTS + 1)

    def client(client_index):
        for r in range(REQUESTS_PER_CLIENT):
            barrier.wait()
            slot = client_index * REQUESTS_PER_CLIENT + r
            started = time.perf_counter()
            responses[slot] = _post_predict(url, wire_bodies[slot])
            latencies[slot] = time.perf_counter() - started

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(N_CLIENTS)
    ]
    for t in threads:
        t.start()
    started = time.perf_counter()
    for _ in range(REQUESTS_PER_CLIENT):
        barrier.wait()
    for t in threads:
        t.join()
    wall = time.perf_counter() - started
    return responses, latencies, wall


def _measure(store, batching, wire_bodies, *, drives=3):
    """One warm-up drive plus best-of-``drives`` measured drives against
    a fresh server in the given batching mode.

    The warm-up absorbs cold-start costs — bundle load, train-state
    preparation, thread/socket spin-up — and taking the best measured
    drive damps scheduler noise on a loaded box, so the
    baseline-vs-coalesced comparison reflects the steady state, not a
    lucky or unlucky drive. Returns ``(responses, latencies, wall)``.
    """
    server = make_server(
        store,
        default_bundle="bench",
        batching=batching,
        # Sized to the burst: the requests queued behind a burst's first
        # predict all fit in the next one.
        max_batch_graphs=N_CLIENTS * GRAPHS_PER_REQUEST,
        max_queue_graphs=1024,
    ).start()
    try:
        _drive_clients(server.url, wire_bodies)
        responses, latencies, wall = _drive_clients(server.url, wire_bodies)
        for _ in range(drives - 1):
            again = _drive_clients(server.url, wire_bodies)
            if again[2] < wall:
                responses, latencies, wall = again
    finally:
        server.close()
    return responses, latencies, wall


@pytest.mark.parametrize("batching", BATCHING)
def test_bench_throughput_vs_batching(
    batching, store, request_pool, wire_bodies, reference_labels, benchmark
):
    timings = {}

    def run():
        responses, latencies, wall = _measure(store, batching, wire_bodies)
        timings.update(latencies=latencies, wall=wall)
        return responses

    responses = benchmark.pedantic(run, rounds=1, iterations=1)

    # Identity guarantee: coalesced or not, every response's labels match
    # the solo per-request prediction exactly.
    for slot, response in enumerate(responses):
        assert response["labels"] == reference_labels[slot], (
            f"request {slot} labels diverged under batching={batching}"
        )

    coalesced_max = max(
        r["batch"]["coalesced_requests"] for r in responses
    )
    if batching:
        assert coalesced_max > 1, (
            "8 concurrent clients never shared a batch — batching "
            "is not coalescing"
        )
    else:
        assert coalesced_max == 1

    total_graphs = len(request_pool) * GRAPHS_PER_REQUEST
    latencies_ms = np.asarray(timings["latencies"]) * 1000.0
    record = {
        "bench": "http_serve",
        "batching": batching,
        "clients": N_CLIENTS,
        "requests": len(request_pool),
        "graphs": total_graphs,
        "seconds": round(timings["wall"], 3),
        "graphs_per_second": round(total_graphs / timings["wall"], 2),
        "p50_ms": round(float(np.percentile(latencies_ms, 50)), 2),
        "p99_ms": round(float(np.percentile(latencies_ms, 99)), 2),
        "coalesced_requests_max": int(coalesced_max),
    }
    benchmark.extra_info["serve_row"] = json.dumps(record, sort_keys=True)
    RESULTS[batching] = record


def test_bench_batching_beats_no_batching(store, wire_bodies, benchmark):
    """The claim: at >= 8 concurrent clients, batching sustains more
    graphs/sec than the per-request baseline."""
    assert set(RESULTS) == set(BATCHING), (
        "sweep must run before the comparison (file order)"
    )
    total_graphs = len(wire_bodies) * GRAPHS_PER_REQUEST
    baseline = RESULTS[False]["graphs_per_second"]
    coalesced = RESULTS[True]["graphs_per_second"]
    reran = False
    if coalesced <= baseline:
        # The sweep lost — before declaring a regression, verify with a
        # fresh head-to-head: one box-noise outlier during the sweep must
        # not fail CI, but a genuine loss will lose again here.
        reran = True
        _, _, wall = _measure(store, True, wire_bodies, drives=2)
        coalesced = round(total_graphs / wall, 2)
        _, _, wall = _measure(store, False, wire_bodies, drives=2)
        baseline = round(total_graphs / wall, 2)

    def run():
        return {
            "bench": "http_serve_comparison",
            "baseline_graphs_per_second": baseline,
            "coalesced_graphs_per_second": coalesced,
            "reran_head_to_head": reran,
            "speedup": round(coalesced / baseline, 3),
        }

    record = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["serve_row"] = json.dumps(record, sort_keys=True)
    assert coalesced > baseline, (
        f"batching ({coalesced} graphs/s) did not beat the no-batching "
        f"baseline ({baseline} graphs/s) at "
        f"{N_CLIENTS} concurrent clients"
    )
