"""End-to-end tests for the HTTP serving layer (:mod:`repro.serve.server`).

Everything runs over a real socket (``ThreadingHTTPServer`` on an
ephemeral port) against a real bundle in a ``mem:`` store, so these tests
cover the full path: JSON wire decode → micro-batcher → shared
PredictionService → cross-block engine math → JSON response. The
load-bearing assertion is the coalescing identity: responses served from
a shared batch must be byte-identical to solo predictions.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.datasets import load_dataset
from repro.errors import ProtocolError
from repro.kernels import WeisfeilerLehmanKernel
from repro.serve import MicroBatcher, PredictionService, make_server, train_bundle
from repro.serve.protocol import (
    graph_from_wire,
    graph_to_wire,
    graphs_from_wire,
    parse_predict_request,
    parse_train_request,
)
from repro.store import ArtifactStore

from held_predict import PATIENCE, HeldPredict, wait_queued

C = 10.0


@pytest.fixture(scope="module")
def training_set():
    return load_dataset("MUTAG", scale=0.15, seed=0)


@pytest.fixture(scope="module")
def newcomers():
    return load_dataset("MUTAG", scale=0.1, seed=7).graphs


@pytest.fixture(scope="module")
def store(training_set):
    store = ArtifactStore("mem:http-tests")
    bundle = train_bundle(
        WeisfeilerLehmanKernel(),
        training_set.graphs,
        training_set.targets,
        c=C,
    )
    bundle.save(store, "wl")
    return store


@pytest.fixture(scope="module")
def server(store):
    server = make_server(
        store,
        default_bundle="wl",
        max_batch_graphs=512,
        max_queue_graphs=1024,
    ).start()
    yield server
    server.close()


@pytest.fixture(scope="module")
def reference_service(store):
    return PredictionService.from_store(
        store, "wl", ctx=ExecutionContext.from_env(store=None)
    )


def _post(url, payload, *, headers=None):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.load(response)


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.load(response)


def _wait_for_job(server, job_id, *, timeout):
    """Poll ``GET /jobs/<id>`` until the job is done or failed."""
    deadline = time.monotonic() + timeout
    while True:
        _, job = _get(server.url + f"/jobs/{job_id}")
        if job["status"] in ("done", "failed"):
            return job
        assert time.monotonic() < deadline, (
            f"job {job_id} still {job['status']!r} after {timeout}s"
        )
        time.sleep(0.05)


def _raw_post(server, headers):
    """Send a POST with hand-written ``headers`` over a raw socket; return
    the status line, the JSON body and whether the server then closed
    the connection."""
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(
            b"POST /predict HTTP/1.1\r\nHost: test\r\n"
            + b"".join(f"{k}: {v}\r\n".encode() for k, v in headers.items())
            + b"\r\n"
        )
        reply = sock.makefile("rb")
        status_line = reply.readline().decode()
        length = 0
        while (line := reply.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode().partition(":")
            if name.lower() == "content-length":
                length = int(value)
        body = json.loads(reply.read(length))
        closed = reply.read(1) == b""
    return status_line, body, closed


@contextlib.contextmanager
def serving_through(server, batcher):
    """Route the server's ``wl`` requests through ``batcher`` meanwhile."""
    with server.app._lock:
        original = server.app._batchers.pop("wl", None)
        server.app._batchers["wl"] = batcher
    try:
        yield batcher
    finally:
        with server.app._lock:
            server.app._batchers.pop("wl", None)
            if original is not None:
                server.app._batchers["wl"] = original
        batcher.close()


class TestWireProtocol:
    def test_graph_roundtrip(self, newcomers):
        for graph in newcomers[:5]:
            clone = graph_from_wire(graph_to_wire(graph))
            assert np.array_equal(clone.adjacency, graph.adjacency)
            assert np.array_equal(clone.labels, graph.labels)

    def test_weighted_edges_roundtrip(self):
        from repro.graphs.graph import Graph

        graph = Graph(np.array([[0.0, 2.5], [2.5, 0.0]]))
        doc = graph_to_wire(graph)
        assert doc["edges"] == [[0, 1, 2.5]]
        assert np.array_equal(graph_from_wire(doc).adjacency, graph.adjacency)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("not-a-dict", "expected an object"),
            ({}, "missing vertex count"),
            ({"n": -1}, "must be >= 0"),
            ({"n": 2, "edges": [[0]]}, r"\[u, v\]"),
            ({"n": 2, "edges": [[0, 5]]}, "outside 0..1"),
            ({"n": 2, "labels": [1]}, "2 integers"),
        ],
    )
    def test_malformed_graphs_raise_named_errors(self, doc, message):
        with pytest.raises(ProtocolError, match=message):
            graph_from_wire(doc, index=3)

    def test_errors_carry_the_graph_index(self):
        with pytest.raises(ProtocolError, match=r"graphs\[2\]"):
            graphs_from_wire([{"n": 1}, {"n": 1}, {"n": -4}])

    def test_predict_request_requires_graphs(self):
        with pytest.raises(ProtocolError, match="missing 'graphs'"):
            parse_predict_request({"bundle": "wl"})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("scale", "abc"),
            ("seed", [1]),
            ("limit", "ten"),
            ("c", {}),
            ("normalize", "false"),
            ("prototypes", 1.9),
            ("seed", True),
            ("dataset", None),
            ("c", float("nan")),
        ],
    )
    def test_train_request_refuses_wrongly_typed_fields(self, field, value):
        with pytest.raises(ProtocolError, match=f"'{field}' must be"):
            parse_train_request({"name": "x", field: value})

    def test_train_request_reads_integral_numbers_and_nulls(self):
        spec = parse_train_request(
            {"name": "x", "prototypes": 8.0, "scale": 1, "limit": None, "c": None}
        )
        assert spec["prototypes"] == 8 and isinstance(spec["prototypes"], int)
        assert spec["scale"] == 1.0 and isinstance(spec["scale"], float)
        assert spec["limit"] is None and spec["c"] is None
        assert spec["normalize"] is False


class TestRoutes:
    def test_healthz(self, server):
        status, payload = _get(server.url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["default_bundle"] == "wl"
        assert "jobs" in payload

    def test_info_carries_identities_and_batcher_stats(self, server, store):
        from repro.serve.bundle import ModelBundle
        from repro.serve.protocol import bundle_info

        status, payload = _get(server.url + "/info")
        assert status == 200
        bundle = ModelBundle.load(store, "wl")
        assert payload["kernel_fingerprint"] == bundle.kernel_fingerprint
        assert payload["training_digest"] == bundle.training_digest
        # /info is the CLI --json document plus the server section.
        expected = bundle_info(bundle)
        for key, value in expected.items():
            assert payload[key] == value
        assert payload["server"]["batching"] is True

    def test_predict_matches_direct_service(
        self, server, newcomers, reference_service
    ):
        reference = reference_service.predict(newcomers[:6])
        status, payload = _post(
            server.url + "/predict",
            {"graphs": [graph_to_wire(g) for g in newcomers[:6]], "votes": True},
        )
        assert status == 200
        assert payload["bundle"] == "wl"
        assert payload["labels"] == [int(l) for l in reference.labels]
        assert np.allclose(payload["margins"], reference.margins)
        assert np.allclose(payload["votes"], reference.votes)
        assert payload["batch"]["coalesced_requests"] >= 1

    def test_concurrent_requests_coalesce_with_identical_labels(
        self, server, newcomers, reference_service
    ):
        # 8 clients, distinct slices: the first request's predict is held
        # until the other 7 are queued behind it, so those 7 share the
        # next predict. Every response must equal its solo prediction.
        slices = [newcomers[i % 4 : i % 4 + 3] for i in range(8)]
        expected = [
            [int(l) for l in reference_service.predict(s).labels] for s in slices
        ]
        payloads = [None] * 8

        def fire(i):
            _, payloads[i] = _post(
                server.url + "/predict",
                {"graphs": [graph_to_wire(g) for g in slices[i]]},
            )

        held = HeldPredict(server.app.service("wl").predict)
        batcher = MicroBatcher(held, max_batch_graphs=512, max_queue_graphs=1024)
        with serving_through(server, batcher):
            threads = [threading.Thread(target=fire, args=(0,))]
            threads[0].start()
            assert held.started.wait(PATIENCE)
            threads += [
                threading.Thread(target=fire, args=(i,)) for i in range(1, 8)
            ]
            for t in threads[1:]:
                t.start()
            wait_queued(batcher, sum(len(s) for s in slices[1:]))
            held.release.set()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        for payload, labels in zip(payloads, expected):
            assert payload is not None
            assert payload["labels"] == labels
        assert [p["batch"]["coalesced_requests"] for p in payloads] == [1] + [7] * 7

    def test_empty_graph_list_is_served(self, server):
        status, payload = _post(server.url + "/predict", {"graphs": []})
        assert status == 200
        assert payload["labels"] == []
        assert payload["classes"] == [0, 1]

    def test_unknown_bundle_is_404(self, server, newcomers):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                server.url + "/predict",
                {"bundle": "nope", "graphs": [graph_to_wire(newcomers[0])]},
            )
        assert excinfo.value.code == 404
        body = json.load(excinfo.value)
        assert "no bundle named 'nope'" in body["error"]["message"]

    def test_malformed_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/predict",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert json.load(excinfo.value)["error"]["kind"] == "protocol"

    def test_malformed_graph_is_400_with_index(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/predict", {"graphs": [{"n": 2, "edges": [[0, 9]]}]})
        assert excinfo.value.code == 400
        assert "graphs[0]" in json.load(excinfo.value)["error"]["message"]

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nothing/here")
        assert excinfo.value.code == 404

    def test_unknown_job_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/jobs/99999")
        assert excinfo.value.code == 404

    def test_job_id_past_the_sqlite_integer_range_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + f"/jobs/{2**64}")
        assert excinfo.value.code == 404

    @pytest.mark.parametrize(
        "route, body, field",
        [
            ("/train", {"name": "x", "scale": "abc"}, "scale"),
            ("/train", {"name": "x", "normalize": "false"}, "normalize"),
            ("/predict", {"graphs": [], "votes": "yes"}, "votes"),
        ],
    )
    def test_wrongly_typed_field_is_400_naming_it(self, server, route, body, field):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + route, body)
        assert excinfo.value.code == 400
        error = json.load(excinfo.value)["error"]
        assert error["kind"] == "protocol"
        assert f"'{field}' must be a" in error["message"]

    @pytest.mark.parametrize("declared", ["abc", "-1"])
    def test_malformed_content_length_is_400(self, server, declared):
        status_line, body, closed = _raw_post(server, {"Content-Length": declared})
        assert status_line.startswith("HTTP/1.1 400")
        assert body["error"]["kind"] == "protocol"
        assert "Content-Length" in body["error"]["message"]
        assert closed

    def test_oversized_body_is_413_and_closes_the_connection(self, server):
        from repro.serve.server import MAX_BODY_BYTES

        status_line, body, closed = _raw_post(
            server, {"Content-Length": MAX_BODY_BYTES + 1}
        )
        assert status_line.startswith("HTTP/1.1 413")
        assert body["error"]["kind"] == "too_large"
        assert closed


class TestBackpressure:
    def test_queue_past_high_water_is_503_with_retry_after(self, server, newcomers):
        # Swap in a batcher whose predict blocks, then overfill its queue.
        held = HeldPredict(server.app.service("wl").predict)
        blocked = MicroBatcher(held, max_batch_graphs=1, max_queue_graphs=1)
        with serving_through(server, blocked):
            try:
                background = threading.Thread(
                    target=lambda: blocked.submit([newcomers[0]], timeout=20.0)
                )
                background.start()
                assert held.started.wait(PATIENCE)
                filler = threading.Thread(
                    target=lambda: blocked.submit([newcomers[1]], timeout=20.0)
                )
                filler.start()
                wait_queued(blocked, 1)
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _post(
                        server.url + "/predict",
                        {"graphs": [graph_to_wire(newcomers[2])]},
                    )
                assert excinfo.value.code == 503
                assert float(excinfo.value.headers["Retry-After"]) > 0
                assert json.load(excinfo.value)["error"]["kind"] == "busy"
                held.release.set()
                background.join(timeout=20)
                filler.join(timeout=20)
                assert not background.is_alive() and not filler.is_alive()
            finally:
                held.release.set()


class TestClosedBatcher:
    """A request that reaches a closed batcher is told to retry (503):
    the bundle exists, only its batcher went away."""

    def test_request_to_a_closed_batcher_is_503(self, server, newcomers):
        closed = MicroBatcher(server.app.service("wl").predict)
        closed.close()
        with serving_through(server, closed):
            status, payload, headers = server.app.handle(
                "POST", "/predict", {},
                {"graphs": [graph_to_wire(newcomers[0])]},
            )
        assert status == 503
        assert float(headers["Retry-After"]) > 0
        assert payload["error"]["message"] == "MicroBatcher is closed"

    def test_request_queued_when_a_retrain_closes_the_batcher_is_503(
        self, server, newcomers
    ):
        held = HeldPredict(server.app.service("wl").predict)
        batcher = MicroBatcher(held)
        replies = []
        with serving_through(server, batcher):
            try:
                in_flight = threading.Thread(
                    target=lambda: batcher.submit([newcomers[0]], timeout=PATIENCE)
                )
                in_flight.start()
                assert held.started.wait(PATIENCE)
                queued = threading.Thread(
                    target=lambda: replies.append(server.app.handle(
                        "POST", "/predict", {},
                        {"graphs": [graph_to_wire(newcomers[1])]},
                    ))
                )
                queued.start()
                wait_queued(batcher, 1)
                # What a finished /train does; it blocks on the held
                # predict, but answers the queued request first.
                retrain = threading.Thread(
                    target=server.app.invalidate, args=("wl",)
                )
                retrain.start()
                queued.join(PATIENCE)
                assert not queued.is_alive()
            finally:
                held.release.set()
            retrain.join(PATIENCE)
            in_flight.join(PATIENCE)
            assert not retrain.is_alive() and not in_flight.is_alive()
        ((status, payload, headers),) = replies
        assert status == 503
        assert float(headers["Retry-After"]) > 0
        assert payload["error"]["message"] == "MicroBatcher closed while queued"
        assert held.calls == [[newcomers[0]]]


class TestTrainEndpoint:
    def test_train_then_predict_roundtrip(self, server, newcomers):
        status, job = _post(
            server.url + "/train",
            {
                "name": "trained-via-http",
                "dataset": "MUTAG",
                "scale": 0.1,
                "seed": 1,
                "kernel": "WLSK",
                "c": C,
            },
        )
        assert status == 202
        assert job["kind"] == "serve-train"
        assert job["key"] == "serve-train:trained-via-http"
        done = _wait_for_job(server, job["id"], timeout=120)
        assert done["status"] == "done", done["error"]
        assert done["result"]["bundle"] == "trained-via-http"
        assert done["result"]["train_accuracy"] > 0.5
        # Poll endpoint agrees with the job table.
        status, polled = _get(server.url + f"/jobs/{job['id']}")
        assert status == 200
        assert polled["status"] == "done"
        # The trained bundle serves immediately.
        status, payload = _post(
            server.url + "/predict",
            {
                "bundle": "trained-via-http",
                "graphs": [graph_to_wire(g) for g in newcomers[:4]],
            },
        )
        assert status == 200
        assert len(payload["labels"]) == 4

    def test_resubmission_is_idempotent_by_bundle_key(self, server):
        body = {
            "name": "trained-via-http",
            "dataset": "MUTAG",
            "scale": 0.1,
            "seed": 1,
            "kernel": "WLSK",
            "c": C,
        }
        status_a, first = _post(server.url + "/train", body)
        _wait_for_job(server, first["id"], timeout=120)
        status_b, second = _post(server.url + "/train", body)
        # Same key -> same job row; a finished job reports 200, not 202.
        assert second["id"] == first["id"]
        assert status_b == 200

    def test_train_rejects_unknown_fields(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/train", {"name": "x", "keernel": "WLSK"})
        assert excinfo.value.code == 400
        assert "keernel" in json.load(excinfo.value)["error"]["message"]

    def test_train_failure_is_recorded_on_the_job(self, server):
        status, job = _post(
            server.url + "/train",
            {"name": "doomed", "dataset": "NOPE-DATASET", "kernel": "WLSK"},
        )
        assert status == 202
        done = _wait_for_job(server, job["id"], timeout=60)
        assert done["status"] == "failed"
        assert "NOPE-DATASET" in done["error"]


class TestServerLifecycle:
    def test_close_then_context_manager_reopen(self, store, newcomers):
        with make_server(store, default_bundle="wl", batching=False) as server:
            server.start()
            status, payload = _post(
                server.url + "/predict",
                {"graphs": [graph_to_wire(newcomers[0])]},
            )
            assert status == 200
            # The no-batching baseline serves every request alone.
            assert payload["batch"]["coalesced_requests"] == 1
