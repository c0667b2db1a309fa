"""A stdlib-only threaded HTTP server over the prediction service.

The network face of :mod:`repro.serve` — ``http.server`` (threaded, one
thread per connection, no new dependencies) routing four JSON endpoints:

* ``POST /predict`` — classify wire-format graphs. Requests that arrive
  while a predict computes coalesce through one
  :class:`~repro.serve.batcher.MicroBatcher` per bundle into the next
  ``(ΔN, |S|)`` cross-block evaluation; the response's ``batch`` field
  reports the coalescing each request rode in.
* ``POST /train``   — submit a training job to the server's sqlite
  :class:`~repro.serve.jobs.JobTable` (idempotent by bundle name:
  resubmitting a name returns its job, and revives a failed one). One
  training thread, woken by each submit, trains the jobs oldest first;
  the trained bundle becomes immediately servable and any cached
  service for the name is invalidated.
* ``GET /jobs/<id>`` — poll a training job's status/result/error.
* ``GET /info``     — the shared machine-readable bundle document
  (:func:`~repro.serve.protocol.bundle_info` — byte-compatible with
  ``python -m repro.serve info --json``) plus live batcher statistics.
* ``GET /healthz``  — liveness, protocol version, loaded bundles.

Error mapping is uniform: :class:`~repro.errors.ProtocolError` → 400,
unknown bundles/jobs/routes → 404, :class:`~repro.errors.ServerBusyError`
(a full queue, or a batcher closed by a retrain or shutdown) → 503 with
``Retry-After``, :class:`~repro.errors.ServeTimeoutError` → 504,
anything else → 500 — always a JSON ``error`` body, never a raw
traceback page.

One shared :class:`~repro.serve.service.PredictionService` per bundle
holds the cached prepared train states, so the per-graph serving cost is
the cross-block rectangle and nothing else (the service is thread-safe;
see ``tests/serve`` for the two-thread corruption test).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import (
    ProtocolError,
    ReproError,
    ServeTimeoutError,
    ServerBusyError,
    ServingError,
    ValidationError,
)
from repro.serve import protocol
from repro.serve.batcher import MicroBatcher
from repro.utils.logging import get_logger

_LOGGER = get_logger("serve.server")

#: Maximum accepted request body (64 MiB of JSON graphs is already huge).
MAX_BODY_BYTES = 64 * 1024 * 1024


class ServeApp:
    """Routing-free application state: bundles, batchers, the job table.

    The HTTP handler delegates every request here, so tests can drive
    the full serving logic through :meth:`handle` without a socket, and
    the real server stays a thin transport.
    """

    def __init__(
        self,
        store,
        *,
        ctx=None,
        default_bundle: "str | None" = None,
        batching: bool = True,
        max_batch_graphs: int = 64,
        max_queue_graphs: int = 512,
        request_timeout: float = 30.0,
        jobs_db: "str | None" = None,
        clock=time.time,
    ) -> None:
        from repro.api import ExecutionContext
        from repro.serve.jobs import JobTable
        from repro.store import ArtifactStore

        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        if ctx is None:
            ctx = ExecutionContext.from_env(store=store)
        elif ctx.store is None:
            ctx = ctx.replace(store=store)
        self.ctx = ctx.validate()
        self.default_bundle = default_bundle
        self.batching = bool(batching)
        self.max_batch_graphs = int(max_batch_graphs)
        self.max_queue_graphs = int(max_queue_graphs)
        self.request_timeout = float(request_timeout)
        if jobs_db is None:
            # Directory-backed stores get a durable job table next to the
            # artifacts (server restarts resume pending training jobs);
            # memory stores fall back to an ephemeral in-process table.
            root = store.backend.local_path("serve-jobs.db") if hasattr(
                store.backend, "local_path"
            ) else None
            jobs_db = root if isinstance(root, str) else ":memory:"
        # One injected clock drives uptime *and* the job timestamps, so
        # virtual-time tests see a consistent world.
        self.clock = clock
        self.jobs = JobTable(jobs_db, clock=clock)
        # One server per database: a job still `running` was cut off by a
        # dead server, so it trains again.
        self.jobs.reset_running()
        self.started_at = clock()
        self._lock = threading.Lock()
        self._services: dict = {}
        self._batchers: dict = {}
        self._closed = False
        # Set by each submit and by close(); set now so that the jobs
        # the file already holds train.
        self._wake = threading.Event()
        self._wake.set()
        self._train_worker = threading.Thread(
            target=self._train_loop, name="serve-train-worker", daemon=True
        )
        self._train_worker.start()

    # ------------------------------------------------------------------ #
    # Bundle / batcher registry
    # ------------------------------------------------------------------ #

    def service(self, name: str):
        """The shared (cached) PredictionService for ``name``."""
        from repro.serve.service import PredictionService

        with self._lock:
            cached = self._services.get(name)
        if cached is not None:
            return cached
        # Load outside the lock: cold starts hash N training graphs, and
        # one bundle loading must not block serving every other bundle.
        service = PredictionService.from_store(self.store, name, ctx=self.ctx)
        with self._lock:
            return self._services.setdefault(name, service)

    def batcher(self, name: str) -> MicroBatcher:
        service = self.service(name)
        with self._lock:
            cached = self._batchers.get(name)
            if cached is not None:
                return cached
            batcher = MicroBatcher(
                service.predict,
                batching=self.batching,
                max_batch_graphs=self.max_batch_graphs,
                max_queue_graphs=self.max_queue_graphs,
                timeout=self.request_timeout,
            )
            self._batchers[name] = batcher
            return batcher

    def invalidate(self, name: str) -> None:
        """Drop cached service/batcher for ``name`` (after a retrain)."""
        with self._lock:
            self._services.pop(name, None)
            stale = self._batchers.pop(name, None)
        if stale is not None:
            stale.close()

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #

    def handle(self, method: str, path: str, query: dict, body) -> "tuple[int, dict, dict]":
        """``(status, payload, headers)`` for one request."""
        try:
            if method == "GET" and path == "/healthz":
                return self._healthz()
            if method == "GET" and path == "/info":
                return self._info(query)
            if method == "GET" and path.startswith("/jobs/"):
                return self._job(path[len("/jobs/"):])
            if method == "POST" and path == "/predict":
                return self._predict(body)
            if method == "POST" and path == "/train":
                return self._train(body)
            return 404, protocol.error_payload(
                f"no route {method} {path}", kind="not_found"
            ), {}
        except ProtocolError as exc:
            return 400, protocol.error_payload(exc, kind="protocol"), {}
        except ServerBusyError as exc:
            return 503, protocol.error_payload(exc, kind="busy"), {
                "Retry-After": f"{max(exc.retry_after, 0.001):.3f}"
            }
        except ServeTimeoutError as exc:
            return 504, protocol.error_payload(exc, kind="timeout"), {}
        except ServingError as exc:
            # Missing/corrupt bundles and jobs: the caller named something
            # the store does not hold.
            return 404, protocol.error_payload(exc, kind="serving"), {}
        except (ValidationError, ReproError) as exc:
            return 400, protocol.error_payload(exc, kind=type(exc).__name__), {}
        except Exception as exc:  # noqa: BLE001 - boundary
            _LOGGER.exception("unhandled error on %s %s", method, path)
            return 500, protocol.error_payload(
                f"{type(exc).__name__}: {exc}", kind="internal"
            ), {}

    def _healthz(self):
        with self._lock:
            loaded = sorted(self._services)
        return 200, {
            "status": "ok",
            "protocol_version": protocol.PROTOCOL_VERSION,
            "uptime_seconds": round(self.clock() - self.started_at, 3),
            "default_bundle": self.default_bundle,
            "loaded_bundles": loaded,
            "jobs": self.jobs.counts(),
        }, {}

    def _bundle_name(self, requested: "str | None") -> str:
        name = requested or self.default_bundle
        if not name:
            raise ProtocolError(
                "no bundle requested and the server has no default bundle "
                "(pass 'bundle' in the request body, or start the server "
                "with --bundle)"
            )
        return name

    def _info(self, query: dict):
        name = self._bundle_name((query.get("bundle") or [None])[0])
        service = self.service(name)
        payload = protocol.bundle_info(service.bundle)
        payload["bundle"] = name
        with self._lock:
            batcher = self._batchers.get(name)
        payload["server"] = {
            "batching": self.batching,
            "max_batch_graphs": self.max_batch_graphs,
            "max_queue_graphs": self.max_queue_graphs,
            "batcher": batcher.stats() if batcher is not None else None,
        }
        return 200, payload, {}

    def _predict(self, body):
        requested, graphs = protocol.parse_predict_request(body)
        name = self._bundle_name(requested)
        include_votes = protocol.json_field(body, "votes", "boolean", False)
        outcome = self.batcher(name).submit(graphs)
        payload = protocol.prediction_payload(
            outcome.result,
            coalesced_graphs=outcome.coalesced_graphs,
            coalesced_requests=outcome.coalesced_requests,
            include_votes=include_votes,
        )
        payload["bundle"] = name
        return 200, payload, {}

    def _train(self, body):
        spec = protocol.parse_train_request(body)
        # Idempotent by bundle key: resubmitting a name whose job is
        # pending/running/done returns that job; a failed job under the
        # key is revived with this spec.
        job = self.jobs.submit(spec["name"], spec)
        if job.status == "pending":
            self._wake.set()
        status = 200 if job.status == "done" else 202
        payload = protocol.job_payload(job)
        payload["poll"] = f"/jobs/{job.id}"
        return status, payload, {}

    def _job(self, job_id: str):
        try:
            number = int(job_id)
        except ValueError:
            raise ProtocolError(f"job id must be an integer, got {job_id!r}")
        job = self.jobs.get(number)
        if job is None:
            return 404, protocol.error_payload(
                f"no job {number}", kind="not_found"
            ), {}
        return 200, protocol.job_payload(job), {}

    # ------------------------------------------------------------------ #
    # Training worker
    # ------------------------------------------------------------------ #

    def _train_loop(self) -> None:
        """Train the pending jobs, oldest first, each time ``_wake`` is set."""
        while True:
            self._wake.wait()
            self._wake.clear()
            try:
                while not self._closed and (job := self.jobs.take()) is not None:
                    self._train_job(job)
            except Exception:  # pragma: no cover - table closed mid-job
                if not self._closed:
                    raise
            if self._closed:
                return

    def _train_job(self, job) -> None:
        try:
            result = self._run_train_job(job.payload)
        except Exception as exc:  # noqa: BLE001 - recorded on the job
            _LOGGER.warning("train job %d failed: %s", job.id, exc)
            self.jobs.fail(job.id, f"{type(exc).__name__}: {exc}")
            return
        self.jobs.complete(job.id, result)
        self.invalidate(job.payload["name"])
        _LOGGER.info("trained bundle %r (job %d)", job.payload["name"], job.id)

    def _run_train_job(self, spec: dict) -> dict:
        """Execute one training job; returns the job's JSON result."""
        from repro.api import Session
        from repro.kernels.registry import lenient_spec

        if spec.get("tu_dir"):
            from repro.datasets import load_tu_directory

            dataset = load_tu_directory(spec["tu_dir"], spec["dataset"])
        else:
            from repro.datasets import load_dataset

            dataset = load_dataset(
                spec["dataset"], scale=spec["scale"], seed=spec["seed"]
            )
        graphs, targets = dataset.graphs, dataset.targets
        if spec.get("limit") is not None:
            graphs, targets = graphs[: spec["limit"]], targets[: spec["limit"]]
        kernel_spec = lenient_spec(
            spec["kernel"],
            n_prototypes=spec["prototypes"],
            seed=spec["kernel_seed"],
        )
        session = Session(self.ctx)
        bundle = session.train(
            kernel_spec,
            graphs,
            targets,
            name=spec["name"],
            c=spec["c"],
            normalize=spec["normalize"],
            seed=spec["kernel_seed"],
            metadata={"trained_by": "repro.serve.server", **{
                k: spec[k] for k in ("dataset", "scale", "seed", "limit", "tu_dir")
            }},
        )
        return {
            "bundle": spec["name"],
            "kernel_fingerprint": bundle.kernel_fingerprint,
            "training_digest": bundle.training_digest,
            "n_training_graphs": bundle.n_training_graphs,
            "train_accuracy": bundle.train_accuracy,
            "c": bundle.c,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._wake.set()
        with self._lock:
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for batcher in batchers:
            batcher.close()
        self._train_worker.join(timeout=5.0)
        self.jobs.close()


class _Handler(BaseHTTPRequestHandler):
    """Thin transport: parse → :meth:`ServeApp.handle` → JSON response."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        _LOGGER.debug("%s - %s", self.address_string(), format % args)

    def _respond(self, status: int, payload: dict, headers: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _refuse(self, status: int, message: str, *, kind: str) -> None:
        """Answer without reading the body, then drop the connection: the
        unread bytes cannot be told apart from a next request."""
        self.close_connection = True
        self._respond(
            status, protocol.error_payload(message, kind=kind),
            {"Connection": "close"},
        )

    def _dispatch(self, method: str) -> None:
        from urllib.parse import parse_qs, urlsplit

        split = urlsplit(self.path)
        query = parse_qs(split.query)
        body = None
        if method == "POST":
            declared = self.headers.get("Content-Length") or "0"
            length = int(declared) if declared.strip().isdecimal() else -1
            if length < 0:
                self._refuse(
                    400,
                    "Content-Length must be a non-negative integer, got "
                    f"{declared!r}",
                    kind="protocol",
                )
                return
            if length > MAX_BODY_BYTES:
                self._refuse(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                    kind="too_large",
                )
                return
            raw = self.rfile.read(length) if length else b"{}"
            try:
                body = json.loads(raw.decode("utf-8") or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self._respond(
                    400,
                    protocol.error_payload(
                        f"request body is not valid JSON: {exc}",
                        kind="protocol",
                    ),
                    {},
                )
                return
        status, payload, headers = self.app.handle(
            method, split.path, query, body
        )
        self._respond(status, payload, headers)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")


class ServeServer:
    """The running server: a ThreadingHTTPServer bound to a ServeApp.

    ``port=0`` binds an ephemeral port (tests); :attr:`port` reports the
    bound one. :meth:`start` serves on a background thread (tests, the
    benchmarks); :meth:`serve_forever` blocks (the CLI).
    """

    def __init__(self, app: ServeApp, *, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.app = app  # type: ignore[attr-defined]
        self._thread: "threading.Thread | None" = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServeServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever(poll_interval=0.5)

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.app.close()

    def __enter__(self) -> "ServeServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def make_server(
    store,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    default_bundle: "str | None" = None,
    ctx=None,
    batching: bool = True,
    max_batch_graphs: int = 64,
    max_queue_graphs: int = 512,
    request_timeout: float = 30.0,
    jobs_db: "str | None" = None,
) -> ServeServer:
    """Build a :class:`ServeServer` over ``store`` (address or instance)."""
    app = ServeApp(
        store,
        ctx=ctx,
        default_bundle=default_bundle,
        batching=batching,
        max_batch_graphs=max_batch_graphs,
        max_queue_graphs=max_queue_graphs,
        request_timeout=request_timeout,
        jobs_db=jobs_db,
    )
    return ServeServer(app, host=host, port=port)
