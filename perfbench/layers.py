"""Layer hooks and the per-layer metrics computed from their spans.

The hooks wrap public entry points of the layers on the two timed paths
(alignment, quantum, kernels, backend, engine, ml, serve, store); span
names are ``<layer>.<step>``. Metric suffixes: ``_s`` is seconds summed
over the run as *self time* (span minus child spans), except the
``serve.*`` and ``store.*`` seconds, which sum whole span durations so
that the stages of a predict read as shares of ``serve.predict_s``;
``_ms`` is per request; counts are run totals.

Every metric has a status: ``ok``; ``n/a`` when its layer is off the
workload's timed path (the value is then the measured zero); or
``missing`` when a hook it needs found no target — then it has no value.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass

from loadgen import percentile
from tracing import Hook, self_times

_HAQJSK = "repro.kernels.haqjsk"
_DB = "repro.alignment.depth_based:DBRepresentationExtractor"
_CONDITIONER = "repro.ml.kernel_utils:GramConditioner"

#: Request id of the request that warms a server up before the load.
SETUP_RID = "setup"
SETUP_CTX = f"req-{SETUP_RID}"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


class ServeLinks:
    """Attributes serve spans to requests across the server's threads.

    A request is decoded, submitted and encoded on its handler thread but
    predicted on the batcher's dispatcher thread, possibly together with
    other requests: ``submit`` records which request owns its first graph
    object and ``predict`` claims the requests whose graphs it received.
    ``conditioned_rows`` marks the training collection, so the first
    predict's training ``prepare`` is told apart from the newcomers'.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self._lock = threading.Lock()
        self._owners: dict = {}
        self._local = threading.local()

    def handle(self, args, kwargs) -> dict:
        query = _arg(args, kwargs, 3, "query") or {}
        return {"ctx": f"req-{(query.get('rid') or ['-'])[0]}"}

    def submit(self, args, kwargs) -> dict:
        graphs = list(_arg(args, kwargs, 1, "graphs") or ())
        current = self.tracer.current()
        if graphs and current is not None:
            with self._lock:
                self._owners[id(graphs[0])] = current.ctx
        return {"graphs": len(graphs)}

    def predict(self, args, kwargs) -> dict:
        graphs = list(_arg(args, kwargs, 1, "graphs") or ())
        with self._lock:
            owners = [self._owners.pop(id(g)) for g in graphs if id(g) in self._owners]
        return {"ctx": "+".join(owners) or "in-process", "requests": owners,
                "graphs": len(graphs)}

    def rows(self, args, kwargs) -> dict:
        training = args[0].bundle.training_graphs
        self._local.training_first = training[0] if len(training) else None
        return {}

    def prepare(self, args, kwargs) -> dict:
        graphs = _arg(args, kwargs, 1, "graphs") or ()
        first = getattr(self._local, "training_first", None)
        train = first is not None and len(graphs) > 0 and graphs[0] is first
        return {"graphs": len(graphs), "role": "train" if train else "batch"}


def _mixed(args, kwargs) -> dict:
    stack = _arg(args, kwargs, 1, "stack_a")
    pairs = _arg(args, kwargs, 3, "idx_a")
    return {"m": int(stack.shape[-1]), "pairs": int(len(pairs))}


def _kmeans(args, kwargs, result) -> dict:
    return {"iters": int(result.n_iterations), "converged": bool(result.converged)}


def _smo(args, kwargs, result) -> dict:
    machine = args[0]
    return {"iters": int(machine.n_iter_),
            "capped": bool(machine.n_iter_ >= machine.max_iter)}


def layer_hooks(tracer) -> "list[Hook]":
    """Every hook, for cells and server alike: serve hooks stay idle in a
    cell process, cell-only ones in a server."""
    links = ServeLinks(tracer)
    return [
        Hook("backend.mixed", ("repro.backend.policy:ComputePolicy.mixed_entropies",),
             enter=_mixed),
        Hook("kernels.tile", ("repro.engine.batched:BatchedEngine.compute_tile",)),
        Hook("engine.execute", ("repro.engine.base:GramEngine.execute",)),
        Hook("kernels.prepare", (f"{_HAQJSK}:HAQJSKKernelD.prepare",),
             enter=links.prepare),
        Hook("alignment.db", (f"{_DB}.fit_transform", f"{_DB}.transform")),
        Hook("alignment.kmeans", ("repro.alignment.prototypes:kmeans",), exit=_kmeans),
        Hook("alignment.align", (f"{_HAQJSK}:correspondence_matrices",
                                 f"{_HAQJSK}:aligned_adjacency",
                                 f"{_HAQJSK}:aligned_density")),
        Hook("quantum.density", (f"{_HAQJSK}:graph_density_matrix",)),
        Hook("ml.condition", (f"{_CONDITIONER}.fit", f"{_CONDITIONER}.transform",
                              f"{_CONDITIONER}.transform_cross")),
        Hook("ml.select_c", ("repro.ml.cross_validation:select_c",)),
        Hook("ml.smo", ("repro.ml.svm:BinarySVM.fit",), exit=_smo),
        Hook("ml.vote", ("repro.ml.multiclass:KernelSVC.vote_margins",)),
        Hook("serve.handle", ("repro.serve.server:ServeApp.handle",),
             enter=links.handle),
        Hook("serve.decode", ("repro.serve.protocol:parse_predict_request",)),
        Hook("serve.encode", ("repro.serve.protocol:prediction_payload",)),
        Hook("serve.submit", ("repro.serve.batcher:MicroBatcher.submit",),
             enter=links.submit),
        Hook("serve.predict", ("repro.serve.service:PredictionService.predict",),
             enter=links.predict),
        Hook("serve.rows", ("repro.serve.service:PredictionService.conditioned_rows",),
             enter=links.rows),
        Hook("store.bundle_load", ("repro.serve.bundle:ModelBundle.load",)),
        Hook("serve.verify", ("repro.serve.bundle:ModelBundle.verify",)),
    ]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: Span names whose hooks the metric needs.
    hooks: tuple = ()
    #: Workload kinds whose timed path runs the layer.
    paths: tuple = ("cell", "serve")
    #: On the result line (BENCHMARK.json ``per_layer``). A time whose
    #: layer is off some workload's path stays in the report only: there
    #: it would read zero on every run, which measures nothing.
    summary: bool = True


_CELL = ("cell",)
_SERVE = ("serve",)
_REQUEST = ("serve.handle", "serve.submit", "serve.predict")

METRICS = (
    Metric("backend.mixed_s", "s", ("backend.mixed",)),
    *(Metric(f"backend.mixed_s.l{h}", "s", ("backend.mixed",)) for h in (1, 2, 3, 4)),
    # With 32 prototypes m_5 = 2: closed-form spectra, no backend call.
    Metric("backend.mixed_s.l5", "s", ("backend.mixed",), summary=False),
    Metric("backend.mixed_states", "count", ("backend.mixed",)),
    Metric("kernels.tile_self_s", "s", ("kernels.tile", "backend.mixed")),
    Metric("engine.tiles", "count", ("kernels.tile",)),
    Metric("engine.sched_self_s", "s", ("engine.execute", "kernels.tile")),
    Metric("alignment.db_s", "s", ("alignment.db",)),
    Metric("alignment.kmeans_s", "s", ("alignment.kmeans",), _CELL, summary=False),
    Metric("alignment.kmeans_fits", "count", ("alignment.kmeans",), _CELL),
    Metric("alignment.kmeans_iters", "count", ("alignment.kmeans",), _CELL),
    Metric("alignment.kmeans_converged_frac", "fraction", ("alignment.kmeans",), _CELL),
    Metric("alignment.align_s", "s", ("alignment.align",)),
    Metric("quantum.density_s", "s", ("quantum.density",)),
    Metric("kernels.prepare_self_s", "s", ("kernels.prepare", "alignment.db",
                                           "alignment.kmeans", "alignment.align",
                                           "quantum.density")),
    Metric("ml.condition_s", "s", ("ml.condition",)),
    Metric("ml.select_c_s", "s", ("ml.select_c", "ml.smo", "ml.vote"), _CELL,
           summary=False),
    Metric("ml.smo_s", "s", ("ml.smo",), _CELL, summary=False),
    Metric("ml.smo_fits", "count", ("ml.smo",), _CELL),
    Metric("ml.smo_iters", "count", ("ml.smo",), _CELL),
    Metric("ml.smo_capped", "count", ("ml.smo",), _CELL),
    Metric("serve.decode_s", "s", ("serve.decode", "serve.handle"), _SERVE,
           summary=False),
    Metric("serve.encode_s", "s", ("serve.encode", "serve.handle"), _SERVE,
           summary=False),
    Metric("serve.transport_ms", "ms", ("serve.handle",), _SERVE, summary=False),
    Metric("serve.wait_ms.p50", "ms", _REQUEST, _SERVE, summary=False),
    Metric("serve.wait_ms.p95", "ms", _REQUEST, _SERVE, summary=False),
    Metric("serve.batches", "count", (), _SERVE),
    Metric("serve.requests_per_batch", "requests/batch", (), _SERVE),
    Metric("serve.predict_s", "s", _REQUEST, _SERVE, summary=False),
    Metric("serve.prepare_new_s", "s", (*_REQUEST, "kernels.prepare", "serve.rows"),
           _SERVE, summary=False),
    Metric("serve.cross_s", "s", (*_REQUEST, "engine.execute"), _SERVE, summary=False),
    Metric("serve.vote_s", "s", (*_REQUEST, "ml.condition", "ml.vote"), _SERVE,
           summary=False),
    Metric("store.bundle_load_s", "s", ("store.bundle_load",), _SERVE, summary=False),
    Metric("serve.verify_s", "s", ("serve.verify",), _SERVE, summary=False),
    Metric("serve.train_prepare_s", "s", ("kernels.prepare", "serve.rows"), _SERVE,
           summary=False),
    Metric("loadgen.sent", "count", (), _SERVE),
    Metric("loadgen.ok", "count", (), _SERVE),
    Metric("loadgen.failed", "count", (), _SERVE),
    Metric("loadgen.late_p95_ms", "ms", (), _SERVE, summary=False),
    Metric("trace.overhead_frac", "fraction"),
)


def _values(spans, level_sizes, client, batcher) -> dict:
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    named = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    def self_sum(name, keep=lambda span: True) -> float:
        return sum(own[span.id] for span in named[name] if keep(span))

    def total(selected) -> float:
        return sum(span.duration for span in selected)

    # Predicts that served load requests, not the set-up request.
    load = {
        span.id for span in named["serve.predict"]
        if span.attrs.get("requests") and SETUP_CTX not in span.attrs["requests"]
    }

    def in_load(span) -> bool:
        parent = span.parent
        while parent is not None:
            if parent in load:
                return True
            parent = by_id[parent].parent if parent in by_id else None
        return False

    def from_load_request(span) -> bool:
        return span.ctx.startswith("req-") and span.ctx != SETUP_CTX

    v: dict = {}
    v["backend.mixed_s"] = self_sum("backend.mixed")
    for h, m in enumerate(level_sizes, start=1):
        v[f"backend.mixed_s.l{h}"] = self_sum(
            "backend.mixed", lambda span, m=m: span.attrs.get("m") == m
        )
    v["backend.mixed_states"] = sum(s.attrs.get("pairs", 0) for s in named["backend.mixed"])
    v["kernels.tile_self_s"] = self_sum("kernels.tile")
    v["engine.tiles"] = len(named["kernels.tile"])
    v["engine.sched_self_s"] = self_sum("engine.execute")
    v["kernels.prepare_self_s"] = self_sum("kernels.prepare")
    v["alignment.db_s"] = self_sum("alignment.db")
    fits = named["alignment.kmeans"]
    v["alignment.kmeans_s"] = self_sum("alignment.kmeans")
    v["alignment.kmeans_fits"] = len(fits)
    v["alignment.kmeans_iters"] = sum(s.attrs.get("iters", 0) for s in fits)
    v["alignment.kmeans_converged_frac"] = (
        sum(bool(s.attrs.get("converged")) for s in fits) / len(fits) if fits else 0.0
    )
    v["alignment.align_s"] = self_sum("alignment.align")
    v["quantum.density_s"] = self_sum("quantum.density")
    v["ml.condition_s"] = self_sum("ml.condition")
    v["ml.select_c_s"] = self_sum("ml.select_c")
    machines = named["ml.smo"]
    v["ml.smo_s"] = self_sum("ml.smo")
    v["ml.smo_fits"] = len(machines)
    v["ml.smo_iters"] = sum(s.attrs.get("iters", 0) for s in machines)
    v["ml.smo_capped"] = sum(bool(s.attrs.get("capped")) for s in machines)

    v["serve.decode_s"] = self_sum("serve.decode", from_load_request)
    v["serve.encode_s"] = self_sum("serve.encode", from_load_request)
    v["serve.predict_s"] = total(by_id[i] for i in load)
    v["serve.prepare_new_s"] = total(
        s for s in named["kernels.prepare"]
        if s.attrs.get("role") != "train" and in_load(s)
    )
    v["serve.cross_s"] = total(s for s in named["engine.execute"] if in_load(s))
    v["serve.vote_s"] = total(
        s for s in named["ml.condition"] + named["ml.vote"] if in_load(s)
    )
    v["store.bundle_load_s"] = total(named["store.bundle_load"])
    v["serve.verify_s"] = total(named["serve.verify"])
    v["serve.train_prepare_s"] = total(
        s for s in named["kernels.prepare"] if s.attrs.get("role") == "train"
    )

    predicted = {}
    for i in load:
        for request in by_id[i].attrs["requests"]:
            predicted[request] = by_id[i].duration
    waits = [
        1e3 * (s.duration - predicted[s.ctx])
        for s in named["serve.submit"] if s.ctx in predicted
    ]
    v["serve.wait_ms.p50"] = percentile(waits, 50)
    v["serve.wait_ms.p95"] = percentile(waits, 95)
    handled = {s.ctx: s.duration for s in named["serve.handle"]}
    transport = [
        1e3 * ((r.done - r.sent) - handled[f"req-{r.rid}"])
        for r in client if r.status == 200 and f"req-{r.rid}" in handled
    ]
    v["serve.transport_ms"] = percentile(transport, 50)

    stats = batcher or {}
    batches = int(stats.get("batches", 0))
    v["serve.batches"] = batches
    v["serve.requests_per_batch"] = stats.get("requests", 0) / batches if batches else 0.0
    ok = sum(r.status == 200 for r in client)
    v["loadgen.sent"] = len(client)
    v["loadgen.ok"] = ok
    v["loadgen.failed"] = len(client) - ok
    v["loadgen.late_p95_ms"] = percentile([1e3 * r.lateness for r in client], 95)
    return v


def summarize(spans, *, kind: str, level_sizes, missing, client=(),
              batcher=None, overhead: float = 0.0) -> dict:
    """Every per-layer metric as ``{"value", "unit", "status"}``.

    ``kind`` is the workload kind (``cell`` or ``serve``); ``missing``
    maps hook names to why their targets were not found; ``client`` holds
    the load generator's records and ``batcher`` the server's batcher
    statistics from ``GET /info``.
    """
    values = _values(spans, list(level_sizes), list(client), batcher)
    values["trace.overhead_frac"] = overhead
    report = {}
    for metric in METRICS:
        lost = {hook: missing[hook] for hook in metric.hooks if hook in missing}
        if lost:
            report[metric.name] = {"value": None, "unit": metric.unit,
                                   "status": "missing", "hooks": lost}
            continue
        report[metric.name] = {
            "value": values.get(metric.name, 0.0),
            "unit": metric.unit,
            "status": "ok" if kind in metric.paths else "n/a",
        }
    return report


def summary_line(report: dict) -> dict:
    """The result-line metrics: summary metrics that have a value."""
    return {
        metric.name: {"value": report[metric.name]["value"], "unit": metric.unit}
        for metric in METRICS
        if metric.summary and report[metric.name]["status"] != "missing"
    }
