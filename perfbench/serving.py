"""The serving workload: ``python -m repro.serve serve`` under an open loop.

Per run, in this process and outside the timed region: present the
training set and the request pool for the seed, train the frozen bundle
with ``Session.train`` into a fresh ``dir:`` store, and compute every
request template's expected labels with a solo
``PredictionService.predict`` (the oracle). Then spawn the server
``setup_spawns`` times — ``setup_s`` is spawn → first 200 reply to
``/predict``, which loads, verifies and prepares the bundle — drive the
open loop against the last one in segments, and check every reply.
Every time is reported in reference-host seconds (:mod:`hostspeed`):
the host reference is timed between spawns, between in-process samples
and between load segments, always while the server is idle.

With tracing, an untraced server and a traced one (started through
``serve_launcher.py``) take the same schedule in turn; their p50
latencies give the tracing overhead.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from urllib.parse import urlsplit

import numpy as np

import benchenv
import hostspeed
import layers
import loadgen
import tracing
import workloads

#: Name of the bundle in the run's store, and the server's default bundle.
BUNDLE = "bench"
#: Seconds a spawned server may take to answer its first request.
START_TIMEOUT = 120.0


@dataclass
class Inputs:
    pool: list
    truth: np.ndarray
    #: Pool indices of each request template.
    templates: list
    bodies: list
    #: Solo-predict labels of each template (the oracle).
    expected: list
    service: object
    descriptors: dict


def prepare_inputs(workload, seed: int, store_address: str) -> Inputs:
    from repro import ExecutionContext, Session
    from repro.datasets import load_dataset
    from repro.serve.protocol import graph_to_wire

    training = load_dataset("MUTAG", scale=workload.train_scale, seed=workload.train_seed)
    pool_set = load_dataset("MUTAG", scale=workload.pool_scale, seed=workload.pool_seed)
    pool = workloads.presented(pool_set.graphs, seed)
    truth = np.asarray(pool_set.targets)
    # Every size from 1 to max_request_graphs has the same number of
    # templates; the seed picks their graphs.
    rng = np.random.default_rng([seed, 1])
    templates = []
    for index in range(workload.templates):
        size = min(1 + index % workload.max_request_graphs, len(pool))
        templates.append(sorted(int(i) for i in rng.choice(len(pool), size, replace=False)))
    session = Session(ExecutionContext(store=store_address))
    session.train(workloads.kernel_spec(workload), training.graphs, training.targets,
                  name=BUNDLE)
    service = session.service(BUNDLE)
    expected = [
        [int(label) for label in service.predict([pool[i] for i in t]).labels]
        for t in templates
    ]
    bodies = [
        json.dumps({"graphs": [graph_to_wire(pool[i]) for i in t]}).encode()
        for t in templates
    ]
    bundle = service.bundle
    descriptors = {
        "training": workloads.collection_descriptors(bundle.training_graphs,
                                                     bundle.training_labels),
        "levels": workloads.level_descriptors(
            bundle.kernel.prepare(list(bundle.training_graphs))
        ),
        "pool": workloads.collection_descriptors(pool, truth),
        "templates": len(templates),
    }
    return Inputs(pool, truth, templates, bodies, expected, service, descriptors)


def inprocess_times(inputs: Inputs, repeats: int):
    """Serve ``cell_s`` and ``gram_s`` samples: the whole pool classified
    in this process, and its conditioned kernel rows alone — serving
    compute with no HTTP, queueing or batching — each between two
    timings of the host reference. Returns ``({metric: [reference-host
    seconds]}, calibrator)``."""
    calibrator = hostspeed.Calibrator()
    before = calibrator.mark()
    samples: dict = {"cell_s": [], "gram_s": []}
    calls = (("cell_s", inputs.service.predict),
             ("gram_s", inputs.service.conditioned_rows))
    for _ in range(repeats):
        for metric, call in calls:
            batch = workloads.fresh(inputs.pool)
            start = time.perf_counter()
            call(batch)
            seconds = time.perf_counter() - start
            after = calibrator.mark()
            samples[metric].append(seconds * calibrator.factor(before))
            before = after
    return samples, calibrator


def server_command(store_address: str, workload, spans=None) -> list:
    serve = ["serve", "--store", store_address, "--bundle", BUNDLE, "--port", "0",
             "--request-timeout", str(workload.request_timeout)]
    if spans is None:
        return [sys.executable, "-m", "repro.serve", *serve]
    return [sys.executable, str(benchenv.BENCH_DIR / "serve_launcher.py"),
            "--spans", str(spans), "--", *serve]


def _request(host: str, port: int, method: str, path: str, body=None):
    connection = http.client.HTTPConnection(host, port, timeout=START_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        connection.close()


def start_server(command, warm_body: bytes):
    """Spawn a server and send it one request; returns ``(child, host,
    port, setup_s)``, ``setup_s`` running from spawn to the first 200."""
    child = benchenv.Child(command)
    try:
        _, line = child.wait_line("serving on ", START_TIMEOUT)
        url = urlsplit(line.split("serving on ", 1)[1].strip())
        status, _ = _request(url.hostname, url.port, "POST",
                             f"/predict?rid={layers.SETUP_RID}", warm_body)
        setup = time.perf_counter() - child.started
        if status != 200:
            raise benchenv.ChildError(f"first /predict answered HTTP {status}")
    except BaseException:
        child.stop()
        raise
    return child, url.hostname, url.port, setup


@dataclass
class Phase:
    records: list
    #: Seconds from spawn to the first 200 reply, raw and in
    #: reference-host seconds.
    setup_raw_s: float
    setup_s: float
    batcher: dict
    peak_rss_mb: float
    #: Wall seconds under load, summed over the segments.
    loaded_s: float
    #: ``hostspeed`` factor over the marks from the warm-up to the end.
    host_factor: float

    def latency_ms(self, q: float) -> float:
        """The ``q``-th latency percentile in reference-host milliseconds."""
        return self.host_factor * loadgen.percentile(
            [1e3 * record.latency for record in self.records], q
        )


def load_phase(command, schedule, inputs: Inputs, workload, calibrator) -> Phase:
    """One server: spawned, warmed, loaded with ``schedule`` in
    ``workload.segments`` segments, stopped. ``calibrator`` has just
    been marked; the host reference is timed again after the warm-up
    request and after every segment, while the server is idle.

    The schedule runs in reference-host time: each segment's due times
    are stretched by the inverse of the host factor so far, so a host
    running at half speed is offered half the rate — the same load
    relative to its speed — and latencies in reference-host
    milliseconds do not grow with queueing that a slow spell caused.
    """
    before = len(calibrator.marks) - 1
    child, host, port, setup = start_server(command, inputs.bodies[0])
    with child:
        warm = calibrator.mark()
        setup_s = setup * calibrator.factor(before)
        parts = loadgen.run_http(
            host, port, loadgen.split(schedule, workload.segments), inputs.bodies,
            connections=workload.connections, timeout=workload.request_timeout,
            stretch=lambda: 1.0 / calibrator.factor(warm), between=calibrator.mark,
        )
        _, info = _request(host, port, "GET", "/info")
        peak_rss = benchenv.peak_rss_mb(child.pid)
    batcher = ((info or {}).get("server") or {}).get("batcher") or {}
    records = [record for part in parts for record in part]
    loaded_s = sum(max(r.done for r in part) - min(r.issued for r in part)
                   for part in parts if part)
    return Phase(records, setup, setup_s, batcher, peak_rss, loaded_s,
                 calibrator.factor(warm))


def served_accuracy(records, inputs: Inputs) -> float:
    """Share of served graph labels equal to the pool's true classes."""
    correct = total = 0
    for record in records:
        labels = (record.payload or {}).get("labels") if record.status == 200 else None
        if labels is None:
            continue
        truth = [int(inputs.truth[i]) for i in inputs.templates[record.template]]
        correct += sum(int(a == b) for a, b in zip(labels, truth))
        total += len(truth)
    return correct / total if total else 0.0


def load_descriptors(phase: Phase, schedule, inputs: Inputs, workload) -> dict:
    records = phase.records
    sizes = Counter(len(inputs.templates[item.template]) for item in schedule)
    span = schedule[-1].due if schedule else 0.0
    ok = sum(r.status == 200 for r in records)
    return {
        "requests": len(records),
        "segments": workload.segments,
        # One generator thread; never more connections than cores.
        "generator": {"threads": 1, "connections": workload.connections,
                      "nproc": os.cpu_count()},
        "request_sizes": {str(size): sizes[size] for size in sorted(sizes)},
        # Requests per reference-host second, both of them.
        "offered_rate": (len(schedule) - 1) / span if span > 0 else None,
        "achieved_rate": (ok / (phase.loaded_s * phase.host_factor)
                          if phase.loaded_s > 0 else None),
        "achieved_wall_rate": ok / phase.loaded_s if phase.loaded_s > 0 else None,
        "late_p95_ms": loadgen.percentile([1e3 * r.lateness for r in records], 95),
        "tail_percentile_supported": loadgen.tail_percentile(len(records)),
        "raw_latency_ms": {
            q: loadgen.percentile([1e3 * r.latency for r in records], q) for q in (50, 95)
        },
        "host_factor": phase.host_factor,
        "setup_raw_s": phase.setup_raw_s,
        "batcher": phase.batcher,
    }


def run(workload, seed: int, seconds: float, trace: bool, work) -> dict:
    from repro.alignment import level_sizes

    started = time.perf_counter()
    store_address = f"dir:{work / 'store'}"
    inputs = prepare_inputs(workload, seed, store_address)
    rng = np.random.default_rng([workload.traffic_seed, 3])
    count = workload.requests or max(1, round(workload.rate * seconds))
    result = {"descriptors": inputs.descriptors, "metrics": None, "per_layer": None,
              "prepare_wall_s": time.perf_counter() - started}
    if trace:
        schedule = loadgen.poisson_schedule(rng, rate=workload.rate, count=max(1, count // 2),
                                            templates=len(inputs.templates))
        phases = []
        spans = work / "server-spans.jsonl"
        for traced_server in (None, spans):
            calibrator = hostspeed.Calibrator()
            calibrator.mark()
            phases.append(load_phase(server_command(store_address, workload, traced_server),
                                     schedule, inputs, workload, calibrator))
        plain, traced = phases
        report = layers.summarize(
            tracing.load_spans(spans), kind="serve",
            level_sizes=level_sizes(workload.prototypes, workload.levels),
            missing=json.loads(spans.with_name(spans.name + ".missing.json").read_text()),
            client=traced.records, batcher=traced.batcher,
            overhead=traced.latency_ms(50) / plain.latency_ms(50) - 1.0,
        )
        result["per_layer"] = report
        predict = report["serve.predict_s"]["value"] or 0.0
        result["shares"] = {
            f"{name} / serve.predict_s":
                (report[name]["value"] or 0.0) / predict if predict else None
            for name in ("serve.prepare_new_s", "serve.cross_s", "serve.vote_s")
        }
        kept = benchenv.trace_path(workload.name, seed)
        shutil.copyfile(spans, kept)
        result["trace_file"] = str(kept.relative_to(benchenv.ROOT))
    else:
        inprocess, inprocess_host = inprocess_times(inputs, workload.inprocess_repeats)
        schedule = loadgen.poisson_schedule(rng, rate=workload.rate, count=count,
                                            templates=len(inputs.templates))
        calibrator = hostspeed.Calibrator()
        before = calibrator.mark()
        setups = []
        for _ in range(workload.setup_spawns - 1):
            child, _, _, setup = start_server(server_command(store_address, workload),
                                              inputs.bodies[0])
            child.stop()
            after = calibrator.mark()
            setups.append(setup * calibrator.factor(before))
            before = after
        phase = load_phase(server_command(store_address, workload), schedule, inputs,
                           workload, calibrator)
        setups.append(phase.setup_s)
        phases = [phase]
        # All times in reference-host units (hostspeed.py).
        result["metrics"] = {
            "cell_s": statistics.median(inprocess["cell_s"]),
            "gram_s": statistics.median(inprocess["gram_s"]),
            "cv_accuracy": served_accuracy(phase.records, inputs),
            "predict_p50_ms": phase.latency_ms(50),
            "predict_p95_ms": phase.latency_ms(95),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": phase.peak_rss_mb,
        }
        result["samples"] = {**inprocess, "setup_s": setups,
                             "inprocess_reference_s": inprocess_host.marks}
    result["host_reference_s"] = calibrator.marks
    result["wall_s"] = time.perf_counter() - started
    records = [record for phase in phases for record in phase.records]
    failures = workloads.reply_failures(records, inputs.expected)
    result["attempted"] = len(records)
    result["failed"] = len(failures)
    result["failures"] = failures[:20]
    result["load"] = [load_descriptors(phase, schedule, inputs, workload)
                      for phase in phases]
    return result
