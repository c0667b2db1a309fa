"""The serving wire protocol — JSON codecs shared by server, CLI and clients.

One module owns every translation between library objects and the JSON
documents that cross the HTTP boundary, so the server handlers stay pure
routing and the CLI's ``info --json`` output is byte-compatible with the
server's ``GET /info`` body (one formatter, two transports).

Graphs travel as edge lists, the most compact faithful encoding of the
library's undirected weighted :class:`~repro.graphs.graph.Graph`::

    {"n": 5, "edges": [[0, 1], [1, 2, 0.5]], "labels": [0, 1, 0, 1, 2]}

``labels`` and per-edge weights are optional; a request is a list of such
documents. Every malformed field raises a named
:class:`~repro.errors.ProtocolError` (→ HTTP 400) pointing at the graph
index and field, never a raw ``KeyError``/``TypeError`` from the depths
of graph construction.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GraphError, ProtocolError

#: Protocol revision, reported by /healthz and /info so clients can
#: detect incompatible servers before sending a payload.
PROTOCOL_VERSION = 1


# ---------------------------------------------------------------------- #
# JSON safety
# ---------------------------------------------------------------------- #


def json_safe(value):
    """Recursively convert numpy scalars/arrays so ``json.dumps`` works.

    Labels may be numpy integers, conditioner statistics numpy floats,
    metadata arbitrary nested dicts — one normaliser covers them all.
    """
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


# ---------------------------------------------------------------------- #
# Graph codec
# ---------------------------------------------------------------------- #


def graph_to_wire(graph) -> dict:
    """Encode a :class:`Graph` as the wire document."""
    edges = []
    for u, v, w in graph.edges():
        if w == 1.0:
            edges.append([int(u), int(v)])
        else:
            edges.append([int(u), int(v), float(w)])
    doc: dict = {"n": int(graph.n_vertices), "edges": edges}
    if graph.labels is not None:
        doc["labels"] = [int(x) for x in graph.labels]
    if graph.name:
        doc["name"] = str(graph.name)
    return doc


def graph_from_wire(doc, *, index: int = 0):
    """Decode one wire document into a :class:`Graph`.

    ``index`` locates the graph inside the request for error messages.
    """
    from repro.graphs.graph import Graph

    where = f"graphs[{index}]"
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"{where}: expected an object with 'n' and 'edges', got "
            f"{type(doc).__name__}"
        )
    try:
        n = int(doc["n"])
    except KeyError:
        raise ProtocolError(f"{where}: missing vertex count 'n'") from None
    except (TypeError, ValueError):
        raise ProtocolError(
            f"{where}: 'n' must be an integer, got {doc.get('n')!r}"
        ) from None
    if n < 0:
        raise ProtocolError(f"{where}: 'n' must be >= 0, got {n}")
    edges = doc.get("edges", [])
    if not isinstance(edges, (list, tuple)):
        raise ProtocolError(
            f"{where}: 'edges' must be a list of [u, v] or [u, v, weight]"
        )
    adjacency = np.zeros((n, n), dtype=float)
    for e, edge in enumerate(edges):
        if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
            raise ProtocolError(
                f"{where}: edges[{e}] must be [u, v] or [u, v, weight], "
                f"got {edge!r}"
            )
        try:
            u, v = int(edge[0]), int(edge[1])
            w = float(edge[2]) if len(edge) == 3 else 1.0
        except (TypeError, ValueError):
            raise ProtocolError(
                f"{where}: edges[{e}] has non-numeric entries: {edge!r}"
            ) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ProtocolError(
                f"{where}: edges[{e}] references vertex outside 0..{n - 1}: "
                f"{edge!r}"
            )
        adjacency[u, v] = w
        adjacency[v, u] = w
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, (list, tuple)) or len(labels) != n:
            raise ProtocolError(
                f"{where}: 'labels' must be a list of {n} integers"
            )
        try:
            labels = [int(x) for x in labels]
        except (TypeError, ValueError):
            raise ProtocolError(
                f"{where}: 'labels' has non-integer entries"
            ) from None
    try:
        return Graph(adjacency, labels=labels, name=str(doc.get("name", "")))
    except GraphError as exc:
        raise ProtocolError(f"{where}: {exc}") from exc


def graphs_from_wire(docs) -> list:
    """Decode a request's graph list (named errors carry the index)."""
    if not isinstance(docs, (list, tuple)):
        raise ProtocolError(
            f"'graphs' must be a list of graph objects, got "
            f"{type(docs).__name__}"
        )
    return [graph_from_wire(doc, index=i) for i, doc in enumerate(docs)]


# ---------------------------------------------------------------------- #
# Requests
# ---------------------------------------------------------------------- #


def parse_predict_request(payload) -> "tuple[str | None, list]":
    """``(bundle_name_or_None, graphs)`` from a ``POST /predict`` body."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    bundle = payload.get("bundle")
    if bundle is not None and not isinstance(bundle, str):
        raise ProtocolError(
            f"'bundle' must be a string bundle name, got {bundle!r}"
        )
    if "graphs" not in payload:
        raise ProtocolError("request body is missing 'graphs'")
    return bundle, graphs_from_wire(payload["graphs"])


#: ``POST /train`` fields besides ``name``: ``(JSON type, default)``,
#: where a ``None`` default also admits ``null``.
TRAIN_FIELDS = {
    "dataset": ("string", "MUTAG"),
    "scale": ("number", 0.25),
    "seed": ("integer", 0),
    "limit": ("integer", None),
    "tu_dir": ("string", None),
    "kernel": ("string", "HAQJSK(D)"),
    "prototypes": ("integer", 16),
    "kernel_seed": ("integer", 0),
    "c": ("number", None),
    "normalize": ("boolean", False),
}

_JSON_TYPES = {
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and math.isfinite(v)
    ),
    "string": lambda v: isinstance(v, str),
}


def json_field(payload: dict, field: str, kind: str, default=None):
    """``payload[field]``, or ``default`` when absent, as JSON type ``kind``.

    ``kind`` is ``"boolean"``, ``"integer"``, ``"number"`` or
    ``"string"``. Nothing is coerced: an integer field takes integral
    numbers only (``2.0`` reads as ``2``), a boolean field only ``true``
    or ``false``. ``null`` stands for an absent value only where
    ``default`` is ``None``. Anything else is a :class:`ProtocolError`
    naming the field.
    """
    value = payload.get(field, default)
    if value is None and default is None:
        return None
    if kind == "integer" and isinstance(value, float) and value.is_integer():
        value = int(value)
    if not _JSON_TYPES[kind](value):
        article = "an" if kind == "integer" else "a"
        raise ProtocolError(f"{field!r} must be {article} {kind}, got {value!r}")
    return float(value) if kind == "number" else value


def parse_train_request(payload) -> dict:
    """Validated keyword set for a ``POST /train`` body.

    The accepted fields mirror the CLI ``train`` flags; unknown fields
    are refused by name so typos fail loudly instead of training a
    default the caller did not ask for, and each field must hold its
    JSON type (:data:`TRAIN_FIELDS`, :func:`json_field`).
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    known = {"name", *TRAIN_FIELDS}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ProtocolError(
            f"unknown train fields {unknown}; accepted: {sorted(known)}"
        )
    name = payload.get("name")
    if not name or not isinstance(name, str):
        raise ProtocolError("'name' (the bundle name to train) is required")
    return {"name": name} | {
        field: json_field(payload, field, kind, default)
        for field, (kind, default) in TRAIN_FIELDS.items()
    }


# ---------------------------------------------------------------------- #
# Responses
# ---------------------------------------------------------------------- #


def prediction_payload(
    result,
    *,
    coalesced_graphs: int,
    coalesced_requests: int,
    include_votes: bool = False,
) -> dict:
    """JSON document for one request's slice of a prediction.

    ``batch`` reports the coalescing accounting: how many graphs and how
    many concurrent requests shared the cross-block evaluation this
    request rode in (1/own-size when it reached an idle batcher, or
    batching is off).
    """
    payload = {
        "labels": [json_safe(label) for label in result.labels],
        "classes": [json_safe(c) for c in result.classes],
        "margins": [[float(m) for m in row] for row in result.margins],
        "batch": {
            "coalesced_graphs": int(coalesced_graphs),
            "coalesced_requests": int(coalesced_requests),
        },
    }
    if include_votes:
        payload["votes"] = [[float(v) for v in row] for row in result.votes]
    return payload


def bundle_info(bundle) -> dict:
    """The machine-readable bundle summary.

    THE shared formatter: ``python -m repro.serve info --json`` and the
    server's ``GET /info`` both emit exactly this document, so tooling
    that reads one reads the other. Always carries the two content
    identities (``kernel_fingerprint``, ``training_digest``).
    """
    return json_safe(bundle.info())


def job_payload(job) -> dict:
    """JSON document for one :class:`~repro.serve.jobs.TrainJob` snapshot."""
    return {
        "id": int(job.id),
        "kind": job.kind,
        "key": job.key,
        "status": job.status,
        "attempts": int(job.attempts),
        "result": json_safe(job.result),
        "error": job.error,
        "created_at": float(job.created_at),
        "updated_at": float(job.updated_at),
    }


def error_payload(message: str, *, kind: str = "error") -> dict:
    return {"error": {"kind": kind, "message": str(message)}}
