"""Campaign DAGs: content-keyed cells with dependencies.

A campaign is a DAG of :class:`CampaignNode` cells — Gram computations,
CV evaluations, timing probes, report rows. Each node carries a *content
key* derived from exactly the inputs that determine its result values
(:func:`node_key`): the kernel's :meth:`KernelSpec.fingerprint`, the
dataset's collection digest, the value-relevant slice of the execution
context, and the node's own parameters. Two nodes with equal keys compute
equal results, so the runner can skip any node whose key already has a
recorded result — which is what makes "re-run the whole paper after a
kernel change, recomputing only what changed" a one-liner: the changed
kernel changes its cells' fingerprints, everything else key-matches and
is skipped. DESIGN.md, "Campaign node keys", documents the boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.api.context import as_context
from repro.errors import CampaignError
from repro.store.artifacts import artifact_key

#: Bump to invalidate every previously recorded node key (v2: the
#: array-backend field left the context slice).
_NODE_KEY_VERSION = "campaign-node-v2"

#: ExecutionContext record fields that change computed *values*. The
#: complement — engine, tile size, store address, sinks, checkpointing —
#: is scheduling and persistence, which the engine-equivalence tests pin
#: to identical results, so it must NOT enter a node key: moving a
#: campaign to another store or engine must skip, not recompute.
#: ``precision`` and ``entropy`` are fixed provenance now (always
#: ``float64`` / ``eig``); they stay in the slice so that node keys
#: recorded before keep matching.
_VALUE_FIELDS = ("normalize", "ensure_psd", "precision", "entropy")


def context_cache_record(ctx) -> dict:
    """The value-relevant slice of an execution context (or record).

    Accepts an :class:`~repro.api.ExecutionContext`, a ``to_record()``
    dict, or ``None`` (the default context). This — not the full record —
    is what enters :func:`node_key`: normalisation policy changes
    numbers, scheduling and persistence do not.
    """
    if isinstance(ctx, dict):
        record = ctx
    else:
        record = as_context(ctx, owner="context_cache_record").to_record()
    return {name: record.get(name) for name in _VALUE_FIELDS}


def node_key(
    kind: str,
    *,
    fingerprint: "str | None" = None,
    digest: "str | None" = None,
    ctx=None,
    params: "dict | None" = None,
) -> str:
    """The content key of one campaign node.

    ``fingerprint`` is the kernel's resolved-spec fingerprint (``None``
    for kernel-free nodes), ``digest`` the ordered collection digest of
    the dataset (``None`` for dataset-free nodes), ``ctx`` the execution
    context (reduced to its value-relevant fields), and ``params`` the
    node's own JSON-able parameters (seed, repeats, sweep point, ...).
    """
    payload = json.dumps(
        {
            "kind": str(kind),
            "kernel": fingerprint,
            "dataset": digest,
            "context": context_cache_record(ctx),
            "params": params or {},
        },
        sort_keys=True,
    )
    return artifact_key(_NODE_KEY_VERSION, payload)


@dataclass(frozen=True)
class CampaignNode:
    """One cell of a campaign DAG.

    ``name`` is the human-readable identity inside the campaign
    (``"gram:QJSK:MUTAG"``), ``kind`` selects the registered executor,
    ``key`` is the content key (:func:`node_key`), ``payload`` the
    JSON-able arguments the executor receives, and ``deps`` the names of
    nodes that must be ``done`` first.
    """

    name: str
    kind: str
    key: str
    payload: dict = field(default_factory=dict)
    deps: "tuple[str, ...]" = ()
    priority: int = 0

    def __post_init__(self) -> None:
        if not str(self.name).strip():
            raise CampaignError("CampaignNode needs a non-empty name")
        if not str(self.kind).strip():
            raise CampaignError(f"node {self.name!r} needs a non-empty kind")
        if not str(self.key).strip():
            raise CampaignError(f"node {self.name!r} needs a content key")
        object.__setattr__(self, "deps", tuple(str(dep) for dep in self.deps))
        try:
            json.dumps(self.payload, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise CampaignError(
                f"node {self.name!r}: payload must be JSON-able "
                f"(executors may run in another process): {exc}"
            ) from None


class Campaign:
    """A validated DAG of :class:`CampaignNode` cells.

    Validation at construction: unique node names, every dependency
    present, no cycles. Node order is preserved (reports render rows in
    declaration order); :meth:`toposort` yields a dependency-respecting
    schedule that keeps the declared order among ready peers.
    """

    def __init__(self, name: str, nodes) -> None:
        if not str(name).strip():
            raise CampaignError("Campaign needs a non-empty name")
        self.name = str(name)
        self.nodes: "tuple[CampaignNode, ...]" = tuple(nodes)
        if not self.nodes:
            raise CampaignError(f"campaign {self.name!r} has no nodes")
        self._by_name: "dict[str, CampaignNode]" = {}
        for node in self.nodes:
            if node.name in self._by_name:
                raise CampaignError(
                    f"campaign {self.name!r}: duplicate node name {node.name!r}"
                )
            self._by_name[node.name] = node
        for node in self.nodes:
            for dep in node.deps:
                if dep not in self._by_name:
                    raise CampaignError(
                        f"campaign {self.name!r}: node {node.name!r} depends "
                        f"on unknown node {dep!r}"
                    )
        self._order = self._toposort()

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #

    @property
    def campaign_id(self) -> str:
        """Content identity: the campaign name plus every (name, key).

        Resuming the same declared grid therefore lands on the same
        campaign row, while a changed kernel config (different node
        keys) is a *different* campaign whose unchanged nodes still
        skip through the key-level result reuse.
        """
        payload = json.dumps(
            [self.name] + [[node.name, node.key] for node in self.nodes],
            sort_keys=True,
        )
        return artifact_key("campaign-v1", payload)[:16]

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    def node(self, name: str) -> CampaignNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise CampaignError(
                f"campaign {self.name!r} has no node {name!r}"
            ) from None

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def toposort(self) -> "tuple[CampaignNode, ...]":
        """Nodes in a dependency-respecting order (stable among peers)."""
        return self._order

    def dependents(self, name: str) -> "tuple[str, ...]":
        """Names of nodes that (transitively) depend on ``name``."""
        blocked: set = set()
        changed = True
        while changed:
            changed = False
            for node in self.nodes:
                if node.name in blocked:
                    continue
                if any(dep == name or dep in blocked for dep in node.deps):
                    blocked.add(node.name)
                    changed = True
        return tuple(n.name for n in self.nodes if n.name in blocked)

    def _toposort(self) -> "tuple[CampaignNode, ...]":
        remaining = {node.name: set(node.deps) for node in self.nodes}
        ordered: list = []
        while remaining:
            ready = [
                node for node in self.nodes
                if node.name in remaining and not remaining[node.name]
            ]
            if not ready:
                cycle = sorted(remaining)
                raise CampaignError(
                    f"campaign {self.name!r} has a dependency cycle among "
                    f"{cycle}"
                )
            for node in ready:
                ordered.append(node)
                del remaining[node.name]
            for deps in remaining.values():
                deps.difference_update(n.name for n in ready)
        return tuple(ordered)


@dataclass(frozen=True)
class CampaignPlan:
    """A campaign plus the renderer that turns its results into a report.

    ``render`` maps ``{node name: result dict}`` (done nodes only) to the
    report text — the thin row-formatting layer the experiment modules
    keep after the refactor.
    """

    campaign: Campaign
    render: "object" = None

    def report(self, results: "dict[str, dict]") -> str:
        if self.render is None:
            raise CampaignError(
                f"campaign {self.campaign.name!r} has no report renderer"
            )
        return self.render(results)
