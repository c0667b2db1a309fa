"""Job specs: the serialized contract between coordinator and workers.

A distributed Gram job is fully described by a small JSON record — the
resolved :class:`~repro.kernels.registry.KernelSpec`, the collection
digest, the engine name and the tile size — plus the pickled graph
collection. Both are seeded *into the store itself* under the job id
(the record's content hash), so the only thing a worker needs to be told
is ``(store address, job id)``: everything else it reads from the store
it is already pointed at.

Pinning engine and tile size in the record is what makes K-worker
convergence byte-identical: tile values depend on the engine's batching
arithmetic and on the tile boundaries, so every worker must compute
every tile exactly the way the single-process reference would. The job
id hashes the full record — two jobs differing only in tile size are
different jobs with disjoint tile keys.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.api.context import ExecutionContext, as_context
from repro.engine.tiles import TilePlan
from repro.errors import DistributedError
from repro.graphs.hashing import collection_digest
from repro.kernels.registry import KernelSpec, as_spec
from repro.store.artifacts import ArtifactStore, artifact_key
from repro.store.tiles import TileLedger, tile_keyer_for

#: Store kind holding job records (JSON).
JOB_KIND = "job"

#: Store kind holding the pickled input collection of a job.
JOB_INPUT_KIND = "job-input"

#: Record-schema version; bump on incompatible layout changes (v2: the
#: array-backend field is gone; v3: so are ``precision`` and ``entropy``).
_JOB_VERSION = "job-v3"


@dataclass(frozen=True)
class JobSpec:
    """The immutable description of one distributed Gram computation."""

    kernel_spec: dict
    collection: str
    n_graphs: int
    engine: str
    tile_size: int
    normalize: bool = False

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #

    def to_record(self) -> dict:
        record = asdict(self)
        record["version"] = _JOB_VERSION
        return record

    @classmethod
    def from_record(cls, record: dict) -> "JobSpec":
        if not isinstance(record, dict):
            raise DistributedError(
                f"a job record must be a dict, got {type(record).__name__}"
            )
        version = record.get("version")
        if version != _JOB_VERSION:
            raise DistributedError(
                f"job record version {version!r} is not {_JOB_VERSION!r} — "
                "coordinator and workers must run the same code generation"
            )
        fields = {key: value for key, value in record.items() if key != "version"}
        try:
            return cls(**fields)
        except TypeError as exc:
            raise DistributedError(f"malformed job record: {exc}") from None

    @property
    def job_id(self) -> str:
        """Content hash of the record — the job's store identity."""
        return artifact_key(
            _JOB_VERSION, json.dumps(self.to_record(), sort_keys=True)
        )

    # ------------------------------------------------------------------ #
    # Materialisation (what a worker rebuilds from the record)
    # ------------------------------------------------------------------ #

    def build_kernel(self):
        """The kernel this job computes (spec-validated construction)."""
        return KernelSpec.from_dict(self.kernel_spec).make()

    def resolved_engine(self):
        """A fresh engine pinned to the job's tile size (the context the
        job was submitted under, rebuilt from its record)."""
        return ExecutionContext(
            engine=self.engine, tile_size=self.tile_size
        ).resolved_engine()

    def plan(self) -> TilePlan:
        return TilePlan.gram(self.n_graphs, self.tile_size)

    def ledger(self, store: ArtifactStore, graphs) -> TileLedger:
        """The job's tile ledger — identical keys on every participant."""
        return TileLedger(
            store, tile_keyer_for(self.build_kernel(), graphs), self.plan()
        )


def job_spec_for(
    spec_or_name,
    graphs,
    *,
    ctx=None,
    normalize: "bool | None" = None,
) -> JobSpec:
    """Build the :class:`JobSpec` describing ``kernel.gram(graphs)`` under
    ``ctx`` (engine and tile size resolved *now*, so every worker
    reproduces this exact schedule).
    """
    ctx = as_context(ctx, owner="job_spec_for")
    graphs = list(graphs)
    spec = as_spec(spec_or_name).resolved()
    kernel = spec.make()
    if not getattr(kernel, "streams_tiles", False):
        raise DistributedError(
            f"kernel {kernel.name!r} computes dense-replay Grams (no "
            "genuine tile stream) — tiles cannot be distributed; use a "
            "streaming kernel (pairwise or feature-map families)"
        )
    engine = ctx.resolved_engine()
    return JobSpec(
        kernel_spec=spec.to_dict(),
        collection=collection_digest(graphs),
        n_graphs=len(graphs),
        engine=engine.name,
        tile_size=engine.tile_size,
        normalize=bool(ctx.policy(normalize, "normalize", False)),
    )


def seed_job(store: ArtifactStore, spec: JobSpec, graphs) -> str:
    """Write the job record + input collection into the store.

    Idempotent: records are content-addressed by :attr:`JobSpec.job_id`,
    so re-seeding the same job (a coordinator restarted after a crash)
    CAS-loses harmlessly against its own earlier bytes.
    """
    graphs = list(graphs)
    if len(graphs) != spec.n_graphs:
        raise DistributedError(
            f"job spec covers {spec.n_graphs} graphs, got {len(graphs)}"
        )
    digest = collection_digest(graphs)
    if digest != spec.collection:
        raise DistributedError(
            "graph collection does not match the job spec's collection "
            f"digest ({digest[:12]}… != {spec.collection[:12]}…)"
        )
    job_id = spec.job_id
    record = json.dumps(spec.to_record(), sort_keys=True).encode()
    store.put_if_absent(JOB_KIND, job_id, record, suffix=".json")
    if not store.has(JOB_INPUT_KIND, job_id):
        store.put_object(JOB_INPUT_KIND, job_id, graphs)
    return job_id


def load_job(store: ArtifactStore, job_id: str) -> "tuple[JobSpec, list]":
    """Read a seeded job back: ``(spec, graphs)``, digest-verified.

    Raises a named :class:`~repro.errors.DistributedError` when the job
    is unknown at this store address or its input collection is missing
    or corrupt — the triage message a mispointed worker needs.
    """
    record = store.get_bytes(JOB_KIND, job_id, suffix=".json")
    if record is None:
        raise DistributedError(
            f"no job {job_id!r} at store {store.address!r} — was the job "
            "seeded, and is this the coordinator's store address?"
        )
    spec = JobSpec.from_record(json.loads(record.decode()))
    graphs = store.get_object(JOB_INPUT_KIND, job_id)
    if graphs is None:
        raise DistributedError(
            f"job {job_id!r} has no input collection at {store.address!r}"
        )
    graphs = list(graphs)
    digest = collection_digest(graphs)
    if digest != spec.collection:
        raise DistributedError(
            f"job {job_id!r}: stored collection digest mismatch "
            f"({digest[:12]}… != {spec.collection[:12]}…) — torn or "
            "foreign input artifact"
        )
    return spec, graphs


def tile_computer(kernel, graphs, engine):
    """``compute(rows, cols, diagonal) -> block`` for one job participant.

    Exactly the arithmetic the engine scheduler runs per tile: pairwise
    kernels prepare their states once and evaluate
    :meth:`~repro.engine.base.GramEngine.compute_tile` per slice pair;
    feature-map kernels extract features once and stream matmul tiles
    (the same block function their ``_compute_gram_into`` uses).
    """
    from repro.kernels.base import FeatureMapKernel, PairwiseKernel

    graphs = list(graphs)
    if isinstance(kernel, PairwiseKernel):
        states = kernel._prepared_states(graphs)

        def compute(rows, cols, diagonal):
            slice_a = states[rows[0] : rows[1]]
            slice_b = [] if diagonal else states[cols[0] : cols[1]]
            return engine.compute_tile(kernel, slice_a, slice_b, diagonal)

        return compute
    if isinstance(kernel, FeatureMapKernel):
        features = np.asarray(kernel.feature_matrix(graphs), dtype=float)

        def compute(rows, cols, diagonal):
            tile = features[rows[0] : rows[1]] @ features[cols[0] : cols[1]].T
            return (tile + tile.T) / 2.0 if diagonal else tile

        return compute
    raise DistributedError(
        f"kernel {kernel.name!r} has no tile-at-a-time computation path"
    )
