"""Content-addressed artifact store with an in-memory layer.

An :class:`ArtifactStore` persists the expensive intermediates of the
kernel pipeline — Gram matrices and blocks (arrays) and prepared states /
frozen alignment systems (pickled objects) — under keys derived from
*content*: the kernel's configuration fingerprint plus the collection
digest of the graphs involved (:func:`gram_key`). Identical inputs always
map to the same key, so a killed experiment run restarts from its last
completed artifact and a serving process warm-restarts from storage
instead of recomputing a quadratic Gram.

The store itself is a *policy* layer: key layout
(``<kind>/<key[:2]>/<key>.npy`` — the two-character fan-out keeps
directories small at millions of artifacts), digest-stable
serialisation, defensive copies / read-only views, and a bounded
:class:`~repro.utils.caching.KeyedCache` fronting hot artifacts. The
*bytes* live in a pluggable :class:`~repro.store.backends.StoreBackend`
selected by address — ``dir:/path`` (or a bare path, the crash-durable
reference backend) or ``mem:name`` (in-process, for tests). All writes
are atomic, and :meth:`ArtifactStore.put_if_absent` exposes the
backend's compare-and-swap, which the distributed tile workers' lease
protocol builds on (:mod:`repro.store.claims`).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle

import numpy as np

from repro.errors import ValidationError
from repro.graphs.hashing import collection_digest
from repro.store.backends import StoreBackend, backend_for
from repro.utils.caching import KeyedCache

#: Default bound on the in-memory layer (entries, FIFO eviction).
DEFAULT_MEMORY_ENTRIES = 256

_KINDS_HINT = "kind must be a non-empty path-safe token (e.g. 'gram', 'states')"


def artifact_key(*parts: str) -> str:
    """Hex SHA-256 key combining any number of string parts."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(str(part).encode())
        digest.update(b"\x1f")  # unit separator: ("ab","c") != ("a","bc")
    return digest.hexdigest()


def gram_key(
    kernel,
    graphs,
    *,
    normalize: bool = False,
    ensure_psd: bool = False,
    extra: "dict | None" = None,
    digest: "str | None" = None,
) -> str:
    """The store key of ``kernel.gram(graphs, normalize=, ensure_psd=)``.

    Combines the kernel's configuration fingerprint, the ordered
    collection digest and the Gram options; ``extra`` mixes in run-level
    context (e.g. whether downstream conditioning was applied).
    ``digest`` is the precomputed collection digest of ``graphs`` — a
    caller that already hashed the collection (a campaign builder keying
    a whole sweep over one dataset) passes it through rather than paying
    the full-collection hash again per cell.
    """
    payload = json.dumps(
        {
            "kernel": kernel.fingerprint(),
            "graphs": digest if digest is not None else collection_digest(graphs),
            "normalize": bool(normalize),
            "ensure_psd": bool(ensure_psd),
            "extra": extra or {},
        },
        sort_keys=True,
    )
    return artifact_key("gram", payload)


class ArtifactStore:
    """Content-addressed persistence for Gram matrices and prepared states.

    Parameters
    ----------
    root:
        Backend address — a directory path (created if missing; equal to
        ``dir:<path>``), ``mem:[name]`` for the in-process test backend,
        or an already-constructed
        :class:`~repro.store.backends.StoreBackend`.
    max_memory_entries:
        Bound on the in-memory read cache (FIFO-evicted); ``None`` keeps
        everything read or written this process — only safe for batch
        runs, not long-lived serving processes.
    """

    def __init__(
        self,
        root: "str | StoreBackend",
        *,
        max_memory_entries: "int | None" = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        if not isinstance(root, StoreBackend) and (
            root is None or not str(root).strip()
        ):
            raise ValidationError("ArtifactStore needs a non-empty root directory")
        self.backend = backend_for(root)
        self._memory = KeyedCache(max_entries=max_memory_entries)

    @property
    def address(self) -> str:
        """Round-trippable backend address (``ArtifactStore(address)``)."""
        return self.backend.address

    @property
    def root(self) -> str:
        """The backend's directory for directory stores, else its address.

        Kept for the historical directory-store API (``store.root`` was
        the constructor argument); new code should prefer
        :attr:`address`, which round-trips for every backend.
        """
        return getattr(self.backend, "root", self.backend.address)

    # ------------------------------------------------------------------ #
    # Arrays (Gram matrices, blocks, embeddings)
    # ------------------------------------------------------------------ #

    def put_array(
        self, kind: str, key: str, array: np.ndarray, *, copy: bool = True
    ) -> str:
        """Persist an array; returns its path. Idempotent per (kind, key).

        The cached copy is decoupled from the caller's buffer and marked
        read-only — content-addressed artifacts are immutable, and a
        caller mutating a returned array in place must fail loudly
        instead of silently poisoning every later read of the key.
        ``copy=False`` hands ownership over without the defensive copy
        (the array is frozen in place); only for callers that will never
        touch their reference again.
        """
        if copy:
            arr = np.array(array, copy=True)
        else:
            arr = np.asarray(array)
        arr.setflags(write=False)
        self.backend.put_atomic(
            self.name_for(kind, key, suffix=".npy"), _array_bytes(arr)
        )
        self._memory.put((kind, key), arr)
        return self.path_for(kind, key, suffix=".npy")

    def put_array_if_absent(self, kind: str, key: str, array: np.ndarray) -> bool:
        """Persist an array only when the key is free; True when stored.

        The compare-and-swap form of :meth:`put_array`, for concurrent
        writers racing on one content key (distributed tile commits):
        exactly one writer stores its bytes, everyone else keeps the
        winner's. With content-addressed keys both outcomes hold the
        same values, so either answer leaves the store correct — the
        return value only says whose bytes landed.
        """
        arr = np.array(array, copy=True)
        arr.setflags(write=False)
        stored = self.backend.put_if_absent(
            self.name_for(kind, key, suffix=".npy"), _array_bytes(arr)
        )
        if stored:
            self._memory.put((kind, key), arr)
        return stored

    def get_array(self, kind: str, key: str) -> "np.ndarray | None":
        """The stored array (read-only), or ``None`` when absent."""
        cached = self._memory.get((kind, key))
        if cached is not None:
            return cached
        data = self.backend.get(self.name_for(kind, key, suffix=".npy"))
        if data is None:
            return None
        arr = np.load(io.BytesIO(data), allow_pickle=False)
        arr.setflags(write=False)
        self._memory.put((kind, key), arr)
        return arr

    def get_memmap(self, kind: str, key: str, *, mode: str = "r"):
        """The stored array as a memory map, or ``None`` when absent.

        The out-of-core read path: unlike :meth:`get_array`, nothing is
        densified and nothing enters the in-memory cache — reading a
        100 GB Gram artifact costs pages, not RAM. Arrays written by
        :meth:`put_array` and memmaps grown in place by
        :meth:`memmap_sink` are both plain ``.npy`` files, so either kind
        of artifact can be opened this way.

        Backends without local files (``mem:``) degrade to the dense
        :meth:`get_array` read — same values, just not page-backed.
        """
        name = self.name_for(kind, key, suffix=".npy")
        path = self.backend.local_path(name)
        if path is None:
            return self.get_array(kind, key)
        if not os.path.exists(path):
            return None
        return np.load(path, mmap_mode=mode, allow_pickle=False)

    def memmap_sink(self, kind: str, key: str, *, dtype="float64"):
        """A :class:`~repro.engine.tiles.MemmapSink` backed by this store.

        The sink assembles at ``<canonical>.npy.partial`` and publishes
        with an atomic rename on ``commit()`` (which
        ``kernel.gram(..., sink=...)`` calls after post-processing), so
        the canonical path other readers trust — :meth:`get_memmap`,
        :meth:`get_array` — either holds a complete artifact or nothing,
        matching :meth:`put_array`'s crash-safety. A run killed
        mid-assembly leaves only the ``.partial`` file; wrap the sink in
        a :class:`~repro.store.tiles.CheckpointSink` to make that rerun
        resume at tile granularity instead of restarting.
        """
        from repro.engine.tiles import MemmapSink

        path = self.backend.local_path(self.name_for(kind, key, suffix=".npy"))
        if path is None:
            raise ValidationError(
                f"memmap_sink needs a backend with local files; "
                f"{self.backend.address!r} has none — use a dir: store for "
                "out-of-core assembly"
            )
        return MemmapSink(path, dtype=dtype, stage=True)

    # ------------------------------------------------------------------ #
    # Objects (prepared states, frozen alignment systems)
    # ------------------------------------------------------------------ #

    def put_object(self, kind: str, key: str, obj) -> str:
        """Persist an arbitrary picklable object; returns its path."""
        self.backend.put_atomic(
            self.name_for(kind, key, suffix=".pkl"),
            pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self._memory.put((kind, key), obj)
        return self.path_for(kind, key, suffix=".pkl")

    def get_object(self, kind: str, key: str, default=None):
        """The stored object, or ``default`` when absent."""
        cached = self._memory.get((kind, key))
        if cached is not None:
            return cached
        data = self.backend.get(self.name_for(kind, key, suffix=".pkl"))
        if data is None:
            return default
        obj = pickle.loads(data)
        self._memory.put((kind, key), obj)
        return obj

    # ------------------------------------------------------------------ #
    # Raw bytes (coordination records: leases, job specs)
    # ------------------------------------------------------------------ #

    def put_bytes(self, kind: str, key: str, data: bytes, *, suffix: str = ".bin") -> None:
        """Store raw bytes (atomic, last writer wins; bypasses the cache).

        Coordination records are *mutable* (a lease's heartbeat
        timestamp advances), so unlike arrays/objects they must never be
        served from this process's memory layer — every read goes to the
        backend.
        """
        self.backend.put_atomic(self.name_for(kind, key, suffix=suffix), data)

    def get_bytes(self, kind: str, key: str, *, suffix: str = ".bin") -> "bytes | None":
        """The stored raw bytes (always a fresh backend read), or ``None``."""
        return self.backend.get(self.name_for(kind, key, suffix=suffix))

    def put_if_absent(
        self, kind: str, key: str, data: bytes, *, suffix: str = ".bin"
    ) -> bool:
        """Backend compare-and-swap on raw bytes; True when this call won."""
        return self.backend.put_if_absent(
            self.name_for(kind, key, suffix=suffix), data
        )

    def delete_bytes(self, kind: str, key: str, *, suffix: str = ".bin") -> bool:
        """Remove a raw-bytes record; True when one was removed."""
        return self.backend.delete(self.name_for(kind, key, suffix=suffix))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def has(self, kind: str, key: str) -> bool:
        """True when the artifact exists (memory or backend)."""
        if (kind, key) in self._memory:
            return True
        return self.backend.exists(
            self.name_for(kind, key, suffix=".npy")
        ) or self.backend.exists(self.name_for(kind, key, suffix=".pkl"))

    def discard(self, kind: str, key: str) -> None:
        """Drop an artifact from memory and the backend (no-op when absent).

        Content-addressed artifacts are immutable but not eternal:
        callers that supersede an artifact (the incremental serving path
        outgrowing an intermediate Gram) use this to keep the store from
        accumulating dead weight.
        """
        self._memory.pop((kind, key))
        for suffix in (".npy", ".pkl"):
            self.backend.delete(self.name_for(kind, key, suffix=suffix))

    def list_keys(self, kind: str) -> "list[str]":
        """Artifact keys stored under ``kind`` (any suffix), sorted."""
        kind = self._check_token(kind, _KINDS_HINT)
        keys = set()
        for name in self.backend.list_keys(f"{kind}/"):
            filename = name.rsplit("/", 1)[-1]
            keys.add(filename.rsplit(".", 1)[0])
        return sorted(keys)

    def name_for(self, kind: str, key: str, *, suffix: str = ".npy") -> str:
        """The backend-relative name of one artifact (validates tokens)."""
        kind = self._check_token(kind, _KINDS_HINT)
        key = self._check_token(key, "key must be a path-safe token")
        fan_out = key[:2] if len(key) > 2 else "__"
        return f"{kind}/{fan_out}/{key}{suffix}"

    def path_for(self, kind: str, key: str, *, suffix: str = ".npy") -> str:
        """Deterministic storage location of one artifact.

        A real filesystem path for directory backends; a cosmetic
        ``<address>/<name>`` join otherwise (the logical location — useful
        in messages, not openable).
        """
        name = self.name_for(kind, key, suffix=suffix)
        local = self.backend.local_path(name)
        return local if local is not None else f"{self.backend.address}/{name}"

    @staticmethod
    def _check_token(token: str, hint: str) -> str:
        token = str(token)
        if not token or any(sep in token for sep in ("/", "\\", "..")):
            raise ValidationError(f"{hint}; got {token!r}")
        return token

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore(root={self.address!r})"


def _array_bytes(arr: np.ndarray) -> bytes:
    """``.npy``-format serialisation (what every backend stores)."""
    buffer = io.BytesIO()
    np.save(buffer, arr, allow_pickle=False)
    return buffer.getvalue()


def store_backed_gram(
    kernel,
    graphs,
    store: "ArtifactStore | None",
    *,
    normalize: bool = False,
    ensure_psd: bool = False,
    extra: "dict | None" = None,
    tile_checkpoint: bool = False,
    stats: "dict | None" = None,
    ctx=None,
    digest: "str | None" = None,
) -> np.ndarray:
    """Fetch ``kernel.gram(graphs, ...)`` from the store, computing on miss.

    With ``store=None`` this is exactly ``kernel.gram(...)``, so callers
    can thread an optional store through without branching. With a store,
    the returned array is read-only on hit *and* miss — store-backed
    Grams are immutable artifacts, and a caller seeing a writable matrix
    on the first run but a read-only one after a warm restart would be a
    trap.

    ``tile_checkpoint=True`` makes the *miss* path itself resumable: the
    Gram is computed through a :class:`~repro.store.tiles.CheckpointSink`,
    every finished tile committing to the store before the next is
    computed. A run killed mid-Gram no longer loses the whole matrix —
    the rerun restores the finished tiles and computes only the rest
    (PR 2's whole-Gram checkpointing kicks in once the matrix completes
    and is persisted under its own key). Tiles hold *raw* kernel values,
    so they are shared across ``normalize`` / ``ensure_psd`` variants of
    the same (kernel, graphs) computation. Kernels on the dense-replay
    fallback (core variants) skip the sink — they recompute the full
    matrix before any tile streams, so checkpointing their tiles is pure
    I/O with zero resume value. For collection-*dependent* kernels, whose
    tile keys embed the collection digest and can never serve another
    computation, the tiles are reclaimed once the whole Gram is committed
    (with a cache-hit sweep catching tiles orphaned by a kill inside that
    commit-then-discard window); collection-independent tiles stay —
    grown collections and other option variants reuse them.

    ``stats`` (optional dict) is filled with the run's accounting:
    ``cached`` (whole-Gram hit), ``tiles_restored``, ``tiles_computed``.
    This is *the* tile-checkpoint protocol — the experiment harness and
    other callers consume it rather than re-implementing the sequence.
    """
    from repro.api.context import as_context

    graphs = list(graphs)
    # The context carries the engine/tile selection and (for the
    # store=None fallthrough) any sink factory; the store and checkpoint
    # decisions stay with the explicit arguments so this function keeps
    # exactly one persistence protocol.
    gram_ctx = as_context(ctx, owner="store_backed_gram").replace(store=None)
    if stats is not None:
        stats.update(cached=False, tiles_restored=0, tiles_computed=0)
    if store is None:
        return kernel.gram(
            graphs, normalize=normalize, ensure_psd=ensure_psd, ctx=gram_ctx
        )
    streams = tile_checkpoint and getattr(kernel, "streams_tiles", False)
    dependent = not getattr(kernel, "collection_independent", False)
    key = gram_key(
        kernel, graphs, normalize=normalize, ensure_psd=ensure_psd,
        extra=extra, digest=digest,
    )
    cached = store.get_array("gram", key)
    if cached is not None:
        if stats is not None:
            stats["cached"] = True
        if streams and dependent:
            _sweep_orphaned_tiles(
                store, kernel, graphs, gram_ctx.resolved_engine().tile_size
            )
        return cached
    sink = None
    if streams:
        from repro.store.tiles import CheckpointSink, tile_keyer_for

        sink = CheckpointSink(store, tile_keyer_for(kernel, graphs))
    miss_ctx = gram_ctx
    if sink is not None:
        checkpoint_sink = sink
        factory = lambda: checkpoint_sink  # noqa: E731 - one-shot wrapper
        miss_ctx = gram_ctx.replace(sink_factory=factory)
    gram = kernel.gram(
        graphs,
        normalize=normalize,
        ensure_psd=ensure_psd,
        ctx=miss_ctx,
    )
    store.put_array("gram", key, gram)
    if sink is not None:
        if stats is not None:
            stats["tiles_restored"] = sink.tiles_restored
            stats["tiles_computed"] = sink.tiles_computed
        if dependent:
            sink.discard_tiles()
    return store.get_array("gram", key)


def _sweep_orphaned_tiles(store, kernel, graphs, tile_size: int) -> None:
    """Best-effort reclamation of dead collection-dependent tiles.

    Covers the kill window between the whole-Gram ``put_array`` and the
    post-commit ``discard_tiles``: on the next (cache-hit) run the tiles
    are unreadable by any other computation, so if the plan's first tile
    still exists under the *current* tile size, the whole plan is swept.
    Best-effort on purpose — a rerun under a different tile size derives
    different keys and leaves the orphans alone.
    """
    from repro.engine.tiles import TilePlan
    from repro.store.tiles import discard_plan_tiles, tile_keyer_for

    if not graphs:
        return
    plan = TilePlan.gram(len(graphs), tile_size)
    keyer = tile_keyer_for(kernel, graphs)
    first = next(iter(plan.tiles()))
    if store.has(
        "gram-tile", keyer.key(first[0], first[1], diagonal=plan.is_diagonal(*first))
    ):
        discard_plan_tiles(store, keyer, plan)


class IncrementalGram:
    """A growing raw Gram matrix — the warm-restart serving path.

    Holds a collection and its *raw* (unnormalised, unprojected) Gram
    matrix; :meth:`extend` folds newly arrived graphs in through
    :meth:`~repro.kernels.base.GraphKernel.gram_extend`, paying
    ``O(N·ΔN)`` per arrival instead of the full ``O((N+ΔN)²)``. With a
    ``store``, every grown Gram is persisted under its collection's
    content key (``ctx.store``), so a restarted process constructed over
    the same graphs resumes from disk instead of recomputing.

    For collection-level kernels (the HAQJSK family) the kernel must be
    in frozen-prototype mode first (``kernel.freeze(reference_graphs)``);
    otherwise :meth:`extend` raises the same named
    :class:`~repro.errors.KernelError` as ``gram_extend``.

    Persistence writes the *full* grown matrix per :meth:`extend` (which
    keeps warm restart a single key lookup) but prunes each superseded
    intermediate, so the store holds at most two Grams per serving
    object: the one this object started from (another process may still
    warm-restart from it) and the latest. If write bandwidth ever
    dominates — it is O((N+ΔN)²) per arrival batch against O(N·ΔN)
    compute — batch the arrivals.
    """

    def __init__(
        self,
        kernel,
        graphs=(),
        *,
        ctx=None,
    ) -> None:
        from repro.api.context import as_context

        self.ctx = as_context(ctx, owner="IncrementalGram")
        self.store = self.ctx.store
        self.kernel = kernel
        self.graphs: list = list(graphs)
        self._initial_key: "str | None" = None
        self._latest_key: "str | None" = None
        if not self.graphs:
            self.gram = np.zeros((0, 0))
        else:
            self.gram = store_backed_gram(
                kernel, self.graphs, self.store, ctx=self.ctx
            )
            if self.store is not None:
                self._initial_key = gram_key(kernel, self.graphs)
                self._latest_key = self._initial_key

    def __len__(self) -> int:
        return len(self.graphs)

    def extend(self, new_graphs) -> np.ndarray:
        """Fold ``new_graphs`` into the Gram; returns the grown matrix."""
        new_graphs = list(new_graphs)
        if not new_graphs:
            return self.gram
        if not self.graphs:
            self.graphs = new_graphs
            self.gram = store_backed_gram(
                self.kernel, self.graphs, self.store, ctx=self.ctx
            )
            if self.store is not None:
                self._initial_key = gram_key(self.kernel, self.graphs)
                self._latest_key = self._initial_key
            return self.gram
        grown = self.kernel.gram_extend(
            self.gram, self.graphs, new_graphs, ctx=self.ctx.replace(store=None)
        )
        # Freshly assembled and owned by this object: freeze it so the
        # serving Gram is uniformly immutable whether it was computed,
        # extended, or warm-restarted from the store.
        grown.setflags(write=False)
        self.graphs = self.graphs + new_graphs
        self.gram = grown
        if self.store is not None:
            new_key = gram_key(self.kernel, self.graphs)
            # copy=False: `grown` is frozen and owned by this object.
            self.store.put_array("gram", new_key, grown, copy=False)
            # Prune the superseded intermediate, but never the Gram this
            # object started from — a restarted process reconstructs over
            # the initial collection and must still find it.
            if self._latest_key not in (None, self._initial_key, new_key):
                self.store.discard("gram", self._latest_key)
            self._latest_key = new_key
        return self.gram
