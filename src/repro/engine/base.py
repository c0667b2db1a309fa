"""Engine abstraction: how a pairwise Gram matrix gets scheduled.

A :class:`GramEngine` executes a :class:`~repro.engine.tiles.TilePlan`
over a :class:`~repro.kernels.base.PairwiseKernel`'s prepared per-graph
states, streaming finished ``(rows, cols, block)`` tiles into a
:class:`~repro.engine.tiles.GramSink`. The *scheduler* — plan
construction, resume filtering through ``sink.has_tile``, placement and
symmetry mirroring — lives here in the base class; backends differ only
in **how one tile is computed** (:meth:`GramEngine.compute_tile`) and,
for the process backend, **where** (:meth:`GramEngine.run_tiles` fans
tiles out to a worker pool). The kernel owns the *mathematics* via the
small protocol below; engines never import concrete kernels:

``kernel.pair_value(state_a, state_b) -> float``
    Scalar kernel value (the serial path).
``kernel.block_values(states_a, states_b) -> (len_a, len_b) ndarray``
    A rectangular block of kernel values; vectorized kernels override it.
``kernel.symmetric_block_values(states) -> (n, n) ndarray``
    A symmetric diagonal block, computed from the upper triangle so every
    backend agrees bit-for-bit on symmetry.

Backends register themselves in :data:`ENGINES` and are resolved by name
through :func:`resolve_engine`; ``None`` means ``"batched"``. An engine's
tile size is its constructor argument, else its backend's
``default_tile``. Which engine a Gram runs on is the execution context's
decision (:meth:`repro.api.ExecutionContext.resolved_engine`).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.engine.tiles import DenseSink, GramSink, TilePlan
from repro.errors import KernelError

#: Hard floor for tile sizes — degenerate tiling is always a bug.
_MIN_TILE = 1


class GramEngine(abc.ABC):
    """Strategy object computing Gram matrices from prepared states.

    The concrete :meth:`gram` / :meth:`cross_gram` entry points build a
    :class:`TilePlan` and delegate to :meth:`execute`, the shared
    scheduler. Subclasses implement :meth:`compute_tile` (the per-tile
    mathematics dispatch) and may override :meth:`run_tiles` (where tiles
    run — in-process by default, a worker pool for the process backend).
    """

    #: Registry key; subclasses set it and appear in :data:`ENGINES`.
    name: str = "engine"

    #: Per-backend tile size, used when the constructor gets none.
    default_tile: int = 64

    def __init__(self, *, tile_size: "int | None" = None) -> None:
        size = self.default_tile if tile_size is None else tile_size
        self.tile_size = max(int(size), _MIN_TILE)

    # ------------------------------------------------------------------ #
    # Entry points (shared by every backend)
    # ------------------------------------------------------------------ #

    def gram(self, kernel, states: list, *, sink: "GramSink | None" = None):
        """Symmetric ``(n, n)`` Gram over one prepared collection.

        With a ``sink`` the result is whatever the sink materialises
        (ndarray, memmap); without one, a fresh in-memory ndarray.
        """
        plan = TilePlan.gram(len(states), self.tile_size)
        return self.execute(kernel, plan, states, states, sink=sink)

    def cross_gram(
        self, kernel, states_a: list, states_b: list,
        *, sink: "GramSink | None" = None,
    ):
        """Rectangular ``(len_a, len_b)`` Gram between two state lists."""
        plan = TilePlan.cross(len(states_a), len(states_b), self.tile_size)
        return self.execute(kernel, plan, states_a, states_b, sink=sink)

    def execute(
        self,
        kernel,
        plan: TilePlan,
        states_a: list,
        states_b: list,
        *,
        sink: "GramSink | None" = None,
    ):
        """The shared scheduler: stream ``plan``'s tiles into ``sink``.

        Tiles the sink already holds (``has_tile`` — the resume hook of
        the checkpoint layer) are skipped *before* any kernel work runs,
        so a resumed computation pays only for the unfinished tiles.
        Symmetric plans enumerate upper-triangle tiles only; the sink
        mirrors, so results are symmetric by construction on every
        backend.
        """
        sink = DenseSink() if sink is None else sink
        sink.open(plan)

        def jobs():
            # Lazy on purpose: at large N the schedule holds O(N²/tile²)
            # entries, and materialising every state-slice pair up front
            # would cost O(N²/tile) memory — defeating the out-of-core
            # sinks this scheduler exists to feed. Backends consume the
            # stream with bounded look-ahead (the process pool keeps a
            # fixed submission window in flight).
            for rows, cols in plan.tiles():
                if sink.has_tile(rows, cols):
                    continue
                diagonal = plan.is_diagonal(rows, cols)
                slice_a = states_a[rows[0] : rows[1]]
                slice_b = [] if diagonal else states_b[cols[0] : cols[1]]
                yield (rows, cols), (kernel, slice_a, slice_b, diagonal)

        def place(key, block):
            sink.write(key[0], key[1], np.asarray(block, dtype=float))

        self.run_tiles(jobs(), place)
        return sink.finalize()

    # ------------------------------------------------------------------ #
    # Backend hooks
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def compute_tile(
        self, kernel, states_a: list, states_b: list, diagonal: bool
    ) -> np.ndarray:
        """One tile's values — the only mathematics a backend chooses.

        ``diagonal`` tiles pass the row slice only (``states_b`` is
        empty) and must return a symmetric block computed from the upper
        triangle, so every backend agrees on symmetry exactly.
        """

    def run_tiles(self, jobs, consume) -> None:
        """Run ``(key, compute_tile-args)`` jobs, feeding each finished
        block to ``consume(key, block)``. ``jobs`` may be a lazy iterable
        (the scheduler streams it); one job is in flight at a time here —
        the process backend overrides this with worker-pool fan-out."""
        for key, args in jobs:
            consume(key, self.compute_tile(*args))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def tile_ranges(n: int, tile_size: int) -> "list[tuple[int, int]]":
    """Contiguous ``[start, stop)`` ranges covering ``range(n)``.

    Contiguity (and ascending order) matters: symmetric engines compute
    only tile pairs with ``row_tile <= col_tile``, so within any
    off-diagonal tile every row index is strictly below every column
    index — exactly the upper triangle the serial loop evaluates.
    """
    if n < 0:
        raise KernelError(f"cannot tile a negative range ({n})")
    size = max(int(tile_size), _MIN_TILE)
    return [(start, min(start + size, n)) for start in range(0, n, size)]


def symmetric_tile_pairs(n: int, tile_size: int):
    """Yield ``(rows, cols)`` range pairs covering the upper triangle."""
    ranges = tile_ranges(n, tile_size)
    for i, rows in enumerate(ranges):
        for cols in ranges[i:]:
            yield rows, cols


# Mirroring of symmetric off-diagonal tiles lives in GramSink._place
# (repro.engine.tiles) — sinks assemble matrices, engines only schedule.


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

#: name -> engine factory (a zero-argument callable / class).
ENGINES: "dict[str, type]" = {}


def register_engine(cls):
    """Class decorator adding an engine to the registry under ``cls.name``."""
    ENGINES[cls.name] = cls
    return cls


def available_engines() -> "tuple[str, ...]":
    """Registered backend names, sorted."""
    return tuple(sorted(ENGINES))


def resolve_engine(engine: "GramEngine | str | None" = None) -> GramEngine:
    """Resolve an engine spec (instance, name, or ``None``) to an instance.

    ``None`` selects ``"batched"``. Unknown names raise a
    :class:`~repro.errors.KernelError` listing the available backends, so a
    typo in ``REPRO_GRAM_ENGINE`` or a config file fails loudly.
    """
    if isinstance(engine, GramEngine):
        return engine
    if engine is None:
        engine = "batched"
    if not isinstance(engine, str):
        raise KernelError(
            f"engine must be a GramEngine, a backend name, or None; "
            f"got {type(engine).__name__}"
        )
    try:
        factory = ENGINES[engine]
    except KeyError:
        raise KernelError(
            f"unknown gram engine {engine!r}; available: "
            f"{', '.join(available_engines())}"
        ) from None
    return factory()
