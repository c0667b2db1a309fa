"""HAQJSK — the paper's primary contribution (Section III).

Two kernels over a collection ``G`` of un-attributed graphs:

* :class:`HAQJSKKernelA` (Definition 3.1, Eq. 26) — CTQW density matrices of
  the *hierarchical transitive aligned adjacency matrices*;
* :class:`HAQJSKKernelD` (Definition 3.2, Eq. 29) — the *hierarchical
  transitive aligned density matrices* directly.

Both sum ``exp(-QJSD)`` over hierarchy levels ``h = 1..H``. The alignment
pipeline (DB representations -> hierarchical prototypes -> correspondences
-> aligned structures) lives in :class:`HierarchicalAligner` so the
two kernels, the examples, and the ablation benches share one
implementation. Each kernel asks the aligner for the one structure it
reads: (A) the aligned adjacencies, (D) the aligned densities.

Because the prototype system is fitted on the *whole* collection passed to
``gram`` (exactly the paper's protocol — alignment is defined over the graph
set ``G``), kernel values depend on the collection. The positive
definiteness and permutation-invariance claims of Table I are about this
collection-level construction and are verified empirically in
``benchmarks/bench_table1_properties.py``.

For the serving workload (newcomers arriving against a fixed reference
collection) both kernels additionally support a **frozen-prototype mode**:
``kernel.freeze(reference_graphs)`` fits the prototype system once, after
which any graphs are aligned against those fixed prototypes — values
become collection-independent and exact incremental Gram extension
(:meth:`~repro.kernels.base.GraphKernel.gram_extend`) applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import EXACT
from repro.backend.policy import DEFAULT_CHUNK_ELEMENTS
from repro.backend.support import support_entropies
from repro.alignment.depth_based import DBRepresentationExtractor, check_entropy_kind
from repro.alignment.kmeans import cluster_means
from repro.alignment.prototypes import PrototypeHierarchy, fit_prototype_hierarchy
from repro.alignment.transform import hierarchical_aligned
from repro.errors import AlignmentError, KernelError
from repro.graphs.graph import Graph
from repro.graphs.hashing import collection_digest
from repro.kernels.base import KernelTraits, PairwiseKernel
from repro.kernels.registry import register_kernel, scaled
from repro.quantum.density import ctqw_density_matrix, graph_density_matrix
from repro.quantum.divergence import QJSD_MAX
from repro.quantum.operators import check_hamiltonian
from repro.utils.linalg import safe_xlogx
from repro.utils.rng import as_rng, spawn_seed
from repro.utils.validation import check_in_range, check_positive_int

# Not called here: perfbench's ``alignment.align`` hook patches these by
# name (``repro.kernels.haqjsk:<name>``), so they must stay importable.
from repro.alignment.correspondence import correspondence_matrices  # noqa: F401
from repro.alignment.transform import aligned_adjacency, aligned_density  # noqa: F401

#: The aligned structures :meth:`HierarchicalAligner.transform` builds.
ALIGNED_STRUCTURES = ("adjacency", "density")


@dataclass
class FrozenAlignmentSystem:
    """A fitted, reusable prototype/alignment system (frozen mode).

    Everything graph-independent that :meth:`HierarchicalAligner.transform`
    derives from a collection: the fitted DB extractor (which pins the
    layer count ``K``), one prototype hierarchy per DB dimension ``k``,
    and the static-column layout. Once frozen, *any* graph — including one
    never seen at fit time — can be aligned against these prototypes
    without refitting, which makes the HAQJSK kernels collection-
    independent: exactly the serving scenario of newcomers arriving
    against a fixed reference collection.

    The instance is a plain picklable value object, so a serving process
    can persist it in the artifact store and warm-restart from disk.
    """

    extractor: object
    hierarchies: "list[PrototypeHierarchy]"
    n_layers: int
    n_static: int
    #: Content digest of the reference collection the system was fitted
    #: on — mixed into the kernel fingerprint so Grams served against
    #: different references never share a store key. Only ``fit`` (the
    #: frozen path) pays for computing it; the one-shot per-collection
    #: path leaves it empty because nothing ever reads it there.
    reference_digest: str = ""


_HAQJSK_TRAITS = KernelTraits(
    framework="Information Theory",
    positive_definite=True,
    aligned=True,
    transitive=True,
    structure_patterns=("Global Structures", "Local (Vertices)"),
    computing_model="Quantum Walks",
    hierarchical=True,
    captures_local=True,
    captures_global=True,
    notes="paper Section III; PD via transitive alignment",
)


class HierarchicalAligner:
    """Transforms arbitrary-size graphs into fixed-size aligned structures.

    Implements paper Section III-A end to end:

    1. dataset-level DB layer count ``K`` (greatest shortest-path length,
       capped by ``max_layers``);
    2. for each DB dimension ``k = 1..K``: a hierarchical prototype system
       (level-1 count ``n_prototypes``, halving per level for ``n_levels``
       levels) fitted on the pooled vertex representations;
    3. per graph: the level-1 prototype of every vertex in every dimension
       (the correspondences of Eq. 15/17, as indices) and, by scatter, the
       aligned adjacency or density matrices, averaged over ``k``
       (Eq. 22-25; :func:`repro.alignment.transform.hierarchical_aligned`).
       Only the structure the caller names is built.

    Parameters
    ----------
    n_prototypes:
        ``|P^{1,k}|`` — the paper uses 256; pick ~2-4x the mean graph size.
    n_levels:
        Hierarchy depth ``H`` (paper: 5).
    max_layers:
        Cap on the DB layer count ``K``.
    entropy:
        Expansion-subgraph entropy: ``"shannon"`` (paper default, ref. [26])
        or ``"von_neumann"``.
    consistent_across_k:
        Warm-start the dimension-(k+1) κ-means from the dimension-k centers
        so prototype indexings stay consistent under the Eq. 23/25 average
        over k (DESIGN.md faithfulness note).
    renormalize_density:
        Rescale each aligned density matrix to unit trace (Eq. 21 does not
        preserve trace; the QJSD needs density matrices).
    hamiltonian:
        CTQW Hamiltonian for the original graphs' density matrices (and,
        in HAQJSK(A), for the aligned adjacencies' ones); one of
        :func:`repro.quantum.available_hamiltonians`.
    extractor:
        Override the vertex-representation extractor. Must provide
        ``fit_transform(graphs) -> list[matrix]`` and ``n_layers_``; may
        expose ``n_static_`` trailing columns that are *not* DB layers
        (e.g. label channels — see
        :class:`repro.alignment.attributed.AttributedDBExtractor`) and are
        kept in every dimension-k slice. Mutually exclusive with
        ``max_layers``/``entropy`` customisation.
    quantize_decimals:
        Vertex representations are rounded to this many decimals before
        clustering. Recomputing a DB entropy on a permuted graph shifts
        the float sum by ~1e-16, which is enough to reorder the canonical
        (lexicographically sorted) pooled matrix and flip k-means++ picks
        — i.e. to break exact permutation invariance through pure
        round-off. Quantising far below signal scale (default 1e-9) makes
        the pooled multiset bitwise stable. ``None`` disables.
    seed:
        Seeds every κ-means; fixed seed means a fully deterministic aligner.
    """

    def __init__(
        self,
        *,
        n_prototypes: int = 64,
        n_levels: int = 3,
        shrink_factor: float = 0.5,
        max_layers: int = 10,
        entropy: str = "shannon",
        consistent_across_k: bool = True,
        renormalize_density: bool = True,
        hamiltonian: str = "laplacian",
        extractor=None,
        quantize_decimals: "int | None" = 9,
        seed: "int | None" = 0,
    ) -> None:
        self.n_prototypes = check_positive_int(n_prototypes, "n_prototypes", minimum=1)
        self.n_levels = check_positive_int(n_levels, "n_levels", minimum=1)
        self.shrink_factor = check_in_range(
            shrink_factor, "shrink_factor", low=0.0, high=1.0, low_inclusive=False
        )
        self.max_layers = check_positive_int(max_layers, "max_layers", minimum=1)
        self.entropy = check_entropy_kind(entropy)
        self.consistent_across_k = bool(consistent_across_k)
        self.renormalize_density = bool(renormalize_density)
        self.hamiltonian = check_hamiltonian(hamiltonian)
        self.extractor = extractor
        if quantize_decimals is not None:
            check_positive_int(quantize_decimals, "quantize_decimals", minimum=1)
        self.quantize_decimals = quantize_decimals
        self.seed = seed
        #: Fitted prototype system in frozen mode; ``None`` refits per call.
        self.frozen_: "FrozenAlignmentSystem | None" = None

    @property
    def is_frozen(self) -> bool:
        """True when a reference prototype system has been fitted."""
        return self.frozen_ is not None

    def fit(self, graphs: "list[Graph]") -> "HierarchicalAligner":
        """Freeze the prototype system on a *reference* collection.

        After fitting, :meth:`transform` aligns any graphs — including
        newcomers — against these fixed prototypes instead of refitting
        per call, so kernel values no longer depend on which graphs share
        a ``transform`` call. This is the frozen-prototype serving mode:
        exact Gram extension (``gram_extend``) becomes legal for the
        HAQJSK kernels at the price of alignment quality being anchored
        to the reference collection.
        """
        system, _ = self._fit_system(graphs)
        # Only the frozen path needs the reference digest (store keying);
        # hashing here keeps it off the unfrozen per-gram hot path.
        system.reference_digest = collection_digest(graphs)
        self.frozen_ = system
        return self

    def unfreeze(self) -> "HierarchicalAligner":
        """Drop the frozen system; transform refits per collection again."""
        self.frozen_ = None
        return self

    def transform(
        self, graphs: "list[Graph]", structure: str
    ) -> "list[list[np.ndarray]]":
        """One aligned structure (Eq. 22-25) per graph and level.

        ``structure`` names the one the caller reads: ``"adjacency"``
        builds the Eq. 23 aligned adjacencies ``Ā^h_p`` from the graphs'
        adjacency matrices, ``"density"`` the Eq. 25 aligned densities
        ``ρ̄^h_p`` from their CTQW density matrices; the other is never
        computed. ``result[p][h - 1]`` is graph ``p``'s level-``h``
        matrix, of the fixed size ``M_h x M_h``.

        Unfrozen (the paper's protocol): the prototype system is fitted
        on exactly the graphs passed in, so values are collection-level.
        Frozen: the stored reference system is applied to the graphs
        without refitting.
        """
        if structure not in ALIGNED_STRUCTURES:
            raise AlignmentError(
                f"unknown aligned structure {structure!r}; "
                f"expected one of {ALIGNED_STRUCTURES}"
            )
        if not graphs:
            raise KernelError("HierarchicalAligner needs at least one graph")
        if self.frozen_ is not None:
            system = self.frozen_
            representations = [
                self._quantized(system.extractor.transform(g)) for g in graphs
            ]
        else:
            system, representations = self._fit_system(graphs)
        return self._apply_system(system, representations, graphs, structure)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _quantized(self, matrix: np.ndarray) -> np.ndarray:
        """Round representations below signal scale (see class docstring)."""
        if self.quantize_decimals is None:
            return matrix
        return np.round(matrix, self.quantize_decimals)

    def _fit_system(
        self, graphs: "list[Graph]"
    ) -> "tuple[FrozenAlignmentSystem, list[np.ndarray]]":
        """Fit extractor + per-dimension hierarchies on one collection.

        Returns the fitted system and the collection's (quantised) vertex
        representations, so the one-shot path does not recompute them.
        """
        if not graphs:
            raise KernelError("HierarchicalAligner needs at least one graph")
        rng = as_rng(self.seed)
        extractor = self.extractor or DBRepresentationExtractor(
            max_layers=self.max_layers, entropy=self.entropy
        )
        representations = [
            self._quantized(r) for r in extractor.fit_transform(graphs)
        ]
        n_layers = extractor.n_layers_
        n_static = int(getattr(extractor, "n_static_", 0) or 0)

        # Canonicalise the pooled point order (lexicographic by the full
        # K-dimensional rows) so the fitted prototypes depend only on the
        # *multiset* of vertex representations — this is what makes the
        # kernels exactly permutation invariant (Table I claim): k-means++
        # samples by row index, so without sorting a vertex relabelling
        # could perturb the fit.
        full = np.vstack(representations)
        canonical = full[np.lexsort(full.T[::-1])]

        hierarchies: "list[PrototypeHierarchy]" = []
        warm_centers = None
        for k in range(1, n_layers + 1):
            pooled = self._slice_k(canonical, k, n_layers, n_static)
            hierarchy = fit_prototype_hierarchy(
                pooled,
                n_prototypes=self.n_prototypes,
                n_levels=self.n_levels,
                shrink_factor=self.shrink_factor,
                seed=spawn_seed(rng),
                init_centers=warm_centers,
            )
            hierarchies.append(hierarchy)
            if self.consistent_across_k and k < n_layers:
                warm_centers = self._extend_centers(
                    hierarchy, pooled, canonical[:, k], insert_at=k
                )
        system = FrozenAlignmentSystem(
            extractor=extractor,
            hierarchies=hierarchies,
            n_layers=n_layers,
            n_static=n_static,
        )
        return system, representations

    def _apply_system(
        self,
        system: "FrozenAlignmentSystem",
        representations: "list[np.ndarray]",
        graphs: "list[Graph]",
        structure: str,
    ) -> "list[list[np.ndarray]]":
        """Align every graph's ``structure`` against an (already fitted)
        prototype system."""
        if structure == "density":
            sources = [
                graph_density_matrix(g, hamiltonian=self.hamiltonian) for g in graphs
            ]
        else:
            sources = [g.adjacency for g in graphs]
        renormalize = structure == "density" and self.renormalize_density
        n_layers = system.n_layers
        aligned = []
        for source, representation in zip(sources, representations):
            level1 = [
                hierarchy.assign_level1(
                    self._slice_k(representation, k, n_layers, system.n_static)
                )
                for k, hierarchy in enumerate(system.hierarchies, start=1)
            ]
            aligned.append(
                hierarchical_aligned(
                    source, level1, system.hierarchies, renormalize=renormalize
                )
            )
        return aligned

    @staticmethod
    def _slice_k(
        matrix: np.ndarray, k: int, n_layers: int, n_static: int
    ) -> np.ndarray:
        """First k DB columns plus any static (label) tail columns."""
        if not n_static:
            return matrix[:, :k]
        return np.hstack([matrix[:, :k], matrix[:, n_layers:]])

    @staticmethod
    def _extend_centers(
        hierarchy, pooled_k: np.ndarray, new_values: np.ndarray, *, insert_at: int
    ) -> np.ndarray:
        """Warm-start centers for dimension k+1 from the dimension-k fit.

        The existing coordinates are the fitted level-1 centers; the new
        DB coordinate — the per-cluster mean of ``new_values`` (the
        (k+1)-th DB entropy over the pooled vertices) — is inserted at
        column ``insert_at``, i.e. *before* any static label columns so
        the layout matches the dimension-(k+1) slice.
        """
        centers_k = hierarchy.centers[0]
        assignments = hierarchy.assign_level1(pooled_k)
        new_column = cluster_means(new_values, assignments, np.zeros(len(centers_k)))
        return np.hstack(
            [
                centers_k[:, :insert_at],
                new_column[:, None],
                centers_k[:, insert_at:],
            ]
        )


def _entropy_fast(matrix: np.ndarray) -> float:
    """Von Neumann entropy without validation overhead (hot path)."""
    values = np.linalg.eigvalsh(matrix)
    return float(-np.sum(safe_xlogx(np.clip(values, 0.0, None))))


def _entropies_fast(stack: np.ndarray) -> np.ndarray:
    """Batched :func:`_entropy_fast` over an ``(n, m, m)`` stack.

    The deepest hierarchy levels shrink to 1x1 and 2x2 matrices, where a
    LAPACK call per matrix is all dispatch overhead — those spectra have
    exact closed forms (for 2x2: ``mid +- sqrt(((a-c)/2)^2 + b^2)``),
    which agree with the solver to machine epsilon. Larger matrices are
    solved on their exact support — the prototypes the graph's vertices
    map to — the same gather the mixed states use
    (:mod:`repro.backend.support`).
    """
    m = stack.shape[-1]
    if m == 1:
        values = stack[..., 0, 0, None]
    elif m == 2:
        a = stack[..., 0, 0]
        b = stack[..., 0, 1]
        c = stack[..., 1, 1]
        mid = (a + c) / 2.0
        radius = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
        values = np.stack([mid - radius, mid + radius], axis=-1)
    else:
        return support_entropies(stack)
    # safe_xlogx clips to [0, inf) itself, matching _entropy_fast exactly.
    return -safe_xlogx(values).sum(axis=-1)


class _HAQJSKBase(PairwiseKernel):
    """Shared machinery: prepare per-level density matrices, sum exp(-QJSD).

    Prepared state per graph: ``(entropies, matrices)`` with one density
    matrix per hierarchy level; the pairwise value only needs one extra
    eigendecomposition (the mixed state) per level. Because alignment
    makes every level-h matrix the same ``(m_h, m_h)`` size across the
    collection, whole Gram tiles batch into ``(B, m_h, m_h)`` eigvalsh
    stacks — see :meth:`block_values`.
    """

    traits = _HAQJSK_TRAITS
    #: The aligned structure this variant reads (one of
    #: ``ALIGNED_STRUCTURES``). A class constant: the configuration
    #: fingerprint walks instance attributes only.
    aligned_structure: str
    _extension_hint = (
        "Fit a frozen prototype system on a reference collection first "
        "(kernel.freeze(reference_graphs)) to enter the serving mode in "
        "which extension is exact."
    )

    def __init__(self, aligner: "HierarchicalAligner | None" = None, **aligner_kwargs):
        if aligner is not None and aligner_kwargs:
            raise KernelError("pass either a HierarchicalAligner or kwargs, not both")
        self.aligner = aligner or HierarchicalAligner(**aligner_kwargs)

    @property
    def collection_independent(self) -> bool:
        """True only in frozen-prototype mode (see :meth:`freeze`).

        Unfrozen, the prototype system is refitted on every collection
        (the paper's protocol), so a pair's value depends on which other
        graphs it shares a ``gram`` call with — extending a cached Gram
        would silently change the old entries, and ``gram_extend``
        refuses with a named :class:`~repro.errors.KernelError`.
        """
        return self.aligner.is_frozen

    def freeze(self, reference_graphs: "list[Graph]") -> "_HAQJSKBase":
        """Enter frozen-prototype serving mode.

        Fits the DB extractor and the hierarchical prototype system once
        on ``reference_graphs``; afterwards every ``prepare``/``gram``
        call aligns its graphs against those fixed prototypes instead of
        refitting, so newcomers can be evaluated against a reference
        collection incrementally (``gram_extend``) without perturbing it.
        """
        self._check_graphs(reference_graphs)
        self.aligner.fit(list(reference_graphs))
        return self

    def unfreeze(self) -> "_HAQJSKBase":
        """Back to the paper's per-collection fitting protocol."""
        self.aligner.unfreeze()
        return self

    def _fingerprint_extra(self) -> dict:
        """Frozen mode changes values, so the reference digest is part of
        the kernel's identity in the artifact store."""
        if self.aligner.is_frozen:
            return {"frozen_reference": self.aligner.frozen_.reference_digest}
        return {}

    def prepare(self, graphs: "list[Graph]") -> list:
        aligned = self.aligner.transform(graphs, self.aligned_structure)
        all_matrices = [self._level_matrices(levels) for levels in aligned]
        n_levels = len(all_matrices[0]) if all_matrices else 0
        # One stacked eigvalsh per hierarchy level (every graph's level-h
        # matrix has the same aligned size) instead of a per-matrix loop.
        all_entropies = [[0.0] * n_levels for _ in all_matrices]
        for h in range(n_levels):
            level_entropies = _entropies_fast(
                np.stack([matrices[h] for matrices in all_matrices])
            )
            for p, value in enumerate(level_entropies):
                all_entropies[p][h] = float(value)
        return list(zip(all_entropies, all_matrices))

    def _check_levels(self, state_a, state_b) -> int:
        """Validate that two states share a hierarchy depth (Eq. 26/29).

        States from different ``prepare`` calls (or hand-built ones) can
        disagree on the level count; without this check the mismatch used
        to surface as an opaque ``IndexError`` deep in the level loop.
        """
        levels_a = len(state_a[1])
        levels_b = len(state_b[1])
        if levels_a != levels_b:
            raise KernelError(
                f"{self.name}: hierarchy level count mismatch between "
                f"prepared states ({levels_a} vs {levels_b} levels); both "
                f"states must come from one prepare() over one collection"
            )
        return levels_a

    def pair_value(self, state_a, state_b) -> float:
        entropies_a, matrices_a = state_a
        entropies_b, matrices_b = state_b
        n_levels = self._check_levels(state_a, state_b)
        total = 0.0
        for h in range(n_levels):
            mixed = (matrices_a[h] + matrices_b[h]) / 2.0
            divergence = (
                _entropy_fast(mixed)
                - 0.5 * entropies_a[h]
                - 0.5 * entropies_b[h]
            )
            divergence = min(max(divergence, 0.0), QJSD_MAX)
            total += float(np.exp(-divergence))
        return total

    def _values_for_pairs(
        self,
        states_a: list,
        states_b: list,
        idx_a: np.ndarray,
        idx_b: np.ndarray,
    ) -> np.ndarray:
        """Kernel values for the pair list ``(idx_a[p], idx_b[p])``.

        Per hierarchy level the matrices are stacked once into
        ``(n, m_h, m_h)`` arrays, the requested mixed states gathered by
        fancy indexing, and one batched entropy reduction per chunk —
        :meth:`~repro.backend.ComputePolicy.mixed_entropies` for
        ``m > 2``, while the deepest 1x1/2x2 levels keep the exact
        closed-form spectra —
        yields all mixed entropies; per-graph entropies come precomputed
        from ``prepare``. Chunking bounds every intermediate by the
        memory budget. Taking an explicit pair list lets diagonal Gram
        tiles batch only the upper triangle — the same ``n(n+1)/2``
        solves the serial loop performs.
        """
        n_levels = self._check_levels(states_a[0], states_b[0])
        for state in list(states_a) + list(states_b):
            self._check_levels(states_a[0], state)
        entropies_a = np.asarray([s[0] for s in states_a])  # (n_a, H)
        entropies_b = np.asarray([s[0] for s in states_b])
        n_pairs = idx_a.size
        values = np.zeros(n_pairs)
        for h in range(n_levels):
            stack_a = np.stack([s[1][h] for s in states_a])  # (n_a, m, m)
            stack_b = np.stack([s[1][h] for s in states_b])
            if stack_a.shape[1:] != stack_b.shape[1:]:
                raise KernelError(
                    f"{self.name}: level {h + 1} aligned sizes differ "
                    f"({stack_a.shape[1:]} vs {stack_b.shape[1:]}); both "
                    f"states must come from one prepare() over one collection"
                )
            m = stack_a.shape[-1]
            if m > 2:
                # Aligned matrices are symmetric by construction, so the
                # pair stage skips the symmetrise pass (same contract as
                # the historical _entropies_fast eigvalsh call).
                mixed_entropies = EXACT.mixed_entropies(
                    stack_a, stack_b, idx_a, idx_b, symmetrize=False
                )
                divergence = (
                    mixed_entropies
                    - 0.5 * entropies_a[idx_a, h]
                    - 0.5 * entropies_b[idx_b, h]
                )
                np.clip(divergence, 0.0, QJSD_MAX, out=divergence)
                values += np.exp(-divergence)
                continue
            # 1x1/2x2 spectra are closed-form — cheaper than a batched
            # eigensolve and exact to machine epsilon.
            chunk = max(1, DEFAULT_CHUNK_ELEMENTS // max(1, m * m))
            for start in range(0, n_pairs, chunk):
                stop = min(start + chunk, n_pairs)
                rows = idx_a[start:stop]
                cols = idx_b[start:stop]
                mixed = stack_a[rows] + stack_b[cols]
                mixed *= 0.5
                divergence = (
                    _entropies_fast(mixed)
                    - 0.5 * entropies_a[rows, h]
                    - 0.5 * entropies_b[cols, h]
                )
                np.clip(divergence, 0.0, QJSD_MAX, out=divergence)
                values[start:stop] += np.exp(-divergence)
        return values

    def block_values(self, states_a: list, states_b: list) -> np.ndarray:
        """Vectorized rectangular tile (see :meth:`_values_for_pairs`)."""
        return self._rectangular_from_pairs(
            states_a, states_b, self._values_for_pairs
        )

    def symmetric_block_values(self, states: list) -> np.ndarray:
        """Vectorized diagonal tile batching only the upper triangle
        (mixed-state eigendecompositions dominate the per-pair cost)."""
        return self._symmetric_from_pairs(states, self._values_for_pairs)

    def _level_matrices(self, aligned: "list[np.ndarray]") -> "list[np.ndarray]":
        """Per-level density matrices from the aligned structures."""
        return aligned


@register_kernel(
    "HAQJSK(A)",
    aliases=("haqjsk-a",),
    defaults={"n_prototypes": 32, "n_levels": 5, "max_layers": scaled(6, 10), "seed": 0},
    signature_from=HierarchicalAligner,
    exclude=("extractor",),
)
class HAQJSKKernelA(_HAQJSKBase):
    """HAQJSK(A): QJSD between CTQW densities of aligned adjacencies (Eq. 26).

    For each level h, the CTQW (Laplacian Hamiltonian, degree initial state)
    is evolved on the weighted aligned adjacency ``Ā^h_p`` and its Eq. (5)
    density matrix ``θ̄^h_p`` enters the QJSD.
    """

    name = "HAQJSK(A)"
    aligned_structure = "adjacency"

    def _level_matrices(self, aligned: "list[np.ndarray]") -> "list[np.ndarray]":
        return [
            ctqw_density_matrix(adjacency, hamiltonian=self.aligner.hamiltonian)
            for adjacency in aligned
        ]


@register_kernel(
    "HAQJSK(D)",
    aliases=("haqjsk-d",),
    defaults={"n_prototypes": 32, "n_levels": 5, "max_layers": scaled(6, 10), "seed": 0},
    signature_from=HierarchicalAligner,
    exclude=("extractor",),
)
class HAQJSKKernelD(_HAQJSKBase):
    """HAQJSK(D): QJSD between aligned density matrices directly (Eq. 29)."""

    name = "HAQJSK(D)"
    aligned_structure = "density"
