"""Core-variant kernel framework (Nikolentzos et al., IJCAI 2018, ref. [47]).

For any base kernel ``k``, the core variant is

    K_core(G_p, G_q) = sum_{c=0..c_max} k(core_c(G_p), core_c(G_q))

where ``core_c(G)`` is the c-core of ``G`` (maximal subgraph of minimum
degree c). Peeling the graph into its degeneracy hierarchy lets a local
kernel see progressively denser global regions. CORE-WL and CORE-SP in
Table IV are this wrapper around WLSK and SPGK.
"""

from __future__ import annotations

import numpy as np

from repro.api.context import ExecutionContext
from repro.errors import KernelError
from repro.graphs.graph import Graph
from repro.graphs.ops import degeneracy, k_core_subgraph
from repro.kernels.base import GraphKernel, KernelTraits
from repro.kernels.registry import register_kernel, scaled
from repro.kernels.shortest_path import ShortestPathKernel
from repro.kernels.wl import WeisfeilerLehmanKernel


class CoreVariantKernel(GraphKernel):
    """Sums a base kernel over the k-core hierarchy of both graphs.

    Empty cores (beyond a graph's degeneracy) contribute nothing for that
    graph; a core level enters the sum only when both graphs still have a
    non-empty core, matching the reference implementation.
    """

    traits = KernelTraits(
        framework="R-convolution",
        positive_definite=True,
        aligned=False,
        transitive=False,
        structure_patterns=("Local (Subtrees)", "Degeneracy hierarchy"),
        computing_model="Classical",
        captures_local=True,
        captures_global=False,
        notes="sum of a PD base kernel over k-cores stays PD",
    )

    def __init__(self, base_kernel: GraphKernel, *, max_core: "int | None" = None):
        if not isinstance(base_kernel, GraphKernel):
            raise KernelError("base_kernel must be a GraphKernel")
        self.base_kernel = base_kernel
        self.max_core = max_core
        self.name = f"CORE {base_kernel.name}"

    def _compute_gram(self, graphs: "list[Graph]", *, engine) -> np.ndarray:
        n = len(graphs)
        highest = max(degeneracy(g) for g in graphs)
        if self.max_core is not None:
            highest = min(highest, int(self.max_core))
        total = np.zeros((n, n))
        for core_level in range(0, highest + 1):
            cores = []
            alive = []
            for index, g in enumerate(graphs):
                core_graph, members = k_core_subgraph(g, core_level)
                if core_graph.n_vertices > 0:
                    cores.append(core_graph)
                    alive.append(index)
            if len(alive) < 1:
                break
            # The outer Gram's engine, already resolved: wrapping it
            # keeps its tile size and compute policy for every level.
            block = self.base_kernel.gram(cores, ctx=ExecutionContext(engine=engine))
            for a, i in enumerate(alive):
                for b, j in enumerate(alive):
                    total[i, j] += block[a, b]
        return total


@register_kernel(
    "CORE WL",
    aliases=("core-wl",),
    defaults={"n_iterations": scaled(4, 10)},
)
def core_wl_kernel(
    n_iterations: int = 10, *, max_core: "int | None" = None
) -> CoreVariantKernel:
    """CORE WL — the Table IV baseline 6."""
    return CoreVariantKernel(
        WeisfeilerLehmanKernel(n_iterations), max_core=max_core
    )


@register_kernel("CORE SP", aliases=("core-sp",))
def core_sp_kernel(*, max_core: "int | None" = None) -> CoreVariantKernel:
    """CORE SP — the Table IV baseline 8."""
    return CoreVariantKernel(ShortestPathKernel(), max_core=max_core)
