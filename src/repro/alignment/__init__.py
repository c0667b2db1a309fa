"""Alignment substrate: DB representations, prototypes, correspondences."""

from repro.alignment.correspondence import (
    aligned_vertex_pairs,
    check_correspondence_matrix,
    correspondence_is_transitive,
    correspondence_matrices,
    one_hot,
)
from repro.alignment.attributed import AttributedDBExtractor
from repro.alignment.depth_based import (
    DBRepresentationExtractor,
    db_representations,
)
from repro.alignment.kmeans import (
    KMeansResult,
    assign_to_centers,
    kmeans,
    kmeans_plusplus_init,
)
from repro.alignment.prototypes import (
    PrototypeHierarchy,
    fit_prototype_hierarchy,
    level_sizes,
)
from repro.alignment.transform import (
    aligned_adjacency,
    aligned_density,
    average_over_k,
)
from repro.alignment.umeyama import (
    permute_with,
    umeyama_correspondence,
    umeyama_similarity,
)

__all__ = [
    "AttributedDBExtractor",
    "DBRepresentationExtractor",
    "KMeansResult",
    "PrototypeHierarchy",
    "aligned_adjacency",
    "aligned_density",
    "aligned_vertex_pairs",
    "assign_to_centers",
    "average_over_k",
    "check_correspondence_matrix",
    "correspondence_is_transitive",
    "correspondence_matrices",
    "db_representations",
    "fit_prototype_hierarchy",
    "kmeans",
    "kmeans_plusplus_init",
    "level_sizes",
    "one_hot",
    "permute_with",
    "umeyama_correspondence",
    "umeyama_similarity",
]
