"""Edge-colored graphs encoding closed PL manifolds.

Construction, validation and analysis of properly edge-colored regular
multigraphs: regular embeddings and their genus, vertex-uniform face
types, integral homology of the associated cell complex, parametric gem
families, and exhaustive searches with canonical deduplication.
"""

from .core import (
    ColoredGraph,
    Isomorphism,
    NotConnectedError,
    canonical_form,
    is_bipartite,
    is_contracted,
    isomorphic,
    residue_count,
    residue_graphs,
)
from .embedding import (
    CyclicPermutation,
    EmbeddingReport,
    RegularGenus,
    SemiEquivelarReport,
    TypeSignature,
    all_cyclic_permutations,
    euler_characteristic,
    face_cycle_type,
    regular_genus,
    semi_equivelar_report,
    semi_equivelar_type,
)
from .complexes import (
    HomologyProfile,
    ManifoldVerdict,
    PseudoComplex,
    build_complex,
    homology,
    manifold_check,
    orientable,
    smith_invariant_factors,
)
from .generators import (
    FamilyValidationError,
    catalog,
    catalog_manifest,
    lens_gem,
    lens_nonbipartite_attempt,
    rp2_sum_gem,
    sphere_times_circle_gem,
    standard_sphere,
    torus_sum_gem,
)
from .search import (
    BudgetExceededError,
    Classify44Report,
    SearchSpec,
    TypeSolution,
    classify_4_4,
    enumerate_embedding_types,
    find_gems,
    search_report,
)

__version__ = "0.1.0"
