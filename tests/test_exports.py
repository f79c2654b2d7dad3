"""The package's public surface is a fixed set of names.

Adding or removing an export is an API change, so it has to edit this set.
"""

import types

import gemkit

PUBLIC_NAMES = {
    "BudgetExceededError",
    "Classify44Report",
    "ColoredGraph",
    "CyclicPermutation",
    "EmbeddingReport",
    "FamilyValidationError",
    "HomologyProfile",
    "Isomorphism",
    "ManifoldVerdict",
    "NotConnectedError",
    "PseudoComplex",
    "RegularGenus",
    "SearchSpec",
    "SemiEquivelarReport",
    "TypeSignature",
    "TypeSolution",
    "all_cyclic_permutations",
    "build_complex",
    "canonical_form",
    "catalog",
    "catalog_manifest",
    "classify_4_4",
    "enumerate_embedding_types",
    "euler_characteristic",
    "face_cycle_type",
    "find_gems",
    "homology",
    "is_bipartite",
    "is_contracted",
    "isomorphic",
    "lens_gem",
    "lens_nonbipartite_attempt",
    "manifold_check",
    "orientable",
    "regular_genus",
    "residue_count",
    "residue_graphs",
    "rp2_sum_gem",
    "search_report",
    "semi_equivelar_report",
    "semi_equivelar_type",
    "smith_invariant_factors",
    "sphere_times_circle_gem",
    "standard_sphere",
    "torus_sum_gem",
}


def test_public_names_are_pinned():
    public = {
        name
        for name, value in vars(gemkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES
