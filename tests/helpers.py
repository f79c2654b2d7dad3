"""Shared test utilities: random gems, oracles independent of the library."""

from __future__ import annotations

import itertools
import json
import pathlib
import random

from gemkit.core import ColoredGraph


def random_matching(rng: random.Random, n: int) -> list[int]:
    verts = list(range(n))
    rng.shuffle(verts)
    m = [0] * n
    for i in range(0, n, 2):
        a, b = verts[i], verts[i + 1]
        m[a] = b
        m[b] = a
    return m


def standard_matching(n: int) -> list[int]:
    return [v + 1 if v % 2 == 0 else v - 1 for v in range(n)]


def stored_hit_list(spec, rule: str = "orbit_rule") -> list[list[list[int]]]:
    """The raw hits of ``search._run_search(spec)`` before a search rule.

    ``data/hit_lists_before_<rule>.json`` holds them as the search returned
    them, in order, before that rule: ``orbit_rule`` before color 2 skipped
    interchangeable alternating cycles (color 1 already skipped
    interchangeable blocks), ``base_rule`` before the DFS skipped a
    lower-color completion isomorphic to an earlier one.  Each hit is one
    word per color, one hex digit per vertex.
    """
    path = pathlib.Path(__file__).parent / "data" / f"hit_lists_before_{rule}.json"
    for entry in json.loads(path.read_text()):
        if entry["spec"] == spec.to_json_dict():
            return [
                [[int(x, 16) for x in word] for word in hit.split()]
                for hit in entry["hits"]
            ]
    raise KeyError(spec)


def random_surface_gem(rng: random.Random, n: int) -> ColoredGraph:
    """Random connected 3-colored graph of the given even order."""
    while True:
        g = ColoredGraph(
            [standard_matching(n), random_matching(rng, n), random_matching(rng, n)]
        )
        if g.is_connected():
            return g


def random_permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def oracle_component_count(g: ColoredGraph, colors) -> int:
    """Union-find component count, written independently of the library."""
    parent = list(range(g.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in colors:
        for u in range(g.vertex_count):
            ru, rv = find(u), find(g.matchings[c][u])
            if ru != rv:
                parent[ru] = rv
    return len({find(v) for v in range(g.vertex_count)})


def oracle_components(g: ColoredGraph, colors) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    parent = list(range(g.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in colors:
        for u in range(g.vertex_count):
            ru, rv = find(u), find(g.matchings[c][u])
            if ru != rv:
                parent[ru] = rv
    for v in range(g.vertex_count):
        groups.setdefault(find(v), []).append(v)
    return sorted((sorted(vs) for vs in groups.values()), key=lambda c: c[0])


def oracle_chi_from_counts(g: ColoredGraph, eps_pairs) -> int:
    """Euler characteristic as vertices - edges + faces, counted directly."""
    n = g.vertex_count
    edges = n * (g.dimension + 1) // 2
    faces = sum(oracle_component_count(g, pair) for pair in eps_pairs)
    return n - edges + faces


def complex_chi(k) -> int:
    """Euler characteristic of a cell complex: its cell counts' alternating sum."""
    return sum((-1) ** h * f for h, f in enumerate(k.f_vector))


def oracle_is_bipartite(g: ColoredGraph) -> bool:
    """Breadth-first 2-colouring over every color's edges."""
    side = [-1] * g.vertex_count
    for start in range(g.vertex_count):
        if side[start] >= 0:
            continue
        side[start] = 0
        queue = [start]
        for u in queue:
            for m in g.matchings:
                v = m[u]
                if side[v] < 0:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return False
    return True


def matrix_product(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k]:
                aik = a[i][k]
                for j in range(cols):
                    out[i][j] += aik * b[k][j]
    return out


def all_perfect_matchings(n: int) -> list[list[int]]:
    """Every perfect matching on 0..n-1, as involution arrays."""
    out: list[list[int]] = []

    def extend(m: list[int]) -> None:
        u = next((v for v in range(n) if m[v] < 0), None)
        if u is None:
            out.append(list(m))
            return
        for v in range(u + 1, n):
            if m[v] < 0:
                m[u] = v
                m[v] = u
                extend(m)
                m[u] = -1
                m[v] = -1

    extend([-1] * n)
    return out


def oracle_canonical_labeling(g: ColoredGraph, mode: str):
    """Unpruned reference: complete every BFS labeling, keep the first least.

    Slot orders are tried lexicographically and start vertices ascending,
    and a later encoding replaces the best only when strictly smaller.
    Returns (encoding, vertex -> label array, slot order).
    """
    k = len(g.matchings)
    sigmas = [tuple(range(k))] if mode == "color-fixed" else list(itertools.permutations(range(k)))
    best = None
    for sigma in sigmas:
        for start in range(g.vertex_count):
            label = {start: 0}
            order = [start]
            i = 0
            while i < len(order):
                for c in sigma:
                    w = g.matchings[c][order[i]]
                    if w not in label:
                        label[w] = len(order)
                        order.append(w)
                i += 1
            enc = tuple(label[g.matchings[c][v]] for v in order for c in sigma)
            if best is None or enc < best[0]:
                best = (enc, [label[v] for v in range(g.vertex_count)], sigma)
    return best


def oracle_manifold_check(g: ColoredGraph):
    """Unmemoized reference: recurse into every residue along every path.

    The library's certification before residue verdicts were memoized,
    kept verbatim apart from the name of the recursive call.
    """
    from gemkit.complexes import (
        CERTIFIED_3_MANIFOLD,
        CERTIFIED_SURFACE,
        FAILED,
        HOMOLOGY_CERTIFIED,
        ManifoldVerdict,
        homology,
        sphere_profile,
    )
    from gemkit.core import NotConnectedError, residue_graphs
    from gemkit.embedding import CyclicPermutation, euler_characteristic

    if not g.is_connected():
        raise NotConnectedError("manifold certification needs a connected graph")
    d = g.dimension
    if d < 2:
        raise ValueError("manifold certification is defined for dimension >= 2")
    if d == 2:
        return ManifoldVerdict(CERTIFIED_SURFACE)
    all_colors = set(g.colors)
    for c in g.colors:
        pieces = residue_graphs(g, all_colors - {c})
        for piece_no, (piece, _) in enumerate(pieces):
            if d == 3:
                chi = euler_characteristic(
                    piece, CyclicPermutation((0, 1, 2))
                )
                if chi != 2:
                    return ManifoldVerdict(
                        FAILED,
                        f"residue without color {c}, component {piece_no}: "
                        f"surface has chi {chi}, expected 2",
                    )
            else:
                sub = oracle_manifold_check(piece)
                if not sub.ok:
                    return ManifoldVerdict(
                        FAILED,
                        f"residue without color {c}, component {piece_no}: {sub.detail}",
                    )
                if homology(piece) != sphere_profile(d - 1):
                    return ManifoldVerdict(
                        FAILED,
                        f"residue without color {c}, component {piece_no}: "
                        f"homology differs from the {d - 1}-sphere",
                    )
    if d == 3:
        return ManifoldVerdict(CERTIFIED_3_MANIFOLD)
    return ManifoldVerdict(HOMOLOGY_CERTIFIED)


def oracle_homology(g: ColoredGraph):
    """Homology from dense boundary matrices and sympy's invariant factors.

    The complex is built as the library built it before its boundary maps
    became sparse columns, kept verbatim apart from returning the cell
    counts and the dense matrices; sympy reduces them.  Skips the calling
    test where sympy is missing.
    """
    import pytest

    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    from gemkit.complexes import HomologyProfile
    from gemkit.core import NotConnectedError, component_index

    if not g.is_connected():
        raise NotConnectedError("the complex is built for connected graphs")
    d = g.dimension
    all_colors = tuple(range(d + 1))

    subset_info = {}
    cells = []
    for h in range(d + 1):
        layer = []
        offset = 0
        for C in itertools.combinations(all_colors, h + 1):
            rest = tuple(c for c in all_colors if c not in C)
            idx, count = component_index(g, rest)
            reps = [-1] * count
            for v, comp in enumerate(idx):
                if reps[comp] < 0:
                    reps[comp] = v
            subset_info[C] = (offset, idx, reps)
            layer.extend((C, j) for j in range(count))
            offset += count
        cells.append(tuple(layer))

    boundaries = [tuple()]
    for h in range(1, d + 1):
        rows = len(cells[h - 1])
        mat = [[0] * len(cells[h]) for _ in range(rows)]
        for C in itertools.combinations(all_colors, h + 1):
            offset, _, reps = subset_info[C]
            for j, rep in enumerate(reps):
                col = offset + j
                for pos, c in enumerate(C):
                    facet = tuple(x for x in C if x != c)
                    f_offset, f_idx, _ = subset_info[facet]
                    row = f_offset + f_idx[rep]
                    mat[row][col] += -1 if pos % 2 else 1
        boundaries.append(tuple(tuple(r) for r in mat))

    factors = [
        [abs(int(x)) for x in invariant_factors(Matrix(m), domain=ZZ) if x]
        if m and m[0]
        else []
        for m in boundaries
    ] + [[]]
    f = [len(layer) for layer in cells]
    return HomologyProfile(
        tuple(
            (
                f[i] - len(factors[i]) - len(factors[i + 1]),
                tuple(e for e in sorted(factors[i + 1]) if e > 1),
            )
            for i in range(d + 1)
        )
    )


def per_map_homology(g: ColoredGraph):
    """Homology with one full Smith normal form per boundary map.

    The library's ``homology`` before it cancelled the cells of unit
    pivots from the next map down, kept verbatim apart from reading the
    factors out of ``_sparse_snf``'s pair.  Needs no optional package.
    """
    from gemkit.complexes import HomologyProfile, _sparse_snf, build_complex

    k = build_complex(g)
    f = k.f_vector
    factors: list[list[int]] = [[]]
    for h in range(1, len(k.columns)):
        # The columns of a boundary map are the rows of its transpose,
        # which has the same invariant factors.
        signs = [-1 if pos % 2 else 1 for pos in range(h + 1)]
        rows = [dict(zip(col, signs)) for col in k.columns[h]]
        factors.append(_sparse_snf(rows, f[h - 1])[0])
    factors.append([])
    return HomologyProfile(tuple(
        (f[i] - len(factors[i]) - len(out), tuple(e for e in out if e > 1))
        for i, out in enumerate(factors[1:])
    ))


def doubled(g: ColoredGraph) -> ColoredGraph:
    """Two copies of ``g`` joined by a new last color v <-> v + n."""
    n = g.vertex_count
    mats = [list(m) + [w + n for w in m] for m in g.matchings]
    mats.append([v + n for v in range(n)] + list(range(n)))
    return ColoredGraph(mats)


def random_gem(rng: random.Random, d: int, n: int) -> ColoredGraph:
    """Random connected (d+1)-colored graph of the given even order."""
    while True:
        g = ColoredGraph(
            [standard_matching(n)] + [random_matching(rng, n) for _ in range(d)]
        )
        if g.is_connected():
            return g


def random_bipartite_gem(rng: random.Random, d: int, n: int) -> ColoredGraph:
    """Random connected bipartite (d+1)-colored graph of the given even order.

    Every color joins the even vertex 2i to an odd one.
    """
    while True:
        mats = [standard_matching(n)]
        for _ in range(d):
            odd = list(range(1, n, 2))
            rng.shuffle(odd)
            m = [0] * n
            for i, w in enumerate(odd):
                m[2 * i], m[w] = w, 2 * i
            mats.append(m)
        g = ColoredGraph(mats)
        if g.is_connected():
            return g


def oracle_semi_equivelar_type(g: ColoredGraph, eps, bigons: str = "exclude"):
    """Per-arrangement reference: canonicalize the face tuple of every vertex.

    The library's ``semi_equivelar_type`` before the vertex-uniformity test
    was shared with the all-arrangement report, kept verbatim.
    """
    from gemkit.embedding import (
        TypeSignature,
        _canonical_cyclic,
        _face_lengths,
        _require_gem_input,
    )

    if bigons not in ("include", "exclude"):
        raise ValueError(f"bigons must be 'include' or 'exclude', got {bigons!r}")
    _require_gem_input(g, eps)
    per_pair = _face_lengths(g, eps)
    first = _canonical_cyclic(tuple(col[0] for col in per_pair))
    if bigons == "exclude" and 2 in first:
        return None
    for v in range(1, g.vertex_count):
        if _canonical_cyclic(tuple(col[v] for col in per_pair)) != first:
            return None
    return TypeSignature(first)


def _oracle_g_values(g: ColoredGraph, eps) -> tuple[int, ...]:
    from gemkit.core import component_index

    return tuple(component_index(g, pair)[1] for pair in eps.pairs())


def oracle_semi_equivelar_report(g: ColoredGraph, bigons: str = "exclude"):
    """Per-arrangement reference: walk the d+1 pairs again for every arrangement.

    The library's ``semi_equivelar_report`` before it read one pair-cycle
    table, kept verbatim apart from the names of its helpers: g-values come
    from ``component_index`` per pair, signatures from the per-arrangement
    type above.
    """
    from gemkit.core import NotConnectedError, is_bipartite
    from gemkit.embedding import (
        EmbeddingReport,
        SemiEquivelarReport,
        all_cyclic_permutations,
    )

    if not g.is_connected():
        raise NotConnectedError("semi-equivelar analysis needs a connected graph")
    d = g.dimension
    n = g.vertex_count
    orientable = is_bipartite(g)
    reports = []
    for eps in all_cyclic_permutations(d):
        gvals = _oracle_g_values(g, eps)
        chi = sum(gvals) + (1 - d) * n // 2
        sig = oracle_semi_equivelar_type(g, eps, bigons)
        reports.append(
            EmbeddingReport(eps, gvals, chi, orientable, sig)
        )
    reports.sort(key=lambda r: (r.rho_times_2, r.epsilon.order))
    qualifying = [r for r in reports if r.signature is not None]
    if qualifying:
        best = min(r.rho_times_2 for r in qualifying)
        winners = tuple(
            r.epsilon for r in qualifying if r.rho_times_2 == best
        )
        return SemiEquivelarReport(tuple(reports), best, winners)
    return SemiEquivelarReport(tuple(reports), None, ())


def oracle_regular_genus(g: ColoredGraph):
    """Per-arrangement reference for ``regular_genus``, kept verbatim apart
    from computing each arrangement's genus from ``component_index`` counts.
    """
    from gemkit.core import NotConnectedError, is_bipartite
    from gemkit.embedding import RegularGenus, all_cyclic_permutations

    if not g.is_connected():
        raise NotConnectedError("regular genus needs a connected graph")
    best = None
    winners = []
    for eps in all_cyclic_permutations(g.dimension):
        chi = sum(_oracle_g_values(g, eps)) + (1 - g.dimension) * g.vertex_count // 2
        r2 = 2 - chi
        if best is None or r2 < best:
            best = r2
            winners = [eps]
        elif r2 == best:
            winners.append(eps)
    assert best is not None
    return RegularGenus(best, tuple(winners), is_bipartite(g))


def reference_dedup_canonical(hits) -> list[ColoredGraph]:
    """One graph per color-permuting class, the first hit of each, sorted by
    canonical form: every hit is keyed by its color-permuting form alone.
    """
    from gemkit.core import canonical_form

    by_form = {}
    for g in hits:
        by_form.setdefault(canonical_form(g, "color-permuting"), g)
    return [by_form[k] for k in sorted(by_form)]


def reference_analyze_output(g: ColoredGraph, bigons: str, as_json: bool) -> str:
    """The stdout of ``gemkit analyze`` on ``g``, written report by report.

    The CLI's writer before it filled one template per report shape, kept
    verbatim apart from taking the gem and flags as arguments and holding
    its own rho formatter and writing ``--json`` with the standard library's
    encoder: ``json.dumps(indent=2)`` of a payload holding each report's
    ``to_json_dict``, text through one f-string per report.
    """
    from gemkit.core import is_bipartite, is_contracted
    from gemkit.embedding import semi_equivelar_report

    def _format_rho(rho_times_2: int) -> str:
        if rho_times_2 % 2 == 0:
            return str(rho_times_2 // 2)
        return f"{rho_times_2}/2"

    rep = semi_equivelar_report(g, bigons=bigons)
    if as_json:
        payload = {
            "dimension": g.dimension,
            "vertices": g.vertex_count,
            "bipartite": is_bipartite(g),
            "contracted": is_contracted(g),
            "bigons": bigons,
            "reports": [r.to_json_dict() for r in rep.reports],
            "witness_rho_times_2": rep.witness_rho_times_2,
            "witness_permutations": [list(e.order) for e in rep.witness_permutations],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [
        f"dimension {g.dimension}  vertices {g.vertex_count}  "
        f"bipartite {'yes' if is_bipartite(g) else 'no'}  "
        f"contracted {'yes' if is_contracted(g) else 'no'}"
    ]
    for r in rep.reports:
        faces = (
            "(" + ",".join(str(f) for f in r.signature.faces) + ")"
            if r.signature
            else "-"
        )
        lines.append(
            f"epsilon {r.epsilon}: type {faces}, chi {r.chi}, "
            f"rho {_format_rho(r.rho_times_2)}, g-values {r.g_values}"
        )
    if rep.witness_rho_times_2 is None:
        lines.append("semi-equivelar: no qualifying embedding")
    else:
        eps = ", ".join(str(e) for e in rep.witness_permutations)
        lines.append(
            f"semi-equivelar witness: rho {_format_rho(rep.witness_rho_times_2)} "
            f"via {eps}"
        )
    return "\n".join(lines) + "\n"
