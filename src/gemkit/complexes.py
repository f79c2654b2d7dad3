"""The cell complex of a colored graph, its homology, and manifold checks.

One d-simplex is taken per vertex, with its own vertices labeled by the
colors, and simplices are glued along the facets indicated by colored
edges.  The resulting h-cells correspond to pairs (label set of size h+1,
component of the residue on the complementary colors); boundary maps carry
signs from the position of the dropped label in ascending order.  The
residue partitions on all color sets come from one table per graph, each
merged from a smaller one with one union-find pass instead of walked.

The complex keeps each label set's cell count and each boundary map as
sparse columns, at most h+1 entries +-1 per h-cell; the cell tuples and
dense matrices are views built on request.  Homology reads the outer two
maps' Smith normal forms off the gem: d_d is its vertex-edge incidence
matrix up to signs, with factors 1 and one 2 iff it is not bipartite, and
d_1 the incidence matrix of the connected 1-skeleton, all factors 1.  So
only the maps d_(d-1) .. d_2 get columns and are reduced, by Smith normal
form over exact integers, which at these sizes needs no modular tricks:
from the top down, the columns go in as the rows of the transposed map,
every unit pivot is eliminated on those sparse rows, the few rows left are
reduced in place by gcd steps on least entries, and the cells of the unit
pivots leave the next map down, as the edges of a spanning tree of the gem
leave d_(d-1).
The manifold check recurses through the residues on all colors but one,
certifying each residue component once per call.  A component of regular
genus 0 (the arrangement search's first hit) is a sphere (Ferri &
Gagliardi); any other has its residues certified and homology compared.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import Optional

from .core import ColoredGraph, NotConnectedError, is_bipartite, residue_graphs
from .embedding import CyclicPermutation, _genus_zero, euler_characteristic


@dataclass(frozen=True)
class PseudoComplex:
    """Cell counts and integer boundary maps of the glued simplex complex.

    ``counts[h]`` holds the h-cell count of every label set of size h+1,
    in ``combinations`` order.  ``columns[h][j]`` is the sparse boundary
    of h-cell j: entry ``pos`` is the (h-1)-cell of the facet that drops
    the label at index ``pos`` of its label set, with coefficient
    (-1)^pos; facets drop different labels, so the h+1 cells are distinct.
    Views built on first read: ``cells[h]``, the h-cells as (label set,
    component id) pairs, and ``boundaries[h]``, the map as a dense matrix
    with rows indexed by the (h-1)-cells.  ``columns[0]`` and
    ``boundaries[0]`` are empty.
    """

    dimension: int
    counts: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(sum, self.counts))

    @cached_property
    def cells(self) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
        labels = range(self.dimension + 1)
        layers = (zip(itertools.combinations(labels, h + 1), c) for h, c in enumerate(self.counts))
        return tuple(tuple((C, j) for C, n in layer for j in range(n)) for layer in layers)

    @cached_property
    def boundaries(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        mats = []
        for h, cols in enumerate(self.columns):
            mat = [[0] * len(cols) for _ in range(self.f_vector[h - 1])] if h else []
            for j, col in enumerate(cols):
                for pos, i in enumerate(col):
                    mat[i][j] = -1 if pos % 2 else 1
            mats.append(tuple(tuple(r) for r in mat))
        return tuple(mats)

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "cells": [
                [{"labels": list(lbls), "component": comp} for lbls, comp in layer]
                for layer in self.cells
            ],
            "boundaries": [
                [list(row) for row in mat] for mat in self.boundaries
            ],
        }


def build_complex(g: ColoredGraph) -> PseudoComplex:
    """Glue one d-simplex per vertex along the colored edges."""
    counts, columns, _ = _layers(g, range(1, len(g.matchings)))
    return PseudoComplex(g.dimension, counts, columns)


def _partition_table(g: ColoredGraph) -> list[tuple[list[int], list[int]]]:
    """The residue partition on every color set, indexed by its bitmask.

    Entry ``mask`` holds the component id of every vertex, the ids of
    ``component_index(g, colors of mask)``, and the least vertex of every
    component.  Entries are not walked but merged: the partition on a set
    S is the one on S minus its highest color c, with the components that
    c's edges join united.  The union keeps the smaller id as root, and ids
    were given by least vertex, so the roots in increasing order give the
    merged components in order of least vertex too.
    """
    n = g.vertex_count
    edges = [[(v, w) for v, w in enumerate(m) if v < w] for m in g.matchings]
    table = [(list(range(n)), list(range(n)))]
    for mask in range(1, 1 << len(g.matchings)):
        c = mask.bit_length() - 1
        idx, least = table[mask ^ (1 << c)]
        parent = list(range(len(least)))
        for v, w in edges[c]:
            a, b = idx[v], idx[w]
            if a == b:
                continue
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
        # parent[i] <= i, so its new id is known before i's.
        new = [0] * len(parent)
        roots: list[int] = []
        for i, p in enumerate(parent):
            if p == i:
                new[i] = len(roots)
                roots.append(least[i])
            else:
                new[i] = new[p]
        table.append(([new[i] for i in idx], roots))
    return table


def _layers(g: ColoredGraph, span: range) -> tuple[tuple, tuple, dict[int, tuple[int, list[int]]]]:
    """Cell counts per label set, and boundary columns of the dimensions in ``span``.

    One pass takes the label sets C, by bitmask, one dimension at a time.
    C records its first cell and the residue ids of the partition on its
    complementary colors, then appends its component count.  In the
    dimensions of ``span`` (others are left empty; dimension 0 has none),
    its columns (one per component, read at the least vertex) come from
    the records its facets made one dimension earlier.  Returns the
    counts, the columns and the records, by label set bitmask.  Raises
    ``NotConnectedError`` for a disconnected graph.
    """
    if not g.is_connected():
        raise NotConnectedError("the complex is built for connected graphs")
    table = _partition_table(g)
    full = (1 << len(g.matchings)) - 1
    records: dict[int, tuple[int, list[int]]] = {}
    counts, columns = [], []
    for h in g.colors:
        offset, layer, cols = 0, [], []
        for C in itertools.combinations(g.colors, h + 1):
            mask = sum(1 << c for c in C)
            idx, least = table[full ^ mask]
            records[mask] = (offset, idx)
            if h in span:
                facets = [records[mask ^ 1 << c] for c in C]
                cols += zip(*([first + f_idx[v] for v in least] for first, f_idx in facets))
            layer.append(len(least))
            offset += len(least)
        counts.append(tuple(layer))
        columns.append(tuple(cols))
    return tuple(counts), tuple(columns), records


def smith_invariant_factors(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    The matrix and its rows must be sequences, the rows of equal length
    and holding exact ints (no bools, floats or other numbers); anything
    else raises ``ValueError``.
    """
    if not isinstance(rows, Sequence) or not all(isinstance(r, Sequence) for r in rows):
        raise ValueError("rows must be sequences")
    width = len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        raise ValueError("rows must have equal length")
    if any(type(v) is not int for r in rows for v in r):
        raise ValueError("entries must be exact ints")
    return _sparse_snf([{j: v for j, v in enumerate(r) if v} for r in rows], width)[0]


def _sparse_snf(sparse: list[dict[int, int]], width: int) -> tuple[list[int], list[int]]:
    """Invariant factors of the matrix with these sparse rows, consumed.

    Columns ``0..width-1`` are swept twice, those with the fewest entries
    at the start first, and ties between pivots go to the shortest row.
    The first sweep takes the unit pivots, each clearing its column with
    its row.  The second pivots each column left on its least entry: row
    operations with floor quotients leave the other rows their remainders
    until the pivot stands alone in its column, then column operations
    reduce the pivot row likewise and its least remainder is swapped in.
    A pivot alone in its row and column drops out with them.  The dropped
    pivots are the diagonal of an equivalent matrix, which gcd and lcm of
    pairs turn into the divisor chain.  Invariant factors are unique, so
    neither the order nor the pivots change the result.  Returns the
    factors and the first sweep's unit-pivot columns in pivot order, the
    cells ``homology`` cancels from the next map down.
    """
    col_rows: list[set[int]] = [set() for _ in range(width)]
    for i, r in enumerate(sparse):
        for j in r:
            col_rows[j].add(i)
    order = sorted(range(width), key=lambda j: len(col_rows[j]))
    units: list[int] = []
    for j in order:
        pivot = None
        for i in col_rows[j]:
            if sparse[i][j] in (1, -1) and (
                pivot is None or len(sparse[i]) < len(sparse[pivot])
            ):
                pivot = i
        if pivot is None:
            continue
        # Row operations clear column j outside the pivot row, then column
        # operations the pivot row; ``col_rows[j]`` goes stale, unread.
        prow = sparse[pivot]
        sparse[pivot] = {}
        for k in prow:
            col_rows[k].discard(pivot)
        sign = prow.pop(j)
        for i in col_rows[j]:
            r = sparse[i]
            q = r.pop(j) * sign
            for k, v in prow.items():
                nv = r.get(k, 0) - q * v
                if nv:
                    if k not in r:
                        col_rows[k].add(i)
                    r[k] = nv
                else:
                    del r[k]
                    col_rows[k].discard(i)
        units.append(j)
    # The rows left are few and short, so the second sweep scans them.  Its
    # column and pivot row have their own names: the closures below make
    # them cell variables, which would slow down ``j`` and ``prow`` above.
    rest = [r for r in sparse if r]
    live = {k for r in rest for k in r}
    diagonal = []
    for col in order:
        while col in live and (rows := [r for r in rest if col in r]):
            top = min(rows, key=lambda r: (abs(r[col]), len(r)))
            p = top[col]
            if len(rows) > 1:
                for r in rows:
                    if r is not top:
                        q = r[col] // p
                        for k, v in top.items():
                            r[k] = r.get(k, 0) - q * v
                            if not r[k]:
                                del r[k]
                continue
            # Column col is p alone, so column operations touch only its row.
            for k in list(top):
                top[k] %= p
                if not top[k]:
                    del top[k]
            if top:
                k = min(top, key=lambda k: abs(top[k]))
                for r in rest:
                    if k in r:
                        r[col] = r.pop(k)
                top[k] = p
            else:
                diagonal.append(abs(p))
    chain = [e for e in diagonal if e > 1]
    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            chain[a], chain[b] = gcd(chain[a], chain[b]), lcm(chain[a], chain[b])
    return [1] * (len(units) + len(diagonal) - len(chain)) + chain, units


@dataclass(frozen=True)
class HomologyProfile:
    """Integral homology per dimension: free rank and torsion coefficients.

    Torsion lists are ordered so each coefficient divides the next.
    """

    groups: tuple[tuple[int, tuple[int, ...]], ...]

    def group_str(self, i: int) -> str:
        rank, tors = self.groups[i]
        parts = []
        if rank == 1:
            parts.append("Z")
        elif rank > 1:
            parts.append(f"Z^{rank}")
        parts.extend(f"Z_{t}" for t in tors)
        return "+".join(parts) if parts else "0"

    def to_json(self) -> list[dict]:
        return [{"rank": r, "torsion": list(t)} for r, t in self.groups]

    def __str__(self) -> str:
        return " ".join(
            f"H{i}={self.group_str(i)}" for i in range(len(self.groups))
        )


def homology(g: ColoredGraph) -> HomologyProfile:
    """Integral homology H_0 .. H_d of the space the graph encodes.

    Only the interior maps d_(d-1) .. d_2 are reduced, each transposed,
    and the (h-1)-cells of the unit pivots of d_h's first sweep are left
    out of d_(h-1)'s transpose.  Every map keeps its invariant factors.
    Say that sweep pivots columns a_1, a_2, ... in turn.  It only adds
    multiples of one row to another, so a_k's pivot row is w_k = d_h z_k
    for an integer chain z_k, +-1 on a_k and 0 on the earlier pivot
    columns, which their pivots cleared.  So the w_k and the cells not
    pivoted form a unimodular basis of C_(h-1), and
    d_(h-1) w_k = d_(h-1) d_h z_k = 0: in that basis d_(h-1) is [0 | M],
    with M its columns on the cells not pivoted, and M has the invariant
    factors of d_(h-1).  The gcd sweep also operates on columns, so its
    pivot rows need not be of this form and their cells stay.

    The outer two maps have closed forms (Grossman, Kulkarni &
    Schochetman, "On the minors of an incidence matrix and its Smith
    normal form", Linear Algebra Appl. 218, 1995).  The d-cells are the
    n vertices and the (d-1)-cells the edges, so d_d sends a vertex u to
    the sum over colors c of (-1)^c times u's edge of color c: up to row
    signs, the vertex-edge incidence matrix of the gem.  Take a spanning
    tree of the gem, its edges e_k = (x_k, parent(x_k)) in post-order, and
    signs eps flipping along tree edges.  Then z_k = sum of eps_u u over
    x_k's subtree gives w_k = d_d z_k, +-1 on e_k and 0 on every other
    tree edge, the earlier ones included: e_k is the one tree edge with
    exactly one end in the subtree.  These are the pivot rows above, so
    the tree edges leave d_(d-1) with its invariant factors kept, and d_d
    has n - 1 factors 1.  The last row, d_d of the sum of all eps_u u, is
    0 on tree edges and 0 or +-2 on the others, and 0 exactly when eps
    properly 2-colors the gem: one factor 2 more iff the gem is not
    bipartite.  d_1 sends a 1-cell on labels
    a < b to [b-cell] - [a-cell], a directed incidence matrix of the
    complex's 1-skeleton, which is connected: totally unimodular of rank
    f_0 - 1, so f_0 - 1 factors 1, whatever cells were left out.  For
    d = 1 the two rules agree.
    """
    d = g.dimension
    counts, columns, records = _layers(g, range(2, d))
    f = [sum(c) for c in counts]
    factors: list[list[int]] = [[] for _ in range(d + 2)]
    units, bipartite = _spanning_tree(g, records)
    factors[d] = [1] * (f[d] - 1) + ([] if bipartite else [2])
    factors[1] = [1] * (f[0] - 1)
    for h in range(d - 1, 1, -1):
        # The columns of a boundary map are the rows of its transpose,
        # which has the same invariant factors.
        signs = [-1 if pos % 2 else 1 for pos in range(h + 1)]
        cut = set(units)
        rows = [dict(zip(c, signs)) for j, c in enumerate(columns[h]) if j not in cut]
        factors[h], units = _sparse_snf(rows, f[h - 1])
    return HomologyProfile(tuple(
        (f[i] - len(factors[i]) - len(out), tuple(e for e in out if e > 1))
        for i, out in enumerate(factors[1:])
    ))


def _spanning_tree(
    g: ColoredGraph, records: dict[int, tuple[int, list[int]]]
) -> tuple[list[int], bool]:
    """The (d-1)-cells of a spanning tree of the gem, and its bipartiteness.

    A depth-first search from vertex 0 takes each edge to a new vertex
    into the tree and 2-colors the vertices along it.  The edge of color c
    at v is the cell of label set "all colors but c" whose component is
    v's in the residue on color c, read from that label set's record.
    """
    full = (1 << len(g.matchings)) - 1
    cells = [records[full ^ 1 << c] for c in g.colors]
    side = [-1] * g.vertex_count
    side[0] = 0
    stack, tree, bipartite = [0], [], True
    while stack:
        v = stack.pop()
        for m, (first, idx) in zip(g.matchings, cells):
            w = m[v]
            if side[w] < 0:
                side[w] = side[v] ^ 1
                tree.append(first + idx[v])
                stack.append(w)
            elif side[w] == side[v]:
                bipartite = False
    return tree, bipartite


def sphere_profile(m: int) -> HomologyProfile:
    """Expected homology of the m-sphere, m >= 1."""
    groups = [(0, ()) for _ in range(m + 1)]
    groups[0] = (1, ())
    groups[m] = (groups[m][0] + 1, ())
    return HomologyProfile(tuple(groups))


def orientable(g: ColoredGraph) -> bool:
    """Orientability of the encoded space; coincides with bipartiteness."""
    if not g.is_connected():
        raise NotConnectedError("orientability needs a connected graph")
    return is_bipartite(g)


CERTIFIED_SURFACE = "certified-surface"
CERTIFIED_3_MANIFOLD = "certified-3-manifold"
HOMOLOGY_CERTIFIED = "homology-certified"
FAILED = "failed"


@dataclass(frozen=True)
class ManifoldVerdict:
    """Outcome of the manifold certification of a colored graph.

    For dimension 2 every connected graph encodes a closed surface.  In
    dimension 3 the certificate is complete: each residue component must
    encode a 2-sphere.  From dimension 4 up the verdict is only a partial
    certificate (residues are checked recursively and against the sphere's
    homology), never a proof.
    """

    kind: str
    detail: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.kind != FAILED

    def __str__(self) -> str:
        return self.kind if self.detail is None else f"{self.kind}: {self.detail}"


def manifold_check(g: ColoredGraph) -> ManifoldVerdict:
    """Certify that the graph encodes a closed manifold, as far as known.

    Returns a ``ManifoldVerdict``: ``certified-surface`` in dimension 2,
    ``certified-3-manifold`` in dimension 3, ``homology-certified`` above,
    or ``failed`` with the first residue that is not a sphere.  Raises
    ``NotConnectedError`` for a disconnected graph and ``ValueError`` for
    dimension d < 2.
    """
    if not g.is_connected():
        raise NotConnectedError("manifold certification needs a connected graph")
    if g.dimension < 2:
        raise ValueError("manifold certification is defined for dimension >= 2")
    if g.dimension == 2:
        return ManifoldVerdict(CERTIFIED_SURFACE)
    failure = _manifold_check(g, {})
    if failure is not None:
        return ManifoldVerdict(FAILED, failure)
    return ManifoldVerdict(CERTIFIED_3_MANIFOLD if g.dimension == 3 else HOMOLOGY_CERTIFIED)


def _manifold_check(g: ColoredGraph, memo: dict[ColoredGraph, Optional[str]]) -> Optional[str]:
    """Why the first residue of a connected graph of dimension >= 3 that
    is not a sphere fails, or None if every residue passes.

    One residue component is reached along every order of deleting its
    missing colors and renumbered to the same graph each time, so
    ``memo`` (shared by one top-level call) records each residue's failure
    detail, or None if it passed, the first time it is visited.  Residues
    are still visited in the same order, so the first failure reported is
    unchanged.
    """
    for c in g.colors:
        pieces = residue_graphs(g, [x for x in g.colors if x != c])
        for piece_no, (piece, _) in enumerate(pieces):
            if piece not in memo:
                memo[piece] = _residue_failure(piece, memo)
            if memo[piece] is not None:
                return f"residue without color {c}, component {piece_no}: {memo[piece]}"
    return None


def _residue_failure(
    piece: ColoredGraph, memo: dict[ColoredGraph, Optional[str]]
) -> Optional[str]:
    """Why a residue component of a gem fails to be a sphere, or None.

    A piece of regular genus 0 passes at once: it represents S^m (Ferri &
    Gagliardi, "The only genus zero n-manifold is S^n", Proc. AMS 85, 1982)
    with no manifold hypothesis: its residues have genus 0 too, so they are
    spheres by induction.  ``_genus_zero`` stops the arrangement search at
    its first sphere.  A sphere passes the tests below too, so the verdict
    and the first failure do not depend on this.  Otherwise a surface is
    not a sphere; from m = 3 up the piece's own residues are certified,
    then its homology is compared with the m-sphere's.
    """
    m = piece.dimension
    if _genus_zero(piece):
        return None
    if m == 2:
        chi = euler_characteristic(piece, CyclicPermutation((0, 1, 2)))
        return f"surface has chi {chi}, expected 2"
    sub = _manifold_check(piece, memo)
    if sub is None and homology(piece) != sphere_profile(m):
        return f"homology differs from the {m}-sphere"
    return sub
