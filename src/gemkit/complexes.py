"""The cell complex of a colored graph, its homology, and manifold checks.

One d-simplex is taken per vertex, with its own vertices labeled by the
colors, and simplices are glued along the facets indicated by colored
edges.  The resulting h-cells correspond to pairs (label set of size h+1,
component of the residue on the complementary colors); boundary maps carry
signs from the position of the dropped label in ascending order.  The
residue partitions on all color sets come from one table per graph, each
merged from a smaller one with one union-find pass instead of walked.

Each boundary map is kept as sparse columns, at most h+1 entries +-1 per
h-cell; the dense matrices are only a view built on request.  Homology is
computed by Smith normal form over exact integers, which at these sizes
needs no modular tricks: the columns go straight in as the rows of the
transposed map, every unit pivot is eliminated on those sparse rows, and
the few rows left are reduced in place by gcd steps on least entries.
The manifold check recurses through the residues on all colors but one,
certifying each residue component once per call.  A component of regular
genus 0 is a sphere (Ferri & Gagliardi); only one of positive genus has
its own residues certified and its homology compared with the sphere's.
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
    """Cells and integer boundary maps of the glued simplex complex.

    ``cells[h]`` lists the h-cells as (label set, component id) pairs.
    ``columns[h][j]`` is the sparse boundary of h-cell j: entry ``pos`` is
    the (h-1)-cell of the facet that drops the label at index ``pos`` of
    its label set, with coefficient (-1)^pos; facets drop different
    labels, so the h+1 cells are distinct.  ``boundaries[h]`` is the same
    map as a dense matrix, rows indexed by the (h-1)-cells, built on first
    read.  ``columns[0]`` and ``boundaries[0]`` are empty.
    """

    dimension: int
    cells: tuple[tuple[tuple[tuple[int, ...], int], ...], ...]
    columns: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.cells)

    @cached_property
    def boundaries(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        mats = []
        for h, cols in enumerate(self.columns):
            mat = [[0] * len(cols) for _ in self.cells[h - 1]] if h else []
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
    if not g.is_connected():
        raise NotConnectedError("the complex is built for connected graphs")
    cells, columns = _layers(g)
    return PseudoComplex(g.dimension, cells, columns)


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


def _layers(g: ColoredGraph) -> tuple[tuple, tuple]:
    """Cells of every dimension and boundary columns of dimension 1 and up.

    An h-cell's label set C picks the residue on the complementary colors
    from ``g``'s partition table; the cells are its components, in id
    order, and each column is read at the component's least vertex.
    """
    table = _partition_table(g)
    full = (1 << len(g.matchings)) - 1
    # For every label set C: the cell offset and the partition of the
    # residue on the complement.
    subset_info: dict[tuple[int, ...], tuple[int, list[int], list[int]]] = {}
    cells: list[tuple[tuple[tuple[int, ...], int], ...]] = []
    for h in g.colors:
        layer = []
        offset = 0
        for C in itertools.combinations(g.colors, h + 1):
            idx, least = table[full ^ sum(1 << c for c in C)]
            subset_info[C] = (offset, idx, least)
            layer.extend((C, j) for j in range(len(least)))
            offset += len(least)
        cells.append(tuple(layer))

    columns: list[tuple[tuple[int, ...], ...]] = [()]
    for h in range(1, len(g.matchings)):
        layer_cols: list[tuple[int, ...]] = []
        for C in itertools.combinations(g.colors, h + 1):
            _, _, reps = subset_info[C]
            facet_rows = []
            for pos in range(h + 1):
                f_offset, f_idx, _ = subset_info[C[:pos] + C[pos + 1 :]]
                facet_rows.append([f_offset + f_idx[rep] for rep in reps])
            layer_cols += zip(*facet_rows)
        columns.append(tuple(layer_cols))
    return tuple(cells), tuple(columns)


def euler_characteristic_complex(k: PseudoComplex) -> int:
    """Alternating sum of cell counts."""
    return sum((-1) ** h * f for h, f in enumerate(k.f_vector))


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
    return _sparse_snf([{j: v for j, v in enumerate(r) if v} for r in rows], width)


def _sparse_snf(sparse: list[dict[int, int]], width: int) -> list[int]:
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
    neither the order nor the pivots change the result.
    """
    col_rows: list[set[int]] = [set() for _ in range(width)]
    for i, r in enumerate(sparse):
        for j in r:
            col_rows[j].add(i)
    order = sorted(range(width), key=lambda j: len(col_rows[j]))
    units = 0
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
        units += 1
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
    return [1] * (units + len(diagonal) - len(chain)) + chain


@dataclass(frozen=True)
class HomologyProfile:
    """Integral homology per dimension: free rank and torsion coefficients.

    Torsion lists are ordered so each coefficient divides the next.
    """

    groups: tuple[tuple[int, tuple[int, ...]], ...]

    def rank(self, i: int) -> int:
        return self.groups[i][0]

    def torsion(self, i: int) -> tuple[int, ...]:
        return self.groups[i][1]

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


def homology_of_complex(k: PseudoComplex) -> HomologyProfile:
    """Integral homology H_0 .. H_d of the complex, d its dimension.

    Raises no error: ``build_complex`` already raised ``NotConnectedError``
    for a disconnected graph.
    """
    f = k.f_vector
    factors: list[list[int]] = [[]]
    for h in range(1, len(k.columns)):
        # The columns of a boundary map are the rows of its transpose,
        # which has the same invariant factors.
        signs = [-1 if pos % 2 else 1 for pos in range(h + 1)]
        rows = [dict(zip(col, signs)) for col in k.columns[h]]
        factors.append(_sparse_snf(rows, f[h - 1]))
    factors.append([])
    return HomologyProfile(tuple(
        (f[i] - len(factors[i]) - len(out), tuple(e for e in out if e > 1))
        for i, out in enumerate(factors[1:])
    ))


def homology(g: ColoredGraph) -> HomologyProfile:
    """Integral homology of the space the graph encodes."""
    return homology_of_complex(build_complex(g))


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
    return _manifold_check(g, {})


def _manifold_check(
    g: ColoredGraph, memo: dict[ColoredGraph, Optional[str]]
) -> ManifoldVerdict:
    """Certify a connected graph of dimension >= 3 by its residues.

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
            failure = memo[piece]
            if failure is not None:
                return ManifoldVerdict(
                    FAILED, f"residue without color {c}, component {piece_no}: {failure}"
                )
    if g.dimension == 3:
        return ManifoldVerdict(CERTIFIED_3_MANIFOLD)
    return ManifoldVerdict(HOMOLOGY_CERTIFIED)


def _residue_failure(
    piece: ColoredGraph, memo: dict[ColoredGraph, Optional[str]]
) -> Optional[str]:
    """Why a residue component of a gem fails to be a sphere, or None.

    A piece of regular genus 0 passes at once: a connected (m+1)-colored
    graph with a regular embedding in the 2-sphere represents S^m (Ferri &
    Gagliardi, "The only genus zero n-manifold is S^n", Proc. AMS 85,
    1982).  That needs no manifold hypothesis on the piece: deleting a
    color from a genus-0 embedding leaves its residues genus 0, so by
    induction they are spheres and the piece is a closed manifold.  A
    sphere passes the test below as well, so neither the verdict nor the
    first failure reported depends on this shortcut.

    Otherwise a surface, whose genus is its only arrangement's, is not a
    sphere.  From m = 3 up the piece's own residues are certified first,
    then its homology is compared with the m-sphere's.
    """
    m = piece.dimension
    if _genus_zero(piece):
        return None
    if m == 2:
        chi = euler_characteristic(piece, CyclicPermutation((0, 1, 2)))
        return f"surface has chi {chi}, expected 2"
    sub = _manifold_check(piece, memo)
    if not sub.ok:
        return sub.detail
    if homology(piece) != sphere_profile(m):
        return f"homology differs from the {m}-sphere"
    return None


def consistency_surface(g: ColoredGraph) -> bool:
    """Check the two Euler characteristic derivations agree on a surface."""
    if g.dimension != 2:
        raise ValueError("surface consistency check needs dimension 2")
    chi_cells = euler_characteristic_complex(build_complex(g))
    chi_embed = euler_characteristic(g, CyclicPermutation((0, 1, 2)))
    return chi_cells == chi_embed
