"""Immutable edge-colored multigraphs and their structural analysis.

A graph here is always (d+1)-regular and properly edge-colored with colors
0..d: it is stored as one perfect matching per color, so every vertex meets
exactly one edge of each color.  Two vertices may be joined by parallel
edges of distinct colors (bigons); loops are rejected at construction.
These graphs encode closed piecewise-linear manifolds through the cell
complex built in :mod:`gemkit.complexes`, and everything downstream
(embeddings, homology, searches) walks their colored edges.

All objects are immutable after construction and safe to share between
concurrent readers; every function in this module is pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


class NotConnectedError(ValueError):
    """A gem-level operation was handed a disconnected graph."""


class ColoredGraph:
    """A (d+1)-regular properly edge-colored multigraph on vertices 0..n-1.

    ``matchings[c][v]`` is the vertex joined to ``v`` by the unique edge of
    color ``c``; each matching is a fixed-point-free involution.  Proper
    coloring and (d+1)-regularity are consequences of the representation.
    Disconnected graphs are constructible (residues of connected graphs may
    be disconnected), but gem-level analyses reject them.
    """

    __slots__ = ("matchings", "_connected")

    def __init__(self, matchings: Iterable[Sequence[int]]) -> None:
        mats = tuple(tuple(m) for m in matchings)
        if len(mats) < 2:
            raise ValueError("need at least two colors (dimension >= 1)")
        n = len(mats[0])
        if n < 2 or n % 2:
            raise ValueError(f"vertex count must be even and >= 2, got {n}")
        for c, m in enumerate(mats):
            if len(m) != n:
                raise ValueError(
                    f"matching for color {c} has {len(m)} entries, expected {n}"
                )
            for v, w in enumerate(m):
                if not 0 <= w < n:
                    raise ValueError(f"color {c}: vertex {v} maps to {w!r}")
                if w == v:
                    raise ValueError(f"color {c}: loop at vertex {v}")
                if m[w] != v:
                    raise ValueError(f"color {c}: not an involution at vertex {v}")
        self.matchings = mats
        self._connected: Optional[bool] = None

    @property
    def dimension(self) -> int:
        return len(self.matchings) - 1

    @property
    def vertex_count(self) -> int:
        return len(self.matchings[0])

    @property
    def colors(self) -> range:
        return range(len(self.matchings))

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield each edge once as (u, v, c) with u < v, colors ascending."""
        for c, m in enumerate(self.matchings):
            for u, w in enumerate(m):
                if u < w:
                    yield u, w, c

    def is_connected(self) -> bool:
        if self._connected is None:
            _, count = component_index(self, self.colors)
            self._connected = count == 1
        return self._connected

    def relabel(self, perm: Sequence[int]) -> "ColoredGraph":
        """Apply the vertex bijection v -> perm[v]."""
        if sorted(perm) != list(range(self.vertex_count)):
            raise ValueError("relabeling is not a permutation of the vertices")
        return ColoredGraph(_relabeled_matchings(self.matchings, perm))

    def recolor(self, cmap: Sequence[int]) -> "ColoredGraph":
        """Apply the color bijection c -> cmap[c]."""
        k = len(self.matchings)
        if sorted(cmap) != list(range(k)):
            raise ValueError("recoloring is not a permutation of the colors")
        new = [()] * k
        for c, m in enumerate(self.matchings):
            new[cmap[c]] = m
        return ColoredGraph(new)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ColoredGraph) and self.matchings == other.matchings

    def __hash__(self) -> int:
        return hash(self.matchings)

    def __repr__(self) -> str:
        return (
            f"ColoredGraph(dimension={self.dimension}, "
            f"vertices={self.vertex_count})"
        )


def _relabeled_matchings(
    mats: tuple[tuple[int, ...], ...], perm: Sequence[int]
) -> list[list[int]]:
    n = len(mats[0])
    out = []
    for m in mats:
        new = [0] * n
        for v in range(n):
            new[perm[v]] = perm[m[v]]
        out.append(new)
    return out


def component_index(
    g: ColoredGraph, colors: Iterable[int]
) -> tuple[list[int], int]:
    """Label every vertex with its component id in the chosen residue.

    Ids are assigned in order of the component's minimum vertex.  Returns
    the vertex -> id array together with the number of components.
    """
    cols = _checked_colors(g, colors)
    n = g.vertex_count
    mats = [g.matchings[c] for c in cols]
    idx = [-1] * n
    count = 0
    for start in range(n):
        if idx[start] >= 0:
            continue
        idx[start] = count
        stack = [start]
        while stack:
            v = stack.pop()
            for m in mats:
                w = m[v]
                if idx[w] < 0:
                    idx[w] = count
                    stack.append(w)
        count += 1
    return idx, count


def residue_count(g: ColoredGraph, colors: Iterable[int]) -> int:
    """Number of components of the residue; the classical g-value."""
    return component_index(g, colors)[1]


def _checked_colors(g: ColoredGraph, colors: Iterable[int]) -> tuple[int, ...]:
    cols = tuple(sorted(set(colors)))
    for c in cols:
        if not 0 <= c <= g.dimension:
            raise ValueError(f"color {c} out of range 0..{g.dimension}")
    return cols


def is_bipartite(g: ColoredGraph) -> bool:
    """True iff the underlying multigraph has no odd cycle."""
    n = g.vertex_count
    side = [-1] * n
    for start in range(n):
        if side[start] >= 0:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for m in g.matchings:
                w = m[v]
                if side[w] < 0:
                    side[w] = side[v] ^ 1
                    stack.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def is_contracted(g: ColoredGraph) -> bool:
    """True iff dropping any single color leaves the graph connected."""
    if not g.is_connected():
        raise NotConnectedError("contractedness is defined for connected graphs")
    all_colors = set(g.colors)
    for c in g.colors:
        if component_index(g, all_colors - {c})[1] != 1:
            return False
    return True


def bicolored_cycle_lengths(ma: Sequence[int], mb: Sequence[int]) -> list[int]:
    """Length of the cycle alternating matchings ``ma`` and ``mb``, per vertex.

    The one bicolored-cycle walk: face lengths, vertex types and search
    constraints all read it.  Each cycle is walked once, ``ma`` edge first,
    and its length stored at every vertex on it.
    """
    lengths = [0] * len(ma)
    for start in range(len(ma)):
        if lengths[start]:
            continue
        cycle = [start]
        v = ma[start]
        while True:
            cycle.append(v)
            v = mb[v]
            if v == start:
                break
            cycle.append(v)
            v = ma[v]
        f = len(cycle)
        for v in cycle:
            lengths[v] = f
    return lengths


def residue_graphs(
    g: ColoredGraph, colors: Iterable[int]
) -> list[tuple[ColoredGraph, tuple[int, ...]]]:
    """Extract each component of a residue as its own colored graph.

    Colors are renumbered ascending to 0..q-1 and vertices to 0..m-1 in
    increasing order of their original labels.  Each entry is the component
    graph together with the tuple mapping new vertex -> original vertex.
    """
    cols = _checked_colors(g, colors)
    if len(cols) < 2:
        raise ValueError("a residue graph needs at least two colors")
    idx, count = component_index(g, cols)
    comps: list[list[int]] = [[] for _ in range(count)]
    pos = [0] * len(idx)
    for v, i in enumerate(idx):
        pos[v] = len(comps[i])
        comps[i].append(v)
    mats = [g.matchings[c] for c in cols]
    return [
        (ColoredGraph([[pos[m[v]] for v in comp] for m in mats]), tuple(comp))
        for comp in comps
    ]


@dataclass(frozen=True)
class Isomorphism:
    """A witness pair: vertex bijection plus color bijection.

    ``vertex_map[v]`` and ``color_map[c]`` give the images in the target
    graph; ``color_map`` is the identity in color-fixed mode.
    """

    vertex_map: tuple[int, ...]
    color_map: tuple[int, ...]

    def valid_between(self, a: ColoredGraph, b: ColoredGraph) -> bool:
        if a.dimension != b.dimension or a.vertex_count != b.vertex_count:
            return False
        if sorted(self.vertex_map) != list(range(a.vertex_count)):
            return False
        if sorted(self.color_map) != list(a.colors):
            return False
        for c, m in enumerate(a.matchings):
            bm = b.matchings[self.color_map[c]]
            for v, w in enumerate(m):
                if bm[self.vertex_map[v]] != self.vertex_map[w]:
                    return False
        return True


_MODES = ("color-fixed", "color-permuting")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _bfs_labeling(
    slots: Sequence[Sequence[int]],
    start: int,
    bound: Optional[Sequence[int]] = None,
    exact: bool = False,
) -> Optional[tuple[list[int], list[int], list[int]]]:
    """Deterministic labeling from a seed vertex, cut short against a bound.

    ``slots[j]`` is the matching followed in slot j.  BFS visits neighbors
    in slot order and labels vertices by discovery; the encoding row for
    label x lists, per slot, the label of x's neighbor.  Row x is final
    once vertex x is expanded, so the encoding is compared with ``bound``
    entry by entry while it is built.

    Without a bound the labeling runs to the end.  With one it returns
    None at the first entry above the bound's (or different from it, when
    ``exact``); a labeling below the bound or tying it is completed and
    returned, so the caller tells a tie from a win by comparing encodings.
    Returns (encoding, vertex -> label with -1 off the start's component,
    label -> vertex).
    """
    label = [-1] * len(slots[0])
    label[start] = 0
    order = [start]
    enc: list[int] = []
    tight = bound is not None  # every entry so far equals the bound's
    for v in order:
        for m in slots:
            w = m[v]
            x = label[w]
            if x < 0:
                x = label[w] = len(order)
                order.append(w)
            if tight and x != bound[len(enc)]:
                if exact or x > bound[len(enc)]:
                    return None
                tight = False
            enc.append(x)
    # A tie or exact match cannot stop short: if this component had fewer
    # rows, the bound's first rows would close up into a component just as
    # small.
    return enc, label, order


def _slot_orders(k: int, mode: str) -> Iterable[tuple[int, ...]]:
    """Color slot orders of ``mode`` in lexicographic order."""
    _check_mode(mode)
    if mode == "color-fixed":
        return (tuple(range(k)),)
    return itertools.permutations(range(k))


def canonical_labeling(
    g: ColoredGraph, mode: str = "color-fixed"
) -> tuple[tuple[int, ...], list[int], tuple[int, ...]]:
    """Minimal encoding over BFS labelings, with the labeling achieving it.

    Every (slot order, start vertex) pair is tried, slot orders in
    lexicographic order and starts ascending; the first pair reaching the
    minimal encoding wins.  Each labeling is compared with the best so far
    while it is built and dropped at the first entry that exceeds it
    (prefix pruning), so most labelings stop after a row or two.

    A labeling that ties the best one under the same slot order yields the
    color-fixed automorphism best_order[i] -> order[i]; its orbits are
    kept in a union-find whose roots are their least vertices.  A start in
    the orbit of a lower start is skipped (McKay & Piperno, "Practical
    graph isomorphism II", 2014): its labeling is that of the lower start
    carried by an automorphism, so it would only tie or lose.  Color-fixed
    automorphisms hold under every slot order, so the orbits carry over.
    Returns (encoding, vertex -> label array, slot order sigma).  Two
    connected graphs are isomorphic in the given mode exactly when their
    minimal encodings coincide.
    """
    for enc, label, sigma, _ in _best_labelings(g, mode):
        pass
    return tuple(enc), label, sigma


def _best_labelings(
    g: ColoredGraph, mode: str
) -> Iterator[tuple[list[int], list[int], tuple[int, ...], list[int]]]:
    """``canonical_labeling``'s search, yielding the best after each slot order.

    Each item is (encoding, vertex -> label, slot order, label -> vertex).
    The color-permuting orders start with the identity, the one
    color-fixed order, so the first item in either mode is the color-fixed
    best, and the search goes on from it with the orbits found so far.
    """
    sigmas = _slot_orders(len(g.matchings), mode)
    if not g.is_connected():
        raise NotConnectedError("canonical form is defined for connected graphs")
    orbit = list(range(g.vertex_count))
    best: Optional[tuple[list[int], list[int], tuple[int, ...], list[int]]] = None
    for sigma in sigmas:
        slots = [g.matchings[c] for c in sigma]
        for start in range(g.vertex_count):
            if orbit[start] != start:  # not the least vertex of its orbit
                continue
            found = _bfs_labeling(slots, start, None if best is None else best[0])
            if found is None:
                continue
            enc, label, order = found
            if best is None or enc != best[0]:
                best = (enc, label, sigma, order)
            elif best[2] == sigma:
                for x, y in zip(best[3], order):
                    rx, ry = _orbit_root(orbit, x), _orbit_root(orbit, y)
                    orbit[max(rx, ry)] = min(rx, ry)
        assert best is not None
        yield best


def _orbit_root(parent: list[int], x: int) -> int:
    """Union-find root of ``x``, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def canonical_form(g: ColoredGraph, mode: str = "color-fixed") -> bytes:
    """Canonical byte string: equal exactly for isomorphic graphs.

    Exact (search-based, not hashed), so deduplication through it is sound.
    """
    return _form_bytes(g, canonical_labeling(g, mode)[0])


def _form_bytes(g: ColoredGraph, enc: Sequence[int]) -> bytes:
    """``canonical_form``'s bytes of a minimal encoding of ``g``."""
    n = g.vertex_count
    body = [g.dimension, n] + list(enc)
    if max(g.dimension, n) < 256:  # labels are below n, so every entry fits a byte
        return bytes(body)
    return b",".join(str(x).encode() for x in body)


def _pair_table(g: ColoredGraph) -> dict[tuple[int, int], list[int]]:
    """Per-vertex bicolored cycle lengths of every color pair, keyed both ways.

    Each pair is walked once; both orders of a pair share one list, since
    cycle lengths do not depend on the order.
    """
    table = {}
    for i, j in itertools.combinations(g.colors, 2):
        table[i, j] = table[j, i] = bicolored_cycle_lengths(g.matchings[i], g.matchings[j])
    return table


def _color_maps(
    ta: dict[tuple[int, int], list[int]], tb: dict[tuple[int, int], list[int]], k: int
) -> Iterator[tuple[int, ...]]:
    """Color maps carrying each pair's sorted cycle lengths in ``ta`` onto ``tb``'s.

    An isomorphism under ``cmap`` carries every {i,j}-bicolored cycle onto
    a {cmap[i],cmap[j]}-cycle of the same length, so no other map admits
    one.  ``cmap`` is extended one color at a time, candidates ascending,
    each checked against the colors already mapped, and backtracks by
    popping; maps come out in lexicographic order.
    """
    cmap: list[int] = []
    x = 0  # the next candidate for color len(cmap)
    while True:
        p = len(cmap)
        if p == k:
            yield tuple(cmap)
        if p == k or x == k:
            if not cmap:
                return
            x = cmap.pop() + 1
        elif x in cmap or any(ta[q, p] != tb[cmap[q], x] for q in range(p)):
            x += 1
        else:
            cmap.append(x)
            x = 0


def isomorphic(
    a: ColoredGraph, b: ColoredGraph, mode: str = "color-fixed"
) -> Optional[Isomorphism]:
    """Search for an isomorphism witness; None when there is none.

    ``a`` is BFS-labeled once per component, from its least vertex with
    the identity slot order.  Color maps are then tried in lexicographic
    order (only the identity in color-fixed mode), skipping those under
    which some color pair's cycle lengths differ (``_color_maps``): for
    each, ``b`` is BFS-labeled with the mapped slot order from each
    candidate start, and a labeling is dropped at the first entry that
    differs from ``a``'s encoding.  The returned ``color_map`` is
    therefore the lexicographically first one admitting an isomorphism,
    whatever the vertex labels; ``vertex_map`` is one valid witness for
    it, not a canonical choice.  Disconnected graphs are matched
    component by component.
    """
    _check_mode(mode)
    k = len(a.matchings)
    if a.dimension != b.dimension or a.vertex_count != b.vertex_count:
        return None
    if is_bipartite(a) != is_bipartite(b):
        return None
    ta, tb = ({pair: sorted(ls) for pair, ls in _pair_table(g).items()} for g in (a, b))
    if mode == "color-fixed" and ta != tb:
        return None
    cmaps = [tuple(range(k))] if mode == "color-fixed" else _color_maps(ta, tb, k)
    idx, count = component_index(a, a.colors)  # ids ascend with least vertices
    parts_a = [_bfs_labeling(a.matchings, idx.index(i)) for i in range(count)]
    for cmap in cmaps:
        vmap = _vertex_map(parts_a, [b.matchings[c] for c in cmap])
        if vmap is not None:
            iso = Isomorphism(tuple(vmap), cmap)
            assert iso.valid_between(a, b)
            return iso
    return None


def _vertex_map(
    parts_a: list[tuple[list[int], list[int], list[int]]],
    slots_b: list[tuple[int, ...]],
) -> Optional[list[int]]:
    """Vertex bijection matching each labeled component of ``a`` in ``b``.

    ``parts_a`` holds one BFS labeling per component of ``a``; a component
    of ``b`` matches when its labeling from some start reproduces that
    encoding exactly.  Isomorphism is an equivalence, so taking the first
    unused match never blocks a later component.
    """
    vmap = [-1] * len(slots_b[0])
    used = [False] * len(slots_b[0])
    for enc_a, _, order_a in parts_a:
        for s in range(len(used)):
            if not used[s]:
                found = _bfs_labeling(slots_b, s, enc_a, exact=True)
                if found is not None:
                    break
        else:
            return None
        for va, vb in zip(order_a, found[2]):
            vmap[va] = vb
            used[vb] = True
    return vmap
