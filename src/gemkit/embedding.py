"""Regular embeddings of colored graphs indexed by cyclic color orders.

Every cyclic arrangement of the colors determines a surface into which a
connected (d+1)-colored graph embeds so that each face is bounded by a
cycle alternating two cyclically consecutive colors.  This module computes
the Euler characteristic and genus of those surfaces, the face-cycle type
seen at each vertex, and detects when all vertices see the same type.  The
least genus, and whether it is 0, comes from one depth-first search over
cyclic orders that cuts a prefix by a bound on the faces still open.
Arithmetic is exact: the genus is kept as a doubled integer.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .core import (
    ColoredGraph,
    NotConnectedError,
    _pair_table,
    bicolored_cycle_lengths,
    is_bipartite,
)


@dataclass(frozen=True)
class CyclicPermutation:
    """A cyclic arrangement of the colors 0..d, stored canonically.

    The representative starts at 0 and, for d >= 2, has its second entry
    smaller than its last, which kills rotations and reflections.
    """

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        t = self.order
        if not t or sorted(t) != list(range(len(t))):
            raise ValueError(f"{t!r} is not an arrangement of 0..{max(len(t) - 1, 0)}")
        if t[0] != 0:
            raise ValueError("canonical arrangement must start at color 0")
        if len(t) > 2 and t[1] > t[-1]:
            raise ValueError("canonical arrangement requires order[1] < order[-1]")

    @classmethod
    def from_sequence(cls, seq: Iterable[int]) -> "CyclicPermutation":
        """Canonicalize an arbitrary cyclic arrangement."""
        return cls(_canonical_cyclic(tuple(seq)))

    def __iter__(self):
        return iter(self.order)

    def __getitem__(self, i: int) -> int:
        return self.order[i]

    def __len__(self) -> int:
        return len(self.order)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Cyclically consecutive color pairs, one per face family."""
        k = len(self.order)
        return tuple(
            (self.order[i], self.order[(i + 1) % k]) for i in range(k)
        )

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.order) + ")"


def all_cyclic_permutations(d: int) -> list[CyclicPermutation]:
    """All canonical cyclic arrangements of 0..d, sorted; d!/2 for d >= 2.

    Public as the paper's regular embeddings of a gem, one per arrangement.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return [eps for eps, _ in _arrangements(d)]


@functools.lru_cache(maxsize=None)
def _arrangements(d: int) -> tuple[tuple[CyclicPermutation, operator.itemgetter], ...]:
    """``all_cyclic_permutations(d)``, each with a getter of its pairs, built once per d.

    The getter reads the entries of the arrangement's d + 1 consecutive
    pairs, each sorted, from a list laid out in ``combinations(range(d + 1),
    2)`` order; it picks at least two (d >= 1), so it always returns a tuple.
    """
    # permutations() yields them sorted; the ends differ unless d = 1,
    # whose one arrangement (0, 1) the ``<=`` keeps.
    rests = itertools.permutations(range(1, d + 1))
    out = [CyclicPermutation((0,) + r) for r in rests if r[0] <= r[-1]]
    pos = {}
    for i, (a, b) in enumerate(itertools.combinations(range(d + 1), 2)):
        pos[a, b] = pos[b, a] = i
    # Each arrangement starts at color 0, so (0,) closes its cycle.
    return tuple(
        (eps, operator.itemgetter(*map(pos.__getitem__, zip(eps.order, eps.order[1:] + (0,)))))
        for eps in out
    )


def _canonical_cyclic(t: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least rotation of ``t`` or of its reverse; it starts
    at the least entry, so only the rotations that start there are built."""
    if not t:
        return t
    m = min(t)
    k = range(len(t))
    return min(w[i:] + w[:i] for w in (t, t[::-1]) for i in k if w[i] == m)


@dataclass(frozen=True)
class TypeSignature:
    """The face-cycle tuple seen at a vertex, as a cyclic word.

    Stored as the canonical representative under rotation and reflection,
    so equality of signatures is exactly sameness of type.  The condensed
    form groups maximal runs of equal entries.
    """

    faces: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.faces:
            raise ValueError("a signature needs at least one face")
        for f in self.faces:
            if f < 2 or f % 2:
                raise ValueError(f"face lengths must be even and >= 2, got {f}")
        if self.faces != _canonical_cyclic(self.faces):
            raise ValueError("signature must be in canonical cyclic form")

    @classmethod
    def from_tuple(cls, raw: Iterable[int]) -> "TypeSignature":
        return cls(_canonical_cyclic(tuple(raw)))

    @property
    def condensed(self) -> tuple[tuple[int, int], ...]:
        """Maximal runs as (length, multiplicity) pairs.

        The canonical representative of a non-constant cyclic word never
        wraps a run, so linear run-length grouping is already cyclic.
        """
        return _runs(self.faces)

    def __str__(self) -> str:
        return condensed_str(self.condensed)


def _runs(word: Iterable[object]) -> tuple[tuple[object, int], ...]:
    """Maximal runs of equal entries as (entry, multiplicity) pairs."""
    return tuple((value, len(tuple(grp))) for value, grp in itertools.groupby(word))


def condensed_str(runs: Iterable[tuple[object, int]]) -> str:
    """Render (length, multiplicity) runs the way signatures print."""
    return "(" + ",".join(f"{q}^{k}" for q, k in runs) + ")"


def _require_gem_input(g: ColoredGraph, eps: CyclicPermutation) -> None:
    if len(eps) != g.dimension + 1:
        raise ValueError(
            f"arrangement of {len(eps)} colors does not match dimension {g.dimension}"
        )
    if not g.is_connected():
        raise NotConnectedError("embedding invariants need a connected graph")


def euler_characteristic(g: ColoredGraph, eps: CyclicPermutation) -> int:
    """Euler characteristic of the embedding surface for this arrangement.

    Equals the sum of bicolored-cycle counts over consecutive color pairs
    plus (1-d) n/2.
    """
    _require_gem_input(g, eps)
    g_values = sum(_cycle_count(lengths) for lengths in _face_lengths(g, eps))
    return g_values + (1 - g.dimension) * g.vertex_count // 2


def rho_times_2(g: ColoredGraph, eps: CyclicPermutation) -> int:
    """Twice the genus of the embedding surface: 2 - chi, exactly."""
    return 2 - euler_characteristic(g, eps)


@dataclass(frozen=True)
class RegularGenus:
    """Minimum genus over all cyclic arrangements, with every argmin.

    For bipartite graphs the value is the genus of the orientable surface;
    for non-bipartite ones it is half the genus of the non-orientable one.
    """

    rho_times_2: int
    witnesses: tuple[CyclicPermutation, ...]
    bipartite: bool

    @property
    def rho(self) -> Fraction:
        return Fraction(self.rho_times_2, 2)


def regular_genus(g: ColoredGraph) -> RegularGenus:
    """Minimize the embedding genus over all canonical arrangements."""
    if not g.is_connected():
        raise NotConnectedError("regular genus needs a connected graph")
    faces, orders = _most_faces(g, 0, first=False)
    rho2 = 2 - (1 - g.dimension) * g.vertex_count // 2 - faces
    return RegularGenus(rho2, tuple(map(CyclicPermutation, orders)), is_bipartite(g))


def _genus_zero(g: ColoredGraph) -> bool:
    """Whether some arrangement embeds the connected graph ``g`` in the sphere."""
    return bool(_most_faces(g, 2 - (1 - g.dimension) * g.vertex_count // 2, True)[1])


def _most_faces(g: ColoredGraph, best: int, first: bool) -> tuple[int, list[tuple[int, ...]]]:
    """The most faces of any arrangement, if at least ``best``, with every
    order that has them in ``all_cyclic_permutations`` order (or the first).

    An order's faces are its pairs' g-values summed; chi = faces + (1-d)n/2.
    Prefixes (0, x, ...) grow depth first, least x first; with two colors
    left, only the children whose one leaf ends above the second color are
    pushed.  An unplaced color lies on two open pairs, color 0 and the last
    color on one each: a prefix whose open pairs cannot reach ``best`` by
    those colors' largest g-values is cut, and a tie is kept.
    """
    gvals = _g_values(_pair_table(g))
    colors = g.colors
    # Largest first, doubled: at d = 1 both pairs of a color are one pair.
    rows = [sorted((gvals[c, x] for x in colors if x != c), reverse=True) * 2 for c in colors]
    top, two = [r[0] for r in rows], [r[0] + r[1] for r in rows]
    found: list[tuple[int, ...]] = []
    # Entries: prefix, faces on its pairs, ``two`` summed over unplaced colors, those.
    stack = [((0,), 0, sum(two) - two[0], tuple(colors[1:]))] if sum(two) >= 2 * best else []
    while stack:
        t, s, rest, left = stack.pop()
        a = t[-1]
        if len(left) > 2:
            end = len(left)
        elif len(left) == 2:
            # Child i's leaf ends on the other color, the second is t[1] (at
            # d = 2 the child), and ``left`` ascends: the children kept come first.
            second = t[1] if len(t) > 1 else left[0]
            end = (left[0] > second) + (left[1] > second)
        else:
            x = left[0]
            s += gvals[a, x] + gvals[x, 0]
            if s > best:
                best, found = s, []
            if s == best:
                found.append(t + (x,))
                if first:
                    break
            continue
        for i in reversed(range(end)):
            x = left[i]
            sx, rx = s + gvals[a, x], rest - two[x]
            if 2 * sx + rx + top[0] + top[x] >= 2 * best:
                stack.append((t + (x,), sx, rx, left[:i] + left[i + 1 :]))
    return best, found


def face_cycle_type(
    g: ColoredGraph, eps: CyclicPermutation, vertex: int
) -> tuple[int, ...]:
    """Face lengths (f_0, ..., f_d) around one vertex, in arrangement order.

    f_i is the number of vertices on the bicolored cycle through the vertex
    that alternates the i-th consecutive color pair of the arrangement.
    """
    _require_gem_input(g, eps)
    if not 0 <= vertex < g.vertex_count:
        raise ValueError(f"vertex {vertex} out of range")
    return tuple(col[vertex] for col in _face_lengths(g, eps))


def _face_lengths(g: ColoredGraph, eps: CyclicPermutation) -> list[list[int]]:
    """Per-vertex face lengths, one list per consecutive pair of ``eps``."""
    return [
        bicolored_cycle_lengths(g.matchings[a], g.matchings[b]) for a, b in eps.pairs()
    ]


def _cycle_count(lengths: list[int]) -> int:
    """The g-value: a cycle of length f puts f at f vertices, so each // is exact."""
    return sum(lengths.count(f) // f for f in set(lengths))


def _g_values(table: dict[tuple[int, int], list[int]]) -> dict[tuple[int, int], int]:
    """The g-value of every pair of a ``_pair_table``, keyed both ways.

    Each pair is counted once; both of its keys share the count.
    """
    gvals = {}
    for (a, b), lengths in table.items():
        if a < b:
            gvals[a, b] = gvals[b, a] = _cycle_count(lengths)
    return gvals


def semi_equivelar_type(
    g: ColoredGraph, eps: CyclicPermutation, bigons: str = "exclude"
) -> Optional[TypeSignature]:
    """The common face-cycle signature, when every vertex sees the same one.

    Tuples are compared as cyclic words up to rotation and reflection.
    With ``bigons="exclude"`` an arrangement whose faces include a 2-cycle
    never qualifies; "include" admits such embeddings.
    """
    _check_bigons(bigons)
    _require_gem_input(g, eps)
    return _signature(_face_lengths(g, eps), bigons)


def _check_bigons(bigons: str) -> None:
    if bigons not in ("include", "exclude"):
        raise ValueError(f"bigons must be 'include' or 'exclude', got {bigons!r}")


def _signature(per_pair: Iterable[list[int]], bigons: str) -> Optional[TypeSignature]:
    """The signature all vertices share, given one face-length list per pair."""
    rows = zip(*per_pair)
    raw = next(rows)
    if bigons == "exclude" and 2 in raw:
        return None
    faces = sorted(raw)
    first = None  # vertex 0's cyclic word, canonicalized once it is needed
    for row in rows:  # a row equal to vertex 0's is the same cyclic word
        if row == raw:
            continue
        if sorted(row) != faces:  # a different multiset is a different word
            return None
        first = first or _canonical_cyclic(raw)
        if _canonical_cyclic(row) != first:
            return None
    return TypeSignature(first or _canonical_cyclic(raw))


def _witness_differences(table: dict[tuple[int, int], list[int]]) -> tuple[dict, dict]:
    """Per pair, the face length minus vertex 0's at the first two vertices
    whose lengths differ from vertex 0's; an all-zero row stands in for a
    missing second one, and the first is empty when every vertex sees vertex
    0's lengths.  Equal multisets have equal sums, so an arrangement whose
    pairs sum to nonzero in a row gives that vertex and vertex 0 no common
    signature.
    """
    zero = dict.fromkeys(table, 0)
    n = len(table[0, 1])
    diffs = ({pair: f[v] - f[0] for pair, f in table.items()} for v in range(1, n))
    rows = list(itertools.islice(filter(zero.__ne__, diffs), 2)) or [{}]
    return rows[0], (rows + [zero])[1]


class EmbeddingReport(NamedTuple):
    """One arrangement's g-values, chi, orientability and common face-cycle
    type (None if the vertices differ); 2 - chi is twice the genus.
    """

    epsilon: CyclicPermutation
    g_values: tuple[int, ...]
    chi: int
    orientable: bool
    signature: Optional[TypeSignature]

    @property
    def rho_times_2(self) -> int:
        return 2 - self.chi

    def to_json_dict(self) -> dict:
        return {
            "epsilon": list(self.epsilon.order),
            "g_values": list(self.g_values),
            "chi": self.chi,
            "rho_times_2": self.rho_times_2,
            "orientable": self.orientable,
            "type": list(self.signature.faces) if self.signature else None,
            "condensed": str(self.signature) if self.signature else None,
        }


@dataclass(frozen=True)
class SemiEquivelarReport:
    """Per-arrangement reports plus the best semi-equivelar genus seen.

    The witness value is the minimum genus among arrangements whose face
    structure is vertex-uniform; it upper-bounds the semi-equivelar genus
    of whatever space the graph represents.  ``witness_rho_times_2`` is
    None when no arrangement qualifies.
    """

    reports: tuple[EmbeddingReport, ...]
    witness_rho_times_2: Optional[int]
    witness_permutations: tuple[CyclicPermutation, ...]


def semi_equivelar_report(
    g: ColoredGraph, bigons: str = "exclude"
) -> SemiEquivelarReport:
    """Evaluate every canonical arrangement and summarize.

    Reports are sorted by (genus, arrangement); evaluation order never
    affects the result, so arrangements could be processed concurrently.
    """
    if not g.is_connected():
        raise NotConnectedError("semi-equivelar analysis needs a connected graph")
    _check_bigons(bigons)
    base = (1 - g.dimension) * g.vertex_count // 2
    orientable = is_bipartite(g)
    table = _pair_table(g)
    gvals = _g_values(table)
    w1, w2 = _witness_differences(table)
    pairs = list(itertools.combinations(g.colors, 2))  # the getters' layout
    lengths, gv_row = [table[p] for p in pairs], [gvals[p] for p in pairs]
    if w1:
        w1, w2 = [w1[p] for p in pairs], [w2[p] for p in pairs]
    reports = []
    for eps, get in _arrangements(g.dimension):
        gv = get(gv_row)
        if w1 and (sum(get(w1)) or sum(get(w2))):
            sig = None  # a witness and vertex 0 see different face multisets
        else:
            sig = _signature(get(lengths), bigons)
        reports.append(EmbeddingReport._make((eps, gv, sum(gv) + base, orientable, sig)))
    reports.sort(key=operator.itemgetter(2), reverse=True)  # chi; stable, _arrangements is in order
    qualifying = [r for r in reports if r.signature is not None]
    best = qualifying[0].rho_times_2 if qualifying else None
    winners = tuple(r.epsilon for r in qualifying if r.rho_times_2 == best)
    return SemiEquivelarReport(tuple(reports), best, winners)
