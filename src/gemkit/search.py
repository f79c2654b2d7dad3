"""Embedding-type arithmetic and exhaustive searches over colored graphs.

The type enumerator solves the counting identity

    1 - d'/2 + sum(k_i / q_i) = chi / p

exactly over the rationals for vertex-uniform embedding types with even
face lengths of at least 4, reporting the one-parameter family that
appears for positive Euler characteristic symbolically.

The graph search has one configuration, read from its ``SearchSpec``: it
fixes color 0 to (0 1)(2 3)... (sound up to relabeling) and builds the
remaining matchings depth first in one loop over its own stack of frames,
so neither the recursion limit nor the caller's stack depth bears on it.
Bicolored-cycle-length constraints propagate as paths merge, so most of the
space is never visited.  A ``vertex_types`` spec is propagated too: each
cycle of a cyclically consecutive color pair adds its length to a count at
every vertex on it when it closes, and a vertex holding more cycles of one
length than the multiset allows cuts the branch.  The counts also bound
each open path of such a pair: a path cannot outgrow the longest cycle
that every vertex on it may still lie on.  At the last color each vertex
owes its type exactly two lengths, one per open pair, so the shorter of an
edge's two new paths must fit the shorter length each end owes, and a
path whose twin in the other pair outgrew that length is held to it (the
coupled cut).  At the last color, an edge that closes a component short of
every vertex cuts the branch too (the seal cut).  So every graph the
search completes is connected and of the vertex type (proofs in
``_matching_dfs``); ``_run_search`` tests the rest,
bipartiteness for ``"none"`` and chi, walking each pair once.  A
bipartite-only spec builds no odd cycle at all: it covers only the parity
normal form, in which every edge joins an even and an odd vertex.
Swapping the ends of some color-0 edges brings every bipartite graph
into that form and keeps color 0, so every class keeps a representative.

Two isomorph rejections keep the search from rebuilding what it already
built (see ``_matching_dfs``).  Colors 1 and 2 skip symmetric partners
(the orbit rule): components of the lower colors that are untouched so
far and of one size are interchangeable, so a partner among them is only
tried at the least vertex of the lowest one (in the normal form, its least
vertex of the partner's parity).  When bigons of colors 0 and 1 are
excluded, color 1 starts at vertex 1, where that rule leaves only the
partner 2.  And each time a color below the last is complete, the graph
of the colors so far is keyed by the color-fixed minimal encodings of its
components; a completion whose key an earlier one had is not extended
(the base rule).  The hits come in lexicographic order and hold the first
hit of every color-fixed class among the graphs the search covers;
without the normal form they are a subsequence of the hits of the same
search without the two rules, so deduplication returns the same
representatives.  Results are deduplicated by exact canonical forms under
color permutation, taken of each color-fixed class's first hit; an empty
result therefore means a completed search, never a truncated one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .core import (
    ColoredGraph,
    _best_labelings,
    _bfs_labeling,
    _form_bytes,
    bicolored_cycle_lengths,
    canonical_form,
    is_bipartite,
    isomorphic,
)
from .embedding import (
    CyclicPermutation,
    _canonical_cyclic,
    _cycle_count,
    _runs,
    condensed_str,
    euler_characteristic,
    face_cycle_type,
)
from .complexes import HomologyProfile, ManifoldVerdict, homology, manifold_check


class BudgetExceededError(RuntimeError):
    """A search was asked to exceed its configured order budget."""


# ---------------------------------------------------------------------------
# Embedding-type enumeration


@dataclass(frozen=True)
class TypeSolution:
    """One vertex-uniform embedding type compatible with a target surface.

    ``runs`` is the condensed cyclic type as (face length, multiplicity)
    pairs; the face length is the string "q" in the symbolic family.  The
    order is an integer when the identity pins it, a string such as "q" or
    "2q" for the symbolic family, and None when chi = 0 leaves it free.
    """

    runs: tuple[tuple[object, int], ...]
    order: object
    chi: int

    @property
    def degree(self) -> int:
        return sum(k for _, k in self.runs)

    @property
    def parametric(self) -> bool:
        return any(q == "q" for q, _ in self.runs)

    def type_str(self) -> str:
        return condensed_str(self.runs)

    def order_str(self) -> str:
        return "unconstrained" if self.order is None else str(self.order)

    def to_json_dict(self) -> dict:
        return {
            "type": self.type_str(),
            "runs": [[q, k] for q, k in self.runs],
            "order": self.order,
            "chi": self.chi,
        }


def enumerate_embedding_types(chi: int, q_max: int = 16) -> list[TypeSolution]:
    """All embedding types whose counting identity admits the given chi.

    Face lengths run over the even values 4..q_max; bigon faces are never
    considered here.  For chi > 0 the (4^2, q) family is reported once,
    symbolically, instead of one row per q.  Orders below 4 are discarded
    since a graph without bigon faces has more than two vertices.
    """
    if chi > 2:
        raise ValueError("no surface has Euler characteristic above 2")
    if q_max < 4:
        raise ValueError("q_max must be at least 4")
    if chi > 0:
        degrees: Iterable[int] = (3,)
    elif chi == 0:
        degrees = (3, 4)
    else:
        degrees = range(3, 4 - chi + 1)

    # The counting identity is p r = chi with r = 1 - dp/2 + sum 1/q; times
    # 2L, for L the lcm of the face lengths, it holds in integers.
    lengths = range(4, q_max + 1, 2)
    lcm = math.lcm(*lengths)
    weight = {q: 2 * lcm // q for q in lengths}
    out: list[TypeSolution] = []
    for dp in degrees:
        for combo in itertools.combinations_with_replacement(lengths, dp):
            # For chi > 0 every combo has three faces; (4, 4, q) with q > 4
            # is folded into the symbolic family.
            if chi > 0 and combo[:2] == (4, 4) and combo[2] > 4:
                continue
            r2 = (2 - dp) * lcm + sum(map(weight.__getitem__, combo))
            if r2 == 0:
                if chi != 0:
                    continue
                order: object = None
            else:
                p, rem = divmod(2 * lcm * chi, r2)
                if rem or p < 4:
                    continue
                order = p
            # A cyclic word determines its multiset, so no two combos share one.
            for arrangement in _cyclic_arrangements(combo):
                out.append(TypeSolution(_runs(arrangement), order, chi))
    if chi > 0:
        order = "q" if chi == 1 else f"{chi}q"
        out.append(TypeSolution((( 4, 2), ("q", 1)), order, chi))
    out.sort(key=_solution_sort_key)
    return out


def _cyclic_arrangements(combo: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Distinct cyclic words (up to rotation and reflection) of a multiset.

    Every word has a rotation that starts with the least face, so only the
    distinct orders of the other faces behind it are canonicalized, each
    once: the next-permutation step below visits them in lexicographic
    order, never repeating one.
    """
    least, *rest = sorted(combo)
    words = set()
    while True:
        words.add(_canonical_cyclic((least, *rest)))
        i = len(rest) - 2
        while i >= 0 and rest[i] >= rest[i + 1]:
            i -= 1
        if i < 0:
            return sorted(words)
        j = len(rest) - 1
        while rest[j] <= rest[i]:
            j -= 1
        rest[i], rest[j] = rest[j], rest[i]
        rest[i + 1 :] = reversed(rest[i + 1 :])


def _solution_sort_key(s: TypeSolution):
    faces = []
    for q, k in s.runs:
        faces.extend([q if isinstance(q, int) else 10 ** 6] * k)
    return (s.degree, faces)


# ---------------------------------------------------------------------------
# Constrained search


@dataclass(frozen=True)
class SearchSpec:
    """What to search for: color count, order, and face-cycle constraints.

    ``pair_lengths`` restricts the bicolored cycle lengths of specific
    color pairs; ``vertex_types`` asks every vertex to see exactly this
    multiset of face lengths over the cyclically consecutive pairs of the
    identity arrangement.  ``chi`` filters on the Euler characteristic of
    the identity arrangement.
    """

    colors: int
    order: int
    pair_lengths: Optional[tuple[tuple[tuple[int, int], tuple[int, ...]], ...]] = None
    vertex_types: Optional[tuple[int, ...]] = None
    bipartite: str = "any"
    bigons: str = "exclude"
    chi: Optional[int] = None

    def __post_init__(self) -> None:
        if self.colors not in (3, 4):
            raise ValueError("search supports 3 or 4 colors")
        if self.order < 2 or self.order % 2:
            raise ValueError("order must be even and at least 2")
        if self.bipartite not in ("any", "only", "none"):
            raise ValueError("bipartite filter must be any, only or none")
        if self.bigons not in ("include", "exclude"):
            raise ValueError("bigons policy must be include or exclude")
        if self.vertex_types is not None:
            if len(self.vertex_types) != self.colors:
                raise ValueError("vertex_types must list one length per face")
            object.__setattr__(
                self, "vertex_types", tuple(sorted(self.vertex_types))
            )
            for f in self.vertex_types:
                if f < 2 or f % 2:
                    raise ValueError("face lengths must be even and >= 2")
        if self.pair_lengths is not None:
            norm = []
            for pair, lengths in (
                self.pair_lengths.items()
                if isinstance(self.pair_lengths, dict)
                else self.pair_lengths
            ):
                a, b = sorted(pair)
                if not 0 <= a < b < self.colors:
                    raise ValueError(f"bad color pair {pair!r}")
                if any(p == (a, b) for p, _ in norm):
                    raise ValueError(f"color pair {a}{b} is given twice")
                ls = tuple(sorted(set(lengths)))
                for f in ls:
                    if f < 2 or f % 2:
                        raise ValueError("cycle lengths must be even and >= 2")
                norm.append(((a, b), ls))
            norm.sort()
            object.__setattr__(self, "pair_lengths", tuple(norm) or None)

    @classmethod
    def from_json_dict(cls, data: object) -> "SearchSpec":
        """Build a spec from its JSON object; ValueError on malformed input."""
        if not isinstance(data, Mapping):
            raise ValueError("search spec must be a JSON object")
        known = {f.name for f in fields(cls)}  # the keys to_json_dict emits
        for key in data:
            if key not in known:
                raise ValueError(f"search spec has unknown key {key!r}")
        for key in ("colors", "order"):
            if key not in data:
                raise ValueError(f"search spec is missing key {key!r}")
        pl = data.get("pair_lengths")
        pair_lengths = None
        if pl is not None:
            if not isinstance(pl, Mapping):
                raise ValueError('pair_lengths must map color pairs such as "01" to lengths')
            for key in pl:
                if not (isinstance(key, str) and len(key) == 2 and key.isdigit()):
                    raise ValueError(f"bad color pair {key!r}, expected two digits")
            pair_lengths = tuple(
                ((int(key[0]), int(key[1])), _json_ints(val, "pair_lengths"))
                for key, val in pl.items()
            )
        vertex_types = data.get("vertex_types")
        chi = data.get("chi")
        return cls(
            colors=_json_int(data["colors"], "colors"),
            order=_json_int(data["order"], "order"),
            pair_lengths=pair_lengths,
            vertex_types=None
            if vertex_types is None
            else _json_ints(vertex_types, "vertex_types"),
            bipartite=data.get("bipartite", "any"),
            bigons=data.get("bigons", "exclude"),
            chi=None if chi is None else _json_int(chi, "chi"),
        )

    def to_json_dict(self) -> dict:
        return {
            "colors": self.colors,
            "order": self.order,
            "pair_lengths": {
                f"{a}{b}": list(ls) for (a, b), ls in self.pair_lengths
            }
            if self.pair_lengths
            else None,
            "vertex_types": list(self.vertex_types) if self.vertex_types else None,
            "bipartite": self.bipartite,
            "bigons": self.bigons,
            "chi": self.chi,
        }


def _json_int(value: object, what: str) -> int:
    # JSON true/false load as bool, an int subclass; refuse them too.
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_ints(values: object, what: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    return tuple(_json_int(x, what) for x in values)


def _consecutive_pairs(colors: int) -> tuple[tuple[int, int], ...]:
    eps = CyclicPermutation(tuple(range(colors)))
    return tuple(tuple(sorted(p)) for p in eps.pairs())


def _allowed_map(spec: SearchSpec) -> dict[tuple[int, int], Optional[frozenset[int]]]:
    n = spec.order
    everything = set(range(2, n + 1, 2))
    base = set(everything)
    if spec.bigons == "exclude":
        base.discard(2)
    vt = set(spec.vertex_types) if spec.vertex_types is not None else None
    given = dict(spec.pair_lengths or ())
    consecutive = set(_consecutive_pairs(spec.colors))
    allowed: dict[tuple[int, int], Optional[frozenset[int]]] = {}
    for pair in itertools.combinations(range(spec.colors), 2):
        if pair in consecutive:
            s = set(base)
            if vt is not None:
                s &= vt
            if pair in given:
                s &= set(given[pair])
            allowed[pair] = None if s == everything else frozenset(s)
        else:
            allowed[pair] = frozenset(given[pair]) if pair in given else None
    return allowed


def _matching_dfs(spec: SearchSpec) -> Iterator[ColoredGraph]:
    """Yield every complete colored graph of ``spec`` that survives its cuts.

    Color 0 is the standard matching (2t, 2t+1); the free matchings are
    built in ascending color then vertex order by one loop over its own
    stack of frames, so the search takes no Python frame per level.  A
    frame matches the least free vertex ``u`` of its color: it holds the
    partner tried last, its color's state and the undo record of the edge
    it has in place (merged path ends and counted cycles).  Re-entering a
    frame undoes that edge and scans the remaining partners; placing an
    edge pushes a frame for the next free vertex, opens the next color, or
    at the last color yields it as a leaf for the caller to test.
    Partners ascend at every frame, so the leaves come in lexicographic
    order of their matchings.

    A cycle that closes at a length ``_allowed_map(spec)`` forbids, or a
    path already too long to close at an allowed one, prunes the branch.
    When pair (0, 1) excludes bigons, color 1 starts at vertex 1 (vertex 0
    comes next).  Partners lie above ``u``, so vertex 0 is no candidate, and
    the orbit rule below leaves only 2: block 1 is the lowest untouched
    block, and 2 is its least vertex (of the partner's parity too).

    With ``spec.bipartite == "only"`` the search covers only the parity
    normal form: ``u`` takes partners of the other parity only, so every
    edge joins an even and an odd vertex and no odd cycle is built.  Every
    bipartite graph over the fixed color 0 is color-fixed isomorphic to one
    in this form: each block (2t, 2t+1) has one end on either side, and
    swapping the ends of the blocks whose even end is not on vertex 0's
    side maps color 0 onto itself.  So every color-fixed class keeps a
    representative, though not the labeling found without the normal form.

    The orbit rule, for colors c = 1 and 2: a component of colors 0..c-1
    (a block for c = 1, an alternating cycle for c = 2) is untouched while
    it holds no color-c edge and not ``u``.  In the normal form only
    side-preserving automorphisms (even vertices to even ones) keep a graph
    in the search; without it every automorphism does.  Untouched
    components of one size are isomorphic by a side-preserving map of their
    least vertices, which are even, and within one the side-preserving
    automorphisms of colors 0..c-1 reach every vertex of a parity: a block
    holds one of each, and an alternating cycle rotates by two steps.  So
    the partners ``u`` may take in untouched components of one size lie in
    one orbit of the side-preserving automorphisms that fix ``u`` and every
    placed color-c edge, and only the least of them is tried: the least
    such partner in the lowest untouched component of that size.  If the
    first hit H of a color-fixed class took a skipped partner v', the
    automorphism mapping v' to the kept partner maps H to a graph of the
    same class in the search that agrees with H before this frame and takes
    a smaller partner here: an earlier hit, which contradicts H being
    first.  So the hits still hold the first hit of every color-fixed
    class.  Color 3 of a 4-color search keeps every partner: components of
    three colors need not be vertex-transitive.  The rule holds within
    every subtree too: the image of H agrees with H above the frame.

    The base rule: when color c-1 is complete and c is not the last color,
    the base (colors 0..c-1) is keyed by ``_base_key`` before color c
    opens; if an earlier completion in this call had that key, the frame
    scans on and color c is not opened.  Equal keys of B and B' give a
    color-fixed isomorphism phi from B onto B'; in the normal form only even
    starts are keyed, so phi maps even vertices to even ones and keeps the
    form.  Every leaf below an earlier completion B' precedes every leaf
    below a later one B.  Let H be the first hit of a color-fixed class
    without the base rule, and suppose the rule skipped its base B for an
    earlier B'.  Then phi carries H to a graph of H's
    class over B' that the search covers (the cuts and the leaf tests are
    invariant), and by the orbit rule within the subtree of B' the search
    without the base rule has a hit of that class below B', before H: a
    contradiction.  So no base of H is skipped, the hits are a subsequence
    of those without the rule, and the first hit of every color-fixed
    class stays.

    The key is taken over ``mats[:c]`` only: after backtracking,
    ``mats[c]`` still holds the undone matching of color c, so a key that
    read it would not be a function of the base (keyed that way, the
    all-squares order-16 search lost one of its 16 color-fixed classes).
    The keys are local to one call.  A color's first completion has none
    earlier to match, so it is keyed only once a second one comes.

    With ``spec.vertex_types``, every cycle of a cyclically consecutive
    pair that the search closes adds its length to a count at each of its
    vertices, and a branch is cut once some vertex lies on more cycles of
    one length than the multiset holds.  So every leaf has the type: each
    vertex v lies on one cycle of each of the ``colors`` tracked pairs,
    counted when its last edge was placed, so v's counts sum to ``colors``;
    none exceeds ``cap``, which sums to ``colors``, so they equal ``cap``.
    If the type has a length above n, ``cap`` sums to less: no leaf exists.

    The same counts bound open paths (the room cut).  When color c opens a
    tracked pair (j, c), a vertex v's room is the largest length f up to
    the pair's longest allowed one that v may still take, i.e. with fewer
    than the multiset's cycles of length f counted at v; each path end
    holds the least room over its path.  The pair's cycle through v is
    not closed yet, so its length is one of v's free lengths then and at
    most v's room; it contains every vertex of v's path.  A merge whose
    path (``plen[u] + plen[v] + 2`` vertices) exceeds the room at either
    end therefore has no leaf, and is cut.  Rooms are taken when the pair
    opens and only fall as paths merge (set and undone with ``plen``);
    cycles closed later in the color would lower them further, so they
    stay sound bounds.  An untracked pair's room is its longest length.

    The coupled cut couples the two rooms of a vertex at the last color c
    of a vertex-type search (forward checking over the type: Haralick &
    Elliott, Artif. Intell. 14 (1980)).  Exactly two tracked pairs are open
    then, (0, c) and (c-1, c); every vertex x lies on one counted cycle of
    each other tracked pair, so it owes the two lengths r1 >= r2 of its type
    beyond its counts (``second_owed`` gives r2, and 0 when a length above n
    leaves it fewer than two: then no leaf exists and everything is cut).
    While x is free in color c its counts stay as they were when c opened,
    since each open pair's cycle through x needs x's color-c edge.  For a
    candidate uv let s_a and s_b be its sizes in the two pairs: the merged
    path's ``plen[u] + plen[v] + 2`` vertices, or the length ``plen[u] + 1``
    of a cycle uv closes.  In a leaf below, u lies on one cycle of each open
    pair, each containing u's path there, and their lengths are exactly u's
    r1 and r2; both pass through v too.  The shorter of the two has length
    r2 and at least the smaller of s_a and s_b vertices, so a candidate
    whose smaller size exceeds r2 at u or at v is cut.  And if s_b exceeds
    r2 at an end x, pair b's cycle has x's r1 and pair a's has x's r2: the
    room of the path uv merges in pair a falls to that r2, set with the
    merge and undone by its record (a cycle uv closes there is checked by
    the counts).  Both steps drop only branches without a leaf, so the
    hits, their order and the leaves reached are those of the search
    without them.

    The seal cut: at the last color, an edge uv that closes a component
    of fewer than n vertices with no vertex left free in the last color
    cuts the branch.  Such an edge closes u's cycle in every pair (j,
    last), so only a candidate closing every path state the loop keeps is
    tested, after the vertex-type cut and unless uv is the last free pair:
    uv is placed, u's component is walked until it meets a free vertex,
    and uv is undone.  The cut is sound: no later edge joins a closed
    component to the rest, so every leaf below it is disconnected.  It is
    complete: if a leaf's last edge closes a proper component S, then each
    component of the rest, V minus S, was closed earlier by an edge that
    was tested, since the leaf's last pair was still free then.  So the
    hits and their order are unchanged, and every leaf yielded is
    connected.

    Yields graphs until the space is fully explored.  A pair allowed no
    length at all has no gem: nothing is yielded.
    """
    n, num_colors = spec.order, spec.colors
    allowed = _allowed_map(spec)
    if any(lens is not None and not lens for lens in allowed.values()):
        return
    mats: list[list[int]] = [list(_standard_matching(n))]
    # In the parity normal form u takes partners of the other parity only
    # (a new frame's v is set so that v + step is u + 1), and v & mask is
    # the least vertex of v's block: least[k] exactly when v is the least
    # vertex of its parity in component k.  Otherwise v & mask is v.
    step = 2 if spec.bipartite == "only" else 1
    mask = ~1 if step == 2 else ~0

    # seen[v][f] counts the cycles of length f through v that the search
    # closed in tracked pairs; cap[f] is how many the vertex type allows.
    tracked = set(_consecutive_pairs(num_colors)) if spec.vertex_types is not None else set()
    cap = [0] * (n + 1)
    for f in spec.vertex_types or ():
        if f <= n:
            cap[f] += 1
    seen = [[0] * (n + 1) for _ in range(n)]
    free_desc = sorted(set(spec.vertex_types or ()), reverse=True)
    everything = frozenset(range(2, n + 1, 2))

    def count_closed(u: int, v: int, m: list[int], states: list) -> Optional[list]:
        """Count the tracked cycles that edge uv of m closes; None on overflow."""
        counted = []
        over = False
        for end, _, _, _, mj in states:
            if mj is None or end[u] != v:
                continue
            # the cycle is the path u ... v of colors j and c, plus uv
            cycle = []
            w = u
            while True:
                x = mj[w]
                cycle += (w, x)
                if x == v:
                    break
                w = m[x]
            f = len(cycle)
            for y in cycle:
                seen[y][f] += 1
                over = over or seen[y][f] > cap[f]
            counted.append((cycle, f))
        if over:
            uncount(counted)
            return None
        return counted

    def uncount(counted: Sequence[tuple[list[int], int]]) -> None:
        for cycle, f in counted:
            for y in cycle:
                seen[y][f] -= 1

    def seals(u: int, v: int, m: list[int]) -> bool:
        """Whether edge uv of the last color's matching m closes a proper component.

        Walks u's component over every color with uv in place and stops at
        the first vertex still free in m: a component holding one is open.
        """
        m[u], m[v] = v, u
        reached, todo, sealed = {u, v}, [u, v], True
        while todo and sealed:
            w = todo.pop()
            for mj in mats:
                if (x := mj[w]) not in reached:
                    if m[x] < 0:
                        sealed = False
                        break
                    reached.add(x)
                    todo.append(x)
        m[u] = m[v] = -1
        return sealed and len(reached) < n

    def free_room(v: int, top: int) -> int:
        """The longest cycle, up to top, that v may still lie on (0 if none)."""
        for f in free_desc:
            if f <= top and cap[f] > seen[v][f]:
                return f
        return 0

    def second_owed(v: int) -> int:
        """The shorter of the two lengths v owes at the last color (0 if fewer)."""
        owed = 0
        for f in free_desc:
            if f <= n:
                owed += cap[f] - seen[v][f]
                if owed > 1:
                    return f
        return 0

    def open_color(c: int) -> tuple:
        """Color c's empty matching, path states, components and coupling.

        A path state of pair (j, c) is (end, plen, lens, room, mj): ``end``
        pairs the two ends of each path; ``plen`` holds its edge count and
        ``room`` its longest allowed length at both ends.  A tracked pair's
        room is the least ``free_room`` over the path and its ``mj`` is color
        j's matching; another pair's room is its longest length, ``mj`` None.

        For colors 1 and 2 the components of colors 0..c-1 (blocks, then
        alternating cycles) are numbered by least vertex: ``comp[v]`` is
        v's component; ``comp_size``, ``least`` and ``touched`` (color-c edge
        ends placed in it) are per component.  Color 3 has no orbit rule:
        its table is one component, touched from the start.

        At the last color of a vertex-type search, ``coupled`` holds the
        states of its two tracked pairs and ``second_owed`` of every vertex;
        otherwise it is None.
        """
        m = [-1] * n
        mats[c:] = [m]
        states = []
        for j in range(c):
            lens = allowed.get((j, c))
            mj = mats[j] if (j, c) in tracked else None
            if lens is not None or mj is not None:
                lens = everything if lens is None else lens
                top = max(lens)
                r = [top] * n if mj is None else [free_room(v, top) for v in range(n)]
                room = [min(r[v], r[w]) for v, w in enumerate(mats[j])]
                states.append((list(mats[j]), [1] * n, lens, room, mj))
        coupled = None
        if c == last and tracked:
            pair_a, pair_b = (s for s in states if s[4] is not None)
            coupled = pair_a, pair_b, [second_owed(v) for v in range(n)]
        if c > 2:
            return c, m, states, [0] * n, [n], [0], [1], coupled
        comp = [-1] * n
        comp_size: list[int] = []
        least: list[int] = []
        for s in range(n):
            if comp[s] < 0:
                k, w, j = len(comp_size), s, 0
                comp_size.append(0)
                least.append(s)
                while comp[w] < 0:  # walk colors 0..c-1 in turn
                    comp[w] = k
                    comp_size[k] += 1
                    w, j = mats[j][w], (j + 1) % c
        return c, m, states, comp, comp_size, least, [0] * len(comp_size), coupled

    last = num_colors - 1
    bases: set = set()  # keys of the completions opened so far, c for color c's first
    unkeyed: dict[int, Sequence] = {}  # color c's first completion until a second comes
    u = 0 if allowed[(0, 1)] is None or 2 in allowed[(0, 1)] else 1
    frames: list[tuple] = [(u, u + 1 - step, open_color(1), (), ())]
    while frames:
        u, v, color, merged, counted = frames[-1]
        c, m, states, comp, comp_size, least, touched, coupled = color
        ku = comp[u]
        if m[u] >= 0:  # undo the edge uv this frame placed
            for end, plen, room, a, b in merged:
                end[a], end[b] = u, v
                plen[a], plen[b] = plen[u], plen[v]
                room[a], room[b] = room[u], room[v]
            m[u] = m[v] = -1
            touched[ku] -= 1
            touched[comp[v]] -= 1
            if counted:
                uncount(counted)
        for v in range(v + step, n, step):
            if m[v] >= 0:
                continue
            k = comp[v]
            if not touched[k] and k != ku and (
                v & mask != least[k]
                or any(
                    not touched[j] and comp_size[j] == comp_size[k]
                    for j in range(ku + 1, k)
                )
            ):
                continue  # not the orbit's least vertex
            closes = 0
            for end, plen, lens, room, _ in states:
                if end[u] == v:
                    if plen[u] + 1 not in lens:
                        break
                    closes += 1
                elif (verts := plen[u] + plen[v] + 2) > room[u] or verts > room[v]:
                    break
            else:  # no path cut: try the coupled, vertex-type and seal cuts
                if coupled:
                    (ea, pa, _, ra, _), (eb, pb, _, rb, _), second = coupled
                    sa = pa[u] + 1 if ea[u] == v else pa[u] + pa[v] + 2
                    sb = pb[u] + 1 if eb[u] == v else pb[u] + pb[v] + 2
                    lo = sa if sa < sb else sb
                    if lo > second[u] or lo > second[v]:
                        continue
                counted = count_closed(u, v, m, states) if closes and tracked else ()
                if counted is None:
                    continue
                if c == last and closes == len(states) and m.count(-1) > 2 and seals(u, v, m):
                    uncount(counted)
                    continue
                break  # uv passes every cut
        else:
            frames.pop()
            continue
        m[u], m[v] = v, u
        touched[ku] += 1
        touched[comp[v]] += 1
        merged = []
        for end, plen, _, room, _ in states:
            if end[u] != v:
                a, b = end[u], end[v]
                end[a], end[b] = b, a
                plen[a] = plen[b] = plen[u] + plen[v] + 1
                room[a] = room[b] = room[u] if room[u] < room[v] else room[v]
                merged.append((end, plen, room, a, b))
        if coupled and sa != sb:  # an end's r2 below the larger size holds the smaller pair
            end, room, big = (ea, ra, sb) if sa < sb else (eb, rb, sa)
            if end[u] != v:  # the smaller pair merged a path
                for x in (u, v):
                    if big > second[x] and second[x] < room[end[u]]:
                        room[end[u]] = room[end[v]] = second[x]
        frames[-1] = (u, v, color, merged, counted)
        if -1 in m:
            u = m.index(-1)
            frames.append((u, u + 1 - step, color, (), ()))
        elif c + 1 < num_colors:
            if unkeyed.get(c):  # a second completion of color c: key the first now
                bases.add(_base_key(unkeyed[c], step))
            later = c in unkeyed
            unkeyed[c] = () if later else [tuple(x) for x in mats[: c + 1]]
            key = _base_key(mats[: c + 1], step) if later else c  # no real key is an int
            if key not in bases:  # else the frame scans on: an earlier base was isomorphic
                bases.add(key)
                frames.append((0, 1 - step, open_color(c + 1), (), ()))
        else:
            yield ColoredGraph([tuple(x) for x in mats])


def _base_key(slots: Sequence[Sequence[int]], step: int) -> tuple:
    """Sorted minimal encodings of the components of the matchings ``slots``.

    A component's encoding is the least ``_bfs_labeling`` over its starts,
    even starts only when ``step`` is 2.  Equal keys give a color-fixed
    isomorphism; for ``step`` 2 (the parity normal form) it maps even
    vertices to even ones, since it maps a start (label 0) to a start and
    every edge joins the two parities.
    """
    done = [False] * len(slots[0])
    key = []
    for s in range(0, len(done), step):
        if done[s]:
            continue
        best, _, order = _bfs_labeling(slots, s)
        for t in order:
            done[t] = True
            if t != s and t % step == 0:
                found = _bfs_labeling(slots, t, best)
                if found is not None:
                    best = found[0]
        key.append(tuple(best))
    return tuple(sorted(key))


def _standard_matching(n: int) -> tuple[int, ...]:
    return tuple(v + 1 if v % 2 == 0 else v - 1 for v in range(n))


def _run_search(
    spec: SearchSpec, limit: Optional[int] = None
) -> tuple[list[ColoredGraph], bool]:
    """The hits of ``spec`` in search order, and whether the search ended.

    The one place a leaf is tested; the DFS decides vertex types and
    connectivity.  A bipartite leaf of a ``"none"`` spec goes first, then
    each constrained pair (and each consecutive one for ``vertex_types``
    or ``chi``) is walked once and a leaf of another chi goes.  On a hit
    the same walks are a net: a length outside its allowed set, a vertex
    of another type or a disconnected hit raises ``AssertionError``.
    ``limit`` (at least 1, else ``ValueError``) stops after that many hits.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    constrained = [(p, lens) for p, lens in _allowed_map(spec).items() if lens is not None]
    faced = _consecutive_pairs(spec.colors) if spec.vertex_types or spec.chi is not None else ()
    walks = [*faced, *(p for p, _ in constrained if p not in faced)]  # faced first: faces[:k]
    checks = [(walks.index(p), lens) for p, lens in constrained]
    k, target = len(faced), list(spec.vertex_types or ())
    chi, shift = spec.chi, (2 - spec.colors) * spec.order // 2  # chi = g-values + shift
    drop_bipartite = spec.bipartite == "none"
    hits: list[ColoredGraph] = []
    for g in _matching_dfs(spec):
        if drop_bipartite and is_bipartite(g):
            continue
        if walks:
            faces = [bicolored_cycle_lengths(g.matchings[a], g.matchings[b]) for a, b in walks]
            if chi is not None and sum(map(_cycle_count, faces[:k])) + shift != chi:
                continue
            for i, lens in checks:
                if not lens.issuperset(faces[i]):
                    raise AssertionError("search produced a graph violating its spec")
            if target and not all(map(target.__eq__, map(sorted, zip(*faces[:k])))):
                raise AssertionError("search produced a graph of another vertex type")
        if not g.is_connected():
            raise AssertionError("search produced a disconnected graph")
        hits.append(g)
        if len(hits) == limit:
            return hits, False
    return hits, True


def _dedup_canonical(
    hits: Iterable[ColoredGraph], fixed: Optional[dict[bytes, ColoredGraph]] = None
) -> list[ColoredGraph]:
    """The first hit of every color-permuting class, sorted by its form.

    Such a hit is the first of one of its color-fixed classes, so only those
    firsts, collected in ``fixed``, need the dearer color-permuting form.
    Its labeling search goes on from the color-fixed one, its first step.
    """
    fixed = {} if fixed is None else fixed
    by_form: dict[bytes, ColoredGraph] = {}
    for g in hits:
        states = _best_labelings(g, "color-permuting")
        best = next(states)
        key = _form_bytes(g, best[0])
        if key not in fixed:
            fixed[key] = g
            for best in states:
                pass
            by_form.setdefault(_form_bytes(g, best[0]), g)
    return [by_form[k] for k in sorted(by_form)]


DEFAULT_ORDER_BUDGET = 24


def _check_budget(order: int, budget: int) -> None:
    if order > budget:
        raise BudgetExceededError(f"order {order} exceeds the search budget {budget}")


def find_gems(spec: SearchSpec, max_order: int = DEFAULT_ORDER_BUDGET) -> list[ColoredGraph]:
    """The gems of an exhaustive ``search_report``, deduplicated canonically.

    Sorted by canonical form, one graph per isomorphism class under color
    permutation; empty when no such gem exists at this order.  Raises when
    the order exceeds the budget instead of silently truncating.
    """
    return list(search_report(spec, max_order).gems)


def first_gem(
    spec: SearchSpec, max_order: int = DEFAULT_ORDER_BUDGET
) -> Optional[ColoredGraph]:
    """First graph of the deterministic search order, or None."""
    _check_budget(spec.order, max_order)
    hits, _ = _run_search(spec, limit=1)
    return hits[0] if hits else None


@dataclass(frozen=True)
class SearchReport:
    """Serializable record of one search run."""

    spec: SearchSpec
    exhaustive: bool
    gems: tuple[ColoredGraph, ...]

    def hit_fields(self) -> list[tuple[int, bool, int, list[int]]]:
        """Order, bipartiteness, chi and sorted vertex type of each hit."""
        eps = CyclicPermutation(tuple(range(self.spec.colors)))
        return [
            (g.vertex_count, is_bipartite(g), euler_characteristic(g, eps),
             sorted(face_cycle_type(g, eps, 0)))
            for g in self.gems
        ]

    def to_json_dict(self) -> dict:
        entries = [
            {
                "canonical": canonical_form(g, "color-permuting").hex(),
                "order": order,
                "matchings": [list(m) for m in g.matchings],
                "bipartite": bipartite,
                "chi": chi,
                "vertex_type": vertex_type,
            }
            for g, (order, bipartite, chi, vertex_type) in zip(self.gems, self.hit_fields())
        ]
        return {
            "spec": self.spec.to_json_dict(),
            "exhaustive": self.exhaustive,
            "hit_count": len(self.gems),
            "gems": entries,
        }


def search_report(
    spec: SearchSpec,
    max_order: int = DEFAULT_ORDER_BUDGET,
    limit: Optional[int] = None,
) -> SearchReport:
    """Run a search and package the outcome for serialization.

    ``limit`` (at least 1; a smaller one raises ``ValueError``) stops the
    search after that many raw hits, before deduplication.  The orbit rule
    and the base rule of ``_matching_dfs`` drop most automorphic copies and
    every hit below a base isomorphic to an earlier one, so for ``limit``
    >= 2 those raw hits hold fewer duplicates of one class than the
    labeled hits would, and the first ``limit`` of them may reach more
    classes than before the base rule.  The first hit is unchanged.
    """
    _check_budget(spec.order, max_order)
    hits, exhaustive = _run_search(spec, limit=limit)
    return SearchReport(spec, exhaustive, tuple(_dedup_canonical(hits)))


# ---------------------------------------------------------------------------
# Classification of the all-squares embedding type


@dataclass(frozen=True)
class ClassifiedGem:
    """One isomorphism class found by the all-squares classification."""

    graph: ColoredGraph
    bipartite: bool
    verdict: ManifoldVerdict
    homology: HomologyProfile
    lens_parameters: Optional[tuple[int, int, int]]

    @property
    def order(self) -> int:
        return self.graph.vertex_count


@dataclass(frozen=True)
class Classify44Report:
    """Outcome of classifying gems whose identity faces are all squares.

    ``entries`` has one row per class under color permutation; the count
    under color-fixed isomorphism is reported alongside since the two
    notions can differ.
    """

    order_max: int
    exhaustive: bool
    entries: tuple[ClassifiedGem, ...]
    count_color_fixed: int

    @property
    def count_color_permuting(self) -> int:
        return len(self.entries)

    @property
    def bipartite_manifold_entries(self) -> tuple[ClassifiedGem, ...]:
        return tuple(
            e for e in self.entries if e.bipartite and e.verdict.ok
        )

    @property
    def all_bipartite_manifolds_are_lens(self) -> bool:
        return all(
            e.lens_parameters is not None for e in self.bipartite_manifold_entries
        )

    @property
    def all_bipartite_are_lens(self) -> bool:
        """Every bipartite hit, manifold or not, matches the double-cycle ladder."""
        return all(
            e.lens_parameters is not None for e in self.entries if e.bipartite
        )

    @property
    def nonbipartite_manifold_count(self) -> int:
        return sum(
            1 for e in self.entries if not e.bipartite and e.verdict.ok
        )

    @property
    def sphere_bundle_candidates(self) -> int:
        """Manifold entries whose homology is that of S^2 x S^1."""
        product = ((1, ()), (1, ()), (1, ()), (1, ()))
        return sum(
            1
            for e in self.entries
            if e.verdict.ok and e.homology.groups == product
        )

    def to_json_dict(self) -> dict:
        return {
            "order_max": self.order_max,
            "exhaustive": self.exhaustive,
            "count_color_permuting": self.count_color_permuting,
            "count_color_fixed": self.count_color_fixed,
            "all_bipartite_are_lens": self.all_bipartite_are_lens,
            "all_bipartite_manifolds_are_lens": self.all_bipartite_manifolds_are_lens,
            "nonbipartite_manifold_count": self.nonbipartite_manifold_count,
            "sphere_bundle_candidates": self.sphere_bundle_candidates,
            "entries": [
                {
                    "order": e.order,
                    "matchings": [list(m) for m in e.graph.matchings],
                    "bipartite": e.bipartite,
                    "verdict": str(e.verdict),
                    "homology": e.homology.to_json(),
                    "lens_parameters": list(e.lens_parameters)
                    if e.lens_parameters
                    else None,
                }
                for e in self.entries
            ],
        }


def _lens_candidates(order: int) -> Iterable[tuple[int, int, int]]:
    for k in range(2, order // 2 + 1, 2):
        if order % (2 * k):
            continue
        p = order // (2 * k)
        for q in range(p):
            yield p, q, k


def classify_4_4(order_max: int = 8, order_budget: int = 16) -> Classify44Report:
    """Classify graphs admitting an all-squares arrangement, small orders.

    Enumerates 4-colored graphs up to ``order_max`` whose four consecutive
    identity-arrangement cycle families all have length 4, then records
    bipartiteness, the manifold verdict, homology, and which double-cycle
    generator parameters (if any) reproduce each class.
    """
    from . import generators  # deferred: generators also consumes this module

    _check_budget(order_max, order_budget)
    raw: list[ColoredGraph] = []
    for order in range(4, order_max + 1, 4):
        spec = SearchSpec(
            colors=4,
            order=order,
            pair_lengths={(0, 1): (4,), (1, 2): (4,), (2, 3): (4,), (0, 3): (4,)},
            bigons="exclude",
        )
        raw.extend(_run_search(spec)[0])  # no limit: every search runs to its end
    firsts: dict[bytes, ColoredGraph] = {}
    classes = _dedup_canonical(raw, firsts)

    entries = []
    for g in classes:
        verdict = manifold_check(g)
        hom = homology(g)
        lens_params = None
        for p, q, k in _lens_candidates(g.vertex_count):
            if isomorphic(g, generators.lens_gem(p, q, k), "color-permuting"):
                lens_params = (p, q, k)
                break
        entries.append(ClassifiedGem(g, is_bipartite(g), verdict, hom, lens_params))
    entries.sort(key=lambda e: e.order)  # stable: classes are in canonical order
    return Classify44Report(order_max, True, tuple(entries), len(firsts))
