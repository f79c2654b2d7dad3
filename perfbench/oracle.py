"""Checks on gemkit's answers that do not call gemkit.

A graph is handled here as its list of matchings, ``mats[c][v]`` being the
vertex joined to ``v`` by color ``c``.  Every function returns plain
Python values, so a check compares gemkit's output against numbers this
module derived on its own: bicolored-cycle walks, a breadth-first
2-colouring, Euler characteristics from cycle counts, isomorphism witnesses
verified edge by edge, and the known homology of each generated family.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

Mats = Sequence[Sequence[int]]


def matching_error(mats: Mats) -> Optional[str]:
    """None when every matching is a fixed-point-free involution of one size."""
    if len(mats) < 2:
        return "fewer than two colors"
    n = len(mats[0])
    if n < 2 or n % 2:
        return f"bad vertex count {n}"
    for c, m in enumerate(mats):
        if len(m) != n:
            return f"color {c} has {len(m)} entries, expected {n}"
        for v, w in enumerate(m):
            if not (isinstance(w, int) and 0 <= w < n) or w == v or m[w] != v:
                return f"color {c} is not a perfect matching at vertex {v}"
    return None


def cycles(ma: Sequence[int], mb: Sequence[int]) -> tuple[list[int], int]:
    """Length of the {a,b}-bicolored cycle through each vertex, and the count."""
    n = len(ma)
    out = [0] * n
    count = 0
    for start in range(n):
        if out[start]:
            continue
        count += 1
        cycle = []
        v, use_a = start, True
        while True:
            cycle.append(v)
            v = ma[v] if use_a else mb[v]
            use_a = not use_a
            if v == start and use_a:
                break
        for w in cycle:
            out[w] = len(cycle)
    return out, count


def cycle_lengths(ma: Sequence[int], mb: Sequence[int]) -> list[int]:
    return cycles(ma, mb)[0]


def component_count(mats: Mats, colors: Optional[Sequence[int]] = None) -> int:
    cols = range(len(mats)) if colors is None else colors
    n = len(mats[0])
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for c in cols:
                w = mats[c][v]
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def bipartite(mats: Mats) -> bool:
    n = len(mats[0])
    side = [-1] * n
    for start in range(n):
        if side[start] >= 0:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for m in mats:
                w = m[v]
                if side[w] < 0:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def contracted(mats: Mats) -> bool:
    k = len(mats)
    return all(
        component_count(mats, [c for c in range(k) if c != drop]) == 1
        for drop in range(k)
    )


def arrangements(d: int) -> list[tuple[int, ...]]:
    """Cyclic orders of 0..d up to rotation and reflection, sorted."""
    return sorted(
        (0,) + rest
        for rest in itertools.permutations(range(1, d + 1))
        if d < 2 or rest[0] < rest[-1]
    )


def consecutive_pairs(order: Sequence[int]) -> list[tuple[int, int]]:
    k = len(order)
    return [tuple(sorted((order[i], order[(i + 1) % k]))) for i in range(k)]


class PairTable:
    """Cycle counts and per-vertex cycle lengths for every color pair."""

    def __init__(self, mats: Mats):
        self.mats = mats
        self.n = len(mats[0])
        self.d = len(mats) - 1
        walks = {
            (a, b): cycles(mats[a], mats[b])
            for a, b in itertools.combinations(range(self.d + 1), 2)
        }
        self.lengths = {pair: w[0] for pair, w in walks.items()}
        self.counts = {pair: w[1] for pair, w in walks.items()}

    def g_values(self, order: Sequence[int]) -> list[int]:
        return [self.counts[p] for p in consecutive_pairs(order)]

    def chi(self, order: Sequence[int]) -> int:
        return sum(self.g_values(order)) + (1 - self.d) * self.n // 2

    def uniform_type(self, order: Sequence[int]) -> Optional[tuple[int, ...]]:
        """The common cyclic face word of every vertex, or None."""
        cols = [self.lengths[p] for p in consecutive_pairs(order)]
        first = tuple(col[0] for col in cols)
        canon = cyclic_canonical(first)
        for v in range(1, self.n):
            word = tuple(col[v] for col in cols)
            if word != first and cyclic_canonical(word) != canon:
                return None
        return canon


def cyclic_canonical(t: tuple) -> tuple:
    """Least rotation of the word or of its reverse."""
    rots = [t[i:] + t[:i] for i in range(len(t))]
    rev = t[::-1]
    rots += [rev[i:] + rev[:i] for i in range(len(t))]
    return min(rots)


def vertex_face_multisets(mats: Mats, pairs) -> set[tuple[int, ...]]:
    cols = [cycle_lengths(mats[a], mats[b]) for a, b in pairs]
    return {tuple(sorted(col[v] for col in cols)) for v in range(len(mats[0]))}


def witness_error(a: Mats, b: Mats, vmap, cmap) -> Optional[str]:
    """None when (vmap, cmap) carries every colored edge of a onto b."""
    n, k = len(a[0]), len(a)
    if sorted(vmap) != list(range(n)):
        return "vertex map is not a bijection"
    if sorted(cmap) != list(range(k)):
        return "color map is not a bijection"
    for c in range(k):
        bm = b[cmap[c]]
        for v in range(n):
            if bm[vmap[v]] != vmap[a[c][v]]:
                return f"edge ({v}, color {c}) is not preserved"
    return None


def relabeled(mats: Mats, perm: Sequence[int], cmap: Sequence[int]) -> list[list[int]]:
    """Matchings after v -> perm[v] and c -> cmap[c]."""
    n = len(mats[0])
    out: list[list[int]] = [[] for _ in mats]
    for c, m in enumerate(mats):
        new = [0] * n
        for v in range(n):
            new[perm[v]] = perm[m[v]]
        out[cmap[c]] = new
    return out


def unrank_permutation(rank: int, k: int) -> tuple[int, ...]:
    """The permutation at position ``rank`` of the lexicographic order."""
    pool = list(range(k))
    out = []
    for i in range(k, 0, -1):
        q, rank = divmod(rank, math.factorial(i - 1))
        out.append(pool.pop(q))
    return tuple(out)


# Known homology, as (rank, torsion) per dimension.

Profile = list[tuple[int, tuple[int, ...]]]


def lens_profile(p: int, q: int) -> Profile:
    """L(p, q) for gcd(p, q) = 1; the double-cycle gem with shift 0 is S^3."""
    torsion = (p,) if q and p > 1 else ()
    return [(1, ()), (0, torsion), (0, ()), (1, ())]


def sphere_bundle_profile(d: int, orientable: bool) -> Profile:
    """S^(d-1) bundle over the circle, product or twisted."""
    groups: Profile = [(1, ()), (1, ())] + [(0, ())] * (d - 1)
    groups[d - 1] = (1, ()) if orientable else (0, (2,))
    groups[d] = (1, ()) if orientable else (0, ())
    return groups


def surface_profile(chi: int, orientable: bool) -> Profile:
    if orientable:
        return [(1, ()), (2 - chi, ()), (1, ())]
    return [(1, ()), (1 - chi, (2,)), (0, ())]


def profile_str(groups: Profile) -> str:
    parts = []
    for i, (rank, tors) in enumerate(groups):
        terms = ([] if rank == 0 else ["Z" if rank == 1 else f"Z^{rank}"])
        terms += [f"Z_{t}" for t in tors]
        parts.append(f"H{i}={'+'.join(terms) if terms else '0'}")
    return " ".join(parts)


def type_identity_holds(faces: Sequence[int], order: object, chi: int) -> bool:
    """1 - d'/2 + sum 1/q = chi/order, the identity every listed type meets."""
    r = 1 - Fraction(len(faces), 2) + sum(Fraction(1, q) for q in faces)
    if order is None:
        return r == 0 and chi == 0
    return isinstance(order, int) and r * order == chi
