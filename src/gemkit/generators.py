"""Constructors for the gem families and the figure catalog.

Every generator validates its output before returning, in one call of
``_expect_gem`` that declares the gem's order, orientability and identity
face type, and its H1 where the family knows it (then the manifold check
runs too), next to any family rule such as the lens residue counts; getting
a graph back means all checks passed.
Every family and both parametric catalog entries are built in closed form;
every fixed catalog entry is the first hit of one direct 3-color search
for its order, face type and orientability.  Built graphs are kept in a
process-wide cache guarded by a lock; cached graphs are immutable, so
concurrent generation is safe, and every caller of one key gets one object.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass
from typing import Optional

from .core import ColoredGraph, is_bipartite, is_contracted, residue_count
from .embedding import CyclicPermutation, TypeSignature, semi_equivelar_type
from .complexes import ManifoldVerdict, homology, manifold_check
from . import search as _search


class FamilyValidationError(RuntimeError):
    """A constructed family member failed its own invariant check."""


_cache: dict[tuple, ColoredGraph] = {}
_cache_lock = threading.Lock()


def _cached(key: tuple, build) -> ColoredGraph:
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None:
        return hit
    g = build()
    # A build for the same key may have landed first; every caller gets that one.
    with _cache_lock:
        return _cache.setdefault(key, g)


def _expect(condition: bool, family: str, message: str) -> None:
    if not condition:
        raise FamilyValidationError(f"{family}: {message}")


def _expect_gem(
    g: ColoredGraph,
    family: str,
    order: int,
    orientable: bool,
    faces: tuple[int, ...],
    h1: Optional[tuple[int, tuple[int, ...]]] = None,
) -> None:
    """Check a built gem against its declaration, cheapest first: order,
    connectivity, orientability (bipartiteness) and the identity
    arrangement's face type (bigons allowed only if ``faces`` has a 2), then,
    unless ``h1`` is None, H1 as (rank, torsion) and ``manifold_check``.

    Chi needs no check: once order n and face type f_1..f_(d+1) pass, the
    identity arrangement has n * sum(1/f_i) faces, so chi is
    n * sum(1/f_i) + (1 - d) n / 2, the counting identity that
    ``search.enumerate_embedding_types`` solves.  A passing manifold check
    has the kind its dimension gives, so only ``ok`` is read.
    """
    _expect(g.vertex_count == order, family, f"order {g.vertex_count} differs from {order}")
    _expect(g.is_connected(), family, "graph must be connected")
    _expect(is_bipartite(g) == orientable, family, "orientability mismatch")
    eps = CyclicPermutation(tuple(range(g.dimension + 1)))
    sig = semi_equivelar_type(g, eps, "include" if 2 in faces else "exclude")
    want = TypeSignature.from_tuple(faces)
    _expect(sig == want, family, f"face type {sig} differs from {want}")
    if h1 is None:
        return
    hom = homology(g)
    _expect(
        hom.groups[1] == h1,
        family,
        f"H1 is {hom.group_str(1)}, expected rank {h1[0]} torsion {h1[1]}",
    )
    verdict = manifold_check(g)
    _expect(verdict.ok, family, f"manifold check failed: {verdict.detail}")


def _expect_surface(
    g: ColoredGraph,
    family: str,
    order: int,
    orientable: bool,
    chi: int,
    faces: tuple[int, ...],
) -> None:
    """Check a 3-colored gem against the closed surface it should encode."""
    # A closed surface's first homology is pinned by chi and orientability.
    h1 = (2 - chi, ()) if orientable else (1 - chi, (2,))
    _expect_gem(g, family, order, orientable, faces, h1)


def standard_sphere(d: int) -> ColoredGraph:
    """The two-vertex graph with one edge of every color.

    Encodes the d-sphere; every bicolored cycle is a 2-gon and every
    residue count equals 1, so each embedding surface is the 2-sphere.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")

    def build() -> ColoredGraph:
        g = ColoredGraph([(1, 0)] * (d + 1))
        _expect_gem(g, "standard_sphere", 2, True, (2,) * (d + 1))
        return g

    return _cached(("sphere", d), build)


def _lens_matchings(p: int, k: int, shift: int) -> list[list[int]]:
    """Ladder of k cycles of length 2p, closed with the given index shift.

    Vertex (l, j) for 1 <= l <= k, 0 <= j < 2p sits at index (l-1)*2p + j.
    Colors 0 and 2 alternate around each cycle; color 1 joins cycle l to
    l+1 for odd l, color 3 for even l, and color 3 also closes cycle k
    back to cycle 1 sending position j to j + shift.
    """
    two_p = 2 * p
    n = two_p * k

    def vid(l: int, j: int) -> int:
        return (l - 1) * two_p + (j % two_p)

    m = [[-1] * n for _ in range(4)]
    for l in range(1, k + 1):
        for j in range(0, two_p, 2):
            a, b = vid(l, j), vid(l, j + 1)
            m[0][a] = b
            m[0][b] = a
        for j in range(1, two_p, 2):
            a, b = vid(l, j), vid(l, j + 1)
            m[2][a] = b
            m[2][b] = a
    for l in range(1, k, 2):
        for j in range(two_p):
            a, b = vid(l, j), vid(l + 1, j)
            m[1][a] = b
            m[1][b] = a
    for l in range(2, k, 2):
        for j in range(two_p):
            a, b = vid(l, j), vid(l + 1, j)
            m[3][a] = b
            m[3][b] = a
    for j in range(two_p):
        a, b = vid(1, j), vid(k, j + shift)
        m[3][a] = b
        m[3][b] = a
    return m


def lens_gem(p: int, q: int, k: int) -> ColoredGraph:
    """Bipartite gem of the lens space with the even closing shift 2q.

    Order 2pk; the colors 0 and 2 trace k cycles of length 2p and all four
    cyclically consecutive color pairs trace squares.  A zero shift closes
    the ladder trivially and yields the 3-sphere; otherwise, with p and q
    coprime, the encoded space has first homology Z_p.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if k < 2 or k % 2:
        raise ValueError("k must be even and at least 2")
    if not 0 <= q < p:
        raise ValueError("q must satisfy 0 <= q < p")

    def build() -> ColoredGraph:
        g = ColoredGraph(_lens_matchings(p, k, 2 * q))
        fam = f"lens_gem({p},{q},{k})"
        _expect(residue_count(g, (0, 2)) == k, fam, "there must be k double cycles")
        # With more than two double cycles the last-color residue splits;
        # with exactly two it stays connected only for coprime shift data
        # (a zero shift behaves like gcd(p, 0) = p).
        contracted_expected = k == 2 and (math.gcd(p, q) == 1 if q > 0 else p == 1)
        _expect(
            is_contracted(g) == contracted_expected,
            fam,
            "contractedness differs from the coprimality rule",
        )
        # H1 is declared for q = 0 (the 3-sphere) and coprime q (H1 = Z_p).
        h1 = (0, (p,) if q else ()) if q == 0 or math.gcd(p, q) == 1 else None
        _expect_gem(g, fam, 2 * p * k, True, (4, 4, 4, 4), h1)
        return g

    return _cached(("lens", p, q, k), build)


@dataclass(frozen=True)
class AttemptDiagnostic:
    """Residue counts of a non-bipartite closing attempt, with predictions.

    The predicted values are the counting obstructions: g_02 = k,
    g_03 = g_23 = 1 + p(k-2)/2 and g_023 = k/2, plus g_12 = k/2 and
    g_13 = g_123 = 1 when p = 1.  A graph matching them can never pass the
    manifold check, which is the point of the attempt.
    """

    computed: dict[str, int]
    predicted: dict[str, int]
    verdict: ManifoldVerdict

    @property
    def matches_prediction(self) -> bool:
        return all(
            self.computed.get(key) == value
            for key, value in self.predicted.items()
        )


def lens_nonbipartite_attempt(
    p: int, k: int, r_even: int
) -> tuple[ColoredGraph, AttemptDiagnostic]:
    """Close the cycle ladder onto an even position and record the damage.

    Joining position 1 of the first cycle to the even position ``r_even``
    of the last one forces an odd closing shift, which kills bipartiteness
    and, by the predicted residue counts, the manifold property.  Public as
    the counting obstruction to a non-bipartite lens gem of this ladder.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if k < 2 or k % 2:
        raise ValueError("k must be even and at least 2")
    if r_even % 2:
        raise ValueError("r_even must be an even position")
    shift = (r_even - 1) % (2 * p)
    g = ColoredGraph(_lens_matchings(p, k, shift))
    predicted = {
        "02": k,
        "03": 1 + p * (k - 2) // 2,
        "23": 1 + p * (k - 2) // 2,
        "023": k // 2,
    }
    if p == 1:
        predicted["12"] = k // 2
        predicted["13"] = 1
        predicted["123"] = 1
    computed = {key: residue_count(g, tuple(map(int, key))) for key in predicted}
    return g, AttemptDiagnostic(computed, predicted, manifold_check(g))


def _base_cycle(n: int) -> tuple[list[int], list[int]]:
    """Colors 0 and 1 of the length-n Hamiltonian cycle 0,1,...,n-1."""
    m0 = [-1] * n
    m1 = [-1] * n
    for t in range(0, n, 2):
        m0[t] = t + 1
        m0[t + 1] = t
    for t in range(1, n, 2):
        a, b = t, (t + 1) % n
        m1[a] = b
        m1[b] = a
    return m0, m1


def _antipodal(n: int) -> list[int]:
    """The matching v -> v + n/2 (mod n) on n vertices."""
    return [(v + n // 2) % n for v in range(n)]


def rp2_sum_gem(n: int) -> ColoredGraph:
    """Non-bipartite surface gem of the n-fold projective plane sum.

    Order 2n+2 with all three bicolored cycles Hamiltonian, so the face
    type is ((2n+2)^3) and the embedding surface has Euler characteristic
    2-n.  On the base cycle 0,1,...,2n+1 the third matching is
    (0 2), (1 4), (3 6), ..., (2t-1 2t+2), ..., (2n-1 2n+1); the edge (0 2)
    closes an odd cycle.  It is the lexicographically least third matching
    that makes the pairs {0,2} and {1,2} Hamiltonian and the gem
    non-bipartite (the tests check this by brute force for n = 1..5).
    """
    if n < 1:
        raise ValueError("n must be at least 1")

    def build() -> ColoredGraph:
        size = 2 * n + 2
        m2 = [-1] * size
        rungs = [(t, t + 3) for t in range(1, size - 4, 2)]
        for a, b in [(0, 2), *rungs, (size - 3, size - 1)]:
            m2[a] = b
            m2[b] = a
        g = ColoredGraph([*_base_cycle(size), m2])
        _expect_surface(g, f"rp2_sum_gem({n})", size, False, 2 - n, (size,) * 3)
        return g

    return _cached(("rp2_sum", n), build)


def torus_sum_gem(n: int) -> ColoredGraph:
    """Bipartite surface gem of the n-fold torus sum.

    Order 4n+2; the third matching is the antipodal one i -> i + 2n + 1.
    Both mixed pairs then step by n+1 on the residues mod 2n+1, and
    gcd(n+1, 2n+1) = 1, so they are Hamiltonian for every n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")

    def build() -> ColoredGraph:
        size = 4 * n + 2
        g = ColoredGraph([*_base_cycle(size), _antipodal(size)])
        _expect_surface(g, f"torus_sum_gem({n})", size, True, 2 - 2 * n, (size,) * 3)
        return g

    return _cached(("torus_sum", n), build)


def sphere_times_circle_gem(d: int, twisted: bool = False) -> ColoredGraph:
    """Gem of the sphere bundle over the circle, genus-1 for every d >= 3.

    2(d+1) vertices in d+1 blocks; block t carries d-1 parallel edges
    missing the colors t-1 and t, consecutive blocks are joined by color-t
    connectors, and the final color-d pair closes the ring straight (a to a,
    b to b) or crossed.  The straight closure is orientable exactly when d
    is odd, so the ring is crossed when that differs from the requested
    orientability.  Under the identity arrangement every vertex sees three
    hexagons and d-2 bigons.
    """
    if d < 3:
        raise ValueError("dimension must be at least 3")

    def build() -> ColoredGraph:
        count = d + 1
        n = 2 * count

        def a(t: int) -> int:
            return 2 * (t % count)

        def b(t: int) -> int:
            return 2 * (t % count) + 1

        m = [[-1] * n for _ in range(count)]
        for t in range(count):
            bundle = set(range(count)) - {(t - 1) % count, t}
            for c in bundle:
                m[c][a(t)] = b(t)
                m[c][b(t)] = a(t)
        for t in range(d):
            m[t][a(t)] = a(t + 1)
            m[t][a(t + 1)] = a(t)
            m[t][b(t)] = b(t + 1)
            m[t][b(t + 1)] = b(t)
        # Each block edge and connector flips the side of a 2-coloring, so
        # the straight closure is bipartite exactly when the ring of d + 1
        # blocks is even.
        crossed = (d % 2 == 0) != twisted
        ends = (b(0), a(0)) if crossed else (a(0), b(0))
        for u, w in zip((a(d), b(d)), ends):
            m[d][u] = w
            m[d][w] = u
        g = ColoredGraph(m)
        fam = f"sphere_times_circle_gem({d}, twisted={twisted})"
        faces = (2,) * (d - 2) + (6, 6, 6)
        _expect_gem(g, fam, n, not twisted, faces, (1, ()))
        return g

    return _cached(("sphere_times_circle", d, twisted), build)


# ---------------------------------------------------------------------------
# Figure catalog


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    surface: str
    faces: str
    order: object  # int, or a formula in p for the parametric families
    orientable: bool
    chi: int
    parametric: bool = False
    parameter: str = ""
    enabled: bool = True
    note: str = ""

    def to_json_dict(self) -> dict:
        return asdict(self)


def _prism_sphere(p: int) -> ColoredGraph:
    """Two cycles of length p with 0/2 alternation, joined rung by rung."""
    if p < 4 or p % 2:
        raise ValueError("p must be even and at least 4")
    return ColoredGraph(_lens_matchings(p // 2, 2, 0)[:3])


def _moebius_projective(p: int) -> ColoredGraph:
    """Cycle of length 2p with the antipodal matching as the middle color."""
    if p < 2 or p % 2:
        raise ValueError("p must be even and at least 2")
    m0, m2 = _base_cycle(2 * p)
    return ColoredGraph([m0, _antipodal(2 * p), m2])


# The parameter of a parametric entry built without one.
_DEFAULT_P = {"rp2-4.4.2p": 4, "s2-4.4.p": 6}


def _build_catalog_gem(entry: CatalogEntry, p: Optional[int]) -> ColoredGraph:
    if entry.parametric:  # the projective plane or the sphere, in closed form
        return (_prism_sphere if entry.orientable else _moebius_projective)(p)
    # Every fixed entry is the first hit of a search by its caption.
    spec = _search.SearchSpec(
        colors=3,
        order=entry.order,
        vertex_types=_catalog_faces(entry, p),
        bipartite="only" if entry.orientable else "none",
        bigons="exclude",
    )
    g = _search.first_gem(spec)
    if g is None:
        raise FamilyValidationError(f"catalog search for {entry.name} found nothing")
    return g


_CATALOG: dict[str, CatalogEntry] = {
    e.name: e
    for e in (
        CatalogEntry("rp2-4.4.4", "projective plane", "(4^3)", 4, False, 1),
        CatalogEntry(
            "rp2-4.4.2p",
            "projective plane",
            "(4^2,2p)",
            "2p",
            False,
            1,
            parametric=True,
            parameter="p even, p >= 2",
        ),
        CatalogEntry("s2-4.4.4", "sphere", "(4^3)", 8, True, 2),
        CatalogEntry(
            "s2-4.4.p",
            "sphere",
            "(4^2,p)",
            "2p",
            True,
            2,
            parametric=True,
            parameter="p even, p >= 4",
        ),
        CatalogEntry("s2-6.6.4", "sphere", "(6^2,4)", 24, True, 2),
        CatalogEntry("torus-6.6.6", "torus", "(6^3)", 12, True, 0),
        CatalogEntry("torus-4.8.8", "torus", "(4,8^2)", 16, True, 0),
        CatalogEntry("torus-4.6.12", "torus", "(4,6,12)", 24, True, 0),
        CatalogEntry("klein-6.6.6", "Klein bottle", "(6^3)", 12, False, 0),
        CatalogEntry("klein-4.8.8", "Klein bottle", "(4,8^2)", 16, False, 0),
        CatalogEntry("klein-4.6.12", "Klein bottle", "(4,6,12)", 24, False, 0),
        CatalogEntry(
            "rp2-4.6.10",
            "projective plane",
            "(4,6,10)",
            60,
            False,
            1,
            enabled=False,
            note="order above the desk-scale budget; not shipped",
        ),
        CatalogEntry(
            "s2-4.6.8",
            "sphere",
            "(4,6,8)",
            48,
            True,
            2,
            enabled=False,
            note="order above the desk-scale budget; not shipped",
        ),
        CatalogEntry(
            "s2-4.6.10",
            "sphere",
            "(4,6,10)",
            120,
            True,
            2,
            enabled=False,
            note="order above the desk-scale budget; not shipped",
        ),
    )
}


def catalog_manifest() -> list[dict]:
    """JSON-ready description of every catalog entry, enabled or not."""
    return [entry.to_json_dict() for entry in _CATALOG.values()]


def _catalog_length(q: str, p: Optional[int]) -> int:
    """A length like "12", "p" or "2p", with p filled in."""
    return int(q[:-1] or 1) * p if q.endswith("p") else int(q)


def _catalog_faces(entry: CatalogEntry, p: Optional[int]) -> tuple[int, ...]:
    """The face lengths of ``entry.faces``: runs like "4^2" or "2p", p filled in."""
    faces: list[int] = []
    for run in entry.faces.strip("()").split(","):
        q, _, k = run.partition("^")
        faces += [_catalog_length(q, p)] * int(k or 1)
    return tuple(faces)


def catalog(name: str, p: Optional[int] = None) -> ColoredGraph:
    """Build a catalog gem by name and validate its caption invariants."""
    entry = _CATALOG.get(name)
    if entry is None:
        raise ValueError(f"unknown catalog entry {name!r}")
    if not entry.enabled:
        raise ValueError(f"catalog entry {name!r} is disabled: {entry.note}")
    if p is not None and not entry.parametric:
        raise ValueError(f"catalog entry {name!r} takes no parameter")

    param = _DEFAULT_P.get(name) if p is None else p

    def build() -> ColoredGraph:
        g = _build_catalog_gem(entry, param)
        order = _catalog_length(str(entry.order), param)
        faces = _catalog_faces(entry, param)
        _expect_surface(g, f"catalog[{name}]", order, entry.orientable, entry.chi, faces)
        return g

    return _cached(("catalog", name, param), build)
