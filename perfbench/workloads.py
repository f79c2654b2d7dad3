"""The benchmark's three workloads: inputs from a seed, ops, and checks.

``build`` makes one workload's op list.  Everything it does counts as
set-up: generating (and so validating) family gems, relabeling them,
writing input files and warming gemkit's generator cache.  Each op is one
call into gemkit's public API or one ``gemkit.cli.main`` command; its
check compares the answer against values from ``oracle`` or against class
counts pinned from the seed commit (see ``baseline.json``).

gemkit is reached through module attributes at call time
(``gk.search.search_report``), so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import oracle


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    before: Optional[Callable[[], None]] = None


def build(workload: str, gk: SimpleNamespace, seed: int, quick: bool, workdir: Path) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search":
        return _search_ops(gk, rng, quick)
    if workload == "topology":
        return _topology_ops(gk, rng, quick)
    if workload == "session":
        return _session_ops(gk, rng, quick, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _fail(condition: bool, message: str) -> Optional[str]:
    return None if condition else message


# ---------------------------------------------------------------------------
# search: the matching DFS and canonical dedup


def _spec_error(spec: dict, mats) -> Optional[str]:
    """Re-check one search class against its spec, without gemkit."""
    err = oracle.matching_error(mats)
    if err:
        return err
    if len(mats) != spec["colors"] or len(mats[0]) != spec["order"]:
        return "class has the wrong size"
    if oracle.component_count(mats) != 1:
        return "class is disconnected"
    bip = oracle.bipartite(mats)
    if spec.get("bipartite") == "only" and not bip:
        return "class is not bipartite"
    identity = tuple(range(spec["colors"]))
    pairs = oracle.consecutive_pairs(identity)
    for pair in pairs:
        if 2 in oracle.cycle_lengths(mats[pair[0]], mats[pair[1]]):
            return f"pair {pair} has a bigon"
    if "vertex_types" in spec:
        seen = oracle.vertex_face_multisets(mats, pairs)
        if seen != {tuple(sorted(spec["vertex_types"]))}:
            return f"vertex types {sorted(seen)} differ from the spec"
    for (a, b), allowed in (spec.get("pair_lengths") or {}).items():
        if not set(oracle.cycle_lengths(mats[a], mats[b])) <= set(allowed):
            return f"pair {(a, b)} has a cycle length outside {allowed}"
    if "chi" in spec and oracle.PairTable(mats).chi(identity) != spec["chi"]:
        return "Euler characteristic differs from the spec"
    return None


def _relabel_invariance_error(gk, g, rng: random.Random) -> Optional[str]:
    """A random vertex and color relabeling keeps the canonical form."""
    n, k = g.vertex_count, g.dimension + 1
    perm, cmap = list(range(n)), list(range(k))
    rng.shuffle(perm)
    rng.shuffle(cmap)
    h = gk.core.ColoredGraph(oracle.relabeled(g.matchings, perm, cmap))
    same = gk.core.canonical_form(h, "color-permuting") == gk.core.canonical_form(
        g, "color-permuting"
    )
    return _fail(same, "a relabeled copy has another canonical form")


_SQUARES = {(0, 1): (4,), (1, 2): (4,), (2, 3): (4,), (0, 3): (4,)}
_666 = {(0, 1): (6,), (0, 2): (6,), (1, 2): (6,)}

# label, spec, class count pinned from the seed commit
SEARCH_SPECS = [
    ("search 4.8.8 order 16", {"colors": 3, "order": 16, "vertex_types": (4, 8, 8)}, 6),
    (
        "search 4.8.8 order 16 bipartite",
        {"colors": 3, "order": 16, "vertex_types": (4, 8, 8), "bipartite": "only"},
        2,
    ),
    ("search 6.6.6 order 18", {"colors": 3, "order": 18, "pair_lengths": _666}, 4),
    ("search 4.6.12 order 12", {"colors": 3, "order": 12, "vertex_types": (4, 6, 12)}, 3),
    (
        "search 6.6.4 order 12 chi 1",
        {"colors": 3, "order": 12, "vertex_types": (6, 6, 4), "chi": 1},
        0,
    ),
]
QUICK_SEARCH_SPECS = [
    ("search 6.6.6 order 12", {"colors": 3, "order": 12, "pair_lengths": _666}, 3),
] + SEARCH_SPECS[3:]

# order_max -> (color-permuting classes, color-fixed classes), pinned
CLASSIFY = {12: (10, 19), 8: (6, 12)}


def _search_ops(gk, rng: random.Random, quick: bool) -> list[Op]:
    check_rng = random.Random(rng.random())
    ops = []
    for label, spec, count in QUICK_SEARCH_SPECS if quick else SEARCH_SPECS:
        ops.append(_search_op(gk, label, spec, count, check_rng))
    order_max = 8 if quick else 12
    ops.append(_classify_op(gk, order_max, CLASSIFY[order_max], check_rng))
    # classify_4_4 looks classes up among the lens gems of each order;
    # a fresh process would build them once, so they are warmed here.
    for order in range(4, order_max + 1, 4):
        for k in range(2, order // 2 + 1, 2):
            if order % (2 * k) == 0:
                p = order // (2 * k)
                for q in range(p):
                    gk.generators.lens_gem(p, q, k)
    return ops


def _search_op(gk, label, spec, count, check_rng) -> Op:
    spec_obj = gk.search.SearchSpec(**spec)

    def check(report) -> Optional[str]:
        if not report.exhaustive:
            return "search was not exhaustive"
        if len(report.gems) != count:
            return f"{len(report.gems)} classes, pinned count is {count}"
        for g in report.gems:
            err = _spec_error(spec, g.matchings) or _relabel_invariance_error(gk, g, check_rng)
            if err:
                return err
        return None

    return Op(label, lambda: gk.search.search_report(spec_obj), check)


def _classify_op(gk, order_max, counts, check_rng) -> Op:
    spec = {"colors": 4, "pair_lengths": _SQUARES}

    def check(rep) -> Optional[str]:
        if (rep.count_color_permuting, rep.count_color_fixed) != counts:
            return (
                f"classes {rep.count_color_permuting}/{rep.count_color_fixed}, "
                f"pinned {counts[0]}/{counts[1]}"
            )
        if not rep.exhaustive or len(rep.entries) != counts[0]:
            return "classification incomplete"
        for e in rep.entries:
            mats = e.graph.matchings
            err = _spec_error(dict(spec, order=len(mats[0])), mats)
            if err:
                return err
            if e.bipartite != oracle.bipartite(mats):
                return "bipartite flag is wrong"
            if e.lens_parameters is not None:
                p, q, k = e.lens_parameters
                if 2 * p * k != len(mats[0]):
                    return f"lens parameters {e.lens_parameters} do not fit the order"
                if (q == 0 or math.gcd(p, q) == 1) and [
                    tuple(x) for x in e.homology.groups
                ] != oracle.lens_profile(p, q):
                    return f"homology of lens class {e.lens_parameters} is wrong"
            err = _relabel_invariance_error(gk, e.graph, check_rng)
            if err:
                return err
        return None

    return Op(f"classify_4_4({order_max})", lambda: gk.search.classify_4_4(order_max), check)


# ---------------------------------------------------------------------------
# topology: complexes, SNF and the residue recursion


def _relabel_random(gk, g, rng: random.Random):
    perm = list(range(g.vertex_count))
    cmap = list(range(g.dimension + 1))
    rng.shuffle(perm)
    rng.shuffle(cmap)
    return gk.core.ColoredGraph(oracle.relabeled(g.matchings, perm, cmap))


def _coprime_q(rng: random.Random, p: int) -> int:
    return rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])


def _profile_check(expected) -> Callable[[object], Optional[str]]:
    def check(prof) -> Optional[str]:
        got = [tuple(g) for g in prof.groups]
        return _fail(got == expected, f"homology {got}, expected {expected}")

    return check


def _verdict_check(kind: str) -> Callable[[object], Optional[str]]:
    return lambda v: _fail(v.kind == kind, f"verdict {v}, expected {kind}")


def _topology_ops(gk, rng: random.Random, quick: bool) -> list[Op]:
    lens = [(5, 2)] if quick else [(7, 4), (11, 4), (13, 6), (16, 6)]
    dims = (4,) if quick else (4, 5, 6)
    torus_n, rp2_n = (6, 6) if quick else (40, 70)
    ops = []
    for p, k in lens:
        q = _coprime_q(rng, p)
        g = _relabel_random(gk, gk.generators.lens_gem(p, q, k), rng)
        ops.append(Op(f"homology lens({p},{q},{k})", _call(gk, "homology", g),
                      _profile_check(oracle.lens_profile(p, q))))
    if not quick:
        g = _relabel_random(gk, gk.generators.lens_gem(20, 1, 8), rng)
        ops.append(Op("homology lens(20,1,8)", _call(gk, "homology", g),
                      _profile_check(oracle.lens_profile(20, 1))))
    for d in dims:
        for twisted in (False, True):
            g = _relabel_random(gk, gk.generators.sphere_times_circle_gem(d, twisted), rng)
            label = f"S^{d - 1} {'twisted ' if twisted else ''}bundle"
            ops.append(Op(f"manifold_check {label}", _call(gk, "manifold_check", g),
                          _verdict_check("homology-certified")))
            ops.append(Op(f"homology {label}", _call(gk, "homology", g),
                          _profile_check(oracle.sphere_bundle_profile(d, not twisted))))
    for name, n, chi, orientable in (
        ("torus_sum_gem", torus_n, 2 - 2 * torus_n, True),
        ("rp2_sum_gem", rp2_n, 2 - rp2_n, False),
    ):
        g = _relabel_random(gk, getattr(gk.generators, name)(n), rng)
        ops.append(Op(f"manifold_check {name}({n})", _call(gk, "manifold_check", g),
                      _verdict_check("certified-surface")))
        ops.append(Op(f"homology {name}({n})", _call(gk, "homology", g),
                      _profile_check(oracle.surface_profile(chi, orientable))))
    return ops


def _call(gk, fn: str, g) -> Callable[[], object]:
    return lambda: getattr(gk.complexes, fn)(g)


# ---------------------------------------------------------------------------
# session: CLI commands as a person at the terminal runs them


@dataclass
class CliResult:
    code: object
    out: str
    err: str


def _cli(gk, argv: list[str], stdin: Optional[str] = None) -> Callable[[], CliResult]:
    def run() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = gk.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            sys.stdin = saved
        return CliResult(code, out.getvalue(), err.getvalue())

    return run


def _cli_check(inner: Callable[[str], Optional[str]]) -> Callable[[CliResult], Optional[str]]:
    def check(res: CliResult) -> Optional[str]:
        if res.code != 0:
            return f"exit code {res.code}: {res.err.strip()[:200]}"
        return inner(res.out)

    return check


def _random_gem(rng: random.Random, d: int, n: int) -> list[list[int]]:
    """Uniform random matchings, redrawn until the graph is connected."""
    while True:
        mats = []
        for _ in range(d + 1):
            verts = list(range(n))
            rng.shuffle(verts)
            m = [0] * n
            for i in range(0, n, 2):
                m[verts[i]], m[verts[i + 1]] = verts[i + 1], verts[i]
            mats.append(m)
        if oracle.component_count(mats) == 1:
            return mats


def _gem_json(mats) -> str:
    return json.dumps({"dimension": len(mats) - 1, "vertices": len(mats[0]),
                       "matchings": [list(m) for m in mats]})


def _parse_gem(out: str):
    data = json.loads(out)
    mats = data["matchings"]
    err = oracle.matching_error(mats)
    if err:
        raise ValueError(err)
    if data["dimension"] != len(mats) - 1 or data["vertices"] != len(mats[0]):
        raise ValueError("header does not match the matchings")
    return mats


def _gem_check(order: int, bip: Optional[bool], faces, chi: Optional[int], extra=None):
    """Check a gem printed as JSON against its family's invariants."""

    def inner(out: str) -> Optional[str]:
        mats = _parse_gem(out)
        identity = tuple(range(len(mats)))
        if len(mats[0]) != order:
            return f"order {len(mats[0])}, expected {order}"
        if oracle.component_count(mats) != 1:
            return "gem is disconnected"
        if bip is not None and oracle.bipartite(mats) != bip:
            return "bipartiteness is wrong"
        if faces is not None:
            seen = oracle.vertex_face_multisets(mats, oracle.consecutive_pairs(identity))
            if seen != {tuple(sorted(faces))}:
                return f"face types {sorted(seen)}, expected {sorted(faces)}"
        if chi is not None and oracle.PairTable(mats).chi(identity) != chi:
            return "Euler characteristic is wrong"
        return extra(mats) if extra else None

    return _cli_check(inner)


# name -> (orientable, chi, faces, order); p is the parameter of the
# parametric entries.
def _catalog_expectation(name: str, p: Optional[int]):
    table = {
        "rp2-4.4.4": (False, 1, (4, 4, 4), 4),
        "s2-4.4.4": (True, 2, (4, 4, 4), 8),
        "s2-6.6.4": (True, 2, (4, 6, 6), 24),
        "torus-6.6.6": (True, 0, (6, 6, 6), 12),
        "torus-4.8.8": (True, 0, (4, 8, 8), 16),
        "torus-4.6.12": (True, 0, (4, 6, 12), 24),
        "klein-6.6.6": (False, 0, (6, 6, 6), 12),
        "klein-4.8.8": (False, 0, (4, 8, 8), 16),
        "klein-4.6.12": (False, 0, (4, 6, 12), 24),
    }
    if name == "rp2-4.4.2p":
        return (False, 1, (4, 4, 2 * p), 2 * p)
    if name == "s2-4.4.p":
        return (True, 2, (4, 4, p), 2 * p)
    return table[name]


CATALOG_NAMES = [
    "rp2-4.4.4", "rp2-4.4.2p", "s2-4.4.4", "s2-4.4.p", "s2-6.6.4", "torus-6.6.6",
    "torus-4.8.8", "torus-4.6.12", "klein-6.6.6", "klein-4.8.8", "klein-4.6.12",
]

# chi -> number of embedding types, pinned from the seed commit
TYPE_COUNTS = {1: 5, 0: 4, -2: 65, -4: 176}

_EPS_LINE = re.compile(r"^epsilon \(([\d,]+)\): type (\S+), chi (-?\d+), rho \S+, g-values \(([\d, ]*)\)$")


def _analyze_check(mats, as_json: bool, bigons: str):
    d, n = len(mats) - 1, len(mats[0])
    table = oracle.PairTable(mats)
    orders = oracle.arrangements(d)
    bip = oracle.bipartite(mats)

    def own_type(order):
        t = table.uniform_type(order)
        return None if t is None or (bigons == "exclude" and 2 in t) else t

    def inner(out: str) -> Optional[str]:
        if as_json:
            data = json.loads(out)
            if data["bipartite"] != bip or data["contracted"] != oracle.contracted(mats):
                return "bipartite or contracted flag is wrong"
            reps = data["reports"]
            if sorted(tuple(r["epsilon"]) for r in reps) != orders:
                return "reports do not cover every arrangement once"
            best, winners = None, []
            for r in reps:
                order = tuple(r["epsilon"])
                chi = table.chi(order)
                if r["g_values"] != table.g_values(order) or r["chi"] != chi:
                    return f"arrangement {order}: g-values or chi are wrong"
                if r["rho_times_2"] != 2 - chi or r["orientable"] != bip:
                    return f"arrangement {order}: genus or orientability is wrong"
                t = own_type(order)
                if (tuple(r["type"]) if r["type"] else None) != t:
                    return f"arrangement {order}: type {r['type']}, expected {t}"
                if t is not None:
                    if best is None or 2 - chi < best:
                        best, winners = 2 - chi, [order]
                    elif 2 - chi == best:
                        winners.append(order)
            if data["witness_rho_times_2"] != best:
                return "semi-equivelar witness genus is wrong"
            if sorted(tuple(w) for w in data["witness_permutations"]) != sorted(winners):
                return "semi-equivelar witnesses are wrong"
            return None
        lines = out.splitlines()
        head = (f"dimension {d}  vertices {n}  bipartite {'yes' if bip else 'no'}  "
                f"contracted {'yes' if oracle.contracted(mats) else 'no'}")
        if not lines or lines[0] != head:
            return "header line is wrong"
        seen = []
        for line in lines[1:-1]:
            m = _EPS_LINE.match(line)
            if not m:
                return f"unparsed line {line!r}"
            order = tuple(int(x) for x in m.group(1).split(","))
            gvals = [int(x) for x in m.group(4).split(",")]
            if int(m.group(3)) != table.chi(order) or gvals != table.g_values(order):
                return f"arrangement {order}: chi or g-values are wrong"
            if (m.group(2) == "-") != (own_type(order) is None):
                return f"arrangement {order}: type presence is wrong"
            seen.append(order)
        return _fail(sorted(seen) == orders, "reports do not cover every arrangement once")

    return _cli_check(inner)


def _genus_check(mats):
    d = len(mats) - 1
    table = oracle.PairTable(mats)
    rho2 = {order: 2 - table.chi(order) for order in oracle.arrangements(d)}
    best = min(rho2.values())
    winners = sorted(o for o, r in rho2.items() if r == best)

    def check(rg) -> Optional[str]:
        if rg.rho_times_2 != best:
            return f"regular genus x2 {rg.rho_times_2}, expected {best}"
        return _fail(sorted(tuple(w.order) for w in rg.witnesses) == winners,
                     "genus witnesses are wrong")

    return check


def _iso_check(a, b, as_json: bool, mode: str, isomorphic: bool):
    k = len(a)

    def inner(out: str) -> Optional[str]:
        if as_json:
            data = json.loads(out)
            found, vmap, cmap = data["isomorphic"], data["vertex_map"], data["color_map"]
        else:
            lines = out.splitlines()
            found = lines[0] == "isomorphic"
            vmap = cmap = None
            if found:
                vmap = json.loads(lines[1].removeprefix("vertex map: "))
                cmap = json.loads(lines[2].removeprefix("color map: "))
        if found != isomorphic:
            return f"answered isomorphic={found}, expected {isomorphic}"
        if not found:
            return None
        if mode == "color-fixed" and list(cmap) != list(range(k)):
            return "color-fixed witness moves colors"
        return oracle.witness_error(a, b, vmap, cmap)

    return _cli_check(inner)


def _pair_count_vector(mats, permuting: bool):
    table = oracle.PairTable(mats)
    counts = [table.counts[p] for p in sorted(table.counts)]
    return sorted(counts) if permuting else counts


def _types_check(chi: int, as_json: bool):
    count = TYPE_COUNTS[chi]

    def inner(out: str) -> Optional[str]:
        if not as_json:
            lines = out.splitlines()
            return _fail(lines[0] == f"chi {chi}: {count} embedding types"
                         and len(lines) == count + 1, "type table is wrong")
        sols = json.loads(out)
        if len(sols) != count:
            return f"{len(sols)} types, pinned count is {count}"
        for s in sols:
            faces = [q for q, m in s["runs"] for _ in range(m)]
            if "q" in faces:
                continue
            if s["chi"] != chi or not oracle.type_identity_holds(faces, s["order"], chi):
                return f"type {s['type']} does not satisfy the counting identity"
        return None

    return _cli_check(inner)


def _search_cli_check(spec: dict, count: int):
    def inner(out: str) -> Optional[str]:
        data = json.loads(out)
        if not data["exhaustive"] or data["hit_count"] != count or len(data["gems"]) != count:
            return f"{data['hit_count']} classes, pinned count is {count}"
        if len({g["canonical"] for g in data["gems"]}) != count:
            return "canonical forms repeat"
        for g in data["gems"]:
            err = _spec_error(spec, g["matchings"])
            if err:
                return err
        return None

    return _cli_check(inner)


def _export_check(mats, fmt: str):
    def inner(out: str) -> Optional[str]:
        if fmt == "json":
            return _fail(_parse_gem(out) == [list(m) for m in mats], "exported gem differs")
        edges = set()
        for line in out.splitlines()[1:-1]:
            m = re.fullmatch(r"\s*(\d+) -- (\d+) \[color=(\d+)\];", line)
            if not m:
                return f"unparsed DOT line {line!r}"
            edges.add(tuple(int(x) for x in m.groups()))
        want = {(u, w, c) for c, m in enumerate(mats) for u, w in enumerate(m) if u < w}
        return _fail(edges == want, "DOT edges differ from the gem")

    return _cli_check(inner)


def _fresh_generators(gk) -> Callable[[], None]:
    """Empty gemkit's process-wide generator cache, as in a fresh process."""

    def clear() -> None:
        cache = getattr(gk.generators, "_cache", None)
        if cache is not None:
            cache.clear()

    return clear


def _session_ops(gk, rng: random.Random, quick: bool, workdir: Path) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    files = itertools.count()

    def write(text: str, suffix: str = ".json") -> str:
        path = workdir / f"in{next(files)}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    fresh = _fresh_generators(gk)
    ops: list[Op] = []

    def cli(name, argv, check, stdin=None, cold=False):
        ops.append(Op(name, _cli(gk, argv, stdin), check, fresh if cold else None))

    # Sizes are fixed and the seed picks only what leaves an op's cost
    # alone (q, twists, relabelings, random gems of a given shape), so the
    # spread of op latencies across seeds stays small.

    # gen: every family; each pays validation.
    d = rng.randint(2, 6)
    cli(f"gen sphere d={d}", ["gen", "sphere", "--d", str(d)],
        _gem_check(2, None, None, None), cold=True)
    p, k = 7, 4
    q = _coprime_q(rng, p)
    cli(f"gen lens {p},{q},{k}", ["gen", "lens", "--p", str(p), "--q", str(q), "--k", str(k)],
        _gem_check(2 * p * k, True, (4, 4, 4, 4), 0,
                   lambda m, k=k: _fail(oracle.cycles(m[0], m[2])[1] == k, "wrong ladder")),
        cold=True)
    n = 8
    cli(f"gen rp2-sum {n}", ["gen", "rp2-sum", "--n", str(n)],
        _gem_check(2 * n + 2, False, (2 * n + 2,) * 3, 2 - n), cold=True)
    n = 6
    cli(f"gen torus-sum {n}", ["gen", "torus-sum", "--n", str(n)],
        _gem_check(4 * n + 2, True, (4 * n + 2,) * 3, 2 - 2 * n), cold=True)
    d, twisted = (3 if quick else 4), rng.random() < 0.5
    cli(f"gen sphere-circle {d}{' twisted' if twisted else ''}",
        ["gen", "sphere-circle", "--d", str(d)] + (["--twisted"] if twisted else []),
        _gem_check(2 * (d + 1), not twisted, (2,) * (d - 2) + (6, 6, 6), 0), cold=True)

    # catalog: every enabled entry, the search-backed ones included.
    for name in CATALOG_NAMES[:4] if quick else CATALOG_NAMES:
        p = {"rp2-4.4.2p": rng.choice([2, 4, 6, 8]), "s2-4.4.p": rng.choice([4, 6, 8, 10])}.get(name)
        orientable, chi, faces, order = _catalog_expectation(name, p)
        argv = ["catalog", "--name", name] + ([] if p is None else ["--p", str(p)])
        cli(f"catalog {name}", argv, _gem_check(order, orientable, faces, chi), cold=True)

    # analyze: random gems, text and JSON, both bigon policies; half on stdin.
    shapes = [(3, 40), (4, 30), (5, 24)] if quick else [
        (3, 100), (3, 40), (4, 80), (4, 30), (5, 60), (5, 100), (6, 40), (6, 80), (7, 20), (7, 64)
    ]
    for i, (d, n) in enumerate(shapes):
        mats = _random_gem(rng, d, n)
        as_json, bigons = i % 2 == 1, ("include", "exclude")[(i // 2) % 2]
        text = _gem_json(mats)
        argv = ["analyze"] + (["-"] if i % 4 < 2 else [write(text)]) + ["--bigons", bigons]
        argv += ["--json"] if as_json else []
        cli(f"analyze d={d} n={n}", argv, _analyze_check(mats, as_json, bigons),
            stdin=text if argv[1] == "-" else None)

    # regular genus, as a library user asks for it.
    for d, n in [(4, 30)] if quick else [(5, 60), (7, 40)]:
        mats = _random_gem(rng, d, n)
        g = gk.core.ColoredGraph(mats)
        ops.append(Op(f"regular_genus d={d} n={n}", lambda g=g: gk.embedding.regular_genus(g),
                      _genus_check(mats)))

    # homology of relabeled family gems with known answers.
    p, k = 9, 4
    q = _coprime_q(rng, p)
    twisted = rng.random() < 0.5
    tn, rn = 8, 10
    family = [
        (f"lens({p},{q},{k})", gk.generators.lens_gem(p, q, k), oracle.lens_profile(p, q)),
        (f"sphere-circle 4{' twisted' if twisted else ''}",
         gk.generators.sphere_times_circle_gem(4, twisted),
         oracle.sphere_bundle_profile(4, not twisted)),
        (f"torus-sum {tn}", gk.generators.torus_sum_gem(tn), oracle.surface_profile(2 - 2 * tn, True)),
        (f"rp2-sum {rn}", gk.generators.rp2_sum_gem(rn), oracle.surface_profile(2 - rn, False)),
        ("klein-4.8.8", gk.generators.catalog("klein-4.8.8"), oracle.surface_profile(0, False)),
    ]
    for i, (label, g, profile) in enumerate(family):
        text = gk.io.to_json(_relabel_random(gk, g, rng))
        as_json = i % 2 == 1
        want = (json.dumps([{"rank": r, "torsion": list(t)} for r, t in profile])
                if as_json else oracle.profile_str(profile))
        path = "-" if i % 3 == 0 else write(text)
        cli(f"homology {label}", ["homology", path] + (["--json"] if as_json else []),
            _cli_check(lambda out, want=want: _fail(out.strip() == want, f"printed {out.strip()}")),
            stdin=text if path == "-" else None)

    # iso: relabeled pairs.  gemkit tries color maps in lexicographic order,
    # so a color-permuting op costs in proportion to the rank of the map
    # that relabels its pair.  Each dimension gets two pairs whose maps the
    # seed draws from narrow bands at 1/4 and 3/4 of the k! ranks: together
    # they cost what two uniform draws cost on average, and no op's cost
    # hinges on one lucky draw.
    fixed_shapes = [(3, 40), (4, 30)] if quick else [(3, 100), (4, 80), (5, 60), (6, 40)]
    for i, (d, n) in enumerate(fixed_shapes):
        a = _random_gem(rng, d, n)
        perm = list(range(n))
        rng.shuffle(perm)
        b = oracle.relabeled(a, perm, list(range(d + 1)))
        as_json = i % 2 == 0
        cli(f"iso fixed d={d} n={n}",
            ["iso", write(_gem_json(a)), write(_gem_json(b))] + (["--json"] if as_json else []),
            _iso_check(a, b, as_json, "color-fixed", True))
    perm_shapes = [(3, 20), (4, 16)] if quick else [(3, 40), (4, 30), (5, 24), (6, 12)]
    for d, n in perm_shapes:
        total = math.factorial(d + 1)
        for s, quarter in enumerate((1, 3)):
            rank = int((quarter + rng.random() / 25) * total / 4)
            cmap = oracle.unrank_permutation(rank, d + 1)
            a = _random_gem(rng, d, n)
            perm = list(range(n))
            rng.shuffle(perm)
            b = oracle.relabeled(a, perm, cmap)
            as_json = s == 0
            cli(f"iso permute d={d} n={n} #{s}",
                ["iso", write(_gem_json(a)), write(_gem_json(b)), "--permute-colors"]
                + (["--json"] if as_json else []),
                _iso_check(a, b, as_json, "color-permuting", True))
    # Negative pairs, certified by differing residue counts per color pair.
    for permuting in (False, True):
        d, n = 4, 40
        while True:
            a, b = _random_gem(rng, d, n), _random_gem(rng, d, n)
            if _pair_count_vector(a, permuting) != _pair_count_vector(b, permuting):
                break
        cli(f"iso {'permute' if permuting else 'fixed'} non-isomorphic",
            ["iso", write(_gem_json(a)), write(_gem_json(b)), "--json"]
            + (["--permute-colors"] if permuting else []),
            _iso_check(a, b, True, "color-permuting" if permuting else "color-fixed", False))

    # types
    for chi in (1, 0) if quick else (1, 0, -2, -4):
        as_json = chi != 1
        cli(f"types chi={chi}", ["types", "--chi", str(chi)] + (["--json"] if as_json else []),
            _types_check(chi, as_json))

    # search: one small spec from a file.
    spec = {"colors": 3, "order": 12, "vertex_types": [4, 6, 12]}
    cli("search --spec 4.6.12 order 12", ["search", "--spec", write(json.dumps(spec)), "--json"],
        _search_cli_check(spec, 3))

    # export
    mats = _random_gem(rng, 4, 40)
    text = _gem_json(mats)
    cli("export dot", ["export", "--format", "dot"], _export_check(mats, "dot"), stdin=text)
    cli("export json", ["export", write(text), "--format", "json"], _export_check(mats, "json"))

    # Warm-up: gemkit keeps no state between commands other than the
    # generator cache, which the gen and catalog ops empty before they run;
    # one cheap command takes the CLI's first-call costs out of the first op.
    _cli(gk, ["catalog", "--list"])()
    return ops
