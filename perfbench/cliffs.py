"""Measure the cliffs the workloads leave out because one op would take too long.

    python3 perfbench/cliffs.py [--cap 90] [name ...]

Each cliff runs once in its own process, killed after ``--cap`` seconds;
the printed JSON gives its wall time, or records that it did not finish
within the cap.  The numbers go into ``baseline.json`` under ``cliffs``,
so a later change can show what it did to each of them.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _classify_16(gk):
    rep = gk.search.classify_4_4(16)
    return f"{rep.count_color_permuting} color-permuting, {rep.count_color_fixed} color-fixed classes"


def _bundle_7(twisted):
    def run(gk):
        start = perf_counter()
        g = gk.generators.sphere_times_circle_gem(7, twisted)
        built = perf_counter() - start
        verdict = gk.complexes.manifold_check(g)
        return f"generate {built:.1f} s, then manifold_check {perf_counter() - start - built:.1f} s: {verdict}"
    return run


def _iso_7(rank):
    """gemkit tries color maps in lexicographic order: the rank sets the cost."""

    def run(gk):
        import oracle
        import workloads

        rng = random.Random(7)
        a = workloads._random_gem(rng, 7, 100)
        perm = list(range(100))
        rng.shuffle(perm)
        b = oracle.relabeled(a, perm, oracle.unrank_permutation(rank, 8))
        wit = gk.core.isomorphic(gk.core.ColoredGraph(a), gk.core.ColoredGraph(b), "color-permuting")
        return "isomorphic" if wit else "non-isomorphic"

    return run


def _types(chi):
    return lambda gk: f"{len(gk.search.enumerate_embedding_types(chi))} types"


def _order_24(faces):
    def run(gk):
        spec = gk.search.SearchSpec(colors=3, order=24, vertex_types=faces)
        return f"{len(gk.search.search_report(spec).gems)} classes"
    return run


CLIFFS = {
    "classify_4_4(16)": _classify_16,
    "sphere_times_circle_gem(7)": _bundle_7(False),
    "sphere_times_circle_gem(7, twisted)": _bundle_7(True),
    "iso --permute-colors d=7 n=100, color map of rank 8!/8": _iso_7(math.factorial(8) // 8),
    "iso --permute-colors d=7 n=100, last color map": _iso_7(math.factorial(8) - 1),
    "types --chi -6": _types(-6),
    "search (4,6,12) order 24": _order_24((4, 6, 12)),
    "search (6,6,6) order 24": _order_24((6, 6, 6)),
}


def _one(name: str) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from types import SimpleNamespace
    import importlib

    gk = SimpleNamespace(**{m: importlib.import_module(f"gemkit.{m}")
                            for m in ("core", "complexes", "generators", "search")})
    start = perf_counter()
    outcome = CLIFFS[name](gk)
    print(json.dumps({"seconds": perf_counter() - start, "outcome": outcome}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="cliffs to run (default: all)")
    ap.add_argument("--cap", type=float, default=90.0, help="seconds before a cliff is killed")
    ap.add_argument("--one", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        _one(args.one)
        return 0
    results = {}
    for name in args.names or CLIFFS:
        try:
            proc = subprocess.run([sys.executable, __file__, "--one", name],
                                  capture_output=True, text=True, timeout=args.cap)
            if proc.returncode:
                results[name] = {"seconds": None, "outcome": "failed: " + proc.stderr.strip()[-300:]}
            else:
                results[name] = json.loads(proc.stdout.splitlines()[-1])
        except subprocess.TimeoutExpired:
            results[name] = {"seconds": None, "outcome": f"did not finish within {args.cap:g} s"}
        print(json.dumps({name: results[name]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
