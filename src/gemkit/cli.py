"""Command-line front end.

Gems stream through stdin/stdout as JSON so commands compose in pipes:

    gemkit gen lens --p 2 --q 1 --k 2 | gemkit analyze

Exit codes: 0 on success, 1 on a domain failure (bad gem file, unknown
family, exhausted budget), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import generators, io, search
from .core import ColoredGraph, is_bipartite, is_contracted, isomorphic
from .embedding import CyclicPermutation, EmbeddingReport, TypeSignature, semi_equivelar_report
from .complexes import homology


def _read_gem(path: str) -> ColoredGraph:
    if path == "-":
        return io.loads(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return io.load(fh)


def _write_output(text: str, out: Optional[str]) -> None:
    text += "" if text.endswith("\n") else "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# Each family's builder in ``generators`` and the flags it reads, in argument order.
_FAMILIES = {
    "sphere": ("standard_sphere", ("d",)),
    "lens": ("lens_gem", ("p", "q", "k")),
    "rp2-sum": ("rp2_sum_gem", ("n",)),
    "torus-sum": ("torus_sum_gem", ("n",)),
    "sphere-circle": ("sphere_times_circle_gem", ("d", "twisted")),
}


def _cmd_gen(args) -> int:
    family = args.family
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {', '.join(_FAMILIES)}")
    build, reads = _FAMILIES[family]
    for name in ("d", "p", "q", "k", "n", "twisted"):
        value = getattr(args, name)
        if name not in reads and value is not None and value is not False:
            raise ValueError(f"family {family!r} takes no --{name}")
    g = getattr(generators, build)(*(_need(args, name) for name in reads))
    _write_output(io.to_json(g), args.output)
    return 0


def _need(args, name: str) -> int:
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"family {args.family!r} needs --{name}")
    return value


def _format_rho(rho_times_2: int) -> str:
    return f"{rho_times_2}/2" if rho_times_2 % 2 else str(rho_times_2 // 2)


@functools.lru_cache
def _report_template(d: int, signed: bool, orientable: bool) -> str:
    """An ``analyze --json`` report as ``json.dumps(indent=2)`` writes it in
    the list, a sample report's values turned into ``%d`` and ``"%s"`` slots."""
    ints = tuple(range(d + 1))
    sig = TypeSignature((2,) * (d + 1)) if signed else None
    sample = EmbeddingReport(CyclicPermutation(ints), ints, 0, orientable, sig).to_json_dict()
    slot = {int: "%d", str: "%s"}
    for k, v in sample.items():
        sample[k] = ["%d"] * len(v) if type(v) is list else slot.get(type(v), v)
    return json.dumps(sample, indent=2).replace("\n", "\n    ").replace('"%d"', "%d")


@functools.lru_cache
def _line_template(d: int, signed: bool) -> str:
    """An ``analyze`` text report: arrangement, type, chi, rho, g-values."""
    colors, gvals = (sep.join(["%d"] * (d + 1)) for sep in (",", ", "))
    kind = f"({colors})" if signed else "-"
    return f"epsilon ({colors}): type {kind}, chi %d, rho %s, g-values ({gvals})"


def _cmd_analyze(args) -> int:
    g = _read_gem(args.gem)
    rep = semi_equivelar_report(g, bigons=args.bigons)
    if args.json:
        payload = {
            "dimension": g.dimension,
            "vertices": g.vertex_count,
            "bipartite": is_bipartite(g),
            "contracted": is_contracted(g),
            "bigons": args.bigons,
            "reports": 0,
            "witness_rho_times_2": rep.witness_rho_times_2,
            "witness_permutations": [list(e.order) for e in rep.witness_permutations],
        }
        # Strings escape their newlines, so only the key's own line matches.
        head, _, tail = json.dumps(payload, indent=2).partition('\n  "reports": 0')
        d, bip = g.dimension, payload["bipartite"]
        plain, signed = _report_template(d, False, bip), _report_template(d, True, bip)
        block = ",\n    ".join(
            signed % (*eps.order, *gv, chi, 2 - chi, *sig.faces, sig)
            if sig else plain % (*eps.order, *gv, chi, 2 - chi)
            for eps, gv, chi, _, sig in rep.reports
        )
        print(head + '\n  "reports": [\n    ' + block + "\n  ]" + tail)
        return 0
    lines = [
        f"dimension {g.dimension}  vertices {g.vertex_count}  "
        f"bipartite {'yes' if is_bipartite(g) else 'no'}  "
        f"contracted {'yes' if is_contracted(g) else 'no'}"
    ]
    plain, signed = _line_template(g.dimension, False), _line_template(g.dimension, True)
    rho = {chi: _format_rho(2 - chi) for chi in {r.chi for r in rep.reports}}
    for eps, gv, chi, _, sig in rep.reports:
        faces = sig.faces if sig else ()
        lines.append((signed if faces else plain) % (*eps.order, *faces, chi, rho[chi], *gv))
    if rep.witness_rho_times_2 is None:
        lines.append("semi-equivelar: no qualifying embedding")
    else:
        eps = ", ".join(str(e) for e in rep.witness_permutations)
        lines.append(
            f"semi-equivelar witness: rho {_format_rho(rep.witness_rho_times_2)} "
            f"via {eps}"
        )
    print("\n".join(lines))
    return 0


def _cmd_homology(args) -> int:
    prof = homology(_read_gem(args.gem))
    print(json.dumps(prof.to_json()) if args.json else prof)
    return 0


def _cmd_iso(args) -> int:
    a = _read_gem(args.first)
    b = _read_gem(args.second)
    mode = "color-permuting" if args.permute_colors else "color-fixed"
    wit = isomorphic(a, b, mode)
    if args.json:
        print(
            json.dumps(
                {
                    "isomorphic": wit is not None,
                    "mode": mode,
                    "vertex_map": list(wit.vertex_map) if wit else None,
                    "color_map": list(wit.color_map) if wit else None,
                }
            )
        )
        return 0
    if wit is None:
        print("non-isomorphic")
    else:
        print("isomorphic")
        print(f"vertex map: {list(wit.vertex_map)}")
        print(f"color map: {list(wit.color_map)}")
    return 0


def _cmd_search(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        data = io.parse_json(fh.read())
    spec = search.SearchSpec.from_json_dict(data)
    report = search.search_report(spec, max_order=args.budget)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
        return 0
    print(f"exhaustive: {'yes' if report.exhaustive else 'no'}")
    print(f"hits: {len(report.gems)}")
    for order, bipartite, chi, vertex_type in report.hit_fields():
        print(f"  order {order}  bipartite {bipartite}  chi {chi}  vertex type {vertex_type}")
    return 0


def _cmd_types(args) -> int:
    solutions = search.enumerate_embedding_types(args.chi, args.qmax)
    if args.json:
        print(json.dumps([s.to_json_dict() for s in solutions], indent=2))
        return 0
    print(f"chi {args.chi}: {len(solutions)} embedding types")
    width = max((len(s.type_str()) for s in solutions), default=4)
    for s in solutions:
        print(f"  {s.type_str():<{width}}  order {s.order_str()}")
    return 0


def _cmd_catalog(args) -> int:
    if args.name is None:
        if args.p is not None:
            raise ValueError("catalog --p needs --name")
        manifest = generators.catalog_manifest()
        if args.json:
            _write_output(json.dumps(manifest, indent=2), args.output)
            return 0
        lines = []
        for entry in manifest:
            flag = "" if entry["enabled"] else "  [disabled]"
            parm = " (parametric in p)" if entry["parametric"] else ""
            lines.append(
                f"{entry['name']:<14} {entry['surface']:<17} faces {entry['faces']:<9} "
                f"order {entry['order']}{parm}{flag}"
            )
        _write_output("\n".join(lines), args.output)
        return 0
    if args.json:
        raise ValueError("catalog --json takes no --name: a gem is always written as JSON")
    g = generators.catalog(args.name, p=args.p)
    _write_output(io.to_json(g), args.output)
    return 0


def _cmd_export(args) -> int:
    g = _read_gem(args.gem)
    _write_output(io.to_dot(g) if args.format == "dot" else io.to_json(g), args.output)
    return 0


@functools.lru_cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    It depends on no input and ``parse_args`` does not change it, so every
    ``main`` call shares one; argparse writes help, usage and errors to the
    ``sys.stdout``/``sys.stderr`` of the moment.
    """
    top = argparse.ArgumentParser(
        prog="gemkit",
        description="generate, analyze and search edge-colored graphs encoding manifolds",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family gem")
    p.add_argument("family")
    p.add_argument("--d", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--twisted", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", help="report every embedding of a gem")
    p.add_argument("gem", nargs="?", default="-")
    p.add_argument("--bigons", choices=("include", "exclude"), default="exclude")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("homology", help="integral homology of a gem")
    p.add_argument("gem", nargs="?", default="-")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("iso", help="isomorphism witness between two gems")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--permute-colors", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("search", help="run a constrained gem search")
    p.add_argument("--spec", required=True)
    p.add_argument("--budget", type=int, default=search.DEFAULT_ORDER_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("types", help="embedding types compatible with a surface")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--qmax", type=int, default=16)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_types)

    p = sub.add_parser("catalog", help="figure catalog: list or build by name")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--list", action="store_true")
    which.add_argument("--name")
    p.add_argument("--p", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("export", help="re-emit a gem as DOT or canonical JSON")
    p.add_argument("gem", nargs="?", default="-")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_export)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError,
        search.BudgetExceededError,
        generators.FamilyValidationError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
