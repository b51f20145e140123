"""Command-line interface.

Every computation of the library is reachable from here with
machine-readable output: JSON by default, `--format plain` for aligned
text, `--format dot` on graph commands.  All counts are serialized as
decimal strings so arbitrary precision survives any JSON reader, and
infinite counts appear as the string "infinite".

Exit codes: 0 on success, 1 when --verify detects a mismatch between a
closed-form count and its brute-force oracle, 2 on usage errors.
"""

import argparse
import sys

# Each handler imports its own backend, so a call loads and compiles only
# the modules its subcommand needs; the parser imports none.
from . import DRAWN, INFINITE


def _count_str(x) -> str:
    return "infinite" if x is INFINITE else str(x)


def _emit(doc, fmt):
    if fmt == "json":
        import json
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    # plain: flat key/value lines, one row per line for tables
    def lines(obj, prefix=""):
        if isinstance(obj, dict):
            for k in sorted(obj):
                yield from lines(obj[k], f"{prefix}{k}.")
        elif isinstance(obj, list):
            for i, item in enumerate(obj):
                yield from lines(item, f"{prefix}{i}.")
        else:
            yield f"{prefix.rstrip('.')}\t{obj}"

    for line in lines(doc):
        print(line)


def _verify_failed(name, lhs, rhs):
    print(
        f"verification failed for {name}: formula={_count_str(lhs)}, "
        f"oracle={_count_str(rhs)}",
        file=sys.stderr,
    )
    return 1


# --- subcommand handlers ------------------------------------------------------


def _cmd_an_count(args):
    from . import typea
    if args.group == "id":
        count = typea.count_id(args.k, args.vertices)
        brute_count = typea.count_id_brute
    else:
        count = typea.count_orbits_formula(args.k, args.vertices)
        brute_count = typea.count_orbits_brute
    if args.verify:
        brute = brute_count(args.k, args.vertices)
        if brute != count:
            return _verify_failed("an count", count, brute)
    _emit({"count": _count_str(count)}, args.format)
    return 0


def _cmd_an_orbits(args):
    from . import typea
    typea.check_k_vertices(args.k, args.vertices)
    census = {}
    for orb in typea.seq_orbits(args.vertices - 1, args.k):
        census[len(orb)] = census.get(len(orb), 0) + 1
    doc = {
        "k": args.k,
        "vertices": args.vertices,
        "orbit_count": _count_str(sum(census.values())),
        "orbits_by_size": [
            {"size": s, "count": _count_str(c)} for s, c in sorted(census.items())
        ],
    }
    _emit(doc, args.format)
    return 0


def _cmd_an_genus(args):
    from . import typea
    count = typea.count_genus(args.genus, args.vertices, args.group)
    if args.verify:
        n, full = args.vertices - 1, args.group == "full"
        if args.genus == 0:
            # genus 0 curves are the A_2-type subcategories
            brute_count = typea.count_orbits_brute if full else typea.count_id_brute
            brute = brute_count(2, args.vertices)
        elif full:
            brute = sum(1 for _ in typea.pair_orbits(n, args.genus + 1))
        else:
            brute = sum(1 for _ in typea.exceptional_pairs(n, args.genus + 1))
        if brute != count:
            return _verify_failed("an genus", count, brute)
    _emit({"count": _count_str(count)}, args.format)
    return 0


def _cmd_necklace_count(args):
    from . import necklace
    count = necklace.count_subgon_classes_burnside(args.m, args.s)
    if args.verify:
        brute = necklace.count_subgon_classes_brute(args.m, args.s)
        if brute != count:
            return _verify_failed("necklace count", count, brute)
    _emit({"count": _count_str(count)}, args.format)
    return 0


def _cmd_d4_table(args):
    from . import d4
    tables = d4.d4_tables()
    doc = {
        kind: {g: _count_str(v) for g, v in row.items()}
        for kind, row in tables.items()
    }
    _emit(doc, args.format)
    return 0


_D4_KINDS = {
    "points": "points",
    "genus0": "genus0",
    "genus-1": "genusMinus1",
    "triples-a3": "triples-A3",
    "triples-a1cubed": "triples-A1cubed",
}


def _cmd_d4_enum(args):
    from . import d4
    gens = d4.d4_enum(_D4_KINDS[args.kind])
    _emit({"kind": args.kind, "subcategories": [str(g) for g in gens]}, args.format)
    return 0


_AFF_KINDS = {
    "genus-1": "genus-1",
    "genus0": "genus0",
    "genus1": "genus1",
    "triples-a3": "triples-A3",
    "triples-q1": "triples-Q1",
}


def _cmd_affine_count(args):
    from . import affine
    count = affine.aff_count(args.quiver, _AFF_KINDS[args.kind], args.group)
    _emit({"count": _count_str(count)}, args.format)
    return 0


def _cmd_markov_table(args):
    from . import markov
    rows = [
        {"m": _count_str(m), "count": _count_str(full),
         "serre_count": _count_str(3 * full)}
        for m, full in markov.rank_counts(args.limit).items()
    ]
    _emit({"rows": rows}, args.format)
    return 0


def _cmd_markov_slopes(args):
    from . import markov
    slopes = sorted(
        markov.exceptional_slopes(args.max_rank),
        key=lambda mu: (mu.denominator, mu.numerator),
    )
    doc = {
        "slopes": [f"{mu.numerator}/{mu.denominator}" for mu in slopes],
        "ranks": [_count_str(mu.denominator) for mu in slopes],
    }
    _emit(doc, args.format)
    return 0


def _cmd_markov_tree(args):
    from . import markov
    triples = markov.markov_triples(args.limit)
    _emit({"triples": [list(map(_count_str, t)) for t in triples]}, args.format)
    return 0


def _cmd_markov_tyurin(args):
    from . import markov
    rows = markov.tyurin_scan(args.max_rank)
    if args.verify:
        # the tree counts against the residues of one mutation closure
        counts = {m: c for m, c, _ in rows}
        oracle = markov.closure_counts(args.max_rank)
        for m in sorted(counts.keys() | {r for r in oracle if r > 2}):
            if counts.get(m, 0) != oracle.get(m, 0):
                return _verify_failed(
                    f"markov tyurin at m={m}", counts.get(m, 0), oracle.get(m, 0)
                )
    doc = {
        "rows": [
            {"m": _count_str(m), "count": _count_str(c), "ok": ok}
            for m, c, ok in rows
        ],
        "all_ok": all(ok for _, _, ok in rows),
    }
    _emit(doc, args.format)
    if args.verify and not doc["all_ok"]:
        return 1
    return 0


def _cmd_incidence(args):
    from . import incidence
    struct = incidence.incidence_structure(args.category)
    if args.format == "json":
        sys.stdout.write(incidence.export_incidence(struct))
        return 0
    _emit(
        {
            "points": len(struct.points),
            "lines": len(struct.lines),
            "incidences": len(struct.incidences()),
        },
        "plain",
    )
    return 0


def _window(args):
    """--window W as the series indices 0..W-1."""
    return None if args.window is None else (0, args.window - 1)


def _cmd_graph(args):
    """Point or curve graph of args.category; every graph subcommand sets
    the arguments it does not take through its parser defaults."""
    from . import digraph
    if args.kind == "curves":
        g = digraph.build_curve_graph(args.category, _window(args))
    else:
        g = digraph.build_point_graph(args.category, _window(args))
    if args.format == "plain":
        v, one, two = g.census()
        _emit(
            {"category": g.category, "vertices": v,
             "one_sided_edges": one, "double_sided_edges": two},
            "plain",
        )
    else:
        sys.stdout.writelines(digraph.export_lines(g, args.format))
    return 0


def _cmd_sc(args):
    from . import digraph
    g = digraph.build_point_graph(args.category, _window(args))
    simplices = digraph.sc_simplices(g, args.max_dim)
    sys.stdout.writelines(digraph.complex_lines(g, simplices, args.format))
    return 0


# --- parser -------------------------------------------------------------------


def _a_category(vertices: str) -> str:
    """`an graph --vertices N` draws the point graph of aN."""
    try:
        return f"a{int(vertices)}"
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {vertices!r}") from None


def _add_format(p, choices=("json", "plain")):
    p.add_argument("--format", choices=choices, default="json")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nccount",
        description="exact counting of exceptional-collection subcategories",
    )
    sub = top.add_subparsers(dest="command", required=True)

    an = sub.add_parser("an", help="A-type categories").add_subparsers(
        dest="sub", required=True
    )
    p = an.add_parser("count", help="subcategory counts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--group", choices=("id", "full"), default="id")
    p.add_argument("--verify", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_an_count)

    p = an.add_parser("orbits", help="Serre orbit census")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_an_orbits)

    p = an.add_parser("genus", help="noncommutative curve counts")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--group", choices=("id", "full"), default="id")
    p.add_argument("--verify", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_an_genus)

    p = an.add_parser("graph", help="derived-point graph")
    p.add_argument("--vertices", dest="category", metavar="VERTICES",
                   type=_a_category, required=True)
    _add_format(p, ("json", "plain", "dot"))
    p.set_defaults(func=_cmd_graph, kind="points", window=None)

    nk = sub.add_parser("necklace", help="polygon rotation classes").add_subparsers(
        dest="sub", required=True
    )
    p = nk.add_parser("count")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_necklace_count)

    d4p = sub.add_parser("d4", help="the D4 category").add_subparsers(
        dest="sub", required=True
    )
    p = d4p.add_parser("table")
    _add_format(p)
    p.set_defaults(func=_cmd_d4_table)
    p = d4p.add_parser("graph")
    p.add_argument("--kind", choices=("points", "curves"), default="points")
    _add_format(p, ("json", "plain", "dot"))
    p.set_defaults(func=_cmd_graph, category="d4", window=None)
    p = d4p.add_parser("enum")
    p.add_argument("--kind", choices=tuple(_D4_KINDS), required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_d4_enum)

    aff = sub.add_parser("affine", help="the two affine quivers").add_subparsers(
        dest="sub", required=True
    )
    p = aff.add_parser("count")
    p.add_argument("--quiver", choices=("q1", "q2"), required=True)
    p.add_argument("--kind", choices=tuple(_AFF_KINDS), required=True)
    p.add_argument("--group", choices=("id", "serre", "full"), default="id")
    _add_format(p)
    p.set_defaults(func=_cmd_affine_count)
    p = aff.add_parser("graph")
    p.add_argument("--quiver", dest="category", choices=("q1", "q2"), required=True)
    p.add_argument("--kind", choices=("points", "curves"), default="points")
    p.add_argument("--window", type=int, default=5)
    _add_format(p, ("json", "plain", "dot"))
    p.set_defaults(func=_cmd_graph)

    mk = sub.add_parser("markov", help="the projective plane").add_subparsers(
        dest="sub", required=True
    )
    p = mk.add_parser("table")
    p.add_argument("--limit", type=int, default=200)
    _add_format(p)
    p.set_defaults(func=_cmd_markov_table)
    p = mk.add_parser("slopes")
    p.add_argument("--max-rank", type=int, default=200)
    _add_format(p)
    p.set_defaults(func=_cmd_markov_slopes)
    p = mk.add_parser("tree")
    p.add_argument("--limit", type=int, default=200)
    _add_format(p)
    p.set_defaults(func=_cmd_markov_tree)
    p = mk.add_parser("tyurin")
    p.add_argument("--max-rank", type=int, default=200)
    p.add_argument("--verify", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_markov_tyurin)

    p = sub.add_parser("incidence", help="point/line incidence structures")
    p.add_argument("--category", choices=DRAWN, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_incidence)

    p = sub.add_parser("graph", help="point graph of any category")
    p.add_argument("--category", required=True,
                   help="aN, d4, q1, q2 or npL (L >= -1)")
    p.add_argument("--window", type=int)
    _add_format(p, ("json", "plain", "dot"))
    p.set_defaults(func=_cmd_graph, kind="points")

    p = sub.add_parser("sc", help="simplicial complex of a point graph")
    p.add_argument("--category", required=True)
    p.add_argument("--window", type=int)
    p.add_argument("--max-dim", type=int, default=2)
    _add_format(p)
    p.set_defaults(func=_cmd_sc)

    return top


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
