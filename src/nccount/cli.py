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
import os
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
# Each leaf's arguments are added by one function, and _COMMANDS names the
# tree: a group maps to its leaves, a leaf to its function.  A name without
# help is listed only in its group's usage.


def _a_category(vertices: str) -> str:
    """`an graph --vertices N` draws the point graph of aN."""
    try:
        return f"a{int(vertices)}"
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {vertices!r}") from None


def _add_format(p, choices=("json", "plain")):
    p.add_argument("--format", choices=choices, default="json")


def _an_count(p):
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--group", choices=("id", "full"), default="id")
    p.add_argument("--verify", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_an_count)


def _an_orbits(p):
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_an_orbits)


def _an_genus(p):
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--group", choices=("id", "full"), default="id")
    p.add_argument("--verify", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_an_genus)


def _an_graph(p):
    p.add_argument("--vertices", dest="category", metavar="VERTICES",
                   type=_a_category, required=True)
    _add_format(p, ("json", "plain", "dot"))
    p.set_defaults(func=_cmd_graph, kind="points", window=None)


def _necklace_count(p):
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_necklace_count)


def _d4_table(p):
    _add_format(p)
    p.set_defaults(func=_cmd_d4_table)


def _d4_graph(p):
    p.add_argument("--kind", choices=("points", "curves"), default="points")
    _add_format(p, ("json", "plain", "dot"))
    p.set_defaults(func=_cmd_graph, category="d4", window=None)


def _d4_enum(p):
    p.add_argument("--kind", choices=tuple(_D4_KINDS), required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_d4_enum)


def _affine_count(p):
    p.add_argument("--quiver", choices=("q1", "q2"), required=True)
    p.add_argument("--kind", choices=tuple(_AFF_KINDS), required=True)
    p.add_argument("--group", choices=("id", "serre", "full"), default="id")
    _add_format(p)
    p.set_defaults(func=_cmd_affine_count)


def _affine_graph(p):
    p.add_argument("--quiver", dest="category", choices=("q1", "q2"), required=True)
    p.add_argument("--kind", choices=("points", "curves"), default="points")
    p.add_argument("--window", type=int, default=5)
    _add_format(p, ("json", "plain", "dot"))
    p.set_defaults(func=_cmd_graph)


def _markov_table(p):
    p.add_argument("--limit", type=int, default=200)
    _add_format(p)
    p.set_defaults(func=_cmd_markov_table)


def _markov_slopes(p):
    p.add_argument("--max-rank", type=int, default=200)
    _add_format(p)
    p.set_defaults(func=_cmd_markov_slopes)


def _markov_tree(p):
    p.add_argument("--limit", type=int, default=200)
    _add_format(p)
    p.set_defaults(func=_cmd_markov_tree)


def _markov_tyurin(p):
    p.add_argument("--max-rank", type=int, default=200)
    p.add_argument("--verify", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_markov_tyurin)


def _incidence(p):
    p.add_argument("--category", choices=DRAWN, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_incidence)


def _graph(p):
    p.add_argument("--category", required=True,
                   help="aN, d4, q1, q2 or npL (L >= -1)")
    p.add_argument("--window", type=int)
    _add_format(p, ("json", "plain", "dot"))
    p.set_defaults(func=_cmd_graph, kind="points")


def _sc(p):
    p.add_argument("--category", required=True)
    p.add_argument("--window", type=int)
    p.add_argument("--max-dim", type=int, default=2)
    _add_format(p)
    p.set_defaults(func=_cmd_sc)


_COMMANDS = {
    "an": ("A-type categories", {
        "count": ("subcategory counts", _an_count),
        "orbits": ("Serre orbit census", _an_orbits),
        "genus": ("noncommutative curve counts", _an_genus),
        "graph": ("derived-point graph", _an_graph),
    }),
    "necklace": ("polygon rotation classes", {"count": (None, _necklace_count)}),
    "d4": ("the D4 category", {
        "table": (None, _d4_table),
        "graph": (None, _d4_graph),
        "enum": (None, _d4_enum),
    }),
    "affine": ("the two affine quivers", {
        "count": (None, _affine_count),
        "graph": (None, _affine_graph),
    }),
    "markov": ("the projective plane", {
        "table": (None, _markov_table),
        "slopes": (None, _markov_slopes),
        "tree": (None, _markov_tree),
        "tyurin": (None, _markov_tyurin),
    }),
    "incidence": ("point/line incidence structures", _incidence),
    "graph": ("point graph of any category", _graph),
    "sc": ("simplicial complex of a point graph", _sc),
}


def _subcommand(argv):
    """The subcommand that argv names at one level, and the words after it.

    No option at any level takes a value, so argparse reads the first word
    that does not start with '-' as the subcommand and hands the words
    after it to that subcommand's parser.
    """
    for i, word in enumerate(argv):
        if not word.startswith("-"):
            return word, argv[i + 1:]
    return None, []


def _add_commands(parser, commands, dest, argv):
    """Add one level of subcommands to parser, and fill in the group or
    leaf that argv names, or every one when argv is None.  The others keep
    only their names and help, which is all that the usage, the help and a
    bad-choice error of this level show."""
    sub = parser.add_subparsers(dest=dest, required=True)
    named, rest = (None, None) if argv is None else _subcommand(argv)
    for name, (summary, body) in commands.items():
        p = sub.add_parser(name, **({} if summary is None else {"help": summary}))
        if argv is not None and name != named:
            continue
        if isinstance(body, dict):
            _add_commands(p, body, "sub", rest)
        else:
            body(p)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The argument parser of the CLI.  Given argv, only the subcommands on
    its path are filled in, and it parses argv as the whole tree would."""
    top = argparse.ArgumentParser(
        prog="nccount",
        description="exact counting of exceptional-collection subcategories",
    )
    _add_commands(top, _COMMANDS, "command", argv)
    return top


def run(argv) -> int:
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")


def main():
    """The console entry point: run, flush, and end the process without
    interpreter teardown (module teardown, garbage collection, freeing
    every object), which costs every call about 10 ms and has nothing left
    to write.  A flush that fails (EPIPE, ENOSPC) takes the normal exit,
    which reports it as the interpreter always has; so do usage errors and
    uncaught exceptions, which leave run as exceptions."""
    code = run(sys.argv[1:])
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
