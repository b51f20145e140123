"""Command-line interface.

The counts, graphs, complexes and incidence structures of the library are
reachable from here with machine-readable output: JSON by default,
`--format plain` for aligned text, `--format dot` on graph commands.  The
library names that nothing in src/ calls are pinned in tests/test_surface.py.
All counts are serialized as decimal strings so arbitrary precision survives
any JSON reader, and infinite counts appear as the string "infinite".

Exit codes: 0 on success, 1 when --verify detects a mismatch between a
closed-form count and its brute-force oracle, 2 on usage errors.
"""

import os
import sys
import types
from itertools import chain

# Each handler lives in the backend it calls, and the command table names it
# by module and function, so a call loads and compiles only the modules its
# subcommand needs; the command table imports none, and a well-formed call
# does not import argparse either.
from . import VerifyFailed


def _write(pieces):
    """Write the pieces of a document to stdout in order, the one writer of
    every command.  The pieces are joined into chunks of about 64 KB, each
    written as it fills: unbuffered stdout (PYTHONUNBUFFERED) makes one
    write call per chunk rather than per piece, and no more than one chunk
    is held.  With stdout closed (None) it writes nothing and the call
    succeeds, as print does."""
    if sys.stdout is None:
        return
    chunk, size = [], 0
    for piece in pieces:
        chunk.append(piece)
        size += len(piece)
        if size >= 65536:
            sys.stdout.write("".join(chunk))
            chunk, size = [], 0
    sys.stdout.write("".join(chunk))


def _stderr(text):
    """Write text to stderr, unless it is closed or fails, as
    ArgumentParser.exit writes its message."""
    try:
        sys.stderr.write(text)
    except (AttributeError, OSError):
        pass


def _emit(doc, fmt):
    if fmt == "json":
        # the encoder json.dumps runs with an indent, piece by piece, so
        # the document is never held as one string
        import json
        encoder = json.JSONEncoder(indent=2, sort_keys=True)
        _write(chain(encoder.iterencode(doc), ("\n",)))
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
            yield f"{prefix.rstrip('.')}\t{obj}\n"

    _write(lines(doc))


# --- the command table -------------------------------------------------------
# Each leaf, keyed by the words that name it, has its help (None: listed only
# in its group's usage), its options as add_argument keywords by flag, and its
# fixed defaults, among them its handler as (backend module, function name).
# build_parser builds the argparse tree from the table, for help and errors;
# _parse_call reads a well-formed call straight from it, so a successful call
# never imports argparse.


_GROUPS = {
    "an": "A-type categories",
    "necklace": "polygon rotation classes",
    "d4": "the D4 category",
    "affine": "the two affine quivers",
    "markov": "the projective plane",
}

_INT = {"type": int, "required": True}
_VERIFY = {"action": "store_true", "default": False}
_FORMAT = {"choices": ("json", "plain"), "default": "json"}
_GRAPH_FORMAT = {"choices": ("json", "plain", "dot"), "default": "json"}
_GROUP = {"choices": ("id", "full"), "default": "id"}
_KIND = {"choices": ("points", "curves"), "default": "points"}
_LIMIT = {"type": int, "default": 200}

_COMMANDS = {
    ("an", "count"): ("subcategory counts", {
        "--k": _INT, "--vertices": _INT, "--group": _GROUP, "--verify": _VERIFY,
        "--format": _FORMAT,
    }, {"func": ("typea", "_cmd_an_count")}),
    ("an", "orbits"): ("Serre orbit census", {
        "--k": _INT, "--vertices": _INT, "--format": _FORMAT,
    }, {"func": ("typea", "_cmd_an_orbits")}),
    ("an", "genus"): ("noncommutative curve counts", {
        "--genus": _INT, "--vertices": _INT, "--group": _GROUP, "--verify": _VERIFY,
        "--format": _FORMAT,
    }, {"func": ("typea", "_cmd_an_genus")}),
    ("an", "graph"): ("derived-point graph", {
        "--vertices": _INT, "--format": _GRAPH_FORMAT,
    }, {"func": ("digraph", "_cmd_an_graph"), "kind": "points", "window": None}),
    ("necklace", "count"): (None, {
        "--m": _INT, "--s": _INT, "--verify": _VERIFY, "--format": _FORMAT,
    }, {"func": ("necklace", "_cmd_necklace_count")}),
    ("d4", "table"): (None, {"--format": _FORMAT},
                      {"func": ("d4", "_cmd_d4_table")}),
    ("d4", "graph"): (None, {"--kind": _KIND, "--format": _GRAPH_FORMAT}, {
        "func": ("digraph", "_cmd_graph"), "category": "d4", "window": None,
    }),
    ("d4", "enum"): (None, {
        "--kind": {"choices": ("points", "genus0", "genus-1", "triples-a3",
                              "triples-a1cubed"), "required": True},
        "--format": _FORMAT,
    }, {"func": ("d4", "_cmd_d4_enum")}),
    ("affine", "count"): (None, {
        "--quiver": {"choices": ("q1", "q2"), "required": True},
        "--kind": {"choices": ("genus-1", "genus0", "genus1", "triples-a3",
                              "triples-q1"), "required": True},
        "--group": {"choices": ("id", "serre", "full"), "default": "id"},
        "--format": _FORMAT,
    }, {"func": ("affine", "_cmd_affine_count")}),
    ("affine", "graph"): (None, {
        "--quiver": {"dest": "category", "choices": ("q1", "q2"), "required": True},
        "--kind": _KIND, "--window": {"type": int, "default": 5},
        "--format": _GRAPH_FORMAT,
    }, {"func": ("digraph", "_cmd_graph")}),
    ("markov", "table"): (None, {"--limit": _LIMIT, "--format": _FORMAT},
                          {"func": ("markov", "_cmd_markov_table")}),
    ("markov", "slopes"): (None, {"--max-rank": _LIMIT, "--format": _FORMAT},
                           {"func": ("markov", "_cmd_markov_slopes")}),
    ("markov", "tree"): (None, {"--limit": _LIMIT, "--format": _FORMAT},
                         {"func": ("markov", "_cmd_markov_tree")}),
    ("markov", "tyurin"): (None, {
        "--max-rank": _LIMIT, "--verify": _VERIFY, "--format": _FORMAT,
    }, {"func": ("markov", "_cmd_markov_tyurin")}),
    ("incidence",): ("point/line incidence structures", {
        "--category": {"required": True, "help": "aN, d4, np-1 or np0"},
        "--format": _FORMAT,
    }, {"func": ("incidence", "_cmd_incidence")}),
    ("graph",): ("point graph of any category", {
        "--category": {"required": True, "help": "aN, d4, q1, q2 or npL (L >= -1)"},
        "--window": {"type": int}, "--format": _GRAPH_FORMAT,
    }, {"func": ("digraph", "_cmd_graph"), "kind": "points"}),
    ("sc",): ("simplicial complex of a point graph", {
        "--category": {"required": True}, "--window": {"type": int},
        "--max-dim": {"type": int, "default": 2}, "--format": _FORMAT,
    }, {"func": ("digraph", "_cmd_sc")}),
}


def build_parser():
    """The argparse tree of the whole CLI, which gives help, usage and
    errors their text."""
    import argparse
    top = argparse.ArgumentParser(
        prog="nccount",
        description="exact counting of exceptional-collection subcategories",
    )
    levels = {(): top.add_subparsers(dest="command", required=True)}
    for path, (summary, options, fixed) in _COMMANDS.items():
        if path[:-1] not in levels:
            group = levels[()].add_parser(path[0], help=_GROUPS[path[0]])
            levels[path[:-1]] = group.add_subparsers(dest="sub", required=True)
        p = levels[path[:-1]].add_parser(
            path[-1], **({} if summary is None else {"help": summary}))
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(**fixed)
    return top


def _parse_call(argv):
    """The namespace argparse would give a well-formed argv, read from
    _COMMANDS, or None for argparse to parse or to report.

    Well-formed means: the words of one leaf; then exact long flags of that
    leaf, each at most once, each but a store-true flag followed by its
    value; a value starting with '-' only as a negative integer, which
    argparse also reads as a value; each value converted and checked as
    argparse does; every required flag given.  Help, abbreviations,
    `--flag=value`, stray words and bad values are all left to argparse.
    """
    path = tuple(argv[:1]) if tuple(argv[:1]) in _COMMANDS else tuple(argv[:2])
    if path not in _COMMANDS:
        return None
    _, options, fixed = _COMMANDS[path]
    given = {}
    words = iter(argv[len(path):])
    for flag in words:
        spec = options.get(flag)
        if spec is None or flag in given:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-") and not value[1:].isdecimal():
            return None
        try:
            value = spec.get("type", str)(value)
        except ValueError:  # argparse converts it again and reports it
            return None
        if value not in spec.get("choices", (value,)):
            return None
        given[flag] = value
    args = dict(zip(("command", "sub"), path), **fixed)
    for flag, spec in options.items():
        if spec.get("required") and flag not in given:
            return None
        args[spec.get("dest", flag[2:].replace("-", "_"))] = given.get(
            flag, spec.get("default"))
    return types.SimpleNamespace(**args)


def run(argv) -> int:
    """Parse argv, from the table when it is well-formed and by the argparse
    tree otherwise, and run its handler.  The handler returns its document,
    which _emit writes in the chosen format, or the pieces of its output,
    which _write writes as they come.  A handler's ValueError is a usage
    error: its message on stderr and exit 2, whichever parser ran.  A failed
    --verify check exits 1, with its document on stdout or else its message
    on stderr."""
    args = _parse_call(argv) or build_parser().parse_args(argv)
    module, name = args.func
    # __import__, unlike importlib.import_module, shows in -X importtime
    handler = getattr(__import__(f"nccount.{module}", fromlist=[name]), name)
    try:
        out = handler(args)
        if isinstance(out, dict):
            _emit(out, args.format)
        else:
            _write(out)
    except VerifyFailed as exc:
        if exc.doc is None:
            _stderr(f"{exc}\n")
        else:
            _emit(exc.doc, args.format)
        return 1
    except ValueError as exc:
        _stderr(f"error: {exc}\n")
        sys.exit(2)
    return 0


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
