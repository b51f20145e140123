"""Valued directed graphs on derived points and on noncommutative curves.

Vertices are subcategories; there is an edge (a, b) whenever all homs from b
to a vanish, so edges are exactly the semi-orthogonal pairs.  A one-sided
edge carries the total hom dimension in the forward direction as its weight;
double-sided edges (mutually orthogonal vertices) carry none.  Every
category of `nccount.category` has a point graph, and each one with curves
a curve graph; the builders read objects and homs from its record alone.
"""

from collections import Counter
from functools import cache
from itertools import chain, permutations
from typing import NamedTuple

from . import category as registry
from .census import bits, exceptional_sets, pair_rows


class ValuedDigraph(NamedTuple):
    """Finite directed graph with optional weights on one-sided edges,
    built whole by pair_graph.

    Vertices are sorted by label and addressed by their index in that
    order.  Row i of `out` and `into` is an int bitmask over the indices of
    the successors and predecessors of vertex i, and a one-sided edge
    (i, j) keeps its weight in `weights[i][j]`; so `induced`, the one
    edge listing, and the writers list edges by (src, dst) in label order
    without a sort.
    """

    category: str
    vertices: list
    genus: dict
    out: list
    into: list
    weights: list

    def _one_sided(self, i):
        return self.out[i] & ~self.into[i]

    def _double_sided(self, i):
        """The double-sided partners of vertex i after it."""
        return self.out[i] & (self.into[i] >> (i + 1) << (i + 1))

    def census(self):
        """(vertices, one-sided edges, double-sided edges counted once)."""
        n = len(self.vertices)
        return (
            n,
            sum(self._one_sided(i).bit_count() for i in range(n)),
            sum(self._double_sided(i).bit_count() for i in range(n)),
        )

    def induced(self, vertex_subset):
        """Edge dict restricted to a vertex subset."""
        vs = self.vertices
        index = {v: i for i, v in enumerate(vs)}
        members = {index[v] for v in vertex_subset if v in index}
        mask = sum(1 << i for i in members)
        return {
            (vs[i], vs[j]): self.weights[i].get(j)
            for i in sorted(members)
            for j in bits(self.out[i] & mask)
        }


# --- construction ------------------------------------------------------------


def pair_graph(cat: registry.Category) -> ValuedDigraph:
    """The graph on the objects of a category record, with an edge (a, b)
    iff cat.is_pair holds for their objects, that is iff every hom from b
    to a vanishes; census.pair_rows gives the edges, so there is no
    self-loop, and a one-sided edge carries the total forward hom, a
    double-sided one none."""
    vertices = sorted(cat.objects)
    objs = [cat.objects[v] for v in vertices]
    out, into = pair_rows(objs, cat.is_pair)
    weights = [
        {j: cat.total_hom(x, objs[j]) for j in bits(out[i] & ~into[i])}
        for i, x in enumerate(objs)
    ]
    return ValuedDigraph(cat.name, vertices, dict(cat.genus or {}), out, into, weights)


def build_point_graph(category: str, window=None) -> ValuedDigraph:
    """Graph of derived points of a category named as in `nccount.category`."""
    return pair_graph(registry.category(category, window))


def build_curve_graph(category: str, window=None) -> ValuedDigraph:
    """Semi-orthogonality graph on the noncommutative curves of a category
    that has them, with the genus of each curve."""
    cat = registry.category(category, window)
    if cat.curves is None:
        raise ValueError(f"no curve graph for {category!r}")
    return pair_graph(cat.curves())


# --- simplicial complex -------------------------------------------------------


def sc_simplices(g: ValuedDigraph, max_dim: int) -> list:
    """All simplices of dimension <= max_dim, the exceptional sets of at most
    max_dim + 1 vertices in the order of census.exceptional_sets, by label."""
    vs = g.vertices
    return [tuple(vs[i] for i in s) for s in exceptional_sets(g.out, g.into, max_dim)]


# --- writers -------------------------------------------------------------------
# Each writer yields its document piece by piece, in the layout of
# json.dumps(doc, indent=2, sort_keys=True) for JSON, so the CLI streams it
# to stdout and never holds a large document.  Only the JSON writers import
# json, so plain and DOT calls never load it.


def _dot_quote(s):
    return '"' + s.replace('"', '\\"') + '"'


def _json_array(items, indent):
    """A JSON array of items already rendered one level below indent."""
    sep = "[\n"
    for item in items:
        yield sep + item
        sep = ",\n"
    yield "[]" if sep == "[\n" else f"\n{indent}]"


def _head(doc, key):
    """doc as JSON, left open for one more key, which sorts after doc's."""
    import json
    return json.dumps(doc, indent=2, sort_keys=True)[:-2] + f',\n  "{key}": '


def _dot_lines(g):
    quoted = [_dot_quote(v) for v in g.vertices]
    yield "digraph G {\n"
    for q in quoted:
        yield f"  {q};\n"
    for i, src in enumerate(quoted):
        for j in bits(g._one_sided(i)):
            w = g.weights[i].get(j)
            label = f" [label={w}]" if w is not None else ""
            yield f"  {src} -> {quoted[j]}{label};\n"
    for i, src in enumerate(quoted):
        for j in bits(g._double_sided(i)):
            yield f"  {src} -> {quoted[j]} [dir=both];\n"
    yield "}\n"


def _json_lines(g):
    import json
    quoted = [json.dumps(v) for v in g.vertices]
    weight = cache(json.dumps)  # a graph has few distinct weights

    def edges():
        # by (src, dst): every edge out of i but the double-sided ones
        # back to an earlier vertex, which are listed from there
        for i, src in enumerate(quoted):
            for j in bits(g.out[i] & ~(g.into[i] & (2 << i) - 1)):
                both = g.into[i] >> j & 1
                w = weight(None if both else g.weights[i].get(j))
                yield (
                    f'    {{\n      "both": {"true" if both else "false"},\n'
                    f'      "dst": {quoted[j]},\n      "src": {src},\n'
                    f'      "weight": {w}\n    }}'
                )

    yield _head({"category": g.category}, "edges")
    yield from _json_array(edges(), "  ")
    vertices = [{"id": v, "genus": g.genus.get(v)} for v in g.vertices]
    tail = json.dumps({"vertices": vertices}, indent=2, sort_keys=True)
    yield "," + tail[1:] + "\n"  # without its opening brace


_GRAPH_WRITERS = {"dot": _dot_lines, "json": _json_lines}


def export_lines(g: ValuedDigraph, format: str = "json"):
    """The pieces of a graph's DOT (for rendering tools) or JSON (per the
    documented schema) document; they are byte-deterministic for a fixed
    graph."""
    if format not in _GRAPH_WRITERS:
        raise ValueError(f"unknown format {format!r}")
    return _GRAPH_WRITERS[format](g)


def complex_lines(g: ValuedDigraph, simplices, format: str = "json"):
    """The pieces of the document of simplices of g (as sc_simplices lists
    them): the category, the number of simplices of each dimension and the
    simplices, as JSON or as the plain `key\tvalue` lines of the CLI."""
    counts = Counter(str(len(s) - 1) for s in simplices)
    if format == "plain":
        return _complex_plain(g.category, counts, simplices)
    if format != "json":
        raise ValueError(f"unknown format {format!r}")
    import json
    quoted = {v: json.dumps(v) for v in g.vertices}
    items = (
        "    [\n" + ",\n".join(f"      {quoted[v]}" for v in s) + "\n    ]"
        for s in simplices
    )
    head = _head({"category": g.category, "counts_by_dim": counts}, "simplices")
    return chain([head], _json_array(items, "  "), ["\n}\n"])


def _complex_plain(category, counts, simplices):
    yield f"category\t{category}\n"
    for d in sorted(counts):
        yield f"counts_by_dim.{d}\t{counts[d]}\n"
    for i, s in enumerate(simplices):
        yield "".join(f"simplices.{i}.{j}\t{v}\n" for j, v in enumerate(s))


# --- pattern census on the square quiver ---------------------------------------


def q1_pattern_subgraphs(window) -> list:
    """Vertex sets of subgraphs of the windowed q2 point graph isomorphic to
    the q1 point graph on the same window: pairs of series plus two sporadic
    objects reproducing the q1 edge-and-weight pattern exactly."""
    from . import affine
    g2 = build_point_graph("q2", window)
    reference = build_point_graph("q1", window)
    reference_edges = reference.induced(reference.vertices)
    lo, hi = window
    found = set()
    for x, y in permutations(affine.SERIES["q2"], 2):
        for p, q in permutations(affine.SPORADIC["q2"], 2):
            relabel = {"M": p, "M'": q}
            relabel.update({f"a^{i}": f"{x}^{i}" for i in range(lo, hi + 1)})
            relabel.update({f"b^{i}": f"{y}^{i}" for i in range(lo, hi + 1)})
            image_edges = {
                (relabel[s], relabel[t]): w
                for (s, t), w in reference_edges.items()
            }
            candidate = g2.induced(relabel.values())
            if candidate == image_edges:
                found.add(frozenset((x, y, p, q)))
    return sorted(sorted(v) for v in found)


# --- the CLI handlers of the graph commands and `sc` ----------------------------


def _window(args):
    """--window W as the series indices 0..W-1."""
    return None if args.window is None else (0, args.window - 1)


def _cmd_graph(args):
    """Point or curve graph of args.category; every graph subcommand sets
    the arguments it does not take through its fixed defaults."""
    if args.kind == "curves":
        g = build_curve_graph(args.category, _window(args))
    else:
        g = build_point_graph(args.category, _window(args))
    if args.format == "plain":
        v, one, two = g.census()
        return {"category": g.category, "vertices": v,
                "one_sided_edges": one, "double_sided_edges": two}
    return export_lines(g, args.format)


def _cmd_an_graph(args):
    """`an graph --vertices N` draws the point graph of aN."""
    args.category = f"a{args.vertices}"
    return _cmd_graph(args)


def _cmd_sc(args):
    g = build_point_graph(args.category, _window(args))
    return complex_lines(g, sc_simplices(g, args.max_dim), args.format)
