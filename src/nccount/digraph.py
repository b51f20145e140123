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
from itertools import chain, combinations, permutations

from . import category as registry


class ValuedDigraph:
    """Finite directed graph with optional weights on one-sided edges.

    Vertices are sorted by label and addressed by their index in that
    order.  Row i of `out` and `into` is an int bitmask over the indices of
    the successors and predecessors of vertex i, and a one-sided edge
    (i, j) keeps its weight in `weights[i][j]`; so every listing below
    comes out in label order without a sort.
    """

    def __init__(self, category, vertices, genus=None):
        self.category = category
        self.vertices = sorted(vertices)
        self.genus = dict(genus or {})
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.out = [0] * len(self.vertices)
        self.into = [0] * len(self.vertices)
        self.weights = [{} for _ in self.vertices]

    def add_edge(self, src, dst, weight=None):
        if src == dst:
            raise ValueError("self-loops are excluded")
        self._link(self.index[src], self.index[dst], weight)

    def _link(self, i, j, weight):
        self.out[i] |= 1 << j
        self.into[j] |= 1 << i
        if weight is None:
            self.weights[i].pop(j, None)
        else:
            self.weights[i][j] = weight

    def has_edge(self, src, dst):
        return bool(self.out[self.index[src]] >> self.index[dst] & 1)

    def weight(self, src, dst):
        if not self.has_edge(src, dst):
            raise KeyError((src, dst))
        return self.weights[self.index[src]].get(self.index[dst])

    def _one_sided(self, i):
        return self.out[i] & ~self.into[i]

    def _double_sided(self, i):
        """The double-sided partners of vertex i after it."""
        return self.out[i] & (self.into[i] >> (i + 1) << (i + 1))

    def _pairs(self, row):
        vs = self.vertices
        return [(vs[i], vs[j]) for i in range(len(vs)) for j in _bits(row(i))]

    def one_sided_edges(self):
        return self._pairs(self._one_sided)

    def double_sided_pairs(self):
        return self._pairs(self._double_sided)

    def census(self):
        """(vertices, one-sided edges, double-sided edges counted once)."""
        n = len(self.vertices)
        return (
            n,
            sum(self._one_sided(i).bit_count() for i in range(n)),
            sum(self._double_sided(i).bit_count() for i in range(n)),
        )

    def out_degree(self, v):
        return self.out[self.index[v]].bit_count()

    def in_degree(self, v):
        return self.into[self.index[v]].bit_count()

    def successors(self, v):
        return [self.vertices[j] for j in _bits(self.out[self.index[v]])]

    def undirected_components(self):
        rest, comps = (1 << len(self.vertices)) - 1, []
        while rest:
            comp = front = rest & -rest
            while front:
                reach = 0
                for i in _bits(front):
                    reach |= self.out[i] | self.into[i]
                front = reach & ~comp
                comp |= front
            rest &= ~comp
            comps.append([self.vertices[i] for i in _bits(comp)])
        return comps

    def induced(self, vertex_subset):
        """Edge dict restricted to a vertex subset."""
        members = {self.index[v] for v in vertex_subset if v in self.index}
        mask = sum(1 << i for i in members)
        vs = self.vertices
        return {
            (vs[i], vs[j]): self.weights[i].get(j)
            for i in sorted(members)
            for j in _bits(self.out[i] & mask)
        }


def _bits(mask):
    """The indices of the set bits of an int mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# --- construction ------------------------------------------------------------


def _pair_graph(cat) -> ValuedDigraph:
    """The graph on the objects of a category record, with an edge (a, b)
    iff cat.is_pair holds for their objects, that is iff every hom from b
    to a vanishes.  Each unordered pair is tested once in each direction; a
    one-sided edge carries the total forward hom, a double-sided one none."""
    g = ValuedDigraph(cat.name, cat.objects, cat.genus)
    is_pair, weight = cat.is_pair, cat.total_hom
    objs = [cat.objects[v] for v in g.vertices]
    for (i, x), (j, y) in combinations(enumerate(objs), 2):
        ab, ba = is_pair(x, y), is_pair(y, x)
        if ab:
            g._link(i, j, weight(x, y) if weight and not ba else None)
        if ba:
            g._link(j, i, weight(y, x) if weight and not ab else None)
    return g


def build_point_graph(category: str, window=None) -> ValuedDigraph:
    """Graph of derived points of a category named as in `nccount.category`."""
    return _pair_graph(registry.category(category, window))


def build_curve_graph(category: str, window=None) -> ValuedDigraph:
    """Semi-orthogonality graph on the noncommutative curves of a category
    that has them, with the genus of each curve."""
    cat = registry.category(category, window)
    if cat.curves is None:
        raise ValueError(f"no curve graph for {category!r}")
    return _pair_graph(cat.curves())


# --- simplicial complex -------------------------------------------------------


def _closes_cycle(one, members: int, succ: int, pred: int) -> bool:
    """True iff a path of one-sided edges inside the vertex mask members
    leads from a vertex of succ to one of pred; one[x] is the mask of the
    one-sided successors of x.  With succ and pred the one-sided successors
    and predecessors of a vertex w, that path closes a cycle through w."""
    back = pred & members
    front = seen = succ & members
    while front and back and not seen & back:
        reach = 0
        for x in _bits(front):
            reach |= one[x]
        front = reach & members & ~seen
        seen |= front
    return bool(seen & back)


def sc_simplices(g: ValuedDigraph, max_dim: int) -> list:
    """All simplices of dimension <= max_dim (vertex sets of size <=
    max_dim + 1 admitting a semi-orthogonal ordering), as sorted tuples.

    The complex is closed under taking faces, so each (d+1)-simplex is a
    d-simplex extended by a later vertex w joined to all of its members,
    which is a simplex unless w closes a cycle of one-sided edges.  Layers
    of vertex-index tuples, each with its member mask and the mask of
    later vertices joined to every member, are grown in lexicographic
    order, by size, until one is empty.
    """
    if max_dim < 0:
        raise ValueError("need max_dim >= 0")
    n, vs = len(g.vertices), g.vertices
    one = [g._one_sided(i) for i in range(n)]
    one_in = [g.into[i] & ~g.out[i] for i in range(n)]
    later = [(g.out[i] | g.into[i]) >> (i + 1) << (i + 1) for i in range(n)]
    layer = [((i,), 1 << i, later[i]) for i in range(n)]
    out = [(v,) for v in vs]
    for _ in range(max_dim):
        layer = [
            (sub + (w,), members | 1 << w, cand & later[w])
            for sub, members, cand in layer
            for w in _bits(cand)
            if not (
                one_in[w] & members
                and _closes_cycle(one, members, one[w], one_in[w])
            )
        ]
        if not layer:
            break
        out += [tuple(vs[i] for i in sub) for sub, _, _ in layer]
    return out


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
        for j in _bits(g._one_sided(i)):
            w = g.weights[i].get(j)
            label = f" [label={w}]" if w is not None else ""
            yield f"  {src} -> {quoted[j]}{label};\n"
    for i, src in enumerate(quoted):
        for j in _bits(g._double_sided(i)):
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
            for j in _bits(g.out[i] & ~(g.into[i] & (2 << i) - 1)):
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


def export(g: ValuedDigraph, format: str = "json") -> str:
    """The whole document of export_lines as one string."""
    return "".join(export_lines(g, format))


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
    lo, hi = window
    found = set()
    for x, y in permutations(affine.SERIES["q2"], 2):
        for p, q in permutations(affine.SPORADIC["q2"], 2):
            relabel = {"M": p, "M'": q}
            relabel.update({f"a^{i}": f"{x}^{i}" for i in range(lo, hi + 1)})
            relabel.update({f"b^{i}": f"{y}^{i}" for i in range(lo, hi + 1)})
            image_edges = {
                (relabel[s], relabel[t]): w
                for (s, t), w in reference.induced(reference.vertices).items()
            }
            candidate = g2.induced(relabel.values())
            if candidate == image_edges:
                found.add(frozenset((x, y, p, q)))
    return sorted(sorted(v) for v in found)
