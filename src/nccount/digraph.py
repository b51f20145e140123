"""Valued directed graphs on derived points and on noncommutative curves.

Vertices are subcategories; there is an edge (a, b) whenever all homs from b
to a vanish, so edges are exactly the semi-orthogonal pairs.  A one-sided
edge carries the total hom dimension in the forward direction as its weight;
double-sided edges (mutually orthogonal vertices) carry none.  Every
category of `nccount.category` has a point graph, and each one with curves
a curve graph; the builders read objects and homs from its record alone.
"""

import json
from itertools import combinations, permutations

from . import category as registry


class ValuedDigraph:
    """Finite directed graph with optional weights on one-sided edges."""

    def __init__(self, category, vertices, genus=None):
        self.category = category
        self.vertices = sorted(vertices)
        self.genus = dict(genus or {})
        self._edges = {}
        # vertex -> successors / predecessors, as lists rather than sets:
        # on the a30 graph sets would raise peak memory by nearly half
        self._out = {}
        self._in = {}

    def add_edge(self, src, dst, weight=None):
        if src == dst:
            raise ValueError("self-loops are excluded")
        if (src, dst) not in self._edges:
            self._out.setdefault(src, []).append(dst)
            self._in.setdefault(dst, []).append(src)
        self._edges[(src, dst)] = weight

    def has_edge(self, src, dst):
        return (src, dst) in self._edges

    def weight(self, src, dst):
        return self._edges[(src, dst)]

    def one_sided_edges(self):
        return sorted(e for e in self._edges if (e[1], e[0]) not in self._edges)

    def double_sided_pairs(self):
        return sorted(
            {tuple(sorted(e)) for e in self._edges if (e[1], e[0]) in self._edges}
        )

    def census(self):
        """(vertices, one-sided edges, double-sided edges counted once)."""
        return (
            len(self.vertices),
            len(self.one_sided_edges()),
            len(self.double_sided_pairs()),
        )

    def out_degree(self, v):
        return len(self._out.get(v, ()))

    def in_degree(self, v):
        return len(self._in.get(v, ()))

    def successors(self, v):
        return sorted(self._out.get(v, ()))

    def neighbours(self, v):
        """The vertices joined to v by an edge in either direction."""
        return set(self._out.get(v, ())).union(self._in.get(v, ()))

    def undirected_components(self):
        adj = {v: self.neighbours(v) for v in self.vertices}
        seen, comps = set(), []
        for v in self.vertices:
            if v in seen:
                continue
            comp, stack = {v}, [v]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(sorted(comp))
        return comps

    def induced(self, vertex_subset):
        """Edge dict restricted to a vertex subset."""
        vs = set(vertex_subset)
        return {
            e: w for e, w in self._edges.items() if e[0] in vs and e[1] in vs
        }


# --- construction ------------------------------------------------------------


def _pair_graph(cat) -> ValuedDigraph:
    """The graph on the objects of a category record, with an edge (a, b)
    iff cat.is_pair holds for their objects, that is iff every hom from b
    to a vanishes.  Each unordered pair is tested once in each direction; a
    one-sided edge carries the total forward hom, a double-sided one none."""
    g = ValuedDigraph(cat.name, cat.objects, cat.genus)
    is_pair, weight = cat.is_pair, cat.total_hom
    for (a, x), (b, y) in combinations(cat.objects.items(), 2):
        ab, ba = is_pair(x, y), is_pair(y, x)
        if ab and ba:
            g.add_edge(a, b)
            g.add_edge(b, a)
        elif ab:
            g.add_edge(a, b, None if weight is None else weight(x, y))
        elif ba:
            g.add_edge(b, a, None if weight is None else weight(y, x))
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


def is_simplex(g: ValuedDigraph, subset) -> bool:
    """True iff some ordering of the subset is a semi-orthogonal chain.

    Such an ordering exists iff every pair is joined and the one-sided
    edges among the subset are acyclic (a topological order of them is the
    chain), which is tested in O(k^2) for k vertices.
    """
    subset = list(subset)
    if len(set(subset)) != len(subset):
        raise ValueError("repeated vertices")
    succs = {v: [] for v in subset}  # one-sided edges within the subset
    indeg = dict.fromkeys(subset, 0)
    for a, b in combinations(subset, 2):
        ab, ba = g.has_edge(a, b), g.has_edge(b, a)
        if ab != ba:
            src, dst = (a, b) if ab else (b, a)
            succs[src].append(dst)
            indeg[dst] += 1
        elif not ab:
            return False
    # Kahn's algorithm: `order` grows while it is walked
    order = [v for v in subset if not indeg[v]]
    for v in order:
        for w in succs[v]:
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    return len(order) == len(subset)


def sc_simplices(g: ValuedDigraph, max_dim: int) -> list:
    """All simplices of dimension <= max_dim (vertex sets of size <=
    max_dim + 1 admitting a semi-orthogonal ordering), as sorted tuples.

    The complex is closed under taking faces, so each (d+1)-simplex is a
    d-simplex extended by a later vertex joined to all of its members.
    Layers are grown in lexicographic order, by size, until one is empty.
    """
    if max_dim < 0:
        raise ValueError("need max_dim >= 0")
    index = {v: i for i, v in enumerate(g.vertices)}
    later = {  # v -> the vertices after v joined to it
        v: {w for w in g.neighbours(v) if index.get(w, -1) > index[v]}
        for v in g.vertices
    }
    layer = [(v,) for v in g.vertices]
    out = list(layer)
    for _ in range(max_dim):
        layer = [
            sub + (w,)
            for sub in layer
            for w in sorted(set.intersection(*(later[v] for v in sub)), key=index.get)
            if is_simplex(g, sub + (w,))
        ]
        if not layer:
            break
        out += layer
    return out


# --- exporters ----------------------------------------------------------------


def _dot_quote(s):
    return '"' + s.replace('"', '\\"') + '"'


def export(g: ValuedDigraph, format: str = "json") -> str:
    """Serialize a graph: DOT for rendering tools, JSON per the documented
    schema.  Output is byte-deterministic for a fixed graph."""
    if format == "dot":
        lines = ["digraph G {"]
        for v in g.vertices:
            lines.append(f"  {_dot_quote(v)};")
        for s, t in g.one_sided_edges():
            w = g.weight(s, t)
            label = f" [label={w}]" if w is not None else ""
            lines.append(f"  {_dot_quote(s)} -> {_dot_quote(t)}{label};")
        for s, t in g.double_sided_pairs():
            lines.append(f"  {_dot_quote(s)} -> {_dot_quote(t)} [dir=both];")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        edges = [
            {"src": s, "dst": t, "weight": g.weight(s, t), "both": False}
            for s, t in g.one_sided_edges()
        ]
        edges += [
            {"src": s, "dst": t, "weight": None, "both": True}
            for s, t in g.double_sided_pairs()
        ]
        doc = {
            "category": g.category,
            "vertices": [
                {"id": v, "genus": g.genus.get(v)} for v in g.vertices
            ],
            "edges": sorted(edges, key=lambda e: (e["src"], e["dst"])),
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {format!r}")


def from_json(text: str) -> ValuedDigraph:
    """Rebuild a graph from its JSON export, whose double-sided edges
    already carry no weight."""
    doc = json.loads(text)
    g = ValuedDigraph(
        doc["category"],
        [v["id"] for v in doc["vertices"]],
        {v["id"]: v["genus"] for v in doc["vertices"]},
    )
    for e in doc["edges"]:
        g.add_edge(e["src"], e["dst"], e["weight"])
        if e["both"]:
            g.add_edge(e["dst"], e["src"], e["weight"])
    return g


def isomorphic_as_labeled(g1: ValuedDigraph, g2: ValuedDigraph) -> bool:
    """Equality of vertex sets, edges and weights (identity relabeling)."""
    return (
        sorted(g1.vertices) == sorted(g2.vertices)
        and g1.induced(g1.vertices) == g2.induced(g2.vertices)
    )


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
