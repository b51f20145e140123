"""Independent correctness checks of CLI output, one per job.

Each check recomputes the answer without the program's code: binomials
with math.comb, rotation classes by Burnside's lemma with sympy's totient,
the paper's closed forms for the genus counts, the paper's D4 and affine
tables, Markov triples by Vieta jumping, the a_N point graph by the closed
interval hom, and simplices as networkx cliques whose orientation is
acyclic.  sympy and networkx are imported only when checking, after the
timed passes, so they never inflate the benchmark process that forks the
children (a child's peak RSS starts at its parent's RSS).
"""

import json
import re
from math import comb, gcd


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def parse_argv(argv):
    """(command words, {option: value}) of a job's argv; a flag maps to True."""
    words, opts = [], {}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--"):
            if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                opts[tok[2:]] = argv[i + 1]
                i += 2
                continue
            opts[tok[2:]] = True
        else:
            words.append(tok)
        i += 1
    return tuple(words), opts


def parse_plain(text):
    """`--format plain` output as a flat {dotted key: value} dict."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("\t")
        out[key] = value
    return out


# --- independent values -------------------------------------------------------


def burnside(m, s):
    """s-subsets of Z/m up to rotation: (1/m) sum_{d | gcd(m,s)} phi(d) C(m/d, s/d)."""
    from sympy import totient

    if s > m:
        return 0
    g = gcd(m, s)
    total = sum(int(totient(d)) * comb(m // d, s // d)
                for d in range(1, g + 1) if g % d == 0)
    expect(total % m == 0, f"Burnside sum {total} not divisible by {m}")
    return total // m


def an_count(k, vertices, group):
    """A_k-type subcategories of D^b(A_N): C(N+1, k+1), or its Serre orbits,
    the (k+1)-subsets of Z/(N+1) up to rotation."""
    if group == "id":
        return comb(vertices + 1, k + 1)
    return burnside(vertices + 1, k + 1)


def an_genus(genus, vertices, group):
    """The paper's closed forms for genus -1 and 0 curves in D^b(A_N)."""
    if genus >= 1:
        return 0
    if genus == 0:
        return an_count(2, vertices, group)
    n = vertices - 1
    if group == "id":
        return 2 * comb(n + 2, 4)
    return (n - 1) * n * (n + 1) // 12 if n % 2 else n * (n * n + 2) // 12


# The paper's D4 orbit-count table: kind -> group -> count.
D4_TABLE = {
    "points": {"id": 12, "kappa": 6, "serre": 4, "full": 2},
    "genus0": {"id": 15, "kappa": 5, "serre": 5, "full": 3},
    "genusMinus1": {"id": 9, "kappa": 3, "serre": 3, "full": 1},
    "triples-A3": {"id": 9, "kappa": 3, "serre": 3, "full": 1},
    "triples-A1cubed": {"id": 3, "kappa": 3, "serre": 1, "full": 1},
}
D4_ENUM_KIND = {
    "points": "points", "genus0": "genus0", "genus-1": "genusMinus1",
    "triples-a3": "triples-A3", "triples-a1cubed": "triples-A1cubed",
}

# The paper's affine table: (quiver, kind) -> counts modulo (id, serre, full).
AFFINE_TABLE = {
    ("q1", "genus-1"): ("0", "0", "0"),
    ("q1", "genus0"): ("infinite", "3", "1"),
    ("q1", "genus1"): ("2", "1", "1"),
    ("q2", "genus-1"): ("infinite", "4", "2"),
    ("q2", "genus0"): ("infinite", "8", "1"),
    ("q2", "genus1"): ("4", "2", "1"),
    ("q2", "triples-a3"): ("infinite", "4", "1"),
    ("q2", "triples-q1"): ("4", "2", "1"),
}


def markov_triples(limit):
    """Sorted Markov triples with largest entry <= limit, by Vieta jumping."""
    seen, todo = set(), [(1, 1, 1)]
    while todo:
        t = todo.pop()
        if t in seen or t[2] > limit:
            continue
        seen.add(t)
        a, b, c = t
        for nxt in ((3 * b * c - a, b, c), (a, 3 * a * c - b, c), (a, b, 3 * a * b - c)):
            todo.append(tuple(sorted(nxt)))
    return sorted(seen)


def markov_numbers(limit):
    return sorted({x for t in markov_triples(limit) for x in t})


def interval_hom(x, y):
    """Euler form <[a,b],[c,d]> on the equioriented line:
    |[a,b] & [c,d]| - |[a,b] & [c-1,d-1]|."""
    (a, b), (c, d) = x, y

    def overlap(lo, hi):
        return max(0, min(b, hi) - max(a, lo) + 1)

    return overlap(c, d) - overlap(c - 1, d - 1)


def an_point_edges(vertices):
    """Edge set of the a_N point graph as {(src, dst, weight, both)}:
    (x, y) is an edge iff <y, x> = 0; one-sided edges weigh |<x, y>| and a
    double-sided pair appears once, sorted, without weight."""
    n = vertices - 1
    pts = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
    name = {p: f"s{p[0]},{p[1]}" for p in pts}
    arrows = {(x, y) for x in pts for y in pts if x != y and interval_hom(y, x) == 0}
    out = set()
    for x, y in arrows:
        if (y, x) in arrows:
            s, t = sorted((name[x], name[y]))
            out.add((s, t, None, True))
        else:
            out.add((name[x], name[y], abs(interval_hom(x, y)), False))
    return sorted(name.values()), out


# --- graph output ---------------------------------------------------------------

_DOT_VERTEX = re.compile(r'^  "([^"]*)";$')
_DOT_EDGE = re.compile(r'^  "([^"]*)" -> "([^"]*)"(?: \[(label=(\d+)|dir=both)\])?;$')


def parse_graph(text, fmt):
    """(vertex ids, {(src, dst, weight, both)}) of a JSON or DOT export."""
    if fmt == "json":
        doc = json.loads(text)
        ids = [v["id"] for v in doc["vertices"]]
        edges = {(e["src"], e["dst"], e["weight"], e["both"]) for e in doc["edges"]}
        expect(len(edges) == len(doc["edges"]), "duplicate edges")
        return ids, edges
    lines = text.splitlines()
    expect(lines[0] == "digraph G {" and lines[-1] == "}", "not a DOT digraph")
    ids, edges = [], set()
    for line in lines[1:-1]:
        m = _DOT_VERTEX.match(line)
        if m:
            ids.append(m.group(1))
            continue
        m = _DOT_EDGE.match(line)
        expect(m is not None, f"unparsed DOT line {line!r}")
        both = m.group(3) == "dir=both"
        weight = int(m.group(4)) if m.group(4) else None
        edges.add((m.group(1), m.group(2), weight, both))
    return ids, edges


def graph_shape(words, opts):
    """(category label, vertex count) a point or curve graph command must
    produce."""
    window = opts.get("window")
    if words == ("an", "graph"):
        category = "a" + opts["vertices"]
    elif words == ("d4", "graph"):
        if opts.get("kind", "points") == "curves":
            return "d4-curves", 24
        category = "d4"
    elif words == ("affine", "graph"):
        category, window = opts["quiver"], opts.get("window", "5")
        if opts.get("kind", "points") == "curves":
            # 4 curves of genus 1, 8w of genus 0 and 2w + 4 of genus -1
            return category + "-curves", 10 * int(window) + 8
    else:
        category = opts["category"]
    if category.startswith("a"):
        n = int(category[1:])
        return category, n * (n + 1) // 2
    if category == "d4":
        return category, 12
    if category in ("q1", "q2"):
        series = 2 if category == "q1" else 4  # as many sporadic objects
        return category, series * (int(window) + 1)
    genus = int(category[2:])
    return category, {-1: 2, 0: 3}.get(genus) or int(window)


# --- per-command checks -----------------------------------------------------------


def _value(text, fmt, key):
    return json.loads(text)[key] if fmt == "json" else parse_plain(text)[key]


def _an_count(opts, text, fmt):
    want = an_count(int(opts["k"]), int(opts["vertices"]), opts.get("group", "id"))
    got = _value(text, fmt, "count")
    expect(got == str(want), f"count {got}, expected {want}")


def _an_genus(opts, text, fmt):
    want = an_genus(int(opts["genus"]), int(opts["vertices"]), opts.get("group", "id"))
    got = _value(text, fmt, "count")
    expect(got == str(want), f"count {got}, expected {want}")


def _an_orbits(opts, text, fmt):
    k, vertices = int(opts["k"]), int(opts["vertices"])
    doc = json.loads(text)
    expect((doc["k"], doc["vertices"]) == (k, vertices), "parameters not echoed")
    want = burnside(vertices + 1, k + 1)
    expect(doc["orbit_count"] == str(want), f"{doc['orbit_count']} orbits, expected {want}")
    sizes = [(row["size"], int(row["count"])) for row in doc["orbits_by_size"]]
    expect(all((vertices + 1) % size == 0 for size, _ in sizes),
           "an orbit size does not divide N+1")
    expect(sum(c for _, c in sizes) == want, "orbit census disagrees with orbit_count")
    expect(sum(size * c for size, c in sizes) == comb(vertices + 1, k + 1),
           "orbits do not partition the C(N+1, k+1) sequences")


def _necklace(opts, text, fmt):
    want = burnside(int(opts["m"]), int(opts["s"]))
    got = _value(text, fmt, "count")
    expect(got == str(want), f"count {got}, expected {want}")


def _d4_table(opts, text, fmt):
    want = {kind: {g: str(c) for g, c in row.items()} for kind, row in D4_TABLE.items()}
    expect(json.loads(text) == want, "D4 table differs from the paper's")


def _d4_enum(opts, text, fmt):
    kind = opts["kind"]
    doc = json.loads(text)
    subs = doc["subcategories"]
    size = {"points": 1, "genus0": 2, "genus-1": 2}.get(kind, 3)
    expect(doc["kind"] == kind, "kind not echoed")
    expect(len(subs) == D4_TABLE[D4_ENUM_KIND[kind]]["id"], f"{len(subs)} subcategories")
    expect(len(set(subs)) == len(subs), "repeated subcategories")
    expect(all(re.fullmatch(r"<\w+(,\w+){%d}>" % (size - 1), s) for s in subs),
           f"generator lists are not of length {size}")


def _affine_count(opts, text, fmt):
    row = AFFINE_TABLE[(opts["quiver"], opts["kind"])]
    want = row[("id", "serre", "full").index(opts.get("group", "id"))]
    got = _value(text, fmt, "count")
    expect(got == want, f"count {got}, expected {want}")


def _markov_table(opts, text, fmt):
    rows = json.loads(text)["rows"]
    ms = markov_numbers(int(opts.get("limit", 200)))
    expect([r["m"] for r in rows] == [str(m) for m in ms], "rows are not the Markov numbers")
    for r in rows:
        # uniqueness: one bundle class up to dualising per Markov number > 2
        want = 1 if int(r["m"]) <= 2 else 2
        expect(r["count"] == str(want) and r["serre_count"] == str(3 * want),
               f"counts for m={r['m']}")


def _markov_tree(opts, text, fmt):
    got = json.loads(text)["triples"]
    want = [[str(x) for x in t] for t in markov_triples(int(opts.get("limit", 200)))]
    expect(got == want, "Markov triples differ")


def _markov_slopes(opts, text, fmt):
    doc = json.loads(text)
    ms = markov_numbers(int(opts.get("max-rank", 200)))
    expect(doc["ranks"] == [str(m) for m in ms], "ranks are not the Markov numbers")
    for slope, rank in zip(doc["slopes"], doc["ranks"]):
        p, q = map(int, slope.split("/"))
        expect(q == int(rank) and gcd(p, q) == 1 and 0 <= 2 * p <= q,
               f"slope {slope} is not a reduced fraction in [0, 1/2] of rank {rank}")
        expect((p * p + 1) % q == 0, f"slope {slope}: c^2 != -1 mod r")


def _markov_tyurin(opts, text, fmt):
    doc = json.loads(text)
    ms = [m for m in markov_numbers(int(opts.get("max-rank", 200))) if m > 2]
    expect(doc["all_ok"] is True, "all_ok is not true")
    expect([(r["m"], r["count"], r["ok"]) for r in doc["rows"]]
           == [(str(m), "2", True) for m in ms], "Tyurin rows differ")


def _incidence(opts, text, fmt):
    points, lines = {"a3": (6, 4), "d4": (12, 15)}[opts["category"]]
    if fmt == "plain":
        doc = parse_plain(text)
        expect((doc["points"], doc["lines"], doc["incidences"])
               == (str(points), str(lines), str(3 * lines)), "incidence census differs")
        return
    doc = json.loads(text)
    pts = set(doc["points"])
    expect(len(pts) == len(doc["points"]) == points, f"{len(pts)} points")
    expect(len(doc["lines"]) == lines, f"{len(doc['lines'])} lines")
    expect(len({ln["id"] for ln in doc["lines"]}) == lines, "repeated line ids")
    expect(all(len(set(ln["points"])) == 3 and set(ln["points"]) <= pts
               for ln in doc["lines"]), "a line is not three of the points")


def _expected_edges(category, opts):
    """Full edge set where it has an independent closed form, else None."""
    if re.fullmatch(r"a\d+", category):
        return an_point_edges(int(category[1:]))[1]
    m = re.fullmatch(r"np(\d+)", category)
    if m and int(m.group(1)) >= 1:
        ids = [f"s{i}" for i in range(int(opts["window"]))]
        return {(a, b, int(m.group(1)) + 1, False) for a, b in zip(ids, ids[1:])}
    return None


def _graph(words, opts, text, fmt):
    category, vertices = graph_shape(words, opts)
    want = _expected_edges(category, opts)
    if fmt == "plain":
        doc = parse_plain(text)
        expect(doc["category"] == category, f"category {doc['category']}")
        expect(doc["vertices"] == str(vertices),
               f"{doc['vertices']} vertices, expected {vertices}")
        if want is not None:
            one = sum(1 for e in want if not e[3])
            expect((doc["one_sided_edges"], doc["double_sided_edges"])
                   == (str(one), str(len(want) - one)), "edge census differs")
        return
    if fmt == "json":
        expect(json.loads(text)["category"] == category, "category differs")
    ids, edges = parse_graph(text, fmt)
    expect(len(set(ids)) == len(ids) == vertices, f"{len(ids)} vertices, expected {vertices}")
    known = set(ids)
    for s, t, w, both in edges:
        expect(s in known and t in known and s != t, f"bad edge {s} -> {t}")
        expect(not both or w is None, f"double-sided edge {s} -> {t} has a weight")
    if want is not None:
        expect(edges == want, f"edges differ from the closed form "
                              f"({len(edges ^ want)} mismatches)")


def arrows_of(edges):
    """Directed adjacency {(src, dst)} of an edge set from parse_graph."""
    out = set()
    for s, t, _, both in edges:
        out.add((s, t))
        if both:
            out.add((t, s))
    return out


def simplices(ids, arrows, max_dim):
    """Cliques of at most max_dim + 1 vertices whose one-sided edges form an
    acyclic relation, i.e. that admit a semi-orthogonal ordering."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(ids)
    g.add_edges_from(arrows)
    out = set()
    for clique in nx.enumerate_all_cliques(g):
        if len(clique) > max_dim + 1:
            break
        d = nx.DiGraph()
        d.add_nodes_from(clique)
        d.add_edges_from((s, t) for s in clique for t in clique
                         if (s, t) in arrows and (t, s) not in arrows)
        if nx.is_directed_acyclic_graph(d):
            out.add(frozenset(clique))
    return out


def _sc(opts, text, fmt, graph_of):
    category, max_dim = opts["category"], int(opts.get("max-dim", 2))
    if fmt == "json":
        doc = json.loads(text)
        got = [tuple(s) for s in doc["simplices"]]
        counts = {int(d): c for d, c in doc["counts_by_dim"].items()}
    else:
        doc = parse_plain(text)
        rows = {}
        for key, value in doc.items():
            part = key.split(".")
            if part[0] == "simplices":
                rows.setdefault(int(part[1]), {})[int(part[2])] = value
        got = [tuple(r[j] for j in sorted(r)) for _, r in sorted(rows.items())]
        counts = {int(k.split(".")[1]): int(v) for k, v in doc.items()
                  if k.startswith("counts_by_dim.")}
    expect(doc["category"] == category, "category differs")
    tally = {}
    for s in got:
        tally[len(s) - 1] = tally.get(len(s) - 1, 0) + 1
    expect(counts == tally, "counts_by_dim disagrees with the simplices")
    found = set(map(frozenset, got))
    expect(len(found) == len(got), "repeated simplices")
    ids, edges = graph_of(category, opts.get("window"))
    want = simplices(ids, arrows_of(edges), max_dim)
    expect(found == want, f"simplices differ from networkx ({len(want ^ found)} mismatches)")


_COUNTS = {
    ("an", "count"): _an_count,
    ("an", "genus"): _an_genus,
    ("an", "orbits"): _an_orbits,
    ("necklace", "count"): _necklace,
    ("d4", "table"): _d4_table,
    ("d4", "enum"): _d4_enum,
    ("affine", "count"): _affine_count,
    ("markov", "table"): _markov_table,
    ("markov", "tree"): _markov_tree,
    ("markov", "slopes"): _markov_slopes,
    ("markov", "tyurin"): _markov_tyurin,
    ("incidence",): _incidence,
}
_GRAPHS = {("an", "graph"), ("d4", "graph"), ("affine", "graph"), ("graph",)}


def check(argv, stdout, graph_of):
    """Raise CheckFailed unless stdout is the right answer to argv.

    graph_of(category, window) gives the (ids, edges) of a point graph,
    which the simplex check needs.
    """
    words, opts = parse_argv(argv)
    fmt = opts.get("format", "json")
    text = stdout.decode()
    try:
        if words in _COUNTS:
            _COUNTS[words](opts, text, fmt)
        elif words in _GRAPHS:
            _graph(words, opts, text, fmt)
        elif words == ("sc",):
            _sc(opts, text, fmt, graph_of)
        else:
            raise CheckFailed(f"no check for {' '.join(words)}")
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from exc
