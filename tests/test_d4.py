from functools import partial
from itertools import combinations, permutations

import pytest
from oracles import label_census

from nccount import GenSet, d4
from nccount.d4 import (
    ARROWS,
    DIMS,
    KAPPA,
    KINDS,
    LABELS,
    RULE,
    SERRE,
    d4_count,
    d4_enum,
    d4_tables,
)
from nccount.census import subcategories
from nccount.interval import Interval
from nccount.quiver import PairClass, euler_form, pair_class

total_hom = RULE[1]
d4_pair_class = partial(pair_class, *RULE)

# the subcategories of rank at most 3, each as the frozenset of its labels
CENSUS = label_census({x: x for x in LABELS}, RULE[0], 3)


def _unordered(pairs):
    return {frozenset(p) for p in pairs}


# the perps of single objects, the oracle of the rank-3 subcategories ---------


def right_orthogonal_points(x) -> frozenset:
    """Derived points of <x>^perp: labels p with all homs from x to p zero."""
    return frozenset(p for p in LABELS if p != x and total_hom(x, p) == 0)


def triple_kind(x) -> str:
    """Type of the rank-3 subcategory <x>^perp: 'a3' (six derived points)
    or 'a1cubed' (three pairwise orthogonal derived points)."""
    pts = right_orthogonal_points(x)
    if len(pts) == 3:
        return "a1cubed"
    if len(pts) == 6:
        return "a3"
    raise AssertionError(f"unexpected perp size {len(pts)} for {x}")


def triple_generators(x) -> tuple:
    """The lexicographically least 3-subset of the derived points of
    <x>^perp that admits a semi-orthogonal ordering, in its least one."""
    pts = sorted(right_orthogonal_points(x))
    return next(
        perm for sub in combinations(pts, 3) for perm in permutations(sub)
        if all(total_hom(perm[j], perm[i]) == 0 for i, j in combinations(range(3), 2))
    )


# the objects and actions typed by hand, which the derivation from the
# quiver must reproduce ---------------------------------------------------

TYPED_DIMS = {
    "s1": (1, 0, 0, 0),
    "s2": (0, 1, 0, 0),
    "s3": (0, 0, 1, 0),
    "s1o": (1, 0, 0, 1),
    "s2o": (0, 1, 0, 1),
    "s3o": (0, 0, 1, 1),
    "s12": (1, 1, 0, 1),
    "s13": (1, 0, 1, 1),
    "s23": (0, 1, 1, 1),
    "s123": (1, 1, 1, 1),
    "so": (0, 0, 0, 1),
    "delta": (1, 1, 1, 2),
}

TYPED_KAPPA = {
    "s1": "s2", "s2": "s3", "s3": "s1",
    "s1o": "s2o", "s2o": "s3o", "s3o": "s1o",
    "s12": "s23", "s23": "s13", "s13": "s12",
    "s123": "s123", "so": "so", "delta": "delta",
}

TYPED_SERRE = {
    "delta": "so", "so": "s123", "s123": "delta",
    "s1": "s23", "s23": "s1o", "s1o": "s1",
    "s2": "s13", "s13": "s2o", "s2o": "s2",
    "s3": "s12", "s12": "s3o", "s3o": "s3",
}


# the reference pair classification, transcribed as data -------------------

ORTHOGONAL_PAIRS = _unordered(
    [("s1", "s2"), ("s1", "s3"), ("s2", "s3"),
     ("s1o", "s2o"), ("s1o", "s3o"), ("s2o", "s3o"),
     ("s12", "s13"), ("s12", "s23"), ("s13", "s23")]
)

HOM_ONE_PAIRS = set()
for i, j, k in permutations("123", 3):
    if i < j:
        sij = f"s{i}{j}"
        HOM_ONE_PAIRS.update(
            [("delta", sij), (sij, f"s{k}o"), (sij, "s123"), (f"s{k}", sij)]
        )
for i in "123":
    HOM_ONE_PAIRS.update(
        [(f"s{i}o", "delta"), ("s123", f"s{i}"),
         (f"s{i}", "so"), (f"s{i}o", f"s{i}"), ("so", f"s{i}o")]
    )
for i, j in permutations("123", 2):
    sij = f"s{min(i, j)}{max(i, j)}"
    HOM_ONE_PAIRS.update([(f"s{i}", f"s{j}o"), (sij, f"s{i}"), (f"s{j}o", sij)])

NOT_EXCEPTIONAL_PAIRS = set()
for i in "123":
    NOT_EXCEPTIONAL_PAIRS.update(
        [("delta", f"s{i}"), (f"s{i}", "delta"),
         ("s123", f"s{i}o"), (f"s{i}o", "s123")]
    )
for a, b in [("delta", "s123"), ("so", "s123"), ("delta", "so")]:
    NOT_EXCEPTIONAL_PAIRS.update([(a, b), (b, a)])
for i, j in permutations("123", 2):
    if i < j:
        NOT_EXCEPTIONAL_PAIRS.update([(f"s{i}{j}", "so"), ("so", f"s{i}{j}")])


def test_twelve_objects():
    # a consistent swap of two legs would pass the pair transcription below
    assert DIMS == TYPED_DIMS
    assert LABELS == tuple(sorted(TYPED_DIMS))


def test_rule_is_the_quiver_euler_form():
    is_pair, hom = RULE
    for a in LABELS:
        for b in LABELS:
            forward = euler_form(ARROWS, DIMS[a], DIMS[b])
            backward = euler_form(ARROWS, DIMS[b], DIMS[a])
            assert (is_pair(a, b), hom(a, b)) == (backward == 0, abs(forward)), (a, b)
    with pytest.raises(ValueError, match="unknown object"):
        total_hom("s1", "s4")


def test_spec_pair_examples():
    assert d4_pair_class("s1", "s2") is PairClass.ORTHOGONAL
    assert d4_pair_class("s1o", "delta") is PairClass.HOM_ONE
    assert d4_pair_class("delta", "s1") is PairClass.NOT_EXCEPTIONAL


def test_classifier_matches_transcribed_tables():
    # all 132 ordered pairs against the transcribed classification
    for a, b in permutations(LABELS, 2):
        got = d4_pair_class(a, b)
        if frozenset((a, b)) in ORTHOGONAL_PAIRS:
            expected = PairClass.ORTHOGONAL
        elif (a, b) in HOM_ONE_PAIRS:
            expected = PairClass.HOM_ONE
        else:
            expected = PairClass.NOT_EXCEPTIONAL
        assert got is expected, (a, b)
    # every explicitly excluded pair really is non-exceptional
    for a, b in NOT_EXCEPTIONAL_PAIRS:
        assert d4_pair_class(a, b) is PairClass.NOT_EXCEPTIONAL


def test_transcription_is_exhaustive():
    assert len(ORTHOGONAL_PAIRS) == 9
    assert len(HOM_ONE_PAIRS) == 45
    assert all(
        frozenset(p) not in ORTHOGONAL_PAIRS for p in NOT_EXCEPTIONAL_PAIRS
    )


def test_pair_class_rejects_equal():
    with pytest.raises(ValueError):
        d4_pair_class("s1", "s1")


def test_actions():
    assert SERRE == TYPED_SERRE
    assert KAPPA == TYPED_KAPPA
    assert SERRE["delta"] == "so"
    assert KAPPA["delta"] == "delta"
    assert KAPPA["s1"] == "s2"


def test_action_orders_and_commutation():
    for lbl in LABELS:
        assert SERRE[SERRE[SERRE[lbl]]] == lbl
        assert KAPPA[KAPPA[KAPPA[lbl]]] == lbl
        assert SERRE[KAPPA[lbl]] == KAPPA[SERRE[lbl]]


def test_actions_preserve_pair_classes():
    for perm in (SERRE, KAPPA):
        for a, b in permutations(LABELS, 2):
            assert d4_pair_class(a, b) is d4_pair_class(perm[a], perm[b])


def test_genus0_curve_set():
    curves = [s for s, rank in CENSUS.items() if (rank, len(s)) == (2, 3)]
    assert len(curves) == 15
    for k, ij in [("1", "23"), ("2", "13"), ("3", "12")]:
        assert frozenset((f"s{k}o", "delta", f"s{ij}")) in curves
        assert frozenset((f"s{k}", "so", f"s{k}o")) in curves
        assert frozenset(("s123", f"s{k}", f"s{ij}")) in curves
    for i, j in permutations("123", 2):
        sij = f"s{min(i, j)}{max(i, j)}"
        assert frozenset((f"s{i}", f"s{j}o", sij)) in curves


def test_genus_minus1_curve_set():
    curves = [s for s, rank in CENSUS.items() if (rank, len(s)) == (2, 2)]
    assert len(curves) == 9
    assert set(curves) == {
        frozenset(p) for p in combinations(LABELS, 2)
        if d4_pair_class(*p) is PairClass.ORTHOGONAL
    }
    assert frozenset(("s1", "s2")) in curves
    assert frozenset(("s12", "s23")) in curves


def test_triple_kinds():
    a1 = {x for x in LABELS if triple_kind(x) == "a1cubed"}
    assert a1 == {"delta", "so", "s123"}
    assert sum(1 for x in LABELS if triple_kind(x) == "a3") == 9
    # the rank-3 subcategories are the perps of the points, A3 or A1^3 by
    # size: the census at rank 3, which d4 does not walk, is the oracle for
    # the perps it reads
    triples = {s: "a3" if len(s) == 6 else "a1cubed"
               for s, rank in CENSUS.items() if rank == 3}
    assert triples == {right_orthogonal_points(x): triple_kind(x) for x in LABELS}


def test_triple_generators():
    # d4_enum lists the triples in the label order of the point whose perp
    # they are, each by the generators the oracle picks
    enum = {}
    for kind, name in (("a3", "triples-a3"), ("a1cubed", "triples-a1cubed")):
        perps = [x for x in LABELS if triple_kind(x) == kind]
        got = d4_enum(name)
        assert got == [GenSet(triple_generators(x)) for x in perps]
        enum.update((x, g.generators) for x, g in zip(perps, got))
    assert set(enum["delta"]) == {"s1o", "s2o", "s3o"}
    assert set(enum["so"]) == {"s1", "s2", "s3"}
    assert set(enum["s123"]) == {"s12", "s13", "s23"}
    gens = enum["s3"]
    assert set(gens) <= right_orthogonal_points("s3")
    # generating triples of a1cubed perps are pairwise orthogonal
    for x in ("delta", "so", "s123"):
        g = enum[x]
        for a, b in permutations(g, 2):
            assert total_hom(a, b) == 0


def test_census_is_walked_once_to_rank_2(monkeypatch):
    # every table and every kind of d4_enum reads one walk, to rank 2: the
    # triples are the perps of the points
    ranks = []

    def record(out, into, rank):
        ranks.append(rank)
        return subcategories(out, into, rank)

    d4._census.cache_clear()
    monkeypatch.setattr(d4, "subcategories", record)
    d4_tables()
    for kind in KINDS:
        d4_enum(kind)
    assert ranks == [2]


# explicit representations: leg maps into the centre space, as columns
_LEG_MAPS = {
    # delta has a two-dimensional centre met by three distinct lines
    "delta": {"1": [[1], [0]], "2": [[0], [1]], "3": [[1], [1]]},
}


def _rep(label):
    """(dims per vertex, leg matrices) of the exceptional representation."""
    dims = dict(zip("123o", DIMS[label]))
    mats = {}
    for leg in "123":
        if label == "delta":
            mats[leg] = _LEG_MAPS["delta"][leg]
        elif dims[leg] and dims["o"]:
            mats[leg] = [[1]]
        else:
            mats[leg] = [[0] * dims[leg] for _ in range(dims["o"])]
    return dims, mats


def _rank(rows):
    """Exact rank by fraction-free Gaussian elimination."""
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _hom_dim(x, y):
    """dim Hom(x, y) by solving the intertwiner equations exactly."""
    (dx, mx), (dy, my) = _rep(x), _rep(y)
    # unknowns: phi_v entries, v in 1,2,3,o
    offsets, total = {}, 0
    for v in "123o":
        offsets[v] = total
        total += dx[v] * dy[v]
    rows = []
    for leg in "123":
        # phi_o . Mx_leg = My_leg . phi_leg, one equation per (row, col)
        for i in range(dy["o"]):
            for j in range(dx[leg]):
                row = [0] * total
                for t in range(dx["o"]):  # phi_o[i][t] * mx[t][j]
                    row[offsets["o"] + i * dx["o"] + t] += mx[leg][t][j]
                for s in range(dy[leg]):  # -my[i][s] * phi_leg[s][j]
                    row[offsets[leg] + s * dx[leg] + j] -= my[leg][i][s]
                rows.append(row)
    return total - _rank(rows)


def test_hom_dims_match_linear_algebra():
    # every object has scalar endomorphisms only
    for x in LABELS:
        assert _hom_dim(x, x) == 1, x
    # degree-zero homs equal the positive part of the Euler pairing
    for x, y in permutations(LABELS, 2):
        assert _hom_dim(x, y) == max(euler_form(ARROWS, DIMS[x], DIMS[y]), 0), (x, y)


def test_tables():
    tables = d4_tables()
    assert tables["points"] == {"id": 12, "kappa": 6, "serre": 4, "full": 2}
    assert tables["genus0"] == {"id": 15, "kappa": 5, "serre": 5, "full": 3}
    assert tables["genusMinus1"] == {"id": 9, "kappa": 3, "serre": 3, "full": 1}
    assert tables["triples-A3"] == {"id": 9, "kappa": 3, "serre": 3, "full": 1}
    assert tables["triples-A1cubed"] == {"id": 3, "kappa": 3, "serre": 1, "full": 1}


def test_enum_shapes():
    assert len(d4_enum("points")) == 12
    assert len(d4_enum("genus0")) == 15
    assert len(d4_enum("genus-1")) == 9
    assert len(d4_enum("triples-a3")) == 9
    assert len(d4_enum("triples-a1cubed")) == 3
    a1_triples = {frozenset(g.generators) for g in d4_enum("triples-a1cubed")}
    assert a1_triples == {
        frozenset(("s1o", "s2o", "s3o")),
        frozenset(("s1", "s2", "s3")),
        frozenset(("s12", "s13", "s23")),
    }
    genus0 = set(d4_enum("genus0"))
    for i, j in combinations("123", 2):
        assert GenSet(("delta", f"s{i}{j}")) in genus0


def test_counts_invalid_args():
    with pytest.raises(ValueError):
        d4_count("points", "zeta")
    with pytest.raises(ValueError):
        d4_count("curves", "id")


def test_genset_str():
    # one generator list for every category: it prints str of each generator
    assert str(GenSet(("s1", "so"))) == "<s1,so>"
    assert str(GenSet((Interval(0, 2), Interval(1, 1)))) == "<s0,2,s1,1>"
