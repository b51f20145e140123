import argparse
import ast
import contextlib
import importlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccount import cli
from write_golden import GOLDEN, outcome


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_an_count_anchor(capsys):
    code, doc = run_json(
        capsys, ["an", "count", "--k", "2", "--vertices", "5", "--group", "full"]
    )
    assert code == 0
    assert doc == {"count": "4"}


def test_an_count_id_and_verify(capsys):
    code, doc = run_json(
        capsys, ["an", "count", "--k", "1", "--vertices", "3", "--verify"]
    )
    assert code == 0 and doc == {"count": "6"}
    code, doc = run_json(
        capsys,
        ["an", "count", "--k", "3", "--vertices", "6", "--group", "full", "--verify"],
    )
    assert code == 0 and doc == {"count": "5"}


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("nccount.typea.count_orbits_brute", lambda k, n: 999)
    code = cli.run(
        ["an", "count", "--k", "2", "--vertices", "5", "--group", "full", "--verify"]
    )
    assert code == 1
    assert "verification failed" in capsys.readouterr().err


def test_an_orbits(capsys):
    code, doc = run_json(capsys, ["an", "orbits", "--k", "2", "--vertices", "5"])
    assert code == 0
    assert doc["orbit_count"] == "4"
    total = sum(
        int(row["size"]) * int(row["count"]) for row in doc["orbits_by_size"]
    )
    assert total == 20  # C(6,3)


def test_an_oracles_on_an_empty_sequence_set(capsys):
    # k > N: no sequence, so no orbit, and the oracle agrees with the formula
    code, doc = run_json(capsys, ["an", "orbits", "--k", "5", "--vertices", "3"])
    assert code == 0
    assert doc == {"k": 5, "vertices": 3, "orbit_count": "0", "orbits_by_size": []}
    code, doc = run_json(
        capsys,
        ["an", "count", "--k", "5", "--vertices", "3", "--group", "full", "--verify"],
    )
    assert code == 0 and doc == {"count": "0"}


def test_an_genus(capsys):
    code, doc = run_json(
        capsys, ["an", "genus", "--genus", "-1", "--vertices", "3", "--verify"]
    )
    assert code == 0 and doc == {"count": "2"}
    code, doc = run_json(
        capsys, ["an", "genus", "--genus", "0", "--vertices", "3", "--verify"]
    )
    assert code == 0 and doc == {"count": "4"}
    code, doc = run_json(
        capsys,
        ["an", "genus", "--genus", "0", "--vertices", "4", "--group", "full",
         "--verify"],
    )
    assert code == 0 and doc == {"count": "2"}


@pytest.mark.parametrize("genus", [1, 2])
@pytest.mark.parametrize("group", ["id", "full"])
def test_an_genus_positive_verify(capsys, genus, group):
    # no exceptional pair of interval objects has total hom >= 2
    code, doc = run_json(
        capsys,
        ["an", "genus", "--genus", str(genus), "--vertices", "7", "--group", group,
         "--verify"],
    )
    assert code == 0 and doc == {"count": "0"}


@pytest.mark.parametrize("group", ["id", "full"])
def test_an_genus_verify_mismatch_exits_1(capsys, monkeypatch, group):
    # a scan that finds one pair in one orbit
    monkeypatch.setattr("nccount.typea._hom_census", lambda n, hom: (1, 1))
    code = cli.run(
        ["an", "genus", "--genus", "1", "--vertices", "5", "--group", group,
         "--verify"]
    )
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "verification failed for an genus: formula=0, oracle=1" in captured.err


@pytest.mark.parametrize("group, formula, oracle", [("id", 30, 12), ("full", 6, 2)])
def test_an_genus_minus1_verify_mismatch_exits_1(
    capsys, monkeypatch, group, formula, oracle
):
    # a 4-subset stream of one class of size n+2 = 6: 12 pairs in 2 orbits
    monkeypatch.setattr("nccount.typea.orbit_sizes", lambda n, k: iter([n + 2]))
    code = cli.run(
        ["an", "genus", "--genus", "-1", "--vertices", "5", "--group", group,
         "--verify"]
    )
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert (
        f"verification failed for an genus: formula={formula}, oracle={oracle}"
        in captured.err
    )


@pytest.mark.parametrize(
    "argv, size",
    [
        ("an count --k 10 --vertices 30 --group full --verify", 84672315),
        ("an count --k 10 --vertices 30 --verify", 84672315),
        ("an orbits --k 10 --vertices 30", 84672315),
        ("an genus --genus 0 --vertices 200 --verify", 1333300),
        ("an genus --genus 1 --vertices 60 --group full --verify", 3348900),
        ("an genus --genus -1 --vertices 71 --group full --verify", 1028790),
        # graphs: the ordered vertex pairs, counted before the category is
        # built (a1000 would take gigabytes); a44, 990^2 pairs, is admitted
        ("an graph --vertices 45", 1071225),
        ("an graph --vertices 1000 --format plain", 250500250000),
        ("sc --category a45 --max-dim 1", 1071225),
        ("graph --category q1 --window 1000000", 4000008000004),
        ("graph --category np3 --window 1001 --format dot", 1002001),
        ("affine graph --quiver q2 --window 250", 1008016),
        ("affine graph --quiver q2 --kind curves --window 100", 1016064),
    ],
)
def test_oversized_enumeration_exits_2(capsys, argv, size):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "refusing to enumerate" in captured.err and f"= {size};" in captured.err
    # without --verify the closed form still answers
    if "--verify" in argv:
        argv = argv.replace(" --verify", "")
        assert cli.run(argv.split()) == 0


def test_necklace_count(capsys):
    code, doc = run_json(capsys, ["necklace", "count", "--m", "6", "--s", "3"])
    assert code == 0 and doc == {"count": "4"}
    # Burnside alone answers by default
    code, doc = run_json(capsys, ["necklace", "count", "--m", "25", "--s", "3"])
    assert code == 0 and doc == {"count": "92"}  # C(25, 3) / 25


def test_necklace_verify(capsys):
    code, doc = run_json(
        capsys, ["necklace", "count", "--m", "12", "--s", "4", "--verify"]
    )
    assert code == 0 and doc == {"count": "43"}
    with pytest.raises(SystemExit) as exc:
        cli.run(["necklace", "count", "--m", "40", "--s", "20", "--verify"])
    assert exc.value.code == 2
    assert "C(40, 20)/40 necklaces = 3446163220;" in capsys.readouterr().err
    code, doc = run_json(
        capsys, ["necklace", "count", "--m", "25", "--s", "3", "--verify"]
    )
    assert code == 0 and doc == {"count": "92"}
    # s near m is enumerated as its complement, m - s parts deep, not s
    for s, count in (("1000", "1"), ("999", "1"), ("998", "500")):
        code, doc = run_json(
            capsys, ["necklace", "count", "--m", "1000", "--s", s, "--verify"]
        )
        assert code == 0 and doc == {"count": count}


def test_necklace_verify_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        "nccount.necklace.count_subgon_classes_brute", lambda m, s: 999
    )
    assert cli.run(["necklace", "count", "--m", "6", "--s", "3"]) == 0
    capsys.readouterr()
    code = cli.run(["necklace", "count", "--m", "6", "--s", "3", "--verify"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "verification failed for necklace count" in captured.err
    assert "formula=4, oracle=999" in captured.err


def test_d4_table(capsys):
    code, doc = run_json(capsys, ["d4", "table"])
    assert code == 0
    assert doc["points"] == {"id": "12", "kappa": "6", "serre": "4", "full": "2"}
    assert doc["genus0"] == {"id": "15", "kappa": "5", "serre": "5", "full": "3"}
    assert doc["genusMinus1"] == {"id": "9", "kappa": "3", "serre": "3", "full": "1"}
    assert doc["triples-A3"] == {"id": "9", "kappa": "3", "serre": "3", "full": "1"}
    assert doc["triples-A1cubed"] == {"id": "3", "kappa": "3", "serre": "1", "full": "1"}


def test_d4_enum(capsys):
    code, doc = run_json(capsys, ["d4", "enum", "--kind", "triples-a1cubed"])
    assert code == 0
    assert len(doc["subcategories"]) == 3


def test_affine_count_infinite(capsys):
    code, doc = run_json(
        capsys,
        ["affine", "count", "--quiver", "q2", "--kind", "genus0", "--group", "id"],
    )
    assert code == 0 and doc == {"count": "infinite"}
    code, doc = run_json(
        capsys,
        ["affine", "count", "--quiver", "q1", "--kind", "genus0", "--group", "serre"],
    )
    assert code == 0 and doc == {"count": "3"}


@pytest.mark.parametrize("kind", ["triples-a3", "triples-q1"])
def test_affine_count_names_a_missing_kind_as_its_option(capsys, kind):
    # q1 has neither triple kind; the refusal spells the kind as typed
    with pytest.raises(SystemExit) as exc:
        cli.run(["affine", "count", "--quiver", "q1", "--kind", kind])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: no kind {kind!r} for q1\n")


def test_kind_choices_are_the_library_kinds():
    # the command table lists its choices without importing a backend, so
    # this is what keeps them the kinds d4 and affine name
    from nccount import affine, d4

    def choices(path):
        return cli._COMMANDS[path][1]["--kind"]["choices"]

    assert choices(("d4", "enum")) == tuple(d4.KINDS)
    assert set(choices(("affine", "count"))) == {kind for _, kind in affine._FAMILIES}


def test_markov_table(capsys):
    code, doc = run_json(capsys, ["markov", "table", "--limit", "200"])
    assert code == 0
    assert [r["m"] for r in doc["rows"]] == [
        "1", "2", "5", "13", "29", "34", "89", "169", "194",
    ]
    assert [r["count"] for r in doc["rows"]] == [
        "1", "1", "2", "2", "2", "2", "2", "2", "2",
    ]
    assert all(int(r["serre_count"]) == 3 * int(r["count"]) for r in doc["rows"])


def test_markov_slopes(capsys):
    code, doc = run_json(capsys, ["markov", "slopes"])
    assert code == 0
    assert doc["slopes"] == [
        "0/1", "1/2", "2/5", "5/13", "12/29", "13/34", "34/89", "70/169", "75/194",
    ]



def _fraction_slopes_doc(max_rank):
    """The markov slopes document as the Fractions of exceptional_slopes
    give it, sorted by rank and then numerator."""
    from nccount.markov import exceptional_slopes

    slopes = sorted(exceptional_slopes(max_rank),
                    key=lambda mu: (mu.denominator, mu.numerator))
    return {"slopes": [f"{mu.numerator}/{mu.denominator}" for mu in slopes],
            "ranks": [str(mu.denominator) for mu in slopes]}


def test_markov_slopes_is_the_fraction_document_without_fractions():
    # the call formats the integer residues c/r, which are coprime, so it
    # writes the document the library's Fractions give without loading
    # fractions (or the decimal module that fractions imports)
    probe = ("import sys; from nccount import cli; code = cli.run(sys.argv[1:]); "
             "print(code, 'fractions' in sys.modules, file=sys.stderr)")
    src = Path(cli.__file__).resolve().parents[1]
    for max_rank in (1, 2, 194, 5000, 10**20):
        out = subprocess.run(
            [sys.executable, "-c", probe, "markov", "slopes", "--max-rank", str(max_rank)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        )
        assert out.stderr == "0 False\n"
        assert json.loads(out.stdout) == _fraction_slopes_doc(max_rank)

def test_markov_tyurin(capsys):
    code, doc = run_json(capsys, ["markov", "tyurin", "--verify"])
    assert code == 0
    assert doc["all_ok"] is True


def test_markov_tyurin_verify_to_1e30(capsys):
    code, doc = run_json(
        capsys, ["markov", "tyurin", "--max-rank", str(10**30), "--verify"]
    )
    assert code == 0
    assert doc["all_ok"] is True and len(doc["rows"]) == 891


@pytest.mark.parametrize(
    "change, message",
    [
        ({13: 4}, "markov tyurin at m=13: formula=2, oracle=4"),
        ({7: 2}, "markov tyurin at m=7: formula=0, oracle=2"),
    ],
    ids=["count", "extra-rank"],
)
def test_markov_tyurin_verify_mismatch_exits_1(capsys, monkeypatch, change, message):
    from nccount import markov

    closure_counts = markov.closure_counts
    monkeypatch.setattr(
        markov, "closure_counts", lambda r: {**closure_counts(r), **change}
    )
    assert cli.run(["markov", "tyurin", "--max-rank", "200"]) == 0
    capsys.readouterr()
    assert cli.run(["markov", "tyurin", "--max-rank", "200", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"verification failed for {message}" in captured.err


def test_markov_tyurin_verify_fails_with_its_document(capsys, monkeypatch):
    # a Markov number of count 3 that the closure confirms: the scan reports
    # it in its document, which is written, and --verify exits 1
    from nccount import markov

    for name in ("rank_counts", "closure_counts"):
        counts = getattr(markov, name)
        monkeypatch.setattr(markov, name, lambda r, f=counts: {**f(r), 13: 3})
    argv = ["markov", "tyurin", "--max-rank", "200"]
    assert cli.run(argv) == 0
    plain = capsys.readouterr()
    assert cli.run([*argv, "--verify"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (plain.out, "")
    doc = json.loads(captured.out)
    assert doc["all_ok"] is False
    assert {"m": "13", "count": "3", "ok": False} in doc["rows"]


@pytest.mark.parametrize(
    "argv, size",
    [
        ("markov tree --limit 10^999", "an estimated 957142 Markov triples"),
        ("markov table --limit 10^400", "an estimated 153669 Markov triples"),
        ("markov tyurin --max-rank 10^400", "an estimated 153669 Markov triples"),
        ("markov slopes --max-rank 10^140", "an estimated 113448 closure triples"),
        ("markov tyurin --max-rank 10^140 --verify",
         "an estimated 113448 closure triples"),
        ("necklace count --m 20000 --s 10000", "C(20000, 10000)/20000 necklaces"),
        ("necklace count --m 1000000 --s 500000",
         "the count has more than 4300 digits"),
    ],
)
def test_oversized_markov_and_necklace_exit_2(capsys, argv, size):
    # refused up front, with the estimated size, and no exception escapes
    argv = [str(10 ** int(a[3:])) if a.startswith("10^") else a for a in argv.split()]
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "refusing to" in captured.err and size in captured.err


def test_markov_tree(capsys):
    code, doc = run_json(capsys, ["markov", "tree", "--limit", "30"])
    assert code == 0
    assert ["1", "1", "1"] in doc["triples"]
    assert ["2", "5", "29"] in doc["triples"]


def test_graph_commands(capsys):
    code, doc = run_json(capsys, ["an", "graph", "--vertices", "3"])
    assert code == 0
    assert len(doc["vertices"]) == 6
    code = cli.run(["d4", "graph", "--kind", "curves", "--format", "dot"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("digraph G {")
    code, doc = run_json(
        capsys, ["affine", "graph", "--quiver", "q2", "--window", "3"]
    )
    assert code == 0
    assert doc["category"] == "q2"


def test_generic_graph_command(capsys):
    code, doc = run_json(capsys, ["graph", "--category", "np2", "--window", "4"])
    assert code == 0
    assert len(doc["vertices"]) == 4
    assert all(e["weight"] == 3 for e in doc["edges"])
    code = cli.run(["graph", "--category", "np-1", "--format", "dot"])
    out = capsys.readouterr().out
    assert code == 0 and "[dir=both]" in out
    with pytest.raises(SystemExit) as exc:
        cli.run(["graph", "--category", "np3"])  # window required
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--category", "a4", "--window", "3"],
        ["sc", "--category", "d4", "--window", "2"],
        ["graph", "--category", "np0", "--window", "3"],
    ],
)
def test_window_rejected_where_unused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[2]} takes no window" in captured.err


@pytest.mark.parametrize("name", ["a03", "np01", "np-01", "a1١", "np1١"])
def test_leading_zero_category_exits_2(capsys, name):
    # a3, np1, a11 and np11 have one name each: no leading zeros, and ASCII
    # digits only, though int() also reads the Arabic-Indic one
    for argv in (["graph", "--category", name], ["sc", "--category", name]):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown category '{name}'" in captured.err


def test_incidence_command(capsys):
    code, doc = run_json(capsys, ["incidence", "--category", "d4"])
    assert code == 0
    assert len(doc["points"]) == 12 and len(doc["lines"]) == 15


def test_sc_command(capsys):
    code, doc = run_json(capsys, ["sc", "--category", "a3", "--max-dim", "2"])
    assert code == 0
    assert doc["counts_by_dim"]["0"] == 6


def test_plain_format(capsys):
    code = cli.run(
        ["an", "count", "--k", "2", "--vertices", "5", "--group", "full",
         "--format", "plain"]
    )
    out = capsys.readouterr().out
    assert code == 0 and out == "count\t4\n"


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.run(["an", "count", "--k", "2"])  # missing --vertices
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run(["markov", "destroy"])
    assert exc.value.code == 2
    # domain errors surface as usage errors too
    with pytest.raises(SystemExit) as exc:
        cli.run(["an", "count", "--k", "0", "--vertices", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("k, vertices", [(0, 3), (1, 0)])
def test_an_orbits_rejects_bad_domain(capsys, k, vertices):
    with pytest.raises(SystemExit) as exc:
        cli.run(["an", "orbits", "--k", str(k), "--vertices", str(vertices)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need k >= 1 and vertices >= 1" in captured.err


@pytest.mark.parametrize("vertices", [0, -3])
@pytest.mark.parametrize("genus", [-1, 0, 1])
def test_an_genus_rejects_bad_vertices(capsys, genus, vertices):
    with pytest.raises(SystemExit) as exc:
        cli.run(["an", "genus", "--genus", str(genus), "--vertices", str(vertices)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need vertices >= 1" in captured.err


@pytest.mark.parametrize(
    "genus, group", [(0, "id"), (-1, "id"), (-1, "full")],
)
def test_an_genus_refuses_a_count_too_long_to_print(capsys, genus, group):
    # C(N+1, 3) and the genus -1 counts at N = 10^1500 pass the digit limit
    vertices = 10**1500
    with pytest.raises(SystemExit) as exc:
        cli.run(["an", "genus", "--genus", str(genus), "--vertices", str(vertices),
                 "--group", group])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"refusing to count genus {genus} curves: the count has" in captured.err


def test_an_genus_answers_a_long_count_that_prints(capsys):
    # about N^2/6, some 3,000 digits: under the digit limit
    n = 10**1500 - 1
    code, doc = run_json(
        capsys, ["an", "genus", "--genus", "0", "--vertices", str(n + 1), "--group", "full"]
    )
    assert code == 0
    assert doc == {"count": str((n + 1) * n // 6)}


def test_cli_import_leaves_numpy_out():
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import sys, nccount.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "False\n"


# the exit code of a call (of building the parser, without argv) and the
# nccount modules it has loaded, with argparse, which only help and errors
# need, fractions (and the decimal module it imports), which no call needs,
# and json, which only JSON output needs
STARTUP_PROBE = """
import contextlib, io, sys
import nccount.cli as cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        if sys.argv[1:]:
            code = cli.run(sys.argv[1:])
        else:
            cli.build_parser()
            code = 0
    except SystemExit as exc:
        code = exc.code
watched = ("argparse", "fractions", "json")
print(code, sorted(m for m in sys.modules
                   if m.startswith("nccount") or m in watched))
"""


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        ([], 0, ["argparse"]),
        (["an", "count", "--help"], 0, ["argparse"]),
        (["an", "count", "--k", "2"], 2, ["argparse"]),
        # the Markov tree and the mutation closure are closures of arith
        (["markov", "table", "--format", "plain"], 0, ["nccount.arith", "nccount.markov"]),
        (["markov", "slopes", "--format", "plain"], 0,
         ["nccount.arith", "nccount.markov"]),
        (["an", "count", "--k", "2", "--vertices", "5"], 0,
         ["json", "nccount.arith", "nccount.interval", "nccount.typea"]),
        (["an", "count", "--k", "2", "--vertices", "5", "--format", "plain"], 0,
         ["nccount.arith", "nccount.interval", "nccount.typea"]),
        # the orbit census reads the necklace stream
        (["an", "orbits", "--k", "2", "--vertices", "5"], 0,
         ["json", "nccount.arith", "nccount.interval", "nccount.necklace",
          "nccount.typea"]),
        # A_N graphs and complexes need the interval objects, not the
        # counting in typea, and plain output needs no json
        (["graph", "--category", "a7", "--format", "plain"], 0,
         ["nccount.arith", "nccount.category", "nccount.census", "nccount.digraph",
          "nccount.interval"]),
        (["sc", "--category", "a5", "--format", "plain"], 0,
         ["nccount.arith", "nccount.category", "nccount.census", "nccount.digraph",
          "nccount.interval"]),
        (["an", "graph", "--vertices", "5"], 0,
         ["json", "nccount.arith", "nccount.category", "nccount.census",
          "nccount.digraph", "nccount.interval"]),
        # the d4 kinds and the incidence lines are read off the census,
        # without the graph layer, and d4 without the registry; only d4
        # reads quiver, for its roots
        (["incidence", "--category", "a3", "--format", "plain"], 0,
         ["nccount.arith", "nccount.category", "nccount.census", "nccount.incidence",
          "nccount.interval"]),
        (["incidence", "--category", "d4", "--format", "plain"], 0,
         ["nccount.arith", "nccount.category", "nccount.census", "nccount.d4",
          "nccount.incidence", "nccount.quiver"]),
        (["d4", "table"], 0,
         ["json", "nccount.arith", "nccount.census", "nccount.d4", "nccount.quiver"]),
        (["d4", "enum", "--kind", "genus0", "--format", "plain"], 0,
         ["nccount.arith", "nccount.census", "nccount.d4", "nccount.quiver"]),
    ],
    ids=["parser", "help", "usage-error", "markov-table", "markov-slopes", "an-count",
         "an-count-plain", "an-orbits", "graph-a7-plain", "sc-a5-plain", "an-graph-json",
         "incidence-a3-plain", "incidence-d4-plain", "d4-table", "d4-enum-plain"],
)
def test_startup_imports(argv, code, loaded):
    # each call loads only the backend its subcommand needs, the parser none;
    # a call that succeeds never loads argparse, only help and errors do
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == f"{code} {sorted(['nccount', 'nccount.cli', *loaded])}\n"


def _package_imports():
    """(module, the package modules it imports) for each module of nccount,
    from its top-level and in-function import statements alike."""
    src = Path(cli.__file__).parent
    modules = {"nccount"} | {f"nccount.{py.stem}" for py in src.glob("*.py")}
    for py in sorted(src.glob("*.py")):
        module = "nccount" if py.stem == "__init__" else f"nccount.{py.stem}"
        imported = set()
        for node in ast.walk(ast.parse(py.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "nccount" if node.level else node.module
                if node.module and node.level:
                    base += f".{node.module}"
                names = [base, *(f"{base}.{a.name}" for a in node.names)]
            else:
                continue
            imported.update(n for n in names if n in modules and n != module)
        yield module, imported


def test_handlers_live_in_the_backends():
    # the table names each leaf's handler by backend module and function,
    # and no module of the package imports the CLI back
    for path, (_, _, fixed) in cli._COMMANDS.items():
        module, name = fixed["func"]
        assert module != "cli", path
        assert callable(getattr(importlib.import_module(f"nccount.{module}"), name))
    for module, imported in _package_imports():
        assert "nccount.cli" not in imported, module


def test_package_imports_are_acyclic():
    # no module imports, even inside a function, one that imports it back:
    # no module reaches itself along the import graph
    graph = dict(_package_imports())

    def reach(module):
        seen, todo = set(), [module]
        while todo:
            for m in graph[todo.pop()] - seen:
                seen.add(m)
                todo.append(m)
        return seen

    assert [m for m in graph if m in reach(m)] == []


@pytest.mark.parametrize(
    "argv",
    [["graph", "--category", "q2", "--window", "3"],
     ["necklace", "count", "--m", "12", "--s", "4"]],
    ids=["graph-q2", "necklace-count"],
)
def test_brute_force_cap_leaves_typea_out(argv):
    # the cap lives in arith, so calls off the A_N backend never load typea
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert "nccount.arith" in out and "nccount.typea" not in out


def test_deterministic_output(capsys):
    cli.run(["d4", "graph", "--format", "json"])
    first = capsys.readouterr().out
    cli.run(["d4", "graph", "--format", "json"])
    assert capsys.readouterr().out == first


# every CLI call of tests/golden.json answers as recorded: the same exit
# code and the same bytes on stdout and stderr (tests/write_golden.py writes
# the file); run in the reverse of the order they were written, so that an
# answer depending on a process cache (d4._census, affine._spans) filled by
# an earlier call shows
GOLDEN_ENTRIES = json.loads(GOLDEN.read_text())[::-1]


@pytest.mark.parametrize(
    "entry", GOLDEN_ENTRIES,
    ids=[f"{' '.join(e['argv'])}-{e.get('stdout', e['exit'])}" for e in GOLDEN_ENTRIES],
)
def test_golden_stdout(entry):
    assert outcome(entry["argv"]) == entry


CATEGORY_NAMES = (
    [f"a{n}" for n in range(-1, 8)] + ["d4", "q1", "q2"]
    + [f"np{l}" for l in range(-2, 5)] + ["b3", "a03", "np01", "np-01"]
)


# the whole argparse tree, built once
PARSER = cli.build_parser()


def _subparser(path):
    parser = PARSER
    for name in path:
        (sub,) = (a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


def _commands(path=()):
    """The argv prefix of every subcommand, from the parser itself."""
    subs = [a for a in _subparser(path)._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [path]
    return [leaf for name in subs[0].choices for leaf in _commands((*path, name))]


COMMANDS = _commands()


@st.composite
def command_argv(draw):
    """An argv of one subcommand, its options drawn from the parser's own
    choices, the category names and small or edge integers."""
    path = draw(st.sampled_from(COMMANDS))
    argv = list(path)
    for action in _subparser(path)._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if not action.required and draw(st.booleans()):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:  # --verify
            argv.append(flag)
            continue
        if action.choices is not None:
            value = draw(st.sampled_from(list(action.choices)))
        elif flag == "--category":
            value = draw(st.sampled_from(CATEGORY_NAMES))
        elif flag == "--max-dim":
            value = draw(st.integers(-2, 4))
        else:
            value = draw(st.integers(-2, 8))
        argv += [flag, str(value)]
    return argv


@settings(deadline=None, max_examples=150)
@given(command_argv())
def test_commands_answer_or_refuse(argv):
    # 0 with an answer, 1 on a verify mismatch, 2 on a usage error; any
    # other exception, such as a handler's missing import, escapes run
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code != 1:
        assert (code == 0) == (out.getvalue() != ""), argv


# --- the direct parse of a call against the argparse tree --------------------

# the top level, every group and every leaf
LEVELS = sorted({path[:i] for path in COMMANDS for i in range(len(path) + 1)})


def _parse(argv):
    """What argparse makes of argv: the namespace or the exit code, with the
    text written to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(PARSER.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _same_parse(argv):
    """Whether the direct parse read argv; where it did, argparse parses
    argv to the same namespace and writes nothing."""
    direct, (result, out, err) = cli._parse_call(argv), _parse(argv)
    if direct is not None:
        assert (vars(direct), out, err) == (result, "", ""), argv
    return direct is not None, isinstance(result, dict)


def test_levels_cover_the_tree():
    assert len(LEVELS) == 1 + 5 + len(COMMANDS)  # top, five groups, the leaves
    assert ("an", "count") in LEVELS and ("sc",) in LEVELS


@settings(deadline=None, max_examples=150)
@given(command_argv())
def test_call_parser_parses_as_the_whole_tree(argv):
    # the direct parse reads every well-formed call that argparse parses
    direct, parsed = _same_parse(argv)
    assert direct == parsed, argv


@pytest.mark.parametrize("path", LEVELS, ids=lambda p: " ".join(p) or "top")
def test_call_parser_help_and_errors(path):
    # help, a bad subcommand or option value, a missing or stray argument are
    # argparse's alone; a leaf that needs no option is read directly
    for tail in (["--help"], ["-h", "x"], [], ["bogus"], ["--bogus"],
                 ["--format", "xml"], ["--", "bogus"]):
        direct, parsed = _same_parse([*path, *tail])
        assert direct == parsed, [*path, *tail]


@pytest.mark.parametrize(
    "argv",
    [["-1", "an"], ["", "an"], ["-", "an"], ["--", "an", "count"],
     ["--bogus", "an", "count", "--k", "2", "--vertices", "4"],
     ["an", "-h", "count"], ["an", "count", "--k", "2", "--ver", "4"],
     ["an", "count", "--k=2", "--vertices", "4"],
     ["an", "count", "--k", "2", "--k", "3", "--vertices", "4"],
     ["an", "count", "--k", "2", "--vertices", "4", "stray"],
     ["an", "count", "--verify", "1", "--k", "2", "--vertices", "4"],
     ["an", "count", "--k", "--vertices", "4"],
     ["an", "count", "--k", "2", "--vertices"],
     ["an", "count", "--k", "x", "--vertices", "4"],
     ["an", "count", "--k", "-.5", "--vertices", "4"],
     ["an", "count", "--k", "-1e5", "--vertices", "4"],
     ["an", "count", "--k", "2", "--vertices", "4", "--group", "all"],
     ["an", "graph", "--vertices", "x"], ["graph", "--category", "-1.5"],
     ["graph", "an", "--category", "a3"], ["d4", "table", "--k", "2"]],
)
def test_call_parser_on_odd_words(argv):
    # words before the subcommand that argparse reads as options or as a bad
    # subcommand, abbreviations, `--flag=value`, repeated flags, stray words,
    # values that do not convert or are not a choice, missing values: all are
    # left to argparse, whether or not it parses them
    assert _same_parse(argv)[0] is False


@pytest.mark.parametrize(
    "argv", [["an", "count", "--k", "0", "--vertices", "3"],
             ["an", "count", "--k", "0", "--vert", "3"]],
    ids=["direct", "argparse"],
)
def test_a_handler_error_ends_alike_whichever_parser_ran(capsys, monkeypatch, argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err == "error: need k >= 1 and vertices >= 1\n"
    # with stderr closed the message is skipped, as ArgumentParser.exit does
    monkeypatch.setattr(sys, "stderr", None)
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2


# --- main: the process exit --------------------------------------------------

NORMAL_EXIT = "import sys; from nccount import cli; sys.exit(cli.run(sys.argv[1:]))"


def _python(args, env=(), **kwargs):
    """Run the interpreter on args with this checkout's nccount, block-
    buffered stdout, the default outside a terminal, and the variables env."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | dict(env)
    env["PYTHONPATH"] = str(src)
    return subprocess.run([sys.executable, *args], env=env, stderr=subprocess.PIPE,
                          **kwargs)


@pytest.mark.parametrize(
    "argv",
    # a 23 MB document, and outputs that end in the stdout buffer
    ["an graph --vertices 40 --format json", "an count --k 2 --vertices 5",
     "graph --category a7 --format dot"],
)
def test_main_writes_what_run_writes(capsys, argv):
    argv = argv.split()
    assert cli.run(argv) == 0
    expected = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    r = _python(["-m", "nccount.cli", *argv], stdout=subprocess.PIPE)
    assert (r.returncode, r.stderr) == (0, b"")
    assert hashlib.sha256(r.stdout).hexdigest() == expected


def test_main_exits_1_on_a_verify_mismatch():
    probe = ("from nccount import cli, typea; "
             "typea.count_id_brute = lambda k, vertices: -1; cli.main()")
    r = _python(["-c", probe, "an", "count", "--k", "2", "--vertices", "5", "--verify"],
                stdout=subprocess.PIPE)
    assert (r.returncode, r.stdout) == (1, b"")
    assert r.stderr == b"verification failed for an count: formula=20, oracle=-1\n"


def test_main_exits_2_on_a_usage_error():
    r = _python(["-m", "nccount.cli", "an", "count", "--k", "2"], stdout=subprocess.PIPE)
    assert (r.returncode, r.stdout) == (2, b"")
    assert r.stderr.endswith(b"error: the following arguments are required: --vertices\n")


@pytest.mark.parametrize(
    "argv, code, text",
    [
        # one class, or one orbit, answered before a divisor sum factors m
        (f"necklace count --m {10**16} --s {10**16}", 0, '"count": "1"'),
        (f"necklace count --m {10**30} --s {10**30}", 0, '"count": "1"'),
        (f"an count --k {10**30} --vertices {10**30} --group full", 0, '"count": "1"'),
        # counts too long to print, refused before they are computed
        ("an count --k 5000000 --vertices 10000000", 2,
         "refusing to count C(10000001, 5000001) subcategories: the count has more"),
        ("an count --k 500000 --vertices 1000000 --group full", 2,
         "refusing to count C(1000001, 500001)/1000001 Serre orbits: the count has"),
        # brute-force walks too large to print their size, refused before
        # the binomial is built, and one whose printable size is refused
        ("an orbits --k 5000000 --vertices 10000000", 2,
         "refusing to count C(10000001, 5000001) sequences: the count has more"),
        (f"necklace count --m {10**30} --s 7 --verify", 2,
         f"refusing to enumerate C({10**30}, 7)/{10**30} necklaces = 19841269841"),
    ],
)
def test_huge_arguments_answer_or_refuse_at_once(argv, code, text):
    r = _python(["-m", "nccount.cli", *argv.split()], stdout=subprocess.PIPE,
                timeout=5)
    assert r.returncode == code
    assert text.encode() in (r.stdout if code == 0 else r.stderr)
    assert (r.stderr if code == 0 else r.stdout) == b""


@pytest.mark.parametrize(
    "argv",
    # counts of about 3*10^11 and 300,000 digits, which arith.MAX_DIGITS
    # refuses where the interpreter's limit is lifted
    ["necklace count --m 1000000000000 --s 500000000000",
     "an count --k 500000 --vertices 1000000 --group full"],
)
def test_counts_past_the_digit_cap_are_refused_with_the_limit_lifted(argv):
    r = _python(["-m", "nccount.cli", *argv.split()], {"PYTHONINTMAXSTRDIGITS": "0"},
                stdout=subprocess.PIPE, timeout=10)
    assert (r.returncode, r.stdout) == (2, b"")
    assert b"the count has more than 4300 digits" in r.stderr


def _closed_pipe():
    """The write end of a pipe whose reader has gone, as after `| true`."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize(
    "argv",
    ["graph --category a3", "sc --category a3 --format plain",
     "incidence --category a3 --format json"],
)
def test_streamed_writers_write_nothing_to_a_closed_stdout(argv):
    # graph, sc and incidence JSON stream through the one writer, which
    # skips a closed stdout as print does: nothing written, exit 0
    argv = argv.split()
    for args in (["-m", "nccount.cli", *argv], ["-c", NORMAL_EXIT, *argv]):
        r = _python(args, preexec_fn=lambda: os.close(1))
        assert (r.returncode, r.stderr) == (0, b""), args


@pytest.mark.parametrize("sink", ["full", "closed-pipe", "no-stdout"])
def test_main_ends_a_failed_or_missing_stdout_as_the_normal_exit(sink):
    # output that fails only when flushed at the end takes the normal exit,
    # and so ends as it always has: 120 and one "Exception ignored" block;
    # with stdout closed there is no stream to flush, and the call succeeds
    if sink == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    argv = ["an", "count", "--k", "2", "--vertices", "5"]
    results = []
    for args in (["-m", "nccount.cli", *argv], ["-c", NORMAL_EXIT, *argv]):
        if sink == "full":
            with open("/dev/full", "wb") as out:
                r = _python(args, stdout=out)
        elif sink == "closed-pipe":
            out = _closed_pipe()
            try:
                r = _python(args, stdout=out)
            finally:
                os.close(out)
        else:
            r = _python(args, preexec_fn=lambda: os.close(1))
        results.append((r.returncode, r.stderr))
    assert results[0] == results[1]
    if sink == "no-stdout":
        assert results[0] == (0, b"")
    else:
        code, err = results[0]
        assert code == 120 and err.startswith(b"Exception ignored in: <_io.TextIOWrapper")


def _readme_examples():
    """The `nccount ...` lines of the README's CLI block, each as (argv,
    the document its `# {...}` comment shows, or None)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        call, _, comment = line.partition("#")
        if call.startswith("nccount "):
            yield call.split()[1:], json.loads(comment) if comment.strip() else None


README_EXAMPLES = list(_readme_examples())


@pytest.mark.parametrize("argv, doc", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_examples_run(capsys, argv, doc):
    # every example of the README's CLI block succeeds, and prints the
    # document its comment shows
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    if doc is not None:
        assert json.loads(out) == doc

