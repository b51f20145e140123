import argparse
import contextlib
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


@pytest.mark.parametrize(
    "group, name, fake",
    [("id", "exceptional_pairs", lambda n, hom: [0]),
     ("full", "pair_orbits", lambda n, hom: [[0]])],
)
def test_an_genus_verify_mismatch_exits_1(capsys, monkeypatch, group, name, fake):
    monkeypatch.setattr(f"nccount.typea.{name}", fake)
    code = cli.run(
        ["an", "genus", "--genus", "1", "--vertices", "5", "--group", group,
         "--verify"]
    )
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "verification failed for an genus: formula=0, oracle=1" in captured.err


@pytest.mark.parametrize(
    "argv, size",
    [
        ("an count --k 10 --vertices 30 --group full --verify", 84672315),
        ("an count --k 10 --vertices 30 --verify", 84672315),
        ("an orbits --k 10 --vertices 30", 84672315),
        ("an genus --genus 0 --vertices 200 --verify", 1333300),
        ("an genus --genus 1 --vertices 60 --group full --verify", 3348900),
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


@pytest.mark.parametrize("name", ["a03", "np01", "np-01"])
def test_leading_zero_category_exits_2(capsys, name):
    # a3 and np1 have one name each
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


def test_cli_import_leaves_numpy_out():
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import sys, nccount.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "False\n"


# the nccount modules a call has loaded, with fractions (and the decimal
# module it imports), which only the slopes need, and json, which only JSON
# output needs
STARTUP_PROBE = """
import contextlib, io, sys
import nccount.cli as cli
cli.build_parser()
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(sys.argv[1:]) == 0
print(sorted(m for m in sys.modules
             if m.startswith("nccount") or m in ("fractions", "json")))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], []),
        (["markov", "table", "--format", "plain"], ["nccount.markov"]),
        (["markov", "slopes", "--format", "plain"], ["fractions", "nccount.markov"]),
        (["an", "count", "--k", "2", "--vertices", "5"],
         ["json", "nccount.arith", "nccount.interval", "nccount.typea"]),
        (["an", "count", "--k", "2", "--vertices", "5", "--format", "plain"],
         ["nccount.arith", "nccount.interval", "nccount.typea"]),
        # A_N graphs and complexes need the interval objects, not the
        # counting in typea, and plain output needs no json
        (["graph", "--category", "a7", "--format", "plain"],
         ["nccount.arith", "nccount.category", "nccount.digraph", "nccount.interval"]),
        (["sc", "--category", "a5", "--format", "plain"],
         ["nccount.arith", "nccount.category", "nccount.digraph", "nccount.interval"]),
        (["an", "graph", "--vertices", "5"],
         ["json", "nccount.arith", "nccount.category", "nccount.digraph",
          "nccount.interval"]),
        (["incidence", "--category", "a3", "--format", "plain"],
         ["nccount.arith", "nccount.category", "nccount.incidence", "nccount.interval",
          "nccount.quiver"]),
    ],
    ids=["parser", "markov-table", "markov-slopes", "an-count", "an-count-plain",
         "graph-a7-plain", "sc-a5-plain", "an-graph-json", "incidence-a3-plain"],
)
def test_startup_imports(argv, loaded):
    # each call loads only the backend its subcommand needs, the parser none
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == f"{sorted(['nccount', 'nccount.cli', *loaded])}\n"


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


# sha256 of stdout, each with exit code 0, for one small call per graph
# builder and per orbit-partition caller; any change to these outputs is a
# change of behaviour, not a refactor
GOLDEN_STDOUT = [
    ("an graph --vertices 6 --format json",
     "2ad8427e7b7e1de03e98cc27a6e5e7aa8a65fc2895998997b07b4ee37a512100"),
    ("d4 graph --kind curves",
     "0bb0153c6840b83bc15108908904c67305bbdd792dc2537287e528a22737e016"),
    ("affine graph --quiver q2 --kind curves --window 3",
     "5c2fb08a3f6736280680e7c30aa9013e044efa522147a7ab5dec0217ed53a74a"),
    ("graph --category q1 --window 4 --format dot",
     "032bfcfcc5bd2fefb9512060fb4eec8d745bce6da3f994d405dde320b4179351"),
    ("sc --category d4 --max-dim 6",
     "3e75ad4322f831c3139f893d20709e9e3b38d2a77c294e2c3613b4076ab37d82"),
    ("an orbits --k 3 --vertices 9",
     "1629722f2120778550b78ad97500f8202c70d5181234d7a441b55d411eabec17"),
    ("d4 table",
     "d2478f2255fcd5a96bccb83826f2270eb1bc72f98269f0e66158fa17f8febf33"),
    ("affine count --quiver q2 --kind genus-1 --group full",
     "53fd66ae465aa5af1d0c07587a4236870fdef483ff5f19ab094d65c7348d03b3"),
    ("graph --category np-1",
     "1b26d3351081334fa12dba2909dcda5127e4d545117b2d5217008c390b965967"),
    ("graph --category np0",
     "d9e504f5808fb59e917954966be2a2712e76833b2eab2e76dadd56299932cfe3"),
    ("graph --category np2 --window 5",
     "8a0ec7d59e6ebd14553e9d1bf123764cb9ad5fe8d71cd90b1ff53cf50e2916a1"),
    ("an graph --vertices 5 --format dot",
     "492e43a9995cfb2a71f9a85fe8c4998028f8dcf7063737be7c42b74f7e3addee"),
    ("d4 graph",
     "b99156dd7c8501ab84d89911f2ca825ec805c7ca7c388e59df991a8619f45f03"),
    ("incidence --category a3",
     "3a17289ee685d24b14a62d584c5acb0cbf93a8ee19d032423d5cf56b7114e888"),
    ("incidence --category d4",
     "09697954e094a16accc744cdca2819cf02302f0f613a147cf91d691631932d28"),
    ("sc --category q2 --window 3 --max-dim 3",
     "c0eb13ad3ba52f2113049cf6204ca09b8e62c105ae5c72cb7bb0602d01074252"),
    ("d4 enum --kind points",
     "c6225814d4b0c6abcc03fb63f4ed66785b699cf31938b9cf2700f03ca761e438"),
    ("d4 enum --kind genus0",
     "3ff0938efab87a83278b1f135473a88fb6ac8342ad8fe7e8b7676d8567a59ea8"),
    ("d4 enum --kind genus-1",
     "c9e0db3d658ce1191f396378a9bc73d4a6523edc09c4f454bf846d3c8c318dd6"),
    ("d4 enum --kind triples-a3",
     "af4b090acdc0d03989b8086622e581efc78e37d7efc3ee3932d381e48cd0744e"),
    ("d4 enum --kind triples-a1cubed",
     "c86e84559497dd98386cfe941c42a9a662f1a6ef35fc52a8c930c1c95674d7ad"),
    ("d4 graph --format dot",
     "b4b6ea36fc019a56ddd60290bb00eeda794a62324bf5f04abeafe43772693e5f"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT)
def test_golden_stdout(capsys, argv, digest):
    assert cli.run(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


CATEGORY_NAMES = (
    [f"a{n}" for n in range(-1, 8)] + ["d4", "q1", "q2"]
    + [f"np{l}" for l in range(-2, 5)] + ["b3", "a03", "np01", "np-01"]
)


def _subparser(path):
    parser = cli.build_parser()
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


# --- the parser of one call against the whole tree ---------------------------

# the top level, every group and every leaf
LEVELS = sorted({path[:i] for path in COMMANDS for i in range(len(path) + 1)})


def _parse(parser, argv):
    """What parsing argv gives: the namespace or the exit code, with the
    text written to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _same_parse(argv):
    assert _parse(cli.build_parser(argv), argv) == _parse(cli.build_parser(), argv), argv


def test_levels_cover_the_tree():
    assert len(LEVELS) == 1 + 5 + len(COMMANDS)  # top, five groups, the leaves
    assert ("an", "count") in LEVELS and ("sc",) in LEVELS


@settings(deadline=None, max_examples=150)
@given(command_argv())
def test_call_parser_parses_as_the_whole_tree(argv):
    _same_parse(argv)


@pytest.mark.parametrize("path", LEVELS, ids=lambda p: " ".join(p) or "top")
def test_call_parser_help_and_errors(path):
    # help, a bad subcommand or option value, a missing or stray argument
    for tail in (["--help"], ["-h", "x"], [], ["bogus"], ["--bogus"],
                 ["--format", "xml"], ["--", "bogus"]):
        _same_parse([*path, *tail])


@pytest.mark.parametrize(
    "argv",
    [["-1", "an"], ["", "an"], ["-", "an"], ["--", "an", "count"],
     ["--bogus", "an", "count", "--k", "2", "--vertices", "4"],
     ["an", "-h", "count"], ["an", "count", "--k", "2", "--ver", "4"]],
)
def test_call_parser_on_odd_words(argv):
    # words before the subcommand that argparse reads as options or as a
    # bad subcommand
    _same_parse(argv)


# --- main: the process exit --------------------------------------------------

NORMAL_EXIT = "import sys; from nccount import cli; sys.exit(cli.run(sys.argv[1:]))"


def _python(args, **kwargs):
    """Run the interpreter on args with this checkout's nccount and block-
    buffered stdout, the default outside a terminal."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
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


def _closed_pipe():
    """The write end of a pipe whose reader has gone, as after `| true`."""
    read, write = os.pipe()
    os.close(read)
    return write


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
