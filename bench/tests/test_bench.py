"""Tests of the benchmark itself: deterministic inputs, sound traces,
checks that pass on the program and fail on wrong answers."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def workdir():
    path = ROOT / ".bench_work"
    path.mkdir(exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def runner(workdir):
    return run.Runner(ROOT, workdir)


def test_job_lists_are_deterministic():
    for name in workloads.WORKLOADS:
        for seed in (0, 1, 17):
            assert workloads.jobs(name, seed) == workloads.jobs(name, seed)
        assert workloads.jobs(name, 1) != workloads.jobs(name, 2)
        assert all(isinstance(a, str) for job in workloads.jobs(name, 3) for a in job)
    # and across interpreters with different hash seeds
    code = "import json, workloads; print(json.dumps(workloads.jobs('queries', 5)))"
    outs = {
        subprocess.run([sys.executable, "-c", code], cwd=ROOT / "bench", check=True,
                       capture_output=True, env={"PYTHONHASHSEED": h}).stdout
        for h in ("1", "2")
    }
    assert [json.loads(o) for o in outs] == [workloads.jobs("queries", 5)]


def test_benchmark_json_records_job_count_and_tail_percentile():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        n_jobs = len(workloads.jobs(w["name"], 0)) * workloads.passes(w["name"],
                                                                       bench["run_seconds"])
        _, pct = run.tail(range(n_jobs))
        assert f"{n_jobs} jobs a run, job_tail_s is p{round(pct)}" in w["why"], w["name"]


def test_closed_form_interval_hom_matches_euler_form():
    from nccount.quiver import euler_form, line_quiver

    n = 6
    q = line_quiver(n)
    pts = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]

    def dim(p):
        return [1 if p[0] <= v <= p[1] else 0 for v in range(n + 1)]

    for x in pts:
        for y in pts:
            assert checks.interval_hom(x, y) == euler_form(q, dim(x), dim(y))


def test_burnside_matches_enumeration():
    for m in range(1, 11):
        for s in range(1, m + 1):
            classes = set()
            for mask in range(1 << m):
                if bin(mask).count("1") == s:
                    rots = [((mask >> r) | (mask << (m - r))) & ((1 << m) - 1)
                            for r in range(m)]
                    classes.add(min(rots))
            assert checks.burnside(m, s) == len(classes)


TRACED_JOBS = [
    ["an", "graph", "--vertices", "5", "--format", "json"],
    ["sc", "--category", "a3", "--max-dim", "3"],
    ["necklace", "count", "--m", "10", "--s", "4"],
    ["markov", "table", "--limit", "100"],
    ["graph", "--category", "np0", "--format", "plain"],
    ["an", "orbits", "--k", "2", "--vertices", "6"],
    ["an", "count", "--k", "0", "--vertices", "3"],  # usage error, exit 2
]


@pytest.mark.parametrize("argv", TRACED_JOBS, ids=lambda a: " ".join(a[:2]))
def test_traced_run_nests_and_matches_untraced(runner, argv):
    plain, traced = runner.job(argv), runner.job(argv, traced=True)
    assert traced.result.stdout == plain.result.stdout
    assert traced.result.returncode == plain.result.returncode
    trace = traced.trace
    eps = 1e-6
    for name, (calls, total, self_s) in trace["funcs"].items():
        assert -eps <= self_s <= total + eps, name
    spans = trace["spans"]
    roots = [s for s in spans if s[1] is None]
    assert [s[0] for s in roots] == [tracer.ROOT]
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, self_s in spans:
        assert t0 <= t1 and -eps <= self_s <= t1 - t0 + eps, name
        if parent is not None:
            p = spans[parent]
            assert p[2] <= t0 and t1 <= p[3], (name, p[0])
            child_time[parent] += t1 - t0
    for (name, _, t0, t1, _), inner in zip(spans, child_time):
        assert inner <= t1 - t0 + eps, name
    layers = tracer.layer_metrics([trace])
    root_time = roots[0][3] - roots[0][2]
    assert sum(v for k, (v, u) in layers.items() if u == "s") <= root_time + eps


def test_escaped_exceptions_are_counted(runner):
    trace = runner.job(["an", "count", "--k", "0", "--vertices", "3"], traced=True).trace
    assert trace["errors"] == {"typea": 1}


def test_checks_reject_wrong_answers():
    def graph_of(category, window):
        return checks.an_point_edges(int(category[1:]))

    with pytest.raises(checks.CheckFailed):
        checks.check(["an", "count", "--k", "2", "--vertices", "5", "--group", "full"],
                     b'{"count": "5"}', graph_of)
    ids, edges = checks.an_point_edges(4)
    wrong = {"category": "a4", "vertices": [{"id": v, "genus": None} for v in ids],
             "edges": [{"src": s, "dst": t, "weight": w, "both": b}
                       for s, t, w, b in sorted(edges, key=str)[1:]]}
    with pytest.raises(checks.CheckFailed):
        checks.check(["an", "graph", "--vertices", "4"], json.dumps(wrong).encode(), graph_of)
    simplices = checks.simplices(ids, checks.arrows_of(edges), 2)
    doc = {"category": "a4", "simplices": [sorted(s) for s in simplices][1:]}
    doc["counts_by_dim"] = {}
    for s in doc["simplices"]:
        key = str(len(s) - 1)
        doc["counts_by_dim"][key] = doc["counts_by_dim"].get(key, 0) + 1
    with pytest.raises(checks.CheckFailed):
        checks.check(["sc", "--category", "a4", "--max-dim", "2"], json.dumps(doc).encode(),
                     graph_of)


def known_defect(record):
    """`an genus --genus >= 1 --verify` exits 1 at the time of writing (the
    genus -1 enumeration is used as the oracle for every genus != 0)."""
    words, opts = checks.parse_argv(record.argv)
    return (words == ("an", "genus") and int(opts["genus"]) >= 1 and "verify" in opts
            and record.result.returncode == 1
            and b"verification failed" in record.result.stderr)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_job_passes_its_check(runner, name):
    records, _, _ = run.run_plain(runner, workloads.jobs(name, 0), 1)
    failed, problems = run.judge(records, runner)
    assert problems == []
    assert failed == sum(1 for r in records if known_defect(r))
    assert all(r.result.status == "ok" or known_defect(r) for r in records)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_benchmark_json(runner, trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    res = run.run_workload(runner, "queries", 0, 1, trace)
    run.judge_workload(runner, res)
    got = {name: unit for name, (_, unit) in res["metrics"].items()}
    if not trace:
        assert got.pop("error_rate") == "ratio"
    assert got == {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_program(workdir):
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "graphs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
