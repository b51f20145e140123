"""Benchmark of the nccount CLI.

    python3 bench/run.py --workload graphs --seed 1 --seconds 33 --trace 0

Run from the root of a checkout.  One client drives the CLI in a closed
loop: each job is a fresh `python -m nccount.cli ...` child, started only
after the previous one exited, so every job pays interpreter start-up and
import, as a user's call does.  The job list comes from --seed (see
workloads.py); the program sees only the generated argv.

--trace 0 measures the end-to-end metrics.  --trace 1 runs each job once
plainly and once under bench/tracer.py and reports the per-layer metrics
and the tracing overhead.  After the timed part every output is checked
against an independently computed answer (checks.py), and the stdout of
each argv must be identical across repetitions and between traced and
untraced runs.  Human-readable lines come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
--workload also takes a comma-separated list or `all`; metric names are
then prefixed with the workload.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import spawn
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_CODE = "import nccount.cli as cli; cli.build_parser()"
SETUP_SAMPLES_PER_PASS = 2
IMPORTTIME_SAMPLES = 5
TAIL_BEYOND = 10  # jobs slower than the reported tail
RUN_BUDGET_S = 150.0  # per workload; jobs not started by then fail


class Record:
    """One executed job."""

    def __init__(self, argv, result, trace=None):
        self.argv, self.result, self.trace = tuple(argv), result, trace


class Runner:
    """Starts the children of one benchmark process."""

    def __init__(self, root, workdir):
        self.workdir = workdir
        self.env = dict(os.environ)
        src = str(root / "src")
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        self.deadline = float("inf")

    def python(self, args, pass_fds=(), timeout=spawn.JOB_TIMEOUT_S):
        return spawn.run([sys.executable, *args], self.env, self.workdir,
                         timeout=timeout, pass_fds=pass_fds)

    def job(self, argv, traced=False):
        left = self.deadline - time.monotonic()
        if left <= 0:
            return Record(argv, spawn.ChildResult("deadline", -1, 0.0, 0.0, 0, b"", b""))
        timeout = min(spawn.JOB_TIMEOUT_S, left)
        if not traced:
            return Record(argv, self.python(["-m", "nccount.cli", *argv], timeout=timeout))
        with tempfile.TemporaryFile(dir=self.workdir) as trace_file:
            fd = trace_file.fileno()
            result = self.python([str(BENCH_DIR / "tracer.py"), str(fd), *argv],
                                 pass_fds=(fd,), timeout=timeout)
            trace_file.seek(0)
            raw = trace_file.read()
        try:
            trace = json.loads(raw)
        except ValueError:  # killed before the trace was written
            trace = None
        return Record(argv, result, trace)

    def setup_sample(self):
        r = self.python(["-c", SETUP_CODE])
        if r.status != "ok":
            raise SystemExit(f"set-up sample failed: {r.stderr.decode()[-500:]}")
        return r.wall_s

    def import_times(self):
        """Cumulative import times of nccount.cli and numpy, in seconds,
        from `python -X importtime`."""
        r = self.python(["-X", "importtime", "-c", "import nccount.cli"])
        found = {}
        for line in r.stderr.decode().splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m and m.group(2) in ("nccount.cli", "numpy"):
                found[m.group(2)] = int(m.group(1)) / 1e6
        return found.get("nccount.cli", 0.0), found.get("numpy", 0.0)


def tail(values):
    """(value, percentile): the slowest value with TAIL_BEYOND values above
    it, or the maximum when there are too few values."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    idx = len(ordered) - TAIL_BEYOND - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


# --- checking ---------------------------------------------------------------------


def judge(records, runner):
    """(failed jobs, problems).  A job fails on a non-zero exit, a timeout,
    the memory cap, a missed deadline, or output that fails its check; a
    problem is a wrong answer or stdout that differs between runs of one
    argv."""
    graphs = {}

    def graph_of(category, window):
        key = (category, window)
        if key not in graphs:
            if re.fullmatch(r"a\d+", category):
                graphs[key] = checks.an_point_edges(int(category[1:]))
            else:
                argv = ["graph", "--category", category, "--format", "json"]
                argv += ["--window", window] if window else []
                r = runner.python(["-m", "nccount.cli", *argv])
                checks.expect(r.status == "ok", f"reference graph: {' '.join(argv)} failed")
                graphs[key] = checks.parse_graph(r.stdout.decode(), "json")
        return graphs[key]

    by_argv = {}
    for rec in records:
        by_argv.setdefault(rec.argv, []).append(rec)
    problems, bad = [], set()
    for argv, recs in by_argv.items():
        complete = [r for r in recs if r.result.status in ("ok", "exit")]
        if len({hashlib.sha256(r.result.stdout).digest() for r in complete}) > 1:
            problems.append(f"{' '.join(argv)}: stdout differs between runs")
            bad.add(argv)
        done = next((r for r in recs if r.result.status == "ok"), None)
        if done is None:
            continue
        try:
            checks.check(argv, done.result.stdout, graph_of)
        except checks.CheckFailed as exc:
            problems.append(f"{' '.join(argv)}: {exc}")
            bad.add(argv)
    failed = sum(1 for r in records if r.result.status != "ok" or r.argv in bad)
    return failed, problems


# --- one workload -------------------------------------------------------------------


def run_plain(runner, jobs, n_passes):
    records, pass_walls, pass_cpus, setup = [], [], [], []
    for _ in range(n_passes):
        setup += [runner.setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS)]
        t0 = time.perf_counter()
        done = [runner.job(argv) for argv in jobs]
        pass_walls.append(time.perf_counter() - t0)
        pass_cpus.append(sum(r.result.cpu_s for r in done))
        records += done
    walls = [r.result.wall_s for r in records]
    job_tail, pct = tail(walls)
    # wall_s and cpu_s are the totals over all passes divided by the pass
    # count: on a shared host the mean of the passes spreads less from run
    # to run than their median.
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.fmean(pass_walls), "s"),
        "cpu_s": (statistics.fmean(pass_cpus), "s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (job_tail, "s"),
        "peak_rss_mb": (max(r.result.maxrss_kb for r in records) / 1024, "MB"),
    }
    notes = {"passes": n_passes, "jobs": len(records), "job_tail_percentile": pct,
             "pass_wall_s": [round(w, 3) for w in pass_walls]}
    return records, metrics, notes


def run_traced(runner, jobs, n_passes):
    imports = [runner.import_times() for _ in range(IMPORTTIME_SAMPLES)]
    pairs = max(1, n_passes // 2)
    records, traces, overhead, out_bytes = [], [], 0.0, 0
    for _ in range(pairs):
        for i, argv in enumerate(jobs):
            # alternate which run goes first, so drift cancels in the sum
            if i % 2:
                traced, plain = runner.job(argv, traced=True), runner.job(argv)
            else:
                plain, traced = runner.job(argv), runner.job(argv, traced=True)
            records += [plain, traced]
            overhead += traced.result.wall_s - plain.result.wall_s
            out_bytes += len(plain.result.stdout)
            if traced.trace is not None:
                traces.append(traced.trace)
    metrics = {
        "cli.import_s": (statistics.median([c for c, _ in imports]), "s"),
        "cli.import.numpy_s": (statistics.median([n for _, n in imports]), "s"),
        "cli.out_bytes": (out_bytes // pairs, "bytes"),
    }
    # per pass; counts repeat exactly from pass to pass
    for key, (value, unit) in tracer.layer_metrics(traces).items():
        if unit != "ratio":
            value = value // pairs if isinstance(value, int) else value / pairs
        metrics[key] = (value, unit)
    metrics["trace.overhead_s"] = (overhead / pairs, "s")
    notes = {"pairs": pairs, "jobs": len(records), "traces": len(traces),
             "hook_errors": sum(t["counters"].get("trace.hook_errors", 0) for t in traces)}
    return records, metrics, notes


def run_workload(runner, name, seed, seconds, trace):
    """Measure one workload.  Its outputs are judged by judge_workload."""
    jobs = workloads.jobs(name, seed)
    runner.deadline = time.monotonic() + RUN_BUDGET_S
    run = run_traced if trace else run_plain
    records, metrics, notes = run(runner, jobs, workloads.passes(name, seconds))
    return {"records": records, "metrics": metrics, "notes": notes}


def judge_workload(runner, res):
    res["failed"], res["problems"] = judge(res["records"], runner)
    res["metrics"]["error_rate"] = (res["failed"] / len(res["records"]), "ratio")


# --- context and output ---------------------------------------------------------------


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision(root):
    if not (root / ".git").exists():  # e.g. an exported checkout
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def numpy_version():
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="one of %s, a comma-separated list, or all"
                   % ", ".join(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=33)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        p.error(f"unknown workload(s): {', '.join(unknown)}")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    args.names = list(names)
    return args


def main(argv=None):
    # turn SIGTERM into SystemExit, so the running child is killed and
    # reaped and the work directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    if not (root / "src" / "nccount" / "cli.py").is_file():
        print("error: run from the root of an nccount checkout (src/nccount/cli.py "
              "not found)", file=sys.stderr)
        return 2
    workdir = root / ".bench_work"
    workdir.mkdir(exist_ok=True)
    try:
        runner = Runner(root, workdir)
        probe = runner.python(["-c", "import nccount.cli, nccount; print(nccount.__file__)"])
        where = Path(probe.stdout.decode().strip() or "/")
        if probe.status != "ok" or root / "src" not in where.parents:
            print("error: nccount does not import from this checkout's src/:\n"
                  + probe.stderr.decode()[-2000:], file=sys.stderr)
            return 2
        context = {
            "git_revision": git_revision(root),
            "source_sha256": source_digest(root),
            "python": platform.python_version(),
            "numpy": numpy_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "loadavg_start": loadavg(),
        }
        results = {name: run_workload(runner, name, args.seed, args.seconds, args.trace)
                   for name in args.names}
        context["loadavg_end"] = loadavg()
        # Judge only after every workload is measured: the checks import
        # sympy and networkx, and a child's peak RSS starts at the RSS of
        # the process that forked it.
        for res in results.values():
            judge_workload(runner, res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"context": context}))
    prefix = len(results) > 1
    metrics, attempted, failed, problems = {}, 0, 0, []
    for name, res in results.items():
        print(f"workload {name}: {json.dumps(res['notes'])}")
        attempted += len(res["records"])
        failed += res["failed"]
        problems += [f"{name}: {p}" for p in res["problems"]]
        for metric, (value, unit) in res["metrics"].items():
            key = f"{name}.{metric}" if prefix else metric
            print(f"  {key} = {value} {unit}")
            if metric != "error_rate" or args.trace:
                metrics[key] = {"value": value, "unit": unit}
    for p in problems:
        print(f"PROBLEM {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
