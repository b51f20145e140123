"""Job lists of the three benchmark workloads.

A job is the argv of one `python -m nccount.cli` call.  The list is a pure
function of (workload, seed).  The jobs that dominate a workload's time,
its largest memory and its tail are a fixed ladder the seed cannot move,
so every seed asks for the same heavy work and the run-to-run spread
stays small.  The seed draws the parameters and formats of the cheap jobs,
whose time is mostly interpreter start-up, and shuffles the order.

The tail (the job with ten slower ones beyond it) must not sit on the edge
between two groups of jobs of different cost, or it jumps between them
from run to run.  So each fixed ladder has a group of jobs of about equal
cost, with a few slower jobs above it, and at the pass count that
--seconds 33 gives the tail falls inside that group.
"""

import random

# Nominal wall time of one pass over each job list on the reference machine
# (2 CPUs, Python 3.11) when this benchmark was written.  A run makes
# seconds // PASS_S passes, so the number of jobs, and with it the tail
# percentile, is fixed for a given --seconds, and every workload measures
# for about --seconds.
PASS_S = {"graphs": 11.0, "oracles": 7.0, "queries": 4.3}


def passes(workload: str, seconds: int) -> int:
    return max(1, int(seconds // PASS_S[workload]))


def _graphs(rng):
    # The a_N ladder is the pairwise-hom and export load.  The sc ladder
    # asks for deep --max-dim on tiny graphs: the k! search in is_simplex
    # and large JSON output, a different use of digraph than edge building.
    jobs = [
        ["an", "graph", "--vertices", n, "--format", f]
        for n, f in (("10", "plain"), ("11", "dot"), ("12", "json"), ("12", "dot"),
                     ("13", "dot"), ("14", "json"))
    ]
    jobs += [
        ["sc", "--category", cat, "--max-dim", dim, "--format", f]
        for cat, dim, f in (("a5", "5", "json"), ("a6", "4", "json"), ("d4", "6", "json"),
                            ("d4", "6", "plain"), ("a5", "4", "plain"))
    ]

    def fmt():
        return rng.choice(("json", "dot", "plain"))

    jobs += [
        ["graph", "--category", "q1", "--window", str(rng.randint(4, 12)),
         "--format", fmt()],
        ["graph", "--category", "q2", "--window", str(rng.randint(4, 10)),
         "--format", fmt()],
        ["affine", "graph", "--quiver", rng.choice(("q1", "q2")), "--kind",
         "points", "--window", str(rng.randint(3, 8)), "--format", fmt()],
        ["affine", "graph", "--quiver", "q2", "--kind", "curves", "--window",
         str(rng.randint(2, 6)), "--format", fmt()],
        ["d4", "graph", "--kind", rng.choice(("points", "curves")),
         "--format", fmt()],
        ["graph", "--category", f"a{rng.randint(3, 8)}", "--format", fmt()],
        ["incidence", "--category", rng.choice(("a3", "d4")), "--format",
         rng.choice(("json", "plain"))],
    ]
    genus = rng.randint(-1, 6)
    np_job = ["graph", "--category", f"np{genus}"]
    if genus >= 1:
        np_job += ["--window", str(rng.randint(3, 12))]
    jobs.append(np_job + ["--format", fmt()])
    # Shallow complexes: they cost about the same, so the median job does
    # not depend on the seed.
    sc_fmt = ("json", "plain")
    small = rng.choice(("a3", "a4", "d4"))
    jobs += [
        ["sc", "--category", small, "--max-dim", str(rng.randint(2, 3)), "--format",
         rng.choice(sc_fmt)],
        ["sc", "--category", "q1", "--window", str(rng.randint(3, 6)),
         "--max-dim", str(rng.randint(3, 5)), "--format", rng.choice(sc_fmt)],
        ["sc", "--category", "q2", "--window", str(rng.randint(2, 3)),
         "--max-dim", str(rng.randint(2, 3)), "--format", rng.choice(sc_fmt)],
        ["sc", "--category", f"np{rng.randint(1, 4)}", "--window",
         str(rng.randint(3, 8)), "--max-dim", str(rng.randint(1, 3)), "--format",
         rng.choice(sc_fmt)],
    ]
    return jobs


def _oracles(rng):
    # Materialised brute-force enumerations.  The m = 23 necklace sweep is
    # the largest job, at about 190 MB.  Genus draws of 1 and 2 under
    # --verify hit a known defect (the oracle enumerates the genus -1 curves
    # for every genus but 0, so the check fails with exit 1); they cost the
    # same as genus -1 and stay in the list.
    jobs = [
        ["necklace", "count", "--m", "23", "--s", str(rng.randint(1, 23))],
        ["an", "count", "--k", "5", "--vertices", "20", "--group", "full", "--verify"],
        ["an", "orbits", "--k", "4", "--vertices", "18"],
        ["an", "genus", "--genus", str(rng.choice((-1, 1, 2))), "--vertices", "30",
         "--verify"],
    ]
    # the tail group: three genus -1 oracle sweeps of equal cost
    jobs += [
        ["an", "genus", "--genus", str(rng.choice((-1, 1, 2))), "--vertices", "28",
         "--group", "full", "--verify"]
        for _ in range(3)
    ]
    m = rng.randint(8, 18)
    jobs += [
        ["necklace", "count", "--m", str(m), "--s", str(rng.randint(1, m))],
        ["an", "count", "--k", str(rng.randint(2, 5)), "--vertices",
         str(rng.randint(10, 16)), "--verify"],
        ["an", "genus", "--genus", "0", "--vertices", str(rng.randint(10, 40)),
         "--group", rng.choice(("id", "full")), "--verify"],
        # An eleventh job puts the median job (of 44 at 4 passes) among the
        # four runs of the v = 30 genus sweep, not on the edge between it
        # and the dearer count job.
        ["an", "orbits", "--k", str(rng.randint(2, 4)), "--vertices",
         str(rng.randint(8, 14))],
    ]
    return jobs


# (quiver, kind) pairs the affine rule tables define
AFFINE_KINDS = (
    [("q1", k) for k in ("genus-1", "genus0", "genus1")]
    + [("q2", k) for k in ("genus-1", "genus0", "genus1", "triples-a3", "triples-q1")]
)
D4_ENUM_KINDS = ("points", "genus0", "genus-1", "triples-a3", "triples-a1cubed")


def _queries(rng):
    # Closed forms and tables: interpreter start-up outweighs the work.
    def fmt():
        return rng.choice(("json", "plain"))

    jobs = []
    for _ in range(3):
        k = rng.randint(1, 12)
        jobs.append(["an", "count", "--k", str(k), "--vertices",
                     str(rng.randint(k, 80)), "--group", rng.choice(("id", "full")),
                     "--format", fmt()])
    for _ in range(3):
        jobs.append(["an", "genus", "--genus", str(rng.randint(-1, 3)), "--vertices",
                     str(rng.randint(2, 300)), "--group", rng.choice(("id", "full")),
                     "--format", fmt()])
    for quiver, kind in rng.sample(AFFINE_KINDS, 4):
        jobs.append(["affine", "count", "--quiver", quiver, "--kind", kind, "--group",
                     rng.choice(("id", "serre", "full")), "--format", fmt()])
    jobs.append(["d4", "table"])
    for kind in rng.sample(D4_ENUM_KINDS, 2):
        jobs.append(["d4", "enum", "--kind", kind])
    jobs += [
        ["markov", "table", "--limit", str(rng.randint(50, 1000))],
        ["markov", "tree", "--limit", str(rng.randint(50, 2000))],
        ["markov", "slopes", "--max-rank", str(rng.randint(50, 1000))],
        ["markov", "tyurin", "--max-rank", str(rng.randint(10, 5000))],
        ["markov", "tyurin", "--max-rank", str(rng.randint(10, 5000)), "--verify"],
    ]
    return jobs


_JOB_LISTS = {
    "graphs": _graphs,
    "oracles": _oracles,
    "queries": _queries,
}
WORKLOADS = tuple(_JOB_LISTS)


def jobs(workload: str, seed: int) -> list:
    """The job list (a list of argv lists) of one workload for one seed."""
    if workload not in _JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out = _JOB_LISTS[workload](rng)
    rng.shuffle(out)
    return out
