"""Write tests/golden.json, the committed outcome of a fixed list of CLI
calls, from the current tree.

The list is every distinct argv of the benchmark workloads (bench/workloads.py,
the three workloads, seeds 1-20), then each leaf's --help and one usage error,
one refusal per leaf that can refuse, and the calls in EXTRA.  Each entry holds
the argv, its exit code and the sha256 of its stdout and of its stderr, as
`outcome` reads them in process through cli.run.
tests/test_cli.py::test_golden_stdout checks every entry against the tree; a
change that alters an entry names that argv and why.

Run from the repository root: python tests/write_golden.py
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

from nccount import cli

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = range(1, 21)

# one refusal per leaf that has one; d4 table, d4 graph and d4 enum take only
# choices, so every call argparse admits answers
REFUSALS = [
    "an count --k 5 --vertices 0",
    "an orbits --k 5 --vertices 32",
    "an genus --genus -2 --vertices 3",
    "an graph --vertices 45",
    "necklace count --m 3 --s 5",
    "affine count --quiver q1 --kind triples-q1",
    "affine graph --quiver q2 --kind curves --window 100",
    "markov table --limit 0",
    "markov slopes --max-rank 0",
    "markov tree --limit 0",
    "markov tyurin --max-rank 0",
    "incidence --category q1",
    "graph --category np3 --window 1001",
    "sc --category a3 --max-dim -1",
]

# the calls that reach the np-1 record and the curve records
EXTRA = [
    "graph --category np-1 --format json",
    "graph --category np-1 --format dot",
    "graph --category np-1 --format plain",
    "sc --category np-1 --max-dim 2",
    "incidence --category np-1",
    "d4 graph --kind curves --format json",
    "d4 graph --kind curves --format dot",
    "d4 graph --kind curves --format plain",
    "affine graph --quiver q2 --kind curves --window 3",
    # one small call per graph builder, per orbit-partition caller and per
    # writer that the lists above lack
    "an graph --vertices 5 --format dot",
    "an graph --vertices 6 --format json",
    "d4 graph",
    "d4 graph --format dot",
    "d4 graph --kind curves",
    "d4 table --format plain",
    "d4 enum --kind triples-a3 --format plain",
    "affine count --quiver q2 --kind genus-1 --group full",
    "graph --category np-1",
    "graph --category np0",
    "graph --category np2 --window 5",
    "sc --category d4 --max-dim 6",
    "sc --category q2 --window 3 --max-dim 3",
    "incidence --category a3",
    "incidence --category d4",
    "markov tree --limit 1000",
]


def _argparse_answers(argv) -> bool:
    """Whether argparse, not a handler, answers argv: help and usage errors."""
    if cli._parse_call(argv) is not None:
        return False
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            return True
    return False


def outcome(argv) -> dict:
    """The golden entry of argv: its exit code and the sha256 of its stdout
    and stderr, with COLUMNS=80.  Help and usage errors keep the exit code
    alone, since their text is argparse's and differs between Python
    versions."""
    out, err = io.StringIO(), io.StringIO()
    with patch.dict(os.environ, COLUMNS="80"), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    entry = {"argv": list(argv), "exit": code}
    if not _argparse_answers(argv):
        for name, stream in (("stdout", out), ("stderr", err)):
            entry[name] = hashlib.sha256(stream.getvalue().encode()).hexdigest()
    return entry


def argvs() -> list:
    """The argvs of the golden file, sorted."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
    import workloads
    calls = {tuple(a) for w in workloads.WORKLOADS for s in SEEDS
             for a in workloads.jobs(w, s)}
    leaves = [list(path) for path in cli._COMMANDS]
    calls |= {(), ("--help",)}
    calls |= {tuple(p + ["--help"]) for p in leaves}
    calls |= {tuple(p + ["--format", "xml"]) for p in leaves}
    calls |= {tuple(line.split()) for line in REFUSALS + EXTRA}
    return sorted(map(list, calls))


def main():
    entries = [outcome(a) for a in argvs()]
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} entries to {GOLDEN}")


if __name__ == "__main__":
    main()
