"""A fixed list of CLI requests for "same answers" claims between two trees.

    PYTHONPATH=<tree>/src python tests/corpus.py snapshot DIR
    python tests/corpus.py diff A B

`snapshot` runs every request in-process through nptcert.cli.main, from a
scratch working directory that holds the request list's matrix files, and
writes DIR/corpus.jsonl: one JSON line per request with its argv, exit code,
stderr and the sha256 of what it wrote to stdout (the report).  The matrix
files are drawn with the standard library's `random`, so both trees read
the same bytes.  `diff` prints how many requests are byte-identical (same
exit code, stderr and report) and lists every other one with its old and
new exit codes; it exits 1 when any request differs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from cli_runner import CliRunner

# Matrix files: name -> (dims, seed) of a random full-rank density G G^dag / Tr.
MATRIX_FILES = {"rho8.json": ([2, 2, 2], 8), "rho16.json": ([4, 4], 16),
                "rho64.json": ([8, 8], 64)}

FINITE = [
    ("bell", "0|1"),
    ('{"family": "werner", "p": 0.6}', "0|1"),
    ('{"family": "werner", "p": 0.2}', "0|1"),
    ('{"family": "ghz_mixed", "p": 0.2000000016}', "0,1|2"),
    ('{"family": "ghz_mixed", "p": 0.5}', "0|1,2"),
    ('{"family": "product", "dims": [2, 3], "seed": 4}', "0|1"),
    ('{"family": "random_separable", "dims": [2, 4], "terms": 3, "seed": 7}', "0|1"),
    ('{"family": "random_density", "dim": 16, "dims": [4, 4], "seed": 5}', "0|1"),
    ("rho8.json", "0|1,2"),
    ("rho16.json", "0|1"),
    ("rho64.json", "0|1"),
]

# JSON true/false where a spec reads a number: exit 1 since bools are refused.
BOOL_SPECS = [
    ["check", '{"family": "werner", "p": true}', "--bipartition", "0|1"],
    ["witness", '{"family": "ghz_mixed", "p": false}', "--bipartition", "0,1|2"],
    ["check", '{"family": "random_density", "dim": 4, "dims": [2, 2], "seed": true}',
     "--bipartition", "0|1"],
    ["cv-check", '{"family": "two_mode_squeezed", "r": false}', "--cutoff", "20"],
    ["cv-check", '{"family": "two_mode_squeezed", "r": true}', "--cutoff", "20"],
    ["bs-demo", "--input", '{"family": "coherent", "alpha": true}', "--cutoff", "20"],
    ["bs-demo", "--input", '{"family": "squeezed_vacuum", "r": 0.5, "phi": true}',
     "--cutoff", "20"],
    ["bs-demo", "--input", '{"family": "thermal", "nbar": true}', "--cutoff", "20"],
]

REQUESTS = (
    [[command, source, "--bipartition", bip] for source, bip in FINITE
     for command in ("check", "witness")]
    + [["sweep-ghz", "--steps", "101"],
       ["sweep-ghz", "--steps", "7", "--p-from", "0.1", "--p-to", "0.7",
        "--bipartition", "0|1,2"]]
    + [["cv-check", "two_mode_squeezed:r=0.3", "--ineq", ineq, "--m", m, "--n", n,
        "--cutoff", "20"] for ineq in ("10", "11") for m in ("1", "2") for n in ("1", "2")]
    + [["bs-demo", "--input", source, "--cutoff", "20"]
       for source in ("thermal:nbar=0.5", "coherent:alpha=0.7", "squeezed_vacuum:r=0.5",
                      "fock:n=1")]
    + [["bs-demo", "--input", "squeezed_vacuum:r=0.5", "--cutoff", "30"],
       ["relation-check", "two_mode_squeezed:r=0.3", "--m", "1", "--n", "1", "--p", "1",
        "--q", "1", "--cutoff", "20"],
       ["cv-check", "two_mode_squeezed:r=0.3,cutoff=12", "--cutoff", "20"]]
    + BOOL_SPECS
)


def matrix_payload(dims: list, seed: int) -> dict:
    """{"dims", "matrix"} of G G^dag / Tr, G with uniform [-1, 1) entries,
    built exactly Hermitian from its upper triangle."""
    rng = random.Random(seed)
    n = 1
    for d in dims:
        n *= d
    g = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
    rho = [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rho[i][j] = sum(a * b.conjugate() for a, b in zip(g[i], g[j]))
            rho[j][i] = rho[i][j].conjugate()
    trace = sum(rho[i][i].real for i in range(n))
    return {"dims": dims, "matrix": [[z.real / trace, z.imag / trace] for row in rho for z in row]}


def run(argv: list) -> dict:
    from nptcert import cli  # only snapshot needs nptcert: diff runs without it
    result = CliRunner().invoke(cli.main, argv)
    stderr = result.stderr
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        stderr += f"uncaught {type(result.exception).__name__}: {result.exception}\n"
    return {"argv": argv, "exit": result.exit_code, "stderr": stderr,
            "sha256": hashlib.sha256(result.stdout.encode()).hexdigest()}


def snapshot(out_dir, requests=REQUESTS) -> Path:
    """Run requests and write out_dir/corpus.jsonl; returns its path."""
    out = Path(out_dir).resolve() / "corpus.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    lines, cwd, tol = [], os.getcwd(), os.environ.pop("NPT_CERTIFY_TOL", None)
    try:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)  # reports name their input as given: the same relative path
            for name, (dims, seed) in MATRIX_FILES.items():
                Path(name).write_text(json.dumps(matrix_payload(dims, seed)))
            lines = [json.dumps(run(argv)) for argv in requests]
    finally:
        os.chdir(cwd)
        if tol is not None:
            os.environ["NPT_CERTIFY_TOL"] = tol
    out.write_text("\n".join(lines) + "\n")
    return out


def diff(a_dir, b_dir) -> list:
    """Print the byte-identical count and each differing request, a missing
    side's exit as None; returns the differing (argv, old exit, new exit)."""
    def load(d):
        return [json.loads(line) for line in (Path(d) / "corpus.jsonl").read_text().splitlines()]

    old = {json.dumps(r["argv"]): r for r in load(a_dir)}
    new = {json.dumps(r["argv"]): r for r in load(b_dir)}
    keys = sorted(old.keys() | new.keys())
    changed = [(json.loads(k), old[k]["exit"] if k in old else None,
                new[k]["exit"] if k in new else None) for k in keys if old.get(k) != new.get(k)]
    print(f"{len(keys) - len(changed)} of {len(keys)} requests byte-identical")
    for argv, a_exit, b_exit in changed:
        print(f"  exit {a_exit} -> {b_exit}: {' '.join(argv)}")
    return changed


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2 and args[0] == "snapshot":
        print(snapshot(args[1]))
        return 0
    if len(args) == 3 and args[0] == "diff":
        return 1 if diff(args[1], args[2]) else 0
    print("usage: corpus.py snapshot DIR | corpus.py diff A B", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
