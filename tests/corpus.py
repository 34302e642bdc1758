"""A fixed list of CLI requests for "same answers" claims between two trees.

    PYTHONPATH=<tree>/src python tests/corpus.py snapshot DIR
    python tests/corpus.py diff A B [--rtol R]

`snapshot` runs every request in-process through nptcert.cli.main, from a
scratch working directory that holds the request list's matrix files, and
writes DIR/corpus.jsonl: one JSON line per request with its argv, exit code,
stderr, the sha256 of what it wrote to stdout and that output parsed (a
JSON report as an object, a sweep's CSV as its text).  The matrix files are
drawn with the standard library's `random`, so both trees read the same
bytes.  `diff` prints how many requests are byte-identical (same exit code,
stderr and report) and lists every other one with its old and new exit
codes and the paths whose values differ (`config.seed: removed`,
`sr.margin: -0.0625 -> -0.0624`, a sweep's `row 3.sr_margin`); then every
changed verdict.  It exits 1 when any request differs.  With --rtol R, two
numeric report leaves (a CSV cell that reads as a number included) within
relative distance R agree: a request whose exit code and stderr match and
whose report differs only in such leaves is listed as "within rtol", with
its paths, and does not count as changed.  Verdicts, exit codes and stderr
are always compared exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from cli_runner import CliRunner

# Matrix files: name -> (dims, seed) of a random full-rank density G G^dag / Tr.
MATRIX_FILES = {"rho8.json": ([2, 2, 2], 8), "rho16.json": ([4, 4], 16),
                "rho64.json": ([8, 8], 64), "rho256.json": ([16, 16], 256)}

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
    ("rho256.json", "0|1"),
    ('{"family": "single_photon_entangled"}', "0|1"),
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

# |Phi+><Phi+| as a matrix file's 16 entries.
BELL_ENTRIES = [[0.5, 0.0] if i in (0, 3, 12, 15) else [0.0, 0.0] for i in range(16)]

# Other refused inputs, each exit 1.
REJECTED = [
    ["check", '{"family": "random_density", "dim": 4, "dims": [2, 2], "seed": null}',
     "--bipartition", "0|1"],
    ["check", '{"family": "product", "dims": [2, 2], "seed": [1, 2]}', "--bipartition", "0|1"],
    ["check", "bell", "--seed", "3", "--bipartition", "0|1"],
    ["check", "werner:p=0.5,q=0.1", "--bipartition", "0|1"],
    ["check", '{"family": "random_density", "dim": 1025}', "--bipartition", "0|1"],
    ["check", "bell", "--bipartition", "0|1", "--tol", "nan"],
    # the cutoff is checked before alpha is read
    ["cv-check", '{"family": "coherent", "alpha": "abc", "cutoff": 1}'],
    # dims whose product wraps in int64, a matrix that is no list, a total dimension of 1
    ["check", '{"dims": [4294967297, 4294967295], "matrix": [[1, 0]]}', "--bipartition", "0|1"],
    ["check", '{"dims": [2, 2], "matrix": 5}', "--bipartition", "0|1"],
    *([command, '{"dims": [1, 1], "matrix": [[1, 0]]}', "--bipartition", "0|1"]
      for command in ("check", "witness")),
    # matrix-file dims read as a spec's are: a negative entry, a string and an object
    ["check", '{"dims": [2, -1], "matrix": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
     "--bipartition", "0|1"],
    *(["check", json.dumps({"dims": dims, "matrix": BELL_ENTRIES}), "--bipartition", "0|1"]
      for dims in ("22", {"2": 1, "3": 1})),
    # float and complex spec values that their readers refuse
    ["check", '{"family": "werner", "p": "abc"}', "--bipartition", "0|1"],
    ["bs-demo", "--input", "coherent:alpha=abc", "--cutoff", "20"],
    # a family that is no string, a negative seed and a key given twice
    ["check", '{"family": [1]}', "--bipartition", "0|1"],
    ["cv-check", '{"family": {"a": 1}}'],
    ["check", '{"family": "product", "dims": [2, 2], "seed": -1}', "--bipartition", "0|1"],
    ["witness", '{"family": "random_density", "dim": 4, "dims": [2, 2], "seed": -1}',
     "--bipartition", "0|1"],
    ["check", '{"family": "bell", "seed": -1}', "--bipartition", "0|1"],
    ["check", '{"family": "werner", "p": 0.5, "p": 0.2}', "--bipartition", "0|1"],
    ["check", "werner:p=0.5,p=0.6", "--bipartition", "0|1"],
]

REQUESTS = (
    [[command, source, "--bipartition", bip] for source, bip in FINITE
     for command in ("check", "witness")]
    + [["sweep-ghz", "--steps", "101"],
       ["sweep-ghz", "--steps", "7", "--p-from", "0.1", "--p-to", "0.7",
        "--bipartition", "0|1,2"]]
    + [["cv-check", "two_mode_squeezed:r=0.3", "--ineq", ineq, "--m", m, "--n", n,
        "--cutoff", "20"] for ineq in ("10", "11") for m in ("1", "2") for n in ("1", "2")]
    + [["cv-check", "single_photon_entangled", "--ineq", "11", "--cutoff", "20"]]
    + [["bs-demo", "--input", source, "--cutoff", "20"]
       for source in ("thermal:nbar=0.5", "coherent:alpha=0.7", "squeezed_vacuum:r=0.5",
                      "fock:n=1", "vacuum", "coherent:alpha=0.4-0.3j")]
    + [["bs-demo", "--input", "squeezed_vacuum:r=0.5", "--cutoff", "30"],
       # a separable output that ROADMAP item 1 reports as certified (exit 2)
       ["bs-demo", "--input", "coherent:alpha=1.0", "--theta", "0.37", "--m", "4", "--n", "4",
        "--cutoff", "30"]]
    + [["relation-check", "two_mode_squeezed:r=0.3", "--m", m, "--n", n, "--p", p, "--q", q,
        "--cutoff", cutoff] for m, n, p, q, cutoff in [("1", "1", "1", "1", "20"),
                                                       ("2", "1", "1", "3", "40")]]
    + [["cv-check", "two_mode_squeezed:r=0.3,cutoff=12", "--cutoff", "20"]]
    + BOOL_SPECS
    + REJECTED
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
    try:
        report = json.loads(result.stdout)
    except ValueError:  # a sweep's CSV, or nothing
        report = result.stdout or None
    return {"argv": argv, "exit": result.exit_code, "stderr": stderr,
            "sha256": hashlib.sha256(result.stdout.encode()).hexdigest(), "report": report}


def snapshot(out_dir, requests=REQUESTS) -> Path:
    """Run requests and write out_dir/corpus.jsonl; returns its path."""
    out = Path(out_dir).resolve() / "corpus.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    lines, cwd = [], os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)  # reports name their input as given: the same relative path
            for name, (dims, seed) in MATRIX_FILES.items():
                if any(name in argv for argv in requests):  # dim 256 takes about 2 s
                    Path(name).write_text(json.dumps(matrix_payload(dims, seed)))
            lines = [json.dumps(run(argv)) for argv in requests]
    finally:
        os.chdir(cwd)
    out.write_text("\n".join(lines) + "\n")
    return out


# Report keys that carry a verdict; `diff` lists each change of one.
VERDICT_KEYS = {"verdict", "is_npt", "violated"}
MAX_PATHS = 20  # paths printed per changed request


def _tree(report):
    """A parsed report as a tree: a sweep's CSV text as {"row N": {column: text}}."""
    if isinstance(report, str):
        return {f"row {i}": row for i, row in enumerate(csv.DictReader(io.StringIO(report)))}
    return report


def _number(x):
    """x as a float when it is a number or text that reads as one, else None."""
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def changed_paths(old, new, path="", rtol=0.0) -> list:
    """(path, change) for each value that differs between two report trees:
    "removed", "added", "length 3 -> 4" or "old -> new" by repr.  With rtol,
    two numbers a, b with |a - b| <= rtol max(|a|, |b|) agree, save under a
    verdict key."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in new or key not in old:
                out.append((sub, "removed" if key not in new else "added"))
            else:
                out += changed_paths(old[key], new[key], sub, rtol)
        return out
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [(path, f"length {len(old)} -> {len(new)}")]
        return [p for i, (a, b) in enumerate(zip(old, new))
                for p in changed_paths(a, b, f"{path}[{i}]", rtol)]
    if repr(old) == repr(new):
        return []
    a, b = _number(old), _number(new)
    if (rtol and a is not None and b is not None and path.rpartition(".")[2] not in VERDICT_KEYS
            and abs(a - b) <= rtol * max(abs(a), abs(b))):
        return []
    return [(path or "report", f"{old!r} -> {new!r}")]


def request_changes(a, b, rtol=0.0) -> list:
    """(path, change) between two snapshot lines of one request, None for a
    missing line: stderr, then the report's paths (numbers compared to rtol),
    or the report as a whole when only one side wrote one."""
    if a is None or b is None:
        return [("request", "added" if a is None else "removed")]
    out = changed_paths(a["stderr"], b["stderr"], "stderr")
    old, new = _tree(a.get("report")), _tree(b.get("report"))
    if old is None or new is None:
        return out + ([] if old is new else [("report", "added" if old is None else "removed")])
    return out + changed_paths(old, new, rtol=rtol)


def _show(head, paths):
    """Print a request's line and the first MAX_PATHS of its changed paths."""
    print(f"  {head}")
    for path, change in paths[:MAX_PATHS]:
        print(f"    {path}: {change}")
    if len(paths) > MAX_PATHS:
        print(f"    ... and {len(paths) - MAX_PATHS} more paths")


def diff(a_dir, b_dir, rtol=0.0) -> list:
    """Print the byte-identical count; with rtol, the requests whose reports
    agree to rtol, with the paths whose values moved; each other differing
    request with its old and new exit (None for a missing side) and the
    paths whose values differ; then every changed verdict and exit code.
    Returns the differing (argv, old exit, new exit, [(path, change)]),
    those within rtol left out."""
    def load(d):
        rows = [json.loads(line) for line in (Path(d) / "corpus.jsonl").read_text().splitlines()]
        return {json.dumps(r["argv"]): r for r in rows}

    old, new = load(a_dir), load(b_dir)
    keys = sorted(old.keys() | new.keys())
    changed, within = [], []
    for k in keys:
        a, b = old.get(k), new.get(k)
        if a is None or b is None or any(a[f] != b[f] for f in ("exit", "stderr", "sha256")):
            row = (json.loads(k), a and a["exit"], b and b["exit"], request_changes(a, b))
            agree = rtol and row[1] == row[2] and not request_changes(a, b, rtol)
            (within if agree else changed).append(row)
    print(f"{len(keys) - len(changed) - len(within)} of {len(keys)} requests byte-identical")
    if rtol:
        print(f"{len(within)} within rtol {rtol:g}")
        for argv, _, _, paths in within:
            _show(" ".join(argv), paths)
    verdicts = []
    for argv, a_exit, b_exit, paths in changed:
        request = " ".join(argv)
        _show(f"exit {a_exit} -> {b_exit}: {request}", paths)
        if a_exit != b_exit:
            verdicts.append(f"exit {a_exit} -> {b_exit}: {request}")
        verdicts += [f"{path} {change}: {request}" for path, change in paths
                     if path.rpartition(".")[2] in VERDICT_KEYS]
    print(f"{len(verdicts)} changed verdicts and exit codes")
    for line in verdicts:
        print(f"  {line}")
    return changed


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2 and args[0] == "snapshot":
        print(snapshot(args[1]))
        return 0
    if args[:1] == ["diff"] and (len(args) == 3 or len(args) == 5 and args[3] == "--rtol"):
        return 1 if diff(args[1], args[2], float(args[4]) if len(args) == 5 else 0.0) else 0
    print("usage: corpus.py snapshot DIR | corpus.py diff A B [--rtol R]", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
