"""Named mutants of src/nptcert and the tests that must kill each.

    python tests/mutants.py [NAME ...]

Each mutant is (name, file under src/nptcert, exact old text, new text,
pytest node ids).  For each mutant (all of them, or the named ones) the
runner copies src/ to a temporary directory, replaces the old text, which
must occur exactly once, and runs the mutant's node ids in a fresh
interpreter with `-o pythonpath=<tmp>/src`: pyproject's `pythonpath =
["src"]` would otherwise put this tree's own src ahead of PYTHONPATH.  A
mutant is killed when a node id fails (pytest exit 1) and survives when all
pass.  The runner prints one line per mutant and exits 1 when any mutant
survives or cannot be run (its old text is not found exactly once, or
pytest ends in a usage or collection error).

tests/test_mutants.py checks only that each old text occurs exactly once, so
a change that moves mutated code rewrites its mutant in the same change.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    Mutant("ladder-from-mode-factors", "cv.py",
           "return _factor(np.linalg.matrix_power(a.conj().T, j) @ np.linalg.matrix_power(a, k))",
           'return _factor(_mode_factors(cutoff, j)["ad"][0] @ _mode_factors(cutoff, k)["a"][0])',
           ("tests/test_cv.py::TestFixedIngredients",)),
    Mutant("v-times-m1", "cv.py",
           "hit = self._left[id(f1[0])] = f1[0], f1[0] @ self._v",
           "hit = self._left[id(f1[0])] = f1[0], self._v @ f1[0]",
           ("tests/test_cv.py::TestFixedIngredients",)),
    Mutant("trace-shared-across-states", "cv.py",
           "    def trace(self) -> float:\n        return self._trace\n",
           "    def trace(self, _shared={}) -> float:\n"
           "        return _shared.setdefault(self.dims, self._trace)\n",
           ("tests/test_cv.py::TestFixedIngredients",)),
    Mutant("a-ad-swapped", "cv.py",
           'factors = {"a": am, "ad": adm,',
           'factors = {"a": adm, "ad": am,',
           ("tests/test_cv.py::TestFixedIngredients", "tests/test_cv.py::TestIneq11")),
    Mutant("pt-index-swap-removed", "cv.py",
           "            j0, l0 = l0, j0\n",
           "            pass\n",
           ("tests/test_cv.py::TestPtView", "tests/test_cv.py::TestPurePtGather")),
    Mutant("nan-tail-accepted", "cv.py",
           "if not tail < TAIL_THRESHOLD:",
           "if tail >= TAIL_THRESHOLD:",
           ("tests/test_cv.py::TestTruncationGuard",)),
    Mutant("truncation-unreliable", "cli.py",
           '"reliable": True}',
           '"reliable": False}',
           ("tests/test_cli.py::TestReportsFromRecords",)),
    Mutant("sweep-witness-on-rho", "cli.py",
           "np.vdot(v2, cert.rho_pt.matrix @ v2)",
           "np.vdot(v2, rho.matrix @ v2)",
           ("tests/test_cli.py::TestSweep",)),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    return (root / "src" / "nptcert" / mutant.file).read_text().count(mutant.old)


def run(mutant: Mutant) -> str:
    """"killed", "survived" or the reason the mutant could not be run."""
    if occurrences(mutant) != 1:
        return f"old text found {occurrences(mutant)} times in {mutant.file}"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "nptcert" / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *mutant.tests],
            cwd=ROOT, capture_output=True, text=True)
    if proc.returncode in (0, 1):
        return "killed" if proc.returncode == 1 else "survived"
    return f"pytest exit {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    results = {m.name: run(m) for m in MUTANTS if not names or m.name in names}
    for name, result in results.items():
        print(f"{name}: {result}")
    return 0 if all(r == "killed" for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
