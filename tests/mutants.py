"""Named mutants of src/nptcert and the tests that must kill each.

    python tests/mutants.py [NAME ...]

Each mutant is (name, file under src/nptcert, exact old text, new text,
pytest node ids).  The runner copies src/, tests/, perfbench/ and
pyproject.toml to a temporary directory (the censuses of
tests/test_imports.py read the last three beside the package) and runs
pytest there in a fresh interpreter, so pyproject's `pythonpath = ["src"]`
imports the copy.  It first runs every mutant's node ids on the unmutated
copy and stops with exit 1 unless they pass.  Then, for each mutant (all of
them, or the named ones), it replaces the old text in a fresh copy, where
it must occur exactly once, and runs the mutant's node ids.  A mutant is
killed when a node id fails (pytest exit 1) and survives when all pass.  The
runner prints one line per mutant and exits 1 when any mutant survives or
cannot be run (its old text is not found exactly once, or pytest ends in a
usage or collection error).

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
    Mutant("ghz-term-sign", "certificates.py",
           "- e[3]",
           "+ e[3]",
           ("tests/test_certificates.py::TestGhzInequality",)),
    Mutant("ghz-string-swapped", "certificates.py",
           '"iii", "zzi",',
           '"iii", "zzz",',
           ("tests/test_certificates.py::TestGhzInequality",)),
    Mutant("identity-factor-is-a", "cv.py",
           "eye = _ladder(self._cutoff, 0, 0)",
           "eye = _ladder(self._cutoff, 0, 1)",
           ("tests/test_cv.py::TestBandedMoments",)),
    Mutant("vacuum-is-fock1", "cv.py",
           "return fock(0, cutoff)",
           "return fock(1, cutoff)",
           ("tests/test_cv.py::TestBeamSplitter::test_vacuum_fixed_point",
            "tests/test_cv.py::TestIneq10::test_vacuum_components")),
    # the censuses of tests/test_imports.py: an unread field, a public function
    # nothing calls and a read of the process environment
    Mutant("unread-field", "certificates.py",
           "    det: float\n",
           "    det: float\n    census_probe: float = 0.0\n",
           ("tests/test_imports.py::test_every_dataclass_field_is_read_or_listed",)),
    Mutant("uncalled-function", "hermitian.py",
           "def save_operator(",
           "def census_probe():\n    pass\n\n\ndef save_operator(",
           ("tests/test_imports.py::test_every_public_function_has_a_caller_or_is_listed",)),
    Mutant("environment-read", "cli.py",
           "default=certificates.VIOLATION_TOL,",
           'default=float(os.environ.get("NPT_CERTIFY_TOL", certificates.VIOLATION_TOL)),',
           ("tests/test_imports.py::test_no_environment_reads",)),
    Mutant("dims-product-in-int64", "hermitian.py",
           "n = math.prod(dims)",
           "n = int(np.prod(dims))",
           ("tests/test_cli.py::TestErrors::test_refused_with_its_message",)),
    Mutant("dimension-one-accepted", "spectral.py",
           "if rho.dim < 2:",
           "if rho.dim < 1:",
           ("tests/test_spectral.py::TestClassifyNpt",)),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    return (root / "src" / "nptcert" / mutant.file).read_text().count(mutant.old)


def pytest_on_copy(tests, mutant: Mutant | None = None) -> subprocess.CompletedProcess:
    """pytest on node ids in a copy of the tree, with the mutant applied if given."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "pyproject.toml", tmp)
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, Path(tmp) / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = Path(tmp) / "src" / "nptcert" / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tmp, capture_output=True, text=True)


def run(mutant: Mutant) -> str:
    """"killed", "survived" or the reason the mutant could not be run."""
    if occurrences(mutant) != 1:
        return f"old text found {occurrences(mutant)} times in {mutant.file}"
    proc = pytest_on_copy(mutant.tests, mutant)
    if proc.returncode in (0, 1):
        return "killed" if proc.returncode == 1 else "survived"
    return f"pytest exit {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    chosen = [m for m in MUTANTS if not names or m.name in names]
    baseline = pytest_on_copy(sorted({t for m in chosen for t in m.tests}))
    if baseline.returncode != 0:
        print(f"the unmutated tree fails its mutants' tests:\n{baseline.stdout}", file=sys.stderr)
        return 1
    results = {m.name: run(m) for m in chosen}
    for name, result in results.items():
        print(f"{name}: {result}")
    return 0 if all(r == "killed" for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
