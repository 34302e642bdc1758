"""Output checks behind `failed`, run after the timed loop.

Each distinct request is checked once against an answer the benchmark
builds itself; every request's exit code is checked.  Only quantities that
do not depend on eigenvector phases are compared (verdicts, PT eigenvalues,
SR margin = lambda_1 lambda_min / 4, witness trace value), so a change of
eigensolver or of phase convention is not a failure.

Finite states: the partial transpose is a numpy reshape/transpose here and
the spectrum comes from numpy.linalg.eigvalsh.  The GHZ-mixed and Werner
verdicts use the analytic thresholds p > 1/5 and p > 1/3.  CV requests are
checked against the dense oracle cv.cv_pipeline_crosscheck, on beam-splitter
outputs built here from an eigendecomposition of the generator (not expm).
"""

from __future__ import annotations

import csv
import json

import numpy as np

from nptcert import cv, hermitian, states

TOL = 1e-10           # the CLI's default margin tolerance (NPT_CERTIFY_TOL unset)
EIG_ATOL = 1e-9       # eigenvalue and margin agreement
CV_RTOL = 1e-8        # crosscheck and relation-check agreement, relative (criterion 8)
RELATION_DEFECT = 1e-8  # largest relation-check defect the program may report
EXIT_OK, EXIT_VIOLATED = 0, 2


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _close(a: float, b: float, atol: float, what: str) -> None:
    _require(abs(a - b) <= atol, f"{what}: {a!r} vs expected {b!r}")


# ---------------------------------------------------------------------------
# finite states
# ---------------------------------------------------------------------------

def partial_transpose(m: np.ndarray, dims, party_two) -> np.ndarray:
    k = len(dims)
    perm = list(range(2 * k))
    for s in party_two:
        perm[s], perm[k + s] = perm[k + s], perm[s]
    return m.reshape(tuple(dims) * 2).transpose(perm).reshape(m.shape)


def _party_two(cut: str):
    """Subsystems after the bar: the ones the CLI transposes."""
    return [int(t) for t in cut.split("|")[1].split(",")]


def _load_matrix(path: str):
    with open(path) as fh:
        payload = json.load(fh)
    n = int(np.prod(payload["dims"]))
    flat = np.array(payload["matrix"], dtype=np.float64)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(n, n), tuple(payload["dims"])


class FiniteOracle:
    """PT spectrum and verdicts of each distinct (state, cut), computed once."""

    def __init__(self):
        self._cache = {}

    def spectrum(self, expect: dict, bip: str) -> np.ndarray:
        key = (json.dumps(expect.get("spec"), sort_keys=True), expect.get("file"), bip)
        if key not in self._cache:
            if "file" in expect:
                m, dims = _load_matrix(expect["file"])
            else:
                op = states.state_from_spec(dict(expect["spec"]))
                m, dims = op.matrix, op.dims
            pt = partial_transpose(m, dims, _party_two(bip))
            self._cache[key] = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[::-1]
        return self._cache[key]



def _analytic_npt(expect: dict):
    """NPT verdict from the analytic threshold, or None where there is none."""
    if "threshold" in expect:
        return expect["spec"]["p"] > expect["threshold"]
    return expect.get("npt")


def check_finite(req: dict, text: str, code: int, oracle: FiniteOracle) -> None:
    """Each subcommand by its own documented rule: `witness` exits 2 when
    lambda_min < -tol, `check` when the SR margin lambda_1 lambda_min / 4 < -tol."""
    kind, expect = req["kind"], req["expect"]
    if kind == "sweep-ghz":
        _check_sweep(expect, text, code)
        return
    w = oracle.spectrum(expect, expect["bip"])
    lam1, lam_min = float(w[0]), float(w[-1])
    npt = lam_min < -TOL
    margin = lam1 * lam_min / 4.0
    violated = margin < -TOL
    analytic = _analytic_npt(expect)
    if analytic is not None:
        _require(analytic == npt, f"eigvalsh lambda_min {lam_min!r} contradicts the threshold")
        npt = violated = analytic
    out = json.loads(text)
    got = np.asarray(out["pt_eigenvalues"], dtype=float)
    _require(got.shape == w.shape, "pt_eigenvalues length")
    _require(bool(np.all(np.abs(got - w) <= EIG_ATOL)), "pt_eigenvalues differ from eigvalsh")
    _require(out["is_npt"] == npt, f"is_npt {out['is_npt']}, expected {npt}")
    if kind == "check":
        _require(out["verdict"] == ("violated" if violated else "satisfied"),
                 f"verdict {out['verdict']!r}, expected violated={violated}")
        _require(code == (EXIT_VIOLATED if violated else EXIT_OK), f"exit code {code}")
        pair = out["chosen_pair"]
        _close(out["sr"]["margin"], pair["lambda1"] * pair["lambda2"] / 4.0, EIG_ATOL,
               "SR margin vs reported lambda1 lambda2 / 4")
        _close(out["sr"]["margin"], margin, EIG_ATOL, "SR margin")
    else:
        _require(code == (EXIT_VIOLATED if npt else EXIT_OK), f"exit code {code}")
    if npt:
        _require(out["witness"] is not None, "witness missing for an NPT state")
        _close(out["witness"]["trace_value"], lam_min, EIG_ATOL, "witness trace value")
    else:
        _require(out["witness"] is None, "witness given for a PPT state")


def _check_sweep(expect: dict, text: str, code: int) -> None:
    _require(code == EXIT_OK, f"exit code {code}")
    rows = list(csv.DictReader(text.splitlines()))
    ps = np.linspace(expect["p_from"], expect["p_to"], expect["steps"])
    _require(len(rows) == len(ps), "row count")
    party_two = _party_two(expect["bip"])
    for row, p in zip(rows, ps):
        _close(float(row["p"]), float(p), 0.0, "p grid")
        rho = states.make_ghz_mixed(float(p)).matrix
        w = np.linalg.eigvalsh(partial_transpose(rho, (2, 2, 2), party_two))[::-1]
        lam_min = (1.0 - 5.0 * p) / 8.0         # analytic, every 1|2 cut
        _close(float(w[-1]), lam_min, EIG_ATOL, "eigvalsh vs analytic lambda_min")
        _close(float(row["lambda_minus"]), lam_min, EIG_ATOL, "lambda_minus")
        _close(float(row["sr_margin"]), float(w[0]) * lam_min / 4.0, EIG_ATOL, "sr_margin")
        _close(float(row["witness_value"]), lam_min, EIG_ATOL, "witness_value")


# ---------------------------------------------------------------------------
# CV states
# ---------------------------------------------------------------------------

def _parse_source(source: str, cutoff: int) -> dict:
    family, _, rest = source.partition(":")
    spec = {"family": family, "cutoff": cutoff}
    for item in filter(None, rest.split(",")):
        key, _, value = item.partition("=")
        spec[key] = float(value) if key != "n" else int(value)
    return spec


def _ladder(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), 1)


class CvOracle:
    """Dense reference answers; beam-splitter generators are diagonalized once
    per cutoff, so a new theta costs one matrix product."""

    def __init__(self):
        self._generators = {}

    def _unitary(self, cutoff: int, theta: float) -> np.ndarray:
        if cutoff not in self._generators:
            a = _ladder(cutoff)
            eye = np.eye(cutoff + 1)
            a1, a2 = np.kron(a, eye), np.kron(eye, a)
            gen = a1.T @ a2 - a1 @ a2.T                 # real antisymmetric
            self._generators[cutoff] = np.linalg.eigh(1j * gen)
        w, v = self._generators[cutoff]
        return (v * np.exp(-1j * theta * w)) @ v.conj().T   # exp(theta * gen)

    def bs_output(self, expect: dict):
        cutoff = expect["cutoff"]
        single = cv.cv_state_from_spec(_parse_source(expect["source"], cutoff)).matrix
        vac = np.zeros((cutoff + 1, cutoff + 1))
        vac[0, 0] = 1.0
        u = self._unitary(cutoff, expect["theta"])
        out = u @ np.kron(single, vac) @ u.conj().T
        return hermitian.validate_hermitian(out, (cutoff + 1, cutoff + 1))


def _check_cv_report(rep: dict, rho, which: int, m: int, n: int) -> bool:
    """Compare one printed-inequality report with the crosscheck; return its verdict."""
    ref = cv.cv_pipeline_crosscheck(rho, m, n, which)
    scale = max(1.0, abs(ref.generic_report.lhs), abs(ref.generic_report.rhs))
    _close(rep["margin"], ref.margin_generic, CV_RTOL * scale, f"ineq{which} margin")
    violated = ref.margin_generic < -TOL
    _require(rep["violated"] == violated, f"ineq{which} verdict")
    _require(rep["truncation"]["reliable"] is True, "truncation flagged unreliable")
    return violated


def check_cv(req: dict, text: str, code: int, oracle: CvOracle) -> None:
    kind, e = req["kind"], req["expect"]
    out = json.loads(text)
    if kind == "cv-check":
        rho = cv.cv_state_from_spec(_parse_source(e["source"], e["cutoff"]))
        violated = _check_cv_report(out, rho, e["ineq"], e["m"], e["n"])
    elif kind == "bs-demo":
        rho = oracle.bs_output(e)
        _require(out["unitarity_defect"] <= 1e-10, f"unitarity defect {out['unitarity_defect']!r}")
        v10 = _check_cv_report(out["ineq10"], rho, 10, 1, 1)
        v11 = _check_cv_report(out["ineq11"], rho, 11, 1, 1)
        violated = v10 or v11
    else:
        _check_relation(out, e)
        violated = False
    _require(code == (EXIT_VIOLATED if violated else EXIT_OK), f"exit code {code}")


def _check_relation(out: dict, e: dict) -> None:
    """<a1^dag^m a1^n a2^dag^p a2^q> over rho^PT equals the index-swapped
    moment over rho; both sides recomputed here with numpy."""
    cutoff = e["cutoff"]
    d = cutoff + 1
    rho = cv.cv_state_from_spec(_parse_source(e["source"], cutoff)).matrix
    a = _ladder(cutoff)
    mp = np.linalg.matrix_power
    m1 = mp(a.T, e["m"]) @ mp(a, e["n"])
    lhs_op = np.kron(m1, mp(a.T, e["p"]) @ mp(a, e["q"]))
    rhs_op = np.kron(m1, mp(a.T, e["q"]) @ mp(a, e["p"]))
    rho_pt = partial_transpose(rho, (d, d), [1])
    lhs = complex(np.einsum("ij,ji->", rho_pt, lhs_op))
    rhs = complex(np.einsum("ij,ji->", rho, rhs_op))
    scale = max(1.0, abs(lhs))
    _require(abs(lhs - rhs) <= CV_RTOL * scale, f"oracle relation defect {abs(lhs - rhs)!r}")
    _require(out["defect"] <= RELATION_DEFECT, f"relation defect {out['defect']!r}")
    _close(complex(*out["lhs"]), lhs, CV_RTOL * scale, "relation lhs")
    _close(complex(*out["rhs"]), rhs, CV_RTOL * scale, "relation rhs")


def check_request(req: dict, text: str, code: int, oracles: dict) -> None:
    """Raise CheckFailed unless the request's output and exit code are right."""
    if req["kind"] in ("check", "witness", "sweep-ghz"):
        check_finite(req, text, code, oracles.setdefault("finite", FiniteOracle()))
    else:
        check_cv(req, text, code, oracles.setdefault("cv", CvOracle()))
