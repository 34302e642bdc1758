"""Pseudo-spin observable pairs and uncertainty-relation separability certificates.

A pair (H1, H2) is built on two orthonormal vectors v1, v2 as

    H1 = alpha1 |v1><v2| + conj(alpha1) |v2><v1|
    H2 = alpha2 |v1><v2| + conj(alpha2) |v2><v1|

with x = Re(alpha1 conj(alpha2)) and y = Im(alpha1 conj(alpha2)).  The
default coefficients alpha1 = 1/2, alpha2 = -i/2 give y = 1/4, x = 0 and
reproduce (sigma_x/2, sigma_y/2) on the computational qubit basis.  For a
matrix diagonal in span{v1, v2} with diagonal values l1, l2 the certificate
margin reduces to 4 y^2 l1 l2, which is negative exactly when l1 l2 < 0.
hbar = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConditionNotMet,
    DegenerateCoefficients,
    DimensionMismatch,
    NonNegativeEigenvalue,
    NotHermitian,
    NotOrthogonal,
)
from .hermitian import (
    Bipartition,
    HermitianOperator,
    check_profile,
    complex_pairs,
    expectation,
    partial_transpose,
    projector,
    trace_product,
)
from .spectral import VIOLATION_TOL, NptVerdict, Spectrum, pt_spectrum, require_state_like

ORTHOGONALITY_TOL = 1e-10

# Margin of the printed three-qubit inequality divided by the margin of the
# generic certificate evaluated with the same observables.  Calibrated
# numerically once (it is 64**2, the square of the moment normalization);
# asserted against random states in the test suite.
GHZ_MARGIN_SCALE = 4096.0


@dataclass(frozen=True, eq=False)
class PseudoSpinPair:
    """Rank-<=2 observable pair with its construction data."""

    h1: HermitianOperator
    h2: HermitianOperator
    alpha1: complex
    alpha2: complex
    x: float
    y: float
    v1: np.ndarray
    v2: np.ndarray


@dataclass(frozen=True)
class SRReport:
    """Moments and verdict of one Schroedinger-Robertson evaluation."""

    var_h1: float
    var_h2: float
    second_moment_h1: float  # <H1^2>
    second_moment_h2: float  # <H2^2>
    commutator_mean: float   # |<[H1,H2]>|
    lhs: float
    rhs: float
    margin: float
    violated: bool


@dataclass(frozen=True)
class HurWeakReport:
    """Second-moment (weak) Heisenberg form: <H1^2><H2^2> >= |<[H1,H2]>|^2 / 4."""

    lhs: float
    rhs: float
    margin: float
    violated: bool


@dataclass(frozen=True, eq=False)
class Certificate:
    """Everything one certify pass computes for a state and bipartition."""

    rho_pt: HermitianOperator
    spectrum: Spectrum
    verdict: NptVerdict
    pair: PseudoSpinPair
    report: SRReport


@dataclass(frozen=True)
class TwoQubitEquivalence:
    sr_margin: float
    hur_margin: float
    det: float


@dataclass(frozen=True)
class GhzInequalityResult:
    lhs: float
    rhs: float
    margin: float


def build_pseudospin(v1, v2, alpha1: complex = 0.5, alpha2: complex = -0.5j,
                     dims=None) -> PseudoSpinPair:
    """Construct the observable pair on two orthonormal vectors.

    Raises NotOrthogonal when the vectors are not orthonormal to 1e-10,
    DegenerateCoefficients when Im(alpha1 conj(alpha2)) vanishes (the
    certificate would reduce to 0 >= 0 regardless of the state) and
    NotHermitian for a non-finite input; H1 and H2 are built exactly Hermitian.
    """
    v1 = np.asarray(v1, dtype=np.complex128).reshape(-1)
    v2 = np.asarray(v2, dtype=np.complex128).reshape(-1)
    if v1.shape != v2.shape:
        raise DimensionMismatch(f"vector lengths {v1.shape[0]} vs {v2.shape[0]}")
    for name, v in (("v1", v1), ("v2", v2)):
        if abs(np.linalg.norm(v) - 1.0) > ORTHOGONALITY_TOL:
            raise NotOrthogonal(f"{name} is not a unit vector")
    overlap = abs(np.vdot(v1, v2))
    if overlap > ORTHOGONALITY_TOL:
        raise NotOrthogonal(f"|<v1|v2>| = {overlap:.3e} exceeds {ORTHOGONALITY_TOL}")
    alpha1 = complex(alpha1)
    alpha2 = complex(alpha2)
    if not all(np.isfinite(z).all() for z in (v1, v2, alpha1, alpha2)):
        raise NotHermitian("matrix has non-finite entries")
    prod = alpha1 * np.conj(alpha2)
    x = float(prod.real)
    y = float(prod.imag)
    if y == 0.0:
        raise DegenerateCoefficients(
            f"Im(alpha1 * conj(alpha2)) = 0 for alpha1={alpha1}, alpha2={alpha2}"
        )
    dims = (len(v1),) if dims is None else check_profile(dims, len(v1))
    dyad = np.outer(v1, v2.conj())
    h1 = HermitianOperator(alpha1 * dyad + np.conj(alpha1) * dyad.conj().T, dims)
    h2 = HermitianOperator(alpha2 * dyad + np.conj(alpha2) * dyad.conj().T, dims)
    return PseudoSpinPair(h1, h2, alpha1, alpha2, x, y, v1.copy(), v2.copy())


def sr_moments(h1: HermitianOperator, h2: HermitianOperator,
               rho: HermitianOperator, tol: float = VIOLATION_TOL) -> SRReport:
    """Generic SR evaluation for two arbitrary Hermitian observables over rho.

    rho may be any unit-trace Hermitian matrix, in particular a partial
    transpose; no positivity is assumed.
    """
    if h1.dim != rho.dim or h2.dim != rho.dim:
        raise DimensionMismatch(
            f"observable dims {h1.dim}, {h2.dim} vs state dim {rho.dim}"
        )
    require_state_like(rho)
    r = rho.matrix
    p1 = r @ h1.matrix
    p2 = r @ h2.matrix
    return sr_from_moments(float(np.trace(p1).real), float(np.trace(p2).real),
                           float(trace_product(p1, h1.matrix).real),
                           float(trace_product(p2, h2.matrix).real),
                           trace_product(p1, h2.matrix), trace_product(p2, h1.matrix), tol)


def sr_from_moments(e1, e2, m11, m22, m12, m21, tol: float = VIOLATION_TOL) -> SRReport:
    """The SR report from <H1>, <H2>, <H1^2>, <H2^2> (real), <H1 H2> and <H2 H1>."""
    var1 = m11 - e1 * e1
    var2 = m22 - e2 * e2
    comm_mean = abs(m12 - m21)
    sym_cov = float((m12 + m21).real) - 2.0 * e1 * e2
    lhs = var1 * var2
    rhs = comm_mean ** 2 / 4.0 + sym_cov ** 2 / 4.0
    margin = lhs - rhs
    return SRReport(var1, var2, m11, m22, comm_mean, lhs, rhs, margin, margin < -tol)


def hur_weak_test(pair: PseudoSpinPair, rho: HermitianOperator,
                  tol: float = VIOLATION_TOL) -> HurWeakReport:
    """Weak form with raw second moments in place of variances.

    Its margin never sits below the SR margin on the same inputs, so a weak
    violation implies an SR violation.
    """
    rep = sr_moments(pair.h1, pair.h2, rho, tol)
    lhs = rep.second_moment_h1 * rep.second_moment_h2
    rhs = rep.commutator_mean ** 2 / 4.0
    margin = lhs - rhs
    return HurWeakReport(lhs, rhs, margin, margin < -tol)


def certify(rho: HermitianOperator, bip: Bipartition, tol: float = VIOLATION_TOL) -> Certificate:
    """The one certify pass for a state and bipartition.

    One partial transpose and one eigensolve of rho^PT (see pt_spectrum),
    then the pair on the largest eigenvector and the most negative one (the
    smallest when the state is PPT) and the SR report over rho^PT.
    """
    rho_pt, spectrum, verdict = pt_spectrum(rho, bip, tol)
    pair = build_pseudospin(spectrum.vector(0), spectrum.vector(-1), dims=rho.dims)
    report = sr_moments(pair.h1, pair.h2, rho_pt, tol)
    return Certificate(rho_pt, spectrum, verdict, pair, report)


def sr_pt_test(rho: HermitianOperator, bip: Bipartition, tol: float = VIOLATION_TOL):
    """Full certification workflow for a state and bipartition.

    Returns (NptVerdict, PseudoSpinPair, SRReport) of the certify pass; the
    report is violated exactly when the state is NPT.
    """
    cert = certify(rho, bip, tol)
    return cert.verdict, cert.pair, cert.report


def witness_from_eigvec(v2, lambda2: float, bip: Bipartition,
                        dims) -> HermitianOperator:
    """Entanglement witness W = (|v2><v2|)^PT from a negative PT eigenvalue.

    Tr{W rho} equals lambda2 for the state whose partial transpose produced
    (lambda2, v2), and is nonnegative on every separable state.
    """
    if lambda2 >= 0.0:
        raise NonNegativeEigenvalue(f"source eigenvalue {lambda2} is not negative")
    return partial_transpose(projector(v2, dims), bip)


def variance_positivity(rho_pt: HermitianOperator, spectrum: Spectrum,
                        tol: float = VIOLATION_TOL):
    """Negative-variance observables from a doubly negative PT spectrum.

    When rho_pt has at least two eigenvalues below -tol, an observable pair
    built on the two most negative eigenvectors has second moment
    |alpha|^2 (l_a + l_b) < 0, hence a negative variance.  Returns the
    flagged (observable, variance) entries, empty otherwise.  rho_pt must
    have unit trace, as for sr_moments.
    """
    w = spectrum.eigenvalues
    negatives = np.where(w < -tol)[0]
    if len(negatives) < 2:
        return []
    # eigenvalues are sorted descending, so the last two are the most negative
    i_a, i_b = int(negatives[-1]), int(negatives[-2])
    pair = build_pseudospin(spectrum.vector(i_b), spectrum.vector(i_a), dims=rho_pt.dims)
    rep = sr_moments(pair.h1, pair.h2, rho_pt, tol)
    candidates = [(pair.h1, rep.var_h1), (pair.h2, rep.var_h2)]
    return [(h, var) for h, var in candidates if var < 0.0]


def orthogonal_pair_construct(rho_pt: HermitianOperator, v1, v2,
                              alpha1: complex = 0.5, alpha2: complex = -0.5j,
                              tol: float = VIOLATION_TOL):
    """Certificate from orthogonal vectors that need not be eigenvectors.

    Requires <v1|rho_pt|v1> > 0 and <v2|rho_pt|v2> < 0.  The report is
    evaluated but violation is not guaranteed for such pairs.
    """
    v1 = np.asarray(v1, dtype=np.complex128).reshape(-1)
    v2 = np.asarray(v2, dtype=np.complex128).reshape(-1)
    d1 = float(np.vdot(v1, rho_pt.matrix @ v1).real)
    d2 = float(np.vdot(v2, rho_pt.matrix @ v2).real)
    if not (d1 > 0.0 and d2 < 0.0):
        raise ConditionNotMet(
            f"diagonal values <v1|rho|v1> = {d1:.3e}, <v2|rho|v2> = {d2:.3e} "
            "must be strictly positive / negative"
        )
    pair = build_pseudospin(v1, v2, alpha1, alpha2, dims=rho_pt.dims)
    return pair, sr_moments(pair.h1, pair.h2, rho_pt, tol)


def two_qubit_equivalence(rho: HermitianOperator) -> TwoQubitEquivalence:
    """SR certificate with (sigma_x/2, sigma_y/2) against the 2x2 determinant.

    For a unit-trace Hermitian [[a, c], [conj(c), b]] the SR margin equals
    (ab - |c|^2)/4 and the HUR-only margin (covariance term dropped) equals
    (ab - |c|^2 + 4 cr^2 ci^2)/4.
    """
    if rho.dims != (2,):
        raise DimensionMismatch(f"expected a single-qubit operator, got dims {rho.dims}")
    require_state_like(rho)
    e0 = np.array([1.0, 0.0], dtype=np.complex128)
    e1 = np.array([0.0, 1.0], dtype=np.complex128)
    pair = build_pseudospin(e0, e1, dims=(2,))
    rep = sr_moments(pair.h1, pair.h2, rho)
    hur_margin = rep.lhs - rep.commutator_mean ** 2 / 4.0
    a = float(rho.matrix[0, 0].real)
    b = float(rho.matrix[1, 1].real)
    det = a * b - abs(rho.matrix[0, 1]) ** 2
    return TwoQubitEquivalence(rep.margin, hur_margin, float(det))


# ---------------------------------------------------------------------------
# Three-qubit special case (bipartition {first two | third}).
# ---------------------------------------------------------------------------

_PAULI = {
    "i": np.eye(2, dtype=np.complex128),
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


@lru_cache(maxsize=64)
def _pauli_string(letters: str) -> np.ndarray:
    """P1 x P2 x ... as a read-only matrix, built once per string."""
    op = _PAULI[letters[0]]
    for ch in letters[1:]:
        op = np.kron(op, _PAULI[ch])
    op.flags.writeable = False
    return op


def ghz_correlators(rho: HermitianOperator):
    """The four Pauli correlator combinations entering the three-qubit test,
    each term <P1 x P2 x P3> for a Pauli string such as "zzi"."""
    if rho.dims != (2, 2, 2):
        raise DimensionMismatch(f"state dims {rho.dims} are not three qubits (2, 2, 2)")
    e = lambda s: float(trace_product(_pauli_string(s), rho.matrix).real)
    a_z = e("iii") + e("zzi") - e("ziz") - e("izz")
    b_z = e("zii") + e("izi") - e("iiz") - e("zzz")
    c_xy = e("xxy") + e("xyx") + e("yxx") - e("yyy")
    d_xy = e("xxx") - e("xyy") - e("yxy") - e("yyx")
    return a_z, b_z, c_xy, d_xy


def ghz_inequality(a_z: float, b_z: float, c_xy: float,
                   d_xy: float) -> GhzInequalityResult:
    """Separability test (4A - B^2)(4A - C^2) >= 16 D^2 + B^2 C^2.

    The margin equals GHZ_MARGIN_SCALE times the generic SR margin obtained
    with the explicit observable pair on (|001> +/- |110>)/sqrt(2).
    """
    lhs = (4.0 * a_z - b_z ** 2) * (4.0 * a_z - c_xy ** 2)
    rhs = 16.0 * d_xy ** 2 + b_z ** 2 * c_xy ** 2
    return GhzInequalityResult(lhs, rhs, lhs - rhs)


def ghz_pair() -> PseudoSpinPair:
    """The explicit observable pair built on (|001> +/- |110>)/sqrt(2)."""
    v = np.zeros(8, dtype=np.complex128)
    w = np.zeros(8, dtype=np.complex128)
    v[0b001] = 1.0 / np.sqrt(2.0)
    v[0b110] = 1.0 / np.sqrt(2.0)
    w[0b001] = 1.0 / np.sqrt(2.0)
    w[0b110] = -1.0 / np.sqrt(2.0)
    return build_pseudospin(v, w, dims=(2, 2, 2))


# ---------------------------------------------------------------------------
# JSON certificate payload (schema shared by the CLI).  Schema 2 writes the
# pair and the witness in factored form, O(d) floats each:
#   observables: {dims, v1, v2, alpha1, alpha2}
#   witness:     {dims, vector, bipartition, trace_value}
# with vectors as [[re, im], ...] and each alpha as [re, im].  The dense
# matrices are build_pseudospin(v1, v2, alpha1, alpha2, dims) and
# witness_from_eigvec(vector, lambda2, bipartition, dims).
# ---------------------------------------------------------------------------

REPORT_SCHEMA = 2


def witness_entry(rho: HermitianOperator, bip: Bipartition, spectrum: Spectrum,
                  verdict: NptVerdict) -> dict | None:
    """JSON witness block {dims, vector, bipartition, trace_value} of the most
    negative eigenvector of rho^PT; None when the state is not NPT."""
    if not verdict.is_npt:
        return None
    v2 = spectrum.vector(-1)
    wit = witness_from_eigvec(v2, float(spectrum.eigenvalues[-1]), bip, rho.dims)
    return {"dims": list(rho.dims), "vector": complex_pairs(v2), "bipartition": str(bip),
            "trace_value": expectation(wit, rho)}


def certificate_payload(rho: HermitianOperator, bip: Bipartition,
                        tol: float = VIOLATION_TOL) -> dict:
    """Full certificate for one state and bipartition as a JSON-ready dict."""
    cert = certify(rho, bip, tol)
    verdict, rep, pair, w = cert.verdict, cert.report, cert.pair, cert.spectrum.eigenvalues
    weak = hur_weak_test(pair, cert.rho_pt, tol=tol)
    return {
        "schema": REPORT_SCHEMA,
        "verdict": "violated" if rep.violated else "satisfied",
        "is_npt": verdict.is_npt,
        "pt_eigenvalues": [float(x) for x in w],
        "chosen_pair": {"lambda1": float(w[0]), "lambda2": float(w[-1])},
        "observables": {
            "dims": list(rho.dims),
            "v1": complex_pairs(pair.v1),
            "v2": complex_pairs(pair.v2),
            "alpha1": complex_pairs(pair.alpha1),
            "alpha2": complex_pairs(pair.alpha2),
        },
        "sr": {"lhs": rep.lhs, "rhs": rep.rhs, "margin": rep.margin},
        "hur_weak": dict(vars(weak)),
        "witness": witness_entry(rho, bip, cert.spectrum, verdict),
    }
