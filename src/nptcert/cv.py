"""Truncated-Fock-space layer: bosonic operators, moment inequalities,
beam-splitter dynamics and nonclassicality witnesses.

Conventions.  Quadrature-type observables are unnormalized,

    X^(m) = a^dag^m + a^m,      Y^(m) = -i (a^dag^m - a^m),

so for m = 1 they are sqrt(2) times the standard quadratures.  The
squeezed-vacuum factory is phased so that <a^2> = e^{i phi} sinh(r) cosh(r):
at phi = 0 the Y (momentum) quadrature is squeezed, which is the orientation
the fixed beam-splitter generator theta * (a1^dag a2 - a1 a2^dag) maps onto
the (X1 + X2, Y1 - Y2) observable pair.  The two-mode squeezed factory uses
Fock amplitudes proportional to (-tanh r)^k, which squeezes that same pair.

States.  Each factory takes a cutoff and knows its mode count: vacuum,
fock, coherent, squeezed_vacuum and thermal build one mode,
two_mode_squeezed and single_photon_entangled two; with_vacuum_ancilla
adds a vacuum second mode.  Operations read (modes, cutoff) off rho.dims.
A PureFockState's amplitudes give the moments, rho^PT's entries and the
truncation guard; its d^2 x d^2 ``matrix`` is built only when read.  The
vacuum ancilla and the beam splitter map them; thermal stays dense.

Truncation.  An operator of raising order j evaluated on a state is exact
when the state carries no weight on the top j levels of either mode.  The
factories build states at any cutoff; each operation that reads a state
guards it at its own order: it bounds the total population at levels
>= cutoff - order and refuses the state when it exceeds 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .certificates import VIOLATION_TOL, SRReport, require_state_like, sr_from_moments
from .errors import DimensionMismatch, ParameterOutOfRange, TruncationUnreliable
from .hermitian import HermitianOperator, spec_int, trace_product
from .states import check_spec_keys, spec_number, spec_value

DEFAULT_CUTOFF = 30
# The largest cutoff a spec may ask for, checked before anything is
# allocated: a two-mode state at cutoff 60 is a 3721 x 3721 matrix (222 MB).
MAX_CUTOFF = 60
# |theta| cap: the unitarity defect at cutoff 60 is 3.3e-15 up to 1e6, 6.6e-12 at 1e8.
MAX_THETA = 1e6
TAIL_THRESHOLD = 1e-8
# The beam splitter guards its input as the first-order moments of its output
# do (they reach 2 levels above the state support at m = 1).
BEAM_SPLITTER_GUARD_ORDER = 2


def _check_cutoff(cutoff: int) -> int:
    """cutoff + 1, the dimension of one mode; a cutoff below 2 is a ParameterOutOfRange."""
    if cutoff < 2:
        raise ParameterOutOfRange(f"cutoff = {cutoff} must be >= 2")
    return cutoff + 1


def space_of(rho: HermitianOperator) -> tuple:
    """(modes, cutoff) of a one- or two-mode operator with equal mode dimensions."""
    dims = rho.dims
    if len(set(dims)) != 1:
        raise DimensionMismatch(f"unequal mode dimensions {dims}")
    if len(dims) > 2:
        raise ParameterOutOfRange(f"modes = {len(dims)} must be 1 or 2")
    _check_cutoff(dims[0] - 1)
    return len(dims), dims[0] - 1


def destroy(cutoff: int) -> np.ndarray:
    """Single-mode annihilation matrix: <k-1| a |k> = sqrt(k)."""
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=np.float64)), k=1).astype(np.complex128)


def mode_populations(rho: HermitianOperator) -> np.ndarray:
    """Per-mode number-state populations, shape (modes, cutoff+1)."""
    modes, _ = space_of(rho)
    if isinstance(rho, PureFockState):  # rho.matrix's diagonal, by the same operations
        diag = (rho.amplitudes * rho.amplitudes.conj() / rho.trace()).real
    else:
        diag = np.real(np.diagonal(rho.matrix))
    if modes == 1:
        return diag.reshape(1, -1)
    grid = diag.reshape(rho.dims)
    return np.stack([grid.sum(axis=1), grid.sum(axis=0)])


def _guard(rho: HermitianOperator, order: int) -> float:
    """The tail weight, the population at levels >= cutoff - order summed
    over modes; TruncationUnreliable unless it is below TAIL_THRESHOLD."""
    pops = mode_populations(rho)
    tail = float(pops[:, max(pops.shape[1] - 1 - order, 0):].sum())
    if not tail < TAIL_THRESHOLD:  # a nan tail is refused too
        raise TruncationUnreliable(
            f"tail weight {tail:.3e} at order {order} exceeds {TAIL_THRESHOLD}")
    return tail


# ---------------------------------------------------------------------------
# State factories
# ---------------------------------------------------------------------------

# The factories build exactly Hermitian matrices, so they are not validated
# again: see PureFockState.matrix; thermal's real diagonal is Hermitian, and
# dividing by a real trace keeps a matrix exactly Hermitian.  They do not
# guard the truncation: only the operation reading a state knows its order.

@dataclass(frozen=True, eq=False)
class PureFockState:
    """|v><v| for unit-norm amplitudes v; the dense ``matrix`` is built when
    first read."""

    amplitudes: np.ndarray
    dims: tuple

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def trace(self) -> float:
        return self._trace

    @cached_property
    def _trace(self) -> float:
        # <v|v> over the support, summed as np.trace sums the dense diagonal
        w = self.amplitudes[np.flatnonzero(self.amplitudes)]
        return float((w * w.conj()).sum().real)

    @cached_property
    def matrix(self) -> np.ndarray:
        """|v><v| / Tr on the support of v, zeros elsewhere; numpy may fuse
        complex products (FMA), so a complex block is symmetrized."""
        idx = np.flatnonzero(self.amplitudes)
        w = self.amplitudes[idx]
        block = np.outer(w, w.conj())
        if np.any(w.imag):
            block = (block + block.conj().T) / 2.0
        block /= self.trace()
        matrix = np.zeros((self.dim, self.dim), dtype=np.complex128)
        matrix[np.ix_(idx, idx)] = block
        return matrix


def vacuum(cutoff: int) -> PureFockState:
    """Single-mode |0>; the two-mode vacuum is with_vacuum_ancilla(vacuum(cutoff))."""
    return fock(0, cutoff)


def fock(n: int, cutoff: int) -> PureFockState:
    d = _check_cutoff(cutoff)
    if not 0 <= n <= cutoff:
        raise ParameterOutOfRange(f"n = {n} outside 0..{cutoff}")
    v = np.zeros(d, dtype=np.complex128)
    v[n] = 1.0
    return PureFockState(v, v.shape)


def coherent(alpha: complex, cutoff: int) -> PureFockState:
    """|alpha> with amplitudes alpha^k / sqrt(k!), renormalized after truncation."""
    d = _check_cutoff(cutoff)
    if not np.isfinite(alpha):
        raise ParameterOutOfRange(f"alpha = {alpha!r} is not finite")
    amps = np.zeros(d, dtype=np.complex128)
    amps[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, d):
            amps[i] = amps[i - 1] * alpha / math.sqrt(i)
        norm = np.linalg.norm(amps)
    if not np.isfinite(norm):
        raise ParameterOutOfRange(
            f"|alpha| = {abs(alpha):.3g} overflows the amplitudes at cutoff {cutoff}")
    amps /= norm
    return PureFockState(amps, amps.shape)


def squeezed_vacuum(r: float, phi: float, cutoff: int) -> PureFockState:
    """Squeezed vacuum with <a^2> = e^{i phi} sinh(r) cosh(r).

    Even-level amplitudes follow the recurrence
    c_{2k+2} = c_{2k} e^{i phi} tanh(r) sqrt((2k+1)(2k+2)) / (2(k+1)).
    """
    d = _check_cutoff(cutoff)
    if not (np.isfinite(r) and np.isfinite(phi)):
        raise ParameterOutOfRange("squeezing parameters must be finite")
    z = np.exp(1j * phi) * np.tanh(r)
    amps = np.zeros(d, dtype=np.complex128)
    amps[0] = 1.0
    k = 0
    while 2 * k + 2 <= cutoff:
        amps[2 * k + 2] = amps[2 * k] * z * math.sqrt((2 * k + 1) * (2 * k + 2)) / (2 * (k + 1))
        k += 1
    amps /= np.linalg.norm(amps)
    return PureFockState(amps, amps.shape)


def thermal(nbar: float, cutoff: int) -> HermitianOperator:
    """Thermal state with mean occupation nbar (diagonal geometric weights)."""
    d = _check_cutoff(cutoff)
    if not (np.isfinite(nbar) and nbar >= 0):
        raise ParameterOutOfRange(f"nbar = {nbar!r} must be finite and >= 0")
    k = np.arange(d, dtype=np.float64)
    weights = (nbar / (1.0 + nbar)) ** k / (1.0 + nbar) if nbar > 0 else (k == 0).astype(float)
    m = np.diag(weights.astype(np.complex128))
    m /= float(np.trace(m).real)
    return HermitianOperator(m, (d,))


def two_mode_squeezed(r: float, cutoff: int) -> PureFockState:
    """Two-mode squeezed vacuum, amplitudes c_k = (-tanh r)^k / cosh r on |k,k>."""
    d = _check_cutoff(cutoff)
    if not np.isfinite(r):
        raise ParameterOutOfRange(f"r = {r!r} is not finite")
    coeff = (-np.tanh(r)) ** np.arange(d)
    coeff = coeff / np.linalg.norm(coeff)
    v = np.zeros(d * d, dtype=np.complex128)
    v[np.arange(d) * d + np.arange(d)] = coeff
    return PureFockState(v, (d, d))


def single_photon_entangled(cutoff: int) -> PureFockState:
    """(|01> + |10>)/sqrt(2) embedded in the truncated two-mode space."""
    d = _check_cutoff(cutoff)
    v = np.zeros(d * d, dtype=np.complex128)
    v[1] = 1.0 / np.sqrt(2.0)      # |0,1>
    v[d] = 1.0 / np.sqrt(2.0)      # |1,0>
    return PureFockState(v, (d, d))


def with_vacuum_ancilla(rho: HermitianOperator) -> HermitianOperator | PureFockState:
    """Extend a single-mode state to two modes, vacuum in the second; a pure state stays pure."""
    modes, cutoff = space_of(rho)
    if modes != 1:
        raise ParameterOutOfRange("state already has two modes")
    d = cutoff + 1
    if isinstance(rho, PureFockState):  # v x |0>: v on the n2 = 0 amplitudes
        w = np.zeros(d * d, dtype=np.complex128)
        w[::d] = rho.amplitudes
        return PureFockState(w, (d, d))
    # rho x |0><0| copies rho onto the n2 = 0 rows and columns: still exactly Hermitian
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    out[::d, ::d] = rho.matrix
    return HermitianOperator(out, (d, d), rho.deviation)


# ---------------------------------------------------------------------------
# Beam splitter
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BeamSplitterResult:
    state: HermitianOperator | PureFockState
    unitarity_defect: float


@lru_cache(maxsize=8)
def _beam_splitter_unitary(cutoff: int, theta: float):
    """Photon-number blocks of U = exp[theta (a1^dag a2 - a1 a2^dag)] and the
    unitarity defect max |U^dag U - 1|.

    The generator conserves N = n1 + n2, in the truncated space too, so U is
    block diagonal.  On sector N, over |k, N-k> with k ascending, the
    generator is real antisymmetric tridiagonal with
    <k+1, N-k-1| G |k, N-k> = sqrt((k+1)(N-k)); each block is exponentiated
    through the eigendecomposition of the Hermitian i theta G_N.  Returns
    [(rows, U_N)]: |k, N-k> sits at flat index N + k*cutoff, so a sector's
    rows are a strided slice of the two-mode matrix.
    """
    blocks, defect = [], 0.0
    for total in range(2 * cutoff + 1):
        k = np.arange(max(0, total - cutoff), min(total, cutoff) + 1)
        coupling = np.sqrt((k[:-1] + 1.0) * (total - k[:-1]))
        gen = np.diag(coupling, -1) - np.diag(coupling, 1)
        w, v = np.linalg.eigh(1j * theta * gen)
        # exp(theta G_N) is real orthogonal; the imaginary part is rounding
        u = ((v * np.exp(-1j * w)) @ v.conj().T).real
        u.flags.writeable = False
        defect = max(defect, float(np.max(np.abs(u.T @ u - np.eye(len(k))))))
        blocks.append((slice(total + k[0] * cutoff, total + k[-1] * cutoff + 1, cutoff), u))
    return blocks, defect


def beam_splitter(rho: HermitianOperator, theta: float) -> BeamSplitterResult:
    """U rho U^dag with U = exp[theta (a1^dag a2 - a1 a2^dag)].

    theta = pi/4 is the 50:50 splitter.  The total photon number is
    conserved, so the truncation tail is not spread by the map.  U is applied
    block by block over the photon-number sectors, never as a dense matrix; a
    PureFockState goes to U|v>.  Raises ParameterOutOfRange unless |theta| <= MAX_THETA.
    """
    modes, cutoff = space_of(rho)
    if modes != 2:
        raise ParameterOutOfRange("beam splitter acts on two-mode states")
    if not abs(theta) <= MAX_THETA:  # nan fails the comparison too
        raise ParameterOutOfRange(f"theta = {theta} must be finite, |theta| <= {MAX_THETA:g}")
    _guard(rho, BEAM_SPLITTER_GUARD_ORDER)
    blocks, defect = _beam_splitter_unitary(cutoff, float(theta))

    def left(m):
        # U is real, so each block acts on the interleaved (re, im) float view
        out = np.empty_like(m)
        src, dst = m.view(np.float64), out.view(np.float64)
        for rows, u in blocks:
            dst[rows] = u @ src[rows]
        return out

    if isinstance(rho, PureFockState):  # U|v>: one column through the same blocks
        v = left(np.ascontiguousarray(rho.amplitudes, dtype=np.complex128)[:, None])
        return BeamSplitterResult(PureFockState(v.ravel(), rho.dims), defect)
    # U (U rho)^T = conj(U rho U^dag): rho^T = conj(rho) and U is real
    y = left(left(np.ascontiguousarray(rho.matrix, dtype=np.complex128)).T.copy())
    # U rho U^dag is Hermitian only to rounding: symmetrize once
    out = np.conj(y)
    out += y.T
    out *= 0.5
    return BeamSplitterResult(HermitianOperator(out, rho.dims, rho.deviation), defect)


# ---------------------------------------------------------------------------
# Moment evaluation
# ---------------------------------------------------------------------------

def _factor(m: np.ndarray):
    """(m made read-only, views of its nonzero diagonals as [(first row,
    first column, values)]): the form in which _MomentEngine reads a factor."""
    m.flags.writeable = False
    rows, cols = np.nonzero(m)
    offsets = np.flatnonzero(np.bincount(cols - rows + len(m) - 1)) - (len(m) - 1)
    return m, [(max(0, -o), max(0, o), np.diagonal(m, o)) for o in offsets.tolist()]


class _MomentEngine:
    """Expectations Tr{rho (M1 x M2)} of kron-factored two-mode operators,
    each factor a _factor pair or None for the identity.

    A pure state gives <V, M1 V M2^T>, V the (d, d) reshape of its
    amplitudes, M1 V formed once per M1; V I = V exactly, so the identity is
    skipped.  Otherwise banded gathers: for diagonal o1 of M1 and o2 of M2
    the trace picks the entries rho4[i, j, i - o1, j - o2] (rho4 the
    (d, d, d, d) reshape of rho), one O(d^2) gather per pair of diagonals.
    With pt, rho4 is rho^PT[i, j, k, l] = rho[i, l, k, j]: each gather swaps
    its mode-2 offsets and reads rho, from the reshape of a dense
    rho.matrix, or for a pure state as V[i, j] conj(V[k, l]) / Tr computed
    by the float operations of PureFockState.matrix.
    """

    def __init__(self, rho: HermitianOperator, pt: bool = False):
        self._v = self._r4 = self._pure = None
        self._pt, self._cutoff, self._left = pt, rho.dims[0] - 1, {}
        if isinstance(rho, PureFockState) and pt:
            v = rho.amplitudes.reshape(rho.dims)
            self._pure = v, rho.trace(), bool(np.any(v.imag))
        elif isinstance(rho, PureFockState):
            self._v = rho.amplitudes.reshape(rho.dims)
        else:
            self._r4 = rho.matrix.reshape(rho.dims + rho.dims)

    def _band(self, i0, j0, k0, l0, n1, n2):
        """rho4[i0 + t, j0 + s, k0 + t, l0 + s] over t < n1, s < n2."""
        if self._pt:  # rho^PT[i, j, k, l] = rho[i, l, k, j]: the PT acts on mode 2
            j0, l0 = l0, j0
        if self._r4 is not None:
            t, s = np.arange(n1)[:, None], np.arange(n2)
            return self._r4[i0 + t, j0 + s, k0 + t, l0 + s]
        v, trace, is_complex = self._pure
        x, y = v[i0:i0 + n1, j0:j0 + n2], v[k0:k0 + n1, l0:l0 + n2]
        band = x * y.conj()
        if is_complex:  # as PureFockState.matrix symmetrizes a complex block
            band = (band + (y * x.conj()).conj()) / 2.0
        return band / trace

    def kron_moment(self, f1, f2) -> complex:
        if self._v is not None:
            left = self._v
            if f1 is not None:
                hit = self._left.get(id(f1[0]))
                if hit is None:  # the entry keeps M1 alive, so its id stays its own
                    hit = self._left[id(f1[0])] = f1[0], f1[0] @ self._v
                left = hit[1]
            return complex(np.vdot(self._v, left if f2 is None else left @ f2[0].T))
        eye = _ladder(self._cutoff, 0, 0)  # a dense gather reads the identity's diagonal
        total = 0j
        for k0, i0, w1 in (eye if f1 is None else f1)[1]:
            for l0, j0, w2 in (eye if f2 is None else f2)[1]:
                total += w1 @ self._band(i0, j0, k0, l0, len(w1), len(w2)) @ w2
        return complex(total)


@lru_cache(maxsize=16)
def _mode_factors(cutoff: int, m: int):
    """Single-mode building blocks of order m at a given cutoff, as _factor pairs."""
    a = destroy(cutoff)
    am = np.linalg.matrix_power(a, m)
    adm = am.conj().T
    x = adm + am
    y = -1j * (adm - am)
    c = am @ adm - adm @ am
    factors = {"a": am, "ad": adm, "x": x, "y": y, "c": c,
               "xx": x @ x, "yy": y @ y, "xy_anti": x @ y + y @ x,
               "aa": am @ am, "adad": adm @ adm,
               "a_ad": am @ adm, "ad_a": adm @ am}
    return {name: _factor(f) for name, f in factors.items()}


@lru_cache(maxsize=32)
def _ladder(cutoff: int, j: int, k: int):
    """a^dag^j a^k as a read-only _factor pair, by matrix_power, for the relation check,
    the witnesses and (j = k = 0) the identity; the inequalities read _mode_factors."""
    a = destroy(cutoff)
    return _factor(np.linalg.matrix_power(a.conj().T, j) @ np.linalg.matrix_power(a, k))


@dataclass(frozen=True)
class CvInequalityReport:
    inequality: str
    m: int
    n: int
    lhs: float
    rhs: float
    margin: float
    hur_variant_margin: float
    sum_hur_margin: float
    violated: bool
    tail_weight: float


def _cv_report(inequality, m, n, var1, var2, shift, comm, cov_half, tol, tail):
    """(Var1 + shift)(Var2 + shift) >= comm^2 + cov_half^2, its HUR variant
    (no covariance term) and sum form (Var1 + Var2 + 2 shift >= 2|comm|)."""
    lhs = (var1 + shift) * (var2 + shift)
    comm_term = comm ** 2
    rhs = comm_term + cov_half ** 2
    margin = lhs - rhs
    return CvInequalityReport(inequality, m, n, lhs, rhs, margin, lhs - comm_term,
                              var1 + var2 + 2.0 * shift - 2.0 * abs(comm), margin < -tol, tail)


def _inequality_inputs(which: str, rho: HermitianOperator, m: int, n: int):
    """What ineq10 and ineq11 read: the guard's tail weight at order
    2 max(m, n), the mode factors of orders m and n and the moment engine.
    Raises ParameterOutOfRange for a one-mode state and UnnormalizedState
    unless rho has unit trace."""
    modes, cutoff = space_of(rho)
    if modes != 2:
        raise ParameterOutOfRange(f"inequality {which} needs a two-mode state")
    require_state_like(rho)
    tail = _guard(rho, 2 * max(m, n))
    return (tail, _mode_factors(cutoff, m), _mode_factors(cutoff, n),
            _MomentEngine(rho).kron_moment)


def ineq10(rho: HermitianOperator, m: int, n: int,
           tol: float = VIOLATION_TOL) -> CvInequalityReport:
    """Quadrature-type separability test of orders (m, n), moments over rho.

    Var(X1+X2) Var(Y1-Y2) >= <C1+C2>^2 + cov_S^2 with C_i = [a_i^m, a_i^dag^m]
    and cov_S the symmetric-mean covariance of the two observables.  The HUR
    variant drops the covariance term; the sum form replaces the product of
    variances by their sum against 2|<C1+C2>|.
    """
    tail, f1, f2, km = _inequality_inputs("10", rho, m, n)
    e1 = (km(f1["x"], None) + km(None, f2["x"])).real
    e2 = (km(f1["y"], None) - km(None, f2["y"])).real
    m11 = (km(f1["xx"], None) + km(None, f2["xx"]) + 2.0 * km(f1["x"], f2["x"])).real
    m22 = (km(f1["yy"], None) + km(None, f2["yy"]) - 2.0 * km(f1["y"], f2["y"])).real
    anti = (km(f1["xy_anti"], None) - km(None, f2["xy_anti"])
            - 2.0 * km(f1["x"], f2["y"]) + 2.0 * km(f1["y"], f2["x"])).real
    c_mean = (km(f1["c"], None) + km(None, f2["c"])).real

    return _cv_report("10", m, n, m11 - e1 * e1, m22 - e2 * e2, 0.0, c_mean,
                      (anti - 2.0 * e1 * e2) / 2.0, tol, tail)


def ineq11(rho: HermitianOperator, m: int, n: int,
           tol: float = VIOLATION_TOL) -> CvInequalityReport:
    """Cross-mode separability test of orders (m, n), moments over rho.

    (Var X_mn + <C1 C2>)(Var Y_mn + <C1 C2>) >= <[a1^m a2^n, h.c.]>^2 + cov_S^2
    with X_mn = a1^dag^m a2^n + h.c. and Y_mn = -i(a1^dag^m a2^n - h.c.).
    """
    tail, f1, f2, km = _inequality_inputs("11", rho, m, n)

    b_dag_mean = km(f1["ad"], f2["a"])          # <a1^dag^m a2^n>
    e_x = 2.0 * b_dag_mean.real
    e_y = 2.0 * b_dag_mean.imag
    bb = km(f1["aa"], f2["adad"])               # <B^2>, B = a1^m a2^dag^n
    b_bdag = km(f1["a_ad"], f2["ad_a"]).real    # <B B^dag>
    bdag_b = km(f1["ad_a"], f2["a_ad"]).real    # <B^dag B>
    m_xx = 2.0 * bb.real + b_bdag + bdag_b
    m_yy = -2.0 * bb.real + b_bdag + bdag_b
    anti = -4.0 * bb.imag                        # <{X_mn, Y_mn}> = 2i<B^2 - B^dag^2>
    c_prod = km(f1["c"], f2["c"]).real
    comm_aa = (km(f1["a_ad"], f2["a_ad"]) - km(f1["ad_a"], f2["ad_a"])).real

    return _cv_report("11", m, n, m_xx - e_x * e_x, m_yy - e_y * e_y, c_prod, comm_aa,
                      (anti - 2.0 * e_x * e_y) / 2.0, tol, tail)


@dataclass(frozen=True)
class MomentRelationCheck:
    lhs: complex
    rhs: complex
    defect: float


def pt_moment_relation_check(rho: HermitianOperator, m: int, n: int, p: int,
                             q: int) -> MomentRelationCheck:
    """Compare <a1^dag^m a1^n a2^dag^p a2^q> over rho^PT against the
    index-swapped moment <a1^dag^m a1^n a2^dag^q a2^p> over rho.

    The left side gathers rho^PT's entries (_MomentEngine) by swapping rho's
    mode-2 indices; the right side reads rho with the mode-2 exponents swapped.
    For a dense rho both gather the same entries with the same weights, so the
    defect is 0 and only the index swap is tested.  The independent references
    are tests/oracles.py's dense contraction and perfbench's numpy recomputation.
    """
    modes, cutoff = space_of(rho)
    if modes != 2:
        raise ParameterOutOfRange("moment relation needs a two-mode state")
    _guard(rho, 2 * max(m, n, p, q))
    m1 = _ladder(cutoff, m, n)
    lhs = _MomentEngine(rho, pt=True).kron_moment(m1, _ladder(cutoff, p, q))
    rhs = _MomentEngine(rho).kron_moment(m1, _ladder(cutoff, q, p))
    return MomentRelationCheck(lhs, rhs, abs(lhs - rhs))


# ---------------------------------------------------------------------------
# Single-mode nonclassicality witnesses
# ---------------------------------------------------------------------------

def _witness_moments(witness: str, rho: HermitianOperator, m: int, pairs) -> list:
    """<a^dag^j a^k> for each (j, k) of pairs over a one-mode, unit-trace rho,
    guarded at order 2m."""
    modes, cutoff = space_of(rho)
    if modes != 1:
        raise ParameterOutOfRange(f"{witness} is a single-mode witness")
    require_state_like(rho)
    _guard(rho, 2 * m)
    return [trace_product(rho.matrix, _ladder(cutoff, j, k)[0]) for j, k in pairs]


def _squeezing_curve(rho: HermitianOperator, m: int, phi: np.ndarray):
    """amplitude_squeezing at each phase of phi, from moments read once:
    2 Re(e^{-2i phi} <a^2m>) + 2 <a^dag^m a^m> - (2 Re(e^{-i phi} <a^m>))^2;
    and its rounding bound, 16 ulps of 2|<a^2m>| + 2|<a^dag^m a^m>| + 4|<a^m>|^2,
    the most the three terms can add up to (coherent states spread <= 2.5 ulps)."""
    a_m, a_2m, n_m = _witness_moments("amplitude squeezing", rho, m,
                                      [(0, m), (0, 2 * m), (m, m)])
    values = (2.0 * (np.exp(-2j * phi) * a_2m).real + 2.0 * n_m.real
              - (2.0 * (np.exp(-1j * phi) * a_m).real) ** 2)
    return values, 16 * np.finfo(float).eps * (2 * abs(a_2m) + 2 * abs(n_m) + 4 * abs(a_m) ** 2)


def amplitude_squeezing(rho: HermitianOperator, m: int, phi: float) -> float:
    """Normal-ordered variance of a^m e^{-i phi} + a^dag^m e^{i phi}.

    Negative exactly when the state is m-th order amplitude squeezed at
    phase phi; coherent states give 0 at every (m, phi).
    """
    return float(_squeezing_curve(rho, m, np.array([phi]))[0][0])


def amplitude_squeezing_scan(rho: HermitianOperator, m: int):
    """(value, phase) of amplitude_squeezing at the first of 64 phases in
    [0, pi) whose value lies within the curve's rounding bound of its minimum:
    16 ulps of 2|<a^2m>| + 2|<a^dag^m a^m>| + 4|<a^m>|^2.  The first phase
    wins such a tie, so a flat curve (coherent, Fock, thermal) gives phase 0."""
    grid = np.linspace(0.0, np.pi, 64, endpoint=False)
    values, bound = _squeezing_curve(rho, m, grid)
    first = int(np.flatnonzero(values <= values.min() + bound)[0])
    return float(values[first]), float(grid[first])


def photon_stat_nonclassicality(rho: HermitianOperator, m: int) -> float:
    """Normal-ordered variance of a^dag^m a^m:
    <a^dag^2m a^2m> - <a^dag^m a^m>^2; m = 1 is the sub-Poissonian test."""
    n_2m, n_m = _witness_moments("photon statistics", rho, m, [(2 * m, 2 * m), (m, m)])
    return float((n_2m - n_m * n_m).real)


# ---------------------------------------------------------------------------
# Consistency of the printed inequalities with the generic certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrosscheckResult:
    margin_eq: float
    margin_generic: float
    defect: float
    generic_report: SRReport


def cv_pipeline_crosscheck(rho: HermitianOperator, m: int, n: int, which: int) -> CrosscheckResult:
    """Evaluate a printed inequality over rho and the generic SR certificate
    over the explicit Fock-basis rho^PT with the generating observable pair.

    The two margins agree to rounding because the printed forms are exactly
    the PT-mapped moments of the generic pair in the truncated space.  The
    pair is written as lists of terms c (M1 x M2), so its moments are sums of
    banded kron_moment terms over rho^PT's entries, each read from rho with
    its mode-2 indices swapped, never a copy of rho^PT nor a pure state's
    matrix (tests/oracles.py holds the dense Kronecker form).
    Raises ParameterOutOfRange for a one-mode state, an order below 1 or a
    `which` other than 10 and 11, UnnormalizedState unless rho has unit trace.
    """
    if m < 1 or n < 1:
        raise ParameterOutOfRange(f"orders m = {m}, n = {n} must be >= 1")
    if which not in (10, 11):
        raise ParameterOutOfRange(f"which = {which} must be 10 or 11")
    rep = (ineq10 if which == 10 else ineq11)(rho, m, n)
    cutoff = rho.dims[0] - 1  # ineq10/ineq11 checked rho's shape
    f1, f2 = _mode_factors(cutoff, m), _mode_factors(cutoff, n)
    if which == 10:
        eye = _ladder(cutoff, 0, 0)
        h1 = [(1, f1["x"], eye), (1, eye, f2["x"])]                 # X1 + X2
        h2 = [(1, f1["y"], eye), (1, eye, f2["y"])]                 # Y1 + Y2
    else:  # B = a1^m a2^n
        h1 = [(1, f1["ad"], f2["ad"]), (1, f1["a"], f2["a"])]       # B^dag + B
        h2 = [(-1j, f1["ad"], f2["ad"]), (1j, f1["a"], f2["a"])]    # -i (B^dag - B)
    # ineq10/ineq11 checked rho's unit trace, which the partial transpose keeps
    km = _MomentEngine(rho, pt=True).kron_moment

    def mean(p, q=None):  # <P>, or <P Q>, over rho^PT
        if q is not None:
            p = [(c * e, _factor(a[0] @ g[0]), _factor(b[0] @ h[0]))
                 for c, a, b in p for e, g, h in q]
        return sum(c * km(a, b) for c, a, b in p)
    generic = sr_from_moments(mean(h1).real, mean(h2).real, mean(h1, h1).real,
                              mean(h2, h2).real, mean(h1, h2), mean(h2, h1))
    return CrosscheckResult(rep.margin, generic.margin,
                            abs(rep.margin - generic.margin), generic)


# ---------------------------------------------------------------------------
# CV state specs (CLI surface)
# ---------------------------------------------------------------------------

# Each family's keys besides "cutoff", and its factory on (spec, cutoff).
_CV_FAMILIES = {
    "coherent": ({"alpha"}, lambda s, c: coherent(spec_number(s, "alpha", complex), c)),
    "fock": ({"n"}, lambda s, c: fock(spec_int(spec_value(s, "n"), "n"), c)),
    "squeezed_vacuum": ({"r", "phi"}, lambda s, c: squeezed_vacuum(
        spec_number(s, "r"), spec_number(s, "phi", default=0.0), c)),
    "thermal": ({"nbar"}, lambda s, c: thermal(spec_number(s, "nbar"), c)),
    "vacuum": (set(), lambda s, c: vacuum(c)),
    "two_mode_squeezed": ({"r"}, lambda s, c: two_mode_squeezed(spec_number(s, "r"), c)),
    "single_photon_entangled": (set(), lambda s, c: single_photon_entangled(c)),
}


def cv_state_from_spec(spec: dict) -> HermitianOperator:
    """Build a CV state from a spec such as
    {"family": "squeezed_vacuum", "r": 0.5, "phi": 0, "cutoff": 30}.  The
    cutoff is checked, 2..MAX_CUTOFF, before any other value is read."""
    family = spec.get("family")
    if family not in _CV_FAMILIES:
        raise ParameterOutOfRange(f"unknown CV state family {family!r}")
    keys, build = _CV_FAMILIES[family]
    check_spec_keys(spec, keys | {"cutoff"})
    cutoff = spec_int(spec_value(spec, "cutoff", DEFAULT_CUTOFF), "cutoff")
    if cutoff > MAX_CUTOFF:
        raise ParameterOutOfRange(f"cutoff = {cutoff} exceeds {MAX_CUTOFF}")
    _check_cutoff(cutoff)
    return build(spec, cutoff)
