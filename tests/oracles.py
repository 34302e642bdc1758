"""Independent oracles used to freeze expected values.

Everything here is deliberately coded against numpy primitives and plain
index bookkeeping, not against the library's own code paths.
"""

import numpy as np


def pt_oracle(mat, dims, party_two):
    """Partial transpose by explicit index arithmetic (slow, loop-based)."""
    dims = tuple(dims)
    n = int(np.prod(dims))
    out = np.zeros_like(mat)

    def unravel(flat):
        idx = []
        rem = flat
        for d in reversed(dims):
            idx.append(rem % d)
            rem //= d
        return list(reversed(idx))

    def ravel(idx):
        flat = 0
        for i, d in zip(idx, dims):
            flat = flat * d + i
        return flat

    for r in range(n):
        for c in range(n):
            ri, ci = unravel(r), unravel(c)
            for s in party_two:
                ri[s], ci[s] = ci[s], ri[s]
            out[ravel(ri), ravel(ci)] = mat[r, c]
    return out


def eigvals_oracle(mat):
    """Reference eigenvalues, descending, via LAPACK."""
    return np.sort(np.linalg.eigvalsh(mat))[::-1]


def random_hermitian(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g + g.conj().T) / 2.0


def random_unit_trace_hermitian(rng, n):
    h = random_hermitian(rng, n)
    h += (1.0 - np.trace(h).real) / n * np.eye(n)
    return h


def random_density_oracle(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# Continuous-variable oracles
# ---------------------------------------------------------------------------

def destroy_oracle(cutoff):
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for k in range(1, cutoff + 1):
        a[k - 1, k] = np.sqrt(k)
    return a


_MANCINI_OPS = {}


def _mancini_operators(cutoff):
    if cutoff not in _MANCINI_OPS:
        a = destroy_oracle(cutoff)
        ad = a.conj().T
        eye = np.eye(cutoff + 1, dtype=complex)
        x = (a + ad) / np.sqrt(2.0)
        p = 1j * (ad - a) / np.sqrt(2.0)
        u = np.kron(x, eye) + np.kron(eye, x)
        v = np.kron(p, eye) - np.kron(eye, p)
        # (A x 1 + s 1 x B)^2 = A^2 x 1 + 2 s A x B + 1 x B^2: the squares
        # as Kronecker sums, not as d^2 x d^2 products
        uu = np.kron(x @ x, eye) + 2.0 * np.kron(x, x) + np.kron(eye, x @ x)
        vv = np.kron(p @ p, eye) - 2.0 * np.kron(p, p) + np.kron(eye, p @ p)
        comm1 = np.kron(x @ p - p @ x, eye)
        comm2 = np.kron(eye, x @ p - p @ x)
        _MANCINI_OPS[cutoff] = (u, v, uu, vv, comm1, comm2)
    return _MANCINI_OPS[cutoff]


def mancini_margin(rho_matrix, cutoff):
    """Product-form quadrature criterion in standard units.

    Margin = Var(x1+x2) Var(p1-p2) - ((c1+c2)/2)^2 with x = (a+a^dag)/sqrt2,
    p = i(a^dag-a)/sqrt2 and c_i = Im <[x_i, p_i]>, all built from the
    truncated ladder matrices.  Negative on no separable state.  The traces
    run over rho's support: the rows and columns holding a nonzero entry.
    """
    u, v, uu, vv, comm1, comm2 = _mancini_operators(cutoff)
    nonzero = rho_matrix != 0
    support = np.ix_(*2 * [np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))])

    def mean(op):
        return np.einsum("ij,ji->", rho_matrix[support], op[support])

    var_u = (mean(uu) - mean(u) ** 2).real
    var_v = (mean(vv) - mean(v) ** 2).real
    c1 = mean(comm1).imag
    c2 = mean(comm2).imag
    return var_u * var_v - ((c1 + c2) / 2.0) ** 2


def bs_fock1_output(theta, cutoff):
    """Exact beam-splitter image of |1,0>: cos(theta)|10> - sin(theta)|01>."""
    d = cutoff + 1
    v = np.zeros(d * d, dtype=complex)
    v[d] = np.cos(theta)    # |1,0>
    v[1] = -np.sin(theta)   # |0,1>
    return np.outer(v, v.conj())


def coherent_vector(alpha, cutoff):
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = 1.0
    for k in range(1, cutoff + 1):
        amps[k] = amps[k - 1] * alpha / np.sqrt(k)
    return amps / np.linalg.norm(amps)


def bs_unitary_oracle(cutoff, theta):
    """Dense truncated exp[theta (a1^dag a2 - a1 a2^dag)] from the
    eigendecomposition of the full two-mode generator."""
    a = destroy_oracle(cutoff)
    eye = np.eye(cutoff + 1)
    a1, a2 = np.kron(a, eye), np.kron(eye, a)
    gen = a1.conj().T @ a2 - a1 @ a2.conj().T
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


def pure_state_oracle(v):
    """Dense |v><v| / Tr: the full outer product, symmetrized when v has
    imaginary parts, divided by its trace."""
    m = np.outer(v, v.conj())
    if np.any(v.imag):
        m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def amplitude_squeezing_oracle(rho_matrix, m, phi):
    """<:(dB)^2:> for B = a^m e^{-i phi} + a^dag^m e^{i phi} on dense matrices,
    through <:B^2:> = <B^2> - <[a^m, a^dag^m]>.  The truncated a^m a^dag^m
    enters both terms as the same product, so the identity holds in the
    truncated space too."""
    am = np.linalg.matrix_power(destroy_oracle(rho_matrix.shape[0] - 1), m)
    adm = am.conj().T
    b = np.exp(-1j * phi) * am + np.exp(1j * phi) * adm

    def mean(op):
        return np.einsum("ij,ji->", rho_matrix, op)
    return (mean(b @ b) - mean(am @ adm - adm @ am) - mean(b) ** 2).real


def photon_stat_oracle(rho_matrix, m):
    """<:(dB)^2:> for B = a^dag^m a^m from the photon-number distribution p_n:
    a^dag^k a^k is diagonal with the falling factorial n (n-1) ... (n-k+1)."""
    p = np.diagonal(rho_matrix).real
    n = np.arange(len(p), dtype=float)

    def falling(k):
        return np.prod([n - i for i in range(k)], axis=0)
    return p @ falling(2 * m) - (p @ falling(m)) ** 2


def dense_kron_moment_oracle(matrix, m1, m2, pt=False):
    """Tr{rho (M1 x M2)} for a two-mode rho by a dense O(d^4) contraction;
    with pt, Tr{rho^PT (M1 x M2)} with the transpose on mode 2 folded into
    the indices: rho^PT[(i, j), (k, l)] = rho[(i, l), (k, j)]."""
    d = m1.shape[0]
    return complex(np.einsum("ilkj,ki,lj->" if pt else "ijkl,ki,lj->",
                             matrix.reshape(d, d, d, d), m1, m2, optimize=True))


def pure_kron_moment_oracle(amplitudes, m1, m2):
    """Tr{rho (M1 x M2)} for rho = |v><v| as <V, M1 V M2^T>, V the (d, d)
    reshape of v, by two dense products whatever the factors: pass the
    identity as an explicit np.eye."""
    v = amplitudes.reshape(m1.shape[0], m2.shape[0])
    return complex(np.vdot(v, m1 @ v @ m2.T))


def crosscheck_pair_oracle(cutoff, m, n, which):
    """The crosscheck's generic pair as dense Kronecker observables: for (10)
    H1 = X1 + X2 and H2 = Y1 + Y2, for (11) H1 = B^dag + B and
    H2 = -i (B^dag - B) with B = a1^m a2^n."""
    a = destroy_oracle(cutoff)
    ad = a.conj().T
    mp = np.linalg.matrix_power
    eye = np.eye(cutoff + 1)
    if which == 10:
        x1, x2 = mp(ad, m) + mp(a, m), mp(ad, n) + mp(a, n)
        y1, y2 = -1j * (mp(ad, m) - mp(a, m)), -1j * (mp(ad, n) - mp(a, n))
        return np.kron(x1, eye) + np.kron(eye, x2), np.kron(y1, eye) + np.kron(eye, y2)
    b_dag = np.kron(mp(ad, m), mp(ad, n))
    return b_dag + b_dag.conj().T, -1j * (b_dag - b_dag.conj().T)


def mode2_pt_copy(rho_matrix):
    """The mode-2 partial transpose of a two-mode (d^2, d^2) matrix as a new
    contiguous array: rho^PT[(i, j), (k, l)] = rho[(i, l), (k, j)]."""
    d = int(round(np.sqrt(rho_matrix.shape[0])))
    return rho_matrix.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)


def sr_pt_oracle(rho_matrix, h1, h2):
    """SR quantities of (h1, h2) over the mode-2 partial transpose of a
    two-mode rho, by dense products."""
    r = mode2_pt_copy(rho_matrix)
    p1, p2 = r @ h1, r @ h2
    e1, e2 = np.trace(p1).real, np.trace(p2).real
    m12, m21 = np.einsum("ij,ji->", p1, h2), np.einsum("ij,ji->", p2, h1)
    var1 = np.einsum("ij,ji->", p1, h1).real - e1 ** 2
    var2 = np.einsum("ij,ji->", p2, h2).real - e2 ** 2
    comm, cov = abs(m12 - m21), (m12 + m21).real - 2.0 * e1 * e2
    lhs, rhs = var1 * var2, (comm ** 2 + cov ** 2) / 4.0
    return {"var_h1": var1, "var_h2": var2, "commutator_mean": comm,
            "lhs": lhs, "rhs": rhs, "margin": lhs - rhs}


# ---------------------------------------------------------------------------
# Copy-based references for the moment engine's partial-transpose gather
# ---------------------------------------------------------------------------
# These run the library's own banded gather (cv._MomentEngine without pt) on
# a contiguous copy of rho^PT made by mode2_pt_copy.  Only the way rho^PT is
# read differs from the library path, which swaps the mode-2 indices of each
# gather on rho itself, so the results must be equal with ==.

def _matrix_moment(rho):
    """Tr{rho (M1 x M2)} by the library's moment engine, for plain matrices."""
    from nptcert import cv
    km = cv._MomentEngine(rho).kron_moment
    return lambda m1, m2: km(cv._factor(m1), cv._factor(m2))


def _copied_pt_moment(rho):
    from nptcert.hermitian import HermitianOperator
    return _matrix_moment(HermitianOperator(mode2_pt_copy(rho.matrix), rho.dims))


def relation_check_copy_reference(rho, m, n, p, q):
    """(lhs, rhs, defect) of pt_moment_relation_check with the left side
    read from a copied rho^PT and the right side from rho itself."""
    from nptcert import cv
    a = cv.destroy(rho.dims[0] - 1)
    ad = a.conj().T
    mp = np.linalg.matrix_power
    m1 = mp(ad, m) @ mp(a, n)
    lhs = _copied_pt_moment(rho)(m1, mp(ad, p) @ mp(a, q))
    rhs = _matrix_moment(rho)(m1, mp(ad, q) @ mp(a, p))
    return lhs, rhs, abs(lhs - rhs)


def crosscheck_copy_reference(rho, m, n, which):
    """(margin_eq, generic SRReport) of cv_pipeline_crosscheck with every
    moment of the generic pair read from a copied rho^PT."""
    from nptcert import cv
    from nptcert.certificates import sr_from_moments
    rep = (cv.ineq10 if which == 10 else cv.ineq11)(rho, m, n)
    cutoff = rho.dims[0] - 1
    f1, f2 = cv._mode_factors(cutoff, m), cv._mode_factors(cutoff, n)
    if which == 10:
        eye = np.eye(cutoff + 1, dtype=np.complex128)
        h1 = [(1, f1["x"][0], eye), (1, eye, f2["x"][0])]
        h2 = [(1, f1["y"][0], eye), (1, eye, f2["y"][0])]
    else:
        h1 = [(1, f1["ad"][0], f2["ad"][0]), (1, f1["a"][0], f2["a"][0])]
        h2 = [(-1j, f1["ad"][0], f2["ad"][0]), (1j, f1["a"][0], f2["a"][0])]
    km = _copied_pt_moment(rho)

    def mean(p, q=None):
        if q is not None:
            p = [(c * e, a @ g, b @ h) for c, a, b in p for e, g, h in q]
        return sum(c * km(a, b) for c, a, b in p)
    return rep.margin, sr_from_moments(mean(h1).real, mean(h2).real, mean(h1, h1).real,
                                       mean(h2, h2).real, mean(h1, h2), mean(h2, h1))
