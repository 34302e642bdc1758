import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nptcert.certificates import (
    GHZ_MARGIN_SCALE,
    build_pseudospin,
    certificate_payload,
    ghz_correlators,
    ghz_inequality,
    ghz_pair,
    hur_weak_test,
    orthogonal_pair_construct,
    sr_moments,
    sr_pt_test,
    two_qubit_equivalence,
    variance_positivity,
    witness_from_eigvec,
)
from nptcert.errors import (
    ConditionNotMet,
    DegenerateCoefficients,
    DimensionMismatch,
    NonNegativeEigenvalue,
    NotHermitian,
    NotOrthogonal,
    UnnormalizedState,
)
from nptcert.hermitian import (
    Bipartition,
    expectation,
    partial_transpose,
    validate_hermitian,
)
from nptcert.spectral import eig_hermitian, pt_spectrum
from nptcert.states import (
    make_bell,
    make_ghz_mixed,
    make_single_photon_entangled,
    make_werner,
    random_density,
    random_separable,
)
from oracles import random_density_oracle, random_hermitian, random_unit_trace_hermitian

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
BIP01 = Bipartition(frozenset({0}), 2)
BIP_AB_C = Bipartition(frozenset({0, 1}), 3)


def herm(mat, dims):
    return validate_hermitian(mat, dims)


class TestBuildPseudospin:
    def test_defaults_give_pauli_halves(self):
        pair = build_pseudospin(E0, E1)
        np.testing.assert_allclose(pair.h1.matrix, SX / 2, atol=1e-15)
        np.testing.assert_allclose(pair.h2.matrix, SY / 2, atol=1e-15)
        assert pair.x == 0.0 and pair.y == pytest.approx(0.25)

    def test_degenerate_coefficients(self):
        with pytest.raises(DegenerateCoefficients):
            build_pseudospin(E0, E1, alpha1=1.0, alpha2=1.0)

    def test_not_orthogonal(self):
        with pytest.raises(NotOrthogonal):
            build_pseudospin(E0, (E0 + E1) / np.sqrt(2))
        with pytest.raises(NotOrthogonal):
            build_pseudospin(2 * E0, E1)

    def test_ghz_eigenvector_pair(self):
        # H1 on (|001> +/- |110>)/sqrt2 reduces to (|001><001| - |110><110|)/2
        pair = ghz_pair()
        expected = np.zeros((8, 8), dtype=complex)
        expected[1, 1] = 0.5
        expected[6, 6] = -0.5
        np.testing.assert_allclose(pair.h1.matrix, expected, atol=1e-15)

    def test_commutator_identity(self):
        # [H1, H2] = 2i y (|v1><v1| - |v2><v2|) for any coefficients
        rng = np.random.default_rng(40)
        g = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        q, _ = np.linalg.qr(g)
        a1 = 0.4 - 0.2j
        a2 = 0.7 + 0.5j
        pair = build_pseudospin(q[:, 0], q[:, 1], a1, a2)
        lhs = pair.h1.matrix @ pair.h2.matrix - pair.h2.matrix @ pair.h1.matrix
        p1 = np.outer(q[:, 0], q[:, 0].conj())
        p2 = np.outer(q[:, 1], q[:, 1].conj())
        np.testing.assert_allclose(lhs, 2j * pair.y * (p1 - p2), atol=1e-14)

    def test_rank_at_most_two(self):
        pair = ghz_pair()
        assert np.linalg.matrix_rank(pair.h1.matrix, tol=1e-12) <= 2

    @pytest.mark.parametrize("v1, alpha1, alpha2", [
        (np.array([np.nan, 0.0]), 0.5, -0.5j),
        (E0, complex(np.nan, 0.0), -0.5j),
        (E0, np.inf, -0.5j),
        (E0, 0.5, complex(0.0, np.inf)),
    ], ids=["nan-v1", "nan-alpha1", "inf-alpha1", "inf-alpha2"])
    def test_non_finite_input(self, v1, alpha1, alpha2):
        # the pair is not validated, so this check alone keeps NaN and inf out
        with pytest.raises(NotHermitian, match="non-finite"):
            build_pseudospin(v1, E1, alpha1, alpha2)

    def test_dims_profile_checked(self):
        assert build_pseudospin(E0, E1, dims=[2.0]).h1.dims == (2,)
        with pytest.raises(DimensionMismatch):
            build_pseudospin(E0, E1, dims=(3,))


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       dims=st.lists(st.integers(2, 4), min_size=1, max_size=3),
       terms=st.integers(1, 6), default_alphas=st.booleans())
def test_library_matrices_exactly_hermitian(p, seed, dims, terms, default_alphas):
    """The factories and the pseudo-spin pair build their matrices as
    HermitianOperator without validation, so each must be exactly Hermitian."""
    dim = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2)))
    alphas = () if default_alphas else tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    pair = build_pseudospin(q[:, 0], q[:, 1], *alphas, dims=dims)
    ops = [make_ghz_mixed(p), make_werner(p), make_bell(), make_single_photon_entangled(),
           random_density(dim, seed, dims=dims), random_separable(dims, terms, seed),
           random_separable(dims, 1, seed), pair.h1, pair.h2]
    for op in ops:
        assert np.array_equal(op.matrix, op.matrix.conj().T)


class TestSrReport:
    def test_maximally_mixed_qubit(self):
        pair = build_pseudospin(E0, E1)
        rep = sr_moments(pair.h1, pair.h2, herm(np.eye(2) / 2, (2,)))
        assert rep.margin == pytest.approx(1 / 16, abs=1e-14)
        assert not rep.violated

    def test_margin_reduction_general_alphas(self):
        # margin == 4 y^2 l1 l2 for a matrix diagonal in the pair's basis
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            g = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            q, _ = np.linalg.qr(g)
            a1 = complex(rng.normal(), rng.normal())
            a2 = complex(rng.normal(), rng.normal())
            if abs((a1 * np.conj(a2)).imag) < 1e-3:
                continue
            pair = build_pseudospin(q[:, 0], q[:, 1], a1, a2)
            lams = rng.normal(size=n)
            lams[2:] = np.abs(lams[2:])
            lams = lams / np.sum(lams)
            rho = sum(
                lams[i] * np.outer(w, w.conj())
                for i, w in enumerate(
                    np.linalg.qr(
                        np.concatenate(
                            [q, rng.standard_normal((n, n - 2))
                             + 1j * rng.standard_normal((n, n - 2))],
                            axis=1,
                        )
                    )[0].T
                )
            )
            rep = sr_moments(pair.h1, pair.h2, herm(rho, (n,)))
            assert rep.margin == pytest.approx(4 * pair.y**2 * lams[0] * lams[1], abs=1e-10)

    def test_pure_state_boundary(self):
        pair = build_pseudospin(E0, E1)
        rep = sr_moments(pair.h1, pair.h2, herm(np.diag([1.0, 0.0]), (2,)))
        assert rep.margin == pytest.approx(0.0, abs=1e-14)
        assert not rep.violated

    def test_requires_unit_trace(self):
        pair = build_pseudospin(E0, E1)
        with pytest.raises(UnnormalizedState):
            sr_moments(pair.h1, pair.h2, herm(np.eye(2), (2,)))

    def test_dimension_mismatch(self):
        pair = build_pseudospin(E0, E1)
        with pytest.raises(DimensionMismatch):
            sr_moments(pair.h1, pair.h2, herm(np.eye(4) / 4, (2, 2)))


class TestSrPtTest:
    def test_bell(self):
        verdict, pair, rep = sr_pt_test(make_bell(), BIP01)
        assert verdict.is_npt and rep.violated
        assert rep.margin == pytest.approx(-1 / 16, abs=1e-12)

    def test_single_photon_entangled(self):
        verdict, _, rep = sr_pt_test(make_single_photon_entangled(), BIP01)
        assert rep.violated
        assert rep.margin == pytest.approx(-1 / 16, abs=1e-12)

    def test_ghz_half(self):
        verdict, _, rep = sr_pt_test(make_ghz_mixed(0.5), BIP_AB_C)
        assert rep.violated
        assert rep.margin == pytest.approx(0.3125 * (-0.1875) / 4, abs=1e-12)

    def test_separable_not_violated(self):
        for seed in range(40):
            rho = random_separable((2, 2), terms=3, seed=seed)
            _, _, rep = sr_pt_test(rho, BIP01)
            assert not rep.violated
            assert rep.margin >= -1e-10

    def test_refuses_non_unit_trace(self):
        doubled = herm(2 * make_bell().matrix, (2, 2))
        with pytest.raises(UnnormalizedState):
            sr_pt_test(doubled, BIP01)

    def test_margin_identity_on_pt_spectrum(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            rho = herm(random_density_oracle(rng, 6), (2, 3))
            _, spec, verdict = pt_spectrum(rho, BIP01)
            _, _, rep = sr_pt_test(rho, BIP01)
            l1 = spec.eigenvalues[0]
            l2 = spec.eigenvalues[-1]
            assert rep.margin == pytest.approx(l1 * l2 / 4, abs=1e-10)


class TestPtOfOperator:
    def test_basis_dyad_mapping(self):
        # |ij><i'j'| -> |ij'><i'j| under PT of the second subsystem
        for (i, j, ip, jp) in [(0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1)]:
            m = np.zeros((4, 4), dtype=complex)
            m[2 * i + j, 2 * ip + jp] = 1.0
            m[2 * ip + jp, 2 * i + j] = 1.0  # keep it Hermitian
            op = herm(m, (2, 2))
            out = partial_transpose(op, BIP01)
            expected = np.zeros((4, 4), dtype=complex)
            expected[2 * i + jp, 2 * ip + j] = 1.0
            expected[2 * ip + j, 2 * i + jp] = 1.0
            np.testing.assert_array_equal(out.matrix, expected)

    def test_diagonal_unchanged(self):
        op = herm(np.diag([1.0, 2.0, 3.0, 4.0]), (2, 2))
        np.testing.assert_array_equal(partial_transpose(op, BIP01).matrix, op.matrix)

    def test_laboratory_form(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            o = herm(random_hermitian(rng, 4), (2, 2))
            rho = herm(random_hermitian(rng, 4), (2, 2))
            lhs = expectation(o, partial_transpose(rho, BIP01))
            rhs = expectation(partial_transpose(o, BIP01), rho)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestHurWeak:
    def test_witness_product_reduction(self):
        # weak margin equals 4|a1 a2|^2 Tr{W1 rho} Tr{W2 rho} for eigen pairs
        rng = np.random.default_rng(44)
        for _ in range(20):
            rho = herm(random_density_oracle(rng, 4), (2, 2))
            _, spec, verdict = pt_spectrum(rho, BIP01)
            pair = build_pseudospin(spec.vector(0), spec.vector(3), dims=(2, 2))
            weak = hur_weak_test(pair, partial_transpose(rho, BIP01))
            l1, l2 = spec.eigenvalues[0], spec.eigenvalues[-1]
            assert weak.margin == pytest.approx(l1 * l2 / 4, abs=1e-10)

    def test_ppt_state_nonnegative(self):
        for seed in range(20):
            rho = random_separable((2, 2), terms=2, seed=seed)
            _, spec, _ = pt_spectrum(rho, BIP01)
            pair = build_pseudospin(spec.vector(0), spec.vector(3), dims=(2, 2))
            weak = hur_weak_test(pair, partial_transpose(rho, BIP01))
            assert weak.margin >= -1e-10

    def test_weak_implies_strong(self):
        # the weak margin never sits below the SR margin, on eigen pairs and
        # on the fixed qubit pair over random 2x2 unit-trace matrices
        rng = np.random.default_rng(45)
        pair = build_pseudospin(E0, E1)
        for _ in range(200):
            rho = herm(random_unit_trace_hermitian(rng, 2), (2,))
            srm = sr_moments(pair.h1, pair.h2, rho).margin
            wkm = hur_weak_test(pair, rho).margin
            assert wkm >= srm - 1e-12

    def test_sr_violated_but_weak_not(self):
        # a = b = 1/2, c = 0.6: det < 0 certifies, second moments do not
        rho = herm([[0.5, 0.6], [0.6, 0.5]], (2,))
        pair = build_pseudospin(E0, E1)
        assert sr_moments(pair.h1, pair.h2, rho).violated
        assert not hur_weak_test(pair, rho).violated


class TestWitness:
    def test_bell_witness_value(self):
        rho = make_bell()
        _, spec, verdict = pt_spectrum(rho, BIP01)
        wit = witness_from_eigvec(spec.vector(3), spec.eigenvalues[-1], BIP01, (2, 2))
        assert expectation(wit, rho) == pytest.approx(-0.5, abs=1e-12)

    def test_unit_trace(self):
        rho = make_bell()
        _, spec, _ = pt_spectrum(rho, BIP01)
        wit = witness_from_eigvec(spec.vector(3), spec.eigenvalues[-1], BIP01, (2, 2))
        assert wit.trace() == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative_on_separable(self):
        rho = make_bell()
        _, spec, _ = pt_spectrum(rho, BIP01)
        wit = witness_from_eigvec(spec.vector(3), spec.eigenvalues[-1], BIP01, (2, 2))
        for seed in range(100):
            sigma = random_separable((2, 2), terms=3, seed=1000 + seed)
            assert expectation(wit, sigma) >= -1e-10

    def test_rejects_nonnegative_eigenvalue(self):
        with pytest.raises(NonNegativeEigenvalue):
            witness_from_eigvec(np.array([1, 0, 0, 0]), 0.1, BIP01, (2, 2))

    def test_linearity_exact(self):
        rng = np.random.default_rng(46)
        rho = make_bell()
        _, spec, _ = pt_spectrum(rho, BIP01)
        wit = witness_from_eigvec(spec.vector(3), spec.eigenvalues[-1], BIP01, (2, 2))
        a = herm(random_density_oracle(rng, 4), (2, 2))
        b = herm(random_density_oracle(rng, 4), (2, 2))
        for mu in (0.0, 0.25, 0.5, 0.9, 1.0):
            mix = herm(mu * a.matrix + (1 - mu) * b.matrix, (2, 2))
            expected = mu * expectation(wit, a) + (1 - mu) * expectation(wit, b)
            assert expectation(wit, mix) == pytest.approx(expected, abs=1e-12)


class TestVariancePositivity:
    def test_single_negative_gives_empty(self):
        rho = make_bell()
        rho_pt = partial_transpose(rho, BIP01)
        spec = eig_hermitian(rho_pt)
        assert variance_positivity(rho_pt, spec) == []

    def test_two_negatives_flagged(self):
        # spectrum {0.8, 0.3, -0.05, -0.05}: variance (l_a + l_b)/4 = -0.025
        rng = np.random.default_rng(47)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(g)
        lams = np.array([0.8, 0.3, -0.05, -0.05])
        m = (q * lams) @ q.conj().T
        op = herm(m, (2, 2))
        spec = eig_hermitian(op)
        flags = variance_positivity(op, spec)
        assert len(flags) == 2
        for _, var in flags:
            assert var == pytest.approx(-0.025, abs=1e-10)

    def test_three_negatives_pair_the_most_negative(self):
        rng = np.random.default_rng(52)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        q, _ = np.linalg.qr(g)
        lams = np.array([0.9, 0.5, -0.1, -0.15, -0.15])
        op = herm((q * lams) @ q.conj().T, (5,))
        spec = eig_hermitian(op)
        flags = variance_positivity(op, spec)
        assert len(flags) == 2
        for _, var in flags:
            assert var == pytest.approx((-0.15 - 0.15) / 4, abs=1e-10)

    def test_ghz_pure_has_single_negative(self):
        # computed spectrum at p = 1 has exactly one negative eigenvalue
        rho = make_ghz_mixed(1.0)
        rho_pt = partial_transpose(rho, BIP_AB_C)
        spec = eig_hermitian(rho_pt)
        assert int(np.sum(spec.eigenvalues < -1e-10)) == 1
        assert variance_positivity(rho_pt, spec) == []


class TestOrthogonalPair:
    def test_eigenvectors_reduce_to_pt_test(self):
        rho = make_bell()
        rho_pt = partial_transpose(rho, BIP01)
        _, spec, verdict = pt_spectrum(rho, BIP01)
        _, _, rep = sr_pt_test(rho, BIP01)
        _, rep2 = orthogonal_pair_construct(rho_pt, spec.vector(0), spec.vector(3))
        assert rep2.margin == pytest.approx(rep.margin, abs=1e-12)

    def test_rotated_vector_evaluates(self):
        rho = make_bell()
        rho_pt = partial_transpose(rho, BIP01)
        _, spec, _ = pt_spectrum(rho, BIP01)
        v2 = spec.vector(3)
        # rotate v1 inside the positive eigenspace, keeping it orthogonal to v2
        v1 = (spec.vector(0) + spec.vector(1)) / np.sqrt(2)
        pair, rep = orthogonal_pair_construct(rho_pt, v1, v2)
        assert np.isfinite(rep.margin)

    def test_condition_not_met(self):
        rho = make_bell()
        rho_pt = partial_transpose(rho, BIP01)
        _, spec, _ = pt_spectrum(rho, BIP01)
        with pytest.raises(ConditionNotMet):
            orthogonal_pair_construct(rho_pt, spec.vector(3), spec.vector(0))


class TestTwoQubitEquivalence:
    def test_pure_boundary(self):
        res = two_qubit_equivalence(herm(np.diag([1.0, 0.0]), (2,)))
        assert res.det == pytest.approx(0.0, abs=1e-14)
        assert res.sr_margin == pytest.approx(0.0, abs=1e-14)

    def test_real_coherence(self):
        res = two_qubit_equivalence(herm([[0.5, 0.6], [0.6, 0.5]], (2,)))
        assert res.det == pytest.approx(-0.11, abs=1e-12)
        assert res.sr_margin < 0

    def test_complex_coherence(self):
        c = 0.3 + 0.2j
        res = two_qubit_equivalence(herm([[0.5, c], [np.conj(c), 0.5]], (2,)))
        assert res.det == pytest.approx(0.12, abs=1e-12)
        assert res.sr_margin == pytest.approx(0.03, abs=1e-12)
        # cr ci != 0 opens the SR-vs-HUR gap
        assert res.hur_margin == pytest.approx(res.sr_margin + (2 * 0.3 * 0.2) ** 2 / 4,
                                               abs=1e-12)

    def test_margin_is_quarter_det(self):
        rng = np.random.default_rng(48)
        for _ in range(500):
            rho = herm(random_unit_trace_hermitian(rng, 2), (2,))
            res = two_qubit_equivalence(rho)
            assert res.sr_margin == pytest.approx(res.det / 4, abs=1e-12)

    def test_rejects_wrong_dims(self):
        with pytest.raises(DimensionMismatch):
            two_qubit_equivalence(herm(np.eye(4) / 4, (2, 2)))


class TestCertificatePayload:
    def test_schema_keys_npt(self):
        payload = certificate_payload(make_bell(), BIP01)
        assert payload["verdict"] == "violated"
        assert set(payload) >= {"schema", "verdict", "is_npt", "pt_eigenvalues",
                                "chosen_pair", "observables", "sr",
                                "hur_weak", "witness"}
        assert payload["schema"] == 2
        assert payload["chosen_pair"]["lambda2"] == pytest.approx(-0.5, abs=1e-12)
        assert set(payload["sr"]) == {"lhs", "rhs", "margin"}
        obs = payload["observables"]
        assert set(obs) == {"dims", "v1", "v2", "alpha1", "alpha2"}
        assert obs["dims"] == [2, 2] and len(obs["v1"]) == len(obs["v2"]) == 4
        assert obs["alpha1"] == [0.5, 0.0] and obs["alpha2"] == [-0.0, -0.5]
        assert set(payload["witness"]) == {"dims", "vector", "bipartition", "trace_value"}
        assert payload["witness"]["bipartition"] == "0|1"
        assert len(payload["witness"]["vector"]) == 4
        assert payload["witness"]["trace_value"] == pytest.approx(-0.5, abs=1e-10)

    def test_schema_ppt_has_no_witness(self):
        payload = certificate_payload(random_separable((2, 2), 3, seed=2), BIP01)
        assert payload["verdict"] == "satisfied"
        assert payload["witness"] is None


class TestGhzInequality:
    def test_maximally_mixed(self):
        rho = herm(np.eye(8) / 8, (2, 2, 2))
        a_z, b_z, c_xy, d_xy = ghz_correlators(rho)
        assert (a_z, b_z, c_xy, d_xy) == (1.0, 0.0, 0.0, 0.0)
        res = ghz_inequality(a_z, b_z, c_xy, d_xy)
        assert res.margin == pytest.approx(16.0, abs=1e-12)

    def test_needs_three_qubits(self):
        for rho in (make_bell(), herm(np.eye(8) / 8, (8,)), herm(np.eye(8) / 8, (2, 4))):
            with pytest.raises(DimensionMismatch, match="three qubits"):
                ghz_correlators(rho)

    @pytest.mark.parametrize("p,violated", [(0.5, True), (0.1, False)])
    def test_threshold(self, p, violated):
        res = ghz_inequality(*ghz_correlators(make_ghz_mixed(p)))
        assert (res.margin < 0) == violated

    def test_closed_form_on_family(self):
        # margin = 16 (1 - 5p)(1 + 3p) for the mixed-GHZ family
        for p in np.linspace(0, 1, 11):
            res = ghz_inequality(*ghz_correlators(make_ghz_mixed(float(p))))
            assert res.margin == pytest.approx(16 * (1 - 5 * p) * (1 + 3 * p), abs=1e-10)

    def test_scale_constant_against_generic(self):
        # one global positive constant links the printed inequality to the
        # generic certificate with the explicit pair; fixed at 4096
        rng = np.random.default_rng(49)
        pair = ghz_pair()
        for _ in range(25):
            rho = herm(random_density_oracle(rng, 8), (2, 2, 2))
            eq8 = ghz_inequality(*ghz_correlators(rho))
            generic = sr_moments(pair.h1, pair.h2, partial_transpose(rho, BIP_AB_C))
            assert eq8.margin == pytest.approx(GHZ_MARGIN_SCALE * generic.margin,
                                               abs=1e-9 * max(1, abs(eq8.margin)))
