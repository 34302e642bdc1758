import numpy as np
import pytest

from nptcert.errors import ConvergenceFailure, UnnormalizedState
from nptcert.hermitian import Bipartition, tensor_product, validate_hermitian
from nptcert.spectral import eig_hermitian, pt_spectrum
from nptcert.states import make_bell, make_ghz_mixed, random_separable
from oracles import eigvals_oracle, random_density_oracle, random_hermitian

BIP_AB_C = Bipartition(frozenset({0, 1}), 3)


class TestEigHermitian:
    def test_identity_half(self):
        spec = eig_hermitian(validate_hermitian(np.eye(2) / 2, (2,)))
        np.testing.assert_allclose(spec.eigenvalues, [0.5, 0.5])

    def test_sigma_z(self):
        sz = validate_hermitian(np.diag([1.0, -1.0]), (2,))
        spec = eig_hermitian(sz)
        np.testing.assert_allclose(spec.eigenvalues, [1.0, -1.0])
        np.testing.assert_allclose(np.abs(spec.eigenvectors), np.eye(2), atol=1e-14)

    def test_ghz_pt_values(self):
        # p = 0.5: extremes (1+3p)/8 = 0.3125 and (1-5p)/8 = -0.1875
        from nptcert.hermitian import partial_transpose

        rho = make_ghz_mixed(0.5)
        spec = eig_hermitian(partial_transpose(rho, BIP_AB_C))
        w = spec.eigenvalues
        assert w[0] == pytest.approx(0.3125, abs=1e-12)
        assert w[-1] == pytest.approx(-0.1875, abs=1e-12)
        # degeneracy pattern confirmed numerically: 3 + 4 + 1
        assert np.sum(np.abs(w - 0.3125) < 1e-10) == 3
        assert np.sum(np.abs(w - 0.0625) < 1e-10) == 4
        assert np.sum(np.abs(w + 0.1875) < 1e-10) == 1

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 33, 64])
    def test_invariants_random(self, n):
        rng = np.random.default_rng(100 + n)
        m = validate_hermitian(random_hermitian(rng, n), (n,))
        spec = eig_hermitian(m)
        scale = max(1.0, float(np.max(np.abs(m.matrix))))
        rec = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.max(np.abs(rec - m.matrix)) <= 1e-10 * scale
        orth = spec.eigenvectors.conj().T @ spec.eigenvectors - np.eye(n)
        assert np.max(np.abs(orth)) <= 1e-10
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
        np.testing.assert_allclose(
            spec.eigenvalues, eigvals_oracle(m.matrix), atol=1e-10
        )
        # canonical phase: each column's largest-magnitude entry is real and positive
        top = spec.eigenvectors[np.argmax(np.abs(spec.eigenvectors), axis=0), np.arange(n)]
        assert np.all(top.imag == 0.0) and np.all(top.real > 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(200)
        m = validate_hermitian(random_hermitian(rng, 9), (9,))
        s1 = eig_hermitian(m)
        s2 = eig_hermitian(m)
        np.testing.assert_array_equal(s1.eigenvalues, s2.eigenvalues)
        np.testing.assert_array_equal(s1.eigenvectors, s2.eigenvectors)

    def test_lapack_failure_is_convergence_failure(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        rng = np.random.default_rng(201)
        m = validate_hermitian(random_hermitian(rng, 6), (6,))
        with pytest.raises(ConvergenceFailure):
            eig_hermitian(m)

    def test_zero_matrix(self):
        spec = eig_hermitian(validate_hermitian(np.zeros((3, 3)), (3,)))
        np.testing.assert_array_equal(spec.eigenvalues, np.zeros(3))


class TestClassifyNpt:
    def test_product_state_is_ppt(self):
        rng = np.random.default_rng(300)
        a = validate_hermitian(random_density_oracle(rng, 2), (2,))
        b = validate_hermitian(random_density_oracle(rng, 3), (3,))
        rho = tensor_product(a, b)
        _, _, verdict = pt_spectrum(rho, Bipartition(frozenset({0}), 2))
        assert not verdict.is_npt

    def test_bell(self):
        _, spec, verdict = pt_spectrum(make_bell(), Bipartition(frozenset({0}), 2))
        assert verdict.is_npt
        assert verdict.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
        assert int(np.sum(spec.eigenvalues < -1e-10)) == 1
        assert spec.eigenvalues[0] == pytest.approx(0.5, abs=1e-12)
        assert spec.eigenvalues[-1] == pytest.approx(-0.5, abs=1e-12)

    def test_ghz_threshold_point(self):
        _, _, verdict = pt_spectrum(make_ghz_mixed(0.2), BIP_AB_C)
        assert not verdict.is_npt

    def test_unnormalized(self):
        op = validate_hermitian(np.eye(4), (2, 2))
        with pytest.raises(UnnormalizedState):
            pt_spectrum(op, Bipartition(frozenset({0}), 2))

    def test_pt_eigenvalue_sum_is_one(self):
        rng = np.random.default_rng(301)
        for _ in range(20):
            rho = validate_hermitian(random_density_oracle(rng, 6), (2, 3))
            _, spec, _ = pt_spectrum(rho, Bipartition(frozenset({0}), 2))
            assert np.sum(spec.eigenvalues) == pytest.approx(1.0, abs=1e-10)

    def test_separable_mixtures_never_npt(self):
        # 1000 sampled convex mixtures of product states stay PPT
        rng = np.random.default_rng(302)
        bip = Bipartition(frozenset({0}), 2)
        for trial in range(1000):
            rho = random_separable((2, 2), terms=int(rng.integers(1, 4)), seed=trial)
            _, _, verdict = pt_spectrum(rho, bip)
            assert not verdict.is_npt, f"trial {trial}: {verdict.min_eigenvalue}"
