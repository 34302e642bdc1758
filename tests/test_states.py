import numpy as np
import pytest

from nptcert import states
from nptcert.errors import DimensionMismatch, ParameterOutOfRange
from nptcert.hermitian import Bipartition, partial_transpose
from nptcert.spectral import pt_spectrum
from nptcert.states import (
    MAX_DIM,
    MAX_TERMS,
    make_bell,
    make_ghz_mixed,
    make_single_photon_entangled,
    make_werner,
    random_density,
    random_separable,
    state_from_spec,
)
from oracles import eigvals_oracle

BIP01 = Bipartition(frozenset({0}), 2)
BIP_AB_C = Bipartition(frozenset({0, 1}), 3)


def purity(op):
    return float(np.trace(op.matrix @ op.matrix).real)


class TestGhzMixed:
    def test_fully_mixed_endpoint(self):
        np.testing.assert_array_equal(make_ghz_mixed(0.0).matrix, np.eye(8) / 8)

    def test_pure_endpoint(self):
        assert purity(make_ghz_mixed(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_pt_eigenvalue_formulas(self):
        for p in np.arange(0.0, 1.0001, 0.05):
            rho = make_ghz_mixed(float(p))
            w = eigvals_oracle(partial_transpose(rho, BIP_AB_C).matrix)
            assert w[0] == pytest.approx((1 + 3 * p) / 8, abs=1e-12)
            assert w[-1] == pytest.approx((1 - 5 * p) / 8, abs=1e-12)

    def test_positive_semidefinite(self):
        w = eigvals_oracle(make_ghz_mixed(0.7).matrix)
        assert w[-1] >= -1e-12

    def test_out_of_range(self):
        with pytest.raises(ParameterOutOfRange):
            make_ghz_mixed(1.5)
        with pytest.raises(ParameterOutOfRange):
            make_ghz_mixed(-0.1)


class TestPureFamilies:
    def test_bell_pt_min_eigenvalue(self):
        w = eigvals_oracle(partial_transpose(make_bell(), BIP01).matrix)
        assert w[-1] == pytest.approx(-0.5, abs=1e-12)

    def test_single_photon_npt(self):
        _, _, verdict = pt_spectrum(make_single_photon_entangled(), BIP01)
        assert verdict.is_npt
        assert verdict.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_purity(self):
        assert purity(make_bell()) == pytest.approx(1.0, abs=1e-12)
        assert purity(make_single_photon_entangled()) == pytest.approx(1.0, abs=1e-12)

    def test_werner_threshold(self):
        # PPT exactly up to p = 1/3 (reference family, oracle eigensolve)
        for p in (0.0, 0.2, 1 / 3 - 1e-6):
            w = eigvals_oracle(partial_transpose(make_werner(p), BIP01).matrix)
            assert w[-1] >= -1e-10
        for p in (1 / 3 + 1e-6, 0.6, 1.0):
            w = eigvals_oracle(partial_transpose(make_werner(p), BIP01).matrix)
            assert w[-1] < -1e-10


class TestRandomFactories:
    def test_density_psd_unit_trace(self):
        for seed in range(25):
            rho = random_density(5, seed)
            assert rho.trace() == pytest.approx(1.0, abs=1e-12)
            assert eigvals_oracle(rho.matrix)[-1] >= -1e-12

    def test_density_seed_reproducible(self):
        a = random_density(4, 123)
        b = random_density(4, 123)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_separable_is_ppt_everywhere(self):
        for seed in range(25):
            rho = random_separable((2, 2, 2), terms=3, seed=seed)
            for one in ({0}, {1}, {2}):
                _, _, verdict = pt_spectrum(rho, Bipartition(frozenset(one), 3))
                assert not verdict.is_npt

    def test_separable_seed_reproducible(self):
        a = random_separable((2, 3), terms=4, seed=9)
        b = random_separable((2, 3), terms=4, seed=9)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            random_density(1, 0)
        with pytest.raises(ParameterOutOfRange):
            random_separable((2, 1), terms=2, seed=0)
        with pytest.raises(ParameterOutOfRange):
            random_separable((2, 2), terms=0, seed=0)
        # a non-integral dim is refused, not truncated to (2, 2)
        with pytest.raises(ParameterOutOfRange, match="not an integer"):
            random_separable((2.7, 2), 1, 0)
        for dim, dims in ((8, (3, 3)), (4, (-2, -2)), (4, ())):
            with pytest.raises(DimensionMismatch):
                random_density(dim, 0, dims=dims)

    def test_product_state(self):
        rho = random_separable((2, 3), 1, seed=3)
        assert rho.dims == (2, 3)
        _, _, verdict = pt_spectrum(rho, BIP01)
        assert not verdict.is_npt


class TestStateSpec:
    def test_dispatch(self):
        rho = state_from_spec({"family": "ghz_mixed", "p": 0.5})
        np.testing.assert_array_equal(rho.matrix, make_ghz_mixed(0.5).matrix)
        assert state_from_spec({"family": "bell"}).dims == (2, 2)
        assert state_from_spec(
            {"family": "random_separable", "dims": [2, 2], "terms": 2, "seed": 1}
        ).dims == (2, 2)

    def test_unknown_family(self):
        with pytest.raises(ParameterOutOfRange):
            state_from_spec({"family": "cat"})

    @pytest.mark.parametrize("spec, key", [
        ({"family": "werner", "p": True}, "p"),
        ({"family": "ghz_mixed", "p": False}, "p"),
        ({"family": "random_density", "dim": 4, "seed": True}, "seed"),
        ({"family": "bell", "seed": False}, "seed"),
        ({"family": "random_separable", "dims": [2, 2], "terms": True}, "terms"),
    ])
    def test_bool_value_is_refused(self, spec, key):
        # JSON true/false would otherwise be read as the number 1/0
        with pytest.raises(ParameterOutOfRange, match=f"{spec['family']!r} has a bool {key!r}"):
            state_from_spec(spec)

    def test_size_caps(self, monkeypatch):
        assert state_from_spec({"family": "product", "dims": [2] * 10}).dim == MAX_DIM

        def no_rng(seed):
            raise AssertionError("an over-cap spec reached the random generator")

        monkeypatch.setattr(states.np.random, "default_rng", no_rng)
        for spec in ({"family": "random_density", "dim": MAX_DIM + 1},
                     {"family": "random_density", "dim": 10**7, "dims": [10**7]},
                     {"family": "product", "dims": [2] * 11},
                     {"family": "product", "dims": []},
                     {"family": "random_separable", "dims": [33, 32]},
                     {"family": "random_separable", "dims": [2, 2], "terms": MAX_TERMS + 1}):
            with pytest.raises(ParameterOutOfRange):
                state_from_spec(spec)
