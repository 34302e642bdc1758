import itertools
import json

import numpy as np
import pytest

from nptcert.errors import (
    DimensionMismatch,
    InvalidBipartition,
    NotHermitian,
)
from nptcert.hermitian import (
    Bipartition,
    expectation,
    matrix_payload,
    operator_from_payload,
    partial_transpose,
    projector,
    save_operator,
    tensor_product,
    trace_product,
    validate_hermitian,
)
from oracles import eigvals_oracle, pt_oracle, random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def bell_matrix():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


class TestValidateHermitian:
    def test_real_symmetric(self):
        op = validate_hermitian([[0.5, 0.3], [0.3, 0.5]], (2,))
        assert op.deviation == 0.0
        assert op.dims == (2,)

    def test_maximally_non_hermitian(self):
        with pytest.raises(NotHermitian):
            validate_hermitian([[0, 1j], [0, 0]], (2,))

    def test_bell_projector(self):
        op = validate_hermitian(bell_matrix(), (2, 2))
        assert op.dim == 4
        np.testing.assert_allclose(op.matrix, bell_matrix(), atol=1e-15)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            validate_hermitian(np.zeros((2, 3)), (2,))

    def test_rejects_profile_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_hermitian(np.eye(4), (2, 3))

    def test_rejects_non_finite(self):
        m = np.eye(2, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(NotHermitian):
            validate_hermitian(m, (2,))

    def test_symmetrizes_and_records_deviation(self):
        m = np.array([[1.0, 0.1 + 1e-11j], [0.1, 2.0]])
        op = validate_hermitian(m, (2,))
        assert op.deviation > 0
        np.testing.assert_array_equal(op.matrix, op.matrix.conj().T)


class TestProjector:
    def test_matches_validated_outer_product(self):
        # the witness projector is no longer validated; it must still be the
        # matrix validate_hermitian made of v v^dag, bit for bit
        rng = np.random.default_rng(5)
        for d, dims in [(4, (2, 2)), (8, (2, 2, 2)), (12, (3, 4))]:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            u = v / np.linalg.norm(v)
            want = validate_hermitian(np.outer(u, u.conj()), dims, tol=1e-12)
            got = projector(v, dims)
            np.testing.assert_array_equal(got.matrix, want.matrix)
            assert got.dims == dims

    @pytest.mark.parametrize("vector", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]],
                             ids=["zero", "nan", "inf"])
    def test_non_finite_vector(self, vector):
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(NotHermitian):
                projector(vector)

    def test_dims_checked(self):
        with pytest.raises(DimensionMismatch):
            projector(np.ones(4), (2, 3))
        assert projector(np.ones(4)).dims == (4,)


class TestTensorProduct:
    def test_identity_halves(self):
        half = validate_hermitian(np.eye(2) / 2, (2,))
        out = tensor_product(half, half)
        np.testing.assert_array_equal(out.matrix, np.eye(4) / 4)
        assert out.dims == (2, 2)

    def test_basis_ordering_fixture(self):
        # |0><0| x |1><1| must land on basis state |01>, the second slot
        a = validate_hermitian(np.diag([1.0, 0.0]), (2,))
        b = validate_hermitian(np.diag([0.0, 1.0]), (2,))
        out = tensor_product(a, b)
        np.testing.assert_array_equal(np.diagonal(out.matrix).real, [0, 1, 0, 0])

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = validate_hermitian(random_hermitian(rng, 3), (3,))
            b = validate_hermitian(random_hermitian(rng, 2), (2,))
            assert tensor_product(a, b).trace() == pytest.approx(
                a.trace() * b.trace(), abs=1e-12
            )


class TestPartialTranspose:
    def test_diagonal_unchanged(self):
        op = validate_hermitian(np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2))
        out = partial_transpose(op, Bipartition(frozenset({0}), 2))
        np.testing.assert_array_equal(out.matrix, op.matrix)

    def test_bell_spectrum(self):
        op = validate_hermitian(bell_matrix(), (2, 2))
        out = partial_transpose(op, Bipartition(frozenset({0}), 2))
        expected = eigvals_oracle(out.matrix)
        np.testing.assert_allclose(expected, [0.5, 0.5, 0.5, -0.5], atol=1e-12)

    def test_involution_bit_exact(self):
        rng = np.random.default_rng(5)
        bip = Bipartition(frozenset({0, 2}), 3)
        op = validate_hermitian(random_hermitian(rng, 12), (2, 3, 2))
        once = partial_transpose(op, bip)
        twice = partial_transpose(once, bip)
        np.testing.assert_array_equal(twice.matrix, op.matrix)

    def test_trace_preserved_exactly(self):
        rng = np.random.default_rng(6)
        op = validate_hermitian(random_hermitian(rng, 6), (2, 3))
        out = partial_transpose(op, Bipartition(frozenset({1}), 2))
        assert np.trace(out.matrix) == np.trace(op.matrix)

    def test_product_rule_exact(self):
        rng = np.random.default_rng(7)
        a = validate_hermitian(random_hermitian(rng, 2), (2,))
        b = validate_hermitian(random_hermitian(rng, 3), (3,))
        prod = tensor_product(a, b)
        out = partial_transpose(prod, Bipartition(frozenset({0}), 2))
        np.testing.assert_array_equal(out.matrix, np.kron(a.matrix, b.matrix.T))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        for dims, party_two in [((2, 2), {1}), ((2, 3), {0}), ((2, 2, 3), {0, 2})]:
            n = int(np.prod(dims))
            op = validate_hermitian(random_hermitian(rng, n), dims)
            bip = Bipartition(frozenset(range(len(dims))) - set(party_two), len(dims))
            got = partial_transpose(op, bip).matrix
            np.testing.assert_array_equal(got, pt_oracle(op.matrix, dims, sorted(party_two)))

    @pytest.mark.parametrize("dims", [(2, 3, 2), (4, 4)])
    def test_view_is_the_partial_transpose(self, dims):
        n = int(np.prod(dims))
        op = validate_hermitian(random_hermitian(np.random.default_rng(n), n), dims)
        cuts = [frozenset(c) for r in range(1, len(dims))
                for c in itertools.combinations(range(len(dims)), r)]
        for one in cuts:  # every cut, against the loop oracle
            bip = Bipartition(one, len(dims))
            got = partial_transpose(op, bip).matrix
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, pt_oracle(op.matrix, dims, sorted(bip.party_two)))

    def test_invalid_bipartitions(self):
        with pytest.raises(InvalidBipartition):
            Bipartition(frozenset(), 2)
        with pytest.raises(InvalidBipartition):
            Bipartition(frozenset({0, 1}), 2)
        with pytest.raises(InvalidBipartition):
            Bipartition(frozenset({3}), 2)
        op = validate_hermitian(np.eye(4) / 4, (2, 2))
        with pytest.raises(InvalidBipartition):
            partial_transpose(op, Bipartition(frozenset({0}), 3))

    def test_parse(self):
        bip = Bipartition.parse("0,1|2", 3)
        assert bip.party_one == {0, 1} and bip.party_two == {2}
        with pytest.raises(InvalidBipartition):
            Bipartition.parse("0|1", 3)          # incomplete complement
        with pytest.raises(InvalidBipartition):
            Bipartition.parse("garbage", 3)


class TestExpectation:
    def test_identity_on_unit_trace(self):
        rho = validate_hermitian(np.diag([0.25, 0.75]), (2,))
        eye = validate_hermitian(np.eye(2), (2,))
        assert expectation(eye, rho) == pytest.approx(1.0, abs=1e-14)

    def test_sigma_z(self):
        rho = validate_hermitian(np.diag([0.7, 0.3]), (2,))
        sz = validate_hermitian(SZ, (2,))
        assert expectation(sz, rho) == pytest.approx(0.4, abs=1e-14)

    def test_spin_covariance_identity(self):
        # For rho = [[a, c], [c*, b]] the symmetrized covariance of
        # (S_x, S_y) = (sigma_x/2, sigma_y/2) equals 2 cr ci, while the bare
        # anticommutator mean vanishes identically.
        rng = np.random.default_rng(9)
        sx = validate_hermitian(SX / 2, (2,))
        sy = validate_hermitian(SY / 2, (2,))
        for _ in range(25):
            a = rng.uniform(0, 1)
            c = rng.normal() * 0.3 + 1j * rng.normal() * 0.3
            rho = validate_hermitian([[a, c], [np.conj(c), 1 - a]], (2,))
            anti = validate_hermitian(sx.matrix @ sy.matrix + sy.matrix @ sx.matrix, (2,))
            anti_mean = expectation(anti, rho)
            assert anti_mean == pytest.approx(0.0, abs=1e-13)
            cov = anti_mean - 2 * expectation(sx, rho) * expectation(sy, rho)
            assert cov == pytest.approx(2 * c.real * c.imag, abs=1e-12)

    def test_pt_adjoint_identity(self):
        # <O>_{rho^PT} == <O^PT>_rho
        rng = np.random.default_rng(10)
        bip = Bipartition(frozenset({0}), 2)
        for _ in range(30):
            o = validate_hermitian(random_hermitian(rng, 6), (2, 3))
            rho = validate_hermitian(random_hermitian(rng, 6), (2, 3))
            lhs = expectation(o, partial_transpose(rho, bip))
            rhs = expectation(partial_transpose(o, bip), rho)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(12)
        o1 = validate_hermitian(random_hermitian(rng, 4), (4,))
        o2 = validate_hermitian(random_hermitian(rng, 4), (4,))
        rho = validate_hermitian(random_hermitian(rng, 4), (4,))
        mix = validate_hermitian(0.3 * o1.matrix + 0.7 * o2.matrix, (4,))
        assert expectation(mix, rho) == pytest.approx(
            0.3 * expectation(o1, rho) + 0.7 * expectation(o2, rho), abs=1e-12
        )

    def test_imag_diagnostic_small(self):
        rng = np.random.default_rng(13)
        o = validate_hermitian(random_hermitian(rng, 8), (8,))
        rho = validate_hermitian(random_hermitian(rng, 8), (8,))
        assert abs(trace_product(o.matrix, rho.matrix).imag) <= 1e-9

    def test_dimension_mismatch(self):
        o = validate_hermitian(np.eye(2), (2,))
        rho = validate_hermitian(np.eye(4) / 4, (2, 2))
        with pytest.raises(DimensionMismatch):
            expectation(o, rho)


class TestJsonFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        op = validate_hermitian(random_hermitian(rng, 6), (2, 3))
        path = tmp_path / "op.json"
        save_operator(op, path)
        with open(path) as fh:
            back = operator_from_payload(json.load(fh))
        np.testing.assert_array_equal(back.matrix, op.matrix)
        assert back.dims == (2, 3)

    def test_payload_shape(self):
        op = validate_hermitian(np.eye(2) / 2, (2,))
        payload = matrix_payload(op)
        assert payload["dims"] == [2]
        assert len(payload["matrix"]) == 4
        assert payload["matrix"][0] == [0.5, 0.0]

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            operator_from_payload({"dims": [2], "matrix": [[1.0, 0.0]] * 3})

    def test_rejects_profile_mismatch(self):
        payload = {"dims": [3], "matrix": [[0.0, 0.0]] * 4}
        with pytest.raises(DimensionMismatch):
            operator_from_payload(payload)

    def test_rejects_malformed_entries(self):
        with pytest.raises(DimensionMismatch):
            operator_from_payload({"dims": [2], "matrix": [["x", 0]] * 4})
