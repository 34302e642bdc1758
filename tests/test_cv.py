import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from nptcert import certificates, cv
from nptcert.errors import (DimensionMismatch, ParameterOutOfRange, TruncationUnreliable,
                            UnnormalizedState)
from nptcert.hermitian import Bipartition, HermitianOperator, validate_hermitian
from oracles import (amplitude_squeezing_oracle, bs_fock1_output, bs_unitary_oracle,
                     coherent_vector, crosscheck_copy_reference, crosscheck_pair_oracle,
                     dense_kron_moment_oracle, destroy_oracle, mancini_margin,
                     photon_stat_oracle, pure_kron_moment_oracle, pure_state_oracle,
                     random_density_oracle,
                     random_hermitian, relation_check_copy_reference, sr_pt_oracle)
from test_acceptance import _criterion8_states

CUT = 30
SMALL = 12
MID = 20   # deep enough for order-4 moments of warm states


def vacuum2(cutoff):
    """The two-mode vacuum."""
    return cv.with_vacuum_ancilla(cv.vacuum(cutoff))


@pytest.fixture
def unguarded(monkeypatch):
    """No truncation refusal, for a test that compares two evaluations of one
    state whose Fock tail an operation's guard would refuse."""
    monkeypatch.setattr(cv, "TAIL_THRESHOLD", np.inf)


def kron_state(a, b):
    return validate_hermitian(np.kron(a.matrix, b.matrix),
                              a.dims + b.dims, tol=1e-12)


def peak_share_of_matrix(run):
    """Peak traced allocation of run(rho), rho the dense matrix of a cutoff-30
    two-mode squeezed state, over rho.matrix.nbytes: a copy of rho^PT alone
    would read 1.  Dense, so the run gathers rho^PT's entries from rho.matrix
    by the mode-2 index swap (a pure state's come from its amplitudes)."""
    pure = cv.two_mode_squeezed(0.3, CUT)
    rho = HermitianOperator(pure.matrix, pure.dims)
    tracemalloc.start()
    try:
        run(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / rho.matrix.nbytes


def number_mean(rho, mode=0):
    pops = cv.mode_populations(rho)
    return float(pops[mode] @ np.arange(pops.shape[1]))


class TestLadderOps:
    def test_destroy_cutoff_two(self):
        expected = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]])
        np.testing.assert_allclose(cv.destroy(2), expected, atol=1e-15)

    def test_annihilates_vacuum(self):
        a = cv.destroy(10)
        v = np.zeros(11)
        v[0] = 1.0
        np.testing.assert_array_equal(a @ v, np.zeros(11))

    def test_commutator_corner(self):
        n_c = 7
        a = cv.destroy(n_c)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(n_c + 1)
        expected[n_c, n_c] = -n_c
        np.testing.assert_allclose(comm, expected, atol=1e-13)


class TestFactories:
    def test_fock_number(self):
        assert number_mean(cv.fock(1, CUT)) == pytest.approx(1.0, abs=1e-14)

    def test_coherent_number(self):
        assert number_mean(cv.coherent(1.0, CUT)) == pytest.approx(1.0, abs=1e-10)

    def test_squeezed_moments(self):
        r, phi = 0.5, 0.3
        rho = cv.squeezed_vacuum(r, phi, CUT)
        a = cv.destroy(CUT)
        mean_n = number_mean(rho)
        mean_a2 = np.trace(rho.matrix @ a @ a)
        assert mean_n == pytest.approx(np.sinh(r) ** 2, abs=1e-9)
        # phase convention: <a^2> = e^{i phi} sinh r cosh r
        expected = np.exp(1j * phi) * np.sinh(r) * np.cosh(r)
        assert abs(mean_a2 - expected) < 1e-9

    def test_two_mode_squeezed_schmidt(self):
        r = 0.5
        rho = cv.two_mode_squeezed(r, CUT)
        d = CUT + 1
        # Schmidt coefficients of the pure state: |c_k| proportional to tanh^k
        diag_amps = np.sqrt(np.real(np.diagonal(rho.matrix).reshape(d, d).diagonal()))
        expected = np.tanh(r) ** np.arange(d)
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(diag_amps, expected, atol=1e-10)

    def test_thermal_moments(self):
        rho = cv.thermal(1.0, CUT)
        assert number_mean(rho) == pytest.approx(1.0, rel=1e-6)

    def test_unit_trace(self):
        for rho in (cv.fock(2, CUT), cv.coherent(0.7, CUT),
                    cv.squeezed_vacuum(0.4, 0.0, CUT), cv.thermal(0.5, CUT),
                    cv.two_mode_squeezed(0.4, CUT), vacuum2(CUT)):
            assert rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_truncation_guard(self):
        # a factory builds a state at any cutoff; the operations reading it
        # guard it at their own order (TestTruncationGuard)
        rho = cv.coherent(3.0, 8)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(TruncationUnreliable):
            cv.beam_splitter(cv.with_vacuum_ancilla(rho), np.pi / 4)

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            cv.fock(31, CUT)
        with pytest.raises(ParameterOutOfRange):
            cv.thermal(-1.0, CUT)
        with pytest.raises(ParameterOutOfRange, match="modes = 3 must be 1 or 2"):
            cv.ineq10(HermitianOperator(np.eye(27, dtype=complex) / 27, (3, 3, 3)), 1, 1)
        with pytest.raises(ParameterOutOfRange, match="cutoff = 1 must be >= 2"):
            cv.fock(0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            with pytest.raises(ParameterOutOfRange):
                cv.coherent(1e300, CUT)

    @pytest.mark.parametrize("run, error, said", [
        (lambda: cv.space_of(HermitianOperator(np.eye(12, dtype=complex) / 12, (3, 4))),
         DimensionMismatch, "unequal mode dimensions (3, 4)"),
        (lambda: cv.coherent(complex("nan"), CUT), ParameterOutOfRange, "is not finite"),
        (lambda: cv.squeezed_vacuum(np.inf, 0.0, CUT), ParameterOutOfRange,
         "squeezing parameters must be finite"),
        (lambda: cv.squeezed_vacuum(0.3, np.nan, CUT), ParameterOutOfRange,
         "squeezing parameters must be finite"),
        (lambda: cv.two_mode_squeezed(-np.inf, CUT), ParameterOutOfRange, "r = -inf is not finite"),
        (lambda: cv.amplitude_squeezing(vacuum2(SMALL), 1, 0.0), ParameterOutOfRange,
         "amplitude squeezing is a single-mode witness"),
        (lambda: cv.amplitude_squeezing_scan(vacuum2(SMALL), 1), ParameterOutOfRange,
         "amplitude squeezing is a single-mode witness"),
        (lambda: cv.photon_stat_nonclassicality(vacuum2(SMALL), 1), ParameterOutOfRange,
         "photon statistics is a single-mode witness"),
    ], ids=["unequal-modes", "coherent-nan", "squeezed-inf-r", "squeezed-nan-phi",
            "two-mode-squeezed-inf", "amplitude-squeezing-two-mode", "scan-two-mode",
            "photon-stat-two-mode"])
    def test_refused_input(self, run, error, said):
        with pytest.raises(error, match=re.escape(said)):
            run()

    def test_spec_cutoff_cap(self, monkeypatch):
        assert cv.cv_state_from_spec({"family": "vacuum", "cutoff": cv.MAX_CUTOFF}).dims == (61,)

        def no_state(*args):
            raise AssertionError("an over-cap cutoff reached the factory")

        monkeypatch.setattr(cv, "two_mode_squeezed", no_state)
        for cutoff in (cv.MAX_CUTOFF + 1, 10**7):
            with pytest.raises(ParameterOutOfRange):
                cv.cv_state_from_spec({"family": "two_mode_squeezed", "r": 0.3,
                                       "cutoff": cutoff})

    @pytest.mark.parametrize("spec, key", [
        ({"family": "two_mode_squeezed", "r": False}, "r"),
        ({"family": "squeezed_vacuum", "r": True}, "r"),
        ({"family": "squeezed_vacuum", "r": 0.3, "phi": True}, "phi"),
        ({"family": "coherent", "alpha": True}, "alpha"),
        ({"family": "thermal", "nbar": True}, "nbar"),
        ({"family": "vacuum", "cutoff": True}, "cutoff"),
    ])
    def test_spec_bool_value_is_refused(self, spec, key):
        # JSON true/false would otherwise be read as the number 1/0
        with pytest.raises(ParameterOutOfRange, match=f"{spec['family']!r} has a bool {key!r}"):
            cv.cv_state_from_spec(dict(spec, cutoff=spec.get("cutoff", 10)))

    def test_diagnostics_fields(self):
        # the guard's tail weight at the report's order, 2 max(m, n)
        assert cv.ineq10(cv.with_vacuum_ancilla(cv.fock(1, CUT)), 1, 1).tail_weight == 0


class TestBeamSplitter:
    def test_vacuum_fixed_point(self):
        vac = vacuum2(SMALL)
        out = cv.beam_splitter(vac, np.pi / 4)
        np.testing.assert_allclose(out.state.matrix, vac.matrix, atol=1e-12)
        assert out.unitarity_defect < 1e-12

    def test_single_photon_balanced(self):
        rho = cv.with_vacuum_ancilla(cv.fock(1, SMALL))
        out = cv.beam_splitter(rho, np.pi / 4).state
        assert number_mean(out, 0) == pytest.approx(0.5, abs=1e-12)
        assert number_mean(out, 1) == pytest.approx(0.5, abs=1e-12)

    def test_single_photon_exact_state(self):
        theta = 0.7
        rho = cv.with_vacuum_ancilla(cv.fock(1, SMALL))
        out = cv.beam_splitter(rho, theta).state
        np.testing.assert_allclose(out.matrix, bs_fock1_output(theta, SMALL),
                                   atol=1e-12)

    def test_coherent_stays_product(self):
        alpha, theta = 0.8, np.pi / 4
        rho = cv.with_vacuum_ancilla(cv.coherent(alpha, CUT))
        out = cv.beam_splitter(rho, theta).state
        target = np.kron(coherent_vector(alpha * np.cos(theta), CUT),
                         coherent_vector(-alpha * np.sin(theta), CUT))
        overlap = np.real(np.vdot(target, out.matrix @ target))
        assert overlap >= 1 - 1e-8

    def test_needs_two_modes(self):
        with pytest.raises(ParameterOutOfRange):
            cv.beam_splitter(cv.fock(1, SMALL), np.pi / 4)


class TestSectorBeamSplitter:
    """The block-diagonal unitary against the dense truncated one."""

    @pytest.mark.parametrize("cutoff", [3, 10, 20])
    @pytest.mark.parametrize("theta", [0.37, np.pi / 4, 1.3])
    def test_blocks_match_dense_unitary(self, cutoff, theta):
        blocks, defect = cv._beam_splitter_unitary(cutoff, theta)
        d = cutoff + 1
        flat = np.arange(d * d)
        u = np.zeros((d * d, d * d))
        for rows, block in blocks:
            u[np.ix_(flat[rows], flat[rows])] = block
        # the sectors tile the space; those with N > cutoff are truncated, the
        # top one down to |cutoff, cutoff> alone
        np.testing.assert_array_equal(np.sort(np.concatenate([flat[r] for r, _ in blocks])), flat)
        assert len(blocks) == 2 * cutoff + 1 and blocks[-1][1].shape == (1, 1)
        assert np.max(np.abs(u - bs_unitary_oracle(cutoff, theta))) <= 1e-12
        assert defect <= 1e-12

    @pytest.mark.usefixtures("unguarded")
    @pytest.mark.parametrize("cutoff", [3, 10])
    def test_random_full_rank_state_matches_dense(self, cutoff):
        d = cutoff + 1
        rng = np.random.default_rng(cutoff)
        rho = validate_hermitian(random_density_oracle(rng, d * d), (d, d))
        theta = 0.37
        out = cv.beam_splitter(rho, theta).state.matrix
        u = bs_unitary_oracle(cutoff, theta)
        assert np.max(np.abs(out - u @ rho.matrix @ u.conj().T)) <= 1e-12
        np.testing.assert_array_equal(out, out.conj().T)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf"), 1e308,
                                       np.nextafter(cv.MAX_THETA, np.inf)])
    def test_theta_out_of_range(self, theta):
        with pytest.raises(ParameterOutOfRange, match="theta"):
            cv.beam_splitter(vacuum2(3), theta)

    def test_theta_cap_keeps_unitarity(self):
        # the cap was measured at the largest cutoff: the defect is 3.3e-15 there
        out = cv.beam_splitter(vacuum2(cv.MAX_CUTOFF), -cv.MAX_THETA)
        assert out.unitarity_defect < 1e-14


# Single-mode pure inputs of bs-demo; the tests on them run unguarded, since
# coherent and squeezed states carry tail weight at cutoff 3.
BS_INPUTS = {
    **{f"fock{n}": (lambda c, n=n: cv.fock(n, c)) for n in range(4)},
    "coherent-real": lambda c: cv.coherent(0.8, c),
    "coherent-complex": lambda c: cv.coherent(0.4 - 0.3j, c),
    "squeezed-phi0.7": lambda c: cv.squeezed_vacuum(0.3, 0.7, c),
}


class TestPureBeamSplitter:
    """A pure input stays a PureFockState through the vacuum ancilla and the
    beam splitter; the dense sector path on its matrix and the dense
    truncated unitary are the references."""

    @staticmethod
    def both_paths(state, theta):
        pure = cv.beam_splitter(cv.with_vacuum_ancilla(state), theta)
        dense_in = HermitianOperator(state.matrix, state.dims)
        dense = cv.beam_splitter(cv.with_vacuum_ancilla(dense_in), theta)
        assert isinstance(pure.state, cv.PureFockState)
        assert isinstance(dense.state, HermitianOperator)
        return pure, dense

    @pytest.mark.usefixtures("unguarded")
    @pytest.mark.parametrize("cutoff", [3, 10, 20])
    @pytest.mark.parametrize("theta", [0.37, np.pi / 4, 1.3])
    @pytest.mark.parametrize("name", list(BS_INPUTS))
    def test_output_matches_dense_path(self, name, theta, cutoff):
        state = BS_INPUTS[name](cutoff)
        pure, dense = self.both_paths(state, theta)
        out = pure.state.matrix
        assert np.max(np.abs(out - dense.state.matrix)) <= 1e-14
        np.testing.assert_array_equal(out, out.conj().T)
        assert pure.unitarity_defect == dense.unitarity_defect
        u = bs_unitary_oracle(cutoff, theta)
        vac = np.zeros((cutoff + 1, cutoff + 1))
        vac[0, 0] = 1.0
        assert np.max(np.abs(out - u @ np.kron(state.matrix, vac) @ u.conj().T)) <= 1e-12

    # not at cutoff 3: there fock3's sides are rounding of exact zeros
    @pytest.mark.usefixtures("unguarded")
    @pytest.mark.parametrize("cutoff", [10, 20])
    @pytest.mark.parametrize("name", list(BS_INPUTS))
    def test_inequalities_match_dense_path(self, name, cutoff):
        for theta in (0.37, np.pi / 4, 1.3):
            pure, dense = self.both_paths(BS_INPUTS[name](cutoff), theta)
            for m in range(1, 5):
                for n in range(1, 5):
                    for ineq in (cv.ineq10, cv.ineq11):
                        got = ineq(pure.state, m, n)
                        want = ineq(dense.state, m, n)
                        assert abs(got.lhs - want.lhs) <= 1e-12 * abs(want.lhs)
                        assert abs(got.rhs - want.rhs) <= 1e-12 * abs(want.rhs)
                        scale = max(1.0, abs(want.lhs), abs(want.rhs))
                        assert abs(got.margin - want.margin) <= 1e-12 * scale

    def test_ancilla_puts_the_input_on_n2_zero(self):
        state = cv.coherent(0.4 - 0.3j, SMALL)
        two = cv.with_vacuum_ancilla(state)
        np.testing.assert_array_equal(two.amplitudes.reshape(13, 13),
                                      np.outer(state.amplitudes, np.eye(13)[0]))
        assert two.dims == (13, 13)

    def test_cutoff_40_pipeline_never_builds_the_matrix(self):
        state = cv.squeezed_vacuum(0.5, 0.3, 40)
        cv._beam_splitter_unitary(40, 0.7)   # the cached blocks, as for a repeated key
        tracemalloc.start()
        try:
            out = cv.beam_splitter(cv.with_vacuum_ancilla(state), 0.7)
            cv.ineq10(out.state, 1, 1)
            cv.ineq11(out.state, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "matrix" not in vars(out.state)
        assert peak < 1 << 20   # a dense output is 45 MB
        # thermal stays on the dense sector path
        out = cv.beam_splitter(cv.with_vacuum_ancilla(cv.thermal(0.1, SMALL)), 0.7)
        assert isinstance(out.state, HermitianOperator)


# Every pure-state factory at a given cutoff; coherent and squeezed states
# may carry tail weight at cutoff 3, which an operation's guard would refuse.
PURE_FACTORIES = {
    "coherent-real": lambda c: cv.coherent(0.7, c),
    "coherent-complex": lambda c: cv.coherent(0.4 - 0.3j, c),
    "squeezed-phi0": lambda c: cv.squeezed_vacuum(0.3, 0.0, c),
    "squeezed-phi0.7": lambda c: cv.squeezed_vacuum(0.3, 0.7, c),
    "fock": lambda c: cv.fock(2, c),
    "vacuum-one-mode": cv.vacuum,
    "vacuum-two-mode": vacuum2,
    "two_mode_squeezed": lambda c: cv.two_mode_squeezed(0.4, c),
    "single_photon_entangled": cv.single_photon_entangled,
}


class TestSupportFactories:
    """The pure-state factories write |v><v| / Tr on the support of v only;
    the dense outer product, symmetrized and divided by its trace, is the
    oracle."""

    @staticmethod
    def assert_matches_dense(m, v):
        assert np.max(np.abs(m - pure_state_oracle(v))) <= 4.5e-16
        assert not np.any(m[~np.outer(v != 0, v != 0)])
        np.testing.assert_array_equal(m, m.conj().T)
        assert abs(np.trace(m).real - 1.0) <= 1e-15

    @pytest.mark.parametrize("cutoff", [3, 10, 30])
    @pytest.mark.parametrize("name", list(PURE_FACTORIES))
    def test_factory_matches_dense_oracle(self, monkeypatch, name, cutoff):
        seen = []

        class Spy(cv.PureFockState):  # a subclass: with_vacuum_ancilla tests isinstance
            def __init__(self, v, dims):
                seen.append(v.copy())
                super().__init__(v, dims)

        monkeypatch.setattr(cv, "PureFockState", Spy)
        rho = PURE_FACTORIES[name](cutoff)
        # the two-mode vacuum is the one-mode vacuum with a vacuum ancilla
        assert len(seen) == 1 + (name == "vacuum-two-mode")
        self.assert_matches_dense(rho.matrix, seen[-1])

    @pytest.mark.parametrize("complex_amps", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("seed", range(4))
    def test_unnormalized_sparse_vector(self, seed, complex_amps):
        rng = np.random.default_rng(seed)
        v = 3.0 * rng.standard_normal(49) * (rng.random(49) < 0.3)   # cutoff 6, two modes
        if complex_amps:
            v = v + 2j * rng.standard_normal(49) * (v != 0)
        rho = cv.PureFockState(v.astype(np.complex128), (7, 7))
        self.assert_matches_dense(rho.matrix, v)


class TestAmplitudePath:
    """A pure state's moments and populations read its amplitudes; the same
    calls on its dense matrix, which take the banded gathers, are the
    reference."""

    @pytest.mark.usefixtures("unguarded")
    @pytest.mark.parametrize("cutoff", [10, 30, 40])
    @pytest.mark.parametrize("name", ["vacuum-two-mode", "two_mode_squeezed",
                                      "single_photon_entangled"])
    def test_inequalities_match_gather_path(self, name, cutoff):
        rho = PURE_FACTORIES[name](cutoff)
        dense = validate_hermitian(rho.matrix, rho.dims)
        for m in range(1, 5):
            for n in range(1, 5):
                for ineq in (cv.ineq10, cv.ineq11):
                    got = ineq(rho, m, n)
                    want = ineq(dense, m, n)
                    assert abs(got.lhs - want.lhs) <= 1e-12 * abs(want.lhs)
                    assert abs(got.rhs - want.rhs) <= 1e-12 * abs(want.rhs)
                    scale = max(1.0, abs(want.lhs), abs(want.rhs))
                    assert abs(got.margin - want.margin) <= 1e-12 * scale
                    assert got.violated == want.violated

    def test_cutoff_40_never_builds_the_matrix(self):
        rho = cv.two_mode_squeezed(0.3, 40)
        tracemalloc.start()
        try:
            for m, n in [(1, 1), (2, 3)]:
                cv.ineq10(rho, m, n)
                cv.ineq11(rho, m, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "matrix" not in vars(rho)
        assert peak < 1 << 20   # the dense matrix alone is 45 MB

    def test_certify_reads_a_pure_state_as_its_matrix(self):
        # certify transposes a pure state's dense matrix, as it does the copy's
        rho = cv.two_mode_squeezed(0.3, 6)
        bip = Bipartition(frozenset({0}), 2)
        dense = HermitianOperator(rho.matrix, rho.dims)
        assert certificates.certificate_payload(rho, bip) == certificates.certificate_payload(
            dense, bip)

    @pytest.mark.parametrize("cutoff", [3, 10, 30])
    @pytest.mark.parametrize("name", list(PURE_FACTORIES))
    def test_populations_match_dense_diagonal(self, name, cutoff):
        rho = PURE_FACTORIES[name](cutoff)
        dense = HermitianOperator(rho.matrix, rho.dims)
        diff = cv.mode_populations(rho) - cv.mode_populations(dense)
        assert np.max(np.abs(diff)) <= 1e-16


class TestExactHermitian:
    """Library-built Fock matrices skip validation, so they must be exactly Hermitian."""

    def test_factories_and_maps(self):
        built = [
            cv.coherent(0.4 - 0.3j, CUT), cv.squeezed_vacuum(0.3, 0.8, CUT),
            cv.fock(2, CUT), cv.thermal(0.4, CUT), vacuum2(CUT),
            cv.two_mode_squeezed(0.4, CUT), cv.single_photon_entangled(CUT),
            cv.with_vacuum_ancilla(cv.coherent(0.5 + 0.2j, CUT)),
            cv.beam_splitter(cv.with_vacuum_ancilla(cv.squeezed_vacuum(0.3, 0.8, CUT)),
                             0.37).state,
        ]
        for rho in built:
            np.testing.assert_array_equal(rho.matrix, rho.matrix.conj().T)


class TestBandedMoments:
    """kron_moment sums over pairs of diagonals; the dense einsum is the oracle."""

    @pytest.mark.parametrize("cutoff", [10, 30])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_against_dense_einsum(self, cutoff, order):
        d = cutoff + 1
        h = random_hermitian(np.random.default_rng(cutoff + order), d * d)
        engine = cv._MomentEngine(validate_hermitian(h, (d, d)))
        r4 = h.reshape(d, d, d, d)
        factors = list(cv._mode_factors(cutoff, order).values())
        factors.append(cv._factor(np.eye(d, dtype=np.complex128)))
        eye = np.eye(d)
        for f1 in factors + [None]:
            for f2 in factors + [None]:
                m1, m2 = (eye if f is None else f[0] for f in (f1, f2))
                ref = np.einsum("ijkl,ki,lj->", r4, m1, m2)
                assert abs(engine.kron_moment(f1, f2) - ref) <= 1e-12 * abs(ref)


class TestIneq10:
    def test_vacuum_components(self):
        rep = cv.ineq10(vacuum2(SMALL), 1, 1)
        assert rep.lhs == pytest.approx(4.0, abs=1e-12)   # 2 * 2
        assert rep.rhs == pytest.approx(4.0, abs=1e-12)
        assert rep.margin == pytest.approx(0.0, abs=1e-12)
        assert not rep.violated

    def test_two_mode_squeezed_violates(self):
        rep = cv.ineq10(cv.two_mode_squeezed(0.5, CUT), 1, 1)
        assert rep.violated
        assert rep.margin == pytest.approx(4 * np.exp(-2.0) - 4, abs=1e-9)

    def test_thermal_product_satisfied(self):
        th = cv.thermal(1.0, CUT)
        rep = cv.ineq10(kron_state(th, th), 1, 1)
        assert not rep.violated
        assert rep.margin == pytest.approx(32.0, rel=1e-5)

    def test_separable_margins_nonnegative(self):
        candidates = [
            kron_state(cv.coherent(0.9, MID), cv.coherent(-0.4 + 0.2j, MID)),
            kron_state(cv.thermal(0.3, MID), cv.fock(1, MID)),
            kron_state(cv.fock(2, MID), cv.thermal(0.2, MID)),
        ]
        mixtures = validate_hermitian(
            0.5 * candidates[0].matrix + 0.5 * candidates[1].matrix,
            candidates[0].dims, tol=1e-12)
        for rho in candidates + [mixtures]:
            for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
                rep = cv.ineq10(rho, m, n)
                assert rep.margin >= -1e-8, (m, n)

    def test_sum_form_weaker_than_product(self):
        states = [
            cv.two_mode_squeezed(0.3, CUT),
            kron_state(cv.coherent(0.5, MID), cv.thermal(0.2, MID)),
            cv.beam_splitter(cv.with_vacuum_ancilla(cv.squeezed_vacuum(0.4, 0.0, CUT)),
                             np.pi / 4).state,
        ]
        for rho in states:
            for m, n in [(1, 1), (2, 2)]:
                rep10 = cv.ineq10(rho, m, n)
                rep11 = cv.ineq11(rho, m, n)
                if rep10.hur_variant_margin >= 0:
                    assert rep10.sum_hur_margin >= -1e-10
                if rep11.hur_variant_margin >= 0:
                    assert rep11.sum_hur_margin >= -1e-10


class TestIneq11:
    def test_product_coherent_margin_zero(self):
        rho = kron_state(cv.coherent(0.7, CUT), cv.coherent(0.3 - 0.5j, CUT))
        rep = cv.ineq11(rho, 1, 1)
        assert rep.margin == pytest.approx(0.0, abs=1e-9)
        assert not rep.violated

    def test_single_photon_bs_output_violates(self):
        out = cv.beam_splitter(cv.with_vacuum_ancilla(cv.fock(1, CUT)), np.pi / 4).state
        rep = cv.ineq11(out, 1, 1)
        assert rep.violated
        assert rep.margin == pytest.approx(-2.0, abs=1e-10)

    def test_embedded_single_photon_entangled_violates(self):
        rep = cv.ineq11(cv.single_photon_entangled(SMALL), 1, 1)
        assert rep.violated
        assert rep.margin == pytest.approx(-2.0, abs=1e-12)


class TestPtMomentRelation:
    def test_diagonal_state_exact(self):
        th = cv.thermal(0.3, MID)
        rho = kron_state(th, cv.thermal(0.15, MID))
        for m, p in [(1, 1), (2, 1), (1, 2)]:
            res = cv.pt_moment_relation_check(rho, m, m, p, p)
            assert res.defect == pytest.approx(0.0, abs=1e-14)

    def test_two_mode_squeezed(self):
        res = cv.pt_moment_relation_check(cv.two_mode_squeezed(0.3, CUT), 1, 1, 1, 1)
        assert res.defect < 1e-8

    def test_asymmetric_orders_random_state(self):
        rng = np.random.default_rng(77)
        d = SMALL + 1
        keep = 6  # support well below the cutoff keeps the check reliable
        g = rng.standard_normal((keep * keep, keep * keep)) \
            + 1j * rng.standard_normal((keep * keep, keep * keep))
        block = g @ g.conj().T
        block /= np.trace(block).real
        full = np.zeros((d * d, d * d), dtype=complex)
        idx = (np.arange(keep)[:, None] * d + np.arange(keep)[None, :]).reshape(-1)
        full[np.ix_(idx, idx)] = block
        rho = validate_hermitian(full, (d, d), tol=1e-12)
        res = cv.pt_moment_relation_check(rho, 0, 0, 1, 0)
        assert res.defect < 1e-8
        res2 = cv.pt_moment_relation_check(rho, 2, 1, 1, 2)
        assert res2.defect < 1e-8

    @staticmethod
    def dense_sides(rho, m, n, p, q):
        """lhs, rhs and the lhs over rho instead of rho^PT, each by a dense
        d^4 contraction."""
        a = destroy_oracle(rho.dims[0] - 1)
        ad = a.conj().T
        mp = np.linalg.matrix_power
        m1 = mp(ad, m) @ mp(a, n)
        return (dense_kron_moment_oracle(rho.matrix, m1, mp(ad, p) @ mp(a, q), pt=True),
                dense_kron_moment_oracle(rho.matrix, m1, mp(ad, q) @ mp(a, p)),
                dense_kron_moment_oracle(rho.matrix, m1, mp(ad, p) @ mp(a, q)))

    @pytest.mark.usefixtures("unguarded")
    @pytest.mark.parametrize("cutoff", [6, 12])
    def test_random_states_match_dense_oracle(self, cutoff):
        rng = np.random.default_rng(cutoff)
        d = cutoff + 1
        rho = validate_hermitian(random_density_oracle(rng, d * d), (d, d), tol=1e-12)
        orders = rng.integers(0, 5, size=(24, 4)).tolist() + [[1, 1, 1, 0], [0, 2, 4, 1]]
        for m, n, p, q in orders:
            res = cv.pt_moment_relation_check(rho, m, n, p, q)
            lhs, rhs, lhs_without_pt = self.dense_sides(rho, m, n, p, q)
            np.testing.assert_allclose(res.lhs, lhs, rtol=1e-12)
            np.testing.assert_allclose(res.rhs, rhs, rtol=1e-12)
            if p != q:
                # the comparison sees an lhs that skips the partial transpose
                assert abs(lhs_without_pt - lhs) > 1e-9 * abs(lhs)

    @pytest.mark.parametrize("state", ["two_mode_squeezed", "single_photon_entangled"])
    def test_pure_states_cutoff30_match_dense_oracle(self, state):
        rho = (cv.two_mode_squeezed(0.3, CUT) if state == "two_mode_squeezed"
               else cv.single_photon_entangled(CUT))
        for m, n, p, q in [(1, 1, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0), (2, 1, 1, 2),
                           (2, 2, 1, 1), (1, 2, 3, 0)]:
            res = cv.pt_moment_relation_check(rho, m, n, p, q)
            lhs, rhs, _ = self.dense_sides(rho, m, n, p, q)
            np.testing.assert_allclose(res.lhs, lhs, rtol=1e-12)
            np.testing.assert_allclose(res.rhs, rhs, rtol=1e-12)

    @pytest.mark.usefixtures("unguarded")
    @pytest.mark.parametrize("cutoff", [6, 10])
    def test_dense_sides_are_the_same_gathers(self, cutoff):
        # For a dense rho both sides gather the same entries with the same
        # weights: the defect is exactly 0 and the check tests only the mode-2
        # index swap (the dense oracle above is the independent reference).  A
        # pure state's sides run on different formulas and differ by rounding.
        d = cutoff + 1
        rho = validate_hermitian(random_density_oracle(np.random.default_rng(cutoff), d * d),
                                 (d, d), tol=1e-12)
        orders = list(itertools.product(range(3), repeat=4))
        assert [cv.pt_moment_relation_check(rho, *o).defect for o in orders] == [0.0] * 81
        pure = PURE_PT_STATES["bs coherent theta0.37"](20)
        assert any(cv.pt_moment_relation_check(pure, *o).defect for o in orders)

    def test_copies_no_partial_transpose(self):
        share = peak_share_of_matrix(lambda rho: cv.pt_moment_relation_check(rho, 2, 1, 1, 2))
        assert share <= 0.25


class TestNonclassicality:
    def test_coherent_amplitude_flat(self):
        rho = cv.coherent(1.0, CUT)
        for m in (1, 2):
            for phi in (0.0, 0.7, np.pi / 2):
                assert abs(cv.amplitude_squeezing(rho, m, phi)) < 1e-9

    def test_squeezed_optimum(self):
        r = 0.5
        rho = cv.squeezed_vacuum(r, 0.0, CUT)
        best, phi = cv.amplitude_squeezing_scan(rho, 1)
        assert best == pytest.approx(np.exp(-2 * r) - 1, abs=1e-9)
        assert phi == pytest.approx(np.pi / 2, abs=0.1)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("rho", [
        cv.coherent(0.5, 20),
        cv.coherent(1.1 * np.exp(0.4j), 40),
        cv.fock(1, CUT), cv.thermal(0.5, CUT),
    ], ids=["coherent", "coherent-complex", "fock", "thermal"])
    def test_flat_curve_gives_first_phase(self, rho, m):
        # all 64 values agree to rounding: the first phase wins the tie, not
        # the grid index of the noise's minimum (coherent(0.5) gave index 2)
        value, phi = cv.amplitude_squeezing_scan(rho, m)
        assert phi == 0.0
        assert value == cv.amplitude_squeezing(rho, m, 0.0)

    def test_fock_not_quadrature_squeezed(self):
        rho = cv.fock(1, CUT)
        best, _ = cv.amplitude_squeezing_scan(rho, 1)
        assert best >= 0.0

    def test_photon_stats(self):
        assert cv.photon_stat_nonclassicality(cv.coherent(1.0, CUT), 1) == pytest.approx(
            0.0, abs=1e-9)
        assert cv.photon_stat_nonclassicality(cv.fock(2, CUT), 1) == pytest.approx(
            -2.0, abs=1e-12)
        assert cv.photon_stat_nonclassicality(cv.thermal(1.0, CUT), 1) == pytest.approx(
            1.0, rel=1e-5)

    # Each with a Fock tail far below the guard's at order 6 and cutoff 20.
    WITNESS_STATES = {
        "squeezed": lambda c: cv.squeezed_vacuum(0.3, 0.4, c),
        "coherent": lambda c: cv.coherent(0.8 - 0.5j, c),
        "thermal": lambda c: cv.thermal(0.2, c),
        "fock": lambda c: cv.fock(2, c),
    }

    @pytest.mark.parametrize("cutoff", [20, 30])
    @pytest.mark.parametrize("name", list(WITNESS_STATES))
    def test_witnesses_match_dense_oracle(self, name, cutoff):
        rho = self.WITNESS_STATES[name](cutoff)
        for m in (1, 2, 3):
            want = photon_stat_oracle(rho.matrix, m)
            got = cv.photon_stat_nonclassicality(rho, m)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), m
            for phi in (0.0, 0.4, np.pi / 2, 2.9):
                want = amplitude_squeezing_oracle(rho.matrix, m, phi)
                got = cv.amplitude_squeezing(rho, m, phi)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (m, phi)

    @pytest.mark.parametrize("m", [1, 2])
    def test_scan_is_the_argmin_of_single_phase_calls(self, m):
        rho = cv.squeezed_vacuum(0.5, 0.3, CUT)
        grid = np.linspace(0.0, np.pi, 64, endpoint=False)
        values = [cv.amplitude_squeezing(rho, m, phi) for phi in grid]
        best = int(np.argmin(values))
        assert cv.amplitude_squeezing_scan(rho, m) == (values[best], grid[best])

    def test_scan_guards_once(self, monkeypatch):
        orders = []
        guard = cv._guard

        def counting(rho, order, *args):
            orders.append(order)
            return guard(rho, order, *args)

        monkeypatch.setattr(cv, "_guard", counting)
        cv.amplitude_squeezing_scan(cv.squeezed_vacuum(0.5, 0.0, CUT), 2)
        assert orders == [4]

    def test_reliability_guard(self):
        hot = cv.thermal(5.0, 10)
        with pytest.raises(TruncationUnreliable):
            cv.photon_stat_nonclassicality(hot, 2)

    # Twice a state: read unnormalized, these gave -12.0 and a false
    # squeezing verdict of -8.0.
    @pytest.mark.parametrize("run", [
        lambda: cv.photon_stat_nonclassicality(
            HermitianOperator(2 * cv.fock(2, SMALL).matrix, (13,)), 1),
        lambda: cv.amplitude_squeezing(
            HermitianOperator(2 * cv.coherent(1.0, 20).matrix, (21,)), 1, 0.0),
        lambda: cv.amplitude_squeezing_scan(
            HermitianOperator(2 * cv.coherent(1.0, 20).matrix, (21,)), 1),
    ], ids=["photon_stat", "amplitude_squeezing", "amplitude_squeezing_scan"])
    def test_refuses_non_unit_trace(self, run):
        with pytest.raises(UnnormalizedState):
            run()


class TestCrosscheck:
    def test_vacuum_tight(self):
        res = cv.cv_pipeline_crosscheck(vacuum2(SMALL), 1, 1, 10)
        assert res.defect < 1e-12

    def test_two_mode_squeezed_both(self):
        rho = cv.two_mode_squeezed(0.5, CUT)
        for which in (10, 11):
            res = cv.cv_pipeline_crosscheck(rho, 1, 1, which)
            assert res.defect < 1e-8

    def test_bs_output_higher_orders(self):
        out = cv.beam_splitter(cv.with_vacuum_ancilla(cv.squeezed_vacuum(0.4, 0.0, CUT)),
                               np.pi / 4).state
        for which in (10, 11):
            res = cv.cv_pipeline_crosscheck(out, 2, 2, which)
            assert res.defect < 1e-7

    @pytest.mark.parametrize("which", [10, 11])
    def test_copies_no_partial_transpose(self, which):
        share = peak_share_of_matrix(lambda rho: cv.cv_pipeline_crosscheck(rho, 2, 1, which))
        assert share <= 0.25

    @pytest.mark.parametrize("rho, m, which", [
        (vacuum2(SMALL), 0, 10),
        (cv.vacuum(SMALL), 1, 10),
        (vacuum2(SMALL), 1, 12),
    ], ids=["order-zero", "one-mode", "which-12"])
    def test_rejects_bad_input(self, rho, m, which):
        with pytest.raises(ParameterOutOfRange):
            cv.cv_pipeline_crosscheck(rho, m, 1, which)

    @staticmethod
    def assert_generic_matches_oracle(rho, m, n, which):
        got = cv.cv_pipeline_crosscheck(rho, m, n, which).generic_report
        want = sr_pt_oracle(rho.matrix, *crosscheck_pair_oracle(rho.dims[0] - 1, m, n, which))
        margin_scale = max(1.0, abs(want["lhs"]), abs(want["rhs"]))
        for key, value in want.items():
            scale = margin_scale if key == "margin" else max(1.0, abs(value))
            assert abs(getattr(got, key) - value) <= 1e-12 * scale, (m, n, which, key)

    @pytest.mark.usefixtures("unguarded")
    @pytest.mark.parametrize("cutoff", [4, 8, 12])
    def test_random_states_match_dense_oracle(self, cutoff):
        d = cutoff + 1
        rng = np.random.default_rng(300 + cutoff)
        rho = validate_hermitian(random_density_oracle(rng, d * d), (d, d), tol=1e-12)
        for m, n in [(1, 1), (1, 2), (2, 1), (3, 2)]:
            for which in (10, 11):
                self.assert_generic_matches_oracle(rho, m, n, which)

    @pytest.fixture(scope="class")
    def criterion8_states(self):
        return _criterion8_states()

    @pytest.mark.usefixtures("unguarded")
    @pytest.mark.parametrize("which", [10, 11])
    @pytest.mark.parametrize("name", ["squeezed x vacuum", "thermal x thermal",
                                      "coherent x coherent", "fock x fock"])
    def test_criterion8_states_match_dense_oracle(self, criterion8_states, name, which):
        self.assert_generic_matches_oracle(criterion8_states[name], 2, 1, which)

    def test_mancini_oracle_reduction(self):
        # HUR variant of the quadrature inequality = 4 x the standard-units
        # product-form criterion, coded independently
        states = [
            cv.two_mode_squeezed(0.4, CUT),
            kron_state(cv.coherent(0.6, CUT), cv.thermal(0.3, CUT)),
            cv.beam_splitter(cv.with_vacuum_ancilla(cv.squeezed_vacuum(0.5, 0.0, CUT)),
                             np.pi / 4).state,
        ]
        for rho in states:
            rep = cv.ineq10(rho, 1, 1)
            oracle = mancini_margin(rho.matrix, CUT)
            assert rep.hur_variant_margin == pytest.approx(4 * oracle, abs=1e-10)


# The factories do not guard; each operation reading a state guards it at its
# own order.  coherent(3.0) at cutoff 8 has mean photon number 9, so every
# order refuses it; on two modes it is v x |0>.
HOT = cv.coherent(3.0, 8)
HOT_TWO = cv.with_vacuum_ancilla(HOT)
GUARDED_OPERATIONS = {
    "beam_splitter": lambda: cv.beam_splitter(HOT_TWO, np.pi / 4),
    "ineq10": lambda: cv.ineq10(HOT_TWO, 1, 1),
    "ineq11": lambda: cv.ineq11(HOT_TWO, 1, 1),
    "pt_moment_relation_check": lambda: cv.pt_moment_relation_check(HOT_TWO, 1, 1, 1, 0),
    "amplitude_squeezing": lambda: cv.amplitude_squeezing(HOT, 1, 0.0),
    "photon_stat_nonclassicality": lambda: cv.photon_stat_nonclassicality(HOT, 1),
    "cv_pipeline_crosscheck": lambda: cv.cv_pipeline_crosscheck(HOT_TWO, 1, 1, 10),
}


class TestTruncationGuard:
    @pytest.mark.parametrize("name", list(GUARDED_OPERATIONS))
    def test_operation_refuses_unless_allowed(self, name):
        # every operation refuses: no caller can allow an unreliable truncation
        with pytest.raises(TruncationUnreliable, match="at order 2 exceeds"):
            GUARDED_OPERATIONS[name]()

    def test_nan_tail_is_refused(self):
        # a nan tail weight is not below the threshold, so it is refused too
        rho = HermitianOperator(np.diag(np.full(49, np.nan + 0j)), (7, 7))
        with pytest.raises(TruncationUnreliable, match="tail weight nan at order 2"):
            cv.beam_splitter(rho, 0.3)


# |0,1> + |1,0> with amplitudes 3 (|v|^2 = 18), and a dense state of trace 2:
# the moment engine does not divide by the trace, so both must be refused.
UNNORMALIZED = {
    "pure": cv.PureFockState(np.where(np.isin(np.arange(49), [1, 7]), 3.0 + 0j, 0j), (7, 7)),
    "dense": HermitianOperator(2.0 * cv.single_photon_entangled(6).matrix,
                               (7, 7)),
}


class TestUnitTrace:
    @pytest.mark.parametrize("kind", list(UNNORMALIZED))
    @pytest.mark.parametrize("run", [
        lambda rho: cv.ineq10(rho, 1, 1),
        lambda rho: cv.ineq11(rho, 1, 1),
        lambda rho: cv.cv_pipeline_crosscheck(rho, 1, 1, 10),
        lambda rho: cv.cv_pipeline_crosscheck(rho, 1, 1, 11),
    ], ids=["ineq10", "ineq11", "crosscheck10", "crosscheck11"])
    def test_refuses_non_unit_trace(self, run, kind):
        with pytest.raises(UnnormalizedState):
            run(UNNORMALIZED[kind])


# rho^PT's entries are read from rho.matrix with their mode-2 indices
# swapped; the copy-based references in oracles.py read a contiguous copy of
# rho^PT through the same gather without the swap, so the two must agree with ==.  The diagonal thermal and Fock products have PT = rho
# and cannot tell a wrong transpose; the other states do.
PT_VIEW_STATES = ["squeezed x vacuum", "thermal x thermal", "coherent x coherent",
                  "fock x fock", "random c6", "random c12", "two_mode_squeezed c30",
                  "single_photon_entangled c30"]


class TestPtView:
    @pytest.fixture(scope="class")
    def states(self):
        states = _criterion8_states()
        for cutoff in (6, 12):
            d = cutoff + 1
            states[f"random c{cutoff}"] = validate_hermitian(
                random_density_oracle(np.random.default_rng(cutoff), d * d), (d, d), tol=1e-12)
        states["two_mode_squeezed c30"] = cv.two_mode_squeezed(0.3, CUT)
        states["single_photon_entangled c30"] = cv.single_photon_entangled(CUT)
        return states

    @pytest.mark.usefixtures("unguarded")
    @pytest.mark.parametrize("name", PT_VIEW_STATES)
    def test_relation_check_equals_copy_reference(self, states, name):
        rho = states[name]
        orders = np.random.default_rng(len(name)).integers(0, 5, size=(12, 4)).tolist()
        for m, n, p, q in orders + [[1, 1, 1, 1], [0, 0, 1, 0], [2, 1, 1, 2], [1, 2, 3, 0]]:
            got = cv.pt_moment_relation_check(rho, m, n, p, q)
            assert (got.lhs, got.rhs, got.defect) == relation_check_copy_reference(
                rho, m, n, p, q), (m, n, p, q)

    @pytest.mark.usefixtures("unguarded")
    @pytest.mark.parametrize("which", [10, 11])
    @pytest.mark.parametrize("name", PT_VIEW_STATES)
    def test_crosscheck_equals_copy_reference(self, states, name, which):
        rho = states[name]
        for m, n in [(1, 1), (1, 2), (2, 1), (3, 2), (4, 4)]:
            got = cv.cv_pipeline_crosscheck(rho, m, n, which)
            margin_eq, generic = crosscheck_copy_reference(rho, m, n, which)
            assert got.margin_eq == margin_eq
            assert got.generic_report == generic, (m, n)
            assert got.defect == abs(margin_eq - generic.margin)


# Pure two-mode states whose rho^PT entries the moment engine gathers from
# their amplitudes: real ones, and beam-splitter outputs of one-mode inputs,
# complex but for fock(2).  Cutoff 10 refuses the coherent input on its tail.
PURE_PT_STATES = {
    "two_mode_squeezed r0.1": lambda c: cv.two_mode_squeezed(0.1, c),
    "two_mode_squeezed r0.3": lambda c: cv.two_mode_squeezed(0.3, c),
    "single_photon_entangled": cv.single_photon_entangled,
    **{f"bs {name} theta{theta}": (
        lambda c, state=state, theta=theta:
        cv.beam_splitter(cv.with_vacuum_ancilla(state(c)), theta).state)
       for name, state in [("coherent", lambda sp: cv.coherent(0.3 + 0.25j, sp)),
                           ("squeezed", lambda sp: cv.squeezed_vacuum(0.3, 0.7, sp)),
                           ("fock2", lambda sp: cv.fock(2, sp))]
       for theta in (0.37, 1.3)},
}


class TestPurePtGather:
    """A pure state's rho^PT entries, gathered from its amplitudes, are the
    bits its dense matrix holds, read by the same mode-2 index swap.  Only the
    rho^PT side is compared: the relation's right side and the printed
    margin read a pure state by the closed form <V, M1 V M2^T>, whose
    rounding differs from a dense gather's."""

    @pytest.mark.parametrize("cutoff", [20, 30, 40])
    @pytest.mark.parametrize("name", list(PURE_PT_STATES))
    def test_equals_the_dense_view_bit_for_bit(self, name, cutoff):
        rho = PURE_PT_STATES[name](cutoff)
        assert isinstance(rho, cv.PureFockState)
        dense = HermitianOperator(rho.matrix, rho.dims)
        for orders in itertools.product(range(4), repeat=4):
            got = cv.pt_moment_relation_check(rho, *orders)
            assert got.lhs == cv.pt_moment_relation_check(dense, *orders).lhs, orders
        for m, n, which in itertools.product((1, 2), (1, 2), (10, 11)):
            got = cv.cv_pipeline_crosscheck(rho, m, n, which).generic_report
            assert got == cv.cv_pipeline_crosscheck(dense, m, n, which).generic_report, (
                m, n, which)

    def test_cutoff_40_never_builds_the_matrix(self):
        rho = cv.two_mode_squeezed(0.3, 40)
        tracemalloc.start()
        try:
            cv.pt_moment_relation_check(rho, 2, 1, 1, 3)
            for which in (10, 11):
                cv.cv_pipeline_crosscheck(rho, 1, 1, which)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "matrix" not in vars(rho)
        assert peak < 1 << 20   # the dense matrix alone is 45 MB


# The (M1, M2) pairs of mode-factor names (None the identity) whose moments
# ineq10 and ineq11 take.
INEQ10_PAIRS = [(k, None) for k in ("x", "y", "xx", "yy", "xy_anti", "c")] + [
    (None, k) for k in ("x", "y", "xx", "yy", "xy_anti", "c")] + [
    ("x", "x"), ("y", "y"), ("x", "y"), ("y", "x")]
INEQ11_PAIRS = [("ad", "a"), ("aa", "adad"), ("a_ad", "ad_a"), ("ad_a", "a_ad"), ("c", "c"),
                ("a_ad", "a_ad"), ("ad_a", "ad_a")]


class TestFixedIngredients:
    """The constant inputs of the moment layer are built once and give the
    parent formulas' bits: cached read-only ladder products with their
    diagonals, one trace per pure state, no product with the identity."""

    @pytest.mark.usefixtures("unguarded")   # cutoff 10 refuses the squeezed input
    @pytest.mark.parametrize("cutoff", [10, 20, 30, 40])
    @pytest.mark.parametrize("name", list(PURE_PT_STATES))
    def test_pure_kron_moment_equals_the_two_product_formula(self, name, cutoff):
        rho = PURE_PT_STATES[name](cutoff)
        eye = np.eye(cutoff + 1, dtype=np.complex128)
        engine = cv._MomentEngine(rho)
        for m, n in itertools.product(range(1, 5), repeat=2):
            f1, f2 = cv._mode_factors(cutoff, m), cv._mode_factors(cutoff, n)
            for _ in range(2):  # the second round reads the engine's M1 V products
                for k1, k2 in INEQ10_PAIRS + INEQ11_PAIRS:
                    a, b = (None if k1 is None else f1[k1]), (None if k2 is None else f2[k2])
                    want = pure_kron_moment_oracle(rho.amplitudes, eye if a is None else a[0],
                                                   eye if b is None else b[0])
                    assert engine.kron_moment(a, b) == want, (m, n, k1, k2)

    @staticmethod
    def fresh_diagonals(m):
        """(first row, first column, values) of each nonzero diagonal of a
        writable copy of m, by scanning every offset."""
        m = m.copy()
        d = len(m)
        return [(max(0, -o), max(0, o), np.diagonal(m, o)) for o in range(1 - d, d)
                if np.diagonal(m, o).any()]

    @staticmethod
    def cached_factors(cutoff):
        factors = [f for order in range(1, 5) for f in cv._mode_factors(cutoff, order).values()]
        return factors + [cv._ladder(cutoff, j, k) for j in range(5) for k in range(5)]

    @pytest.mark.parametrize("cutoff", [10, 30])
    def test_cached_diagonals_are_the_factors_own(self, cutoff):
        for matrix, diagonals in self.cached_factors(cutoff):
            fresh = self.fresh_diagonals(matrix)
            assert [(r, c) for r, c, _ in diagonals] == [(r, c) for r, c, _ in fresh]
            for (_, _, got), (_, _, want) in zip(diagonals, fresh):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("cutoff", [10, 20, 30, 40, 60])
    def test_ladder_is_the_matrix_power_product(self, cutoff):
        a = cv.destroy(cutoff)
        mp = np.linalg.matrix_power
        for j, k in itertools.product(range(5), repeat=2):
            np.testing.assert_array_equal(cv._ladder(cutoff, j, k)[0],
                                          mp(a.conj().T, j) @ mp(a, k))

    def test_cached_matrices_are_read_only(self):
        blocks, _ = cv._beam_splitter_unitary(10, 0.7)
        matrices = [f[0] for f in self.cached_factors(12)] + [u for _, u in blocks]
        matrices.append(certificates._GHZ_TABLE)   # the 16 Pauli strings of ghz_correlators
        for matrix in matrices:
            with pytest.raises(ValueError):
                matrix[0, 0] = 7.0

    def test_caches_stay_bounded(self):
        for cutoff in range(10, 61):
            cv._mode_factors(cutoff, 1)
            cv._ladder(cutoff, 1, 2)
        for cache in (cv._mode_factors, cv._ladder, cv._beam_splitter_unitary):
            info = cache.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_each_pure_state_keeps_its_own_trace(self):
        v = np.zeros(49, dtype=np.complex128)
        v[[1, 7]] = 3.0   # |0,1> and |1,0>, |v|^2 = 18
        heavy, unit = cv.PureFockState(v, (7, 7)), cv.PureFockState(v / np.sqrt(18.0), (7, 7))
        assert heavy.trace() == 18.0
        assert unit.trace() == pytest.approx(1.0, abs=1e-15)
        want = cv.pt_moment_relation_check(HermitianOperator(heavy.matrix, heavy.dims), 1, 0, 0, 1)
        assert cv.pt_moment_relation_check(heavy, 1, 0, 0, 1).lhs == want.lhs
