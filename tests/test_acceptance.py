"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the summary
lines).  Tolerances are fixed here and match the library's contracts.
"""

import time

import numpy as np
import pytest

from nptcert import cv
from nptcert.certificates import (
    build_pseudospin,
    hur_weak_test,
    sr_moments,
    sr_pt_test,
    two_qubit_equivalence,
    witness_from_eigvec,
)
from nptcert.hermitian import (Bipartition, HermitianOperator, expectation, partial_transpose,
                              validate_hermitian)
from nptcert.spectral import eig_hermitian, pt_spectrum
from nptcert.states import make_ghz_mixed, random_density, random_separable
from oracles import mancini_margin, random_unit_trace_hermitian

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)

GHZ_BIPARTITIONS = [
    Bipartition(frozenset({0, 1}), 3),
    Bipartition(frozenset({0, 2}), 3),
    Bipartition(frozenset({1, 2}), 3),
]


def _report(line):
    print(line)


def test_criterion_01_ghz_threshold():
    # warm-up so the timed region measures the algorithm, not numpy startup
    sr_pt_test(make_ghz_mixed(0.5), GHZ_BIPARTITIONS[0])

    grid = list(np.linspace(0.0, 1.0, 21)) + [0.21]
    start = time.perf_counter()
    for p in grid:
        rho = make_ghz_mixed(float(p))
        for bip in GHZ_BIPARTITIONS:
            _, spectrum, verdict = pt_spectrum(rho, bip)
            assert spectrum.eigenvalues[0] == pytest.approx((1 + 3 * p) / 8, abs=1e-12)
            assert spectrum.eigenvalues[-1] == pytest.approx((1 - 5 * p) / 8, abs=1e-12)
            _, _, rep = sr_pt_test(rho, bip)
            if p >= 0.21:
                assert rep.margin < -1e-12
                assert rep.violated
            if p <= 0.2:
                assert rep.margin >= -1e-12
                assert not rep.violated
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"GHZ sweep took {elapsed:.2f} s"
    _report(f"[PASS] criterion 1: GHZ threshold p > 0.2 on all 3 bipartitions "
            f"({elapsed * 1000:.0f} ms)")


def test_criterion_02_two_qubit_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        a = rng.normal(0.5, 0.7)
        c = complex(rng.normal(0, 0.5), rng.normal(0, 0.5))
        rho = validate_hermitian([[a, c], [np.conj(c), 1.0 - a]], (2,))
        res = two_qubit_equivalence(rho)
        det = a * (1.0 - a) - abs(c) ** 2
        assert abs(res.sr_margin - det / 4.0) <= 1e-12
        hur_expected = (det + 4.0 * c.real**2 * c.imag**2) / 4.0
        assert abs(res.hur_margin - hur_expected) <= 1e-12
    _report("[PASS] criterion 2: SR margin = det/4 and HUR margin = "
            "(det + 4 cr^2 ci^2)/4 on 10^4 random 2x2 matrices")


def test_criterion_03_margin_identity():
    rng = np.random.default_rng(3033)
    for _ in range(1000):
        n = int(rng.integers(4, 17))
        m = validate_hermitian(random_unit_trace_hermitian(rng, n), (n,))
        spec = eig_hermitian(m)
        pair = build_pseudospin(spec.vector(0), spec.vector(n - 1), dims=(n,))
        rep = sr_moments(pair.h1, pair.h2, m)
        expected = spec.eigenvalues[0] * spec.eigenvalues[-1] / 4.0
        assert abs(rep.margin - expected) <= 1e-10
    _report("[PASS] criterion 3: margin = l1 l2 / 4 on 10^3 random matrices, dims 4-16")


def _reference_witnesses():
    """One witness per shape (per bipartition for three parties), built from
    rejection-sampled NPT states; each is nonnegative on all separable states."""
    witnesses = {}
    for dims, bips in [
        ((2, 2), [Bipartition(frozenset({0}), 2)]),
        ((2, 3), [Bipartition(frozenset({0}), 2)]),
        ((3, 3), [Bipartition(frozenset({0}), 2)]),
        ((2, 2, 2), [Bipartition(frozenset({i}), 3) for i in range(3)]),
    ]:
        total = int(np.prod(dims))
        entries = []
        for bip in bips:
            for seed in range(50):
                rho = random_density(total, 40_000 + seed, dims=dims)
                _, spec, verdict = pt_spectrum(rho, bip)
                if verdict.is_npt:
                    entries.append(witness_from_eigvec(spec.vector(-1), verdict.min_eigenvalue,
                                                       bip, dims))
                    break
            else:
                raise AssertionError(f"no NPT reference found for {dims} {bip}")
        witnesses[dims] = entries
    return witnesses


def test_criterion_04_soundness_on_separable():
    witnesses = _reference_witnesses()
    shapes = [(2, 2), (2, 3), (3, 3), (2, 2, 2)]
    count = 0
    for shape_index, dims in enumerate(shapes):
        k = len(dims)
        bips = ([Bipartition(frozenset({i}), k) for i in range(k)]
                if k == 3 else [Bipartition(frozenset({0}), 2)])
        for seed in range(250):
            rho = random_separable(dims, terms=int(1 + seed % 4),
                                   seed=10_000 * (shape_index + 1) + seed)
            for bip in bips:
                _, _, rep = sr_pt_test(rho, bip)
                assert rep.margin >= -1e-10
                assert not rep.violated
            for wit in witnesses[dims]:
                assert expectation(wit, rho) >= -1e-10
            count += 1
    assert count == 1000
    _report("[PASS] criterion 4: no SR violation and no negative witness value "
            "on 10^3 separable states")


def test_criterion_05_completeness_on_npt():
    rng_seed = 0
    found = 0
    attempts = 0
    shapes = [(2, 2), (2, 3), (3, 3)]
    while found < 200 and attempts < 2000:
        dims = shapes[attempts % 3]
        rho = random_density(int(np.prod(dims)), 50_000 + attempts, dims=dims)
        attempts += 1
        bip = Bipartition(frozenset({0}), 2)
        _, spec, verdict = pt_spectrum(rho, bip)
        if not verdict.is_npt:
            continue
        _, _, rep = sr_pt_test(rho, bip)
        assert rep.violated
        lam2 = verdict.min_eigenvalue
        wit = witness_from_eigvec(spec.vector(-1), lam2, bip, dims)
        assert abs(expectation(wit, rho) - lam2) <= 1e-10
        found += 1
    assert found >= 200, f"only {found} NPT states in {attempts} attempts"
    _report(f"[PASS] criterion 5: {found} NPT states all certified, "
            f"witness value = lambda2 to 1e-10")


def test_criterion_06_weak_implies_strong():
    rng = np.random.default_rng(606)
    qubit_pair = build_pseudospin(E0, E1)
    exists_sr_only = False
    # fixed qubit observables over random unit-trace 2x2 matrices
    for _ in range(2000):
        rho = validate_hermitian(random_unit_trace_hermitian(rng, 2), (2,))
        srm = sr_moments(qubit_pair.h1, qubit_pair.h2, rho)
        weak = hur_weak_test(qubit_pair, rho)
        if weak.violated:
            assert srm.violated
        if srm.violated and not weak.violated:
            exists_sr_only = True
    # eigen-constructed pairs over rho^PT for random two-qubit states
    bip = Bipartition(frozenset({0}), 2)
    for seed in range(200):
        rho = random_density(4, 60_000 + seed, dims=(2, 2))
        _, spec, verdict = pt_spectrum(rho, bip)
        pair = build_pseudospin(spec.vector(0), spec.vector(3), dims=(2, 2))
        rho_pt = partial_transpose(rho, bip)
        weak = hur_weak_test(pair, rho_pt)
        if weak.violated:
            assert sr_moments(pair.h1, pair.h2, rho_pt).violated
    assert exists_sr_only
    _report("[PASS] criterion 6: weak violation implies SR violation; "
            "found states certified by SR only")


def _embedded_random_two_mode(seed, cutoff=30, keep=7):
    """Random density supported on Fock levels < keep, zero tail by design."""
    rng = np.random.default_rng(seed)
    d = cutoff + 1
    block = rng.standard_normal((keep * keep, keep * keep)) \
        + 1j * rng.standard_normal((keep * keep, keep * keep))
    block = block @ block.conj().T
    block /= np.trace(block).real
    # validated before embedding: zeros around it change neither the
    # symmetrized entries nor the deviation
    block = validate_hermitian(block, (keep * keep,), tol=1e-12)
    full = np.zeros((d * d, d * d), dtype=complex)
    idx = (np.arange(keep)[:, None] * d + np.arange(keep)[None, :]).reshape(-1)
    full[np.ix_(idx, idx)] = block.matrix
    return HermitianOperator(full, (d, d), block.deviation)


def test_criterion_07_mancini_reduction():
    for seed in range(100):
        rho = _embedded_random_two_mode(70_000 + seed)
        rep = cv.ineq10(rho, 1, 1)
        assert rep.tail_weight < cv.TAIL_THRESHOLD
        oracle = mancini_margin(rho.matrix, 30)
        # factor 4 converts the oracle's standard quadratures (a+ad)/sqrt2
        # to the unnormalized convention a+ad used by the inequality
        assert abs(rep.hur_variant_margin - 4.0 * oracle) <= 1e-10
    _report("[PASS] criterion 7: HUR variant of ineq(10) matches the Mancini "
            "oracle to 1e-10 on 100 random two-mode states")


def _criterion8_states():
    one = 30

    def prod(a, b):
        return validate_hermitian(np.kron(a.matrix, b.matrix), (31, 31), tol=1e-12)

    return {
        "squeezed x vacuum": prod(cv.squeezed_vacuum(0.4, 0.0, one), cv.vacuum(one)),
        "thermal x thermal": prod(cv.thermal(0.5, one), cv.thermal(0.3, one)),
        "coherent x coherent": prod(cv.coherent(0.8, one), cv.coherent(0.4 - 0.3j, one)),
        "fock x fock": prod(cv.fock(2, one), cv.fock(1, one)),
    }


def test_criterion_08_cv_pipeline_equivalence():
    states = _criterion8_states()
    for name, rho in states.items():
        for m in (1, 2):
            for n in (1, 2):
                for which in (10, 11):
                    res = cv.cv_pipeline_crosscheck(rho, m, n, which)
                    assert res.defect <= 1e-8, (name, m, n, which, res.defect)
        for orders in [(1, 1, 1, 1), (2, 1, 1, 2), (0, 0, 1, 0), (2, 2, 2, 2)]:
            check = cv.pt_moment_relation_check(rho, *orders)
            assert check.defect <= 1e-8, (name, orders, check.defect)
    _report("[PASS] criterion 8: crosscheck and PT moment defects <= 1e-8 "
            "for (10)/(11), m,n in {1,2}, on 4 reference states")


def test_criterion_09_beam_splitter_detection():
    one = 30
    theta = np.pi / 4
    squeezed = cv.squeezed_vacuum(0.5, 0.0, one)
    single = cv.fock(1, one)
    coh = cv.coherent(1.0, one)

    out_sq = cv.beam_splitter(cv.with_vacuum_ancilla(squeezed), theta).state
    assert cv.ineq10(out_sq, 1, 1).violated

    out_fock = cv.beam_splitter(cv.with_vacuum_ancilla(single), theta).state
    assert cv.ineq11(out_fock, 1, 1).violated

    out_coh = cv.beam_splitter(cv.with_vacuum_ancilla(coh), theta).state
    assert cv.ineq10(out_coh, 1, 1).margin >= -1e-8
    assert cv.ineq11(out_coh, 1, 1).margin >= -1e-8

    # nonclassicality pre-checks on the inputs
    best_sq, _ = cv.amplitude_squeezing_scan(squeezed, 1)
    assert best_sq < 0
    assert cv.photon_stat_nonclassicality(single, 1) < 0
    best_coh, _ = cv.amplitude_squeezing_scan(coh, 1)
    assert abs(best_coh) <= 1e-9
    assert abs(cv.photon_stat_nonclassicality(coh, 1)) <= 1e-9
    _report("[PASS] criterion 9: beam-splitter detection and nonclassicality "
            "pre-checks agree")


def test_criterion_10_runtime_budget():
    # single certificate at dim 64 stays under a second; the < 5 min bound
    # for the whole suite is read off the pytest wall clock
    rho = random_density(64, 1001, dims=(8, 8))
    bip = Bipartition(frozenset({0}), 2)
    sr_pt_test(make_ghz_mixed(0.3), GHZ_BIPARTITIONS[0])  # warm-up
    start = time.perf_counter()
    _, _, rep = sr_pt_test(rho, bip)
    elapsed = time.perf_counter() - start
    assert np.isfinite(rep.margin)
    assert elapsed < 1.0, f"dim-64 certificate took {elapsed:.2f} s"
    _report(f"[PASS] criterion 10: dim-64 certificate in {elapsed * 1000:.0f} ms "
            "(suite wall-clock bound checked by the pytest run)")
