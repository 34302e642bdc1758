"""Seeded request generators for the four benchmark workloads.

A workload is an endless sequence of *cycles*.  Every cycle of a workload
has the same composition (subcommands, sizes, first-seen versus repeated
beam-splitter keys); the seed only draws the continuous parameters (GHZ and
Werner weights, random-state seeds, squeezing, theta).  A run executes whole
cycles, so its request mix, and with it the median latency, does not depend
on where the clock stops.

A request is a dict:

    key     identifies the distinct request; repeats of a request share it
            and write the same output file
    argv    nptcert argument list, without --out
    kind    the subcommand
    size    dim or cutoff
    expect  what the output checker needs to rebuild the expected answer

Only numpy's seeded generator is used here; nothing imports nptcert, so the
program receives nothing but the generated inputs.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("finite_small", "finite_large", "cv_bs", "cv_moments")

GHZ_CUTS = ("0,1|2", "0,2|1", "1,2|0")

# finite_large inputs: (file stem, dims, [(subcommand, bipartition), ...]).
# Around the dim-128 and dim-256 requests sit fourteen dim-64 requests on six
# matrices.  Twelve of them are `check` (slower than `witness`: it adds a PT,
# the SR moments and three matrix payloads), so the median is a dim-64 check
# from the middle of its group.
CUTS3 = ("0|1,2", "0,1|2", "0,2|1")
LARGE_FILES = (
    ("d64_8x8_a", (8, 8), (("check", "0|1"), ("witness", "0|1"))),
    ("d64_8x8_b", (8, 8), (("check", "0|1"),)),
    ("d64_8x8_c", (8, 8), (("check", "0|1"),)),
    ("d64_4x4x4_a", (4, 4, 4), tuple(("check", c) for c in CUTS3) + (("witness", "0|1,2"),)),
    ("d64_4x4x4_b", (4, 4, 4), tuple(("check", c) for c in CUTS3)),
    ("d64_4x4x4_c", (4, 4, 4), tuple(("check", c) for c in CUTS3)),
    ("d128_8x16", (8, 16), (("check", "0|1"), ("witness", "0|1"))),
    ("d256_16x16", (16, 16), (("check", "0|1"),)),
)
TINY_LARGE_FILES = (
    ("d16_4x4", (4, 4), (("check", "0|1"), ("witness", "0|1"))),
    ("d8_2x2x2", (2, 2, 2), (("check", "0|1,2"), ("witness", "0,1|2"))),
)

# cv_bs: per cycle, one new (cutoff, theta) key per cutoff, then repeats of
# that exact request.  7 of 10 requests repeat a key seen earlier in the
# process, well inside the 8-entry unitary cache.
BS_FAMILIES = ("fock", "coherent", "thermal", "squeezed_vacuum")
BS_REPEATS = {10: 1, 20: 1, 30: 5}
TINY_BS_REPEATS = {10: 1, 12: 1, 14: 2}

# cv_moments: the cutoff of the twelve-request set, then of the four-request set.
MOMENT_CUTOFFS = (30, 40)
TINY_MOMENT_CUTOFFS = (20, 22)

WARMUP = {
    "finite_small": ["check", "bell", "--bipartition", "0|1"],
    "finite_large": ["check", "bell", "--bipartition", "0|1"],
    "cv_bs": ["bs-demo", "--input", "fock:n=1", "--theta", "0.5", "--cutoff", "10"],
    "cv_moments": ["cv-check", "single_photon_entangled", "--cutoff", "10"],
}


INPUT_STREAM = 2**32 - 1  # the stream of finite_large's input files, never a cycle index


def _rng(seed: int, workload: str, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, WORKLOADS.index(workload), stream])


def _spec(family: str, **params) -> str:
    return json.dumps({"family": family, **params}, sort_keys=True)


def _req(key, argv, kind, size, expect) -> dict:
    return {"key": key, "argv": list(argv), "kind": kind, "size": size,
            "expect": expect}


# ---------------------------------------------------------------------------
# finite_small
# ---------------------------------------------------------------------------

def _finite_spec_requests(key, spec, bip, size, expect):
    """A check and a witness request on the same state and cut."""
    text = _spec(**spec)
    return [
        _req(f"{key}-check", ["check", text, "--bipartition", bip], "check",
             size, {**expect, "spec": spec, "bip": bip}),
        _req(f"{key}-witness", ["witness", text, "--bipartition", bip], "witness",
             size, {**expect, "spec": spec, "bip": bip}),
    ]


def finite_small_cycle(seed: int, cycle: int, tiny: bool = False) -> list:
    """Nineteen requests (fifteen with --tiny), fresh parameters every cycle."""
    rng = _rng(seed, "finite_small", cycle)
    c = f"c{cycle}"
    reqs = []
    # GHZ-mixed: check, witness and sweep each on a different cut, rotating,
    # so all three bipartitions appear in every cycle.
    turn = cycle % 3
    for j, kind in enumerate(("check", "witness")):
        p = float(rng.uniform(0.0, 1.0))
        bip = GHZ_CUTS[(turn + j) % 3]
        spec = {"family": "ghz_mixed", "p": p}
        reqs.append(_req(f"{c}-ghz-{kind}", [kind, _spec(**spec), "--bipartition", bip],
                         kind, 8, {"spec": spec, "bip": bip, "threshold": 0.2}))
    lo, hi = sorted(float(x) for x in rng.uniform(0.0, 1.0, size=2))
    bip = GHZ_CUTS[(turn + 2) % 3]
    reqs.append(_req(f"{c}-ghz-sweep",
                     ["sweep-ghz", "--p-from", repr(lo), "--p-to", repr(hi),
                      "--steps", "3", "--bipartition", bip],
                     "sweep-ghz", 8, {"p_from": lo, "p_to": hi, "steps": 3, "bip": bip}))
    reqs += _finite_spec_requests(f"{c}-bell", {"family": "bell"}, "0|1", 4,
                                  {"npt": True})
    reqs += _finite_spec_requests(f"{c}-werner",
                                  {"family": "werner", "p": float(rng.uniform(0.0, 1.0))},
                                  "0|1", 4, {"threshold": 1.0 / 3.0})
    shapes = [(2, 4), (2, 4)] if tiny else [(2, 4), (2, 4), (4, 4)]
    for i, dims in enumerate(shapes):
        dim = dims[0] * dims[1]
        s1, s2 = (int(x) for x in rng.integers(0, 2**31, size=2))
        reqs += _finite_spec_requests(
            f"{c}-npt{i}",
            {"family": "random_density", "dim": dim, "dims": list(dims), "seed": s1},
            "0|1", dim, {})
        reqs += _finite_spec_requests(
            f"{c}-sep{i}",
            {"family": "random_separable", "dims": list(dims), "terms": 4, "seed": s2},
            "0|1", dim, {})
    return reqs


# ---------------------------------------------------------------------------
# finite_large
# ---------------------------------------------------------------------------

def large_file_path(run_dir: str, stem: str) -> str:
    return os.path.join(run_dir, "inputs", f"{stem}.json")


def write_large_inputs(seed: int, run_dir: str, tiny: bool = False) -> None:
    """Random full-rank states (G G^dag / Tr) as matrix JSON files."""
    os.makedirs(os.path.join(run_dir, "inputs"), exist_ok=True)
    rng = _rng(seed, "finite_large", INPUT_STREAM)
    for stem, dims, _ in TINY_LARGE_FILES if tiny else LARGE_FILES:
        n = int(np.prod(dims))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        rho = (rho + rho.conj().T) / 2.0
        flat = rho.reshape(-1)
        payload = {"dims": list(dims),
                   "matrix": [[float(z.real), float(z.imag)] for z in flat]}
        with open(large_file_path(run_dir, stem), "w") as fh:
            json.dump(payload, fh)


def finite_large_cycle(seed: int, cycle: int, run_dir: str, tiny: bool = False) -> list:
    """The dim-64 requests in blocks between the larger ones, so their
    latencies sample the machine at several separate times."""
    small, large = [], []
    for stem, dims, uses in TINY_LARGE_FILES if tiny else LARGE_FILES:
        path = large_file_path(run_dir, stem)
        size = int(np.prod(dims))
        for kind, bip in uses:
            key = f"{stem}-{kind}-{bip.replace('|', '_').replace(',', '')}"
            req = _req(key, [kind, path, "--bipartition", bip], kind, size,
                       {"file": path, "bip": bip})
            (small if size <= 64 else large).append(req)
    n_blocks = len(large) + 1
    out = []
    for i in range(n_blocks):
        out += small[i * len(small) // n_blocks:(i + 1) * len(small) // n_blocks]
        out += large[i:i + 1]
    return out


# ---------------------------------------------------------------------------
# cv_bs
# ---------------------------------------------------------------------------

def _bs_input(family: str, rng) -> str:
    """A single-mode input the truncation guard accepts from cutoff 10 up."""
    if family == "fock":
        return f"fock:n={int(rng.integers(1, 4))}"
    if family == "coherent":
        return f"coherent:alpha={float(rng.uniform(0.2, 0.5))!r}"
    if family == "thermal":
        return f"thermal:nbar={float(rng.uniform(0.02, 0.08))!r}"
    return f"squeezed_vacuum:r={float(rng.uniform(0.05, 0.1))!r}"


def cv_bs_cycle(seed: int, cycle: int, tiny: bool = False) -> list:
    """Per cutoff a new theta and input family, then repeats of that request."""
    rng = _rng(seed, "cv_bs", cycle)
    repeats = TINY_BS_REPEATS if tiny else BS_REPEATS
    groups = []
    for i, (cutoff, n_repeat) in enumerate(repeats.items()):
        family = BS_FAMILIES[(cycle + i) % len(BS_FAMILIES)]
        source = _bs_input(family, rng)
        theta = float(rng.uniform(0.1, 1.4))
        argv = ["bs-demo", "--input", source, "--theta", repr(theta),
                "--cutoff", str(cutoff)]
        req = _req(f"c{cycle}-bs{cutoff}", argv, "bs-demo", cutoff,
                   {"source": source, "theta": theta, "cutoff": cutoff})
        groups.append([req] * (1 + n_repeat))
    # Interleave the cutoffs so repeats are not back to back.
    out = []
    while any(groups):
        for g in groups:
            if g:
                out.append(g.pop(0))
    return out


# ---------------------------------------------------------------------------
# cv_moments
# ---------------------------------------------------------------------------

def _moment_requests(rng, cutoff: int, small: bool, tag: str) -> list:
    """cv-check and relation-check requests at one cutoff.

    The large set (cutoff 30) has twelve requests, the small set (cutoff 40)
    four, so the median request is a cutoff-30 one.  Each cv-check runs
    twice, so a run has few distinct requests for the dense oracle.
    """
    tms = [f"two_mode_squeezed:r={float(x)!r}" for x in rng.uniform(0.1, 0.5, size=2)]
    spe = "single_photon_entangled"

    def cvc(source, ineq):
        m, n = (int(x) for x in rng.integers(1, 4, size=2))
        return ["cv-check", source, "--ineq", str(ineq), "--m", str(m), "--n", str(n),
                "--cutoff", str(cutoff)], {"source": source, "ineq": ineq, "m": m,
                                           "n": n, "cutoff": cutoff}

    def rel(source):
        m, n, p, q = (int(x) for x in rng.integers(0, 4, size=4))
        return ["relation-check", source, "--m", str(m), "--n", str(n), "--p", str(p),
                "--q", str(q), "--cutoff", str(cutoff)], {
                    "source": source, "m": m, "n": n, "p": p, "q": q, "cutoff": cutoff}

    if small:
        checks = [cvc(tms[0], 10)]
        relations = [rel(tms[0]), rel(spe)]
    else:
        checks = [cvc(tms[0], 10), cvc(tms[1], 11), cvc(spe, 10), cvc(spe, 11)]
        relations = [rel(tms[0]), rel(tms[1]), rel(spe), rel(spe)]
    reqs = [_req(f"{tag}-check{i}", argv, "cv-check", cutoff, expect)
            for i, (argv, expect) in enumerate(checks)]
    reqs += [_req(f"{tag}-relation{i}", argv, "relation-check", cutoff, expect)
             for i, (argv, expect) in enumerate(relations)]
    return reqs + reqs[:len(checks)]


def cv_moments_cycle(seed: int, cycle: int, tiny: bool = False) -> list:
    """The same request list, in the same order, in every cycle: the seed
    draws its parameters once per run."""
    rng = _rng(seed, "cv_moments", 0)
    big, small = TINY_MOMENT_CUTOFFS if tiny else MOMENT_CUTOFFS
    return (_moment_requests(rng, big, False, f"c{big}")
            + _moment_requests(rng, small, True, f"c{small}"))


def make_cycle(workload: str, seed: int, cycle: int, run_dir: str,
               tiny: bool = False) -> list:
    """The requests of one cycle; --tiny shrinks sizes for the self-tests."""
    if workload == "finite_small":
        return finite_small_cycle(seed, cycle, tiny)
    if workload == "finite_large":
        return finite_large_cycle(seed, cycle, run_dir, tiny)
    if workload == "cv_bs":
        return cv_bs_cycle(seed, cycle, tiny)
    return cv_moments_cycle(seed, cycle, tiny)
