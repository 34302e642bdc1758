"""Spans around nptcert's public functions, installed only in a traced run.

Each wrapped function is replaced in every nptcert module that binds it
(``from .hermitian import partial_transpose`` makes a second binding in
``spectral``, ``certificates`` and ``cv``), so calls between modules are
caught as well as calls from the CLI.  A span records the layer name, the
size it ran at, the wrapper's entry and exit, the call's own start and end,
its parent span and its request; spans stay in memory until write_spans.

A span's self time is its duration minus the wrapper extent of its direct
children, so the wrappers' own bookkeeping (sizes, input digests) is charged
to nobody.  Redundant calls are calls whose input array is byte-identical to
an earlier call's input within the same request.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import statistics
import time

import numpy as np

from nptcert import certificates, cli, cv, hermitian, spectral, states

FINITE_DIMS = (4, 16, 64, 256)
CV_CUTOFFS = (10, 20, 30, 40)


def _dim(op):
    return op.dim


def _cutoff(rho):
    return rho.dims[0] - 1


def _pt_digest(args, kwargs):
    rho, bip = args[0], args[1]
    return (_bytes_digest(rho.matrix), rho.dims, tuple(sorted(bip.party_one)))


def _eig_digest(args, kwargs):
    return _bytes_digest(args[0].matrix)


def _bytes_digest(a) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(a).tobytes(), digest_size=16).digest()


# (module, function, layer name, size kind, size of (args, kwargs), digest of (args, kwargs))
WRAPPED = (
    (states, "state_from_spec", "states.state_from_spec", None, None, None),
    (hermitian, "operator_from_payload", "hermitian.operator_from_payload", "d",
     lambda a, k: int(np.prod(a[0]["dims"])), None),
    (hermitian, "validate_hermitian", "hermitian.validate_hermitian", "d",
     lambda a, k: int(np.prod(a[1] if len(a) > 1 else k["dims"])), None),
    (hermitian, "partial_transpose", "hermitian.partial_transpose", "d",
     lambda a, k: _dim(a[0]), _pt_digest),
    (hermitian, "matrix_payload", "hermitian.matrix_payload", "d",
     lambda a, k: _dim(a[0]), None),
    (spectral, "eig_hermitian", "spectral.eig_hermitian", "d",
     lambda a, k: _dim(a[0]), _eig_digest),
    (certificates, "build_pseudospin", "certificates.build_pseudospin", "d",
     lambda a, k: len(a[0]), None),
    (certificates, "sr_moments", "certificates.sr_moments", "d",
     lambda a, k: _dim(a[2] if len(a) > 2 else k["rho"]), None),
    (certificates, "hur_weak_test", "certificates.hur_weak_test", "d",
     lambda a, k: _dim(a[1] if len(a) > 1 else k["rho"]), None),
    (certificates, "witness_from_eigvec", "certificates.witness", "d",
     lambda a, k: len(a[0]), None),
    (certificates, "ghz_correlators", "certificates.ghz_correlators", None, None, None),
    (cv, "cv_state_from_spec", "cv.cv_state_from_spec", "c",
     lambda a, k: int(a[0].get("cutoff", cv.DEFAULT_CUTOFF)), None),
    (cv, "beam_splitter", "cv.beam_splitter", "c", lambda a, k: _cutoff(a[0]), None),
    (cv, "ineq10", "cv.ineq10", "c", lambda a, k: _cutoff(a[0]), None),
    (cv, "ineq11", "cv.ineq11", "c", lambda a, k: _cutoff(a[0]), None),
    (cv, "pt_moment_relation_check", "cv.pt_moment_relation_check", "c",
     lambda a, k: _cutoff(a[0]), None),
)
MODULES = (states, hermitian, spectral, certificates, cv, cli)

FINITE_LAYERS = [name for _, _, name, kind, _, _ in WRAPPED if kind == "d"]
CV_LAYERS = ["cv.cv_state_from_spec", "cv.beam_splitter.first", "cv.beam_splitter.repeat",
             "cv.ineq10", "cv.ineq11", "cv.pt_moment_relation_check"]
COUNTED = ("hermitian.validate_hermitian", "hermitian.partial_transpose",
           "spectral.eig_hermitian")
DEDUPED = ("hermitian.partial_transpose", "spectral.eig_hermitian")
FINITE_KINDS = ("check", "witness", "sweep-ghz")
CV_KINDS = ("cv-check", "bs-demo", "relation-check")

# One CLI request per subcommand, for the per-subcommand call counts.
PROBE_REQUESTS = (
    ("check", ["check", '{"family": "ghz_mixed", "p": 0.5}', "--bipartition", "0,1|2"], 1),
    ("witness", ["witness", '{"family": "ghz_mixed", "p": 0.5}', "--bipartition", "0,1|2"], 1),
    # The two grid points share no input (p = 0 has a degenerate spectrum,
    # so its chosen eigenvector differs), so counts / 2 are per-point counts.
    ("sweep-ghz", ["sweep-ghz", "--p-from", "0", "--p-to", "0.5", "--steps", "2",
                   "--bipartition", "0,1|2"], 2),
    ("cv-check", ["cv-check", "two_mode_squeezed:r=0.3", "--cutoff", "10"], 1),
    ("bs-demo", ["bs-demo", "--input", "fock:n=1", "--theta", "0.7", "--cutoff", "10"], 1),
    ("relation-check", ["relation-check", "two_mode_squeezed:r=0.3", "--cutoff", "10"], 1),
)


def _ms_stem(layer: str) -> str:
    """cv.ineq10 -> cv.ineq10_ms; cv.beam_splitter.first -> cv.beam_splitter_ms.first."""
    _, _, phase = layer.partition(".beam_splitter.")
    return f"cv.beam_splitter_ms.{phase}" if phase else f"{layer}_ms"


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = ["cli.self_ms", "states.state_from_spec_ms", "certificates.ghz_correlators_ms"]
    names += [f"{layer}_ms.d{d}" for layer in FINITE_LAYERS for d in FINITE_DIMS]
    names += [f"{_ms_stem(layer)}.c{c}" for layer in CV_LAYERS for c in CV_CUTOFFS]
    names += [f"{layer}_calls" for layer in COUNTED]
    names += [f"{layer}_redundant_ratio" for layer in DEDUPED]
    for kind in FINITE_KINDS:
        names += [f"{layer}_calls.{kind}" for layer in COUNTED]
        names += [f"{layer}_redundant_ratio.{kind}" for layer in DEDUPED]
    names += [f"hermitian.validate_hermitian_calls.{kind}" for kind in CV_KINDS]
    names += ["cv_bs.theta_repeat_share", "trace.overhead_ratio"]
    return names


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.spans = []       # [name, size, w0, t0, t1, w1, parent, request, redundant]
        self.stack = []
        self.request = None
        self.digests = set()  # input digests seen in the current request
        self.bs_seen = set()  # (cutoff, theta) keys of bs-demo requests so far
        self.bs_phase = "first"
        self.bs_requests = 0
        self.bs_repeats = 0
        self.workload_requests = []
        self._originals = []

    # -- wrappers ----------------------------------------------------------

    def install(self) -> None:
        for module, fname, name, _, size_of, digest_of in WRAPPED:
            original = getattr(module, fname)
            wrapper = self._wrap(original, name, size_of, digest_of)
            for mod in MODULES:
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapper)
                    self._originals.append((mod, fname, original))

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._originals):
            setattr(mod, fname, original)
        self._originals.clear()

    def _wrap(self, fn, name, size_of, digest_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            w0 = time.perf_counter()
            size = size_of(args, kwargs) if size_of else None
            label = name
            if name == "cv.beam_splitter":
                label = f"{name}.{tracer.bs_phase}"
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.spans.append(None)
            tracer.stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                redundant = False
                if digest_of is not None:
                    key = (name, digest_of(args, kwargs))
                    redundant = key in tracer.digests
                    tracer.digests.add(key)
                tracer.spans[idx] = [label, size, w0, t0, t1, time.perf_counter(),
                                     parent, tracer.request, redundant]

        return wrapper

    # -- request roots -----------------------------------------------------

    def begin_request(self, req, request_id=None, root="cli.request") -> None:
        """Open the root span of one request (closed by end_request).

        Workload requests pass only `req`; probes pass their own id."""
        self.request = request_id if request_id is not None else len(self.spans)
        self.digests = set()
        if req is not None and req["kind"] == "bs-demo":
            key = (req["expect"]["cutoff"], req["expect"]["theta"])
            self.bs_phase = "repeat" if key in self.bs_seen else "first"
            self.bs_requests += 1
            self.bs_repeats += key in self.bs_seen
            self.bs_seen.add(key)
        if request_id is None:
            self.workload_requests.append(self.request)
        self.stack = [len(self.spans)]
        now = time.perf_counter()
        self.spans.append([root, None, now, now, None, None, None, self.request, False])

    def end_request(self) -> None:
        root = self.spans[self.stack[0]]
        root[4] = root[5] = time.perf_counter()
        self.stack = []

    # -- probes --------------------------------------------------------------

    def run_probes(self, request, probe_dir: str) -> None:
        """One CLI request per subcommand, then each size-dependent layer at
        every probe size the workload did not already reach.

        `request(argv)` runs one CLI request in-process.
        """
        os.makedirs(probe_dir, exist_ok=True)
        for kind, argv, _ in PROBE_REQUESTS:
            self.begin_request(None, request_id=f"probe:{kind}")
            self.bs_phase = "cli-probe"  # not a first-seen or repeat sample
            request(argv + ["--out", os.path.join(probe_dir, kind)])
            self.end_request()
        seen = {(s[0], s[1]) for s in self.spans if s[1] is not None}
        for d in FINITE_DIMS:
            if any((layer, d) not in seen for layer in FINITE_LAYERS):
                self._probe_root(f"probe:d{d}", lambda: self._finite_probe(d))
        for c in CV_CUTOFFS:
            if any((layer, c) not in seen for layer in CV_LAYERS):
                self._probe_root(f"probe:c{c}", lambda: self._cv_probe(c))

    def _probe_root(self, request_id, fn) -> None:
        self.begin_request(None, request_id, root="probe")
        try:
            fn()
        finally:
            self.end_request()

    @staticmethod
    def _finite_probe(dim: int) -> None:
        """Full certificate of an NPT state 0.7 |Phi><Phi| + 0.3 sigma on d x d."""
        d = int(round(dim ** 0.5))
        phi = np.eye(d).reshape(-1) / np.sqrt(d)
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        sigma = g @ g.conj().T
        rho = 0.7 * np.outer(phi, phi) + 0.3 * sigma / np.trace(sigma).real
        op = hermitian.validate_hermitian(rho, (d, d))
        op = hermitian.operator_from_payload(hermitian.matrix_payload(op))
        payload = certificates.certificate_payload(op, hermitian.Bipartition(frozenset({0}), 2))
        if not payload["is_npt"]:
            raise RuntimeError(f"probe state at dim {dim} is not NPT")

    def _cv_probe(self, cutoff: int) -> None:
        rho = cv.cv_state_from_spec({"family": "two_mode_squeezed", "r": 0.3, "cutoff": cutoff})
        cv.ineq10(rho, 1, 1)
        cv.ineq11(rho, 1, 1)
        cv.pt_moment_relation_check(rho, 1, 1, 1, 1)
        single = cv.cv_state_from_spec({"family": "fock", "n": 1, "cutoff": cutoff})
        two = cv.with_vacuum_ancilla(single)
        theta = 0.1234567 + cutoff * 1e-7  # a key no workload draws
        for phase in ("first", "repeat"):
            self.bs_phase = phase
            cv.beam_splitter(two, theta)

    # -- metrics -------------------------------------------------------------

    def _self_times(self):
        """[(span, self seconds)] for every closed span."""
        child_cover = [0.0] * len(self.spans)
        for s in self.spans:
            if s[6] is not None:
                child_cover[s[6]] += s[5] - s[2]
        return [(s, (s[4] - s[3]) - child_cover[i]) for i, s in enumerate(self.spans)]

    def layer_metrics(self) -> dict:
        timed = self._self_times()
        workload = set(self.workload_requests)
        by_key, by_name_wl, by_name_any = {}, {}, {}
        for s, self_s in timed:
            name, size, req = s[0], s[1], s[7]
            ms = self_s * 1e3
            if size is not None:
                by_key.setdefault((name, size), []).append(ms)
            target = by_name_wl if req in workload else by_name_any
            target.setdefault(name, []).append(ms)

        med = statistics.median
        out = {
            "cli.self_ms": med(by_name_wl["cli.request"]),
            "states.state_from_spec_ms": med(
                by_name_wl.get("states.state_from_spec") or by_name_any["states.state_from_spec"]),
            "certificates.ghz_correlators_ms": med(
                by_name_wl.get("certificates.ghz_correlators")
                or by_name_any["certificates.ghz_correlators"]),
        }
        for layer in FINITE_LAYERS:
            for d in FINITE_DIMS:
                out[f"{layer}_ms.d{d}"] = med(by_key[(layer, d)])
        for layer in CV_LAYERS:
            for c in CV_CUTOFFS:
                out[f"{_ms_stem(layer)}.c{c}"] = med(by_key[(layer, c)])

        out.update(self._counts(workload, len(workload), ""))
        for kind, _, per in PROBE_REQUESTS:
            counts = self._counts({f"probe:{kind}"}, per, f".{kind}")
            if kind in FINITE_KINDS:
                out.update(counts)
            else:
                key = f"hermitian.validate_hermitian_calls.{kind}"
                out[key] = counts[key]
        out["cv_bs.theta_repeat_share"] = (
            self.bs_repeats / self.bs_requests if self.bs_requests else 0.0)
        return out

    def _counts(self, requests: set, per: int, suffix: str) -> dict:
        calls = {layer: 0 for layer in COUNTED}
        redundant = {layer: 0 for layer in DEDUPED}
        for s in self.spans:
            if s[7] in requests and s[0] in calls:
                calls[s[0]] += 1
                if s[8]:
                    redundant[s[0]] += 1
        out = {f"{layer}_calls{suffix}": n / per for layer, n in calls.items()}
        for layer in DEDUPED:
            out[f"{layer}_redundant_ratio{suffix}"] = (
                redundant[layer] / calls[layer] if calls[layer] else 0.0)
        return out

    def write_spans(self, path: str) -> None:
        fields = ("name", "size", "wrap_start", "start", "end", "wrap_end",
                  "parent", "request", "redundant")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)
