"""One fresh interpreter that runs a workload against nptcert in-process.

Started by run.py with the workload and seed on the command line.  It imports
``nptcert.cli``, runs the workload's warm-up request, prints ``ready`` (the
parent's setup clock stops there) and, unless ``--setup-only``, runs whole
cycles of the closed loop (one client, no think time): as many as best fill
``--seconds`` of request time.  Each request is ``nptcert.cli.main`` with
``--out`` into the run directory, exactly what the console script runs.

With ``--trace 1`` it first runs half the time untraced, then installs the
span wrappers from tracing.py and runs the other half, then the layer probes.
The result (per-request latencies, exit codes and calibration kernel times,
ru_maxrss, layer metrics) goes to ``--result`` as JSON; the spans go next
to it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

CAL_EVERY_S = 0.25  # request time between two speed-calibration samples


class Calibration:
    """Machine speed, sampled between requests with a fixed kernel that no
    change to nptcert can alter: a Python loop, small numpy operations and
    one BLAS product, about 30 ms in all.

    The shared machines this runs on change speed by tens of percent over
    seconds to minutes.  One sample is taken before the first request and
    one after every CAL_EVERY_S of request time.  Each request is given the
    mean of the two samples around it (`per_request`), and run.py scales
    its latency by that.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._small = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._big = rng.standard_normal((384, 384)) + 1j * rng.standard_normal((384, 384))
        self.kernel()                 # the first call pays for page faults and BLAS start-up
        self._last = self.kernel()
        self._pending = 0.0   # request time since the last sample
        self._waiting = 0     # requests since the last sample
        self.per_request = []

    def kernel(self) -> float:
        np, small = self._np, self._small
        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i
        for _ in range(900):
            m = (small + small.conj().T) / 2.0
            float(np.max(np.abs(m)))
        self._big @ self._big
        return time.perf_counter() - t0

    def after_request(self, latency: float) -> None:
        self._pending += latency
        self._waiting += 1
        if self._pending >= CAL_EVERY_S:
            self.flush()

    def flush(self) -> None:
        """Sample now and assign the requests since the last sample."""
        if self._waiting:
            now = self.kernel()
            self.per_request += [(self._last + now) / 2.0] * self._waiting
            self._last, self._pending, self._waiting = now, 0.0, 0


def call_cli(main, argv) -> int:
    """Run one CLI request the way the console script does; return its exit code."""
    try:
        main(argv, prog_name="nptcert")
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else code if isinstance(code, int) else 1
    except Exception as exc:  # a traceback is a failed request, not a crashed run
        print(f"request raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return -1
    return 0


def out_path(run_dir: str, req: dict) -> str:
    ext = ".csv" if req["kind"] == "sweep-ghz" else ".json"
    return os.path.join(run_dir, "out", req["key"] + ext)


def run_cycles(main, args, first_cycle: int, seconds: float, calibration, tracer=None):
    """As many whole cycles as best fill `seconds` of request time, and at
    least one: another cycle starts while the request time so far plus half
    a mean cycle is short of it.

    Returns (records, busy seconds, next cycle index).  Busy time is the sum
    of request latencies; cycle generation and calibration sit outside it.
    """
    records, busy, cycle = [], 0.0, first_cycle
    while cycle == first_cycle or busy + busy / (cycle - first_cycle) / 2 < seconds:
        reqs = workloads.make_cycle(args.workload, args.seed, cycle, args.run_dir, args.tiny)
        for req in reqs:
            argv = req["argv"] + ["--out", out_path(args.run_dir, req)]
            if tracer is not None:
                tracer.begin_request(req)
            t0 = time.perf_counter()
            code = call_cli(main, argv)
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_request()
            records.append((req, latency, code))
            busy += latency
            calibration.after_request(latency)
        cycle += 1
    return records, busy, cycle


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--result", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    from nptcert import cli

    src = os.path.abspath("src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"nptcert imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(args.run_dir, "out"), exist_ok=True)
    warm = workloads.WARMUP[args.workload]
    code = call_cli(cli.main, warm + ["--out", os.path.join(args.run_dir, "out", "warmup")])
    if code not in (0, 2):
        print(f"warm-up request exited {code}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {}
    calibration = Calibration()
    if args.trace:
        import tracing

        half = args.seconds / 2.0
        plain, plain_busy, nxt = run_cycles(cli.main, args, 0, half, calibration)
        tracer = tracing.Tracer()
        tracer.install()
        traced, traced_busy, _ = run_cycles(cli.main, args, nxt, half, calibration, tracer)
        tracer.run_probes(lambda argv: call_cli(cli.main, argv),
                          os.path.join(args.run_dir, "probe"))
        tracer.uninstall()
        records = plain + traced
        result["layers"] = tracer.layer_metrics()
        result["layers"]["trace.overhead_ratio"] = (
            (len(traced) / traced_busy) / (len(plain) / plain_busy))
        tracer.write_spans(os.path.join(args.run_dir, "spans.json"))
    else:
        records, _, _ = run_cycles(cli.main, args, 0, args.seconds, calibration)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    requests = {}
    for req, _, _ in records:
        requests.setdefault(req["key"], req)
    calibration.flush()
    result.update({
        "requests": requests,
        "records": [[req["key"], latency, code, kernel_s] for (req, latency, code), kernel_s
                    in zip(records, calibration.per_request)],
        "out_paths": {k: out_path(args.run_dir, r) for k, r in requests.items()},
    })
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
