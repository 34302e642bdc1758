"""Request-level benchmark for nptcert.

    python3 perfbench/run.py --workload finite_small --seed 1 --seconds 16 --trace 0

Run from the root of a checkout.  Each run starts fresh interpreters that
import ``nptcert`` from ``src/`` and serve one closed-loop client (no
queue, so no waiting time exists to report) that issues nptcert
subcommands in-process through ``nptcert.cli.main`` with ``--out`` into
``.perfbench_run/``.  BLAS is pinned to one thread, and only one child runs
at a time.  Times are scaled to a reference machine speed with a
calibration kernel timed between requests (worker.Calibration); the
unscaled wall-clock values are printed too.

After the timed loop every distinct request's output is checked against
the benchmark's own oracle (checks.py).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The lines before it, prefixed ``#``, repeat the
metrics with their units and sample counts, the failure ratio, the
latency p90 where a run has at least 100 requests, and the provenance
(versions, BLAS, nproc, seed, pinned threads).

``--workload all`` runs the four workloads one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

BLAS_THREADS = 1
SETUP_SAMPLES = 3        # fresh interpreters timed to ready, the workload's own included
RUN_LIMIT_S = 170.0      # the whole run, setup and checks included
RUN_ROOT = ".perfbench_run"
P90_MIN_REQUESTS = 100
# Kernel time of worker.Calibration on the machine the bounds were set on.
# Times are reported at that machine's speed: each request's latency is
# divided by (the kernel time measured around it / CAL_REFERENCE_S).
CAL_REFERENCE_S = 0.030


def fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict:
    """This process's environment (BLAS already pinned by main), with
    nptcert imported from src/ and the default margin tolerance."""
    env = dict(os.environ)
    env.pop("NPT_CERTIFY_TOL", None)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            fail("run exceeded its time limit", 1)
        return left


def start_child(args, run_dir: str, setup_only: bool, deadline: Deadline):
    """Start one worker and time it from spawn to its `ready` line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--result", os.path.join(run_dir, "result.json")]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    log = open(os.path.join(run_dir, "worker.log"), "a")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, env=child_env(), text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        fail("worker exceeded the run's time limit", 1)
    finally:
        if proc.poll() is None:  # time limit, SIGTERM or interrupt: end the worker too
            proc.kill()
            proc.communicate()
        log.close()
    if line.strip() != "ready" or proc.returncode != 0:
        fail(f"worker exited {proc.returncode}; see {run_dir}/worker.log", 1)
    return setup_s


def check_outputs(result: dict):
    """Failed request count: wrong exit code, missing output or failed check."""
    import checks
    from nptcert.errors import CertificationError

    codes = {}
    for key, _, code, _ in result["records"]:
        codes.setdefault(key, set()).add(code)
    bad_keys, reasons = set(), {}
    oracles = {}
    for key, req in result["requests"].items():
        try:
            if len(codes[key]) != 1:
                raise checks.CheckFailed(f"exit codes {sorted(codes[key])} on repeats")
            with open(result["out_paths"][key]) as fh:
                text = fh.read()
            checks.check_request(req, text, next(iter(codes[key])), oracles)
        except (checks.CheckFailed, CertificationError, OSError, ValueError, KeyError,
                TypeError) as exc:
            bad_keys.add(key)
            reasons[key] = f"{type(exc).__name__}: {exc}"
    failed = sum(1 for key, *_ in result["records"] if key in bad_keys)
    return failed, reasons


def provenance(args) -> dict:
    import importlib.metadata
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": importlib.metadata.version("scipy"),
            "blas": blas, "blas_threads": BLAS_THREADS, "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


def run_workload(args) -> dict:
    deadline = Deadline(RUN_LIMIT_S)
    run_dir = os.path.join(RUN_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    if args.workload == "finite_large":
        workloads.write_large_inputs(args.seed, run_dir, args.tiny)
    setup = [start_child(args, run_dir, True, deadline) for _ in range(SETUP_SAMPLES - 1)]
    setup.append(start_child(args, run_dir, False, deadline))
    with open(os.path.join(run_dir, "result.json")) as fh:
        result = json.load(fh)
    t_check = time.perf_counter()
    failed, reasons = check_outputs(result)
    check_s = time.perf_counter() - t_check
    for key, why in sorted(reasons.items())[:10]:
        print(f"# FAILED {key}: {why}")
    for sub in ("out", "inputs", "probe"):
        shutil.rmtree(os.path.join(run_dir, sub), ignore_errors=True)

    records = result["records"]
    attempted = len(records)
    wall = [lat for _, lat, _, _ in records]
    scaled = [lat * CAL_REFERENCE_S / kernel_s for _, lat, _, kernel_s in records]
    slow = sum(wall) / sum(scaled)
    rows = [("fail_ratio", failed / attempted, "ratio", f"{failed}/{attempted} requests")]
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "requests_per_s": (attempted - failed) / sum(scaled),
            "latency_p50_ms": statistics.median(scaled) * 1e3,
            "setup_s": statistics.median(setup) / slow,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        if attempted >= P90_MIN_REQUESTS:
            p90 = statistics.quantiles(scaled, n=10)[8] * 1e3
            rows.append(("latency_p90_ms", p90, "ms", f"n={attempted}"))
        else:
            rows.append(("latency_p90_ms", None, "ms",
                         f"not reported: n={attempted} < {P90_MIN_REQUESTS}"))
        rows += [
            ("unscaled requests_per_s", (attempted - failed) / sum(wall), "1/s", "wall clock"),
            ("unscaled latency_p50_ms", statistics.median(wall) * 1e3, "ms", "wall clock"),
            ("unscaled setup_s", statistics.median(setup), "s", "wall clock"),
        ]
    rows.append(("machine_slowdown", slow, "x",
                 f"request time over reference-speed time; reference kernel "
                 f"{CAL_REFERENCE_S * 1e3:.0f} ms"))
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "setup": setup, "extra": rows, "busy_s": sum(wall), "check_s": check_s}


def declared_metrics(trace: int) -> dict:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def print_summary(args, out: dict, units: dict) -> None:
    n = out["attempted"]
    counts = {"setup_s": f" (n={len(out['setup'])} fresh interpreters)",
              "peak_rss_mb": " (n=1 process)"}
    default = "" if args.trace else f" (n={n})"
    print(f"# workload {args.workload}: {n} requests in {out['busy_s']:.2f} s of request "
          f"time; closed loop, 1 client, no queue, so no wait time exists; "
          f"output checks took {out['check_s']:.1f} s")
    for name, unit in units.items():
        value = out["metrics"][name]
        print(f"# {name} {value:.6g} {unit}{counts.get(name, default)}")
    for name, value, unit, note in out["extra"]:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"# {name} {shown} {unit} ({note})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for the benchmark's self-tests")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "nptcert", "cli.py")):
        fail("run from the root of an nptcert checkout (src/nptcert/cli.py not found)")
    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.abspath("src"))
    units = declared_metrics(args.trace)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        args.workload = name
        out = run_workload(args)
        missing = set(units) - set(out["metrics"])
        if missing:
            fail(f"metrics not produced: {sorted(missing)}", 1)
        print(f"# provenance {json.dumps(provenance(args), sort_keys=True)}")
        print_summary(args, out, units)
        prefix = f"{name}." if len(names) > 1 else ""
        total["attempted"] += out["attempted"]
        total["failed"] += out["failed"]
        for metric, unit in units.items():
            total["metrics"][prefix + metric] = {"value": out["metrics"][metric],
                                                 "unit": unit}
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
