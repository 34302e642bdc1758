"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest perfbench/tests -q

The smoke runs use --tiny (small workload sizes, one-second loops); the
traced one still probes every layer at the full probe sizes, so the module
takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, declared: list, prefixes) -> None:
    for prefix in prefixes:
        for m in declared:
            entry = result["metrics"][prefix + m["name"]]
            assert entry["unit"] == m["unit"]
            assert isinstance(entry["value"], (int, float))


def test_smoke_every_end_to_end_metric_and_no_failures():
    result = _run("--workload", "all", "--trace", "0", "--tiny")
    result = _result(result)
    _assert_metrics(result, BENCH["end_to_end"], [f"{w}." for w in workloads.WORKLOADS])
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True


def test_traced_smoke_every_per_layer_metric_and_sweep_counts():
    result = _result(_run("--workload", "finite_small", "--trace", "1", "--tiny"))
    _assert_metrics(result, BENCH["per_layer"], [""])
    assert result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # one sweep-ghz grid point: 2 eigensolves and 4 PTs, half of each redundant
    assert m["spectral.eig_hermitian_calls.sweep-ghz"] == 2
    assert m["hermitian.partial_transpose_calls.sweep-ghz"] == 4
    assert m["spectral.eig_hermitian_redundant_ratio.sweep-ghz"] == 0.5
    assert m["hermitian.partial_transpose_redundant_ratio.sweep-ghz"] == 0.5


def test_declared_per_layer_metrics_match_the_tracer():
    import tracing

    assert [m["name"] for m in BENCH["per_layer"]] == tracing.metric_names()


def test_fails_closed_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "finite_small", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _bell_request(tmp_path, kind="check"):
    """Run one real request in-process; return (request, output text, exit code)."""
    from nptcert import cli
    from worker import call_cli

    req = workloads._req("bell", [kind, '{"family": "bell"}', "--bipartition", "0|1"],
                         kind, 4, {"spec": {"family": "bell"}, "bip": "0|1", "npt": True})
    out = tmp_path / "bell.json"
    code = call_cli(cli.main, req["argv"] + ["--out", str(out)])
    return req, out, code


@pytest.mark.parametrize("kind", ["check", "witness"])
def test_checker_accepts_right_output(tmp_path, kind):
    req, out, code = _bell_request(tmp_path, kind)
    checks.check_request(req, out.read_text(), code, {})


@pytest.mark.parametrize("kind", ["check", "witness"])
def test_wrong_expected_verdict_counts_as_failure(tmp_path, kind):
    req, out, code = _bell_request(tmp_path, kind)
    req["expect"]["npt"] = False          # deliberately wrong: Bell is NPT
    with pytest.raises(checks.CheckFailed):
        checks.check_request(req, out.read_text(), code, {})
    result = {"requests": {"bell": req}, "out_paths": {"bell": str(out)},
              "records": [["bell", 0.001, code, 0.03], ["bell", 0.001, code, 0.03]]}
    failed, reasons = run.check_outputs(result)
    assert failed == 2 and "bell" in reasons


def test_tampered_verdict_counts_as_failure(tmp_path):
    req, out, code = _bell_request(tmp_path)
    text = out.read_text().replace('"verdict": "violated"', '"verdict": "satisfied"')
    with pytest.raises(checks.CheckFailed, match="verdict"):
        checks.check_request(req, text, code, {})


def test_wrong_exit_code_counts_as_failure(tmp_path):
    req, out, code = _bell_request(tmp_path)
    result = {"requests": {"bell": req}, "out_paths": {"bell": str(out)},
              "records": [["bell", 0.001, 0, 0.03]]}
    assert run.check_outputs(result)[0] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cycles_are_seeded_with_a_fixed_composition(tmp_path, workload):
    def cycle(seed):
        return workloads.make_cycle(workload, seed, 3, str(tmp_path))

    def shape(seed):
        return sorted((r["kind"], r["size"]) for r in cycle(seed))

    assert cycle(1) == cycle(1)
    assert shape(1) == shape(2)
    if workload != "finite_large":  # its inputs differ by seed, not its argv
        assert cycle(1) != cycle(2)
