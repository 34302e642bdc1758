"""Smoke test of the request corpus (tests/corpus.py): the full list runs
outside tier-1, before and after a change."""

import json
import math

import corpus


def test_snapshot_twice_and_diff(tmp_path, capsys):
    requests = corpus.REQUESTS[:4] + corpus.BOOL_SPECS[:1]
    a = corpus.snapshot(tmp_path / "a", requests)
    corpus.snapshot(tmp_path / "b", requests)
    assert corpus.diff(tmp_path / "a", tmp_path / "b") == []
    assert capsys.readouterr().out.startswith("5 of 5 requests byte-identical")
    rows = [json.loads(line) for line in a.read_text().splitlines()]
    assert [r["exit"] for r in rows] == [2, 2, 2, 2, 1]
    assert rows[0]["report"]["verdict"] == "violated" and rows[4]["report"] is None
    # a changed exit code, verdict and report field are listed by path
    rows[0].update(exit=0, sha256="0" * 64)
    rows[0]["report"]["verdict"] = "satisfied"
    del rows[0]["report"]["config"]["tol"]
    (tmp_path / "b" / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert corpus.diff(tmp_path / "a", tmp_path / "b") == [
        (requests[0], 2, 0, [("config.tol", "removed"), ("verdict", "'violated' -> 'satisfied'")])]
    out = capsys.readouterr().out
    assert "  exit 2 -> 0: check bell --bipartition 0|1\n    config.tol: removed\n" in out
    assert "2 changed verdicts and exit codes" in out
    assert "  verdict 'violated' -> 'satisfied': check bell" in out


def test_changed_paths():
    old = {"a": [1, 2.0], "b": {"c": "x", "gone": 1}, "sweep": corpus._tree("p,m\n0.1,5\n")}
    new = {"a": [1, 2], "b": {"c": "y", "new": 1}, "sweep": corpus._tree("p,m\n0.1,6\n")}
    assert corpus.changed_paths(old, new) == [
        ("a[1]", "2.0 -> 2"), ("b.c", "'x' -> 'y'"), ("b.gone", "removed"), ("b.new", "added"),
        ("sweep.row 0.m", "'5' -> '6'")]
    assert corpus.changed_paths([1], [1, 2], "v") == [("v", "length 1 -> 2")]
    assert corpus.changed_paths(float("nan"), float("nan")) == []
    # to rtol: numbers and numeric CSV cells agree, text and verdicts never
    assert corpus.changed_paths(old, new, rtol=0.2) == [
        ("b.c", "'x' -> 'y'"), ("b.gone", "removed"), ("b.new", "added")]
    assert corpus.changed_paths({"violated": 1}, {"violated": 1.1}, rtol=0.2) == [
        ("violated", "1 -> 1.1")]


def test_diff_rtol(tmp_path, capsys):
    requests = corpus.REQUESTS[:2]
    a = corpus.snapshot(tmp_path / "a", requests)
    corpus.snapshot(tmp_path / "b", requests)
    rows = [json.loads(line) for line in a.read_text().splitlines()]
    # a last-digit change of one margin: the bytes differ, the numbers agree to 1e-12
    margin = rows[0]["report"]["hur_weak"]["margin"]
    rows[0]["report"]["hur_weak"]["margin"] = math.nextafter(margin, 0.0)
    rows[0]["sha256"] = "0" * 64
    (tmp_path / "b" / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert corpus.main(["diff", str(tmp_path / "a"), str(tmp_path / "b"), "--rtol", "1e-12"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1 of 2 requests byte-identical\n1 within rtol 1e-12\n"
                          "  check bell --bipartition 0|1\n    hur_weak.margin: ")
    assert "0 changed verdicts and exit codes" in out
    assert corpus.main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "  exit 2 -> 2: check bell --bipartition 0|1\n    hur_weak.margin: " in (
        capsys.readouterr().out)
    # a verdict is compared exactly whatever the tolerance
    rows[0]["report"]["hur_weak"]["violated"] = False
    (tmp_path / "b" / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert corpus.diff(tmp_path / "a", tmp_path / "b", rtol=1.0) == [
        (requests[0], 2, 2, [("hur_weak.margin", f"{margin!r} -> {math.nextafter(margin, 0.0)!r}"),
                             ("hur_weak.violated", "True -> False")])]
