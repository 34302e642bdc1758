"""Smoke test of the request corpus (tests/corpus.py): the full list runs
outside tier-1, before and after a change."""

import json

import corpus


def test_snapshot_twice_and_diff(tmp_path, capsys):
    requests = corpus.REQUESTS[:4] + corpus.BOOL_SPECS[:1]
    a = corpus.snapshot(tmp_path / "a", requests)
    corpus.snapshot(tmp_path / "b", requests)
    assert corpus.diff(tmp_path / "a", tmp_path / "b") == []
    assert capsys.readouterr().out.startswith("5 of 5 requests byte-identical")
    rows = [json.loads(line) for line in a.read_text().splitlines()]
    assert [r["exit"] for r in rows] == [2, 2, 2, 2, 1]
    # a changed exit code is listed with both codes
    rows[0]["exit"] = 0
    (tmp_path / "b" / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert corpus.diff(tmp_path / "a", tmp_path / "b") == [(requests[0], 2, 0)]
    assert "exit 2 -> 0: check bell" in capsys.readouterr().out
