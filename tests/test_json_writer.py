"""Report files are the bytes of json.dumps(obj, indent=2, sort_keys=True)
plus a trailing newline, for every subcommand that writes JSON."""

import json
import math

import pytest
from cli_runner import CliRunner

from nptcert import states
from nptcert.cli import _emit, main
from nptcert.hermitian import save_operator


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def assert_plain_encoder_bytes(text: str) -> None:
    assert text == reference(json.loads(text)) + "\n"


def emitted(obj, path) -> str:
    _emit(obj, path)
    with open(path) as fh:
        return fh.read()


NAN, INF = math.nan, math.inf

EDGE_PAYLOADS = {
    "empty-dict": {},
    "empty-list": [],
    "nested-empty": {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
    "list-of-empty-list": [[]],
    "unsorted-keys": {"b": 1, "a": {"d": 2, "c": 3}, "A": None},
    "floats": [1.0, -0.0, 5e-324, 1e16, 1e-05, 0.1, -2.5e-300, 1.7976931348623157e308],
    "int-in-float-list": [1.0, 2, 3.5],
    "bool-in-float-list": [True, 1.0],
    "bool-pair": [[True, 1.0], [0.5, False]],
    "int-pair": [[1, 2.0], [3.0, 4.0]],
    "none-in-float-list": [None, 1.0],
    "nan-inf-flat": [1.0, NAN, INF, -INF],
    "nan-in-pair": [[0.5, 1.5], [NAN, 0.0], [-INF, INF]],
    "lone-specials": {"nan": NAN, "inf": INF, "minus_inf": -INF},
    "pairs": {"dims": [2, 2], "matrix": [[0.5, 0.0], [-0.0, 1e-05], [1e16, -5e-324]]},
    "ragged-pairs": [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]],
    "triples": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
    "tuple-pairs": [(1.0, 2.0), (3.0, 4.0)],
    "nested-float-lists": [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]],
    "scalars": {"t": True, "f": False, "n": None, "i": -7, "big": 10**30, "s": "x"},
    "escaped-strings": {"q\"uote": "back\\slash", "ctl": "\n\t\r\x00\x1f", "sl": "a/b"},
    "non-ascii": {"é": "ünïcødé", "snow": "☃", "astral": "\U0001f600"},
    "float-subclass": [float.__new__(type("F", (float,), {}), 0.25), 1.0],
    "top-level-float": 0.1,
    "top-level-nan": NAN,
    "top-level-string": "n",
}


@pytest.mark.parametrize("payload", EDGE_PAYLOADS.values(), ids=EDGE_PAYLOADS.keys())
def test_edge_payloads(tmp_path, payload):
    assert emitted(payload, tmp_path / "report.json") == reference(payload) + "\n"


@pytest.mark.parametrize("dim, dims", [(4, (2, 2)), (16, (4, 4)), (64, (8, 8))])
@pytest.mark.parametrize("command", ["check", "witness"])
def test_report_files_equal_json_dumps(tmp_path, command, dim, dims):
    source = tmp_path / "rho.json"
    save_operator(states.random_density(dim, 5, dims=dims), source)
    out = tmp_path / "report.json"
    result = CliRunner().invoke(main, [command, str(source), "--bipartition", "0|1",
                                       "--out", str(out)])
    assert result.exit_code in (0, 2), result.output
    assert_plain_encoder_bytes(out.read_text())


@pytest.mark.parametrize("argv", [
    ["cv-check", "two_mode_squeezed:r=0.3", "--cutoff", "12"],
    ["bs-demo", "--input", "squeezed_vacuum:r=0.1", "--cutoff", "12"],
    ["relation-check", "two_mode_squeezed:r=0.3", "--cutoff", "12"],
], ids=["cv-check", "bs-demo", "relation-check"])
def test_cv_report_files_equal_json_dumps(tmp_path, argv):
    out = tmp_path / "report.json"
    result = CliRunner().invoke(main, argv + ["--out", str(out)])
    assert result.exit_code in (0, 2), result.output
    assert_plain_encoder_bytes(out.read_text())
