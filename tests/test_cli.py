import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from cli_runner import CliRunner
from hypothesis import given, settings, strategies as st

from nptcert import certificates, cli, cv, hermitian, spectral, states
from nptcert.cli import main
from nptcert.hermitian import save_operator
from nptcert.states import make_bell, make_ghz_mixed


@pytest.fixture()
def runner():
    return CliRunner()


def run_python(*args) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports nptcert from src,
    stdout and stderr captured."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def run_module(argv) -> subprocess.CompletedProcess:
    """`python -m nptcert.cli *argv` in a fresh interpreter, stdout and stderr captured."""
    return run_python("-m", "nptcert.cli", *argv)


@pytest.fixture()
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_operator(make_bell(), path)
    return str(path)


class TestCheck:
    def test_bell_certified(self, runner, bell_file, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["check", bell_file, "--bipartition", "0|1",
                                      "--out", str(out)])
        assert result.exit_code == 2
        report = json.loads(out.read_text())
        assert report["verdict"] == "violated"
        assert report["sr"]["margin"] == pytest.approx(-1 / 16, abs=1e-12)
        assert report["witness"]["trace_value"] == pytest.approx(-0.5, abs=1e-10)

    def test_ghz_below_threshold(self, runner):
        result = runner.invoke(main, ["check", '{"family":"ghz_mixed","p":0.1}',
                                      "--bipartition", "0,1|2"])
        assert result.exit_code == 0

    def test_malformed_json(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["check", str(bad), "--bipartition", "0|1"])
        assert result.exit_code == 1

    def test_bad_bipartition(self, runner, bell_file):
        result = runner.invoke(main, ["check", bell_file, "--bipartition", "0|2"])
        assert result.exit_code == 1

    def test_deterministic_reports(self, runner, bell_file, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            runner.invoke(main, ["check", bell_file, "--bipartition", "0|1",
                                 "--out", str(p)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("command", ["check", "witness"])
    @pytest.mark.parametrize("spec", [
        '{"family": "random_density", "dim": 4, "dims": [2, 2]}',
        '{"family": "random_density", "dim": 8, "dims": [2, 4], "seed": 3}',
        '{"family": "random_separable", "dims": [2, 3], "terms": 3, "seed": 7}',
        '{"family": "product", "dims": [2, 2]}',
        '{"family": "product", "dims": [2, 2], "seed": 4}',
    ], ids=["random-density-default-seed", "random-density", "random-separable",
            "product-default-seed", "product"])
    def test_random_spec_reports_are_deterministic(self, runner, command, spec):
        # a random family draws from the spec's seed (default 0), never from OS entropy
        argv = [command, spec, "--bipartition", "0|1"]
        first, second = runner.invoke(main, argv), runner.invoke(main, argv)
        assert first.exit_code in (0, 2), first.output
        assert first.stdout == second.stdout and first.stdout


class TestErrors:
    # rows whose line must name the key; a CV spec's cutoff is read before its values
    SAYS = {"list-seed": "seed = [1, 2] is not an integer",
            "string-seed-bell": "seed = 'x' is not an integer",
            "list-dim": "dim = [4] is not an integer",
            "dict-n": "n = {'a': 1} is not an integer",
            "cutoff-before-alpha": "cutoff = 1 must be >= 2"}

    @pytest.mark.parametrize("argv", [
        ["sweep-ghz", "--out", "{missing}/x.csv"],
        ["check", "bell:", "--bipartition", "0|1", "--out", "{missing}/x.json"],
        ["bs-demo", "--input", "coherent:alpha=abc", "--cutoff", "12"],
        ["check", "{array}", "--bipartition", "0|1"],
        ["cv-check", "{array}"],
        ["check", '{{"family": "random_separable", "dims": [2, 2], "terms": 1.5}}',
         "--bipartition", "0|1"],
        ["witness", '{{"family": "random_density", "dim": 4.7, "dims": [2, 2]}}',
         "--bipartition", "0|1"],
        ["check", '{{"family": "product", "dims": [2, 2.5]}}', "--bipartition", "0|1"],
        ["cv-check", "two_mode_squeezed:r=0.3,cutoff=12.9"],
        ["cv-check", '{{"family": "two_mode_squeezed", "r": 0.3, "cutoff": true}}'],
        ["bs-demo", "--input", "fock:n=1.7", "--cutoff", "12"],
        ["check", "{bell_fractional_dims}", "--bipartition", "0|1"],
        ["check", '{{"family": "random_density", "dim": 8, "dims": [3, 3]}}',
         "--bipartition", "0|1"],
        ["check", "{deep}", "--bipartition", "0|1"],
        ["witness", "{deep_file}", "--bipartition", "0|1"],
        ["check", '{{"family": "werner", "p": true}}', "--bipartition", "0|1"],
        ["witness", '{{"family": "ghz_mixed", "p": false}}', "--bipartition", "0,1|2"],
        ["check", '{{"family": "random_density", "dim": 4, "dims": [2, 2], "seed": true}}',
         "--bipartition", "0|1"],
        ["check", '{{"family": "bell", "seed": false}}', "--bipartition", "0|1"],
        ["cv-check", '{{"family": "two_mode_squeezed", "r": false}}'],
        ["bs-demo", "--input", '{{"family": "coherent", "alpha": true}}', "--cutoff", "12"],
        ["bs-demo", "--input", '{{"family": "squeezed_vacuum", "r": 0.3, "phi": true}}',
         "--cutoff", "12"],
        ["bs-demo", "--input", '{{"family": "thermal", "nbar": true}}', "--cutoff", "12"],
        ["check", '{{"family": "random_density", "dim": 4, "dims": [2, 2], "seed": null}}',
         "--bipartition", "0|1"],
        ["witness", '{{"family": "random_separable", "dims": [2, 2], "seed": null}}',
         "--bipartition", "0|1"],
        ["check", '{{"family": "product", "dims": [2, 2], "seed": [1, 2]}}',
         "--bipartition", "0|1"],
        ["check", '{{"family": "bell", "seed": "x"}}', "--bipartition", "0|1"],
        ["check", '{{"family": "random_density", "dim": 4, "dims": [2, 2], "seed": 2.5}}',
         "--bipartition", "0|1"],
        ["check", '{{"family": "random_density", "dim": [4]}}', "--bipartition", "0|1"],
        ["cv-check", '{{"family": "fock", "n": {{"a": 1}}}}'],
        ["cv-check", '{{"family": "coherent", "alpha": "abc", "cutoff": 1}}'],
    ], ids=["sweep-out-missing-dir", "check-out-missing-dir",
            "bad-complex-value", "check-json-array-file", "cv-check-json-array-file",
            "non-integral-terms", "non-integral-dim", "non-integral-dims-entry",
            "non-integral-cutoff", "bool-cutoff", "non-integral-n",
            "matrix-file-non-integral-dims", "dims-not-matching-dim",
            "deep-json-inline", "deep-json-matrix-file", "bool-p", "bool-p-false",
            "bool-seed", "bool-seed-bell", "bool-r", "bool-alpha", "bool-phi", "bool-nbar",
            "null-seed", "null-seed-witness", "list-seed", "string-seed-bell",
            "non-integral-seed", "list-dim", "dict-n", "cutoff-before-alpha"])
    def test_one_line_error_exit_1(self, runner, tmp_path, argv, request):
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        bell = tmp_path / "bell.json"
        bell.write_text(json.dumps(dict(hermitian.matrix_payload(make_bell()), dims=[2.7, 2])))
        # JSON nested deeper than the interpreter's recursion limit
        deep = '{"a": ' + "[" * 100_000
        deep_file = tmp_path / "deep.json"
        deep_file.write_text('{"dims": [2, 2], "matrix": ' + "[" * 100_000)
        # str.format fills the paths; "{{" and "}}" stand for JSON braces
        argv = [a.format(missing=tmp_path / "missing", array=array, bell_fractional_dims=bell,
                         deep=deep, deep_file=deep_file)
                for a in argv]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        said = self.SAYS.get(request.node.callspec.id)
        assert said is None or lines[0] == f"error: {said}"

    @pytest.mark.parametrize("argv", [
        ["check", "bell", "--bipartition", "0|1"],
        ["witness", "bell", "--bipartition", "0|1"],
        ["sweep-ghz", "--steps", "2"],
        ["cv-check", "two_mode_squeezed:r=0.0", "--cutoff", "10"],
        ["bs-demo", "--input", "fock:n=1", "--cutoff", "10"],
    ], ids=["check", "witness", "sweep-ghz", "cv-check", "bs-demo"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "-1e-300"],
                             ids=["nan", "inf", "negative", "tiny-negative"])
    def test_bad_tolerance(self, runner, argv, value):
        # a NaN tolerance certified nothing and a negative one certified a
        # separable state; either is now an input error
        result = runner.invoke(main, argv + ["--tol", value])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: tolerance ")

    @pytest.mark.parametrize("argv", [
        ["check", "bell", "--bipartition", "0|1", "--bogus", "x"],
        ["check", "--bipartition", "0|1"],
        ["witness", "bell"],
        ["cv-check", "two_mode_squeezed:r=0.3", "--m", "abc"],
        ["sweep-ghz", "--steps", "2.5"],
        ["check", "bell", "--bipartition", "0|1", "--tol", "abc"],
        ["cv-check", "two_mode_squeezed:r=0.3", "--ineq", "12"],
        ["frobnicate"],
        [],
        ["check", "bell", "--bip", "0|1"],
        ["check", "bell", "--bipartition", "0|1", "--out", "{directory}"],
        ["check", "bell", "--bipartition", "0|1", "--seed", "3"],
    ], ids=["unknown-option", "missing-source", "missing-bipartition", "bad-int-m",
            "bad-int-steps", "bad-float-tol", "bad-choice-ineq", "unknown-subcommand",
            "no-subcommand", "abbreviated-option", "out-is-a-directory", "removed-seed-option"])
    def test_usage_error_exit_1(self, tmp_path, argv):
        # exit 2 means a certified violation, so a typo must never end in it
        proc = run_module([a.format(directory=tmp_path) for a in argv])
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_help_exits_0(self):
        proc = run_module(["--help"])
        assert proc.returncode == 0 and proc.stderr == ""
        assert "sweep-ghz" in proc.stdout

    @pytest.mark.parametrize("argv, key", [
        (["cv-check", "two_mode_squeezed"], "r"),
        (["check", "werner", "--bipartition", "0|1"], "p"),
        (["bs-demo", "--input", "coherent"], "alpha"),
    ], ids=["cv-check", "check", "bs-demo"])
    def test_missing_spec_key(self, runner, argv, key):
        result = runner.invoke(main, argv)
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: spec for family ")
        assert f"is missing {key!r}" in lines[0]

    @pytest.mark.parametrize("argv, family, key", [
        (["check", "werner:p=0.5,R=0.5", "--bipartition", "0|1"], "werner", "R"),
        (["check", '{"family": "bell", "p": 0.5}', "--bipartition", "0|1"], "bell", "p"),
        (["witness", '{"family": "random_density", "dim": 4, "dims": [2, 2], "terms": 3}',
         "--bipartition", "0|1"],
         "random_density", "terms"),
        (["cv-check", "two_mode_squeezed:r=0.3,phi=0.1"], "two_mode_squeezed", "phi"),
        (["bs-demo", "--input", '{"family": "fock", "n": 1, "alpha": 1}'], "fock", "alpha"),
        (["relation-check", "vacuum:seed=3"], "vacuum", "seed"),
        (["cv-check", "two_mode_squeezed:r=0.3,cutoff=12,allow_unreliable=0"],
         "two_mode_squeezed", "allow_unreliable"),
    ], ids=["check-compact", "check-json", "witness", "cv-check", "bs-demo",
            "relation-check", "cv-check-allow-unreliable"])
    def test_unknown_spec_key(self, runner, argv, family, key):
        result = runner.invoke(main, argv)
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert lines == [f"error: spec for family {family!r} has unknown key {key!r}"]

    @pytest.mark.parametrize("argv", [
        ["check", "ghz_mixed:p=0.5,seed=1", "--bipartition", "0,1|2"],
        ["cv-check", "two_mode_squeezed:r=0.3,cutoff=12"],
        ["bs-demo", "--input", "squeezed_vacuum:r=0.1,phi=0.2,cutoff=12"],
    ], ids=["seed-key", "cv-check-cutoff", "bs-demo-phi-cutoff"])
    def test_injected_and_read_keys_allowed(self, runner, argv):
        result = runner.invoke(main, argv)
        assert result.exit_code in (0, 2), result.output

    # 4294967297 * 4294967295 = 2^64 - 1 wrapped to -1 in int64, whose square passed
    # the length check; a total dimension of 1 built the pair on one vector twice in
    # `check`, while `witness` exited 0
    WRAPPED = (4294967297 * 4294967295) ** 2

    @pytest.mark.parametrize("argv, said", [
        (["check", '{"dims": [4294967297, 4294967295], "matrix": [[1, 0]]}', "--bipartition",
          "0|1"], f"matrix payload has 1 entries, expected {WRAPPED} for dims "
                  "(4294967297, 4294967295)"),
        (["check", '{"dims": [2, 2], "matrix": 5}', "--bipartition", "0|1"],
         "malformed matrix payload: object of type 'int' has no len()"),
        (["check", '{"dims": [1, 1], "matrix": [[1, 0]]}', "--bipartition", "0|1"],
         "total dimension 1 must be >= 2"),
        (["witness", '{"dims": [1, 1], "matrix": [[1, 0]]}', "--bipartition", "0|1"],
         "total dimension 1 must be >= 2"),
        (["relation-check", "two_mode_squeezed:r=0.3", "--p", "5"], "order 5 outside 0..4"),
        # a matrix file's dims are read as a spec's are, each entry >= 1, before the
        # entry count: [2, -1] passed it (n * n = 4) and numpy refused the reshape,
        # while "22" and {"2": 1, "3": 1} were read as (2, 2) and (2, 3)
        (["check", '{"dims": [2, -1], "matrix": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
          "--bipartition", "0|1"], "invalid dimension profile (2, -1)"),
        (["check", json.dumps(dict(hermitian.matrix_payload(make_bell()), dims="22")),
          "--bipartition", "0|1"], "dims = '22' is not a list"),
        (["check", json.dumps(dict(hermitian.matrix_payload(make_bell()), dims={"2": 1, "3": 1})),
          "--bipartition", "0|1"], "dims = {'2': 1, '3': 1} is not a list"),
        # a float or complex spec value ended in Python's own message, naming no key
        (["check", '{"family": "werner", "p": "abc"}', "--bipartition", "0|1"],
         "p = 'abc' is not a float"),
        (["check", '{"family": "werner", "p": [1]}', "--bipartition", "0|1"],
         "p = [1] is not a float"),
        (["witness", '{"family": "ghz_mixed", "p": {"a": 1}}', "--bipartition", "0,1|2"],
         "p = {'a': 1} is not a float"),
        (["check", '{"family": "werner", "p": 1%s}' % ("0" * 400), "--bipartition", "0|1"],
         "p = 1%s is not a float" % ("0" * 400)),
        (["cv-check", '{"family": "two_mode_squeezed", "r": "x"}', "--cutoff", "12"],
         "r = 'x' is not a float"),
        (["bs-demo", "--input", "coherent:alpha=abc", "--cutoff", "12"],
         "alpha = 'abc' is not a complex number"),
        (["bs-demo", "--input", '{"family": "squeezed_vacuum", "r": 0.1, "phi": [1]}',
          "--cutoff", "12"], "phi = [1] is not a float"),
    ], ids=["dims-product-wraps", "matrix-without-len", "check-dimension-1",
            "witness-dimension-1", "relation-check-order-5", "matrix-dims-negative",
            "matrix-dims-string", "matrix-dims-object", "string-p", "list-p", "dict-p",
            "huge-integer-p", "string-r", "string-alpha", "list-phi"])
    def test_refused_with_its_message(self, runner, argv, said):
        result = runner.invoke(main, argv)
        assert result.exit_code == 1 and result.stdout == ""
        assert result.stderr == f"error: {said}\n"


# The keys each family accepts; spec_strings adds "R", "p" and "r" and random keys.
SPEC_FAMILIES = {
    "ghz_mixed": ["p", "seed"], "bell": ["seed"], "werner": ["p", "seed"],
    "single_photon_entangled": ["seed"], "random_density": ["dim", "dims", "seed"],
    "random_separable": ["dims", "terms", "seed"], "product": ["dims", "seed"],
    "coherent": ["alpha", "cutoff"], "fock": ["n", "cutoff"],
    "squeezed_vacuum": ["r", "phi", "cutoff"],
    "thermal": ["nbar", "cutoff"], "vacuum": ["cutoff"], "two_mode_squeezed": ["r", "cutoff"],
}
# A spec's dim, dims, terms or cutoff sets the size of what is built.  Sizes
# are drawn small, or just above and far above each cap, which the spec
# readers reject before they allocate anything; a size at a cap would build
# a 16 MB (dim 1024) or 222 MB (two-mode cutoff 60) matrix.
over_caps = [states.MAX_DIM + 1, states.MAX_TERMS + 1, cv.MAX_CUTOFF + 1, 10**7]
# Non-integral sizes near working ones: each must exit 1, not be truncated.
non_integral = [2.5, 4.7, 12.9, 1e-9 + 4]
spec_numbers = st.one_of(st.integers(-2, 9), st.floats(-2.0, 2.0),
                         st.sampled_from([math.nan, math.inf, -math.inf, 1e300]
                                         + over_caps + non_integral))
spec_words = st.one_of(st.sampled_from(["0.3+0.2j", "1e400", "nan", "0x10", "1_0", "[2,2]"]),
                       st.text(max_size=8))
spec_dims = st.one_of(st.lists(st.integers(-1, 4) | st.sampled_from([2.0, 2.5, True]),
                               max_size=3),
                      st.sampled_from([[states.MAX_DIM + 1], [2] * 11, [33, 32], [10**7] * 2]))
spec_values = st.one_of(spec_numbers, spec_words, st.none(), st.booleans(), spec_dims)


@st.composite
def spec_strings(draw):
    family = draw(st.sampled_from(sorted(SPEC_FAMILIES)) | st.text(max_size=6))
    keys = st.sampled_from(SPEC_FAMILIES.get(family, []) + ["R", "p", "r"]) | st.text(max_size=4)
    if draw(st.booleans()):
        items = draw(st.dictionaries(keys, spec_numbers | spec_words, max_size=4))
        return family + ":" + ",".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}"
                                       for k, v in items.items())
    items = draw(st.dictionaries(keys, spec_values, max_size=4))
    return json.dumps({"family": family, **items})


# A Bell matrix payload under drawn dims: a non-integral entry must exit 1,
# not be truncated to a 2 x 2 profile.
BELL_ENTRIES = hermitian.matrix_payload(make_bell())["matrix"]
matrix_payloads = spec_dims.map(lambda dims: json.dumps({"dims": dims, "matrix": BELL_ENTRIES}))


INTEGER_KEYS = ("dim", "terms", "cutoff", "n", "seed")
NUMBER_KEYS = {"p": float, "r": float, "phi": float, "nbar": float, "alpha": complex}


def _casts(cast, value) -> bool:
    if isinstance(value, bool) or value is None:
        return False
    if cast is int and isinstance(value, float):
        return value.is_integer()
    try:
        cast(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def _refused_keys(spec) -> set:
    """The keys of a parsed spec whose value no reader takes: a bool or a null
    for any key (random_density's optional dims aside, where null means
    absent), a size, count or seed that int() refuses or that is not integral,
    a dims that is no list or holds such an entry, and a p, r, phi or nbar
    that float() refuses or an alpha that complex() refuses."""
    optional = {"dims"} if spec.get("family") == "random_density" else set()
    refused = {k for k, v in spec.items()
               if isinstance(v, bool) or v is None and k not in optional}
    refused |= {k for k in INTEGER_KEYS if k in spec and not _casts(int, spec[k])}
    refused |= {k for k, cast in NUMBER_KEYS.items() if k in spec and not _casts(cast, spec[k])}
    dims = spec.get("dims")
    if not (dims is None and optional) and "dims" in spec and not (
            isinstance(dims, list) and all(_casts(int, d) for d in dims)):
        refused.add("dims")
    return refused


def _names_a_key(line: str, keys) -> bool:
    """Whether an error line names one of keys, as "'p'", "p = " or "dims entry = "."""
    return any(f"{k!r}" in line or f"{k} = " in line or f"{k} entry = " in line for k in keys)


@settings(max_examples=150, deadline=None, database=None)
@given(source=spec_strings() | matrix_payloads | st.text(max_size=30),
       command=st.sampled_from(["check", "cv-check"]),
       bip=st.sampled_from(["0|1", "0,1|2"]))
def test_fuzzed_specs_exit_cleanly(source, command, bip):
    # "--" keeps a source that starts with "-" from being read as an option
    argv = (["check", "--bipartition", bip, "--", source] if command == "check"
            else ["cv-check", "--cutoff", "8", "--", source])
    result = CliRunner().invoke(main, argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    assert result.exit_code in (0, 1, 2, 3)
    if result.exit_code in (1, 3):
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, result.stderr)
    try:
        spec = cli._parse_spec(source)
    except Exception:
        return
    if not isinstance(spec, dict) or not _refused_keys(spec):
        return
    assert result.exit_code == 1, argv
    # a spec of one of the command's families: the line names the refused key, or
    # a key read before it (an unknown key, a CV cutoff, a missing required key)
    families = states._FAMILIES if command == "check" else cv._CV_FAMILIES
    family = spec.get("family")
    if isinstance(family, str) and family in families:
        keys = set(spec) - {"family"} | families[family][0]
        assert _names_a_key(lines[0], keys), (argv, lines[0])


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data(), command=st.sampled_from(["check", "cv-check"]))
def test_fuzzed_spec_values_name_their_key(data, command):
    # a spec of one of the command's families holding only keys the family reads,
    # so the readers see every drawn value
    families = states._FAMILIES if command == "check" else cv._CV_FAMILIES
    family = data.draw(st.sampled_from(sorted(families)))
    keys = sorted(families[family][0] | {"seed" if command == "check" else "cutoff"})
    values = spec_values | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1) \
        | st.integers(10**400, 10**401)
    spec = {"family": family, **data.draw(st.dictionaries(st.sampled_from(keys), values,
                                                          max_size=3))}
    source = json.dumps(spec)
    argv = (["check", "--bipartition", "0|1", "--", source] if command == "check"
            else ["cv-check", "--cutoff", "8", "--", source])
    result = CliRunner().invoke(main, argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    if _refused_keys(spec):
        assert result.exit_code == 1, argv
        lines = result.stderr.splitlines()
        named = set(keys) | set(spec) - {"family"}
        assert len(lines) == 1 and _names_a_key(lines[0], named), (argv, lines)


def test_cli_import_does_not_load_scipy():
    result = run_python("-c", "import nptcert.cli, sys; assert 'scipy' not in sys.modules")
    assert result.returncode == 0, result.stderr


def test_finite_command_does_not_import_cv():
    result = run_python("-c", "\n".join([
        "import sys",
        "from nptcert import cli",
        "try:",
        "    cli.main(['check', 'bell', '--bipartition', '0|1'])",
        "except SystemExit as exc:",
        "    assert exc.code == cli.EXIT_VIOLATED, exc.code",
        "assert 'nptcert.cv' not in sys.modules"]))
    assert result.returncode == 0, result.stderr


def test_cv_commands_do_not_import_numpy_ma():
    # np.unique imports numpy.ma (numpy 2.4): about 20 ms and 1.2 MB once per process
    result = run_python("-c", "\n".join([
        "import sys",
        "from nptcert import cli",
        "for argv in (['relation-check', 'two_mode_squeezed:r=0.3', '--m', '2', '--q', '3'],",
        "             ['bs-demo', '--input', 'thermal:nbar=0.2', '--theta', '0.7',",
        "              '--cutoff', '20']):",
        "    try:",
        "        cli.main(argv)",
        "    except SystemExit as exc:",
        "        assert exc.code in (cli.EXIT_OK, cli.EXIT_VIOLATED), (argv, exc.code)",
        "assert 'numpy.ma' not in sys.modules"]))
    assert result.returncode == 0, result.stderr


class TestOneCertifyPass:
    """One request, or one sweep grid point, partially transposes rho once and
    diagonalizes rho^PT once."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = {"pt_inputs": [], "eig": 0}
        pt, eig = hermitian.partial_transpose, spectral.eig_hermitian

        def counting_pt(op, bip):
            seen["pt_inputs"].append(op.matrix.copy())
            return pt(op, bip)

        def counting_eig(op):
            seen["eig"] += 1
            return eig(op)

        for module in (hermitian, spectral, certificates, cli):
            if getattr(module, "partial_transpose", None) is pt:
                monkeypatch.setattr(module, "partial_transpose", counting_pt)
        monkeypatch.setattr(spectral, "eig_hermitian", counting_eig)
        return seen

    @staticmethod
    def _pts_of(calls, rho):
        return sum(np.array_equal(m, rho.matrix) for m in calls["pt_inputs"])

    def test_check(self, runner, bell_file, calls):
        result = runner.invoke(main, ["check", bell_file, "--bipartition", "0|1"])
        assert result.exit_code == 2
        assert calls["eig"] == 1
        assert self._pts_of(calls, make_bell()) == 1

    def test_sweep_grid_point(self, runner, calls):
        result = runner.invoke(main, ["sweep-ghz", "--p-from", "0.3", "--p-to", "0.6",
                                      "--steps", "2"])
        assert result.exit_code == 0
        assert calls["eig"] == 2
        # every partial transpose, the witness value's included, is of rho
        assert len(calls["pt_inputs"]) == 2
        for p in (0.3, 0.6):
            assert self._pts_of(calls, make_ghz_mixed(p)) == 1


class TestSweep:
    def test_lambda_column_formula(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, ["sweep-ghz", "--p-from", "0", "--p-to", "1",
                                      "--steps", "11", "--out", str(out)])
        assert result.exit_code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "p,lambda_minus,sr_margin,eq8_margin,witness_value"
        for line in rows[1:]:
            p, lam, srm, eq8, wv = (float(x) for x in line.split(","))
            assert lam == pytest.approx((1 - 5 * p) / 8, abs=1e-12)
            assert wv == pytest.approx(lam, abs=1e-10)
            assert eq8 == pytest.approx(16 * (1 - 5 * p) * (1 + 3 * p), abs=1e-9)

    def test_no_violation_below_threshold(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        runner.invoke(main, ["sweep-ghz", "--p-from", "0", "--p-to", "0.2",
                             "--steps", "5", "--out", str(out)])
        for line in out.read_text().strip().splitlines()[1:]:
            assert float(line.split(",")[2]) >= -1e-12

    def test_sign_change_bracketed(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        runner.invoke(main, ["sweep-ghz", "--steps", "21", "--out", str(out)])
        rows = [[float(x) for x in line.split(",")]
                for line in out.read_text().strip().splitlines()[1:]]
        ps = [r[0] for r in rows]
        lams = [r[1] for r in rows]
        flips = [(ps[i], ps[i + 1]) for i in range(len(lams) - 1)
                 if lams[i] > 0 >= lams[i + 1]]
        assert len(flips) == 1
        lo, hi = flips[0]
        spacing = ps[1] - ps[0]
        assert lo <= 0.2 + 1e-12 and hi <= 0.2 + spacing + 1e-12

    def test_single_step_rejected(self, runner):
        result = runner.invoke(main, ["sweep-ghz", "--steps", "1"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("steps", [cli.MAX_STEPS + 1, 10 ** 12])
    def test_steps_capped_before_the_grid(self, runner, monkeypatch, steps):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(cli.np, "linspace", no_grid)
        result = runner.invoke(main, ["sweep-ghz", "--steps", str(steps)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines() == [
            f"error: steps = {steps} outside 2..{cli.MAX_STEPS}"]

    def test_bad_range_rejected(self, runner):
        result = runner.invoke(main, ["sweep-ghz", "--p-from", "0.5", "--p-to", "0.4"])
        assert result.exit_code == 1
        # a negative number after an option is its value, checked by the sweep
        result = runner.invoke(main, ["sweep-ghz", "--p-from", "-1e-9"])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            "error: need 0 <= p_from < p_to <= 1, got -1e-09, 1.0"]


class TestWitnessCommand:
    def test_bell(self, runner, bell_file, tmp_path):
        out = tmp_path / "wit.json"
        result = runner.invoke(main, ["witness", bell_file, "--bipartition", "0|1",
                                      "--out", str(out)])
        assert result.exit_code == 2
        report = json.loads(out.read_text())
        assert report["witness"]["trace_value"] == pytest.approx(-0.5, abs=1e-10)
        assert report["schema"] == 2
        assert len(report["witness"]["vector"]) == 4
        assert report["witness"]["source_eigenvalue"] == pytest.approx(-0.5, abs=1e-12)

    def test_separable_has_no_witness(self, runner):
        result = runner.invoke(main, [
            "witness", '{"family":"random_separable","dims":[2,2],"seed":5}',
            "--bipartition", "0|1"])
        assert result.exit_code == 0


def _complex(pairs) -> np.ndarray:
    """[[re, im], ...] (or one [re, im]) back to complex128, bit for bit."""
    return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128).reshape(-1)


def _bits(op) -> bytes:
    return np.asarray(hermitian.matrix_payload(op)["matrix"]).tobytes()


class TestFactoredReports:
    """Schema-2 reports write v1, v2, the alphas and the witness vector; the
    dense matrices rebuilt from a parsed report file equal, bit for bit, the
    blocks of the certify pass behind it."""

    CASES = [
        ("bell", "0|1"),
        ("ghz_mixed:p=0.5", "0,1|2"),
        ("ghz_mixed:p=0.5", "0,2|1"),
        ("ghz_mixed:p=0.5", "1,2|0"),
        ("werner:p=0.8", "0|1"),
        ('{"family": "random_density", "dim": 8, "dims": [2, 4], "seed": 3}', "0|1"),
        ('{"family": "random_density", "dim": 8, "dims": [2, 4], "seed": 5}', "0|1"),
        ('{"family": "random_density", "dim": 16, "dims": [4, 4], "seed": 4}', "0|1"),
    ]

    @pytest.mark.parametrize("source, cut", CASES,
                             ids=["bell", "ghz-01|2", "ghz-02|1", "ghz-12|0", "werner",
                                  "random-2x4-npt", "random-2x4-ppt", "random-4x4"])
    def test_dense_blocks_rebuild_bit_for_bit(self, runner, tmp_path, source, cut):
        reports = {}
        for command in ("check", "witness"):
            out = tmp_path / f"{command}.json"
            result = runner.invoke(main, [command, source, "--bipartition", cut,
                                          "--out", str(out)])
            assert result.exit_code in (0, 2), result.output
            reports[command] = json.loads(out.read_text())
        check, wit = reports["check"], reports["witness"]
        assert check["schema"] == wit["schema"] == 2

        rho, bip = cli._load_finite_state(source, cut)
        cert = certificates.certify(rho, bip)

        obs = check["observables"]
        pair = certificates.build_pseudospin(_complex(obs["v1"]), _complex(obs["v2"]),
                                             complex(*obs["alpha1"]), complex(*obs["alpha2"]),
                                             obs["dims"])
        assert _bits(pair.h1) == _bits(cert.pair.h1)
        assert _bits(pair.h2) == _bits(cert.pair.h2)

        if not cert.verdict.is_npt:
            assert check["witness"] is None and wit["witness"] is None
            return
        dense = certificates.witness_from_eigvec(
            cert.spectrum.vector(-1), float(cert.spectrum.eigenvalues[-1]), bip, rho.dims)
        for entry, lambda2 in ((check["witness"], check["chosen_pair"]["lambda2"]),
                               (wit["witness"], wit["witness"]["source_eigenvalue"])):
            cut_back = hermitian.Bipartition.parse(entry["bipartition"], len(entry["dims"]))
            rebuilt = certificates.witness_from_eigvec(_complex(entry["vector"]), lambda2,
                                                       cut_back, entry["dims"])
            assert _bits(rebuilt) == _bits(dense)
            assert entry["trace_value"] == hermitian.expectation(dense, rho)

    def test_dim64_report_under_40kb(self, runner, tmp_path):
        source = tmp_path / "rho.json"
        save_operator(states.random_density(64, 5, dims=(8, 8)), source)
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["check", str(source), "--bipartition", "0|1",
                                      "--out", str(out)])
        assert result.exit_code in (0, 2), result.output
        assert out.stat().st_size < 40_000


def _field_names(record) -> set:
    return {f.name for f in dataclasses.fields(record)}


class TestReportsFromRecords:
    """A report block holds its record's fields, and only derived keys besides."""

    CV_KEYS = _field_names(cv.CvInequalityReport) - {"tail_weight"} | {"verdict", "truncation"}

    def _check_cv_block(self, block, ineq, rep):
        assert set(block) == self.CV_KEYS
        assert block["inequality"] == ineq
        assert block["verdict"] == ("violated" if block["violated"] else "satisfied")
        # the guard's tail weight; no report is written past the guard
        assert block["truncation"] == {"tail_weight": rep.tail_weight, "reliable": True}
        assert block["truncation"]["reliable"] is True
        assert block["margin"] == rep.margin

    @pytest.mark.parametrize("ineq", ["10", "11"])
    def test_cv_check(self, runner, ineq):
        result = runner.invoke(main, ["cv-check", "two_mode_squeezed:r=0.3", "--ineq", ineq,
                                      "--cutoff", "12"])
        assert result.exit_code in (0, 2), result.output
        report = json.loads(result.stdout)
        assert report.pop("config")["ineq"] == ineq
        rho = cv.two_mode_squeezed(0.3, 12)
        self._check_cv_block(report, ineq, (cv.ineq10 if ineq == "10" else cv.ineq11)(rho, 1, 1))

    def test_bs_demo(self, runner):
        result = runner.invoke(main, ["bs-demo", "--input", "fock:n=1", "--cutoff", "12"])
        assert result.exit_code == 2, result.output
        report = json.loads(result.stdout)
        assert set(report) == {"unitarity_defect", "ineq10", "ineq11", "config"}
        state = cv.beam_splitter(cv.with_vacuum_ancilla(cv.fock(1, 12)), np.pi / 4).state
        self._check_cv_block(report["ineq10"], "10", cv.ineq10(state, 1, 1))
        self._check_cv_block(report["ineq11"], "11", cv.ineq11(state, 1, 1))

    def test_check_hur_weak(self, runner, bell_file):
        result = runner.invoke(main, ["check", bell_file, "--bipartition", "0|1"])
        assert result.exit_code == 2
        weak = json.loads(result.stdout)["hur_weak"]
        assert set(weak) == _field_names(certificates.HurWeakReport)
        assert weak["violated"] is True


class TestCvCommands:
    def test_bs_demo_squeezed_violates_ineq10(self, runner, tmp_path):
        out = tmp_path / "bs.json"
        result = runner.invoke(main, ["bs-demo", "--input", "squeezed_vacuum:r=0.5",
                                      "--theta", "0.7853981633974483",
                                      "--out", str(out)])
        assert result.exit_code == 2
        report = json.loads(out.read_text())
        assert report["ineq10"]["verdict"] == "violated"
        assert report["unitarity_defect"] < 1e-10

    def test_bs_demo_coherent_satisfies_both(self, runner, tmp_path):
        out = tmp_path / "bs.json"
        result = runner.invoke(main, ["bs-demo", "--input", "coherent:alpha=1.0",
                                      "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["ineq10"]["margin"] >= -1e-8
        assert report["ineq11"]["margin"] >= -1e-8

    def test_bs_demo_fock_violates_ineq11(self, runner, tmp_path):
        out = tmp_path / "bs.json"
        result = runner.invoke(main, ["bs-demo", "--input", "fock:n=1",
                                      "--out", str(out)])
        assert result.exit_code == 2
        report = json.loads(out.read_text())
        assert report["ineq11"]["verdict"] == "violated"

    def test_cv_check_single_photon(self, runner, tmp_path):
        out = tmp_path / "cv.json"
        result = runner.invoke(main, ["cv-check", "single_photon_entangled",
                                      "--ineq", "11", "--m", "1", "--n", "1",
                                      "--cutoff", "12", "--out", str(out)])
        assert result.exit_code == 2
        report = json.loads(out.read_text())
        assert report["margin"] == pytest.approx(-2.0, abs=1e-10)

    def test_cv_check_order_cap(self, runner):
        result = runner.invoke(main, ["cv-check", "two_mode_squeezed:r=0.3",
                                      "--m", "5"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("theta", [
        ["--theta=nan"], ["--theta=inf"], ["--theta=-inf"], ["--theta=1e308"], ["--theta=1e15"],
        ["--theta", "-inf"], ["--theta", "-1e7"],
    ], ids=["nan", "inf", "-inf", "1e308", "1e15", "separate--inf", "separate--1e7"])
    def test_bs_demo_theta_out_of_range(self, theta):
        # a fresh interpreter, so a numpy warning would reach stderr too; 1e15
        # gave a non-unitary map (defect 0.85) and verdicts with exit 0
        proc = run_module(["bs-demo", "--input", "fock:n=1", "--cutoff", "5", *theta])
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: theta = ")

    def test_truncation_exit_code(self, runner):
        result = runner.invoke(main, ["bs-demo", "--input", "coherent:alpha=4.0",
                                      "--cutoff", "12"])
        assert result.exit_code == 3
        assert result.stderr.splitlines() == [
            "error: tail weight 7.758e-01 at order 2 exceeds 1e-08"]

    @pytest.mark.parametrize("argv", [
        ["cv-check", "two_mode_squeezed:r=2.0", "--cutoff", "10"],
        ["cv-check", "two_mode_squeezed:r=0.4", "--cutoff", "10", "--m", "2"],
        ["bs-demo", "--input", "thermal:nbar=5", "--cutoff", "10"],
        ["relation-check", "two_mode_squeezed:r=2.0", "--cutoff", "10"],
    ], ids=["cv-check", "cv-check-order-4", "bs-demo-dense", "relation-check"])
    def test_operation_guard_exits_3(self, runner, argv):
        # the factories build the state; the operation refuses it, once
        result = runner.invoke(main, argv)
        assert result.exit_code == 3
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: tail weight ")

    @pytest.mark.parametrize("argv, message", [
        (["cv-check", "thermal:nbar=2", "--cutoff", "10"],
         "inequality 10 needs a two-mode state"),
        (["relation-check", "coherent:alpha=2.0", "--cutoff", "10"],
         "moment relation needs a two-mode state"),
        (["bs-demo", "--input", "two_mode_squeezed:r=0.8", "--cutoff", "10"],
         "state already has two modes"),
    ], ids=["cv-check", "relation-check", "bs-demo"])
    def test_mode_count_checked_before_the_tail(self, runner, argv, message):
        # no cutoff serves an input with the wrong number of modes, so that
        # error (exit 1) comes first, whatever the state's tail weight
        result = runner.invoke(main, argv)
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [f"error: {message}"]

    def test_relation_check_order_zero_runs(self, runner):
        # an order-0 moment reads no level above the state's support
        result = runner.invoke(main, ["relation-check", "two_mode_squeezed:r=0.4",
                                      "--cutoff", "10", "--m", "0", "--n", "0",
                                      "--p", "0", "--q", "0"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["defect"] < 1e-12

    def test_relation_check(self, runner, tmp_path):
        out = tmp_path / "rel.json"
        result = runner.invoke(main, ["relation-check", "two_mode_squeezed:r=0.3",
                                      "--m", "1", "--n", "1", "--p", "1", "--q", "1",
                                      "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["defect"] < 1e-8

    @pytest.mark.parametrize("lhs, defect, code", [
        (1.0, 2.0, 2), (100.0, 0.9e-6, 0), (100.0, 1.1e-6, 2), (0.0, 0.9e-8, 0),
    ], ids=["large", "below-relative", "above-relative", "below-absolute"])
    def test_relation_check_bound(self, runner, monkeypatch, lhs, defect, code):
        def fake(rho, m, n, p, q):
            return cv.MomentRelationCheck(complex(lhs), complex(lhs + defect), defect)

        monkeypatch.setattr(cv, "pt_moment_relation_check", fake)
        result = runner.invoke(main, ["relation-check", "vacuum", "--cutoff", "4"])
        assert result.exit_code == code
        assert json.loads(result.stdout)["defect"] == defect

    @pytest.mark.parametrize("argv, expected", [
        (["bs-demo", "--input", "squeezed_vacuum:r=0.1", "--cutoff", "12"], []),
        (["cv-check", "two_mode_squeezed:r=0.3", "--cutoff", "12"], []),
        (["cv-check", "single_photon_entangled", "--ineq", "11", "--cutoff", "12"], []),
        (["check", "ghz_mixed:p=0.5", "--bipartition", "0,1|2"], []),
        (["check", "{bell_file}", "--bipartition", "0|1"], [("operator_from_payload", (4, 4))]),
    ], ids=["bs-demo", "cv-check-tms", "cv-check-spe", "check-spec", "check-file"])
    def test_library_states_not_revalidated(self, runner, monkeypatch, bell_file, argv,
                                            expected):
        # (caller, shape) of every validation: only outside input is
        # validated, never a matrix the library built
        calls = []
        original = hermitian.validate_hermitian

        def counting(matrix, *args, **kwargs):
            calls.append((sys._getframe(1).f_code.co_name, np.shape(matrix)))
            return original(matrix, *args, **kwargs)

        for module in (hermitian, states, cv, certificates):
            if getattr(module, "validate_hermitian", None) is original:
                monkeypatch.setattr(module, "validate_hermitian", counting)
        result = runner.invoke(main, [a.format(bell_file=bell_file) for a in argv])
        assert result.exit_code in (0, 2)
        assert calls == expected

    def test_complex_spec_value_compact_and_json(self, runner):
        # a complex value stays a string in the spec and coherent() casts it
        reports = []
        for source in ("coherent:alpha=0.3+0.2j", '{"family": "coherent", "alpha": "0.3+0.2j"}'):
            result = runner.invoke(main, ["bs-demo", "--input", source, "--cutoff", "12"])
            assert result.exit_code in (0, 2), result.output
            report = json.loads(result.stdout)
            assert report["config"].pop("input") == source
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["config"]["spec"]["alpha"] == "0.3+0.2j"

    @pytest.mark.parametrize("argv", [
        ["cv-check", "two_mode_squeezed:r=0.3,cutoff=12", "--cutoff", "20"],
        ["bs-demo", "--input", "fock:n=1,cutoff=12", "--cutoff", "20"],
        ["relation-check", '{"family": "two_mode_squeezed", "r": 0.3, "cutoff": 12}',
         "--cutoff", "20"],
    ], ids=["cv-check", "bs-demo", "relation-check"])
    def test_conflicting_cutoffs(self, runner, argv):
        # the report echoed --cutoff 20 for a state built at the spec's 12
        result = runner.invoke(main, argv)
        assert result.exit_code == 1
        assert result.stderr.splitlines() == ["error: spec cutoff 12 differs from --cutoff 20"]

    @pytest.mark.parametrize("argv, cutoff", [
        (["cv-check", "two_mode_squeezed:r=0.3,cutoff=12"], 12),
        (["cv-check", "two_mode_squeezed:r=0.3,cutoff=12", "--cutoff", "12"], 12),
        (["cv-check", "two_mode_squeezed:r=0.3", "--cutoff", "12"], 12),
        (["cv-check", "two_mode_squeezed:r=0.3"], cv.DEFAULT_CUTOFF),
        (["bs-demo", "--input", "fock:n=1,cutoff=12.0", "--cutoff", "12"], 12),
        (["relation-check", "two_mode_squeezed:r=0.3,cutoff=12", "--cutoff", "12"], 12),
    ], ids=["spec", "both", "option", "default", "bs-demo-float-spec", "relation-check"])
    def test_report_echoes_the_built_cutoff(self, runner, argv, cutoff):
        result = runner.invoke(main, argv)
        assert result.exit_code in (0, 2), result.output
        assert json.loads(result.stdout)["config"]["cutoff"] == cutoff

    def test_report_echoes_config(self, runner, tmp_path):
        out = tmp_path / "cv.json"
        runner.invoke(main, ["cv-check", "two_mode_squeezed:r=0.3",
                             "--cutoff", "14", "--out", str(out)])
        cfg = json.loads(out.read_text())["config"]
        assert cfg["command"] == "cv-check"
        assert cfg["cutoff"] == 14
        assert cfg["spec"]["family"] == "two_mode_squeezed"


class TestReportConfig:
    """A JSON report's `config` is the command, the input and every parsed
    option but --out; a CV report adds the spec as read and the cutoff the
    state was built at."""

    TOL = certificates.VIOLATION_TOL

    @pytest.mark.parametrize("argv, expected", [
        (["check", "bell", "--bipartition", "0|1"],
         {"bipartition": "0|1", "tol": TOL}),
        (["witness", "werner:p=0.2", "--bipartition", "0|1", "--tol", "1e-6"],
         {"bipartition": "0|1", "tol": 1e-6}),
        (["cv-check", "two_mode_squeezed:r=0.3", "--ineq", "11", "--m", "2", "--cutoff", "12"],
         {"ineq": "11", "m": 2, "n": 1, "cutoff": 12, "tol": TOL,
          "spec": {"family": "two_mode_squeezed", "r": 0.3, "cutoff": 12}}),
        (["bs-demo", "--input", "fock:n=1,cutoff=12", "--theta", "0.5", "--n", "2"],
         {"theta": 0.5, "m": 1, "n": 2, "cutoff": 12, "tol": TOL,
          "spec": {"family": "fock", "n": 1, "cutoff": 12}}),
        (["relation-check", "two_mode_squeezed:r=0.3", "--p", "2", "--q", "1"],
         {"m": 1, "n": 1, "p": 2, "q": 1, "cutoff": cv.DEFAULT_CUTOFF,
          "spec": {"family": "two_mode_squeezed", "r": 0.3, "cutoff": cv.DEFAULT_CUTOFF}}),
    ], ids=["check", "witness", "cv-check", "bs-demo", "relation-check"])
    def test_config_is_the_request(self, runner, tmp_path, argv, expected):
        out = tmp_path / "report.json"
        result = runner.invoke(main, argv + ["--out", str(out)])
        assert result.exit_code in (0, 2), result.output
        source = argv[2] if argv[0] == "bs-demo" else argv[1]
        config = json.loads(out.read_text())["config"]
        assert config == {"command": argv[0], "input": source, **expected}
        # every option the parser knows for the command, whether given or not
        parsed = vars(cli._parser("nptcert").parse_args(argv))
        assert set(config) - {"spec"} == set(parsed) - {"run", "out", "source"} | {
            "command", "input"}
