"""Every subcommand writes its report once, through cli.main: a JSON report
is the bytes of json.dumps(obj, indent=2, sort_keys=True) plus a trailing
newline, sweep-ghz's CSV is its text, and --out receives exactly the bytes
that stdout would."""

import json

import pytest
from cli_runner import CliRunner

from nptcert import states
from nptcert.cli import main
from nptcert.hermitian import save_operator


def assert_plain_encoder_bytes(text: str) -> None:
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


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


@pytest.mark.parametrize("argv", [
    ["check", "bell", "--bipartition", "0|1"],
    ["witness", "werner:p=0.2", "--bipartition", "0|1"],
    ["sweep-ghz", "--steps", "5"],
    ["cv-check", "two_mode_squeezed:r=0.3", "--cutoff", "12"],
    ["bs-demo", "--input", "fock:n=1", "--cutoff", "12"],
    ["relation-check", "two_mode_squeezed:r=0.3", "--cutoff", "12"],
], ids=["check", "witness", "sweep-ghz", "cv-check", "bs-demo", "relation-check"])
def test_out_file_holds_the_stdout_bytes(tmp_path, argv):
    runner = CliRunner()
    printed = runner.invoke(main, argv)
    out = tmp_path / "report"
    written = runner.invoke(main, argv + ["--out", str(out)])
    assert printed.exit_code == written.exit_code and printed.exit_code in (0, 2)
    assert printed.stdout and written.stdout == "" and written.stderr == printed.stderr == ""
    assert out.read_bytes() == printed.stdout.encode()
