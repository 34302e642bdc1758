"""Run a CLI entry point in-process and capture what it writes and how it exits."""

import contextlib
import io
from dataclasses import dataclass


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None  # the SystemExit of a non-zero exit, or what was raised

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


class CliRunner:
    def invoke(self, main, args) -> Result:
        """Call main(args); a SystemExit gives the exit code, any other
        exception exit code 1."""
        out, err = io.StringIO(), io.StringIO()
        exit_code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args)
            except SystemExit as exc:
                exit_code = exc.code or 0
                exception = exc if exit_code else None
            except Exception as exc:
                exit_code, exception = 1, exc
        return Result(exit_code, out.getvalue(), err.getvalue(), exception)
