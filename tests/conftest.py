import contextlib
import io
from typing import NamedTuple

import pytest

from sbmotives.cli import main


class CliRun(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


@pytest.fixture()
def run_cli(monkeypatch):
    """``run_cli(*args, env=None)`` runs ``sbmotives ARGS`` in this process.

    ``env`` maps variable names to values, or to ``None`` to unset them;
    ``SBMOTIVES_FORMAT`` starts unset.  Any exception other than
    ``SystemExit`` propagates, so a run that returns ended as the CLI would.
    """
    monkeypatch.delenv("SBMOTIVES_FORMAT", raising=False)

    def run(*args: str, env: dict[str, str | None] | None = None) -> CliRun:
        for name, value in (env or {}).items():
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        stdout, stderr = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                main(list(args))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
        return CliRun(code, stdout.getvalue(), stderr.getvalue())

    return run
