import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path
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


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """``python ARGS`` run in a fresh interpreter, this checkout's ``src`` first
    on ``PYTHONPATH`` and, as for ``run_cli``, ``SBMOTIVES_FORMAT`` unset;
    ``kwargs`` go to ``subprocess.run``."""
    env = {name: value for name, value in os.environ.items() if name != "SBMOTIVES_FORMAT"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, **kwargs)
