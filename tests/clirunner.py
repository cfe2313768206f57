"""Run the spinr CLI in process and capture what a shell would see."""

import contextlib
import io
import os
from typing import NamedTuple

from spinr.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None  # any exception other than SystemExit that escaped


def run(*args: str, env: dict[str, str | None] | None = None) -> Result:
    """main(args) with stdout and stderr captured.  Each env entry sets
    that environment variable for the call, or deletes it if None."""
    env = env or {}
    saved = {name: os.environ.get(name) for name in env}
    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    try:
        _set_env(env)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args))
            except SystemExit as exit_:
                code = exit_.code or 0
            except Exception as escaped:
                code, exception = 1, escaped
    finally:
        _set_env(saved)
    return Result(code, out.getvalue(), err.getvalue(), exception)


def _set_env(env: dict[str, str | None]):
    for name, value in env.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
