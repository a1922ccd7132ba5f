"""Run several compdepth command lines in one process.

The package is imported once; each command still gets its own alarm and
its own captured exit code, stdout and stderr. Reads a JSON list of
argument lists on stdin and writes a JSON list of {"code", "out", "err",
"escaped"} objects on stdout, where "escaped" holds the traceback of an
exception that left compdepth.cli.main (a timeout included), or null.

    python tests/cli_batch.py TIMEOUT_S < command_lines.json
"""

import contextlib
import io
import json
import signal
import sys
import traceback
import warnings

from compdepth.cli import main


class CommandTimeout(BaseException):
    """A command outlived its alarm. Not an OSError or ValueError, so main
    does not turn it into an error line."""


def _on_alarm(signum, frame):
    raise CommandTimeout("the command outlived its alarm")


def run(args: list[str], timeout_s: int) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = escaped = None
    signal.alarm(timeout_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    except (Exception, CommandTimeout):
        escaped = traceback.format_exc()
    finally:
        signal.alarm(0)
    return {"code": code, "out": out.getvalue(), "err": err.getvalue(), "escaped": escaped}


if __name__ == "__main__":
    timeout_s = int(sys.argv[1])
    signal.signal(signal.SIGALRM, _on_alarm)
    # as in a process of its own, every command shows each warning it raises
    warnings.simplefilter("always")
    json.dump([run(args, timeout_s) for args in json.load(sys.stdin)], sys.stdout)
