"""Run every golden-gate command through skeincalc.cli.main in one interpreter.

Usage: python bench/gate_cmd.py

Prints one JSON object mapping each command of benchlib.gate_commands()
to its exit code and the sha256 of its stdout.  One interpreter serves
all commands because the gate checks outputs, not start-up; the timed
commands each get a fresh ``python -m skeincalc`` and are checked
against the same digests.
"""

import contextlib
import io
import json
import sys

import benchlib
import skeincalc.cli


def run(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = skeincalc.cli.main(argv)
        except SystemExit as exc:  # argparse exits on --help and usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue().encode("utf-8")


def main() -> int:
    out = {}
    for command in benchlib.gate_commands():
        code, stdout = run(command.split())
        out[command] = {"exit": code, "sha256": benchlib.digest(stdout)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
