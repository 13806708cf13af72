"""Run the corpus commands in one process and print or rewrite their outputs.

    python tests/corpus/run.py            # print the records as JSON
    python tests/corpus/run.py --rewrite  # write them to tests/corpus/expected.json

Each line of ``commands.txt`` is one ``sal`` command line; this script runs
them in order through ``sal.cli.main`` and records each one's stdout, stderr
and exit code.  BLAS threads are pinned to 1 before numpy loads, so the
bytes do not depend on the host's core count.  The corpus is
check data: a change that moves its bytes rewrites it and says which cells
moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
COMMANDS = HERE / "commands.txt"
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE.parents[1] / "src"))


def commands() -> list[list[str]]:
    """The argv of every command line, comments and blank lines skipped."""
    lines = COMMANDS.read_text().splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def run() -> list[dict]:
    """One record per command: its argv, exit code, stdout and stderr lines."""
    from sal.cli import main

    records = []
    for argv in commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        records.append({"argv": argv, "exit": code,
                        "stdout": out.getvalue().splitlines(keepends=True),
                        "stderr": err.getvalue().splitlines(keepends=True)})
    return records


if __name__ == "__main__":
    text = json.dumps(run(), indent=1) + "\n"
    if sys.argv[1:] == ["--rewrite"]:
        EXPECTED.write_text(text)
    else:
        sys.stdout.write(text)
