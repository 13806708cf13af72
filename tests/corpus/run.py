"""Run the corpus commands in one process and print or rewrite their outputs.

    python tests/corpus/run.py            # print the records and the unreached defs as JSON
    python tests/corpus/run.py --rewrite  # write the records to tests/corpus/expected.json

Each line of ``commands.txt`` is one ``sal`` command line; this script runs
them in order through ``sal.cli.main``, with this directory as the working
directory so that the JSON files that commands name resolve here, and
records each one's stdout, stderr and exit code.  BLAS threads are pinned
to 1 before numpy loads, so the bytes do not depend on the host's core
count.  The corpus is check data: a change that moves its bytes rewrites
it and says which cells moved and why.

A profiler, installed before ``sal`` is imported, records every function
that the import and the commands call.  The printed JSON holds the records
under ``records`` and, under ``unreached``, each def of the ``sal`` package
that nothing called: module-level functions and the methods and properties
of classes, named ``module.qualname``; nested functions and lambdas are not
counted.
"""

from __future__ import annotations

import ast
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


def unreached(package: Path, called: set) -> list[str]:
    """``module.qualname`` of each def in ``package/*.py`` whose code object
    is not in ``called``.  A code object starts at its first decorator, so
    a def is keyed by (file, that line)."""
    starts = {(code.co_filename, code.co_firstlineno) for code in called}
    missed = []

    def visit(path: Path, body: list, prefix: str):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(path, node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                if (str(path), first) not in starts:
                    missed.append(f"{path.stem}.{prefix}{node.name}")

    for path in sorted(package.glob("*.py")):
        visit(path, ast.parse(path.read_text()).body, "")
    return missed


def run() -> tuple[list[dict], list[str]]:
    """One record per command (its argv, exit code, stdout and stderr
    lines), and the defs of ``sal`` that neither its import nor any command
    called."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    os.chdir(HERE)
    sys.setprofile(profile)
    try:
        from sal.cli import main

        records = []
        for argv in commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            records.append({"argv": argv, "exit": code,
                            "stdout": out.getvalue().splitlines(keepends=True),
                            "stderr": err.getvalue().splitlines(keepends=True)})
    finally:
        sys.setprofile(None)
    return records, unreached(Path(sys.modules["sal"].__file__).parent, called)


if __name__ == "__main__":
    records, missed = run()
    if sys.argv[1:] == ["--rewrite"]:
        EXPECTED.write_text(json.dumps(records, indent=1) + "\n")
    else:
        sys.stdout.write(json.dumps({"records": records, "unreached": missed}, indent=1) + "\n")
