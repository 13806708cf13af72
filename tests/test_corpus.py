"""The command line's output against the committed corpus (``tests/corpus``).

``tests/corpus/run.py`` runs every command of ``commands.txt`` in one fresh
process; its stdout, stderr and exit code must match ``expected.json`` byte
for byte.  ``python tests/corpus/run.py --rewrite`` regenerates the corpus.
"""

import csv
import json
import subprocess
import sys
from pathlib import Path

CORPUS = Path(__file__).parent / "corpus"


def _moved_cells(argv: list[str], want: list[str], got: list[str]) -> list[str]:
    """Each CSV cell of ``got`` that differs from ``want``, with its relative
    change where both read as numbers."""
    a, b = list(csv.reader(want)), list(csv.reader(got))
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return [f"{' '.join(argv)}: stdout shape {[len(r) for r in a]} -> {[len(r) for r in b]}"]
    header, moved = a[0] if a else [], []
    for i, (x, y) in enumerate(zip(a, b)):
        for j, (old, new) in enumerate(zip(x, y)):
            if old == new:
                continue
            try:
                change = f" (relative change {float(new) / float(old) - 1.0:.3g})"
            except (ValueError, ZeroDivisionError):
                change = ""
            name = header[j] if i and j < len(header) else f"column {j}"
            moved.append(f"{' '.join(argv)}: row {i} {name}: {old} -> {new}{change}")
    return moved


def corpus_diff(want: list[dict], got: list[dict]) -> list[str]:
    """What moved between two corpus runs: commands, exit codes, stderr lines
    and each moved CSV cell of stdout."""
    if [r["argv"] for r in want] != [r["argv"] for r in got]:
        return ["the command lists differ: rewrite the corpus"]
    moved = []
    for w, g in zip(want, got):
        cmd = " ".join(w["argv"])
        if w["exit"] != g["exit"]:
            moved.append(f"{cmd}: exit {w['exit']} -> {g['exit']}")
        if w["stderr"] != g["stderr"]:
            moved.append(f"{cmd}: stderr {''.join(w['stderr'])!r} -> {''.join(g['stderr'])!r}")
        if w["stdout"] != g["stdout"]:
            moved += _moved_cells(w["argv"], w["stdout"], g["stdout"])
    return moved


def test_cli_output_matches_the_corpus():
    out = subprocess.run([sys.executable, str(CORPUS / "run.py")], capture_output=True,
                         text=True, check=True).stdout
    moved = corpus_diff(json.loads((CORPUS / "expected.json").read_text()), json.loads(out))
    assert not moved, "\n".join(moved)


def test_corpus_diff_names_a_moved_cell():
    # a doctored last digit in one cell is reported with that cell's name
    want = json.loads((CORPUS / "expected.json").read_text())
    got = json.loads(json.dumps(want))
    record = next(r for r in got if r["argv"][0] == "sce")
    cells = record["stdout"][1].rstrip("\n").split(",")
    column = record["stdout"][0].rstrip("\n").split(",").index("sigma_sa")
    digit = cells[column][-1]
    cells[column] = cells[column][:-1] + ("1" if digit != "1" else "2")
    record["stdout"][1] = ",".join(cells) + "\n"
    [line] = corpus_diff(want, got)
    assert line.startswith(" ".join(record["argv"]) + ": row 1 sigma_sa: ")
    assert "relative change" in line
    assert corpus_diff(want, want) == []
