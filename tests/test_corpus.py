"""The command line's output against the committed corpus (``tests/corpus``).

``tests/corpus/run.py`` runs every command of ``commands.txt`` in one fresh
process; its stdout, stderr and exit code must match ``expected.json`` byte
for byte.  ``python tests/corpus/run.py --rewrite`` regenerates the corpus.
The same run names the defs of ``src/sal`` that no command reaches: each
must be on ``UNREACHED``, with the reason it stays.
"""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

CORPUS = Path(__file__).parent / "corpus"

PAPER = "a quantity of the paper that the tests check"
PINNED = "perfbench/layers.py wraps it, and perfbench's smoke test needs every wrapped name"
# The defs of src/sal that no corpus command calls, by module.qualname, and
# why each stays.  Any other such def is code that only the tests use.
UNREACHED = {
    "hamiltonians.teleport_energies": PAPER,
    "hamiltonians.teleport_gap": PAPER,
    "hamiltonians.parity_operators": PAPER,
    "hamiltonians.h_xi": PAPER,
    "hamiltonians.adiabatic_time_estimate": PAPER,
    "metrics.mean_repetitions": PAPER,
    "metrics.probabilistic_cost": PAPER,
    "metrics.angle_feasible": PAPER,
    "metrics.qsl_ground_chi": PAPER,
    "dynamics._ground_weights": "ground-fidelity sampling, a layer of the north star; "
                                "evolve(n_samples > 0) runs it",
    "hamiltonians.assemble": "the dense reference: what a tree means as one matrix",
    "counterdiabatic.cd_rotate": PINNED,
    "counterdiabatic.cd_tensor_sum": PINNED,
    "metrics.qsl_check": PINNED,
    "linalg.embed": PINNED,
}


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


@pytest.fixture(scope="module")
def corpus_run() -> dict:
    """One run of ``tests/corpus/run.py``: its records and unreached defs."""
    out = subprocess.run([sys.executable, str(CORPUS / "run.py")], capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def test_cli_output_matches_the_corpus(corpus_run):
    moved = corpus_diff(json.loads((CORPUS / "expected.json").read_text()), corpus_run["records"])
    assert not moved, "\n".join(moved)


def test_every_sal_def_is_reached_by_a_command_or_allowlisted(corpus_run):
    unreached = set(corpus_run["unreached"])
    unlisted = sorted(unreached - UNREACHED.keys())
    assert not unlisted, f"no corpus command reaches, and UNREACHED does not name: {unlisted}"
    stale = sorted(UNREACHED.keys() - unreached)
    assert not stale, f"UNREACHED names, but a corpus command reaches or src/sal lacks: {stale}"


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
