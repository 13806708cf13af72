"""The benchmark's workloads and the check of each CSV a run prints.

A workload is one ``sal`` command line; why each exists is stated in
BENCHMARK.json and NOTES.md.  The benchmark appends ``--jobs 1 --seed
<seed>``, so the seed picks the random input states of ``teleport`` and
``sce``; ``cost-sweep`` has no random input.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

# The CLI's own acceptance thresholds (sal.cli.FIDELITY_FLOOR, CLOSED_FORM_RTOL).
FIDELITY_FLOOR = 1.0 - 1e-6
REL_ERR_MAX = 1e-6
# The CSV prints 12 significant digits, so an error read from it is resolved
# to 1e-12 at best.  Accuracy metrics report this floor when the error is
# below it, and on workloads whose CSV has no such column.
RESOLUTION = 1e-12

TELEPORT_HEADER = (
    "protocol", "n", "gate", "tau", "fidelity", "sigma_sa", "sigma_ad", "qsl_bound", "qsl_ok",
)
CONTROLLED_HEADER = (
    "protocol", "n_controls", "axis", "phi", "theta0", "tau",
    "fidelity", "p_success", "sigma_sa", "sigma_ad", "qsl_bound", "qsl_ok",
)
COST_HEADER = ("omega_tau", "variant", "sigma_sa", "sigma_ad", "closed_form", "rel_err")
TEXT_COLUMNS = frozenset({"protocol", "gate", "axis", "variant", "qsl_ok"})


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    header: tuple[str, ...]
    rows: int
    # The frozen baseline's time for this command on the host the benchmark
    # was defined on (see run.py); None times the checkout alone, for a
    # workload whose runs are too long to double.
    baseline_s: float | None = None

    def command(self, seed: int) -> list[str]:
        return [*self.argv, "--jobs", "1", "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "teleport-long",
            ("teleport", "--n", "1", "--tau", "1", "--states", "1"),
            TELEPORT_HEADER,
            1,
            baseline_s=2.2,
        ),
        Workload(
            "teleport-wide",
            ("teleport", "--n", "3", "--gate", "Toffoli", "--tau", "0.1", "--qsl-steps", "100"),
            TELEPORT_HEADER,
            1,
        ),
        Workload(
            "sce-batch",
            ("sce", "--n-controls", "3", "--tau", "1", "--states", "3"),
            CONTROLLED_HEADER,
            3,
            baseline_s=2.0,
        ),
        Workload(
            "cost-sweep",
            ("cost-sweep", "--protocol", "teleport", "--schedules", "linear,trig,exp",
             "--n-list", "1", "--tau-list", "0.5"),
            COST_HEADER,
            3,
            baseline_s=2.0,
        ),
    )
}


@dataclass(frozen=True)
class Check:
    """Verdict on one CLI run.  The errors are floored at RESOLUTION."""

    ok: bool
    reason: str = ""
    infidelity: float = RESOLUTION
    rel_err: float = RESOLUTION


def check_output(workload: Workload, rc: int, text: str) -> Check:
    """Validate exit code, header, row count, finiteness and the invariants."""
    if rc != 0:
        return Check(False, f"exit code {rc}")
    table = list(csv.reader(io.StringIO(text)))
    if not table or tuple(table[0]) != workload.header:
        return Check(False, "wrong header")
    body = table[1:]
    if len(body) != workload.rows:
        return Check(False, f"{len(body)} rows, expected {workload.rows}")
    infidelity = rel_err = 0.0
    for row in body:
        if len(row) != len(workload.header):
            return Check(False, f"row has {len(row)} fields")
        record = dict(zip(workload.header, row))
        for column, cell in record.items():
            if column in TEXT_COLUMNS:
                continue
            try:
                value = float(cell)
            except ValueError:
                return Check(False, f"{column}={cell!r} is not a number")
            if not math.isfinite(value):
                return Check(False, f"{column}={cell} is not finite")
        if record.get("qsl_ok", "true") != "true":
            return Check(False, "qsl_ok is not true")
        if "fidelity" in record:
            fid = float(record["fidelity"])
            if fid < FIDELITY_FLOOR:
                return Check(False, f"fidelity {fid} below {FIDELITY_FLOOR}")
            infidelity = max(infidelity, 1.0 - fid)
        if "rel_err" in record:
            err = float(record["rel_err"])
            if err > REL_ERR_MAX:
                return Check(False, f"rel_err {err} above {REL_ERR_MAX}")
            rel_err = max(rel_err, err)
    return Check(True, "", max(RESOLUTION, infidelity), max(RESOLUTION, rel_err))
