"""Tests of the benchmark harness: the CSV check and a smoke run at reduced inputs.

Run from the root of a checkout with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import (  # noqa: E402
    CONTROLLED_HEADER,
    COST_HEADER,
    TELEPORT_HEADER,
    WORKLOADS,
    Workload,
    check_output,
)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LONG = WORKLOADS["teleport-long"]
ROW = "teleport,1,-,1,0.9999999999996,4.57309210018,3.24645048028,0.346357736144,true"


def _csv(*rows: str) -> str:
    return ",".join(TELEPORT_HEADER) + "\n" + "".join(row + "\n" for row in rows)


DOCTORED = {
    "wrong row count": (_csv(ROW, ROW), "2 rows"),
    "qsl_ok false": (_csv(ROW.replace("true", "false")), "qsl_ok"),
    "nan": (_csv(ROW.replace("3.24645048028", "nan")), "not finite"),
    "low fidelity": (_csv(ROW.replace("0.9999999999996", "0.99")), "fidelity"),
    "wrong header": (_csv(ROW).replace("qsl_ok", "ok"), "header"),
}


def _fake_main(text: str, delay: float = 0.0, rc: int = 0):
    def main(argv):
        time.sleep(delay)
        sys.stdout.write(text)
        return rc

    return main


def test_valid_csv_passes_with_errors_floored():
    check = check_output(LONG, 0, _csv(ROW))
    assert check.ok, check.reason
    assert check.infidelity == 1e-12 and check.rel_err == 1e-12  # 1 - F = 4e-13


@pytest.mark.parametrize("case", sorted(DOCTORED))
def test_doctored_csv_fails(case):
    text, reason = DOCTORED[case]
    check = check_output(LONG, 0, text)
    assert not check.ok and reason in check.reason


def test_nonzero_exit_fails():
    assert not check_output(LONG, 2, _csv(ROW)).ok


def _crash(argv):
    raise RuntimeError("boom")


def test_doctored_runs_count_as_failed_and_are_not_timed():
    good = _fake_main(_csv(ROW), delay=0.01)
    bad = [_fake_main(text, delay=0.2) for text, _ in DOCTORED.values()] + [_crash]
    own = [run.run_cli(LONG, 0, main) for main in [good] * 3 + bad]
    base = [run.run_cli(LONG, 0, good) for _ in own]
    assert [check.ok for check, _ in own] == [True] * 3 + [False] * len(bad)
    assert all(check.ok for check, _ in base)
    metrics = run.end_to_end(LONG, own, base, [(0.1, 0.1), (0.2, 0.1), (0.3, 0.1)], 50.0)
    # the doctored runs are 20x slower; had they been timed the median would show it
    assert metrics["wall_s"] < 2 * LONG.baseline_s
    assert metrics["setup_s"] == pytest.approx(2 * run.BASELINE_SETUP_S)
    result = json.loads(run.result_line(own + base, metrics, run.END_TO_END_UNITS))
    assert result["attempted"] == len(own) + len(base)
    assert result["failed"] == len(bad)
    assert result["correct"] is False


def test_wall_ratios_use_the_adjacent_baseline_runs():
    ok = run.check_output(LONG, 0, _csv(ROW))
    own = [(ok, 2.0), (ok, 3.0), (ok, 4.0)]
    base = [(ok, 1.0), (ok, 2.0), (ok, 4.0)]
    assert run.wall_ratios(own, base) == [2.0, 2.0, 4.0 / 3.0]


def test_sce_and_cost_checks_read_their_columns():
    sce_row = "sce,1,x,3.14159265359,3.14159265359,0.5,0.999999999,1,1,1,0.5,true"
    check = check_output(
        Workload("s", (), CONTROLLED_HEADER, 1), 0,
        ",".join(CONTROLLED_HEADER) + "\n" + sce_row + "\n")
    assert check.ok and check.infidelity == pytest.approx(1e-9)
    cost = Workload("c", (), COST_HEADER, 1)
    text = ",".join(COST_HEADER) + "\n0.5,linear/n=1,1,1,1,3e-9\n"
    assert check_output(cost, 0, text).rel_err == pytest.approx(3e-9)
    assert not check_output(cost, 0, text.replace("3e-9", "2e-6")).ok


def test_setup_pairs_import_both_packages():
    pairs = run.measure_setup(samples=1)
    assert len(pairs) == 1 and all(t > 0 for t in pairs[0])


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


# Reduced inputs on the same code paths as the four workloads.
SMALL = [
    Workload("teleport-long", ("teleport", "--n", "1", "--tau", "0.5", "--steps", "400",
                               "--qsl-steps", "400", "--grid", "201"), TELEPORT_HEADER, 1, baseline_s=1.0),
    Workload("teleport-wide", ("teleport", "--n", "2", "--gate", "CNOT", "--tau", "0.5",
                               "--steps", "400", "--qsl-steps", "100", "--grid", "201"),
             TELEPORT_HEADER, 1),
    Workload("sce-batch", ("sce", "--n-controls", "1", "--tau", "0.5", "--steps", "400",
                           "--qsl-steps", "400", "--states", "2"), CONTROLLED_HEADER, 2, baseline_s=1.0),
    Workload("cost-sweep", ("cost-sweep", "--protocol", "teleport", "--schedules", "linear",
                            "--n-list", "1", "--tau-list", "0.5", "--grid", "201"),
             COST_HEADER, 1, baseline_s=1.0),
]


def _check_span_tree(spans: list[dict]) -> None:
    by_id = {span["id"]: span for span in spans}
    child_time = dict.fromkeys(by_id, 0.0)
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] >= 0:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["run"] == span["run"]
            child_time[span["parent"]] += span["end"] - span["start"]
    for span in spans:
        assert span["end"] - span["start"] - child_time[span["id"]] >= -1e-9


@pytest.mark.parametrize("workload", SMALL, ids=[w.name for w in SMALL])
def test_smoke_reduced_inputs(workload, tmp_path):
    cli = run.import_cli()
    dynamics = sys.modules["sal.dynamics"]
    original_evolve = dynamics.evolve
    own, base, peak = run.measure_wall(
        workload, 0.0, lambda: run.run_cli(workload, 1, lambda argv: cli.main(argv)),
        lambda: partial(run.run_cli, workload, 1, run.import_baseline().main))
    metrics = run.end_to_end(workload, own, base, [(0.1, 0.1)], peak)
    runs = own + base
    assert len(own) == 1 and len(base) == (1 if workload.baseline_s else 0)
    assert all(check.ok for check, _ in runs), [check.reason for check, _ in runs]
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in metrics.values())

    spans_path = tmp_path / "spans.jsonl.gz"
    runs, layer, tracer = run.traced_run(workload, 1, cli, spans_path)
    assert all(check.ok for check, _ in runs)
    assert set(layer) == set(run.PER_LAYER_UNITS) and not tracer.missing
    assert layer["error_rate"] == 0 and layer["cli.self_s"] > 0
    evolving = workload.name != "cost-sweep"
    assert (layer["dynamics.evolve_calls"] > 0) == evolving
    assert (layer["dynamics.steps"] > 0) == evolving
    assert (layer["metrics.cost_points"] > 0) == (workload.name != "sce-batch")
    assert layer["dynamics.norm_drift"] < 1e-9
    # the wrappers are gone once the traced run ends
    assert dynamics.evolve is original_evolve and cli.evolve is original_evolve
    with gzip.open(spans_path, "rt") as fh:
        spans = [json.loads(line) for line in fh]
    assert len(spans) == len(tracer.spans) > 0
    _check_span_tree(spans)
