"""Benchmark of the ``sal`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload teleport-long --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, each in its own process.  One run
calls ``sal.cli.main(argv)`` in this process, closed loop, one call at a
time, with BLAS/OpenMP threads and ``SAL_JOBS`` pinned to 1.  Every CSV is
validated; a run that fails validation counts as failed and is not timed.

The host shares its cores with other tenants and the same work reads up to
1.7x slower from one stretch of seconds to the next.  Short workloads are
therefore timed against ``sal_baseline/``, a frozen copy of the package:
runs of the checkout and of the copy alternate, and ``wall_s`` is the
median checkout/baseline ratio times the copy's time on the host the
benchmark was defined on.  ``teleport-wide``, whose runs are too long to
double, is timed alone (see NOTES.md).

``--trace 0`` reports the end-to-end metrics ``wall_s``, ``setup_s`` (a
fresh interpreter importing ``sal.cli``), ``peak_rss_mb`` (this process
after its first run, before the copy is imported), ``infidelity`` and
``cost_rel_err``.  ``--trace 1`` reports the per-layer metrics of one
traced run (see ``layers.py``), its overhead against an untraced run, and
the ground-sampling cost of the run's ``evolve`` calls.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run records and
spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path

from layers import UNITS as LAYER_UNITS
from layers import Tracer
from workloads import RESOLUTION, WORKLOADS, check_output

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "SAL_JOBS": "1"}
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Frozen copy of src/sal from the commit that defined this benchmark.
BASELINE = "sal_baseline"
BASELINE_SETUP_S = 0.15  # its cli's import time on the defining host
SETUP_SAMPLES = 4
SETUP_CODE = (
    "import importlib, sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); importlib.import_module(sys.argv[2]); "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "infidelity": "1",
    "cost_rel_err": "1",
}
PER_LAYER_UNITS = {
    **LAYER_UNITS,
    "dynamics.sampling_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "error_rate": "1",
}


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- environment ------------------------------------------------------------------


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def describe_environment(seed: int, loadavg) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "loadavg_at_start": list(loadavg),
        "pinned": {key: os.environ.get(key) for key in PINNED},
    }
    if env["blas_threads"] not in (1, None) or env["pinned"] != PINNED:
        raise HarnessError(f"thread pin did not take effect: {env}")
    return env


def import_cli():
    sys.path.insert(0, str(SRC))
    import sal.cli

    if not Path(sal.cli.__file__).resolve().is_relative_to(SRC):
        raise HarnessError(f"imported sal from {sal.cli.__file__}, not from {SRC}")
    return sal.cli


def import_baseline():
    sys.path.insert(0, str(HERE))
    return importlib.import_module(f"{BASELINE}.cli")


# --- measurement ------------------------------------------------------------------


def run_cli(workload, seed: int, main):
    """One CLI call with its output captured: (Check, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(workload.command(seed))
        except Exception:  # a crash is a failed run, not a harness error
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - start
    check = check_output(workload, rc, out.getvalue())
    if not check.ok:
        print(f"run failed: {check.reason}\n{err.getvalue()[-2000:]}", file=sys.stderr)
    return check, wall


def measure_setup(samples: int = SETUP_SAMPLES) -> list[tuple[float, float]]:
    """(checkout, baseline) times for a fresh interpreter to import the cli,
    in alternating order; the first pair, which writes the bytecode caches,
    is dropped."""
    targets = {"sal": (SRC, "sal.cli"), "baseline": (HERE, f"{BASELINE}.cli")}
    pairs = []
    for i in range(samples + 1):
        times = {}
        for label in ("sal", "baseline") if i % 2 == 0 else ("baseline", "sal"):
            path, module = targets[label]
            done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(path), module],
                                  capture_output=True, text=True, timeout=120, check=True)
            times[label] = float(done.stdout)
        pairs.append((times["sal"], times["baseline"]))
    return pairs[1:]


def measure_wall(workload, seconds: float, run, load_baseline):
    """Runs of the checkout (C) until ``seconds`` have elapsed, at least one.
    With a baseline, each C is followed by a baseline run (B): C B C B ....
    Peak RSS is read after the first run, before the baseline is imported.
    Returns the (Check, wall) lists of both and the peak RSS in MiB."""
    deadline = time.perf_counter() + seconds
    own = [run()]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    baseline = load_baseline() if workload.baseline_s else None
    base = []
    while True:
        if baseline:
            base.append(baseline())
        if time.perf_counter() >= deadline:
            return own, base, peak_rss_mb
        own.append(run())


def wall_ratios(own, base, only_ok: bool = True) -> list[float]:
    """Each checkout run over the mean of the baseline runs next to it."""
    ratios = []
    for i, (check, wall) in enumerate(own):
        near = [w for c, w in base[max(0, i - 1):i + 1] if c.ok or not only_ok]
        if (check.ok or not only_ok) and near:
            ratios.append(wall / statistics.fmean(near))
    return ratios


def end_to_end(workload, own, base, setup_pairs, peak_rss_mb) -> dict[str, float]:
    """``wall_s`` is the median checkout/baseline ratio times the baseline's
    nominal time, or without a baseline the median checkout time; failed
    runs are left out."""
    good = [check for check, _ in own if check.ok]
    if workload.baseline_s:
        ratios = wall_ratios(own, base) or wall_ratios(own, base, only_ok=False)
        wall = statistics.median(ratios) * workload.baseline_s
    else:
        wall = statistics.median([w for c, w in own if c.ok] or [w for _, w in own])
    return {
        "wall_s": wall,
        "setup_s": statistics.median(a / b for a, b in setup_pairs) * BASELINE_SETUP_S,
        "peak_rss_mb": peak_rss_mb,
        "infidelity": max((c.infidelity for c in good), default=RESOLUTION),
        "cost_rel_err": max((c.rel_err for c in good), default=RESOLUTION),
    }


def measure_sampling(calls: list[dict], evolve) -> float:
    """Ground-sampling cost of the given evolve calls: each rerun with the
    default n_samples minus the same call with n_samples=2.  Both reruns take
    the minimum step count, so that stepping noise does not swamp the
    difference; the sampling work does not depend on the step count."""
    default = inspect.signature(evolve).parameters["n_samples"].default
    steps = getattr(sys.modules[evolve.__module__], "MIN_STEPS", 100)
    total = 0.0
    for args in calls:
        for n_samples, sign in ((default, 1.0), (2, -1.0)):
            start = time.perf_counter()
            evolve(**{**args, "n_samples": n_samples, "steps": steps})
            total += sign * (time.perf_counter() - start)
    return total


def traced_run(workload, seed: int, cli, spans_path: Path):
    """An untraced run, which is also the warm-up, then a traced run; the
    per-layer metrics of the traced one and the difference of the two."""
    main = lambda argv: cli.main(argv)  # noqa: E731 - looked up after the wrappers go in
    runs = [run_cli(workload, seed, main)]
    tracer = Tracer()
    tracer.install()
    try:
        runs.append(run_cli(workload, seed, main))
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    metrics = tracer.metrics()
    evolve_args = [args for args, _ in tracer.captures("dynamics.evolve")]
    metrics["dynamics.sampling_s"] = measure_sampling(evolve_args, sys.modules["sal.dynamics"].evolve)
    metrics["trace.wall_s"] = runs[0][1]
    metrics["trace.overhead_s"] = runs[1][1] - runs[0][1]
    metrics["error_rate"] = sum(not c.ok for c, _ in runs) / len(runs)
    return runs, metrics, tracer


# --- entry point ------------------------------------------------------------------


def print_metrics(metrics: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")


def result_line(runs, metrics: dict, units: dict) -> str:
    failed = sum(not check.ok for check, _ in runs)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def run_one(args, loadavg) -> None:
    workload = WORKLOADS[args.workload]
    env = describe_environment(args.seed, loadavg)
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    print(f"workload {workload.name}: sal {' '.join(workload.command(args.seed))}")
    for key, value in env.items():
        print(f"env.{key} = {value}")
    record = {"workload": workload.name, "argv": workload.command(args.seed), "env": env}
    if args.trace == 0:
        setup = measure_setup()
        own, base, peak = measure_wall(
            workload, args.seconds, lambda: run_cli(workload, args.seed, cli.main),
            lambda: partial(run_cli, workload, args.seed, import_baseline().main))
        runs = own + base
        metrics, units = end_to_end(workload, own, base, setup, peak), END_TO_END_UNITS
        print(f"timed runs = {len(own)}, raw median {statistics.median(w for _, w in own):.6g} s"
              + (f"; {len(base)} baseline runs, raw median "
                 f"{statistics.median(w for _, w in base):.6g} s (nominal {workload.baseline_s} s)"
                 if base else ""))
        record["baseline_runs"] = [{"ok": c.ok, "reason": c.reason, "wall_s": w} for c, w in base]
        record["setup_pairs_s"] = setup
    else:
        own, metrics, tracer = traced_run(workload, args.seed, cli, Path(f"{stem}-spans.jsonl.gz"))
        runs, units = own, PER_LAYER_UNITS
        print(f"traced spans = {len(tracer.spans)}; targets not found = {tracer.missing or 'none'}")
    record["runs"] = [{"ok": c.ok, "reason": c.reason, "wall_s": w} for c, w in own]
    record["metrics"] = metrics
    print_metrics(metrics, units)
    failed = sum(not check.ok for check, _ in runs)
    print(f"error_rate = {failed / len(runs):.6g} 1 ({failed} of {len(runs)} runs failed)")
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(result_line(runs, metrics, units))


def run_all(args) -> None:
    """Every workload in its own process; one combined result line."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            raise HarnessError(f"workload {name} exited {done.returncode}:\n{done.stderr}")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()
    os.environ.update(PINNED)  # before numpy is imported here or in a child
    try:
        if not (SRC / "sal" / "__init__.py").is_file():
            raise HarnessError(f"no sal sources under {SRC}")
        if args.workload == "all":
            run_all(args)
        else:
            run_one(args, loadavg)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
