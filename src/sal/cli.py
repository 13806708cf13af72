"""Command-line front end: run the protocols and emit CSV for plotting.

Commands: teleport, cae, sce, cost-sweep, theta-opt, qsl-check, selftest.
Exit codes: 0 success; 3 for a bad option, value or file (a ValueError, or
an OSError or MemoryError); 2 for a runtime check that the run failed (a
ToleranceError).
Each command's parser names its rows function and CSV header, and main
writes those rows to stdout or --out: the one path from a command line to
its table.  Floats are printed with 12 significant digits so reruns diff
cleanly.  Every command runs in the calling process; --jobs is accepted and
ignored.  teleport checks --grid and reads it nowhere.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from functools import cache
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .counterdiabatic import cd_controlled, cd_teleport
from .dynamics import (
    StepCache,
    check_steps,
    controlled_initial_state,
    controlled_target_state,
    evolve,
    fidelity,
    measure_ancilla,
    teleport_initial_state,
    teleport_target_state,
)
from .hamiltonians import (
    ControlledSpec,
    TeleportSpec,
    controlled_hamiltonian,
    gate,
    teleport_hamiltonian,
)
from .linalg import ToleranceError, check_finite, check_tau, random_state
from .metrics import (
    DEFAULT_GRID,
    cae_controlled_cost,
    cae_single_gate_cost,
    check_grid,
    energy_cost,
    qsl_report,
    sce_controlled_cost,
    sce_single_gate_cost,
    stationarity_residual,
    teleport_cost,
    teleport_cost_scale,
    teleport_sigma_sing,
    theta_opt,
    theta_opt_adiabatic,
)
from .schedules import make_schedule

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_CONFIG = 3

FIDELITY_FLOOR = 1.0 - 1e-6
CLOSED_FORM_RTOL = 1e-6


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        raise ValueError(message)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    return str(x)


def _write_csv(path: Optional[str], header: Sequence[str], rows: Sequence[Sequence]):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    text = buf.getvalue()
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _floats(text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad float list {text!r}") from exc
    if not vals:
        raise ValueError("empty value list")
    return vals


def _ints(text: str) -> list[int]:
    vals = _floats(text)
    if not all(v.is_integer() for v in vals):
        raise ValueError(f"bad integer list {text!r}")
    return [int(v) for v in vals]


def _check_run(args):
    """The options every per-state run takes, checked before anything is built
    by the library's own checks, named as the command line spells them."""
    check_tau(args.tau, "tau")
    for flag, value, least in (("--states", args.states, 1), ("--seed", args.seed, 0)):
        if value < least:  # numpy's own error for a negative seed names no flag
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    for flag, steps in (("--steps", args.steps), ("--qsl-steps", args.qsl_steps)):
        if steps is not None:
            check_steps(steps, flag)


def _finite_rows(tau: float, make_rows) -> list[list]:
    """``make_rows()`` with numpy's float overflow and invalid operations
    raised, its float cells checked finite: ValueError naming --tau for a tau
    so small that a sum of terms ~ 1/tau (a cost, E_tau) leaves the float
    range, so that no such row is printed."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            rows = make_rows()
            if all(np.isfinite(x) for row in rows for x in row if isinstance(x, float)):
                return rows
        except FloatingPointError:
            pass
    raise ValueError(f"--tau {tau} is too small: a cost or E_tau ~ 1/tau of its rows "
                     "overflows the float range")


def _runs(args, driver, n_qubits: int, prepare, shortcut: bool):
    """Evolve ``args.states`` random inputs under ``driver``, one at a time:
    the one place where a command runs an evolution (``_teleport_run`` and
    ``_controlled_run`` build the other arguments).

    ``prepare(psi)`` gives a drawn input's (initial, target) states.  Yields
    (result, fidelity, QslReport) per input.  Without ``--steps``,
    ``evolve`` picks the step count from its error tolerance.  The
    speed-limit report comes from the same integration unless
    ``--qsl-steps`` asks for another step count.  The inputs share one
    StepCache, so the step search's first count and the step unitaries are
    formed once per run, not per input.
    No CSV column reads the ground fidelity, so nothing is sampled.
    A shortcut below the fidelity floor (or with a NaN fidelity) or a
    violated speed limit raises ToleranceError.
    """
    tracked = args.qsl_steps is None or args.qsl_steps == args.steps
    rng = np.random.default_rng(args.seed)
    cache = StepCache(driver)
    for _ in range(args.states):
        ini, tgt = prepare(random_state(n_qubits, rng))
        res = evolve(driver, ini, args.tau, steps=args.steps, n_samples=0, track_qsl=tracked,
                     cache=cache)
        qsl = res if tracked else evolve(driver, ini, args.tau, steps=args.qsl_steps,
                                         n_samples=0, track_qsl=True, cache=cache)
        rep = qsl_report(qsl)
        fid = fidelity(res.final_state, tgt)
        if shortcut and not fid >= FIDELITY_FLOOR:
            raise ToleranceError(f"shortcut fidelity {fid} below {FIDELITY_FLOOR}")
        if not rep.satisfied:
            raise ToleranceError("quantum-speed-limit bound violated")
        yield res, fid, rep


def _axis_arg(text: str):
    if text in ("x", "y", "z"):
        return text
    return _floats(text)


# --- teleport ------------------------------------------------------------------


def _load_gate(args):
    name = args.gate
    if args.gate_file is not None and (name or "").lower() != "custom":
        raise ValueError("--gate-file is read only with --gate custom")
    if name is None:
        return None, "-"
    if name.lower() == "custom":
        path = args.gate_file
        if not path:
            raise ValueError("--gate custom needs --gate-file with a JSON matrix")
        import json  # only --gate-file and --config read JSON: off every command's import
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
            raise ValueError(f"{path} does not hold a JSON matrix (a list of rows)")
        return np.array([[_gate_entry(c, i, j) for j, c in enumerate(row)]
                         for i, row in enumerate(raw)]), "custom"
    return gate(name), name


def _gate_entry(c, i: int, j: int) -> complex:
    try:
        return complex(*c) if isinstance(c, list) else complex(c)
    except (TypeError, ValueError):
        raise ValueError(f"gate entry [{i}][{j}] = {c} is not a number or [re, im]") from None


def _teleport_run(args, u):
    """The teleport run of ``args`` with the gate ``u``: its spec, then the
    driver, input qubits, ``prepare`` and shortcut flag that ``_runs`` takes."""
    n, shortcut = args.n, args.mode == "sa"
    spec = TeleportSpec(n, make_schedule(args.schedule), gate=u)
    if shortcut:
        driver = cd_teleport(spec, args.tau, generic=args.cd == "generic")
    else:
        driver = teleport_hamiltonian(spec)

    def prepare(psi):
        return teleport_initial_state(psi, n, gate=u), teleport_target_state(psi, n, gate=u)

    return spec, driver, n, prepare, shortcut


def _teleport_rows(args) -> list[list]:
    if args.mode == "adiabatic" and args.cd is not None:
        raise ValueError("--cd is read only with --mode sa")
    _check_run(args)
    check_grid(args.grid, "--grid")
    u, gate_name = _load_gate(args)
    spec, *run = _teleport_run(args, u)

    def rows():
        sigma_ad, sigma_sa = teleport_cost(spec.schedule, [None, args.tau], args.n)
        return [["teleport", args.n, gate_name, args.tau, fid, sigma_sa, sigma_ad, rep.bound,
                 rep.satisfied] for _, fid, rep in _runs(args, *run)]
    return _finite_rows(args.tau, rows)


# --- controlled evolutions --------------------------------------------------------


def _controlled_run(args, superadiabatic: bool):
    """The cae (or, ``superadiabatic``, sce) run of ``args``: as ``_teleport_run``."""
    spec = ControlledSpec(n_controls=args.n_controls, axis=_axis_arg(args.axis), phi=args.phi,
                          theta0=args.theta0, tau=args.tau, activation=args.activation)
    driver = cd_controlled(spec) if superadiabatic else controlled_hamiltonian(spec)

    def prepare(psi):
        return controlled_initial_state(psi), controlled_target_state(psi, spec)

    return spec, driver, spec.n_system, prepare, superadiabatic


def _controlled_rows(args) -> list[list]:
    """The rows of ``args.command``, cae or sce."""
    _check_run(args)
    check_finite(args.phi, "--phi")
    spec, *run = _controlled_run(args, args.command == "sce")

    def rows():
        sigma_sa = sce_controlled_cost(spec.tau, spec.theta0, spec.n_controls)
        sigma_ad = cae_controlled_cost(spec.n_controls)
        return [[args.command, spec.n_controls, args.axis, spec.phi, spec.theta0, spec.tau,
                 fid, measure_ancilla(res.final_state)[1].probability,
                 sigma_sa, sigma_ad, rep.bound, rep.satisfied]
                for res, fid, rep in _runs(args, *run)]
    return _finite_rows(spec.tau, rows)


# --- sweeps -------------------------------------------------------------------------


def _sweep_row(tau: float, variant, shortcut, sigma_ad: float, closed: float, grid: int) -> list:
    """A cost-sweep row: ``energy_cost`` of ``shortcut`` as sigma_sa against
    its closed form ``closed``, and rel_err = |sigma_sa / closed - 1|.
    ValueError for a --tau-list value whose correction, ~ 1/tau, has an HS
    square above the float range (the closed forms, by hypot, stay finite)."""
    with np.errstate(over="raise"):
        try:
            sigma_sa = energy_cost(shortcut, grid=grid)
        except FloatingPointError:
            raise ValueError(f"--tau-list value {tau} is too small: the HS square of its "
                             "counter-diabatic term overflows") from None
    return [tau, variant, sigma_sa, sigma_ad, closed, abs(sigma_sa / closed - 1.0)]


def _sweep_rows(args) -> list[list]:
    """The rows of cost-sweep: per point, the shortcut that ``sce
    --n-controls 0`` or ``teleport --n n`` runs, priced by quadrature and
    in closed form (``teleport_cost_scale``, the sqrt(2^{3(n-1)} n) sector
    law, times one ``teleport_sigma_sing`` call per family over every tau,
    as ``teleport_cost``).  ToleranceError if any rel_err exceeds CLOSED_FORM_RTOL."""
    taus = _floats(args.tau_list)
    for tau in taus:
        check_tau(tau, "tau")
    grid = check_grid(args.grid, "--grid")
    if args.protocol == "sce":
        rows = [_sweep_row(tau, theta0, cd_controlled(ControlledSpec(0, theta0=theta0, tau=tau)),
                           cae_single_gate_cost(), sce_single_gate_cost(tau, theta0), grid)
                for theta0 in _floats(args.theta0_list) for tau in taus]
    else:
        families = [f.strip() for f in args.schedules.split(",") if f.strip()]
        if not families:
            raise ValueError(f"--schedules names no schedule: {args.schedules!r}")
        ns = _ints(args.n_list)
        schedules = [make_schedule(f) for f in families]  # every name checked before any row
        rows = []
        for family, sch in zip(families, schedules):
            with np.errstate(over="ignore"):  # inf at a subnormal tau, which the shortcut rejects
                sing_ad, *sings = teleport_sigma_sing(sch, [None, *taus], grid)
            for n in ns:
                spec, scale = TeleportSpec(n, sch), teleport_cost_scale(n)
                rows += [_sweep_row(tau, f"{family}/n={n}", cd_teleport(spec, tau),
                                    scale * sing_ad, scale * sing, grid)
                         for tau, sing in zip(taus, sings)]
    if not all(row[-1] <= CLOSED_FORM_RTOL for row in rows):
        raise ToleranceError("quadrature disagrees with the closed-form cost")
    return rows


def _theta_rows(args) -> list[list]:
    taus = _floats(args.tau_list)
    for tau in taus:
        check_tau(tau, "omega_tau")
    thetas = [theta_opt(omega_tau) for omega_tau in taus]  # theta_opt checks its residual
    return [[omega_tau, theta, stationarity_residual(theta, omega_tau), theta_opt_adiabatic()]
            for omega_tau, theta in zip(taus, thetas)]


# --- qsl-check -----------------------------------------------------------------------


# The protocol flags of qsl-check that each protocol reads, with their
# defaults; argparse leaves them None, so a flag a protocol does not read is
# seen as given.  argparse choices reject any other protocol, --config values too.
_QSL_READS = {
    "teleport-state": {"schedule": "linear"},
    "teleport-gate": {"gate": "H", "schedule": "linear"},
    **dict.fromkeys(("cae", "sce"), {"n_controls": 0, "axis": "x", "phi": np.pi,
                                     "theta0": np.pi}),
}


def _qsl_rows(args) -> list[list]:
    """One input of the protocol, run as its own command runs it: the speed
    limit and, for a shortcut, the fidelity floor are checked.  ValueError
    for a protocol flag that the protocol does not read."""
    reads = _QSL_READS[args.protocol]
    for dest in ("gate", "schedule", "n_controls", "axis", "phi", "theta0"):
        if getattr(args, dest) is None:
            setattr(args, dest, reads.get(dest))
        elif dest not in reads:
            raise ValueError(
                f"--{dest.replace('_', '-')} is not read by --protocol {args.protocol}")
    _check_run(args)
    if args.protocol in ("teleport-state", "teleport-gate"):
        u = gate(args.gate) if args.protocol == "teleport-gate" else None
        _, *run = _teleport_run(args, u)
    else:
        check_finite(args.phi, "--phi")
        _, *run = _controlled_run(args, args.protocol == "sce")
    return _finite_rows(args.tau, lambda: [
        [args.protocol, args.tau, rep.bures_angle, rep.e_tau, rep.bound, rep.satisfied]
        for _, _, rep in _runs(args, *run)])


# --- selftest ------------------------------------------------------------------------


def _selftest_rows(args) -> list[list]:
    """Small deterministic battery; repeated runs are byte-identical.  Each
    row is named by its record and padded to the widest row, whose cells
    number the header (see ``main``)."""
    parse = _parser().parse_args
    run = ["--tau", "0.5", "--states", "2", "--seed", "7", "--qsl-steps", "2000"]
    rows = [row for gate_opt in ([], ["--gate", "X"], ["--gate", "H"])
            for row in _teleport_rows(parse(["teleport", *run, *gate_opt]))]
    rows += _controlled_rows(parse(["sce", *run, "--n-controls", "1"]))
    rows += [["theta-opt", *row]
             for row in _theta_rows(parse(["theta-opt", "--tau-list", "0.5,1,2"]))]
    for protocol in ("sce", "teleport"):
        (row,) = _sweep_rows(parse(["cost-sweep", "--protocol", protocol, "--tau-list", "0.5",
                                    "--grid", "501"]))
        rows.append([f"cost-{protocol}", *row])
    width = max(len(r) for r in rows)
    return [r + [""] * (width - len(r)) for r in rows]


# --- parser --------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, rows, header: Optional[str]):
    """The options every command takes, and the rows function and
    space-separated CSV header that ``main`` writes (None: selftest's)."""
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--jobs", type=int, default=None,
                   help="accepted and ignored: every command runs in one process")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(rows=rows, header=header and header.split())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sal", description=__doc__, allow_abbrev=False)  # --conf is not --config
    parser.add_argument("--version", action="version", version=f"sal {__version__}")
    parser.add_argument("--config", default=None, help="JSON file of option values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("teleport", help="run a (gate-)teleportation evolution")
    p.add_argument("--n", "--n-sectors", type=int, default=1, dest="n",
                   help="number of teleported qubits (= sectors)")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--gate", default=None, help="X|Z|H|T|CNOT|Toffoli|custom")
    p.add_argument("--gate-file", default=None, dest="gate_file",
                   help="JSON matrix for --gate custom")
    p.add_argument("--schedule", default="linear", choices=["linear", "trig", "exp"])
    p.add_argument("--mode", default="sa", choices=["sa", "adiabatic"])
    p.add_argument("--cd", choices=["analytic", "generic"],
                   help="closed-form or pointwise generic counter-diabatic term")
    p.add_argument("--states", type=int, default=1, help="random input states")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--qsl-steps", type=int, default=None, dest="qsl_steps")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID,
                   help="checked and ignored: no teleport column reads a grid")
    _add_common(p, _teleport_rows,
                "protocol n gate tau fidelity sigma_sa sigma_ad qsl_bound qsl_ok")

    for name in ("cae", "sce"):
        p = sub.add_parser(name, help=f"run a {name} controlled evolution")
        p.add_argument("--n-controls", type=int, default=0, dest="n_controls")
        p.add_argument("--axis", default="x", help="x|y|z or ax,ay,az")
        p.add_argument("--phi", type=float, default=np.pi)
        p.add_argument("--theta0", type=float, default=np.pi)
        p.add_argument("--tau", type=float, required=True)
        p.add_argument("--activation", type=int, default=None)
        p.add_argument("--states", type=int, default=1)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--qsl-steps", type=int, default=None, dest="qsl_steps")
        _add_common(p, _controlled_rows, "protocol n_controls axis phi theta0 tau fidelity "
                    "p_success sigma_sa sigma_ad qsl_bound qsl_ok")

    p = sub.add_parser("cost-sweep", help="energy cost vs omega*tau")
    p.add_argument("--protocol", default="sce", choices=["sce", "teleport"])
    p.add_argument("--tau-list", required=True, dest="tau_list")
    p.add_argument("--theta0-list", default="3.141592653589793", dest="theta0_list")
    p.add_argument("--schedules", default="linear")
    p.add_argument("--n-list", default="1", dest="n_list")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    _add_common(p, _sweep_rows, "omega_tau variant sigma_sa sigma_ad closed_form rel_err")

    p = sub.add_parser("theta-opt", help="optimal success angle vs omega*tau")
    p.add_argument("--tau-list", required=True, dest="tau_list")
    _add_common(p, _theta_rows, "omega_tau theta0_min residual theta0_min_adiabatic")

    p = sub.add_parser("qsl-check", help="verify the speed-limit bound on one run")
    p.add_argument("--protocol", default="teleport-state",
                   choices=["teleport-state", "teleport-gate", "cae", "sce"])
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--gate")
    p.add_argument("--schedule", choices=["linear", "trig", "exp"])
    p.add_argument("--n-controls", type=int, dest="n_controls")
    p.add_argument("--axis")
    p.add_argument("--phi", type=float)
    p.add_argument("--theta0", type=float)
    p.add_argument("--steps", type=int, default=None)
    _add_common(p, _qsl_rows, "protocol tau bures_angle e_tau qsl_bound qsl_ok")
    # what the shared run builders read that qsl-check has no flag for
    p.set_defaults(n=1, mode="sa", cd=None, activation=None, states=1, qsl_steps=None)

    p = sub.add_parser("selftest", help="deterministic battery; byte-identical reruns")
    _add_common(p, _selftest_rows, None)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every call, built on first use."""
    return build_parser()


def _with_config(parser: argparse.ArgumentParser, argv: list[str], at: list[int]) -> list[str]:
    """argv with its ``--config PATH`` or ``--config=PATH``, before or after
    the subcommand, replaced by the file's options, placed right after the
    subcommand so that they are parsed like flags and the command line's own
    flags, coming later, win.  ``at`` indexes every token that names the
    flag; one file per call, so a second is an error.  The file holds a JSON
    object of option values keyed by dest; a null value keeps the default,
    and a key that this subcommand does not take but another does is
    skipped."""
    if len(at) > 1:
        raise ValueError("--config is given more than once; it takes one file")
    idx = at[0]
    _, eq, path = argv[idx].partition("=")
    if not eq:
        path = argv[idx + 1] if idx + 1 < len(argv) else ""
    if not path:
        raise ValueError("--config needs a file path")
    argv = argv[:idx] + argv[idx + (1 if eq else 2) :]
    import json  # see _load_gate
    with open(path) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ValueError(f"{path} does not hold a JSON object of option values")
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    flags = {name: {a.dest: a.option_strings[0] for a in sub._actions
                    if a.option_strings and a.default is not argparse.SUPPRESS}
             for name, sub in subs.items()}
    for key in values:
        if not any(key in f for f in flags.values()):
            raise ValueError(f"{path}: no subcommand takes the option {key!r}")
    cmd = next((i for i, tok in enumerate(argv) if tok in subs), None)
    if cmd is None:
        return argv
    tokens = []
    for key, value in values.items():
        flag = flags[argv[cmd]].get(key)
        if flag is None or value is None:
            continue
        if isinstance(value, (list, dict)):
            raise ValueError(f"{path}: {flag} takes one value, got {value!r}")
        tokens.append(f"{flag}={value}")
    return argv[: cmd + 1] + tokens + argv[cmd + 1 :]


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        at = [i for i, tok in enumerate(argv) if tok.partition("=")[0] == "--config"]
        if at:
            argv = _with_config(_parser(), argv, at)
        args = _parser().parse_args(argv)
        rows = args.rows(args)
        # selftest's header names its record column and numbers the rest
        _write_csv(args.out, args.header or ["record", *(f"f{i}" for i in range(1, len(rows[0])))],
                   rows)
        return EXIT_OK
    # a json.JSONDecodeError is a ValueError; a MemoryError is a register too large to allocate
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ToleranceError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
