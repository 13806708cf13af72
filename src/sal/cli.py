"""Command-line front end: run the protocols and emit CSV for plotting.

Commands: teleport, cae, sce, cost-sweep, theta-opt, qsl-check, selftest.
Exit codes: 0 success, 2 invariant violation, 3 configuration error.
Floats are printed with 12 significant digits so reruns diff cleanly.
Every command runs in the calling process; --jobs is accepted and ignored.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .counterdiabatic import DEFAULT_GRID, cd_controlled, cd_teleport, cd_teleport_block
from .dynamics import (
    MAX_STEPS,
    MIN_STEPS,
    StepCache,
    ToleranceError,
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
from .linalg import random_state
from .metrics import (
    STATIONARITY_RTOL,
    cae_controlled_cost,
    cae_single_gate_cost,
    energy_cost,
    qsl_report,
    relative_residual,
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


class CliError(Exception):
    """Configuration problem; maps to exit code 3."""


class InvariantError(Exception):
    """A checked invariant failed at runtime; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        raise CliError(message)


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
        raise CliError(f"bad float list {text!r}") from exc
    if not vals:
        raise CliError("empty value list")
    return vals


def _ints(text: str) -> list[int]:
    vals = _floats(text)
    if not all(v.is_integer() for v in vals):
        raise CliError(f"bad integer list {text!r}")
    return [int(v) for v in vals]


def _check_tau(tau: float, name: str = "tau"):
    if not 0 < tau < np.inf:
        raise CliError(f"{name} must be positive and finite, got {tau}")


def _check_steps(steps: Optional[int], flag: str):
    if steps is not None and not MIN_STEPS <= steps <= MAX_STEPS:
        raise CliError(f"{flag} must lie in [{MIN_STEPS}, {MAX_STEPS}], got {steps}")


def _check_finite(value: float, flag: str):
    if not np.isfinite(value):
        raise CliError(f"{flag} must be finite, got {value}")


def _check_grid(grid: int):
    if grid < 101 or grid % 2 == 0:
        raise CliError(f"--grid must be odd and >= 101, got {grid}")


def _check_run(args):
    """The options every per-state run takes, checked before anything is built."""
    _check_tau(args.tau)
    if args.states < 1:
        raise CliError(f"--states must be >= 1, got {args.states}")
    _check_steps(args.steps, "--steps")
    _check_steps(args.qsl_steps, "--qsl-steps")


def _finite_rows(tau: float, make_rows) -> list[list]:
    """``make_rows()`` with numpy's float overflow and invalid operations
    raised, its float cells checked finite: CliError naming --tau for a tau
    so small that a sum of terms ~ 1/tau (a cost, E_tau) leaves the float
    range, so that no such row is printed."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            rows = make_rows()
            if all(np.isfinite(x) for row in rows for x in row if isinstance(x, float)):
                return rows
        except FloatingPointError:
            pass
    raise CliError(f"--tau {tau} is too small: a cost or E_tau ~ 1/tau of its rows "
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
    violated speed limit raises InvariantError.
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
            raise InvariantError(f"shortcut fidelity {fid} below {FIDELITY_FLOOR}")
        if not rep.satisfied:
            raise InvariantError("quantum-speed-limit bound violated")
        yield res, fid, rep


def _axis_arg(text: str):
    if text in ("x", "y", "z"):
        return text
    return _floats(text)


# --- teleport ------------------------------------------------------------------


def _load_gate(args):
    name = args.gate
    if name is None:
        return None, "-"
    if name.lower() == "custom":
        path = args.gate_file
        if not path:
            raise CliError("--gate custom needs --gate-file with a JSON matrix")
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
            raise CliError(f"{path} does not hold a JSON matrix (a list of rows)")
        return np.array([[_gate_entry(c, i, j) for j, c in enumerate(row)]
                         for i, row in enumerate(raw)]), "custom"
    return gate(name), name


def _gate_entry(c, i: int, j: int) -> complex:
    try:
        return complex(*c) if isinstance(c, list) else complex(c)
    except (TypeError, ValueError):
        raise CliError(f"gate entry [{i}][{j}] = {c} is not a number or [re, im]") from None


def _teleport_run(args, u):
    """The teleport run of ``args`` with the gate ``u``: its spec, then the
    driver, input qubits, ``prepare`` and shortcut flag that ``_runs`` takes."""
    n, shortcut = args.n, args.mode == "sa"
    spec = TeleportSpec(n, make_schedule(args.schedule), gate=u)
    if shortcut:
        driver = cd_teleport(spec, args.tau, grid=args.grid if args.cd == "generic" else None)
    else:
        driver = teleport_hamiltonian(spec)

    def prepare(psi):
        return teleport_initial_state(psi, n, gate=u), teleport_target_state(psi, n, gate=u)

    return spec, driver, n, prepare, shortcut


def _teleport_rows(args) -> list[list]:
    _check_run(args)
    _check_grid(args.grid)
    u, gate_name = _load_gate(args)
    spec, *run = _teleport_run(args, u)

    def rows():
        sigma_ad = teleport_cost(spec.schedule, None, args.n, grid=args.grid)
        sigma_sa = teleport_cost(spec.schedule, args.tau, args.n, grid=args.grid)
        return [["teleport", args.n, gate_name, args.tau, fid, sigma_sa, sigma_ad, rep.bound,
                 rep.satisfied] for _, fid, rep in _runs(args, *run)]
    return _finite_rows(args.tau, rows)


def cmd_teleport(args) -> int:
    rows = _teleport_rows(args)
    _write_csv(
        args.out,
        ["protocol", "n", "gate", "tau", "fidelity", "sigma_sa", "sigma_ad", "qsl_bound", "qsl_ok"],
        rows,
    )
    return EXIT_OK


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
    _check_finite(args.phi, "--phi")
    spec, *run = _controlled_run(args, args.command == "sce")

    def rows():
        sigma_sa = sce_controlled_cost(spec.tau, spec.theta0, spec.n_controls)
        sigma_ad = cae_controlled_cost(spec.n_controls)
        return [[args.command, spec.n_controls, args.axis, spec.phi, spec.theta0, spec.tau,
                 fid, measure_ancilla(res.final_state)[1].probability,
                 sigma_sa, sigma_ad, rep.bound, rep.satisfied]
                for res, fid, rep in _runs(args, *run)]
    return _finite_rows(spec.tau, rows)


def cmd_controlled(args) -> int:
    _write_csv(args.out, ["protocol", "n_controls", "axis", "phi", "theta0", "tau", "fidelity",
                          "p_success", "sigma_sa", "sigma_ad", "qsl_bound", "qsl_ok"],
               _controlled_rows(args))
    return EXIT_OK


# --- sweeps -------------------------------------------------------------------------


def _quadrature_cost(h, tau: float, grid: int) -> float:
    """``energy_cost`` of a shortcut; CliError for a --tau-list value whose
    correction, ~ 1/tau, has an HS square above the float range (the closed
    forms, by hypot, stay finite there)."""
    with np.errstate(over="raise"):
        try:
            return energy_cost(h, grid=grid)
        except FloatingPointError:
            raise CliError(f"--tau-list value {tau} is too small: the HS square of its "
                           "counter-diabatic term overflows") from None


def _sce_sweep_point(tau: float, theta0: float, grid: int) -> list:
    spec = ControlledSpec(n_controls=0, axis="x", phi=np.pi, theta0=theta0, tau=tau)
    sigma_sa = _quadrature_cost(cd_controlled(spec), tau, grid)
    closed = sce_single_gate_cost(tau, theta0)
    rel = abs(sigma_sa / closed - 1.0)
    return [tau, theta0, sigma_sa, cae_single_gate_cost(), closed, rel]


def _teleport_sweep_point(tau: float, family: str, n: int, grid: int, sing_ad: float) -> list:
    # sing_ad: the family's teleport_sigma_sing at tau=None
    sch = make_schedule(family)
    # as in _sce_sweep_point: the operator's HS-norm quadrature against the closed form
    sigma_sa = teleport_cost_scale(n) * _quadrature_cost(cd_teleport_block(sch, tau), tau, grid)
    sigma_ad = teleport_cost_scale(n) * sing_ad
    closed = teleport_cost(sch, tau, n, grid=grid)
    rel = abs(sigma_sa / closed - 1.0)
    return [tau, f"{family}/n={n}", sigma_sa, sigma_ad, closed, rel]


def cmd_cost_sweep(args) -> int:
    taus = _floats(args.tau_list)
    for tau in taus:
        _check_tau(tau)
    _check_grid(args.grid)
    if args.protocol == "sce":
        thetas = _floats(args.theta0_list)
        rows = [_sce_sweep_point(tau, theta0, args.grid) for theta0 in thetas for tau in taus]
    else:
        families = [f.strip() for f in args.schedules.split(",") if f.strip()]
        if not families:
            raise CliError(f"--schedules names no schedule: {args.schedules!r}")
        ns = _ints(args.n_list)
        sing_ad = {f: teleport_sigma_sing(make_schedule(f), None, args.grid) for f in families}
        rows = [_teleport_sweep_point(tau, fam, n, args.grid, sing_ad[fam]) for fam in families
                for n in ns for tau in taus]
    if not all(row[-1] <= CLOSED_FORM_RTOL for row in rows):
        raise InvariantError("quadrature disagrees with the closed-form cost")
    _write_csv(
        args.out,
        ["omega_tau", "variant", "sigma_sa", "sigma_ad", "closed_form", "rel_err"],
        rows,
    )
    return EXIT_OK


def _theta_point(omega_tau: float) -> list:
    theta = theta_opt(omega_tau)
    return [omega_tau, theta, stationarity_residual(theta, omega_tau), theta_opt_adiabatic()]


def cmd_theta_opt(args) -> int:
    taus = _floats(args.tau_list)
    for tau in taus:
        _check_tau(tau, "omega_tau")
    rows = [_theta_point(omega_tau) for omega_tau in taus]
    if not all(relative_residual(theta, omega_tau) <= STATIONARITY_RTOL
               for omega_tau, theta, _, _ in rows):
        raise InvariantError(f"relative stationarity residual above {STATIONARITY_RTOL}")
    _write_csv(args.out, ["omega_tau", "theta0_min", "residual", "theta0_min_adiabatic"], rows)
    return EXIT_OK


# --- qsl-check -----------------------------------------------------------------------


def cmd_qsl_check(args) -> int:
    """One input of the protocol, run as its own command runs it: the speed
    limit and, for a shortcut, the fidelity floor are checked."""
    _check_run(args)
    _check_finite(args.phi, "--phi")
    if args.protocol in ("teleport-state", "teleport-gate"):
        u = gate(args.gate) if args.protocol == "teleport-gate" else None
        _, *run = _teleport_run(args, u)
    else:  # cae or sce: argparse choices reject any other protocol, --config values too
        _, *run = _controlled_run(args, args.protocol == "sce")
    rows = _finite_rows(args.tau, lambda: [
        [args.protocol, args.tau, rep.bures_angle, rep.e_tau, rep.bound, rep.satisfied]
        for _, _, rep in _runs(args, *run)])
    _write_csv(args.out, ["protocol", "tau", "bures_angle", "e_tau", "qsl_bound", "qsl_ok"], rows)
    return EXIT_OK


# --- selftest ------------------------------------------------------------------------


def cmd_selftest(args) -> int:
    """Small deterministic battery; repeated runs are byte-identical."""
    rows: list[list] = []
    parse = _parser().parse_args
    run = ["--tau", "0.5", "--states", "2", "--seed", "7", "--qsl-steps", "2000"]
    for gate_opt in ([], ["--gate", "X"], ["--gate", "H"]):
        rows.extend(_teleport_rows(parse(["teleport", *run, "--grid", "501", *gate_opt])))
    rows.extend(_controlled_rows(parse(["sce", *run, "--n-controls", "1"])))
    for omega_tau in (0.5, 1.0, 2.0):
        rows.append(["theta-opt"] + _theta_point(omega_tau))
    rows.append(["cost-sce"] + _sce_sweep_point(0.5, np.pi, 501))
    sing_ad = teleport_sigma_sing(make_schedule("linear"), None, 501)
    rows.append(["cost-teleport"] + _teleport_sweep_point(0.5, "linear", 1, 501, sing_ad))
    width = max(len(r) for r in rows)
    rows = [r + [""] * (width - len(r)) for r in rows]
    _write_csv(args.out, ["record"] + [f"f{i}" for i in range(1, width)], rows)
    return EXIT_OK


# --- parser --------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--jobs", type=int, default=None,
                   help="accepted and ignored: every command runs in one process")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sal", description=__doc__)
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
    p.add_argument("--cd", default="analytic", choices=["analytic", "generic"],
                   help="closed-form or numeric-frame counter-diabatic term")
    p.add_argument("--states", type=int, default=1, help="random input states")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--qsl-steps", type=int, default=None, dest="qsl_steps")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    _add_common(p)
    p.set_defaults(func=cmd_teleport)

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
        _add_common(p)
        p.set_defaults(func=cmd_controlled)

    p = sub.add_parser("cost-sweep", help="energy cost vs omega*tau")
    p.add_argument("--protocol", default="sce", choices=["sce", "teleport"])
    p.add_argument("--tau-list", required=True, dest="tau_list")
    p.add_argument("--theta0-list", default="3.141592653589793", dest="theta0_list")
    p.add_argument("--schedules", default="linear")
    p.add_argument("--n-list", default="1", dest="n_list")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    _add_common(p)
    p.set_defaults(func=cmd_cost_sweep)

    p = sub.add_parser("theta-opt", help="optimal success angle vs omega*tau")
    p.add_argument("--tau-list", required=True, dest="tau_list")
    _add_common(p)
    p.set_defaults(func=cmd_theta_opt)

    p = sub.add_parser("qsl-check", help="verify the speed-limit bound on one run")
    p.add_argument("--protocol", default="teleport-state",
                   choices=["teleport-state", "teleport-gate", "cae", "sce"])
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--gate", default="H")
    p.add_argument("--schedule", default="linear", choices=["linear", "trig", "exp"])
    p.add_argument("--n-controls", type=int, default=0, dest="n_controls")
    p.add_argument("--axis", default="x")
    p.add_argument("--phi", type=float, default=np.pi)
    p.add_argument("--theta0", type=float, default=np.pi)
    p.add_argument("--steps", type=int, default=None)
    _add_common(p)
    # what the shared run builders read that qsl-check has no flag for
    p.set_defaults(func=cmd_qsl_check, n=1, mode="sa", cd="analytic", activation=None, states=1,
                   qsl_steps=None)

    p = sub.add_parser("selftest", help="deterministic battery; byte-identical reruns")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every call, built on first use."""
    return build_parser()


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with its ``--config PATH`` replaced by the file's options, placed
    right after the subcommand so that they are parsed like flags and the
    command line's own flags, coming later, win.  The file holds a JSON
    object of option values keyed by dest; a null value keeps the default,
    and a key that this subcommand does not take but another does is
    skipped."""
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise CliError("--config needs a file path")
    path, argv = argv[idx + 1], argv[:idx] + argv[idx + 2 :]
    with open(path) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise CliError(f"{path} does not hold a JSON object of option values")
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    flags = {name: {a.dest: a.option_strings[0] for a in sub._actions
                    if a.option_strings and a.default is not argparse.SUPPRESS}
             for name, sub in subs.items()}
    for key in values:
        if not any(key in f for f in flags.values()):
            raise CliError(f"{path}: no subcommand takes the option {key!r}")
    cmd = next((i for i, tok in enumerate(argv) if tok in subs), None)
    if cmd is None:
        return argv
    tokens = []
    for key, value in values.items():
        flag = flags[argv[cmd]].get(key)
        if flag is None or value is None:
            continue
        if isinstance(value, (list, dict)):
            raise CliError(f"{path}: {flag} takes one value, got {value!r}")
        tokens.append(f"{flag}={value}")
    return argv[: cmd + 1] + tokens + argv[cmd + 1 :]


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        if "--config" in argv:
            argv = _with_config(_parser(), argv)
        args = _parser().parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:  # a json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvariantError, ToleranceError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
