import concurrent.futures
import csv
import json
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import sal.cli
import sal.dynamics
import sal.linalg
import sal.metrics
from sal.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, main
from sal.counterdiabatic import cd_controlled
from sal.dynamics import controlled_initial_state
from sal.hamiltonians import ControlledSpec, controlled_hamiltonian
from sal.linalg import random_state
from sal.metrics import qsl_check


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_teleport_command(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["teleport", "--n", "1", "--tau", "0.5", "--states", "2",
               "--grid", "501", "--qsl-steps", "2000", "--out", str(out)])
    assert rc == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 2
    for row in rows:
        assert float(row["fidelity"]) >= 1 - 1e-6
        assert row["qsl_ok"] == "true"
        assert float(row["sigma_sa"]) > float(row["sigma_ad"])


def test_teleport_gate_command(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["teleport", "--n", "1", "--gate", "H", "--tau", "1",
               "--grid", "501", "--qsl-steps", "2000", "--out", str(out)])
    assert rc == EXIT_OK
    assert float(read_rows(out)[0]["fidelity"]) >= 1 - 1e-6


def test_teleport_adiabatic_contrast(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["teleport", "--n", "2", "--gate", "CNOT", "--mode", "adiabatic",
               "--tau", "0.5", "--grid", "501", "--qsl-steps", "2000", "--out", str(out)])
    assert rc == EXIT_OK
    assert float(read_rows(out)[0]["fidelity"]) < 0.99


def test_sce_command(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["sce", "--n-controls", "1", "--tau", "0.5", "--theta0", str(np.pi),
               "--qsl-steps", "2000", "--out", str(out)])
    assert rc == EXIT_OK
    row = read_rows(out)[0]
    assert float(row["fidelity"]) >= 1 - 1e-6
    assert abs(float(row["p_success"]) - 1.0) < 1e-6


def test_cae_command_runs(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["cae", "--tau", "50", "--qsl-steps", "2000", "--out", str(out)])
    assert rc == EXIT_OK
    assert read_rows(out)[0]["protocol"] == "cae"


def test_cost_sweep_theta_curves_ordered(tmp_path):
    out = tmp_path / "cs.csv"
    rc = main(["cost-sweep", "--protocol", "sce", "--tau-list", "0.2,1,5",
               "--theta0-list", f"{np.pi},{np.pi / 2}", "--grid", "301",
               "--jobs", "1", "--out", str(out)])
    assert rc == EXIT_OK
    rows = read_rows(out)
    assert all(float(r["rel_err"]) <= 1e-6 for r in rows)
    by_theta = {}
    for r in rows:
        by_theta.setdefault(r["variant"], {})[r["omega_tau"]] = float(r["sigma_sa"])
    pi_curve = by_theta[f"{np.pi:.12g}"]
    half_curve = by_theta[f"{np.pi / 2:.12g}"]
    assert all(pi_curve[k] > half_curve[k] for k in pi_curve)


def test_cost_sweep_teleport_schedules_asymptote(tmp_path):
    out = tmp_path / "ct.csv"
    # tau = 1e308: the cost's 1/tau^2 term underflows instead of overflowing
    rc = main(["cost-sweep", "--protocol", "teleport", "--tau-list", "1e4,1e308",
               "--schedules", "linear,trig,exp", "--n-list", "1",
               "--grid", "501", "--jobs", "1", "--out", str(out)])
    assert rc == EXIT_OK
    for row in read_rows(out):
        assert abs(float(row["sigma_sa"]) / float(row["sigma_ad"]) - 1.0) <= 1e-4


@pytest.mark.parametrize("argv", [
    ["teleport", "--n", "1", "--tau", "1e-200"],
    ["sce", "--n-controls", "1", "--tau", "1e-300"],
    ["cae", "--n-controls", "1", "--tau", "1e-300"],
])
def test_tiny_tau_costs_stay_finite(argv, tmp_path):
    # the correction ~ 1/tau is near the float range: no cost squares it
    out = tmp_path / "tiny.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv + ["--jobs", "1", "--out", str(out)])
    assert rc == EXIT_OK
    rows = read_rows(out)
    assert rows and all(np.isfinite(float(v)) for row in rows for k, v in row.items()
                        if k not in ("protocol", "gate", "axis", "variant", "qsl_ok"))


@pytest.mark.parametrize("argv, err", [
    (["teleport", "--tau", "1e-305"], "--tau 1e-305 is too small"),  # sigma_sa overflows
    (["teleport", "--tau", "1e-306"], "--tau 1e-306 is too small"),  # and E_tau
    (["teleport", "--tau", "1e-306", "--mode", "adiabatic"], "--tau 1e-306 is too small"),
    (["sce", "--tau", "1e-306"], "--tau 1e-306 is too small"),
    (["qsl-check", "--tau", "1e-306"], "--tau 1e-306 is too small"),
    (["cae", "--tau", "1e-310"], "--tau 1e-310 is too small"),
    (["teleport", "--tau", "1e-310"], "tau=1e-310 is below the smallest normal float"),
    (["sce", "--tau", "1e-310"], "tau=1e-310 is below the smallest normal float"),
    (["sce", "--tau", "1e-320", "--steps", "100"], "tau=1e-320 is below the smallest normal"),
])
def test_a_tau_whose_rows_overflow_is_a_configuration_error(argv, err, capsys):
    # a cost or E_tau ~ 1/tau past the float range prints no row, and a
    # shortcut's correction ~ 1/tau must itself be finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv + ["--jobs", "1"])
    out, stderr = capsys.readouterr()
    assert (rc, out) == (EXIT_CONFIG, "")
    assert err in stderr


@pytest.mark.parametrize("argv, row", [
    (["teleport", "--tau", "1e-300"],
     "teleport,1,-,1e-300,1,3.14159265359e+300,3.24645048028,1.00000000005e-300,true"),
    (["sce", "--tau", "1e-300"], "sce,0,x,3.14159265359,3.14159265359,1e-300,1,1,"
     "3.14159265359e+300,2,9.99999999946e-301,true"),
    (["qsl-check", "--tau", "1e-300"],
     "teleport-state,1e-300,1.0471975512,4.99999999976e+299,1.00000000005e-300,true"),
])
def test_tau_1e_300_rows_are_unchanged(argv, row, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--jobs", "1"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == row


@pytest.mark.parametrize("argv", [["teleport", "--n", "1", "--tau", "1"],
                                  ["teleport", "--n", "3", "--gate", "Toffoli", "--tau", "0.1"]])
@pytest.mark.parametrize("mode", ["sa", "adiabatic"])
def test_teleport_commands_make_no_eigendecomposition(argv, mode, capsys, monkeypatch):
    # the first step count comes from the leaves' coefficients, every step
    # from the closed form, and nothing is sampled
    argv = argv + ["--mode", mode, "--jobs", "1"]

    def refuse(*args, **kwargs):
        raise AssertionError("an eigendecomposition")
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", refuse)
        m.setattr(np.linalg, "eigvalsh", refuse)
        assert main(argv) == EXIT_OK
        patched = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == patched


@pytest.mark.parametrize("protocol", [["--protocol", "teleport", "--schedules", "linear",
                                       "--n-list", "1"], ["--protocol", "sce"]])
def test_cost_sweep_rejects_a_tau_whose_correction_square_overflows(protocol, capsys):
    # the quadrature squares the correction ~ 1/tau, which the closed form
    # never does: such a tau is a configuration error, not a failed invariant
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["cost-sweep", *protocol, "--tau-list", "0.5,1e-300", "--jobs", "1"])
    assert rc == EXIT_CONFIG
    assert "--tau-list value 1e-300" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--protocol", "teleport", "--schedules", "linear,trig,exp", "--tau-list", "3.8e-154"],
    ["--protocol", "sce", "--tau-list", "2.35e-154"],
])
def test_cost_sweep_takes_tau_down_to_the_overflow_threshold(argv):
    # 1e-153 at the default grid, and just above the smallest tau accepted at
    # grid 101 (3.79e-154 teleport, set by the exp schedule; 2.34e-154 sce)
    assert main(["cost-sweep", *argv[:-1], "1e-153", "--jobs", "1"]) == EXIT_OK
    assert main(["cost-sweep", *argv, "--grid", "101", "--jobs", "1"]) == EXIT_OK


def test_teleport_sweep_rows_read_like_sce_rows(monkeypatch):
    # both put the operator quadrature in sigma_sa and the closed form in
    # closed_form, with rel_err = |sigma_sa / closed_form - 1|
    quadrature = sal.cli._quadrature_cost
    monkeypatch.setattr(sal.cli, "_quadrature_cost",
                        lambda h, tau, grid: quadrature(h, tau, grid) * (1.0 + 1e-9))
    sch = sal.cli.make_schedule("exp")
    sing_ad = sal.metrics.teleport_sigma_sing(sch, None, 501)
    for row, closed in ((sal.cli._teleport_sweep_point(0.5, "exp", 2, 501, sing_ad),
                         sal.metrics.teleport_cost(sch, 0.5, 2, grid=501)),
                        (sal.cli._sce_sweep_point(0.5, 2.0, 501),
                         sal.metrics.sce_single_gate_cost(0.5, 2.0))):
        _, _, sigma_sa, _, closed_form, rel = row
        assert closed_form == closed
        assert abs(sigma_sa / closed - 1.0 - 1e-9) <= 1e-14
        assert rel == abs(sigma_sa / closed_form - 1.0)


def test_theta_opt_command(tmp_path):
    out = tmp_path / "th.csv"
    rc = main(["theta-opt", "--tau-list", "1,2,5,20", "--jobs", "1", "--out", str(out)])
    assert rc == EXIT_OK
    rows = read_rows(out)
    thetas = [float(r["theta0_min"]) for r in rows]
    assert thetas == sorted(thetas)
    assert all(t < np.pi for t in thetas)
    assert all(abs(float(r["residual"])) <= 1e-5 for r in rows)
    assert all(float(r["theta0_min_adiabatic"]) == pytest.approx(np.pi) for r in rows)
    # large omega*tau: the absolute residual grows with 4 (omega tau)^2, the relative one does not
    rc = main(["theta-opt", "--tau-list", "1e6", "--jobs", "1", "--out", str(out)])
    assert rc == EXIT_OK
    row = read_rows(out)[0]
    theta = float(row["theta0_min"])
    assert abs(float(row["residual"])) <= 1e-12 * (4 * 1e6**2 + theta**2)


def test_qsl_check_command(tmp_path):
    out = tmp_path / "q.csv"
    rc = main(["qsl-check", "--protocol", "teleport-state", "--tau", "0.1",
               "--steps", "4000", "--out", str(out)])
    assert rc == EXIT_OK
    assert read_rows(out)[0]["qsl_ok"] == "true"


@pytest.mark.parametrize("protocol", ["cae", "sce"])
def test_qsl_check_is_a_one_input_run_of_its_protocol(protocol, capsys):
    # qsl-check prints the bound that the protocol's own command prints for
    # the same seed and options, and the E_tau of a direct qsl_check on the
    # same drawn input
    opts = ["--tau", "0.8", "--n-controls", "1", "--axis", "y", "--phi", "2", "--theta0", "2.5",
            "--seed", "9"]
    assert main([protocol, *opts, "--states", "1"]) == EXIT_OK
    [row] = csv.DictReader(capsys.readouterr().out.splitlines())
    assert main(["qsl-check", "--protocol", protocol, *opts]) == EXIT_OK
    [check] = csv.DictReader(capsys.readouterr().out.splitlines())
    assert check["qsl_bound"] == row["qsl_bound"]
    spec = ControlledSpec(1, axis="y", phi=2.0, theta0=2.5, tau=0.8)
    h = cd_controlled(spec) if protocol == "sce" else controlled_hamiltonian(spec)
    psi0 = controlled_initial_state(random_state(spec.n_system, np.random.default_rng(9)))
    assert check["e_tau"] == sal.cli._fmt(qsl_check(h, psi0, 0.8).e_tau)


def test_axis_vector_runs_as_its_named_axis(capsys):
    # the vector branch of --axis: (1, 0, 0) is the x axis, so only the cell
    # that echoes the flag differs, and qsl-check, which echoes no axis,
    # prints the same bytes
    outs = []
    for axis in ("x", "1,0,0"):
        for argv in (["sce", "--states", "2"], ["qsl-check", "--protocol", "sce"]):
            assert main([*argv, "--tau", "0.7", "--n-controls", "1", "--axis", axis]) == EXIT_OK
            outs.append(capsys.readouterr().out)
    assert outs[1] == outs[3]
    assert outs[2] == outs[0].replace(",x,", ',"1,0,0",') != outs[0]


def test_axis_vectors_near_the_float_range_run_as_their_direction(capsys):
    # an axis whose squares overflow or underflow runs as (1, 1, 0): every
    # cell but the echoed flag is that of --axis 1,1,0
    outs = []
    for axis in ("1,1,0", "1e308,1e308,0", "1e-200,1e-200,0"):
        assert main(["sce", "--tau", "1", "--axis", axis]) == EXIT_OK
        out = capsys.readouterr()
        assert out.err == ""
        outs.append(out.out.replace(f'"{axis}"', "AXIS"))
    assert outs[1] == outs[2] == outs[0] != ""


def test_each_input_state_is_checked_once(monkeypatch):
    # evolve checks each input; the speed-limit report reads the run's own
    # copy of it instead of checking it again
    calls, check = [], sal.linalg.check_state
    for mod in (sal.linalg, sal.dynamics, sal.metrics, sal.cli):  # every binding of it
        if hasattr(mod, "check_state"):
            monkeypatch.setattr(mod, "check_state",
                                lambda psi, dim: calls.append(dim) or check(psi, dim))
    argv = ["sce", "--n-controls", "3", "--tau", "1", "--states", "3"]
    assert main(argv) == EXIT_OK
    assert calls == [32] * 3


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gate": "X", "qsl_steps": 2000, "grid": 501}))
    out = tmp_path / "t.csv"
    rc = main(["--config", str(cfg), "teleport", "--tau", "0.5", "--out", str(out)])
    assert rc == EXIT_OK
    assert read_rows(out)[0]["gate"] == "X"
    # the command line's own flags win, and null keeps the default
    cfg.write_text(json.dumps({"gate": "X", "qsl_steps": 2000, "grid": 501, "states": None}))
    rc = main(["--config", str(cfg), "teleport", "--tau", "0.5", "--gate", "Z", "--out", str(out)])
    assert rc == EXIT_OK
    assert [row["gate"] for row in read_rows(out)] == ["Z"]


def test_parser_is_built_once_and_config_defaults_stay_with_their_call(
        tmp_path, capsys, monkeypatch):
    built = []
    build = sal.cli.build_parser
    monkeypatch.setattr(sal.cli, "build_parser", lambda: built.append(1) or build())
    sal.cli._parser.cache_clear()
    run = ["teleport", "--tau", "0.5", "--qsl-steps", "400", "--grid", "501"]
    assert main(run) == EXIT_OK
    default = capsys.readouterr().out
    cfg = tmp_path / "trig.json"
    cfg.write_text(json.dumps({"schedule": "trig"}))
    assert main(["--config", str(cfg), *run]) == EXIT_OK
    trig = capsys.readouterr().out
    assert main(run) == EXIT_OK
    assert capsys.readouterr().out == default != trig
    assert len(built) == 1  # --config calls parse with the shared parser too


def test_cli_runs_sample_no_ground_fidelity(monkeypatch):
    # no CSV column reads the ground fidelity, so no CLI run computes it
    def no_sampling(*args):
        raise AssertionError("ground sampling ran")
    monkeypatch.setattr(sal.dynamics, "_ground_weights", no_sampling)
    for argv in (["teleport", "--tau", "0.5", "--states", "2", "--grid", "501"],
                 ["teleport", "--n", "2", "--gate", "CNOT", "--tau", "0.3", "--qsl-steps", "400"],
                 ["sce", "--n-controls", "2", "--tau", "1", "--states", "2"],
                 ["qsl-check", "--protocol", "teleport-gate", "--tau", "0.5"]):
        assert main(argv + ["--out", "-"]) == EXIT_OK


@pytest.mark.parametrize("mode", ["sa", "adiabatic"])
def test_gate_teleport_forms_no_dense_rotation(mode, monkeypatch):
    # the gate is contracted on Bob's qubits: no run embeds it in 2^{3n} dimensions
    def no_embed(*args):
        raise AssertionError("a dense rotation was formed")
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("sal") and hasattr(module, "embed"):
            monkeypatch.setattr(module, "embed", no_embed)
    argv = ["teleport", "--n", "3", "--gate", "Toffoli", "--tau", "0.1", "--qsl-steps", "100",
            "--mode", mode, "--out", "-"]
    assert main(argv) == EXIT_OK
    argv = ["qsl-check", "--protocol", "teleport-gate", "--tau", "0.5", "--out", "-"]
    assert main(argv) == EXIT_OK


def test_selftest_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["selftest", "--out", str(a)]) == EXIT_OK
    assert main(["selftest", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_config_errors_exit_3(capsys, monkeypatch, tmp_path):
    assert main(["teleport", "--tau", "-1"]) == EXIT_CONFIG
    # a --config file must hold an object whose keys some subcommand takes
    for name, content, message in (("list.json", [1, 2], "does not hold a JSON object"),
                                   ("bogus.json", {"bogus": 3}, "'bogus'")):
        cfg = tmp_path / name
        cfg.write_text(json.dumps(content))
        assert main(["--config", str(cfg), "teleport", "--tau", "0.5"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(cfg) in err and message in err
    # and its values pass the type check of the option they set
    for command, content, flag in (("teleport", {"states": [1]}, "--states"),
                                   ("sce", {"states": [1]}, "--states"),
                                   ("teleport", {"seed": 1.5}, "--seed"),
                                   ("sce", {"seed": 1.5}, "--seed"),
                                   ("sce", {"axis": [1, 0, 0]}, "--axis")):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(content))
        assert main(["--config", str(cfg), command, "--tau", "0.5"]) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
    # qsl-check's protocol meets argparse's choices, from either source
    cfg = tmp_path / "protocol.json"
    cfg.write_text(json.dumps({"protocol": "bogus"}))
    for argv in (["qsl-check", "--protocol", "bogus"], ["--config", str(cfg), "qsl-check"]):
        assert main(argv + ["--tau", "0.5"]) == EXIT_CONFIG
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
    for tau in ("inf", "nan"):
        for argv in (["teleport"], ["sce"], ["qsl-check"]):
            assert main(argv + ["--tau", tau]) == EXIT_CONFIG
            assert "tau must be positive and finite" in capsys.readouterr().err
    assert main(["teleport", "--tau", "1e308"]) == EXIT_CONFIG
    assert "above MAX_STEPS" in capsys.readouterr().err
    for states in ("0", "-1"):
        for argv in (["teleport"], ["cae"], ["sce"]):
            assert main(argv + ["--tau", "1", "--states", states]) == EXIT_CONFIG
            assert "--states" in capsys.readouterr().err
    # step counts are checked before anything is built or integrated
    def no_run(*args, **kwargs):
        raise AssertionError("a bad step count reached evolve")
    for module in (sal.cli, sal.metrics):
        monkeypatch.setattr(module, "evolve", no_run)
    for flag, value in (("--steps", "99"), ("--qsl-steps", "0"), ("--steps", "100000000000000")):
        for argv in (["teleport"], ["sce"], ["qsl-check"]):
            if argv == ["qsl-check"] and flag == "--qsl-steps":
                continue  # qsl-check has one step count
            assert main(argv + ["--tau", "1", flag, value]) == EXIT_CONFIG
            assert f"{flag} must lie in [100, 100000000]" in capsys.readouterr().err
    assert main(["teleport", "--tau", "1", "--gate", "CNOT"]) == EXIT_CONFIG
    for argv in (["teleport", "--grid", "1"], ["teleport", "--cd", "generic", "--grid", "2"],
                 ["teleport", "--grid", "500"], ["cost-sweep", "--tau-list", "1", "--grid", "99"]):
        assert main(argv + ["--tau", "0.5"]) == EXIT_CONFIG
        assert "--grid must be odd and >= 101" in capsys.readouterr().err
    for phi in ("nan", "inf"):
        for argv in (["sce"], ["cae"], ["qsl-check", "--protocol", "sce"]):
            assert main(argv + ["--tau", "0.5", "--phi", phi]) == EXIT_CONFIG
            assert "--phi must be finite" in capsys.readouterr().err
    assert main(["teleport", "--tau", "1", "--schedule", "spline"]) == EXIT_CONFIG
    assert main(["theta-opt", "--tau-list", "1e200"]) == EXIT_CONFIG
    assert "overflows" in capsys.readouterr().err
    assert main(["cost-sweep", "--protocol", "teleport", "--tau-list", "1",
                 "--n-list", "1.7"]) == EXIT_CONFIG
    assert "bad integer list" in capsys.readouterr().err
    for schedules in (",", " , "):
        assert main(["cost-sweep", "--protocol", "teleport", "--tau-list", "1",
                     "--schedules", schedules]) == EXIT_CONFIG
        assert "--schedules" in capsys.readouterr().err
    assert main(["no-such-command"]) == EXIT_CONFIG


def test_invariant_violation_exits_2(tmp_path):
    # deliberately starved integrator: the shortcut fidelity check trips
    rc = main(["teleport", "--n", "1", "--tau", "500", "--steps", "100",
               "--qsl-steps", "2000", "--grid", "501", "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_INVARIANT


def test_missed_step_tolerance_exits_2(monkeypatch, capsys):
    # a step-doubling estimate that cannot meet STATE_TOL is a failed runtime
    # check, not a bad argument
    integrate = sal.dynamics._integrate

    def nan_final(h, psi0, *a):  # the pass's final state NaN, its N/2 state kept
        res, half = integrate(h, psi0, *a)
        return replace(res, final_state=np.full(psi0.shape, np.nan)), half

    monkeypatch.setattr(sal.dynamics, "_integrate", nan_final)
    assert main(["sce", "--tau", "0.5"]) == EXIT_INVARIANT
    assert "step-doubling error estimate nan" in capsys.readouterr().err


def test_nan_fails_every_invariant(monkeypatch, capsys):
    # each check is written so that a NaN value fails it
    nan = float("nan")
    run = ["--tau", "0.5", "--steps", "200"]
    monkeypatch.setattr(sal.cli, "fidelity", lambda a, b: nan)
    for argv in (["sce", *run], ["qsl-check", "--protocol", "sce", *run]):
        assert main(argv) == EXIT_INVARIANT
        assert "fidelity nan below" in capsys.readouterr().err
    monkeypatch.undo()
    evolve = sal.cli.evolve
    monkeypatch.setattr(sal.cli, "evolve",
                        lambda *a, **k: replace(evolve(*a, **k), e_tau=nan))
    for argv in (["sce", *run], ["teleport", *run]):
        assert main(argv) == EXIT_INVARIANT
        assert "quantum-speed-limit bound violated" in capsys.readouterr().err
    monkeypatch.setattr(sal.cli, "teleport_cost", lambda *a, **k: nan)
    assert main(["cost-sweep", "--protocol", "teleport", "--tau-list", "1"]) == EXIT_INVARIANT
    assert "closed-form" in capsys.readouterr().err
    monkeypatch.setattr(sal.cli, "relative_residual", lambda *a: nan)
    assert main(["theta-opt", "--tau-list", "1"]) == EXIT_INVARIANT


def test_inputs_of_a_run_share_the_step_unitaries(monkeypatch, capsys):
    # the sce-batch workload: each input's evolve call runs the same step
    # search, and the step unitaries are formed for the first input only
    run = ["sce", "--n-controls", "3", "--tau", "1", "--jobs", "1", "--seed", "11"]
    evolve, cf4 = sal.cli.evolve, sal.dynamics._cf4_steps
    results, calls = [], []
    monkeypatch.setattr(sal.cli, "evolve",
                        lambda *a, **k: results.append(evolve(*a, **k)) or results[-1])
    monkeypatch.setattr(sal.dynamics, "_cf4_steps", lambda *a: calls.append(1) or cf4(*a))
    rows, counts = [], []
    for states in ("1", "3"):
        calls.clear()
        assert main([*run, "--states", states]) == EXIT_OK
        rows.append(capsys.readouterr().out.splitlines())
        counts.append(len(calls))
    assert [res.step_counts for res in results] == [(94, 188)] * 4
    assert counts[0] == counts[1] > 0
    assert rows[1][:2] == rows[0]  # the first input's row does not depend on the others


def test_generic_cd_route(tmp_path):
    out = tmp_path / "g.csv"
    rc = main(["teleport", "--n-sectors", "1", "--tau", "0.5", "--cd", "generic",
               "--grid", "501", "--qsl-steps", "2000", "--out", str(out)])
    assert rc == EXIT_OK
    assert float(read_rows(out)[0]["fidelity"]) >= 1 - 1e-6


def test_custom_gate_from_file(tmp_path, capsys):
    mat = tmp_path / "gate.json"
    mat.write_text(json.dumps([[0, 1], [1, 0]]))  # X
    out = tmp_path / "c.csv"
    rc = main(["teleport", "--tau", "0.5", "--gate", "custom", "--gate-file", str(mat),
               "--grid", "501", "--qsl-steps", "2000", "--out", str(out)])
    assert rc == EXIT_OK
    row = read_rows(out)[0]
    assert row["gate"] == "custom"
    assert float(row["fidelity"]) >= 1 - 1e-6
    assert main(["teleport", "--tau", "0.5", "--gate", "custom"]) == EXIT_CONFIG
    mat.write_text(json.dumps([[0, 1], [1, [1, 2, 3]]]))
    rc = main(["teleport", "--tau", "0.5", "--gate", "custom", "--gate-file", str(mat)])
    assert rc == EXIT_CONFIG
    assert "gate entry [1][1] = [1, 2, 3]" in capsys.readouterr().err
    mat.write_text(json.dumps([[1, 1], [0, 1]]))  # not unitary
    for mode in ("sa", "adiabatic"):
        rc = main(["teleport", "--tau", "0.5", "--gate", "custom", "--gate-file", str(mat),
                   "--mode", mode])
        assert rc == EXIT_CONFIG
        assert "gate must be unitary" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cost-sweep", "--protocol", "teleport", "--schedules", "linear,trig", "--n-list", "1,2",
     "--tau-list", "0.5,5"],
    ["cost-sweep", "--protocol", "sce", "--tau-list", "0.1,1", "--theta0-list", "3.14159,1.5708"],
    ["theta-opt", "--tau-list", "0.5,1,2"],
])
def test_sweeps_start_no_process(argv, monkeypatch, capsys):
    # a sweep computes its points in the calling process: --jobs is accepted
    # and ignored, and SAL_JOBS is not read
    def no_pool(*args, **kwargs):
        raise AssertionError("a sweep started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main([*argv, "--jobs", "1"]) == EXIT_OK
    want = capsys.readouterr()
    for extra, env in (([], None), (["--jobs", "4"], None), ([], "4")):
        if env is not None:
            monkeypatch.setenv("SAL_JOBS", env)
        assert main([*argv, *extra]) == EXIT_OK
        assert capsys.readouterr() == want
