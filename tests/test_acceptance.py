"""Acceptance suite: one test per advertised guarantee, at its stated
tolerance.  Each test prints a [PASS] line on success (run with -s to see
them live)."""

import numpy as np

from sal.cli import main as cli_main
from sal.counterdiabatic import (
    cd_controlled,
    cd_generic,
    cd_teleport,
    cd_teleport_block,
    cd_tensor_sum,
)
from sal.dynamics import (
    controlled_initial_state,
    controlled_target_state,
    evolve,
    fidelity,
    measure_ancilla,
    teleport_initial_state,
    teleport_target_state,
)
from sal.hamiltonians import (
    ControlledSpec,
    TeleportSpec,
    TimeDepHamiltonian,
    X,
    Y,
    adiabatic_time_estimate,
    gate,
    h_xi,
    parity_operators,
    teleport_block_hamiltonian,
    teleport_energies,
    teleport_gap,
    teleport_hamiltonian,
    teleport_sector_hamiltonian,
)
from sal.linalg import random_state
from sal.metrics import (
    QSL_CHI_ATOL,
    angle_feasible,
    cae_single_gate_cost,
    energy_cost,
    probabilistic_cost,
    qsl_check,
    qsl_ground_chi,
    sce_controlled_cost,
    sce_single_gate_cost,
    stationarity_residual,
    teleport_sigma_sing,
    theta_opt,
    theta_opt_adiabatic,
)
from sal.schedules import FAMILIES, make_schedule

TAUS = (0.1, 1.0, 10.0)
N_STATES = 20


def _report(num: int, text: str):
    print(f"[PASS] criterion {num}: {text}")


def _teleport_shortcut(n_sectors: int, tau: float, family: str = "linear"):
    block = cd_teleport_block(make_schedule(family), tau)
    return cd_tensor_sum([block] * n_sectors)


def test_criterion_01_superadiabatic_teleport_exactness():
    rng = np.random.default_rng(101)
    worst = 1.0
    for n in (1, 2):
        for tau in TAUS:
            hsa = _teleport_shortcut(n, tau)
            stack_in, stack_tgt = [], []
            for _ in range(N_STATES):
                psi = random_state(n, rng)
                stack_in.append(teleport_initial_state(psi, n))
                stack_tgt.append(teleport_target_state(psi, n))
            block_in = np.stack(stack_in, axis=1)
            res = evolve(hsa, block_in, tau)
            for c in range(N_STATES):
                fid = fidelity(res.final_state[:, c], stack_tgt[c])
                worst = min(worst, fid)
                assert fid >= 1 - 1e-6, (n, tau, fid)
    _report(1, f"teleport exact for n=1,2 at all tau (worst fidelity {worst:.9f})")


def test_criterion_02_gate_teleportation():
    rng = np.random.default_rng(102)
    tau = 0.5
    worst = 1.0
    cases = [(name, 1) for name in ("X", "Z", "H", "T")] + [("CNOT", 2)]
    for name, n in cases:
        u = gate(name)
        spec = TeleportSpec(n, make_schedule("linear"), gate=u)
        plain = _teleport_shortcut(n, tau)
        rotated = cd_teleport(spec, tau)
        psi = random_state(n, rng)
        res = evolve(rotated, teleport_initial_state(psi, n, gate=u), tau)
        fid = fidelity(res.final_state, teleport_target_state(psi, n, gate=u))
        worst = min(worst, fid)
        assert fid >= 1 - 1e-6, (name, fid)
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            a = np.linalg.eigvalsh(plain.total(s))
            b = np.linalg.eigvalsh(rotated.total(s))
            assert np.max(np.abs(a - b)) <= 1e-10, (name, s)
    _report(2, f"gates X,Z,H,T,CNOT teleported at tau=0.5 (worst fidelity {worst:.9f})")


def test_criterion_03_adiabatic_contrast():
    sch = make_schedule("linear")
    h = teleport_hamiltonian(TeleportSpec(1, sch))
    rng = np.random.default_rng(103)
    psi = random_state(1, rng)
    ini = teleport_initial_state(psi, 1)
    tgt = teleport_target_state(psi, 1)
    short = evolve(h, ini, 0.5)
    fid_short = fidelity(short.final_state, tgt)
    assert fid_short < 0.99, fid_short
    est = adiabatic_time_estimate(h)
    assert est > 0
    long = evolve(h, ini, 100.0 * est, steps=40_000)
    fid_long = fidelity(long.final_state, tgt)
    assert fid_long >= 0.999, fid_long
    _report(3, f"adiabatic F={fid_short:.4f} at tau=0.5, F={fid_long:.6f} at 100x estimate")


def test_criterion_04_spectrum_and_gap_closed_forms():
    for family in FAMILIES:
        sch = make_schedule(family)
        h = teleport_hamiltonian(TeleportSpec(1, sch))
        for s in np.linspace(0.0, 1.0, 101):
            lam = np.linalg.eigvalsh(h(s))
            want = np.sort(np.repeat(teleport_energies(sch, s), 2))
            assert np.max(np.abs(lam - want)) <= 1e-9, (family, s)
            gap = lam[np.searchsorted(lam, lam[0] + 1e-9)] - lam[0]
            assert abs(gap - teleport_gap(sch, s)) <= 1e-9, (family, s)
    _report(4, "teleport spectrum and gap match the closed forms on all schedules")


def test_criterion_05_cd_structural_invariants():
    sch = make_schedule("linear")
    tau = 0.7
    hsa = cd_teleport_block(sch, tau)
    for s in np.linspace(0.0, 1.0, 801)[::50]:
        cd = hsa.cd(s)
        v = np.linalg.eigh(hsa.base(s))[1]
        diag = np.diag(v.conj().T @ cd @ v)
        assert np.max(np.abs(diag)) <= 1e-8, s
        h = hsa.base(s)
        assert abs(np.trace(h @ cd + cd @ h)) <= 1e-8, s  # the anticommutator's trace
    pz, px, _, _ = parity_operators(1)
    for s in np.linspace(0, 1, 51):
        total = hsa.total(s)
        assert np.max(np.abs(total @ pz - pz @ total)) <= 1e-9
        assert np.max(np.abs(total @ px - px @ total)) <= 1e-9
    for xi in (0.0, 0.9):
        generic = cd_generic(
            TimeDepHamiltonian(dim=2, func=lambda s, xi=xi: h_xi(np.pi * s, xi),
                               deriv=lambda s, xi=xi: np.pi * h_xi(np.pi * s + np.pi / 2, xi)),
            tau=tau,
        )
        want = np.pi / (2 * tau) * (np.cos(xi) * Y - np.sin(xi) * X)
        for s in (0.0, 0.5, 1.0):
            assert np.max(np.abs(generic.cd(s) - want)) <= 1e-13, (xi, s)
    _report(5, "diagonal nullity, anticommutator trace, symmetries, and closed form hold")


def test_criterion_06_sce_gates():
    rng = np.random.default_rng(106)
    tau = 0.5
    # NOT via (x, pi); Hadamard-type via (y, pi/2); Toffoli-type 2-controlled (x, pi)
    cases = [
        ControlledSpec(n_controls=0, axis="x", phi=np.pi, theta0=np.pi, tau=tau),
        ControlledSpec(n_controls=0, axis="y", phi=np.pi / 2, theta0=np.pi, tau=tau),
        ControlledSpec(n_controls=2, axis="x", phi=np.pi, theta0=np.pi, tau=tau),
    ]
    for spec in cases:
        hsa = cd_controlled(spec)
        psi = random_state(spec.n_system, rng)
        res = evolve(hsa, controlled_initial_state(psi), tau)
        fid = fidelity(res.final_state, controlled_target_state(psi, spec))
        assert fid >= 1 - 1e-6, (spec, fid)
        # theta0 = pi leaves the ancilla in |1> deterministically
        assert abs(measure_ancilla(res.final_state)[1].probability - 1.0) <= 1e-9
    half = ControlledSpec(n_controls=0, axis="x", phi=np.pi, theta0=np.pi / 2, tau=tau)
    res = evolve(cd_controlled(half), controlled_initial_state(random_state(1, rng)), tau)
    p1 = measure_ancilla(res.final_state)[1].probability
    assert abs(p1 - 0.5) <= 1e-6, p1
    _report(6, f"SCE gates exact; theta0=pi deterministic, theta0=pi/2 gives p1={p1:.8f}")


def test_criterion_07_cost_formulas():
    # single-gate closed form across the tau range
    for tau in np.geomspace(0.1, 100.0, 7):
        spec = ControlledSpec(n_controls=0, axis="x", phi=np.pi, theta0=np.pi, tau=tau)
        quad = energy_cost(cd_controlled(spec), grid=101)
        closed = sce_single_gate_cost(tau, np.pi)
        assert abs(quad / closed - 1.0) <= 1e-6, tau
    # sqrt(2^n) scaling for controlled gates, n = 1..3
    for n in (1, 2, 3):
        spec = ControlledSpec(n_controls=n, axis="x", phi=np.pi, theta0=np.pi, tau=0.5)
        quad = energy_cost(cd_controlled(spec), grid=101)
        assert abs(quad / sce_controlled_cost(0.5, np.pi, n) - 1.0) <= 1e-6, n
    # teleport sector scaling by quadrature: Sigma_2/Sigma_1 = 4, Sigma_3/Sigma_1 = 8 sqrt(3)
    sch = make_schedule("linear")
    tau = 0.8
    block = cd_teleport_block(sch, tau)
    sigma1 = energy_cost(block, grid=201)
    sigma2 = energy_cost(cd_tensor_sum([block] * 2), grid=201)
    sigma3 = energy_cost(cd_tensor_sum([block] * 3), grid=201)
    assert abs(sigma2 / sigma1 - 4.0) <= 1e-6
    assert abs(sigma3 / sigma1 - 8.0 * np.sqrt(3.0)) <= 1e-6
    # shortcut cost exceeds the adiabatic cost and converges to it
    for family in FAMILIES:
        s = make_schedule(family)
        ad = teleport_sigma_sing(s, None, grid=501)
        for tau_chk in (0.1, 1.0, 10.0):
            assert teleport_sigma_sing(s, tau_chk, grid=501) > ad
        assert abs(teleport_sigma_sing(s, 1e4, grid=501) / ad - 1.0) <= 1e-4
    assert abs(sce_single_gate_cost(1e4, np.pi) / cae_single_gate_cost() - 1.0) <= 1e-4
    _report(7, "closed-form costs, sector/control scalings, and adiabatic limits verified")


def test_criterion_08_quantum_speed_limit():
    rng = np.random.default_rng(108)
    reports = []
    for tau in TAUS:
        hsa = _teleport_shortcut(1, tau)
        psi0 = teleport_initial_state(random_state(1, rng), 1)
        reports.append(qsl_check(hsa, psi0, tau))
    hsa2 = _teleport_shortcut(2, 0.5)
    reports.append(
        qsl_check(hsa2, teleport_initial_state(random_state(2, rng), 2), 0.5, steps=8000)
    )
    spec = ControlledSpec(n_controls=1, axis="x", phi=np.pi, theta0=np.pi, tau=0.5)
    reports.append(
        qsl_check(cd_controlled(spec), controlled_initial_state(random_state(2, rng)), 0.5)
    )
    h_ad = teleport_sector_hamiltonian(make_schedule("linear"))
    reports.append(qsl_check(h_ad, teleport_initial_state(random_state(1, rng), 1), 0.5))
    assert all(rep.satisfied for rep in reports)
    # geometric slack of the bound for the tracked ground vector
    chi, rhs = qsl_ground_chi(teleport_block_hamiltonian(make_schedule("linear")))
    assert chi >= rhs - QSL_CHI_ATOL
    _report(8, f"QSL satisfied on every run; ground slack chi={chi:.6f} >= {rhs:.6f}")


def test_criterion_09_theta_optimizer():
    grid = (0.3, 0.7, 1.0, 2.5, 7.0, 40.0)
    thetas = []
    for omega_tau in grid:
        theta = theta_opt(omega_tau)
        thetas.append(theta)
        assert abs(stationarity_residual(theta, omega_tau)) <= 1e-5
        assert angle_feasible(theta)
    assert thetas == sorted(thetas)
    assert thetas[-1] < np.pi
    assert np.pi - thetas[-1] < 5e-3
    assert theta_opt_adiabatic() == np.pi
    costs = [probabilistic_cost(t, mode="adiabatic") for t in np.linspace(0.4, np.pi, 300)]
    assert int(np.argmin(costs)) == 299
    _report(9, f"optimal angle residuals <= 1e-5, monotone toward pi ({thetas[-1]:.5f} at 40)")


def test_criterion_10_selftest_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["selftest", "--out", str(a)]) == 0
    assert cli_main(["selftest", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _report(10, f"selftest reruns byte-identical ({len(a.read_bytes())} bytes)")
