from dataclasses import replace

import numpy as np
import pytest

import sal
from sal.counterdiabatic import (
    cd_controlled,
    cd_generic,
    cd_rotate,
    cd_teleport,
    cd_teleport_block,
    cd_tensor_sum,
    spectral_frame,
)
from sal.dynamics import controlled_initial_state, evolve, teleport_initial_state
from sal.hamiltonians import (
    ControlledSpec,
    Linear,
    TeleportSpec,
    TensorSum,
    TimeDepHamiltonian,
    composite,
    controlled_hamiltonian,
    teleport_block_hamiltonian,
    teleport_hamiltonian,
    teleport_sector_hamiltonian,
)
from sal.linalg import embed, random_state, simpson
from sal.metrics import (
    STATIONARITY_RTOL,
    angle_feasible,
    cae_single_gate_cost,
    energy_cost,
    mean_repetitions,
    probabilistic_cost,
    qsl_check,
    qsl_ground_chi,
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
from sal.schedules import FAMILIES, make_schedule
from oracle import teleport_block_frame_deriv

# independent adaptive-quadrature values of int_0^1 sqrt(eta_i^2 + eta_f^2) ds
CHI_INTEGRAL = {"linear": 0.8116126200701153, "trig": 1.0, "exp": 0.7023756594167425}


# --- energy cost -----------------------------------------------------------------


def test_energy_cost_constant_pauli():
    h = TimeDepHamiltonian(dim=2, func=lambda s: np.multiply.outer(-np.ones_like(s), sal.Z))
    assert abs(energy_cost(h, grid=101) - np.sqrt(2.0)) < 1e-12


def _traced_leaf(dim, scale):
    """A leaf with a nonzero, s-dependent trace, so the tensor-sum cross terms count."""
    diag = np.diag(np.arange(1.0, dim + 1))
    return TimeDepHamiltonian(
        dim=dim, func=lambda s: np.multiply.outer(scale * s + 0.5, diag)
        + np.multiply.outer(1.0 - s, np.kron(np.eye(dim // 2), sal.X)),
    )


def _structured_cost_cases():
    sch = make_schedule("trig")
    block = cd_teleport_block(sch, 0.8)
    branches = controlled_hamiltonian(
        ControlledSpec(n_controls=2, axis="y", phi=1.0, theta0=2.0, tau=0.7)).parts
    traced_branches = replace(branches, parts=(_traced_leaf(2, 1.0), _traced_leaf(2, -3.0)))
    g = embed(sal.gate("CNOT"), [2, 5], 6)
    return {
        "sum": composite(TensorSum((_traced_leaf(2, 2.0), teleport_sector_hamiltonian(sch),
                                    _traced_leaf(4, -1.0)))),
        "shortcut sum": cd_tensor_sum([block] * 2),
        "rotation": cd_rotate(cd_tensor_sum([block] * 2), g),
        "branches": cd_controlled(ControlledSpec(n_controls=2, axis="y", phi=1.0, theta0=2.0,
                                                 tau=0.7)),
        "sum over branches": composite(TensorSum((_traced_leaf(2, 1.5),
                                                  composite(traced_branches)))),
    }


@pytest.mark.parametrize("name", sorted(_structured_cost_cases()))
def test_structured_energy_cost_matches_dense(name):
    h = _structured_cost_cases()[name]
    dense = TimeDepHamiltonian(dim=h.dim, func=h)  # the assembled operator, no tree
    assert abs(energy_cost(h, grid=201) / energy_cost(dense, grid=201) - 1.0) <= 1e-12


def _mixed_tree():
    """A Linear leaf with a trace, the teleport parity block and a dense leaf."""
    traced = TimeDepHamiltonian(dim=2, func=Linear(lambda s: np.stack([1.0 + s, s * s], axis=-1),
                                                   np.stack([np.eye(2, dtype=complex), sal.X])))
    return composite(TensorSum((traced, teleport_block_hamiltonian(make_schedule("trig")),
                                _traced_leaf(2, 2.0))))


def _gram_cases():
    cnot = TeleportSpec(2, make_schedule("linear"), gate=sal.gate("CNOT"))
    cases = {"mixed tree": _mixed_tree()}
    for tau in (1e-3, 1e3):
        cases[f"teleport tau={tau:g}"] = cd_teleport(cnot, tau)
        cases[f"controlled tau={tau:g}"] = cd_controlled(
            ControlledSpec(n_controls=1, axis="y", phi=1.0, theta0=2.0, tau=tau))
    for family in FAMILIES:
        cases[f"{family} drive"] = teleport_hamiltonian(TeleportSpec(1, make_schedule(family)))
        cases[f"{family} shortcut"] = cd_teleport_block(make_schedule(family), 0.8)
    return cases


@pytest.mark.parametrize("name", sorted(_gram_cases()))
def test_gram_path_matches_the_dense_path(name):
    h = _gram_cases()[name]
    dense = TimeDepHamiltonian(dim=h.dim, func=h)  # one dense leaf: no coefficient form
    assert abs(energy_cost(h) / energy_cost(dense) - 1.0) <= 1e-12


def test_coefficient_forms_are_costed_in_one_chunk_without_operators(monkeypatch):
    sch = make_schedule("exp")
    h = cd_teleport(TeleportSpec(3, sch, gate=sal.gate("Toffoli")), 0.5)
    mixed = _mixed_tree()
    want = energy_cost(mixed)
    points = []
    leaf_values = sal.metrics._leaf_square_and_trace

    def counted(leaf, form, s):
        points.append(len(s))
        return leaf_values(leaf, form, s)

    def no_operator(self, s):
        raise AssertionError("a coefficient form was evaluated densely")

    monkeypatch.setattr(sal.metrics, "_leaf_square_and_trace", counted)
    monkeypatch.setattr(Linear, "__call__", no_operator)
    assert abs(energy_cost(h) / teleport_cost(sch, 0.5, 3) - 1.0) <= 1e-12
    assert points == [2001]  # the one leaf the three sectors share, in one chunk
    points.clear()
    assert energy_cost(mixed) == want
    assert len(points) == 3 * 8 and max(points) == 256  # a dense leaf keeps the point chunks


@pytest.mark.parametrize("family", ["linear", "trig", "exp"])
def test_teleport_adiabatic_cost_closed_form(family):
    sch = make_schedule(family)
    h = teleport_sector_hamiltonian(sch)
    # ||H(s)|| = 4 chi(s), so Sigma_ad = 4 * int chi
    assert abs(energy_cost(h) - 4.0 * CHI_INTEGRAL[family]) < 1e-8
    assert abs(teleport_sigma_sing(sch, None) - 4.0 * CHI_INTEGRAL[family]) < 1e-8


@pytest.mark.parametrize("omega_tau", [0.1, 0.5, 2.0, 25.0, 100.0])
def test_sce_single_gate_cost_matches_quadrature(omega_tau):
    spec = ControlledSpec(n_controls=0, axis="x", phi=np.pi, theta0=np.pi, tau=omega_tau)
    hsa = cd_controlled(spec)
    quad = energy_cost(hsa, grid=101)
    closed = sce_single_gate_cost(omega_tau, np.pi)
    assert abs(quad - closed) < 1e-8  # the integrand is constant in s


@pytest.mark.parametrize("n_controls", [1, 2, 3])
def test_sce_controlled_cost_scaling(n_controls):
    tau, theta0 = 0.7, 2.0
    spec = ControlledSpec(n_controls=n_controls, axis="x", phi=np.pi, theta0=theta0, tau=tau)
    quad = energy_cost(cd_controlled(spec), grid=101)
    closed = sce_controlled_cost(tau, theta0, n_controls)
    assert abs(quad / closed - 1.0) < 1e-6
    assert abs(closed / sce_single_gate_cost(tau, theta0) - np.sqrt(2.0**n_controls)) < 1e-12


def test_teleport_cost_scale_values():
    assert teleport_cost_scale(1) == 1.0
    assert abs(teleport_cost_scale(2) - 4.0) < 1e-12
    assert abs(teleport_cost_scale(3) - 8.0 * np.sqrt(3.0)) < 1e-12


def test_teleport_sector_cost_ratio_by_quadrature():
    sch = make_schedule("linear")
    tau = 0.8
    single = cd_teleport_block(sch, tau)
    joint = cd_tensor_sum([single] * 2)
    grid = 501
    ratio = energy_cost(joint, grid=grid) / energy_cost(single, grid=grid)
    assert abs(ratio - 4.0) < 1e-6


def test_teleport_sigma_sing_matches_full_quadrature():
    sch = make_schedule("trig")
    tau = 0.6
    hsa = cd_teleport_block(sch, tau)
    assert abs(teleport_sigma_sing(sch, tau) / energy_cost(hsa) - 1.0) < 1e-6


@pytest.mark.parametrize("family", ["linear", "trig", "exp"])
def test_sigma_sing_integrand_is_the_frame_norm(family):
    # the closed-form integrand's 2 a'^2 is ||V'||_F^2 of the analytic frame
    sch = make_schedule(family)
    s = np.linspace(0, 1, 4097)
    dv = teleport_block_frame_deriv(sch, s)
    rate = sch.angle_rate(s)
    assert np.max(np.abs(2.0 * rate * rate / np.sum(dv * dv, axis=(-2, -1)) - 1.0)) <= 1e-13


def superadiabatic_cost(frame, tau: float) -> tuple[float, float]:
    """(Sigma_ad, Sigma_sa) from a spectral frame:
    Sigma_sa = int sqrt(sum_m [E_m^2 + mu_m / tau^2]) ds with the frame
    contribution mu_m = <d_s E_m|d_s E_m> - |<E_m|d_s E_m>|^2; the tau ->
    infinity limit recovers the adiabatic cost Sigma_ad."""
    dv = frame.derivative()
    grad2 = np.einsum("jin,jin->jn", dv.conj(), dv).real
    berry = np.einsum("jin,jin->jn", frame.vectors.conj(), dv)
    mu = grad2 - np.abs(berry) ** 2
    e2 = np.sum(frame.energies**2, axis=1)
    ds = frame.s_grid[1] - frame.s_grid[0]
    return simpson(np.sqrt(e2), ds), simpson(np.sqrt(e2 + np.sum(mu, axis=1) / tau**2), ds)


def test_superadiabatic_cost_report():
    sch = make_schedule("linear")
    h = teleport_sector_hamiltonian(sch)
    tau = 0.5
    frame = spectral_frame(h, grid=2001)
    sigma_ad, sigma_sa = superadiabatic_cost(frame, tau)
    hsa = cd_generic(h, tau, grid=2001)
    assert abs(sigma_sa / energy_cost(hsa) - 1.0) < 1e-6
    assert sigma_sa > sigma_ad
    assert abs(sigma_ad - 4.0 * CHI_INTEGRAL["linear"]) < 1e-6


def test_cost_decreases_with_runtime():
    sch = make_schedule("linear")
    vals = [teleport_sigma_sing(sch, tau, grid=501) for tau in (0.1, 0.5, 2.0, 10.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_adiabatic_limit_recovers_base_cost():
    sch = make_schedule("linear")
    ratio = teleport_sigma_sing(sch, 1e4) / teleport_sigma_sing(sch, None)
    assert abs(ratio - 1.0) < 1e-4
    spec_ratio = sce_single_gate_cost(1e4, np.pi) / cae_single_gate_cost()
    assert abs(spec_ratio - 1.0) < 1e-4


# --- probabilistic computation -----------------------------------------------------


def test_probabilistic_cost_adiabatic_at_pi():
    assert abs(probabilistic_cost(np.pi, mode="adiabatic") - 2.0) < 1e-12


def test_probabilistic_cost_superadiabatic_limits():
    assert abs(probabilistic_cost(np.pi, tau=1e9) - 2.0) < 1e-8
    # at omega*tau = theta0/2 the correction doubles the squared norm
    assert abs(probabilistic_cost(np.pi, tau=np.pi / 2) - 2.0 * np.sqrt(2.0)) < 1e-12


def test_probabilistic_cost_rejects_vanishing_angle():
    with pytest.raises(ValueError):
        probabilistic_cost(0.0, tau=1.0)
    with pytest.raises(ValueError):
        mean_repetitions(0.0)


def test_probabilistic_cost_needs_tau_for_shortcut():
    with pytest.raises(ValueError):
        probabilistic_cost(np.pi)


@pytest.mark.parametrize("tau", [0.0, -1.0, np.nan])
def test_closed_form_costs_reject_a_bad_tau(tau):
    sch = make_schedule("linear")
    for cost in (lambda: sce_single_gate_cost(tau, np.pi),
                 lambda: sce_controlled_cost(tau, np.pi, 2),
                 lambda: probabilistic_cost(np.pi, tau=tau),
                 lambda: teleport_sigma_sing(sch, tau),
                 lambda: teleport_cost(sch, tau, 2)):
        with pytest.raises(ValueError, match="tau must be positive"):
            cost()
    # None is the adiabatic limit, and a huge tau approaches it
    assert teleport_cost(sch, 1e308) == teleport_cost(sch, None)
    assert sce_single_gate_cost(1e308, np.pi) == cae_single_gate_cost()


@pytest.mark.parametrize("tau", [None, 0.5])
def test_teleport_sigma_sing_is_a_norm_for_either_sign_of_omega(tau):
    # a drive at frequency omega, with the shortcut of runtime tau, costs
    # |omega| times the unit cost at |omega| tau, whichever the sign of omega
    sch = make_schedule("trig")
    drive = teleport_sector_hamiltonian(sch)
    shortcut = (lambda s: 0.0) if tau is None else cd_teleport_block(sch, tau).cd
    unit = teleport_sigma_sing(sch, None if tau is None else 2.0 * tau)
    costs = [energy_cost(TimeDepHamiltonian(dim=drive.dim,
                                            func=lambda s, w=omega: w * drive(s) + shortcut(s)))
             for omega in (-2.0, 2.0)]
    assert abs(costs[0] / costs[1] - 1.0) < 1e-12
    for cost in costs:
        assert abs(cost / (2.0 * unit) - 1.0) < 1e-6


@pytest.mark.parametrize("grid", [3, 99, 500])
def test_teleport_sigma_sing_takes_the_energy_cost_grids(grid):
    with pytest.raises(ValueError, match="grid must be odd and >= 101"):
        teleport_sigma_sing(make_schedule("linear"), 1.0, grid=grid)


@pytest.mark.parametrize("grid", [101.5, 2001.0, True])
def test_cost_grids_are_integers(grid):
    # a float or bool grid is rejected where it enters, naming the argument
    sch = make_schedule("linear")
    for cost in (lambda: energy_cost(cd_teleport_block(sch, 1.0), grid=grid),
                 lambda: teleport_sigma_sing(sch, 1.0, grid=grid)):
        with pytest.raises(ValueError, match=f"grid must be an integer, got {grid!r}"):
            cost()


# --- optimal success angle -----------------------------------------------------------


def test_theta_opt_residual_and_feasibility():
    for omega_tau in (0.2, 1.0, 3.0, 50.0):
        theta = theta_opt(omega_tau)
        assert abs(stationarity_residual(theta, omega_tau)) <= 1e-5
        assert angle_feasible(theta)
        assert theta < np.pi
    for omega_tau in np.logspace(-12, 150, 500):
        assert relative_residual(theta_opt(omega_tau), omega_tau) <= STATIONARITY_RTOL


def test_theta_opt_inverts_the_closed_relation():
    # at a critical angle, omega*tau = (sqrt(theta)/2) sqrt(tan(theta/2) - theta)
    for theta in (2.5, 2.8, 3.0, 3.1):
        omega_tau = 0.5 * np.sqrt(theta) * np.sqrt(np.tan(theta / 2) - theta)
        assert abs(theta_opt(omega_tau) - theta) < 1e-6


def test_theta_opt_monotone_toward_pi():
    grid = [1.0, 2.0, 4.0, 8.0, 30.0, 200.0]
    thetas = [theta_opt(w) for w in grid]
    assert thetas == sorted(thetas)
    assert np.pi - thetas[-1] < 1e-2


def test_theta_half_pi_not_feasible():
    assert np.tan(np.pi / 4) == pytest.approx(1.0)
    assert not angle_feasible(np.pi / 2)


def test_adiabatic_optimum_is_pi():
    assert theta_opt_adiabatic() == np.pi
    grid = np.linspace(0.5, np.pi, 200)
    costs = np.array([probabilistic_cost(t, mode="adiabatic") for t in grid])
    assert np.argmin(costs) == len(grid) - 1


def test_mean_cost_convex_in_theta0():
    for omega_tau in (0.5, 2.0):
        grid = np.linspace(0.3, np.pi, 400)
        vals = np.array([probabilistic_cost(t, tau=omega_tau) for t in grid])
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert second.min() > 0


# --- quantum speed limit ---------------------------------------------------------------


def test_qsl_stationary_evolution():
    h = TimeDepHamiltonian(dim=2, func=lambda s: np.zeros(np.shape(s) + (2, 2), dtype=complex))
    rep = qsl_check(h, np.array([1.0, 0.0]), tau=1.0, steps=200)
    assert rep.e_tau == 0.0
    assert rep.bound == 0.0
    assert rep.satisfied


def test_qsl_satisfied_for_fast_teleport_shortcut():
    sch = make_schedule("linear")
    hsa = cd_teleport_block(sch, 0.1)
    rng = np.random.default_rng(0)
    psi0 = teleport_initial_state(random_state(1, rng), 1)
    rep = qsl_check(hsa, psi0, 0.1)
    assert rep.satisfied
    assert rep.bound <= 0.1 + 1e-9


def test_qsl_satisfied_for_adiabatic_run():
    sch = make_schedule("linear")
    h = teleport_sector_hamiltonian(sch)
    rng = np.random.default_rng(1)
    psi0 = teleport_initial_state(random_state(1, rng), 1)
    rep = qsl_check(h, psi0, 0.5)
    assert rep.satisfied


def test_qsl_ground_chi_inequality():
    sch = make_schedule("linear")
    frame = spectral_frame(teleport_sector_hamiltonian(sch), grid=2001)
    chi, rhs = qsl_ground_chi(frame)
    assert chi >= rhs - 1e-6
    # traversal turns the tracked ground vector by 60 degrees: cos L = 1/2
    assert abs(rhs - 0.5) < 1e-6


def test_qsl_satisfied_for_sce():
    spec = ControlledSpec(n_controls=1, axis="x", phi=np.pi, theta0=np.pi, tau=0.25)
    hsa = cd_controlled(spec)
    rng = np.random.default_rng(2)
    psi0 = controlled_initial_state(random_state(2, rng))
    rep = qsl_check(hsa, psi0, 0.25)
    assert rep.satisfied


def test_qsl_check_reports_each_column_of_a_block():
    spec = ControlledSpec(n_controls=1, axis="x", phi=np.pi, theta0=2.0, tau=0.25)
    hsa = cd_controlled(spec)
    rng = np.random.default_rng(3)
    states = [controlled_initial_state(random_state(2, rng)) for _ in range(3)]
    block = np.stack(states, axis=1)
    reps = qsl_check(hsa, block, 0.25, steps=400)
    assert len(reps) == 3
    for psi0, rep in zip(states, reps):
        single = qsl_check(hsa, psi0, 0.25, steps=400)
        for field in ("bures_angle", "e_tau", "bound"):
            assert abs(getattr(rep, field) - getattr(single, field)) <= 1e-12
        assert rep.satisfied and single.satisfied
    # one scalar E_tau stands for every column
    res = evolve(hsa, block, 0.25, steps=400, track_qsl=True)
    assert [rep.e_tau for rep in qsl_report(replace(res, e_tau=0.5))] == [0.5] * 3


def test_qsl_report_reads_the_runs_own_initial_state():
    # evolve keeps a copy of its checked input, so a caller that reuses its
    # array afterwards does not change the report
    spec = ControlledSpec(n_controls=0, axis="x", phi=np.pi, theta0=2.0, tau=0.25)
    h = cd_controlled(spec)
    want = controlled_initial_state(random_state(1, np.random.default_rng(5)))
    psi0 = want.copy()
    res = evolve(h, psi0, 0.25, steps=200, n_samples=0, track_qsl=True)
    psi0[:] = 0.0
    assert np.array_equal(res.initial_state, want)
    assert qsl_report(res) == qsl_check(h, want, 0.25, steps=200)


def test_a_non_finite_e_tau_does_not_satisfy_the_speed_limit():
    # an E_tau that overflowed would give the vacuous bound 0 <= tau
    spec = ControlledSpec(n_controls=0, axis="x", phi=np.pi, theta0=2.0, tau=0.25)
    psi0 = controlled_initial_state(random_state(1, np.random.default_rng(4)))
    res = evolve(cd_controlled(spec), psi0, 0.25, steps=200, track_qsl=True)
    assert qsl_report(res).satisfied
    for e_tau in (np.inf, np.nan):
        assert not qsl_report(replace(res, e_tau=e_tau)).satisfied

