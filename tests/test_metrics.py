import numpy as np
import pytest
from numpy.polynomial import legendre

import sal
import sal.metrics
from sal.counterdiabatic import (
    cd_controlled,
    cd_generic,
    cd_rotate,
    cd_teleport,
    cd_teleport_block,
    cd_tensor_sum,
)
from sal.dynamics import ToleranceError, controlled_initial_state, evolve, teleport_initial_state
from sal.hamiltonians import (
    Branches,
    ControlledSpec,
    Linear,
    TeleportSpec,
    TensorSum,
    TimeDepHamiltonian,
    X,
    Z,
    composite,
    controlled_branch,
    controlled_hamiltonian,
    teleport_block_hamiltonian,
    teleport_hamiltonian,
    teleport_sector_hamiltonian,
)
from sal.linalg import embed, random_state, simpson
from sal.metrics import (
    DEFAULT_GRID,
    QSL_CHI_ATOL,
    STATIONARITY_RTOL,
    _GL_NODES,
    _GL_WEIGHTS,
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
    traced_branches = Branches(branches.projectors, (_traced_leaf(2, 1.0), _traced_leaf(2, -3.0)))
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


def closed_form_error() -> float:
    """The largest relative distance of ``teleport_sigma_sing`` from a
    16-node Gauss-Legendre rule on 200 panels, over every family and tau
    from the adiabatic limit down to 1e-300 and up to 1e300."""
    t, w = legendre.leggauss(16)
    nodes, weights = (np.arange(200)[:, None] + (t + 1) / 2).ravel() / 200, np.tile(w / 400, 200)
    worst = 0.0
    for family in FAMILIES:
        sch = make_schedule(family)
        _, chi, rate = sch.polar(nodes)
        for tau in (None, 1e-300, 1e-3, 0.01, 0.5, 5.0, 1e4, 1e300):
            ref = 2.0 * np.sum(weights * np.hypot(2.0 * chi, 0.0 if tau is None else rate / tau))
            worst = max(worst, abs(teleport_sigma_sing(sch, tau) / ref - 1.0))
    return worst


def test_the_node_table_is_the_32_node_gauss_legendre_rule():
    t, w = legendre.leggauss(32)
    assert np.max(np.abs(_GL_NODES - (t + 1) / 2)) <= 4e-16
    assert np.max(np.abs(_GL_WEIGHTS - w / 2)) <= 4e-16


def test_the_teleport_closed_form_is_converged():
    assert closed_form_error() <= 2e-15


def test_the_convergence_check_catches_a_16_node_rule(monkeypatch):
    t, w = legendre.leggauss(16)
    monkeypatch.setattr(sal.metrics, "_GL_NODES", (t + 1) / 2)
    monkeypatch.setattr(sal.metrics, "_GL_WEIGHTS", w / 2)
    assert closed_form_error() > 1e-9


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
    _, _, rate = sch.polar(s)
    assert np.max(np.abs(2.0 * rate * rate / np.sum(dv * dv, axis=(-2, -1)) - 1.0)) <= 1e-13


def superadiabatic_cost(h, tau: float) -> tuple[float, float]:
    """(Sigma_ad, Sigma_sa) from the eigenframe of H(s):
    Sigma_sa = int sqrt(sum_m [E_m^2 + mu_m / tau^2]) ds with the frame
    contribution mu_m = <d_s E_m|d_s E_m> - |<E_m|d_s E_m>|^2, where
    d_s|E_m> = -i H_cd(s)|E_m> with H_cd from ``cd_generic(h, 1)``; the
    tau -> infinity limit recovers the adiabatic cost Sigma_ad."""
    s = np.linspace(0.0, 1.0, 2001)
    energies, v = np.linalg.eigh(h(s))
    dv = -1j * cd_generic(h, 1.0).cd(s) @ v
    grad2 = np.einsum("jin,jin->jn", dv.conj(), dv).real
    berry = np.einsum("jin,jin->jn", v.conj(), dv)
    mu = grad2 - np.abs(berry) ** 2
    e2 = np.sum(energies**2, axis=1)
    ds = s[1] - s[0]
    return simpson(np.sqrt(e2), ds), simpson(np.sqrt(e2 + np.sum(mu, axis=1) / tau**2), ds)


def test_superadiabatic_cost_report():
    sch = make_schedule("linear")
    h = teleport_sector_hamiltonian(sch)
    tau = 0.5
    sigma_ad, sigma_sa = superadiabatic_cost(h, tau)
    hsa = cd_generic(h, tau)
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


def test_theta_opt_misses_raise_tolerance_error(monkeypatch):
    # a failed guard is a numerical search that missed its tolerance, which
    # the command line maps to exit 2, not a bad argument
    nan = float("nan")
    monkeypatch.setattr(sal.metrics, "relative_residual", lambda *a: nan)
    with pytest.raises(ToleranceError, match="relative bisection residual above"):
        theta_opt(1.0)
    monkeypatch.setattr(sal.metrics, "stationarity_residual", lambda *a: nan)
    with pytest.raises(ToleranceError, match="no bracket for the optimal angle"):
        theta_opt(1.0)


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
    chi, rhs = qsl_ground_chi(teleport_block_hamiltonian(sch))
    assert chi >= rhs - QSL_CHI_ATOL
    # traversal turns the tracked ground vector by 60 degrees: cos L = 1/2
    assert abs(rhs - 0.5) < 1e-6


@pytest.mark.parametrize("family", ["linear", "trig", "exp"])
def test_qsl_ground_chi_is_exact_on_the_teleport_block(family):
    # the block's ground vector turns by 60 degrees in one plane, away from
    # where it started all the way: chi = |cos L - 1| = 1/2
    chi, rhs = qsl_ground_chi(teleport_block_hamiltonian(make_schedule(family)))
    assert abs(chi - 0.5) <= 1e-13 and abs(rhs - 0.5) <= 1e-13


@pytest.mark.parametrize("theta0", [np.pi, 2.0])
def test_qsl_ground_chi_is_exact_on_the_controlled_branch(theta0):
    # the branch's Bloch vector turns by theta0, its ground vector by theta0 / 2
    chi, rhs = qsl_ground_chi(controlled_branch(ControlledSpec(0, theta0=theta0)))
    want = 1.0 - np.cos(theta0 / 2.0)
    assert abs(chi - want) <= 1e-13 and abs(rhs - want) <= 1e-13


def test_qsl_ground_chi_integrates_a_turn_past_pi():
    # cos(a s) Z + sin(a s) X turns its ground vector by a s / 2, so
    # |<ref|d_s v>| = (a / 2) |sin(a s / 2)| and chi = int_0^(a/2) |sin u| du:
    # 1 - cos 1.5 = |cos L - 1| at a = 3, where the turn stays below pi / 2,
    # and 3 + cos 4 at a = 8, where |<ref|v(1)>| = |cos 4| leaves chi well
    # above |cos L - 1|; the kink of |sin| at pi costs Simpson's rule accuracy
    for a, want, tol in ((3.0, 1.0 - np.cos(1.5), 1e-13), (8.0, 3.0 + np.cos(4.0), 1e-6)):
        h = TimeDepHamiltonian(
            dim=2,
            func=lambda s: (np.multiply.outer(np.cos(a * s), Z)
                            + np.multiply.outer(np.sin(a * s), X)),
            deriv=lambda s: a * (np.multiply.outer(np.cos(a * s), X)
                                 - np.multiply.outer(np.sin(a * s), Z)),
        )
        chi, rhs = qsl_ground_chi(h)
        assert abs(chi - want) <= tol, a
        assert abs(rhs - (1.0 - abs(np.cos(a / 2)))) <= 1e-13, a


def _crossing(c: float) -> TimeDepHamiltonian:
    """H = (c - s) Z, whose levels cross at s = c."""
    return TimeDepHamiltonian(dim=2, func=lambda s: np.multiply.outer(c - s, Z),
                              deriv=lambda s: np.multiply.outer(np.full(np.shape(s), -1.0), Z))


def test_qsl_ground_chi_refuses_a_crossing_between_grid_points():
    # the ground vector swaps |1> for |0> between two grid points while
    # d_s H stays diagonal: chi = 0 but |cos L - 1| = 1
    with pytest.raises(ToleranceError, match=r"chi=0 below \|cos L - 1\|=1"):
        qsl_ground_chi(_crossing(0.5 + 1.0 / 8000))


def test_qsl_ground_chi_names_a_crossing_on_a_grid_point():
    with pytest.raises(ToleranceError, match=r"degeneracy pattern changes at s=0\.5000"):
        qsl_ground_chi(_crossing(0.5))


def test_qsl_ground_chi_eigendecomposes_each_point_once(monkeypatch):
    # H(s) and its eigenvectors serve both the ground column and its
    # derivative: 2001 grid points plus s = 0, counted through every module's
    # eigh, each point once
    points = []

    def counted(h):
        points.append(int(np.prod(np.shape(h)[:-2])))
        return np.linalg.eigh(h)

    for module in (sal.linalg, sal.counterdiabatic, sal.hamiltonians, sal.metrics):
        monkeypatch.setattr(module, "eigh", counted, raising=False)
    qsl_ground_chi(teleport_block_hamiltonian(make_schedule("linear")))
    assert sum(points) == DEFAULT_GRID + 1, sum(points)


def test_qsl_ground_chi_refuses_a_degenerate_ground_level():
    # the teleport sector's levels are pairs: eigh picks any basis of the
    # ground pair, so no ground vector is determined
    with pytest.raises(ValueError, match="ground level is degenerate at s=0"):
        qsl_ground_chi(teleport_sector_hamiltonian(make_schedule("linear")))


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
    res.e_tau = 0.5
    assert [rep.e_tau for rep in qsl_report(res)] == [0.5] * 3


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
    assert vars(qsl_report(res)) == vars(qsl_check(h, want, 0.25, steps=200))


def test_speed_limit_slack_is_rounding_only():
    # tau one part in 1e6 below a bound of ~0.3 breaks the limit; the slack
    # under the bound absorbs rounding, not a miss that size
    psi0, final = np.array([1.0, 0.0]), np.array([np.cos(1.0), np.sin(1.0)])
    e_tau = (1.0 - np.cos(1.0)) / 0.3
    bound = sal.metrics._qsl_report(1.0, psi0, final, e_tau).bound
    assert abs(bound - 0.3) <= 1e-12
    assert sal.metrics._qsl_report(bound, psi0, final, e_tau).satisfied
    assert not sal.metrics._qsl_report(bound * (1.0 - 1e-6), psi0, final, e_tau).satisfied


def test_a_non_finite_e_tau_does_not_satisfy_the_speed_limit():
    # an E_tau that overflowed would give the vacuous bound 0 <= tau
    spec = ControlledSpec(n_controls=0, axis="x", phi=np.pi, theta0=2.0, tau=0.25)
    psi0 = controlled_initial_state(random_state(1, np.random.default_rng(4)))
    res = evolve(cd_controlled(spec), psi0, 0.25, steps=200, track_qsl=True)
    assert qsl_report(res).satisfied
    for e_tau in (np.inf, np.nan):
        res.e_tau = e_tau
        assert not qsl_report(res).satisfied

