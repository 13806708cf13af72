"""``evolve`` against the exact propagators of the closed-form shortcuts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import controlled_propagator, teleport_propagator
from sal import dynamics
from sal.counterdiabatic import cd_controlled, cd_teleport
from sal.dynamics import (
    STATE_TOL,
    controlled_initial_state,
    controlled_target_state,
    evolve,
    teleport_initial_state,
    teleport_target_state,
)
from sal.hamiltonians import ControlledSpec, TeleportSpec, gate
from sal.linalg import is_unitary, random_state
from sal.schedules import FAMILIES, make_schedule

TELEPORTS = ((1, None), (1, "H"), (2, "CNOT"), (3, "Toffoli"))


def state_error(res, exact) -> float:
    return float(np.max(np.linalg.norm(res.final_state - exact, axis=0)))


def test_oracles_reach_the_protocol_targets():
    rng = np.random.default_rng(40)
    for family in FAMILIES:
        for n, g in TELEPORTS:
            spec = TeleportSpec(n, make_schedule(family), gate=gate(g) if g else None)
            u = teleport_propagator(spec, 0.7)
            psi = random_state(n, rng)
            out = u @ teleport_initial_state(psi, n, gate=spec.gate)
            assert is_unitary(u)
            assert abs(abs(np.vdot(teleport_target_state(psi, n, gate=spec.gate), out)) - 1) < 1e-12
    for k in range(4):
        spec = ControlledSpec(k, axis=[1.0, 2.0, -0.5], phi=0.9, theta0=2.0, tau=0.7)
        u = controlled_propagator(spec)
        psi = random_state(k + 1, rng)
        out = u @ controlled_initial_state(psi)
        assert is_unitary(u)
        assert abs(abs(np.vdot(controlled_target_state(psi, spec), out)) - 1) < 1e-12


@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("family", FAMILIES)
def test_default_teleport_run_meets_the_tolerance(family, tau):
    rng = np.random.default_rng(41)
    for n, g in TELEPORTS:
        spec = TeleportSpec(n, make_schedule(family), gate=gate(g) if g else None)
        psi0 = teleport_initial_state(random_state(n, rng), n, gate=spec.gate)
        res = evolve(cd_teleport(spec, tau), psi0, tau)
        assert res.error_estimate <= STATE_TOL
        assert state_error(res, teleport_propagator(spec, tau) @ psi0) <= STATE_TOL


@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
def test_default_controlled_run_meets_the_tolerance(tau):
    rng = np.random.default_rng(42)
    for k in range(4):
        spec = ControlledSpec(k, axis="y", phi=np.pi / 2, theta0=2.0, tau=tau)
        psi0 = controlled_initial_state(random_state(k + 1, rng))
        res = evolve(cd_controlled(spec), psi0, tau)
        assert res.error_estimate <= STATE_TOL
        assert state_error(res, controlled_propagator(spec) @ psi0) <= STATE_TOL


def test_doubling_reaches_the_tolerance_from_a_low_start(monkeypatch):
    # sce at tau = 10 needs ~500 steps; started at 100, the search must double
    monkeypatch.setattr(dynamics, "default_steps", lambda h, tau: dynamics.MIN_STEPS)
    spec = ControlledSpec(3, axis="y", phi=np.pi / 2, theta0=2.0, tau=10.0)
    psi0 = controlled_initial_state(random_state(4, np.random.default_rng(44)))
    res = evolve(cd_controlled(spec), psi0)
    assert res.steps >= 4 * dynamics.MIN_STEPS
    assert res.error_estimate <= STATE_TOL
    assert state_error(res, controlled_propagator(spec) @ psi0) <= STATE_TOL


def test_given_steps_skip_the_estimate():
    spec = ControlledSpec(1, tau=1.0)
    res = evolve(cd_controlled(spec), controlled_initial_state(np.array([1.0, 0, 0, 0])), steps=200)
    assert res.steps == 200 and res.error_estimate is None


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


def oracle_e_tau(h, psi0, propagator, panels: int = 64) -> float:
    """int_0^1 |<psi0|H(s) U(s) psi0>| ds by Gauss-Legendre on each panel."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        s = a + 0.5 * (b - a) * (_NODES + 1.0)
        vals = [abs(np.vdot(psi0, h(x) @ (propagator(x) @ psi0))) for x in s]
        total += 0.5 * (b - a) * float(_WEIGHTS @ vals)
    return total


# Relative tolerance of E_tau per tau.  The tau = 1 cases keep 1e-10.  The
# others are about twice the larger of the errors read when E_tau walked H
# at every step end: 1.26e-10 (teleport) and 4.4e-13 (controlled) at
# tau = 0.1, where Simpson's rule dominates; 1.7e-16 and 2.6e-14 at tau = 100.
E_TAU_RTOL = {0.1: 2.5e-10, 1.0: 1e-10, 100.0: 5e-14}


def test_e_tau_matches_the_oracle_integral():
    # the default run's Simpson E_tau against a 1024-node quadrature of the exact
    # trajectory
    for tau, rtol in E_TAU_RTOL.items():
        rng = np.random.default_rng(43)
        spec = TeleportSpec(1, make_schedule("linear"))
        psi0 = teleport_initial_state(random_state(1, rng), 1)
        h = cd_teleport(spec, tau)
        res = evolve(h, psi0, track_qsl=True)
        want = oracle_e_tau(h, psi0, lambda s: teleport_propagator(spec, tau, s))
        assert abs(res.e_tau - want) <= rtol * want
        spec = ControlledSpec(3, tau=tau)
        psi0 = controlled_initial_state(random_state(4, rng))
        h = cd_controlled(spec)
        res = evolve(h, psi0, track_qsl=True)
        want = oracle_e_tau(h, psi0, lambda s: controlled_propagator(spec, s))
        assert abs(res.e_tau - want) <= rtol * want


# --- property tests over random inputs ------------------------------------------

TAUS = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)  # log-uniform in [1e-2, 1e2]
SEEDS = st.integers(0, 2**32 - 1)


def haar_unitary(d: int, rng) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_matches_oracle(h, psi0, exact):
    """Within ten times the step-doubling estimate, and unitary on the
    evolved states: their Gram matrix is kept."""
    res = evolve(h, psi0)
    assert state_error(res, exact) <= max(10 * res.error_estimate, 1e-12)
    gram = res.final_state.conj().T @ res.final_state
    assert np.max(np.abs(gram - psi0.conj().T @ psi0)) <= 1e-12


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), family=st.sampled_from(FAMILIES), tau=TAUS, gated=st.booleans(),
       seed=SEEDS)
def test_teleport_matches_oracle_within_estimate(n, family, tau, gated, seed):
    rng = np.random.default_rng(seed)
    spec = TeleportSpec(n, make_schedule(family), gate=haar_unitary(2**n, rng) if gated else None)
    psi0 = np.stack([teleport_initial_state(random_state(n, rng), n, gate=spec.gate)
                     for _ in range(2)], axis=1)
    assert_matches_oracle(cd_teleport(spec, tau), psi0, teleport_propagator(spec, tau) @ psi0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(k=st.integers(0, 3), tau=TAUS, theta0=st.floats(1e-3, np.pi),
       phi=st.floats(-np.pi, np.pi), seed=SEEDS)
def test_controlled_matches_oracle_within_estimate(k, tau, theta0, phi, seed):
    rng = np.random.default_rng(seed)
    spec = ControlledSpec(k, axis=rng.normal(size=3), phi=phi, theta0=theta0, tau=tau,
                          activation=int(rng.integers(2**k)))
    psi0 = np.stack([controlled_initial_state(random_state(k + 1, rng)) for _ in range(2)],
                    axis=1)
    assert_matches_oracle(cd_controlled(spec), psi0, controlled_propagator(spec) @ psi0)
