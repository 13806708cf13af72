"""Time evolution, fidelities, measurement, and protocol target states.

The integrator advances |psi> with midpoint-frozen exponentials,
psi <- exp(-i H((j+1/2)/N) tau/N) psi, which is unitary at every step.
When the Hamiltonian carries structure hints (constant rotation,
non-interacting tensor factors, orthogonal ancilla branches) the step
unitaries factorize exactly, and the engine exploits that; the result is
identical to the dense path up to floating-point roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .counterdiabatic import SuperadiabaticHamiltonian
from .hamiltonians import ControlledSpec, TimeDepHamiltonian, bell_state
from .linalg import embed, state_from_factors

MIN_STEPS = 100
_STEPS_PER_UNIT_ACTION = 2000


@dataclass(frozen=True)
class EvolutionResult:
    """Final state plus the sampled instantaneous-ground-level fidelity."""

    final_state: np.ndarray
    s_samples: np.ndarray
    ground_fidelity: np.ndarray
    tau: float
    steps: int
    e_tau: Optional[float] = None
    states: Optional[np.ndarray] = None  # sampled states when requested


@dataclass(frozen=True)
class MeasurementOutcome:
    branch: int
    probability: float
    post_state: Optional[np.ndarray]  # None flags an undefined (p=0) branch


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    if a.shape != b.shape:
        raise ValueError(f"state shapes differ: {a.shape} vs {b.shape}")
    return float(np.abs(np.vdot(a, b)) ** 2)


def _total_func(h):
    if isinstance(h, SuperadiabaticHamiltonian):
        return h.total
    return h.func if isinstance(h, TimeDepHamiltonian) else h


def _spectral_norm_max(h, samples: int = 17) -> float:
    if isinstance(h, SuperadiabaticHamiltonian) and h.kron_factors is not None:
        return sum(_spectral_norm_max(f) for f in h.kron_factors)
    if isinstance(h, TimeDepHamiltonian) and h.kron_factors is not None:
        return sum(_spectral_norm_max(f) for f in h.kron_factors)
    branches = getattr(h, "branch_funcs", None)
    if branches is not None:
        return max(
            max(np.max(np.abs(np.linalg.eigvalsh(f(s)))) for s in np.linspace(0, 1, samples))
            for f in branches
        )
    func = _total_func(h)
    return max(
        float(np.max(np.abs(np.linalg.eigvalsh(func(s)))))
        for s in np.linspace(0.0, 1.0, samples)
    )


def default_steps(h, tau: float) -> int:
    """Step count keeping the per-step action below 1/2000, floor 2000."""
    return max(_STEPS_PER_UNIT_ACTION, int(np.ceil(_STEPS_PER_UNIT_ACTION * _spectral_norm_max(h) * tau)))


def _sample_indices(steps: int, n_samples: int) -> np.ndarray:
    return np.unique(np.round(np.linspace(0, steps, n_samples)).astype(int))


def _step_unitary(h_mid: np.ndarray, dt: float) -> np.ndarray:
    lam, v = np.linalg.eigh(h_mid)
    return (v * np.exp(-1j * lam * dt)) @ v.conj().T


def _ground_projection(total_func, s: float, psi: np.ndarray, cluster_tol: float = 1e-8):
    """Weight of psi (vector or column block) in the lowest degenerate level."""
    lam, vec = np.linalg.eigh(total_func(s))
    scale = max(1.0, float(np.max(np.abs(lam))))
    k = int(np.searchsorted(lam, lam[0] + cluster_tol * scale))
    amps = vec[:, :k].conj().T @ psi
    return np.real(np.sum(amps.conj() * amps, axis=0))


def evolve(
    h,
    psi0: np.ndarray,
    tau: Optional[float] = None,
    steps: Optional[int] = None,
    n_samples: int = 33,
    track_qsl: bool = False,
    keep_states: bool = False,
) -> EvolutionResult:
    """Integrate the Schrodinger dynamics of H(t/tau) from t=0 to t=tau.

    ``h`` is a TimeDepHamiltonian or SuperadiabaticHamiltonian; ``psi0`` may
    be a single state or a (dim, m) block of states propagated jointly.
    ``track_qsl`` additionally accumulates
    E_tau = (1/tau) integral |<psi(0)|H(t)|psi(t)>| dt at step resolution
    (single-state input only).

    The base Hamiltonian here is the one whose instantaneous ground level is
    tracked for the trajectory fidelity; for a shortcut Hamiltonian that is
    the driving part without the counter-diabatic correction.
    """
    h_tau = getattr(h, "tau", None)
    if tau is None:
        if h_tau is None:
            raise ValueError("tau is required for a plain Hamiltonian")
        tau = h_tau
    elif h_tau is not None and abs(h_tau - tau) > 1e-12 * max(1.0, abs(tau)):
        raise ValueError(
            f"tau={tau} does not match the shortcut construction (tau={h_tau}); "
            "the counter-diabatic term is runtime-specific"
        )
    if tau <= 0:
        raise ValueError("tau must be positive")
    psi0 = np.asarray(psi0, dtype=complex)
    dim = psi0.shape[0]
    if getattr(h, "dim", dim) != dim:
        raise ValueError(f"state dim {dim} does not match Hamiltonian dim {h.dim}")
    if steps is None:
        steps = default_steps(h, tau)
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be >= {MIN_STEPS}")
    if track_qsl and psi0.ndim != 1:
        raise ValueError("QSL tracking needs a single input state")

    rotation = getattr(h, "rotation", None)
    if rotation is not None:
        inner = h.inner
        res = evolve(inner, rotation.conj().T @ psi0, tau, steps, n_samples, track_qsl, keep_states)
        rotated_states = None
        if res.states is not None:
            rotated_states = np.einsum("ab,jb...->ja...", rotation, res.states)
        return EvolutionResult(
            final_state=rotation @ res.final_state,
            s_samples=res.s_samples,
            ground_fidelity=res.ground_fidelity,
            tau=tau,
            steps=res.steps,
            e_tau=res.e_tau,
            states=rotated_states,
        )

    sample_idx = _sample_indices(steps, n_samples)
    if getattr(h, "kron_factors", None) is not None:
        states, e_tau = _run_kron(h, psi0, tau, steps, sample_idx, track_qsl)
    elif getattr(h, "branch_projectors", None) is not None and psi0.ndim == 1:
        states, e_tau = _run_branches(h, psi0, tau, steps, sample_idx, track_qsl)
    else:
        states, e_tau = _run_dense(h, psi0, tau, steps, sample_idx, track_qsl)

    base_func = h.base.func if isinstance(h, SuperadiabaticHamiltonian) else _total_func(h)
    s_samples = sample_idx / steps
    ground = np.array(
        [_ground_projection(base_func, s, psi) for s, psi in zip(s_samples, states)]
    )
    return EvolutionResult(
        final_state=states[-1],
        s_samples=s_samples,
        ground_fidelity=ground,
        tau=tau,
        steps=steps,
        e_tau=e_tau,
        states=np.stack(states) if keep_states else None,
    )


def _qsl_increment(h_psi_mid: np.ndarray, psi0: np.ndarray, dt: float) -> float:
    return float(np.abs(np.vdot(psi0, h_psi_mid))) * dt


def _run_dense(h, psi0, tau, steps, sample_idx, track_qsl, chunk: int = 2048):
    func = _total_func(h)
    dt = tau / steps
    ds = 1.0 / steps
    chunk = max(1, min(chunk, 2**24 // (psi0.shape[0] ** 2)))  # cap scratch memory
    psi = psi0.copy()
    states = [psi0.copy()] if sample_idx[0] == 0 else []
    acc = 0.0
    j = 0
    sample_set = set(int(i) for i in sample_idx)
    dim = psi0.shape[0]
    while j < steps:
        m = min(chunk, steps - j)
        hs = np.empty((m, dim, dim), dtype=complex)
        for k in range(m):
            hs[k] = func((j + k + 0.5) * ds)
        lam, v = np.linalg.eigh(hs)
        phases = np.exp(-1j * lam * dt)
        for k in range(m):
            prev = psi
            psi = (v[k] * phases[k]) @ (v[k].conj().T @ psi)
            if track_qsl:
                mid = 0.5 * (prev + psi)
                acc += _qsl_increment((v[k] * lam[k]) @ (v[k].conj().T @ mid), psi0, dt)
            if (j + k + 1) in sample_set:
                states.append(psi.copy())
        j += m
    return states, (acc / tau if track_qsl else None)


def _run_kron(h, psi0, tau, steps, sample_idx, track_qsl):
    factors = h.kron_factors
    dims = [f.dim for f in factors]
    dt = tau / steps
    ds = 1.0 / steps
    # accumulate one unitary product per distinct factor object
    uniq: dict[int, np.ndarray] = {}
    funcs: dict[int, object] = {}
    for f in factors:
        if id(f) not in uniq:
            uniq[id(f)] = np.eye(f.dim, dtype=complex)
            funcs[id(f)] = _total_func(f)

    def assemble() -> np.ndarray:
        u = np.array([[1.0 + 0j]])
        for f in factors:
            u = np.kron(u, uniq[id(f)])
        return u

    states = [psi0.copy()] if sample_idx[0] == 0 else []
    sample_set = set(int(i) for i in sample_idx)
    acc = 0.0
    psi_prev = psi0
    for j in range(steps):
        s_mid = (j + 0.5) * ds
        for key, func in funcs.items():
            uniq[key] = _step_unitary(func(s_mid), dt) @ uniq[key]
        if track_qsl:
            psi_next = assemble() @ psi0
            mid = 0.5 * (psi_prev + psi_next)
            h_mid = _total_func(h)(s_mid)
            acc += _qsl_increment(h_mid @ mid, psi0, dt)
            psi_prev = psi_next
        if (j + 1) in sample_set:
            states.append(assemble() @ psi0)
    return states, (acc / tau if track_qsl else None)


def _run_branches(h, psi0, tau, steps, sample_idx, track_qsl):
    projectors = h.branch_projectors
    funcs = h.branch_funcs
    dim_anc = funcs[0](0.0).shape[0]
    dim_sys = psi0.shape[0] // dim_anc
    dt = tau / steps
    ds = 1.0 / steps
    mats0 = [p @ psi0.reshape(dim_sys, dim_anc) for p in projectors]
    prods = [np.eye(dim_anc, dtype=complex) for _ in funcs]

    def assemble() -> np.ndarray:
        out = np.zeros((dim_sys, dim_anc), dtype=complex)
        for mat, u in zip(mats0, prods):
            out += mat @ u.T
        return out.reshape(-1)

    states = [psi0.copy()] if sample_idx[0] == 0 else []
    sample_set = set(int(i) for i in sample_idx)
    acc = 0.0
    psi_prev = psi0
    for j in range(steps):
        s_mid = (j + 0.5) * ds
        hs = [f(s_mid) for f in funcs]
        for i, hb in enumerate(hs):
            prods[i] = _step_unitary(hb, dt) @ prods[i]
        if track_qsl:
            psi_next = assemble()
            mid = 0.5 * (psi_prev + psi_next).reshape(dim_sys, dim_anc)
            h_mid = sum(p @ mid @ hb.T for p, hb in zip(projectors, hs)).reshape(-1)
            acc += _qsl_increment(h_mid, psi0, dt)
            psi_prev = psi_next
        if (j + 1) in sample_set:
            states.append(assemble())
    return states, (acc / tau if track_qsl else None)


# --- measurement -------------------------------------------------------------


def measure_ancilla(joint: np.ndarray) -> list[MeasurementOutcome]:
    """Projective measurement of the last qubit in the computational basis."""
    if joint.ndim != 1 or joint.size % 2:
        raise ValueError("expected a state vector over at least one qubit")
    mat = joint.reshape(-1, 2)
    outcomes = []
    for branch in (0, 1):
        amp = mat[:, branch]
        p = float(np.real(np.vdot(amp, amp)))
        post = amp / np.sqrt(p) if p > 1e-30 else None
        outcomes.append(MeasurementOutcome(branch=branch, probability=p, post_state=post))
    return outcomes


# --- protocol states ----------------------------------------------------------


def teleport_initial_state(
    psi: np.ndarray, n_sectors: int, gate: Optional[np.ndarray] = None
) -> np.ndarray:
    """|psi_n> on the data qubits with a Bell pair per channel; a gate, when
    present, pre-rotates Bob's half of the channel."""
    n_qubits = 3 * n_sectors
    factors = [(np.asarray(psi, dtype=complex), [3 * k for k in range(n_sectors)])]
    for k in range(n_sectors):
        factors.append((bell_state(0, 0), [3 * k + 1, 3 * k + 2]))
    state = state_from_factors(factors, n_qubits)
    if gate is not None:
        bob = [3 * k + 2 for k in range(n_sectors)]
        state = embed(gate, bob, n_qubits) @ state
    return state


def teleport_target_state(
    psi: np.ndarray, n_sectors: int, gate: Optional[np.ndarray] = None
) -> np.ndarray:
    """Bell pairs on (data, Alice) with (gate @ psi) deposited on Bob."""
    n_qubits = 3 * n_sectors
    out = np.asarray(psi, dtype=complex)
    if gate is not None:
        out = gate @ out
    factors = [(out, [3 * k + 2 for k in range(n_sectors)])]
    for k in range(n_sectors):
        factors.append((bell_state(0, 0), [3 * k, 3 * k + 1]))
    return state_from_factors(factors, n_qubits)


def controlled_rotation_operator(spec: ControlledSpec) -> np.ndarray:
    """The rotation selected by the activation projector,
    R = [1 - P] + e^{i phi} P on the target subsystem."""
    p_act = spec.activation_projector()
    eye = np.eye(p_act.shape[0], dtype=complex)
    return eye + (np.exp(1j * spec.phi) - 1.0) * p_act


def controlled_initial_state(psi_system: np.ndarray) -> np.ndarray:
    """Append the ancilla in |0>."""
    return np.kron(np.asarray(psi_system, dtype=complex), np.array([1.0, 0.0]))


def controlled_target_state(psi_system: np.ndarray, spec: ControlledSpec) -> np.ndarray:
    """cos(theta0/2)|psi>|0> + sin(theta0/2) (R|psi>)|1>."""
    rot = controlled_rotation_operator(spec)
    psi_system = np.asarray(psi_system, dtype=complex)
    half = spec.theta0 / 2.0
    return np.cos(half) * np.kron(psi_system, [1.0, 0.0]) + np.sin(half) * np.kron(
        rot @ psi_system, [0.0, 1.0]
    )


def target_state(protocol: str, **inputs) -> np.ndarray:
    """Analytic end-state oracle per protocol.

    teleport_state(psi, n_sectors) | teleport_gate(psi, gate, n_sectors) |
    cae/sce(psi, spec)
    """
    if protocol == "teleport_state":
        return teleport_target_state(inputs["psi"], inputs["n_sectors"])
    if protocol == "teleport_gate":
        return teleport_target_state(inputs["psi"], inputs["n_sectors"], inputs["gate"])
    if protocol in ("cae", "sce"):
        return controlled_target_state(inputs["psi"], inputs["spec"])
    raise ValueError(f"unknown protocol {protocol!r}")
