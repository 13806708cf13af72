"""Time evolution, fidelities, measurement, and protocol target states.

The integrator advances |psi> with midpoint-frozen exponentials,
psi <- exp(-i H((j+1/2)/N) tau/N) psi, which is unitary at every step.

A Hamiltonian with ``parts`` is a tree (see ``sal.hamiltonians``): tensor
sums over consecutive slots, orthogonal ancilla branches and constant
rotations, down to leaf Hamiltonians.  The one propagator below walks that
tree.  The state is held in the frame where every rotation is undone and
every branch projector is diagonal, entered and left once per run; there
the tree applies only leaf-sized matrices, one tensor slot or branch block
at a time.

Steps are taken a chunk of midpoints at a time.  Each distinct leaf is
evaluated once per chunk, its step unitaries come from one batched
eigendecomposition, and their running products p_k = u_k ... u_0 are
multiplied in step order (a log-depth scan over the chunk is measurably
less accurate).  One walk of the tree then applies the products at every
step the chunk must report: its sample points and its last step, or every
step when the speed-limit integral is tracked.  This equals applying the
tree step by step because, in the walk frame, the tree's step unitary is a
tensor product over slots and a direct sum over branch blocks: leaves in
different slots commute, each block stays invariant, and no rotation acts
between steps.  So the product of the tree's step unitaries over a chunk is
the tree of each leaf's ordered chunk product (Blanes et al., Phys. Rep.
470, 151 (2009) for the midpoint product formula itself).

The same walk, batched over points, gives H|psi> for the speed-limit
integral and the ground-level weight at each sample point (from the leaves'
eigenbases, one stacked eigendecomposition per leaf); the leaves' norms
give the bound behind the default step count.  A Hamiltonian without
``parts`` is a one-leaf tree: the dense reference the structured paths are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hamiltonians import Branches, ControlledSpec, Rotation, TensorSum, bell_state
from .linalg import _chunks, embed, expm_hermitian, state_from_factors

MIN_STEPS = 100
MAX_STEPS = 10**8
_STEPS_PER_UNIT_ACTION = 2000
_GROUND_TOL = 1e-8  # ground-level width relative to max(1, |E|)


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


# --- the structure walk ------------------------------------------------------


def _leaves(h) -> list:
    """The distinct leaf Hamiltonians of h's tree, in walk order."""
    node = getattr(h, "parts", None)
    if node is None:
        return [h]
    return list({id(leaf): leaf for p in node.parts for leaf in _leaves(p)}.values())


def _walk(h, x: np.ndarray, op=None, compose: bool = True, frame: int = 0) -> np.ndarray:
    """Apply h's tree to x, shaped (batch, pre, h.dim, post), in the walk frame.

    ``op(leaf)`` is the matrix a leaf contributes on its own slot, shaped
    (d, d) for the whole batch or (batch, d, d) for one per batch entry.
    With ``compose`` the tensor-sum parts' matrices multiply (step
    unitaries, eigenbases); without, they add (H, its eigenvalues).  Branch
    blocks are disjoint either way.  ``frame=1`` (``-1``) with no ``op``
    enters (leaves) the walk frame instead: G^dag or W^dag of each rotation
    or branch node on the way down, G or W on the way up.
    """
    node = getattr(h, "parts", None)
    if node is None:
        return x if op is None else op(h).reshape(-1, 1, h.dim, h.dim) @ x
    batch, pre, dim, post = x.shape
    u = node.g if isinstance(node, Rotation) else (
        node.basis[0] if isinstance(node, Branches) else None)
    if u is not None and frame > 0:
        x = (u.conj().T @ x.reshape(batch, pre, len(u), -1)).reshape(x.shape)
    if isinstance(node, Branches):
        d = node.parts[0].dim
        x = x.reshape(batch, pre, dim // d, d, post)
        out = np.empty(x.shape, dtype=complex)
        for part, rows in zip(node.parts, node.basis[1]):
            block = _walk(part, x[:, :, rows].reshape(batch, -1, d, post), op, compose, frame)
            out[:, :, rows] = block.reshape(batch, pre, -1, d, post)
    else:
        out, left = (x if compose else 0.0), 1
        for part in node.parts:
            src = out if compose else x
            y = _walk(part, src.reshape(batch, pre * left, part.dim, -1), op, compose, frame)
            out = y.reshape(x.shape) if compose else out + y.reshape(x.shape)
            left *= part.dim
    out = out.reshape(batch, pre, dim, post)
    if u is not None and frame < 0:
        out = (u @ out.reshape(batch, pre, len(u), -1)).reshape(out.shape)
    return out


def _running_products(u: np.ndarray) -> np.ndarray:
    """p[k] = u[k] @ ... @ u[0] for a stack of step unitaries, multiplied in
    step order."""
    p = np.empty_like(u)
    p[0] = u[0]
    for step, prev, out in zip(u[1:], p, p[1:]):
        np.dot(step, prev, out=out)
    return p


def _norm_bound(h, samples: int = 17) -> float:
    """max_s ||H(s)|| sampled on each leaf; summed over tensor-sum parts,
    the largest over branches."""
    node = getattr(h, "parts", None)
    if node is None:
        s = np.linspace(0.0, 1.0, samples)
        return max(
            float(np.max(np.abs(np.linalg.eigvalsh(h(s[c]))))) for c in _chunks(samples, h.dim)
        )
    norms = [_norm_bound(p, samples) for p in node.parts]
    return sum(norms) if isinstance(node, TensorSum) else max(norms)


def default_steps(h, tau: float) -> int:
    """Step count keeping the per-step action below 1/2000, floor 2000;
    ValueError above ``MAX_STEPS``."""
    need = np.ceil(_STEPS_PER_UNIT_ACTION * _norm_bound(h) * tau)
    if not need <= MAX_STEPS:
        raise ValueError(f"tau={tau} needs {need:.3g} steps, above MAX_STEPS={MAX_STEPS}")
    return max(_STEPS_PER_UNIT_ACTION, int(need))


def _ground_weights(h, s: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Weight of each column of each walk-frame state xs[j], shaped
    (len(s), 1, dim, post), in the lowest level of the driving H(s[j]); for a
    shortcut that is its base, without the counter-diabatic term."""
    leaves = _leaves(h)
    out = []
    for c in _chunks(len(s), max(f.dim for f in leaves)):
        spectra = {id(f): np.linalg.eigh(getattr(f, "base", f)(s[c])) for f in leaves}
        ones = np.ones((len(s[c]), 1, h.dim, 1))
        energies = _walk(h, ones, lambda f: spectra[id(f)][0][..., None] * np.eye(f.dim),
                         compose=False).real[:, 0, :, 0]
        amps = _walk(h, xs[c], lambda f: np.swapaxes(spectra[id(f)][1], -1, -2).conj())[:, 0]
        top = np.maximum(1.0, np.max(np.abs(energies), axis=1, keepdims=True))
        level = energies < energies.min(axis=1, keepdims=True) + _GROUND_TOL * top
        out.append(np.sum(np.abs(amps) ** 2 * level[..., None], axis=1))
    return np.concatenate(out)


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
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    psi0 = np.asarray(psi0, dtype=complex)
    dim = psi0.shape[0]
    if h.dim != dim:
        raise ValueError(f"state dim {dim} does not match Hamiltonian dim {h.dim}")
    if steps is None:
        steps = default_steps(h, tau)
    if not MIN_STEPS <= steps <= MAX_STEPS:
        raise ValueError(f"steps must lie in [{MIN_STEPS}, {MAX_STEPS}], got {steps}")
    if track_qsl and psi0.ndim != 1:
        raise ValueError("QSL tracking needs a single input state")

    leaves = _leaves(h)
    dt = tau / steps
    sample_idx = np.unique(np.round(np.linspace(0, steps, n_samples)).astype(int))
    ends_on_sample = np.zeros(steps, dtype=bool)  # step j ends at point j + 1
    ends_on_sample[sample_idx[sample_idx > 0] - 1] = True
    x0 = x = _walk(h, psi0.reshape(1, 1, dim, -1), frame=1)
    sampled = [x] if sample_idx[0] == 0 else []
    acc = 0.0
    for c in _chunks(steps, max(f.dim for f in leaves)):
        # One walk applies the chunk's steps up to each needed k: the running
        # product of each leaf's step unitaries (see the module docstring).
        mids = (np.arange(c.start, c.stop) + 0.5) / steps
        hs = {id(f): f(mids) for f in leaves}
        prods = {key: _running_products(expm_hermitian(hk, dt)) for key, hk in hs.items()}
        ks = np.arange(len(mids))
        picked = ends_on_sample[c]
        if not track_qsl:
            ks = ks[picked | (ks == ks[-1])]
        xs = _walk(h, np.broadcast_to(x, (len(ks),) + x.shape[1:]),
                   lambda f: prods[id(f)][ks])
        if track_qsl:
            pairs = np.concatenate([x, xs])
            h_mid = _walk(h, 0.5 * (pairs[:-1] + pairs[1:]), lambda f: hs[id(f)], compose=False)
            acc += float(np.sum(np.abs(h_mid.reshape(len(ks), -1) @ x0.reshape(-1).conj()))) * dt
        sampled.append(xs[picked[ks]])
        x = xs[-1:]

    s_samples = sample_idx / steps
    sampled = np.concatenate(sampled)
    ground = _ground_weights(h, s_samples, sampled)
    states = None
    if keep_states:
        states = _walk(h, sampled, frame=-1).reshape((-1,) + psi0.shape)
    return EvolutionResult(
        final_state=_walk(h, x, frame=-1).reshape(psi0.shape),
        s_samples=s_samples,
        ground_fidelity=ground if psi0.ndim > 1 else ground[:, 0],
        tau=tau,
        steps=steps,
        e_tau=acc / tau if track_qsl else None,
        states=states,
    )


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
