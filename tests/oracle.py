"""Exact propagators of the closed-form shortcuts, the tests' reference for
``evolve``, and the analytic teleport block frame they rest on.

The teleport block's frame V(s) (``teleport_block_frame``) diagonalizes
H(s) with no intra-level connection; (i/tau) V' V^T is the reference for the
closed-form ``cd_teleport_block``.  Its shortcut carries any state
along V exactly: U(s) = V(s) diag(exp(-i tau int_0^s E_n)) V(0)^T.  The
tensor sum over sectors gives a Kronecker product of sector propagators,
the gate's rotation conjugates it.  A controlled branch H_xi(s) = R(s) (-w Z)
R(s)^dag turns at the constant rate theta0 about m = (-sin xi, cos xi, 0),
R(s) = exp(-i theta0 s m.sigma / 2), and its correction (theta0 / 2 tau) m.sigma
cancels that turn in the rotating frame: U(s) = R(s) exp(i w tau s Z).
"""

import numpy as np

from sal.hamiltonians import PARITY_PERMUTATION, X, Y
from sal.linalg import embed, kron
from sal.schedules import Schedule

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)

# Step for complex-step differentiation of analytic eigenvector families;
# exact to machine precision, no subtractive cancellation.
_CS_STEP = 1e-100

# The parity block's analytic eigenframe, written without removable 0/0
# singularities at the endpoints: with x = chi = sqrt(ei^2 + ef^2), the raw
# component ratios contain (x - ef) and (x - ei), which are rationalized to
# ei^2/(x + ef) and ef^2/(x + ei).  The zero level is
# spanned by one s-independent vector and one smooth orthogonal partner,
# so the intra-level connection vanishes identically.


def _block_frame_columns(ei, ef):
    chi = np.sqrt(ei * ei + ef * ef)
    w0 = np.stack(
        [
            ei + chi,
            ei * (chi + ei) / (chi + ef),
            ei * ef / (chi + ef),
            ef + 0.0 * ei,
        ]
    )
    z1 = np.stack([ei - ef, -(ei + ef), ei - ef, ei + ef]) / (2.0 * chi)
    one = 1.0 + 0.0 * ei
    z2 = np.stack([-one, one, one, one]) / 2.0
    w3 = np.stack(
        [
            -ei * ef / (ei + chi),
            ef * (1.0 + ef / (chi + ei)) ** 2 / 2.0,
            -(ef + chi),
            ei + 0.0 * ef,
        ]
    )
    w0 = w0 / np.sqrt(np.sum(w0 * w0, axis=0))
    w3 = w3 / np.sqrt(np.sum(w3 * w3, axis=0))
    # (4, 4, ...) with the points of s last -> (..., 4, 4)
    return np.moveaxis(np.stack([w0, z1, z2, w3], axis=1), (0, 1), (-2, -1))


def teleport_block_frame(schedule: Schedule, s) -> np.ndarray:
    """Orthonormal eigenframe of the parity block; columns sorted by energy
    (-2x, 0, 0, +2x)."""
    ei, ef = schedule.eta(s)
    return np.real(_block_frame_columns(ei, ef))


def teleport_block_frame_deriv(schedule: Schedule, s) -> np.ndarray:
    """d/ds of the block eigenframe via complex-step differentiation."""
    ei, ef = schedule.eta(s + 1j * _CS_STEP)
    return np.imag(_block_frame_columns(ei, ef)) / _CS_STEP


def _integral(f, s: float) -> float:
    """int_0^s f by 64-point Gauss-Legendre (f analytic near [0, s])."""
    return 0.5 * s * float(_WEIGHTS @ f(0.5 * s * (_NODES + 1.0)))


def teleport_propagator(spec, tau: float, s: float = 1.0) -> np.ndarray:
    """U(s) of ``cd_teleport(spec, tau)`` with the closed-form sector."""
    sch = spec.schedule
    chi = _integral(lambda x: np.real(sch.chi(x)), s)
    phases = np.exp(-1j * tau * chi * np.array([-2.0, 0.0, 0.0, 2.0]))
    block = (teleport_block_frame(sch, s) * phases) @ teleport_block_frame(sch, 0.0).T
    perm = PARITY_PERMUTATION
    u = kron(*[perm @ np.kron(np.eye(2), block) @ perm.T] * spec.n_sectors)
    if spec.gate is None:
        return u
    g = embed(spec.gate, spec.bob_qubits, 3 * spec.n_sectors)
    return g @ u @ g.conj().T


def controlled_propagator(spec, s: float = 1.0) -> np.ndarray:
    """U(s) of ``cd_controlled(spec)``: [1 - P] (x) U_0 + P (x) U_phi."""
    p_act = spec.activation_projector()
    p_rest = np.eye(p_act.shape[0]) - p_act
    half = spec.theta0 * s / 2.0
    turn = np.exp(1j * spec.tau * s * np.array([1.0, -1.0]))

    def branch(xi: float) -> np.ndarray:
        m_sigma = -np.sin(xi) * X + np.cos(xi) * Y
        return (np.cos(half) * np.eye(2) - 1j * np.sin(half) * m_sigma) * turn

    return np.kron(p_rest, branch(0.0)) + np.kron(p_act, branch(spec.phi))
