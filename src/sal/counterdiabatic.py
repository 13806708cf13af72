"""Counter-diabatic corrections; the shortcut type they return,
``SuperadiabaticHamiltonian``, and ``composite``, which builds every
structure node, live in ``sal.hamiltonians``.

The correction added to a driving Hamiltonian H(s) so that the exact
dynamics follows the instantaneous eigenlevels at any speed is

    H_cd(s) = (i/tau) sum_n [ |d_s E_n><E_n| + <d_s E_n|E_n> |E_n><E_n| ]

(hbar = 1) for a smooth orthonormal eigenframe |E_n(s)>.  Inside
degenerate levels the frame is fixed by parallel transport: the intra-level
connection vanishes, which makes the correction independent of how the
initial degenerate basis was chosen.  No frame is stored: each construction
below is a formula in s, and d_s|E_n> = -i tau H_cd(s)|E_n> in that gauge.

* ``cd_generic``        - Berry's pairwise form of it, from H(s) and d_s H at
  each s, by ``linalg._transport``: the package's one copy of that formula;
* ``cd_teleport_block`` - closed form for a 3-qubit teleport sector: on its
  4x4 parity block, the schedule's mixing-angle rate over tau times one
  constant generator;
* ``cd_teleport``       - the shortcut of ``teleport_hamiltonian(spec)`` from
  the same ``teleport_tree``, over either sector shortcut on the 4x4 block;
* ``cd_controlled``     - the time-independent correction of controlled
  evolutions;
* ``cd_rotate`` / ``cd_tensor_sum`` - transport of known corrections under
  constant unitaries and across non-interacting subsystems.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .hamiltonians import (
    BLOCK_TERMS,
    ControlledSpec,
    Linear,
    Rotation,
    SuperadiabaticHamiltonian,
    TeleportSpec,
    TensorSum,
    TimeDepHamiltonian,
    Y,
    composite,
    controlled_branch,
    controlled_tree,
    sector_tree,
    teleport_block_hamiltonian,
    teleport_tree,
)
from .linalg import _transport, is_unitary
from .schedules import Schedule


def cd_generic(h: TimeDepHamiltonian, tau: float) -> SuperadiabaticHamiltonian:
    """Counter-diabatic correction of any Hamiltonian, evaluated at each
    point it is given (Berry, J. Phys. A 42, 365303 (2009)):

        H_cd(s) = (i/tau) sum_{m, n} |m><m|d_s H|n><n| / (E_n - E_m)

    over pairs in different levels (parallel transport): (i/tau) V A V^dag
    from ``linalg._transport`` of H(s) and ``h.derivative(s)``, which names
    the first point whose levels differ from those at s = 0 (levels cross).
    Without a coefficient form it is stepped by eigendecomposition.
    ValueError, when built, if h has no ``deriv``.
    """
    def cd(s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        _, v, _, a = _transport(s, h(s), h.derivative(s), first)
        return (1j / tau) * (v @ a @ np.swapaxes(v, -1, -2).conj())

    hsa = SuperadiabaticHamiltonian(base=h, cd=cd, tau=tau)  # checks tau before H is read
    first = _transport(0.0, h(0.0), h.derivative(0.0))[0]
    return hsa


# --- closed-form teleport block ---------------------------------------------
#
# The parity block is B(s) = chi(s) (cos a B_ini + sin a B_fin) with the
# mixing angle a(s) = atan2(eta_f, eta_i), and B_fin, B_ini generate the turn
# in a: with the constant antisymmetric G = [B_fin, B_ini] / 4,
# exp(a G) B_ini exp(-a G) = cos a B_ini + sin a B_fin.  So the smooth
# eigenframe V(s) = exp(a(s) G) V(0) has V' V^T = a'(s) G.  G annihilates
# the zero-level vector (-1, 1, 1, 1)/2 and, being antisymmetric, has no
# diagonal element, so the intra-level connection vanishes and the
# correction below is the parallel-transport one.  B_ini, B_fin and i G,
# the basis of the block's shortcut, are read-only like BLOCK_TERMS.
_B_INI, _B_FIN = BLOCK_TERMS
_SHORTCUT_BASIS = np.stack([_B_INI, _B_FIN, 1j * (_B_FIN @ _B_INI - _B_INI @ _B_FIN) / 4])
_SHORTCUT_BASIS.flags.writeable = False


def cd_teleport_block(schedule: Schedule, tau: float) -> SuperadiabaticHamiltonian:
    """Closed-form counter-diabatic term for one teleport sector.

    The sector tree P (1_2 (x) B_sa) P^T (``sector_tree``) over the 4x4
    parity block's shortcut: the drive ``teleport_block_hamiltonian`` plus
    (i/tau) V' V^T = (i a'(s)/tau) [B_fin, B_ini]/4, with a' the schedule's
    angle rate, in coefficient form: a'/tau over i G.  It commutes with
    both parity operators by construction, and stays in the span of B_ini,
    B_fin and i G, so the block's form, (eta_i, eta_f, a'/tau) over
    ``_SHORTCUT_BASIS`` from one read of the schedule (``Schedule.polar``),
    has ``Linear.su2``.
    """
    def coef(s) -> np.ndarray:
        (ei, ef), _, rate = schedule.polar(s)
        return np.stack([ei, ef, rate / tau], axis=-1)

    cd = Linear(lambda s: coef(s)[..., 2:], _SHORTCUT_BASIS[2:])
    return sector_tree(SuperadiabaticHamiltonian(teleport_block_hamiltonian(schedule), cd, tau,
                                                 form=Linear(coef, _SHORTCUT_BASIS)))


def cd_rotate(hsa: SuperadiabaticHamiltonian, g: np.ndarray) -> SuperadiabaticHamiltonian:
    """Superadiabatic Hamiltonian of the rotated drive G H(s) G^dag.

    The correction transports covariantly: cd -> G cd G^dag, for any
    constant unitary G on the whole n-qubit space of H.
    """
    if g.shape != (hsa.dim, hsa.dim):
        raise ValueError(f"rotation shape {g.shape} does not match dim {hsa.dim}")
    if hsa.dim & (hsa.dim - 1):
        raise ValueError(f"a rotation acts on qubits; dim {hsa.dim} is not a power of 2")
    if not is_unitary(g):
        raise ValueError("rotation must be unitary")
    return composite(Rotation(g, (hsa,), tuple(range(hsa.dim.bit_length() - 1))))


def cd_tensor_sum(blocks: Sequence[SuperadiabaticHamiltonian]) -> SuperadiabaticHamiltonian:
    """Shortcut for a non-interacting sum: each block's correction is
    embedded in its own tensor slot, H_sa = sum_k 1 x..x H_sa^k x..x 1."""
    blocks = tuple(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    return blocks[0] if len(blocks) == 1 else composite(TensorSum(blocks))


def cd_teleport(spec: TeleportSpec, tau: float,
                generic: bool = False) -> SuperadiabaticHamiltonian:
    """Shortcut counterpart of ``teleport_hamiltonian(spec)``, by the same
    ``teleport_tree``: each tensor slot holds ``cd_teleport_block`` or, if
    ``generic``, the sector tree over ``cd_generic`` of the 4x4 parity block.
    """
    if generic:
        sector = sector_tree(cd_generic(teleport_block_hamiltonian(spec.schedule), tau))
    else:
        sector = cd_teleport_block(spec.schedule, tau)
    return teleport_tree(spec, sector)


def cd_controlled(spec: ControlledSpec) -> SuperadiabaticHamiltonian:
    """Shortcut for controlled evolutions.

    The ancilla branch at xi acquires the constant correction
    cd_xi = (theta0/2tau)(sy cos(xi) - sx sin(xi)).  The xi = 0 branch is
    ``controlled_branch`` plus cd_0, theta0/2tau over sy, with the form
    (cos theta0 s, sin theta0 s, theta0/2tau) over (-sz, -sx, sy).  The phi
    branch is that shortcut turned by ``controlled_tree``'s constant
    rotation, which turns cd_0 into cd_phi, so the full correction
    [1-P] (x) cd_0 + P (x) cd_phi is independent of s.  The coefficient is
    formed per call, so a bad tau meets the shortcut's check first.
    """
    def rate(s) -> np.ndarray:
        return np.full(np.shape(s) + (1,), spec.theta0 / (2.0 * spec.tau))

    branch = controlled_branch(spec)
    form = Linear(lambda s: np.concatenate([branch.func.coef(s), rate(s)], axis=-1),
                  np.concatenate([branch.func.basis, Y[None]]))
    return controlled_tree(spec, SuperadiabaticHamiltonian(branch, Linear(rate, Y[None]),
                                                           spec.tau, form=form))
