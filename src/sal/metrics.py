"""Energy-cost functionals, quantum-speed-limit checks, and the
success-angle optimizer for probabilistic computation.

Costs are time-averaged Hilbert-Schmidt norms,
Sigma(tau) = (1/tau) int_0^tau ||H(t)|| dt = int_0^1 ||H(s)|| ds,
with hbar = omega = 1: at frequency omega a cost is omega times the one
reported at tau -> omega tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .counterdiabatic import DEFAULT_GRID, SpectralFrame
from .dynamics import EvolutionResult, _leaves, evolve
from .hamiltonians import Branches, Rotation, terms
from .linalg import _CHUNK_ENTRIES, _chunks, check_int, simpson
from .schedules import Schedule

STATIONARITY_RTOL = 1e-12


@dataclass(frozen=True)
class QslReport:
    tau: float
    bures_angle: float
    e_tau: float
    bound: float
    satisfied: bool


def _leaf_square_and_trace(leaf, form, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """||H(s)||_HS^2 and tr H(s) of a leaf at each point of s.  With a
    coefficient form c(s) @ M (``hamiltonians.terms``) they are c . Gram c
    and c . tr M, and no operator is formed; any other leaf is evaluated
    densely."""
    if form is None:
        m = leaf(s)
        return np.add.reduce((m.conj() * m).real, axis=(-2, -1)), np.trace(m, axis1=-2, axis2=-1)
    c = form.coef(s)
    return np.add.reduce((c @ form.gram) * c, axis=-1), c @ form.traces


def _hs_square_and_trace(h, leaves: dict) -> tuple[np.ndarray, np.ndarray]:
    """||H||_HS^2 and tr H at each point, from h's structure tree (see
    ``sal.hamiltonians``) over the leaves' values ``leaves[id(leaf)]``,
    without forming the dense operator.

    A rotation keeps both.  Orthogonal branches P_i (x) H_i give
    sum_i rank(P_i) ||H_i||^2.  A tensor sum over slots of dimension d_k in
    D dimensions gives sum_k (D/d_k) ||H_k||^2 plus the cross terms
    sum_{j != k} (D/d_j d_k) conj(tr H_j) tr H_k.
    """
    node = getattr(h, "parts", None)
    if node is None:
        return leaves[id(h)]
    parts = [_hs_square_and_trace(p, leaves) for p in node.parts]
    if isinstance(node, Rotation):
        return parts[0]
    if isinstance(node, Branches):
        ranks = [round(np.trace(p).real) for p in node.projectors]  # no eigh of node.basis
        return (sum(r * sq for r, (sq, _) in zip(ranks, parts)),
                sum(r * tr for r, (_, tr) in zip(ranks, parts)))
    dim = node.dim
    means = [tr / p.dim for p, (_, tr) in zip(node.parts, parts)]  # tr H_k / d_k
    square = sum(dim // p.dim * sq for p, (sq, _) in zip(node.parts, parts))
    cross = np.abs(sum(means)) ** 2 - sum(np.abs(w) ** 2 for w in means)
    return square + dim * cross, dim * sum(means)


def _check_grid(grid: int):
    if check_int(grid, "grid") < 101 or grid % 2 == 0:
        raise ValueError(f"grid must be odd and >= 101, got {grid}")


def energy_cost(h, grid: int = DEFAULT_GRID) -> float:
    """int_0^1 ||H(s)||_HS ds by composite Simpson over ``grid`` points, an
    odd integer >= 101; a structured H is evaluated leaf by leaf
    (``_hs_square_and_trace``).  When every leaf has
    a coefficient form, a chunk holds _CHUNK_ENTRIES coefficients, so the
    default grid is one chunk."""
    _check_grid(grid)
    s_grid = np.linspace(0.0, 1.0, grid)
    leaves = _leaves(h)
    forms = [terms(f) for f in leaves]
    if all(form is not None for form in forms):
        size = _CHUNK_ENTRIES // max(len(form.basis) for form in forms)
        chunks = [slice(a, a + size) for a in range(0, grid, size)]
    else:
        chunks = _chunks(grid, max(f.dim for f in leaves))
    vals = []
    for c in chunks:
        values = {id(f): _leaf_square_and_trace(f, form, s_grid[c])
                  for f, form in zip(leaves, forms)}
        vals.append(np.sqrt(_hs_square_and_trace(h, values)[0]))
    return simpson(np.concatenate(vals), s_grid[1] - s_grid[0])


# --- teleportation closed forms ----------------------------------------------


def teleport_sigma_sing(
    schedule: Schedule, tau: Optional[float], grid: int = DEFAULT_GRID
) -> float:
    """Single-sector cost in closed form: sqrt(2) times the cost of one
    parity block (two equal blocks), whose HS norm is
    sqrt(8 chi^2 + 2 a'^2 / tau^2) with a' the schedule's
    ``angle_rate`` (the correction is (i a'/tau) G with ||G||^2 = 2);
    tau=None gives the adiabatic limit."""
    _check_grid(grid)
    s = np.linspace(0.0, 1.0, grid)
    rate = 0.0
    if tau is not None:
        if not tau > 0:  # inf is the adiabatic limit, as None is
            raise ValueError(f"tau must be positive, got {tau}")
        rate = schedule.angle_rate(s) / tau
    # the block's norm is sqrt(2) hypot(2 chi, a' / tau): hypot squares
    # nothing, so a' / tau near the float range stays finite
    return 2.0 * simpson(np.hypot(2.0 * np.real(schedule.chi(s)), rate), s[1] - s[0])


def teleport_cost_scale(n_sectors: int) -> float:
    """Sector scaling sqrt(2^{3(n-1)} n): 1, 4, 8 sqrt(3), ..."""
    if n_sectors < 1:
        raise ValueError("n_sectors must be >= 1")
    return float(np.sqrt(2.0 ** (3 * (n_sectors - 1)) * n_sectors))


def teleport_cost(
    schedule: Schedule,
    tau: Optional[float],
    n_sectors: int = 1,
    grid: int = DEFAULT_GRID,
) -> float:
    return teleport_cost_scale(n_sectors) * teleport_sigma_sing(schedule, tau, grid)


# --- controlled-evolution closed forms ---------------------------------------


def sce_single_gate_cost(tau: float, theta0: float) -> float:
    """2 sqrt(1 + (theta0 / 2 tau)^2), the one-qubit gate cost, by hypot:
    the square overflows for tau near the smallest floats."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return 2.0 * float(np.hypot(1.0, theta0 / (2.0 * tau)))


def sce_controlled_cost(tau: float, theta0: float, n_controls: int) -> float:
    """sqrt(2^n) times the single-gate cost for n control qubits."""
    if n_controls < 0:
        raise ValueError("n_controls must be >= 0")
    return float(np.sqrt(2.0**n_controls)) * sce_single_gate_cost(tau, theta0)


def cae_single_gate_cost() -> float:
    """Adiabatic one-qubit gate cost 2 (the tau -> infinity limit)."""
    return 2.0


def cae_controlled_cost(n_controls: int) -> float:
    return float(np.sqrt(2.0**n_controls)) * cae_single_gate_cost()


# --- probabilistic computation ------------------------------------------------


def mean_repetitions(theta0: float) -> float:
    """Expected protocol repetitions 1 / sin^2(theta0 / 2)."""
    if not 0.0 < theta0 <= np.pi:
        raise ValueError(f"theta0 must lie in (0, pi], got {theta0}")
    return 1.0 / float(np.sin(theta0 / 2.0) ** 2)


def probabilistic_cost(
    theta0: float, tau: Optional[float] = None, mode: str = "superadiabatic"
) -> float:
    """Mean energy cost of repeat-until-success single-gate computation.

    The run cost is multiplied by the expected repetition count
    cosec^2(theta0/2); theta0 -> 0 diverges and is rejected.
    """
    reps = mean_repetitions(theta0)
    if mode == "adiabatic":
        return reps * cae_single_gate_cost()
    if mode == "superadiabatic":
        if tau is None:
            raise ValueError("superadiabatic mode needs tau")
        return reps * sce_single_gate_cost(tau, theta0)
    raise ValueError(f"unknown mode {mode!r}")


def stationarity_residual(theta0: float, omega_tau: float) -> float:
    """Residual of the optimal-angle condition
    theta0 - [4 (w tau)^2 + theta0^2] cot(theta0 / 2) = 0."""
    return float(
        theta0 - (4.0 * omega_tau**2 + theta0**2) / np.tan(theta0 / 2.0)
    )


def relative_residual(theta0: float, omega_tau: float) -> float:
    """|stationarity_residual| over the size of its terms, 4 (w tau)^2 + theta0^2."""
    return abs(stationarity_residual(theta0, omega_tau)) / (4.0 * omega_tau**2 + theta0**2)


def angle_feasible(theta0: float) -> bool:
    """tan(theta0/2) >= theta0, necessary for theta0 to be a minimizer."""
    return bool(np.tan(theta0 / 2.0) >= theta0)


def _bisect(f, lo: float, hi: float) -> tuple[float, float]:
    """Halve [lo, hi] until lo and hi are adjacent floats: a midpoint with
    f < 0 becomes lo, any other becomes hi."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    return lo, hi


def theta_opt(omega_tau: float) -> float:
    """Angle minimizing the mean superadiabatic cost at fixed omega*tau.

    Bisection on (feasible onset, pi], where the onset is the root of
    tan(theta/2) = theta in [2, 3], taken from the side with
    tan(theta/2) < theta: there the stationarity residual is below
    -4 (omega tau)^2 / theta < 0.  The relative residual at the returned
    angle (``relative_residual``) is below STATIONARITY_RTOL.
    """
    if not 0 < omega_tau < np.inf:
        raise ValueError(f"omega_tau must be positive and finite, got {omega_tau}")
    if not np.isfinite(4.0 * float(omega_tau) * float(omega_tau) + np.pi**2):
        raise ValueError(f"omega_tau={omega_tau} is too large: 4 (omega tau)^2 overflows")
    lo, _ = _bisect(lambda t: np.tan(t / 2.0) - t, 2.0, 3.0)
    if not stationarity_residual(lo, omega_tau) < 0:
        raise RuntimeError(f"no bracket for the optimal angle at omega_tau={omega_tau}")
    # Above omega_tau ~ 1e8 the residual is negative at pi too: the root then
    # lies within rounding of pi, where the bisection converges.
    lo, hi = _bisect(lambda t: stationarity_residual(t, omega_tau), lo, float(np.pi))
    theta = 0.5 * (lo + hi)
    if not relative_residual(theta, omega_tau) <= STATIONARITY_RTOL:
        raise RuntimeError(f"relative bisection residual above {STATIONARITY_RTOL}")
    return theta


def theta_opt_adiabatic() -> float:
    """The adiabatic mean cost has its only critical point at theta0 = pi."""
    return float(np.pi)


# --- quantum speed limit -------------------------------------------------------


def bures_angle(a: np.ndarray, b: np.ndarray) -> float:
    """arccos |<a|b>|."""
    return float(np.arccos(np.clip(np.abs(np.vdot(a, b)), 0.0, 1.0)))


def qsl_report(res: EvolutionResult) -> QslReport | list[QslReport]:
    """Evaluate tau >= |cos L - 1| / E_tau along an evolution run with
    ``track_qsl=True``, which integrates
    E_tau = (1/tau) int |<psi(0)|H(t)|psi(t)>| dt by Simpson's rule over the
    step ends, from the run's own checked input ``res.initial_state``.  For
    a (dim, m) block, one report per column; a scalar E_tau then stands for
    every column.  A non-finite E_tau (a sum of terms ~ 1/tau that
    overflowed) is not satisfied."""
    psi0 = res.initial_state
    if res.e_tau is None:
        raise ValueError("the evolution did not track E_tau (track_qsl=True)")
    if psi0.ndim == 1:
        return _qsl_report(res.tau, psi0, res.final_state, float(res.e_tau))
    e_taus = np.broadcast_to(res.e_tau, psi0.shape[1:])
    return [_qsl_report(res.tau, a, b, float(e_tau))
            for a, b, e_tau in zip(psi0.T, res.final_state.T, e_taus)]


def _qsl_report(tau: float, psi0: np.ndarray, final: np.ndarray, e_tau: float) -> QslReport:
    angle = bures_angle(psi0, final)
    numer = abs(np.cos(angle) - 1.0)
    bound = 0.0 if e_tau <= 1e-300 else numer / e_tau  # a NaN E_tau gives a NaN bound
    return QslReport(
        tau=tau,
        bures_angle=angle,
        e_tau=e_tau,
        bound=bound,
        satisfied=bool(e_tau < np.inf and tau >= bound - 1e-9),  # an overflowed E_tau fails
    )


def qsl_check(h, psi0: np.ndarray, tau: float,
              steps: Optional[int] = None) -> QslReport | list[QslReport]:
    """Evolve psi0, a state or a (dim, m) block, under h, with no ground
    sampling, and evaluate tau >= |cos L - 1| / E_tau (see ``qsl_report``)."""
    return qsl_report(evolve(h, psi0, tau, steps=steps, n_samples=0, track_qsl=True))


def qsl_ground_chi(frame: SpectralFrame) -> tuple[float, float]:
    """Geometric slack of the speed limit for the tracked ground vector.

    Returns (chi, |cos L - 1|) with chi = eta_2 + eta_3 built from the
    ground column of the frame; chi >= |cos L - 1| always holds, which is
    what makes arbitrarily small omega*tau admissible.
    """
    v0 = frame.vectors[:, :, 0]
    dv0 = frame.derivative()[:, :, 0]
    ref = v0[0]
    overlaps = v0 @ ref.conj()
    eta2 = np.abs(dv0 @ ref.conj())
    eta3 = np.abs(np.einsum("ji,ji->j", v0.conj(), dv0) * overlaps)
    ds = frame.s_grid[1] - frame.s_grid[0]
    chi = simpson(eta2, ds) + simpson(eta3, ds)
    rhs = abs(abs(overlaps[-1]) - 1.0)
    return float(chi), float(rhs)
