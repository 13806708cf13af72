"""Energy-cost functionals, quantum-speed-limit checks, and the
success-angle optimizer for probabilistic computation.

Costs are time-averaged Hilbert-Schmidt norms,
Sigma(tau) = (1/tau) int_0^tau ||H(t)|| dt = int_0^1 ||H(s)|| ds,
with hbar = omega = 1: at frequency omega a cost is omega times the one
reported at tau -> omega tau.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .dynamics import EvolutionResult, _leaves, evolve
from .hamiltonians import Branches, Rotation, terms
from .linalg import (_CHUNK_ENTRIES, ToleranceError, _chunks, _transport, check_int, check_tau,
                     simpson)
from .schedules import Schedule

DEFAULT_GRID = 2001  # points of s of the quadratures here and of the --grid defaults
STATIONARITY_RTOL = 1e-12
# how far qsl_ground_chi's chi may fall below |cos L - 1|: where the two are
# equal (the teleport block, the controlled branch) Simpson's rule and
# rounding put chi at most 1.1e-14 below, so 1e-12 is a 90x margin
QSL_CHI_ATOL = 1e-12
Runtimes = Optional[float] | Sequence[Optional[float]]  # None: the adiabatic limit


class QslReport:
    """The speed-limit check of one run (see ``qsl_report``)."""

    def __init__(self, tau: float, bures_angle: float, e_tau: float, bound: float,
                 satisfied: bool):
        self.tau, self.bures_angle, self.e_tau, self.bound, self.satisfied = (
            tau, bures_angle, e_tau, bound, satisfied)


def _leaf_square_and_trace(leaf, form, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """||H(s)||_HS^2 and tr H(s) of a leaf at each point of s.  With a
    coefficient form c(s) @ M (``hamiltonians.terms``) they are c . Gram c
    and c . tr M, and no operator is formed; any other leaf is evaluated
    densely."""
    if form is None:
        m = leaf(s)
        return np.add.reduce((m.conj() * m).real, axis=(-2, -1)), np.trace(m, axis1=-2, axis2=-1)
    c = form.coef(s)
    return form.hs_square(c), c @ form.traces


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


def check_grid(grid: int, name: str) -> int:
    """grid, checked to be an odd integer >= 101, a quadrature grid:
    ValueError naming ``name`` for anything else."""
    if check_int(grid, name) < 101 or grid % 2 == 0:
        raise ValueError(f"{name} must be odd and >= 101, got {grid}")
    return grid


def energy_cost(h, grid: int = DEFAULT_GRID) -> float:
    """int_0^1 ||H(s)||_HS ds by composite Simpson over ``grid`` points, an
    odd integer >= 101; a structured H is evaluated leaf by leaf
    (``_hs_square_and_trace``).  When every leaf has
    a coefficient form, a chunk holds _CHUNK_ENTRIES coefficients, so the
    default grid is one chunk."""
    check_grid(grid, "grid")
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

# Gauss-Legendre, 32 nodes on [0, 1]: the 16 nodes below 1/2 with their
# weights, correctly rounded; the other 16 are their mirror images 1 - s.
# On the teleport cost integrand, analytic on [0, 1], every family at
# tau = None and from 1e-300 to 1e300 is within 2.2e-16 relative of a
# 16-node rule on 200 panels, which one 16-node rule misses by 2.7e-9.
_GL_HALF = np.array([
    (0.0013680690752592183, 0.003509305004735048),
    (0.007194244227365833, 0.008137197365452835),
    (0.017618872206246784, 0.01269603265463103),
    (0.03254696203113015, 0.017136931456510716),
    (0.05183942211697394, 0.02141794901111334),
    (0.07531619313371501, 0.025499029631188087),
    (0.1027581020160288, 0.029342046739267772),
    (0.13390894062985517, 0.032911111388180925),
    (0.1684778665348924, 0.03617289705442425),
    (0.20614212137961885, 0.039096947893535156),
    (0.2465500455338853, 0.041655962113473374),
    (0.2893243619346823, 0.043826046502201906),
    (0.33406569885893617, 0.045586939347881945),
    (0.38035631887393145, 0.04692219954040228),
    (0.42776401920860174, 0.04781936003963743),
    (0.4758461671561308, 0.0482700442573639),
])
_GL_NODES = np.concatenate([_GL_HALF[:, 0], 1.0 - _GL_HALF[::-1, 0]])
_GL_WEIGHTS = np.concatenate([_GL_HALF[:, 1], _GL_HALF[::-1, 1]])


def teleport_sigma_sing(schedule: Schedule, tau: Runtimes,
                        grid: int = DEFAULT_GRID) -> float | np.ndarray:
    """Single-sector cost in closed form: sqrt(2) times the cost of one
    parity block (two equal blocks), whose HS norm is
    sqrt(8 chi^2 + 2 a'^2 / tau^2) with chi and a' the schedule's
    ``polar`` (the correction is (i a'/tau) G with ||G||^2 = 2);
    tau=None or inf gives the adiabatic limit.  A sequence of runtimes
    gives an array, one cost per runtime, from one read of the schedule at
    the 32 Gauss-Legendre nodes (``_GL_NODES``), a rule converged to
    rounding on this analytic integrand.  ``grid`` is checked and not
    read: perfbench's trace counts it as the cost's points."""
    check_grid(grid, "grid")
    taus = list(tau) if np.ndim(tau) else [tau]
    for t in taus:
        if t is not None and not t > 0:
            raise ValueError(f"tau must be positive, got {t}")
    _, chi, rate = schedule.polar(_GL_NODES)
    gap = 2.0 * np.real(chi)
    # the block's norm is sqrt(2) hypot(2 chi, a' / tau): hypot squares
    # nothing, so a' / tau near the float range stays finite; in the
    # adiabatic limit it is hypot(gap, 0) = gap, as gap >= 0
    costs = 2.0 * np.array([_GL_WEIGHTS @ (gap if t is None or t == np.inf else
                                           np.hypot(gap, rate / t)) for t in taus])
    return costs if np.ndim(tau) else float(costs[0])


def teleport_cost_scale(n_sectors: int) -> float:
    """Sector scaling sqrt(2^{3(n-1)} n): 1, 4, 8 sqrt(3), ..."""
    if n_sectors < 1:
        raise ValueError("n_sectors must be >= 1")
    return float(np.sqrt(2.0 ** (3 * (n_sectors - 1)) * n_sectors))


def teleport_cost(schedule: Schedule, tau: Runtimes, n_sectors: int = 1) -> float | np.ndarray:
    """``teleport_cost_scale`` times ``teleport_sigma_sing``, the n-sector closed form."""
    return teleport_cost_scale(n_sectors) * teleport_sigma_sing(schedule, tau)


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
    angle (``relative_residual``) is at most STATIONARITY_RTOL; a residual
    above it, or an onset that does not bracket the root, raises
    ``ToleranceError``.
    """
    check_tau(omega_tau, "omega_tau")
    if not np.isfinite(4.0 * float(omega_tau) * float(omega_tau) + np.pi**2):
        raise ValueError(f"omega_tau={omega_tau} is too large: 4 (omega tau)^2 overflows")
    lo, _ = _bisect(lambda t: np.tan(t / 2.0) - t, 2.0, 3.0)
    if not stationarity_residual(lo, omega_tau) < 0:
        raise ToleranceError(f"no bracket for the optimal angle at omega_tau={omega_tau}")
    # Above omega_tau ~ 1e8 the residual is negative at pi too: the root then
    # lies within rounding of pi, where the bisection converges.
    lo, hi = _bisect(lambda t: stationarity_residual(t, omega_tau), lo, float(np.pi))
    theta = 0.5 * (lo + hi)
    if not relative_residual(theta, omega_tau) <= STATIONARITY_RTOL:
        raise ToleranceError(f"relative bisection residual above {STATIONARITY_RTOL}")
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
    a (dim, m) block, one report per column.  A non-finite E_tau (a sum of
    terms ~ 1/tau that overflowed) is not satisfied."""
    psi0 = res.initial_state
    if res.e_tau is None:
        raise ValueError("the evolution did not track E_tau (track_qsl=True)")
    if psi0.ndim == 1:
        return _qsl_report(res.tau, psi0, res.final_state, float(res.e_tau))
    return [_qsl_report(res.tau, a, b, float(e_tau))
            for a, b, e_tau in zip(psi0.T, res.final_state.T, res.e_tau)]


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


def qsl_ground_chi(h) -> tuple[float, float]:
    """Geometric slack of the speed limit for the tracked ground vector v(s)
    of H(s), whose level must be single at s = 0 and which needs a ``deriv``
    (else ValueError).

    Returns (chi, |cos L - 1|), chi = int |<v(0)|d_s v>| ds by Simpson's
    rule on DEFAULT_GRID points, with v and d_s v = V A[:, 0] from one
    ``linalg._transport``: in its parallel-transport gauge the eta_3 term
    |<v|d_s v><v|v(0)>| is 0, and chi >= |cos L - 1| is the triangle
    inequality, which makes arbitrarily small omega*tau admissible.  A chi
    below it by more than QSL_CHI_ATOL raises ToleranceError: the ground
    vector jumped across a crossing between grid points.
    """
    first, vectors, clusters, _ = _transport(0.0, h(0.0), h.derivative(0.0))
    if clusters[0].stop > 1:
        raise ValueError("the ground level is degenerate at s=0: its tracked vector is not "
                         "determined by H")
    ref = vectors[:, 0]
    s_grid = np.linspace(0.0, 1.0, DEFAULT_GRID)
    eta = np.empty(DEFAULT_GRID)
    for c in _chunks(DEFAULT_GRID, h.dim):
        s = s_grid[c]
        _, v, _, a = _transport(s, h(s), h.derivative(s), first)
        eta[c] = np.abs((v @ a[..., :, :1])[..., 0] @ ref.conj())  # d_s v = V A[:, 0]
    chi = simpson(eta, s_grid[1] - s_grid[0])
    rhs = abs(abs(ref.conj() @ v[-1, :, 0]) - 1.0)
    if chi < rhs - QSL_CHI_ATOL:
        raise ToleranceError(f"ground-vector slack chi={chi:.6g} below |cos L - 1|={rhs:.6g}: "
                             "the ground vector jumped between grid points")
    return float(chi), float(rhs)
