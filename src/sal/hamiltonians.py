"""Builders for the driving Hamiltonians and their algebraic companions.

Teleportation layout
--------------------
A teleport register with ``n`` sectors holds ``3n`` qubits ordered
sector-wise: sector ``k`` owns qubits ``(3k, 3k+1, 3k+2)`` playing the roles
(data, Alice channel, Bob channel).  Bell pairs live on the channel pairs,
the unknown n-qubit state on the data qubits, and optional gates act on
Bob's qubits ``[2, 5, 8, ...]``.

Controlled-evolution layout
---------------------------
The target subsystem (``n_controls`` control qubits followed by one target
qubit) comes first; the single ancilla qubit is always last.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import combinations_with_replacement
from math import prod
from typing import Callable, Optional

import numpy as np

from .linalg import (_chunks, apply_on_qubits, check_shape, embed, eigh, is_unitary, kron,
                     level_clusters)
from .schedules import Schedule

_DERIV_STEP = 1e-6  # central-difference step of ``derivative`` without an analytic ``deriv``
_ESTIMATE_GRID = 101  # points of s that ``adiabatic_time_estimate`` reads
_TAU_MIN = float(np.finfo(float).tiny)  # smallest shortcut runtime: its 1/tau is finite
SU2_RTOL = 1e-12  # residual of A^3 = k^2 A relative to ||A||^3 that ``Linear.su2`` accepts

# --- elementary gates ------------------------------------------------------

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PI_8 = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
TOFFOLI = np.eye(8, dtype=complex)
TOFFOLI[6:, 6:] = X

GATES = {
    "I": I2,
    "X": X,
    "Y": Y,
    "Z": Z,
    "H": HADAMARD,
    "T": PI_8,
    "CNOT": CNOT,
    "TOFFOLI": TOFFOLI,
}


def gate(name: str) -> np.ndarray:
    try:
        return GATES[name.upper()]
    except KeyError:
        raise ValueError(f"unknown gate {name!r}; choose from {sorted(GATES)}") from None


def bell_state(n: int, m: int) -> np.ndarray:
    """Bell state (|0 n> + (-1)^m |1 nbar>) / sqrt(2)."""
    if n not in (0, 1) or m not in (0, 1):
        raise ValueError("Bell labels must be bits")
    amps = np.zeros(4, dtype=complex)
    amps[n] = 1.0
    amps[2 + (1 - n)] = (-1.0) ** m
    return amps / np.sqrt(2)


# --- Bloch axis helpers ----------------------------------------------------


def parse_axis(axis) -> np.ndarray:
    """Accept 'x'/'y'/'z' or a 3-vector; return the normalized axis."""
    if isinstance(axis, str):
        try:
            return {"x": np.array([1.0, 0, 0]),
                    "y": np.array([0, 1.0, 0]),
                    "z": np.array([0, 0, 1.0])}[axis.lower()]
        except KeyError:
            raise ValueError(f"unknown axis name {axis!r}") from None
    vec = np.asarray(axis, dtype=float)
    if vec.shape != (3,) or not np.isfinite(vec).all():
        raise ValueError("axis must be a 3-vector")
    vec = np.ldexp(vec, -np.frexp(np.max(np.abs(vec)))[1])  # exact: squares stay in range
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("axis must be nonzero")
    return vec / norm


def axis_sigma(axis) -> np.ndarray:
    """n_hat . sigma for the given Bloch axis."""
    n = parse_axis(axis)
    return n[0] * X + n[1] * Y + n[2] * Z


def axis_projectors(axis) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projectors (1 +/- n_hat.sigma) / 2 onto |n+>, |n->."""
    ns = axis_sigma(axis)
    return (I2 + ns) / 2, (I2 - ns) / 2


# --- time-dependent Hamiltonians -------------------------------------------


@dataclass(frozen=True, eq=False)
class Linear:
    """s -> coef(s) @ basis: the coefficients ``coef(s)``, real for real s
    and shaped ``np.shape(s) + (K,)``, over K constant Hermitian generators
    ``basis``, shaped (K, d, d).  One GEMM per evaluation; a
    ``TimeDepHamiltonian`` func or deriv, or a shortcut's cd, in coefficient
    form (see ``terms``).  The constant tables of the basis (``gram``,
    ``traces`` and those of ``expm_su2``) are formed on first use and kept
    on the form.

    ``su2`` tells from the basis alone whether it is traceless and every
    real A = c @ basis obeys A^3 = k^2 A, k^2 = tr A^2 / 2 = c . Gram c / 2
    (the ``gram`` the cost reads): every traceless 2x2 basis, and a spin-1
    (+) spin-0 representation of su(2) such as the teleport parity block's.
    Then ``expm_su2`` reads exp(-iA) = 1 - i sinc(k) A - sinc^2(k/2) A^2 / 2
    (Curtright, Fairlie & Zachos, SIGMA 10, 084 (2014)) off the coefficients."""

    coef: Callable[[float | np.ndarray], np.ndarray]
    basis: np.ndarray

    def __call__(self, s) -> np.ndarray:
        c = self.coef(s)
        k, d = self.basis.shape[:2]
        return (c @ self.basis.reshape(k, d * d)).reshape(np.shape(c)[:-1] + (d, d))

    @cached_property
    def gram(self) -> np.ndarray:
        """Gram_kl = Re tr(M_k M_l), so that ||coef @ basis||_HS^2 = c . Gram c."""
        return _gram(self.basis)

    @cached_property
    def traces(self) -> np.ndarray:
        """tr M_k, so that tr(coef @ basis) = c . traces."""
        return np.trace(self.basis, axis1=-2, axis2=-1)

    @cached_property
    def su2(self) -> bool:
        """Whether the basis is traceless and every A = c @ basis obeys
        A^3 = k^2 A: by Cayley-Hamilton for d = 2, otherwise as
        ``_obeys_su2`` finds.  A basis with a trace steps by ``expm_hermitian``."""
        m = self.basis
        return not self.traces.any() and (
            m.shape[-1] == 2 or _obeys_su2(m.astype(complex).tobytes(), m.shape))

    @cached_property
    def su2_stack(self) -> np.ndarray:
        """1, the -i M_k and, for d > 2, the pair products M_k M_l (k
        major), flattened to (1 + K + K^2, d^2) complex and viewed as real
        (re, im) pairs, so that real weights take them in one real GEMM;
        for d = 2, (1 + K, 8)."""
        m = self.basis
        k, d = m.shape[:2]
        parts = [np.eye(d)[None], -1j * m] + ([(m[:, None] @ m[None]).reshape(k * k, d, d)]
                                              if d > 2 else [])
        return np.concatenate(parts).reshape(-1, d * d).view(float)

    def _k2(self, c: np.ndarray) -> np.ndarray:
        """k^2 = c . Gram c / 2 of each coefficient row, clamped at 0."""
        return np.maximum(0.5 * np.sum((c @ self.gram) * c, axis=-1), 0.0)

    def su2_norm(self, c: np.ndarray) -> np.ndarray:
        """||c @ basis||, its largest |level|, for each coefficient row c,
        shaped (n, K), of a basis with ``su2``: the levels lie among
        {-k, 0, +k} (see ``Linear``), so it is k.  Each row is divided by
        its largest |c| before anything is squared, so a coefficient
        ~ 1/tau near the float range gives a finite norm."""
        scale = np.max(np.abs(c), axis=-1)
        return scale * np.sqrt(self._k2(c / np.where(scale > 0, scale, 1.0)[:, None]))

    def expm_su2(self, c: np.ndarray) -> np.ndarray:
        """exp(-i c @ basis) for coefficient rows c, shaped (n, K), of a
        basis with ``su2``: the closed form (see ``Linear``) read off the
        coefficients.  With A^2 = sum_kl c_k c_l M_k M_l, the exponentials
        are one real GEMM of (n, 1 + K + K^2) weights 1, sinc(k) c_k,
        -sinc^2(k/2) c_k c_l / 2 over ``su2_stack``; for d = 2,
        A^2 = k^2 1 and the pairs drop out.  No matrix of c is formed, so a
        c scaled by a time step first squares nothing larger, and the sinc
        forms hold at k = 0."""
        n, (k, d) = len(c), self.basis.shape[:2]
        k2 = self._k2(c)
        root = np.sqrt(k2)  # np.sinc(x) = sin(pi x) / (pi x)
        sinc, half = np.sinc(root / np.pi), 0.5 * np.sinc(root / (2 * np.pi)) ** 2
        w = np.empty((n, len(self.su2_stack)))
        w[:, 0] = 1.0 - half * k2 if d == 2 else 1.0
        np.multiply(sinc[:, None], c, out=w[:, 1 : k + 1])
        if d > 2:
            np.multiply((-half[:, None] * c)[:, :, None], c[:, None, :],
                        out=w[:, k + 1 :].reshape(n, k, k))
        return (w @ self.su2_stack).view(complex).reshape(n, d, d)


@cache
def _obeys_su2(data: bytes, shape: tuple[int, int, int]) -> bool:
    """Whether the traceless complex generators M with these bytes give
    A^3 = k^2 A for every A = c @ M: the residual, a cubic form in c, is
    checked at the C(K + 2, 3) points of N^K whose entries sum to 3, which
    determine a cubic form, each entry within SU2_RTOL of
    ||A||_F^3 = (2 k^2)^(3/2).  Kept per generator set: each run builds its
    own forms over the same constant generators."""
    k, d = shape[:2]
    c = np.eye(k)[list(combinations_with_replacement(range(k), 3))].sum(axis=1)
    a = (c @ np.frombuffer(data, complex).reshape(k, d * d)).reshape(-1, d, d)
    k2 = 0.5 * np.sum(np.abs(a) ** 2, axis=(1, 2))[:, None, None]
    return bool(np.all(np.abs(a @ a @ a - k2 * a) <= SU2_RTOL * (2.0 * k2) ** 1.5))


def _gram(basis: np.ndarray) -> np.ndarray:
    """Re tr(M_k M_l) over a stack of Hermitian M_k."""
    flat = basis.reshape(len(basis), -1)
    return (flat @ flat.conj().T).real


@dataclass(frozen=True)
class TimeDepHamiltonian:
    """Hamiltonian evaluator on the dimensionless time s in [0, 1].

    ``func(s)`` and ``deriv(s)`` take s as a float or a 1-D array of points
    and return an operator of shape ``np.shape(s) + (dim, dim)``, one
    (dim, dim) matrix per point; ``__call__`` and ``derivative`` check that
    shape.  ``deriv`` is the analytic s-derivative when available.  A
    ``Linear`` func gives the leaf a coefficient form (``terms``), which
    ``metrics.energy_cost`` reads instead of the dense operator; any other
    callable is evaluated densely.

    ``parts``, when set, is the node (``TensorSum``, ``Branches`` or
    ``Rotation``) over smaller Hamiltonians that ``composite`` built H from:
    ``func`` and ``deriv`` assemble the dense operator from the tree, while
    propagation walks it and never forms it.  Without ``parts``, H is a leaf.
    """

    dim: int
    func: Callable[[float | np.ndarray], np.ndarray]
    deriv: Optional[Callable[[float | np.ndarray], np.ndarray]] = None
    parts: Optional[TensorSum | Branches | Rotation] = None

    def __call__(self, s) -> np.ndarray:
        return check_shape(self.func(s), s, self.dim)

    def derivative(self, s) -> np.ndarray:
        if self.deriv is not None:
            return check_shape(self.deriv(s), s, self.dim)
        lo, hi = np.maximum(0.0, s - _DERIV_STEP), np.minimum(1.0, s + _DERIV_STEP)
        return (self(hi) - self(lo)) / (hi - lo)[..., None, None]


@dataclass(frozen=True)
class SuperadiabaticHamiltonian:
    """Total shortcut generator H(s) + H_cd(s) for a runtime tau, finite and
    at least the smallest normal float ``np.finfo(float).tiny``.

    ``cd(s)`` follows the contract of ``TimeDepHamiltonian.func`` (``total``
    checks its shape); ``parts``, when set, is the structure node over
    shortcuts that this one composes (see ``composite``).
    """

    base: TimeDepHamiltonian
    cd: Callable[[float | np.ndarray], np.ndarray]
    tau: float
    parts: Optional[TensorSum | Branches | Rotation] = None

    def __post_init__(self):
        if not 0.0 < self.tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.tau < _TAU_MIN:
            raise ValueError(f"tau={self.tau} is below the smallest normal float "
                             f"{_TAU_MIN:.6g}: its correction ~ 1/tau overflows")

    @property
    def dim(self) -> int:
        return self.base.dim

    def total(self, s) -> np.ndarray:
        return self.base(s) + check_shape(self.cd(s), s, self.dim)

    def __call__(self, s) -> np.ndarray:
        return self.total(s)

    @cached_property
    def form(self) -> Optional[Linear]:
        """``terms`` of the shortcut: the drive's and the correction's forms
        concatenated, or None."""
        base = terms(self.base)
        if base is None or not isinstance(self.cd, Linear):
            return None
        cd = self.cd
        return Linear(lambda s: np.concatenate([base.coef(s), cd.coef(s)], axis=-1),
                      np.concatenate([base.basis, cd.basis]))


def terms(h) -> Optional[Linear]:
    """A leaf's coefficient form: a drive's ``Linear`` func; for a shortcut
    whose drive has one and whose cd is ``Linear``, the two concatenated
    (``SuperadiabaticHamiltonian.form``, built once per shortcut, so its
    cached tables serve every call).  None for anything else
    (``cd_generic``, custom leaves, nodes)."""
    if isinstance(h, SuperadiabaticHamiltonian):
        return h.form
    func = getattr(h, "func", None)
    return func if isinstance(func, Linear) else None


# --- structure tree -----------------------------------------------------------
#
# Each node holds its child Hamiltonians in ``parts``; every child is a
# TimeDepHamiltonian or SuperadiabaticHamiltonian, itself a leaf or a node.


@dataclass(frozen=True)
class TensorSum:
    """sum_k 1 (x)..(x) H_k (x)..(x) 1, each part on its own consecutive slot."""

    parts: tuple

    @property
    def dim(self) -> int:
        return prod(p.dim for p in self.parts)


@dataclass(frozen=True)
class Branches:
    """sum_i P_i (x) H_i: orthogonal projectors P_i summing to 1 on the
    leading subsystem select the part H_i acting on the trailing one."""

    projectors: tuple[np.ndarray, ...]
    parts: tuple

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0] * self.parts[0].dim

    @cached_property
    def basis(self) -> tuple[np.ndarray, tuple[slice, ...]]:
        """Unitary W on the leading subsystem whose consecutive column
        groups span the ranges of P_0, P_1, ..., and those groups."""
        lam, w = np.linalg.eigh(sum(i * p for i, p in enumerate(self.projectors)))
        edges = np.cumsum([0] + [int(np.sum(np.rint(lam) == i)) for i in range(len(self.parts))])
        return w, tuple(slice(a, b) for a, b in zip(edges[:-1], edges[1:]))


@dataclass(frozen=True)
class Rotation:
    """G H G^dag for a constant unitary G = g on the listed qubits of H's
    space (``qubits[0]`` the most significant bit of g's index), the
    identity on the others; ``parts`` holds the single H."""

    g: np.ndarray
    parts: tuple
    qubits: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.parts[0].dim


def assemble(node, op: Callable) -> np.ndarray:
    """Dense operator of a structure node, with ``op(part)`` the dense
    operator of each part, e.g. ``lambda h: h(s)`` or ``lambda h: h.cd(s)``.
    A rotation's gate is contracted with the qubit axes on both sides, and
    a tensor sum's parts are added into their slots' axes."""
    ops = [op(p) for p in node.parts]
    if isinstance(node, Branches):
        return sum(np.kron(p, o) for p, o in zip(node.projectors, ops))
    lead, d = ops[0].shape[:-2], node.dim
    if isinstance(node, Rotation):
        left = apply_on_qubits(node.g, node.qubits, ops[0].reshape(-1, d, d))
        turned = apply_on_qubits(node.g.conj(), node.qubits, np.swapaxes(left, -1, -2))
        return np.swapaxes(turned, -1, -2).reshape(lead + (d, d))
    out = np.zeros(lead + (d, d), dtype=np.result_type(*ops))
    dims = [p.dim for p in node.parts]
    for k, o in enumerate(ops):  # out[.., (a, i, b), (a, j, b)] += o[.., i, j]
        a, b = prod(dims[:k]), prod(dims[k + 1 :])
        slots = out.reshape(lead + (a, dims[k], b) * 2)
        np.einsum("...aibajb->...abij", slots)[...] += o[..., None, None, :, :]
    return out


def composite(node) -> TimeDepHamiltonian | SuperadiabaticHamiltonian:
    """The Hamiltonian a structure node describes: over drives the drive;
    over shortcuts the shortcut whose drive and correction are the node over
    their drives and corrections.  ValueError if the parts mix drives and
    shortcuts or disagree on tau."""
    shortcuts = [isinstance(p, SuperadiabaticHamiltonian) for p in node.parts]
    if not any(shortcuts):
        return TimeDepHamiltonian(
            dim=node.dim,
            func=lambda s: assemble(node, lambda h: h(s)),
            deriv=lambda s: assemble(node, lambda h: h.derivative(s)),
            parts=node,
        )
    if not all(shortcuts):
        raise ValueError("a structure node cannot mix drives and shortcuts")
    taus = sorted({p.tau for p in node.parts})
    if len(taus) != 1:
        raise ValueError(f"shortcut parts disagree on tau: {taus}")
    return SuperadiabaticHamiltonian(
        base=composite(replace(node, parts=tuple(p.base for p in node.parts))),
        cd=lambda s: assemble(node, lambda h: h.cd(s)),
        tau=taus[0],
        parts=node,
    )


@dataclass(frozen=True)
class TeleportSpec:
    """Parameters of the (optionally gate-rotated) teleport Hamiltonian."""

    n_sectors: int
    schedule: Schedule
    gate: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n_sectors < 1:
            raise ValueError("n_sectors must be >= 1")
        if self.gate is not None:
            want = 2**self.n_sectors
            if self.gate.shape != (want, want):
                raise ValueError(
                    f"gate dim {self.gate.shape} does not match {self.n_sectors} qubits"
                )
            if not is_unitary(self.gate):
                raise ValueError("gate must be unitary")

    @property
    def n_qubits(self) -> int:
        return 3 * self.n_sectors

    @property
    def bob_qubits(self) -> tuple[int, ...]:
        return tuple(3 * k + 2 for k in range(self.n_sectors))


# Basis ordering that block-diagonalizes the sector Hamiltonian: the four
# even-parity states {000, 011, 101, 110} then their spin-flips
# {111, 100, 010, 001}.  Both 4x4 blocks are identical.
PARITY_ORDER = (0, 3, 5, 6, 7, 4, 2, 1)


def parity_permutation() -> np.ndarray:
    return np.eye(8)[:, PARITY_ORDER]


# B_ini = -(Z (x) 1 + 1 (x) X) and B_fin = -(Z (x) Z + X (x) X): with
# P = ``parity_permutation()``, the leading 4x4 blocks of P^T H_ini P and
# P^T H_fin P, so that G = [B_fin, B_ini] / 4 = i (Z (x) Y - Y (x) X) / 2.
# 0.0 - S rather than -S keeps every zero unsigned, so both are bitwise those blocks.
_BLOCK_TERMS = tuple(0.0 - (kron(*a) + kron(*b)) for a, b in (((Z, I2), (I2, X)),
                                                              ((Z, Z), (X, X))))
for _b in _BLOCK_TERMS:
    _b.flags.writeable = False


def teleport_block_terms() -> tuple[np.ndarray, np.ndarray]:
    """B_ini and B_fin (see ``_BLOCK_TERMS``): the same read-only pair on every call."""
    return _BLOCK_TERMS


def teleport_block_hamiltonian(schedule: Schedule) -> TimeDepHamiltonian:
    """The 4x4 parity block B(s) = eta_i(s) B_ini + eta_f(s) B_fin of a sector
    (``teleport_block_terms``): P^T H(s) P = 1_2 (x) B(s), in coefficient
    form.  B_ini, B_fin and G = [B_fin, B_ini] / 4 span a spin-1 (+) spin-0
    representation of su(2), levels -2x, 0, 0, 2x with x = ``schedule.chi``,
    so the form has ``Linear.su2``."""
    basis = np.stack(teleport_block_terms())
    return TimeDepHamiltonian(
        dim=4,
        func=Linear(lambda s: np.stack(schedule.eta(s), axis=-1), basis),
        deriv=Linear(lambda s: np.stack(schedule.deta(s), axis=-1), basis),
    )


def sector_tree(block):
    """The sector P (1_2 (x) B) P^T over its parity block B (a drive or a
    shortcut) as a tree."""
    return composite(Rotation(parity_permutation(), (composite(Branches((I2,), (block,))),),
                              (0, 1, 2)))


def teleport_sector_hamiltonian(schedule: Schedule) -> TimeDepHamiltonian:
    """Single-sector (3-qubit) teleport Hamiltonian
    H(s) = eta_i(s) H_ini + eta_f(s) H_fin as the tree P (1_2 (x) B(s)) P^T
    over its 4x4 parity block, which propagation and costs work on."""
    return sector_tree(teleport_block_hamiltonian(schedule))


def teleport_tree(spec: TeleportSpec, sector):
    """``sector`` (a drive or a shortcut) in each of the spec's tensor
    slots, the sum conjugated by the gate on Bob's channel qubits if set."""
    h = sector if spec.n_sectors == 1 else composite(TensorSum((sector,) * spec.n_sectors))
    return h if spec.gate is None else composite(Rotation(spec.gate, (h,), spec.bob_qubits))


def teleport_hamiltonian(spec: TeleportSpec) -> TimeDepHamiltonian:
    """Full teleport Hamiltonian: one 3-qubit term per sector, optionally
    conjugated by the gate acting on Bob's channel qubits."""
    return teleport_tree(spec, teleport_sector_hamiltonian(spec.schedule))


def teleport_energies(schedule: Schedule, s) -> np.ndarray:
    """Distinct single-sector levels (-2x, 0, 0, +2x), x = sqrt(ei^2+ef^2),
    shaped ``np.shape(s) + (4,)``; in the 8-dim sector space each level
    appears twice."""
    chi = np.real(schedule.chi(s))
    zero = np.zeros_like(chi)
    return np.stack([-2 * chi, zero, zero, 2 * chi], axis=-1)


def teleport_gap(schedule: Schedule, s) -> np.ndarray:
    """Ground-to-first-excited gap 2*sqrt(eta_i^2 + eta_f^2), shaped
    ``np.shape(s)``."""
    return 2.0 * np.real(schedule.chi(s))


def parity_operators(
    n_sectors: int,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Total and per-sector parity (ZZZ) and spin-flip (XXX) operators."""
    n_qubits = 3 * n_sectors
    zzz = kron(Z, Z, Z)
    xxx = kron(X, X, X)
    pz_sectors = [embed(zzz, [3 * k, 3 * k + 1, 3 * k + 2], n_qubits) for k in range(n_sectors)]
    px_sectors = [embed(xxx, [3 * k, 3 * k + 1, 3 * k + 2], n_qubits) for k in range(n_sectors)]
    pz_total = np.eye(2**n_qubits, dtype=complex)
    px_total = np.eye(2**n_qubits, dtype=complex)
    for pz, px in zip(pz_sectors, px_sectors):
        pz_total = pz_total @ pz
        px_total = px_total @ px
    return pz_total, px_total, pz_sectors, px_sectors


# --- controlled evolutions --------------------------------------------------


@dataclass(frozen=True)
class ControlledSpec:
    """Parameters of the controlled (adiabatic or shortcut) evolution.

    ``activation`` is the control-register basis index that triggers the
    rotation branch; it defaults to all-ones (2**n_controls - 1).
    """

    n_controls: int
    axis: object = "x"
    phi: float = np.pi
    theta0: float = np.pi
    tau: float = 1.0
    activation: Optional[int] = None

    def __post_init__(self):
        if self.n_controls < 0:
            raise ValueError("n_controls must be >= 0")
        if not 0.0 < self.theta0 <= np.pi:
            raise ValueError(f"theta0 must lie in (0, pi], got {self.theta0}")
        if not np.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        parse_axis(self.axis)
        n_states = 2**self.n_controls
        act = self.activation if self.activation is not None else n_states - 1
        if not 0 <= act < n_states:
            raise ValueError(f"activation index {act} out of range for {self.n_controls} controls")
        object.__setattr__(self, "activation", act)

    @property
    def n_system(self) -> int:
        """Qubits in the target subsystem (controls + rotation target)."""
        return self.n_controls + 1

    def activation_projector(self) -> np.ndarray:
        """P = |l><l| on the controls tensored with |n-><n-| on the target."""
        _, p_minus = axis_projectors(self.axis)
        if self.n_controls == 0:
            return p_minus
        sel = np.zeros((2**self.n_controls,) * 2, dtype=complex)
        sel[self.activation, self.activation] = 1.0
        return np.kron(sel, p_minus)

    @cached_property
    def rotation(self) -> np.ndarray:
        """The rotation selected by the activation projector,
        R = [1 - P] + e^{i phi} P on the target subsystem, formed once per
        spec for all of a run's inputs."""
        p_act = self.activation_projector()
        return np.eye(p_act.shape[0], dtype=complex) + (np.exp(1j * self.phi) - 1.0) * p_act


def _branch_basis(xi: float) -> np.ndarray:
    """-sz and -(sx cos(xi) + sy sin(xi)), the generators of ``h_xi``."""
    return -np.stack([Z, np.cos(xi) * X + np.sin(xi) * Y])


def _cos_sin(theta) -> np.ndarray:
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def h_xi(theta, xi: float) -> np.ndarray:
    """Ancilla branch Hamiltonian
    -[cos(theta) sz + sin(theta) (sx cos(xi) + sy sin(xi))], one per entry
    of theta."""
    return Linear(_cos_sin, _branch_basis(xi))(theta)


def controlled_hamiltonian(spec: ControlledSpec) -> TimeDepHamiltonian:
    """H(s) = [1 - P] (x) H_0(s) + P (x) H_phi(s) on (system + ancilla), each
    branch ``h_xi(theta0 s, xi)`` in coefficient form."""
    p_act = spec.activation_projector()
    p_rest = np.eye(p_act.shape[0], dtype=complex) - p_act
    theta0 = spec.theta0

    def branch(xi: float) -> TimeDepHamiltonian:
        basis = _branch_basis(xi)
        return TimeDepHamiltonian(
            dim=2,
            func=Linear(lambda s: _cos_sin(theta0 * s), basis),
            deriv=Linear(lambda s: theta0 * np.stack([-np.sin(theta0 * s), np.cos(theta0 * s)],
                                                     axis=-1), basis),
        )

    return composite(Branches((p_rest, p_act), (branch(0.0), branch(spec.phi))))


# --- adiabatic-runtime diagnostic -------------------------------------------


def adiabatic_time_estimate(h: TimeDepHamiltonian) -> float:
    """Runtime scale max |<E_k| dH/ds |E_n>| / gap_nk^2 over an s-grid.

    Degenerate levels are grouped into clusters; the matrix element is the
    spectral norm of the inter-cluster block, which is invariant under basis
    choice inside each cluster.  A run much longer than this estimate is
    expected to be adiabatic; the estimate is a dimensionless omega*tau.
    RuntimeError if the degeneracy pattern changes along the grid.
    """
    s_grid = np.linspace(0.0, 1.0, _ESTIMATE_GRID)
    energies = np.empty((_ESTIMATE_GRID, h.dim))
    best = 0.0
    for c in _chunks(_ESTIMATE_GRID, h.dim):
        energies[c], vec = eigh(h(s_grid[c]))
        # every row so far, so that a pattern change between chunks is caught too
        clusters = level_clusters(s_grid[: c.stop], energies[: c.stop])
        lam, dh = energies[c], h.derivative(s_grid[c])
        for ca in clusters:
            va = np.swapaxes(vec[..., ca], -1, -2).conj()
            for cb in clusters:
                if cb == ca:
                    continue
                gap = np.abs(lam[:, ca.start] - lam[:, cb.start])
                block = va @ dh @ vec[..., cb]
                best = max(best, float(np.max(np.linalg.norm(block, 2, axis=(-2, -1)) / gap**2)))
    return best
