"""Dense complex linear algebra shared by every other module.

Conventions used throughout the package:

* hbar = omega = 1: times are the dimensionless product omega * tau, and
  energies are in units of hbar * omega.
* States are 1-D complex arrays of length ``2**n``; the FIRST qubit in any
  qubit list is the most significant bit of the basis index.
* Operators are square complex ndarrays.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-12  # largest entry of u^dag u - 1 that ``is_unitary`` accepts
STATE_NORM_TOL = 1e-10  # largest |norm - 1| of a column that ``check_state`` accepts
CLUSTER_TOL = 1e-8  # level width relative to max(1, |E|): closer eigenvalues are one level
_CHUNK = 256  # points of s per batched evaluation
_CHUNK_ENTRIES = 2**18  # cap on the operator or state entries of one chunk (4 MiB complex)


class ToleranceError(RuntimeError):
    """A runtime check that a run failed, not a bad argument (a ValueError):
    a spectrum's degeneracy pattern changed (``level_clusters``), the
    ground vector jumped between grid points (``metrics.qsl_ground_chi``),
    the step search missed STATE_TOL below MAX_STEPS (``dynamics.evolve``),
    ``metrics.theta_opt`` found no bracket or a residual above
    STATIONARITY_RTOL, or a command's run fell below the fidelity floor,
    broke the speed limit or priced a cost off its closed form
    (``sal.cli``).  The command line exits 2 on it."""


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of any number of operators (left to right)."""
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def check_shape(op: np.ndarray, s, dim: int) -> np.ndarray:
    """op, checked to hold one (dim, dim) operator per point of s, so that a
    closure written for scalar s alone cannot broadcast over the points."""
    if np.shape(op) != np.shape(s) + (dim, dim):
        raise ValueError(f"operator of shape {np.shape(op)} for s of shape {np.shape(s)}")
    return op


def check_int(value, name: str):
    """value, checked to be an integer (a Python or numpy int, not a bool):
    ValueError naming ``name`` for anything else, 101.5 and 2001.0 too."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def check_tau(tau: float, name: str) -> float:
    """tau, checked to be a positive, finite runtime: ValueError naming
    ``name`` for anything else, NaN too."""
    if not 0 < tau < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {tau}")
    return tau


def check_finite(value: float, name: str) -> float:
    """value, checked to be finite: ValueError naming ``name`` for inf or NaN."""
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def check_state(psi, dim: int) -> np.ndarray:
    """psi as a complex array, checked to be a state of ``dim`` entries or a
    (dim, m) block of m >= 1 of them whose columns are each finite with unit
    norm within STATE_NORM_TOL: ValueError naming the shape or the first bad
    column for anything else."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim not in (1, 2) or psi.shape[0] != dim or not psi.size:
        raise ValueError(f"a state has shape ({dim},) or ({dim}, m), got {psi.shape}")
    norms = np.sqrt(np.add.reduce((psi.conj() * psi).real, axis=0)).reshape(-1)
    ok = np.abs(norms - 1.0) <= STATE_NORM_TOL  # False for a NaN norm
    if not ok.all():
        j = int(np.argmin(ok))  # the first bad column
        raise ValueError(f"state column {j} has norm {norms[j]:.12g}, "
                         f"not 1 within {STATE_NORM_TOL}")
    return psi


def is_unitary(u: np.ndarray) -> bool:
    """Whether u is square with every entry of u^dag u - 1 within UNITARY_ATOL.
    An entry that is not finite or exceeds 1 + UNITARY_ATOL in modulus fails
    before u^dag u is formed, so a huge entry gives False, not an overflow."""
    if u.ndim != 2 or u.shape[0] != u.shape[1] or not np.all(np.abs(u) <= 1 + UNITARY_ATOL):
        return False
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))) <= UNITARY_ATOL


def eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator or a stack (..., d, d).

    Returns eigenvalues in ascending order and the matrix whose columns are
    the corresponding orthonormal eigenvectors.  Input that is not Hermitian
    to HERMITIAN_ATOL relative to max(1, its largest entry) is rejected.
    """
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise ValueError(f"operator must be square, got shape {h.shape}")
    defect = np.max(np.abs(h - np.swapaxes(h, -1, -2).conj()), axis=(-2, -1))
    if np.any(defect > HERMITIAN_ATOL * np.maximum(1.0, np.max(np.abs(h), axis=(-2, -1)))):
        raise ValueError(f"operator is not Hermitian (defect {np.max(defect):.3e})")
    return np.linalg.eigh(h)


def _chunks(n: int, dim: int, width: int = 0, step: int = 1) -> Iterator[slice]:
    """Consecutive slices of range(n), each small enough that one
    (len, dim, dim) operator stack, and one (len, width) stack of states,
    per slice is evaluated at once; every slice but the last holds a
    multiple of ``step`` points, at least ``step``."""
    size = max(step, min(_CHUNK, _CHUNK_ENTRIES // max(dim**2, width)) // step * step)
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


def level_clusters(s: np.ndarray, energies: np.ndarray) -> tuple[slice, ...]:
    """The degenerate levels shared by every row of a stack of ascending
    spectra, energies[j] at s[j]: a new level starts wherever the gap to the
    previous eigenvalue exceeds CLUSTER_TOL * max(1, max |E|) of that row.
    ToleranceError names the first s whose pattern differs from the first
    row's (levels cross or a gap closes)."""
    tol = CLUSTER_TOL * np.maximum(1.0, np.max(np.abs(energies), axis=1, keepdims=True))
    breaks = np.diff(energies, axis=1) > tol
    changed = np.flatnonzero(np.any(breaks != breaks[0], axis=1))
    if changed.size:
        raise ToleranceError(f"degeneracy pattern changes at s={s[changed[0]]:.4f}")
    edges = [0, *(np.flatnonzero(breaks[0]) + 1), energies.shape[1]]
    return tuple(slice(a, b) for a, b in zip(edges, edges[1:]))


def _transport(s, h: np.ndarray, dh: np.ndarray, first: np.ndarray | None = None) -> tuple:
    """(energies, V, levels, A) at the points s from the stacks h = H(s) and
    dh = d_s H(s): one ``eigh`` H = V E V^dag, the ``level_clusters`` of the
    spectrum ``first`` at s = 0 (the first point's if None) and the points,
    and Berry's pairwise quotient A[m, n] = <m|d_s H|n> / (E_n - E_m), 0
    inside a level, so that d_s V = V A in the parallel-transport gauge."""
    energies, v = eigh(h)
    ref = np.atleast_2d(energies)[0] if first is None else first
    clusters = level_clusters(np.append(0.0, s), np.vstack([ref, energies]))
    level = np.repeat(np.arange(len(clusters)), [c.stop - c.start for c in clusters])
    gap = energies[..., None, :] - energies[..., :, None]  # E_n - E_m at [m, n]
    gap[..., level[:, None] == level] = np.inf
    return energies, v, clusters, np.swapaxes(v, -1, -2).conj() @ dh @ v / gap


def _running_products(u: np.ndarray) -> np.ndarray:
    """p[k] = u[k] @ ... @ u[0] for a stack of n unitaries, by a work-efficient
    prefix scan (Blelloch 1990): scanning the pair products u[2j+1] @ u[2j]
    gives the odd-indexed p, and p[2j] = u[2j] @ p[2j-1] the even-indexed
    ones: about 2 log2(n) batched numpy calls, where step order takes n."""
    p = np.array(u)
    if len(u) > 1:
        p[1::2] = _running_products(u[1::2] @ u[:-1:2])
        p[2::2] = u[2::2] @ p[1:-1:2]
    return p


def _chain_product(u: np.ndarray) -> np.ndarray:
    """_running_products(u)[-1:], bitwise: the scan's own pairings, taken
    down to the last element only, in about log2(n) batched products."""
    if len(u) == 1:
        return u
    p = _chain_product(u[1::2] @ u[:-1:2])
    return u[-1:] @ p if len(u) % 2 else p


def _polished(p: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step, p (3 - p^dag p) / 2, which squares a stack of
    products' departure from unitarity.  The running products over a chunk
    of CF4 steps drift ~4e-15 off unitary, and that adds up over the chunks:
    6.1e-13 in the norm after 12030 steps of teleport --n 3 --gate Toffoli
    at tau = 0.1 (4e-16 polished)."""
    return 1.5 * p - 0.5 * p @ (np.swapaxes(p, -1, -2).conj() @ p)


def expm_hermitian(h: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """exp(-i*h*t) for Hermitian h or a stack (..., d, d), with t a float or
    one per matrix, unitary by construction."""
    lam, v = np.linalg.eigh(h)
    phases = np.exp(-1j * lam * np.asarray(t)[..., None])
    return (v * phases[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def embed(op: np.ndarray, qubits: list[int] | tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Embed an operator acting on the listed qubits into the n-qubit space.

    ``qubits[0]`` is the most significant bit of the operator's own index
    space.  The remaining qubits receive the identity.
    """
    qubits = list(qubits)
    k = len(qubits)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} qubits")
    if len(set(qubits)) != k or any(q < 0 or q >= n_qubits for q in qubits):
        raise ValueError(f"invalid qubit list {qubits} for {n_qubits} qubits")
    rest = [q for q in range(n_qubits) if q not in qubits]
    big = np.kron(op, np.eye(2 ** len(rest), dtype=op.dtype))
    order = qubits + rest
    inv = np.argsort(order)
    big = big.reshape([2] * (2 * n_qubits))
    big = np.transpose(big, list(inv) + [n_qubits + int(p) for p in inv])
    return np.ascontiguousarray(big.reshape(2**n_qubits, 2**n_qubits))


def apply_on_qubits(op: np.ndarray, qubits, x: np.ndarray) -> np.ndarray:
    """``embed(op, qubits, n) @ x`` on the middle axis of x, shaped
    (pre, 2**n, post), by contracting op with those qubits' axes: no
    2**n-dimensional operator is formed."""
    k, (pre, dim, post) = len(qubits), x.shape
    axes = [1 + q for q in qubits]  # qubit q is axis 1 + q of the qubit tensor
    tensor = x.reshape(pre, *[2] * (dim.bit_length() - 1), post)
    y = np.tensordot(op.reshape([2] * (2 * k)), tensor, (range(k, 2 * k), axes))
    return np.moveaxis(y, range(k), axes).reshape(x.shape)


def state_from_factors(factors: list[tuple[np.ndarray, list[int]]], n_qubits: int) -> np.ndarray:
    """Assemble an n-qubit state from factor states on disjoint qubit sets.

    Each entry is ``(amplitudes, qubit_indices)``; the index lists must
    partition ``range(n_qubits)``.
    """
    order: list[int] = []
    psi = np.array([1.0 + 0j])
    for amps, qubits in factors:
        if len(amps) != 2 ** len(qubits):
            raise ValueError("factor length does not match its qubit count")
        psi = np.multiply.outer(psi, np.asarray(amps, dtype=complex)).reshape(-1)
        order.extend(qubits)
    if sorted(order) != list(range(n_qubits)):
        raise ValueError(f"factor qubits {sorted(order)} do not cover 0..{n_qubits - 1}")
    inv = np.argsort(order)
    return np.ascontiguousarray(psi.reshape([2] * n_qubits).transpose(inv).reshape(-1))


def normalize(psi: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(psi)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return psi / n


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return normalize(amps)


def simpson(y: np.ndarray, dx: float) -> float | np.ndarray:
    """Composite Simpson rule along axis 0 on a uniform grid with an odd
    number of nodes: a float for 1-D y, one integral per column otherwise."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 0 or len(y) < 3 or len(y) % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of nodes >= 3")
    out = dx / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum(axis=0) + 2.0 * y[2:-2:2].sum(axis=0))
    return float(out) if y.ndim == 1 else out
