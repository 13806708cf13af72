"""Time evolution, fidelities, measurement, and protocol target states.

The integrator takes fourth-order commutator-free Magnus (CF4) steps
(Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011); Blanes et al.,
Phys. Rep. 470, 151 (2009)): with H1, H2 at the Gauss nodes
(j + 1/2 -/+ sqrt(3)/6)/N of step j and a1,2 = 1/4 +/- sqrt(3)/6,

    psi <- exp(-i dt (a2 H1 + a1 H2)) exp(-i dt (a1 H1 + a2 H2)) psi,

two exponentials, each unitary.  Without a given step count, ``evolve``
starts from ``default_steps`` and doubles N until the step-doubling estimate
||psi_N - psi_{N/2}|| / 15 of the final state's error is at most STATE_TOL;
it returns the estimate as ``error_estimate``.  The first pass carries the
N/2 run alongside the N steps, so an accepted first estimate is one pass.
A pass only steps, in the walk frame, where the estimate is taken; the call
sets up once, then integrates E_tau, samples and leaves it on the accepted pass.

A Hamiltonian with ``parts`` is a tree (see ``sal.hamiltonians``): tensor
sums over consecutive slots, orthogonal ancilla branches and constant
rotations, down to leaf Hamiltonians.  The propagator holds the state in
the frame where every rotation is undone and every branch projector is
diagonal, entered and left once per call; a rotation is a small gate
contracted with its qubits' axes of the state, never a dense operator,
and a rotation over all of its node's qubits, in order (a sector's parity
permutation), is one matmul turn of the gate on the node's axis.
There the tree applies only leaf-sized matrices.  A CF4 step is exact on
the tree: a linear combination of H at the two nodes is the same sum or
branch split of the leaves' combinations, so each exponential factors into
per-leaf exponentials.

Each ``evolve`` call compiles the tree once into a flat plan (``_plan``, a
few node visits) that all its walks (``_walk``) follow, whatever their
column count.
For a node of dimension d the states, a batch of (dim, m) blocks, are
viewed as (batch, lead, d, post), post being m times the dimension of the
slots after the node (the plan holds it per column), and the node acts
on slices ("rows") of the lead axis: a tensor slot on all of them, a branch
part on its projector's range under each row of its node, so the rows of a
two-part branch below a slot come in runs.  The plan holds
* the frame turns (g, qubits, rows, d, post) in the order that enters the
  frame, top down: each rotation's gate on its qubits (qubits None when
  they are all of the node's, in order) and each branch node's basis W
  on its leading subsystem, applied as g^dag and W^dag
  (``frame=1``), and as g and W in reverse order to leave it (``-1``),
  on a copy of the states.  A one-part branch has no W: its projector is 1.
* one entry (leaf, rows, d, post, level) per leaf and run of rows, where
  ``op(leaf)`` acts, (d, d) for the whole batch or (batch, d, d) per
  entry; a run that directly follows one of the same leaf, d, post and
  level joins it, so the two branches of a controlled run, one leaf under
  a frame turn, are one entry.  The level counts the leaves before it on
  its rows.  A branch part that ends an odd number of levels short of its
  longest sibling gets a copy entry (leaf None) at its end, so that all
  rows end level by level in the same buffer.
One loop runs the entries with ``np.matmul(..., out=...)`` into two flat
work buffers, which ``_propagate`` allocates once per pass (a walk outside
it allocates its own): with ``compose`` the leaves' matrices multiply (step
products, eigenbases) and level k maps what level k - 1 wrote (the input
at level 0) into the other buffer; without, they add (E_tau's generator
bras, ground energies) and level k writes its product plus level k - 1's
sum.  Two buffers, because a product written over its own input makes
numpy copy that input first; so no walk allocates per leaf.  A walk's
result is a view of a buffer that the next walk overwrites, so what
outlives it is copied out: a chunk's last state (and the N/2 run's) and
its sampled states; ``final_state`` and ``states`` are the copies that
leave the frame.  A trailing slot (post = 1: the last slot, one column)
is contracted as x u^T, one (rows, d) x (d, d) GEMM per point rather than
a d-vector product per row.

Steps are taken a chunk at a time.  Each distinct leaf is read once per
chunk at both nodes of every step (of both counts in a first pass), and its
two exponentials of every step are formed as two batched stacks.  A leaf
whose coefficient form (``terms``) has the closed form, as
``Linear.su2`` works out from its generators (every traceless 2x2 form, so
a controlled run's one ancilla leaf, and the teleport parity block, drive
or closed-form shortcut), is read as coefficients c(s) and never
evaluated: the exponents dt (a2 c1 + a1 c2) and dt (a1 c1 + a2 c2) are
combined, scaled by dt, in coefficient space, and ``Linear.expm_su2``
forms the exponentials as one GEMM over constant tables cached on the
form.  Any other leaf
(``cd_generic``, custom leaves, the dense references, a form without the
closed form) is evaluated as a matrix stack and exponentiated by an
eigendecomposition (``expm_hermitian``).  The steps' running products
p_k = u_k ... u_0 come from a log-depth prefix scan (``_running_products``),
or only the chunk's total from the scan's own pairwise reduction
(``_chain_product``) when nothing reads an inner step, as for the N/2 run;
the total carried forward is polished back to unitary (its round-off would
otherwise add up over the chunks).  One walk of the tree then
applies the products at every step the chunk must report: its sample points
and its last step, or every step when a tree of two or more levels tracks
the speed-limit integral.
This equals applying the tree step by step because, in the walk frame, the
tree's step unitary is a tensor product over slots and a direct sum over
branch blocks: leaves in different slots commute, each block stays
invariant, and no rotation acts between steps.  So the product of the
tree's step unitaries over a chunk is the tree of each leaf's ordered chunk
product.

The speed-limit integral is Simpson's rule over the step ends (an odd step
count closes with one 3/8 panel) of |<psi(0)|H|psi>|, with no walk of H,
taken once per call, over the accepted pass.
One read (``_reader``) sums over the leaves f the coefficient row c_f(s_k),
a form's ``coef`` or H_f(s_k)'s entries over the matrix units, against
amplitudes a_f(k); the plan's level count picks, once per call, where these
come from.  In a one-level tree (every entry a leaf on level 0: a controlled
run, a one-sector teleport, a dense leaf) <psi(0)|H(s_k)|psi_k> =
sum_f tr(H_f(s_k) p_k^f X_f) is linear in each leaf's step product, X_f
summing the chunk's first state times psi(0)^dag over f's rows, so a_f is
read off the products and a pass walks only the steps it reports.  A deeper
tree's products compose across levels, so its states are walked to every
step end and a_f is their overlap with the bras G^dag psi(0) of f's
generators G, built once per call.  A walk batched over points gives
the ground-level weight at each sample point of the accepted pass (from
the leaves' eigenbases, one stacked eigendecomposition per leaf;
``n_samples=0`` skips it, as the command line does); the largest leaf's
norm gives the first step count, read off the coefficients of a
closed-form leaf (``_norm_bound``).  A Hamiltonian without ``parts`` is a
one-leaf tree: the dense reference the structured paths are tested
against.

A (dim, m) block of states runs as one: one step search (on the largest
column error), one set of step products, and E_tau per column.  Inputs
evolved by separate calls can share the step products through a StepCache.
"""

from __future__ import annotations

from math import prod
from typing import Optional

import numpy as np

from .hamiltonians import Branches, ControlledSpec, Rotation, bell_state, terms
from .linalg import (CLUSTER_TOL, ToleranceError, _chain_product, _chunks, _polished,
                     _running_products, apply_on_qubits, check_int, check_state, check_tau,
                     expm_hermitian, simpson, state_from_factors)

MIN_STEPS = 100
MAX_STEPS = 10**8
STATE_TOL = 1e-10  # bound on the step-doubling estimate of the final state's error
_GAUSS = np.sqrt(3.0) / 6.0  # Gauss nodes at 1/2 -/+ _GAUSS of each step
_A1, _A2 = 0.25 + _GAUSS, 0.25 - _GAUSS  # CF4 weights of the two nodes
_NORM_SAMPLES = 17  # points of s at which ``_norm_bound`` reads each leaf
_CACHE_ENTRIES = 2**22  # cap on the product entries one StepCache keeps (64 MiB complex)


def check_steps(steps: int, name: str) -> int:
    """steps, checked to be an integer in [MIN_STEPS, MAX_STEPS]:
    ValueError naming ``name`` for anything else."""
    if not MIN_STEPS <= check_int(steps, name) <= MAX_STEPS:
        raise ValueError(f"{name} must lie in [{MIN_STEPS}, {MAX_STEPS}], got {steps}")
    return steps


class EvolutionResult:
    """The checked input state (a copy), the final state, and the states,
    shaped (len(s_samples),) + final_state.shape, and instantaneous-ground-level
    fidelity at the sample points ``s_samples`` (both empty without samples).
    ``e_tau`` is (m,) for a (dim, m) block; ``error_estimate``, the
    step-doubling estimate, and ``step_counts``, the N of every pass run,
    are None for given steps."""

    def __init__(self, initial_state: np.ndarray, final_state: np.ndarray,
                 s_samples: np.ndarray, ground_fidelity: np.ndarray, states: np.ndarray,
                 tau: float, steps: int, e_tau: Optional[float | np.ndarray],
                 error_estimate: Optional[float], step_counts: Optional[tuple[int, ...]]):
        (self.initial_state, self.final_state, self.s_samples, self.ground_fidelity, self.states,
         self.tau, self.steps, self.e_tau, self.error_estimate, self.step_counts) = (
            initial_state, final_state, s_samples, ground_fidelity, states,
            tau, steps, e_tau, error_estimate, step_counts)


class StepCache:
    """Step products shared by the ``evolve`` calls of several input states
    under one Hamiltonian.

    A chunk's polished running products depend on H, tau, the step count and
    the steps the walk applies, not on the state, so a later call that runs
    the same pass applies them without forming the step exponentials again.
    At most _CACHE_ENTRIES entries are kept; products past that are
    recomputed.  The step search's first count, ``default_steps`` of H and
    tau, is kept per tau as well.
    """

    def __init__(self, h):
        self.h = h
        self.products: dict = {}
        self.entries = 0
        self.starts: dict = {}

    def start(self, tau: float) -> int:
        """``default_steps(h, tau)``, sampled once per tau."""
        if tau not in self.starts:
            self.starts[tau] = default_steps(self.h, tau)
        return self.starts[tau]

    def keep(self, key, prods: dict):
        size = sum(p.size for ps in prods.values() for p in ps)
        if self.entries + size <= _CACHE_ENTRIES:
            self.products[key] = prods
            self.entries += size


class MeasurementOutcome:
    """One branch of ``measure_ancilla``; a None ``post_state`` flags an
    undefined (p=0) branch."""

    def __init__(self, branch: int, probability: float, post_state: Optional[np.ndarray]):
        self.branch, self.probability, self.post_state = branch, probability, post_state


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


def _plan(h) -> tuple[list, list, int]:
    """The walk plan of h's tree, its posts per column: see the module
    docstring.  A leaf's run of rows that directly follows a run of the
    same leaf with equal (d, post, level) joins it into one entry."""
    turns, ops = [], []
    def visit(f, runs, post, level):  # f acts on the slices ``runs`` of the leading axis
        node, d = getattr(f, "parts", None), f.dim
        if node is None:
            for rows in runs:  # a run that directly follows one of f's on its level joins it
                if ops and ops[-1][0] is f and ops[-1][2:] == (d, post, level) \
                        and ops[-1][1].stop == rows.start:
                    rows = slice(ops.pop()[1].start, rows.stop)
                ops.append((f, rows, d, post, level))
            return level + 1
        if isinstance(node, Rotation):  # over all of the node's qubits: one matmul turn
            span = None if node.qubits == tuple(range(d.bit_length() - 1)) else node.qubits
            turns.extend((node.g, span, r, d, post) for r in runs)
        if not isinstance(node, Branches) or len(node.parts) == 1:  # slots, or one part
            left = d // prod(p.dim for p in node.parts)
            for p in node.parts:
                rows = [slice(r.start * left, r.stop * left) for r in runs]
                level, left = visit(p, rows, post * d // (left * p.dim), level), left * p.dim
            return level
        (w, spans), n = node.basis, d // node.parts[0].dim
        turns.extend((w, None, rows, n, post * d // n) for rows in runs)
        subs = [[slice(i * n + s.start, i * n + s.stop) for r in runs
                 for i in range(r.start, r.stop)] for s in spans]  # span s under each row
        ends = [visit(p, sub, post, level) for p, sub in zip(node.parts, subs)]
        ops.extend((None, rows, d // n, post, end) for sub, end in zip(subs, ends)
                   if (max(ends) - end) % 2 for rows in sub)  # a part an odd count short
        return max(ends)
    return turns, ops, visit(h, [slice(0, 1)], 1, 0)


def _walk(plan, x: np.ndarray, op=None, compose: bool = True, frame: int = 0, work=None):
    """The planned tree applied to x, shaped (batch, 1, dim, m): see the module
    docstring.  Keep the two ``work`` buffers reused over ``_propagate``'s
    walks: malloc can map a fresh array of 128 KiB or more anew, faulted in
    page by page, a cost that timing pairs in one process (one allocator)
    hide, so time a change in allocation in separate processes."""
    (turns, ops, top), m = plan, x.shape[-1]
    if frame:
        y = np.array(x, dtype=complex)
        for g, qubits, rows, d, post in turns[::frame]:  # leaving: the reverse order
            g, b = g.conj().T if frame > 0 else g, y.reshape(len(x), -1, d, post * m)[:, rows]
            b[...] = g @ b if qubits is None else apply_on_qubits(
                g, qubits, b.reshape(-1, d, post * m)).reshape(b.shape)
        return y
    bufs = [v[: x.size].reshape(len(x), -1) for v in work or np.empty((2, x.size), complex)]
    for leaf, rows, d, post, level in ops:
        post *= m
        last, b = (bufs[(level - j) % 2].reshape(len(x), -1, d, post)[:, rows] for j in (1, 0))
        a = last if compose and level else x.reshape(len(x), -1, d, post)[:, rows]
        u = np.eye(d) * compose if leaf is None else op(leaf)  # a copy, or nothing to add
        if post == 1:  # a trailing slot: x u^T, one GEMM per point
            np.matmul(a[..., 0], np.swapaxes(u, -1, -2), out=b[..., 0])
        else:
            np.matmul(u.reshape(-1, 1, d, d), a, out=b)
        if level and not compose:
            b += last
    return bufs[(top - 1) % 2].reshape(x.shape)


def _cf4_steps(leaf, c: slice, steps: int, tau: float, halve: bool) -> list[np.ndarray]:
    """The leaf's CF4 step unitaries for the steps j in c,
    exp(-i dt (a2 H1 + a1 H2)) exp(-i dt (a1 H1 + a2 H2)) with dt = tau / steps
    and H1, H2 at the Gauss nodes (j + 1/2 -/+ sqrt(3)/6) / steps, and with
    ``halve`` (c's ends even) those of steps/2 over the same span, each count
    with its own nodes and dt, from one reading of the leaf and one
    exponential pair (else an empty stack).  A leaf whose coefficient form
    has the closed form (``Linear.su2``) is read as coefficients, its
    exponents dt (a2 c(s1) + a1 c(s2)) and dt (a1 c(s1) + a2 c(s2)) scaled
    before anything is squared, and stepped by ``Linear.expm_su2``: it is
    never itself evaluated.  Any other leaf is evaluated as a matrix stack
    and stepped by ``expm_hermitian``."""
    mid = [np.arange(c.start >> i, c.stop >> i) + 0.5 for i in range(1 + halve)]  # N, N/2
    n = np.concatenate([np.full(len(m), steps / 2**i) for i, m in enumerate(mid)])
    mid = np.concatenate(mid)
    nodes = np.concatenate([mid - _GAUSS, mid + _GAUSS]) / np.concatenate([n, n])
    form = terms(leaf)
    if form is not None and form.su2:
        c1, c2 = np.split(form.coef(nodes), 2)
        dt = (tau / n)[:, None]
        a = np.concatenate([dt * (_A2 * c1 + _A1 * c2), dt * (_A1 * c1 + _A2 * c2)])
        e2, e1 = np.split(form.expm_su2(a), 2)
        u = e2 @ e1
    else:
        h1, h2 = np.split(leaf(nodes), 2)
        u = (expm_hermitian(_A2 * h1 + _A1 * h2, tau / n)
             @ expm_hermitian(_A1 * h1 + _A2 * h2, tau / n))
    return np.split(u, [c.stop - c.start])


def _reader(plan, leaves: list, x: np.ndarray):
    """read(s, prods, y, ys) = |<x_j|H(s_k)|psi_kj>| for the walk-frame states
    x, shaped (1, 1, dim, m), at the points s of a chunk: y its first states,
    prods its step products, ys its walked states; point 0, an extra first
    point of s, is y.  The sum over the leaves f and their generators G_J of
    c_J(s_k) a_J(k), with c_f a form's ``coef(s)`` or, for a leaf without one
    (``cd_generic``), H_f(s)'s entries over the matrix units E_ab, J = a d + b.
    With one level, a_J = tr(G_J p_k^f X_f), X_f the sum of y x^dag per
    column over f's rows: one (K, d^2) x (d^2, J m) GEMM for a form,
    (p_k^f X_f)[b, a] for E_ab.  With more, a_J = <b_J|psi_k> for ys at every
    point, b_J = E_J^dag x and E_J the tree with G_J in its leaf's places and
    nothing in the others: one additive walk of J points per call gives the
    bras, and a read takes one GEMM per leaf."""
    (_, ops, top), m = plan, x.shape[-1]
    forms = [terms(f) for f in leaves]
    if top > 1:
        counts = [f.dim**2 if form is None else len(form.basis) for f, form in zip(leaves, forms)]
        starts, bras = np.cumsum([0] + counts), []
        for c in _chunks(starts[-1], max(f.dim for f in leaves), x.size):
            gens = {id(f): np.zeros((c.stop - c.start, f.dim, f.dim), dtype=complex)
                    for f in leaves}
            for f, form, a, k in zip(leaves, forms, starts, counts):
                j = np.arange(max(c.start - a, 0), min(c.stop - a, k))  # its generators in c
                if form is None:
                    gens[id(f)][j + a - c.start, j % f.dim, j // f.dim] = 1.0  # E_ab^dag = E_ba
                else:
                    gens[id(f)][j + a - c.start] = form.basis[j]  # Hermitian
            bras.append(_walk(plan, np.broadcast_to(x, (c.stop - c.start,) + x.shape[1:]),
                              lambda f: gens[id(f)], compose=False))
        bras = np.concatenate(bras).reshape(starts[-1], -1, m).conj().T
        bras = [np.ascontiguousarray(b) for b in np.split(bras, starts[1:-1], axis=-1)]

    def read(s: np.ndarray, prods: dict, y: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if top > 1:
            ys = ys if len(ys) == len(s) else np.concatenate([y, ys])
            ys = np.moveaxis(ys.reshape(len(s), -1, m), -1, 0)
        else:
            xf = {id(f): 0.0 for f in leaves}
            for f, rows, d, post, _ in ops:
                a, b = (v.reshape(-1, d, post, m)[rows] for v in (y, x))
                xf[id(f)] = xf[id(f)] + np.einsum("raqj,rbqj->jab", a, b.conj())
        total = 0.0
        for i, (f, form) in enumerate(zip(leaves, forms)):
            if top > 1:  # <b_J|psi_k> per column
                amps = (ys @ bras[i]).transpose(1, 0, 2)
            else:
                p, d = prods[id(f)][0], f.dim
                if len(p) < len(s):  # point 0
                    p = np.concatenate([np.eye(d)[None], p])
                if form is None:  # (p X)[b, a]
                    amps = np.swapaxes(p[:, None] @ xf[id(f)], -1, -2).reshape(len(s), m, -1)
                else:  # tr(G p X) = vec(p) . vec((X G)^T)
                    gt = np.einsum("jca,Jab->bcjJ", xf[id(f)], form.basis).reshape(d * d, -1)
                    amps = (p.reshape(len(s), -1) @ gt).reshape(len(s), m, -1)
            coef = f(s).reshape(len(s), -1) if form is None else form.coef(s)
            total = total + np.einsum("kjJ,kJ->kj", amps, coef)
        return np.abs(total)
    return read


def _norm_bound(h) -> float:
    """max_s ||H(s)|| sampled on each leaf, the largest over the leaves: a
    CF4 step on the tree factorizes into per-leaf steps, so a tensor sum's
    step error is set by its largest slot, not by the norm of the sum.  A
    leaf whose coefficient form has the closed form (``Linear.su2``) is
    read off its coefficients (``Linear.su2_norm``); any other leaf is
    evaluated and its eigenvalues taken (``eigvalsh``)."""
    s = np.linspace(0.0, 1.0, _NORM_SAMPLES)
    return max(_leaf_norm(f, s) for f in _leaves(h))


def _leaf_norm(f, s: np.ndarray) -> float:
    """max ||f(s)|| over the points s (see ``_norm_bound``)."""
    form = terms(f)
    if form is not None and form.su2:
        return float(np.max(form.su2_norm(form.coef(s))))
    return max(float(np.max(np.abs(np.linalg.eigvalsh(f(s[c])))))
               for c in _chunks(len(s), f.dim))


def default_steps(h, tau: float) -> int:
    """First step count of the step-doubling search: the per-step action
    ||H|| tau / N of the largest leaf (``_norm_bound``, from the
    coefficients for a closed-form leaf, so a command's first count takes
    no eigendecomposition) at most STATE_TOL**(1/5), so that
    (||H|| dt)^5, the order of a fourth-order step's local error, stays
    below the tolerance.  Even, at least MIN_STEPS; ValueError above
    ``MAX_STEPS``."""
    need = 2.0 * np.ceil(0.5 * _norm_bound(h) * tau / STATE_TOL**0.2)
    if not need <= MAX_STEPS:
        raise ValueError(f"tau={tau} needs {need:.3g} steps, above MAX_STEPS={MAX_STEPS}")
    return max(MIN_STEPS, int(need))


def _ground_weights(plan, leaves: list, s: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Weight of each column of each walk-frame state xs[j], shaped
    (len(s), 1, dim, post), in the lowest level of the driving H(s[j]); for a
    shortcut that is its base, without the counter-diabatic term."""
    out = []
    for c in _chunks(len(s), max(f.dim for f in leaves), xs[0].size):
        spectra = {id(f): np.linalg.eigh(getattr(f, "base", f)(s[c])) for f in leaves}
        ones = np.ones((len(s[c]), 1, xs.shape[2], 1))
        energies = _walk(plan, ones, lambda f: spectra[id(f)][0][..., None] * np.eye(f.dim),
                         compose=False).real[:, 0, :, 0]
        amps = _walk(plan, xs[c], lambda f: np.swapaxes(spectra[id(f)][1], -1, -2).conj())[:, 0]
        top = np.maximum(1.0, np.max(np.abs(energies), axis=1, keepdims=True))
        level = energies < energies.min(axis=1, keepdims=True) + CLUSTER_TOL * top
        out.append(np.sum(np.abs(amps) ** 2 * level[..., None], axis=1))
    return np.concatenate(out)


def _propagate(plan, leaves: list, read, x: np.ndarray, tau: float, steps: int,
               picked: np.ndarray, cache: Optional[StepCache], halve: bool) -> tuple:
    """Take ``steps`` CF4 steps from the walk-frame states x, shaped
    (1, 1, dim, m), walking the tree's ``plan`` over its distinct ``leaves``.

    Returns, in the walk frame, the states after the steps j with ``picked[j]``
    (step j ends at point j + 1), the final states, those of the N/2 run that
    ``halve`` (an even ``steps``) carries alongside (``_cf4_steps``; else
    None), and the E_tau integrand |<x_j|H(s_k)|psi_kj>| of each column j at
    every step end (None without a ``read``).  ``read`` (``_reader``) takes
    each chunk's step products and its walked states; only a plan of two or
    more levels reads the states, so with one level only the reported steps
    (the picked ones and the last) are walked.  A chunk's products are read
    from ``cache`` when it holds them."""
    chunks = list(_chunks(steps, max(f.dim for f in leaves), x.size, 2))
    work = list(np.empty((2, chunks[0].stop * x.size), dtype=complex))  # the walks' two buffers
    half, sampled, overlaps = x, [], []
    for c in chunks:
        # One walk applies the chunk's steps up to each walked k: the running
        # product of each leaf's step unitaries (see the module docstring), or
        # its total alone when only the last step is needed.  A read needs the
        # products at every k; only a deeper tree's read walks every k.
        report = picked[c].copy()
        report[-1] = True
        ks = np.arange(c.stop - c.start) if read is not None else np.flatnonzero(report)
        walked = report if read is not None and plan[2] == 1 else slice(None)
        key = (tau, steps, c.start, ks.tobytes(), halve)
        prods = None if cache is None else cache.products.get(key)
        if prods is None:
            prods = {}
            for f in leaves:
                u, v = _cf4_steps(f, c, steps, tau, halve)
                p = _running_products(u)[ks] if len(ks) > 1 else _chain_product(u)
                p[-1:] = _polished(p[-1:])  # only the product carried forward
                prods[id(f)] = (p, _polished(_chain_product(v))) if halve else (p,)
            if cache is not None:
                cache.keep(key, prods)
        if halve:
            half = _walk(plan, half, lambda f: prods[id(f)][1], work=work).copy()
        xs = _walk(plan, np.broadcast_to(x, (len(ks[walked]),) + x.shape[1:]),
                   lambda f: prods[id(f)][0][walked], work=work)
        if read is not None:  # at the step ends, and point 0 with the first chunk
            ends = np.arange(c.start + (c.start > 0), c.stop + 1) / steps
            overlaps.append(read(ends, prods, x, xs))
        sampled.append(xs[picked[c][ks][walked]])
        x = xs[-1:].copy()
    return (np.concatenate(sampled), x, half if halve else None,
            None if read is None else np.concatenate(overlaps))


def evolve(
    h,
    psi0: np.ndarray,
    tau: Optional[float] = None,
    steps: Optional[int] = None,
    n_samples: int = 33,
    track_qsl: bool = False,
    cache: Optional[StepCache] = None,
) -> EvolutionResult:
    """Integrate the Schrodinger dynamics of H(t/tau) from t=0 to t=tau.

    ``h`` is a TimeDepHamiltonian or SuperadiabaticHamiltonian; ``psi0`` may
    be a single state or a (dim, m) block of states propagated jointly: the
    step search, the step unitaries and their products serve every column.
    Each column must be a finite unit vector (``linalg.check_state``); the
    result keeps a copy as ``initial_state``.
    ``track_qsl`` additionally integrates
    E_tau = (1/tau) integral |<psi(0)|H(t)|psi(t)>| dt over the step ends,
    a float for a single state and one per column, shaped (m,), for a block.
    At most ``n_samples`` distinct step ends of the accepted pass, evenly
    spread, report ``states`` and ``ground_fidelity``; with 0 nothing is
    sampled (both are empty), and every other field is bitwise the same.
    ``steps`` and ``n_samples`` are integers, ``n_samples`` >= 0, else ValueError.

    Without ``steps``, the step count is doubled from ``default_steps`` until
    the step-doubling estimate of the final state's error, returned as
    ``error_estimate``, is at most STATE_TOL in every column (the largest
    column error is the estimate); ``steps`` is then the accepted count, and
    ``step_counts`` the N of every run in order: the N/2 run, which rides in
    the first pass, then each N tried.  ToleranceError if the estimate is not
    finite or doubling would pass MAX_STEPS.  Each pass only steps
    (``_propagate``); the call integrates E_tau, samples and leaves the walk
    frame once, on the accepted pass.

    ``cache``, a StepCache made for ``h``, lends its step products and the
    search's first count to this call and keeps the ones it forms, for later
    inputs under the same H.

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
    check_tau(tau, "tau")
    psi0 = check_state(psi0, h.dim).copy()
    if cache is not None and cache.h is not h:
        raise ValueError("the StepCache was made for another Hamiltonian")
    if check_int(n_samples, "n_samples") < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    search = steps is None
    if search:
        steps = default_steps(h, tau) if cache is None else cache.start(tau)
    else:
        check_steps(steps, "steps")
    plan, leaves = _plan(h), _leaves(h)  # one compile serves every walk of the call
    x0 = _walk(plan, psi0.reshape(1, 1, h.dim, -1), frame=1)
    read = _reader(plan, leaves, x0) if track_qsl else None
    counts, coarse, error = [steps // 2] if search else [], None, None
    while True:
        counts.append(steps)
        sample_idx = np.round(np.linspace(0, steps, n_samples)).astype(int)  # nondecreasing, so
        sample_idx = sample_idx[np.diff(sample_idx, prepend=-1) > 0]  # np.unique, minus numpy.ma
        picked = np.zeros(steps, dtype=bool)
        picked[sample_idx[sample_idx > 0] - 1] = True
        sampled, final, half, g = _propagate(plan, leaves, read, x0, tau, steps, picked,
                                             cache, search and coarse is None)
        if not search:
            break
        if coarse is None:  # the N/2 run rode in this first pass
            coarse = half
        # psi_N - psi_{N/2} ~ (2^4 - 1) times psi_N's error (fourth order); the frame is unitary
        error = float(np.max(np.linalg.norm(final - coarse, axis=-2))) / 15.0
        if error <= STATE_TOL:
            break
        if not error < np.inf or 2 * steps > MAX_STEPS:
            raise ToleranceError(
                f"step-doubling error estimate {error:.3g} above STATE_TOL={STATE_TOL} "
                f"at {steps} steps; doubling would exceed MAX_STEPS={MAX_STEPS} or the "
                "estimate is not finite"
            )
        coarse, steps = final, 2 * steps
    e_tau = None
    if read is not None:  # over the accepted pass
        m = steps - 3 * (steps % 2)  # Simpson panels over [0, m], a 3/8 panel after
        e_tau = simpson(g[: m + 1], 1.0 / steps)
        if steps % 2:
            e_tau += 3.0 / (8.0 * steps) * ([1.0, 3.0, 3.0, 1.0] @ g[m:])
    ground = np.empty((0, x0.shape[-1]))
    if n_samples:  # the first sample point is s = 0
        sampled = np.concatenate([x0, sampled])
        ground = _ground_weights(plan, leaves, sample_idx / steps, sampled)
    # the sampled states leave the frame a chunk of points at a time (none without samples)
    states = np.concatenate([sampled[:0], *(_walk(plan, sampled[c], frame=-1)
                                          for c in _chunks(len(sampled), 1, psi0.size))])
    return EvolutionResult(
        initial_state=psi0,
        final_state=_walk(plan, final, frame=-1).reshape(psi0.shape),
        s_samples=sample_idx / steps,
        ground_fidelity=ground if psi0.ndim > 1 else ground[:, 0],
        states=states.reshape((-1,) + psi0.shape),
        tau=tau,
        steps=steps,
        e_tau=e_tau if e_tau is None or psi0.ndim > 1 else float(e_tau[0]),
        error_estimate=error,
        step_counts=tuple(counts) if search else None,
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
    if gate is None:
        return state
    bob = [3 * k + 2 for k in range(n_sectors)]
    return apply_on_qubits(np.asarray(gate), bob, state.reshape(1, -1, 1)).reshape(-1)


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


def controlled_initial_state(psi_system: np.ndarray) -> np.ndarray:
    """Append the ancilla in |0>: the ancilla is the last, fastest axis."""
    psi = np.asarray(psi_system, dtype=complex)
    return np.stack([psi, np.zeros_like(psi)], axis=-1).reshape(-1)


def controlled_target_state(psi_system: np.ndarray, spec: ControlledSpec) -> np.ndarray:
    """cos(theta0/2)|psi>|0> + sin(theta0/2) (R|psi>)|1>, R = ``spec.rotation``."""
    psi = np.asarray(psi_system, dtype=complex)
    half = spec.theta0 / 2.0
    return np.stack([np.cos(half) * psi, np.sin(half) * (spec.rotation @ psi)],
                    axis=-1).reshape(-1)
