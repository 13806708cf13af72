import warnings
from functools import partial

import numpy as np
import pytest

from sal.counterdiabatic import (
    SuperadiabaticHamiltonian,
    cd_controlled,
    cd_rotate,
    cd_teleport,
    cd_teleport_block,
    cd_tensor_sum,
)
from sal import cli, dynamics
from sal.dynamics import (
    StepCache,
    controlled_initial_state,
    controlled_target_state,
    default_steps,
    evolve,
    fidelity,
    measure_ancilla,
    teleport_initial_state,
    teleport_target_state,
)
from sal.hamiltonians import (
    Branches,
    ControlledSpec,
    TeleportSpec,
    Rotation,
    TensorSum,
    TimeDepHamiltonian,
    PARITY_PERMUTATION,
    X,
    Z,
    adiabatic_time_estimate,
    Linear,
    bell_state,
    composite,
    controlled_hamiltonian,
    gate,
    parity_operators,
    teleport_block_hamiltonian,
    teleport_hamiltonian,
    terms,
)
from sal.linalg import (_CHUNK, _CHUNK_ENTRIES, _chunks, embed, expm_hermitian, random_state,
                        simpson)
from sal.metrics import qsl_check
from sal.schedules import FAMILIES, make_schedule


def test_fidelity_trivial_values():
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert fidelity(zero, zero) == 1.0
    assert fidelity(zero, one) == 0.0
    assert abs(fidelity(zero, plus) - 0.5) < 1e-15


def test_fidelity_shape_mismatch():
    with pytest.raises(ValueError):
        fidelity(np.zeros(2), np.zeros(4))


# --- superadiabatic exactness -----------------------------------------------------


def test_teleport_shortcut_is_exact_at_short_runtime():
    sch = make_schedule("linear")
    hsa = cd_teleport_block(sch, tau=0.5)
    rng = np.random.default_rng(1)
    psi = random_state(1, rng)
    res = evolve(hsa, teleport_initial_state(psi, 1), 0.5)
    assert fidelity(res.final_state, teleport_target_state(psi, 1)) >= 1 - 1e-6


def test_adiabatic_only_fails_at_short_runtime():
    sch = make_schedule("linear")
    h = teleport_hamiltonian(TeleportSpec(1, sch))
    rng = np.random.default_rng(2)
    psi = random_state(1, rng)
    res = evolve(h, teleport_initial_state(psi, 1), 0.5)
    assert fidelity(res.final_state, teleport_target_state(psi, 1)) < 0.99


def test_adiabatic_recovery_with_longer_runtime():
    sch = make_schedule("linear")
    h = teleport_hamiltonian(TeleportSpec(1, sch))
    est = adiabatic_time_estimate(h)
    rng = np.random.default_rng(3)
    psi = random_state(1, rng)
    ini = teleport_initial_state(psi, 1)
    tgt = teleport_target_state(psi, 1)
    fids = []
    for mult, steps in ((3, 4000), (10, 8000), (30, 20000)):
        res = evolve(h, ini, mult * est, steps=steps)
        fids.append(fidelity(res.final_state, tgt))
    assert fids == sorted(fids)
    assert fids[-1] >= 0.999


def test_sce_deterministic_branch_at_theta0_pi():
    spec = ControlledSpec(n_controls=0, axis="x", phi=np.pi, theta0=np.pi, tau=0.5)
    hsa = cd_controlled(spec)
    rng = np.random.default_rng(4)
    psi = random_state(1, rng)
    res = evolve(hsa, controlled_initial_state(psi))
    tgt = controlled_target_state(psi, spec)
    assert fidelity(res.final_state, tgt) >= 1 - 1e-6
    outcomes = measure_ancilla(res.final_state)
    assert abs(outcomes[1].probability - 1.0) < 1e-9


@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
def test_gate_teleport_exact_at_any_runtime(tau):
    sch = make_schedule("linear")
    u = gate("H")
    rot = cd_teleport(TeleportSpec(1, sch, gate=u), tau)
    rng = np.random.default_rng(30)
    psi = random_state(1, rng)
    res = evolve(rot, teleport_initial_state(psi, 1, gate=u), tau)
    assert fidelity(res.final_state, teleport_target_state(psi, 1, gate=u)) >= 1 - 1e-6


@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
def test_sce_exact_at_any_runtime(tau):
    spec = ControlledSpec(n_controls=1, axis="y", phi=np.pi / 2, theta0=2.0, tau=tau)
    hsa = cd_controlled(spec)
    rng = np.random.default_rng(31)
    psi = random_state(2, rng)
    res = evolve(hsa, controlled_initial_state(psi), tau)
    assert fidelity(res.final_state, controlled_target_state(psi, spec)) >= 1 - 1e-6


def test_sampled_states_stay_normalized():
    sch = make_schedule("trig")
    hsa = cd_teleport_block(sch, tau=0.2)
    rng = np.random.default_rng(32)
    res = evolve(hsa, teleport_initial_state(random_state(1, rng), 1), 0.2)
    norms = np.linalg.norm(res.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-8


def test_ground_tracking_along_shortcut():
    sch = make_schedule("exp")
    hsa = cd_teleport_block(sch, tau=1.0)
    rng = np.random.default_rng(5)
    res = evolve(hsa, teleport_initial_state(random_state(1, rng), 1), 1.0)
    assert res.ground_fidelity.min() >= 1 - 1e-5


def test_parity_expectation_conserved():
    sch = make_schedule("linear")
    hsa = cd_teleport_block(sch, tau=0.7)
    pz, _, _, _ = parity_operators(1)
    rng = np.random.default_rng(6)
    psi0 = teleport_initial_state(random_state(1, rng), 1)
    res = evolve(hsa, psi0, 0.7)
    expectations = [np.real(np.vdot(s, pz @ s)) for s in res.states]
    assert np.max(np.abs(np.diff(expectations))) < 1e-8


# --- structured propagation equals the dense integrator ----------------------------


def strip_structure(h):
    """The one-leaf dense reference of a structured Hamiltonian."""
    if isinstance(h, TimeDepHamiltonian):
        return TimeDepHamiltonian(dim=h.dim, func=h.func, deriv=h.deriv)
    base = TimeDepHamiltonian(dim=h.dim, func=h.base.func, deriv=h.base.deriv)
    return SuperadiabaticHamiltonian(base=base, cd=h.cd, tau=h.tau)


def assert_matches_dense(h, psi0, tau, steps=500, **kw):
    fast = evolve(h, psi0, tau, steps=steps, track_qsl=True, **kw)
    dense = evolve(strip_structure(h), psi0, tau, steps=steps, track_qsl=True, **kw)
    assert np.max(np.abs(fast.final_state - dense.final_state)) < 1e-10
    assert np.max(np.abs(fast.ground_fidelity - dense.ground_fidelity)) < 1e-10
    assert np.max(np.abs(fast.e_tau - dense.e_tau)) < 1e-10
    assert np.max(np.abs(fast.states - dense.states)) < 1e-10


def test_kron_path_matches_dense():
    sch = make_schedule("linear")
    joint = cd_tensor_sum([cd_teleport_block(sch, 0.4)] * 2)
    rng = np.random.default_rng(7)
    psi0 = teleport_initial_state(random_state(2, rng), 2)
    assert_matches_dense(joint, psi0, 0.4)


def test_branch_path_matches_dense():
    spec = ControlledSpec(n_controls=1, axis="y", phi=np.pi / 2, theta0=2.0, tau=0.6)
    hsa = cd_controlled(spec)
    rng = np.random.default_rng(8)
    psi0 = controlled_initial_state(random_state(2, rng))
    block = np.stack([controlled_initial_state(random_state(2, rng)) for _ in range(3)], axis=1)
    for states in (psi0, block):
        assert_matches_dense(hsa, states, 0.6)


def test_rotation_path_matches_dense():
    sch = make_schedule("linear")
    hsa = cd_teleport_block(sch, 0.5)
    g = embed(gate("X"), [2], 3)
    rot = cd_rotate(hsa, g)
    rng = np.random.default_rng(9)
    psi0 = teleport_initial_state(random_state(1, rng), 1, gate=gate("X"))
    assert_matches_dense(rot, psi0, 0.5)
    # rotation over a tensor sum (gate teleportation), shortcut and adiabatic
    spec = TeleportSpec(2, sch, gate=gate("CNOT"))
    g2 = embed(spec.gate, spec.bob_qubits, 3 * spec.n_sectors)
    psi0 = teleport_initial_state(random_state(2, rng), 2, gate=spec.gate)
    for h in (cd_rotate(cd_tensor_sum([hsa] * 2), g2), teleport_hamiltonian(spec)):
        assert_matches_dense(h, psi0, 0.5)


def _turning_leaf(dim, rng):
    """cos(pi s) A + sin(pi s) B for random Hermitian A, B."""
    a, b = (m + m.conj().T for m in (rng.normal(size=(2, dim, dim))
                                     + 1j * rng.normal(size=(2, dim, dim))))
    return TimeDepHamiltonian(dim=dim, func=lambda s: np.multiply.outer(np.cos(np.pi * s), a)
                              + np.multiply.outer(np.sin(np.pi * s), b))


def _split(rng):
    """A two-part projector pair on one qubit, off the computational basis."""
    v = random_state(1, rng)
    p = np.outer(v, v.conj())
    return (p, np.eye(2) - p)


@pytest.mark.parametrize("tree", ["branches in a slot", "tensor sum as a part",
                                  "rotation below a slot", "all nested"])
def test_nested_trees_match_dense(tree):
    # trees no command builds but composite accepts: two-part branches whose
    # rows repeat under a slot, parts of unequal depth, a rotation that is
    # not at the root, and all of them inside one another
    rng = np.random.default_rng(50)
    leaf = partial(_turning_leaf, rng=rng)
    if tree == "branches in a slot":
        h = composite(TensorSum((leaf(2), composite(Branches(_split(rng), (leaf(2), leaf(2)))))))
    elif tree == "tensor sum as a part":
        h = composite(Branches(_split(rng), (composite(TensorSum((leaf(2), leaf(2)))), leaf(4))))
    elif tree == "rotation below a slot":
        h = composite(TensorSum((leaf(2), composite(Rotation(_haar_unitary(2, rng), (leaf(4),),
                                                             (1,))))))
    else:
        inner = composite(Branches(_split(rng), (leaf(2), leaf(2))))
        rotated = composite(Rotation(_haar_unitary(4, rng), (composite(TensorSum(
            (leaf(2), leaf(2)))),), (1, 0)))
        h = composite(TensorSum((leaf(2), composite(Branches(_split(rng), (rotated, inner))))))
    psi0 = random_state(h.dim.bit_length() - 1, rng)
    block = np.stack([random_state(h.dim.bit_length() - 1, rng) for _ in range(3)], axis=1)
    for states in (psi0, block):
        assert_matches_dense(h, states, 0.7, n_samples=5)


def test_results_do_not_share_the_work_buffers():
    # a multi-chunk run keeps its states and E_tau after a second run on the
    # same H from another state, and no array of one aliases the other's
    spec = TeleportSpec(2, make_schedule("trig"), gate=gate("CNOT"))
    h = cd_teleport(spec, 0.4)
    rng = np.random.default_rng(51)
    first, second = (teleport_initial_state(random_state(2, rng), 2, gate=spec.gate)
                     for _ in range(2))
    steps = 3 * _CHUNK + 1  # four chunks
    a = evolve(h, first, 0.4, steps=steps, track_qsl=True)
    kept = [np.copy(v) for v in (a.final_state, a.states, a.e_tau)]
    b = evolve(h, second, 0.4, steps=steps, track_qsl=True)
    assert all(np.array_equal(v, w) for v, w in zip((a.final_state, a.states, a.e_tau), kept))
    for v in (a.final_state, a.states, a.ground_fidelity):
        for w in (b.final_state, b.states, b.ground_fidelity):
            assert not np.shares_memory(v, w)


def test_chunk_products_match_step_by_step_loop():
    # reference: the dense two-exponential CF4 step, applied to the state in
    # turn, and E_tau by Simpson's rule over the step ends (an odd count
    # closes with one 3/8 panel) of vdot at every step end.  The two-level
    # trees (two sectors; two turning leaves with no coefficient form, read
    # through matrix-unit bras) read E_tau from walked states; the one-level
    # trees (a gated sector shortcut, an sce tree, a dense turning leaf with
    # no coefficient form) read it from the step products, whose X is formed
    # afresh from each chunk's first states (3 * _CHUNK + 1 steps: four chunks)
    rng = np.random.default_rng(14)
    sch = make_schedule("exp")
    two, one = (TeleportSpec(n, sch, gate=gate(g)) for n, g in ((2, "CNOT"), (1, "H")))
    a, b = (v + v.conj().T for v in rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8)))
    turning = TimeDepHamiltonian(dim=8, func=lambda s: np.multiply.outer(np.cos(3 * s), a)
                                 + np.multiply.outer(np.sin(3 * s), b))
    sce = ControlledSpec(2, axis="y", phi=1.3, theta0=2.0, tau=0.3)
    runs = [(cd_teleport(two, 0.3), teleport_initial_state(random_state(2, rng), 2, gate=two.gate)),
            (cd_teleport(one, 0.3), teleport_initial_state(random_state(1, rng), 1, gate=one.gate)),
            (cd_controlled(sce), np.stack([controlled_initial_state(random_state(3, rng))
                                           for _ in range(2)], axis=1)),
            (turning, random_state(3, rng))]
    pair = composite(TensorSum((_turning_leaf(2, rng), _turning_leaf(4, rng))))
    runs.append((pair, random_state(3, rng)))
    assert [dynamics._plan(h)[2] for h, _ in runs] == [2, 1, 1, 1, 2]
    assert terms(turning) is None and [terms(f) for f in dynamics._leaves(pair)] == [None] * 2
    tau = 0.3
    node, a1, a2 = np.sqrt(3) / 6, 0.25 + np.sqrt(3) / 6, 0.25 - np.sqrt(3) / 6
    for h, psi0 in runs:
        for steps in (300, 301, 3 * _CHUNK + 1):
            res = evolve(h, psi0, tau, steps=steps, track_qsl=True)
            dt = tau / steps
            mid = np.arange(steps) + 0.5
            h1, h2 = h((mid - node) / steps), h((mid + node) / steps)
            psi, states = psi0, [psi0]
            for u in expm_hermitian(a2 * h1 + a1 * h2, dt) @ expm_hermitian(a1 * h1 + a2 * h2, dt):
                psi = u @ psi
                states.append(psi)
            ends = h(np.arange(steps + 1) / steps)
            g = np.array([[abs(np.vdot(p, y)) for p, y in zip(psi0.T.reshape(-1, h.dim),
                                                               (hk @ x).T.reshape(-1, h.dim))]
                          for hk, x in zip(ends, states)])
            m = steps - 3 * (steps % 2)
            e_tau = simpson(g[: m + 1], 1 / steps)
            if steps % 2:
                e_tau += 3 / (8 * steps) * ([1, 3, 3, 1] @ g[m:])
            assert np.max(np.abs(res.final_state - psi)) <= 1e-12
            at_samples = np.array(states)[np.round(res.s_samples * steps).astype(int)]
            assert np.max(np.abs(res.states - at_samples)) <= 1e-12
            assert np.max(np.abs(res.e_tau - e_tau) / e_tau) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_chunk_products_keep_step_order_accuracy(seed):
    # teleport --n 3 --gate Toffoli --tau 0.1: the rotation over a three-sector
    # tensor sum, at a pinned count well above the adaptive one so that the
    # round-off of the chunk products builds up over ~47 chunks.  Polished
    # products keep |norm - 1| below 1e-15; unpolished ones drift 6.1e-13
    # here.
    sch = make_schedule("linear")
    spec = TeleportSpec(3, sch, gate=gate("Toffoli"))
    h = cd_teleport(spec, 0.1)
    psi = random_state(3, np.random.default_rng(seed))
    res = evolve(h, teleport_initial_state(psi, 3, gate=spec.gate), 0.1, steps=12030,
                 n_samples=2)
    assert abs(np.linalg.norm(res.final_state) - 1.0) <= 2e-14
    target = teleport_target_state(psi, 3, gate=spec.gate)
    assert abs(1.0 - fidelity(res.final_state, target)) <= 5e-14


def test_walks_grow_with_chunks_not_steps(monkeypatch):
    sch = make_schedule("linear")
    h = cd_teleport(TeleportSpec(2, sch, gate=gate("CNOT")), 0.3)  # 4-dim parity-block leaves
    psi0 = teleport_initial_state(random_state(2, np.random.default_rng(13)), 2, gate=gate("CNOT"))
    walk = dynamics._walk
    calls = []
    monkeypatch.setattr(dynamics, "_walk", lambda *a, **k: calls.append(1) or walk(*a, **k))
    counts = {}
    for steps in (4899, 4870):  # the same number of chunks
        calls.clear()
        evolve(h, psi0, 0.3, steps=steps, track_qsl=True)
        counts[steps] = len(calls)
    n_chunks = len(list(_chunks(4899, 4)))
    assert counts[4899] == counts[4870]
    # one walk per chunk (its steps), six more (enter, the generator bras of
    # E_tau, two for the ground level, leave with the sampled states and with
    # the final state); a walk is one loop over the tree's plan, so it does
    # not call itself per node
    assert counts[4899] == n_chunks + 6


def test_the_walk_plan_is_compiled_once_per_pass(monkeypatch):
    # one plan, whatever the column count of a walk, serves every walk of an
    # evolve call, and so of each of its passes: the frame, the generator
    # bras, the chunks' steps, the ground energies (one column) and weights,
    # and the sampled states
    spec = TeleportSpec(3, make_schedule("linear"), gate=gate("Toffoli"))
    h = cd_teleport(spec, 0.1)
    rng = np.random.default_rng(23)
    block = np.stack([teleport_initial_state(random_state(3, rng), 3, gate=spec.gate)
                      for _ in range(2)], axis=1)
    plan, compiles, walks = dynamics._plan, [], []
    monkeypatch.setattr(dynamics, "_plan", lambda h: compiles.append(1) or plan(h))
    walk = dynamics._walk
    monkeypatch.setattr(dynamics, "_walk", lambda *a, **k: walks.append(1) or walk(*a, **k))
    evolve(h, block, 0.1, steps=3 * _CHUNK + 1, n_samples=5, track_qsl=True)
    # one walk per chunk (four chunks), and entering, the generator bras, the
    # ground energies and weights, the sampled states and leaving
    assert len(compiles) == 1 and len(walks) == 4 + 6
    compiles.clear()
    res = evolve(h, block, 0.1, track_qsl=True)
    # the N/2 run rides in the first pass, which is accepted
    assert len(compiles) == len(res.step_counts) - 1 == 1


def test_a_search_sets_up_once_and_samples_only_its_accepted_pass(monkeypatch):
    # started low, the search doubles; the plan, E_tau's reader and the
    # ground weights are still worked out once per call, and every reported
    # field is bitwise that of a run at the accepted count.  One reader
    # serves a one-level tree (a controlled run, read off the step products)
    # and a deeper one (two teleport sectors, read through generator bras)
    rng = np.random.default_rng(29)
    spec = TeleportSpec(2, make_schedule("linear"), gate=gate("CNOT"))
    runs = [(controlled_hamiltonian(ControlledSpec(1, tau=1.0)), 1.0,
             controlled_initial_state(random_state(2, rng))),
            (teleport_hamiltonian(spec), 5.0,
             teleport_initial_state(random_state(2, rng), 2, gate=spec.gate))]
    calls = {name: [] for name in ("_plan", "_reader", "_ground_weights")}
    for name, seen in calls.items():
        f = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda *a, f=f, seen=seen: seen.append(1) or f(*a))
    monkeypatch.setattr(dynamics, "default_steps", lambda h, tau: dynamics.MIN_STEPS)
    assert [dynamics._plan(h)[2] for h, _, _ in runs] == [1, 2]
    for h, tau, psi0 in runs:
        for seen in calls.values():
            seen.clear()
        res = evolve(h, psi0, tau, n_samples=5, track_qsl=True)
        assert len(res.step_counts) >= 3  # the N/2 run and two passes at least
        assert {name: len(seen) for name, seen in calls.items()} == dict.fromkeys(calls, 1)
        want = evolve(h, psi0, tau, steps=res.steps, n_samples=5, track_qsl=True)
        assert res.e_tau == want.e_tau
        for field in ("final_state", "ground_fidelity", "states", "s_samples"):
            assert np.array_equal(getattr(res, field), getattr(want, field)), field


def test_parity_block_leaves_reach_every_eigendecomposition(monkeypatch):
    # teleport --n 3 --gate Toffoli works on each sector's 4x4 parity block,
    # never the 8x8 sector or the 512-dim sum: the generic sector shortcut
    # steps it by eigendecomposition and the closed-form one by Linear.expm_su2, and
    # ground sampling decomposes it for both
    spec = TeleportSpec(3, make_schedule("linear"), gate=gate("Toffoli"))
    drivers = (cd_teleport(spec, 0.1), cd_teleport(spec, 0.1, generic=True))
    psi = random_state(3, np.random.default_rng(14))
    psi0 = teleport_initial_state(psi, 3, gate=spec.gate)
    for h in drivers:
        evolve(h, psi0, steps=dynamics.MIN_STEPS)  # fills the branch nodes' cached bases
    expm_shapes, eigh_shapes = [], []
    expm, eigh = dynamics.expm_hermitian, np.linalg.eigh
    monkeypatch.setattr(dynamics, "expm_hermitian",
                        lambda a, t: expm_shapes.append(a.shape) or expm(a, t))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_shapes.append(a.shape) or eigh(a))
    for h in drivers:
        res = evolve(h, psi0)
        assert fidelity(res.final_state, teleport_target_state(psi, 3, gate=spec.gate)) > 1 - 1e-9
    assert {sh[-2:] for sh in expm_shapes} == {sh[-2:] for sh in eigh_shapes} == {(4, 4)}


def test_su2_leaves_step_without_eigendecomposition(monkeypatch):
    # the closed-form teleport block and the controlled branches (2x2), whose
    # forms are closed (Linear.su2), step by Linear.expm_su2: once a warm-up
    # has filled the branch nodes' cached bases, a run with no ground
    # sampling decomposes nothing.  The generic sector shortcut has no form
    # and keeps expm_hermitian.
    rng = np.random.default_rng(16)
    spec = TeleportSpec(3, make_schedule("linear"), gate=gate("Toffoli"))
    teleport_psi0 = teleport_initial_state(random_state(3, rng), 3, gate=spec.gate)
    controlled = cd_controlled(ControlledSpec(3, axis="y", phi=1.3, theta0=2.0, tau=1.0))
    runs = [(cd_teleport(spec, 0.1), teleport_psi0),
            (controlled, controlled_initial_state(random_state(4, rng))),
            (cd_teleport(spec, 0.1, generic=True), teleport_psi0)]
    for h, psi0 in runs:
        evolve(h, psi0, steps=dynamics.MIN_STEPS, n_samples=0)
    expm_shapes, eigh_shapes, eigvalsh_shapes = [], [], []
    expm, eigh, eigvalsh = dynamics.expm_hermitian, np.linalg.eigh, np.linalg.eigvalsh
    monkeypatch.setattr(dynamics, "expm_hermitian",
                        lambda a, t: expm_shapes.append(a.shape) or expm(a, t))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_shapes.append(a.shape) or eigh(a))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: eigvalsh_shapes.append(a.shape) or eigvalsh(a))
    for h, psi0 in runs[:2]:
        evolve(h, psi0, n_samples=0)
    assert expm_shapes == eigh_shapes == eigvalsh_shapes == []  # the first count too
    evolve(*runs[2], n_samples=0)
    assert expm_shapes and {sh[-2:] for sh in expm_shapes} == {(4, 4)}
    assert {sh[-2:] for sh in eigvalsh_shapes} == {(4, 4)}


def _builder_drivers(tau):
    """Every builder's drive and shortcut: teleport at n = 1 and 2 on each
    schedule, controlled with 0-3 controls on each axis."""
    for family in FAMILIES:
        for n in (1, 2):
            spec = TeleportSpec(n, make_schedule(family))
            yield teleport_hamiltonian(spec)
            yield cd_teleport(spec, tau)
    for n_controls in range(4):
        for axis in ("x", "y", "z"):
            spec = ControlledSpec(n_controls, axis=axis, phi=1.3, theta0=2.0, tau=tau)
            yield controlled_hamiltonian(spec)
            yield cd_controlled(spec)


def _eigvalsh_bound(h):
    s = np.linspace(0.0, 1.0, dynamics._NORM_SAMPLES)
    return max(float(np.max(np.abs(np.linalg.eigvalsh(f(s))))) for f in dynamics._leaves(h))


@pytest.mark.parametrize("tau", np.logspace(-3, 3, 13))
def test_coefficient_norm_bound_matches_eigvalsh(tau):
    # |c0| + k of each closed-form leaf is its largest |level|: the bound and
    # the first step count are those of the leaves' eigenvalues
    for h in _builder_drivers(tau):
        want = _eigvalsh_bound(h)
        assert abs(dynamics._norm_bound(h) - want) <= 1e-15 * want
        start = max(dynamics.MIN_STEPS,
                    int(2.0 * np.ceil(0.5 * want * tau / dynamics.STATE_TOL**0.2)))
        assert default_steps(h, tau) == start


def test_coefficient_norm_bound_scales_before_squaring():
    # a correction ~ 1/tau = 1e300 squared would overflow; each row is scaled first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for h in _builder_drivers(1e-300):
            bound = dynamics._norm_bound(h)
            assert np.isfinite(bound) and abs(bound - _eigvalsh_bound(h)) <= 1e-15 * bound


def dense_cf4_steps(leaf, c, steps, tau, halve):
    """``dynamics._cf4_steps`` the dense way: the leaf evaluated at both
    Gauss nodes of each step (of both counts with ``halve``), and the two
    exponentials of each step from ``expm_hermitian``."""
    gauss = np.sqrt(3.0) / 6.0
    a1, a2 = 0.25 + gauss, 0.25 - gauss
    mid = [np.arange(c.start >> i, c.stop >> i) + 0.5 for i in range(1 + halve)]
    n = np.concatenate([np.full(len(m), steps / 2**i) for i, m in enumerate(mid)])
    mid = np.concatenate(mid)
    h1, h2 = leaf((mid - gauss) / n), leaf((mid + gauss) / n)
    u = expm_hermitian(a2 * h1 + a1 * h2, tau / n) @ expm_hermitian(a1 * h1 + a2 * h2, tau / n)
    return np.split(u, [c.stop - c.start])


def assert_steps_match_dense(leaf, tau, tol=1e-14):
    for steps, c in ((64, slice(0, 64)), (256, slice(96, 160))):
        for got, want in zip(dynamics._cf4_steps(leaf, c, steps, tau, True),
                             dense_cf4_steps(leaf, c, steps, tau, True)):
            assert got.shape == want.shape and np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("family", ["linear", "trig", "exp"])
@pytest.mark.parametrize("tau", [0.1, 1.0, 100.0])
def test_teleport_block_steps_from_coefficients_match_dense(family, tau):
    # drive and closed-form shortcut: both have a closed coefficient form
    # (Linear.su2), so each step comes from Linear.expm_su2
    spec = TeleportSpec(1, make_schedule(family))
    for h in (teleport_hamiltonian(spec), cd_teleport(spec, tau)):
        (leaf,) = dynamics._leaves(h)
        assert leaf.dim == 4 and dynamics.terms(leaf).su2
        assert_steps_match_dense(leaf, tau)


@pytest.mark.parametrize("n_controls", [0, 1, 2, 3])
@pytest.mark.parametrize("axis", ["y", (1.0, -2.0, 0.5)])
def test_controlled_branch_steps_from_coefficients_match_dense(n_controls, axis):
    for tau in (0.1, 1.0, 100.0):
        spec = ControlledSpec(n_controls, axis=axis, phi=1.3, theta0=2.0, tau=tau)
        for h in (controlled_hamiltonian(spec), cd_controlled(spec)):
            (leaf,) = dynamics._leaves(h)  # the phi branch turns the xi = 0 leaf
            assert dynamics.terms(leaf) is not None
            assert_steps_match_dense(leaf, tau)


def test_controlled_plan_walks_one_leaf_entry():
    # both branches of three controls run as one entry over all 16 rows:
    # the phi branch's turn is a frame turn, and its run joins the xi = 0 run
    h = cd_controlled(ControlledSpec(3))
    (leaf,) = dynamics._leaves(h)
    _, ops, top = dynamics._plan(h)
    assert len(ops) == 1 and top == 1
    (f, rows, d, post, level), = ops
    assert f is leaf and (rows.start, rows.stop, d, post, level) == (0, 16, 2, 1, 0)


def test_sce_batch_forms_one_set_of_steps(monkeypatch, capsys):
    # one leaf: one chunk of step exponentials serves both branches and,
    # through the StepCache, all three inputs
    calls = []
    steps = dynamics._cf4_steps
    monkeypatch.setattr(dynamics, "_cf4_steps", lambda *a: calls.append(a) or steps(*a))
    assert cli.main(["sce", "--n-controls", "3", "--tau", "1", "--states", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert len(calls) == 1


def test_linear_leaf_without_su2_steps_by_eigendecomposition(monkeypatch):
    # a random 4x4 coefficient form is not closed: the leaf is evaluated
    # and its exponentials go through expm_hermitian
    rng = np.random.default_rng(23)
    basis = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    basis = basis + np.swapaxes(basis, -1, -2).conj()
    leaf = TimeDepHamiltonian(dim=4, func=Linear(
        lambda s: np.stack([np.cos(3 * s), s**2, np.exp(-s)], axis=-1), basis))
    assert not terms(leaf).su2
    shapes, expm = [], dynamics.expm_hermitian
    monkeypatch.setattr(dynamics, "expm_hermitian",
                        lambda a, t: shapes.append(a.shape) or expm(a, t))
    for tau in (0.1, 1.0, 10.0):
        assert_steps_match_dense(leaf, tau, tol=1e-13)
    assert shapes and {sh[-2:] for sh in shapes} == {(4, 4)}
    psi0 = random_state(2, rng)
    assert_matches_dense(composite(TensorSum((leaf,))), psi0, 0.7, steps=200)


def test_open_forms_step_by_eigendecomposition(monkeypatch):
    # two forms whose combinations break A'^3 = k^2 A': the commuting pair
    # diag(1, -1, 0, 0), diag(0, 0, 1, -1) (levels +/-1 and +/-2 at c = (1, 2)),
    # and the parity block's generators with one of them moved by 1e-7 off
    # the su(2) span.  Neither may take the closed form, so each is evaluated
    # and stepped by expm_hermitian, and matches the dense steps
    b_ini, b_fin = dynamics.terms(teleport_block_hamiltonian(make_schedule("linear"))).basis
    nudge = np.zeros((4, 4), dtype=complex)
    nudge[0, 1] = nudge[1, 0] = 1e-7
    bases = (np.stack([np.diag([1.0, -1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, -1.0])]),
             np.stack([b_ini, b_fin + nudge]))
    shapes, expm = [], dynamics.expm_hermitian
    monkeypatch.setattr(dynamics, "expm_hermitian",
                        lambda a, t: shapes.append(a.shape) or expm(a, t))
    for basis in bases:
        form = Linear(lambda s: np.stack([np.cos(3 * s), 1.0 + s**2], axis=-1), basis)
        assert not form.su2
        shapes.clear()
        for tau in (0.1, 1.0, 10.0):
            assert_steps_match_dense(TimeDepHamiltonian(dim=4, func=form), tau, tol=1e-13)
        assert shapes and {sh[-2:] for sh in shapes} == {(4, 4)}


@pytest.mark.parametrize("family", FAMILIES)
def test_stepping_a_command_leaf_never_evaluates_it(family, monkeypatch):
    # the drivers that teleport (--mode sa and adiabatic), cae and sce build:
    # every leaf has a coefficient form and takes the closed form, so a
    # default run with E_tau and no samples, its first step count already
    # kept by the cache, reads the leaves' coefficients and never the leaves.
    # A builder whose form is dropped or not closed fails here instead of
    # silently leaving the fast path
    parse = cli._parser().parse_args
    runs = [cli._teleport_run(parse(["teleport", "--n", "2", "--tau", "0.7", "--schedule",
                                     family, "--mode", mode]), gate("CNOT"))[1:4]
            for mode in ("sa", "adiabatic")]
    runs += [cli._controlled_run(parse([name, "--n-controls", "2", "--tau", "0.7"]),
                                 name == "sce")[1:4] for name in ("cae", "sce")]
    rng = np.random.default_rng(24)
    inputs = []
    for h, n, prepare in runs:
        assert all(terms(f) is not None and terms(f).su2 for f in dynamics._leaves(h))
        cache = StepCache(h)
        cache.start(0.7)
        inputs.append((h, prepare(random_state(n, rng))[0], cache))
    calls = []
    for cls in (TimeDepHamiltonian, SuperadiabaticHamiltonian, Linear):
        call = cls.__call__
        monkeypatch.setattr(cls, "__call__",
                            lambda self, s, call=call: calls.append(self) or call(self, s))
    for h, psi0, cache in inputs:
        res = evolve(h, psi0, 0.7, n_samples=0, track_qsl=True, cache=cache)
        assert res.step_counts[0] == res.step_counts[1] // 2
    assert calls == []


def test_step_cache_samples_the_first_step_count_once_per_tau(monkeypatch):
    spec = ControlledSpec(3, axis="y", phi=np.pi / 2, theta0=2.0, tau=1.0)
    h = cd_controlled(spec)
    states = [controlled_initial_state(random_state(4, np.random.default_rng(j))) for j in range(3)]
    fresh = [evolve(h, psi0) for psi0 in states]
    bound, calls = dynamics._norm_bound, []
    monkeypatch.setattr(dynamics, "_norm_bound", lambda h: calls.append(1) or bound(h))
    cache = StepCache(h)
    for psi0, want in zip(states, fresh):
        got = evolve(h, psi0, cache=cache)
        assert np.array_equal(got.final_state, want.final_state)
        assert got.step_counts == want.step_counts
    assert len(calls) == 1 and cache.start(1.0) == fresh[0].step_counts[1]


@pytest.mark.parametrize("driver", ["teleport", "controlled"])
def test_shortcuts_stay_exact_at_tau_1e_300(driver):
    # the correction ~ 1/tau is near the float range; each step exponential
    # scales by dt before it squares anything, so no step overflows
    rng = np.random.default_rng(17)
    if driver == "teleport":
        psi = random_state(1, rng)
        h = cd_teleport(TeleportSpec(1, make_schedule("linear")), 1e-300)
        psi0, target = teleport_initial_state(psi, 1), teleport_target_state(psi, 1)
    else:
        spec, psi = ControlledSpec(1, tau=1e-300), random_state(2, rng)
        h, psi0 = cd_controlled(spec), controlled_initial_state(psi)
        target = controlled_target_state(psi, spec)
    res = evolve(h, psi0, n_samples=0)
    assert fidelity(res.final_state, target) >= 1 - 1e-9


def test_step_counts_record_every_pass(monkeypatch):
    spec = ControlledSpec(3, axis="y", phi=np.pi / 2, theta0=2.0, tau=1.0)
    psi0 = controlled_initial_state(random_state(4, np.random.default_rng(15)))
    res = evolve(cd_controlled(spec), psi0)
    counts = res.step_counts
    assert counts[0] == counts[1] // 2 and counts[-1] == res.steps
    assert sum(counts) >= 1.5 * res.steps
    assert evolve(cd_controlled(spec), psi0, steps=200).step_counts is None
    # started low, the search doubles: the N/2 pass, then each N tried
    monkeypatch.setattr(dynamics, "default_steps", lambda h, tau: dynamics.MIN_STEPS)
    spec = ControlledSpec(3, axis="y", phi=np.pi / 2, theta0=2.0, tau=10.0)
    counts = evolve(cd_controlled(spec), psi0).step_counts
    assert len(counts) >= 4
    assert counts == (50,) + tuple(100 * 2**k for k in range(len(counts) - 1))


@pytest.mark.parametrize("driver", ["teleport", "dense", "controlled"])
def test_first_pass_carries_the_half_step_run(driver, monkeypatch):
    # a default run whose first estimate is accepted is one pass: its final
    # state and E_tau are those of the run at its step count, bit for bit, and
    # with both counts in one chunk its estimate is the one a separate N/2
    # pass gives, from the two passes' final states in the walk frame
    rng = np.random.default_rng(19)
    if driver == "controlled":
        h = cd_controlled(ControlledSpec(2, axis="y", phi=1.3, tau=1.5))
        psi0 = controlled_initial_state(random_state(3, rng))
    else:
        h = cd_teleport(TeleportSpec(1, make_schedule("linear")), 1.0)
        h = strip_structure(h) if driver == "dense" else h  # a leaf with no coefficient form
        psi0 = teleport_initial_state(random_state(1, rng), 1)
    plan, compiles = dynamics._plan, []
    monkeypatch.setattr(dynamics, "_plan", lambda h: compiles.append(1) or plan(h))
    res = evolve(h, psi0, track_qsl=True)
    n = res.steps
    assert len(compiles) == 1 and res.step_counts == (n // 2, n) and n <= _CHUNK
    propagate, passes = dynamics._propagate, []
    monkeypatch.setattr(dynamics, "_propagate",
                        lambda *a: passes.append(propagate(*a)) or passes[-1])
    full = evolve(h, psi0, steps=n, track_qsl=True)
    evolve(h, psi0, steps=n // 2, n_samples=0)
    assert np.array_equal(res.final_state, full.final_state) and res.e_tau == full.e_tau
    assert np.array_equal(res.ground_fidelity, full.ground_fidelity)
    (_, final, *_), (_, half, *_) = passes
    assert res.error_estimate == float(np.max(np.linalg.norm(final - half, axis=-2))) / 15.0


def test_a_search_integrates_e_tau_and_leaves_the_frame_once(monkeypatch):
    # the step search runs five passes, yet only the accepted one is
    # integrated and taken out of the walk frame
    walk, simpson, exits, rules = dynamics._walk, dynamics.simpson, [], []
    monkeypatch.setattr(dynamics, "default_steps", lambda h, tau: 100)
    monkeypatch.setattr(dynamics, "_walk",
                        lambda *a, **k: exits.append(k.get("frame") == -1) or walk(*a, **k))
    monkeypatch.setattr(dynamics, "simpson", lambda *a: rules.append(1) or simpson(*a))
    h = cd_controlled(ControlledSpec(2, axis="y", phi=1.3, tau=10.0))
    psi0 = controlled_initial_state(random_state(3, np.random.default_rng(20)))
    res = evolve(h, psi0, n_samples=0, track_qsl=True)
    assert res.step_counts == (50, 100, 200, 400, 800)
    assert sum(exits) == 1 and len(rules) == 1


def test_mixed_leaves_match_dense():
    # E_tau reads a coefficient leaf through its generators and a leaf with no
    # coefficient form through its matrix units, in one tree
    rng = np.random.default_rng(52)
    linear = teleport_block_hamiltonian(make_schedule("exp"))  # a closed coefficient form
    turning = _turning_leaf(2, rng)
    for h in (composite(TensorSum((linear, turning))),
              composite(Branches(_split(rng), (linear, composite(TensorSum((turning, turning))))))):
        n = h.dim.bit_length() - 1
        psi0 = random_state(n, rng)
        block = np.stack([random_state(n, rng) for _ in range(3)], axis=1)
        for states in (psi0, block):
            assert_matches_dense(h, states, 0.7, n_samples=5)


def test_block_state_propagation_matches_loop():
    sch = make_schedule("linear")
    hsa = cd_teleport_block(sch, 0.5)
    rng = np.random.default_rng(10)
    states = np.stack([teleport_initial_state(random_state(1, rng), 1) for _ in range(4)], axis=1)
    block = evolve(hsa, states, 0.5, steps=400)
    for c in range(4):
        single = evolve(hsa, states[:, c], 0.5, steps=400)
        assert np.max(np.abs(block.final_state[:, c] - single.final_state)) < 1e-12


@pytest.mark.parametrize("tree", ["tensor sum", "branches", "dense"])
def test_block_with_qsl_matches_single_state_runs(tree):
    rng = np.random.default_rng(16)
    if tree == "tensor sum":
        spec = TeleportSpec(2, make_schedule("trig"), gate=gate("CNOT"))
        h = cd_teleport(spec, 0.6)
        states = [teleport_initial_state(random_state(2, rng), 2, gate=spec.gate)
                  for _ in range(3)]
    else:  # the sce branch tree, or its one-leaf dense reference
        spec = ControlledSpec(n_controls=2, axis="y", phi=np.pi / 2, theta0=2.0, tau=0.6)
        h = cd_controlled(spec)
        h = strip_structure(h) if tree == "dense" else h
        states = [controlled_initial_state(random_state(3, rng)) for _ in range(3)]
    block = evolve(h, np.stack(states, axis=1), 0.6, track_qsl=True)
    assert block.e_tau.shape == (3,)
    for j, psi0 in enumerate(states):
        single = evolve(h, psi0, 0.6, steps=block.steps, track_qsl=True)
        assert isinstance(single.e_tau, float)
        assert np.max(np.abs(block.final_state[:, j] - single.final_state)) <= 1e-12
        assert np.max(np.abs(block.ground_fidelity[:, j] - single.ground_fidelity)) <= 1e-12
        assert abs(block.e_tau[j] - single.e_tau) <= 1e-12


def test_block_takes_the_step_count_of_its_worst_column(monkeypatch):
    # a constant 2x2 block, which CF4 steps integrate exactly, beside a turning one
    def func(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape + (4, 4), dtype=complex)
        out[..., :2, :2] = Z
        out[..., 2:, 2:] = (np.multiply.outer(np.cos(np.pi * s), X)
                            + np.multiply.outer(np.sin(np.pi * s), Z))
        return out

    h = TimeDepHamiltonian(dim=4, func=func)
    monkeypatch.setattr(dynamics, "default_steps", lambda h, tau: dynamics.MIN_STEPS)
    still, turning = np.eye(4)[:, 0], np.eye(4)[:, 2]
    assert evolve(h, still, 1.0).step_counts == (50, 100)
    assert evolve(h, turning, 1.0).step_counts == (50, 100, 200)
    block = evolve(h, np.stack([still, turning], axis=1), 1.0)
    assert block.step_counts == (50, 100, 200) and block.error_estimate <= dynamics.STATE_TOL
    for j, psi0 in enumerate((still, turning)):
        single = evolve(h, psi0, 1.0, steps=200)
        assert np.max(np.abs(block.final_state[:, j] - single.final_state)) <= 1e-12


def test_chunk_cap_bounds_the_state_stacks_of_a_wide_block(monkeypatch):
    # teleport --n 3 with 64 inputs: 512 x 64 state entries per point, so a
    # chunk holds 8 points where a single state's holds _CHUNK
    spec = TeleportSpec(3, make_schedule("linear"), gate=gate("Toffoli"))
    h = cd_teleport(spec, 0.1)
    rng = np.random.default_rng(17)
    block = np.stack([teleport_initial_state(random_state(3, rng), 3, gate=spec.gate)
                      for _ in range(64)], axis=1)
    walk, sizes = dynamics._walk, []
    monkeypatch.setattr(dynamics, "_walk",
                        lambda h, x, *a, **k: sizes.append(x.size) or walk(h, x, *a, **k))
    res = evolve(h, block, 0.1, steps=dynamics.MIN_STEPS, track_qsl=True)
    # the first chunk's E_tau walk carries the initial states as well
    assert max(sizes) <= _CHUNK_ENTRIES + block.size
    for j in (0, 63):
        single = evolve(h, block[:, j], 0.1, steps=dynamics.MIN_STEPS, track_qsl=True)
        assert np.max(np.abs(res.final_state[:, j] - single.final_state)) <= 1e-12
        assert abs(res.e_tau[j] - single.e_tau) <= 1e-12


def test_step_cache_lends_its_products_to_later_inputs(monkeypatch):
    spec = ControlledSpec(3, axis="y", phi=np.pi / 2, theta0=2.0, tau=1.0)
    h = cd_controlled(spec)
    rng = np.random.default_rng(18)
    states = [controlled_initial_state(random_state(4, rng)) for _ in range(3)]
    fresh = [evolve(h, psi0, track_qsl=True) for psi0 in states]
    cf4, calls = dynamics._cf4_steps, []
    monkeypatch.setattr(dynamics, "_cf4_steps", lambda *a: calls.append(1) or cf4(*a))
    cache = StepCache(h)
    cached = []
    for psi0 in states:
        cached.append(evolve(h, psi0, track_qsl=True, cache=cache))
        if len(cached) == 1:
            first = len(calls)
    assert first > 0 and len(calls) == first  # no step unitaries after the first input
    for a, b in zip(fresh, cached):
        assert np.array_equal(a.final_state, b.final_state) and a.e_tau == b.e_tau
        assert np.array_equal(a.ground_fidelity, b.ground_fidelity)
        assert a.step_counts == b.step_counts
    with pytest.raises(ValueError, match="another Hamiltonian"):
        evolve(cd_controlled(spec), states[0], cache=cache)
    # past its cap a cache keeps nothing, and the results do not change
    monkeypatch.setattr(dynamics, "_CACHE_ENTRIES", 0)
    full = StepCache(h)
    assert np.array_equal(evolve(h, states[0], cache=full).final_state, fresh[0].final_state)
    assert full.products == {} and full.entries == 0


# --- guards -------------------------------------------------------------------------


def test_evolve_rejects_dim_mismatch():
    sch = make_schedule("linear")
    hsa = cd_teleport_block(sch, 0.5)
    with pytest.raises(ValueError):
        evolve(hsa, np.zeros(4, dtype=complex), 0.5)


def test_evolve_rejects_tau_mismatch():
    sch = make_schedule("linear")
    hsa = cd_teleport_block(sch, 1.0)
    with pytest.raises(ValueError):
        evolve(hsa, np.zeros(8, dtype=complex), 0.5)


@pytest.mark.parametrize("tau", [np.inf, np.nan])
def test_evolve_rejects_non_finite_tau(tau):
    h = teleport_hamiltonian(TeleportSpec(1, make_schedule("linear")))
    with pytest.raises(ValueError, match="finite"):
        evolve(h, teleport_initial_state(np.array([1.0, 0]), 1), tau)


def test_evolve_rejects_too_few_steps():
    sch = make_schedule("linear")
    h = teleport_hamiltonian(TeleportSpec(1, sch))
    psi0 = teleport_initial_state(np.array([1.0, 0]), 1)
    with pytest.raises(ValueError):
        evolve(h, psi0, 0.5, steps=10)
    # and too many, given or by default: both raise before any step is taken
    with pytest.raises(ValueError, match="must lie in"):
        evolve(h, psi0, 0.5, steps=dynamics.MAX_STEPS + 1)
    with pytest.raises(ValueError, match="above MAX_STEPS"):
        evolve(h, psi0, 1e6)


@pytest.mark.parametrize("name,value", [("steps", 101.5), ("steps", 200.0), ("steps", True),
                                        ("n_samples", 2.5), ("n_samples", True)])
def test_evolve_takes_integer_counts_only(name, value):
    # a float or bool count is rejected where it enters, naming the argument
    h = teleport_hamiltonian(TeleportSpec(1, make_schedule("linear")))
    psi0 = teleport_initial_state(np.array([1.0, 0]), 1)
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        evolve(h, psi0, 0.5, **{name: value})
    res = evolve(h, psi0, 0.5, steps=np.int64(200), n_samples=np.int64(3))  # numpy ints pass
    assert res.steps == 200 and len(res.s_samples) == 3


@pytest.mark.parametrize("steps", [100, 101, 333, 1000])
def test_sample_steps_are_the_distinct_rounded_linspace(steps):
    # the rounded linspace never decreases, so dropping repeats is np.unique
    h = teleport_hamiltonian(TeleportSpec(1, make_schedule("linear")))
    psi0 = teleport_initial_state(np.array([1.0, 0]), 1)
    for n_samples in (0, 1, 2, 5, 33, 400):
        got = evolve(h, psi0, 0.5, steps=steps, n_samples=n_samples).s_samples
        want = np.unique(np.round(np.linspace(0, steps, n_samples)).astype(int)) / steps
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_evolve_rejects_a_negative_sample_count(monkeypatch):
    # named where it enters, before the walk plan is compiled
    h = teleport_hamiltonian(TeleportSpec(1, make_schedule("linear")))
    psi0 = teleport_initial_state(np.array([1.0, 0]), 1)
    monkeypatch.setattr(dynamics, "_plan", None)  # calling it fails
    for name, value in [("n_samples", -1), ("n_samples", np.int64(-3))]:
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got {value}$"):
            evolve(h, psi0, 0.5, **{name: value})


PSI = teleport_initial_state(np.array([1.0, 0]), 1)


@pytest.mark.parametrize("state,match", [
    (np.zeros(8), r"column 0 has norm 0,"),
    (3 * PSI, r"column 0 has norm 3,"),
    (np.where(np.arange(8) == 0, np.nan, PSI), r"column 0 has norm nan,"),
    (np.stack([PSI, PSI * (1 + 1e-9)], axis=1), r"column 1 has norm 1\.000000001"),
    (PSI.reshape(8, 1, 1), r"shape \(8,\) or \(8, m\), got \(8, 1, 1\)"),
    (np.zeros((8, 0)), r"shape \(8,\) or \(8, m\), got \(8, 0\)"),
], ids=["zero", "norm-3", "nan", "block-column-1", "8x1x1", "8x0"])
def test_api_takes_only_unit_states(state, match):
    # evolve and the speed-limit check take their input states where they
    # enter, instead of reporting on a non-state as if it were one
    h = cd_teleport(TeleportSpec(1, make_schedule("linear")), 1.0)
    for call in (lambda: evolve(h, state, 1.0), lambda: qsl_check(h, state, 1.0)):
        with pytest.raises(ValueError, match=match):
            call()
    evolve(h, np.stack([PSI, PSI * (1 + 5e-11)], axis=1), 1.0, steps=200)  # within 1e-10


def test_default_steps_floor():
    sch = make_schedule("linear")
    h = teleport_hamiltonian(TeleportSpec(1, sch))
    assert default_steps(h, 1e-4) == dynamics.MIN_STEPS
    # even, so that the step-doubling search's coarse pass takes half of it
    assert all(default_steps(h, tau) % 2 == 0 for tau in (0.31, 1.7, 5.13))


@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
def test_default_steps_follow_the_largest_slot(tau):
    # a CF4 step on a tensor sum factorizes into per-slot steps, so n sectors
    # start where one does (the summed norms started n = 3 at 602, not 202)
    sch = make_schedule("exp")
    one = default_steps(cd_teleport(TeleportSpec(1, sch), tau), tau)
    for n, g in ((2, "CNOT"), (3, "Toffoli")):
        assert default_steps(cd_teleport(TeleportSpec(n, sch, gate=gate(g)), tau), tau) == one


def test_default_steps_read_a_norm_peak_between_coarse_points():
    # ||H(s)|| = |2 - |4 s - 1|| peaks at 2 at s = 1/4, a point of the norm
    # grid, and is 1 at s = 0, 1/2 and 1: the first count follows the peak
    h = TimeDepHamiltonian(dim=2, func=lambda s: np.multiply.outer(2.0 - np.abs(4.0 * s - 1.0), Z))
    tau = 10.0
    assert default_steps(h, tau) == int(2.0 * np.ceil(0.5 * 2.0 * tau / dynamics.STATE_TOL**0.2))


def test_ground_weight_splits_levels_a_thousandth_apart():
    # diag(0, 1e-3) has two levels: (|0> + |1>)/sqrt(2) keeps half its weight
    # in the ground level at every sample, since H only turns the phases
    h = TimeDepHamiltonian(dim=2, func=lambda s: np.multiply.outer(np.ones(np.shape(s)),
                                                                   np.diag([0.0, 1e-3])))
    res = evolve(h, np.array([1.0, 1.0]) / np.sqrt(2.0), 1.0, n_samples=5)
    assert np.max(np.abs(res.ground_fidelity - 0.5)) <= 1e-12


# --- measurement ---------------------------------------------------------------------


def test_measurement_probabilities_at_theta0_half_pi():
    spec = ControlledSpec(n_controls=0, axis="x", phi=np.pi, theta0=np.pi / 2, tau=0.5)
    hsa = cd_controlled(spec)
    rng = np.random.default_rng(11)
    psi = random_state(1, rng)
    res = evolve(hsa, controlled_initial_state(psi))
    outcomes = measure_ancilla(res.final_state)
    assert abs(outcomes[0].probability + outcomes[1].probability - 1.0) < 1e-9
    assert abs(outcomes[1].probability - 0.5) < 1e-6
    # failure branch returns the input state, ready for a retry
    assert fidelity(outcomes[0].post_state, psi) >= 1 - 1e-6


def test_measurement_zero_probability_branch_flagged():
    psi = np.kron(np.array([1.0, 0.0]), np.array([1.0, 0.0]))  # |00>
    outcomes = measure_ancilla(psi)
    assert outcomes[1].probability == 0.0
    assert outcomes[1].post_state is None


# --- target states -------------------------------------------------------------------


def target_state(protocol: str, **inputs) -> np.ndarray:
    """Analytic end-state oracle per protocol, dispatching to the target
    states of ``sal.dynamics``.

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


def test_target_state_teleport_state():
    zero = np.array([1.0, 0.0])
    want = np.kron(bell_state(0, 0), zero)
    got = target_state("teleport_state", psi=zero, n_sectors=1)
    assert np.allclose(got, want)


def test_target_state_teleport_gate():
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    got = target_state("teleport_gate", psi=zero, gate=gate("X"), n_sectors=1)
    assert np.allclose(got, np.kron(bell_state(0, 0), one))


def _haar_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_teleport_initial_state_applies_the_gate_on_bob_axes(n):
    # contracting the gate with Bob's qubit axes equals the dense embedding
    rng = np.random.default_rng(30 + n)
    psi = random_state(n, rng)
    bob = [3 * k + 2 for k in range(n)]
    named = {1: ("X", "H"), 2: ("CNOT",), 3: ("Toffoli",)}[n]
    for u in [gate(g) for g in named] + [_haar_unitary(2**n, rng)]:
        want = embed(u, bob, 3 * n) @ teleport_initial_state(psi, n)
        got = teleport_initial_state(psi, n, gate=u)
        assert got.shape == (2 ** (3 * n),)
        assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("qubits", [(8, 2, 5), (3, 0), (6,), (0, 1, 2, 3, 4, 5, 6, 7, 8)])
def test_rotation_frame_contracts_the_gate_on_its_qubits(qubits):
    # entering and leaving the walk frame through Rotation(g, parts, qubits)
    # equals multiplying by the dense embed(g, qubits, 9), for a state and a block
    rng = np.random.default_rng(sum(qubits) + len(qubits))
    u = _haar_unitary(2 ** len(qubits), rng)
    leaf = TimeDepHamiltonian(dim=512, func=lambda s: np.zeros(np.shape(s) + (512, 512)))
    h = composite(Rotation(u, (leaf,), qubits))
    g, plan = embed(u, qubits, 9), dynamics._plan(h)
    for m in (1, 3):
        x = rng.normal(size=(512, m)) + 1j * rng.normal(size=(512, m))
        walked = {frame: dynamics._walk(plan, x.reshape(1, 1, 512, m), frame=frame)[0, 0]
                  for frame in (1, -1)}
        assert np.max(np.abs(walked[1] - g.conj().T @ x)) <= 1e-14
        assert np.max(np.abs(walked[-1] - g @ x)) <= 1e-14


@pytest.mark.parametrize("n, name", [(1, None), (1, "X"), (2, "CNOT"), (3, "Toffoli")])
def test_full_span_rotations_turn_by_one_matmul(n, name):
    # each sector's parity permutation spans its 8-dim node: a matmul turn
    # (qubits None); the gate on Bob's qubits keeps its list
    spec = TeleportSpec(n, make_schedule("linear"), gate=None if name is None else gate(name))
    turns = dynamics._plan(cd_teleport(spec, 0.5))[0]
    parity = [t for t in turns if t[0].shape == (8, 8)
              and np.array_equal(t[0], PARITY_PERMUTATION)]
    assert len(parity) == n and all(t[1] is None for t in parity)
    assert [t[1] for t in turns if t[0] is spec.gate] == ([] if name is None
                                                          else [spec.bob_qubits])


def test_full_span_rotation_by_any_unitary_matches_assemble():
    # a full-span rotation that is no permutation, turned by one matmul,
    # still evolves as its dense assembled operator does
    rng = np.random.default_rng(43)
    rot = cd_rotate(cd_teleport(TeleportSpec(1, make_schedule("trig")), 0.5),
                    _haar_unitary(8, rng))
    assert dynamics._plan(rot)[0][0][1] is None
    block = np.stack([random_state(3, rng) for _ in range(2)], axis=1)
    for psi0 in (random_state(3, rng), block):
        assert_matches_dense(rot, psi0, 0.5, steps=300)


def _kron_state(factors, n_qubits):
    """``linalg.state_from_factors`` by a chain of np.kron: the reference."""
    psi, order = np.array([1.0 + 0j]), []
    for amps, qubits in factors:
        psi, order = np.kron(psi, np.asarray(amps, dtype=complex)), order + list(qubits)
    return psi.reshape([2] * n_qubits).transpose(np.argsort(order)).reshape(-1)


@pytest.mark.parametrize("n, name", [(1, None), (1, "H"), (2, None), (2, "CNOT"),
                                     (3, None), (3, "Toffoli")])
def test_teleport_states_are_those_of_the_kron_chain(n, name, monkeypatch):
    rng = np.random.default_rng(44 + n)
    psi, u = random_state(n, rng), None if name is None else gate(name)
    got = [teleport_initial_state(psi, n, gate=u), teleport_target_state(psi, n, gate=u)]
    monkeypatch.setattr(dynamics, "state_from_factors", _kron_state)
    want = [teleport_initial_state(psi, n, gate=u), teleport_target_state(psi, n, gate=u)]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_rotated_tree_assembles_the_embedded_gate():
    # the dense h(s), base(s) and cd(s) of a rotated tree are embed(g) H embed(g)^dag
    rng = np.random.default_rng(41)
    spec = TeleportSpec(2, make_schedule("trig"), gate=_haar_unitary(4, rng))
    g = embed(spec.gate, spec.bob_qubits, 3 * spec.n_sectors)
    s = np.linspace(0.0, 1.0, 7)
    h = teleport_hamiltonian(spec)
    hsa = cd_teleport(spec, 0.4)
    inner, inner_sa = h.parts.parts[0], hsa.parts.parts[0]
    for got, want in ((h(s), inner(s)), (h.derivative(s), inner.derivative(s)),
                      (hsa.base(s), inner_sa.base(s)), (hsa.cd(s), inner_sa.cd(s))):
        assert np.max(np.abs(got - g @ want @ g.conj().T)) <= 1e-15


@pytest.mark.parametrize("track_qsl", [False, True])
def test_no_samples_skips_ground_sampling_and_nothing_else(track_qsl, monkeypatch):
    # n_samples=0 leaves every other field bitwise as a default call has it
    spec = TeleportSpec(2, make_schedule("exp"), gate=gate("CNOT"))
    h = cd_teleport(spec, 0.3)
    rng = np.random.default_rng(42)
    single = teleport_initial_state(random_state(2, rng), 2, gate=spec.gate)
    block = np.stack([teleport_initial_state(random_state(2, rng), 2, gate=spec.gate)
                      for _ in range(3)], axis=1)
    for psi0, steps in ((single, None), (block, None), (single, 301)):
        want = evolve(h, psi0, 0.3, steps=steps, track_qsl=track_qsl)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_ground_weights", None)  # calling it fails
            got = evolve(h, psi0, 0.3, steps=steps, n_samples=0, track_qsl=track_qsl)
        assert np.array_equal(got.final_state, want.final_state)
        assert np.array_equal(got.e_tau, want.e_tau)
        assert (got.error_estimate, got.step_counts, got.steps) == (
            want.error_estimate, want.step_counts, want.steps)
        assert got.s_samples.shape == (0,)
        assert got.ground_fidelity.shape == (0,) + psi0.shape[1:]
        assert got.states.shape == (0,) + psi0.shape
        assert want.states.shape == want.s_samples.shape + psi0.shape


def test_target_state_cae_cnot_selection():
    rng = np.random.default_rng(12)
    psi2 = random_state(2, rng)
    theta0 = 1.1
    spec = ControlledSpec(n_controls=1, axis="x", phi=np.pi, theta0=theta0, tau=1.0)
    got = target_state("cae", psi=psi2, spec=spec)
    want = np.cos(theta0 / 2) * np.kron(psi2, [1, 0]) + np.sin(theta0 / 2) * np.kron(
        gate("CNOT") @ psi2, [0, 1]
    )
    assert fidelity(got, want) >= 1 - 1e-12


@pytest.mark.parametrize("n_controls", [0, 1, 3])
def test_controlled_states_stack_the_ancilla_axis(n_controls, monkeypatch):
    # the ancilla is the last qubit: the states equal their Kronecker forms,
    # and once the spec holds its rotation no input calls np.kron
    spec = ControlledSpec(n_controls, axis=(0.3, -1.0, 2.0), phi=0.7, theta0=1.9, tau=1.0)
    psis = [random_state(n_controls + 1, np.random.default_rng(40 + j)) for j in range(3)]
    rot = spec.rotation
    half = spec.theta0 / 2
    wants = [(np.kron(psi, [1.0, 0.0]), np.cos(half) * np.kron(psi, [1.0, 0.0])
              + np.sin(half) * np.kron(rot @ psi, [0.0, 1.0])) for psi in psis]
    monkeypatch.setattr(np, "kron", None)
    for psi, (ini, tgt) in zip(psis, wants):
        assert np.array_equal(controlled_initial_state(psi), ini)
        assert np.array_equal(controlled_target_state(psi, spec), tgt)
    assert spec.rotation is rot


def test_target_state_unknown_protocol():
    with pytest.raises(ValueError):
        target_state("swap")
