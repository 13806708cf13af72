import numpy as np
import pytest

import sal
from sal.counterdiabatic import (
    SuperadiabaticHamiltonian,
    cd_controlled,
    cd_generic,
    cd_rotate,
    cd_teleport,
    cd_teleport_block,
    cd_tensor_sum,
)
from sal.dynamics import evolve, teleport_initial_state
from sal.hamiltonians import (
    I2,
    PARITY_PERMUTATION,
    X,
    Z,
    Branches,
    ControlledSpec,
    TeleportSpec,
    TimeDepHamiltonian,
    composite,
    controlled_hamiltonian,
    h_xi,
    parity_operators,
    sector_tree,
    teleport_block_hamiltonian,
    teleport_energies,
    teleport_gap,
    teleport_hamiltonian,
    teleport_sector_hamiltonian,
)
from sal.linalg import ToleranceError, embed, kron, random_state
from sal.schedules import Schedule, make_schedule
from oracle import teleport_block_frame, teleport_block_frame_deriv


def anticommutator(a, b):
    return a @ b + b @ a


def h_xi_hamiltonian(theta0, xi):
    # d/ds h_xi(theta0 s, xi) = theta0 h_xi(theta0 s + pi/2, xi)
    return TimeDepHamiltonian(dim=2, func=lambda s: h_xi(theta0 * s, xi),
                              deriv=lambda s: theta0 * h_xi(theta0 * s + np.pi / 2, xi))


def constant_hamiltonian():
    m = sal.Z + 0.3 * sal.X
    return TimeDepHamiltonian(
        dim=2,
        func=lambda s: np.broadcast_to(m, np.shape(s) + (2, 2)),
        deriv=lambda s: np.zeros(np.shape(s) + (2, 2)),
    )


# --- generic construction -------------------------------------------------------


def test_cd_generic_constant_hamiltonian_is_zero():
    hsa = cd_generic(constant_hamiltonian(), tau=0.7)
    for s in (0.0, 0.5, 1.0):
        assert np.max(np.abs(hsa.cd(s))) < 1e-10


@pytest.mark.parametrize("xi", [0.0, 0.8, np.pi / 2])
@pytest.mark.parametrize("theta0", [np.pi, np.pi / 2])
def test_cd_generic_matches_branch_closed_form(xi, theta0):
    tau = 0.9
    hsa = cd_generic(h_xi_hamiltonian(theta0, xi), tau=tau)
    want = theta0 / (2 * tau) * (np.cos(xi) * sal.Y - np.sin(xi) * X)  # the paper's correction
    for s in (0.0, 0.25, 0.6, 1.0):
        assert np.max(np.abs(hsa.cd(s) - want)) < 1e-13


def test_cd_generic_traceless():
    hsa = cd_generic(h_xi_hamiltonian(np.pi, 0.3), tau=1.0)
    for s in np.linspace(0, 1, 41):
        assert abs(np.trace(hsa.cd(s))) < 1e-13


def test_cd_generic_handles_degenerate_teleport_sector():
    sch = make_schedule("linear")
    tau = 0.8
    numeric = cd_generic(teleport_sector_hamiltonian(sch), tau=tau)
    analytic = cd_teleport_block(sch, tau)
    for s in (0.0, 0.31, 0.5, 0.77, 1.0):
        assert np.max(np.abs(numeric.cd(s) - analytic.cd(s))) < 1e-13


@pytest.mark.parametrize("tau", [0.01, 0.8, 100.0])
@pytest.mark.parametrize("family", ["linear", "trig", "exp"])
def test_cd_generic_is_the_block_closed_form_to_rounding(family, tau):
    # the pointwise formula on the 4x4 parity block, whose zero level is
    # degenerate, against the closed form: tau * |difference| is rounding at
    # any speed, on points that no grid was built for
    sch = make_schedule(family)
    generic = sector_tree(cd_generic(teleport_block_hamiltonian(sch), tau))
    s = np.linspace(0.0, 1.0, 101)
    assert tau * np.max(np.abs(generic.cd(s) - cd_teleport_block(sch, tau).cd(s))) <= 1e-13


def test_cd_generic_names_a_level_crossing():
    # H = (1 - 2s) Z closes its gap at s = 1/2: the correction builds, is 0
    # where the eigenframe is constant, and a point on the crossing fails the
    # degeneracy check against the levels at s = 0
    h = TimeDepHamiltonian(dim=2, func=lambda s: np.multiply.outer(1 - 2 * s, Z),
                           deriv=lambda s: np.multiply.outer(np.full(np.shape(s), -2.0), Z))
    hsa = cd_generic(h, 1.0)
    assert np.max(np.abs(hsa.cd(0.25))) == 0.0
    with pytest.raises(ToleranceError, match=r"degeneracy pattern changes at s=0\.5000"):
        hsa.cd([0.25, 0.5])


# --- analytic teleport block ------------------------------------------------------


@pytest.mark.parametrize("family", ["linear", "trig", "exp"])
def test_block_frame_is_orthonormal_eigenframe(family):
    sch = make_schedule(family)
    block = teleport_block_hamiltonian(sch)
    for s in np.linspace(0, 1, 101):
        v = teleport_block_frame(sch, s)
        assert np.max(np.abs(v.T @ v - np.eye(4))) < 1e-12
        blk = block(s).real
        chi = float(np.real(sch.chi(s)))
        lam = np.array([-2 * chi, 0.0, 0.0, 2 * chi])
        assert np.max(np.abs(blk @ v - v * lam)) < 1e-11


def test_block_zero_level_contains_a_constant_vector():
    # the zero level of the parity block holds (-1,1,1,1)/2 at every s;
    # the analytic frame keeps it fixed, so the level's internal connection
    # vanishes and the correction is gauge-unambiguous there
    vec = np.array([-1.0, 1.0, 1.0, 1.0]) / 2
    for family in ["linear", "trig", "exp"]:
        sch = make_schedule(family)
        block = teleport_block_hamiltonian(sch)
        for s in np.linspace(0, 1, 21):
            blk = block(s)
            assert np.max(np.abs(blk @ vec)) < 1e-14
            v = teleport_block_frame(sch, s)
            assert np.max(np.abs(v[:, 2] - vec)) < 1e-14


def test_block_frame_derivative_matches_finite_differences():
    sch = make_schedule("exp")
    eps = 1e-6
    for s in (0.1, 0.5, 0.9):
        fd = (teleport_block_frame(sch, s + eps) - teleport_block_frame(sch, s - eps)) / (2 * eps)
        assert np.max(np.abs(fd - teleport_block_frame_deriv(sch, s))) < 1e-5


def test_cd_teleport_diagonal_nullity():
    sch = make_schedule("trig")
    hsa = cd_teleport_block(sch, tau=0.5)
    for s in np.linspace(0.0, 1.0, 401)[::40]:
        v = np.linalg.eigh(hsa.base(s))[1]
        diag = np.diag(v.conj().T @ hsa.cd(s) @ v)
        assert np.max(np.abs(diag)) < 1e-8


def test_cd_teleport_preserves_parity_symmetries():
    sch = make_schedule("linear")
    hsa = cd_teleport_block(sch, tau=1.3)
    pz, px, _, _ = parity_operators(1)
    for s in np.linspace(0, 1, 51):
        for op in (hsa.total(s), hsa.cd(s)):
            assert np.max(np.abs(op @ pz - pz @ op)) < 1e-9
            assert np.max(np.abs(op @ px - px @ op)) < 1e-9


@pytest.mark.parametrize("family", ["linear", "trig", "exp"])
def test_sector_tree_assembles_the_dense_sector_exactly(family):
    # the parity-block trees P (1 (x) B) P^T of the drive and the shortcut
    # assemble the 8x8 operators the sector was once built from directly
    sch = make_schedule(family)
    s = np.linspace(0, 1, 257)
    h_ini = -(kron(I2, Z, Z) + kron(I2, X, X))
    h_fin = -(kron(Z, Z, I2) + kron(X, X, I2))
    (ei, ef), (di, df) = sch.eta(s), sch.deta(s)
    drive = np.multiply.outer(ei, h_ini) + np.multiply.outer(ef, h_fin)
    perm = PARITY_PERMUTATION
    sector = teleport_sector_hamiltonian(sch)
    hsa = cd_teleport_block(sch, 0.7)
    block = hsa.parts.parts[0].parts.parts[0]  # Rotation(P, (Branches((I2,), (B,)),), (0, 1, 2))
    assert block.dim == 4
    assert np.max(np.abs(sector(s) - drive)) == 0.0
    d_drive = np.multiply.outer(di, h_ini) + np.multiply.outer(df, h_fin)
    assert np.max(np.abs(sector.derivative(s) - d_drive)) == 0.0
    assert np.max(np.abs(hsa.base(s) - drive)) == 0.0
    assert np.max(np.abs(hsa.cd(s) - perm @ np.kron(np.eye(2), block.cd(s)) @ perm.T)) == 0.0


@pytest.mark.parametrize("omega", [1.0, 2.0])
@pytest.mark.parametrize("tau", [0.5, 5.0])
@pytest.mark.parametrize("family", ["linear", "trig", "exp"])
def test_closed_form_cd_equals_the_frame_generator(family, tau, omega):
    # (i a'/tau) [B_fin, B_ini]/4 is (i/tau) V' V^T of the analytic frame; at
    # frequency omega the run is the unit run at omega*tau with energies
    # times omega, so the shortcut is omega times the one at omega*tau
    sch = make_schedule(family)
    s = np.linspace(0, 1, 4097)
    v, dv = teleport_block_frame(sch, s), teleport_block_frame_deriv(sch, s)
    k = dv @ np.swapaxes(v, -1, -2)
    k = (k - np.swapaxes(k, -1, -2)) / 2
    block = cd_teleport_block(sch, omega * tau).parts.parts[0].parts.parts[0]
    assert np.max(np.abs(omega * block.cd(s) - 1j * k / tau)) <= 1e-14


def _counting_schedule(calls):
    def counted(name, f):
        def g(s):
            calls.append((name, np.iscomplexobj(s)))
            return f(s)
        return g

    sch = make_schedule("exp")
    names = ("eta_i", "eta_f", "deta_i", "deta_f")
    return Schedule("exp", *(counted(n, getattr(sch, n)) for n in names))


def test_closed_form_cd_reads_the_schedule_once_per_evaluation():
    # one cd(s) call on an array of s evaluates each interpolant once, at
    # real s: no per-point frame and no complex step
    calls = []
    hsa = cd_teleport_block(_counting_schedule(calls), tau=0.7)
    calls.clear()
    hsa.cd(np.linspace(0, 1, 33))
    assert sorted(calls) == [(n, False) for n in ("deta_f", "deta_i", "eta_f", "eta_i")]


def test_cd_scales_as_inverse_tau():
    sch = make_schedule("linear")
    a = cd_teleport_block(sch, tau=0.7)
    b = cd_teleport_block(sch, tau=1.4)
    for s in (0.1, 0.5, 0.9):
        assert np.max(np.abs(0.7 * a.cd(s) - 1.4 * b.cd(s))) < 1e-10


def test_anticommutator_trace_nullity():
    sch = make_schedule("exp")
    hsa = cd_teleport_block(sch, tau=0.4)
    for s in np.linspace(0, 1, 21):
        assert abs(np.trace(anticommutator(hsa.base(s), hsa.cd(s)))) < 1e-8


# --- rotation --------------------------------------------------------------------


def test_cd_rotate_identity():
    sch = make_schedule("linear")
    hsa = cd_teleport_block(sch, tau=1.0)
    rot = cd_rotate(hsa, np.eye(8, dtype=complex))
    for s in (0.0, 0.5, 1.0):
        assert np.max(np.abs(rot.total(s) - hsa.total(s))) < 1e-14


def test_cd_rotate_spectrum_invariant():
    sch = make_schedule("trig")
    hsa = cd_teleport_block(sch, tau=0.6)
    g = embed(sal.gate("H"), [2], 3)
    rot = cd_rotate(hsa, g)
    for s in (0.0, 0.3, 0.8):
        a = np.linalg.eigvalsh(hsa.total(s))
        b = np.linalg.eigvalsh(rot.total(s))
        assert np.max(np.abs(a - b)) < 1e-10


def test_cd_rotate_rejects_non_unitary():
    sch = make_schedule("linear")
    hsa = cd_teleport_block(sch, tau=1.0)
    with pytest.raises(ValueError):
        cd_rotate(hsa, np.ones((8, 8)))
    # a rotation acts on qubits: a 3-level drive has none to contract with
    three = TimeDepHamiltonian(dim=3, func=lambda s: np.zeros(np.shape(s) + (3, 3)))
    with pytest.raises(ValueError, match="not a power of 2"):
        cd_rotate(SuperadiabaticHamiltonian(three, three.func, 1.0), np.eye(3))


# --- tensor sum ------------------------------------------------------------------


def test_cd_tensor_sum_single_block_is_identity():
    sch = make_schedule("linear")
    hsa = cd_teleport_block(sch, tau=1.0)
    assert cd_tensor_sum([hsa]) is hsa


def test_cd_tensor_sum_requires_matching_tau():
    sch = make_schedule("linear")
    with pytest.raises(ValueError, match="disagree on tau"):
        cd_tensor_sum([cd_teleport_block(sch, 1.0), cd_teleport_block(sch, 2.0)])
    # every node kind: branches whose shortcuts disagree on tau, and a drive
    # next to a shortcut
    drives = controlled_hamiltonian(ControlledSpec(n_controls=0)).parts
    slow, fast = (cd_controlled(ControlledSpec(n_controls=0, tau=tau)).parts.parts[0]
                  for tau in (1.0, 2.0))
    with pytest.raises(ValueError, match="disagree on tau"):
        composite(Branches(drives.projectors, (slow, fast)))
    with pytest.raises(ValueError, match="mix drives and shortcuts"):
        composite(Branches(drives.projectors, (drives.parts[0], fast)))


def test_cd_tensor_sum_matches_per_sector_generic():
    sch = make_schedule("linear")
    tau = 0.9
    analytic = cd_tensor_sum([cd_teleport_block(sch, tau)] * 2)
    numeric_block = cd_generic(teleport_sector_hamiltonian(sch), tau=tau)
    numeric = cd_tensor_sum([numeric_block] * 2)
    for s in (0.12, 0.5, 0.93):
        assert np.max(np.abs(analytic.cd(s) - numeric.cd(s))) < 1e-13
        assert np.max(np.abs(analytic.base(s) - numeric.base(s))) < 1e-12


def test_cd_tensor_sum_joint_gap_equals_single():
    sch = make_schedule("exp")
    joint = cd_tensor_sum([cd_teleport_block(sch, 1.0)] * 2)
    h2 = teleport_hamiltonian(TeleportSpec(2, sch))
    for s in (0.2, 0.5):
        assert np.max(np.abs(joint.base(s) - h2(s))) < 1e-12


# --- teleport shortcut ------------------------------------------------------------


# n = 1..3 with and without a gate, each n with the closed-form and the generic
# sector; one 512-dim case each way keeps the dense evaluations short.  The ids
# end in 201 for the generic sector, the grid it was once interpolated on, so
# that each case keeps its name.
@pytest.mark.parametrize("n, gate_name, generic", [
    (1, None, False), (1, "H", False), (1, "H", True),
    (2, None, False), (2, "CNOT", False), (2, "CNOT", True),
    (3, None, True), (3, "Toffoli", False),
], ids=lambda v: ("201" if v else "None") if isinstance(v, bool) else None)
def test_cd_teleport_equals_hand_assembly(n, gate_name, generic):
    sch, tau = make_schedule("exp"), 0.4
    u = None if gate_name is None else sal.gate(gate_name)
    spec = TeleportSpec(n, sch, gate=u)
    if generic:
        block = sector_tree(cd_generic(teleport_block_hamiltonian(sch), tau))
    else:
        block = cd_teleport_block(sch, tau)
    hand = cd_tensor_sum([block] * n)
    if u is not None:
        hand = cd_rotate(hand, embed(u, spec.bob_qubits, 3 * n))
    built = cd_teleport(spec, tau, generic=generic)
    s = np.linspace(0.0, 1.0, 9)
    for name in ("total", "cd"):
        assert np.max(np.abs(getattr(built, name)(s) - getattr(hand, name)(s))) <= 1e-14
    assert np.max(np.abs(built.base.derivative(s) - hand.base.derivative(s))) <= 1e-14
    psi0 = teleport_initial_state(random_state(n, np.random.default_rng(n)), n, gate=u)
    a, b = (evolve(h, psi0, tau, steps=400, n_samples=2) for h in (built, hand))
    assert np.max(np.abs(a.final_state - b.final_state)) <= 1e-12


@pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf, 1e-310, 5e-324])
@pytest.mark.parametrize("build", ["generic", "block", "controlled", "teleport", "teleport generic"])
def test_shortcuts_reject_a_bad_tau(build, tau):
    sch = make_schedule("linear")
    spec = TeleportSpec(2, sch, gate=sal.gate("CNOT"))
    make = {
        "generic": lambda tau: cd_generic(teleport_block_hamiltonian(sch), tau),
        "block": lambda tau: cd_teleport_block(sch, tau),
        "controlled": lambda tau: cd_controlled(ControlledSpec(n_controls=1, tau=tau)),
        "teleport": lambda tau: cd_teleport(spec, tau),
        "teleport generic": lambda tau: cd_teleport(spec, tau, generic=True),
    }[build]
    # a subnormal tau is positive, but its correction ~ 1/tau overflows
    match = "below the smallest normal float" if 0 < tau < 1 else "tau must be positive and finite"
    with pytest.raises(ValueError, match=match):
        make(tau)
    assert make(np.finfo(float).tiny).tau == np.finfo(float).tiny  # the smallest accepted


# --- controlled evolutions ---------------------------------------------------------


def test_cd_controlled_branch_terms():
    spec = ControlledSpec(n_controls=0, axis="x", phi=np.pi, theta0=np.pi, tau=2.0)
    hsa = cd_controlled(spec)
    want0 = np.pi / (2 * 2.0) * sal.Y

    def branch(xi):  # (theta0/2tau)(sy cos(xi) - sx sin(xi))
        return np.pi / (2 * 2.0) * (np.cos(xi) * sal.Y - np.sin(xi) * X)

    cd = hsa.cd(0.37)
    p_plus, p_minus = sal.axis_projectors("x")
    want = np.kron(p_plus, want0) + np.kron(p_minus, branch(np.pi))
    assert np.allclose(cd, want, atol=1e-14)
    assert np.allclose(branch(0.0), want0)


def test_cd_controlled_builds_only_its_own_tree(monkeypatch):
    # the shortcut is built on the one drive leaf controlled_branch, not
    # taken from a controlled drive tree: composite runs for its Branches and
    # Rotation nodes and for the drive node under each, four calls, where
    # building the drive tree as well would take six
    calls = []
    build = sal.hamiltonians.composite
    monkeypatch.setattr(sal.hamiltonians, "composite",
                        lambda node: calls.append(type(node).__name__) or build(node))
    hsa = cd_controlled(ControlledSpec(n_controls=1, axis="y", phi=0.4, theta0=2.0, tau=0.6))
    assert sorted(calls) == ["Branches", "Branches", "Rotation", "Rotation"]
    assert isinstance(hsa.parts, Branches) and hsa.parts.parts[0].base.parts is None


def test_cd_controlled_cd_is_time_independent():
    spec = ControlledSpec(n_controls=1, axis="y", phi=np.pi / 2, theta0=2.2, tau=0.3)
    hsa = cd_controlled(spec)
    assert np.array_equal(hsa.cd(0.0), hsa.cd(0.73))


def test_cd_controlled_vanishes_with_theta0():
    spec = ControlledSpec(n_controls=0, axis="x", phi=np.pi, theta0=1e-9, tau=1.0)
    hsa = cd_controlled(spec)
    assert np.max(np.abs(hsa.cd(0.5))) < 1e-8


@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
def test_transport_fidelity_controlled(tau):
    spec = ControlledSpec(n_controls=0, axis="x", phi=np.pi, theta0=np.pi, tau=tau)
    hsa = cd_controlled(spec)
    rng = np.random.default_rng(17)
    psi0 = sal.controlled_initial_state(random_state(1, rng))
    res = sal.evolve(hsa, psi0, tau)
    assert res.ground_fidelity.min() >= 1 - 1e-5


@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
def test_transport_fidelity_teleport(tau):
    sch = make_schedule("linear")
    hsa = cd_teleport_block(sch, tau)
    rng = np.random.default_rng(23)
    psi0 = sal.teleport_initial_state(random_state(1, rng), 1)
    res = sal.evolve(hsa, psi0, tau)
    assert res.ground_fidelity.min() >= 1 - 1e-5


def test_transport_holds_for_excited_levels():
    # start in the top eigenstate; the shortcut must pin it to the top level
    sch = make_schedule("linear")
    tau = 0.3
    hsa = cd_teleport_block(sch, tau)
    lam0, vec0 = np.linalg.eigh(hsa.base(0.0))
    psi0 = vec0[:, -1]
    res = sal.evolve(hsa, psi0, tau)
    for s, psi in zip(res.s_samples, res.states):
        lam, vec = np.linalg.eigh(hsa.base(s))
        top = vec[:, lam > lam[-1] - 1e-9]
        overlap = np.linalg.norm(top.conj().T @ psi)
        assert overlap >= 1 - 1e-6, s


def test_cd_controlled_diag_nullity_and_anticommutator():
    spec = ControlledSpec(n_controls=1, axis="y", phi=np.pi / 2, theta0=2.5, tau=0.4)
    hsa = cd_controlled(spec)
    for s in np.linspace(0, 1, 21):
        lam, vec = np.linalg.eigh(hsa.base(s))
        diag = np.diag(vec.conj().T @ hsa.cd(s) @ vec)
        assert np.max(np.abs(diag)) < 1e-8
        assert abs(np.trace(anticommutator(hsa.base(s), hsa.cd(s)))) < 1e-8


# --- the array evaluation contract ------------------------------------------------


def _evaluators():
    sch = make_schedule("trig")
    sector = teleport_sector_hamiltonian(sch)
    spec = ControlledSpec(n_controls=1, axis=[1, 1, 1], phi=0.9, theta0=2.0, tau=0.7)
    branch = controlled_hamiltonian(spec).parts.parts[1]
    block = cd_teleport_block(sch, 0.7)
    joint = cd_tensor_sum([block] * 2)
    rot = cd_rotate(block, embed(sal.gate("H"), [2], 3))
    return {
        "teleport sector H": sector,
        "teleport sector dH": sector.derivative,
        "controlled branch H": branch,
        "controlled branch dH": branch.derivative,
        "controlled H": controlled_hamiltonian(spec),
        "cd_teleport_block": block.cd,
        "cd_generic": cd_generic(sector, 0.7).cd,
        "cd_controlled": cd_controlled(spec).cd,
        "cd_controlled total": cd_controlled(spec).total,
        "cd_tensor_sum": joint.cd,
        "cd_tensor_sum total": joint.total,
        "cd_tensor_sum dH": joint.base.derivative,
        "cd_rotate": rot.cd,
        "cd_rotate total": rot.total,
        "teleport_energies": lambda s: teleport_energies(sch, s),
        "teleport_gap": lambda s: teleport_gap(sch, s),
    }


@pytest.mark.parametrize("name", sorted(_evaluators()))
def test_array_call_equals_stacked_scalar_calls(name):
    evaluate = _evaluators()[name]
    s = np.linspace(0.0, 1.0, 9)
    batched = evaluate(s)
    stacked = np.stack([evaluate(x) for x in s])
    assert batched.shape == stacked.shape
    assert np.max(np.abs(batched - stacked)) <= 1e-14


def test_scalar_only_closure_is_rejected():
    s = np.array([0.25, 0.75])
    h = TimeDepHamiltonian(dim=2, func=lambda s: (1 - 2 * s) * sal.Z)  # broadcasts to (2, 2)
    with pytest.raises(ValueError, match="shape"):
        h(s)
    h = TimeDepHamiltonian(dim=2, func=h_xi_hamiltonian(np.pi, 0.0).func, deriv=lambda s: sal.X)
    with pytest.raises(ValueError, match="shape"):
        h.derivative(s)
    hsa = SuperadiabaticHamiltonian(base=h, cd=lambda s: 0.1 * sal.Y, tau=1.0)
    with pytest.raises(ValueError, match="shape"):
        hsa.total(s)
