import numpy as np
import pytest

import sal
from sal.counterdiabatic import (
    cd_branch_term,
    cd_controlled,
    cd_generic,
    cd_teleport,
    cd_teleport_block,
)
from sal import dynamics
from sal.dynamics import _leaves
from sal.hamiltonians import (
    GATES,
    PARITY_ORDER,
    I2,
    X,
    Y,
    Z,
    ControlledSpec,
    Linear,
    TeleportSpec,
    TimeDepHamiltonian,
    adiabatic_time_estimate,
    axis_projectors,
    axis_sigma,
    bell_state,
    controlled_hamiltonian,
    gate,
    h_xi,
    parse_axis,
    parity_operators,
    parity_permutation,
    teleport_block_hamiltonian,
    teleport_block_terms,
    teleport_energies,
    teleport_gap,
    teleport_hamiltonian,
    terms,
)
from sal.linalg import expm_hermitian, kron, random_state
from sal.schedules import FAMILIES, make_schedule
from test_linalg import assert_steps_by_eigendecomposition, eigen_route


# --- gate library -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GATES))
def test_gates_unitary(name):
    u = gate(name)
    assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-12


def test_gate_matrix_forms():
    assert np.array_equal(
        gate("CNOT"),
        np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    )
    assert np.allclose(gate("H"), np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    assert np.allclose(gate("T"), np.diag([1.0, np.exp(1j * np.pi / 4)]))
    toffoli = gate("TOFFOLI")
    assert np.array_equal(toffoli[:6, :6], np.eye(6))
    assert np.array_equal(toffoli[6:, 6:], np.array([[0, 1], [1, 0]]))


def test_unknown_gate():
    with pytest.raises(ValueError):
        gate("SWAP")


# --- Bell states ---------------------------------------------------------------


def test_bell_state_00():
    want = np.zeros(4); want[[0, 3]] = 1 / np.sqrt(2)
    assert np.allclose(bell_state(0, 0), want)


def test_bell_state_singlet():
    want = np.zeros(4); want[1] = 1 / np.sqrt(2); want[2] = -1 / np.sqrt(2)
    assert np.allclose(bell_state(1, 1), want)


def test_bell_orthonormality():
    states = [bell_state(n, m) for n in (0, 1) for m in (0, 1)]
    gram = np.array([[np.vdot(a, b) for b in states] for a in states])
    assert np.allclose(gram, np.eye(4), atol=1e-15)


# --- teleport Hamiltonian -------------------------------------------------------


def test_teleport_endpoints_fix_the_stabilizer_terms():
    sch = make_schedule("linear")
    h = teleport_hamiltonian(TeleportSpec(1, sch))
    want0 = -(kron(sal.hamiltonians.I2, sal.Z, sal.Z) + kron(sal.hamiltonians.I2, sal.X, sal.X))
    assert np.allclose(h(0.0), want0, atol=1e-14)


def test_teleport_initial_and_final_ground_membership():
    sch = make_schedule("trig")
    h = teleport_hamiltonian(TeleportSpec(1, sch))
    rng = np.random.default_rng(0)
    for _ in range(5):
        psi = random_state(1, rng)
        ini = sal.teleport_initial_state(psi, 1)
        assert np.max(np.abs(h(0.0) @ ini - (-2.0) * ini)) < 1e-12
        fin = sal.teleport_target_state(psi, 1)
        assert np.max(np.abs(h(1.0) @ fin - (-2.0) * fin)) < 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_teleport_spectrum_closed_form(family):
    sch = make_schedule(family)
    h = teleport_hamiltonian(TeleportSpec(1, sch))
    for s in np.linspace(0, 1, 101):
        hs = h(s)
        assert np.max(np.abs(hs - hs.conj().T)) <= 1e-12
        lam = np.linalg.eigvalsh(hs)
        distinct = teleport_energies(sch, s)
        want = np.sort(np.repeat(distinct, 2))
        assert np.max(np.abs(lam - want)) < 1e-9


def test_teleport_gap_value():
    sch = make_schedule("linear")
    assert abs(teleport_gap(sch, 0.5) - np.sqrt(2.0)) < 1e-12


def test_two_sector_gap_equals_single():
    sch = make_schedule("linear")
    h2 = teleport_hamiltonian(TeleportSpec(2, sch))
    for s in (0.0, 0.3, 0.7):
        lam = np.linalg.eigvalsh(h2(s))
        gap = lam[np.searchsorted(lam, lam[0] + 1e-9)] - lam[0]
        assert abs(gap - teleport_gap(sch, s)) < 1e-9


def test_parity_block_form():
    # the permuted Hamiltonian is two identical 4x4 blocks
    sch = make_schedule("exp")
    h = teleport_hamiltonian(TeleportSpec(1, sch))
    perm = parity_permutation()
    block = teleport_block_hamiltonian(sch)
    for s in (0.0, 0.21, 0.5, 0.88, 1.0):
        blk = block(s)
        want = np.zeros((8, 8), dtype=complex)
        want[:4, :4] = blk
        want[4:, 4:] = blk
        assert np.max(np.abs(perm.T @ h(s) @ perm - want)) < 1e-13


def test_parity_order_is_spin_flip_paired():
    assert [7 - i for i in PARITY_ORDER[:4]] == list(PARITY_ORDER[4:])


def test_parity_action_on_basis_states():
    pz, px, _, _ = parity_operators(1)
    for idx in range(8):
        e = np.zeros(8); e[idx] = 1
        bits = bin(idx).count("1")
        assert np.allclose(pz @ e, (-1.0) ** bits * e)
        flipped = np.zeros(8); flipped[7 - idx] = 1
        assert np.allclose(px @ e, flipped)


@pytest.mark.parametrize("n_sectors", [1, 2])
def test_parity_commutes_with_teleport(n_sectors):
    sch = make_schedule("trig")
    h = teleport_hamiltonian(TeleportSpec(n_sectors, sch))
    pz, px, pzs, pxs = parity_operators(n_sectors)
    for s in np.linspace(0, 1, 101):
        hs = h(s)
        for op in [pz, px, *pzs, *pxs]:
            assert np.max(np.abs(hs @ op - op @ hs)) < 1e-10


def test_rotated_hamiltonian_spectrum_invariant():
    sch = make_schedule("linear")
    plain = teleport_hamiltonian(TeleportSpec(1, sch))
    rotated = teleport_hamiltonian(TeleportSpec(1, sch, gate=gate("H")))
    for s in (0.0, 0.4, 1.0):
        a = np.linalg.eigvalsh(plain(s))
        b = np.linalg.eigvalsh(rotated(s))
        assert np.max(np.abs(a - b)) < 1e-10


def test_gate_dim_mismatch_rejected():
    sch = make_schedule("linear")
    with pytest.raises(ValueError):
        TeleportSpec(1, sch, gate=gate("CNOT"))


# --- Bloch axes and controlled evolutions ---------------------------------------


def axis_states(axis) -> tuple[np.ndarray, np.ndarray]:
    """Bloch eigenstates |n+>, |n-> of n_hat.sigma with a fixed phase gauge."""
    n = parse_axis(axis)
    theta = np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = np.arctan2(n[1], n[0])
    plus = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    minus = np.array([np.sin(theta / 2), -np.exp(1j * phi) * np.cos(theta / 2)])
    return plus, minus


def test_parse_axis_scales_before_the_norm():
    # an axis is scaled by a power of two before its norm: one whose squares
    # overflow or underflow is still normalized, and any other exactly as
    # vec / ||vec||
    want = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    for scale in (1e308, 1e-200):
        assert np.max(np.abs(parse_axis([scale, scale, 0.0]) - want)) <= 2e-16
    for vec in ((1.0, 1.0, 0.0), (1.0, -2.0, 0.5), (0.0, 0.0, 1.0), (0.3, 0.4, 0.0),
                (-1.0, 1.0, 1.0), (3e150, -1e150, 2e149), (1e-150, 7e-151, -3e-151)):
        assert np.array_equal(parse_axis(vec), np.array(vec) / np.linalg.norm(vec))
    with pytest.raises(ValueError, match="nonzero"):
        parse_axis([0.0, 0.0, 0.0])


def test_axis_states_are_eigenstates():
    for axis in ("x", "y", "z", [1.0, 1.0, 0.5]):
        ns = axis_sigma(axis)
        plus, minus = axis_states(axis)
        assert np.max(np.abs(ns @ plus - plus)) < 1e-12
        assert np.max(np.abs(ns @ minus + minus)) < 1e-12
        p_plus, p_minus = axis_projectors(axis)
        assert np.allclose(p_plus, np.outer(plus, plus.conj()), atol=1e-12)
        assert np.allclose(p_minus, np.outer(minus, minus.conj()), atol=1e-12)


def test_h_xi_spectrum_flat():
    for xi in (0.0, 0.7, np.pi):
        for theta0 in (0.4, np.pi):
            for s in np.linspace(0, 1, 21):
                lam = np.linalg.eigvalsh(h_xi(theta0 * s, xi))
                assert np.max(np.abs(lam - [-1.0, 1.0])) < 1e-10


def h_xi_eigenstates(s: float, xi: float, theta0: float) -> tuple[np.ndarray, np.ndarray]:
    """Instantaneous eigenstates of h_xi at theta = theta0*s, energies -/+ 1."""
    half = theta0 * s / 2.0
    ground = np.array([np.cos(half), np.exp(1j * xi) * np.sin(half)])
    excited = np.array([-np.sin(half), np.exp(1j * xi) * np.cos(half)])
    return ground, excited


def test_h_xi_eigenstates_closed_form():
    for xi in (0.0, 1.1):
        for s in np.linspace(0, 1, 11):
            ground, excited = h_xi_eigenstates(s, xi, np.pi)
            h = h_xi(np.pi * s, xi)
            assert np.max(np.abs((h + np.eye(2)) @ ground)) < 1e-10
            assert np.max(np.abs((h - np.eye(2)) @ excited)) < 1e-10


def gate_selection(name: str) -> tuple[str, float]:
    """Bloch-axis/angle pairs implementing named gates via controlled
    evolutions: NOT-type gates rotate by pi about x, Hadamard by pi/2 about y."""
    presets = {"NOT": ("x", np.pi), "X": ("x", np.pi), "CNOT": ("x", np.pi),
               "TOFFOLI": ("x", np.pi), "H": ("y", np.pi / 2), "HADAMARD": ("y", np.pi / 2)}
    try:
        return presets[name.upper()]
    except KeyError:
        raise ValueError(f"no controlled-evolution preset for gate {name!r}") from None


def test_gate_selection_presets():
    assert gate_selection("NOT") == ("x", np.pi)
    assert gate_selection("CNOT") == ("x", np.pi)
    assert gate_selection("Toffoli") == ("x", np.pi)
    axis, phi = gate_selection("H")
    assert axis == "y" and abs(phi - np.pi / 2) < 1e-15
    with pytest.raises(ValueError):
        gate_selection("T")
    # the (x, pi) selection on one control is exactly CNOT
    spec = ControlledSpec(n_controls=1, axis="x", phi=np.pi, theta0=np.pi, tau=1.0)
    r = spec.rotation
    assert np.max(np.abs(r - gate("CNOT"))) < 1e-12
    # unconditioned (x, pi) is the NOT gate up to a global phase
    spec0 = ControlledSpec(n_controls=0, axis="x", phi=np.pi, theta0=np.pi, tau=1.0)
    r0 = spec0.rotation
    overlap = np.trace(gate("X").conj().T @ r0) / 2
    assert abs(abs(overlap) - 1.0) < 1e-12


def test_controlled_hamiltonian_start_is_sigma_z_for_both_branches():
    spec = ControlledSpec(n_controls=0, axis="z", phi=1.3, theta0=np.pi, tau=1.0)
    h = controlled_hamiltonian(spec)
    want = np.kron(np.eye(2), -sal.Z)
    assert np.allclose(h(0.0), want, atol=1e-14)


def test_controlled_activation_projector_default_all_ones():
    spec = ControlledSpec(n_controls=2, axis="x", phi=np.pi, theta0=np.pi, tau=1.0)
    p = spec.activation_projector()
    _, p_minus = axis_projectors("x")
    want = np.zeros((8, 8), dtype=complex)
    want[6:, 6:] = p_minus
    assert np.allclose(p, want)


def test_controlled_activation_override():
    spec = ControlledSpec(n_controls=1, axis="x", phi=np.pi, theta0=np.pi, tau=1.0, activation=0)
    p = spec.activation_projector()
    _, p_minus = axis_projectors("x")
    want = np.zeros((4, 4), dtype=complex)
    want[:2, :2] = p_minus
    assert np.allclose(p, want)


def test_controlled_invalid_inputs():
    with pytest.raises(ValueError):
        ControlledSpec(n_controls=1, axis=[0, 0, 0], phi=np.pi, theta0=np.pi, tau=1.0)
    with pytest.raises(ValueError):
        ControlledSpec(n_controls=1, axis="x", phi=np.pi, theta0=np.pi, tau=1.0, activation=5)
    with pytest.raises(ValueError):
        ControlledSpec(n_controls=1, axis="x", phi=np.pi, theta0=0.0, tau=1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="phi must be finite"):
            ControlledSpec(n_controls=1, axis="x", phi=bad, theta0=np.pi, tau=1.0)


def test_controlled_hermitian_on_grid():
    spec = ControlledSpec(n_controls=1, axis=[1, 1, 1], phi=0.9, theta0=2.0, tau=1.0)
    h = controlled_hamiltonian(spec)
    for s in np.linspace(0, 1, 101):
        hs = h(s)
        assert np.max(np.abs(hs - hs.conj().T)) <= 1e-12


# --- adiabatic runtime diagnostic ------------------------------------------------


def test_estimate_zero_for_constant():
    h = TimeDepHamiltonian(
        dim=2,
        func=lambda s: np.broadcast_to(sal.Z.astype(complex), np.shape(s) + (2, 2)),
        deriv=lambda s: np.zeros(np.shape(s) + (2, 2)),
    )
    assert adiabatic_time_estimate(h) == 0.0


def test_estimate_teleport_positive_and_scales_inversely_with_omega():
    # the estimate is a dimensionless omega*tau: a drive at frequency 2 needs
    # half the runtime
    h = teleport_hamiltonian(TeleportSpec(1, make_schedule("linear")))
    h2 = TimeDepHamiltonian(dim=h.dim, func=lambda s: 2.0 * h(s),
                            deriv=lambda s: 2.0 * h.derivative(s))
    est1, est2 = adiabatic_time_estimate(h), adiabatic_time_estimate(h2)
    assert est1 > 0
    assert abs(est2 / est1 - 0.5) < 1e-9


# --- coefficient form ------------------------------------------------------------

S_POINTS = {
    "scalar": 0.37,
    "1-D": np.linspace(0.0, 1.0, 33),
    "complex scalar": 0.37 + 1e-20j,
    "complex 1-D": np.linspace(0.0, 1.0, 9) + 1e-20j,
}


def assert_same_operator(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-15 * max(1.0, np.max(np.abs(want)))


def test_teleport_block_terms_are_one_read_only_pair():
    # formed once: every call returns the same two arrays, and no caller can write them
    first = teleport_block_terms()
    assert len(first) == 2
    for a, b in zip(first, teleport_block_terms()):
        assert a is b and a.shape == (4, 4) and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


def test_teleport_block_terms_are_the_permuted_couplings():
    # the leading 4x4 blocks of P^T H_ini P and P^T H_fin P are the Pauli
    # products -(Z 1 + 1 X) and -(Z Z + X X), bit for bit, and their
    # commutator is i (Z Y - Y X) / 2
    perm = parity_permutation()
    h_ini = -(kron(I2, Z, Z) + kron(I2, X, X))
    h_fin = -(kron(Z, Z, I2) + kron(X, X, I2))
    b_ini, b_fin = teleport_block_terms()
    for b, h in ((b_ini, h_ini), (b_fin, h_fin)):
        want = (perm.T @ h @ perm)[:4, :4]
        assert np.array_equal(b, want) and b.tobytes() == want.tobytes()
    assert np.array_equal((b_fin @ b_ini - b_ini @ b_fin) / 4, 1j * (kron(Z, Y) - kron(Y, X)) / 2)


@pytest.mark.parametrize("kind", sorted(S_POINTS))
@pytest.mark.parametrize("family", FAMILIES)
def test_teleport_linear_forms_equal_the_formulas_they_replace(family, kind):
    s, sch, tau = S_POINTS[kind], make_schedule(family), 0.7
    b_ini, b_fin = teleport_block_terms()
    (ei, ef), (di, df) = sch.eta(s), sch.deta(s)
    block = teleport_block_hamiltonian(sch)
    assert isinstance(block.func, Linear) and isinstance(block.deriv, Linear)
    assert_same_operator(block(s), np.multiply.outer(ei, b_ini) + np.multiply.outer(ef, b_fin))
    assert_same_operator(block.derivative(s),
                         np.multiply.outer(di, b_ini) + np.multiply.outer(df, b_fin))
    gen = (b_fin @ b_ini - b_ini @ b_fin) / 4
    cd = cd_teleport_block(sch, tau).parts.parts[0].parts.parts[0].cd
    assert isinstance(cd, Linear)
    assert_same_operator(cd(s), np.multiply.outer(1j * sch.angle_rate(s) / tau, gen))


@pytest.mark.parametrize("kind", sorted(S_POINTS))
def test_controlled_linear_forms_equal_the_formulas_they_replace(kind):
    s, theta0, xi, tau = S_POINTS[kind], 2.5, 1.1, 0.6
    spec = ControlledSpec(n_controls=1, axis="y", phi=xi, theta0=theta0, tau=tau)
    _, branch = controlled_hamiltonian(spec).parts.parts
    assert isinstance(branch.func, Linear) and isinstance(branch.deriv, Linear)
    th, n_xi = theta0 * s, np.cos(xi) * X + np.sin(xi) * Y
    want = -(np.multiply.outer(np.cos(th), Z) + np.multiply.outer(np.sin(th), n_xi))
    assert_same_operator(branch(s), want)
    assert_same_operator(h_xi(th, xi), want)
    assert_same_operator(branch.derivative(s), -theta0 * (
        np.multiply.outer(-np.sin(th), Z) + np.multiply.outer(np.cos(th), n_xi)))
    _, shortcut = cd_controlled(spec).parts.parts
    assert isinstance(shortcut.cd, Linear)
    assert_same_operator(shortcut.cd(s), np.broadcast_to(cd_branch_term(theta0, tau, xi),
                                                         np.shape(s) + (2, 2)))


def test_terms_are_set_on_every_builder_leaf():
    sch = make_schedule("exp")
    spec = TeleportSpec(2, sch, gate=gate("CNOT"))
    cspec = ControlledSpec(n_controls=2, axis="y", phi=1.0, theta0=2.0, tau=0.7)
    s = np.linspace(0.0, 1.0, 9)
    for h in (teleport_hamiltonian(spec), cd_teleport(spec, 0.4), controlled_hamiltonian(cspec),
              cd_controlled(cspec)):
        for leaf in _leaves(h):
            form = terms(leaf)
            assert form is not None and terms(leaf) is form  # built once, tables kept on it
            assert_same_operator(form(s), leaf(s))  # a shortcut's: drive plus correction
            c = form.coef(s)  # the Gram form of ||H||^2 and tr H
            m = leaf(s)
            assert np.allclose(np.sum((c @ form.gram) * c, axis=-1),
                               np.sum(np.abs(m) ** 2, axis=(-2, -1)), rtol=1e-14, atol=0)
            assert np.allclose(c @ form.traces, np.trace(m, axis1=-2, axis2=-1), atol=1e-14)
    assert terms(cd_generic(teleport_block_hamiltonian(sch), 0.4, grid=201)) is None
    assert all(terms(leaf) is None for leaf in _leaves(cd_teleport(spec, 0.4, grid=201)))
    assert terms(TimeDepHamiltonian(dim=2, func=lambda s: np.multiply.outer(s, Z))) is None


@pytest.mark.parametrize("family", ["linear", "trig", "exp"])
def test_every_builder_form_is_closed(family):
    # Linear.su2 is worked out from the generators: the teleport drive and
    # closed-form shortcut (4x4, checked on the cubic lattice) and the
    # controlled drive and shortcut branches (2x2, by Cayley-Hamilton)
    sch = make_schedule(family)
    spec = ControlledSpec(n_controls=1, axis=(1.0, -2.0, 0.5), phi=1.3, theta0=2.0, tau=0.7)
    leaves = [*_leaves(teleport_block_hamiltonian(sch)), *_leaves(cd_teleport_block(sch, 0.7)),
              *_leaves(controlled_hamiltonian(spec)), *_leaves(cd_controlled(spec))]
    assert [f.dim for f in leaves] == [4, 4, 2, 2, 2, 2]
    assert all(terms(f).su2 for f in leaves)


def _k(a):
    """k = sqrt(tr A'^2 / 2) of the traceless part A' of each matrix of a stack."""
    d = a.shape[-1]
    a = a - np.trace(a, axis1=-2, axis2=-1)[..., None, None] / d * np.eye(d)
    return np.sqrt(0.5 * np.trace(a @ a, axis1=-2, axis2=-1).real)


@pytest.mark.parametrize("which", ["teleport", "controlled"])
def test_expm_su2_of_coefficients_at_k_zero_small_and_half_turns(which, monkeypatch):
    # the teleport block's shortcut (4x4) and a controlled branch's (2x2),
    # each also with a trace added to every generator: that form has no
    # closed form and steps by eigendecomposition
    if which == "teleport":
        (leaf,) = _leaves(cd_teleport_block(make_schedule("trig"), 0.6))
    else:
        leaf = cd_controlled(ControlledSpec(1, axis="y", phi=1.3, theta0=2.0, tau=0.6)).parts.parts[1]
    form, d = terms(leaf), leaf.dim
    shifted = Linear(form.coef, form.basis + np.arange(1.0, 4.0)[:, None, None] * np.eye(d))
    rng = np.random.default_rng(31)
    for f in (form, shifted):
        c = rng.normal(size=3)
        c /= _k(np.tensordot(c, f.basis, 1))  # k = 1
        t = np.array([1e-9, np.pi - 1e-12, np.pi + 1e-12, 2 * np.pi - 1e-12, 2 * np.pi + 1e-12])
        rows = np.multiply.outer(t, c)
        m = np.tensordot(rows, f.basis, 1)
        assert np.allclose(_k(m), t, rtol=1e-14, atol=0)
        if f is form:
            assert np.array_equal(f.expm_su2(np.zeros((1, 3))), np.eye(d)[None])
            assert np.max(np.abs(f.expm_su2(rows) - expm_hermitian(m, 1.0))) <= 1e-14
        else:
            steps, _ = eigen_route(f.basis, np.zeros((1, 3)), monkeypatch)
            assert np.array_equal(steps, np.eye(d)[None])
            assert_steps_by_eigendecomposition(f, rows, monkeypatch)
        # a 1e300 coefficient over steps of 3e-300: the step scales the
        # exponents before anything is squared, so the step is exp(-3i c.M)
        big = TimeDepHamiltonian(dim=d, func=Linear(
            lambda s, c=c: np.multiply.outer(np.ones_like(s), 1e300 * c), f.basis))
        assert terms(big).su2 == (f is form)
        u, _ = dynamics._cf4_steps(big, slice(0, 2), 2, 6e-300, False)
        assert np.max(np.abs(u - expm_hermitian(np.tensordot(c, f.basis, 1), 3.0))) <= 1e-14
