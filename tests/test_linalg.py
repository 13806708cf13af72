import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sal import dynamics
from sal.counterdiabatic import cd_teleport_block
from sal.dynamics import _leaves
from sal.hamiltonians import (I2, X, Y, Z, Linear, TimeDepHamiltonian, teleport_block_hamiltonian,
                              teleport_block_terms, terms)
from sal.linalg import (
    _CHUNK,
    _chain_product,
    _chunks,
    _polished,
    _running_products,
    eigh,
    embed,
    expm_hermitian,
    kron,
    level_clusters,
    normalize,
    simpson,
    state_from_factors,
)
from sal.schedules import make_schedule


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), np.eye(4))


def test_kron_parity_eigenvalues():
    zz = kron(Z, Z)
    e00 = np.zeros(4); e00[0b00] = 1
    e01 = np.zeros(4); e01[0b01] = 1
    assert np.allclose(zz @ e00, e00)
    assert np.allclose(zz @ e01, -e01)


def test_zz_plus_xx_spectrum():
    # 4x4 diagonalization by hand: blocks {00,11} and {01,10} give {0,2} and {0,-2}
    lam, _ = eigh(kron(Z, Z) + kron(X, X))
    assert np.allclose(lam, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_kron_associative():
    # exact equality: integer entries keep every product representable
    rng = np.random.default_rng(0)
    a, b, c = (rng.integers(-9, 10, size=(2, 2)).astype(float) for _ in range(3))
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
    assert np.array_equal(kron(kron(X, Z), X), kron(X, kron(Z, X)))


def test_eigh_sigma_z():
    lam, v = eigh(Z)
    assert np.allclose(lam, [-1.0, 1.0])
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("dim", [2, 17, 64, 256, 512])
def test_eigh_reconstruction(dim):
    rng = np.random.default_rng(dim)
    h = random_hermitian(dim, rng)
    lam, v = eigh(h)
    scale = np.linalg.norm(h)
    assert np.linalg.norm((v * lam) @ v.conj().T - h) <= 1e-9 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-9


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_propagate_zero_hamiltonian():
    psi = normalize(np.array([1.0, 1j]))
    out = expm_hermitian(np.zeros((2, 2)), 0.37) @ psi
    assert np.allclose(out, psi, atol=1e-15)


def test_propagate_sigma_z_quarter_turn():
    # exp(-i sz pi/2) = diag(-i, i): |+> goes to a |-> ray
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    out = expm_hermitian(Z, np.pi / 2) @ plus
    expected = np.array([-1j, 1j]) / np.sqrt(2)
    assert np.allclose(out, expected, atol=1e-14)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    assert abs(abs(np.vdot(minus, out)) - 1.0) < 1e-14


def test_single_step_norm_drift():
    rng = np.random.default_rng(13)
    h = random_hermitian(8, rng)
    psi = normalize(rng.normal(size=8) + 1j * rng.normal(size=8))
    out = expm_hermitian(h, 0.2) @ psi
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_norm_preserved_over_many_steps():
    rng = np.random.default_rng(3)
    h = random_hermitian(8, rng)
    psi = normalize(rng.normal(size=8) + 1j * rng.normal(size=8))
    for _ in range(10_000):
        psi = expm_hermitian(h, 1e-3) @ psi
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-8


def test_expm_hermitian_unitary():
    rng = np.random.default_rng(5)
    h = random_hermitian(16, rng)
    u = expm_hermitian(h, 0.71)
    assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-12


def su2_k(h):
    """k = sqrt(tr A'^2 / 2) of the traceless part A' of each h."""
    d = h.shape[-1]
    a = h - np.trace(h, axis1=-2, axis2=-1)[..., None, None] / d * np.eye(d)
    return np.sqrt(0.5 * np.trace(a @ a, axis1=-2, axis2=-1).real)


def closed_forms():
    """Coefficient forms over X, Y, Z and over B_ini, B_fin, i G
    (G = [B_fin, B_ini] / 4): a Pauli basis and the spin-1 block basis."""
    b_ini, b_fin = teleport_block_terms()
    gen = 1j * (b_fin @ b_ini - b_ini @ b_fin) / 4
    return [Linear(lambda s: s, np.stack(basis)) for basis in ((X, Y, Z), (b_ini, b_fin, gen))]


def closed_forms_with_trace():
    """The ``closed_forms`` with 1 as a fourth generator, so that each has a trace."""
    return [Linear(f.coef, np.concatenate([f.basis, np.eye(f.basis.shape[-1])[None]]))
            for f in closed_forms()]


def eigen_route(basis, rows, monkeypatch):
    """For each coefficient row r, the CF4 step of a leaf held at r over a
    step dt = 1 (``dynamics._cf4_steps``: at a constant H its two exponents
    sum to dt H, so the step is exp(-i r @ basis)) and the leaf's norm
    (``dynamics._leaf_norm``), with ``Linear``'s closed form barred, so both
    can only come from an eigendecomposition."""
    def barred(*_):
        raise AssertionError("a form with a trace took the closed form")

    monkeypatch.setattr(Linear, "expm_su2", barred)
    monkeypatch.setattr(Linear, "su2_norm", barred)
    steps, norms = [], []
    for r in rows:
        leaf = TimeDepHamiltonian(dim=basis.shape[-1], func=Linear(
            lambda s, r=r: np.broadcast_to(r, np.shape(s) + r.shape), basis))
        steps.append(dynamics._cf4_steps(leaf, slice(0, 1), 1, 1.0, False)[0][0])
        norms.append(dynamics._leaf_norm(leaf, np.linspace(0.0, 1.0, 3)))
    return np.array(steps), np.array(norms)


def assert_steps_by_eigendecomposition(form, rows, monkeypatch):
    """A form with a trace has no ``su2``: a leaf of it steps by
    ``expm_hermitian`` and takes its norm from ``eigvalsh``, to 1e-14."""
    assert not form.su2 and np.max(np.abs(form.traces)) > 0.1
    h = np.tensordot(rows, form.basis, 1)
    steps, norms = eigen_route(form.basis, rows, monkeypatch)
    assert np.max(np.abs(steps - expm_hermitian(h, 1.0))) <= 1e-14
    want = np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1)
    assert np.max(np.abs(norms - want) / want) <= 1e-14


def test_expm_su2_matches_expm_hermitian_on_random_stacks(monkeypatch):
    rng = np.random.default_rng(6)
    for form in closed_forms():
        assert form.su2
        c = rng.normal(size=(128, 3))
        h = np.tensordot(c, form.basis, 1)
        for t in (0.01, 0.7, 3.0):
            assert np.max(np.abs(form.expm_su2(t * c) - expm_hermitian(h, t))) <= 1e-14
    for form in closed_forms_with_trace():
        c = rng.normal(size=(128, 4))
        for t in (0.01, 0.7, 3.0):
            assert_steps_by_eigendecomposition(form, t * c, monkeypatch)


def test_expm_su2_at_k_zero_small_and_half_turns(monkeypatch):
    rng = np.random.default_rng(7)
    t = np.array([1e-9, np.pi - 1e-12, np.pi + 1e-12, 2 * np.pi - 1e-12, 2 * np.pi + 1e-12])
    for form in closed_forms():
        d = form.basis.shape[-1]
        assert np.array_equal(form.expm_su2(np.zeros((1, 3))), np.eye(d)[None])
        c = rng.normal(size=3)
        c /= su2_k(np.tensordot(c, form.basis, 1))  # k = 1
        want = expm_hermitian(np.tensordot(c, form.basis, 1), t)
        assert np.max(np.abs(form.expm_su2(np.multiply.outer(t, c)) - want)) <= 1e-14
    for form in closed_forms_with_trace():
        d = form.basis.shape[-1]
        steps, _ = eigen_route(form.basis, np.zeros((1, 4)), monkeypatch)
        assert np.array_equal(steps, np.eye(d)[None])
        c = rng.normal(size=4)
        c /= su2_k(np.tensordot(c, form.basis, 1))  # k = 1 for the traceless part
        assert_steps_by_eigendecomposition(form, np.multiply.outer(t, c), monkeypatch)


@pytest.mark.parametrize("family", ["linear", "trig", "exp"])
@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_parity_block_exponents_obey_the_spin1_identity(family, omega):
    # every real combination of the block's drive or shortcut at two points,
    # as a CF4 exponent is, has K'^3 = k^2 K' for its traceless part K'; at
    # frequency omega both are omega times the unit ones at omega*tau
    sch = make_schedule(family)
    rng = np.random.default_rng(8)
    (shortcut,) = _leaves(cd_teleport_block(sch, omega * 0.3))
    for block in (teleport_block_hamiltonian(sch), shortcut):
        assert terms(block).su2
        s1, s2 = rng.uniform(size=(2, 64))
        w1, w2 = rng.normal(size=(2, 64, 1, 1))
        k_op = omega * (w1 * block(s1) + w2 * block(s2))
        k_op -= np.trace(k_op, axis1=-2, axis2=-1)[..., None, None] / 4 * np.eye(4)
        k2 = su2_k(k_op)[..., None, None] ** 2
        cube = k_op @ k_op @ k_op
        assert np.max(np.abs(cube - k2 * k_op) / np.max(np.abs(cube), axis=(-2, -1),
                                                        keepdims=True)) <= 1e-14


def test_embed_single_qubit():
    assert np.allclose(embed(X, [1], 2), kron(I2, X))
    assert np.allclose(embed(X, [0], 2), kron(X, I2))


def test_embed_permuted_two_qubit():
    rng = np.random.default_rng(11)
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    # acting on (q2, q0) of three qubits == permutation of kron layout
    got = embed(op, [2, 0], 3)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    t = psi.reshape(2, 2, 2)
    # first op index acts on qubit 2, second on qubit 0
    t2 = np.einsum("abcd,dqc->bqa", op.reshape(2, 2, 2, 2), t)
    assert np.allclose(got @ psi, t2.reshape(-1), atol=1e-12)


def test_embed_rejects_bad_qubits():
    with pytest.raises(ValueError):
        embed(X, [0, 0], 2)
    with pytest.raises(ValueError):
        embed(X, [3], 2)


def test_state_from_factors_matches_kron():
    # the outer products equal the np.kron chain bit for bit
    rng = np.random.default_rng(2)
    a = normalize(rng.normal(size=2) + 1j * rng.normal(size=2))
    b = normalize(rng.normal(size=4) + 1j * rng.normal(size=4))
    c = normalize(rng.normal(size=8) + 1j * rng.normal(size=8))
    assert np.array_equal(state_from_factors([(a, [0]), (b, [1, 2])], 3), np.kron(a, b))
    assert np.array_equal(state_from_factors([(b, [0, 1]), (a, [2]), (c, [3, 4, 5])], 6),
                          kron(b[:, None], a[:, None], c[:, None])[:, 0])
    # scrambled placement: factor qubit lists are authoritative
    swapped = state_from_factors([(b, [2, 0]), (a, [1])], 3)
    want = np.einsum("ca,b->abc", b.reshape(2, 2), a).reshape(-1)
    assert np.allclose(swapped, want)
    assert np.array_equal(swapped, np.kron(b, a).reshape(2, 2, 2).transpose(1, 2, 0).reshape(-1))


def test_simpson_exact_for_cubics():
    xs = np.linspace(0.0, 1.0, 101)
    vals = xs**3 - 2 * xs + 1
    assert abs(simpson(vals, xs[1] - xs[0]) - (0.25 - 1 + 1)) < 1e-14


def test_simpson_integrates_each_column():
    xs = np.linspace(0.0, 1.0, 101)
    dx = xs[1] - xs[0]
    cols = np.stack([xs**3, np.cos(xs), np.ones_like(xs)], axis=1)
    got = simpson(cols, dx)
    assert got.shape == (3,)
    assert all(abs(got[j] - simpson(cols[:, j], dx)) <= 1e-15 for j in range(3))
    assert isinstance(simpson(xs, dx), float)
    for bad in (np.zeros((100, 2)), np.zeros(1), np.float64(1.0)):
        with pytest.raises(ValueError):
            simpson(bad, dx)


def test_chunks_cap_the_state_stack():
    def sizes(*args):
        return {c.stop - c.start for c in _chunks(1000, *args)}

    # a single 512-dim state keeps the operator rule's _CHUNK points
    assert sizes(4) == sizes(4, 512) == {_CHUNK, 1000 % _CHUNK}
    # 64 such states: 512 x 64 entries per point, 8 points per chunk
    assert sizes(4, 512 * 64) == {8}
    assert sizes(512, 512) == {1}



def test_level_clusters_share_one_pattern_or_name_where_it_changes():
    s = np.array([0.0, 0.25, 0.5])
    energies = np.array([[-1.0, 0.0, 1e-9, 1.0]] * 3)
    assert level_clusters(s, energies) == (slice(0, 1), slice(1, 3), slice(3, 4))
    energies[2, 2] = 0.5
    with pytest.raises(RuntimeError, match=r"degeneracy pattern changes at s=0\.5000"):
        level_clusters(s, energies)


def step_order_products(u):
    """p[k] = u[k] @ ... @ u[0], one product per step."""
    p = [u[0]]
    for step in u[1:]:
        p.append(step @ p[-1])
    return np.array(p)


def random_unitaries(n, dim, rng):
    return expm_hermitian(np.stack([random_hermitian(dim, rng) for _ in range(n)]), 0.7)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 255, 256, 257])
def test_running_products_scan_matches_step_order(n, dim):
    u = random_unitaries(n, dim, np.random.default_rng(n + dim))
    for stack in (u, np.swapaxes(u, -1, -2)):  # C-ordered, and a transposed view
        assert np.max(np.abs(_running_products(stack) - step_order_products(stack))) <= 1e-14


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 600), dim=st.sampled_from([2, 4]), seed=st.integers(0, 2**32 - 1))
def test_running_products_scan_matches_step_order_at_any_length(n, dim, seed):
    u = random_unitaries(n, dim, np.random.default_rng(seed))
    assert np.max(np.abs(_running_products(u) - step_order_products(u))) <= 1e-14


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 123, 256])
def test_chain_product_is_the_scans_last_element_bitwise(n, dim):
    # a chunk whose inner steps nothing reads takes its total alone, and
    # applies the same bits as the scan would
    u = random_unitaries(n, dim, np.random.default_rng(7 * n + dim))
    assert np.array_equal(_chain_product(u), _running_products(u)[-1:])


def test_step_exponentials_take_one_time_per_matrix():
    # a stack with a time per matrix is, bit for bit, each matrix at its own
    # time: the N/2 steps (2 dt) ride in the stack of the N steps (dt)
    rng = np.random.default_rng(29)
    h = np.stack([random_hermitian(2, rng) for _ in range(6)])
    t = np.array([0.3, 0.3, 0.3, 0.6, 0.6, 0.6])
    both = expm_hermitian(h, t)
    assert all(np.array_equal(both[i], expm_hermitian(h[i : i + 1], t[i])[0]) for i in range(6))


def test_running_products_scan_drifts_off_unitary_no_more_than_step_order():
    # a chunk of 256 4x4 steps: the scan's departure from unitarity is at most
    # twice the step-order product's, and the polish takes it to round-off
    u = random_unitaries(256, 4, np.random.default_rng(19))

    def departure(p):
        return np.max(np.abs(np.swapaxes(p, -1, -2).conj() @ p - np.eye(4)))

    scan = _running_products(u)
    assert departure(scan) <= 2 * departure(step_order_products(u))
    assert departure(_polished(scan)) <= 1e-15
