"""Each cost, and each coefficient row of the teleport shortcut, reads the
schedule once: one ``Schedule.eta`` and one ``Schedule.deta`` call, with the
same bits as the per-quantity reads they replace."""

from collections import Counter

import numpy as np
import pytest

from sal.cli import main
from sal.counterdiabatic import cd_teleport, cd_teleport_block
from sal.dynamics import _GAUSS, _leaves
from sal.hamiltonians import TeleportSpec, terms
from sal.metrics import _GL_NODES, _GL_WEIGHTS, energy_cost, teleport_cost, teleport_sigma_sing
from sal.schedules import FAMILIES, Schedule, make_schedule

TAUS = [None, np.inf, 1e-300, 0.01, 0.5, 1e4, 1e300]


@pytest.fixture
def reads(monkeypatch) -> Counter:
    """Calls of ``Schedule.eta`` and ``Schedule.deta``, by name, once every
    family is built (``make_schedule`` checks each schedule as it builds it)."""
    for family in FAMILIES:
        make_schedule(family)
    counts = Counter()
    for name in ("eta", "deta"):
        def counted(self, s, name=name, read=getattr(Schedule, name)):
            counts[name] += 1
            return read(self, s)
        monkeypatch.setattr(Schedule, name, counted)
    return counts


def chi_and_rate(sch: Schedule, s):
    """The gap factor and angle rate, written as ``Schedule.chi`` and
    ``Schedule.angle_rate`` computed them, each from its own reads."""
    ei, ef = sch.eta(s)
    chi = np.sqrt(ei * ei + ef * ef)
    (ei, ef), (di, df) = sch.eta(s), sch.deta(s)
    return chi, (ei * df - ef * di) / (ei * ei + ef * ef)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_a_shortcut_cost_reads_the_schedule_once(reads, family, n):
    energy_cost(cd_teleport(TeleportSpec(n, make_schedule(family)), 0.5))
    assert reads == {"eta": 1, "deta": 1}


@pytest.mark.parametrize("family", FAMILIES)
def test_the_closed_form_reads_the_schedule_once_for_every_runtime(reads, family):
    costs = teleport_cost(make_schedule(family), [None, 0.5, 5], 2)
    assert reads == {"eta": 1, "deta": 1} and costs.shape == (3,)


def test_a_warm_cost_sweep_reads_each_family_twice(reads, capsys):
    argv = ["cost-sweep", "--protocol", "teleport", "--schedules", "linear,trig,exp",
            "--n-list", "1", "--tau-list", "0.5"]
    assert main(argv) == 0
    reads.clear()
    assert main(argv) == 0
    # per family one closed form over (None, 0.5) and one quadrature
    assert reads == {"eta": 6, "deta": 6}
    capsys.readouterr()


@pytest.mark.parametrize("grid", [101, 501, 2001])
@pytest.mark.parametrize("family", FAMILIES)
def test_the_batched_closed_form_keeps_every_bit(family, grid):
    # one read at the 32 Gauss-Legendre nodes serves every runtime, and the
    # grid, checked but not read, moves no bit
    sch = make_schedule(family)
    chi, rate = chi_and_rate(sch, _GL_NODES)
    want = [2.0 * float(_GL_WEIGHTS @ np.hypot(2.0 * np.real(chi),
                                               0.0 if tau is None else rate / tau))
            for tau in TAUS]
    got = teleport_sigma_sing(sch, TAUS, grid)
    assert got.tobytes() == np.array(want).tobytes()
    assert [teleport_sigma_sing(sch, tau, grid) for tau in TAUS] == list(got)


@pytest.mark.parametrize("tau", [1e-300, 0.5, 1e300])
@pytest.mark.parametrize("family", FAMILIES)
def test_the_fused_block_coefficients_keep_every_bit(family, tau):
    # the block shortcut's one form against the drive's and the correction's
    # coefficients concatenated, on the cost grid and at CF4 Gauss nodes
    sch = make_schedule(family)
    (leaf,) = _leaves(cd_teleport_block(sch, tau))
    form = terms(leaf)
    mid = np.arange(64) + 0.5
    for s in (np.linspace(0.0, 1.0, 2001), np.concatenate([mid - _GAUSS, mid + _GAUSS]) / 64):
        want = np.concatenate([np.stack(sch.eta(s), -1), chi_and_rate(sch, s)[1][:, None] / tau],
                              -1)
        assert form.coef(s).tobytes() == want.tobytes()
        assert leaf.cd.coef(s).tobytes() == want[:, 2:].tobytes()
    assert form.su2 and np.array_equal(form.basis[:2], leaf.base.func.basis)


def test_sector_constants_are_read_only():
    sch = make_schedule("trig")
    (leaf,) = _leaves(cd_teleport_block(sch, 0.5))
    perm = cd_teleport_block(sch, 0.5).parts.g
    for array in (terms(leaf).basis, perm):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
