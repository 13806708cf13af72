import numpy as np
import pytest

from sal.schedules import FAMILIES, make_schedule

# direct evaluation of the exponential interpolant at its midpoint
EXP_AT_HALF = 0.3775406687981455


@pytest.mark.parametrize("family", FAMILIES)
def test_boundary_conditions(family):
    sch = make_schedule(family)
    assert abs(sch.eta_i(0.0) - 1.0) < 1e-15
    assert abs(sch.eta_i(1.0)) < 1e-15
    assert abs(sch.eta_f(0.0)) < 1e-15
    assert abs(sch.eta_f(1.0) - 1.0) < 1e-15


def test_linear_midpoint():
    sch = make_schedule("linear")
    assert sch.eta(0.5) == (0.5, 0.5)


def test_trig_endpoint():
    sch = make_schedule("trig")
    ei, ef = sch.eta(1.0)
    assert abs(ei) < 1e-15 and abs(ef - 1.0) < 1e-15


def test_exp_midpoint_frozen_value():
    sch = make_schedule("exp")
    ei, ef = sch.eta(0.5)
    assert abs(ei - EXP_AT_HALF) < 1e-15
    assert abs(ef - EXP_AT_HALF) < 1e-15


@pytest.mark.parametrize("family", FAMILIES)
def test_derivatives_match_finite_differences(family):
    sch = make_schedule(family)
    eps = 1e-6
    for s in np.linspace(eps, 1.0 - eps, 1000):
        fd_i = (sch.eta_i(s + eps) - sch.eta_i(s - eps)) / (2 * eps)
        fd_f = (sch.eta_f(s + eps) - sch.eta_f(s - eps)) / (2 * eps)
        assert abs(fd_i - sch.deta_i(s)) < 1e-6
        assert abs(fd_f - sch.deta_f(s)) < 1e-6


@pytest.mark.parametrize("family", FAMILIES)
def test_gap_factor_positive(family):
    sch = make_schedule(family)
    chis = [sch.chi(s) for s in np.linspace(0, 1, 1001)]
    assert min(chis) > 0


def test_linear_gap_factor_minimum():
    sch = make_schedule("linear")
    chis = np.array([sch.chi(s) for s in np.linspace(0, 1, 1001)])
    assert abs(chis.min() - 1 / np.sqrt(2)) < 1e-6
    assert abs(np.argmin(chis) / 1000 - 0.5) < 1e-9


def test_complex_step_safety():
    # evaluators must be analytic in s for complex-step differentiation
    sch = make_schedule("trig")
    h = 1e-100
    val = sch.eta_i(0.3 + 1j * h)
    assert abs(val.imag / h - sch.deta_i(0.3)) < 1e-12


def test_unknown_family_rejected():
    for family in ("spline", "exponential"):
        with pytest.raises(ValueError):
            make_schedule(family)


def test_each_family_is_built_once():
    # a Schedule is checked when built; later calls share it
    assert make_schedule("exp") is make_schedule("exp")
    assert make_schedule("linear") is not make_schedule("trig")
