"""Interpolation schedules eta_i(s), eta_f(s).

Every schedule satisfies eta_i(0) = eta_f(1) = 1 and eta_i(1) = eta_f(0) = 0,
with eta_i^2 + eta_f^2 > 0 everywhere, so the driving Hamiltonian keeps a
finite gap.  Evaluators accept arrays of s.  They also accept complex
arguments, which only the tests' eigenframe derivative uses (complex-step
differentiation needs the interpolants to be analytic in s); the package
itself reads the derivatives from ``deta``.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

import numpy as np

FAMILIES = ("linear", "trig", "exp")

_E = float(np.e)


class Schedule:
    """Interpolation pair with analytic derivatives, checked when built."""

    def __init__(self, family: str, eta_i: Callable[[complex], complex],
                 eta_f: Callable[[complex], complex], deta_i: Callable[[complex], complex],
                 deta_f: Callable[[complex], complex]):
        self.family, self.eta_i, self.eta_f, self.deta_i, self.deta_f = (
            family, eta_i, eta_f, deta_i, deta_f)
        for val, want in ((eta_i(0.0), 1.0), (eta_i(1.0), 0.0),
                          (eta_f(0.0), 0.0), (eta_f(1.0), 1.0)):
            if abs(val - want) > 1e-12:
                raise ValueError(f"schedule {family!r} violates boundary conditions")
        if np.min(np.abs(self.chi(np.linspace(0.0, 1.0, 257)))) <= 0.0:
            raise ValueError(f"schedule {family!r} has a vanishing gap factor")

    def eta(self, s):
        return self.eta_i(s), self.eta_f(s)

    def deta(self, s):
        return self.deta_i(s), self.deta_f(s)

    def polar(self, s):
        """(eta_i, eta_f), the gap factor chi = sqrt(eta_i^2 + eta_f^2) and
        the angle rate a' = d/ds atan2(eta_f, eta_i), from one ``eta`` and
        one ``deta`` read."""
        (ei, ef), (di, df) = self.eta(s), self.deta(s)
        norm2 = ei * ei + ef * ef
        return (ei, ef), np.sqrt(norm2), (ei * df - ef * di) / norm2

    def chi(self, s):
        """Gap factor of ``polar``; the teleport gap is 2 chi."""
        return self.polar(s)[1]


@cache
def make_schedule(family: str) -> Schedule:
    """One of the three interpolation families: linear, trig, exp.  Each is
    built and checked once; later calls share the one Schedule, whose
    fields nothing in the package rebinds."""
    if family == "linear":
        return Schedule(
            "linear",
            eta_i=lambda s: 1.0 - s,
            eta_f=lambda s: s + 0.0,
            deta_i=lambda s: -1.0 + 0.0 * s,
            deta_f=lambda s: 1.0 + 0.0 * s,
        )
    if family == "trig":
        half_pi = np.pi / 2.0
        return Schedule(
            "trig",
            eta_i=lambda s: np.cos(half_pi * s),
            eta_f=lambda s: np.sin(half_pi * s),
            deta_i=lambda s: -half_pi * np.sin(half_pi * s),
            deta_f=lambda s: half_pi * np.cos(half_pi * s),
        )
    if family == "exp":
        den = _E - 1.0
        return Schedule(
            "exp",
            eta_i=lambda s: (np.exp(1.0 - s) - 1.0) / den,
            eta_f=lambda s: (np.exp(s) - 1.0) / den,
            deta_i=lambda s: -np.exp(1.0 - s) / den,
            deta_f=lambda s: np.exp(s) / den,
        )
    raise ValueError(f"unknown schedule family {family!r}; choose from {FAMILIES}")
