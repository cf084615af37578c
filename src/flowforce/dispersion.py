"""Dispersion relation, kernel analysis, and laminar parameter bijections.

The onset speed-squared lambda*_n(k) = (sigma k n + g/(k n)) tanh(n k h)
is the squared laminar surface speed at which mode-n waves bifurcate.
Wavenumber is passed explicitly here (these functions scan over k);
solvers elsewhere read the wavenumber from PhysicalParams.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import KernelNotSimple
from .params import PhysicalParams

__all__ = [
    "DispersionRow",
    "KernelReport",
    "onset_speed_sq",
    "kernel_is_simple",
    "monotone_dispersion",
    "transversality_value",
    "physical_constants",
    "solver_parameters",
    "dispersion_table",
]

@dataclass(frozen=True)
class KernelReport:
    """Verdict of the exact kernel check (kernel_is_simple) plus the analytic
    criteria monotone_criterion (sigma/(g h^2) > 1/3, see monotone_dispersion)
    and capillary_constant (k^2 sigma / g), reported alongside, never used
    as the verdict.
    """

    simple: bool
    colliding_mode: int | None
    min_relative_gap: float
    monotone_criterion: bool
    monotone_ratio: float
    capillary_constant: float
    tol: float

    def __post_init__(self):
        if not self.simple and self.colliding_mode is None:
            raise ValueError("non-simple verdict requires a colliding mode")


def onset_speed_sq(mode, k, p: PhysicalParams):
    """Speed-squared at which mode-n waves bifurcate from laminar flow.

    Evaluated through the effective wavenumber m = mode*k, so the
    rescaling identity onset(n, k) == onset(1, n*k) holds to the bit.
    """
    mode = int(mode)
    if mode < 1:
        raise ValueError("mode index must be >= 1")
    if not k > 0.0:
        raise ValueError("wavenumber must be positive")
    m = mode * k
    return (p.sigma * m + p.g / m) * math.tanh(m * p.h)


def monotone_dispersion(p: PhysicalParams):
    """Monotonicity criterion sigma/(g h^2) > 1/3, exact but for equality.

    By kernel_is_simple's lemma the onset curve increases strictly iff
    sigma/(g h^2) >= 1/3 (g > 0); g = 0, the capillary limit, is True.
    """
    return p.g == 0.0 or p.sigma / (p.g * p.h**2) > 1.0 / 3.0


def _onset_values(modes, k, p: PhysicalParams):
    """Onset values at float mode numbers, elementwise."""
    m = modes * k
    return (p.sigma * m + p.g / m) * np.tanh(m * p.h)


def _candidate_modes(k, p: PhysicalParams, base):
    """Float modes n >= 2 holding the least gap to base: 2, c - 1 and c, with
    [2, c) the bisected interval where f(n k) < base (kernel_is_simple)."""
    def below(n):
        return _onset_values(np.array([float(n)]), k, p)[0] < base

    # f(n k) falls in n (sigma = 0) or rises from n = 2 on: n = 2 is closest
    if p.sigma == 0.0 or not below(2):
        return np.array([2.0])
    # f(lo k) < base, and f(n k) > base from n = 1 + g/(sigma k^2) on
    lo, hi = 2, max(3, math.ceil(1.0 + p.g / (p.sigma * k * k)))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return np.unique(np.array([2, lo, hi], dtype=float))


def kernel_is_simple(k, p: PhysicalParams, tol=1e-10):
    """Decide exactly whether a mode n >= 2 shares the mode-1 onset value.

    simple iff the least relative gap |f(n k) - f(k)| / f(k) over every
    n >= 2 exceeds tol, f(m) = (sigma m + g/m) tanh(m h).  Lemma: with
    z = m h, B = sigma/(g h^2), S = sinh z cosh z, f' has the sign of
    B - phi(z), phi = (S - z)/(z^2 (S + z)), and phi falls strictly from
    1/3 to 0, as phi' < 0 iff F = sinh^2 z cosh z + z sinh z - 2 z^2 cosh z
    = sum_j c_j z^(2j)/(2j)! > 0, c_j = (9^j - 1)/4 - 8 j^2 + 6 j (0 for
    j = 1, 2, then positive).  So f falls then rises, or is monotone, and
    {n >= 2 : f(n k) < f(k)} is an interval [2, c), c <= 1 + g/(sigma k^2)
    by f(n k)/f(k) > n/(1 + g/(sigma k^2)): one bisection finds c.
    """
    base = onset_speed_sq(1, k, p)
    modes = _candidate_modes(k, p, base)
    gaps = np.abs(_onset_values(modes, k, p) - base) / base
    idx = int(np.argmin(gaps))
    min_gap, mode = float(gaps[idx]), int(modes[idx])
    simple = min_gap > tol
    ratio = math.inf if p.g == 0.0 else p.sigma / (p.g * p.h**2)
    cap = math.inf if p.g == 0.0 else k * k * p.sigma / p.g
    return KernelReport(
        simple=simple,
        colliding_mode=None if simple else mode,
        min_relative_gap=min_gap,
        monotone_criterion=monotone_dispersion(p),
        monotone_ratio=ratio,
        capillary_constant=cap,
        tol=tol,
    )


def _require_simple(report, k):
    """Raise KernelNotSimple, naming the colliding mode, unless report is simple."""
    if not report.simple:
        raise KernelNotSimple(
            f"mode {report.colliding_mode} shares the onset value at "
            f"k = {k} (relative gap {report.min_relative_gap:.3e})"
        )


def transversality_value(k, p: PhysicalParams):
    """Crandall-Rabinowitz crossing value -pi (sigma + g/k^2); always negative,
    since PhysicalParams requires g + sigma > 0."""
    return -math.pi * (p.sigma + p.g / (k * k))


def physical_constants(speed_sq, bernoulli_shift, p: PhysicalParams):
    """(surface flow force S0, Bernoulli constant Q) from solver parameters."""
    s0 = p.h * (speed_sq + p.g * p.h / 2.0)
    q = bernoulli_shift + 2.0 * p.g * p.h + speed_sq
    return s0, q


def solver_parameters(surface_flow_force, bernoulli_const, p: PhysicalParams):
    """Inverse of physical_constants; the round trip is the identity."""
    speed_sq = surface_flow_force / p.h - p.g * p.h / 2.0
    shift = bernoulli_const - 2.0 * p.g * p.h - speed_sq
    return speed_sq, shift


@dataclass(frozen=True)
class DispersionRow:
    """One wavenumber row of the dispersion table."""

    k: float
    onset_speed_sq: float
    surface_flow_force: float
    surface_speed: float
    monotone_ratio: float
    capillary_constant: float
    kernel_simple: bool


def dispersion_table(k_grid, p: PhysicalParams, tol=1e-10):
    """Tabulate the mode-1 onset data over a wavenumber grid, one row per k
    with its fields in the dispersion.csv column order."""
    rows = []
    for k in np.asarray(k_grid, dtype=float).tolist():
        lam = onset_speed_sq(1, k, p)
        s0, _ = physical_constants(lam, 0.0, p)
        report = kernel_is_simple(k, p, tol=tol)
        criteria = (report.monotone_ratio, report.capillary_constant, report.simple)
        rows.append(DispersionRow(k, lam, s0, math.sqrt(lam), *criteria))
    return rows
