"""Dispersion relation, kernel analysis, and laminar parameter bijections.

The onset speed-squared lambda*_n(k) = (sigma k n + g/(k n)) tanh(n k h)
is the squared laminar surface speed at which mode-n waves bifurcate.
Wavenumber is passed explicitly here (these functions scan over k);
solvers elsewhere read the wavenumber from PhysicalParams.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParameters
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
    """Verdict of the kernel-simplicity scan plus the analytic criteria.

    simple is decided by the brute-force scan over modes 2..scan_limit;
    monotone_criterion (sigma/(g h^2) > 1/3) and capillary_constant
    (k^2 sigma / g) are reported alongside, never used as the verdict.
    """

    simple: bool
    colliding_mode: int | None
    min_relative_gap: float
    monotone_criterion: bool
    monotone_ratio: float
    capillary_constant: float
    scan_limit: int
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
    """Sufficient monotonicity criterion sigma/(g h^2) > 1/3 (strict).

    g = 0 is the capillary limit where the dispersion curve is strictly
    increasing anyway; reported True.
    """
    if p.g == 0.0:
        return True
    return p.sigma / (p.g * p.h**2) > 1.0 / 3.0


def kernel_is_simple(k, p: PhysicalParams, n_max=1000, tol=1e-10):
    """Scan modes 2..n_max for a collision with the mode-1 onset value.

    simple iff min_n |onset_n - onset_1| > tol * onset_1.
    """
    n_max = int(n_max)
    if n_max < 2:
        raise ValueError("scan limit must be >= 2")
    base = onset_speed_sq(1, k, p)
    modes = np.arange(2, n_max + 1, dtype=float)
    m = modes * k
    values = (p.sigma * m + p.g / m) * np.tanh(m * p.h)
    gaps = np.abs(values - base) / base
    idx = int(np.argmin(gaps))
    min_gap = float(gaps[idx])
    simple = min_gap > tol
    ratio = math.inf if p.g == 0.0 else p.sigma / (p.g * p.h**2)
    cap = math.inf if p.g == 0.0 else k * k * p.sigma / p.g
    return KernelReport(
        simple=simple,
        colliding_mode=None if simple else int(modes[idx]),
        min_relative_gap=min_gap,
        monotone_criterion=monotone_dispersion(p),
        monotone_ratio=ratio,
        capillary_constant=cap,
        scan_limit=n_max,
        tol=tol,
    )


def transversality_value(k, p: PhysicalParams):
    """Crandall-Rabinowitz crossing value -pi (sigma + g/k^2); always negative."""
    if p.g == 0.0 and p.sigma == 0.0:
        raise DegenerateParameters("transversality undefined for g = sigma = 0")
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


def dispersion_table(k_grid, p: PhysicalParams, n_max=1000, tol=1e-10):
    """Tabulate the mode-1 onset data over a wavenumber grid."""
    rows = []
    for k in np.asarray(k_grid, dtype=float):
        k = float(k)
        if not k > 0.0:
            raise ValueError("wavenumber grid must be positive")
        lam = onset_speed_sq(1, k, p)
        s0, _ = physical_constants(lam, 0.0, p)
        report = kernel_is_simple(k, p, n_max=n_max, tol=tol)
        rows.append(
            DispersionRow(
                k=k,
                onset_speed_sq=lam,
                surface_flow_force=s0,
                surface_speed=math.sqrt(lam),
                monotone_ratio=report.monotone_ratio,
                capillary_constant=report.capillary_constant,
                kernel_simple=report.simple,
            )
        )
    return rows
