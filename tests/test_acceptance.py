"""Acceptance gate: one test per shipping criterion, stated tolerances.

Run with -v to get one pass/fail line per criterion.  Criterion 1 has a
strict-xfail companion covering the involution sub-claim, which cannot
hold at finite depth because the strip transform squares to
-coth(n d)^2 per mode rather than -1; the attainable identities are
asserted in the main test.
"""

import math
import time

import numpy as np
import pytest

from flowforce import (
    KernelNotSimple,
    PeriodicFunction,
    PhysicalParams,
    TrialState,
    branch_diagnostics,
    derivative,
    dirichlet_neumann,
    hilbert_strip,
    jacobian_fd,
    kernel_is_simple,
    laminar_flow_force,
    linearization_symbol,
    onset_speed_sq,
    physical_constants,
    reconstruct,
    residual,
    trace_branch,
    transversality_value,
    validate_solution,
)


@pytest.fixture(scope="module")
def timed_branch(water):
    start = time.perf_counter()
    branch = trace_branch(4e-3, 4, water, n_modes=32)
    return branch, time.perf_counter() - start


def test_criterion_01_operator_identities():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(11)
    for d in (0.1, 1.0, 10.0):
        for n in range(1, 33):
            f = PeriodicFunction.harmonic(n, 1.0, n_modes=33, kind="cos")
            got = hilbert_strip(f, d)
            expect = PeriodicFunction.harmonic(
                n, 1.0 / math.tanh(n * d), n_modes=33, kind="sin"
            )
            worst = max(worst, (got - expect).sup_norm())
        const = PeriodicFunction.constant(2.5, n_modes=33)
        flat = dirichlet_neumann(const, d)
        worst = max(
            worst, (flat - PeriodicFunction.constant(2.5 / d, 33)).sup_norm()
        )
        coeffs = np.zeros(33)
        coeffs[1:] = rng.standard_normal(32)
        g = PeriodicFunction.from_cosines(coeffs)
        factored = hilbert_strip(derivative(g), d)
        worst = max(worst, (dirichlet_neumann(g, d) - factored).sup_norm())
    assert worst < 1e-10
    assert time.perf_counter() - start < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="the strip transform squares to -coth(n d)^2 per mode, not -1; "
    "the involution identity only emerges in the infinite-depth limit",
)
def test_criterion_01_involution_subclaim():
    worst = 0.0
    for d in (0.1, 1.0, 10.0):
        for n in range(1, 33):
            f = PeriodicFunction.harmonic(n, 1.0, n_modes=33, kind="cos")
            twice = hilbert_strip(hilbert_strip(f, d), d)
            worst = max(worst, (twice + f).sup_norm())
    assert worst < 1e-10


def test_criterion_02_trivial_state_residual():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    for _ in range(20):
        p = PhysicalParams(
            g=float(rng.uniform(0.5, 15.0)),
            sigma=float(rng.uniform(0.01, 0.5)),
            h=float(rng.uniform(0.05, 1.5)),
            k=float(rng.uniform(0.8, 40.0)),
        )
        lam = float(rng.uniform(0.05, 8.0))
        mu = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 4.0))
        state = TrialState(lam, mu, PeriodicFunction.zero(8))
        res = residual(state, p)
        expect = -mu / p.k**2
        defect = (res - PeriodicFunction.constant(expect, res.n_modes)).sup_norm()
        assert defect < 1e-12 * abs(expect)
    assert time.perf_counter() - start < 1.0


def test_criterion_03_linearization(water):
    start = time.perf_counter()
    n = 8
    lam = 1.3
    state = TrialState(lam, 0.0, PeriodicFunction.zero(n))
    jac = jacobian_fd(state, water)
    expect = np.zeros_like(jac)
    expect[0, 1] = -1.0 / water.k**2
    for m in range(1, n + 1):
        expect[m, 1 + m] = linearization_symbol(lam, m, water)
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(jac - expect)) < 1e-5 * scale
    lam_star = onset_speed_sq(1, water.k, water)
    assert abs(linearization_symbol(lam_star, 1, water)) < 1e-12
    assert time.perf_counter() - start < 5.0


def test_criterion_04_dispersion_reductions():
    gravity = PhysicalParams(g=9.81, sigma=0.0, h=0.25, k=3.0)
    capillary = PhysicalParams(g=0.0, sigma=0.073, h=0.25, k=3.0)
    for k in (0.7, 3.0, 12.0):
        assert onset_speed_sq(1, k, gravity) == pytest.approx(
            (9.81 / k) * math.tanh(0.25 * k), rel=1e-14
        )
        assert onset_speed_sq(1, k, capillary) == pytest.approx(
            0.073 * k * math.tanh(0.25 * k), rel=1e-14
        )
    water = PhysicalParams(g=9.81, sigma=0.073, h=0.1, k=10.0)
    for n in range(1, 51):
        a = onset_speed_sq(n, water.k, water)
        b = onset_speed_sq(1, n * water.k, water)
        assert abs(a - b) <= 1e-14 * abs(b)


def test_criterion_05_kernel_analysis(water, gravity_collision):
    assert water.sigma / (water.g * water.h**2) == pytest.approx(
        0.744, abs=5e-4
    )
    for k in np.linspace(1.0, 100.0, 100):
        assert kernel_is_simple(float(k), water).simple
    p, tol = gravity_collision
    report = kernel_is_simple(p.k, p, tol=tol)
    assert not report.simple
    assert report.colliding_mode == 2


def test_criterion_06_branch_existence(water, timed_branch):
    branch, traced = timed_branch
    start = time.perf_counter()
    assert branch.completed
    points = {pt.amplitude: pt for pt in branch.points}
    for s in (1e-3, 2e-3, 4e-3):
        assert points[s].newton_iters <= 8
        assert points[s].residual_norm < 1e-10
    defects = {
        row["amplitude"]: row["predictor_defect"]
        for row in branch_diagnostics(branch)
    }
    assert defects[1e-3] < 1e-2
    assert defects[1e-3] < defects[2e-3] < defects[4e-3]
    lam_star = branch.onset_speed_sq
    ss = np.array([1e-3, 2e-3, 3e-3])
    lams = np.array([points[s].speed_sq for s in ss])
    x = ss**2
    intercept = sum(
        lams[i]
        * np.prod([x[j] for j in range(3) if j != i])
        / np.prod([x[i] - x[j] for j in range(3) if j != i])
        for i in range(3)
    )
    assert abs(intercept - lam_star) < 1e-6 * lam_star
    assert traced + time.perf_counter() - start < 30.0


def test_criterion_07_wave_shape(timed_branch):
    branch, _ = timed_branch
    rows = branch_diagnostics(branch)
    assert len(rows) == len(branch.points) == 4
    for row in rows:
        assert row["crest_count"] == 1
        assert row["trough_count"] == 1
        assert row["evenness_defect"] == 0.0
        assert row["monotone_profile"]


def test_criterion_08_field_reconstruction(water, timed_branch):
    start = time.perf_counter()
    lam = onset_speed_sq(1, water.k, water)
    laminar = TrialState(lam, 0.0, PeriodicFunction.zero(8))
    field = reconstruct(laminar, water, n_y=64, n_x=128)
    expect = laminar_flow_force(field.v, lam, water)
    assert np.max(np.abs(field.flow_force - expect)) < 1e-10
    branch, _ = timed_branch
    point = branch.points[0]
    assert point.amplitude == 1e-3
    wave = reconstruct(point, water)
    s0, _ = physical_constants(point.speed_sq, point.bernoulli_shift, water)
    assert np.max(np.abs(wave.flow_force[0])) < 1e-10
    assert np.max(np.abs(wave.flow_force[-1] - s0)) < 1e-10
    report = validate_solution(point, water)
    assert report.passed, report.failures
    layer = max(1.0, abs(s0), float(np.max(np.abs(wave.harmonic_potential))))
    assert report.harmonic_defect <= 1e-8 * layer
    assert report.force_balance_fine <= 1e-9 * water.g
    assert time.perf_counter() - start < 30.0


def test_criterion_09_pressure_gauge_invariance(water, timed_branch):
    branch, _ = timed_branch
    point = branch.points[0]
    lam_star = branch.onset_speed_sq
    probe = TrialState(point.speed_sq, 0.1 * lam_star, point.elevation)
    pressured = water.replace(p_atm=101325.0)
    res0 = residual(probe, water)
    res1 = residual(probe, pressured)
    scale = max(1.0, res0.sup_norm())
    assert (res0 - res1).sup_norm() <= 1e-9 * scale
    rep0 = validate_solution(point, water)
    rep1 = validate_solution(point, pressured)
    assert rep0.passed, rep0.failures
    assert rep1.passed, rep1.failures
    pairs = (
        (rep0.residual_sup, rep1.residual_sup),
        (rep0.surface_trace_defect, rep1.surface_trace_defect),
        (rep0.force_balance_fine, rep1.force_balance_fine),
    )
    for d0, d1 in pairs:
        assert abs(d0 - d1) <= 1e-9 * max(1.0, abs(d0))
    assert rep1.audit_rows == rep0.audit_rows
    assert rep1.force_balance_fine <= 1e-9 * pressured.g


def test_criterion_10_transversality_guard(water, gravity_collision):
    for k in np.linspace(1.0, 100.0, 25):
        value = transversality_value(float(k), water)
        assert value < 0.0
        assert value == pytest.approx(
            -math.pi * (water.sigma + water.g / k**2), rel=1e-14
        )
    p, tol = gravity_collision
    assert transversality_value(p.k, p) != 0.0
    with pytest.raises(KernelNotSimple):
        trace_branch(1e-6, 1, p, n_modes=8, scan_tol=tol)
