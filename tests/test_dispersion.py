"""Onset values, kernel simplicity, and the parameter dictionary.

Frozen values were computed from the closed form
(sigma k + g/k) tanh(kh) and its consequences with independent
association orders before the module existed; the pure-gravity
collision depth comes from a bisection oracle on the mode-1/mode-2 gap.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowforce import (
    PhysicalParams,
    dispersion_table,
    kernel_is_simple,
    monotone_dispersion,
    onset_speed_sq,
    physical_constants,
    solver_parameters,
    transversality_value,
)
from flowforce import dispersion
from conftest import gravity_collision_depth, gravity_gap


def test_onset_frozen_value(water):
    assert onset_speed_sq(1, 10.0, water) == pytest.approx(
        1.3030876008403136, rel=1e-15
    )


def test_surface_flow_force_frozen_value(water):
    lam = onset_speed_sq(1, 10.0, water)
    s0, q = physical_constants(lam, 0.0, water)
    assert s0 == pytest.approx(0.17935876008403137, rel=1e-15)
    assert q == pytest.approx(lam + 2.0 * water.g * water.h, rel=1e-15)


def test_pure_gravity_reduction():
    p = PhysicalParams(g=9.81, sigma=0.0, h=0.3, k=2.0)
    for k in (0.5, 1.0, 2.0, 7.0, 30.0):
        expect = (9.81 / k) * math.tanh(k * 0.3)
        assert onset_speed_sq(1, k, p) == pytest.approx(expect, rel=1e-14)


def test_pure_capillary_reduction():
    p = PhysicalParams(g=0.0, sigma=0.073, h=0.3, k=2.0)
    for k in (0.5, 1.0, 2.0, 7.0, 30.0):
        expect = 0.073 * k * math.tanh(k * 0.3)
        assert onset_speed_sq(1, k, p) == pytest.approx(expect, rel=1e-14)


def test_mode_rescaling_identity(water):
    """onset(n, k) equals onset(1, n k) to rounding for n up to 50."""
    for n in range(1, 51):
        a = onset_speed_sq(n, water.k, water)
        b = onset_speed_sq(1, n * water.k, water)
        assert abs(a - b) <= 1e-14 * abs(b)
        # the mode-n side with its own association order, so the check
        # is a consistency audit rather than a tautology
        direct = (water.sigma * water.k * n + water.g / (water.k * n)) * math.tanh(
            n * water.k * water.h
        )
        assert abs(b - direct) <= 1e-14 * abs(b)


def test_monotone_criterion(water):
    assert monotone_dispersion(water)
    assert not monotone_dispersion(PhysicalParams(g=9.81, sigma=0.0, h=0.1, k=1.0))
    boundary = PhysicalParams(g=9.0, sigma=3.0 * 0.1**2, h=0.1, k=1.0)
    assert not monotone_dispersion(boundary)
    assert monotone_dispersion(PhysicalParams(g=0.0, sigma=0.05, h=0.1, k=1.0))


def test_kernel_simple_for_water_grid(water):
    for k in np.linspace(1.0, 100.0, 100):
        report = kernel_is_simple(float(k), water)
        assert report.simple
        assert report.colliding_mode is None
        assert report.min_relative_gap > report.tol
        assert report.monotone_criterion


def test_kernel_report_criteria_fields(water):
    report = kernel_is_simple(10.0, water)
    assert report.monotone_ratio == pytest.approx(
        water.sigma / (water.g * water.h**2), rel=1e-15
    )
    assert report.capillary_constant == pytest.approx(
        100.0 * water.sigma / water.g, rel=1e-15
    )
    assert report.tol == 1e-10


def test_gravity_collision_depth_frozen():
    kh = gravity_collision_depth(1e-8)
    assert kh == pytest.approx(0.00010000000073503605, rel=1e-9)
    assert gravity_gap(0.5 * kh) == pytest.approx(2.499999838192655e-09, rel=1e-6)


def test_constructed_gravity_collision_detected(gravity_collision):
    p, tol = gravity_collision
    report = kernel_is_simple(p.k, p, tol=tol)
    assert not report.simple
    assert report.colliding_mode == 2
    assert report.min_relative_gap < tol


def test_collision_case_is_simple_at_relaxed_depth(gravity_collision):
    p, tol = gravity_collision
    deeper = p.replace(h=100.0 * p.h)
    assert kernel_is_simple(p.k, deeper, tol=tol).simple


def _brute_least_gap(k, p, n_top):
    """(least relative onset gap, its mode) over modes 2..n_top, by plain
    numpy scans in chunks."""
    base = onset_speed_sq(1, k, p)
    best = (math.inf, None)
    for start in range(2, n_top + 1, 2**18):
        modes = np.arange(start, min(start + 2**18, n_top + 1), dtype=float)
        m = modes * k
        gaps = np.abs((p.sigma * m + p.g / m) * np.tanh(m * p.h) - base) / base
        i = int(np.argmin(gaps))
        if gaps[i] < best[0]:
            best = (float(gaps[i]), int(modes[i]))
    return best


def _n_star(k, p, tol):
    """Modes above n* = ceil((1 + g/(sigma k^2))(1 + tol)) have onset
    values above (1 + tol) f(k), since f(n k)/f(k) > n/(1 + g/(sigma k^2));
    with sigma = 0 the onset values decrease in n, so a cap of 10^4 modes
    checks that."""
    if p.sigma == 0.0:
        return 10**4
    return math.ceil((1.0 + p.g / (p.sigma * k * k)) * (1.0 + tol))


def _assert_matches_brute_scan(k, p, tol):
    gap, mode = _brute_least_gap(k, p, _n_star(k, p, tol))
    report = kernel_is_simple(k, p, tol=tol)
    assert report.simple == (gap > tol)
    assert abs(report.min_relative_gap - gap) <= 4 * np.finfo(float).eps
    assert report.colliding_mode == (None if report.simple else mode)
    # the closest mode itself, reported once the tolerance admits its gap
    assert kernel_is_simple(k, p, tol=2.0 * gap + 1e-300).colliding_mode == mode
    return report, mode


_SEA = dict(g=9.81, sigma=0.073)


@pytest.mark.parametrize(
    "params, tol, simple, gap, mode",
    [
        (PhysicalParams(h=100.0, k=0.01, **_SEA), 1e-10, True, 1.948e-7, 1023457),
        (PhysicalParams(h=1000.0, k=0.01, **_SEA), 1e-10, True, 2.895e-7, 1343836),
        # f(k) = f(2000 k) has a root here: mode 2000 collides to rounding
        (PhysicalParams(h=100.0, k=0.2592137743676400, **_SEA), 1e-10, False, None, 2000),
        (None, None, False, None, 2),
        # sigma/(g h^2) = 0.3 < 1/3: f dips and climbs back past f(k)
        # between modes 13 and 14, the bracket the bisection ends on
        (PhysicalParams(g=9.81, sigma=2.943, h=1.0, k=0.1), 1e-10, True, 7.342e-4, 13),
    ],
    ids=["ocean", "deep-ocean", "mode-2000", "gravity-collision", "shallow-dip"],
)
def test_kernel_check_exact_on_named_cases(
    gravity_collision, params, tol, simple, gap, mode
):
    if params is None:
        params, tol = gravity_collision
    report, closest = _assert_matches_brute_scan(params.k, params, tol)
    assert report.simple is simple
    assert closest == mode
    if gap is not None:
        assert report.min_relative_gap == pytest.approx(gap, rel=1e-3)
    else:
        assert report.min_relative_gap <= tol


@settings(max_examples=200, deadline=None)
@given(
    sigma=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
    ratio=st.one_of(st.just(0.0), st.floats(1e-3, 1.8e5)),
    h=st.floats(1e-3, 1e3),
    k=st.floats(1e-2, 1e2),
)
def test_kernel_check_matches_brute_scan(sigma, ratio, h, k):
    # ratio = g/(sigma k^2), so n* <= 2e5; pure gravity draws g = 1 + ratio
    g = ratio * sigma * k * k if sigma > 0.0 else 1.0 + ratio
    p = PhysicalParams(g=g, sigma=sigma, h=h, k=k)
    _assert_matches_brute_scan(k, p, 1e-10)


def test_kernel_check_memory_bounded_at_tiny_surface_tension():
    # sqrt(g/sigma)/k = 3.1e6 modes lie below the increasing tail
    p = PhysicalParams(g=9.81, sigma=1e-12, h=100.0, k=1.0)
    tracemalloc.start()
    try:
        report = kernel_is_simple(p.k, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    # neighbouring tail modes differ by about sigma k^2/g = 1e-13 relative
    assert not report.simple


@pytest.mark.parametrize("k, h", [(0.1, 100.0), (1e-4, 1e5)])
def test_kernel_check_work_bounded_at_tiny_surface_tension(monkeypatch, k, h):
    # g/(sigma k^2) = 9.8e14 at k = 0.1 (54 onset values at most), where the
    # block scan took 3.1e7; at k = 1e-4 the crossing mode, 9.8e20, exceeds
    # numpy's integer range
    p = PhysicalParams(g=9.81, sigma=1e-12, h=h, k=k)
    sizes = []
    onset_values = dispersion._onset_values

    def counted(modes, *args):
        sizes.append(np.size(modes))
        return onset_values(modes, *args)

    monkeypatch.setattr(dispersion, "_onset_values", counted)
    report = kernel_is_simple(p.k, p)
    ratio = p.g / (p.sigma * p.k**2)
    assert sum(sizes) <= 4 + math.ceil(math.log2(1.0 + ratio))
    assert not report.simple
    # f(n k) ~ sigma n k there, and f(k) = sigma k (1 + ratio) tanh(k h)
    expect = (1.0 + ratio) * math.tanh(k * p.h)
    assert report.colliding_mode == pytest.approx(expect, rel=1e-6)


def _taylor_coefficient(j):
    """c_j of F(z) = sinh^2 z cosh z + z sinh z - 2 z^2 cosh z =
    sum_j c_j z^(2j)/(2j)!, from sinh^2 z cosh z = (cosh 3z - cosh z)/4."""
    assert (9**j - 1) % 4 == 0
    return (9**j - 1) // 4 - 8 * j * j + 6 * j


def test_onset_curve_lemma_taylor_coefficients():
    coeffs = [_taylor_coefficient(j) for j in range(1, 41)]
    assert coeffs[:5] == [0, 0, 128, 1536, 14592]
    assert all(c > 0 for c in coeffs[2:])
    # the series sums to F, so F > 0 for z > 0
    for z in (0.5, 1.0, 2.0, 4.0):
        sh, ch = math.sinh(z), math.cosh(z)
        closed = sh * sh * ch + z * sh - 2 * z * z * ch
        series = sum(
            c * z ** (2 * j) / math.factorial(2 * j) for j, c in enumerate(coeffs, 1)
        )
        assert series == pytest.approx(closed, rel=1e-12)


def test_onset_curve_slope_has_the_sign_of_b_minus_phi():
    # f = (B z + 1/z) tanh z in units of g h, z = m h, B = sigma/(g h^2)
    z = np.geomspace(1e-2, 30.0, 400)
    s = np.sinh(z) * np.cosh(z)
    phi = (s - z) / (z * z * (s + z))
    assert np.all(np.diff(phi) < 0.0) and phi[0] < 1.0 / 3.0 and phi[-1] > 0.0
    dz = 1e-5 * z
    for b in (0.0, 1e-3, 0.01, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.5, 10.0):
        f_up = (b * (z + dz) + 1.0 / (z + dz)) * np.tanh(z + dz)
        f_down = (b * (z - dz) + 1.0 / (z - dz)) * np.tanh(z - dz)
        slope = (f_up - f_down) / (2.0 * dz)
        clear = np.abs(b - phi) > 1e-4
        assert np.count_nonzero(clear) > 300
        assert np.array_equal(np.sign(slope[clear]), np.sign(b - phi[clear]))


def test_transversality_frozen_value(water):
    assert transversality_value(10.0, water) == pytest.approx(
        -0.5375265030292136, rel=1e-14
    )


def test_transversality_always_negative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = PhysicalParams(
            g=float(rng.uniform(0.0, 20.0)),
            sigma=float(rng.uniform(0.01, 1.0)),
            h=float(rng.uniform(0.05, 2.0)),
            k=float(rng.uniform(0.5, 50.0)),
        )
        assert transversality_value(p.k, p) < 0.0


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.01, 100.0),
    st.floats(-10.0, 10.0),
)
def test_parameter_dictionary_round_trip(lam, mu):
    p = PhysicalParams(g=9.81, sigma=0.073, h=0.1, k=10.0)
    s0, q = physical_constants(lam, mu, p)
    lam2, mu2 = solver_parameters(s0, q, p)
    assert lam2 == pytest.approx(lam, rel=1e-12, abs=1e-12)
    assert mu2 == pytest.approx(mu, rel=1e-12, abs=1e-12)


def test_dispersion_table_monotone_when_criterion_holds(water):
    rows = dispersion_table(np.linspace(1.0, 100.0, 50), water)
    values = [r.onset_speed_sq for r in rows]
    assert all(b > a for a, b in zip(values, values[1:]))
    for r in rows:
        assert r.surface_speed == pytest.approx(math.sqrt(r.onset_speed_sq))
        assert r.kernel_simple


def test_mode_index_validation(water):
    with pytest.raises(ValueError):
        onset_speed_sq(0, 1.0, water)
    with pytest.raises(ValueError):
        kernel_is_simple(0.0, water)


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(g=0.0, sigma=0.0, h=0.1, k=1.0)
    with pytest.raises(ValueError):
        PhysicalParams(g=9.81, sigma=0.073, h=-0.1, k=1.0)
    with pytest.raises(ValueError):
        PhysicalParams(g=9.81, sigma=0.073, h=0.1, k=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(g=-1.0, sigma=0.073, h=0.1, k=1.0)
