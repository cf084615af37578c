"""Reconstruction of the flow-force field and its validation audits.

The laminar column has a closed-form quadratic flow force, which pins
the whole pipeline to machine precision; wave cases are checked against
trace conditions, refinement orders, and gauge invariance.
"""

import math

import numpy as np
import pytest

from flowforce import (
    InadmissibleIterate,
    PeriodicFunction,
    PhysicalParams,
    SurfaceCurve,
    SurfaceInversionFailed,
    TrialState,
    conformal_map,
    derivative,
    fields,
    grid_nodes,
    hilbert_strip,
    laminar_flow_force,
    onset_speed_sq,
    physical_constants,
    reconstruct,
    surface_curve,
    trace_branch,
    validate_solution,
)
from flowforce.spectral import (
    _TAYLOR_DEGREE,
    _spectrum,
    _trig_matrices,
    analyze,
    collocation_size,
    cosh_ratio,
    sinh_ratio,
)


@pytest.fixture(scope="module")
def wave_point(water):
    return trace_branch(1e-3, 1, water, n_modes=32).points[0]


@pytest.fixture(scope="module")
def wave_field(water, wave_point):
    return reconstruct(wave_point, water)


def _laminar_state(p, n_modes=8):
    lam = onset_speed_sq(1, p.k, p)
    return TrialState(lam, 0.0, PeriodicFunction.zero(n_modes))


def test_laminar_field_matches_closed_form(water):
    state = _laminar_state(water)
    field = reconstruct(state, water, n_y=64, n_x=128)
    expect = laminar_flow_force(field.v, state.speed_sq, water)
    assert np.max(np.abs(field.flow_force - expect)) < 1e-10
    s0, _ = physical_constants(state.speed_sq, 0.0, water)
    assert field.surface_value == pytest.approx(s0, rel=1e-15)


def test_laminar_surface_value_and_slope(water):
    lam = onset_speed_sq(1, water.k, water)
    s0, _ = physical_constants(lam, 0.0, water)
    h = water.h
    assert laminar_flow_force(h, lam, water) == pytest.approx(s0, rel=1e-14)
    assert laminar_flow_force(0.0, lam, water) == 0.0
    # central difference is exact for a quadratic
    step = 1e-4
    slope = (
        laminar_flow_force(h + step, lam, water)
        - laminar_flow_force(h - step, lam, water)
    ) / (2.0 * step)
    assert slope == pytest.approx(lam, rel=1e-9)


def test_wave_traces(water, wave_point, wave_field):
    s0, _ = physical_constants(
        wave_point.speed_sq, wave_point.bernoulli_shift, water
    )
    scale = max(1.0, abs(s0))
    assert wave_field.surface_value == pytest.approx(s0, rel=1e-15)
    top = wave_field.flow_force[-1]
    assert np.max(np.abs(top - s0)) < 1e-10 * scale
    assert np.max(np.abs(wave_field.flow_force[0])) < 1e-10 * scale
    assert np.max(np.abs(wave_field.harmonic_potential[0])) < 1e-12


def test_conformal_map_boundary_rows(water, wave_point):
    w = wave_point.elevation
    u, v = conformal_map(w, water, n_y=16)
    x = grid_nodes(u.shape[1])
    surface = water.h + w.eval_at(x)
    assert np.max(np.abs(v[-1] - surface)) < 1e-12
    assert np.all(v[0] == 0.0)
    conj = hilbert_strip(w, water.strip_depth).eval_at(x)
    expect_u = x / water.k + conj
    assert np.max(np.abs(u[-1] - expect_u)) < 1e-12
    assert u.shape == v.shape == (17, x.size)


@pytest.mark.parametrize("n_x", [None, 33])
def test_field_grids_are_read_only_arrays(water, wave_point, n_x):
    field = reconstruct(wave_point, water, n_y=16, n_x=n_x)
    width = collocation_size(wave_point.elevation.n_modes) if n_x is None else n_x
    for name in ("u", "v", "harmonic_potential", "raw_force", "flow_force"):
        grid = getattr(field, name)
        assert type(grid) is np.ndarray and grid.dtype == np.float64, name
        assert grid.shape == (17, width), name
        assert grid.flags.c_contiguous and not grid.flags.writeable, name


def test_surface_curve_inversion_round_trip(water, wave_point):
    curve = surface_curve(wave_point.elevation, water)
    x = grid_nodes(96)
    targets = curve.profile(x)[0]
    back = curve.invert(targets)
    assert back.shape == x.shape
    assert np.max(np.abs(back - x)) < 1e-11
    # strictly increasing abscissa over the period
    assert np.all(np.diff(targets) > 0.0)


@pytest.mark.parametrize("n_x", [None, 33])
def test_surface_abscissa_mirrors_across_pi(water, wave_point, n_x):
    # the abscissa of an even elevation is odd about x = pi, so the inverted
    # half of the grid gives the other half; the mirror must still invert u
    field = reconstruct(wave_point, water, n_y=16, n_x=n_x)
    x_s, u = field.surface_abscissa, field.u
    n_x = u.shape[1]
    j = np.arange(1, n_x - n_x // 2)
    assert np.array_equal(x_s[:, n_x - j], 2.0 * np.pi - x_s[:, j])
    curve = surface_curve(wave_point.elevation, water)
    defect = np.abs(curve.profile(x_s)[0] - u)
    assert np.all(defect <= 1e-13 * np.maximum(1.0, np.abs(u)))
    heights = field.surface_height
    assert np.array_equal(heights[:, n_x - j], heights[:, j])


def test_surface_curve_rejects_bed_contact(water):
    w = PeriodicFunction.harmonic(1, 0.15, n_modes=8, kind="cos")
    with pytest.raises(InadmissibleIterate):
        surface_curve(w, water)


def test_correction_strength_laminar_under_pressure():
    p = PhysicalParams(g=9.81, sigma=0.073, h=0.1, k=10.0, p_atm=101325.0)
    state = _laminar_state(p)
    field = reconstruct(state, p, n_y=8)
    x = grid_nodes(32)
    expect = -p.p_atm * p.h
    got = field.correction.eval_at(x)
    assert np.max(np.abs(got - expect)) < 1e-9 * abs(expect)


def test_correction_strength_matches_surface_geometry(water, wave_point):
    p = water.replace(p_atm=101325.0)
    field = reconstruct(wave_point, p)
    w = wave_point.elevation
    x = grid_nodes(128)
    _, height = surface_curve(w, p).profile(x)
    abscissa_slope = 1.0 / p.k + hilbert_strip(derivative(w), p.strip_depth).eval_at(x)
    eta_slope = derivative(w).eval_at(x) / abscissa_slope
    direct = (
        -p.p_atm * height
        - p.sigma / np.sqrt(1.0 + eta_slope**2)
        + p.sigma
    )
    got = field.correction.eval_at(x)
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert np.max(np.abs(got - direct)) < 1e-10 * scale


def test_audit_operators_match_mode_sums(water, wave_point):
    """The map gradient and the correction curvature, built from the strip
    extensions and derivative, equal the per-mode sums bit for bit."""
    w = wave_point.elevation
    n = w.n_modes
    modes = np.arange(1, n + 1)
    na = modes * w.cos_coeffs[1:]
    for n_y, n_x in ((64, 128), (128, 256)):
        y = water.strip_depth * (np.arange(n_y + 1) / n_y - 1.0)
        cos_mat, sin_mat = _trig_matrices(n_x, n)
        vx = -(sinh_ratio(modes, y, water.strip_depth) * na) @ sin_mat
        vy = 1.0 / water.k + (cosh_ratio(modes, y, water.strip_depth) * na) @ cos_mat
        assert np.array_equal(fields._map_gradient_sq(w, water, n_y, n_x), vx**2 + vy**2)
    tension, m, v_s, dnv = fields._correction_strength(w, water)
    cos_mat, sin_mat = _trig_matrices(m, n)
    quotient = tension.samples(m) / v_s
    for _ in range(2):
        a, b = _spectrum(quotient[None, :])
        slope = 0.0 + (modes * b[0, :n]) @ cos_mat - (modes * a[0, 1 : n + 1]) @ sin_mat
        quotient = slope / dnv
    expect = analyze(quotient).truncated(n)
    assert np.array_equal(fields._correction_curvature(w, water).cos_coeffs, expect.cos_coeffs)


def test_validate_wave_solution(water, wave_point, wave_field):
    report = validate_solution(wave_field, wave_point, water)
    assert report.passed, report.failures
    assert report.failures == ()
    assert 3.0 <= report.harmonic_ratio <= 5.0
    assert report.harmonic_order >= 1.0
    assert report.force_balance_order >= 1.0
    assert report.residual_sup < 1e-9
    assert report.gauge_defect < 1e-9
    assert report.admissibility.passed


def test_validate_laminar_solution(water):
    state = _laminar_state(water)
    field = reconstruct(state, water, n_y=16, n_x=64)
    report = validate_solution(field, state, water)
    assert report.passed, report.failures
    # the laminar defects sit below the audit floor on every grid
    assert math.isinf(report.harmonic_order)
    assert math.isinf(report.force_balance_order)


def test_field_gauge_invariance(water, wave_point, wave_field):
    # p_atm enters zeta and xi only as p_atm*v, added after S is formed
    gauged = reconstruct(wave_point, water.replace(p_atm=101325.0))
    assert np.array_equal(gauged.flow_force, wave_field.flow_force)


def test_tampered_profile_fails_validation(water, wave_point):
    coeffs = np.array(wave_point.elevation.cos_coeffs)
    coeffs[2] += 1e-3
    bad = TrialState(
        wave_point.speed_sq,
        wave_point.bernoulli_shift,
        PeriodicFunction.from_cosines(coeffs),
    )
    field = reconstruct(bad, water)
    report = validate_solution(field, bad, water)
    assert not report.passed
    assert "surface equation residual above tolerance" in report.failures


def test_validation_needs_vertical_resolution(water, wave_point):
    field = reconstruct(wave_point, water, n_y=4)
    with pytest.raises(ValueError):
        validate_solution(field, wave_point, water)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_validated_point_inverts_each_grid_once(water, wave_point, monkeypatch):
    # the caller's reconstruction inverts the base grid; validation inverts
    # only the doubled grid and assembles two fields, the doubled-grid one
    # and the gauge-shifted one on the input geometry, without calling
    # reconstruct; its five harmonic extensions are the doubled grid's map
    # and potential, the shifted potential and the two map gradients.  Its
    # verdict on admissibility comes from the residual it evaluates, so the
    # only check_admissibility call is the reconstruction's surface_curve
    inverts = _count_calls(monkeypatch, SurfaceCurve, "invert")
    rebuilds = _count_calls(monkeypatch, fields, "reconstruct")
    checks = _count_calls(monkeypatch, fields, "check_admissibility")
    field = fields.reconstruct(wave_point, water, n_y=16)
    assemblies = _count_calls(monkeypatch, fields, "_assemble")
    extensions = _count_calls(monkeypatch, fields, "harmonic_extension")
    report = validate_solution(field, wave_point, water)
    assert report.passed, report.failures
    assert report.admissibility.passed
    assert len(inverts) == 2
    assert len(rebuilds) == 1
    assert len(checks) == 1
    assert len(assemblies) == 2
    assert len(extensions) == 5


def test_inversion_sums_slope_only_before_a_step(water, wave_point, monkeypatch):
    # each Newton pass sums the conjugate on one point setup; the slope
    # conjugate only when a step follows, so not on the converged pass.
    # A curve that never inverts (the profile writer's) never builds it
    transforms = _count_calls(monkeypatch, fields, "hilbert_strip")
    curve = SurfaceCurve(wave_point.elevation, water)
    curve.profile(grid_nodes(16))
    assert len(transforms) == 1
    passes = _count_calls(monkeypatch, fields, "_eval_points")
    sums = _count_calls(monkeypatch, fields, "_eval_sums")
    x = np.linspace(-1.0, 7.0, 41)
    x_s = curve.invert(curve.profile(x)[0], x0=x + 0.1)
    assert np.max(np.abs(x_s - x)) < 1e-12
    assert len(transforms) == 2
    assert len(passes) >= 2
    assert len(sums) == 2 * len(passes) - 1


def test_validated_point_evaluates_elevation_once_per_grid(
    water, wave_point, monkeypatch
):
    # depth + w(x_s) is free of p_atm and of the speed: each grid's geometry
    # synthesizes w's node expansion once, for the inverted half of its
    # columns, and every field assembled on that geometry reads it
    w = wave_point.elevation
    shapes = []
    original = fields._node_taylor

    def counted(f, m):
        coeffs = original(f, m)
        if np.array_equal(f.cos_coeffs, w.cos_coeffs):
            shapes.append(coeffs.shape)
        return coeffs

    monkeypatch.setattr(fields, "_node_taylor", counted)
    evaluations = _count_calls(monkeypatch, PeriodicFunction, "eval_at")
    field = reconstruct(wave_point, water, n_y=16)
    validate_solution(field, wave_point, water)
    n_x = field.u.shape[1]
    rows = _TAYLOR_DEGREE + 1
    assert shapes == [(rows, n_x // 2 + 1), (rows, n_x + 1)]
    assert evaluations == []


def _half_values(f, x_s):
    """f.eval_at on columns 0..n_x//2 of x_s, unfolded: the summation path."""
    return fields._unfold(f.eval_at(x_s[:, : x_s.shape[1] // 2 + 1]), x_s.shape[1])


def _node_reach(x_s):
    """max |x_s - x_j| over columns 0..n_x//2, x_j the column's node."""
    half = x_s.shape[1] // 2 + 1
    return float(np.max(np.abs(x_s[:, :half] - grid_nodes(x_s.shape[1])[:half])))


def _audited_series(w, p):
    """The even series the audit evaluates at x_s: the elevation, the
    tension strength and the curvature."""
    return [w, fields._correction_strength(w, p)[0], fields._correction_curvature(w, p)]


def test_node_expansion_agrees_with_summation(water, wave_point):
    # on both grids of the fixture wave, the expansion path is taken and
    # agrees with eval_at to 4 ulps of the coefficient sum
    w = wave_point.elevation
    curve = SurfaceCurve(w, water)
    for n_y, n_x in ((16, None), (32, 2 * fields.collocation_size(w.n_modes))):
        x_s = fields._geometry(curve, n_y, n_x)[2]
        reach = _node_reach(x_s)
        for f in _audited_series(w, water):
            assert fields._taylor_fits(f, reach)
            scale = abs(f.cos_coeffs[0]) + float(np.sum(np.abs(f.cos_coeffs[1:])))
            err = np.max(np.abs(fields._even_at(f, x_s) - _half_values(f, x_s)))
            assert err <= 4.0 * 2.0**-52 * scale


def test_node_expansion_falls_back_to_summation(water, wave_point):
    # where the remainder bound fails, _even_at is eval_at bit for bit:
    # offsets of 0.5 rad from the nodes, and the tension strength and the
    # curvature of an N = 128 wave at ks = 0.04 on its own geometry
    w = wave_point.elevation
    x_s = grid_nodes(64) + np.array([[0.5], [-0.5]])
    assert not fields._taylor_fits(w, 0.5)
    assert np.array_equal(fields._even_at(w, x_s), _half_values(w, x_s))
    steep = trace_branch(4e-3, 1, water, n_modes=128).points[-1].elevation
    x_s = fields._geometry(SurfaceCurve(steep, water), 16, None)[2]
    reach = _node_reach(x_s)
    _, tension, curvature = _audited_series(steep, water)
    for f in (tension, curvature):
        assert not fields._taylor_fits(f, reach)
        assert np.array_equal(fields._even_at(f, x_s), _half_values(f, x_s))


def test_geometry_inverts_in_one_summation_pass(water, wave_point, monkeypatch):
    # the inversion starts from the root of X's node expansion, so invert's
    # first direct summation is its convergence check and no step is taken
    curve = SurfaceCurve(wave_point.elevation, water)
    passes = _count_calls(monkeypatch, fields, "_eval_points")
    transforms = _count_calls(monkeypatch, fields, "hilbert_strip")
    for n_y in (16, 64):
        fields._geometry(curve, n_y, None)
    assert len(passes) == 2
    assert transforms == []


def test_inversion_converges_on_a_steep_wave(water, monkeypatch):
    # an admissible wave whose abscissa slope 1/k + C(w') nearly vanishes,
    # where undamped Newton cycles: the bracketed loop converges in a few
    # passes from the node expansion's root and from the default start k t
    w = PeriodicFunction(np.array([0.0, 0.045444, 0.045444]), np.zeros(2))
    curve = surface_curve(w, water)
    passes = _count_calls(monkeypatch, fields, "_eval_points")
    for n_y in (16, 64):
        passes.clear()
        u, _, x_s, _ = fields._geometry(curve, n_y, None)
        assert len(passes) <= 20
        half = u.shape[1] // 2 + 1
        u, x_s = u[:, :half], x_s[:, :half]
        defect = np.abs(curve.profile(x_s)[0] - u)
        assert np.all(defect <= 1e-13 * np.maximum(1.0, np.abs(u)))
    x = np.linspace(-1.0, 7.0, 2001)
    assert np.max(np.abs(curve.invert(curve.profile(x)[0]) - x)) < 1e-12


def test_steep_branch_audit_inverts_in_one_pass(water, monkeypatch):
    # every geometry of an N = 64 branch to ks = 0.1 starts from its node
    # expansion's root, and that root passes the first convergence check
    branch = trace_branch(1e-2, 8, water, n_modes=64)
    passes = _count_calls(monkeypatch, fields, "_eval_points")
    inverts = _count_calls(monkeypatch, SurfaceCurve, "invert")
    for point in branch.points:
        validate_solution(reconstruct(point, water), point, water)
    assert len(inverts) == 16
    assert len(passes) == 16


def test_inversion_of_nan(water, wave_point):
    # a NaN target never converges and raises; a NaN start is replaced by
    # the bracket's midpoint on the first step
    curve = surface_curve(wave_point.elevation, water)
    with pytest.raises(SurfaceInversionFailed):
        curve.invert([0.1, math.nan])
    t = curve.profile(np.array([0.0, 1.5, 3.0, 4.5, 6.0]))[0]
    expect = curve.invert(t)
    x_s = curve.invert(t, x0=[0.0, math.nan, 3.0, 4.5, 6.0])
    assert np.max(np.abs(x_s - expect)) < 1e-12


def test_validate_under_atmospheric_pressure(water, wave_point, monkeypatch):
    # p_atm != 0 costs no extra inversion: the fields reuse the input and
    # doubled-grid geometries, and the audit sees the same gauge-free flow
    # force, so the same balance as without pressure and no gauge defect
    pressured = water.replace(p_atm=101325.0)
    plain = validate_solution(
        reconstruct(wave_point, water, n_y=16), wave_point, water
    )
    inverts = _count_calls(monkeypatch, SurfaceCurve, "invert")
    report = validate_solution(
        reconstruct(wave_point, pressured, n_y=16), wave_point, pressured
    )
    assert report.passed, report.failures
    assert len(inverts) == 2
    assert report.gauge_defect == 0.0
    assert report.force_balance_coarse == plain.force_balance_coarse
    assert report.force_balance_fine == plain.force_balance_fine


@pytest.mark.parametrize("p_atm", [0.0, 101325.0])
def test_gauge_shifted_field_on_input_geometry(water, wave_point, p_atm):
    # the conformal map and the inverted surface abscissa are free of
    # p_atm, so assembling on the input geometry is a full reconstruction
    p = water.replace(p_atm=p_atm)
    field = reconstruct(wave_point, p, n_y=16)
    gauge = p.replace(p_atm=p.p_atm + 101325.0)
    assembled = fields._assemble(
        wave_point, gauge, field.u, field.v, field.surface_abscissa, field.surface_height
    )
    rebuilt = reconstruct(wave_point, gauge, n_y=16)
    for name in ("u", "v", "harmonic_potential", "raw_force", "flow_force"):
        assert np.array_equal(getattr(assembled, name), getattr(rebuilt, name)), name
    assert np.array_equal(assembled.surface_abscissa, rebuilt.surface_abscissa)
    assert assembled.surface_value == rebuilt.surface_value

