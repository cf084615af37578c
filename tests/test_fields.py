"""Reconstruction of the flow-force field and its validation audits.

The laminar column has a closed-form quadratic flow force, which pins
the whole pipeline to machine precision; wave cases are checked against
trace conditions, the spectral audit's absolute bounds, and gauge
invariance.
"""

import dataclasses
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
    residual,
    spectral,
    surface_equation,
    trace_branch,
    validate_solution,
)
from flowforce.spectral import (
    _TAYLOR_DEGREE,
    _trig_matrices,
    analyze,
    chebyshev_rows,
    collocation_size,
    cosh_ratio,
    sinh_ratio,
    strip_rows,
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


def _profile(curve, x):
    """(x/k + C(w)(x), depth + w(x)) of a curve by direct summation: the
    oracle of its abscissa, independent of _surface_abscissa."""
    x = np.asarray(x, dtype=float)
    conj, w = curve._conjugate.eval_at(x), curve.elevation.eval_at(x)
    return x / curve.params.k + conj, curve.params.h + w


def _layers_of(state, p):
    """The layers the audit derives for state: _layers on the samples that
    the residual's admissibility gate records."""
    diag = {}
    residual(TrialState(state.speed_sq, state.bernoulli_shift, state.elevation), p, diag=diag)
    return fields._layers(state, p, diag["samples"])


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


def test_wave_traces(water, wave_point):
    # the audit reads the surface trace on its own Chebyshev rows;
    # reconstruct's uniform rows meet the same bound, on desk water, kh = 20
    # water and under p_atm = 101325.  The bed row, at depth fraction
    # exactly 0, is exactly zero on both grids, so the audit does not
    # measure it
    deep = water.replace(h=2.0)
    for p, point in (
        (water, wave_point),
        (deep, trace_branch(1e-3, 1, deep, n_modes=32).points[0]),
        (water.replace(p_atm=101325.0), wave_point),
    ):
        field = reconstruct(point, p)
        s0, _ = physical_constants(point.speed_sq, point.bernoulli_shift, p)
        scale = max(1.0, abs(s0))
        assert field.surface_value == pytest.approx(s0, rel=1e-15)
        assert np.max(np.abs(field.flow_force[-1] - s0)) < 1e-10 * scale
        curve, layers = SurfaceCurve(point.elevation, p), _layers_of(point, p)
        audited = fields._chebyshev_field(curve, layers, fields._node_taylor)[3]
        for bed in (field, audited):
            assert not np.any(bed.flow_force[0])
            assert not np.any(bed.harmonic_potential[0])


def test_conformal_map_boundary_rows(water, wave_point):
    w = wave_point.elevation
    u, v = conformal_map(w, water, strip_rows(16))
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
    curve = SurfaceCurve(wave_point.elevation, water)
    x = grid_nodes(96)
    targets = _profile(curve, x)[0]
    back = curve.invert(targets)
    assert back.shape == x.shape
    assert np.max(np.abs(back - x)) < 1e-11
    # strictly increasing abscissa over the period
    assert np.all(np.diff(targets) > 0.0)


@pytest.mark.parametrize("n_x", [None, 33])
def test_surface_abscissa_mirrors_across_pi(water, wave_point, n_x):
    # the abscissa of an even elevation is odd about x = pi, so the inverted
    # half of the grid gives the other half; the mirror must still invert u
    curve = SurfaceCurve(wave_point.elevation, water)
    u, _, x_s, heights = fields._geometry(curve, strip_rows(16), n_x, fields._node_taylor)
    n_x = u.shape[1]
    j = np.arange(1, n_x - n_x // 2)
    assert np.array_equal(x_s[:, n_x - j], 2.0 * np.pi - x_s[:, j])
    defect = np.abs(_profile(curve, x_s)[0] - u)
    assert np.all(defect <= 1e-13 * np.maximum(1.0, np.abs(u)))
    assert np.array_equal(heights[:, n_x - j], heights[:, j])


def test_reconstruct_rejects_bed_contact_and_odd_surfaces(water, wave_point):
    # reconstruct gates admissibility on the samples its layers come from,
    # which read only the cosines, so it refuses a sine part first
    w = PeriodicFunction.harmonic(1, 0.15, n_modes=8, kind="cos")
    state = TrialState(onset_speed_sq(1, water.k, water), 0.0, w)
    with pytest.raises(InadmissibleIterate, match="surface touches bed"):
        reconstruct(state, water)
    n = wave_point.elevation.n_modes
    odd = wave_point.elevation + PeriodicFunction.harmonic(2, 1e-6, n_modes=n, kind="sin")
    with pytest.raises(ValueError, match="even"):
        reconstruct(dataclasses.replace(wave_point, elevation=odd), water)


def test_correction_strength_laminar_under_pressure():
    # the tension strength holds no p_atm: flat water has none at any p_atm
    p = PhysicalParams(g=9.81, sigma=0.073, h=0.1, k=10.0, p_atm=101325.0)
    tension = _layers_of(_laminar_state(p), p).tension
    assert np.all(tension.eval_at(grid_nodes(32)) == 0.0)


def test_correction_strength_matches_surface_geometry(water, wave_point):
    p = water.replace(p_atm=101325.0)
    w = wave_point.elevation
    x = grid_nodes(128)
    abscissa_slope = 1.0 / p.k + hilbert_strip(derivative(w), p.strip_depth).eval_at(x)
    eta_slope = derivative(w).eval_at(x) / abscissa_slope
    direct = p.sigma - p.sigma / np.sqrt(1.0 + eta_slope**2)
    got = _layers_of(wave_point, p).tension.eval_at(x)
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
        grad_sq = fields._map_gradient_sq(w, water, strip_rows(n_y), n_x)
        assert np.array_equal(grad_sq, vx**2 + vy**2)
    # the curvature keeps every mode the collocation grid resolves, 2N - 1
    layers = _layers_of(wave_point, water)
    m = layers.heights.size
    top = (m - 1) // 2
    modes = np.arange(1, top + 1)
    cos_mat, sin_mat = _trig_matrices(m, top)
    # the layers keep the tension strength's samples, synthesized once
    assert np.array_equal(layers.tension_samples, layers.tension.samples(m))
    quotient = layers.tension.samples(m) / layers.heights
    for _ in range(2):
        f = analyze(quotient)
        a, b = f.cos_coeffs, f.sin_coeffs
        slope = 0.0 + (modes * b) @ cos_mat - (modes * a[1:]) @ sin_mat
        quotient = slope / layers.slope
    expect = analyze(quotient)
    assert expect.n_modes == 2 * n - 1
    assert np.array_equal(fields._correction_curvature(layers).cos_coeffs, expect.cos_coeffs)


def test_validate_wave_solution(water, wave_point):
    report = validate_solution(wave_point, water)
    assert report.passed, report.failures
    assert report.failures == ()
    # desk water is resolved on 16 Chebyshev rows, and both spectral
    # defects sit near rounding, far inside their 1e-8 bounds
    assert report.audit_rows == 16
    assert report.harmonic_defect <= 1e-10
    assert report.force_balance_fine <= 1e-9 * water.g
    assert report.residual_sup < 1e-9
    assert report.admissibility.passed


def test_branch_point_audits_and_reconstructs_as_its_trial_state(water, wave_point):
    # a traced point is the TrialState it was corrected to, and the audit
    # and the reconstruction take it as it is, bit for bit
    assert isinstance(wave_point, TrialState)
    state = TrialState(wave_point.speed_sq, wave_point.bernoulli_shift, wave_point.elevation)
    assert validate_solution(wave_point, water) == validate_solution(state, water)
    got, want = reconstruct(wave_point, water, n_y=8), reconstruct(state, water, n_y=8)
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


def test_validate_laminar_solution(water):
    state = _laminar_state(water)
    report = validate_solution(state, water)
    assert report.passed, report.failures
    # S is a quadratic in the linear height field: 16 rows hold it exactly
    assert report.audit_rows == 16
    assert report.harmonic_defect <= 1e-10
    assert report.force_balance_fine <= 1e-10 * water.g


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
    report = validate_solution(bad, water)
    assert not report.passed
    assert "surface equation residual above tolerance" in report.failures


def test_validation_audits_on_its_own_rows(water, wave_point):
    # every defect is read on the one field the audit builds, on Chebyshev
    # rows and collocation_size(N) columns: the surface trace on its top row,
    # at depth fraction exactly 1; its bed row, at exactly 0, is exactly zero
    n_x = collocation_size(wave_point.elevation.n_modes)
    curve = SurfaceCurve(wave_point.elevation, water)
    layers = _layers_of(wave_point, water)
    audit_rows, rows, _, field = fields._chebyshev_field(curve, layers, fields._node_taylor)
    assert rows[0] == 0.0 and rows[-1] == 1.0
    assert field.flow_force.shape == (audit_rows + 1, n_x)
    report = validate_solution(wave_point, water)
    assert report.passed, report.failures
    assert report.audit_rows == audit_rows
    top = np.max(np.abs(field.flow_force[-1] - field.surface_value))
    assert report.surface_trace_defect == top
    assert not np.any(field.flow_force[0])


def _count_calls(monkeypatch, owner, name, calls=None):
    calls = [] if calls is None else calls
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_validated_point_inverts_each_grid_once(water, wave_point, monkeypatch):
    # validation inverts only the 16-row Chebyshev grid and assembles one
    # field on its geometry, without calling reconstruct; its three
    # harmonic extensions are that grid's map, potential and map gradient.
    # Its verdict on admissibility comes from the residual it evaluates, so
    # it makes no check_admissibility call
    inverts = _count_calls(monkeypatch, SurfaceCurve, "invert")
    rebuilds = _count_calls(monkeypatch, fields, "reconstruct")
    checks = _count_calls(monkeypatch, surface_equation, "check_admissibility")
    assemblies = _count_calls(monkeypatch, fields, "_assemble")
    extensions = _count_calls(monkeypatch, fields, "harmonic_extension")
    report = validate_solution(wave_point, water)
    assert report.passed, report.failures
    assert report.admissibility.passed
    assert report.audit_rows == 16
    assert len(inverts) == 1
    assert rebuilds == []
    assert checks == []
    assert len(assemblies) == 1
    assert len(extensions) == 3


@pytest.mark.parametrize("depth, audit_rows", [(0.1, 16), (2.0, 32)], ids=["desk", "kh20"])
def test_each_wave_is_sampled_once(water, depth, audit_rows, monkeypatch):
    # a validated point is sampled once, by its residual's admissibility
    # gate, on every row count the audit tries; its layers are analyzed
    # once (tension strength and boundary data), and the curvature three
    # times.  A reconstructed point is sampled once, by its own gate
    p = water.replace(h=depth)
    point = trace_branch(1e-3, 1, p, n_modes=32).points[0]
    samplings, analyses = [], []
    # every gate samples through surface_equation._admissibility
    _count_calls(monkeypatch, surface_equation, "_surface_rows", samplings)
    for module in (spectral, fields):
        _count_calls(monkeypatch, module, "analyze", analyses)
    report = validate_solution(point, p)
    assert report.passed, report.failures
    assert report.audit_rows == audit_rows
    assert len(samplings) == 1
    assert len(analyses) == 5
    samplings.clear()
    reconstruct(point, p)
    assert len(samplings) == 1


def test_inversion_sums_slope_only_before_a_step(water, wave_point, monkeypatch):
    # each Newton pass sums the conjugate on one point setup; the slope
    # conjugate only when a step follows, so not on the converged pass.
    # A curve that is only evaluated, never inverted, never builds it
    transforms = _count_calls(monkeypatch, fields, "hilbert_strip")
    curve = SurfaceCurve(wave_point.elevation, water)
    _profile(curve, grid_nodes(16))
    assert len(transforms) == 1
    passes = _count_calls(monkeypatch, fields, "_eval_points")
    sums = _count_calls(monkeypatch, fields, "_eval_sums")
    x = np.linspace(-1.0, 7.0, 41)
    x_s = curve.invert(_profile(curve, x)[0], x0=x + 0.1)
    assert np.max(np.abs(x_s - x)) < 1e-12
    assert len(transforms) == 2
    assert len(passes) >= 2
    assert len(sums) == 2 * len(passes) - 1


def test_validated_point_evaluates_elevation_once_per_grid(
    water, wave_point, monkeypatch
):
    # depth + w(x_s) is free of p_atm and of the speed: the audit's one
    # geometry synthesizes w's node expansion once, for the inverted half
    # of its columns, and the field assembled on it reads it
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
    validate_solution(wave_point, water)
    n_x = collocation_size(w.n_modes)
    assert shapes == [(_TAYLOR_DEGREE + 1, n_x // 2 + 1)]
    assert evaluations == []


@pytest.mark.parametrize("depth, audit_rows", [(0.1, 16), (2.0, 32)], ids=["desk", "kh20"])
def test_each_series_is_expanded_once(water, depth, audit_rows, monkeypatch):
    # an audited point builds the node expansions of C(w), w, the tension
    # strength and the curvature once each, whatever the number of row
    # counts it tries (one field each: 1 on desk water, 2 at kh = 20)
    p = water.replace(h=depth)
    point = trace_branch(1e-3, 1, p, n_modes=32).points[0]
    expansions = _count_calls(monkeypatch, fields, "_node_taylor")
    report = validate_solution(point, p)
    assert report.passed, report.failures
    assert report.audit_rows == audit_rows
    assert len(expansions) == 4


def _half_values(f, x_s):
    """f.eval_at on columns 0..n_x//2 of x_s, unfolded: the summation path."""
    return fields._unfold(f.eval_at(x_s[:, : x_s.shape[1] // 2 + 1]), x_s.shape[1])


def _node_reach(x_s):
    """max |x_s - x_j| over columns 0..n_x//2, x_j the column's node."""
    half = x_s.shape[1] // 2 + 1
    return float(np.max(np.abs(x_s[:, :half] - grid_nodes(x_s.shape[1])[:half])))


def _audited_series(state, p):
    """The even series the audit evaluates at x_s: the elevation, the
    tension strength and the curvature."""
    layers = _layers_of(state, p)
    return [state.elevation, layers.tension, fields._correction_curvature(layers)]


def test_node_expansion_agrees_with_summation(water, wave_point):
    # on the fixture wave's uniform and Chebyshev grids, and on doubled
    # columns, the expansion path is taken and agrees with eval_at to 4
    # ulps of the coefficient sum
    w = wave_point.elevation
    curve = SurfaceCurve(w, water)
    wide = 2 * fields.collocation_size(w.n_modes)
    for rows, n_x in ((strip_rows(16), None), (chebyshev_rows(16), None), (strip_rows(32), wide)):
        x_s = fields._geometry(curve, rows, n_x, fields._node_taylor)[2]
        reach = _node_reach(x_s)
        for f in _audited_series(wave_point, water):
            assert fields._taylor_fits(f, reach)
            scale = abs(f.cos_coeffs[0]) + float(np.sum(np.abs(f.cos_coeffs[1:])))
            expanded = fields._even_at(f, x_s, fields._node_taylor)
            err = np.max(np.abs(expanded - _half_values(f, x_s)))
            assert err <= 4.0 * 2.0**-52 * scale


def test_node_expansion_falls_back_to_summation(water, wave_point):
    # where the remainder bound fails, _even_at is eval_at bit for bit:
    # offsets of 0.5 rad from the nodes, and the tension strength and the
    # curvature of an N = 128 wave at ks = 0.04 on its own geometry
    w = wave_point.elevation
    x_s = grid_nodes(64) + np.array([[0.5], [-0.5]])
    assert not fields._taylor_fits(w, 0.5)
    assert np.array_equal(fields._even_at(w, x_s, fields._node_taylor), _half_values(w, x_s))
    steep = trace_branch(4e-3, 1, water, n_modes=128).points[-1]
    steep_curve = SurfaceCurve(steep.elevation, water)
    x_s = fields._geometry(steep_curve, strip_rows(16), None, fields._node_taylor)[2]
    reach = _node_reach(x_s)
    _, tension, curvature = _audited_series(steep, water)
    for f in (tension, curvature):
        assert not fields._taylor_fits(f, reach)
        assert np.array_equal(fields._even_at(f, x_s, fields._node_taylor), _half_values(f, x_s))


def test_geometry_inverts_in_one_summation_pass(water, wave_point, monkeypatch):
    # the inversion starts from the root of X's node expansion, so invert's
    # first direct summation is its convergence check and no step is taken
    curve = SurfaceCurve(wave_point.elevation, water)
    passes = _count_calls(monkeypatch, fields, "_eval_points")
    transforms = _count_calls(monkeypatch, fields, "hilbert_strip")
    for n_y in (16, 64):
        fields._geometry(curve, strip_rows(n_y), None, fields._node_taylor)
    assert len(passes) == 2
    assert transforms == []


def test_inversion_converges_on_a_steep_wave(water, monkeypatch):
    # an admissible wave whose abscissa slope 1/k + C(w') nearly vanishes,
    # where undamped Newton cycles: the bracketed loop converges in a few
    # passes from the node expansion's root and from the default start k t
    w = PeriodicFunction(np.array([0.0, 0.045444, 0.045444]), np.zeros(2))
    curve = SurfaceCurve(w, water)
    passes = _count_calls(monkeypatch, fields, "_eval_points")
    for n_y in (16, 64):
        passes.clear()
        u, _, x_s, _ = fields._geometry(curve, strip_rows(n_y), None, fields._node_taylor)
        assert len(passes) <= 20
        half = u.shape[1] // 2 + 1
        u, x_s = u[:, :half], x_s[:, :half]
        defect = np.abs(_profile(curve, x_s)[0] - u)
        assert np.all(defect <= 1e-13 * np.maximum(1.0, np.abs(u)))
    x = np.linspace(-1.0, 7.0, 2001)
    assert np.max(np.abs(curve.invert(_profile(curve, x)[0]) - x)) < 1e-12


def test_steep_branch_audit_inverts_in_one_pass(water, monkeypatch):
    # every geometry of an N = 64 branch to ks = 0.1, reconstruct's uniform
    # rows and the audit's 16 Chebyshev rows, starts from its node
    # expansion's root, and that root passes the first convergence check
    branch = trace_branch(1e-2, 8, water, n_modes=64)
    passes = _count_calls(monkeypatch, fields, "_eval_points")
    inverts = _count_calls(monkeypatch, SurfaceCurve, "invert")
    for point in branch.points:
        reconstruct(point, water)
        assert validate_solution(point, water).audit_rows == 16
    assert len(inverts) == 16
    assert len(passes) == 16


def test_inversion_of_nan(water, wave_point):
    # a NaN target never converges and raises; a NaN start is replaced by
    # the bracket's midpoint on the first step
    curve = SurfaceCurve(wave_point.elevation, water)
    with pytest.raises(SurfaceInversionFailed):
        curve.invert([0.1, math.nan])
    t = _profile(curve, np.array([0.0, 1.5, 3.0, 4.5, 6.0]))[0]
    expect = curve.invert(t)
    x_s = curve.invert(t, x0=[0.0, math.nan, 3.0, 4.5, 6.0])
    assert np.max(np.abs(x_s - expect)) < 1e-12


def test_validate_under_atmospheric_pressure(water, wave_point, monkeypatch):
    # p_atm != 0 costs no extra inversion, and the audit sees the same
    # gauge-free flow force and residual: every defect but the potential
    # layer's, which carries p_atm*v, is bitwise the one without pressure
    pressured = water.replace(p_atm=101325.0)
    plain = validate_solution(wave_point, water)
    inverts = _count_calls(monkeypatch, SurfaceCurve, "invert")
    report = validate_solution(wave_point, pressured)
    assert report.passed, report.failures
    assert len(inverts) == 1
    assert report.surface_trace_defect == plain.surface_trace_defect
    assert report.residual_sup == plain.residual_sup
    assert report.force_balance_fine == plain.force_balance_fine
    assert report.audit_rows == plain.audit_rows


@pytest.mark.parametrize("p_atm", [0.0, 101325.0])
def test_gauge_shifted_field_on_input_geometry(water, wave_point, p_atm):
    # the conformal map, the inverted surface abscissa and the layers are
    # free of p_atm, so assembling them, built at any p_atm, is a full
    # reconstruction
    p = water.replace(p_atm=p_atm)
    rows = strip_rows(16)
    curve = SurfaceCurve(wave_point.elevation, p)
    geometry = fields._geometry(curve, rows, None, fields._node_taylor)
    gauge = p.replace(p_atm=p.p_atm + 101325.0)
    layers = _layers_of(wave_point, p)
    assembled = fields._assemble(layers, gauge, rows, *geometry, fields._node_taylor)
    rebuilt = reconstruct(wave_point, gauge, n_y=16)
    for name in ("u", "v", "harmonic_potential", "raw_force", "flow_force"):
        assert np.array_equal(getattr(assembled, name), getattr(rebuilt, name)), name
    assert assembled.surface_value == rebuilt.surface_value



_DESK = PhysicalParams(g=9.81, sigma=0.073, h=0.1, k=10.0)


@pytest.mark.parametrize(
    "p, s_max, steps, n_modes",
    [
        (_DESK.replace(h=2.0), 1e-3, 4, 32),
        (_DESK.replace(sigma=0.0, h=0.3), 1e-2, 4, 64),
        (_DESK.replace(g=0.0, h=2.0), 1e-2, 4, 64),
        (_DESK.replace(h=0.5), 3e-2, 4, 64),
        (_DESK, 5e-2, 8, 64),
        (_DESK, 1e-2, 4, 8),
        (_DESK, 5e-2, 8, 32),
    ],
    ids=[
        "water-kh20", "gravity-kh3", "capillary-kh20", "water-kh5-ks0.3", "desk-ks0.5-N64",
        "desk-ks0.1-N8", "desk-ks0.5-N32",
    ],
)
def test_resolved_waves_pass_the_audit(p, s_max, steps, n_modes):
    # resolved waves whose Galerkin residuals sit at rounding; the stencil
    # audit this one replaced rejected the first five at n_y = 64; the
    # points of the last two lie within 1.6e-10 of the converged waves
    # (N = 64 and 128, tol = 1e-13)
    branch = trace_branch(s_max, steps, p, n_modes=n_modes)
    assert branch.failure is None and len(branch.points) == steps
    for point in branch.points:
        report = validate_solution(point, p)
        assert report.passed, (point.amplitude, report.failures)
        assert report.audit_rows <= 64


def test_perturbed_tension_strength_fails_the_force_balance(water, monkeypatch):
    # one cosine coefficient of the tension strength off by 1e-6 relative,
    # in the boundary data (S0 - tension + (g/2)(depth + w)^2) and the
    # pullback alike: the traces still hold exactly, and only the force
    # balance, against the true correction curvature, sees the error
    # (about 8e-8 g against 3e-10 g unperturbed)
    point = trace_branch(3e-2, 4, water, n_modes=32).points[-1]
    clean = validate_solution(point, water)
    assert clean.passed, clean.failures
    clean_layers = fields._layers
    curvature = fields._correction_curvature(_layers_of(point, water))

    def perturbed(state, p, samples):
        layers = clean_layers(state, p, samples)
        tension = np.array(layers.tension.cos_coeffs)
        boundary = np.array(layers.boundary.cos_coeffs)
        shift = 1e-6 * tension[1]
        tension[1] += shift
        boundary[1] -= shift
        return layers._replace(
            tension=PeriodicFunction.from_cosines(tension),
            boundary=PeriodicFunction.from_cosines(boundary),
        )

    monkeypatch.setattr(fields, "_layers", perturbed)
    monkeypatch.setattr(fields, "_correction_curvature", lambda layers: curvature)
    report = validate_solution(point, water)
    assert report.failures == ("force balance defect above tolerance",)
    assert report.force_balance_fine > 50.0 * clean.force_balance_fine
