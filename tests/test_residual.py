"""Surface-equation residual: trivial states, linearization, guards.

The linearization oracle is the closed-form diagonal symbol
m_n = -(1/k^2)(speed_sq k n coth(nkh) - sigma k^2 n^2 - g), derived by
hand from the equation before the residual assembly was written; the
frozen numbers below were evaluated from that formula independently.
"""

import math

import numpy as np
import pytest

from flowforce import (
    InadmissibleIterate,
    PeriodicFunction,
    PhysicalParams,
    SingularExpression,
    TrialState,
    analyze,
    check_admissibility,
    derivative,
    galerkin_residual,
    hilbert_strip,
    jacobian_fd,
    linearization_symbol,
    onset_speed_sq,
    residual,
)
from flowforce import continuation, spectral, surface_equation
from flowforce.continuation import trace_branch
from flowforce.spectral import _coth_table, collocation_size, grid_nodes
from flowforce.surface_equation import _BLOCK_SAMPLES


def _random_params(rng):
    return PhysicalParams(
        g=float(rng.uniform(0.5, 20.0)),
        sigma=float(rng.uniform(0.0, 1.0)),
        h=float(rng.uniform(0.05, 2.0)),
        k=float(rng.uniform(0.5, 50.0)),
    )


def test_trivial_state_residual_is_minus_shift():
    rng = np.random.default_rng(42)
    w0 = PeriodicFunction.zero(16)
    for _ in range(20):
        p = _random_params(rng)
        lam = float(rng.uniform(0.1, 5.0))
        mu = float(rng.uniform(0.01, 1.0) * rng.choice([-1.0, 1.0]))
        r = residual(TrialState(lam, mu, w0), p)
        expect = -mu / p.k**2
        defect = r.cos_coeffs.copy()
        defect[0] -= expect
        assert np.max(np.abs(defect)) < 1e-12 * abs(expect)


def test_trivial_state_residual_under_pressure():
    """With a physical atmospheric pressure the identity survives up to
    the cancellation noise of p_atm-sized intermediates (gauge level)."""
    rng = np.random.default_rng(43)
    w0 = PeriodicFunction.zero(16)
    for _ in range(10):
        p = _random_params(rng).replace(p_atm=101325.0)
        lam = float(rng.uniform(0.1, 5.0))
        mu = float(rng.uniform(0.01, 1.0) * rng.choice([-1.0, 1.0]))
        r = residual(TrialState(lam, mu, w0), p)
        expect = -mu / p.k**2
        defect = r.cos_coeffs.copy()
        defect[0] -= expect
        assert np.max(np.abs(defect)) < 1e-9 * abs(expect)


def test_zero_shift_gives_zero_residual():
    p = PhysicalParams(g=9.81, sigma=0.073, h=0.1, k=10.0)
    r = residual(TrialState(1.3, 0.0, PeriodicFunction.zero(8)), p)
    assert r.sup_norm() == pytest.approx(0.0, abs=1e-15)


def test_linearization_symbol_frozen_value(water):
    assert linearization_symbol(1.5, 2, water) == pytest.approx(
        0.07890558378173561, rel=1e-13
    )


def test_linearization_symbol_vanishes_at_onset(water):
    lam = onset_speed_sq(1, water.k, water)
    assert abs(linearization_symbol(lam, 1, water)) < 1e-12


def test_jacobian_matches_diagonal_symbol(water):
    n = 8
    lam = 1.5
    state = TrialState(lam, 0.0, PeriodicFunction.zero(n))
    jac = jacobian_fd(state, water, n_modes=n)
    # columns: speed_sq, bernoulli_shift, a_1..a_N
    expect = np.zeros_like(jac)
    expect[0, 1] = -1.0 / water.k**2
    for mode in range(1, n + 1):
        expect[mode, mode + 1] = linearization_symbol(lam, mode, water)
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(jac - expect)) / scale < 1e-5


def test_jacobian_speed_column_at_onset(water):
    """Transversal direction: at (lambda, 0, s cos x) the derivative of
    the residual in speed_sq is -s coth(kh) cos x / k + O(s^2), from
    expanding B*dnv - metric*speed_sq by hand."""
    n = 4
    s = 1e-4
    w = PeriodicFunction.harmonic(1, s, n_modes=n, kind="cos")
    state = TrialState(onset_speed_sq(1, water.k, water), 0.0, w)
    jac = jacobian_fd(state, water, active=(0,), n_modes=n)
    kh = water.k * water.h
    expect = -s / math.tanh(kh) / water.k
    assert jac[1, 0] == pytest.approx(expect, rel=1e-3)


def test_residual_is_even_and_records_diagnostics(water, monkeypatch):
    """The residual of an even state is even by construction: no parity
    rule runs, and the sine block of its own samples is rounding noise
    (4.2e-15 of its largest cosine on this 5-mode wave).  The patched
    _spectrum records both halves of each analysis and returns the
    halves asked for."""
    w = PeriodicFunction.from_cosines([0.0] + [1e-3 * 0.2**j for j in range(5)]).truncated(16)
    spectra = []

    def recording(values, **halves):
        spectra.append(spectral._spectrum(values))
        return spectral._spectrum(values, **halves)

    monkeypatch.setattr(surface_equation, "_spectrum", recording)
    diag = {}
    r = residual(TrialState(1.3, 0.0, w), water, diag=diag)
    assert r.is_even
    # two strip transforms, then the residual's own samples
    assert len(spectra) == 3
    cosines, sines = spectra[-1]
    assert np.abs(sines).max() <= 1e-13 * np.abs(cosines).max()
    assert diag["min_metric"] > 0.0
    assert diag["min_quotient_denominator"] > 0.0
    assert all(abs(v) < 1e-12 for v in diag["subtracted_means"].values())


def test_strip_transform_keeps_a_tiny_odd_argument(water):
    """w w' of w = s cos x is -(s^2/2) sin 2x, whose strip transform is
    (s^2/2) coth(2kh) cos 2x however small s is: no parity rule zeros it."""
    s, n = 1e-8, 8
    w = PeriodicFunction.harmonic(1, s, n_modes=n)
    m = collocation_size(n)
    w_s, wp = surface_equation._surface_rows(w.cos_coeffs[None, :], water, m)[:2]
    coth = _coth_table(n, water.strip_depth)
    got = surface_equation._strip_transform(w_s * wp, n, coth, "w*w'", None)[0]
    expect = 0.5 * s**2 * coth[1] * np.cos(2.0 * grid_nodes(m))
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_strip_transform_synthesizes_only_the_sine_half(water, monkeypatch):
    """Both arguments of _strip_transform are odd, so their cosine half,
    mean included, is aliasing dust: adding cosines to the analyzed
    argument leaves the transform bitwise unchanged, and the mean is still
    recorded.  The cosines are added to the argument's spectrum, since on
    the grid the rounding of the sum would move its sines too, and both
    halves are returned whichever the transform asks for."""
    n = 8
    w = PeriodicFunction.harmonic(1, 1e-3, n_modes=n)
    m = collocation_size(n)
    w_s, wp = surface_equation._surface_rows(w.cos_coeffs[None, :], water, m)[:2]
    coth = _coth_table(n, water.strip_depth)
    odd = w_s * wp
    plain = surface_equation._strip_transform(odd, n, coth, "w*w'", None)
    mean = float(spectral._spectrum(odd)[0][0, 0])

    def with_cosines(values, **halves):
        a, b = spectral._spectrum(values)
        return a + 1e-3 * 0.5 ** np.arange(a.shape[1]), b

    monkeypatch.setattr(surface_equation, "_spectrum", with_cosines)
    diag = {}
    got = surface_equation._strip_transform(odd, n, coth, "w*w'", diag)
    assert np.array_equal(got, plain)
    assert diag["subtracted_means"] == {"w*w'": mean + 1e-3}


def test_atmospheric_pressure_cancels(water):
    """Gauge property: the residual is independent of p_atm to rounding."""
    w = PeriodicFunction.harmonic(1, 1e-3, n_modes=16, kind="cos")
    lam = onset_speed_sq(1, water.k, water)
    mu = 0.1 * lam
    r0 = residual(TrialState(lam, mu, w), water)
    r1 = residual(TrialState(lam, mu, w), water.replace(p_atm=101325.0))
    scale = max(1.0, r0.sup_norm())
    assert np.max(np.abs(r0.cos_coeffs - r1.cos_coeffs)) / scale < 1e-9


def test_metric_floor_raises():
    p = PhysicalParams(g=9.81, sigma=0.0, h=1.0, k=1e6)
    with pytest.raises(SingularExpression):
        residual(TrialState(1.0, 0.0, PeriodicFunction.zero(4)), p)


def test_quotient_floor_raises(water):
    lam_tiny = 1e-7 * onset_speed_sq(1, water.k, water)
    with pytest.raises(SingularExpression):
        residual(TrialState(lam_tiny, 0.0, PeriodicFunction.zero(4)), water)


def test_galerkin_residual_matches_cos_coefficients(water):
    w = PeriodicFunction.harmonic(1, 1e-3, n_modes=8, kind="cos")
    state = TrialState(1.3, 0.0, w)
    proj = galerkin_residual(state, water)
    full = residual(state, water)
    np.testing.assert_array_equal(proj, full.cos_coeffs)
    assert proj.shape == (9,)


def test_trial_state_validation():
    with pytest.raises(ValueError):
        TrialState(1.0, 0.0, PeriodicFunction.harmonic(1, 1.0, kind="sin"))
    bad_mean = PeriodicFunction.constant(0.5, 4)
    with pytest.raises(ValueError):
        TrialState(1.0, 0.0, bad_mean)


def test_evenness_is_the_sine_block_however_built(water):
    """TrialState and check_admissibility accept an elevation whose sine
    block is all zero, built four ways, and reject one with a single
    nonzero sine."""
    a = np.array([0.0, 1e-3, -2e-4, 5e-5])
    one_sine = np.array([0.0, 0.0, 1e-300])
    for w in (
        PeriodicFunction(a, np.zeros(3)),
        PeriodicFunction.from_cosines(a),
        PeriodicFunction(a, -np.zeros(3)),
        analyze(PeriodicFunction.from_cosines(a).samples(16)).truncated(3),
    ):
        TrialState(1.0, 0.0, w)
        assert check_admissibility(w, water).passed
        odd = PeriodicFunction(w.cos_coeffs, one_sine)
        with pytest.raises(ValueError, match="even"):
            TrialState(1.0, 0.0, odd)
        with pytest.raises(ValueError, match="even"):
            check_admissibility(odd, water)


def test_admissibility_of_laminar(water):
    report = check_admissibility(PeriodicFunction.zero(8), water)
    assert report.passed
    assert report.min_surface_height == pytest.approx(water.h)
    assert report.min_abscissa_slope == pytest.approx(1.0 / water.k)
    assert report.monotone_graph


def test_admissibility_flags_bed_contact(water):
    w = PeriodicFunction.harmonic(1, 0.15, n_modes=4, kind="cos")
    report = check_admissibility(w, water)
    assert not report.passed
    assert any("bed" in f for f in report.failures)


def test_admissibility_flags_non_graph(water):
    w = PeriodicFunction.harmonic(1, 0.09, n_modes=4, kind="cos")
    report = check_admissibility(w, water)
    assert not report.passed
    assert report.min_abscissa_slope < 0.0


def test_admissibility_rejects_sine_content(water):
    w = PeriodicFunction.harmonic(1, 1e-3, n_modes=4, kind="sin")
    with pytest.raises(ValueError):
        check_admissibility(w, water)


def test_admissibility_matches_spectral_operators(water):
    """Margins from the shared surface sampler equal the ones built from
    PeriodicFunction derivatives and strip Hilbert transforms, bit for bit."""
    a = np.array([0.0, 3e-3, -8e-4, 2e-4, 5e-5, -1e-5])
    w = PeriodicFunction.from_cosines(a)
    m = 4 * w.n_modes
    d = water.strip_depth
    dnv = 1.0 / water.k + hilbert_strip(derivative(w), d).samples(m)
    metric = derivative(w).samples(m) ** 2 + dnv**2
    report = check_admissibility(w, water)
    assert report.min_surface_height == float(np.min(w.samples(m)) + water.h)
    assert report.min_abscissa_slope == float(np.min(dnv))
    assert report.min_metric == float(np.min(metric))
    assert report.monotone_graph
    assert report.passed


def _abscissae(m, k):
    """Crafted physical abscissae on m nodes, by name: a strictly
    increasing row and rows that break it in one place."""
    base = grid_nodes(m) / k
    period = 2.0 * np.pi / k
    rows = {"increasing": base}

    def edit(name, **at):
        row = base.copy()
        for j, value in at.items():
            row[int(j[1:])] = value
        rows[name] = row

    edit("tie", j3=base[2])
    edit("subnormal_rise", j0=0.0, j1=5e-324, j2=1e-323)
    edit("subnormal_fall", j0=0.0, j1=1e-323, j2=5e-324)
    edit("plus_inf_inside", j5=np.inf)
    edit("plus_inf_last", **{f"j{m - 1}": np.inf})
    edit("minus_inf_first", j0=-np.inf)
    edit("minus_inf_inside", j5=-np.inf)
    edit("nan_inside", j4=np.nan)
    edit("nan_first", j0=np.nan)
    edit("wrap_tie", **{f"j{m - 1}": period})
    edit("wrap_past", **{f"j{m - 1}": 1.5 * period})
    edit("wrap_just_inside", **{f"j{m - 1}": np.nextafter(period, 0.0)})
    return rows


@pytest.mark.parametrize("name", list(_abscissae(16, 10.0)))
def test_monotone_graph_test_gives_the_difference_verdict(water, name, monkeypatch):
    """The monotone-graph test compares neighbours, and the last node with
    the first one a period on; in IEEE arithmetic that is the verdict of
    np.diff(x, append=period_end) > 0 on every row, non-finite ones too."""
    w = PeriodicFunction.harmonic(1, 1e-3, n_modes=4)
    x = _abscissae(collocation_size(w.n_modes), water.k)[name]
    monkeypatch.setattr(surface_equation, "_surface_abscissa", lambda *args: x[None, :])
    with np.errstate(over="ignore", invalid="ignore"):
        expect = bool((np.diff(x, append=x[0] + 2.0 * np.pi / water.k) > 0.0).all())
    assert expect is (name in ("increasing", "subnormal_rise", "wrap_just_inside"))
    report = check_admissibility(w, water)
    assert report.monotone_graph is expect
    assert ("graph map not monotone" in report.failures) is not expect


@pytest.mark.parametrize(
    "amplitude, failure",
    [(0.15, "surface touches bed"), (0.09, "abscissa slope not positive")],
    ids=["bed_contact", "non_graph"],
)
def test_residual_gates_admissibility(water, amplitude, failure):
    # the surface equation is posed for graphs above the bed: the residual
    # refuses any other surface before its own guards run
    w = PeriodicFunction.harmonic(1, amplitude, n_modes=4, kind="cos")
    state = TrialState(onset_speed_sq(1, water.k, water), 0.0, w)
    with pytest.raises(InadmissibleIterate, match="not an admissible graph: ") as info:
        residual(state, water)
    assert failure in str(info.value)


def test_residual_records_admissibility_report(water):
    a = np.array([0.0, 3e-3, -8e-4, 2e-4, 5e-5, -1e-5])
    w = PeriodicFunction.from_cosines(a)
    diag = {}
    residual(TrialState(onset_speed_sq(1, water.k, water), 0.0, w), water, diag=diag)
    assert diag["admissibility"] == check_admissibility(w, water)


def test_traced_branch_samples_each_residual_state_once(water, monkeypatch):
    # Newton's iterates are gated by the residual that samples them anyway:
    # no separate admissibility check, and one single-state sampling per
    # residual evaluation (the Jacobian samples stacks of perturbed states)
    calls = []

    def count(module, name, label):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(f"rows{len(args[0])}" if label == "rows" else label)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(surface_equation, "_surface_rows", "rows")
    for module in (surface_equation, continuation):
        count(module, "residual", "residual")
        count(module, "check_admissibility", "check")
    branch = trace_branch(4e-3, 4, water, n_modes=16)
    assert branch.failure is None
    assert calls.count("residual") > len(branch.points)
    assert calls.count("check") == 0
    assert calls.count("rows1") == calls.count("residual")


def test_jacobian_builds_no_periodic_function(water, monkeypatch):
    # jacobian_fd reads theta off the state's coefficients and evaluates its
    # perturbed states as arrays, so it constructs no PeriodicFunction
    state = TrialState(
        onset_speed_sq(1, water.k, water), 0.0,
        PeriodicFunction.harmonic(1, 1e-3, n_modes=32, kind="cos"),
    )
    built = []
    original = PeriodicFunction.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PeriodicFunction, "__post_init__", counting)
    jac = jacobian_fd(state, water, n_modes=32)
    assert jac.shape == (33, 34)
    assert built == []


def test_jacobian_active_subset(water):
    n = 6
    state = TrialState(1.3, 0.0, PeriodicFunction.zero(n))
    jac = jacobian_fd(state, water, active=(1, 4), n_modes=n)
    assert jac.shape == (n + 1, 2)
    assert jac[0, 0] == pytest.approx(-1.0 / water.k**2, rel=1e-8)
    assert jac[3, 1] == pytest.approx(linearization_symbol(1.3, 3, water), rel=1e-5)


# -- batched finite-difference Jacobian ----------------------------------

JACOBIAN_REGIMES = {
    "water": PhysicalParams(g=9.81, sigma=0.073, h=0.1, k=10.0),
    "p_atm": PhysicalParams(g=9.81, sigma=0.073, h=0.1, k=10.0, p_atm=101325.0),
    "capillary": PhysicalParams(g=0.0, sigma=0.073, h=0.1, k=10.0),
    "ocean": PhysicalParams(g=9.81, sigma=0.073, h=100.0, k=0.01),
}


def _wave_state(p, n, seed):
    """An even wave of steepness 0.01 near onset, modes decaying tenfold."""
    rng = np.random.default_rng(seed)
    a = np.zeros(n + 1)
    a[1] = 0.01 / p.k
    a[2:] = a[1] * rng.uniform(-1.0, 1.0, n - 1) * 0.1 ** np.arange(1, n)
    lam = onset_speed_sq(1, p.k, p)
    return TrialState(lam * (1.0 + 1e-4), 1e-3 * lam, PeriodicFunction.from_cosines(a))


def _column_loop(state, p, cols, n):
    """Central differences one unknown at a time through galerkin_residual."""
    a0 = state.elevation.cos_coeffs[0]
    theta = [state.speed_sq, state.bernoulli_shift, *state.elevation.cos_coeffs[1:]]
    out = []
    for col in cols:
        eps = 1e-6 * max(1.0, abs(theta[col]))
        pair = []
        for value in (theta[col] + eps, theta[col] - eps):
            t = list(theta)
            t[col] = value
            w = PeriodicFunction.from_cosines([a0, *t[2:]])
            pair.append(galerkin_residual(TrialState(t[0], t[1], w), p, n_modes=n))
        out.append((pair[0] - pair[1]) / (2.0 * eps))
    return np.column_stack(out)


@pytest.mark.parametrize("active", ["all", "newton"])
@pytest.mark.parametrize("n", [1, 8, 32, 128])
@pytest.mark.parametrize("regime", sorted(JACOBIAN_REGIMES))
def test_jacobian_fd_is_bitwise_column_loop(regime, n, active):
    """The batched Jacobian equals the column-by-column central difference
    exactly, not just closely: a converged Newton point carries the
    Jacobian's rounding.  At N = 128 the columns fill several blocks and
    the last block is partial."""
    p = JACOBIAN_REGIMES[regime]
    state = _wave_state(p, n, seed=n)
    cols = list(range(n + 2)) if active == "all" else [0, 1, *range(3, n + 2)]
    if n == 128:
        assert len(cols) % (_BLOCK_SAMPLES // (2 * 4 * n)) != 0
    jac = jacobian_fd(state, p, active=None if active == "all" else cols, n_modes=n)
    assert np.array_equal(jac, _column_loop(state, p, cols, n))


def _assert_floor_crossing(water, monkeypatch, n, active):
    """jacobian_fd at a state whose speed sits just above the quotient floor
    raises the single-state error of the speed column's minus step, from
    the one evaluation of the failing block.  Returns the batch size of
    every _residual_rows call."""
    w = PeriodicFunction.harmonic(1, -1e-12, n_modes=n, kind="cos")
    lam = 1e-8 * onset_speed_sq(1, water.k, water) * water.k**2 + 0.5e-6
    galerkin_residual(TrialState(lam, 0.0, w), water, n_modes=n)
    with pytest.raises(SingularExpression) as single:
        galerkin_residual(TrialState(lam - 1e-6, 0.0, w), water, n_modes=n)
    calls = []
    rows = surface_equation._residual_rows

    def counted(speed_sq, *args, **kwargs):
        calls.append(speed_sq.size)
        return rows(speed_sq, *args, **kwargs)

    monkeypatch.setattr(surface_equation, "_residual_rows", counted)
    with pytest.raises(SingularExpression) as batched:
        jacobian_fd(TrialState(lam, 0.0, w), water, active=active, n_modes=n)
    assert "quotient denominator" in str(batched.value)
    assert str(batched.value) == str(single.value)
    assert batched.value.node_x == single.value.node_x == pytest.approx(math.pi)
    return calls


def test_jacobian_quotient_floor_crossing_raises(water, monkeypatch):
    """Near the trivial state the quotient denominator is about
    speed_sq/k^2 - g s cos(x)/k^2, so a speed just above the floor
    1e-8 lambda* k^2 drops below it in the minus step of the speed column,
    first at x = pi for s < 0.  The one block is evaluated once, and the
    error is that of the single-state evaluation of the perturbed state."""
    assert _assert_floor_crossing(water, monkeypatch, 8, (2, 3, 0)) == [6]


def test_jacobian_floor_crossing_in_second_block(water, monkeypatch):
    """At N = 128 a block holds 16 columns: the first block's columns all
    pass, and the speed column, tenth in the second block, fails there;
    each block is evaluated once."""
    n = 128
    per_block = _BLOCK_SAMPLES // (2 * 4 * n)
    assert per_block == 16
    active = (*range(32, 57), 0, *range(57, 60))
    calls = _assert_floor_crossing(water, monkeypatch, n, active)
    assert calls == [2 * per_block, 2 * (len(active) - per_block)] == [32, 26]
