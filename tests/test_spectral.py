"""Spectral core: transforms, strip operators, extensions.

Frozen oracle values were computed from the closed-form multiplier
definitions (coth via exp, trigonometric interpolation by hand) before
the implementation existed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowforce import (
    InvalidSamples,
    MeanNotZero,
    PeriodicFunction,
    analyze,
    conjugate_extension,
    derivative,
    dirichlet_neumann,
    grid_nodes,
    harmonic_extension,
    hilbert_strip,
    strip_nodes,
)
from flowforce import spectral
from flowforce.spectral import (
    _TAYLOR_DEGREE,
    _coth_table,
    _node_taylor,
    _synthesize,
    _taylor_fits,
    _trig_matrices,
    chebyshev_coefficients,
    chebyshev_matrix,
    chebyshev_rows,
    collocation_size,
    cosh_ratio,
    scaled_coth,
    sinh_ratio,
    strip_rows,
)

DEPTHS = (0.1, 1.0, 10.0)


# -- analysis / synthesis ------------------------------------------------


def test_analyze_frozen_small_grid():
    x = grid_nodes(8)
    f = analyze(np.cos(x) + 0.5 * np.sin(2.0 * x))
    assert f.cos_coeffs[1] == pytest.approx(1.0, abs=1e-15)
    assert f.sin_coeffs[1] == pytest.approx(0.5, abs=1e-15)
    rest = np.abs(f.cos_coeffs).sum() + np.abs(f.sin_coeffs).sum() - 1.5
    assert abs(rest) < 1e-14


def test_samples_on_default_grid_round_trip():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(9)
    b = rng.standard_normal(8)
    f = PeriodicFunction(a, b)
    g = analyze(f.samples(collocation_size(f.n_modes))).truncated(f.n_modes)
    np.testing.assert_allclose(g.cos_coeffs, a, atol=1e-13)
    np.testing.assert_allclose(g.sin_coeffs, b, atol=1e-13)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=9),
    st.integers(min_value=0, max_value=3),
)
def test_value_level_round_trip(coeffs, extra):
    a = np.asarray(coeffs)
    f = PeriodicFunction(a, np.zeros(a.size - 1))
    m = collocation_size(f.n_modes) + 2 * extra
    vals = f.samples(m)
    back = analyze(vals).samples(m)
    np.testing.assert_allclose(back, vals, atol=1e-12)


def _dense_eval(f, x):
    """Reference evaluation through the full (points x N) phase table."""
    n = np.arange(1, f.n_modes + 1)
    arg = np.multiply.outer(np.asarray(x, dtype=float), n)
    return (
        f.cos_coeffs[0] + np.cos(arg) @ f.cos_coeffs[1:] + np.sin(arg) @ f.sin_coeffs
    )


# points within 1e-6 of 0 and of pi on both sides, plus the |x| <= 30 range:
# eval_at takes any real x, such as SurfaceCurve.invert's iterates from the
# default start k t beyond one period
_EVAL_POINTS = np.concatenate(
    [
        np.linspace(-1e-6, 1e-6, 41),
        np.pi + np.linspace(-1e-6, 1e-6, 41),
        -np.pi + np.linspace(-1e-6, 1e-6, 41),
        np.linspace(-30.0, 30.0, 1201),
    ]
)


@pytest.mark.parametrize("kind", ["even", "general"])
@pytest.mark.parametrize("n_modes", [0, 1, 8, 64, 256])
def test_eval_at_matches_dense_formula(kind, n_modes):
    rng = np.random.default_rng(n_modes)
    a = rng.standard_normal(n_modes + 1)
    b = rng.standard_normal(n_modes) if kind == "general" else np.zeros(n_modes)
    f = PeriodicFunction(a, b)
    assert f.is_even == (kind == "even" or n_modes == 0)
    tol = 1e-12 * (np.abs(a).sum() + np.abs(b).sum())
    got = f.eval_at(_EVAL_POINTS)
    assert got.shape == _EVAL_POINTS.shape
    np.testing.assert_allclose(got, _dense_eval(f, _EVAL_POINTS), rtol=0, atol=tol)
    grid = _EVAL_POINTS[:1200].reshape(40, 30)
    np.testing.assert_allclose(f.eval_at(grid), _dense_eval(f, grid), rtol=0, atol=tol)
    for x in (0.0, 1e-7, math.pi, -math.pi + 1e-7, 29.5):
        value = f.eval_at(x)
        assert np.ndim(value) == 0
        assert abs(value - _dense_eval(f, x)) <= tol


def test_eval_at_stable_where_recurrence_root_is_double():
    # at x = 0 and x = pi the plain Clenshaw recurrence has a double root
    # and its rounding error grows like N^2 eps on same-sign coefficients
    f = PeriodicFunction.from_cosines(np.ones(1025))
    x = _EVAL_POINTS[:82]
    np.testing.assert_allclose(
        f.eval_at(x), _dense_eval(f, x), rtol=0.0, atol=1e-13 * 1025
    )


def test_eval_at_constant_returns_exact_mean():
    f = PeriodicFunction.constant(2.5)
    assert f.eval_at(1.0) == 2.5
    assert np.array_equal(f.eval_at(np.zeros((2, 3))), np.full((2, 3), 2.5))


def _series_kinds(n_modes, rng):
    """Cosine-only, sine-only, general and all-zero series of n_modes modes."""
    a = rng.standard_normal(n_modes + 1)
    b = rng.standard_normal(n_modes)
    zeros = np.zeros(n_modes)
    return [
        PeriodicFunction(a, zeros),
        PeriodicFunction(np.r_[a[0], zeros], b),
        PeriodicFunction(a, b),
        PeriodicFunction.zero(n_modes),
    ]


@pytest.mark.parametrize("m", [8, 33, 256])
def test_node_taylor_rows_are_scaled_derivatives(m):
    # row q at node j is f^(q)(x_j)/q!, from the derivative's own samples,
    # for cosine-only, sine-only, general and all-zero series
    rng = np.random.default_rng(5)
    half = m // 2 + 1
    for f in _series_kinds(8, rng) + [PeriodicFunction.constant(2.5)]:
        coeffs = _node_taylor(f, m)
        assert coeffs.shape == (_TAYLOR_DEGREE + 1, half)
        g = f
        for q, row in enumerate(coeffs):
            n = np.arange(1, f.n_modes + 1) ** q
            scale = (abs(f.cos_coeffs[0]) if q == 0 else 0.0) + np.sum(
                n * (np.abs(f.cos_coeffs[1:]) + np.abs(f.sin_coeffs))
            )
            expected = g.samples(m)[:half] / math.factorial(q)
            assert np.max(np.abs(row - expected)) <= 1e-14 * max(scale, 1.0)
            g = derivative(g)


def _placed_at(table, offset):
    """A C-contiguous copy of table whose data start offset bytes past a
    64-byte boundary."""
    buf = spectral._aligned((table.size + 8,))[offset // 8 :]
    copy = buf[: table.size].reshape(table.shape)
    copy[...] = table
    assert copy.ctypes.data % 64 == offset
    return copy


@pytest.mark.parametrize("m, n", [(8, 1), (33, 5), (128, 32), (200, 50), (512, 128)])
def test_trig_tables_are_aligned_read_only_and_exact(m, n):
    # computed straight into 64-byte-aligned buffers, with the bits of
    # np.cos / np.sin of the same arguments
    arg = np.outer(np.arange(1, n + 1), grid_nodes(m))
    for table, exact in zip(_trig_matrices(m, n), (np.cos(arg), np.sin(arg))):
        assert table.ctypes.data % 64 == 0
        assert table.flags.c_contiguous
        assert not table.flags.writeable
        assert np.array_equal(table, exact)


@pytest.mark.parametrize("n", [32, 128])
def test_synthesis_bits_do_not_depend_on_table_alignment(n):
    # alignment sets only the gemv's speed: 32 random rows give the same
    # bits against copies of each table placed 16, 32 and 48 bytes off a
    # 64-byte boundary
    rows = np.random.default_rng(n).standard_normal((32, n))
    for table in _trig_matrices(collocation_size(n), n):
        aligned = _synthesize(rows, table)
        for offset in (16, 32, 48):
            assert np.array_equal(_synthesize(rows, _placed_at(table, offset)), aligned)


@pytest.mark.parametrize("m", [8, 33, 256])
def test_node_taylor_table_is_aligned(m, monkeypatch):
    # the stacked (2N, m//2 + 1) table starts on a 64-byte boundary, holds
    # the tables' first m//2 + 1 columns, and the product against unaligned
    # copies of it has the same bits
    calls = []

    def recording(coeffs, mat):
        calls.append((coeffs, mat))
        return _synthesize(coeffs, mat)

    monkeypatch.setattr(spectral, "_synthesize", recording)
    _node_taylor(_series_kinds(8, np.random.default_rng(m))[2], m)
    ((rows, table),) = calls
    half = m // 2 + 1
    assert table.ctypes.data % 64 == 0
    assert np.array_equal(table, np.vstack([t[:, :half] for t in _trig_matrices(m, 8)]))
    for offset in (16, 32, 48):
        assert np.array_equal(
            _synthesize(rows, _placed_at(table, offset)), _synthesize(rows, table)
        )


def test_taylor_remainder_bound_of_one_harmonic():
    # cos(x): reach^9/9! <= 2^-53 holds up to reach = (9! 2^-53)^(1/9) = 0.06999
    f = PeriodicFunction.harmonic(1, 1.0, n_modes=4)
    assert _taylor_fits(f, 0.0699)
    assert not _taylor_fits(f, 0.0700)
    assert _taylor_fits(PeriodicFunction.constant(3.0, n_modes=4), 1e3)


def test_analyze_rejects_bad_input():
    with pytest.raises(InvalidSamples):
        analyze(np.array([1.0]))
    with pytest.raises(InvalidSamples):
        analyze(np.array([1.0, np.nan, 0.0, 0.0]))


@pytest.mark.parametrize("rows", [1, 66])
@pytest.mark.parametrize("m", [128, 127])
def test_spectrum_halves_are_bitwise_the_full_analysis(m, rows):
    """A caller that reads one half of _spectrum gets that half of the
    full analysis bit for bit, and None for the other half."""
    values = np.random.default_rng(m * rows).standard_normal((rows, m))
    a, b = spectral._spectrum(values)
    assert a.shape == (rows, (m - 1) // 2 + 1) and b.shape == (rows, (m - 1) // 2)
    cosines, no_sines = spectral._spectrum(values, sines=False)
    no_cosines, sines = spectral._spectrum(values, cosines=False)
    assert no_sines is None and no_cosines is None
    assert np.array_equal(cosines, a) and np.array_equal(sines, b)
    if rows == 1:
        f = analyze(values[0])
        assert np.array_equal(f.cos_coeffs, a[0]) and np.array_equal(f.sin_coeffs, b[0])


@pytest.mark.parametrize("halves", [{}, {"sines": False}, {"cosines": False}])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectrum_halves_reject_non_finite_samples(halves, bad):
    values = np.ones((3, 16))
    values[2, 5] = bad
    with pytest.raises(InvalidSamples, match="non-finite sample values"):
        spectral._spectrum(values, **halves)


@pytest.mark.parametrize(
    "mode, kind",
    [(0, "sin"), (-1, "cos"), (-2, "sin"), (1, "tan")],
)
def test_harmonic_rejects_bad_mode_or_kind(mode, kind):
    with pytest.raises(ValueError):
        PeriodicFunction.harmonic(mode, n_modes=4, kind=kind)


def test_cos_harmonic_of_mode_zero_is_a_constant():
    f = PeriodicFunction.harmonic(0, 2.0, n_modes=4)
    assert np.array_equal(f.cos_coeffs, [2.0, 0, 0, 0, 0]) and f.is_even


def test_evenness_is_read_from_the_sine_block():
    a = np.array([0.0, 1.0, 0.5])
    assert PeriodicFunction(a, np.zeros(2)).is_even
    assert not PeriodicFunction(a, np.array([0.0, 1e-300])).is_even
    sine = PeriodicFunction.harmonic(1, kind="sin")
    assert not sine.is_even and (sine - sine).is_even
    assert analyze(np.cos(grid_nodes(16))).is_even
    assert not analyze(np.sin(grid_nodes(16))).is_even


def test_derivative_action():
    f = PeriodicFunction.harmonic(3, 2.0, n_modes=5, kind="cos")
    df = derivative(f)
    x = grid_nodes(32)
    np.testing.assert_allclose(df.eval_at(x), -6.0 * np.sin(3.0 * x), atol=1e-13)
    assert derivative(PeriodicFunction.constant(4.0)).sup_norm() == 0.0


def test_truncated_keeps_and_pads_modes():
    f = PeriodicFunction(np.arange(5.0), np.ones(4))
    g = f.truncated(2)
    assert g.n_modes == 2
    assert g.cos_coeffs[2] == 2.0
    assert f.truncated(8).cos_coeffs[8] == 0.0


def test_tail_energy_fraction():
    a = np.zeros(9)
    a[8] = 3.0
    f = PeriodicFunction(a, np.zeros(8))
    assert f.tail_energy_fraction() == pytest.approx(1.0)
    a2 = np.zeros(9)
    a2[1] = 3.0
    assert PeriodicFunction(a2, np.zeros(8)).tail_energy_fraction() == 0.0


# -- hyperbolic ratios ---------------------------------------------------


def test_scaled_coth_frozen_values():
    assert scaled_coth(np.array([1.0]))[0] == pytest.approx(
        1.3130352854993312, rel=1e-15
    )
    assert scaled_coth(np.array([2.0]))[0] == pytest.approx(
        1.037314720727548, rel=1e-15
    )
    assert scaled_coth(np.array([3.0]))[0] == pytest.approx(
        1.004969823313689, rel=1e-15
    )
    assert scaled_coth(np.array([25.0]))[0] == 1.0


@pytest.mark.parametrize("n", [1, 32, 128])
def test_coth_table_is_cached_read_only_scaled_coth(n):
    for d in DEPTHS:
        table = _coth_table(n, d)
        assert table is _coth_table(n, d)
        assert not table.flags.writeable
        assert table.tobytes() == scaled_coth(np.arange(1, n + 1) * d).tobytes()


def test_ratio_boundary_values():
    modes = np.arange(1, 33)
    for d in DEPTHS:
        y = np.array([-d, 0.0])
        sr = sinh_ratio(modes, y, d)
        cr = cosh_ratio(modes, y, d)
        assert np.all(sr[0] == 0.0)
        assert np.all(sr[1] == 1.0)
        np.testing.assert_allclose(cr[1], scaled_coth(modes * d), rtol=1e-14)
        assert np.all(np.isfinite(sr)) and np.all(np.isfinite(cr))


def test_ratio_no_overflow_large_arguments():
    with np.errstate(over="raise"):
        sr = sinh_ratio(np.arange(1, 200), np.linspace(-10.0, 0.0, 11), 10.0)
    assert np.all(np.isfinite(sr))
    assert np.all(sr >= 0.0)


# -- strip Hilbert transform and Dirichlet-Neumann map -------------------


def test_hilbert_action_on_cosines():
    worst = 0.0
    for d in DEPTHS:
        for n in range(1, 33):
            f = PeriodicFunction.harmonic(n, 1.0, n_modes=n, kind="cos")
            g = hilbert_strip(f, d)
            x = grid_nodes(collocation_size(n))
            expect = 1.0 / math.tanh(n * d) * np.sin(n * x)
            worst = max(worst, float(np.max(np.abs(g.eval_at(x) - expect))))
    assert worst < 1e-10


def test_hilbert_action_on_sines():
    d = 1.0
    f = PeriodicFunction.harmonic(2, 1.0, kind="sin")
    g = hilbert_strip(f, d)
    x = grid_nodes(16)
    np.testing.assert_allclose(
        g.eval_at(x), -1.0 / math.tanh(2.0) * np.cos(2.0 * x), atol=1e-13
    )


def test_hilbert_requires_zero_mean():
    with pytest.raises(MeanNotZero):
        hilbert_strip(PeriodicFunction.constant(1.0, 4), 1.0)


def test_hilbert_strip_depth_validation():
    f = PeriodicFunction.harmonic(1, 1.0, kind="cos")
    a = hilbert_strip(f, np.float32(2.0))
    b = hilbert_strip(f, 2)
    np.testing.assert_array_equal(a.sin_coeffs, b.sin_coeffs)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            hilbert_strip(f, bad)


def test_double_hilbert_is_minus_coth_squared():
    """The genuine finite-depth identity: C_d^2 multiplies mode n by
    -coth(nd)^2, which tends to -1 only in the infinite-depth limit."""
    rng = np.random.default_rng(3)
    for d in DEPTHS:
        a = np.concatenate([[0.0], rng.standard_normal(8)])
        b = rng.standard_normal(8)
        f = PeriodicFunction(a, b)
        g = hilbert_strip(hilbert_strip(f, d), d)
        mult = -scaled_coth(np.arange(1, 9) * d) ** 2
        np.testing.assert_allclose(g.cos_coeffs[1:], mult * a[1:], rtol=1e-13)
        np.testing.assert_allclose(g.sin_coeffs, mult * b, rtol=1e-13)


@pytest.mark.xfail(
    strict=True,
    reason="the involution C_d^2 = -I holds only in the infinite-depth "
    "limit; at finite depth the multiplier is -coth(nd)^2 and the defect "
    "exceeds 1e-10 for every depth in the sweep",
)
def test_double_hilbert_involution():
    worst = 0.0
    for d in DEPTHS:
        for n in range(1, 33):
            f = PeriodicFunction.harmonic(n, 1.0, n_modes=n, kind="cos")
            g = hilbert_strip(hilbert_strip(f, d), d)
            defect = float(np.max(np.abs(g.cos_coeffs[n] + 1.0)))
            worst = max(worst, defect)
    assert worst < 1e-10


def test_dirichlet_neumann_on_constants():
    for d in DEPTHS:
        g = dirichlet_neumann(PeriodicFunction.constant(3.0, 2), d)
        assert g.cos_coeffs[0] == pytest.approx(3.0 / d, rel=1e-15)
        assert g.sup_norm() == pytest.approx(3.0 / d, rel=1e-14)


def test_dirichlet_neumann_factorization():
    """On zero-mean data the map factors through the Hilbert transform
    of the derivative."""
    rng = np.random.default_rng(11)
    for d in DEPTHS:
        a = np.concatenate([[0.0], rng.standard_normal(12)])
        b = rng.standard_normal(12)
        f = PeriodicFunction(a, b)
        lhs = dirichlet_neumann(f, d)
        rhs = hilbert_strip(derivative(f), d)
        np.testing.assert_allclose(lhs.cos_coeffs, rhs.cos_coeffs, atol=1e-12)
        np.testing.assert_allclose(lhs.sin_coeffs, rhs.sin_coeffs, atol=1e-12)


def test_dirichlet_neumann_commutes_with_derivative():
    rng = np.random.default_rng(13)
    f = PeriodicFunction(np.concatenate([[0.0], rng.standard_normal(6)]),
                         rng.standard_normal(6))
    d = 0.7
    lhs = derivative(dirichlet_neumann(f, d))
    rhs = dirichlet_neumann(derivative(f), d)
    np.testing.assert_allclose(lhs.cos_coeffs, rhs.cos_coeffs, atol=1e-12)
    np.testing.assert_allclose(lhs.sin_coeffs, rhs.sin_coeffs, atol=1e-12)


# -- harmonic and conjugate extensions -----------------------------------


def _mixed_function(n_modes=6, seed=5):
    rng = np.random.default_rng(seed)
    return PeriodicFunction(
        rng.standard_normal(n_modes + 1), rng.standard_normal(n_modes)
    )


def test_extension_boundary_rows_exact():
    f = _mixed_function()
    for d in DEPTHS:
        field = harmonic_extension(f, d, strip_rows(16))
        np.testing.assert_allclose(
            field[-1], f.samples(field.shape[1]), atol=1e-13
        )
        assert np.all(field[0] == 0.0)
        y = strip_nodes(16, d)
        assert y[0] == -d and y[-1] == 0.0


@pytest.mark.parametrize("n_x", [None, 21])
@pytest.mark.parametrize(
    "f",
    [
        _mixed_function(),
        PeriodicFunction.harmonic(2, 0.3, n_modes=5),
        PeriodicFunction.harmonic(3, 0.3, n_modes=5, kind="sin"),
        PeriodicFunction.zero(4),
        PeriodicFunction.constant(1.5),
    ],
    ids=["mixed", "cos", "sin", "zero", "constant"],
)
@pytest.mark.parametrize("extension", [harmonic_extension, conjugate_extension])
def test_extensions_return_read_only_grids(extension, f, n_x):
    field = extension(f, 0.7, strip_rows(12), n_x)
    width = collocation_size(f.n_modes) if n_x is None else n_x
    assert type(field) is np.ndarray and field.dtype == np.float64
    assert field.shape == (13, width)
    assert field.flags.c_contiguous and not field.flags.writeable


@pytest.mark.parametrize("n_modes", [0, 3])
@pytest.mark.parametrize("mean", [0.0, -0.0, 0.7])
def test_harmonic_extension_mean_term_keeps_outer_product_bits(mean, n_modes):
    # a zero mean skips the product with the rows; -0.0 still gives -0.0
    constant = PeriodicFunction.constant(mean, n_modes)
    field = harmonic_extension(constant, 0.5, strip_rows(10))
    expect = np.outer(np.arange(11) / 10, np.full(field.shape[1], mean))
    assert np.array_equal(field, expect)
    assert np.array_equal(np.signbit(field), np.signbit(expect))


def test_conjugate_trace_is_hilbert_transform():
    f = _mixed_function()
    f = f - f.mean()
    d = 1.0
    z = conjugate_extension(f, d, strip_rows(8))
    trace = analyze(z[-1]).truncated(f.n_modes)
    expect = hilbert_strip(f, d)
    np.testing.assert_allclose(trace.cos_coeffs, expect.cos_coeffs, atol=1e-12)
    np.testing.assert_allclose(trace.sin_coeffs, expect.sin_coeffs, atol=1e-12)


def test_extensions_conjugate_through_sub_strip_transform():
    """Interior audit: on every horizontal line y0 the conjugate row is
    the strip transform at the reduced depth d + y0 of the (demeaned)
    harmonic row.  Exercises both extensions against an independent
    operator evaluation."""
    f = _mixed_function(8, seed=17)
    d = 1.0
    n_y = 16
    w = harmonic_extension(f, d, strip_rows(n_y))
    z = conjugate_extension(f, d, strip_rows(n_y))
    worst = 0.0
    y = strip_nodes(n_y, d)
    for row in range(1, n_y):
        y0 = y[row]
        trace = analyze(w[row])
        expect = hilbert_strip(trace - trace.mean(), d + y0)
        got = analyze(z[row])
        worst = max(
            worst,
            float(np.max(np.abs(got.cos_coeffs - expect.cos_coeffs))),
            float(np.max(np.abs(got.sin_coeffs - expect.sin_coeffs))),
        )
    assert worst < 1e-12


def test_cauchy_riemann_by_refinement():
    """Finite-difference vertical derivatives of the extension match the
    horizontal derivatives of its conjugate at fourth order in the grid
    spacing (defect drops by about 16 per halving).  Zero-mean data, as
    the mean mode's conjugate is the linear part the caller supplies."""
    f = _mixed_function(4, seed=23)
    f = f - f.mean()
    d = 1.0

    def defect(n_y):
        w = harmonic_extension(f, d, strip_rows(n_y), n_x=64)
        z = conjugate_extension(f, d, strip_rows(n_y), n_x=64)
        hy = d / n_y
        w_y = (-w[4:] + 8.0 * w[3:-1] - 8.0 * w[1:-3] + w[:-4]) / (12.0 * hy)
        zx_rows = [
            derivative(analyze(z[r])).samples(64)
            for r in range(2, n_y - 1)
        ]
        return float(np.max(np.abs(np.array(zx_rows) - w_y)))

    d64, d128 = defect(64), defect(128)
    assert d64 / d128 == pytest.approx(16.0, rel=0.35)


def test_five_point_laplacian_refinement_ratio():
    f = _mixed_function(4, seed=29)
    d = 1.0

    def defect(n_x, n_y):
        v = harmonic_extension(f, d, strip_rows(n_y), n_x=n_x)
        hx = 2.0 * np.pi / n_x
        hy = d / n_y
        lap = (
            (np.roll(v, -1, axis=1) - 2.0 * v + np.roll(v, 1, axis=1)) / hx**2
        )[1:-1] + (v[2:] - 2.0 * v[1:-1] + v[:-2]) / hy**2
        return float(np.max(np.abs(lap)))

    ratio = defect(64, 32) / defect(128, 64)
    assert 3.5 < ratio < 4.5


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_chebyshev_rows_and_coefficients(n):
    # the rows are (1 - cos(pi j / n)) / 2, exact at the bed and the
    # surface, and a Chebyshev series in x = 1 - 2t is recovered from them
    t = chebyshev_rows(n)
    assert t[0] == 0.0 and t[-1] == 1.0
    assert np.all(np.diff(t) > 0.0)
    np.testing.assert_allclose(t, (1.0 - np.cos(np.pi * np.arange(n + 1) / n)) / 2, atol=1e-16)
    coeffs = np.random.default_rng(n).standard_normal((n + 1, 3))
    values = np.polynomial.chebyshev.chebval(1.0 - 2.0 * t, coeffs)
    np.testing.assert_allclose(chebyshev_coefficients(values.T), coeffs, atol=1e-13)


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_chebyshev_matrix_differentiates_to_rounding(n):
    # exp(3t) is resolved to rounding from 16 rows on; the first derivative's
    # rounding grows like n^2 eps and the second's like n^4 eps
    t = chebyshev_rows(n)
    mat = chebyshev_matrix(n)
    f = np.exp(3.0 * t)
    eps = 2.0**-52 * f[-1]
    assert np.max(np.abs(mat @ f - 3.0 * f)) <= 4.0 * n**2 * eps
    assert np.max(np.abs(mat @ (mat @ f) - 9.0 * f)) <= 4.0 * n**4 * eps


def test_cauchy_riemann_on_chebyshev_rows():
    """On Chebyshev rows the extensions are differentiated to rounding: the
    vertical derivative of the extension (chebyshev_matrix over the depth)
    equals the horizontal derivative of its conjugate (by FFT)."""
    f = _mixed_function(6, seed=31)
    f = f - f.mean()
    d, n = 1.0, 32
    w = harmonic_extension(f, d, chebyshev_rows(n), n_x=64)
    z = conjugate_extension(f, d, chebyshev_rows(n), n_x=64)
    w_y = chebyshev_matrix(n) @ w / d
    spec = np.fft.rfft(z, axis=1)
    z_x = np.fft.irfft(spec * 1j * np.arange(spec.shape[1]), n=64, axis=1)
    assert np.max(np.abs(w_y - z_x)) < 1e-11 * np.max(np.abs(w))


def test_harmonic_extension_mean_is_linear_in_y():
    field = harmonic_extension(PeriodicFunction.constant(2.0, 2), 0.5, strip_rows(10))
    frac = np.arange(11) / 10
    np.testing.assert_allclose(field, np.outer(frac, np.full(8, 2.0)), atol=1e-15)
