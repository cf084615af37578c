"""Quasilinear residual of the free-surface equation and its linearization.

The unknown is the zero-mean even elevation w of the surface in
conformal variables (v = w + h), together with the squared laminar
surface speed (the bifurcation parameter) and a constant Bernoulli
shift.  The residual assembled here is the pointwise left side of the
rewritten surface equation

    (A*(1/k + C(w')) - B*w')^2 / D
      + A*w' + B*(1/k + C(w'))
      + sigma*T * metric
      - (speed_sq + shift + 2*sigma*T - 2*g*w) * metric  =  0

with C = hilbert transform of the strip of depth k*h,
metric = w'^2 + (1/k + C(w'))^2, curvature term
T = (w''/k + w'' C(w') - w' C(w'')) / metric^(3/2), and
D = A*w' + B*(1/k + C(w')) + sigma*T*metric.

A and B are the tangential and normal boundary derivative coefficients
of the conjugated flow-force potential.  The atmospheric pressure is an
exact gauge, left out: its terms p_atm*w' in A, p_atm*(1/k + C(w')) in B
and -p_atm*metric cancel from A*(1/k + C(w')) - B*w' and from D.  One array function,
_residual_rows, evaluates the whole residual for a stack of states (a
leading batch axis) from their _surface_rows samples: residual passes
one state, whose samples first decide admissibility (a graph above the
bed), and jacobian_fd the perturbed states of its central differences
in blocks.  Nonlinear algebra happens on the collocation grid of the
spectral module, whose row-wise synthesis and analysis this module
calls; every transform step truncates back to the working mode count.
"""

from dataclasses import dataclass

import numpy as np

from .dispersion import onset_speed_sq
from .errors import InadmissibleIterate, SingularExpression
from .params import PhysicalParams
from .spectral import (
    PeriodicFunction,
    _coth_table,
    _spectrum,
    _synthesize,
    _trig_matrices,
    collocation_size,
    grid_nodes,
    scaled_coth,
)

__all__ = [
    "PhysicalParams",
    "TrialState",
    "AdmissibilityReport",
    "residual",
    "galerkin_residual",
    "linearization_symbol",
    "jacobian_fd",
    "check_admissibility",
]

_METRIC_FLOOR = 1e-10
# grid values (rows x nodes) per jacobian_fd block; bounds its work arrays
_BLOCK_SAMPLES = 2**14


@dataclass(frozen=True)
class TrialState:
    """One point of the extended unknown space.

    speed_sq : squared laminar surface speed (bifurcation parameter)
    bernoulli_shift : offset of the Bernoulli constant from its laminar value
    elevation : zero-mean even surface elevation in conformal variables
    """

    speed_sq: float
    bernoulli_shift: float
    elevation: PeriodicFunction

    def __post_init__(self):
        w = self.elevation
        if not w.is_even:
            raise ValueError("elevation must live in the even (cosine) space")
        scale = max(1.0, float(np.abs(w.cos_coeffs).max()))
        if abs(w.mean()) > 1e-12 * scale:
            raise ValueError("elevation must have zero mean")


def _unknowns(state, n):
    """theta = (speed_sq, bernoulli_shift, a_1..a_N) of a state, and its a_0.

    The elevation is padded or truncated to N modes.
    """
    a = state.elevation.cos_coeffs[: n + 1]
    theta = np.zeros(n + 2)
    theta[0], theta[1], theta[2 : a.size + 1] = state.speed_sq, state.bernoulli_shift, a[1:]
    return theta, a[0]


def _trial_state(theta, a0):
    """The TrialState of unknowns theta and elevation mean a0."""
    w = PeriodicFunction.from_cosines(np.concatenate(([a0], theta[2:])))
    return TrialState(float(theta[0]), float(theta[1]), w)


def _guard(values, floor, describe):
    """Raise SingularExpression for the first row whose minimum is below floor."""
    low = values.min(axis=1)
    bad = (low < floor).nonzero()[0]
    if bad.size:
        row = values[bad[0]]
        j = int(np.argmin(row))
        raise SingularExpression(
            describe(float(row[j])),
            node_x=float(grid_nodes(row.size)[j]),
            value=float(row[j]),
        )
    return low


def _strip_transform(values, n, coth, label, diag):
    """Apply the strip Hilbert transform to the grid values of an odd field.

    The analytic arguments are exact x-derivatives, odd: their cosine
    half, mean included, is aliasing dust, zero in exact arithmetic, so
    only their sine modes 1..N are synthesized; diag records the mean,
    the only cosine analyzed, and only when diag is given.
    """
    a, b = _spectrum(values, cosines=diag is not None)
    if diag is not None:
        diag.setdefault("subtracted_means", {})[label] = float(a[0, 0])
    return _synthesize(-coth * b[:, :n], _trig_matrices(values.shape[1], n)[0])


def _surface_rows(cos_coeffs, p: PhysicalParams, m):
    """Samples of B even elevations, cos_coeffs of shape (B, N + 1), on m nodes.

    Returns the (B, m) arrays w, w', w'', C(w'), C(w''), 1/k + C(w') and the
    metric w'^2 + (1/k + C(w'))^2, with C the strip Hilbert transform.
    """
    modes = np.arange(1, cos_coeffs.shape[1])
    coth = _coth_table(modes.size, p.strip_depth)
    cos_mat, sin_mat = _trig_matrices(m, modes.size)
    a = cos_coeffs[:, 1:]
    wp_sin = -modes * a
    wpp_cos = modes * wp_sin
    w = cos_coeffs[:, :1] + _synthesize(a, cos_mat)
    wp = _synthesize(wp_sin, sin_mat)
    wpp = _synthesize(wpp_cos, cos_mat)
    cwp = _synthesize(-coth * wp_sin, cos_mat)
    cwpp = _synthesize(coth * wpp_cos, sin_mat)
    dnv = 1.0 / p.k + cwp
    return w, wp, wpp, cwp, cwpp, dnv, wp**2 + dnv**2


def _residual_rows(speed_sq, shift, samples, p: PhysicalParams, n, diag=None):
    """Galerkin residual modes r_0..r_n of a stack of B states.

    speed_sq and shift have shape (B,), samples are the _surface_rows
    arrays of the elevations on collocation_size(n) nodes; the result has
    shape (B, n + 1).  A row's result does not depend on the rows beside
    it.  Admissibility is not checked here (residual gates it); each
    guard raises for the first offending row; diag describes row 0.
    """
    w, wp, wpp, cwp, cwpp, dnv, metric = samples
    low_metric = _guard(
        metric, _METRIC_FLOOR,
        lambda low: f"metric factor {low:.3e} below floor {_METRIC_FLOOR:.0e}",
    )
    metric32 = metric**1.5
    tnum = wpp / p.k + wpp * cwp - wp * cwpp
    t_s = tnum / metric32
    # tangential coefficient A
    a_s = -p.sigma * wp * tnum / metric32
    # normal coefficient B
    sq = np.sqrt(metric)
    den = sq * (dnv + sq)
    _guard(
        np.abs(den), _METRIC_FLOOR,
        lambda low: f"bracket denominator {low:.3e} below floor",
    )
    wp2 = wp**2
    m = w.shape[1]  # means are sum / m: ndarray.mean's arithmetic without its Python wrapper
    bracket = (wp2 / den).sum(axis=1) / m
    n_coth = _coth_table(n, p.strip_depth)
    g_inner = _strip_transform(w * wp, n, n_coth, "w*w'", diag)
    flux = (cwpp * wp2 - dnv * wpp * wp) / metric32
    flux_t = _strip_transform(flux, n, n_coth, "curvature flux", diag)
    kh = p.k * p.h
    g_part = (
        ((w**2).sum(axis=1) / m / (2.0 * kh))[:, None]
        - w / p.k
        + g_inner
        - w * cwp
    )
    if diag is not None:
        diag["bracket_average"] = float(bracket[0])
    b_s = (
        (speed_sq / p.k - (p.sigma / kh) * bracket)[:, None]
        + p.g * g_part
        + p.sigma * flux_t
    )
    aw = a_s * wp
    bd = b_s * dnv
    tm = p.sigma * t_s * metric
    d_s = aw + bd + tm
    floor = 1e-8 * onset_speed_sq(1, p.k, p)
    low_d = _guard(
        np.abs(d_s), floor,
        lambda low: f"quotient denominator {low:.3e} below floor {floor:.3e}",
    )
    res = (
        (a_s * dnv - b_s * wp) ** 2 / d_s
        + aw
        + bd
        + tm
        - ((speed_sq + shift)[:, None] + 2.0 * p.sigma * t_s - 2.0 * p.g * w) * metric
    )
    full = _spectrum(res, sines=False)[0]
    if diag is not None:
        diag["min_quotient_denominator"] = float(low_d[0])
        diag["min_metric"] = float(low_metric[0])
    return full[:, : n + 1]


def residual(state: TrialState, p: PhysicalParams, n_modes=None, diag=None):
    """Pointwise residual of the rewritten surface equation (even space).

    Vanishes identically on the trivial branch with zero shift and
    equals -shift/k^2 for any constant shift.  The elevation is sampled
    once; those samples decide admissibility first, so an inadmissible
    surface raises InadmissibleIterate before any residual guard, and
    diag, when given, records the report as diag["admissibility"] and the
    _surface_rows samples as diag["samples"].
    """
    n = state.elevation.n_modes if n_modes is None else int(n_modes)
    samples, report = _admissibility(state.elevation.cos_coeffs, p, collocation_size(n))
    _admitted(report)
    if diag is not None:
        diag["admissibility"], diag["samples"] = report, samples
    speed_sq, shift = np.array([state.speed_sq]), np.array([state.bernoulli_shift])
    return PeriodicFunction.from_cosines(_residual_rows(speed_sq, shift, samples, p, n, diag)[0])


def galerkin_residual(state: TrialState, p: PhysicalParams, n_modes=None, diag=None):
    """Cosine-mode projections r_n, n = 0..N, of the residual."""
    return residual(state, p, n_modes=n_modes, diag=diag).cos_coeffs.copy()


def linearization_symbol(speed_sq, mode, p: PhysicalParams):
    """Diagonal action m_n of the trivial-state linearization on cos(nx).

    m_n = -(1/k^2) (speed_sq * k n coth(n k h) - sigma k^2 n^2 - g);
    the constant mode responds to the Bernoulli shift with -1/k^2.
    """
    mode = int(mode)
    if mode < 1:
        raise ValueError("mode index must be >= 1")
    k = p.k
    coth = float(scaled_coth(np.array([mode * k * p.h]))[0])
    return -(speed_sq * k * mode * coth - p.sigma * k * k * mode * mode - p.g) / (k * k)


def jacobian_fd(state: TrialState, p: PhysicalParams, active=None, n_modes=None):
    """Central-difference Jacobian of the Galerkin residual.

    The unknowns are theta = (speed_sq, bernoulli_shift, a_1..a_N), with
    the elevation padded or truncated to N modes and its mean a_0 held
    fixed.  Rows are the projection modes n = 0..N; columns follow
    `active`, a sequence of indices into theta (default: all N + 2).
    Step per unknown: 1e-6 * max(1, |value|).  The perturbed
    states are evaluated together, in blocks of about _BLOCK_SAMPLES
    grid values, each block once.  A failing block raises the first
    guard, in the residual's order, that any of its states fails,
    reported at the first such state in column order.
    """
    n = state.elevation.n_modes if n_modes is None else int(n_modes)
    theta, a0 = _unknowns(state, n)
    cols = np.arange(n + 2) if active is None else np.asarray(active, dtype=np.intp)
    eps = 1e-6 * np.maximum(1.0, np.abs(theta[cols]))
    jac = np.empty((n + 1, cols.size))
    m = collocation_size(n)
    per_block = max(1, _BLOCK_SAMPLES // (2 * m))
    for start in range(0, cols.size, per_block):
        col, step = cols[start : start + per_block], eps[start : start + per_block]
        # rows 2i and 2i+1 move unknown col[i] up and down
        rows = np.tile(theta, (2 * col.size, 1))
        rows[0::2][np.arange(col.size), col] = theta[col] + step
        rows[1::2][np.arange(col.size), col] = theta[col] - step
        samples = _surface_rows(np.insert(rows[:, 2:], 0, a0, axis=1), p, m)
        r = _residual_rows(rows[:, 0], rows[:, 1], samples, p, n)
        jac[:, start : start + col.size] = ((r[0::2] - r[1::2]) / (2.0 * step[:, None])).T
    return jac


@dataclass(frozen=True)
class AdmissibilityReport:
    """Margins of the physical admissibility guards; all must be positive."""

    min_surface_height: float
    min_abscissa_slope: float
    min_metric: float
    monotone_graph: bool
    failures: tuple
    passed: bool


def _surface_abscissa(cos_coeffs, p: PhysicalParams, m):
    """The physical abscissae x/k + C(w) of B even elevations, cos_coeffs of
    shape (B, N + 1), on m nodes; C(w) is the sine series coth(n d) a_n sin(nx)."""
    coth = _coth_table(cos_coeffs.shape[1] - 1, p.strip_depth)
    conj = _synthesize(coth * cos_coeffs[:, 1:], _trig_matrices(m, coth.size)[1])
    return grid_nodes(m) / p.k + conj


# an overflowing sample reads inf or nan, not a warning; a nan fails each margin it enters
@np.errstate(over="ignore", invalid="ignore")
def _admissibility(cos_coeffs, p: PhysicalParams, m):
    """The single-row _surface_rows samples of one elevation, cosines
    a_0..a_N, on m nodes, and their AdmissibilityReport; besides them only
    the abscissa of the monotone-graph test (_surface_abscissa) is synthesized."""
    samples = _surface_rows(cos_coeffs[None, :], p, m)
    w, _, _, _, _, dnv, metric = samples
    surface_x = _surface_abscissa(cos_coeffs[None, :], p, m)[0]
    period_end = surface_x[0] + 2.0 * np.pi / p.k  # the first node, one period on
    # strictly increasing nodes, the last one below period_end
    monotone = bool((surface_x[1:] > surface_x[:-1]).all() and period_end > surface_x[-1])
    min_height, min_slope, min_metric = float(w.min()) + p.h, float(dnv.min()), float(metric.min())
    failures = tuple(
        failure
        for ok, failure in (
            (min_height > 0.0, "surface touches bed"),
            (min_slope > 0.0, "abscissa slope not positive"),
            (min_metric > 0.0, "degenerate surface metric"),
            (monotone, "graph map not monotone"),
        )
        if not ok
    )
    return samples, AdmissibilityReport(
        min_height, min_slope, min_metric, monotone, failures, not failures
    )


def _admitted(report):
    """The toolkit's one admissibility gate: InadmissibleIterate unless report passed."""
    if not report.passed:
        raise InadmissibleIterate(
            "surface is not an admissible graph: " + "; ".join(report.failures)
        )


def check_admissibility(w, p: PhysicalParams):
    """Evaluate the admissibility guards on the collocation grid.

    Violations are reported in `failures`; only a w with a sine raises.
    """
    if not w.is_even:
        raise ValueError("elevation must live in the even (cosine) space")
    return _admissibility(w.cos_coeffs, p, collocation_size(w.n_modes))[1]
