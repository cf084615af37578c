"""Reconstruction and validation of the modified flow-force field.

Given a corrected surface wave, the conformal change of variables maps
the reference strip onto the fluid domain.  The flow-force density is
rebuilt there in three layers: a potential that is harmonic on the
strip, the hydrostatic quadratic, and a surface-anchored correction
that interpolates the capillary boundary strength linearly in physical
height; the atmospheric pressure, an exact gauge, only adds p_atm*v to
the potential.  The sum is constant along the free surface, vanishes on
the bed, and satisfies a vertical force balance whose defect the
validator measures by grid refinement.

The correction layer is pulled back at the surface parameters x_s, which
lie close to the grid nodes: series are evaluated there by their Taylor
expansions about the nodes where a remainder bound makes them exact to
rounding (_even_at).  The inversion (SurfaceCurve.invert) is one
safeguarded Newton loop on a bracket that holds every root; it starts
from the root of the expansion and raises SurfaceInversionFailed if it
does not converge.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import physical_constants
from .errors import SurfaceInversionFailed
from .params import PhysicalParams
from .spectral import (
    PeriodicFunction,
    _eval_points,
    _eval_sums,
    _node_taylor,
    _taylor_fits,
    analyze,
    collocation_size,
    derivative,
    eval_many,
    grid_nodes,
    harmonic_extension,
    conjugate_extension,
    hilbert_strip,
)
from .surface_equation import AdmissibilityReport, TrialState, check_admissibility, residual
from .surface_equation import _admitted, _surface_rows

__all__ = [
    "SurfaceCurve",
    "FlowForceField",
    "ValidationReport",
    "surface_curve",
    "conformal_map",
    "reconstruct",
    "laminar_flow_force",
    "validate_solution",
]

MIN_VALIDATION_ROWS = 8  # vertical intervals validate_solution needs


@dataclass(frozen=True)
class SurfaceCurve:
    """Physical free surface parametrized by the conformal abscissa.

    The physical abscissa X(x) = x/k + C(w)(x), C(w) the strip conjugate
    of the elevation w, is strictly increasing for admissible waves;
    profile(x) gives it with the height depth + w(x), and invert solves
    X(x) = target.
    """

    elevation: PeriodicFunction
    params: PhysicalParams

    def __post_init__(self):
        conj = hilbert_strip(self.elevation, self.params.strip_depth)
        object.__setattr__(self, "_conjugate", conj)

    def profile(self, x):
        """(x/k + C(w)(x), depth + w(x)) from one shared evaluation pass."""
        x = np.asarray(x, dtype=float)
        conj, w = eval_many((self._conjugate, self.elevation), x)
        return x / self.params.k + conj, self.params.h + w

    def invert(self, targets, x0=None):
        """Solve x/k + C(w)(x) = target elementwise (safeguarded Newton).

        Each pass sums C(w) at the iterate on one point setup
        (_eval_points) and returns once every defect is at most
        1e-13 * max(1, |targets|).  Before the first step it builds the
        slope conjugate C(w') and the bracket k t -+ k B, B the coefficient
        sum of C(w), which holds every root since |C(w)| <= B; each pass
        narrows the bracket by the sign of the defect and keeps the Newton
        iterate where it lies in the bracket, else takes its midpoint.
        Raises SurfaceInversionFailed after 60 passes.
        """
        t = np.asarray(targets, dtype=float)
        k = self.params.k
        x = k * t if x0 is None else np.array(x0, dtype=float)
        tol = 1e-13 * max(1.0, float(np.max(np.abs(t))))
        slope_conj = None
        for _ in range(60):
            points = _eval_points(x)
            f = x / k + _eval_sums(self._conjugate, points, x.shape) - t
            err = float(np.max(np.abs(f)))
            if err <= tol:
                return x
            if slope_conj is None:
                slope_conj = hilbert_strip(derivative(self.elevation), self.params.strip_depth)
                c = self._conjugate
                bound = k * (np.sum(np.abs(c.cos_coeffs)) + np.sum(np.abs(c.sin_coeffs)))
                lo, hi = k * t - bound, k * t + bound
            lo, hi = np.where(f < 0.0, x, lo), np.where(f > 0.0, x, hi)
            x = x - f / (1.0 / k + _eval_sums(slope_conj, points, x.shape))
            x = np.where((lo <= x) & (x <= hi), x, 0.5 * (lo + hi))
        raise SurfaceInversionFailed(f"surface abscissa inversion stalled at defect {err:.3e}")


def surface_curve(elevation, p: PhysicalParams):
    """Admissibility-gated construction of the physical surface curve."""
    _admitted(check_admissibility(elevation, p))
    return SurfaceCurve(elevation, p)


def conformal_map(elevation, p: PhysicalParams, n_y, n_x=None):
    """Strip-to-domain map (u, v), read-only arrays laid out as harmonic_extension's.

    The height v is the harmonic extension of depth + elevation with zero
    bottom values; the abscissa u is its harmonic conjugate plus x/k.
    """
    d = p.strip_depth
    v_top = elevation + p.h
    v = harmonic_extension(v_top, d, n_y, n_x)
    u = conjugate_extension(v_top, d, n_y, n_x) + grid_nodes(v.shape[1]) / p.k
    u.flags.writeable = False
    return u, v


def _correction_strength(w, p: PhysicalParams):
    """The tension strength sigma*(1 - (1/k + C(w'))/metric^(1/2)) as a cosine
    polynomial, with the grid size m and its samples of depth + w and 1/k + C(w')."""
    m = collocation_size(w.n_modes)
    w_s, _, _, _, _, dnv, metric = _surface_rows(w.cos_coeffs[None, :], p, m)
    v_s, dnv = p.h + w_s[0], dnv[0]
    e0 = p.sigma * (1.0 - dnv / np.sqrt(metric[0]))
    return analyze(e0).truncated(w.n_modes), m, v_s, dnv


@dataclass(frozen=True)
class FlowForceField:
    """Flow-force density and its ingredients on the reference strip grid.

    The five grids u, v, harmonic_potential, raw_force and flow_force are
    read-only (n_y + 1, n_x) float64 arrays: row m lies at strip_nodes(n_y,
    p.strip_depth)[m], from the bed (row 0) up, and column j at grid_nodes(n_x)[j].

    flow_force = harmonic_potential - (g/2) v^2 + correction pullback;
    its top trace is the constant surface_value and its bottom trace is
    zero.  u and v are the conformal map components; surface_abscissa
    holds, per grid node, the surface parameter x_s whose physical
    abscissa equals u there (the inversion the correction pullback is
    built on), and surface_height the height depth + w(x_s) there.  Both
    are computed on columns 0..n_x//2 and mirrored across x = pi (see
    _geometry).  correction is the boundary strength of the correction
    layer, -p_atm*(depth + elevation) + sigma*(1 - (1/k + C(w'))/metric^(1/2))
    as a trigonometric polynomial; the bulk correction is this strength
    times height/surface height.  Its atmospheric part pulls back to
    -p_atm*v, cancelling the p_atm*v of harmonic_potential and raw_force;
    flow_force is built without either and is bitwise the same at any p_atm.
    """

    u: np.ndarray
    v: np.ndarray
    harmonic_potential: np.ndarray
    raw_force: np.ndarray
    flow_force: np.ndarray
    surface_value: float
    correction: PeriodicFunction
    surface_abscissa: np.ndarray
    surface_height: np.ndarray


def _unfold(half, n_x, odd=False):
    """The n_x columns of a grid field from its columns 0..n_x//2: column
    n_x - j is column j (even about x = pi) or, if odd, 2 pi minus it."""
    tail = half[:, n_x - half.shape[1] : 0 : -1]
    return np.concatenate((half, 2.0 * np.pi - tail if odd else tail), axis=1)


def _horner(coeffs, d):
    """sum_q coeffs[q] d^q, coeffs (M + 1, columns) against d (rows, columns)."""
    out = coeffs[-1] * d
    for c in coeffs[-2:0:-1]:
        out += c
        out *= d
    out += coeffs[0]
    return out


def _even_at(f, x_s):
    """An even polynomial at x_s, evaluated on columns 0..n_x//2 and unfolded.

    Column j is summed as f's Taylor expansion about its node x_j
    (_node_taylor) in d = x_s - x_j, when the remainder bound holds at
    max |d| (_taylor_fits); otherwise by f.eval_at.
    """
    n_x = x_s.shape[1]
    half = n_x // 2 + 1
    d = x_s[:, :half] - grid_nodes(n_x)[:half]
    if _taylor_fits(f, float(np.max(np.abs(d)))):
        return _unfold(_horner(_node_taylor(f, n_x), d), n_x)
    return _unfold(f.eval_at(x_s[:, :half]), n_x)


def _inversion_start(curve, targets, n_x):
    """Start for inverting X = x/k + C(w) at targets on columns 0..n_x//2:
    the root of X's Taylor polynomial about each node, from a linear guess
    and two Newton steps on the polynomial.  Where the expansion is exact
    to rounding the root is X's root; elsewhere it is a close start, and
    invert's bracket keeps any start safe."""
    nodes = grid_nodes(n_x)[: n_x // 2 + 1]
    coeffs = _node_taylor(curve._conjugate, n_x)
    coeffs[0] += nodes / curve.params.k
    coeffs[1] += 1.0 / curve.params.k
    d = (targets - coeffs[0]) / coeffs[1]
    slope = coeffs[1:] * np.arange(1, coeffs.shape[0])[:, None]
    for _ in range(2):
        d -= (_horner(coeffs, d) - targets) / _horner(slope, d)
    return nodes + d


def _geometry(curve, n_y, n_x):
    """Conformal map (u, v), inverted surface abscissa x_s and heights
    depth + w(x_s) of the curve, all free of p_atm and of the speed.

    The elevation is even, so X(x) = x/k + C(w)(x) is odd about x = pi, as
    is u: columns 0..n_x//2 are inverted, x_s[:, n_x - j] = 2 pi - x_s[:, j].
    The inversion starts from the root of X's node expansion, so where
    that is exact to rounding, invert's first direct summation of C(w) is
    its convergence check and no Newton step is taken; elsewhere invert's
    safeguarded Newton steps finish from that start.
    """
    u, v = conformal_map(curve.elevation, curve.params, n_y, n_x)
    n_x = u.shape[1]
    targets = u[:, : n_x // 2 + 1]
    x0 = _inversion_start(curve, targets, n_x)
    x_s = _unfold(curve.invert(targets, x0=x0), n_x, odd=True)
    heights = curve.params.h + _even_at(curve.elevation, x_s)
    x_s.flags.writeable = heights.flags.writeable = False
    return u, v, x_s, heights


def _assemble(state, p: PhysicalParams, u, v, x_s, heights):
    """The FlowForceField of state under p on the geometry of _geometry."""
    w = state.elevation
    tension, m, v_s, _ = _correction_strength(w, p)
    s0, _ = physical_constants(state.speed_sq, state.bernoulli_shift, p)
    boundary = analyze(s0 - tension.samples(m) + 0.5 * p.g * v_s**2).truncated(w.n_modes)
    zeta = harmonic_extension(boundary, p.strip_depth, u.shape[0] - 1, u.shape[1])
    xi = zeta - 0.5 * p.g * v**2
    force = xi + _even_at(tension, x_s) * v / heights
    pressure = p.p_atm * v
    zeta, xi = zeta + pressure, xi + pressure
    zeta.flags.writeable = xi.flags.writeable = force.flags.writeable = False
    return FlowForceField(
        u=u,
        v=v,
        harmonic_potential=zeta,
        raw_force=xi,
        flow_force=force,
        surface_value=s0,
        correction=tension - PeriodicFunction.from_cosines(p.p_atm * (w + p.h).cos_coeffs),
        surface_abscissa=x_s,
        surface_height=heights,
    )


def reconstruct(state, p: PhysicalParams, n_y=64, n_x=None):
    """Rebuild the flow-force field of a corrected wave on the strip grid.

    state needs speed_sq, bernoulli_shift and elevation attributes
    (trial states and branch points both qualify).
    """
    curve = surface_curve(state.elevation, p)
    return _assemble(state, p, *_geometry(curve, n_y, n_x))


def laminar_flow_force(height, speed_sq, p: PhysicalParams):
    """Closed-form flow force of the laminar column at physical height y.

    Quadratic in height; equals the surface flow force at height h and
    has vertical derivative speed_sq there.
    """
    y = np.asarray(height, dtype=float)
    return -0.5 * p.g * y**2 + (speed_sq + p.g * p.h) * y


def _five_point_laplacian(values, depth):
    """Second-order Laplacian on interior rows (periodic in x)."""
    n_y = values.shape[0] - 1
    n_x = values.shape[1]
    hx = 2.0 * np.pi / n_x
    hy = depth / n_y
    lap_x = (np.roll(values, -1, axis=1) - 2.0 * values + np.roll(values, 1, axis=1)) / hx**2
    lap_y = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / hy**2
    return lap_x[1:-1] + lap_y


def _spectral_xx(values):
    """Per-row second x-derivative through the discrete Fourier basis."""
    n_x = values.shape[1]
    spec = np.fft.rfft(values, axis=1)
    modes = np.arange(spec.shape[1])
    return np.fft.irfft(spec * -(modes**2), n=n_x, axis=1)


def _hi_order_laplacian(values, depth):
    """Spectral-x plus fourth-order-y Laplacian on rows 2..n_y-2."""
    n_y = values.shape[0] - 1
    if n_y < 5:
        raise ValueError("need at least five vertical intervals")
    hy = depth / n_y
    lap_x = _spectral_xx(values)[2:-2]
    lap_y = (
        -values[:-4] + 16.0 * values[1:-3] - 30.0 * values[2:-2]
        + 16.0 * values[3:-1] - values[4:]
    ) / (12.0 * hy**2)
    return lap_x + lap_y


def _map_gradient_sq(w, p: PhysicalParams, n_y, n_x):
    """|gradient of the height field V|^2 on the (n_y + 1, n_x) strip grid:
    V_x extends w', and V_y is the conjugate extension of w' plus 1/k."""
    slope = derivative(w)
    vx = harmonic_extension(slope, p.strip_depth, n_y, n_x)
    vy = conjugate_extension(slope, p.strip_depth, n_y, n_x) + 1.0 / p.k
    return vx**2 + vy**2


def _correction_curvature(w, p: PhysicalParams):
    """d^2/dX^2 of strength/height along the surface (X the physical abscissa).

    The atmospheric part of that quotient is the constant -p_atm, so the
    tension strength alone gives it.  d/dX = d/dx / (1/k + C(w')) acts on
    the quotient's n-mode interpolant.
    """
    n = w.n_modes
    tension, m, v_s, dnv = _correction_strength(w, p)
    quotient = tension.samples(m) / v_s
    for _ in range(2):
        quotient = derivative(analyze(quotient).truncated(n)).samples(m) / dnv
    return analyze(quotient).truncated(n)


def _force_balance_defect(field, curvature, w, p):
    """Sup defect of lap(S) = -g + correction curvature, FD against spectral.

    field is a reconstruction of w under p.  The Laplacian is taken in
    physical variables (five-point stencil on the strip divided by the
    conformal factor); the curvature is evaluated at the field's inverted
    surface abscissa.
    """
    grad_sq = _map_gradient_sq(w, p, field.u.shape[0] - 1, field.u.shape[1])
    lap = _five_point_laplacian(field.flow_force, p.strip_depth)
    physical = lap / grad_sq[1:-1]
    bend = _even_at(curvature, field.surface_abscissa[1:-1])
    target = -p.g + bend * field.v[1:-1]
    return float(np.max(np.abs(physical - target)))


@dataclass(frozen=True)
class ValidationReport:
    """Defect measurements of a reconstructed flow-force field.

    harmonic_defect uses the high-order stencil; the coarse/fine pairs
    use the five-point stencil at the base and doubled resolutions, and
    the orders are their dyadic refinement exponents.
    """

    harmonic_defect: float
    harmonic_defect_coarse: float
    harmonic_defect_fine: float
    harmonic_ratio: float
    harmonic_order: float
    surface_trace_defect: float
    bottom_trace_defect: float
    residual_sup: float
    gauge_defect: float
    force_balance_coarse: float
    force_balance_fine: float
    force_balance_order: float
    admissibility: AdmissibilityReport
    failures: tuple
    passed: bool


def _refinement_order(coarse, fine, floor):
    if fine <= floor and coarse <= floor:
        return math.inf, math.inf
    ratio = coarse / max(fine, 1e-300)
    return ratio, math.log2(ratio) if ratio > 0.0 else -math.inf


def validate_solution(field: FlowForceField, state, p: PhysicalParams):
    """Audit a reconstructed field against its defining properties.

    Checks, in order: harmonicity of the potential layer (absolute
    high-order defect plus five-point refinement order), the constant
    surface trace and zero bottom trace, the surface-equation residual
    of the generating wave, gauge invariance under a shift of the
    atmospheric pressure, and the physical force balance with the
    correction curvature.  An inadmissible surface raises
    InadmissibleIterate; the report keeps the admissibility margins.

    Work per call: one surface-equation residual, evaluated first; its
    samples of the elevation also decide admissibility, so its gate
    precedes everything else and its report is the one kept.  Then one
    doubled-grid field (one surface inversion on half its columns, one
    assembly) for the refined harmonicity check and the fine force
    balance; the coarse audits read the input field, and the gauge audit
    assembles on its geometry (free of p_atm and of the speed).  Both
    force balances share one correction curvature.  Even polynomials at
    x_s are evaluated on the inverted columns and mirrored, by their node
    expansions where the remainder bound holds (_even_at); the inversion
    starts from the root of X's expansion and takes one summation pass.
    """
    zeta, d = field.harmonic_potential, p.strip_depth
    n_y, n_x = zeta.shape[0] - 1, zeta.shape[1]
    if n_y < MIN_VALIDATION_ROWS:
        raise ValueError(
            f"validation needs at least {MIN_VALIDATION_ROWS} vertical intervals"
        )
    w = state.elevation
    trial = TrialState(state.speed_sq, state.bernoulli_shift, w)
    diag = {}  # receives the admissibility report of the residual's gate
    residual_sup = residual(trial, p, diag=diag).sup_norm()
    fine_field = _assemble(trial, p, *_geometry(SurfaceCurve(w, p), 2 * n_y, 2 * n_x))
    scale = max(1.0, abs(field.surface_value))

    # the potential layer legitimately carries p_atm-sized values, so
    # its stencil defects are judged against the layer's own magnitude
    layer_scale = max(scale, float(np.max(np.abs(zeta))))
    harmonic_hi = float(np.max(np.abs(_hi_order_laplacian(zeta, d))))
    coarse = float(np.max(np.abs(_five_point_laplacian(zeta, d))))
    fine = float(np.max(np.abs(_five_point_laplacian(fine_field.harmonic_potential, d))))
    floor = 1e-10 * layer_scale
    ratio, order = _refinement_order(coarse, fine, floor)

    surface_trace = float(np.max(np.abs(field.flow_force[-1] - field.surface_value)))
    bottom_trace = float(np.max(np.abs(field.flow_force[0])))

    geometry = (field.u, field.v, field.surface_abscissa, field.surface_height)
    gauged = _assemble(trial, p.replace(p_atm=p.p_atm + 101325.0), *geometry)
    flow = field.flow_force
    gauge = float(np.max(np.abs(gauged.flow_force - flow)))
    gauge /= max(1.0, float(np.max(np.abs(flow))))

    balance_floor = 1e-10 * max(1.0, p.g)
    curvature = _correction_curvature(w, p)
    balance_coarse, balance_fine = (
        _force_balance_defect(f, curvature, w, p) for f in (field, fine_field)
    )
    _, balance_order = _refinement_order(balance_coarse, balance_fine, balance_floor)

    failures = []
    if harmonic_hi > 1e-8 * layer_scale:
        failures.append("potential layer fails the high-order harmonicity audit")
    if not order >= 1.0:
        failures.append("harmonic defect does not shrink at first order")
    if surface_trace > 1e-10 * scale:
        failures.append("surface trace deviates from the surface flow force")
    if bottom_trace > 1e-10 * scale:
        failures.append("bottom trace is not zero")
    if residual_sup > 1e-9:
        failures.append("surface equation residual above tolerance")
    if gauge > 1e-9:
        failures.append("field is not gauge invariant")
    if not balance_order >= 1.0:
        failures.append("force balance defect does not shrink at first order")

    return ValidationReport(
        harmonic_defect=harmonic_hi,
        harmonic_defect_coarse=coarse,
        harmonic_defect_fine=fine,
        harmonic_ratio=ratio,
        harmonic_order=order,
        surface_trace_defect=surface_trace,
        bottom_trace_defect=bottom_trace,
        residual_sup=residual_sup,
        gauge_defect=gauge,
        force_balance_coarse=balance_coarse,
        force_balance_fine=balance_fine,
        force_balance_order=balance_order,
        admissibility=diag["admissibility"],
        failures=tuple(failures),
        passed=not failures,
    )
