"""Reconstruction and validation of the modified flow-force field.

Given a corrected surface wave, the conformal change of variables maps
the reference strip onto the fluid domain.  The flow-force density is
rebuilt there in three layers: a potential that is harmonic on the
strip, the hydrostatic quadratic, and a surface-anchored correction
that interpolates the capillary boundary strength linearly in physical
height; the atmospheric pressure, an exact gauge, only adds p_atm*v to
the potential.  The sum is constant along the free surface, vanishes on
the bed, and satisfies a vertical force balance; the bed zero and the gauge
hold by construction (validate_solution).  A wave is sampled once, by its
admissibility gate, and its layers derived once (_layers).  The validator
reads every defect on Chebyshev-Lobatto rows, where y derivatives are
spectral too, so it reports the wave's truncation errors.

The correction layer is pulled back at the surface parameters x_s, which
lie close to the grid nodes: series are evaluated there by their Taylor
expansions about the nodes where a remainder bound makes them exact to
rounding (_even_at), each series' expansion built once per audited
point.  The inversion (SurfaceCurve.invert) is one safeguarded Newton
loop on a bracket that holds every root; it starts from the root of the
expansion and raises SurfaceInversionFailed if it does not converge.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cache

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
    chebyshev_coefficients,
    chebyshev_matrix,
    chebyshev_rows,
    collocation_size,
    derivative,
    grid_nodes,
    harmonic_extension,
    conjugate_extension,
    hilbert_strip,
    strip_rows,
)
from .surface_equation import AdmissibilityReport, residual
from .surface_equation import _admissibility, _admitted

__all__ = [
    "SurfaceCurve",
    "FlowForceField",
    "ValidationReport",
    "conformal_map",
    "reconstruct",
    "laminar_flow_force",
    "validate_solution",
]


@dataclass(frozen=True)
class SurfaceCurve:
    """Physical free surface parametrized by the conformal abscissa.

    The physical abscissa X(x) = x/k + C(w)(x), C(w) the strip conjugate
    of the elevation w, is strictly increasing for admissible waves;
    invert solves X(x) = target.
    """

    elevation: PeriodicFunction
    params: PhysicalParams

    def __post_init__(self):
        conj = hilbert_strip(self.elevation, self.params.strip_depth)
        object.__setattr__(self, "_conjugate", conj)

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


def conformal_map(elevation, p: PhysicalParams, rows, n_x=None):
    """Strip-to-domain map (u, v), read-only arrays laid out as harmonic_extension's.

    The height v is the harmonic extension of depth + elevation with zero
    bottom values; the abscissa u is its harmonic conjugate plus x/k.
    """
    d = p.strip_depth
    v_top = elevation + p.h
    v = harmonic_extension(v_top, d, rows, n_x)
    u = conjugate_extension(v_top, d, rows, n_x) + grid_nodes(v.shape[1]) / p.k
    u.flags.writeable = False
    return u, v


_Layers = namedtuple("_Layers", "surface_value tension tension_samples boundary heights slope")


def _layers(state, p: PhysicalParams, samples):
    """The layers of state under p, none holding p_atm, from its single-row
    _surface_rows samples on collocation_size(N) nodes: S0, the tension strength
    sigma*(1 - (1/k + C(w'))/metric^(1/2)) and the boundary data S0 - tension +
    (g/2)(depth + w)^2 as N-mode cosines; tension, depth + w, 1/k + C(w') there."""
    n = state.elevation.n_modes
    w_s, _, _, _, _, dnv, metric = (a[0] for a in samples)
    v_s = p.h + w_s
    tension = analyze(p.sigma * (1.0 - dnv / np.sqrt(metric))).truncated(n)
    tension_s = tension.samples(v_s.size)
    s0, _ = physical_constants(state.speed_sq, state.bernoulli_shift, p)
    boundary = analyze(s0 - tension_s + 0.5 * p.g * v_s**2).truncated(n)
    return _Layers(s0, tension, tension_s, boundary, v_s, dnv)


@dataclass(frozen=True)
class FlowForceField:
    """Flow-force density and its ingredients on the reference strip grid.

    The five grids u, v (the conformal map), harmonic_potential, raw_force
    and flow_force are read-only (len(rows), n_x) float64 arrays: row m lies
    at the depth fraction rows[m] (reconstruct's are strip_rows(n_y)), from
    the bed (row 0) up, and column j at grid_nodes(n_x)[j].

    flow_force = harmonic_potential - (g/2) v^2 + correction pullback;
    its top trace is the constant surface_value and its bottom trace is
    zero.  The correction layer's boundary strength is
    -p_atm*(depth + elevation) plus the tension strength of _layers; the
    bulk correction is this strength times height/surface height, both
    pulled back at the surface parameter x_s whose physical abscissa
    equals u (see _geometry).  Its atmospheric part pulls back to
    -p_atm*v, cancelling the p_atm*v of harmonic_potential and raw_force;
    flow_force is built without either and is bitwise the same at any p_atm.
    """

    u: np.ndarray
    v: np.ndarray
    harmonic_potential: np.ndarray
    raw_force: np.ndarray
    flow_force: np.ndarray
    surface_value: float


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


def _even_at(f, x_s, expand):
    """An even polynomial at x_s, evaluated on columns 0..n_x//2 and unfolded.

    Column j is summed as f's Taylor expansion about its node x_j,
    expand(f, n_x) (_node_taylor, or a point's cache of it), in
    d = x_s - x_j, when the remainder bound holds at max |d| (_taylor_fits);
    otherwise by f.eval_at.
    """
    n_x = x_s.shape[1]
    half = n_x // 2 + 1
    d = x_s[:, :half] - grid_nodes(n_x)[:half]
    if _taylor_fits(f, float(np.max(np.abs(d)))):
        return _unfold(_horner(expand(f, n_x), d), n_x)
    return _unfold(f.eval_at(x_s[:, :half]), n_x)


def _inversion_start(curve, targets, n_x, expand):
    """Start for inverting X = x/k + C(w) at targets on columns 0..n_x//2:
    the root of X's Taylor polynomial about each node, from a linear guess
    and two Newton steps on the polynomial.  Where the expansion is exact
    to rounding the root is X's root; elsewhere it is a close start, and
    invert's bracket keeps any start safe."""
    nodes = grid_nodes(n_x)[: n_x // 2 + 1]
    coeffs = expand(curve._conjugate, n_x).copy()  # a point's cache shares the table
    coeffs[0] += nodes / curve.params.k
    coeffs[1] += 1.0 / curve.params.k
    d = (targets - coeffs[0]) / coeffs[1]
    slope = coeffs[1:] * np.arange(1, coeffs.shape[0])[:, None]
    for _ in range(2):
        d -= (_horner(coeffs, d) - targets) / _horner(slope, d)
    return nodes + d


def _geometry(curve, rows, n_x, expand):
    """Conformal map (u, v), inverted surface abscissa x_s and heights
    depth + w(x_s) of the curve, all free of p_atm and of the speed.

    The elevation is even, so X(x) = x/k + C(w)(x) is odd about x = pi, as
    is u: columns 0..n_x//2 are inverted, x_s[:, n_x - j] = 2 pi - x_s[:, j].
    The inversion starts from the root of X's node expansion, so where
    that is exact to rounding, invert's first direct summation of C(w) is
    its convergence check and no Newton step is taken; elsewhere invert's
    safeguarded Newton steps finish from that start.
    """
    u, v = conformal_map(curve.elevation, curve.params, rows, n_x)
    n_x = u.shape[1]
    targets = u[:, : n_x // 2 + 1]
    x0 = _inversion_start(curve, targets, n_x, expand)
    x_s = _unfold(curve.invert(targets, x0=x0), n_x, odd=True)
    heights = curve.params.h + _even_at(curve.elevation, x_s, expand)
    x_s.flags.writeable = heights.flags.writeable = False
    return u, v, x_s, heights


def _assemble(layers, p: PhysicalParams, rows, u, v, x_s, heights, expand):
    """The FlowForceField of a wave's _layers under p on the _geometry of rows."""
    zeta = harmonic_extension(layers.boundary, p.strip_depth, rows, u.shape[1])
    xi = zeta - 0.5 * p.g * v**2
    force = xi + _even_at(layers.tension, x_s, expand) * v / heights
    pressure = p.p_atm * v
    zeta, xi = zeta + pressure, xi + pressure
    zeta.flags.writeable = xi.flags.writeable = force.flags.writeable = False
    return FlowForceField(
        u=u,
        v=v,
        harmonic_potential=zeta,
        raw_force=xi,
        flow_force=force,
        surface_value=layers.surface_value,
    )


def reconstruct(state, p: PhysicalParams, n_y=64, n_x=None):
    """Rebuild the flow-force field of a corrected wave on the strip grid.

    state needs speed_sq, bernoulli_shift and an even elevation (any
    TrialState, a BranchPoint too); the samples its layers come from
    decide admissibility first, raising InadmissibleIterate.
    """
    w = state.elevation
    if not w.is_even:
        raise ValueError("elevation must live in the even (cosine) space")
    samples, report = _admissibility(w.cos_coeffs, p, collocation_size(w.n_modes))
    _admitted(report)
    rows = strip_rows(n_y)
    geometry = _geometry(SurfaceCurve(w, p), rows, n_x, _node_taylor)
    return _assemble(_layers(state, p, samples), p, rows, *geometry, _node_taylor)


def laminar_flow_force(height, speed_sq, p: PhysicalParams):
    """Closed-form flow force of the laminar column at physical height y.

    Quadratic in height; equals the surface flow force at height h and
    has vertical derivative speed_sq there.
    """
    y = np.asarray(height, dtype=float)
    return -0.5 * p.g * y**2 + (speed_sq + p.g * p.h) * y


def _laplacian(values, d2):
    """Strip Laplacian of a grid: the per-row second x-derivative through the
    discrete Fourier basis plus d2, the second y-derivative matrix of its rows."""
    spec = np.fft.rfft(values, axis=1)
    modes = np.arange(spec.shape[1])
    return np.fft.irfft(spec * -(modes**2), n=values.shape[1], axis=1) + d2 @ values


def _map_gradient_sq(w, p: PhysicalParams, rows, n_x):
    """|gradient of the height field V|^2 on the strip grid of the depth
    fractions rows and n_x columns: V_x extends w', and V_y is the
    conjugate extension of w' plus 1/k."""
    slope = derivative(w)
    vx = harmonic_extension(slope, p.strip_depth, rows, n_x)
    vy = conjugate_extension(slope, p.strip_depth, rows, n_x) + 1.0 / p.k
    return vx**2 + vy**2


def _correction_curvature(layers):
    """d^2/dX^2 of strength/height along the surface (X the physical abscissa).

    The atmospheric part of that quotient is the constant -p_atm, so the
    tension strength alone gives it, over the layers' surface heights.
    d/dX = d/dx / (1/k + C(w')) acts on the quotient's interpolant on the
    collocation grid with every mode it resolves (2N - 1): the field pulls
    the quotient's modes above N back too, and d^2 weights them by n^2, so
    cutting them at N would leave a bend that the field does not have.
    """
    m = layers.heights.size
    quotient = layers.tension_samples / layers.heights
    for _ in range(2):
        quotient = derivative(analyze(quotient)).samples(m) / layers.slope
    return analyze(quotient)


def _chebyshev_field(curve, layers, expand):
    """A wave's field from its curve and layers on their nodes' columns and the
    fewest Chebyshev rows, 16, 32, 64 or at most 128 intervals, whose last three
    coefficients of S in y are at most 1e-14 max |S|; with n, rows and x_s."""
    n = 16
    while True:
        rows = chebyshev_rows(n)
        geometry = _geometry(curve, rows, layers.heights.size, expand)
        field = _assemble(layers, curve.params, rows, *geometry, expand)
        force = field.flow_force
        tail = np.max(np.abs(chebyshev_coefficients(force)[-3:]))
        if n == 128 or tail <= 1e-14 * np.max(np.abs(force)):
            return n, rows, geometry[2], field
        n *= 2


@dataclass(frozen=True)
class ValidationReport:
    """Defect measurements of a wave's flow-force field, all read on the
    field built on audit_rows Chebyshev intervals in y; force_balance_fine
    is the one force-balance defect; the bed trace and the p_atm gauge,
    which hold by construction, are not reported (validate_solution)."""

    harmonic_defect: float
    surface_trace_defect: float
    residual_sup: float
    force_balance_fine: float
    audit_rows: int
    admissibility: AdmissibilityReport
    failures: tuple
    passed: bool


def validate_solution(state, p: PhysicalParams):
    """Audit the flow-force field of a TrialState against its defining properties.

    Checks, in order: harmonicity of the potential layer, the constant
    surface trace, the surface-equation residual of the wave, and the
    physical force balance lap S / |grad V|^2 = -g + correction
    curvature * v.  An inadmissible surface raises InadmissibleIterate; the
    report keeps the admissibility margins.  No input moves the zero bed
    trace (every layer is exactly zero on the bed row, at depth fraction
    exactly 0) or the p_atm gauge (S is formed before p_atm*v is added), so
    tests pin them (test_wave_traces, test_validation_audits_on_its_own_rows,
    test_field_gauge_invariance) and the report leaves them out.

    The residual is evaluated first: its samples of the elevation decide
    admissibility, so its gate precedes everything else and its report is
    the one kept.  They are its only samples: their _layers serve the field
    of every row count it tries and the correction curvature.  The field is
    built on Chebyshev rows and their collocation_size(N) columns
    (_chebyshev_field).  The surface trace is read on its top row, where the
    rounding of the square of chebyshev_matrix peaks; harmonicity and the
    force balance on its interior rows.  That Laplacian is exact to rounding
    where S is resolved, so both bounds are absolute: 1e-8 of the layer
    scale and 1e-8 max(1, g).  The field and the curvature share the point's
    node expansions.
    """
    w = state.elevation
    diag = {}  # receives the admissibility report and samples of the residual's gate
    residual_sup = residual(state, p, diag=diag).sup_norm()
    layers = _layers(state, p, diag["samples"])
    expand = cache(_node_taylor)  # each series' node expansion, built once for the point
    audit_rows, rows, x_s, field = _chebyshev_field(SurfaceCurve(w, p), layers, expand)
    # d/dy is d/dt over the depth, t the rows' depth fraction
    d2 = np.linalg.matrix_power(chebyshev_matrix(audit_rows) / p.strip_depth, 2)
    flow = field.flow_force
    scale = max(1.0, abs(field.surface_value))

    # the potential layer legitimately carries p_atm-sized values, so
    # its defect is judged against the layer's own magnitude
    zeta = field.harmonic_potential
    layer_scale = max(scale, float(np.max(np.abs(zeta))))
    harmonic = float(np.max(np.abs(_laplacian(zeta, d2)[1:-1])))

    physical = (_laplacian(flow, d2) / _map_gradient_sq(w, p, rows, flow.shape[1]))[1:-1]
    bend = _even_at(_correction_curvature(layers), x_s[1:-1], expand)
    balance = float(np.max(np.abs(physical - (-p.g + bend * field.v[1:-1]))))

    surface_trace = float(np.max(np.abs(flow[-1] - field.surface_value)))

    failures = []
    if not harmonic <= 1e-8 * layer_scale:
        failures.append("potential layer fails the harmonicity audit")
    if surface_trace > 1e-10 * scale:
        failures.append("surface trace deviates from the surface flow force")
    if residual_sup > 1e-9:
        failures.append("surface equation residual above tolerance")
    if not balance <= 1e-8 * max(1.0, p.g):
        failures.append("force balance defect above tolerance")

    return ValidationReport(
        harmonic_defect=harmonic,
        surface_trace_defect=surface_trace,
        residual_sup=residual_sup,
        force_balance_fine=balance,
        audit_rows=audit_rows,
        admissibility=diag["admissibility"],
        failures=tuple(failures),
        passed=not failures,
    )
