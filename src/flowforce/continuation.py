"""Small-amplitude branch tracing by amplitude-parametrized Newton steps.

Away from mode collisions the laminar flow sheds a curve of genuinely
periodic even waves.  The branch is parametrized by the first cosine
coefficient s of the elevation: s is frozen, and Newton's method solves
the Galerkin system for the squared surface speed, the Bernoulli shift
and the remaining coefficients a_2..a_N.  Successive amplitudes are
warm-started from the previous corrected state.
"""

from dataclasses import dataclass

import numpy as np

from .dispersion import kernel_is_simple, onset_speed_sq, transversality_value
from .errors import (
    FlowForceError,
    InadmissibleIterate,
    KernelNotSimple,
    NoConvergence,
    SingularJacobian,
)
from .params import PhysicalParams
from .spectral import PeriodicFunction, derivative, grid_nodes
from .surface_equation import (
    TrialState,
    _trial_state,
    _unknowns,
    check_admissibility,
    galerkin_residual,
    jacobian_fd,
)

__all__ = [
    "BranchPoint",
    "Branch",
    "initial_guess",
    "newton_correct",
    "trace_branch",
    "branch_diagnostics",
]

_COND_LIMIT = 1e14
_STALL_STEP = np.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class BranchPoint:
    """One corrected point of a bifurcating branch."""

    amplitude: float
    speed_sq: float
    bernoulli_shift: float
    elevation: PeriodicFunction
    residual_norm: float
    newton_iters: int

    def state(self):
        return TrialState(self.speed_sq, self.bernoulli_shift, self.elevation)


@dataclass(frozen=True)
class Branch:
    """A traced branch; points are ordered by increasing |amplitude|.

    failure is None for a complete trace, otherwise a short description
    of why the trace stopped early (the points already corrected are
    kept).
    """

    params: PhysicalParams
    onset_speed_sq: float
    transversality: float
    points: tuple
    n_modes: int
    failure: str | None = None

    @property
    def completed(self):
        return self.failure is None

    @property
    def amplitudes(self):
        return np.array([pt.amplitude for pt in self.points])


def initial_guess(s, p: PhysicalParams, n_modes=32):
    """Linear-theory predictor: onset speed, zero shift, s*cos(x).

    Only meaningful well inside the small-amplitude regime; amplitudes
    beyond a tenth of the depth are rejected.
    """
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ValueError("need at least one mode")
    if abs(s) > 0.1 * p.h:
        raise ValueError(
            f"amplitude {s:.3e} outside small-amplitude range (limit {0.1 * p.h:.3e})"
        )
    w = PeriodicFunction.harmonic(1, s, n_modes=n_modes, kind="cos")
    return TrialState(onset_speed_sq(1, p.k, p), 0.0, w)


def newton_correct(state: TrialState, s, p: PhysicalParams, n_modes=None,
                   tol=1e-11, max_iter=25):
    """Correct a predictor at frozen amplitude s = first cosine coefficient.

    Returns (corrected TrialState, iterations, residual norm).  The
    convergence test (max-norm of the residual <= tol) runs before each
    Jacobian assembly, so a state that already satisfies the system costs
    no linear solves.  Newton stops early on the residual's rounding
    floor: once an update moves theta by at most sqrt(eps) * max|theta|,
    quadratic contraction predicts a next step below rounding, so a
    residual that then fails to fall can never reach tol.  Raises
    SingularJacobian past condition 1e14, InadmissibleIterate when an
    iterate leaves the physical regime, NoConvergence on such a stall or
    after max_iter updates.
    """
    n = state.elevation.n_modes if n_modes is None else int(n_modes)
    theta, a0 = _unknowns(state, n)
    theta[2] = s
    # every unknown but a_1 (theta[2]), which is the frozen amplitude
    active = np.r_[0, 1, 3 : n + 2]
    current = _trial_state(theta, a0)
    norm = float("inf")
    small_step = False
    for it in range(max_iter + 1):
        r = galerkin_residual(current, p, n_modes=n)
        previous, norm = norm, float(np.max(np.abs(r)))
        if norm <= tol:
            return current, it, norm
        if small_step and norm >= previous:
            raise NoConvergence(
                f"Newton stalled at amplitude {s:.6e} after {it} iterations: "
                f"residual {norm:.3e} stopped falling above tolerance {tol:.3e}",
                iterations=it,
                last_residual=norm,
            )
        if it == max_iter:
            break
        jac = jacobian_fd(current, p, active=active, n_modes=n)
        cond = float(np.linalg.cond(jac))
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularJacobian(
                f"Galerkin Jacobian condition {cond:.3e} exceeds {_COND_LIMIT:.0e}"
            )
        step = np.linalg.solve(jac, r)
        theta[active] -= step
        small_step = np.max(np.abs(step)) <= _STALL_STEP * np.max(np.abs(theta))
        current = _trial_state(theta, a0)
        report = check_admissibility(current.elevation, p)
        if not report.passed:
            raise InadmissibleIterate(
                "Newton iterate left the admissible set: "
                + "; ".join(report.failures)
            )
    raise NoConvergence(
        f"no convergence at amplitude {s:.6e} after {max_iter} iterations "
        f"(residual {norm:.3e})",
        iterations=max_iter,
        last_residual=norm,
    )


def trace_branch(s_max, steps, p: PhysicalParams, n_modes=32, tol=1e-11,
                 max_iter=25, scan_limit=1000, scan_tol=1e-10):
    """Trace the mode-1 branch at amplitudes s_j = s_max j / steps.

    The kernel at the chosen wavenumber must be simple (scan up to
    scan_limit modes); otherwise KernelNotSimple is raised.  A step that
    fails to converge truncates the branch and records the failure
    instead of raising; any toolkit error raised inside a step counts
    as such a failure.
    """
    steps = int(steps)
    if steps < 1:
        raise ValueError("need at least one amplitude step")
    report = kernel_is_simple(p.k, p, n_max=scan_limit, tol=scan_tol)
    if not report.simple:
        raise KernelNotSimple(
            f"mode {report.colliding_mode} shares the onset value at "
            f"k = {p.k} (relative gap {report.min_relative_gap:.3e})"
        )
    onset = onset_speed_sq(1, p.k, p)
    crossing = transversality_value(p.k, p)
    points = []
    failure = None
    predictor = initial_guess(s_max / steps, p, n_modes)
    for j in range(1, steps + 1):
        s_j = s_max * j / steps
        try:
            corrected, iters, norm = newton_correct(
                predictor, s_j, p, n_modes=n_modes, tol=tol, max_iter=max_iter
            )
        except FlowForceError as exc:
            failure = f"step {j} at amplitude {s_j:.6e}: {exc}"
            break
        points.append(
            BranchPoint(
                amplitude=s_j,
                speed_sq=corrected.speed_sq,
                bernoulli_shift=corrected.bernoulli_shift,
                elevation=corrected.elevation,
                residual_norm=norm,
                newton_iters=iters,
            )
        )
        predictor = corrected
    return Branch(
        params=p,
        onset_speed_sq=onset,
        transversality=crossing,
        points=tuple(points),
        n_modes=n_modes,
        failure=failure,
    )


def _crest_trough_counts(values):
    """Counts of strict local maxima/minima on the periodic grid."""
    left = np.roll(values, 1)
    right = np.roll(values, -1)
    crests = int(np.sum((values > left) & (values > right)))
    troughs = int(np.sum((values < left) & (values < right)))
    return crests, troughs


def branch_diagnostics(branch: Branch):
    """Structural health metrics for every branch point.

    Each entry reports the evenness defect of the profile, crest and
    trough counts over one period, whether the profile decreases
    strictly from crest to trough on (0, pi) (signed by the amplitude),
    admissibility, spectral tail content, the distance of the speed
    parameter from its onset value, and the deviation from the linear
    predictor normalized by amplitude.
    """
    p = branch.params
    out = []
    for pt in branch.points:
        w = pt.elevation
        m = max(64, 4 * w.n_modes)
        x = grid_nodes(m)
        vals = w.eval_at(x)
        evenness = float(np.max(np.abs(vals - w.eval_at(-x))))
        crests, troughs = _crest_trough_counts(vals)
        slope = derivative(w).eval_at(x[(x > 1e-9) & (x < np.pi - 1e-9)])
        monotone = bool(np.all(np.sign(pt.amplitude) * slope < 0.0))
        admiss = check_admissibility(w, p)
        secant = w - PeriodicFunction.harmonic(
            1, pt.amplitude, n_modes=w.n_modes, kind="cos"
        )
        out.append(
            {
                "amplitude": pt.amplitude,
                "evenness_defect": evenness,
                "crest_count": crests,
                "trough_count": troughs,
                "monotone_profile": monotone,
                "admissible": admiss.passed,
                "tail_energy_fraction": w.tail_energy_fraction(),
                "onset_distance": abs(pt.speed_sq - branch.onset_speed_sq),
                "predictor_defect": secant.sup_norm() / abs(pt.amplitude),
                "newton_iters": pt.newton_iters,
                "residual_norm": pt.residual_norm,
            }
        )
    return out
