"""Small-amplitude branch tracing by amplitude-parametrized Newton steps.

Away from mode collisions the laminar flow sheds a curve of genuinely
periodic even waves.  The branch is parametrized by the first cosine
coefficient s of the elevation: s is frozen, and Newton's method solves
the Galerkin system for the squared surface speed, the Bernoulli shift
and the remaining coefficients a_2..a_N.  Successive amplitudes are
warm-started from the previous corrected state.  At N > 32 each step
is solved at 16 modes first and certified by the N-mode residual.
"""

from dataclasses import dataclass

import numpy as np

from .dispersion import _require_simple, kernel_is_simple, onset_speed_sq, transversality_value
from .errors import FlowForceError, NoConvergence, SingularJacobian
from .params import PhysicalParams
from .spectral import PeriodicFunction, derivative, grid_nodes
from .surface_equation import (
    TrialState,
    _trial_state,
    _unknowns,
    check_admissibility,
    jacobian_fd,
    residual,
)

__all__ = [
    "BranchPoint",
    "Branch",
    "initial_guess",
    "small_amplitude_limit",
    "newton_correct",
    "trace_branch",
    "branch_diagnostics",
]

_COND_LIMIT = 1e14
_STALL_STEP = np.sqrt(np.finfo(float).eps)
# Newton refuses a tol below eps*lambda*/k^2 / _FLOOR_MARGIN: with tol = 0 its lowest residual
# measured 0.16-0.46 eps*lambda*/k^2 (8 regimes, lengths x 2^-10..2^20, ks 0.01 and 0.05)
_FLOOR_MARGIN = 16
# Newton's ladder at N > 32 starts at 16 modes, which hold resolved (analytic)
# waves to rounding.  Runs at N <= 32 keep their one level N: a ladder at
# N = 32 moves the desk-water reference's mu past its 1e-12 rule, so this
# bound is dropped with the next regeneration of that reference
_FIRST_LEVEL_MODES, _SINGLE_LEVEL_MODES = 16, 32


@dataclass(frozen=True)
class BranchPoint(TrialState):
    """One corrected point of a bifurcating branch: the corrected TrialState,
    its frozen amplitude s, its residual max-norm and its Newton updates."""

    amplitude: float
    residual_norm: float
    newton_iters: int


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


def small_amplitude_limit(p: PhysicalParams):
    """Largest |s| initial_guess accepts: a tenth of the depth."""
    return 0.1 * p.h


def initial_guess(s, p: PhysicalParams, n_modes=32):
    """Linear-theory predictor: onset speed, zero shift, s*cos(x).

    Only meaningful well inside the small-amplitude regime; amplitudes
    beyond small_amplitude_limit are rejected.
    """
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ValueError("need at least one mode")
    limit = small_amplitude_limit(p)
    if abs(s) > limit:
        raise ValueError(
            f"amplitude {s:.3e} outside small-amplitude range (limit {limit:.3e})"
        )
    w = PeriodicFunction.harmonic(1, s, n_modes=n_modes, kind="cos")
    return TrialState(onset_speed_sq(1, p.k, p), 0.0, w)


def newton_correct(state: TrialState, s, p: PhysicalParams, n_modes=None,
                   tol=1e-11, max_iter=25):
    """Correct a predictor at frozen amplitude s = first cosine coefficient.

    Returns the corrected wave, a BranchPoint of amplitude s.  At
    N > 32 modes Newton visits the levels 16, 32, 64, ... below N, then
    N, each from the last one's result zero-padded; at N <= 32 the one
    level is N.  Each level tests its residual (max-norm <= tol) before
    each Jacobian assembly.  The first level's result, and each later
    one's after an update, is tested at N modes as it is (the residual
    samples it on N's grid), the truncation certificate: a passing state
    is returned zero-padded, its tail above the last level that took an
    update exactly zero; a failing one goes up the ladder, and its N-mode
    residual is the N level's first, so no state is tested at N twice.
    max_iter caps the updates of all levels together, and newton_iters
    counts them all.  Newton stops on the residual's rounding floor,
    measured at 0.16-0.46 eps*lambda*/k^2: a tol below eps*lambda*/k^2 / 16
    fails at the first residual, before any Jacobian, and a residual that
    fails to fall after an update of at most sqrt(eps) * max|theta| stalls,
    since quadratic contraction then predicts a next step below rounding.
    Raises SingularJacobian past condition 1e14, NoConvergence on such a
    refusal or stall or after max_iter updates, and InadmissibleIterate when
    an iterate leaves the physical regime: the gate sits in the residual,
    which samples each iterate (the predictor, then each update) once and
    checks it before anything else is evaluated on it.
    """
    n = state.elevation.n_modes if n_modes is None else int(n_modes)
    level, done, tested = (n if n <= _SINGLE_LEVEL_MODES else _FIRST_LEVEL_MODES), 0, None
    while True:
        start, first = done, tested if level == n else None
        state, done, norm = _newton_level(state, s, p, level, tol, done, max_iter, first)
        if level == n:
            break
        if tested is None or done > start:
            tested = residual(state, p, n_modes=n).cos_coeffs
            if (norm := float(np.abs(tested).max())) <= tol:
                state = _trial_state(*_unknowns(state, n))
                break
        level = min(2 * level, n)
    return BranchPoint(state.speed_sq, state.bernoulli_shift, state.elevation, s, norm, done)


def _newton_level(state, s, p, n, tol, done, max_iter, r=None):
    """Newton at n modes, iterations `done` to max_iter; r: state's n-mode residual.
    A tol below eps*lambda*/k^2 / 16, lambda* the onset speed^2, fails at the first residual."""
    theta, a0 = _unknowns(state, n)
    theta[2] = s
    # every unknown but a_1 (theta[2]), which is the frozen amplitude
    active = np.concatenate(([0, 1], np.arange(3, n + 2)))
    current = _trial_state(theta, a0)
    floor = np.finfo(float).eps * onset_speed_sq(1, p.k, p) / p.k / p.k
    norm, small_step = float("inf"), False
    for it in range(done, max_iter + 1):
        r = residual(current, p, n_modes=n).cos_coeffs if r is None or it > done else r
        previous, norm = norm, float(np.abs(r).max())
        if norm <= tol:
            return current, it, norm
        if tol < floor / _FLOOR_MARGIN:
            raise NoConvergence(
                f"residual {norm:.3e} at amplitude {s:.6e} misses tolerance {tol:.3e}, which lies "
                f"below the residual's rounding floor (scale eps*lambda*/k^2 = {floor:.3e})",
                iterations=it, last_residual=norm,
            )
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
        try:  # kappa_F = |J|_F |J^-1|_F >= kappa_2; the SVD decides past 1% of the limit
            bound = float(np.linalg.norm(jac)) * float(np.linalg.norm(np.linalg.inv(jac)))
        except np.linalg.LinAlgError:
            bound = np.inf
        cond = bound if bound <= 0.01 * _COND_LIMIT else float(np.linalg.cond(jac))
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularJacobian(
                f"Galerkin Jacobian condition {cond:.3e} exceeds {_COND_LIMIT:.0e}"
            )
        step = np.linalg.solve(jac, r)
        theta[active] -= step
        small_step = np.abs(step).max() <= _STALL_STEP * np.abs(theta).max()
        current = _trial_state(theta, a0)
    raise NoConvergence(
        f"no convergence at amplitude {s:.6e} after {max_iter} iterations "
        f"(residual {norm:.3e})",
        iterations=max_iter,
        last_residual=norm,
    )


def trace_branch(s_max, steps, p: PhysicalParams, n_modes=32, tol=1e-11,
                 max_iter=25, scan_tol=1e-10):
    """Trace the mode-1 branch at amplitudes s_j = s_max j / steps.

    The kernel at the chosen wavenumber must be simple (kernel_is_simple
    at scan_tol); otherwise KernelNotSimple is raised.  A step that
    fails to converge truncates the branch and records the failure
    instead of raising; any toolkit error raised inside a step counts
    as such a failure.  Each step stores newton_correct's BranchPoint,
    which predicts the next; its newton_iters counts every level's updates.
    """
    steps = int(steps)
    if steps < 1:
        raise ValueError("need at least one amplitude step")
    _require_simple(kernel_is_simple(p.k, p, tol=scan_tol), p.k)
    onset = onset_speed_sq(1, p.k, p)
    crossing = transversality_value(p.k, p)
    points = []
    failure = None
    predictor = initial_guess(s_max / steps, p, n_modes)
    for j in range(1, steps + 1):
        s_j = s_max * j / steps
        try:
            predictor = newton_correct(
                predictor, s_j, p, n_modes=n_modes, tol=tol, max_iter=max_iter
            )
        except FlowForceError as exc:
            failure = f"step {j} at amplitude {s_j:.6e}: {exc}"
            break
        points.append(predictor)
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
    predictor normalized by amplitude (nan at zero amplitude).
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
                "predictor_defect": secant.sup_norm() / abs(pt.amplitude)
                if pt.amplitude else float("nan"),
                "newton_iters": pt.newton_iters,
                "residual_norm": pt.residual_norm,
            }
        )
    return out
