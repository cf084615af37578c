"""Branch tracing from the first bifurcation point.

The quantitative checks pin down quadratic convergence of the corrector,
the even symmetry of traced profiles, and the sign pairing between the
two half-branches.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from flowforce import (
    Branch,
    BranchPoint,
    KernelNotSimple,
    NoConvergence,
    PhysicalParams,
    SingularJacobian,
    TrialState,
    branch_diagnostics,
    initial_guess,
    newton_correct,
    onset_speed_sq,
    trace_branch,
)
from flowforce import continuation
from flowforce.surface_equation import residual


@pytest.fixture(scope="module")
def water_branch(water):
    return trace_branch(4e-3, 4, water, n_modes=32)


def test_initial_guess_shape(water):
    s = 1e-3
    state = initial_guess(s, water, n_modes=16)
    assert state.speed_sq == pytest.approx(onset_speed_sq(1, water.k, water))
    assert state.bernoulli_shift == 0.0
    assert state.elevation.n_modes == 16
    assert state.elevation.cos_coeffs[1] == s
    assert np.all(state.elevation.cos_coeffs[2:] == 0.0)
    assert state.elevation.cos_coeffs[0] == 0.0


def test_initial_guess_rejects_large_amplitude(water):
    with pytest.raises(ValueError):
        initial_guess(0.2 * water.h, water)


def test_newton_zero_amplitude_converges_immediately(water):
    state = initial_guess(0.0, water, n_modes=8)
    corrected = newton_correct(state, 0.0, water)
    assert corrected.newton_iters == 0
    assert corrected.residual_norm < 1e-13
    assert corrected.speed_sq == state.speed_sq


def test_branch_small_amplitude(water, water_branch):
    branch = water_branch
    assert branch.completed
    assert branch.failure is None
    assert len(branch.points) == 4
    assert branch.n_modes == 32
    assert np.allclose(branch.amplitudes, [1e-3, 2e-3, 3e-3, 4e-3])
    lam_star = onset_speed_sq(1, water.k, water)
    assert branch.onset_speed_sq == pytest.approx(lam_star)
    for pt in branch.points:
        assert pt.residual_norm < 1e-10
        assert pt.newton_iters <= 8
        assert pt.elevation.cos_coeffs[1] == pt.amplitude
    speeds = [pt.speed_sq for pt in branch.points]
    assert all(b < a for a, b in zip(speeds, speeds[1:]))
    assert all(s < lam_star for s in speeds)
    # shift responds at quadratic order in the amplitude
    shifts = np.array([abs(pt.bernoulli_shift) for pt in branch.points])
    assert shifts[3] / shifts[0] == pytest.approx(16.0, rel=0.2)


def test_branch_point_state_round_trip(water):
    branch = trace_branch(1e-3, 1, water, n_modes=16)
    pt = branch.points[0]
    state = TrialState(pt.speed_sq, pt.bernoulli_shift, pt.elevation)
    assert (state.speed_sq, state.bernoulli_shift) == (pt.speed_sq, pt.bernoulli_shift)
    assert state.elevation is pt.elevation


def test_newton_correct_returns_the_stored_branch_point(water):
    # each step's BranchPoint is stored as it is and predicts the next
    branch = trace_branch(3e-3, 3, water, n_modes=16)
    assert branch.failure is None
    predictors = [initial_guess(1e-3, water, n_modes=16), *branch.points[:-1]]
    for predictor, stored in zip(predictors, branch.points):
        got = newton_correct(predictor, stored.amplitude, water)
        assert type(got) is BranchPoint
        assert got.amplitude == stored.amplitude
        assert got.speed_sq == stored.speed_sq
        assert got.bernoulli_shift == stored.bernoulli_shift
        assert got.elevation.cos_coeffs.tobytes() == stored.elevation.cos_coeffs.tobytes()
        assert got.residual_norm == stored.residual_norm
        assert got.newton_iters == stored.newton_iters


def test_predictor_defect_small_and_decreasing(water_branch):
    """The deviation from the linear predictor, per unit amplitude,
    shrinks toward the bifurcation point and is below 1e-2 at s = 1e-3."""
    rows = branch_diagnostics(water_branch)
    defects = {row["amplitude"]: row["predictor_defect"] for row in rows}
    assert defects[1e-3] < 1e-2
    ordered = [defects[s] for s in (1e-3, 2e-3, 3e-3, 4e-3)]
    assert all(a < b for a, b in zip(ordered, ordered[1:]))


def test_zero_amplitude_predictor_defect_is_nan(water):
    # amplitude_max = 0 traces one point at s = 0, where the predictor
    # defect sup|w - s cos x| / |s| is 0/0
    branch = trace_branch(0.0, 1, water)
    assert branch.failure is None and len(branch.points) == 1
    (row,) = branch_diagnostics(branch)
    assert row["amplitude"] == 0.0
    assert np.isnan(row["predictor_defect"])


def test_speed_drop_scales_quadratically(water_branch):
    lam_star = water_branch.onset_speed_sq
    drop = {pt.amplitude: lam_star - pt.speed_sq for pt in water_branch.points}
    r1 = drop[4e-3] / drop[2e-3]
    r2 = drop[2e-3] / drop[1e-3]
    assert 3.0 < r1 < 5.0
    assert 3.0 < r2 < 5.0
    assert abs(r1 - r2) <= 0.25 * max(abs(r1), abs(r2))


def test_half_branch_sign_symmetry(water):
    plus = trace_branch(2e-3, 2, water, n_modes=24)
    minus = trace_branch(-2e-3, 2, water, n_modes=24)
    assert minus.completed
    for pp, pm in zip(plus.points, minus.points):
        assert pm.amplitude == -pp.amplitude
        assert pm.speed_sq == pytest.approx(pp.speed_sq, rel=1e-10)
        assert pm.bernoulli_shift == pytest.approx(pp.bernoulli_shift, rel=1e-8)
        ap = pp.elevation.cos_coeffs
        am = pm.elevation.cos_coeffs
        for n in range(1, 25):
            assert am[n] == pytest.approx(
                (-1.0) ** n * ap[n], abs=1e-12 * max(1.0, abs(ap[1]))
            )


def test_diagnostics_wave_shape(water_branch):
    rows = branch_diagnostics(water_branch)
    assert len(rows) == 4
    for row in rows:
        assert row["crest_count"] == 1
        assert row["trough_count"] == 1
        assert row["monotone_profile"]
        assert row["admissible"]
        assert row["evenness_defect"] == 0.0
        assert row["tail_energy_fraction"] < 1e-10
        assert row["onset_distance"] > 0.0


def test_warm_start_keeps_iteration_count_low(water_branch):
    assert max(pt.newton_iters for pt in water_branch.points) <= 4


def test_collision_parameters_rejected(gravity_collision):
    p, tol = gravity_collision
    with pytest.raises(KernelNotSimple):
        trace_branch(1e-6, 1, p, n_modes=8, scan_tol=tol)


def test_exhausted_iterations_yield_partial_branch(water):
    branch = trace_branch(4e-3, 4, water, n_modes=16, max_iter=0)
    assert not branch.completed
    assert branch.failure is not None
    assert "step 1" in branch.failure
    assert len(branch.points) == 0
    assert isinstance(branch, Branch)


def test_singular_expression_yields_partial_branch():
    # microcapillary regime (h = 1 mm, k = 1000) at steepness 0.01: the
    # surface-equation quotient falls below its floor in the first step
    p = PhysicalParams(g=9.81, sigma=0.073, h=1e-3, k=1000.0)
    branch = trace_branch(1e-5, 4, p, n_modes=32)
    assert not branch.completed
    assert branch.failure.startswith("step 1 ")
    assert "below floor" in branch.failure
    assert branch.points == ()


def test_singular_jacobian_yields_partial_branch(water, rank_deficient_jacobian):
    # a real collision does not reach the condition limit: at the Wilton
    # wavenumber (h = 1, k = 8.19705741293291, relative gap 1.2e-16), which
    # trace_branch refuses, newton_correct at N = 32 from s = 1e-5 to 0.0125
    # sees conditions 1.5e12 to 1.1e6 and leaves the admissible set instead
    branch = trace_branch(1e-3, 4, water, n_modes=16)
    assert branch.points == ()
    assert branch.failure.startswith("step 1 at amplitude 2.500000e-04: Galerkin Jacobian condition ")
    assert branch.failure.endswith(" exceeds 1e+14")


_cond = np.linalg.cond


@pytest.fixture
def svd_calls(monkeypatch):
    """The matrices np.linalg.cond, the condition guard's full SVD, is called on."""
    calls = []
    monkeypatch.setattr(np.linalg, "cond", lambda jac: calls.append(jac.copy()) or _cond(jac))
    return calls


def _fixed_jacobian(monkeypatch, jac):
    monkeypatch.setattr(continuation, "jacobian_fd", lambda *args, **kwargs: jac.copy())


def _conditioned(size, kappa):
    """A size x size matrix with singular values kappa, 1, ..., 1 in random
    orthogonal bases: 2-norm condition kappa, Frobenius bound about
    kappa sqrt(size - 1)."""
    rng = np.random.default_rng(size)
    q1, q2 = (np.linalg.qr(rng.standard_normal((size, size)))[0] for _ in range(2))
    return (q1 * np.r_[kappa, np.ones(size - 1)]) @ q2.T


def _guard_message(jac):
    return f"Galerkin Jacobian condition {float(_cond(jac)):.3e} exceeds 1e+14"


@pytest.mark.parametrize("s_max, steps, n_modes", [(1e-3, 4, 32), (4e-3, 8, 128)],
                         ids=["desk-water", "fine-branch"])
def test_condition_guard_runs_no_svd_on_benchmark_branches(water, svd_calls, s_max, steps,
                                                           n_modes):
    """The guard's Frobenius bound |J|_F |J^-1|_F admits every Jacobian of
    these branches, so the full SVD never runs."""
    branch = trace_branch(s_max, steps, water, n_modes=n_modes)
    assert branch.completed and sum(pt.newton_iters for pt in branch.points) >= steps
    assert svd_calls == []


def test_condition_just_above_the_limit_raises(water, svd_calls, monkeypatch):
    jac = _conditioned(9, 1.05e14)
    assert 1e14 < _cond(jac) < 1.1e14
    message = _guard_message(jac)
    _fixed_jacobian(monkeypatch, jac)
    with pytest.raises(SingularJacobian) as info:
        newton_correct(initial_guess(1e-3, water, n_modes=8), 1e-3, water)
    assert str(info.value) == message
    assert len(svd_calls) == 1


@pytest.mark.parametrize("kappa, svd_runs", [(2e11, 0), (1e13, 1), (5e13, 1)])
def test_condition_below_the_limit_takes_the_update(water, svd_calls, monkeypatch, kappa,
                                                    svd_runs):
    """At kappa_2 below the limit the update is taken; the SVD runs only
    once the Frobenius bound passes 1% of the limit, and at kappa_2 = 5e13
    the bound is past the limit itself, so the SVD's verdict is the one kept."""
    jac = _conditioned(9, kappa)
    bound = np.linalg.norm(jac) * np.linalg.norm(np.linalg.inv(jac))
    assert _cond(jac) < 1e14 and (bound > 1e12) == bool(svd_runs)
    _fixed_jacobian(monkeypatch, jac)
    with pytest.raises(NoConvergence, match="after 1 iterations"):
        newton_correct(initial_guess(1e-3, water, n_modes=8), 1e-3, water, max_iter=1)
    assert len(svd_calls) == svd_runs


def test_exactly_singular_jacobian_raises_through_the_inv_failure(water, svd_calls,
                                                                  monkeypatch):
    """A zero column leaves LU an exactly zero pivot: inv fails, and the
    SVD gives the verdict and the message."""
    jacobian, failures, inv = continuation.jacobian_fd, [], np.linalg.inv

    def zero_column(*args, **kwargs):
        jac = jacobian(*args, **kwargs)
        jac[:, 0] = 0.0
        return jac

    def recording_inv(jac):
        try:
            return inv(jac)
        except np.linalg.LinAlgError:
            failures.append(jac)
            raise

    monkeypatch.setattr(continuation, "jacobian_fd", zero_column)
    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    with pytest.raises(SingularJacobian) as info:
        newton_correct(initial_guess(1e-3, water, n_modes=8), 1e-3, water)
    assert len(failures) == 1 and len(svd_calls) == 1
    assert str(info.value) == _guard_message(svd_calls[0])


def test_rank_deficient_jacobian_is_refused_by_the_svd(water, svd_calls,
                                                      rank_deficient_jacobian):
    """A duplicated column is singular in exact arithmetic; LU may leave a
    rounding pivot instead of a zero one, but then the bound is far past
    the margin, so either way the SVD refuses J and words the message."""
    with pytest.raises(SingularJacobian) as info:
        newton_correct(initial_guess(2.5e-4, water, n_modes=16), 2.5e-4, water)
    assert len(svd_calls) == 1
    assert str(info.value) == _guard_message(svd_calls[0])


def test_partial_branch_keeps_earlier_points(water):
    # at N = 16 the step to s = 0.07 leaves the admissible set, after six
    # corrected points; the residual's admissibility gate names the guard
    steps = 10
    branch = trace_branch(0.1, steps, water, n_modes=16)
    assert 1 <= len(branch.points) < steps
    assert branch.failure.startswith(f"step {len(branch.points) + 1} ")
    assert all(pt.residual_norm <= 1e-11 for pt in branch.points)
    assert branch.failure.startswith(
        "step 7 at amplitude 7.000000e-02: surface is not an admissible graph: "
    )
    assert "abscissa slope not positive" in branch.failure


def _count_jacobians(monkeypatch):
    calls = []
    original = continuation.jacobian_fd

    def counting(*args, **kwargs):
        calls.append(kwargs.get("n_modes"))
        return original(*args, **kwargs)

    monkeypatch.setattr(continuation, "jacobian_fd", counting)
    return calls


def _count_residuals(monkeypatch):
    """Record (n_modes, state) of every residual call Newton makes;
    the state is its speed, shift and coefficient bytes."""
    calls = []
    original = continuation.residual

    def counting(state, *args, **kwargs):
        key = (state.speed_sq, state.bernoulli_shift, state.elevation.cos_coeffs.tobytes())
        calls.append((kwargs.get("n_modes"), key))
        return original(state, *args, **kwargs)

    monkeypatch.setattr(continuation, "residual", counting)
    return calls


def _floor_threshold(p):
    """The tolerance below which Newton refuses to start: eps lambda*/k^2
    over the margin, evaluated as continuation evaluates it."""
    scale = np.finfo(float).eps * onset_speed_sq(1, p.k, p) / p.k / p.k
    return scale / continuation._FLOOR_MARGIN


def test_newton_stops_on_rounding_floor(water, monkeypatch):
    # tol = 1e-30 is below the residual's rounding floor (threshold 1.8e-19
    # on water), so Newton refuses it at the first residual
    jacobians, residuals = _count_jacobians(monkeypatch), _count_residuals(monkeypatch)
    state = initial_guess(1e-3, water, n_modes=32)
    with pytest.raises(NoConvergence, match="rounding floor") as info:
        newton_correct(state, 1e-3, water, tol=1e-30)
    assert "tolerance 1.000e-30" in str(info.value)
    assert "eps*lambda*/k^2 = 2.893e-18" in str(info.value)
    assert (len(jacobians), len(residuals)) == (0, 1)
    assert info.value.iterations == 0
    assert info.value.last_residual == float(np.abs(residual(state, water).cos_coeffs).max())


def test_newton_stalls_between_threshold_and_floor(water, monkeypatch):
    # tol = eps lambda*/k^2 / 10 passes the floor rule but lies below the
    # rounding floor reached (0.40 eps lambda*/k^2 here), so the small-step
    # stall rule ends the iteration
    jacobians = _count_jacobians(monkeypatch)
    tol = np.finfo(float).eps * onset_speed_sq(1, water.k, water) / water.k**2 / 10
    assert tol > _floor_threshold(water)
    state = initial_guess(1e-3, water, n_modes=32)
    with pytest.raises(NoConvergence, match="stalled") as info:
        newton_correct(state, 1e-3, water, tol=tol)
    assert 1 <= info.value.iterations <= 5
    assert len(jacobians) == info.value.iterations
    assert tol < info.value.last_residual <= 1e-17


def test_ocean_stall_stops_early(monkeypatch):
    # ocean scale: tol = 1e-11 lies below the threshold 1.7e-9 / 16 of the
    # residual's rounding floor, so step 1 ends at its first residual
    jacobians, residuals = _count_jacobians(monkeypatch), _count_residuals(monkeypatch)
    p = PhysicalParams(g=9.81, sigma=0.073, h=100.0, k=0.01)
    branch = trace_branch(0.25, 4, p, n_modes=32)
    assert branch.failure.startswith("step 1 ")
    assert "misses tolerance 1.000e-11, which lies below the residual's rounding floor" in (
        branch.failure
    )
    assert (len(jacobians), len(residuals)) == (0, 1)


_WATER = dict(g=9.81, sigma=0.073, h=0.1, k=10.0, p_atm=0.0)
FLOOR_REGIMES = {
    "desk": _WATER,
    "ocean": dict(_WATER, h=100.0, k=0.01),
    "deep-ocean": dict(_WATER, h=1000.0, k=0.01),
    "microcapillary": dict(_WATER, h=1e-3, k=1000.0),
    "k300-h1": dict(_WATER, h=1.0, k=300.0),
    "pure-capillary": dict(_WATER, g=0.0),
    "pure-gravity": dict(_WATER, sigma=0.0),
    "p-atm": dict(_WATER, p_atm=101325.0),
}


def _scaled_regime(name, exponent):
    """A regime with every length times L = 2^exponent at fixed g: h -> h L,
    k -> k / L, sigma -> sigma L^2, p_atm -> p_atm L (all exact)."""
    base, scale = FLOOR_REGIMES[name], 2.0**exponent
    return PhysicalParams(
        g=base["g"], sigma=base["sigma"] * scale**2, h=base["h"] * scale,
        k=base["k"] / scale, p_atm=base["p_atm"] * scale,
    )


# the regime and length-scale pairs at L = 2^-10, 1 and 2^10 whose Newton
# iteration runs: at L = 2^-10 every regime but ocean and deep ocean trips
# the metric or quotient floor (ROADMAP item 2) before its first update, and
# so does microcapillary's first Jacobian at L = 1
REACHING_NEWTON = [
    *((name, -10) for name in ("ocean", "deep-ocean")),
    *((name, 0) for name in FLOOR_REGIMES if name != "microcapillary"),
    *((name, 10) for name in FLOOR_REGIMES),
]


@pytest.mark.parametrize("name, exponent", REACHING_NEWTON)
def test_floor_rule_refuses_no_reachable_tolerance(monkeypatch, name, exponent):
    # Newton at tol exactly at the floor rule's threshold is not refused; it
    # must stall, and its lowest residual must stay above that tol: the rule
    # never refuses a tolerance Newton could meet
    norms = []
    original = continuation.residual

    def recording(*args, **kwargs):
        r = original(*args, **kwargs)
        norms.append(float(np.abs(r.cos_coeffs).max()))
        return r

    monkeypatch.setattr(continuation, "residual", recording)
    p = _scaled_regime(name, exponent)
    tol = _floor_threshold(p)
    for steepness in (0.01, 0.05):
        norms.clear()
        s = steepness / p.k
        with pytest.raises(NoConvergence, match="stalled"):
            newton_correct(initial_guess(s, p, n_modes=32), s, p, tol=tol)
        assert len(norms) >= 2 and min(norms) > tol


def test_large_steps_run_out_max_iter(monkeypatch):
    # kh = 0.1 without surface tension: the predictor lies outside
    # Newton's basin and the updates stay large, so the stall rule never
    # fires and max_iter is the cap
    calls = _count_jacobians(monkeypatch)
    p = PhysicalParams(g=9.81, sigma=0.0, h=0.01, k=10.0)
    branch = trace_branch(1e-3, 8, p, n_modes=32, max_iter=25)
    assert branch.failure.startswith("step 1 ")
    assert "after 25 iterations" in branch.failure
    assert "stalled" not in branch.failure
    assert len(calls) == 25


@pytest.mark.parametrize(
    "p, s_max, levels, at_16",
    [
        (PhysicalParams(g=9.81, sigma=0.073, h=0.1, k=10.0), 4e-3, {16}, 8),
        (PhysicalParams(g=9.81, sigma=0.0, h=0.1, k=10.0), 1e-2, {16, 32}, 6),
        (PhysicalParams(g=0.0, sigma=0.073, h=0.1, k=10.0), 4e-3, {16}, 8),
        (PhysicalParams(g=9.81, sigma=0.073, h=0.1, k=10.0, p_atm=101325.0), 4e-3, {16}, 8),
    ],
    ids=["water", "pure-gravity", "pure-capillarity", "p_atm"],
)
def test_nested_newton_certifies_coarse_solution(monkeypatch, p, s_max, levels, at_16):
    # 16 modes resolve these waves to rounding, so every update happens at
    # 16 modes and the finer residuals only certify the padded result.
    # Pure gravity at steepness 0.1 is the exception: the 16-mode results
    # of its last two points fail the N-mode test and take 32-mode updates
    coarse = trace_branch(s_max, 8, p, n_modes=16)
    assert coarse.failure is None and len(coarse.points) == 8
    calls = _count_jacobians(monkeypatch)
    for n_modes in (64, 128):
        calls.clear()
        fine = trace_branch(s_max, 8, p, n_modes=n_modes)
        assert fine.failure is None
        assert set(calls) == levels
        assert len(fine.points) == 8
        for got, want in zip(fine.points[:at_16], coarse.points):
            a = got.elevation.cos_coeffs
            assert got.speed_sq == want.speed_sq
            assert got.bernoulli_shift == want.bernoulli_shift
            assert np.array_equal(a[:17], want.elevation.cos_coeffs)
            assert np.all(a[17:] == 0.0)
        for got in fine.points[at_16:]:
            a = got.elevation.cos_coeffs
            assert np.any(a[17:33] != 0.0) and np.all(a[33:] == 0.0)
        assert all(pt.residual_norm <= 1e-11 for pt in fine.points)


@pytest.mark.parametrize("n_modes", [24, 32])
def test_runs_up_to_32_modes_keep_one_level(monkeypatch, n_modes):
    # pure gravity at steepness 0.1 climbs from 16 modes at N = 64, but at
    # N <= 32 every Jacobian is built at N
    p = PhysicalParams(g=9.81, sigma=0.0, h=0.1, k=10.0)
    calls = _count_jacobians(monkeypatch)
    branch = trace_branch(1e-2, 8, p, n_modes=n_modes)
    assert branch.failure is None and len(branch.points) == 8
    assert calls and set(calls) == {n_modes}


def test_resolved_wave_is_certified_once_at_n(monkeypatch, water):
    # desk water at N = 128 is resolved at 16 modes: each step's 16-mode
    # result passes its first 128-mode test, so no 32- or 64-mode residual runs
    tests = _count_residuals(monkeypatch)
    branch = trace_branch(1e-3, 4, water, n_modes=128)
    assert branch.failure is None and len(branch.points) == 4
    modes = [n for n, _ in tests]
    assert set(modes) == {16, 128}
    assert modes.count(128) == len(branch.points)


def test_nested_newton_updates_levels_16_modes_miss(monkeypatch):
    # pure gravity at kh = 3 to steepness 0.2625: 16 modes do not resolve
    # the steepest points, so the 32-, 64- and 128-mode levels take updates,
    # and every point still meets tol at 128 modes
    p = PhysicalParams(g=9.81, sigma=0.0, h=0.3, k=10.0)
    calls = _count_jacobians(monkeypatch)
    branch = trace_branch(0.02625, 8, p, n_modes=128)
    assert branch.failure is None and len(branch.points) == 8
    assert set(calls) == {16, 32, 64, 128}
    assert sum(pt.newton_iters for pt in branch.points) == len(calls)
    assert all(pt.residual_norm <= 1e-11 for pt in branch.points)


@pytest.mark.parametrize(
    "p, s_max, levels",
    [
        (PhysicalParams(g=9.81, sigma=0.073, h=0.1, k=10.0), 4e-3, {16}),
        (PhysicalParams(g=9.81, sigma=0.0, h=0.3, k=10.0), 0.02625, {16, 32, 64}),
    ],
    ids=["water", "pure-gravity-kh3"],
)
def test_certificate_tests_the_coarse_state_unpadded(monkeypatch, p, s_max, levels):
    # the N-mode certificate samples a coarse level's result on N's grid as
    # it is, and its residual is the zero-padded state's bit for bit; a
    # passing state is returned with N + 1 coefficients, exactly zero above
    # the last level that took an update.  The water branch passes every
    # 16-mode result; the gravity branch also certifies 32- and 64-mode ones
    n, tested, original = 128, [], continuation.residual

    def recording(state, *args, **kwargs):
        r = original(state, *args, **kwargs)
        if kwargs.get("n_modes") == n and state.elevation.n_modes < n:
            tested.append((state, r.cos_coeffs))
        return r

    monkeypatch.setattr(continuation, "residual", recording)
    calls = _count_jacobians(monkeypatch)
    branch = trace_branch(s_max, 8, p, n_modes=n)
    assert branch.failure is None and len(branch.points) == 8
    assert {state.elevation.n_modes for state, _ in tested} == levels
    for state, got in tested:
        padded = continuation._trial_state(*continuation._unknowns(state, n))
        assert got.tobytes() == original(padded, p, n_modes=n).cos_coeffs.tobytes()
    done = 0
    for pt in branch.points:
        last = max(calls[done : done + pt.newton_iters])
        done += pt.newton_iters
        a = pt.elevation.cos_coeffs
        assert a.size == n + 1 and not a[last + 1 :].any()


@pytest.mark.parametrize("n_modes", [32, 128])
def test_atmospheric_pressure_branch_is_bitwise_gauge_free(water, n_modes):
    # p_atm cancels exactly from the residual, which therefore leaves it out
    calm = trace_branch(4e-3, 4, water, n_modes=n_modes)
    pressured = trace_branch(4e-3, 4, water.replace(p_atm=101325.0), n_modes=n_modes)
    assert calm.failure is None and pressured.failure is None
    assert len(pressured.points) == len(calm.points) == 4
    for got, want in zip(pressured.points, calm.points):
        assert got.speed_sq == want.speed_sq
        assert got.bernoulli_shift == want.bernoulli_shift
        assert got.residual_norm == want.residual_norm
        assert got.newton_iters == want.newton_iters
        assert got.elevation.cos_coeffs.tobytes() == want.elevation.cos_coeffs.tobytes()


def test_nested_newton_refines_unresolved_levels(monkeypatch, water):
    # four modes cannot hold a wave of steepness 0.2; the finer levels
    # take updates.  Both traces run to tol = 1e-15, near the residual's
    # rounding floor, so they agree to rounding rather than to the
    # distance between two iterates stopped at a looser tol
    single = trace_branch(2e-2, 4, water, n_modes=16, tol=1e-15)
    monkeypatch.setattr(continuation, "_FIRST_LEVEL_MODES", 4)
    monkeypatch.setattr(continuation, "_SINGLE_LEVEL_MODES", 4)
    calls = _count_jacobians(monkeypatch)
    nested = trace_branch(2e-2, 4, water, n_modes=16, tol=1e-15)
    assert single.failure is None and nested.failure is None
    assert {8, 16} <= set(calls)
    assert sum(pt.newton_iters for pt in nested.points) == len(calls)
    for got, want in zip(nested.points, single.points):
        assert got.residual_norm <= 1e-15
        assert got.speed_sq == pytest.approx(want.speed_sq, rel=1e-12, abs=0.0)
        scale = np.max(np.abs(want.elevation.cos_coeffs))
        assert np.max(np.abs(got.elevation.cos_coeffs - want.elevation.cos_coeffs)) \
            <= 1e-12 * scale


def test_nested_newton_shares_one_iteration_budget(monkeypatch, water):
    # from the linear predictor at steepness 0.05 the 4-mode level takes
    # three updates and the 8- and 16-mode levels one each.  The 4- and
    # 8-mode results each fail one 16-mode test, whose residual is the
    # 16-mode level's first; its update passes the third
    monkeypatch.setattr(continuation, "_FIRST_LEVEL_MODES", 4)
    monkeypatch.setattr(continuation, "_SINGLE_LEVEL_MODES", 4)
    calls = _count_jacobians(monkeypatch)
    tests = _count_residuals(monkeypatch)
    state = initial_guess(5e-3, water, n_modes=16)
    assert newton_correct(state, 5e-3, water, tol=1e-15, max_iter=5).newton_iters == 5
    assert calls == [4, 4, 4, 8, 16]
    assert [n for n, _ in tests] == [4, 4, 4, 4, 16, 8, 8, 16, 16]
    at_n = [key for n, key in tests if n == 16]
    assert len(set(at_n)) == len(at_n)  # no state tested at N twice
    calls.clear()
    with pytest.raises(NoConvergence, match="after 4 iterations") as info:
        newton_correct(state, 5e-3, water, tol=1e-15, max_iter=4)
    assert info.value.iterations == 4
    assert calls == [4, 4, 4, 8]


REFERENCE_BRANCH = (
    Path(__file__).resolve().parents[1]
    / "perfbench" / "reference" / "desk-water-seed0-branch.json"
)


def test_desk_water_reference_branch():
    """Re-trace the benchmark's stored desk-water branch (read, never
    written) and compare with its rule: 1e-12 relative for s, lambda and
    mu, 1e-12 of the largest coefficient for cos_coeffs.  Its points
    converge in one or two Newton iterations, so each carries the
    finite-difference Jacobian's rounding in mu (about 4e-6)."""
    ref = json.loads(REFERENCE_BRANCH.read_text(encoding="utf-8"))
    stored = ref["points"]
    branch = trace_branch(
        stored[-1]["s"], len(stored), PhysicalParams(**ref["params"]),
        n_modes=ref["n_modes"], tol=1e-11, max_iter=25,
    )

    def close(got, want, scale=0.0):
        return abs(got - want) <= 1e-12 * max(abs(want), scale)

    assert branch.failure is None
    assert len(branch.points) == len(stored)
    assert close(branch.onset_speed_sq, ref["onset_speed_sq"])
    assert close(branch.transversality, ref["transversality"])
    for got, want in zip(branch.points, stored):
        assert close(got.amplitude, want["s"])
        assert close(got.speed_sq, want["lambda"])
        assert close(got.bernoulli_shift, want["mu"])
        coeffs = got.elevation.cos_coeffs
        scale = max(abs(c) for c in want["cos_coeffs"])
        assert len(coeffs) == len(want["cos_coeffs"])
        assert all(close(a, b, scale) for a, b in zip(coeffs, want["cos_coeffs"]))
