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
    KernelNotSimple,
    NoConvergence,
    PhysicalParams,
    branch_diagnostics,
    initial_guess,
    newton_correct,
    onset_speed_sq,
    trace_branch,
)
from flowforce import continuation


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
    corrected, iters, norm = newton_correct(state, 0.0, water)
    assert iters == 0
    assert norm < 1e-13
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
    state = branch.points[0].state()
    assert state.speed_sq == branch.points[0].speed_sq
    assert state.elevation is branch.points[0].elevation


def test_predictor_defect_small_and_decreasing(water_branch):
    """The deviation from the linear predictor, per unit amplitude,
    shrinks toward the bifurcation point and is below 1e-2 at s = 1e-3."""
    rows = branch_diagnostics(water_branch)
    defects = {row["amplitude"]: row["predictor_defect"] for row in rows}
    assert defects[1e-3] < 1e-2
    ordered = [defects[s] for s in (1e-3, 2e-3, 3e-3, 4e-3)]
    assert all(a < b for a, b in zip(ordered, ordered[1:]))


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


def test_partial_branch_keeps_earlier_points(water):
    # at N = 16 the step to s = 0.07 leaves the admissible set, after six
    # corrected points
    steps = 10
    branch = trace_branch(0.1, steps, water, n_modes=16)
    assert 1 <= len(branch.points) < steps
    assert branch.failure.startswith(f"step {len(branch.points) + 1} ")
    assert all(pt.residual_norm <= 1e-11 for pt in branch.points)


def test_newton_stops_on_rounding_floor(water):
    # tol = 1e-30 is below the residual's rounding floor, so every update
    # after the solution is found only reshuffles rounding
    state = initial_guess(1e-3, water, n_modes=32)
    with pytest.raises(NoConvergence, match="stalled") as info:
        newton_correct(state, 1e-3, water, tol=1e-30)
    assert info.value.iterations <= 5
    assert info.value.last_residual <= 1e-16


def _count_jacobians(monkeypatch):
    calls = []
    original = continuation.jacobian_fd

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(continuation, "jacobian_fd", counting)
    return calls


def test_ocean_stall_stops_early(monkeypatch):
    # ocean scale: the residual floor (about 1e-9) lies above tol = 1e-11
    calls = _count_jacobians(monkeypatch)
    p = PhysicalParams(g=9.81, sigma=0.073, h=100.0, k=0.01)
    branch = trace_branch(0.25, 4, p, n_modes=32)
    assert branch.failure.startswith("step 1 ")
    assert "stalled" in branch.failure
    assert len(calls) <= 8


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
