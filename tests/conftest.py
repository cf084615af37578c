"""Shared fixtures: reference parameter sets and constructed edge cases."""

import math

import pytest

from flowforce import PhysicalParams, continuation


@pytest.fixture(scope="session")
def water():
    """Desk-scale water column: sigma/(g h^2) = 0.744, kernel simple."""
    return PhysicalParams(g=9.81, sigma=0.073, h=0.1, k=10.0)


def gravity_gap(x):
    """Relative gap between the mode-1 and mode-2 onset values, pure gravity.

    Depends only on x = k*h:
    1 - onset_2/onset_1 = 1 - tanh(2x)/(2 tanh(x)).
    """
    return 1.0 - math.tanh(2.0 * x) / (2.0 * math.tanh(x))


def gravity_collision_depth(tol=1e-8):
    """Bisection oracle: the k*h below which the pure-gravity scan at
    tolerance tol stops distinguishing the mode-2 onset from mode 1."""
    from scipy.optimize import brentq

    return brentq(lambda x: gravity_gap(x) - tol, 1e-9, 5.0, xtol=1e-16, rtol=1e-15)


@pytest.fixture(scope="session")
def gravity_collision():
    """Pure-gravity parameters whose kernel scan at tol 1e-8 finds mode 2."""
    kh = gravity_collision_depth(1e-8)
    return PhysicalParams(g=9.81, sigma=0.0, h=1.0, k=0.5 * kh), 1e-8


@pytest.fixture
def rank_deficient_jacobian(monkeypatch):
    """Newton's Jacobians with the first column replaced by the second, so
    their condition number is far above the SingularJacobian limit."""
    jacobian = continuation.jacobian_fd

    def patched(*args, **kwargs):
        jac = jacobian(*args, **kwargs)
        jac[:, 0] = jac[:, 1]
        return jac

    monkeypatch.setattr(continuation, "jacobian_fd", patched)
