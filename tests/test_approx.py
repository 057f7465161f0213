"""Closed-form approximations against brute force and the exact solver."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from lamopt.approx import (
    drift_regime,
    galerkin_interval,
    galerkin_solution,
    optimal_offset,
    strong_drift_argmax,
    strong_drift_interval,
    trial_offset_scale,
)
from lamopt.config import default_mobility
from lamopt.errors import DomainError, NumericalError, RegimeWarning
from lamopt.mobility import DiffusionParams, compute_diffusion, global_drift
from lamopt.pde import DiscGrid, solve_mean_interval
from lamopt.validate import _disc_quadrature, drift_moment_residual


@pytest.fixture(scope="module")
def strong():
    return compute_diffusion(default_mobility(20.0))


class TestStrongDrift:
    def test_boundary_zero(self, strong):
        for x, y in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.6, -0.8)):
            assert float(strong_drift_interval(strong, 1.0, x, y)) == pytest.approx(0.0, abs=1e-9)

    def test_interior_positive(self, strong):
        xs = np.linspace(-0.95, 0.95, 21)
        vals = strong_drift_interval(strong, 1.0, xs, np.zeros_like(xs))
        assert np.all(vals > 0.0)

    def test_matches_pde(self, strong):
        field = solve_mean_interval(strong, 1.0, 0.0, DiscGrid(1.0, 1.0 / 96))
        xo = strong_drift_argmax(strong, 1.0)
        approx_val = float(strong_drift_interval(strong, 1.0, xo, 0.0))
        assert approx_val == pytest.approx(field.value_at((xo, 0.0)), rel=0.10)

    def test_optimum_approaches_transit_time(self):
        # at enormous global drift the best-offset interval tends to the
        # full-diameter transit 2R / drift; the deficit shrinks like
        # log(2 gamma) / gamma
        diff = compute_diffusion(default_mobility(1e6))
        ratios = []
        for R in (1.0, 10.0):
            gam = global_drift(diff, R)
            xo = strong_drift_argmax(diff, R)
            t = float(strong_drift_interval(diff, R, xo, 0.0))
            ratio = t * diff.mu1 / (2.0 * R)
            assert 1.0 - 2.0 * math.log(2.0 * gam) / gam < ratio <= 1.0
            ratios.append(ratio)
        assert ratios[1] > ratios[0] > 0.95
        assert ratios[1] > 0.99

    def test_no_overflow_large_region(self):
        diff = compute_diffusion(default_mobility(1e6))
        vals = strong_drift_interval(diff, 50.0, np.array([-49.0, 0.0, 49.0]),
                                     np.array([0.0, 30.0, 0.0]))
        assert np.all(np.isfinite(vals))

    def test_coefficient_object_matches_direct_form(self, strong):
        # where the textbook form c1 + c2 exp(-beta x) - x/mu1 + s11/(2 mu1^2)
        # is itself representable, it agrees with the stable evaluation; the
        # chord ends land exactly on zero
        mu1, s11 = strong.mu1, strong.sigma11
        beta = 2.0 * mu1 / s11
        for y in (0.0, 0.4, 0.8):
            w = math.sqrt(1.0 - y * y)
            c2 = -w / (mu1 * math.sinh(beta * w))
            c1 = -c2 * math.exp(-beta * w) + w / mu1 - s11 / (2.0 * mu1**2)
            for x in (-0.2 * w, 0.0, 0.6 * w):
                direct = float(strong_drift_interval(strong, 1.0, x, y))
                coef = c1 + c2 * math.exp(-beta * x) - x / mu1 + s11 / (2 * mu1**2)
                assert coef == pytest.approx(direct, rel=1e-9, abs=1e-12)
            assert float(strong_drift_interval(strong, 1.0, w, y)) == pytest.approx(0.0, abs=1e-9)
            assert float(strong_drift_interval(strong, 1.0, -w, y)) == pytest.approx(0.0, abs=1e-9)

    def test_regime_warning(self):
        weak = compute_diffusion(default_mobility(0.01))
        with pytest.warns(RegimeWarning):
            strong_drift_interval(weak, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("x, y", [(1.5, 0.0), (0.0, -1.5), (0.8, 0.8)])
    def test_point_outside_the_disc_rejected(self, strong, x, y):
        with pytest.raises(DomainError, match="point outside the disc"):
            strong_drift_interval(strong, 1.0, x, y)


def _adaptive_moments(a: float, R: float) -> tuple[float, float, float]:
    """(C11, C22, C0) by adaptive quadrature over the cross-section height.

    Over a chord of half-width w the trial function's x-integrals are
    ``-4 a w / (a^2 - w^2)`` (g_xx), ``-2 log((a + w) / (a - w))`` (g_yy)
    and ``(R^2 - y^2 - a^2) log((a + w) / (a - w)) + 2 a w`` (g).
    """
    c2 = (a - R) * (a + R)
    c = math.sqrt(c2)
    pts = sorted({0.0, min(0.999 * R, c), min(0.999 * R, 10.0 * c), 0.999 * R})
    pts = sorted({-p for p in pts} | set(pts))

    def w_of(y):
        return math.sqrt(max(R * R - y * y, 0.0))

    def integrate(fn, scale):
        return quad(fn, -R, R, points=pts, limit=400,
                    epsabs=1e-11 * scale, epsrel=1e-11)[0]

    c11 = integrate(lambda y: -4.0 * a * w_of(y) / (c2 + y * y),
                    8.0 * a * R * R / c2)
    c22 = integrate(lambda y: -2.0 * math.log1p(2.0 * w_of(y) / (a - w_of(y))),
                    4.0 * R * math.log1p(2.0 * R / (a - R)))
    if a >= 100.0 * R:
        c0 = math.pi * (R**4 / (2.0 * a) + R**6 / (12.0 * a**3)
                        + R**8 / (32.0 * a**5))
    else:
        c0 = integrate(lambda y: (R * R - y * y - a * a)
                       * math.log1p(2.0 * w_of(y) / (a - w_of(y)))
                       + 2.0 * a * w_of(y),
                       4.0 * a * R * R)
    return c11, c22, c0


class TestGalerkinSolution:
    def test_offset_scale_limits(self):
        # offset scale runs from R (full concentration) to the cap (none)
        mob_hi = default_mobility(1e6)
        a_hi = trial_offset_scale(mob_hi, 1.0)
        assert a_hi == pytest.approx(1.0, rel=1e-6)
        mob_lo = default_mobility(0.0)
        assert trial_offset_scale(mob_lo, 1.0) == 1e6

    def test_driftless_limit_value(self):
        mob = default_mobility(0.0)
        diff = compute_diffusion(mob)
        sol = galerkin_solution(diff, 1.0, 0.0, trial_offset_scale(mob, 1.0))
        assert float(sol.interval(0.0, 0.0)) == pytest.approx(
            1.0 / diff.sigma_trace, rel=1e-6)

    def test_trial_nonnegative_and_boundary_zero(self):
        diff = compute_diffusion(default_mobility(0.5))
        sol = galerkin_solution(diff, 1.0, 0.2, 1.5)
        theta = np.linspace(0, 2 * math.pi, 33)
        np.testing.assert_allclose(
            sol.interval(np.cos(theta), np.sin(theta)), 0.0, atol=1e-12)
        xs = np.linspace(-0.99, 0.99, 41)
        assert np.all(sol.interval(xs, 0.0) >= 0.0)

    def test_moment_quadrature_vs_closed_form(self):
        # the d2/dx2 moment has the closed form -4 pi a (a - c) / c
        diff = DiffusionParams(0.0, 1.0, 1.0)
        for a in (1.01, 1.5, 2.0, 10.0, 99.0):
            sol = galerkin_solution(diff, 1.0, 0.0, a)
            c = math.sqrt((a - 1.0) * (a + 1.0))
            assert sol.C11 == pytest.approx(-4.0 * math.pi * a * (a - c) / c,
                                            rel=1e-8)

    def test_plain_moment_vs_disc_quadrature(self):
        # C0 equals the area integral of the trial function
        diff = DiffusionParams(0.0, 1.0, 1.0)
        for a in (1.2, 3.0, 50.0):
            sol = galerkin_solution(diff, 1.0, 1.0, a)
            ref = _disc_quadrature(lambda x, y: (1 - x * x - y * y) / (x + a), 1.0)
            assert sol.C0 == pytest.approx(ref, rel=1e-7)

    def test_series_branch_consistent_with_quadrature(self):
        # on either side of a = 100 R, where the adaptive oracle's large-a
        # series takes over, the closed-form plain moment matches an
        # independent 2-D disc quadrature of the trial function
        diff = DiffusionParams(0.0, 1.0, 1.0)
        for a in (99.9, 100.1):
            sol = galerkin_solution(diff, 1.0, 1.0, a)
            ref = _disc_quadrature(lambda x, y: (1 - x * x - y * y) / (x + a), 1.0)
            assert sol.C0 == pytest.approx(ref, rel=1e-9)

    def test_moments_vs_adaptive_quadrature_oracle(self):
        # the closed-form moments against the 1-D cross-section integrals
        # they reduce from, by adaptive quadrature (with the three-term
        # large-a series for C0, whose integrand cancels there); and the
        # scale law: C11 / R, C22 / R and C0 / R^3 depend only on a / R
        diff = DiffusionParams(0.0, 1.0, 1.0)
        for q in (1 + 1e-6, 1.001, 1.1, 2.0, 10.0, 88.3, 99.9, 100.1, 1e3, 1e6):
            unit = galerkin_solution(diff, 1.0, 1.0, q)
            for R in (0.01, 1.0, 42.0):
                sol = galerkin_solution(diff, R, 1.0, q * R)
                c11, c22, c0 = _adaptive_moments(max(q * R, R * (1.0 + 1e-6)), R)
                assert sol.C11 == pytest.approx(c11, rel=1e-9)
                assert sol.C22 == pytest.approx(c22, rel=1e-9)
                assert sol.C0 == pytest.approx(c0, rel=1e-9)
                assert sol.C11 / R == pytest.approx(unit.C11, rel=1e-9)
                assert sol.C22 / R == pytest.approx(unit.C22, rel=1e-9)
                assert sol.C0 / R**3 == pytest.approx(unit.C0, rel=1e-9)

    def test_drift_moment_vanishes(self):
        diff = compute_diffusion(default_mobility(0.7))
        assert abs(drift_moment_residual(diff, 1.0, 2.5)) < 1e-10

    def test_moment_denominator_must_be_negative(self):
        # no diffusion and no calls: the trial moments give no equation for C
        with pytest.raises(NumericalError, match="denominator"):
            galerkin_solution(DiffusionParams(0.0, 0.0, 0.0), 1.0, 0.0, 2.0)

    def test_clamp_warning(self):
        diff = compute_diffusion(default_mobility(20.0))
        with pytest.warns(RegimeWarning):
            sol = galerkin_solution(diff, 1.0, 0.0, 0.5)
        assert sol.a >= 1.0

    def test_offset_scale_at_the_radius_is_clamped(self):
        # past k = 1e8 E[cos] rounds to 1 and trial_offset_scale returns
        # a == R exactly; unclamped, x_opt was -R and the interval 0/0
        mob = default_mobility(1e8)
        diff = compute_diffusion(mob)
        assert trial_offset_scale(mob, 2.0, diff) == 2.0
        with pytest.warns(RegimeWarning):
            sol = galerkin_interval(mob, 2.0, 0.2, diff)
        assert sol.a > 2.0 and -2.0 < sol.x_opt < 0.0
        assert 0.0 < float(sol.interval(sol.x_opt, 0.0)) < math.inf

    def test_rate_monotone(self):
        mob = default_mobility(0.5)
        sols = [galerkin_interval(mob, 1.0, lam) for lam in (0.0, 0.2, 0.5, 2.0)]
        vals = [float(sol.interval(sol.x_opt, 0.0)) for sol in sols]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestOptimalOffset:
    def test_endpoints(self):
        assert optimal_offset(1.0, 1.0) == -1.0
        assert optimal_offset(1e9, 1.0) == pytest.approx(0.0, abs=1e-8)

    def test_specific_value(self):
        assert optimal_offset(2.0, 1.0) == pytest.approx(math.sqrt(3.0) - 2.0,
                                                         rel=1e-12)

    def test_matches_bruteforce_grid(self):
        diff = DiffusionParams(0.0, 0.3, 0.3)
        for a in (1.01, 1.5, 2.0, 10.0):
            sol = galerkin_solution(diff, 1.0, 0.0, a)
            xs = np.arange(-1.0 + 1e-4, 1.0, 1e-4)
            brute = xs[int(np.argmax(sol.interval(xs, 0.0)))]
            assert abs(brute - optimal_offset(a, 1.0)) < 1e-3

    def test_axis_concavity(self):
        # interval along the axis is concave: second difference nonpositive
        diff = compute_diffusion(default_mobility(0.5))
        sol = galerkin_solution(diff, 1.0, 0.0, 2.0)
        xs = np.linspace(-0.995, 0.995, 399)
        t = sol.interval(xs, 0.0)
        second = t[:-2] - 2 * t[1:-1] + t[2:]
        assert np.all(second <= 1e-12)

    def test_stationary_at_optimum(self):
        diff = compute_diffusion(default_mobility(2.0))
        a = 1.3
        sol = galerkin_solution(diff, 1.0, 0.0, a)
        x0 = optimal_offset(a, 1.0)
        h = 1e-6
        grad = (float(sol.interval(x0 + h, 0)) - float(sol.interval(x0 - h, 0))) / (2 * h)
        assert abs(grad) < 1e-6 * float(sol.interval(x0, 0.0))

    def test_limits_over_concentration(self):
        # offset heads to 0 with vanishing drift and to -R with full drift
        xs = []
        for k in np.logspace(-3, 3, 9).tolist() + [1e6]:
            mob = default_mobility(k)
            xs.append(optimal_offset(trial_offset_scale(mob, 1.0), 1.0))
        assert all(b <= a + 1e-12 for a, b in zip(xs, xs[1:]))  # monotone down
        assert abs(xs[0]) < 1e-3
        assert xs[-1] == pytest.approx(-1.0, abs=2e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            optimal_offset(0.9, 1.0)


def test_drift_regime_thresholds():
    # global drift 2 mu1 R / s11 = R here; both thresholds are inclusive
    diff = DiffusionParams(1.0, 2.0, 2.0)
    assert drift_regime(diff, 1.0) == "weak"
    assert drift_regime(diff, 5.0) is None
    assert drift_regime(diff, 10.0) == "strong"
