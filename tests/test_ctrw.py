"""Monte-Carlo oracle: step sampling, first exit, interval estimation."""

import math

import numpy as np
import pytest

from lamopt.config import default_mobility
from lamopt.ctrw import (
    EstimateWithCI,
    SimConfig,
    estimate_T,
    empirical_density,
    first_exit,
    mean_exit_steps,
    sample_steps,
    surviving_positions,
)
from lamopt.errors import DomainError
from lamopt.mobility import MobilityParams, compute_diffusion, direction_moments
from lamopt.pde import DiscGrid


def brownian_surrogate(mean_len: float = 0.02) -> MobilityParams:
    """Uniform-direction walk tuned to unit isotropic diffusion.

    E[len^2] = 2 E[dwell] makes both diffusion entries exactly 1 km^2/hr.
    """
    mean_time = mean_len**2  # exponential lengths: E[len^2] = 2 mean^2
    return MobilityParams(k=0.0, mean_len=mean_len, mean_time=mean_time,
                          var_time=(0.1 * mean_time) ** 2)


def test_brownian_surrogate_is_unit():
    d = compute_diffusion(brownian_surrogate())
    assert d.sigma11 == pytest.approx(1.0, rel=1e-9)
    assert d.sigma22 == pytest.approx(1.0, rel=1e-9)
    assert d.mu1 == 0.0


class TestSampling:
    def test_dwell_mean_lln(self):
        params = default_mobility(0.5)
        rng = np.random.default_rng(0)
        _, _, dwell = sample_steps(params, rng, 1_000_000)
        band = 4.0 * dwell.std() / 1000.0
        assert abs(dwell.mean() - params.mean_time) < band

    def test_concentrated_directions(self):
        # inverse-CDF sampling puts the largest of n draws near log(n)/k,
        # so the 1e-5 ceiling needs k a decade above the 1e6 proxy
        params = default_mobility(1e7)
        rng = np.random.default_rng(1)
        dx, dy, _ = sample_steps(params, rng, 100_000)
        theta = np.arctan2(dy, dx)
        assert np.max(np.abs(theta)) < 1e-5
        rng = np.random.default_rng(1)
        dx6, dy6, _ = sample_steps(default_mobility(1e6), rng, 100_000)
        assert np.max(np.abs(np.arctan2(dy6, dx6))) < 2 * math.log(100_000) / 1e6

    def test_direction_variance_matches_quadrature(self):
        params = default_mobility(1.0)
        rng = np.random.default_rng(2)
        dx, dy, _ = sample_steps(params, rng, 1_000_000)
        theta = np.arctan2(dy, dx)
        ref = direction_moments(1.0).var_theta
        band = 4.0 * np.std(theta**2) / 1000.0
        assert abs(theta.var() - ref) < band


class TestFirstExit:
    def test_start_near_boundary_exits_fast(self):
        params = default_mobility(0.5)
        rng = np.random.default_rng(4)
        s = first_exit((1.0 - 1e-12, 0.0), 1.0, params, rng)
        assert s.n_steps <= 3
        assert s.overshoot >= 1.0

    def test_start_outside_rejected(self):
        with pytest.raises(DomainError):
            first_exit((1.0, 0.0), 1.0, default_mobility(0.5),
                       np.random.default_rng(0))

    @pytest.mark.parametrize("X", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_start_rejected(self, X):
        with pytest.raises(DomainError):
            first_exit(X, 1.0, default_mobility(0.5), np.random.default_rng(0))
        with pytest.raises(DomainError):
            estimate_T(X, 1.0, 2.0, default_mobility(0.5), SimConfig(n_trials=10))

    def test_brownian_center_exit_time(self):
        # unit isotropic diffusion on the unit disc leaves the center after
        # 0.5 hr on average; endpoint exit detection biases the jump process
        # upward by O(mean_len / R), so that allowance is added to the CI
        params = brownian_surrogate(mean_len=0.01)
        est = estimate_T((0.0, 0.0), 1.0, 0.0, params,
                         SimConfig(n_trials=10_000, seed=5))
        overshoot_allowance = 3.0 * params.mean_len / 1.0 * 0.5
        assert abs(est.mean - 0.5) < 3 * est.half_width_95 + overshoot_allowance

    def test_strong_drift_transit(self):
        # essentially straight motion crosses the diameter in 2R/drift;
        # endpoint detection adds about one step of overshoot
        params = default_mobility(1e6)
        mu1 = compute_diffusion(params).mu1
        est = estimate_T((-1.0 + 1e-9, 0.0), 1.0, 0.0, params,
                         SimConfig(n_trials=4_000, seed=6))
        assert est.mean == pytest.approx(2.0 / mu1, rel=0.02)

    def test_mean_steps_matches_transit(self):
        params = default_mobility(1e6)
        mu1 = compute_diffusion(params).mu1
        est = mean_exit_steps((-1.0 + 1e-9, 0.0), 1.0, params,
                              SimConfig(n_trials=4_000, seed=7))
        expected = 2.0 / (mu1 * params.mean_time)
        assert est.mean == pytest.approx(expected, rel=0.02)

    def test_mean_steps_matches_recorded_value(self):
        est = mean_exit_steps((-0.3, 0.0), 1.0, default_mobility(20.0),
                              SimConfig(n_trials=2_000, seed=23, chunk_size=1_024))
        assert est == EstimateWithCI(mean=66.317, half_width_95=0.3504523881599089,
                                     n=2000, censored_count=0)

    def test_mean_steps_all_censored_raises(self):
        cfg = SimConfig(n_trials=256, seed=8, max_steps=3)
        with pytest.raises(DomainError, match="censored"):
            mean_exit_steps((0.0, 0.0), 1.0, default_mobility(0.0), cfg)

    def test_mean_steps_single_trial(self):
        est = mean_exit_steps((0.0, 0.0), 1.0, default_mobility(20.0),
                              SimConfig(n_trials=1, seed=8))
        assert est.n == 1
        assert est.mean >= 1.0
        assert est.half_width_95 == math.inf

    def test_censoring_reported(self):
        params = default_mobility(0.0)
        cfg = SimConfig(n_trials=256, seed=8, max_steps=3)
        with pytest.raises(DomainError):
            # every trial is censored at three steps from the center
            estimate_T((0.0, 0.0), 1.0, 0.0, params, cfg)
        est = estimate_T((0.0, 0.0), 1.0, 50.0, params, cfg)
        assert est.censored_count + est.n == 256


class TestEstimateT:
    # (mean, half-width, n, censored) recorded before the three chunk loops
    # were folded into one walk; the walk must reproduce them exactly.
    @pytest.mark.parametrize("X, lam, k, max_steps, expected", [
        ((0.0, 0.0), 0.2, 0.5, 1_000_000, EstimateWithCI(
            mean=0.3456473784819636, half_width_95=0.003635084818465673,
            n=3000, censored_count=0)),
        ((-0.5, 0.0), 2.0, 20.0, 1_000_000, EstimateWithCI(
            mean=0.14446287714809178, half_width_95=0.0017877412186531137,
            n=3000, censored_count=0)),
        ((0.1, 0.2), 0.0, 1e6, 1_000_000, EstimateWithCI(
            mean=0.09973125448193271, half_width_95=0.0005498281861544891,
            n=3000, censored_count=0)),
    ])
    def test_matches_recorded_values(self, X, lam, k, max_steps, expected):
        cfg = SimConfig(n_trials=3_000, seed=21, chunk_size=1_024,
                        max_steps=max_steps)
        assert estimate_T(X, 1.0, lam, default_mobility(k), cfg) == expected

    def test_censored_matches_recorded_values(self):
        cfg = SimConfig(n_trials=2_000, seed=22, max_steps=40, chunk_size=1_024)
        est = estimate_T((0.0, 0.0), 0.3, 5.0, default_mobility(0.5), cfg)
        assert est == EstimateWithCI(mean=0.053151449622324626,
                                     half_width_95=0.001305743858360561,
                                     n=1321, censored_count=679)

    def test_high_rate_dominates(self):
        est = estimate_T((0.0, 0.0), 1.0, 1e6, default_mobility(0.5),
                         SimConfig(n_trials=50_000, seed=9))
        assert est.mean == pytest.approx(1e-6, rel=0.05)

    def test_reproducible(self):
        cfg = SimConfig(n_trials=4_096, seed=10)
        a = estimate_T((0.1, 0.0), 1.0, 1.0, default_mobility(0.5), cfg)
        b = estimate_T((0.1, 0.0), 1.0, 1.0, default_mobility(0.5), cfg)
        assert a == b

    def test_nonincreasing_in_rate(self):
        # same seed couples the trajectory ensembles across rates
        means = [
            estimate_T((0.0, 0.0), 1.0, lam, default_mobility(0.5),
                       SimConfig(n_trials=20_000, seed=11)).mean
            for lam in (0.0, 0.5, 2.0)
        ]
        assert means[0] >= means[1] >= means[2]

    def test_argmax_left_of_center_under_drift(self):
        # sign check only: the best start point sits on the trailing side
        params = default_mobility(2.0)
        cfg = SimConfig(n_trials=4_000, seed=12)
        xs = np.linspace(-0.9, 0.9, 7)
        means = [estimate_T((x, 0.0), 1.0, 0.0, params, cfg).mean for x in xs]
        assert xs[int(np.argmax(means))] < 0.0


class TestEmpiricalDensity:
    def test_time_zero_all_mass_at_start(self):
        grid = DiscGrid(1.0, 1.0 / 16)
        params = default_mobility(0.5)
        vals, survival = empirical_density((0.25, 0.0), 0.0, 1.0, params,
                                           SimConfig(n_trials=500, seed=13), grid)
        assert survival == 1.0
        idx = int(grid.nearest_node_index([0.25], [0.0])[0])
        assert vals[idx] * grid.h**2 * 500 == pytest.approx(500)
        assert vals.sum() * grid.h**2 == pytest.approx(1.0)

    def test_survival_nonincreasing(self):
        params = brownian_surrogate()
        cfg = SimConfig(n_trials=3_000, seed=14)
        fractions = [
            surviving_positions((0.0, 0.0), t, 1.0, params, cfg)[1]
            for t in (0.05, 0.15, 0.4, 1.0)
        ]
        assert all(b <= a for a, b in zip(fractions, fractions[1:]))

    # survivor count and sum of the sorted rows, recorded before the three
    # chunk loops were folded into one walk (rows may come in another order)
    @pytest.mark.parametrize("t, n_survivors, row_sum", [
        (0.0, 3000, 599.9999999999999),
        (0.05, 3000, 1000.4168023918894),
        (0.4, 286, 238.5261802781535),
    ])
    def test_survivors_match_recorded(self, t, n_survivors, row_sum):
        pos, frac = surviving_positions((0.2, 0.0), t, 1.0, default_mobility(0.5),
                                        SimConfig(n_trials=3_000, seed=24,
                                                  chunk_size=1_024))
        assert pos.shape == (n_survivors, 2)
        assert frac == n_survivors / 3_000
        assert float(pos[np.lexsort((pos[:, 1], pos[:, 0]))].sum()) == row_sum

    def test_trials_running_at_max_steps_raise(self):
        # a trial neither frozen at t_target nor exited is not silently
        # dropped from the survival fraction
        params = brownian_surrogate()
        cfg = SimConfig(n_trials=200, seed=16, max_steps=3)
        with pytest.raises(DomainError, match="max_steps"):
            surviving_positions((0.0, 0.0), 1.0, 1.0, params, cfg)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SimConfig(n_trials=0)
        with pytest.raises(DomainError):
            SimConfig(max_steps=0)

    def test_chunk_streams_worker_independent(self):
        # chunk c draws from the substream (seed, c), so chunk 0's trials end
        # the same way whatever the total: its survivors come first, in trial
        # order, and match a run of that chunk alone
        mob = default_mobility(0.5)
        one, _ = surviving_positions((0.0, 0.0), 0.4, 1.0, mob,
                                     SimConfig(n_trials=1_024, seed=15, chunk_size=1_024))
        two, _ = surviving_positions((0.0, 0.0), 0.4, 1.0, mob,
                                     SimConfig(n_trials=2_048, seed=15, chunk_size=1_024))
        assert 0 < len(one) < len(two)
        np.testing.assert_array_equal(two[:len(one)], one)
