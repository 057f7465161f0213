"""Monte-Carlo oracle: step sampling, first exit, interval estimation."""

import math

import numpy as np
import pytest

from lamopt import ctrw
from lamopt.config import DEFAULTS, default_mobility, mobility_from_config
from lamopt.ctrw import (
    MAX_RUN_STEPS,
    MAX_TRIALS,
    EstimateWithCI,
    SimConfig,
    _Walk,
    _check_run_size,
    _check_start,
    _chunks,
    _jumps_by,
    _mean_ci,
    _walk_chunk,
    estimate_T,
    sample_dwells,
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


def no_horizon(n):
    """The horizon of a walk with no call: a step count no trial reaches."""
    return np.full(n, np.iinfo(np.int64).max)


def mean_exit_steps(X, R, params, cfg):
    """Mean number of displacements before first exit (no call truncation).

    By Wald's identity this is ``estimate_T`` at ``lam = 0`` divided by
    ``mean_time``; the tests read it as a step count.
    """
    x0, y0 = _check_start(X, R)
    counts, censored = [], 0
    for rng, n in _chunks(cfg):
        walk = _walk_chunk(x0, y0, R, no_horizon(n), params, rng, n, cfg.max_steps)
        counts.append(walk.steps[~walk.censored].astype(float))
        censored += int(walk.censored.sum())
    return _mean_ci(counts, censored)


# ---------------------------------------------------------------------------
# the timed walk, kept as the oracle of the spatial one
# ---------------------------------------------------------------------------

def timed_walk(x0, y0, R, horizon, params, rng, n, max_steps):
    """The walk that ``_walk_chunk`` replaced, kept as its oracle.

    Every step draws a dwell after its displacement, and a trial stops at
    its first jump endpoint outside the disc, or before its first jump that
    would complete strictly past its horizon, a time (that jump is not
    applied).  Returns per trial ``(t, x, y, exited, steps, censored)``,
    where ``t`` is the exit time, or the horizon if the trial passed it.
    """
    t_out = np.empty(n)
    x_out = np.empty(n)
    y_out = np.empty(n)
    exited = np.zeros(n, dtype=bool)
    steps = np.full(n, max_steps, dtype=np.int64)
    censored = np.zeros(n, dtype=bool)
    idx = np.arange(n)
    t = np.zeros(n)
    x = np.full(n, x0, dtype=float)
    y = np.full(n, y0, dtype=float)
    h = np.broadcast_to(np.asarray(horizon, dtype=float), (n,))
    r2 = R * R
    for step in range(1, max_steps + 1):
        dx, dy = sample_steps(params, rng, idx.size)
        t_next = t + sample_dwells(params, rng, idx.size)
        x_next = x + dx
        y_next = y + dy
        passed = t_next > h
        stop = passed | (x_next**2 + y_next**2 >= r2)
        i = idx[stop]
        held = passed[stop]
        t_out[i] = np.minimum(t_next[stop], h[stop])
        x_out[i] = np.where(held, x[stop], x_next[stop])
        y_out[i] = np.where(held, y[stop], y_next[stop])
        exited[i] = ~held
        steps[i] = step
        run = ~stop
        idx, h = idx[run], h[run]
        t, x, y = t_next[run], x_next[run], y_next[run]
        if idx.size == 0:
            break
    t_out[idx] = t
    x_out[idx] = x
    y_out[idx] = y
    censored[idx] = True
    return t_out, x_out, y_out, exited, steps, censored


def timed_estimate_T(X, R, lam, params, cfg):
    """``estimate_T`` on the timed walk: an exponential call gap per trial
    is its horizon, and the trial's value is its clock when it stops."""
    x0, y0 = _check_start(X, R)
    values, censored = [], 0
    for rng, n in _chunks(cfg):
        zeta = rng.exponential(1.0 / lam, n) if lam > 0.0 else math.inf
        t, _, _, _, _, cens = timed_walk(x0, y0, R, zeta, params, rng, n,
                                         cfg.max_steps)
        values.append(t[~cens])
        censored += int(cens.sum())
    return _mean_ci(values, censored)


def timed_mean_exit_steps(X, R, params, cfg):
    x0, y0 = _check_start(X, R)
    counts, censored = [], 0
    for rng, n in _chunks(cfg):
        _, _, _, _, steps, cens = timed_walk(x0, y0, R, math.inf, params, rng, n,
                                             cfg.max_steps)
        counts.append(steps[~cens].astype(float))
        censored += int(cens.sum())
    return _mean_ci(counts, censored)


def timed_surviving_positions(X, t_target, R, params, cfg):
    x0, y0 = _check_start(X, R)
    survivors = []
    for rng, n in _chunks(cfg):
        _, x, y, exited, _, cens = timed_walk(x0, y0, R, t_target, params, rng, n,
                                              cfg.max_steps)
        assert not cens.any()
        alive = ~exited
        survivors.append(np.column_stack([x[alive], y[alive]]))
    pos = np.vstack(survivors)
    return pos, pos.shape[0] / cfg.n_trials


def empirical_density(X, t_target, R, params, cfg, grid):
    """Surviving positions binned to their nearest node of ``grid``, as a
    density that integrates (sum * h^2) to the survival fraction."""
    pos, survival = surviving_positions(X, t_target, R, params, cfg)
    counts = np.bincount(grid.nearest_node_index(pos[:, 0], pos[:, 1]),
                         minlength=grid.n_nodes)
    return counts / (cfg.n_trials * grid.h**2), survival


# ---------------------------------------------------------------------------
# the walk before its lean rewrite, kept as its exact-bit oracle
# ---------------------------------------------------------------------------

def frozen_sample_direction(k, rng, n):
    """``sample_direction`` as first written: a sign select times the
    half-law draw."""
    u = rng.random(n)
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if k == 0.0:
        return sign * u * math.pi
    return sign * (-np.log1p(u * math.expm1(-k * math.pi)) / k)


def frozen_sample_steps(params, rng, n):
    """``sample_steps`` as first written: trig at the signed angle."""
    length = rng.exponential(params.mean_len, n)
    theta = frozen_sample_direction(params.k, rng, n)
    return length * np.cos(theta), length * np.sin(theta)


def frozen_walk(x0, y0, R, horizon, params, rng, n, max_steps):
    """``_walk_chunk`` as first written: four mask compactions per jump."""
    steps = np.zeros(n, dtype=np.int64)
    x_out = np.full(n, x0, dtype=float)
    y_out = np.full(n, y0, dtype=float)
    exited = np.zeros(n, dtype=bool)
    censored = np.zeros(n, dtype=bool)
    idx = np.arange(n)
    h = None
    if horizon is not None:
        h = np.asarray(horizon, dtype=np.int64)
        idx = idx[h > 0]
        h = h[idx]
    x = np.full(idx.size, x0, dtype=float)
    y = np.full(idx.size, y0, dtype=float)
    r2 = R * R
    step = 0
    while idx.size and step < max_steps:
        step += 1
        dx, dy = frozen_sample_steps(params, rng, idx.size)
        x += dx
        y += dy
        out = x * x + y * y >= r2
        stop = out if h is None else out | (h == step)
        i = idx[stop]
        x_out[i] = x[stop]
        y_out[i] = y[stop]
        exited[i] = out[stop]
        steps[i] = step
        run = ~stop
        idx, x, y = idx[run], x[run], y[run]
        if h is not None:
            h = h[run]
    x_out[idx] = x
    y_out[idx] = y
    steps[idx] = max_steps
    censored[idx] = True
    return _Walk(steps, x_out, y_out, exited, censored)


EPS = np.finfo(float).eps
# Largest gap allowed between a walk position and the frozen walk's, km.
# The measured largest over the ``test_walk`` cases is 2e-16 km.
WALK_ATOL = 1e-15


class TestExactBits:
    """The walk makes the same generator calls, in the same order and with
    the same sizes, as the frozen one.  Its displacements come from one
    ``tan`` by the half-angle identities, not from ``cos`` and ``sin``, so
    they are within ``4 eps L`` of the frozen ones, with the same signs (a
    zero ``dy``'s sign aside, when a uniform draw is exactly 0), and its
    positions within ``WALK_ATOL``.  Its step counts and its exit and
    censoring flags are equal bit for bit."""

    KS = [0.0, 1e-4, 0.1, 20.0, 1e6]
    NS = [1, 5, 16_384]

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("k", KS)
    def test_sample_steps(self, k, n):
        mob = default_mobility(k)
        got = sample_steps(mob, np.random.Generator(np.random.Philox([60, n])), n)
        ref = frozen_sample_steps(mob, np.random.Generator(np.random.Philox([60, n])), n)
        # the first draw of either is the n lengths
        length = np.random.Generator(np.random.Philox([60, n])).exponential(mob.mean_len, n)
        assert np.all(np.abs(got[0] - ref[0]) <= 4 * EPS * length)
        assert np.all(np.abs(got[1] - ref[1]) <= 4 * EPS * length)
        assert np.array_equal(np.signbit(got[1]), np.signbit(ref[1]))

    @pytest.mark.parametrize("theta", [
        0.0, 1e-300, -1e-300, math.pi / 2, -math.pi / 2, math.pi / 3, -math.pi / 3,
        np.nextafter(math.pi, 0.0), -np.nextafter(math.pi, 0.0),
    ])
    def test_edge_angles(self, theta, monkeypatch):
        # the half-angle form at 0, at the quarter and the third turn, and
        # next to the reversal, where tan(|theta| / 2) is about 1.6e16
        mob, n = default_mobility(0.5), 64
        monkeypatch.setattr(ctrw, "sample_direction", lambda k, rng, n: np.full(n, theta))
        dx, dy = sample_steps(mob, np.random.default_rng(63), n)
        length = np.random.default_rng(63).exponential(mob.mean_len, n)
        assert np.all(np.abs(dx - length * math.cos(theta)) <= 4 * EPS * length)
        assert np.all(np.abs(dy - length * math.sin(theta)) <= 4 * EPS * length)
        assert np.all(np.abs(dx * dx + dy * dy - length**2) <= 8 * EPS * length**2)
        assert np.all(np.signbit(dy) == np.signbit(theta))

    @pytest.mark.parametrize("horizon", ["none", "geometric", "zeros", "censor"])
    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("k", KS)
    def test_walk(self, k, n, horizon):
        # a 0.2 km disc is 10 mean jump lengths: about 50 jumps to exit by
        # diffusion, 8 by drift, and max_steps = 4 censors most trials
        mob = default_mobility(k)

        def run(walk):
            rng = np.random.Generator(np.random.Philox([61, n]))
            # the oracle still spells "no horizon" as None
            h = None if walk is frozen_walk else no_horizon(n)
            max_steps = 1_000_000
            if horizon == "geometric":
                h = rng.geometric(0.05, n)
            elif horizon == "zeros":
                h = np.random.default_rng(62).integers(0, 30, n)
            elif horizon == "censor":
                max_steps = 4
            return walk(0.05, -0.03, 0.2, h, mob, rng, n, max_steps)

        got, ref = run(_walk_chunk), run(frozen_walk)
        for name in ("steps", "exited", "censored"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert np.all(np.abs(got.x - ref.x) <= WALK_ATOL)
        assert np.all(np.abs(got.y - ref.y) <= WALK_ATOL)
        if n > 5:
            assert ref.exited.any()
            assert ref.censored.any() == (horizon == "censor")
            assert (ref.steps == 0).any() == (horizon == "zeros")


def test_brownian_surrogate_is_unit():
    d = compute_diffusion(brownian_surrogate())
    assert d.sigma11 == pytest.approx(1.0, rel=1e-9)
    assert d.sigma22 == pytest.approx(1.0, rel=1e-9)
    assert d.mu1 == 0.0


class TestSampling:
    def test_dwell_mean_lln(self):
        params = default_mobility(0.5)
        rng = np.random.default_rng(0)
        dwell = sample_dwells(params, rng, 1_000_000)
        band = 4.0 * dwell.std() / 1000.0
        assert abs(dwell.mean() - params.mean_time) < band

    def test_concentrated_directions(self):
        # inverse-CDF sampling puts the largest of n draws near log(n)/k,
        # so the 1e-5 ceiling needs k a decade above the 1e6 proxy
        params = default_mobility(1e7)
        rng = np.random.default_rng(1)
        dx, dy = sample_steps(params, rng, 100_000)
        theta = np.arctan2(dy, dx)
        assert np.max(np.abs(theta)) < 1e-5
        rng = np.random.default_rng(1)
        dx6, dy6 = sample_steps(default_mobility(1e6), rng, 100_000)
        assert np.max(np.abs(np.arctan2(dy6, dx6))) < 2 * math.log(100_000) / 1e6

    def test_direction_variance_matches_quadrature(self):
        params = default_mobility(1.0)
        rng = np.random.default_rng(2)
        dx, dy = sample_steps(params, rng, 1_000_000)
        theta = np.arctan2(dy, dx)
        ref = direction_moments(1.0).var_theta
        band = 4.0 * np.std(theta**2) / 1000.0
        assert abs(theta.var() - ref) < band


class TestFirstExit:
    def test_start_near_boundary_exits_fast(self):
        walk = _walk_chunk(1.0 - 1e-12, 0.0, 1.0, no_horizon(1), default_mobility(0.5),
                           np.random.default_rng(4), 1, max_steps=1_000_000)
        assert walk.exited[0] and walk.steps[0] <= 3
        assert math.hypot(walk.x[0], walk.y[0]) >= 1.0

    def test_start_outside_rejected(self):
        with pytest.raises(DomainError):
            estimate_T((1.0, 0.0), 1.0, 2.0, default_mobility(0.5), SimConfig(n_trials=10))

    @pytest.mark.parametrize("X", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_start_rejected(self, X):
        with pytest.raises(DomainError):
            estimate_T(X, 1.0, 2.0, default_mobility(0.5), SimConfig(n_trials=10))

    @pytest.mark.parametrize("R", [-1.0, 0.0, math.inf, math.nan])
    def test_bad_radius_rejected(self, R):
        # the start test squares R, so R = -1 used to run the R = 1 walk
        mob, cfg = default_mobility(0.5), SimConfig(n_trials=200, seed=1)
        with pytest.raises(DomainError, match="radius must be finite"):
            estimate_T((0.0, 0.0), R, 2.0, mob, cfg)
        with pytest.raises(DomainError, match="radius must be finite"):
            surviving_positions((0.0, 0.0), 0.4, R, mob, cfg)

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
        # recorded from the timed walk, which the oracle reproduces exactly
        est = timed_mean_exit_steps((-0.3, 0.0), 1.0, default_mobility(20.0),
                                    SimConfig(n_trials=2_000, seed=23, chunk_size=1_024))
        assert est == EstimateWithCI(mean=66.317, half_width_95=0.3504523881599089,
                                     n=2000, censored_count=0)

    def test_time_free_mean_steps_matches_recorded_value(self):
        est = mean_exit_steps((-0.3, 0.0), 1.0, default_mobility(20.0),
                              SimConfig(n_trials=2_000, seed=23, chunk_size=1_024))
        assert est == EstimateWithCI(mean=65.762, half_width_95=0.3473675377866417,
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
        # with no calls no trial reaches its horizon: one still walking at
        # max_steps is censored, not stopped (about 50 jumps to leave 0.2 km)
        est = estimate_T((0.0, 0.0), 0.2, 0.0, params,
                         SimConfig(n_trials=256, seed=8, max_steps=60))
        assert est.censored_count > 0 and est.censored_count + est.n == 256


class TestEstimateT:
    # (mean, half-width, n, censored) recorded from the timed walk, before
    # the three chunk loops were folded into one walk; its oracle must
    # reproduce them exactly.
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
        assert timed_estimate_T(X, 1.0, lam, default_mobility(k), cfg) == expected

    def test_censored_matches_recorded_values(self):
        cfg = SimConfig(n_trials=2_000, seed=22, max_steps=40, chunk_size=1_024)
        est = timed_estimate_T((0.0, 0.0), 0.3, 5.0, default_mobility(0.5), cfg)
        assert est == EstimateWithCI(mean=0.053151449622324626,
                                     half_width_95=0.001305743858360561,
                                     n=1321, censored_count=679)

    # the same inputs on the spatial walk with step horizons
    @pytest.mark.parametrize("X, lam, k, expected", [
        ((0.0, 0.0), 0.2, 0.5, EstimateWithCI(
            mean=0.3465306731383358, half_width_95=0.003576116570657202,
            n=3000, censored_count=0)),
        ((-0.5, 0.0), 2.0, 20.0, EstimateWithCI(
            mean=0.14427710013648426, half_width_95=0.0017685790382543074,
            n=3000, censored_count=0)),
        ((0.1, 0.2), 0.0, 1e6, EstimateWithCI(
            mean=0.09967185185185186, half_width_95=0.0005259980036201155,
            n=3000, censored_count=0)),
    ])
    def test_time_free_matches_recorded_values(self, X, lam, k, expected):
        cfg = SimConfig(n_trials=3_000, seed=21, chunk_size=1_024)
        assert estimate_T(X, 1.0, lam, default_mobility(k), cfg) == expected

    def test_time_free_censored_matches_recorded_values(self):
        cfg = SimConfig(n_trials=2_000, seed=22, max_steps=40, chunk_size=1_024)
        est = estimate_T((0.0, 0.0), 0.3, 5.0, default_mobility(0.5), cfg)
        assert est == EstimateWithCI(mean=0.05235898555871345,
                                     half_width_95=0.0013159507549593056,
                                     n=1271, censored_count=729)

    def test_high_rate_dominates(self):
        est = estimate_T((0.0, 0.0), 1.0, 1e6, default_mobility(0.5),
                         SimConfig(n_trials=50_000, seed=9))
        assert est.mean == pytest.approx(1e-6, rel=0.05)

    def test_rate_below_float_resolution_is_zero_rate(self):
        # lam * theta underflows to 0, so the kill probability per step is 0
        cfg = SimConfig(n_trials=500, seed=17)
        mob = default_mobility(0.5)
        assert (estimate_T((0.1, 0.0), 1.0, 1e-320, mob, cfg)
                == estimate_T((0.1, 0.0), 1.0, 0.0, mob, cfg))

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


def direct_jumps_by(t, params, rng, n):
    """``M = max{m : S_m <= t}`` by a running sum of one dwell per step."""
    m = np.zeros(n, dtype=np.int64)
    s = np.zeros(n)
    idx = np.arange(n)
    while idx.size:
        s[idx] += sample_dwells(params, rng, idx.size)
        idx = idx[s[idx] <= t]
        m[idx] += 1
    return m


def within_ci(a: EstimateWithCI, b: EstimateWithCI) -> bool:
    """Two independent estimates agree within the sum of their 95% half-widths."""
    return abs(a.mean - b.mean) <= a.half_width_95 + b.half_width_95


def fraction_ci(hits: int, n: int) -> EstimateWithCI:
    p = hits / n
    return EstimateWithCI(mean=p, half_width_95=1.96 * math.sqrt(p * (1 - p) / n), n=n)


class TestTimeFreeLaw:
    """The spatial walk with step horizons against the timed walk it
    replaced: the same law, so independent runs agree within their CIs."""

    @pytest.mark.parametrize("X", [(-0.1, 0.0), (0.1, 0.15)], ids=["on_axis", "off_axis"])
    @pytest.mark.parametrize("lam", [0.0, 0.2, 2.0, 50.0])
    @pytest.mark.parametrize("k", [0.1, 0.5, 20.0])
    def test_estimate_T_matches_timed_oracle(self, k, lam, X):
        mob = default_mobility(k)
        new = estimate_T(X, 0.5, lam, mob, SimConfig(n_trials=10_000, seed=40))
        old = timed_estimate_T(X, 0.5, lam, mob, SimConfig(n_trials=10_000, seed=41))
        assert new.censored_count == old.censored_count == 0
        assert within_ci(new, old), (new, old)

    def test_censored_matches_timed_oracle(self):
        # A trial is censored when it neither exits nor is killed within
        # max_steps; both walks give that event the probability
        # E[phi^max_steps; no exit].  The uncensored means differ by a
        # second-order term (0.4% here), well inside the CI.
        mob = default_mobility(0.5)
        new = estimate_T((0.0, 0.0), 0.3, 5.0, mob,
                         SimConfig(n_trials=10_000, seed=42, max_steps=40))
        old = timed_estimate_T((0.0, 0.0), 0.3, 5.0, mob,
                               SimConfig(n_trials=10_000, seed=43, max_steps=40))
        assert within_ci(fraction_ci(new.censored_count, 10_000),
                         fraction_ci(old.censored_count, 10_000))
        assert within_ci(new, old), (new, old)

    def test_zero_rate_is_wald(self):
        # E[S_N] = mean_time E[N]: at lam = 0 no horizon is drawn, so both
        # estimates walk the same trials
        mob = default_mobility(0.5)
        cfg = SimConfig(n_trials=5_000, seed=44)
        est = estimate_T((0.2, -0.1), 1.0, 0.0, mob, cfg)
        steps = mean_exit_steps((0.2, -0.1), 1.0, mob, cfg)
        assert est.mean == pytest.approx(mob.mean_time * steps.mean, rel=1e-12)
        assert est.n == steps.n

    @pytest.mark.parametrize("var_eta_s2, t", [
        (1.0, 0.4),      # shape 64, about 180 jumps: many blocks
        (64.0, 0.05),    # shape 1 (exponential dwells): M is Poisson(22.5)
        (128.0, 0.003),  # shape 0.5, t below one block
    ])
    def test_jumps_by_matches_dwell_cumsum(self, var_eta_s2, t):
        from scipy.stats import chi2_contingency

        mob = mobility_from_config(dict(DEFAULTS, k=0.5, Var_eta_s2=var_eta_s2))
        n = 20_000
        new = _jumps_by(t, mob, np.random.default_rng(45), n, cap=10**6)
        old = direct_jumps_by(t, mob, np.random.default_rng(46), n)
        se_mean = math.sqrt((new.var() + old.var()) / n)
        assert abs(new.mean() - old.mean()) <= 4 * se_mean

        def var_se2(m):
            d = m - m.mean()
            return (np.mean(d**4) - m.var() ** 2) / n

        se_var = math.sqrt(var_se2(new) + var_se2(old))
        assert abs(new.var() - old.var()) <= 4 * se_var
        # two-sample chi-square on the histogram, tails pooled so that
        # every bin expects at least 5 draws per sample
        values = np.arange(max(new.max(), old.max()) + 1)
        table = np.array([np.bincount(new, minlength=values.size),
                          np.bincount(old, minlength=values.size)])
        bins, acc = [], np.zeros(2, dtype=np.int64)
        for col in table.T:
            acc = acc + col
            if acc.sum() >= 10:
                bins.append(acc)
                acc = np.zeros(2, dtype=np.int64)
        bins[-1] = bins[-1] + acc
        assert chi2_contingency(np.array(bins).T).pvalue > 1e-3

    def test_jumps_by_stops_counting_past_cap(self):
        mob = default_mobility(0.5)
        full = _jumps_by(0.05, mob, np.random.default_rng(47), 2_000, cap=10**6)
        capped = _jumps_by(0.05, mob, np.random.default_rng(47), 2_000, cap=5)
        assert np.array_equal(capped > 5, full > 5)
        assert np.array_equal(capped[full <= 5], full[full <= 5])
        assert _jumps_by(0.0, mob, np.random.default_rng(47), 10, cap=5).max() == 0

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_bad_time_rejected(self, t):
        with pytest.raises(DomainError, match="time"):
            surviving_positions((0.0, 0.0), t, 1.0, default_mobility(0.5),
                                SimConfig(n_trials=10))

    def test_huge_time_is_bounded_by_max_steps(self):
        # the dwell sums stop at max_steps, so this raises at once instead of
        # summing about 4.5e11 dwells per trial
        cfg = SimConfig(n_trials=100, seed=48, max_steps=50)
        with pytest.raises(DomainError, match="max_steps"):
            surviving_positions((0.0, 0.0), 1e9, 1.0, default_mobility(0.5), cfg)

    @pytest.mark.parametrize("t", [0.05, 0.4])
    def test_survival_matches_timed_oracle(self, t):
        mob = default_mobility(0.5)
        n = 20_000
        pos, _ = surviving_positions((0.2, 0.0), t, 1.0, mob,
                                     SimConfig(n_trials=n, seed=49))
        ref, _ = timed_surviving_positions((0.2, 0.0), t, 1.0, mob,
                                           SimConfig(n_trials=n, seed=50))
        assert within_ci(fraction_ci(len(pos), n), fraction_ci(len(ref), n))
        for col in (0, 1):
            a, b = pos[:, col], ref[:, col]
            ha = 1.96 * a.std(ddof=1) / math.sqrt(a.size)
            hb = 1.96 * b.std(ddof=1) / math.sqrt(b.size)
            assert abs(a.mean() - b.mean()) <= ha + hb
        assert np.all(np.hypot(pos[:, 0], pos[:, 1]) < 1.0)

    def test_horizon_is_an_exact_step_count(self):
        mob = default_mobility(0.5)
        horizon = np.random.default_rng(51).integers(0, 60, 500)
        walk = _walk_chunk(0.0, 0.0, 1e9, horizon, mob, np.random.default_rng(52),
                           500, max_steps=40)
        assert not walk.exited.any()
        assert np.array_equal(walk.censored, horizon > 40)
        assert np.array_equal(walk.steps, np.minimum(horizon, 40))
        still = horizon == 0
        assert still.any() and np.all(walk.x[still] == 0.0) and np.all(walk.y[still] == 0.0)

    def test_exit_on_the_horizon_step_counts_as_exit(self):
        # both walks draw the same first batch, so a horizon of one jump
        # stops every trial where the unlimited walk takes its first jump
        mob = default_mobility(20.0)
        n = 2_000
        free = _walk_chunk(0.99, 0.0, 1.0, no_horizon(n), mob, np.random.default_rng(53),
                           n, 100)
        one = _walk_chunk(0.99, 0.0, 1.0, np.ones(n, dtype=np.int64), mob,
                          np.random.default_rng(53), n, 100)
        first = free.steps == 1
        assert 0 < first.sum() < n
        assert np.array_equal(one.exited, first)
        assert np.all(one.steps == 1)
        assert np.array_equal(one.x[first], free.x[first])
        assert np.all(np.hypot(one.x[~first], one.y[~first]) < 1.0)


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

    # survivor count and sum of the sorted rows, recorded from the timed
    # walk before the three chunk loops were folded into one walk (rows may
    # come in another order)
    @pytest.mark.parametrize("t, n_survivors, row_sum", [
        (0.0, 3000, 599.9999999999999),
        (0.05, 3000, 1000.4168023918894),
        (0.4, 286, 238.52618027815348),
    ])
    def test_survivors_match_recorded(self, t, n_survivors, row_sum):
        pos, frac = timed_surviving_positions((0.2, 0.0), t, 1.0, default_mobility(0.5),
                                              SimConfig(n_trials=3_000, seed=24,
                                                        chunk_size=1_024))
        assert pos.shape == (n_survivors, 2)
        assert frac == n_survivors / 3_000
        assert float(pos[np.lexsort((pos[:, 1], pos[:, 0]))].sum()) == row_sum

    # the same inputs on the spatial walk, survivors in trial order
    @pytest.mark.parametrize("t, n_survivors, row_sum", [
        (0.0, 3000, 599.9999999999999),
        (0.05, 3000, 991.1405606406385),
        (0.4, 319, 270.5851445349296),
    ])
    def test_time_free_survivors_match_recorded(self, t, n_survivors, row_sum):
        pos, frac = surviving_positions((0.2, 0.0), t, 1.0, default_mobility(0.5),
                                        SimConfig(n_trials=3_000, seed=24,
                                                  chunk_size=1_024))
        assert pos.shape == (n_survivors, 2)
        assert frac == n_survivors / 3_000
        assert float(pos.sum()) == row_sum

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

    @pytest.mark.parametrize("field, value", [
        ("n_trials", 100.5), ("n_trials", 10.0), ("chunk_size", 0), ("chunk_size", -5),
        ("chunk_size", 64.5), ("max_steps", 10.5), ("seed", 1.5), ("seed", -1),
        ("n_trials", True), ("n_trials", None), ("n_trials", "3")])
    def test_counts_and_seed_must_be_integers(self, field, value):
        # each used to pass here and fail later: range() with a zero or float
        # step, an empty concatenate, the seeding of Philox, or (max_steps)
        # not at all
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            SimConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(n_trials=np.int64(10), seed=np.uint32(3),
                        max_steps=np.int32(5), chunk_size=np.int64(4))
        assert (cfg.n_trials, cfg.seed, cfg.max_steps, cfg.chunk_size) == (10, 3, 5, 4)

    def test_trial_count_bounded(self):
        # the benchmark's 50k trials and this suite's 200k stay legal
        assert SimConfig(n_trials=MAX_TRIALS).n_trials == MAX_TRIALS >= 200_000
        with pytest.raises(DomainError, match="n_trials"):
            SimConfig(n_trials=MAX_TRIALS + 1)

    def test_unbounded_run_rejected(self):
        # no calls on a 100 km disc: about 1.2e7 jumps to exit by diffusion,
        # so 1e5 trials would each walk the 1e6-jump cap
        mob = default_mobility(0.0)
        cfg = SimConfig(n_trials=100_000, seed=49)
        with pytest.raises(DomainError, match="Monte-Carlo run"):
            estimate_T((0.0, 0.0), 100.0, 0.0, mob, cfg)
        with pytest.raises(DomainError, match="Monte-Carlo run"):
            surviving_positions((0.0, 0.0), 1e9, 100.0, mob, cfg)
        # no calls on the unit disc stays legal, at the defaults even at
        # the largest trial count
        _check_run_size(1.0, math.inf, mob, cfg)
        _check_run_size(1.0, math.inf, default_mobility(0.5),
                        SimConfig(n_trials=MAX_TRIALS))

    def test_run_size_bound_at_max_run_steps(self):
        # without drift or a horizon a trial is expected to leave after
        # 0.5 (R / mean_len)^2 = 1000 jumps, so 1e7 trials sit on the bound;
        # the check is called directly, so no walk starts
        mob = default_mobility(0.0)
        cfg = SimConfig(n_trials=10**7)
        assert cfg.n_trials * 1000 == MAX_RUN_STEPS
        with pytest.raises(DomainError, match="Monte-Carlo run"):
            _check_run_size(mob.mean_len * math.sqrt(2000.0 * (1.0 + 1e-6)),
                            math.inf, mob, cfg)
        _check_run_size(mob.mean_len * math.sqrt(2000.0 * (1.0 - 1e-6)),
                        math.inf, mob, cfg)

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
