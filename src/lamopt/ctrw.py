"""Monte-Carlo simulation of the jump mobility process.

This is the oracle the analytic machinery is validated against: trajectories
are simulated step by step exactly as the motion model defines them (rest for
a random dwell, then displace instantaneously), with no diffusion
approximation anywhere.  ``sample_steps`` is the one step sampler: it draws
the exponential lengths, double-exponential turn angles and gamma dwells
that ``MobilityParams`` fixes.

Every vectorized estimate runs on one walk, ``_walk_chunk``: a trial stops at
its first jump endpoint outside the disc, or before its first jump that would
complete strictly past its horizon (a call gap, infinity, or an observation
time).  ``first_exit`` is the scalar walk, kept as an independent oracle.

Exit from a disc is detected at jump endpoints; the radial overshoot of the
exiting jump is reported as a diagnostic so the endpoint convention can be
audited against the continuum solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from lamopt.errors import DomainError
from lamopt.mobility import MobilityParams, sample_direction


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo run configuration.

    Trials are partitioned into fixed-size chunks; chunk ``c`` draws from an
    independent Philox substream keyed by ``(seed, c)``, so results do not
    depend on how chunks are scheduled.
    """

    n_trials: int = 100_000
    seed: int = 0
    max_steps: int = 1_000_000
    chunk_size: int = 16_384

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise DomainError("n_trials must be >= 1")
        if self.max_steps < 1:
            raise DomainError("max_steps must be >= 1")


@dataclass(frozen=True)
class ExitSample:
    """One first-exit realization."""

    tau: float            # hours; cumulative dwell through the exiting jump
    exit_point: tuple[float, float]
    n_steps: int
    censored: bool = False

    @property
    def overshoot(self) -> float:
        return math.hypot(*self.exit_point)


@dataclass(frozen=True)
class EstimateWithCI:
    """Sample mean with a normal-approximation 95% confidence interval."""

    mean: float
    half_width_95: float
    n: int
    censored_count: int = 0


# ---------------------------------------------------------------------------
# step sampling
# ---------------------------------------------------------------------------

def sample_steps(params: MobilityParams, rng: np.random.Generator, n: int):
    """Vectorized draw of ``n`` independent (dx, dy, dwell) triples.

    Draws ``n`` exponential lengths, then ``n`` turn angles, then ``n``
    gamma dwells.  Gamma has no zero-variance member, so ``var_time == 0``
    raises DomainError.
    """
    if params.var_time <= 0.0:
        raise DomainError("gamma law requires var > 0")
    length = rng.exponential(params.mean_len, n)
    theta = sample_direction(params.k, rng, n)
    dwell = rng.gamma(params.mean_time**2 / params.var_time,
                      params.var_time / params.mean_time, n)
    return length * np.cos(theta), length * np.sin(theta), dwell


# ---------------------------------------------------------------------------
# first exit and mean update interval
# ---------------------------------------------------------------------------

def _check_start(X, R) -> tuple[float, float]:
    x0, y0 = float(X[0]), float(X[1])
    if not x0 * x0 + y0 * y0 < R * R:  # a NaN coordinate fails too
        raise DomainError(f"start point {X} is not strictly inside radius {R}")
    return x0, y0


def first_exit(X, R: float, params: MobilityParams,
               rng: np.random.Generator, max_steps: int = 1_000_000) -> ExitSample:
    """Simulate one trajectory until its first jump endpoint leaves the disc."""
    x, y = _check_start(X, R)
    t = 0.0
    r2 = R * R
    for n in range(1, max_steps + 1):
        dx, dy, dwell = sample_steps(params, rng, 1)
        t += float(dwell[0])
        x += float(dx[0])
        y += float(dy[0])
        if x * x + y * y >= r2:
            return ExitSample(tau=t, exit_point=(x, y), n_steps=n)
    return ExitSample(tau=t, exit_point=(x, y), n_steps=max_steps, censored=True)


class _Walk(NamedTuple):
    """Per-trial outcome of ``_walk_chunk``."""

    t: np.ndarray         # exit time, or the horizon if the trial passed it
    x: np.ndarray         # position when the trial stopped
    y: np.ndarray
    exited: np.ndarray    # stopped by a jump endpoint outside the disc
    steps: np.ndarray     # jumps drawn, the stopping one included
    censored: np.ndarray  # still running after max_steps jumps


def _walk_chunk(x0: float, y0: float, R: float, horizon,
                params: MobilityParams, rng: np.random.Generator,
                n: int, max_steps: int) -> _Walk:
    """Walk ``n`` trials from (x0, y0) until each stops (module docstring).

    ``horizon`` is a scalar or one value per trial.  The running trials are
    kept compacted in trial order, and each step draws one ``sample_steps``
    batch for exactly those trials.  A censored trial reports the clock and
    position after its ``max_steps`` jumps.
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
        dx, dy, dwell = sample_steps(params, rng, idx.size)
        t_next = t + dwell
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
    return _Walk(t_out, x_out, y_out, exited, steps, censored)


def _chunks(cfg: SimConfig):
    """Yield ``(rng, n)`` per chunk: its Philox substream and trial count."""
    for chunk, start in enumerate(range(0, cfg.n_trials, cfg.chunk_size)):
        rng = np.random.Generator(np.random.Philox([cfg.seed, chunk]))
        yield rng, min(cfg.chunk_size, cfg.n_trials - start)


def _mean_ci(values: list[np.ndarray], censored: int) -> EstimateWithCI:
    """Mean and 95% half-width over the uncensored values of every chunk."""
    v = np.concatenate(values)
    n = v.size
    if n == 0:
        raise DomainError("all trials censored; raise max_steps")
    half = 1.96 * float(v.std(ddof=1)) / math.sqrt(n) if n > 1 else math.inf
    return EstimateWithCI(mean=float(v.mean()), half_width_95=half, n=n,
                          censored_count=censored)


def estimate_T(X, R: float, lam: float, params: MobilityParams,
               cfg: SimConfig) -> EstimateWithCI:
    """Estimate the mean update interval E[min(call gap, exit time)].

    Per trial an exponential call gap (infinite when ``lam == 0``) is drawn
    independently of the trajectory and is the trial's horizon, so high call
    rates truncate the walk early.  Censored trials (hit ``max_steps``
    before either event) are excluded from the mean and counted.

    Args:
        X: start point, strictly inside the disc.
        R: disc radius, km.
        lam: call rate per hour, >= 0.
        params: mobility parameters.
        cfg: Monte-Carlo configuration.

    Returns:
        EstimateWithCI in hours.
    """
    if not (math.isfinite(lam) and lam >= 0.0):
        raise DomainError(f"call rate must be finite and >= 0, got {lam}")
    x0, y0 = _check_start(X, R)
    values, censored = [], 0
    for rng, n in _chunks(cfg):
        zeta = rng.exponential(1.0 / lam, n) if lam > 0.0 else math.inf
        walk = _walk_chunk(x0, y0, R, zeta, params, rng, n, cfg.max_steps)
        values.append(walk.t[~walk.censored])
        censored += int(walk.censored.sum())
    return _mean_ci(values, censored)


def mean_exit_steps(X, R: float, params: MobilityParams,
                    cfg: SimConfig) -> EstimateWithCI:
    """Mean number of displacements before first exit (no call truncation).

    Raises:
        DomainError: every trial was censored at ``max_steps``.
    """
    x0, y0 = _check_start(X, R)
    counts, censored = [], 0
    for rng, n in _chunks(cfg):
        walk = _walk_chunk(x0, y0, R, math.inf, params, rng, n, cfg.max_steps)
        counts.append(walk.steps[~walk.censored].astype(float))
        censored += int(walk.censored.sum())
    return _mean_ci(counts, censored)


# ---------------------------------------------------------------------------
# surviving-position density
# ---------------------------------------------------------------------------

def surviving_positions(X, t_target: float, R: float, params: MobilityParams,
                        cfg: SimConfig) -> tuple[np.ndarray, float]:
    """Positions of trajectories that have not exited by ``t_target``.

    The walker sits still between jumps, so its position at ``t_target`` is
    the endpoint of the last jump completed before that time.

    Returns:
        (positions array of shape (n_survivors, 2) in trial order, survival
        fraction).

    Raises:
        DomainError: some trial neither passed ``t_target`` nor exited
            within ``max_steps`` (it would bias the fraction either way).
    """
    if t_target < 0.0:
        raise DomainError("time must be >= 0")
    x0, y0 = _check_start(X, R)
    survivors, censored = [], 0
    for rng, n in _chunks(cfg):
        walk = _walk_chunk(x0, y0, R, t_target, params, rng, n, cfg.max_steps)
        alive = ~(walk.exited | walk.censored)
        survivors.append(np.column_stack([walk.x[alive], walk.y[alive]]))
        censored += int(walk.censored.sum())
    if censored:
        raise DomainError(f"{censored} trials still running at max_steps "
                          f"before t={t_target}; raise max_steps")
    pos = np.vstack(survivors)
    return pos, pos.shape[0] / cfg.n_trials


def empirical_density(X, t_target: float, R: float, params: MobilityParams,
                      cfg: SimConfig, grid) -> tuple[np.ndarray, float]:
    """Histogram of surviving positions on a disc grid, as a density.

    Each surviving trajectory deposits mass 1/n_trials into the cell of its
    nearest grid node, then counts are divided by the cell area; the array
    integrates (sum * h^2) to the survival fraction.

    Args:
        grid: a ``lamopt.pde.DiscGrid``; the returned array aligns with its
            node ordering.

    Returns:
        (density values per node, survival fraction).
    """
    pos, survival = surviving_positions(X, t_target, R, params, cfg)
    values = np.zeros(grid.n_nodes)
    if pos.shape[0]:
        idx = grid.nearest_node_index(pos[:, 0], pos[:, 1])
        np.add.at(values, idx, 1.0)
        values /= cfg.n_trials * grid.h**2
    return values, survival
