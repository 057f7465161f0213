"""Monte-Carlo simulation of the jump mobility process.

This is the oracle the analytic machinery is validated against: trajectories
are simulated step by step exactly as the motion model defines them (rest for
a random dwell, then displace instantaneously), with no diffusion
approximation anywhere.

Exit from a disc is detected at jump endpoints; the radial overshoot of the
exiting jump is reported as a diagnostic so the endpoint convention can be
audited against the continuum solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    rng_streams: str = "chunked-philox"
    chunk_size: int = 16_384

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise DomainError("n_trials must be >= 1")
        if self.max_steps < 1:
            raise DomainError("max_steps must be >= 1")
        if self.rng_streams != "chunked-philox":
            raise DomainError(f"unknown rng stream policy {self.rng_streams!r}")

    def chunk_rng(self, chunk_index: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox([self.seed, chunk_index]))


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

def _sample_positive(dist: str, mean: float, var: float,
                     rng: np.random.Generator, n: int) -> np.ndarray:
    if dist == "exponential":
        if abs(var - mean**2) > 1e-9 * mean**2:
            raise DomainError("exponential law requires var == mean^2")
        return rng.exponential(mean, n)
    if dist == "gamma":
        if var <= 0.0:
            raise DomainError("gamma law requires var > 0")
        shape = mean**2 / var
        return rng.gamma(shape, var / mean, n)
    if dist == "deterministic":
        if var != 0.0:
            raise DomainError("deterministic law requires var == 0")
        return np.full(n, mean)
    raise DomainError(f"unknown distribution tag {dist!r}")


def sample_steps(params: MobilityParams, rng: np.random.Generator, n: int):
    """Vectorized draw of ``n`` independent (dx, dy, dwell) triples."""
    length = _sample_positive(params.length_dist, params.mean_len, params.var_len, rng, n)
    theta = sample_direction(params.k, rng, n)
    dwell = _sample_positive(params.time_dist, params.mean_time, params.var_time, rng, n)
    return length * np.cos(theta), length * np.sin(theta), dwell


def sample_displacement(params: MobilityParams, rng: np.random.Generator):
    """One displacement vector (km) and its dwell time (hours)."""
    dx, dy, dwell = sample_steps(params, rng, 1)
    return (float(dx[0]), float(dy[0])), float(dwell[0])


# ---------------------------------------------------------------------------
# first exit and mean update interval
# ---------------------------------------------------------------------------

def _check_start(X, R) -> tuple[float, float]:
    x0, y0 = float(X[0]), float(X[1])
    if x0 * x0 + y0 * y0 >= R * R:
        raise DomainError(f"start point {X} is not strictly inside radius {R}")
    return x0, y0


def first_exit(X, R: float, params: MobilityParams,
               rng: np.random.Generator, max_steps: int = 1_000_000) -> ExitSample:
    """Simulate one trajectory until its first jump endpoint leaves the disc."""
    x, y = _check_start(X, R)
    t = 0.0
    r2 = R * R
    for n in range(1, max_steps + 1):
        (dx, dy), dwell = sample_displacement(params, rng)
        t += dwell
        x += dx
        y += dy
        if x * x + y * y >= r2:
            return ExitSample(tau=t, exit_point=(x, y), n_steps=n)
    return ExitSample(tau=t, exit_point=(x, y), n_steps=max_steps, censored=True)


def _min_exit_chunk(x0: float, y0: float, R: float, lam: float,
                    params: MobilityParams, rng: np.random.Generator,
                    n: int, max_steps: int):
    """Simulate one chunk; returns (values, censored_mask, n_steps).

    ``values[i]`` is min(call interarrival, first exit time) for trial i.
    Trials stop as soon as either event is decided, so high call rates
    truncate the walk early.
    """
    px = np.full(n, x0)
    py = np.full(n, y0)
    t = np.zeros(n)
    zeta = rng.exponential(1.0 / lam, n) if lam > 0.0 else np.full(n, np.inf)
    values = np.empty(n)
    steps = np.zeros(n, dtype=np.int64)
    censored = np.zeros(n, dtype=bool)
    alive = np.arange(n)
    r2 = R * R
    step = 0
    while alive.size:
        step += 1
        m = alive.size
        dx, dy, dwell = sample_steps(params, rng, m)
        t[alive] += dwell
        px[alive] += dx
        py[alive] += dy
        exited = px[alive] ** 2 + py[alive] ** 2 >= r2
        called = t[alive] >= zeta[alive]
        done = exited | called
        if step >= max_steps:
            idx = alive[~done]
            censored[idx] = True
            steps[idx] = step
            done = np.ones(m, dtype=bool)
        idx = alive[done & ~censored[alive]]
        values[idx] = np.minimum(t[idx], zeta[idx])
        steps[idx] = step
        alive = alive[~done]
    return values, censored, steps


def estimate_T(X, R: float, lam: float, params: MobilityParams,
               cfg: SimConfig) -> EstimateWithCI:
    """Estimate the mean update interval E[min(call gap, exit time)].

    Per trial an exponential call gap (infinite when ``lam == 0``) is drawn
    independently of the trajectory.  Censored trials (hit ``max_steps``
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
    vals = []
    censored_total = 0
    n_done = 0
    chunk = 0
    while n_done < cfg.n_trials:
        m = min(cfg.chunk_size, cfg.n_trials - n_done)
        v, cens, _ = _min_exit_chunk(
            x0, y0, R, lam, params, cfg.chunk_rng(chunk), m, cfg.max_steps
        )
        vals.append(v[~cens])
        censored_total += int(cens.sum())
        n_done += m
        chunk += 1
    values = np.concatenate(vals)
    n = values.size
    if n == 0:
        raise DomainError("all trials censored; raise max_steps")
    mean = float(values.mean())
    half = 1.96 * float(values.std(ddof=1)) / math.sqrt(n) if n > 1 else math.inf
    return EstimateWithCI(mean=mean, half_width_95=half, n=n,
                          censored_count=censored_total)


def mean_exit_steps(X, R: float, params: MobilityParams,
                    cfg: SimConfig) -> EstimateWithCI:
    """Mean number of displacements before first exit (no call truncation)."""
    x0, y0 = _check_start(X, R)
    counts = []
    chunk = 0
    n_done = 0
    censored_total = 0
    while n_done < cfg.n_trials:
        m = min(cfg.chunk_size, cfg.n_trials - n_done)
        _, cens, steps = _min_exit_chunk(
            x0, y0, R, 0.0, params, cfg.chunk_rng(chunk), m, cfg.max_steps
        )
        counts.append(steps[~cens])
        censored_total += int(cens.sum())
        n_done += m
        chunk += 1
    s = np.concatenate(counts).astype(float)
    mean = float(s.mean())
    half = 1.96 * float(s.std(ddof=1)) / math.sqrt(s.size)
    return EstimateWithCI(mean=mean, half_width_95=half, n=s.size,
                          censored_count=censored_total)


# ---------------------------------------------------------------------------
# surviving-position density
# ---------------------------------------------------------------------------

def surviving_positions(X, t_target: float, R: float, params: MobilityParams,
                        cfg: SimConfig) -> tuple[np.ndarray, float]:
    """Positions of trajectories that have not exited by ``t_target``.

    The walker sits still between jumps, so its position at ``t_target`` is
    the endpoint of the last jump completed before that time.

    Returns:
        (positions array of shape (n_survivors, 2), survival fraction).

    Raises:
        DomainError: some trial neither passed ``t_target`` nor exited
            within ``max_steps`` (it would bias the fraction either way).
    """
    if t_target < 0.0:
        raise DomainError("time must be >= 0")
    x0, y0 = _check_start(X, R)
    survivors = []
    censored_total = 0
    n_done = 0
    chunk = 0
    r2 = R * R
    while n_done < cfg.n_trials:
        m = min(cfg.chunk_size, cfg.n_trials - n_done)
        rng = cfg.chunk_rng(chunk)
        px = np.full(m, x0)
        py = np.full(m, y0)
        t = np.zeros(m)
        alive = np.arange(m)
        for _ in range(cfg.max_steps):
            if alive.size == 0:
                break
            dx, dy, dwell = sample_steps(params, rng, alive.size)
            t_next = t[alive] + dwell
            frozen = t_next > t_target
            idx_frozen = alive[frozen]
            if idx_frozen.size:
                survivors.append(np.column_stack([px[idx_frozen], py[idx_frozen]]))
            keep = alive[~frozen]
            t[keep] = t_next[~frozen]
            px[keep] += dx[~frozen]
            py[keep] += dy[~frozen]
            exited = px[keep] ** 2 + py[keep] ** 2 >= r2
            alive = keep[~exited]
        censored_total += alive.size
        n_done += m
        chunk += 1
    if censored_total:
        raise DomainError(f"{censored_total} trials still running at max_steps "
                          f"before t={t_target}; raise max_steps")
    pos = np.vstack(survivors) if survivors else np.empty((0, 2))
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
