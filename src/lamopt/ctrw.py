"""Monte-Carlo simulation of the jump mobility process.

This is the oracle the analytic machinery is validated against: trajectories
are simulated step by step exactly as the motion model defines them (rest for
a random dwell, then displace instantaneously), with no diffusion
approximation anywhere.  ``sample_steps`` draws the displacements
(exponential lengths and double-exponential turn angles) and
``sample_dwells`` the gamma dwells that ``MobilityParams`` fixes.

The path of jump endpoints does not depend on the dwells, so every
vectorized estimate runs on one spatial walk, ``_walk_chunk``, and time
enters only through a step horizon drawn per trial before the walk: a trial
stops at its first jump endpoint outside the disc (exited, even on its
horizon step), or after its horizon-th jump.  Each estimate draws the
horizon with the law its estimand needs:

* ``estimate_T`` at call rate ``lam > 0``: a geometric kill step ``K`` with
  ``P(K >= j) = phi^(j-1)``, where ``phi = (1 + lam theta)^(-kappa)`` is the
  Laplace transform of one Gamma(kappa, theta) dwell.  For an exponential
  call gap ``zeta`` and ``N`` jumps to exit, ``E[min(zeta, S_N)] =
  (1 - E[phi^N]) / lam = (q / lam) E[min(N, K)]`` with ``q = 1 - phi``, so
  ``(q / lam) * steps`` is an exact per-trial value.  At ``lam == 0`` no
  trial reaches its horizon and the value is ``mean_time * steps`` (Wald).
* ``surviving_positions`` at time ``t``: ``M = max{m : S_m <= t}``, the
  number of jumps completed by ``t``, from the dwell partial sums ``S_m``.

Exit from a disc is detected at jump endpoints, so an exiting trial stops
past the circle; the continuum solutions exit on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from lamopt.errors import DomainError, require_int
from lamopt.mobility import MobilityParams, direction_moments, sample_direction

# Dwells per block when ``_jumps_by`` steps the dwell sums toward a time.
_DWELL_BLOCK = 8
# Most trials one run may take: every trial keeps its 8-byte result until
# the run ends, 80 MB at this bound.
MAX_TRIALS = 10**7
# Most jumps a run may expect to walk, summed over its trials: 9 to 10
# minutes at the 1.7e7 to 1.9e7 jumps/s of a shared 2-core VM.  The defaults
# expect 2.3e9 at ``MAX_TRIALS``, or 3.3e9 with no calls.
MAX_RUN_STEPS = 10**10


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
        for name, least in (("n_trials", 1), ("seed", 0), ("max_steps", 1),
                            ("chunk_size", 1)):
            require_int(name, getattr(self, name), least)
        if self.n_trials > MAX_TRIALS:
            raise DomainError(f"n_trials {self.n_trials:.3g} is more than the "
                              f"{MAX_TRIALS:.0e} a Monte-Carlo run may take")


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
    """Vectorized draw of ``n`` independent displacements ``(dx, dy)``.

    Draws ``n`` exponential lengths, then ``n`` turn angles.  The
    displacement ``L (cos theta, sin theta)`` comes from one ``tan`` by the
    half-angle identities: with ``t = tan(|theta| / 2)``, ``dx = L (1 - t^2)
    / (1 + t^2)`` and ``dy = 2 L t / (1 + t^2)`` with the sign of ``theta``
    (numpy's float64 ``tan`` is a SIMD kernel, its ``cos`` and ``sin`` are
    scalar and about 7x slower).  ``|theta| / 2 < pi / 2``, so ``t`` is
    finite (at most about 1.6e16, ``t^2`` cannot overflow).  Each of ``dx``
    and ``dy`` is within ``2 eps L`` of ``L cos(theta)``, ``L sin(theta)``
    (float64 ``eps``), and ``theta = 0`` gives ``(L, 0)``.
    """
    length = rng.exponential(params.mean_len, n)
    theta = sample_direction(params.k, rng, n)
    t = np.abs(theta)
    t *= 0.5
    np.tan(t, out=t)
    den = np.multiply(t, t)
    dx = np.subtract(1.0, den)
    den += 1.0
    scale = np.divide(length, den, out=den)  # L / (1 + t^2)
    dx *= scale
    scale *= 2.0
    dy = np.multiply(t, scale, out=t)
    np.copysign(dy, theta, out=dy)
    return dx, dy


def _gamma_law(params: MobilityParams) -> tuple[float, float]:
    """Shape and scale of the dwell law.  Gamma has no zero-variance member,
    so ``var_time == 0`` raises DomainError, as does a shape or scale that
    overflows."""
    if params.var_time <= 0.0:
        raise DomainError("gamma law requires var > 0")
    try:
        shape = params.mean_time**2 / params.var_time
        scale = params.var_time / params.mean_time
        if math.isfinite(shape) and math.isfinite(scale):
            return shape, scale
    except OverflowError:
        pass
    raise DomainError(f"gamma dwell law overflows for mean_time {params.mean_time:g} hr "
                      f"and var_time {params.var_time:g} hr^2")


def sample_dwells(params: MobilityParams, rng: np.random.Generator, n: int):
    """Vectorized draw of ``n`` independent gamma dwells, hours."""
    shape, scale = _gamma_law(params)
    return rng.gamma(shape, scale, n)


# ---------------------------------------------------------------------------
# first exit and mean update interval
# ---------------------------------------------------------------------------

def _check_start(X, R) -> tuple[float, float]:
    if not (R > 0.0 and math.isfinite(R)):
        raise DomainError(f"radius must be finite and > 0, got {R}")
    x0, y0 = float(X[0]), float(X[1])
    if not x0 * x0 + y0 * y0 < R * R:  # a NaN coordinate fails too
        raise DomainError(f"start point {X} is not strictly inside radius {R}")
    return x0, y0


def _check_run_size(R: float, horizon_steps: float, params: MobilityParams,
                    cfg: SimConfig) -> None:
    """Refuse a run expected to walk more than ``MAX_RUN_STEPS`` jumps, or
    one that no horizon stops and that is expected to end censored.

    A trial is expected to stop after ``min(max_steps, horizon_steps,
    exit steps)`` jumps, with the exit steps from the diffusion limit of
    the jump chain from the center: ``R^2 / E[L^2]`` diffusing (``E[L^2] =
    2 mean_len^2``) or ``2 R / (mean_len E[cos])`` crossing the diameter
    ballistically, whichever is fewer.
    """
    r = R / params.mean_len
    exit_steps = 0.5 * r * r
    e_cos = direction_moments(params.k).e_cos
    if e_cos > 0.0:
        exit_steps = min(exit_steps, 2.0 * r / e_cos)
    steps = cfg.n_trials * min(cfg.max_steps, horizon_steps, exit_steps)
    if steps > MAX_RUN_STEPS:
        raise DomainError(
            f"{cfg.n_trials} trials expect to walk about {steps:.3g} jumps in all, "
            f"more than the {MAX_RUN_STEPS:.0e} a Monte-Carlo run may take")
    if math.isinf(horizon_steps) and exit_steps > cfg.max_steps:
        raise DomainError(
            f"no call or time horizon stops the walk, and a trial from the center "
            f"is expected to take about {exit_steps:.3g} jumps to leave the disc, "
            f"more than max_steps = {cfg.max_steps}")


class _Walk(NamedTuple):
    """Per-trial outcome of ``_walk_chunk``."""

    steps: np.ndarray     # jumps walked, the stopping one included
    x: np.ndarray         # position when the trial stopped
    y: np.ndarray
    exited: np.ndarray    # stopped by a jump endpoint outside the disc
    censored: np.ndarray  # still running after max_steps jumps


def _walk_chunk(x0: float, y0: float, R: float, horizon,
                params: MobilityParams, rng: np.random.Generator,
                n: int, max_steps: int) -> _Walk:
    """Walk ``n`` trials from (x0, y0) until each stops (module docstring).

    ``horizon`` is an int64 step count per trial; a trial with horizon 0
    never moves.  The running trials are kept compacted in trial order,
    and each step draws one ``sample_steps`` batch for exactly those
    trials; the squared radii overwrite that batch.  The bookkeeping
    (record the stopped trials, compact the rest) runs only on a jump where
    some trial stops.  A censored trial reports its position after
    ``max_steps`` jumps.
    """
    steps = np.zeros(n, dtype=np.int64)
    x_out = np.full(n, x0, dtype=float)
    y_out = np.full(n, y0, dtype=float)
    exited = np.zeros(n, dtype=bool)
    censored = np.zeros(n, dtype=bool)
    h = np.asarray(horizon, dtype=np.int64)
    idx = np.flatnonzero(h > 0)
    h = h[idx]
    x = np.full(idx.size, x0, dtype=float)
    y = np.full(idx.size, y0, dtype=float)
    r2 = R * R
    step = 0
    while idx.size and step < max_steps:
        step += 1
        dx, dy = sample_steps(params, rng, idx.size)
        x += dx
        y += dy
        rr = np.multiply(x, x, out=dx)  # squared radii, in the spent batch
        rr += np.multiply(y, y, out=dy)
        stop = rr >= r2
        stop |= h == step
        s = np.flatnonzero(stop)
        if not s.size:
            continue
        i = idx[s]
        x_out[i] = x[s]
        y_out[i] = y[s]
        exited[i] = rr[s] >= r2
        steps[i] = step
        run = np.flatnonzero(~stop)
        idx, x, y, h = idx[run], x[run], y[run], h[run]
    x_out[idx] = x
    y_out[idx] = y
    steps[idx] = max_steps
    censored[idx] = True
    return _Walk(steps, x_out, y_out, exited, censored)


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

    Per trial a geometric kill step (none when ``lam == 0``) is drawn
    independently of the trajectory and is the trial's horizon, so high
    call rates truncate the walk early; the module docstring gives the
    exact per-trial value.  Censored trials (hit ``max_steps`` before
    either event) are excluded from the mean and counted.

    Args:
        X: start point, strictly inside the disc.
        R: disc radius, km.
        lam: call rate per hour, >= 0.
        params: mobility parameters.
        cfg: Monte-Carlo configuration.

    Returns:
        EstimateWithCI in hours.

    Raises:
        DomainError: a bad rate or start point, ``lam > 0`` with
            ``var_time == 0``, a run expected to walk more than
            ``MAX_RUN_STEPS`` jumps, a run with no call horizon whose
            expected exit steps pass ``max_steps``, or every trial censored.
    """
    if not (math.isfinite(lam) and lam >= 0.0):
        raise DomainError(f"call rate must be finite and >= 0, got {lam}")
    x0, y0 = _check_start(X, R)
    q, per_step = 0.0, params.mean_time
    if lam > 0.0:
        shape, scale = _gamma_law(params)
        q = -math.expm1(-shape * math.log1p(lam * scale))
        if q > 0.0:  # else lam * theta underflowed and no trial is killed
            per_step = q / lam
    _check_run_size(R, 1.0 / q if q > 0.0 else math.inf, params, cfg)
    values, censored = [], 0
    for rng, n in _chunks(cfg):
        kill = rng.geometric(q, n) if q > 0.0 else np.full(n, np.iinfo(np.int64).max)
        walk = _walk_chunk(x0, y0, R, kill, params, rng, n, cfg.max_steps)
        values.append(per_step * walk.steps[~walk.censored])
        censored += int(walk.censored.sum())
    return _mean_ci(values, censored)


# ---------------------------------------------------------------------------
# surviving positions
# ---------------------------------------------------------------------------

def _jumps_by(t: float, params: MobilityParams, rng: np.random.Generator,
              n: int, cap: int) -> np.ndarray:
    """Per trial, ``M = max{m : S_m <= t}`` for gamma dwell sums ``S_m``.

    The sums advance a block of ``_DWELL_BLOCK`` dwells at a time, one
    Gamma(B kappa, theta) draw per block.  In the block that crosses ``t``
    the dwells are drawn as ``B`` Gamma(kappa) variates rescaled to the
    block's sum, which is their exact law given that sum (the normalized
    vector is Dirichlet and independent of the sum).  A trial whose count
    passes ``cap`` stops there: only ``M > cap`` matters for it.
    """
    shape, scale = _gamma_law(params)
    block = _DWELL_BLOCK
    m = np.zeros(n, dtype=np.int64)
    left = np.full(n, float(t))  # time left before t after m dwells
    idx = np.arange(n)
    while idx.size:
        s = rng.gamma(block * shape, scale, idx.size)
        within = s <= left[idx]
        cross = idx[~within]
        g = rng.standard_gamma(shape, (cross.size, block))
        np.cumsum(g, axis=1, out=g)
        # partial sums g scale to the block's sum s as g / g[-1] * s; the
        # last one is the whole block, past t by definition
        reach = left[cross] * g[:, -1] / s[~within]
        m[cross] += np.count_nonzero(g[:, :-1] <= reach[:, None], axis=1)
        idx = idx[within]
        m[idx] += block
        left[idx] -= s[within]
        idx = idx[m[idx] <= cap]
    return m


def surviving_positions(X, t_target: float, R: float, params: MobilityParams,
                        cfg: SimConfig) -> tuple[np.ndarray, float]:
    """Positions of trajectories that have not exited by ``t_target``.

    The walker sits still between jumps, so its position at ``t_target`` is
    the endpoint of the last jump completed by that time; each trial walks
    that many jumps unless it exits first.

    Returns:
        (positions array of shape (n_survivors, 2) in trial order, survival
        fraction).

    Raises:
        DomainError: a negative or NaN ``t_target``, ``var_time == 0``, a
            run expected to walk more than ``MAX_RUN_STEPS`` jumps, or some
            trial neither passed ``t_target`` nor exited within
            ``max_steps`` (it would bias the fraction either way).
    """
    if not t_target >= 0.0:  # NaN fails too
        raise DomainError(f"time must be >= 0, got {t_target}")
    x0, y0 = _check_start(X, R)
    _check_run_size(R, t_target / params.mean_time, params, cfg)
    survivors, censored = [], 0
    for rng, n in _chunks(cfg):
        jumps = _jumps_by(t_target, params, rng, n, cfg.max_steps)
        walk = _walk_chunk(x0, y0, R, jumps, params, rng, n, cfg.max_steps)
        alive = ~(walk.exited | walk.censored)
        survivors.append(np.column_stack([walk.x[alive], walk.y[alive]]))
        censored += int(walk.censored.sum())
    if censored:
        raise DomainError(f"{censored} trials still running at max_steps "
                          f"before t={t_target}; raise max_steps")
    pos = np.vstack(survivors)
    return pos, pos.shape[0] / cfg.n_trials

