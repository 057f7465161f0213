"""Step-level mobility statistics and their diffusion approximation.

The mobile terminal moves in i.i.d. displacements: a random length, a random
direction about a fixed preferred axis, and a random dwell time per step.
When many steps fit inside the region of interest, the walk is well
approximated by a planar diffusion with drift vector ``mu`` and diffusion
matrix ``sigma``:

    mu    = E[step vector] / E[dwell]
    sigma = (Var[step vector] * E[dwell]^2 + Var[dwell] * m m^T) / E[dwell]^3

with ``m = E[step vector]``.  All lengths are in km, times in hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from lamopt.errors import DegenerateDiffusionError, DomainError, NumericalError

_TWO_PI = 2.0 * math.pi

# Direction-concentration values at or above this behave as a point mass on
# the preferred axis for every moment we compute.
_K_POINT_MASS = 1e12


# ---------------------------------------------------------------------------
# direction family: double-exponential density about the preferred axis
# ---------------------------------------------------------------------------

def direction_pdf(k: float, theta: float | np.ndarray) -> float | np.ndarray:
    """Density of the turn angle about the preferred direction.

    ``f(k, theta) = k exp(-k|theta|) / (2 (1 - exp(-k pi)))`` on [-pi, pi].
    ``k = 0`` is the uniform limit 1/(2 pi); large ``k`` concentrates all
    mass on ``theta = 0``.

    Args:
        k: concentration factor, ``k >= 0``.
        theta: angle(s) in radians, each in [-pi, pi].

    Returns:
        Density value(s), 1/rad.
    """
    if k < 0.0 or not math.isfinite(k):
        raise DomainError(f"concentration factor must be finite and >= 0, got {k}")
    th = np.asarray(theta, dtype=float)
    if np.any(np.abs(th) > math.pi + 1e-12):
        raise DomainError("angle outside [-pi, pi]")
    if k == 0.0:
        out = np.full_like(th, 1.0 / _TWO_PI)
    else:
        norm = -2.0 * math.expm1(-k * math.pi)
        out = k * np.exp(-k * np.abs(th)) / norm
    return float(out) if np.isscalar(theta) else out


def sample_direction(k: float, rng: np.random.Generator, size: int | None = None):
    """Draw turn angles by exact inverse-CDF of the double-exponential density.

    The positive half is a truncated exponential on [0, pi]; a fair sign flip
    restores the symmetric law.
    """
    if k < 0.0:
        raise DomainError(f"concentration factor must be >= 0, got {k}")
    n = 1 if size is None else size
    u = rng.random(n)
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if k == 0.0:
        theta = sign * u * math.pi
    else:
        # F_half^{-1}(u) = -log(1 - u (1 - e^{-k pi})) / k
        theta = sign * (-np.log1p(u * math.expm1(-k * math.pi)) / k)
    return float(theta[0]) if size is None else theta


def _direction_breakpoints(k: float) -> list[float]:
    """Subdivision hints for adaptive quadrature of the peaked density."""
    if k <= 1.0:
        return [0.0]
    pts = {0.0}
    for c in (1.0, 5.0, 20.0, 40.0):
        p = min(0.999 * math.pi, c / k)
        pts.add(p)
        pts.add(-p)
    return sorted(pts)


@dataclass(frozen=True)
class DirectionMoments:
    """Trigonometric moments of the turn-angle distribution."""

    e_cos: float
    e_sin: float
    e_cos2: float
    e_sin2: float
    e_cos_sin: float
    var_theta: float  # rad^2


@lru_cache(maxsize=4096)
def direction_moments(k: float, tol: float = 1e-10) -> DirectionMoments:
    """Compute direction moments by adaptive quadrature of the density.

    Args:
        k: concentration factor, ``k >= 0``.
        tol: absolute tolerance requested per moment integral.

    Returns:
        DirectionMoments with ``e_cos2 + e_sin2 = 1`` to quadrature accuracy.

    Raises:
        NumericalError: a moment integral did not reach ``tol``.
    """
    if k < 0.0:
        raise DomainError(f"concentration factor must be >= 0, got {k}")
    if k == 0.0:
        return DirectionMoments(0.0, 0.0, 0.5, 0.5, 0.0, math.pi**2 / 3.0)
    if k >= _K_POINT_MASS:
        return DirectionMoments(1.0, 0.0, 1.0, 0.0, 0.0, 0.0)

    pts = _direction_breakpoints(k)

    def moment(fn) -> float:
        val, err = quad(
            lambda th: fn(th) * direction_pdf(k, th),
            -math.pi,
            math.pi,
            points=pts,
            limit=400,
            epsabs=tol * 1e-2,
            epsrel=1e-12,
        )
        if err > tol:
            raise NumericalError(
                f"direction moment quadrature reached {err:.3e} > tol {tol:.3e} at k={k}"
            )
        return val

    e_cos = moment(np.cos)
    e_sin = moment(np.sin)
    e_cos2 = moment(lambda th: np.cos(th) ** 2)
    e_sin2 = moment(lambda th: np.sin(th) ** 2)
    e_cos_sin = moment(lambda th: np.cos(th) * np.sin(th))
    e_theta = moment(lambda th: th)
    e_theta2 = moment(lambda th: th**2)
    return DirectionMoments(
        e_cos=e_cos,
        e_sin=e_sin,
        e_cos2=e_cos2,
        e_sin2=e_sin2,
        e_cos_sin=e_cos_sin,
        var_theta=e_theta2 - e_theta**2,
    )


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MobilityParams:
    """Step-level motion parameters.

    Attributes:
        k: direction concentration factor (dimensionless, >= 0).
        mean_len: mean displacement length, km.
        var_len: displacement length variance, km^2.
        mean_time: mean dwell time per displacement, hours.
        var_time: dwell time variance, hours^2.
        length_dist: sampling law for lengths ("exponential", "gamma",
            "deterministic"); first two moments always match the fields.
        time_dist: sampling law for dwell times (same tags).
        second_moment_len: E[length^2], km^2; derived, stored for convenience.
    """

    k: float
    mean_len: float
    var_len: float
    mean_time: float
    var_time: float
    length_dist: str = "exponential"
    time_dist: str = "gamma"
    second_moment_len: float = field(init=False)

    def __post_init__(self) -> None:
        if self.k < 0.0:
            raise DomainError(f"k must be >= 0, got {self.k}")
        if self.mean_len <= 0.0:
            raise DomainError(f"mean_len must be > 0, got {self.mean_len}")
        if self.mean_time <= 0.0:
            raise DomainError(f"mean_time must be > 0, got {self.mean_time}")
        if self.var_len < 0.0 or self.var_time < 0.0:
            raise DomainError("variances must be >= 0")
        object.__setattr__(
            self, "second_moment_len", self.var_len + self.mean_len**2
        )

    @property
    def speed(self) -> float:
        """Free speed along a road section, km/hr."""
        return self.mean_len / self.mean_time


@dataclass(frozen=True)
class DiffusionParams:
    """Drift vector and diffusion matrix of the continuum approximation.

    Units: drift km/hr, diffusion km^2/hr.  The matrix is stored by its
    three independent entries; ``sigma21 == sigma12`` always.
    """

    mu1: float
    mu2: float
    sigma11: float
    sigma22: float
    sigma12: float = 0.0

    @property
    def mu(self) -> np.ndarray:
        return np.array([self.mu1, self.mu2])

    @property
    def sigma(self) -> np.ndarray:
        return np.array([[self.sigma11, self.sigma12], [self.sigma12, self.sigma22]])

    @property
    def sigma_trace(self) -> float:
        return self.sigma11 + self.sigma22


def compute_diffusion(params: MobilityParams) -> DiffusionParams:
    """Map step-level mobility parameters to drift and diffusion.

    The step vector is (L cos A, L sin A) with L the length and A the turn
    angle, independent of each other and of the dwell time.

    Args:
        params: validated mobility parameters.

    Returns:
        DiffusionParams in km/hr and km^2/hr.
    """
    m = direction_moments(params.k)
    e_len = params.mean_len
    e_len2 = params.second_moment_len
    e_t = params.mean_time
    var_t = params.var_time

    mean_vec = np.array([e_len * m.e_cos, e_len * m.e_sin])
    # Covariance of the step vector from length/direction independence.
    var11 = e_len2 * m.e_cos2 - mean_vec[0] ** 2
    var22 = e_len2 * m.e_sin2 - mean_vec[1] ** 2
    var12 = e_len2 * m.e_cos_sin - mean_vec[0] * mean_vec[1]

    mu = mean_vec / e_t
    scale = 1.0 / e_t**3
    s11 = (var11 * e_t**2 + var_t * mean_vec[0] ** 2) * scale
    s22 = (var22 * e_t**2 + var_t * mean_vec[1] ** 2) * scale
    s12 = (var12 * e_t**2 + var_t * mean_vec[0] * mean_vec[1]) * scale
    return DiffusionParams(
        mu1=float(mu[0]), mu2=float(mu[1]),
        sigma11=float(s11), sigma22=float(s22), sigma12=float(s12),
    )


def compute_diffusion_1d(p_forward: float, mean_len: float, var_len: float,
                         mean_time: float, var_time: float) -> tuple[float, float]:
    """Drift and diffusion for motion on a line.

    Each step covers a random length forward with probability ``p_forward``
    and backward otherwise; dwell times as in the planar model.  The unit
    discrete walk (deterministic unit lengths and dwells, p = 1/2) maps to
    zero drift and unit diffusion.

    Returns:
        (mu, sigma) in km/hr and km^2/hr.
    """
    if not 0.0 <= p_forward <= 1.0:
        raise DomainError("p_forward must be in [0, 1]")
    if mean_len <= 0.0 or mean_time <= 0.0:
        raise DomainError("mean_len and mean_time must be > 0")
    e_len2 = var_len + mean_len**2
    mean_step = (2.0 * p_forward - 1.0) * mean_len
    var_step = e_len2 - mean_step**2
    mu = mean_step / mean_time
    sigma = (var_step * mean_time**2 + var_time * mean_step**2) / mean_time**3
    return mu, sigma


def global_drift(diff: DiffusionParams, radius: float) -> float:
    """Cumulative directional bias across a region of the given radius.

    Defined as ``2 mu1 R / sigma11``: the ratio of drift transport to
    diffusive spreading over the region scale.  Zero for unbiased motion,
    large when the terminal crosses the region in a nearly straight line.
    """
    if radius <= 0.0:
        raise DomainError(f"radius must be > 0, got {radius}")
    if diff.sigma11 <= 0.0:
        raise DegenerateDiffusionError(
            f"sigma11 must be > 0 to define a global drift, got {diff.sigma11}"
        )
    return 2.0 * diff.mu1 * radius / diff.sigma11
