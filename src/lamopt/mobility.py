"""Step-level mobility statistics and their diffusion approximation.

The mobile terminal moves in i.i.d. displacements: a random length, a random
turn angle about the road direction, and a random dwell time per step, with
the laws ``MobilityParams`` fixes.  The road is the +x axis everywhere in
lamopt, and the turn-angle law is even, so a step has no mean transverse
part and its x and y components are uncorrelated.  When many steps fit
inside the region of interest, the walk is well approximated by a planar
diffusion with drift ``mu1`` along the road and a diagonal diffusion matrix
``diag(sigma11, sigma22)``:

    mu1     = m / E[dwell]
    sigma11 = (Var[step x] * E[dwell]^2 + Var[dwell] * m^2) / E[dwell]^3
    sigma22 = Var[step y] / E[dwell]

with ``m = E[step x]``.  ``DiffusionParams`` has no transverse drift and no
cross-diffusion field, so no solver downstream needs to check for them.
All lengths are in km, times in hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from lamopt.errors import DomainError


# ---------------------------------------------------------------------------
# direction family: double-exponential density about the preferred axis
# ---------------------------------------------------------------------------

def sample_direction(k: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` turn angles by exact inverse-CDF of the double-exponential law.

    The law has density ``k exp(-k|theta|) / (2 (1 - exp(-k pi)))`` on
    [-pi, pi], uniform at ``k = 0``.  The positive half is a truncated
    exponential on [0, pi], drawn from the first ``n`` uniforms; the next
    ``n`` set each angle's sign with ``copysign`` (negative below 0.5),
    which restores the symmetric law and changes no magnitude bit.
    """
    if not k >= 0.0:  # NaN fails too
        raise DomainError(f"concentration factor must be >= 0, got {k}")
    u = rng.random(n)
    if k == 0.0:
        half = u * math.pi
    else:
        # F_half^{-1}(u) = -log(1 - u (1 - e^{-k pi})) / k
        half = np.log1p(u * math.expm1(-k * math.pi)) / -k
    return np.copysign(half, rng.random(n) - 0.5)


@dataclass(frozen=True)
class DirectionMoments:
    """Trigonometric moments of the turn-angle distribution.

    The law is even, so the odd moments (E[sin], E[cos sin], E[theta]) are
    zero and not stored.
    """

    e_cos: float
    e_cos2: float
    e_sin2: float
    var_theta: float  # rad^2


def _theta2_ratio(u: float) -> float:
    """``N(u) / u^2`` for ``N(u) = 2 (1 - e^-u) - u (u + 2) e^-u``, ``u > 0``.

    Written as ``2 (1 - e^-u) / u^2 - e^-u (1 + 2/u)`` from ``u = 2`` on, so
    nothing overflows.  Below ``u = 2`` the direct form cancels (N ~ u^3/3;
    Var[theta] from it is 2e-13 off relative at k = 0.01 and 9e-10 off at
    k = 1e-4), so the ratio is summed as ``2 e^-u sum_{n>=3} u^(n-2) / n!``,
    whose terms fall below 1e-17 of the sum within 25 terms.
    """
    e = math.exp(-u)
    if u >= 2.0:
        return 2.0 * -math.expm1(-u) / u / u - e * (1.0 + 2.0 / u)
    term = u / 6.0
    total = term
    n = 3
    while term > 1e-17 * total:
        n += 1
        term *= u / n
        total += term
    return 2.0 * e * total


@lru_cache(maxsize=4096)
def direction_moments(k: float) -> DirectionMoments:
    """Closed-form moments of the double-exponential turn angle.

    With ``u = k pi``, ``e = exp(-u)`` and ``z = 1 - e``:

        E[cos]       = k^2 (1 + e) / ((k^2 + 1) z)
        E[sin^2]     = 2 / (k^2 + 4),   so E[cos 2 theta] = k^2 / (k^2 + 4)
        E[cos^2]     = 1 - E[sin^2]
        E[sin] = E[cos sin] = E[theta] = 0   (the law is even)
        Var[theta]   = pi^2 N(u) / (u^2 z),   N(u) = 2z - u (u + 2) e

    ``N / u^2`` comes from ``_theta2_ratio``, a series below ``u = 2``.
    ``k = 0`` is the uniform law.  Against 40-digit arithmetic the forms are
    within 1e-15 relative for k in [1e-8, 1e6], and they stay finite for
    every finite ``k``.

    Args:
        k: concentration factor, finite and ``>= 0``.

    Returns:
        DirectionMoments with ``e_cos2 + e_sin2 = 1``.
    """
    if not (k >= 0.0 and math.isfinite(k)):
        raise DomainError(f"concentration factor must be finite and >= 0, got {k}")
    if k == 0.0:
        return DirectionMoments(0.0, 0.5, 0.5, math.pi**2 / 3.0)
    u = k * math.pi
    e = math.exp(-u)
    z = -math.expm1(-u)
    k2 = k * k
    e_sin2 = 2.0 / (k2 + 4.0)
    return DirectionMoments(
        # k2 overflows past k ~ 1.3e154, where E[cos] is 1 to the last bit
        e_cos=k2 * (1.0 + e) / ((k2 + 1.0) * z) if k2 < math.inf else 1.0,
        e_cos2=1.0 - e_sin2,
        e_sin2=e_sin2,
        var_theta=math.pi**2 * _theta2_ratio(u) / z,
    )


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MobilityParams:
    """Step-level motion parameters.

    The step laws are fixed: the displacement length is exponential with
    mean ``mean_len`` (so its variance is the squared mean), the turn angle
    is double-exponential with concentration ``k``, and the dwell time is
    gamma with mean ``mean_time`` and variance ``var_time``.

    Attributes:
        k: direction concentration factor (dimensionless, >= 0).
        mean_len: mean displacement length, km.
        mean_time: mean dwell time per displacement, hours.
        var_time: dwell time variance, hours^2.
    """

    k: float
    mean_len: float
    mean_time: float
    var_time: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k) and self.k >= 0.0):
            raise DomainError(f"k must be finite and >= 0, got {self.k}")
        if not (math.isfinite(self.mean_len) and self.mean_len > 0.0):
            raise DomainError(f"mean_len must be finite and > 0, got {self.mean_len}")
        if not (math.isfinite(self.mean_time) and self.mean_time > 0.0):
            raise DomainError(f"mean_time must be finite and > 0, got {self.mean_time}")
        if not (math.isfinite(self.var_time) and self.var_time >= 0.0):
            raise DomainError(f"var_time must be finite and >= 0, got {self.var_time}")


@dataclass(frozen=True)
class DiffusionParams:
    """Drift along the road (+x) and the diagonal diffusion matrix.

    Units: drift km/hr, diffusion km^2/hr.  Motion is symmetric about the
    road axis, so there is no transverse drift and no cross-diffusion.
    Each field must be finite; its sign is not checked here.
    """

    mu1: float
    sigma11: float
    sigma22: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.mu1, self.sigma11, self.sigma22))):
            raise DomainError(f"drift and diffusion must be finite, got mu1={self.mu1}, "
                              f"sigma11={self.sigma11}, sigma22={self.sigma22}")

    @property
    def sigma_trace(self) -> float:
        return self.sigma11 + self.sigma22


def compute_diffusion(params: MobilityParams) -> DiffusionParams:
    """Map step-level mobility parameters to drift and diffusion.

    The step vector is (L cos A, L sin A) with L the length and A the turn
    angle, independent of each other and of the dwell time.  A is even, so
    E[L sin A] = Cov(L cos A, L sin A) = 0.

    Args:
        params: validated mobility parameters.

    Returns:
        DiffusionParams in km/hr and km^2/hr.

    Raises:
        DomainError: a coefficient overflows or is not finite, or
            ``sigma11`` underflows to 0 (for a step length near 1e-160 km).
    """
    m = direction_moments(params.k)
    e_len = params.mean_len
    e_t = params.mean_time
    var_t = params.var_time

    try:
        e_len2 = 2.0 * e_len**2  # E[L^2] of the exponential length law
        mean_x = e_len * m.e_cos
        # Step-component variances from length/direction independence.
        var11 = e_len2 * m.e_cos2 - mean_x**2
        var22 = e_len2 * m.e_sin2
        scale = 1.0 / e_t**3
        mu1 = mean_x / e_t
        sigma11 = (var11 * e_t**2 + var_t * mean_x**2) * scale
        sigma22 = var22 * e_t**2 * scale
        if all(map(math.isfinite, (mu1, sigma11, sigma22))):
            if sigma11 > 0.0:
                return DiffusionParams(mu1=mu1, sigma11=sigma11, sigma22=sigma22)
            raise DomainError(f"the diffusion trace underflows to 0 for mean_len "
                              f"{e_len:g} km and mean_time {e_t:g} hr")
    except ArithmeticError:
        pass
    raise DomainError(f"no finite diffusion limit for mean_len {e_len:g} km "
                      f"and mean_time {e_t:g} hr")


def global_drift(diff: DiffusionParams, radius: float) -> float:
    """Cumulative directional bias across a region of the given radius.

    Defined as ``2 mu1 R / sigma11``: the ratio of drift transport to
    diffusive spreading over the region scale.  Zero for unbiased motion,
    large when the terminal crosses the region in a nearly straight line.
    """
    if not radius > 0.0:  # NaN fails too
        raise DomainError(f"radius must be > 0, got {radius}")
    if diff.sigma11 <= 0.0:
        raise DomainError(
            f"sigma11 must be > 0 to define a global drift, got {diff.sigma11}"
        )
    return 2.0 * diff.mu1 * radius / diff.sigma11
