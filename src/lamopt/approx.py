"""Closed-form and weighted-residual approximations of the mean interval.

Two analytic routes complement the finite-difference solver:

* the exact cross-section solution for strongly drifted motion (diffusion
  across the drift axis neglected): on each chord of the disc it is the
  drifted two-point problem on a segment, evaluated by ``pde``'s segment
  solution;
* a one-term rational-trial-function solution valid for any concentration,
  whose maximizer yields the closed-form optimal start offset.

The zero-call-rate regime intervals (``regime_interval``: the driftless
``R^2 / tr sigma`` when weak, ``2R / mu1`` or ``R / mu1`` when strong) are
the forms the asymptotic provider in ``costs`` balances against paging.
Which regime a region is in is decided here alone, by ``drift_regime``.
The module deals in intervals only; the cost model lives in ``costs``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from lamopt.errors import DomainError, NumericalError, RegimeWarning
from lamopt.mobility import DiffusionParams, MobilityParams, compute_diffusion, global_drift
from lamopt.pde import segment_argmax, segment_interval

WEAK_DRIFT_MAX = 1.0     # global drift at or below this: weak regime
STRONG_DRIFT_MIN = 10.0  # global drift at or above this: strong regime
_OFFSET_SCALE_CAP = 1e6   # "no directionality" stand-in for the offset scale


def drift_regime(diff: DiffusionParams, R: float) -> str | None:
    """"weak" or "strong" by the global drift over radius R; None between."""
    gam = global_drift(diff, R)
    if gam <= WEAK_DRIFT_MAX:
        return "weak"
    if gam >= STRONG_DRIFT_MIN:
        return "strong"
    return None


def regime_interval(diff: DiffusionParams, R: float, regime: str,
                    baseline: str = "offset") -> float:
    """Zero-call-rate interval of a radius-R region in a drift regime:
    ``R^2 / tr sigma`` (weak), ``2R / mu1`` (strong, offset start) or
    ``R / mu1`` (strong, center start)."""
    if regime == "weak":
        return R * R / diff.sigma_trace
    return (2.0 if baseline == "offset" else 1.0) * R / diff.mu1


# ---------------------------------------------------------------------------
# strong drift: exact solution on each cross-section of the drift axis
# ---------------------------------------------------------------------------

def strong_drift_interval(diff: DiffusionParams, R: float, x, y):
    """Strong-drift interval: the drifted two-point problem on each chord.

    On the cross-section at height y the disc is the chord
    ``[-w, w], w = sqrt(R^2 - y^2)``.  With no calls and the cross-axis
    diffusion dropped, the interval there is the segment solution
    (``pde.segment_interval``, drift mu1, diffusion s11) on ``[0, 2w]`` at
    ``x + w``; a zero-length chord gives 0.

    Warns when evaluated outside its regime (global drift below
    ``STRONG_DRIFT_MIN``).
    """
    if drift_regime(diff, R) != "strong":
        warnings.warn(
            f"strong-drift interval used at global drift {global_drift(diff, R):.3g} "
            f"< {STRONG_DRIFT_MIN:g}",
            RegimeWarning, stacklevel=2,
        )
    if diff.mu1 <= 0.0:
        raise DomainError("strong-drift form requires mu1 > 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w2 = R * R - y * y
    if np.any(w2 < -1e-12) or np.any(np.abs(x) > np.sqrt(np.maximum(w2, 0.0)) + 1e-12):
        raise DomainError("point outside the disc")
    w = np.sqrt(np.maximum(w2, 0.0))
    return segment_interval(diff.mu1, diff.sigma11, 2.0 * w, np.clip(x, -w, w) + w)


def strong_drift_argmax(diff: DiffusionParams, R: float) -> float:
    """Offset maximizing the strong-drift interval on the drift axis: the
    segment maximizer on the diameter ``[-R, R]``; tends to -R as the global
    drift grows."""
    return segment_argmax(diff.mu1, diff.sigma11, 2.0 * R) - R


# ---------------------------------------------------------------------------
# general case: one-term rational trial function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GalerkinSolution:
    """One-term rational-trial-function solution.

    The trial function ``g = (R^2 - x^2 - y^2) / (x + a)`` vanishes on the
    circle and skews its mass opposite to the drift; ``a`` is the offset
    scale (mean length * R / (mean dwell * drift) = R / E[cos angle]),
    from ``R`` (full concentration) to infinity (no preferred direction).
    The scalar ``C`` matches the area-averaged residual; by the divergence
    theorem the drift term integrates to zero over the disc, so only the
    diffusion and call-rate moments appear: the disc integrals ``C11`` of
    ``g_xx``, ``C22`` of ``g_yy`` and ``C0`` of ``g``, all in closed form
    (see :func:`galerkin_solution`).  ``C = -pi R^2 / (s11/2 C11 +
    s22/2 C22 - lam C0)``.
    """

    a: float
    C: float
    C11: float
    C22: float
    C0: float
    R: float

    def interval(self, x, y):
        """Approximate mean update interval at (x, y): ``C g(x, y)``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.C * ((self.R**2 - x * x - y * y) / (x + self.a))

    @property
    def x_opt(self) -> float:
        return optimal_offset(self.a, self.R)


def trial_offset_scale(params: MobilityParams, R: float,
                       diff: DiffusionParams | None = None) -> float:
    """Offset scale ``a = mean_len R / (mean_time mu1)`` of the trial function.

    Capped at 1e6 R; driftless motion hits the cap (offset tends to zero).
    """
    if diff is None:
        diff = compute_diffusion(params)
    cap = _OFFSET_SCALE_CAP * R
    if diff.mu1 <= 0.0:
        return cap
    a = params.mean_len * R / (params.mean_time * diff.mu1)
    return min(a, cap)


def galerkin_solution(diff: DiffusionParams, R: float, lam: float,
                      a: float) -> GalerkinSolution:
    """Build the one-term solution for offset scale ``a``.

    The diffusion and call-rate moments of the trial function have closed
    forms.  With ``c = sqrt(a^2 - R^2)`` and ``d = a - c = R^2 / (a + c)``:
    ``C11 = -4 pi a d / c``, ``C22 = -4 pi d`` and
    ``C0 = (2 pi / 3) d^2 (a + 2 c)`` (the last from the polar integral
    ``int_0^R (R^2 - r^2) r 2 pi / sqrt(a^2 - r^2) dr``).  None of them
    cancels at any ``a``.

    Raises:
        DomainError: a negative call rate, a nonpositive or non-finite R,
            or a non-finite offset scale.
        NumericalError: the moment denominator is not negative.
    Warns:
        RegimeWarning: when ``a <= R`` (clamped to R(1 + 1e-9)); ``a`` is
            exactly R once ``trial_offset_scale``'s ``E[cos]`` rounds to 1.
    """
    if not (R > 0.0 and math.isfinite(R)):
        raise DomainError(f"R must be finite and > 0, got {R}")
    if not lam >= 0.0:  # NaN fails too
        raise DomainError(f"lam must be >= 0, got {lam}")
    if not math.isfinite(a):  # before the clamp, which would hide a NaN
        raise DomainError(f"offset scale a must be finite, got {a}")
    if not a > R:
        warnings.warn(f"offset scale a={a:.6g} <= R; clamped", RegimeWarning,
                      stacklevel=2)
        a = R * (1.0 + 1e-9)
    # Near-degenerate geometry: evaluate the moments a touch off a = R,
    # where the trial function's pole at (-R, 0) makes C11 diverge.
    a_eval = max(a, R * (1.0 + 1e-6))
    c = math.sqrt((a_eval - R) * (a_eval + R))
    d = R * R / (a_eval + c)
    c11 = -4.0 * math.pi * a_eval * d / c
    c22 = -4.0 * math.pi * d
    c0 = 2.0 * math.pi / 3.0 * d * d * (a_eval + 2.0 * c)
    denom = diff.sigma11 / 2.0 * c11 + diff.sigma22 / 2.0 * c22 - lam * c0
    if denom >= 0.0:
        raise NumericalError(f"trial-moment denominator {denom:.3e} is not negative")
    coef = -math.pi * R * R / denom
    return GalerkinSolution(a=a, C=coef, C11=c11, C22=c22, C0=c0, R=R)


def galerkin_interval(params: MobilityParams, R: float, lam: float,
                      diff: DiffusionParams | None = None) -> GalerkinSolution:
    """One-term solution with the offset scale derived from mobility."""
    if diff is None:
        diff = compute_diffusion(params)
    return galerkin_solution(diff, R, lam, trial_offset_scale(params, R, diff))


def optimal_offset(a: float, R: float) -> float:
    """Start offset maximizing the rational trial function on the axis.

    ``x = -a + sqrt(a^2 - R^2)`` written subtraction-free; lies in (-R, 0],
    reaching -R at full concentration (a = R) and 0 as a grows.
    """
    if not a >= R:  # NaN fails too
        raise DomainError(f"offset scale a={a} must be >= R={R}")
    return -R * R / (a + math.sqrt((a - R) * (a + R)))
