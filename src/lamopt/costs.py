"""Update/paging cost assembly and the joint radius/offset optimization.

The per-hour cost of a design is the update cost ``U / T`` (one update per
mean interval T) plus the paging cost.  For the joint optimization the
paging cost is the whole-region form ``lam V pi R^2`` (every cell of the
region paged once per call); the delay-constrained sequential variant with
angular sub-regions is available separately for cost analysis.

The radius search is a 25-point scan in log R, then golden section from its
lowest point.  The pde scan skips every radius where each baseline's cost
floor, the objective at its ``pde.mean_interval_cap`` (the origin's for the
center design), lies above that baseline's best scan cost already solved;
no skipped radius can be any baseline's lowest point, so the search and its
result are those of the full scan.  The one-term cost has one
minimum (``U / T = A / R^2 + B``), so the search refines the scan's lowest
point and does not re-scan.  The asymptotic provider needs no search:
``asymptotic_optimum`` is its closed forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from lamopt.approx import (
    drift_regime,
    galerkin_solution,
    regime_interval,
    strong_drift_argmax,
    trial_offset_scale,
)
from lamopt.errors import DomainError, NumericalError, RegimeWarning, require_int
from lamopt.mobility import DiffusionParams, MobilityParams, compute_diffusion
from lamopt.pde import DiscGrid, FactorSlot, ScalarField, mean_interval_cap, solve_mean_interval

PROVIDERS = ("pde", "galerkin", "asymptotic")
BASELINES = ("offset", "center")

# The radius search: bracket in km, golden-section tolerance in log R, and
# points of the coarse scan.
_R_BRACKET = (1e-2, 1e2)
_SEARCH_RTOL = 1e-4
_SCAN_POINTS = 25

# Most sequential paging rounds a cost model accepts.  The defaults and the
# benchmark use 1 to 3; the plan, its areas and the protocol's pager all
# grow linearly in the round count.
MAX_PAGING_ROUNDS = 1000


@dataclass(frozen=True)
class CostParams:
    """Cost model: call rate, per-update cost, per-cell paging cost, delay cap.

    ``m`` is the maximum number of sequential paging rounds; cells have unit
    area, so paging a region of area A costs V A.
    """

    lam: float
    U: float
    V: float
    m: int = 1

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.lam, self.U, self.V)):
            raise DomainError(
                f"lam, U and V must be finite, got {self.lam}, {self.U}, {self.V}")
        if self.lam < 0.0:
            raise DomainError("lam must be >= 0")
        if self.U <= 0.0 or self.V <= 0.0:
            raise DomainError("U and V must be > 0")
        # a non-integer such as None or "3" cannot be compared: require_int refuses it
        if isinstance(self.m, Integral) and not 1 <= self.m <= MAX_PAGING_ROUNDS:
            raise DomainError(
                f"m must be between 1 and {MAX_PAGING_ROUNDS} paging rounds, got {self.m}")
        require_int("m", self.m, 1)


def update_cost(t_mean: float, U: float) -> float:
    """Mean location-update cost per hour: U / T."""
    if not (t_mean > 0.0 and math.isfinite(t_mean)):
        raise DomainError(f"mean interval must be finite and > 0, got {t_mean}")
    return U / t_mean


def _cost(costs: CostParams, t: float, R: float) -> float:
    """The cost objective: update cost at mean interval t plus the
    whole-region paging cost ``lam V pi R^2``."""
    return update_cost(t, costs.U) + costs.lam * math.pi * R * R * costs.V


# ---------------------------------------------------------------------------
# delay-constrained paging partition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PagingPlan:
    """Angular partition of the region for sequential paging.

    Wedges fan out from the anchor (the start position), mirrored about the
    preferred axis.  The first wedge takes the direction-spread angle
    ``min(pi, Var(angle))``; the rest split the remainder evenly, so the
    half-plane angles always sum to pi.
    """

    angles: tuple[float, ...]
    anchor_x: float = 0.0

    @property
    def cumulative(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.angles)])


def build_paging_plan(m: int, var_theta: float, anchor_x: float = 0.0) -> PagingPlan:
    """Assign wedge angles from the paging-delay cap and direction spread.

    For ``m == 1`` the single region is the whole disc and ``var_theta`` is
    ignored.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    if not (var_theta >= 0.0 and math.isfinite(var_theta)):
        raise DomainError(f"var_theta must be finite and >= 0, got {var_theta}")
    if m == 1:
        return PagingPlan(angles=(math.pi,), anchor_x=anchor_x)
    first = min(math.pi, var_theta)
    rest = (math.pi - first) / (m - 1)
    return PagingPlan(angles=(first,) + (rest,) * (m - 1), anchor_x=anchor_x)


def wedge_indices(plan: PagingPlan, xs, ys) -> np.ndarray:
    """Region index of each point: fold about the axis, then bin by angle.

    Points exactly on a wedge ray go to the lower-index region; the anchor
    itself belongs to the first region.
    """
    ang = np.arctan2(np.abs(np.asarray(ys, dtype=float)),
                     np.asarray(xs, dtype=float) - plan.anchor_x)
    inner = plan.cumulative[1:-1]
    return np.searchsorted(inner, ang, side="left")


def region_areas(plan: PagingPlan, R: float) -> np.ndarray:
    """Exact areas of the wedge-disc intersections.

    The ray from the anchor (x0, 0) at angle ``phi`` meets the circle at
    ``q = (x0 + rho cos phi, |rho sin phi|)``, with
    ``rho = -x0 cos(phi) + sqrt(R^2 - x0^2 sin^2 phi)``.  Both mirrored
    halves swept from ``phi = 0`` make a sector minus a triangle:
    ``F(phi) = R^2 alpha - x0 q_y`` with ``alpha = atan2(q_y, q_x)``, so
    wedge i has area ``F(cum[i+1]) - F(cum[i])``.  The ``abs`` folds a last
    cumulative angle one ulp past pi back onto the axis (``atan2`` would
    give -pi there).
    """
    x0 = plan.anchor_x
    if not abs(x0) < R:  # NaN fails too
        raise DomainError("paging anchor must lie inside the disc")
    phi = plan.cumulative
    cos, sin = np.cos(phi), np.sin(phi)
    rho = -x0 * cos + np.sqrt(R * R - x0 * x0 * sin * sin)
    q_x, q_y = x0 + rho * cos, np.abs(rho * sin)
    areas = np.diff(R * R * np.arctan2(q_y, q_x) - x0 * q_y)
    total = float(areas.sum())
    if not math.isclose(total, math.pi * R * R, rel_tol=1e-6):
        raise NumericalError(
            f"wedge areas sum to {total:.8g}, expected {math.pi * R * R:.8g}"
        )
    return areas


@dataclass(frozen=True)
class CostBreakdown:
    """Per-hour cost split with the per-round paging statistics."""

    C_u: float
    C_p: float
    P_i: tuple[float, ...]
    A_i: tuple[float, ...]


def paging_cost(plan: PagingPlan, density: ScalarField, lam: float, V: float,
                mode: str = "paper") -> tuple[float, tuple, tuple]:
    """Mean paging cost per hour under the sequential wedge partition.

    ``P_i`` integrates the surviving-position density over wedge i and
    ``A_i`` is its exact area.  Mode "paper" charges ``lam V sum P_i A_i``;
    mode "cumulative" charges the sequential-polling expectation
    ``lam V sum_i P_i (A_1 + ... + A_i)``.  ``paging_breakdown_at`` checks
    the mode at entry and charges a single round itself.

    Returns:
        (C_p, P_i tuple, A_i tuple).
    """
    areas = region_areas(plan, density.grid.R)
    idx = wedge_indices(plan, density.grid.x, density.grid.y)
    masses = np.zeros(len(plan.angles))
    np.add.at(masses, idx, density.values * density.grid.h**2)
    if mode == "paper":
        c_p = lam * V * float(np.dot(masses, areas))
    else:
        c_p = lam * V * float(np.dot(masses, np.cumsum(areas)))
    return c_p, tuple(masses), tuple(areas)


def paging_breakdown_at(mobility: MobilityParams, costs: CostParams,
                        x: float, R: float, mode: str = "paper",
                        grid_nodes: int = 64,
                        time_steps: int = 200) -> CostBreakdown:
    """Full delay-constrained cost split at one design point.

    Solves the mean interval T at the start point, evolves the
    surviving-position density to exactly t = T, and charges the wedge
    partition under the chosen mode.  A single paging round is charged the
    whole-region cost ``lam V pi R^2`` at probability 1, in either mode.
    """
    if mode not in ("paper", "cumulative"):
        raise DomainError(f"unknown paging mode {mode!r}")
    from lamopt.mobility import direction_moments
    from lamopt.pde import TimeGrid, solve_forward

    diff = compute_diffusion(mobility)
    grid = DiscGrid(R, R / grid_nodes)
    field = solve_mean_interval(diff, R, costs.lam, grid)
    t_mean = field.value_at((x, 0.0))
    c_u = update_cost(t_mean, costs.U)
    if costs.m == 1:
        area = math.pi * R * R
        c_p, p_i, a_i = costs.lam * costs.V * area, (1.0,), (area,)
    else:
        plan = build_paging_plan(costs.m, direction_moments(mobility.k).var_theta,
                                 anchor_x=x)
        fwd = solve_forward(diff, (x, 0.0), R, grid, TimeGrid(t_mean, time_steps),
                            output_times=[t_mean])
        c_p, p_i, a_i = paging_cost(plan, fwd.fields[-1], costs.lam, costs.V, mode)
    return CostBreakdown(C_u=c_u, C_p=c_p, P_i=p_i, A_i=a_i)


# ---------------------------------------------------------------------------
# joint optimization of radius and start offset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizationResult:
    """Joint optimum of radius and start offset for one interval provider."""

    x_opt: float
    r_opt: float
    c_min: float
    t_opt: float


def _design(solution, baseline: str) -> tuple[float, float]:
    """(T, x) of one baseline from an interval solution."""
    if isinstance(solution, ScalarField):
        x = solution.axis_argmax() if baseline == "offset" else 0.0
        return solution.value_at((x, 0.0)), x
    x = solution.x_opt if baseline == "offset" else 0.0
    return float(solution.interval(x, 0.0)), x


def _golden_section(fn, lo: float, hi: float) -> float:
    """Golden-section minimizer on [lo, hi] to ``_SEARCH_RTOL`` (argument
    returned)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while abs(b - a) > _SEARCH_RTOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def joint_optimize(mobility: MobilityParams, costs: CostParams,
                   provider: str = "galerkin", baseline: str = "offset",
                   pde_nodes: int = 64) -> OptimizationResult:
    """Minimize update plus whole-region paging cost over radius and offset.

    For each candidate radius the offset is the interval maximizer (the
    closed-form trial optimum for the galerkin provider, an axis grid search
    for the pde provider), reducing the problem to one variable; the outer
    radius search is golden-section on log R over R in [0.01, 100] km after
    a 25-point coarse scan.  The pde scan skips the radii whose cost floor
    (the objective at ``pde.mean_interval_cap``, its origin form for the
    center baseline) lies above the best scan cost solved, which cannot be
    its lowest point.  The search refines the scan's lowest point and does
    not re-scan.

    Args:
        provider: "pde", "galerkin", or "asymptotic" (closed forms; see
            ``asymptotic_optimum``).
        baseline: "offset" or "center" (start pinned to the region center).

    Returns:
        OptimizationResult with cost in cost-units per hour.

    Raises:
        DomainError: the optimum radius sits on an end of the search
            bracket, so the true optimum lies outside it.
    """
    return _optimize(mobility, costs, provider, (baseline,), pde_nodes)[0]


def optimize_pair(mobility: MobilityParams, costs: CostParams,
                  provider: str = "galerkin",
                  pde_nodes: int = 64) -> tuple[OptimizationResult, OptimizationResult]:
    """The offset and the center optimum, each at its own radius.

    Returns the same results as ``joint_optimize`` for each baseline, with
    one coarse radius scan for both: each scan radius is solved at most
    once, and both designs are read from that solution.  A pde scan radius
    is skipped only when each baseline's cost floor there lies above that
    baseline's best scan cost.  The two golden-section searches stay apart.

    Returns:
        (offset result, center result).
    """
    return tuple(_optimize(mobility, costs, provider, BASELINES, pde_nodes))


def _optimize(mobility: MobilityParams, costs: CostParams, provider: str,
              baselines: tuple[str, ...],
              pde_nodes: int) -> list[OptimizationResult]:
    """Joint optimum for each baseline, from one shared coarse scan."""
    if provider not in PROVIDERS:
        raise DomainError(f"provider must be one of {PROVIDERS}")
    for baseline in baselines:
        if baseline not in BASELINES:
            raise DomainError(f"unknown baseline {baseline!r}")
    if costs.lam <= 0.0:
        raise DomainError("joint optimization needs lam > 0 (paging term)")
    diff = compute_diffusion(mobility)

    if provider == "asymptotic":
        return [asymptotic_optimum(diff, costs, b) for b in baselines]

    lo, hi = math.log(_R_BRACKET[0]), math.log(_R_BRACKET[1])

    def solve(lr: float, warm: FactorSlot | None = None):
        # One-term or pde solution at one radius (the pde field refined on
        # ``warm``'s factor when it can be); both baselines read it.
        R = math.exp(lr)
        if provider == "galerkin":
            return galerkin_solution(diff, R, costs.lam,
                                     trial_offset_scale(mobility, R, diff))
        return solve_mean_interval(diff, R, costs.lam, DiscGrid(R, R / pde_nodes), warm)

    def cost(lr: float, solution, baseline: str) -> tuple[float, float, float]:
        """(cost, T, x) of one baseline's design at radius exp(lr)."""
        R = math.exp(lr)
        t, x = _design(solution, baseline)
        return _cost(costs, t, R), t, x

    def floor(lr: float, baseline: str) -> float:
        """A cost no design of ``baseline`` at radius exp(lr) goes below: the
        objective at the pde cap on its T (the center design reads the
        origin node); none for the one-term T, which can exceed it."""
        if provider != "pde":
            return -math.inf
        R = math.exp(lr)
        cap = mean_interval_cap(diff, R, costs.lam, at_origin=baseline == "center")
        return _cost(costs, cap, R)

    # Scan radii are taken in increasing order of their lowest floor, and a
    # radius is skipped when every baseline's floor, less the cap's
    # round-off, lies above that baseline's best cost so far.  Each baseline
    # keeps its best (cost, scan index), the lowest index on a tie; a -inf
    # floor skips nothing.
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    floors = [[floor(lr, b) for b in baselines] for lr in grid]
    best = [(math.inf, 0)] * len(baselines)
    for i in sorted(range(_SCAN_POINTS), key=lambda i: min(floors[i])):
        if all(f * (1.0 - 1e-9) > c for f, (c, _) in zip(floors[i], best)):
            continue
        solution = solve(grid[i])
        best = [min(old, (cost(grid[i], solution, b)[0], i))
                for old, b in zip(best, baselines)]

    results = []
    for b, (_, i) in zip(baselines, best):
        lo_b, hi_b = grid[max(i - 1, 0)], grid[min(i + 1, _SCAN_POINTS - 1)]
        # Golden-section probes soon lie within a few percent of each other
        # in R, so each search reuses one factor; scan radii are too far
        # apart for that.
        warm = FactorSlot()
        lr_opt = _golden_section(lambda lr, b=b: cost(lr, solve(lr, warm), b)[0],
                                 lo_b, hi_b)
        r_opt = math.exp(lr_opt)
        if min(lr_opt - lo, hi - lr_opt) <= _SEARCH_RTOL:
            raise DomainError(
                f"{b} optimum R = {r_opt:.6g} km sits on the search bracket "
                f"[{_R_BRACKET[0]:g}, {_R_BRACKET[1]:g}] km")
        c_min, t_opt, x_opt = cost(lr_opt, solve(lr_opt, warm), b)
        results.append(OptimizationResult(x_opt=x_opt, r_opt=r_opt, c_min=c_min,
                                          t_opt=t_opt))
    return results


def asymptotic_optimum(diff: DiffusionParams, costs: CostParams,
                       baseline: str = "offset") -> OptimizationResult:
    """Closed-form radius/offset optimum in the drift regime it lands in.

    The interval is ``approx.regime_interval``'s, at zero call rate (valid
    for rates small against the exit rate), so balancing it against the
    paging cost gives ``R = (tr sigma U / (lam V pi))^(1/4)`` with offset 0
    (weak) or ``R = (U mu1 / (4 lam V pi))^(1/3)`` with the start at the
    strong-drift argmax (strong; ``2`` for ``4`` at the center).  Strong
    when the global drift at the strong radius is; else weak when the drift
    at the weak radius is, or mu1 <= 0; else the cheaper of the two, with a
    ``RegimeWarning``.  The cost is the objective at the radius, never a
    pre-simplified constant.
    """
    lam, U, V = costs.lam, costs.U, costs.V
    if lam <= 0.0:
        raise DomainError("asymptotic optimum needs lam, U, V all > 0")
    if baseline not in BASELINES:
        raise DomainError(f"unknown baseline {baseline!r}")
    if diff.sigma_trace <= 0.0:
        raise DomainError(
            f"diffusion trace must be > 0 for a regime optimum, got {diff.sigma_trace}")

    def optimum(regime: str, r: float) -> OptimizationResult:
        t = regime_interval(diff, r, regime, baseline)
        x = strong_drift_argmax(diff, r) if (regime, baseline) == ("strong", "offset") else 0.0
        return OptimizationResult(x_opt=x, r_opt=r, c_min=_cost(costs, t, r), t_opt=t)

    if diff.mu1 > 0.0:
        share = 4.0 if baseline == "offset" else 2.0
        strong = optimum("strong", (U * diff.mu1 / (share * lam * V * math.pi)) ** (1.0 / 3.0))
        if drift_regime(diff, strong.r_opt) == "strong":
            return strong
    weak = optimum("weak", (diff.sigma_trace * U / (lam * V * math.pi)) ** 0.25)
    if diff.mu1 <= 0.0 or drift_regime(diff, weak.r_opt) == "weak":
        return weak
    warnings.warn("drift between regimes; choosing the cheaper closed form",
                  RegimeWarning, stacklevel=4)
    return strong if strong.c_min < weak.c_min else weak


def saving_ratio(mobility: MobilityParams, costs: CostParams,
                 provider: str = "galerkin", pde_nodes: int = 64) -> float:
    """Relative cost reduction of the optimal offset over the centered start.

    Both baselines re-optimize their own radius.  Approaches
    ``1 - 4^(-1/3) ~ 0.370`` in the strongly drifted small-call-rate limit.
    Can read up to about 1.4e-5 below 0 with the pde provider, whose offset
    design reads T below its best node (-1.41e-5 at k = 3e-4, lam = 0.2;
    -1.9e-6 at k = 1e-4 and the defaults).
    """
    return pair_saving(*optimize_pair(mobility, costs, provider, pde_nodes))


def pair_saving(opt: OptimizationResult, ctr: OptimizationResult) -> float:
    """Saving ratio ``1 - C_opt / C_ctr`` of an (offset, center) optimum pair."""
    return (ctr.c_min - opt.c_min) / ctr.c_min
