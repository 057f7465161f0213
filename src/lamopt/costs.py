"""Update/paging cost assembly and the joint radius/offset optimization.

The per-hour cost of a design is the update cost ``U / T`` (one update per
mean interval T) plus the paging cost.  For the joint optimization the
paging cost is the whole-region form ``lam V pi R^2`` (every cell of the
region paged once per call); the delay-constrained sequential variant with
angular sub-regions is available separately for cost analysis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from lamopt.approx import (
    STRONG_DRIFT_MIN,
    WEAK_DRIFT_MAX,
    asymptotic_optimum,
    galerkin_solution,
    optimal_offset,
    trial_offset_scale,
)
from lamopt.errors import DomainError, GeometryError
from lamopt.mobility import MobilityParams, compute_diffusion, global_drift
from lamopt.pde import DiscGrid, ScalarField, solve_mean_interval

PROVIDERS = ("pde", "galerkin", "asymptotic")


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
        if self.m < 1:
            raise DomainError("m must be >= 1")


def update_cost(t_mean: float, U: float) -> float:
    """Mean location-update cost per hour: U / T."""
    if t_mean <= 0.0:
        raise DomainError(f"mean interval must be > 0, got {t_mean}")
    return U / t_mean


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
    def m(self) -> int:
        return len(self.angles)

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
    if var_theta < 0.0:
        raise DomainError("var_theta must be >= 0")
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
    if abs(x0) >= R:
        raise GeometryError("paging anchor must lie inside the disc")
    phi = plan.cumulative
    cos, sin = np.cos(phi), np.sin(phi)
    rho = -x0 * cos + np.sqrt(R * R - x0 * x0 * sin * sin)
    q_x, q_y = x0 + rho * cos, np.abs(rho * sin)
    areas = np.diff(R * R * np.arctan2(q_y, q_x) - x0 * q_y)
    total = float(areas.sum())
    if not math.isclose(total, math.pi * R * R, rel_tol=1e-6):
        raise GeometryError(
            f"wedge areas sum to {total:.8g}, expected {math.pi * R * R:.8g}"
        )
    return areas


@dataclass(frozen=True)
class CostBreakdown:
    """Per-hour cost split with the per-round paging statistics."""

    C_u: float
    C_p: float
    C_t: float
    P_i: tuple[float, ...]
    A_i: tuple[float, ...]


def paging_cost(plan: PagingPlan, density: ScalarField, lam: float, V: float,
                mode: str = "paper") -> tuple[float, tuple, tuple]:
    """Mean paging cost per hour under the sequential wedge partition.

    ``P_i`` integrates the surviving-position density over wedge i and
    ``A_i`` is its exact area.  Mode "paper" charges ``lam V sum P_i A_i``;
    mode "cumulative" charges the sequential-polling expectation
    ``lam V sum_i P_i (A_1 + ... + A_i)``.  Both reduce to the whole-region
    cost ``lam V pi R^2`` for a single round.

    Returns:
        (C_p, P_i tuple, A_i tuple).
    """
    if mode not in ("paper", "cumulative"):
        raise DomainError(f"unknown paging mode {mode!r}")
    R = density.grid.R
    if plan.m == 1:
        area = math.pi * R * R
        mass = density.integral()
        return lam * V * area, (mass,), (area,)
    areas = region_areas(plan, R)
    idx = wedge_indices(plan, density.grid.x, density.grid.y)
    masses = np.zeros(plan.m)
    np.add.at(masses, idx, density.values * density.grid.h**2)
    if mode == "paper":
        c_p = lam * V * float(np.dot(masses, areas))
    else:
        c_p = lam * V * float(np.dot(masses, np.cumsum(areas)))
    return c_p, tuple(masses), tuple(areas)


def cost_breakdown(t_mean: float, costs: CostParams, plan: PagingPlan,
                   density: ScalarField, mode: str = "paper") -> CostBreakdown:
    """Assemble the full cost split for a given design point."""
    c_u = update_cost(t_mean, costs.U)
    c_p, p_i, a_i = paging_cost(plan, density, costs.lam, costs.V, mode)
    return CostBreakdown(C_u=c_u, C_p=c_p, C_t=c_u + c_p, P_i=p_i, A_i=a_i)


def paging_breakdown_at(mobility: MobilityParams, costs: CostParams,
                        x: float, R: float, mode: str = "paper",
                        grid_nodes: int = 64,
                        time_steps: int = 200) -> CostBreakdown:
    """Full delay-constrained cost split at one design point.

    Solves the mean interval T at the start point, evolves the
    surviving-position density to exactly t = T, and charges the wedge
    partition under the chosen mode.  With a single paging round this reduces
    to the whole-region cost ``lam V pi R^2``.
    """
    from lamopt.mobility import direction_moments
    from lamopt.pde import TimeGrid, solve_forward

    diff = compute_diffusion(mobility)
    grid = DiscGrid(R, R / grid_nodes)
    field = solve_mean_interval(diff, R, costs.lam, grid)
    t_mean = field.value_at((x, 0.0))
    plan = build_paging_plan(costs.m, direction_moments(mobility.k).var_theta,
                             anchor_x=x)
    if costs.m == 1:
        area = math.pi * R * R
        c_u = update_cost(t_mean, costs.U)
        c_p = costs.lam * costs.V * area
        return CostBreakdown(C_u=c_u, C_p=c_p, C_t=c_u + c_p,
                             P_i=(1.0,), A_i=(area,))
    fwd = solve_forward(diff, (x, 0.0), R, grid, TimeGrid(t_mean, time_steps),
                        output_times=[t_mean])
    return cost_breakdown(t_mean, costs, plan, fwd.fields[-1], mode)


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
    provider: str
    baseline: str
    unimodal: bool = True


def _interval_at_radius(mobility: MobilityParams, diff, costs: CostParams,
                        provider: str, baseline: str, R: float,
                        pde_nodes: int):
    """(T, x) for a candidate radius under the chosen provider."""
    if provider == "galerkin":
        a = trial_offset_scale(mobility, R, diff)
        sol = galerkin_solution(diff, R, costs.lam, a)
        x = optimal_offset(sol.a, R) if baseline == "offset" else 0.0
        return float(sol.interval(x, 0.0)), x
    if provider == "pde":
        field = solve_mean_interval(diff, R, costs.lam, DiscGrid(R, R / pde_nodes))
        if baseline == "offset":
            x = field.axis_argmax()
        else:
            x = 0.0
        return field.value_at((x, 0.0)), x
    raise DomainError(f"unknown provider {provider!r}")


def _golden_section(fn, lo: float, hi: float, rel_tol: float) -> float:
    """Golden-section minimizer on [lo, hi] (argument returned)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while abs(b - a) > rel_tol:
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
                   r_bounds: tuple[float, float] = (1e-2, 1e2),
                   rel_tol: float = 1e-4, scan_points: int = 25,
                   pde_nodes: int = 64) -> OptimizationResult:
    """Minimize update plus whole-region paging cost over radius and offset.

    For each candidate radius the offset is the interval maximizer (the
    closed-form trial optimum for the galerkin provider, an axis grid search
    for the pde provider), reducing the problem to one variable; the outer
    radius search is golden-section on log R after a coarse scan.  A coarse
    scan showing multiple local minima triggers a dense-scan fallback with a
    warning.

    Args:
        provider: "pde", "galerkin", or "asymptotic" (closed forms; regime
            picked by self-consistency of the global drift at the optimum).
        baseline: "offset" or "center" (start pinned to the region center).

    Returns:
        OptimizationResult with cost in cost-units per hour.
    """
    if provider not in PROVIDERS:
        raise DomainError(f"provider must be one of {PROVIDERS}")
    if costs.lam <= 0.0:
        raise DomainError("joint optimization needs lam > 0 (paging term)")
    diff = compute_diffusion(mobility)

    if provider == "asymptotic":
        opt = _auto_regime_optimum(diff, costs, baseline)
        return OptimizationResult(
            x_opt=opt.x_opt, r_opt=opt.r_opt, c_min=opt.c_min, t_opt=opt.t_opt,
            provider=provider, baseline=baseline,
        )

    def objective_log(lr: float) -> float:
        R = math.exp(lr)
        t, _ = _interval_at_radius(mobility, diff, costs, provider, baseline,
                                   R, pde_nodes)
        return update_cost(t, costs.U) + costs.lam * math.pi * R * R * costs.V

    lo, hi = math.log(r_bounds[0]), math.log(r_bounds[1])
    grid = np.linspace(lo, hi, scan_points)
    vals = np.array([objective_log(g) for g in grid])
    n_minima = sum(
        1 for i in range(1, scan_points - 1)
        if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]
    )
    unimodal = n_minima <= 1
    if not unimodal:
        warnings.warn("cost scan is not unimodal in R; using dense scan",
                      stacklevel=2)
        grid = np.linspace(lo, hi, scan_points * 8)
        vals = np.array([objective_log(g) for g in grid])
    b = int(np.argmin(vals))
    lo_b = grid[max(b - 1, 0)]
    hi_b = grid[min(b + 1, grid.size - 1)]
    lr_opt = _golden_section(objective_log, lo_b, hi_b, rel_tol)
    r_opt = math.exp(lr_opt)
    t_opt, x_opt = _interval_at_radius(mobility, diff, costs, provider,
                                       baseline, r_opt, pde_nodes)
    c_min = update_cost(t_opt, costs.U) + costs.lam * math.pi * r_opt**2 * costs.V
    return OptimizationResult(x_opt=x_opt, r_opt=r_opt, c_min=c_min,
                              t_opt=t_opt, provider=provider,
                              baseline=baseline, unimodal=unimodal)


def _auto_regime_optimum(diff, costs, baseline: str):
    """Pick weak or strong closed forms by drift self-consistency."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        weak = asymptotic_optimum(diff, costs, "weak", baseline)
        strong = (asymptotic_optimum(diff, costs, "strong", baseline)
                  if diff.mu1 > 0.0 else None)
    if strong is not None and global_drift(diff, strong.r_opt) >= STRONG_DRIFT_MIN:
        return strong
    if global_drift(diff, weak.r_opt) <= WEAK_DRIFT_MAX or strong is None:
        return weak
    warnings.warn("drift between regimes; choosing the cheaper closed form",
                  stacklevel=3)
    return strong if strong.c_min < weak.c_min else weak


def saving_ratio(mobility: MobilityParams, costs: CostParams,
                 provider: str = "galerkin", **kwargs) -> float:
    """Relative cost reduction of the optimal offset over the centered start.

    Both baselines re-optimize their own radius.  Nonnegative; approaches
    ``1 - 4^(-1/3) ~ 0.370`` in the strongly drifted small-call-rate limit.
    """
    opt = joint_optimize(mobility, costs, provider, baseline="offset", **kwargs)
    ctr = joint_optimize(mobility, costs, provider, baseline="center", **kwargs)
    return (ctr.c_min - opt.c_min) / ctr.c_min
