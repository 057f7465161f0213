"""Cell-level realization of the distance-based update scheme.

The continuous location area (LA) is discretized onto the hex lattice: cells
whose centers lie within the distance threshold of the LA center are
*interior*; every cell just outside that is adjacent to an interior cell is a
*boundary* cell, so the boundary list is a finite ring.  The terminal watches
the boundary list; the network pages the interior cells, partitioned into
sub-area lists for delay-constrained sequential paging.

The scheme has one event: the terminal enters a boundary cell or receives a
call, and the LA is re-anchored on that cell.  ``network_update`` is the one
place an episode builds an LA, for both triggers.  The radius/offset design
does not change within an episode, so ``episode_design`` resolves it once.

Updates are anchored on the center of the triggering cell.  Anchoring on the
exact crossing position instead can put the anchor's own cell outside the
new interior set when the optimal offset is close to the threshold, which
breaks certainty paging; the cell-center anchor makes the triggering cell
interior by construction.

The road runs along +x, as everywhere in lamopt (see ``mobility``): the LA
center sits ahead of the anchor on the x axis and the paging wedges are
mirrored about it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from lamopt.costs import PROVIDERS, CostParams, build_paging_plan, joint_optimize
from lamopt.ctrw import sample_steps
from lamopt.errors import ConsistencyViolationError, DomainError, GeometryError
from lamopt.hexgrid import Cell, HexGrid
from lamopt.mobility import MobilityParams, direction_moments

Vec = tuple[float, float]

STRATEGIES = ("optimal", "center")


@dataclass(frozen=True)
class LocationArea:
    """One discretized LA: geometry plus the three cell lists."""

    center: Vec
    radius: float
    initial_position: Vec
    boundary_cells: frozenset[Cell]
    interior_cells: frozenset[Cell]
    sub_area_cells: tuple[tuple[Cell, ...], ...]


@dataclass(frozen=True)
class PageResult:
    rounds: int
    cells_paged: int


@dataclass(frozen=True)
class EpisodeMetrics:
    """Empirical costs and counters from one protocol episode."""

    duration_hr: float
    update_count: int
    boundary_updates: int
    call_triggered_updates: int
    calls: int
    cells_paged_total: int
    paging_rounds_hist: tuple[tuple[int, int], ...]
    paging_failures: int
    C_u: float
    C_p: float
    C_t: float

    @property
    def mean_update_interval(self) -> float:
        return self.duration_hr / self.update_count if self.update_count else math.inf


@dataclass(frozen=True)
class Scenario:
    """One protocol run: mobility, costs, strategy, horizon, seed."""

    mobility: MobilityParams
    costs: CostParams
    strategy: str = "optimal"
    duration_hr: float = 100.0
    seed: int = 0
    provider: str = "asymptotic"
    design: tuple[float, float] | None = None  # (x_opt, r_opt) pin

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise DomainError(f"unknown strategy {self.strategy!r}")
        if self.provider not in PROVIDERS:
            raise DomainError(f"provider must be one of {PROVIDERS}")
        if not (math.isfinite(self.duration_hr) and self.duration_hr > 0.0):
            raise DomainError(
                f"duration_hr must be finite and > 0, got {self.duration_hr}")


# ---------------------------------------------------------------------------
# LA construction
# ---------------------------------------------------------------------------

def construct_la(y_tau: Vec, x_opt: float, r_opt: float, grid: HexGrid,
                 m: int = 1, var_theta: float = 0.0) -> LocationArea:
    """Build an LA from the anchor position and the optimized design.

    The LA center sits ``|x_opt|`` ahead of the anchor along the road (+x),
    so the anchor gets LA-frame coordinate (x_opt, 0).  Interior cells are
    partitioned into ``m`` wedge sub-areas fanning out from the anchor,
    mirrored about the road axis; the anchor's own cell always belongs to
    the first sub-area.
    """
    if r_opt <= 0.0 or abs(x_opt) >= r_opt:
        raise DomainError(f"need 0 < |x_opt| < r_opt, got x_opt={x_opt}, r_opt={r_opt}")
    if r_opt < 2.0 * grid.size:
        raise GeometryError(
            f"threshold {r_opt:.3g} km below one cell diameter {2 * grid.size:.3g} km"
        )
    ox, oy = y_tau[0] + abs(x_opt), y_tau[1]

    interior = grid.cells_within((ox, oy), r_opt)
    interior_set = frozenset(interior)
    boundary = frozenset(
        nbr for c in interior for nbr in grid.neighbors(c)
        if nbr not in interior_set
    )

    plan = build_paging_plan(m, var_theta)
    cum = plan.cumulative[1:-1]
    anchor_cell = grid.cell_of(*y_tau)
    lists: list[list[Cell]] = [[] for _ in range(m)]
    for c in interior:
        if c == anchor_cell:
            lists[0].append(c)
            continue
        px, py = grid.center(c)
        ang = math.atan2(abs(py - y_tau[1]), px - y_tau[0])
        lists[int(np.searchsorted(cum, ang, side="left"))].append(c)
    return LocationArea(
        center=(ox, oy), radius=r_opt, initial_position=y_tau,
        boundary_cells=boundary, interior_cells=interior_set,
        sub_area_cells=tuple(tuple(l) for l in lists),
    )


# ---------------------------------------------------------------------------
# update and paging
# ---------------------------------------------------------------------------

def episode_design(scenario: Scenario) -> tuple[float, float]:
    """The (x_opt, r_opt) pair every LA of an episode is built with.

    The optimum depends only on the motion statistics and the cost model,
    which are fixed for the episode.  ``scenario.design`` pins the geometry
    instead of optimizing (useful for experiments, and required when the
    call rate is zero); the ``center`` strategy then drops its offset.
    """
    if scenario.design is not None:
        x_opt, r_opt = scenario.design
        return (0.0 if scenario.strategy == "center" else x_opt), r_opt
    baseline = "offset" if scenario.strategy == "optimal" else "center"
    opt = joint_optimize(scenario.mobility, scenario.costs, scenario.provider,
                         baseline=baseline)
    return opt.x_opt, opt.r_opt


def network_update(anchor_cell: Cell, design: tuple[float, float],
                   scenario: Scenario, grid: HexGrid) -> LocationArea:
    """Build the LA for an update triggered in ``anchor_cell``.

    The LA is anchored on the cell's center, so the triggering cell is
    interior and pages in the first round.
    """
    x_opt, r_opt = design
    var_theta = direction_moments(scenario.mobility.k).var_theta
    return construct_la(grid.center(anchor_cell), x_opt, r_opt, grid,
                        m=scenario.costs.m, var_theta=var_theta)


def page(la: LocationArea, cell: Cell) -> PageResult:
    """Sequentially poll the LA's sub-areas until ``cell`` is reached.

    Raises:
        ConsistencyViolationError: ``cell`` is not in the LA's interior,
            meaning a boundary trigger was missed.
    """
    cells = 0
    for i, sub in enumerate(la.sub_area_cells, start=1):
        cells += len(sub)
        if cell in sub:
            return PageResult(rounds=i, cells_paged=cells)
    raise ConsistencyViolationError(
        f"terminal in cell {cell} outside its LA "
        f"(center {la.center}, R {la.radius:.3f}): missed boundary trigger"
    )


# ---------------------------------------------------------------------------
# end-to-end episode
# ---------------------------------------------------------------------------

def _step_stream(params: MobilityParams, rng: np.random.Generator,
                 block: int = 65536):
    """Endless (dx, dy, dwell) stream, presampled ``block`` steps at a time.

    The first block is drawn on the call and each later one only when the
    one before runs out, so the stream's draws interleave with the caller's
    own draws from ``rng`` in a fixed order.
    """
    def later_blocks():
        while True:
            yield from zip(*sample_steps(params, rng, block))

    return itertools.chain(zip(*sample_steps(params, rng, block)), later_blocks())


def run_episode(scenario: Scenario) -> EpisodeMetrics:
    """Simulate the full update/paging protocol over the given horizon.

    Event loop over displacement completions and call deliveries.  Every
    entry into a boundary cell of the current LA and every call re-anchors
    the LA on the terminal's cell; each update costs U and each paged cell
    costs V.  Deterministic for a fixed scenario (single Philox stream).

    Raises:
        ConsistencyViolationError: certainty paging failed (aborts the run).
    """
    grid = HexGrid()
    rng = np.random.Generator(np.random.Philox([scenario.seed]))
    steps = _step_stream(scenario.mobility, rng)  # before the first call gap draw
    design = episode_design(scenario)
    lam = scenario.costs.lam

    pos = (0.0, 0.0)
    cell = grid.cell_of(*pos)
    la = network_update(cell, design, scenario, grid)
    boundary_updates, call_updates = 1, 0
    cells_paged = 0
    rounds_hist: dict[int, int] = {}

    t = 0.0
    next_call = rng.exponential(1.0 / lam) if lam > 0.0 else math.inf
    duration = scenario.duration_hr

    for dx, dy, dwell in steps:
        t_jump = t + dwell
        # calls arriving while the terminal rests in its current cell
        while next_call <= min(t_jump, duration):
            t = next_call
            result = page(la, cell)
            cells_paged += result.cells_paged
            rounds_hist[result.rounds] = rounds_hist.get(result.rounds, 0) + 1
            la = network_update(cell, design, scenario, grid)
            call_updates += 1
            next_call = t + rng.exponential(1.0 / lam)
        if t_jump >= duration:
            break
        t = t_jump
        pos = (pos[0] + dx, pos[1] + dy)
        new_cell = grid.cell_of(*pos)
        if new_cell != cell:
            cell = new_cell
            if cell in la.boundary_cells:
                la = network_update(cell, design, scenario, grid)
                boundary_updates += 1

    updates = boundary_updates + call_updates
    c_u = scenario.costs.U * updates / duration
    c_p = scenario.costs.V * cells_paged / duration
    return EpisodeMetrics(
        duration_hr=duration,
        update_count=updates,
        boundary_updates=boundary_updates,
        call_triggered_updates=call_updates,
        calls=call_updates,
        cells_paged_total=cells_paged,
        paging_rounds_hist=tuple(sorted(rounds_hist.items())),
        paging_failures=0,
        C_u=c_u,
        C_p=c_p,
        C_t=c_u + c_p,
    )
