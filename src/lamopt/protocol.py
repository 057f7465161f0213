"""Cell-level realization of the distance-based update scheme.

The continuous location area (LA) is discretized onto the hex lattice: cells
whose centers lie within the distance threshold of the LA center are
*interior*; every cell just outside that is adjacent to an interior cell is a
*boundary* cell, so the boundary list is a finite ring.  The terminal watches
the boundary list; the network pages the interior cells, partitioned into
sub-area lists for delay-constrained sequential paging.

The scheme has one event: the terminal enters a boundary cell or receives a
call, and the LA is re-anchored on that cell.  Updates are anchored on the
center of the triggering cell.  Anchoring on the exact crossing position
instead can put the anchor's own cell outside the new interior set when the
optimal offset is close to the threshold, which breaks certainty paging; the
cell-center anchor makes the triggering cell interior by construction.

Every LA of an episode is a lattice translate of one template: the LA
``construct_la`` builds at the origin cell with the episode's design, which
``episode_template`` resolves once.  An update only moves the anchor cell,
and ``network_update`` gives the LA it stands for.  That is exactly the LA
``construct_la`` builds at the anchor's center: ``HexGrid.cells_within``
counts a cell center on the threshold circle as interior whatever the float
rounding, so an LA has one shape at every anchor, also when the threshold
is a lattice distance.  The template saves building an LA per update.

``run_episode`` walks the presampled steps a chunk at a time with numpy and
steps from event to event: a call is found by searching the jump times, a
boundary entry by a membership test of the walked cells' keys relative to
the anchor.

The road runs along +x, as everywhere in lamopt (see ``mobility``): the LA
center sits ahead of the anchor on the x axis and the paging wedges are
mirrored about it.  The paging sub-areas are the cost model's wedges, as
``costs.wedge_indices`` bins the interior cell centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lamopt.costs import (
    PROVIDERS,
    CostParams,
    build_paging_plan,
    joint_optimize,
    wedge_indices,
)
from lamopt.ctrw import sample_dwells, sample_steps
from lamopt.errors import ConsistencyViolationError, DomainError, require_int
from lamopt.hexgrid import Cell, HexGrid
from lamopt.mobility import MobilityParams, direction_moments

Vec = tuple[float, float]

STRATEGIES = ("optimal", "center")

# Largest expected step count (horizon over mean dwell) of one episode.
MAX_EPISODE_STEPS = 10**8
# Largest LA, in cells (pi r_opt^2 at unit cell area).  The LA is built as
# Python tuples, at about 5 us and 300 bytes per cell (peak, 2-core x86
# host), so 1e6 cells take about 5 s and 0.3 GB; the paper's designs need
# tens to thousands of cells.
MAX_LA_CELLS = 10**6
# Steps per presampled block, and per numpy pass over a block (a divisor:
# the walk draws the next block when its chunks reach the block's end).
_BLOCK = 65536
_CHUNK = 2048
# Cell key q * _KEY_Q + r; unique while |r| < 2^31.
_KEY_Q = 1 << 32


@dataclass(frozen=True)
class LocationArea:
    """One discretized LA: geometry, boundary ring and paging sub-areas."""

    center: Vec
    radius: float
    boundary_cells: frozenset[Cell]
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


def check_scenario_keys(values: dict) -> None:
    """Refuse a ``strategy``, ``provider``, ``duration_hr`` or ``seed``
    outside its domain; an absent key passes.  Config files and ``Scenario``
    share it."""
    if "strategy" in values and values["strategy"] not in STRATEGIES:
        raise DomainError(f"unknown strategy {values['strategy']!r}")
    if "provider" in values and values["provider"] not in PROVIDERS:
        raise DomainError(f"provider must be one of {PROVIDERS}")
    duration = values.get("duration_hr", 1.0)
    if not (math.isfinite(duration) and duration > 0.0):
        raise DomainError(f"duration_hr must be finite and > 0, got {duration}")
    if "seed" in values:
        require_int("seed", values["seed"], 0)


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
        check_scenario_keys(vars(self))
        steps = self.duration_hr / self.mobility.mean_time
        if steps > MAX_EPISODE_STEPS:
            raise DomainError(
                f"duration_hr {self.duration_hr:g} needs about {steps:.3g} steps, "
                f"more than the {MAX_EPISODE_STEPS:.0e} an episode may take")


# ---------------------------------------------------------------------------
# LA construction
# ---------------------------------------------------------------------------

def construct_la(y_tau: Vec, x_opt: float, r_opt: float, grid: HexGrid,
                 m: int = 1, var_theta: float = 0.0) -> LocationArea:
    """Build an LA from the anchor position and the optimized design.

    The LA center sits ``|x_opt|`` ahead of the anchor along the road (+x),
    so the anchor gets LA-frame coordinate (x_opt, 0).  Interior cells are
    partitioned into ``m`` sub-areas, the cost model's paging wedges
    (``costs.wedge_indices``) fanning out from the anchor and mirrored about
    the road axis, each in the row-major order of ``HexGrid.cells_within``;
    the anchor's own cell always belongs to the first sub-area.

    Raises:
        DomainError: a non-finite anchor, the threshold below one cell
            diameter, or an LA that would hold more than ``MAX_LA_CELLS``
            cells.
    """
    if not (r_opt > 0.0 and abs(x_opt) < r_opt):  # NaN fails too
        raise DomainError(f"need 0 < |x_opt| < r_opt, got x_opt={x_opt}, r_opt={r_opt}")
    if r_opt < 2.0 * grid.size:
        raise DomainError(
            f"threshold {r_opt:.3g} km below one cell diameter {2 * grid.size:.3g} km"
        )
    cells = math.pi * r_opt * r_opt  # cells have unit area
    if not cells <= MAX_LA_CELLS:
        raise DomainError(
            f"threshold {r_opt:.4g} km gives an LA of about {cells:.3g} cells, "
            f"more than the {MAX_LA_CELLS:.0e} an LA may hold")
    ox, oy = y_tau[0] + abs(x_opt), y_tau[1]

    interior = grid.cells_within((ox, oy), r_opt)
    interior_set = frozenset(interior)
    boundary = frozenset(
        nbr for c in interior for nbr in grid.neighbors(c)
        if nbr not in interior_set
    )

    plan = build_paging_plan(m, var_theta, anchor_x=y_tau[0])
    px, py = np.array([grid.center(c) for c in interior]).T
    idx = wedge_indices(plan, px, py - y_tau[1])
    anchor_cell = grid.cell_of(*y_tau)
    idx[[c == anchor_cell for c in interior]] = 0
    lists: list[list[Cell]] = [[] for _ in range(m)]
    for c, i in zip(interior, idx):
        lists[i].append(c)
    return LocationArea(
        center=(ox, oy), radius=r_opt,
        boundary_cells=boundary,
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


def episode_template(scenario: Scenario, grid: HexGrid) -> LocationArea:
    """The episode's LA at the origin cell, which every update translates."""
    x_opt, r_opt = episode_design(scenario)
    var_theta = direction_moments(scenario.mobility.k).var_theta
    return construct_la((0.0, 0.0), x_opt, r_opt, grid,
                        m=scenario.costs.m, var_theta=var_theta)


def network_update(template: LocationArea, anchor_cell: Cell,
                   grid: HexGrid) -> LocationArea:
    """The LA of an update triggered in ``anchor_cell``: the template moved
    by that cell's axial offset.

    The LA is anchored on the cell's center, so the triggering cell is
    interior and pages in the first round.
    """
    qa, ra = anchor_cell
    ax, ay = grid.center(anchor_cell)

    def moved(cells):
        return tuple((q + qa, r + ra) for q, r in cells)

    return LocationArea(
        center=(ax + template.center[0], ay + template.center[1]),
        radius=template.radius,
        boundary_cells=frozenset(moved(template.boundary_cells)),
        sub_area_cells=tuple(moved(sub) for sub in template.sub_area_cells),
    )


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

def _first_hit(keys: np.ndarray, anchor: int, ring: np.ndarray,
               lo: int, hi: int) -> int:
    """First index in ``[lo, hi)`` whose key, taken relative to the anchor's,
    is in ``ring`` (sorted, ending in a sentinel above every key); ``hi`` if
    none is."""
    rel = keys[lo:hi] - anchor
    hit = ring[ring.searchsorted(rel)] == rel
    return lo + int(hit.argmax()) if hit.any() else hi


def _draw_block(mobility: MobilityParams, rng: np.random.Generator):
    """The next ``_BLOCK`` steps as ``(dx, dy, dwell)`` arrays."""
    return (*sample_steps(mobility, rng, _BLOCK), sample_dwells(mobility, rng, _BLOCK))


def run_episode(scenario: Scenario) -> EpisodeMetrics:
    """Simulate the full update/paging protocol over the given horizon.

    Every entry into a boundary cell of the current LA and every call
    re-anchors the LA on the terminal's cell; each update costs U and each
    paged cell costs V.  Calls that arrive by the time a jump completes are
    delivered before it, in the cell the terminal rests in.  Deterministic
    for a fixed scenario (single Philox stream): steps are drawn in blocks,
    the first before the first call gap and each later one only when the
    walk reaches it.

    Raises:
        ConsistencyViolationError: certainty paging failed (aborts the run).
    """
    grid = HexGrid()
    rng = np.random.Generator(np.random.Philox([scenario.seed]))
    block = _draw_block(scenario.mobility, rng)
    la = episode_template(scenario, grid)
    ring = np.sort(np.array([q * _KEY_Q + r for q, r in la.boundary_cells]
                            + [np.iinfo(np.int64).max], dtype=np.int64))
    lam = scenario.costs.lam
    duration = scenario.duration_hr
    next_call = rng.exponential(1.0 / lam) if lam > 0.0 else math.inf

    qa, ra = 0, 0  # anchor cell: the walk starts at the origin
    boundary_updates, call_updates = 1, 0
    cells_paged = 0
    rounds_hist: dict[int, int] = {}
    x = y = t = 0.0  # where and when the last walked jump completed
    start = 0
    while True:
        if start == _BLOCK:
            del block  # before the draw, so that one block is held at a time
            block = _draw_block(scenario.mobility, rng)
            start = 0
        # Entry 0 is the state before the chunk and entry j the state after
        # its j-th jump; cumsum adds in the order of a running sum.
        xs, ys, ts = (np.cumsum(np.concatenate(([v], a[start:start + _CHUNK])))
                      for v, a in zip((x, y, t), block))
        start += _CHUNK
        q, r = grid.cells_of(xs, ys)
        keys = q * _KEY_Q + r
        last = ts.size - 1
        end = int(ts.searchsorted(duration))  # first jump reaching the horizon
        j = 1
        while True:
            # first jump completing at or after the next call
            j_call = max(int(ts.searchsorted(next_call)), j)
            hi = min(j_call, end)
            j = _first_hit(keys, qa * _KEY_Q + ra, ring, j, hi)
            if j < hi:
                qa, ra = int(q[j]), int(r[j])
                boundary_updates += 1
                j += 1
            elif j_call <= min(end, last) and next_call <= duration:
                cell = int(q[j_call - 1]), int(r[j_call - 1])
                result = page(la, (cell[0] - qa, cell[1] - ra))
                cells_paged += result.cells_paged
                rounds_hist[result.rounds] = rounds_hist.get(result.rounds, 0) + 1
                qa, ra = cell
                call_updates += 1
                next_call += rng.exponential(1.0 / lam)
            else:
                break
        if end <= last:
            break
        x, y, t = xs[-1], ys[-1], ts[-1]

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
