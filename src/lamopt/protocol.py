"""Cell-level realization of the distance-based update scheme.

The continuous location area (LA) is discretized onto the hex lattice: cells
whose centers lie within the distance threshold of the LA center are
*interior*; every cell just outside that is adjacent to an interior cell is a
*boundary* cell, so the boundary list is a finite ring.  The terminal stores
the boundary list and triggers an update whenever it enters a listed cell;
the network stores the interior cells, partitioned into sub-area lists for
delay-constrained sequential paging.

Updates are anchored on the center of the triggering cell (for both boundary
crossings and call deliveries).  Anchoring on the exact crossing position
instead can put the anchor's own cell outside the new interior set when the
optimal offset is close to the threshold, which breaks certainty paging;
the cell-center anchor makes the triggering cell interior by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from lamopt.config import mobility_from_config
from lamopt.costs import CostParams, PagingPlan, build_paging_plan, joint_optimize
from lamopt.ctrw import sample_steps
from lamopt.errors import ConsistencyViolationError, DomainError, GeometryError
from lamopt.hexgrid import Cell, HexGrid
from lamopt.mobility import MobilityParams, direction_moments

Vec = tuple[float, float]


@dataclass(frozen=True)
class LocationArea:
    """One discretized LA: geometry plus the three cell lists."""

    center: Vec
    radius: float
    initial_position: Vec
    direction: Vec
    boundary_cells: frozenset[Cell]
    interior_cells: frozenset[Cell]
    sub_area_cells: tuple[tuple[Cell, ...], ...]


@dataclass(frozen=True)
class Msg1:
    """Terminal-to-network update request: motion stats plus anchor pose."""

    params: MobilityParams
    y_tau: Vec
    direction: Vec


@dataclass(frozen=True)
class Msg2:
    """Network-to-terminal reply: the boundary cell list to watch."""

    boundary_cells: tuple[Cell, ...]


@dataclass
class MtState:
    """Terminal-side state between updates."""

    position: Vec
    current_cell: Cell
    params: MobilityParams
    direction: Vec
    boundary_cells: frozenset[Cell]


@dataclass
class NetworkDb:
    """Network-side location database and optimizer memo."""

    grid: HexGrid
    entries: dict = field(default_factory=dict)
    _optimum_cache: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PageResult:
    rounds: int
    cells_paged: int
    found_cell: Cell


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


# ---------------------------------------------------------------------------
# LA construction
# ---------------------------------------------------------------------------

def construct_la(y_tau: Vec, direction: Vec, x_opt: float, r_opt: float,
                 grid: HexGrid, m: int = 1, var_theta: float = 0.0) -> LocationArea:
    """Build an LA from the anchor pose and the optimized design.

    The LA center sits ``|x_opt|`` ahead of the anchor along the preferred
    direction, so the anchor gets LA-frame coordinate (x_opt, 0).  Interior
    cells are partitioned into ``m`` wedge sub-areas fanning out from the
    anchor, mirrored about the preferred direction; the anchor's own cell
    always belongs to the first sub-area.
    """
    if r_opt <= 0.0 or abs(x_opt) >= r_opt:
        raise DomainError(f"need 0 < |x_opt| < r_opt, got x_opt={x_opt}, r_opt={r_opt}")
    if r_opt < 2.0 * grid.size:
        raise GeometryError(
            f"threshold {r_opt:.3g} km below one cell diameter {2 * grid.size:.3g} km"
        )
    dnorm = math.hypot(*direction)
    if not math.isclose(dnorm, 1.0, rel_tol=1e-9):
        raise DomainError("direction must be a unit vector")
    ox = y_tau[0] + abs(x_opt) * direction[0]
    oy = y_tau[1] + abs(x_opt) * direction[1]

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
        vx, vy = px - y_tau[0], py - y_tau[1]
        ang = math.atan2(abs(vx * direction[1] - vy * direction[0]),
                         vx * direction[0] + vy * direction[1])
        lists[int(np.searchsorted(cum, ang, side="left"))].append(c)
    return LocationArea(
        center=(ox, oy), radius=r_opt, initial_position=y_tau,
        direction=direction, boundary_cells=boundary,
        interior_cells=interior_set,
        sub_area_cells=tuple(tuple(l) for l in lists),
    )


# ---------------------------------------------------------------------------
# update exchange
# ---------------------------------------------------------------------------

def handle_cell_entry(mt: MtState, new_cell: Cell, grid: HexGrid) -> Msg1 | None:
    """Terminal-side reaction to receiving a new cell id.

    Entering a listed boundary cell triggers an update request anchored on
    the new cell's center; any other entry is a no-op.
    """
    mt.current_cell = new_cell
    if new_cell in mt.boundary_cells:
        return Msg1(params=mt.params, y_tau=grid.center(new_cell),
                    direction=mt.direction)
    return None


def network_update(db: NetworkDb, mt_id, msg1: Msg1, costs: CostParams,
                   provider: str = "asymptotic", strategy: str = "optimal",
                   design: tuple[float, float] | None = None) -> Msg2:
    """Network-side update: optimize the design, build and store the LA.

    The radius/offset optimum depends only on the motion statistics and the
    cost model, so it is memoized; the LA itself is rebuilt at the new
    anchor.  ``design = (x_opt, r_opt)`` pins the geometry instead of
    optimizing (useful for experiments, and required when the call rate is
    zero).  Returns the boundary list for the terminal.
    """
    if strategy not in ("optimal", "center"):
        raise DomainError(f"unknown strategy {strategy!r}")
    if design is not None:
        x_opt, r_opt = design
        if strategy == "center":
            x_opt = 0.0
    else:
        key = (msg1.params, costs, provider, strategy)
        opt = db._optimum_cache.get(key)
        if opt is None:
            baseline = "offset" if strategy == "optimal" else "center"
            opt = joint_optimize(msg1.params, costs, provider, baseline=baseline)
            db._optimum_cache[key] = opt
        x_opt, r_opt = opt.x_opt, opt.r_opt
    var_theta = direction_moments(msg1.params.k).var_theta
    la = construct_la(msg1.y_tau, msg1.direction, x_opt, r_opt,
                      db.grid, m=costs.m, var_theta=var_theta)
    db.entries[mt_id] = la
    return Msg2(boundary_cells=tuple(sorted(la.boundary_cells)))


def page(db: NetworkDb, mt_id, true_cell: Cell) -> PageResult:
    """Sequentially poll the stored sub-areas until the terminal is found.

    Raises:
        ConsistencyViolationError: the terminal's cell is not in the stored
            interior set, meaning a boundary trigger was missed.
    """
    la = db.entries.get(mt_id)
    if la is None:
        raise DomainError(f"no LA stored for terminal {mt_id!r}")
    cells = 0
    for i, sub in enumerate(la.sub_area_cells, start=1):
        cells += len(sub)
        if true_cell in sub:
            return PageResult(rounds=i, cells_paged=cells, found_cell=true_cell)
    raise ConsistencyViolationError(
        f"terminal {mt_id!r} in cell {true_cell} outside its LA "
        f"(center {la.center}, R {la.radius:.3f}): missed boundary trigger"
    )


# ---------------------------------------------------------------------------
# end-to-end episode
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One protocol run: mobility, costs, strategy, horizon, seed."""

    mobility: MobilityParams
    costs: CostParams
    strategy: str = "optimal"
    duration_hr: float = 100.0
    seed: int = 0
    provider: str = "asymptotic"
    cell_area_km2: float = 1.0
    design: tuple[float, float] | None = None  # (x_opt, r_opt) pin

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_hr) and self.duration_hr > 0.0):
            raise DomainError(
                f"duration_hr must be finite and > 0, got {self.duration_hr}")

    @classmethod
    def from_config(cls, cfg: dict) -> "Scenario":
        costs = CostParams(lam=cfg["lambda_per_hr"], U=cfg["U"], V=cfg["V"],
                           m=cfg["m_paging"])
        return cls(
            mobility=mobility_from_config(cfg),
            costs=costs,
            strategy=str(cfg.get("strategy", "optimal")),
            duration_hr=float(cfg.get("duration_hr", 100.0)),
            seed=int(cfg.get("seed", 0)),
            provider=str(cfg.get("provider", "asymptotic")),
        )


class _StepStream:
    """Block-presampled displacement stream (deterministic given the rng)."""

    def __init__(self, params: MobilityParams, rng: np.random.Generator,
                 block: int = 65536):
        self._params = params
        self._rng = rng
        self._block = block
        self._refill()

    def _refill(self) -> None:
        self._dx, self._dy, self._dwell = sample_steps(
            self._params, self._rng, self._block
        )
        self._pos = 0

    def next(self) -> tuple[float, float, float]:
        if self._pos >= self._block:
            self._refill()
        i = self._pos
        self._pos += 1
        return self._dx[i], self._dy[i], self._dwell[i]


def run_episode(scenario: Scenario) -> EpisodeMetrics:
    """Simulate the full update/paging protocol over the given horizon.

    Event loop over displacement completions and call deliveries.  Every
    entry into a listed boundary cell and every call triggers the update
    exchange; each update costs U and each paged cell costs V.  Deterministic
    for a fixed scenario (single Philox stream).

    Raises:
        ConsistencyViolationError: certainty paging failed (aborts the run).
    """
    grid = HexGrid(scenario.cell_area_km2)
    db = NetworkDb(grid=grid)
    rng = np.random.Generator(np.random.Philox([scenario.seed]))
    steps = _StepStream(scenario.mobility, rng)
    lam = scenario.costs.lam
    direction = (1.0, 0.0)

    pos = (0.0, 0.0)
    cell = grid.cell_of(*pos)
    mt = MtState(position=pos, current_cell=cell, params=scenario.mobility,
                 direction=direction, boundary_cells=frozenset())

    def do_update(anchor_cell: Cell) -> None:
        msg1 = Msg1(params=scenario.mobility, y_tau=grid.center(anchor_cell),
                    direction=direction)
        msg2 = network_update(db, "mt", msg1, scenario.costs,
                              provider=scenario.provider,
                              strategy=scenario.strategy,
                              design=scenario.design)
        mt.boundary_cells = frozenset(msg2.boundary_cells)

    do_update(cell)
    updates, boundary_updates, call_updates = 1, 1, 0
    calls = 0
    cells_paged = 0
    rounds_hist: dict[int, int] = {}

    t = 0.0
    next_call = rng.exponential(1.0 / lam) if lam > 0.0 else math.inf
    duration = scenario.duration_hr

    while True:
        dx, dy, dwell = steps.next()
        t_jump = t + dwell
        # calls arriving while the terminal rests in its current cell
        while next_call <= min(t_jump, duration):
            t = next_call
            result = page(db, "mt", mt.current_cell)
            calls += 1
            cells_paged += result.cells_paged
            rounds_hist[result.rounds] = rounds_hist.get(result.rounds, 0) + 1
            do_update(mt.current_cell)
            updates += 1
            call_updates += 1
            next_call = t + rng.exponential(1.0 / lam)
        if t_jump >= duration:
            break
        t = t_jump
        pos = (pos[0] + dx, pos[1] + dy)
        mt.position = pos
        new_cell = grid.cell_of(*pos)
        if new_cell != mt.current_cell:
            msg1 = handle_cell_entry(mt, new_cell, grid)
            if msg1 is not None:
                msg2 = network_update(db, "mt", msg1, scenario.costs,
                                      provider=scenario.provider,
                                      strategy=scenario.strategy,
                                      design=scenario.design)
                mt.boundary_cells = frozenset(msg2.boundary_cells)
                updates += 1
                boundary_updates += 1

    c_u = scenario.costs.U * updates / duration
    c_p = scenario.costs.V * cells_paged / duration
    return EpisodeMetrics(
        duration_hr=duration,
        update_count=updates,
        boundary_updates=boundary_updates,
        call_triggered_updates=call_updates,
        calls=calls,
        cells_paged_total=cells_paged,
        paging_rounds_hist=tuple(sorted(rounds_hist.items())),
        paging_failures=0,
        C_u=c_u,
        C_p=c_p,
        C_t=c_u + c_p,
    )
