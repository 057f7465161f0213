"""Hex lattice, LA construction, update exchange, paging, episodes."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamopt.config import default_mobility
from lamopt.costs import CostParams
from lamopt.ctrw import sample_dwells, sample_steps
from lamopt.errors import ConsistencyViolationError, DomainError
from lamopt.hexgrid import HexGrid
from lamopt.mobility import compute_diffusion, direction_moments
from lamopt.protocol import (
    MAX_EPISODE_STEPS,
    EpisodeMetrics,
    Scenario,
    construct_la,
    episode_design,
    episode_template,
    network_update,
    page,
    run_episode,
)

GRID = HexGrid()
# distance between adjacent cell centers, km
PITCH = math.sqrt(3) * HexGrid.size


def interior(la):
    """The LA's interior cells: the union of its paging sub-areas."""
    return frozenset(c for sub in la.sub_area_cells for c in sub)


def scalar_cell_of(x, y):
    """Cube rounding of one point with Python scalars: the oracle for
    ``HexGrid.cells_of``."""
    s = GRID.size
    qf = (math.sqrt(3.0) / 3.0 * x - y / 3.0) / s
    rf = (2.0 / 3.0 * y) / s
    sf = -qf - rf
    q, r, t = round(qf), round(rf), round(sf)
    dq, dr, dt = abs(q - qf), abs(r - rf), abs(t - sf)
    if dq > dr and dq > dt:
        q = -r - t
    elif dr > dt:
        r = -q - t
    return int(q), int(r)


def scalar_episode(scenario: Scenario) -> EpisodeMetrics:
    """The per-step event loop that ``run_episode`` replaced, kept as its
    oracle: one step at a time, one scalar cell lookup per step, and a
    ``construct_la`` at the center of every update's anchor cell.  It draws
    from the Philox stream in the same order: a block of steps first, the
    first call gap, every later gap when its call is delivered, and the next
    block when the walk reaches it."""
    rng = np.random.Generator(np.random.Philox([scenario.seed]))

    def block():
        return zip(*sample_steps(scenario.mobility, rng, 65536),
                   sample_dwells(scenario.mobility, rng, 65536))

    def later_blocks():
        while True:
            yield from block()

    steps = itertools.chain(block(), later_blocks())
    x_opt, r_opt = episode_design(scenario)
    var_theta = direction_moments(scenario.mobility.k).var_theta

    def build_la(cell):
        return construct_la(GRID.center(cell), x_opt, r_opt, GRID,
                            m=scenario.costs.m, var_theta=var_theta)

    lam = scenario.costs.lam
    pos = (0.0, 0.0)
    cell = scalar_cell_of(*pos)
    la = build_la(cell)
    boundary_updates, call_updates = 1, 0
    cells_paged = 0
    rounds_hist = {}
    t = 0.0
    next_call = rng.exponential(1.0 / lam) if lam > 0.0 else math.inf
    duration = scenario.duration_hr
    for dx, dy, dwell in steps:
        t_jump = t + dwell
        while next_call <= min(t_jump, duration):
            t = next_call
            result = page(la, cell)
            cells_paged += result.cells_paged
            rounds_hist[result.rounds] = rounds_hist.get(result.rounds, 0) + 1
            la = build_la(cell)
            call_updates += 1
            next_call = t + rng.exponential(1.0 / lam)
        if t_jump >= duration:
            break
        t = t_jump
        pos = (pos[0] + dx, pos[1] + dy)
        new_cell = scalar_cell_of(*pos)
        if new_cell != cell:
            cell = new_cell
            if cell in la.boundary_cells:
                la = build_la(cell)
                boundary_updates += 1

    updates = boundary_updates + call_updates
    c_u = scenario.costs.U * updates / duration
    c_p = scenario.costs.V * cells_paged / duration
    return EpisodeMetrics(
        duration_hr=duration, update_count=updates,
        boundary_updates=boundary_updates,
        call_triggered_updates=call_updates, calls=call_updates,
        cells_paged_total=cells_paged,
        paging_rounds_hist=tuple(sorted(rounds_hist.items())),
        paging_failures=0, C_u=c_u, C_p=c_p, C_t=c_u + c_p)


class TestHexGrid:
    def test_cell_area_sets_size(self):
        # unit-area pointy-top hexagon: circumradius ~ 0.6204 km
        assert GRID.size == pytest.approx(0.620403239, rel=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-50, max_value=50),
           st.floats(min_value=-50, max_value=50))
    def test_containment_roundtrip(self, x, y):
        cell = GRID.cell_of(x, y)
        cx, cy = GRID.center(cell)
        assert math.hypot(x - cx, y - cy) <= GRID.size * (1 + 1e-9)

    def test_neighbors_at_pitch(self):
        cell = (3, -2)
        cx, cy = GRID.center(cell)
        for n in GRID.neighbors(cell):
            nx, ny = GRID.center(n)
            assert math.hypot(nx - cx, ny - cy) == pytest.approx(PITCH)

    def test_cells_within_counts_area(self):
        for radius in (3.0, 5.0, 8.0):
            cells = GRID.cells_within((0.3, -0.7), radius)
            assert len(cells) == pytest.approx(math.pi * radius**2, rel=0.1)
            for c in cells:
                x, y = GRID.center(c)
                assert math.hypot(x - 0.3, y + 0.7) <= radius

    @pytest.mark.parametrize("m, count", [(3, 13), (4, 19), (7, 31), (9, 37),
                                          (12, 43), (13, 55)])
    def test_centers_on_the_circle_are_within(self, m, count):
        # at sqrt(m) pitches some lattice centers lie on the circle; all of
        # them count, so the disc keeps the lattice's 60-degree turns and
        # has one shape at every cell center
        radius = math.sqrt(m) * PITCH
        cells = set(GRID.cells_within((0.0, 0.0), radius))
        assert len(cells) == count
        assert {(-r, q + r) for q, r in cells} == cells
        qa, ra = 2500, -1700
        far = GRID.cells_within(GRID.center((qa, ra)), radius)
        assert {(q - qa, r - ra) for q, r in far} == cells

    def test_center_cell_of_inverse(self):
        for cell in [(0, 0), (5, -3), (-7, 2)]:
            assert GRID.cell_of(*GRID.center(cell)) == cell

    # Cell centers up to 1e6 km away, with the points where the rounding
    # ties: the six corners and the six edge midpoints of a cell.
    _ties = [(GRID.size * math.cos(math.radians(30 + 60 * i)),
              GRID.size * math.sin(math.radians(30 + 60 * i))) for i in range(6)]
    _ties += [(PITCH / 2 * math.cos(math.radians(60 * i)),
               PITCH / 2 * math.sin(math.radians(60 * i))) for i in range(6)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
        st.builds(lambda q, r, tie, frac: (
            GRID.center((q, r))[0] + frac * tie[0],
            GRID.center((q, r))[1] + frac * tie[1]),
            st.integers(-600_000, 600_000), st.integers(-600_000, 600_000),
            st.sampled_from(_ties), st.sampled_from([0.0, 1.0, 0.5, -1.0])),
    ), min_size=1, max_size=40))
    def test_cells_of_matches_scalar_rounding(self, points):
        xs, ys = (np.array(v) for v in zip(*points))
        q, r = GRID.cells_of(xs, ys)
        assert q.dtype == r.dtype == np.int64
        assert list(zip(q.tolist(), r.tolist())) == [scalar_cell_of(x, y)
                                                     for x, y in points]
        assert [GRID.cell_of(x, y) for x, y in points] == list(
            zip(q.tolist(), r.tolist()))


class TestConstructLa:
    def test_zero_offset_center_is_anchor(self):
        la = construct_la((1.0, 2.0), 0.0, 4.0, GRID)
        assert la.center == (1.0, 2.0)

    def test_offset_shifts_center_forward(self):
        la = construct_la((0.0, 0.0), -3.0, 4.0, GRID)
        assert la.center == (3.0, 0.0)
        # the anchor (the origin) sits near the trailing rim, |x_opt| behind
        # the center
        assert math.hypot(*la.center) == pytest.approx(3.0)

    def test_interior_count_tracks_area(self):
        la = construct_la((0.0, 0.0), 0.0, 5.0, GRID)
        assert len(interior(la)) == pytest.approx(math.pi * 25.0, rel=0.1)

    def test_cell_lists_consistent(self):
        la = construct_la((0.5, -0.5), -2.0, 5.0, GRID, m=3,
                          var_theta=0.7)
        cells = interior(la)
        assert not (la.boundary_cells & cells)
        # every interior-adjacent outside cell is in the boundary ring
        for c in cells:
            for n in GRID.neighbors(c):
                if n not in cells:
                    assert n in la.boundary_cells
        # boundary cells all exceed the threshold distance
        for b in la.boundary_cells:
            x, y = GRID.center(b)
            assert math.hypot(x - la.center[0], y - la.center[1]) > la.radius
        # sub-areas partition the interior: no cell pages twice
        merged = [c for sub in la.sub_area_cells for c in sub]
        assert len(merged) == len(set(merged))
        # the anchor's own cell pages first
        assert GRID.cell_of(0.5, -0.5) in la.sub_area_cells[0]

    def test_degenerate_radius_rejected(self):
        with pytest.raises(DomainError, match="below one cell diameter"):
            construct_la((0.0, 0.0), 0.0, 1.0, GRID)

    def test_consecutive_las_overlap_at_moderate_offset(self):
        # a fresh LA anchored on a boundary cell of the previous one shares
        # interior cells with it when the offset is moderate
        la1 = construct_la((0.0, 0.0), -1.5, 5.0, GRID)
        ahead = max(la1.boundary_cells, key=lambda c: GRID.center(c)[0])
        la2 = construct_la(GRID.center(ahead), -1.5, 5.0, GRID)
        assert interior(la1) & interior(la2)


def _scenario(k: float, lam: float, **kw) -> Scenario:
    return Scenario(mobility=default_mobility(k),
                    costs=CostParams(lam=lam, U=20.0, V=1.0), **kw)


class TestUpdateExchange:
    def test_interior_entry_is_noop(self):
        # the terminal watches exactly the boundary ring, so no interior
        # cell (the anchor's own cell included) triggers an update
        sc = _scenario(0.5, 2.0, design=(-1.0, 4.0))
        anchor = GRID.cell_of(0.0, 0.0)
        la = network_update(episode_template(sc, GRID), anchor, GRID)
        assert anchor in interior(la)
        assert not (interior(la) & la.boundary_cells)

    def test_boundary_entry_triggers(self):
        # an update triggered in a boundary cell anchors the new LA on that
        # cell's center, and the cell pages in the first round
        sc = _scenario(0.5, 2.0, design=(-1.0, 4.0))
        template = episode_template(sc, GRID)
        la = network_update(template, GRID.cell_of(0.0, 0.0), GRID)
        target = max(la.boundary_cells, key=lambda c: GRID.center(c)[0])
        la2 = network_update(template, target, GRID)
        assert la2.center == pytest.approx(
            (GRID.center(target)[0] + 1.0, GRID.center(target)[1]))
        assert target in la2.sub_area_cells[0]
        assert target not in la2.boundary_cells
        assert page(la2, target).rounds == 1

    def test_network_update_deterministic(self):
        sc = _scenario(20.0, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            template = episode_template(sc, GRID)
            assert episode_template(sc, GRID) == template
        a = network_update(template, (0, 0), GRID)
        assert a == template
        assert network_update(template, (0, 0), GRID) == a
        # strong drift: the anchor (the origin) ends up near the trailing rim
        assert math.hypot(*a.center) > 0.9 * a.radius
        # the watch list is exactly the ring around the interior
        cells = interior(a)
        ring = {n for c in cells for n in GRID.neighbors(c) if n not in cells}
        assert a.boundary_cells == ring

    def test_weak_drift_center_near_anchor(self):
        # large region (small rate) so the construction is not degenerate
        sc = _scenario(1e-4, 0.05)
        cell = GRID.cell_of(2.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            la = network_update(episode_template(sc, GRID), cell, GRID)
        ax, ay = GRID.center(cell)
        assert math.hypot(la.center[0] - ax, la.center[1] - ay) < 0.01 * la.radius

    @pytest.mark.parametrize("x_opt, r_opt, m, var_theta", [
        (-4.084, 4.152, 1, 0.0), (-1.0, 4.0, 3, 0.6), (-1.5, 5.0, 2, 0.7)])
    def test_translate_is_construct_la_at_the_anchor(self, x_opt, r_opt, m,
                                                      var_theta):
        # for a generic design the template moved to an anchor is exactly
        # the LA built at that anchor's center, far from the origin too
        template = construct_la((0.0, 0.0), x_opt, r_opt, GRID, m=m,
                                var_theta=var_theta)
        rng = np.random.default_rng(8)
        for q, r in rng.integers(-3000, 3001, size=(300, 2)).tolist():
            direct = construct_la(GRID.center((q, r)), x_opt, r_opt, GRID,
                                  m=m, var_theta=var_theta)
            assert network_update(template, (q, r), GRID) == direct

    def test_lattice_distance_radius_keeps_one_shape(self):
        # With the threshold at two cell pitches and no offset, cell centers
        # sit on the circle.  The episode's LA is the template moved, so it
        # has the same cells relative to the anchor everywhere, and an LA
        # built afresh at any anchor equals it, since every center on the
        # circle is interior whatever the rounding.
        r_opt = 2.0 * PITCH
        template = construct_la((0.0, 0.0), 0.0, r_opt, GRID)
        rng = np.random.default_rng(3)
        reshaped = 0
        for q, r in rng.integers(-3000, 3001, size=(100, 2)).tolist():
            la = network_update(template, (q, r), GRID)
            assert {(cq - q, cr - r) for cq, cr in interior(la)} == \
                interior(template)
            assert {(cq - q, cr - r) for cq, cr in la.boundary_cells} == \
                template.boundary_cells
            direct = construct_la(GRID.center((q, r)), 0.0, r_opt, GRID)
            reshaped += interior(direct) != interior(la)
        assert reshaped == 0


class TestEpisodeDesign:
    def test_pinned_design(self):
        assert episode_design(_scenario(20.0, 0.0, design=(-4.0, 4.2))) == (-4.0, 4.2)
        # the centered strategy drops the pinned offset
        assert episode_design(_scenario(20.0, 0.0, design=(-4.0, 4.2),
                                        strategy="center")) == (0.0, 4.2)

    def test_optimized_design_per_strategy(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x_opt, r_opt = episode_design(_scenario(20.0, 0.2))
            x_ctr, r_ctr = episode_design(_scenario(20.0, 0.2, strategy="center"))
        assert -r_opt < x_opt < 0.0
        assert x_ctr == 0.0 and r_ctr > 0.0

    def test_zero_rate_needs_pinned_design(self):
        with pytest.raises(DomainError):
            episode_design(_scenario(20.0, 0.0))

    @pytest.mark.parametrize("kw", [{"strategy": "offset"}, {"provider": "exact"}],
                             ids=["strategy", "provider"])
    def test_scenario_rejects_unknown_names(self, kw):
        with pytest.raises(DomainError):
            _scenario(0.5, 2.0, **kw)

    @pytest.mark.parametrize("seed, ok", [(1.5, False), (2.0, False), (-1, False),
                                          (np.int64(7), True), (0, True), (True, False),
                                          (None, False), ("3", False)])
    def test_scenario_seed_must_be_a_nonnegative_integer(self, seed, ok):
        # a float or negative seed used to fail in run_episode, seeding Philox
        if ok:
            assert _scenario(0.5, 2.0, seed=seed).seed == seed
        else:
            with pytest.raises(DomainError, match="seed must be an integer"):
                _scenario(0.5, 2.0, seed=seed)


class TestPaging:
    @pytest.fixture()
    def la(self):
        return construct_la((0.0, 0.0), -1.0, 4.0, GRID, m=3,
                            var_theta=0.6)

    def test_first_round_hit(self, la):
        res = page(la, la.sub_area_cells[0][0])
        assert res.rounds == 1
        assert res.cells_paged == len(la.sub_area_cells[0])

    def test_last_round_pages_everything(self, la):
        res = page(la, la.sub_area_cells[-1][-1])
        assert res.rounds == 3
        assert res.cells_paged == len(interior(la))

    def test_single_round_pages_whole_region(self):
        la = construct_la((0.0, 0.0), 0.0, 4.0, GRID, m=1)
        res = page(la, next(iter(interior(la))))
        assert res.cells_paged == len(interior(la))

    def test_outside_cell_raises(self, la):
        with pytest.raises(ConsistencyViolationError):
            page(la, (99, 99))


class TestRunEpisode:
    def _scenario(self, **kw):
        base = dict(mobility=default_mobility(20.0),
                    costs=CostParams(lam=0.2, U=20.0, V=1.0),
                    strategy="optimal", duration_hr=60.0, seed=12)
        base.update(kw)
        return Scenario(**base)

    def test_deterministic(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = run_episode(self._scenario())
            b = run_episode(self._scenario())
        assert a == b

    def test_counters_consistent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = run_episode(self._scenario())
        assert m.update_count == m.boundary_updates + m.call_triggered_updates
        assert m.call_triggered_updates == m.calls
        assert m.C_t == pytest.approx(m.C_u + m.C_p)
        # cost identity: empirical update cost is U over the mean interval
        assert m.C_u == pytest.approx(
            self._scenario().costs.U / (m.duration_hr / m.update_count))
        assert m.paging_failures == 0

    def test_zero_rate_transit_interval(self):
        # calls off, fixed strong-drift design: cycles are transits of about
        # 2R at the drift speed.  The trigger fires on *cell* entry, roughly
        # half a cell pitch past the continuous rim, so the empirical
        # interval runs a few percent long; 8% covers that discretization.
        mob = default_mobility(20.0)
        diff = compute_diffusion(mob)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = run_episode(self._scenario(
                costs=CostParams(lam=0.0, U=20.0, V=1.0),
                design=(-4.084, 4.152), duration_hr=300.0))
        expected = 2.0 * 4.152 / diff.mu1
        assert m.calls == 0
        interval = m.duration_hr / m.update_count
        assert interval == pytest.approx(expected, rel=0.08)
        assert interval > expected  # bias is one-sided

    def test_center_strategy_pays_more(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            opt = run_episode(self._scenario(duration_hr=150.0))
            ctr = run_episode(self._scenario(duration_hr=150.0,
                                             strategy="center"))
        assert ctr.C_t > opt.C_t

    def test_moderate_drift_multi_round_paging(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = run_episode(self._scenario(
                mobility=default_mobility(1.0),
                costs=CostParams(lam=0.25, U=20.0, V=1.0, m=3),
                provider="galerkin", duration_hr=60.0, seed=4))
        assert m.paging_failures == 0
        rounds = dict(m.paging_rounds_hist)
        assert sum(rounds.values()) == m.calls
        assert max(rounds) <= 3

    # EpisodeMetrics recorded before the update path was collapsed to one
    # network_update; the episode must reproduce them exactly.
    @pytest.mark.parametrize("k, lam, strategy, m, expected", [
        pytest.param(20.0, 0.2, "optimal", 1, EpisodeMetrics(
            duration_hr=30.0, update_count=35, boundary_updates=27,
            call_triggered_updates=8, calls=8, cells_paged_total=448,
            paging_rounds_hist=((1, 8),), paging_failures=0,
            C_u=23.333333333333332, C_p=14.933333333333334,
            C_t=38.266666666666666), id="boundary-driven"),
        pytest.param(0.5, 2.0, "center", 2, EpisodeMetrics(
            duration_hr=30.0, update_count=95, boundary_updates=33,
            call_triggered_updates=62, calls=62, cells_paged_total=372,
            paging_rounds_hist=((1, 62),), paging_failures=0,
            C_u=63.333333333333336, C_p=12.4,
            C_t=75.73333333333333), id="call-driven"),
    ])
    def test_matches_recorded_metrics(self, k, lam, strategy, m, expected):
        scenario = Scenario(mobility=default_mobility(k),
                            costs=CostParams(lam=lam, U=20.0, V=1.0, m=m),
                            strategy=strategy, duration_hr=30.0, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_episode(scenario) == expected

    # The block walk against the per-step loop it replaced: every counter and
    # cost bit for bit, over drift regimes, paging rounds, calls off (a
    # pinned design), and one horizon that outlasts the 65536-step block
    # (160 h of 8 s dwells is about 72000 steps).
    @pytest.mark.parametrize("k, lam, strategy, m, hours, design", [
        (20.0, 0.2, "optimal", 1, 25.0, None),
        (20.0, 0.2, "center", 3, 25.0, None),
        (20.0, 0.0, "optimal", 1, 25.0, (-4.084, 4.152)),
        (1.0, 0.25, "optimal", 3, 25.0, None),
        (1.0, 2.0, "center", 1, 25.0, None),
        (0.5, 2.0, "optimal", 3, 25.0, None),
        (0.5, 0.0, "center", 1, 25.0, (-1.0, 4.0)),
        (0.5, 2.0, "optimal", 1, 160.0, None),
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_scalar_loop(self, k, lam, strategy, m, hours, design, seed):
        scenario = Scenario(mobility=default_mobility(k),
                            costs=CostParams(lam=lam, U=20.0, V=1.0, m=m),
                            strategy=strategy, duration_hr=hours, seed=seed,
                            design=design)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = scalar_episode(scenario)
            assert run_episode(scenario) == expected

    def test_lattice_distance_design_runs(self):
        # a design whose LA built afresh would change shape from anchor to
        # anchor still pages with certainty under the template
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = run_episode(self._scenario(design=(0.0, 2.0 * PITCH),
                                           duration_hr=40.0))
        assert m.paging_failures == 0 and m.calls > 0

    def test_work_bound(self):
        hours = 1.01 * MAX_EPISODE_STEPS * default_mobility(20.0).mean_time
        with pytest.raises(DomainError):
            self._scenario(duration_hr=hours)
        self._scenario(duration_hr=hours / 1.02)
