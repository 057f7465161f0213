"""Hex lattice, LA construction, update exchange, paging, episodes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamopt.config import default_mobility
from lamopt.costs import CostParams
from lamopt.errors import ConsistencyViolationError, DomainError, GeometryError
from lamopt.hexgrid import HexGrid
from lamopt.mobility import compute_diffusion
from lamopt.protocol import (
    EpisodeMetrics,
    Scenario,
    construct_la,
    episode_design,
    network_update,
    page,
    run_episode,
)

GRID = HexGrid()


class TestHexGrid:
    def test_cell_area_sets_size(self):
        # unit-area pointy-top hexagon: circumradius ~ 0.6204 km
        assert GRID.size == pytest.approx(0.620403239, rel=1e-8)
        assert GRID.pitch == pytest.approx(math.sqrt(3) * GRID.size)

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
            assert math.hypot(nx - cx, ny - cy) == pytest.approx(GRID.pitch)

    def test_cells_within_counts_area(self):
        for radius in (3.0, 5.0, 8.0):
            cells = GRID.cells_within((0.3, -0.7), radius)
            assert len(cells) == pytest.approx(math.pi * radius**2, rel=0.1)
            for c in cells:
                x, y = GRID.center(c)
                assert math.hypot(x - 0.3, y + 0.7) <= radius

    def test_center_cell_of_inverse(self):
        for cell in [(0, 0), (5, -3), (-7, 2)]:
            assert GRID.cell_of(*GRID.center(cell)) == cell


class TestConstructLa:
    def test_zero_offset_center_is_anchor(self):
        la = construct_la((1.0, 2.0), 0.0, 4.0, GRID)
        assert la.center == (1.0, 2.0)

    def test_offset_shifts_center_forward(self):
        la = construct_la((0.0, 0.0), -3.0, 4.0, GRID)
        assert la.center == (3.0, 0.0)
        # the anchor sits near the trailing rim: one radius behind center
        assert math.hypot(la.initial_position[0] - la.center[0],
                          la.initial_position[1] - la.center[1]) == pytest.approx(3.0)

    def test_interior_count_tracks_area(self):
        la = construct_la((0.0, 0.0), 0.0, 5.0, GRID)
        assert len(la.interior_cells) == pytest.approx(math.pi * 25.0, rel=0.1)

    def test_cell_lists_consistent(self):
        la = construct_la((0.5, -0.5), -2.0, 5.0, GRID, m=3,
                          var_theta=0.7)
        assert not (la.boundary_cells & la.interior_cells)
        # every interior-adjacent outside cell is in the boundary ring
        for c in la.interior_cells:
            for n in GRID.neighbors(c):
                if n not in la.interior_cells:
                    assert n in la.boundary_cells
        # boundary cells all exceed the threshold distance
        for b in la.boundary_cells:
            x, y = GRID.center(b)
            assert math.hypot(x - la.center[0], y - la.center[1]) > la.radius
        # sub-areas partition the interior
        merged = [c for sub in la.sub_area_cells for c in sub]
        assert sorted(merged) == sorted(la.interior_cells)
        # the anchor's own cell pages first
        assert GRID.cell_of(*la.initial_position) in la.sub_area_cells[0]

    def test_degenerate_radius_rejected(self):
        with pytest.raises(GeometryError):
            construct_la((0.0, 0.0), 0.0, 1.0, GRID)

    def test_consecutive_las_overlap_at_moderate_offset(self):
        # a fresh LA anchored on a boundary cell of the previous one shares
        # interior cells with it when the offset is moderate
        la1 = construct_la((0.0, 0.0), -1.5, 5.0, GRID)
        ahead = max(la1.boundary_cells, key=lambda c: GRID.center(c)[0])
        la2 = construct_la(GRID.center(ahead), -1.5, 5.0, GRID)
        assert la1.interior_cells & la2.interior_cells


def _scenario(k: float, lam: float, **kw) -> Scenario:
    return Scenario(mobility=default_mobility(k),
                    costs=CostParams(lam=lam, U=20.0, V=1.0), **kw)


class TestUpdateExchange:
    def test_interior_entry_is_noop(self):
        # the terminal watches exactly the boundary ring, so no interior
        # cell (the anchor's own cell included) triggers an update
        sc = _scenario(0.5, 2.0, design=(-1.0, 4.0))
        anchor = GRID.cell_of(0.0, 0.0)
        la = network_update(anchor, episode_design(sc), sc, GRID)
        assert anchor in la.interior_cells
        assert not (la.interior_cells & la.boundary_cells)

    def test_boundary_entry_triggers(self):
        # an update triggered in a boundary cell anchors the new LA on that
        # cell's center, and the cell pages in the first round
        sc = _scenario(0.5, 2.0, design=(-1.0, 4.0))
        design = episode_design(sc)
        la = network_update(GRID.cell_of(0.0, 0.0), design, sc, GRID)
        target = max(la.boundary_cells, key=lambda c: GRID.center(c)[0])
        la2 = network_update(target, design, sc, GRID)
        assert la2.initial_position == GRID.center(target)
        assert la2.center == pytest.approx(
            (GRID.center(target)[0] + 1.0, GRID.center(target)[1]))
        assert target in la2.sub_area_cells[0]
        assert target not in la2.boundary_cells
        assert page(la2, target).rounds == 1

    def test_network_update_deterministic(self):
        sc = _scenario(20.0, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            design = episode_design(sc)
        a = network_update((0, 0), design, sc, GRID)
        b = network_update((0, 0), design, sc, GRID)
        assert a == b
        # strong drift: the anchor ends up near the trailing rim
        d = math.hypot(a.initial_position[0] - a.center[0],
                       a.initial_position[1] - a.center[1])
        assert d > 0.9 * a.radius
        # the watch list is exactly the ring around the interior
        ring = {n for c in a.interior_cells for n in GRID.neighbors(c)
                if n not in a.interior_cells}
        assert a.boundary_cells == ring

    def test_weak_drift_center_near_anchor(self):
        # large region (small rate) so the construction is not degenerate
        sc = _scenario(1e-4, 0.05)
        cell = GRID.cell_of(2.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            la = network_update(cell, episode_design(sc), sc, GRID)
        ax, ay = GRID.center(cell)
        assert la.initial_position == (ax, ay)
        assert math.hypot(la.center[0] - ax, la.center[1] - ay) < 0.01 * la.radius


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
        assert res.cells_paged == len(la.interior_cells)

    def test_single_round_pages_whole_region(self):
        la = construct_la((0.0, 0.0), 0.0, 4.0, GRID, m=1)
        res = page(la, next(iter(la.interior_cells)))
        assert res.cells_paged == len(la.interior_cells)

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
            self._scenario().costs.U / m.mean_update_interval)
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
        assert m.mean_update_interval == pytest.approx(expected, rel=0.08)
        assert m.mean_update_interval > expected  # bias is one-sided

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
