"""Cost assembly, paging partition, and the joint optimization."""

import itertools
import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from lamopt import costs, pde
from lamopt.approx import galerkin_interval, galerkin_solution, optimal_offset
from lamopt.cli import K_GRID
from lamopt.config import default_mobility
from lamopt.costs import (
    MAX_PAGING_ROUNDS,
    PROVIDERS,
    CostParams,
    OptimizationResult,
    PagingPlan,
    asymptotic_optimum,
    build_paging_plan,
    joint_optimize,
    optimize_pair,
    paging_breakdown_at,
    paging_cost,
    region_areas,
    saving_ratio,
    update_cost,
    wedge_indices,
)
from lamopt.errors import DomainError, RegimeWarning
from lamopt.hexgrid import HexGrid
from lamopt.mobility import DiffusionParams, compute_diffusion, global_drift
from lamopt.pde import (DiscGrid, ScalarField, segment_argmax, segment_interval,
                        solve_mean_interval)
from lamopt.protocol import Scenario, construct_la, run_episode

COSTS = CostParams(lam=2.0, U=20.0, V=1.0)


class TestCostParams:
    def test_round_bound_accepted_and_usable(self):
        params = CostParams(lam=2.0, U=20.0, V=1.0, m=MAX_PAGING_ROUNDS)
        plan = build_paging_plan(params.m, 0.5, anchor_x=-0.3)
        assert region_areas(plan, 1.0).size == MAX_PAGING_ROUNDS

    @pytest.mark.parametrize("m", [0, MAX_PAGING_ROUNDS + 1])
    def test_round_count_out_of_range_rejected(self, m):
        # m is checked as an integer >= 1 first, then against the bound
        with pytest.raises(DomainError, match="paging rounds" if m > 1 else "integer >= 1"):
            CostParams(lam=2.0, U=20.0, V=1.0, m=m)

    @pytest.mark.parametrize("m, ok", [(2.5, False), (3.0, False), (np.int64(3), True),
                                       (True, False), (None, False), ("3", False)])
    def test_round_count_must_be_an_integer(self, m, ok):
        # a fractional m used to fail in paging_breakdown_at, on the tuple
        # repetition of build_paging_plan; None and "3" failed the range test
        # with a TypeError, and True ran as one round
        if ok:
            assert CostParams(lam=2.0, U=20.0, V=1.0, m=m).m == 3
        else:
            with pytest.raises(DomainError, match="m must be an integer"):
                CostParams(lam=2.0, U=20.0, V=1.0, m=m)


class TestUpdateCost:
    def test_unit(self):
        assert update_cost(20.0, 20.0) == 1.0

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(DomainError):
            update_cost(0.0, 20.0)

    @pytest.mark.parametrize("t_mean", [math.nan, math.inf])
    def test_rejects_non_finite_interval(self, t_mean):
        # a NaN interval used to give a NaN cost, an infinite one a cost of 0
        with pytest.raises(DomainError, match="mean interval"):
            update_cost(t_mean, 20.0)


class TestPagingPlan:
    def test_specific_assignment(self):
        plan = build_paging_plan(4, 0.5)
        rest = (math.pi - 0.5) / 3
        assert plan.angles == pytest.approx((0.5, rest, rest, rest))

    def test_wide_spread_clamps_to_half_turn(self):
        # uniform directions have angle variance pi^2/3 > pi
        plan = build_paging_plan(3, math.pi**2 / 3)
        assert plan.angles == pytest.approx((math.pi, 0.0, 0.0))

    def test_single_round_ignores_spread(self):
        assert build_paging_plan(1, 2.7).angles == (math.pi,)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=12),
           st.floats(min_value=0.0, max_value=12.0))
    def test_angles_always_telescope(self, m, var_theta):
        plan = build_paging_plan(m, var_theta)
        assert sum(plan.angles) == pytest.approx(math.pi, abs=1e-12)
        assert all(a >= 0.0 for a in plan.angles)

    def test_point_on_a_wedge_ray_goes_to_the_lower_region(self):
        # arctan2(1, 1) == pi / 4 exactly: the first two points lie on the
        # ray between the two wedges, the third on the far axis
        plan = build_paging_plan(2, math.pi / 4)
        assert plan.cumulative[1] == math.atan2(1.0, 1.0)
        idx = wedge_indices(plan, [1.0, 1.0, -1.0], [1.0, -1.0, 0.0])
        np.testing.assert_array_equal(idx, [0, 0, 1])

    def test_validation(self):
        # a fractional m used to fail on the tuple repetition, None and "3"
        # on the range test, both with a TypeError
        for m in (0, 2.5, "3", None):
            with pytest.raises(DomainError, match="m must be an integer >= 1"):
                build_paging_plan(m, 1.0)
        with pytest.raises(DomainError):
            build_paging_plan(2, -0.1)

    @pytest.mark.parametrize("var_theta", [math.nan, math.inf])
    def test_rejects_non_finite_spread(self, var_theta):
        # a NaN spread used to give a second wedge of width 0
        with pytest.raises(DomainError, match="var_theta"):
            build_paging_plan(2, var_theta)


def _quadrature_areas(plan, R: float) -> np.ndarray:
    """Wedge areas by adaptive quadrature of ``rho(phi)^2`` over each wedge.

    ``rho`` is the distance from the anchor to the circle along ``phi``; each
    mirrored pair of half-wedges contributes ``rho^2 / 2`` twice.
    """
    x0 = plan.anchor_x

    def rho2(phi):
        s = math.sin(phi)
        rho = -x0 * math.cos(phi) + math.sqrt(R * R - x0 * x0 * s * s)
        return rho * rho

    cum = plan.cumulative
    return np.array([quad(rho2, cum[i], cum[i + 1], limit=200,
                          epsabs=0.0, epsrel=1e-13)[0]
                     for i in range(len(plan.angles))])


class TestRegionGeometry:
    def test_swept_areas_vs_quadrature_oracle(self):
        grid = itertools.product((2, 3, 4, 7), (0.0, 0.3, 1.0, 2.5, math.pi**2 / 3),
                                 (0.999, -0.999, -0.9, -0.5, 0.0, 0.3, 0.9),
                                 (0.05, 1.0, 42.0))
        for m, var_theta, x_rel, R in grid:
            plan = build_paging_plan(m, var_theta, anchor_x=x_rel * R)
            np.testing.assert_allclose(region_areas(plan, R),
                                       _quadrature_areas(plan, R),
                                       rtol=0.0, atol=1e-13 * math.pi * R * R)

    def test_last_ray_one_ulp_past_pi(self):
        # a last cumulative angle one ulp past pi must still close the disc;
        # atan2 of the slightly negative height there would give -pi
        plan = PagingPlan(angles=(1.0, math.nextafter(math.pi - 1.0, 4.0)),
                          anchor_x=0.3)
        assert plan.cumulative[-1] > math.pi
        areas = region_areas(plan, 1.0)
        assert areas.sum() == pytest.approx(math.pi, rel=1e-15)

    def test_areas_tile_disc(self):
        for anchor in (0.0, -0.5, 0.4):
            plan = build_paging_plan(4, 0.8, anchor_x=anchor)
            areas = region_areas(plan, 1.0)
            assert areas.sum() == pytest.approx(math.pi, rel=1e-9)
            assert np.all(areas > 0.0)

    def test_centered_single_wedge_pair(self):
        # centered anchor: areas proportional to angles
        plan = build_paging_plan(2, 1.0, anchor_x=0.0)
        areas = region_areas(plan, 1.0)
        assert areas[0] == pytest.approx(1.0, rel=1e-9)  # angle/pi * pi R^2
        assert areas[1] == pytest.approx(math.pi - 1.0, rel=1e-9)

    def test_anchor_outside_rejected(self):
        plan = build_paging_plan(2, 1.0, anchor_x=1.5)
        with pytest.raises(DomainError, match="anchor must lie inside the disc"):
            region_areas(plan, 1.0)

    def test_wedge_classification(self):
        plan = build_paging_plan(3, 1.0, anchor_x=-0.2)
        idx = wedge_indices(plan, [0.5, -0.2, -0.9], [0.0, 0.7, 0.01])
        assert idx[0] == 0      # straight ahead
        assert idx[1] == 1      # overhead of the anchor: angle pi/2
        assert idx[2] == 2      # almost straight behind


@pytest.fixture(scope="module")
def uniform_density():
    grid = DiscGrid(1.0, 1.0 / 64)
    return ScalarField(grid, np.full(grid.n_nodes, 1.0 / math.pi))


class TestPagingCost:
    def test_single_round_whole_disc(self):
        mob = default_mobility(0.5)
        paper, cumulative = (paging_breakdown_at(mob, COSTS, x=-0.2, R=1.0,
                                                 mode=mode, grid_nodes=16)
                             for mode in ("paper", "cumulative"))
        assert paper.C_p == pytest.approx(2.0 * math.pi)
        assert paper.P_i == (1.0,)
        assert paper.A_i == (pytest.approx(math.pi),)
        assert cumulative == paper

    def test_uniform_density_identity(self, uniform_density):
        # with uniform mass the staged cost is lam V sum A_i^2 / (pi R^2),
        # always at most the whole-disc cost
        plan = build_paging_plan(4, 0.8)
        c_p, p_i, a_i = paging_cost(plan, uniform_density, 2.0, 1.0, "paper")
        ident = 2.0 * sum(a * a for a in a_i) / math.pi
        assert c_p == pytest.approx(ident, rel=2e-3)
        assert c_p <= 2.0 * math.pi

    def test_cumulative_at_least_paper_mode(self, uniform_density):
        plan = build_paging_plan(4, 0.8)
        c_paper, _, _ = paging_cost(plan, uniform_density, 2.0, 1.0, "paper")
        c_cum, _, _ = paging_cost(plan, uniform_density, 2.0, 1.0, "cumulative")
        assert c_cum >= c_paper  # cumulative polling re-pages earlier wedges

    def test_masses_do_not_exceed_survival(self):
        mob = default_mobility(0.5)
        breakdown = paging_breakdown_at(mob, CostParams(lam=2.0, U=20.0, V=1.0, m=3),
                                        x=-0.2, R=1.0, grid_nodes=48)
        assert sum(breakdown.P_i) <= 1.0 + 1e-9

    def test_mode_validation(self):
        with pytest.raises(DomainError, match="sideways"):
            paging_breakdown_at(default_mobility(0.5),
                                CostParams(lam=2.0, U=20.0, V=1.0, m=2),
                                x=0.0, R=1.0, mode="sideways")

    def test_single_round_checks_mode(self):
        # the mode is checked at entry, before the single-round rule returns
        with pytest.raises(DomainError, match="sideways"):
            paging_breakdown_at(default_mobility(0.5), COSTS, x=0.0, R=1.0,
                                mode="sideways")


class TestJointOptimize:
    def test_asymptotic_weak_default(self):
        r = joint_optimize(default_mobility(0.0), COSTS, "asymptotic")
        assert r.r_opt == pytest.approx(1.0346, rel=1e-3)

    def test_asymptotic_strong_default(self):
        r = joint_optimize(default_mobility(1e6), COSTS, "asymptotic")
        assert r.r_opt == pytest.approx(1.9276, rel=1e-3)
        assert r.x_opt < -0.9 * r.r_opt

    def test_offset_never_beats_center(self):
        for provider in ("galerkin", "asymptotic"):
            for k in (0.1, 2.0, 1e6):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    opt = joint_optimize(default_mobility(k), COSTS, provider)
                    ctr = joint_optimize(default_mobility(k), COSTS, provider,
                                         baseline="center")
                assert opt.c_min <= ctr.c_min * (1 + 1e-9)

    def test_perturbing_radius_increases_cost(self):
        mob = default_mobility(0.5)

        def cost_at(R, centered):
            sol = galerkin_interval(mob, R, COSTS.lam)
            x = 0.0 if centered else optimal_offset(sol.a, R)
            t = float(sol.interval(x, 0.0))
            return COSTS.U / t + COSTS.lam * math.pi * R * R * COSTS.V

        for baseline, centered in (("offset", False), ("center", True)):
            opt = joint_optimize(mob, COSTS, "galerkin", baseline=baseline)
            assert cost_at(opt.r_opt * 1.05, centered) > opt.c_min
            assert cost_at(opt.r_opt * 0.95, centered) > opt.c_min

    def test_pde_provider_runs(self):
        r = joint_optimize(default_mobility(0.5), COSTS, "pde", pde_nodes=32)
        assert 0.3 < r.r_opt < 4.0
        assert r.x_opt < 0.0
        assert r.c_min > 0.0

    def test_coarse_scan_picks_the_lower_basin(self):
        # On the N = 32 grid the pde offset cost at k = 10, lam = 20 has two
        # basins, near R = 0.64 and 0.75 km, inside one scan interval; golden
        # section over the whole bracket lands in the higher one.
        mob = default_mobility(10.0)
        diff = compute_diffusion(mob)
        cost = CostParams(lam=20.0, U=COSTS.U, V=COSTS.V)

        def cost_at(R):
            field = solve_mean_interval(diff, R, cost.lam, DiscGrid(R, R / 32))
            t = field.value_at((field.axis_argmax(), 0.0))
            return cost.U / t + cost.lam * math.pi * R * R * cost.V

        v = [cost_at(R) for R in np.linspace(0.55, 0.85, 51)]
        minima = [i for i in range(1, len(v) - 1) if v[i] < min(v[i - 1], v[i + 1])]
        assert len(minima) == 2
        r = joint_optimize(mob, cost, "pde", pde_nodes=32)
        assert r.c_min <= min(v)

    def test_validation(self):
        with pytest.raises(DomainError):
            joint_optimize(default_mobility(0.5), COSTS, "magic")
        with pytest.raises(DomainError):
            joint_optimize(default_mobility(0.5),
                           CostParams(lam=0.0, U=20.0, V=1.0), "galerkin")

    @pytest.mark.parametrize("nodes", [0, 1, 2.5, -4, True])
    @pytest.mark.parametrize("search", [
        lambda mob, n: joint_optimize(mob, COSTS, "pde", pde_nodes=n),
        lambda mob, n: optimize_pair(mob, COSTS, "pde", pde_nodes=n),
        lambda mob, n: saving_ratio(mob, COSTS, "pde", pde_nodes=n),
    ], ids=["joint_optimize", "optimize_pair", "saving_ratio"])
    def test_node_count_checked_at_entry(self, search, nodes):
        # 0 raised a raw ZeroDivisionError; the others failed deep inside
        # the scan, with spacing or radius messages
        with pytest.raises(DomainError, match="pde_nodes must be an integer >= 2"):
            search(default_mobility(0.5), nodes)

    @pytest.mark.parametrize("baseline", ["offset", "center"])
    @pytest.mark.parametrize("cost, bound", [
        (CostParams(lam=1e-9, U=20.0, V=1.0), "99.99"),   # R wants to grow
        (CostParams(lam=2.0, U=1e-12, V=1.0), "0.0100"),  # R wants to shrink
    ])
    def test_optimum_on_search_bound_rejected(self, baseline, cost, bound):
        with pytest.raises(DomainError, match=rf"{baseline} optimum R = {bound}.* "
                                              r"sits on the search bracket \[0.01, 100\]"):
            joint_optimize(default_mobility(0.5), cost, "galerkin", baseline=baseline)

    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_unknown_baseline_rejected(self, provider):
        # checked before any search, so no provider labels a center design
        # with a misspelled baseline
        with pytest.raises(DomainError, match="baseline"):
            joint_optimize(default_mobility(0.5), COSTS, provider,
                           baseline="centre")


class TestAsymptoticOptimum:
    def test_weak_default_scenario(self):
        mob = default_mobility(0.0)
        opt = asymptotic_optimum(compute_diffusion(mob), COSTS, "offset")
        assert 1.00 <= opt.r_opt <= 1.07
        assert 1300 <= opt.t_opt / mob.mean_time <= 1380
        assert opt.x_opt == 0.0

    def test_weak_balances_costs(self):
        # at the fourth-root optimum the update and paging costs are equal
        diff = compute_diffusion(default_mobility(0.0))
        opt = asymptotic_optimum(diff, COSTS, "offset")
        c_u = COSTS.U / opt.t_opt
        c_p = COSTS.lam * math.pi * opt.r_opt**2 * COSTS.V
        assert c_u == pytest.approx(c_p, rel=1e-9)
        assert c_u == pytest.approx(
            math.sqrt(diff.sigma_trace * COSTS.lam * COSTS.U * COSTS.V * math.pi),
            rel=1e-9)

    def test_strong_radius_vs_scalar_minimizer(self):
        # independent bracketed minimization of U mu/(2R) + lam pi R^2 V
        diff = compute_diffusion(default_mobility(1e6))
        opt = asymptotic_optimum(diff, COSTS, "offset")
        res = minimize_scalar(
            lambda r: COSTS.U * diff.mu1 / (2 * r) + COSTS.lam * math.pi * r * r * COSTS.V,
            bounds=(0.1, 10.0), method="bounded", options={"xatol": 1e-10})
        assert opt.r_opt == pytest.approx(res.x, rel=1e-6)
        assert opt.r_opt == pytest.approx(1.9276, rel=1e-4)
        assert opt.c_min == pytest.approx(res.fun, rel=1e-9)

    def test_center_ratios_exact(self):
        diff = compute_diffusion(default_mobility(1e6))
        o = asymptotic_optimum(diff, COSTS, "offset")
        c = asymptotic_optimum(diff, COSTS, "center")
        assert c.r_opt / o.r_opt == pytest.approx(2.0 ** (1 / 3), abs=1e-6)
        assert c.c_min / o.c_min == pytest.approx(4.0 ** (1 / 3), abs=1e-6)
        assert 1.0 - o.c_min / c.c_min == pytest.approx(0.370, abs=1e-3)

    def test_strong_offset_near_trailing_boundary(self):
        diff = compute_diffusion(default_mobility(1e6))
        opt = asymptotic_optimum(diff, COSTS, "offset")
        assert -opt.r_opt < opt.x_opt < -0.9 * opt.r_opt

    def test_validation(self):
        diff = compute_diffusion(default_mobility(1.0))
        with pytest.raises(DomainError, match="baseline"):
            asymptotic_optimum(diff, COSTS, "middle")
        with pytest.raises(DomainError, match="lam, U, V all > 0"):
            asymptotic_optimum(diff, CostParams(lam=0.0, U=20.0, V=1.0))
        with pytest.raises(DomainError, match="diffusion trace"):
            asymptotic_optimum(DiffusionParams(0.0, 0.0, 0.0), COSTS)
        assert isinstance(asymptotic_optimum(diff, COSTS), OptimizationResult)

    # The regime each (k, lam) point lands in at U = 20, V = 1, offset
    # baseline: "w" weak, "s" strong, "!" after the drift-between-regimes
    # warning; one letter per call rate in MAP_LAMS.
    MAP_LAMS = (0.02, 0.2, 2.0, 20.0)
    REGIME_MAP = {
        0.0: ("w", "w", "w", "w"),
        0.01: ("s!", "s!", "w", "w"),
        0.03: ("s!", "s!", "s!", "s!"),
        0.1: ("s", "s", "s!", "s!"),
        0.3: ("s", "s", "s", "w!"),
        1.0: ("s", "s", "s", "s"),
        20.0: ("s", "s", "s", "s"),
        1e6: ("s", "s", "s", "s"),
    }

    @pytest.mark.parametrize("k", sorted(REGIME_MAP))
    def test_regime_choice_map(self, k):
        diff = compute_diffusion(default_mobility(k))
        for lam, expected in zip(self.MAP_LAMS, self.REGIME_MAP[k]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                opt = asymptotic_optimum(diff, CostParams(lam=lam, U=20.0, V=1.0))
            if expected[0] == "w":
                r = (diff.sigma_trace * 20.0 / (lam * math.pi)) ** 0.25
                assert opt.x_opt == 0.0
            else:
                r = (20.0 * diff.mu1 / (4.0 * lam * math.pi)) ** (1.0 / 3.0)
                assert opt.x_opt < 0.0
            assert opt.r_opt == pytest.approx(r, rel=1e-12), (k, lam)
            assert [str(w.message) for w in caught] == (
                ["drift between regimes; choosing the cheaper closed form"]
                if expected.endswith("!") else []), (k, lam)

    def test_between_regimes_takes_the_cheaper_form(self):
        # at k = 0.03, lam = 0.2 neither radius is in its own regime; the
        # strong forms cost less
        diff = compute_diffusion(default_mobility(0.03))
        costs = CostParams(lam=0.2, U=20.0, V=1.0)
        with pytest.warns(RegimeWarning, match="drift between regimes"):
            opt = asymptotic_optimum(diff, costs)
        assert opt.r_opt == pytest.approx(1.10999634, abs=1e-8)
        weak_r = (diff.sigma_trace * costs.U / (costs.lam * math.pi)) ** 0.25
        weak_c = costs.U * diff.sigma_trace / weak_r**2 + costs.lam * math.pi * weak_r**2
        assert opt.c_min < weak_c


class TestOptimizePair:
    @pytest.fixture
    def solves(self, monkeypatch):
        """Count the interval solves the radius searches make."""
        count = {"n": 0}
        for name in ("solve_mean_interval", "galerkin_solution"):
            fn = getattr(costs, name)

            def counted(*args, fn=fn, **kwargs):
                count["n"] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(costs, name, counted)
        return count

    # (offset, center, pair) solves: the scan radii solved, then 21
    # golden-section steps and one final solve for each baseline.  The
    # one-term scan solves all 25 radii; the pde scan skips those above
    # every baseline's cost floor, which the drift bounds (the center's
    # floor by the origin's reach R) and the call rate cuts through
    # Jensen's inequality, and solves 2 (offset), 1 (center) and 2 (pair).
    # Both baselines refine the same scan cell here, so the pair solves
    # their first two golden-section probes once.
    SOLVES = {"galerkin": (47, 47, 67), "pde": (24, 23, 44)}

    @pytest.mark.parametrize("provider, search", [
        ("galerkin", {}), ("pde", {"pde_nodes": 16}),
    ])
    def test_one_scan_for_both_baselines(self, solves, provider, search):
        mob = default_mobility(2.0)
        *single_solves, pair_solves = self.SOLVES[provider]
        singles = []
        for baseline, n in zip(("offset", "center"), single_solves):
            solves["n"] = 0
            singles.append(joint_optimize(mob, COSTS, provider, baseline=baseline,
                                          **search))
            assert solves["n"] == n
        solves["n"] = 0
        assert optimize_pair(mob, COSTS, provider, **search) == tuple(singles)
        assert solves["n"] == pair_solves

    @pytest.mark.parametrize("k, lam, N", [(0.5, 2.0, 16), (0.5, 2.0, 64), (10.0, 20.0, 32),
                                           (20.0, 0.2, 32), (0.0, 2.0, 16)])
    def test_skipped_scan_radii_cannot_be_the_lowest(self, monkeypatch, k, lam, N):
        # defaults at N = 16 and 64, the two-basin case of
        # test_coarse_scan_picks_the_lower_basin, a strong drift whose term
        # binds the floor, and no drift at all: every scan radius the pde
        # search skips costs more than the best one it solved, for both
        # baselines, so the full scan's argmin is among the solved ones
        solved = []

        def recorded(diff, R, lam, grid, warm=None):
            if warm is None:  # the scan's solves; the golden probes pass a slot
                solved.append(R)
            return solve_mean_interval(diff, R, lam, grid, warm)

        monkeypatch.setattr(costs, "solve_mean_interval", recorded)
        mob, cost = default_mobility(k), CostParams(lam=lam, U=COSTS.U, V=COSTS.V)
        optimize_pair(mob, cost, "pde", pde_nodes=N)
        diff = compute_diffusion(mob)
        radii = np.exp(np.linspace(math.log(0.01), math.log(100.0), 25))
        full = {"offset": [], "center": []}
        for R in radii:
            field = solve_mean_interval(diff, R, lam, DiscGrid(R, R / N))
            paging = lam * math.pi * R * R * cost.V
            for baseline, x in (("offset", field.axis_argmax()), ("center", 0.0)):
                full[baseline].append(cost.U / field.value_at((x, 0.0)) + paging)
        is_solved = np.isclose(radii[:, None], solved, rtol=1e-12, atol=0.0).any(axis=1)
        assert 0 < is_solved.sum() < 25
        for v in map(np.array, full.values()):
            assert np.all(v[~is_solved] > v[is_solved].min())
            assert is_solved[np.argmin(v)]

    @pytest.mark.parametrize("k, lam, N", list(itertools.product((0.1, 2.0, 20.0),
                                                                 (0.2, 2.0), (16, 32))))
    def test_pair_is_the_two_searches_bit_for_bit(self, k, lam, N):
        # both searches continue from forks of the slot their shared first
        # probes leave; had the second search taken over the first one's
        # slot, the center's c_min and t_opt would move by round-off at
        # every k = 0.1 case
        mob, cost = default_mobility(k), CostParams(lam=lam, U=COSTS.U, V=COSTS.V)
        pair = optimize_pair(mob, cost, "pde", pde_nodes=N)
        singles = [joint_optimize(mob, cost, "pde", baseline=b, pde_nodes=N)
                   for b in ("offset", "center")]
        assert [[v.hex() for v in astuple(r)] for r in pair] == \
            [[v.hex() for v in astuple(r)] for r in singles]

    @pytest.mark.parametrize("k, N, shared", [(0.5, 64, True), (2.0, 16, True),
                                              (0.5, 16, False)])
    def test_shared_first_probes_save_their_solves_and_factors(self, monkeypatch,
                                                               k, N, shared):
        # the golden-section solves (those given a slot) and the factors
        # made in them: when both baselines refine the same scan cell, as at
        # DEFAULTS on the 64-node grid, the pair solves the two first probes
        # once, and saves the factors the center search's own first two
        # probes made; on different cells (DEFAULTS on 16 nodes) it saves
        # nothing
        factor, solve = pde._factor, costs.solve_mean_interval
        factors, calls = [0], []

        def counted_factor(A):
            factors[0] += 1
            return factor(A)

        def recorded(diff, R, lam, grid, warm=None):
            before = factors[0]
            field = solve(diff, R, lam, grid, warm)
            if warm is not None:
                calls.append(factors[0] - before)
            return field

        monkeypatch.setattr(pde, "_factor", counted_factor)
        monkeypatch.setattr(costs, "solve_mean_interval", recorded)
        mob = default_mobility(k)
        separate = []
        for baseline in ("offset", "center"):
            calls.clear()
            joint_optimize(mob, COSTS, "pde", baseline=baseline, pde_nodes=N)
            separate.append(list(calls))
        calls.clear()
        optimize_pair(mob, COSTS, "pde", pde_nodes=N)
        (offset, center), pair = separate, calls
        first_two = sum(center[:2])
        assert first_two in (1, 2)
        if (k, N) == (0.5, 64):
            assert first_two == 2
        saved_solves, saved_factors = (2, first_two) if shared else (0, 0)
        assert len(pair) == len(offset) + len(center) - saved_solves
        assert sum(pair) == sum(offset) + sum(center) - saved_factors

    def test_asymptotic_pair(self, solves):
        mob = default_mobility(2.0)
        pair = optimize_pair(mob, COSTS, "asymptotic")
        assert pair == tuple(joint_optimize(mob, COSTS, "asymptotic", baseline=b)
                             for b in ("offset", "center"))
        assert solves["n"] == 0

    def test_bumpy_cost_not_rescanned(self, solves, monkeypatch):
        # with a cost of three minima in log R, each search refines the
        # 25-point scan's lowest point: the pair still shares its one scan
        # and, both searches refining the same cell, their first two probes;
        # no other radius is solved twice
        def bumpy(solution, baseline):
            R = solution.R
            paging = COSTS.lam * math.pi * R * R * COSTS.V
            target = 1e5 * (1.1 + math.cos(3.0 * math.log(R))) + (baseline == "center")
            return COSTS.U / (target - paging), 0.0

        monkeypatch.setattr(costs, "_design", bumpy)
        mob = default_mobility(2.0)
        singles = tuple(joint_optimize(mob, COSTS, baseline=b)
                        for b in ("offset", "center"))
        separate, solves["n"] = solves["n"], 0
        pair = optimize_pair(mob, COSTS)
        assert pair == singles
        assert solves["n"] == separate - 25 - 2

    def test_galerkin_search_matches_closed_form(self):
        # One-term trial: U / T(R) = A / R^2 + B exactly, so the optimum is
        # R^4 = A / (lam V pi), with A read off two radii.
        def update_cost_at(mob, R, lam, baseline):
            sol = galerkin_interval(mob, R, lam)
            x = sol.x_opt if baseline == "offset" else 0.0
            return COSTS.U / float(sol.interval(x, 0.0))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k, lam in itertools.product(K_GRID, (0.2, 2.0)):
                mob = default_mobility(k)
                cost = CostParams(lam=lam, U=COSTS.U, V=COSTS.V)
                pair = optimize_pair(mob, cost, "galerkin")
                for r, baseline in zip(pair, ("offset", "center")):
                    u1, u2 = (update_cost_at(mob, R, lam, baseline)
                              for R in (0.5, 2.0))
                    A = (u1 - u2) / (0.5**-2 - 2.0**-2)
                    r_closed = (A / (lam * COSTS.V * math.pi)) ** 0.25
                    assert r.r_opt == pytest.approx(r_closed, rel=5e-5), (k, lam)


class TestSavingRatio:
    def test_vanishes_without_drift(self):
        s = saving_ratio(default_mobility(1e-4), COSTS, "galerkin")
        assert abs(s) < 1e-3

    def test_asymptotic_strong_limit(self):
        s = saving_ratio(default_mobility(1e6),
                         CostParams(lam=0.01, U=20.0, V=1.0), "asymptotic")
        assert s == pytest.approx(1.0 - 4.0 ** (-1 / 3), abs=1e-3)

    def test_bounded_and_reaches_moderate_levels(self):
        vals = {}
        for k in (0.1, 2.0, 20.0, 100.0):
            vals[k] = saving_ratio(default_mobility(k), COSTS, "galerkin")
        assert all(-1e-9 <= v <= 0.37 + 0.01 for v in vals.values())
        assert max(vals.values()) >= 0.25
        # the 37% ceiling also holds at low call rates, for both providers
        low = CostParams(lam=0.2, U=20.0, V=1.0)
        for k in (2.0, 20.0, 1e6):
            for provider in ("galerkin", "asymptotic"):
                s = saving_ratio(default_mobility(k), low, provider)
                assert -1e-9 <= s <= 0.37 + 0.01

    def test_update_cost_grows_with_call_rate(self):
        mob = default_mobility(0.5)
        c_us = []
        for lam in (0.2, 1.0, 3.0):
            opt = joint_optimize(mob, CostParams(lam=lam, U=20.0, V=1.0),
                                 "galerkin")
            c_us.append(COSTS.U / opt.t_opt)
        assert c_us[0] < c_us[1] < c_us[2]


class TestCostBreakdown:
    def test_assembly(self):
        mob = default_mobility(0.5)
        cost = CostParams(lam=1.0, U=10.0, V=2.0, m=2)
        b = paging_breakdown_at(mob, cost, x=-0.2, R=1.0, grid_nodes=16)
        T = solve_mean_interval(compute_diffusion(mob), 1.0, 1.0,
                                DiscGrid(1.0, 1.0 / 16)).value_at((-0.2, 0.0))
        assert b.C_u == cost.U / T
        assert len(b.P_i) == len(b.A_i) == 2

    @pytest.mark.parametrize("nodes", [0, 1, 2.5, -4, True])
    def test_node_count_checked_at_entry(self, nodes):
        # 0 raised a raw ZeroDivisionError
        with pytest.raises(DomainError, match="grid_nodes must be an integer >= 2"):
            paging_breakdown_at(default_mobility(0.5), COSTS, x=-0.2, R=1.0,
                                grid_nodes=nodes)


NAN = math.nan
UNIT = DiffusionParams(1.0, 1.0, 1.0)


@pytest.mark.parametrize("fn, args", [
    pytest.param(HexGrid().cells_within, ((0.0, 0.0), NAN), id="cells_within-radius"),
    pytest.param(HexGrid().cells_within, ((NAN, 0.0), 2.0), id="cells_within-center"),
    pytest.param(HexGrid().cells_within, ((0.0, 0.0), math.inf), id="cells_within-radius-inf"),
    pytest.param(construct_la, ((0.0, 0.0), NAN, 4.0, HexGrid()), id="construct_la-x_opt"),
    pytest.param(construct_la, ((NAN, 0.0), -1.0, 4.0, HexGrid()), id="construct_la-anchor"),
    pytest.param(lambda d: run_episode(Scenario(default_mobility(0.5), COSTS, design=d)),
                 ((NAN, 4.0),), id="run_episode-design"),
    pytest.param(CostParams, (NAN, 20.0, 1.0), id="CostParams-lam"),
    pytest.param(CostParams, (2.0, math.inf, 1.0), id="CostParams-U-inf"),
    pytest.param(CostParams, (2.0, 20.0, NAN), id="CostParams-V"),
    pytest.param(galerkin_solution, (UNIT, NAN, 1.0, 2.0), id="galerkin-R"),
    pytest.param(galerkin_solution, (UNIT, 1.0, NAN, 2.0), id="galerkin-lam"),
    pytest.param(galerkin_solution, (UNIT, 1.0, 1.0, NAN), id="galerkin-a"),
    pytest.param(galerkin_solution, (UNIT, 1.0, 1.0, math.inf), id="galerkin-a-inf"),
    pytest.param(optimal_offset, (NAN, 1.0), id="optimal_offset-a"),
    pytest.param(segment_argmax, (1.0, 1.0, NAN), id="segment_argmax-L"),
    pytest.param(segment_argmax, (0.0, 1.0, math.inf), id="segment_argmax-L-inf"),
    pytest.param(segment_interval, (0.0, 1.0, math.inf, 0.5), id="segment_interval-L-inf"),
    pytest.param(segment_interval, (1.0, 1.0, NAN, 0.5), id="segment_interval-L"),
    pytest.param(segment_interval, (1.0, NAN, 1.0, 0.5), id="segment_interval-sigma"),
    pytest.param(segment_interval, (NAN, 1.0, 1.0, 0.5), id="segment_interval-mu"),
    pytest.param(segment_interval, (1.0, 1.0, 1.0, NAN), id="segment_interval-x"),
    pytest.param(segment_argmax, (1.0, NAN, 1.0), id="segment_argmax-sigma"),
    pytest.param(segment_argmax, (NAN, 1.0, 1.0), id="segment_argmax-mu"),
    pytest.param(global_drift, (UNIT, NAN), id="global_drift-radius"),
    pytest.param(region_areas, (PagingPlan(angles=(math.pi,), anchor_x=NAN), 1.0),
                 id="region_areas-anchor"),
])
def test_nan_argument_refused(fn, args):
    # each check used to be a `<=`-style comparison that a NaN passes: the
    # call returned NaN, or failed later converting NaN to an integer, or
    # raised NumericalError from the wedge-area sum
    with pytest.raises(DomainError):
        fn(*args)
