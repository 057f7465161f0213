"""Finite-difference engine: exact cases, identities, cross-oracles."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from lamopt import costs, pde
from lamopt.config import default_mobility
from lamopt.ctrw import SimConfig
from lamopt.errors import DomainError
from lamopt.mobility import DiffusionParams, compute_diffusion
from lamopt.pde import (
    DiscGrid,
    FactorSlot,
    TimeGrid,
    _factor,
    _half_system,
    assemble_operator,
    segment_argmax,
    segment_interval,
    solve_forward,
    solve_mean_interval,
    solve_survival,
)

UNIT = DiffusionParams(0.0, 1.0, 1.0)


def full_system_solve(diff, grid, lam):
    """Oracle for the half-disc solve: one LU of the whole-disc operator."""
    A = assemble_operator(diff, grid, lam)
    return spla.spsolve(A.tocsc(), np.full(grid.n_nodes, -1.0))


def scratch_assemble(diff, grid, lam):
    """Oracle for the lattice pattern: the operator assembled from scratch,
    neighbours looked up from the node coordinates, duplicates summed by the
    COO-to-CSR conversion."""
    n = int(np.max(np.abs(grid.i)))
    index2d = np.full((2 * n + 3, 2 * n + 3), -1, dtype=np.int64)
    index2d[grid.i + n + 1, grid.j + n + 1] = np.arange(grid.n_nodes)
    west, east, south, north = (index2d[grid.i + n + 1 + di, grid.j + n + 1 + dj]
                                for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)))
    diag = np.full(grid.n_nodes, -float(lam))
    rows, cols, data = [], [], []

    def second_difference(h_neg, h_pos, s_coef):
        return (2.0 * s_coef / (h_neg * (h_neg + h_pos)),
                -2.0 * s_coef / (h_neg * h_pos),
                2.0 * s_coef / (h_pos * (h_neg + h_pos)))

    def couple(neg_idx, pos_idx, c_neg, c_pos):
        for nbr, coef in ((pos_idx, c_pos), (neg_idx, c_neg)):
            ok = nbr >= 0
            rows.append(np.nonzero(ok)[0])
            cols.append(nbr[ok])
            data.append(coef[ok])

    h_neg, h_pos, s_coef, mu = grid.hw, grid.he, diff.sigma11 / 2.0, diff.mu1
    c_neg, c_diag, c_pos = second_difference(h_neg, h_pos, s_coef)
    diag += c_diag
    central = abs(mu) * np.maximum(h_neg, h_pos) / s_coef <= 2.0
    d_pos = np.where(central, mu * h_neg / (h_pos * (h_neg + h_pos)), 0.0)
    d_neg = np.where(central, -mu * h_pos / (h_neg * (h_neg + h_pos)), 0.0)
    d_diag = np.where(central, mu * (h_pos - h_neg) / (h_neg * h_pos), 0.0)
    if mu > 0.0:
        d_pos = np.where(central, d_pos, mu / h_pos)
        d_diag = np.where(central, d_diag, -mu / h_pos)
    elif mu < 0.0:
        d_neg = np.where(central, d_neg, -mu / h_neg)
        d_diag = np.where(central, d_diag, mu / h_neg)
    diag += d_diag
    couple(west, east, c_neg + d_neg, c_pos + d_pos)
    c_neg, c_diag, c_pos = second_difference(grid.hs, grid.hn, diff.sigma22 / 2.0)
    diag += c_diag
    couple(south, north, c_neg, c_pos)
    all_rows = np.concatenate(rows + [np.arange(grid.n_nodes)])
    all_cols = np.concatenate(cols + [np.arange(grid.n_nodes)])
    all_data = np.concatenate(data + [diag])
    shape = (grid.n_nodes, grid.n_nodes)
    return sp.coo_matrix((all_data, (all_rows, all_cols)), shape=shape).tocsr()


def scratch_half(A, grid):
    """Oracle for the stored half pattern: the j >= 0 rows of A with each
    j < 0 column added onto its mirror node's, in node order."""
    upper = grid.j >= 0
    upper_node = np.where(upper, np.arange(grid.n_nodes), grid.mirror)
    fold = (np.cumsum(upper) - 1)[upper_node]
    A_up = A[upper]
    half = sp.csr_matrix((A_up.data, fold[A_up.indices], A_up.indptr),
                         shape=(A_up.shape[0],) * 2)
    half.sum_duplicates()
    return half, fold


def scratch_solve(diff, grid, lam):
    """Oracle for the mean-interval solve: a fresh minimum-degree factor of
    the half system from scratch."""
    half, fold = scratch_half(scratch_assemble(diff, grid, lam), grid)
    return _factor(half).solve(np.full(half.shape[0], -1.0))[fold]


class TestLatticePath:
    @pytest.mark.parametrize("N", [16, 48, 64])
    @pytest.mark.parametrize("k", [0.0, 0.5, 20.0])
    def test_matches_scratch_assembly_and_factor(self, k, N):
        # the stored pattern gives the same operator to the bit; the reused
        # order moves T only in the last digits
        diff = compute_diffusion(default_mobility(k))
        for R in np.logspace(-2, 2, 25):
            grid = DiscGrid(R, R / N)
            for lam in (0.0, 0.2, 2.0):
                A, ref = assemble_operator(diff, grid, lam), scratch_assemble(diff, grid, lam)
                for part in ("indptr", "indices", "data"):
                    np.testing.assert_array_equal(getattr(A, part), getattr(ref, part))
                T = solve_mean_interval(diff, R, lam, grid).values
                T_ref = scratch_solve(diff, grid, lam)
                assert np.max(np.abs(T - T_ref)) <= 1e-12 * np.max(np.abs(T_ref))

    def test_matches_scratch_on_a_fine_lattice(self):
        # 102k half-system nodes: the pattern's (column, row) keys pass 2^31
        diff = compute_diffusion(default_mobility(0.5))
        grid = DiscGrid(1.0, 1.0 / 256)
        T = solve_mean_interval(diff, 1.0, 0.2, grid).values
        T_ref = scratch_solve(diff, grid, 0.2)
        assert np.max(np.abs(T - T_ref)) <= 1e-12 * np.max(np.abs(T_ref))

    @pytest.mark.parametrize("N", [16, 48, 64])
    def test_reused_order_keeps_fill(self, N):
        for R in (0.05, 1.0, 20.0):
            for k, lam in ((0.0, 0.0), (0.5, 0.2), (20.0, 2.0)):
                diff = compute_diffusion(default_mobility(k))
                grid = DiscGrid(R, R / N)
                A = assemble_operator(diff, grid, lam)
                reused = _factor(_half_system(A, grid)[0], "NATURAL")
                fresh = _factor(scratch_half(A, grid)[0])
                assert reused.L.nnz + reused.U.nnz == fresh.L.nnz + fresh.U.nnz

    def test_reused_order_fill_at_a_pivot_near_tie(self):
        # threshold pivoting leaves the diagonal on near-ties here, and the
        # last-digit differences of the reused order flip a few of them:
        # 8842 against 8848 entries
        diff = compute_diffusion(default_mobility(20.0))
        R = 10**-0.5
        grid = DiscGrid(R, R / 16)
        A = assemble_operator(diff, grid, 2.0)
        reused = _factor(_half_system(A, grid)[0], "NATURAL")
        fresh = _factor(scratch_half(A, grid)[0])
        fills = (reused.L.nnz + reused.U.nnz, fresh.L.nnz + fresh.U.nnz)
        assert fills[0] == pytest.approx(fills[1], rel=1e-3)

    def test_lattice_shared_and_read_only(self):
        a, b = DiscGrid(1.0, 1.0 / 24), DiscGrid(7.3, 7.3 / 24)
        assert a.i is b.i and a.mirror is b.mirror
        with pytest.raises(ValueError):
            a.i[0] = 0


class TestDiscGrid:
    @pytest.mark.parametrize("N", [48, 50, 60, 65])
    def test_points_on_the_circle_are_not_nodes(self, N):
        # with h = R/N float rounding used to let some i^2 + j^2 = N^2
        # points in, with a cut distance clamped to 1e-12 h
        ii, jj = np.meshgrid(np.arange(-N, N + 1), np.arange(-N, N + 1))
        n_inside = int(np.count_nonzero(ii**2 + jj**2 < N * N))
        for R in np.random.default_rng(N).uniform(0.05, 20.0, 300):
            g = DiscGrid(R, R / N)
            assert g.n_nodes == n_inside
            assert np.all(g.i**2 + g.j**2 < N * N)
            assert min(float(np.min(d)) for d in (g.he, g.hw, g.hn, g.hs)) > 1e-3 * g.h

    def test_origin_is_node(self):
        g = DiscGrid(1.0, 1.0 / 32)
        assert g.node_index(0, 0) >= 0
        assert g.n_nodes == pytest.approx(math.pi * 32**2, rel=0.05)

    def test_all_nodes_strictly_inside(self):
        g = DiscGrid(1.0, 1.0 / 24)
        assert np.all(g.x**2 + g.y**2 < 1.0)

    def test_boundary_distances_positive(self):
        g = DiscGrid(1.0, 1.0 / 24)
        for arr in (g.he, g.hw, g.hn, g.hs):
            assert np.all(arr > 0.0)
            assert np.all(arr <= g.h + 1e-15)

    def test_nearest_node_fallback_near_rim(self):
        g = DiscGrid(1.0, 1.0 / 16)
        ang = 0.78
        idx = g.nearest_node_index([0.999 * math.cos(ang)], [0.999 * math.sin(ang)])
        assert idx[0] >= 0

    def test_mirror_is_y_reflection_involution(self):
        g = DiscGrid(1.3, 1.3 / 20)
        assert np.all(g.mirror >= 0)
        np.testing.assert_array_equal(g.mirror[g.mirror], np.arange(g.n_nodes))
        np.testing.assert_array_equal(g.x[g.mirror], g.x)
        np.testing.assert_array_equal(g.y[g.mirror], -g.y)
        np.testing.assert_array_equal(g.mirror[g.j == 0], np.flatnonzero(g.j == 0))

    def test_interpolation_at_node_is_exact(self):
        g = DiscGrid(1.0, 1.0 / 16)
        w = g.interpolation_weights((g.x[10], g.y[10]))
        assert len(w) == 1 or sum(ww for _, ww in w) == pytest.approx(1.0)


class TestMeanInterval:
    def test_unit_disc_exact(self):
        # quadratic exact solution reproduced to solver accuracy
        f = solve_mean_interval(UNIT, 1.0, 0.0, DiscGrid(1.0, 1.0 / 64))
        assert f.value_at((0.0, 0.0)) == pytest.approx(0.5, abs=1e-9)
        exact = (1.0 - f.grid.x**2 - f.grid.y**2) / 2.0
        assert np.max(np.abs(f.values - exact)) < 1e-9

    def test_mirror_symmetry_in_y(self):
        diff = compute_diffusion(default_mobility(0.5))
        f = solve_mean_interval(diff, 1.0, 0.7, DiscGrid(1.0, 1.0 / 48))
        flipped = {}
        for i, (ix, jy) in enumerate(zip(f.grid.i, f.grid.j)):
            flipped[(ix, jy)] = f.values[i]
        for (ix, jy), v in flipped.items():
            assert v == pytest.approx(flipped[(ix, -jy)], abs=1e-9)

    @pytest.mark.parametrize("k", [1e-4, 0.5, 3.16, 20.0])
    def test_half_disc_matches_full_system(self, k):
        diff = compute_diffusion(default_mobility(k))
        for R in (0.05, 1.29, 20.0):
            grid = DiscGrid(R, R / 32)
            for lam in (0, 0.2, 2):  # an integer rate is accepted too
                ref = full_system_solve(diff, grid, lam)
                f = solve_mean_interval(diff, R, lam, grid)
                assert np.max(np.abs(f.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_grid_convergence_second_order(self):
        # on a drifted problem successive half-steps shrink the change
        diff = DiffusionParams(1.0, 1.0, 1.0)
        vals = [solve_mean_interval(diff, 1.0, 1.0, DiscGrid(1.0, 1.0 / n))
                .value_at((0.0, 0.0)) for n in (16, 32, 64)]
        change1 = abs(vals[1] - vals[0])
        change2 = abs(vals[2] - vals[1])
        assert change2 < 0.5 * change1

    def test_maximum_principle(self):
        diff = compute_diffusion(default_mobility(0.5))
        f = solve_mean_interval(diff, 1.0, 0.0, DiscGrid(1.0, 1.0 / 48))
        assert f.values.min() >= -1e-12
        interior_max_idx = int(np.argmax(f.values))
        r = math.hypot(f.grid.x[interior_max_idx], f.grid.y[interior_max_idx])
        assert r < 0.95

    def test_rate_comparison_pointwise(self):
        diff = compute_diffusion(default_mobility(0.5))
        grid = DiscGrid(1.0, 1.0 / 32)
        fields = [solve_mean_interval(diff, 1.0, lam, grid).values
                  for lam in (0.0, 0.5, 2.0)]
        assert np.all(fields[1] <= fields[0] + 1e-12)
        assert np.all(fields[2] <= fields[1] + 1e-12)
        assert np.max(fields[2]) <= 0.5 + 1e-9  # 1/lam bound

    def test_upwind_high_peclet_stays_positive(self):
        # drift so strong the central stencil would oscillate
        diff = DiffusionParams(50.0, 0.05, 0.05)
        f = solve_mean_interval(diff, 1.0, 0.0, DiscGrid(1.0, 1.0 / 32))
        assert f.values.min() >= -1e-12
        assert f.axis_argmax() < -0.9

    def test_mc_cross_oracle_with_calls(self):
        mob = default_mobility(0.5)
        diff = compute_diffusion(mob)
        f = solve_mean_interval(diff, 1.0, 2.0, DiscGrid(1.0, 1.0 / 96))
        from lamopt.ctrw import estimate_T
        est = estimate_T((-0.2, 0.0), 1.0, 2.0, mob,
                         SimConfig(n_trials=30_000, seed=21))
        pde = f.value_at((-0.2, 0.0))
        assert abs(est.mean - pde) <= max(0.03 * pde, est.half_width_95)


class TestWarmFactor:
    @pytest.mark.parametrize("k", [0.0, 0.5, 20.0])
    def test_warm_solve_matches_fresh(self, k):
        # a radius 1% away is refined on the held factor, which stays held
        diff = compute_diffusion(default_mobility(k))
        slot = FactorSlot()
        solve_mean_interval(diff, 1.0, 2.0, DiscGrid(1.0, 1.0 / 32), slot)
        held = slot.lu
        R = 1.01
        warm = solve_mean_interval(diff, R, 2.0, DiscGrid(R, R / 32), slot).values
        assert slot.lu is held
        fresh = solve_mean_interval(diff, R, 2.0, DiscGrid(R, R / 32)).values
        assert np.max(np.abs(warm - fresh)) <= 1e-12 * np.max(np.abs(fresh))

    def test_stalled_refinement_refactors(self):
        # 10x the radius is too far for refinement: the slot takes a new factor
        diff = compute_diffusion(default_mobility(0.5))
        slot = FactorSlot()
        solve_mean_interval(diff, 1.0, 2.0, DiscGrid(1.0, 1.0 / 32), slot)
        held = slot.lu
        warm = solve_mean_interval(diff, 10.0, 2.0, DiscGrid(10.0, 10.0 / 32), slot)
        assert slot.lu is not held
        fresh = solve_mean_interval(diff, 10.0, 2.0, DiscGrid(10.0, 10.0 / 32))
        np.testing.assert_array_equal(warm.values, fresh.values)

    def test_other_lattice_is_solved_fresh(self):
        slot = FactorSlot()
        solve_mean_interval(UNIT, 1.0, 0.0, DiscGrid(1.0, 1.0 / 16), slot)
        held = slot.lu
        f = solve_mean_interval(UNIT, 1.0, 0.0, DiscGrid(1.0, 1.0 / 24), slot)
        assert slot.lu is not held and slot.lattice is f.grid._lattice

    def test_golden_search_factors_fewer_times_than_it_probes(self, monkeypatch):
        counts = {"factor": 0, "solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        mob = default_mobility(2.0)
        cost = costs.CostParams(lam=2.0, U=20.0, V=1.0)
        costs.joint_optimize(mob, cost, "pde", pde_nodes=16)  # builds the lattice
        monkeypatch.setattr(pde, "_factor", counted("factor", pde._factor))
        monkeypatch.setattr(costs, "solve_mean_interval",
                            counted("solve", costs.solve_mean_interval))
        costs.joint_optimize(mob, cost, "pde", pde_nodes=16)
        # 25 scan radii, each factored, then 22 golden-section probes
        assert counts["solve"] == 47
        assert counts["factor"] - 25 < 22 / 2


class TestSurvival:
    def test_starts_at_one_exactly(self):
        grid = DiscGrid(1.0, 1.0 / 32)
        c = solve_survival(UNIT, (0.0, 0.0), 1.0, grid, TimeGrid(0.5, 100))
        assert c.values[0] == 1.0

    def test_boundary_start_rejected(self):
        grid = DiscGrid(1.0, 1.0 / 32)
        with pytest.raises(DomainError):
            solve_survival(UNIT, (1.0, 0.0), 1.0, grid, TimeGrid(0.5, 100))

    @pytest.mark.parametrize("X", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_start_rejected(self, X):
        grid = DiscGrid(1.0, 1.0 / 16)
        tg = TimeGrid(0.5, 10)
        with pytest.raises(DomainError):
            solve_survival(UNIT, X, 1.0, grid, tg)
        with pytest.raises(DomainError):
            solve_forward(UNIT, X, 1.0, grid, tg)
        with pytest.raises(DomainError):
            grid.interpolation_weights(X)

    @pytest.mark.parametrize("R", [5.0, 0.5, math.nan])
    def test_grid_of_another_radius_rejected(self, R):
        # every solver refuses a grid built for another disc, also where
        # the start point lies inside both discs
        grid = DiscGrid(1.0, 1.0 / 16)
        tg = TimeGrid(0.5, 10)
        with pytest.raises(DomainError, match="grid radius"):
            solve_mean_interval(UNIT, R, 0.0, grid)
        with pytest.raises(DomainError, match="grid radius"):
            solve_survival(UNIT, (0.1, 0.0), R, grid, tg)
        with pytest.raises(DomainError, match="grid radius"):
            solve_forward(UNIT, (0.1, 0.0), R, grid, tg)

    def test_monotone_and_bounded(self):
        grid = DiscGrid(1.0, 1.0 / 32)
        c = solve_survival(UNIT, (0.3, 0.0), 1.0, grid, TimeGrid(1.5, 300))
        assert np.all(np.diff(c.values) <= 1e-12)
        assert np.all((c.values >= 0.0) & (c.values <= 1.0))

    def test_integral_identity(self):
        # integral of the survival curve equals the zero-rate mean interval
        grid = DiscGrid(1.0, 1.0 / 48)
        c = solve_survival(UNIT, (0.0, 0.0), 1.0, grid, TimeGrid(4.0, 2000))
        direct = solve_mean_interval(UNIT, 1.0, 0.0, grid).value_at((0.0, 0.0))
        val = float(np.trapezoid(c.values, c.times))
        assert val == pytest.approx(direct, rel=0.02)


def full_disc_march(diff, grid, X, tgrid):
    """Oracle for the half-disc marches: one LU of the whole-disc ``I - dt A``,
    stepped forward for the survival curve at X and transposed for the
    density started at X's nearest node."""
    A = assemble_operator(diff, grid, 0.0).tocsc()
    lu = spla.splu(sp.identity(grid.n_nodes, format="csc") - tgrid.dt * A)
    weights = grid.interpolation_weights(X)
    g = np.ones(grid.n_nodes)
    p = np.zeros(grid.n_nodes)
    p[grid.nearest_node_index([X[0]], [X[1]])[0]] = 1.0 / grid.h**2
    survival, densities = [1.0], [p]
    for _ in range(tgrid.steps):
        g = lu.solve(g)
        survival.append(sum(w * g[idx] for idx, w in weights))
        densities.append(lu.solve(densities[-1], trans="T"))
    return np.array(survival), densities


class TestHalfDiscMarch:
    @pytest.mark.parametrize("k", [0.0, 0.5, 20.0])
    def test_matches_full_disc_march(self, k):
        diff = compute_diffusion(default_mobility(k))
        grid = DiscGrid(1.0, 1.0 / 24)
        tg = TimeGrid(0.3, 30)
        X = grid.nearest_node_point((-0.4, 0.0))
        survival, densities = full_disc_march(diff, grid, X, tg)
        fwd = solve_forward(diff, X, 1.0, grid, tg, output_times=[0.0, 0.1, 0.3])
        for t, field, mass in zip(fwd.times, fwd.fields, fwd.masses):
            ref = densities[int(round(t / tg.dt))]
            assert np.max(np.abs(field.values - ref)) <= 1e-12 * np.max(ref)
            assert mass == pytest.approx(ref.sum() * grid.h**2, rel=1e-12)
        curve = solve_survival(diff, X, 1.0, grid, tg)
        np.testing.assert_allclose(curve.values, survival, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", [0.0, 0.5, 20.0])
    def test_off_axis_survival_matches_full_disc_march(self, k):
        # G is mirror-symmetric from any start; only the density needs the axis
        diff = compute_diffusion(default_mobility(k))
        grid = DiscGrid(1.0, 1.0 / 24)
        tg = TimeGrid(0.3, 30)
        survival, _ = full_disc_march(diff, grid, (0.23, 0.17), tg)
        curve = solve_survival(diff, (0.23, 0.17), 1.0, grid, tg)
        np.testing.assert_allclose(curve.values, survival, rtol=1e-12, atol=0)

    def test_off_axis_density_start_rejected(self):
        grid = DiscGrid(1.0, 1.0 / 24)
        with pytest.raises(DomainError, match="road axis"):
            solve_forward(UNIT, (0.3, 0.1), 1.0, grid, TimeGrid(0.2, 50))


class TestForward:
    def test_initial_mass_at_source(self):
        grid = DiscGrid(1.0, 1.0 / 24)
        fwd = solve_forward(UNIT, (0.3, 0.0), 1.0, grid, TimeGrid(0.2, 50),
                            output_times=[0.0, 0.2])
        p0 = fwd.fields[0].values
        assert p0[fwd.source_index] == pytest.approx(1.0 / grid.h**2)
        assert fwd.masses[0] == pytest.approx(1.0)

    def test_mass_equals_survival(self):
        diff = compute_diffusion(default_mobility(2.0))
        grid = DiscGrid(1.0, 1.0 / 40)
        tg = TimeGrid(0.4, 160)
        X = grid.nearest_node_point((-0.5, 0.0))
        curve = solve_survival(diff, X, 1.0, grid, tg)
        fwd = solve_forward(diff, X, 1.0, grid, tg,
                            output_times=[0.1, 0.2, 0.4])
        for t_out, mass in zip(fwd.times, fwd.masses):
            g = curve.values[int(round(t_out / tg.dt))]
            assert mass == pytest.approx(g, rel=0.01)

    def test_nonnegative(self):
        grid = DiscGrid(1.0, 1.0 / 40)
        fwd = solve_forward(UNIT, (0.0, 0.0), 1.0, grid, TimeGrid(0.5, 200),
                            output_times=[0.1, 0.5])
        for f in fwd.fields:
            assert f.values.min() >= -1e-12

    def test_density_matches_monte_carlo(self):
        # L1 distance between the solver density and the jump-process
        # histogram at a fixed time
        from tests.test_ctrw import brownian_surrogate, empirical_density
        params = brownian_surrogate(mean_len=0.01)
        diff = compute_diffusion(params)
        grid = DiscGrid(1.0, 1.0 / 16)
        t_snap = 0.1
        mc_vals, mc_surv = empirical_density(
            (0.0, 0.0), t_snap, 1.0, params,
            SimConfig(n_trials=200_000, seed=31), grid)
        fwd = solve_forward(diff, (0.0, 0.0), 1.0, grid, TimeGrid(t_snap, 400),
                            output_times=[t_snap])
        l1 = float(np.sum(np.abs(mc_vals - fwd.fields[-1].values)) * grid.h**2)
        assert l1 < 0.05


class TestOneDim:
    def test_driftless_exact(self):
        assert float(segment_interval(0.0, 1.0, 4.0, 2.0)) == 4.0
        assert segment_argmax(0.0, 1.0, 4.0) == 2.0
        xs = np.linspace(0, 4, 9)
        np.testing.assert_allclose(segment_interval(0.0, 1.0, 4.0, xs), xs * (4 - xs),
                                   rtol=1e-12)

    def test_discrete_walk_recovery(self):
        # unbiased unit-step walk on a segment: mean interval from the
        # midpoint is (L/2)^2 steps; unit steps either way with probability
        # 1/2 and unit dwells map to zero drift and unit diffusion
        mu, sigma = 0.0, 1.0
        for L in (4.0, 10.0):
            mid = float(segment_interval(mu, sigma, L, L / 2))
            assert mid == pytest.approx(L**2 / 4, rel=1e-12)

    def test_segment_form_takes_a_length_per_point(self):
        # one call over segments of different lengths matches a call per
        # segment, and a zero-length segment gives 0
        Ls = np.array([0.0, 0.5, 2.0, 30.0])
        xs = np.array([0.0, 0.1, 1.5, 29.0])
        for mu in (-0.7, 0.0, 0.7):
            vals = segment_interval(mu, 1.3, Ls, xs)
            assert vals[0] == 0.0
            expected = [float(segment_interval(mu, 1.3, L, x))
                        for L, x in zip(Ls[1:], xs[1:])]
            np.testing.assert_allclose(vals[1:], expected, rtol=1e-14)

    def test_argmax_limit_small_drift(self):
        x_opt = segment_argmax(1e-6, 1.0, 1.0)
        assert abs(x_opt - 0.5) < 1e-6
        assert float(segment_interval(1e-6, 1.0, 1.0, x_opt)) == pytest.approx(0.25,
                                                                              rel=1e-5)

    def test_drift_reflection_symmetry(self):
        xs = np.linspace(0, 2, 11)
        np.testing.assert_allclose(segment_interval(0.7, 1.0, 2.0, xs),
                                   segment_interval(-0.7, 1.0, 2.0, 2.0 - xs),
                                   rtol=1e-10)
        assert segment_argmax(0.7, 1.0, 2.0) == pytest.approx(
            2.0 - segment_argmax(-0.7, 1.0, 2.0), rel=1e-9)

    @pytest.mark.parametrize("mu, sigma, L", [
        (-50.0, 0.1, 1.0), (-0.7, 1.0, 2.0), (0.0, 1.0, 2.0), (1e-6, 1.0, 1.0),
        (0.7, 1.0, 2.0), (50.0, 0.1, 1.0), (500.0, 0.01, 10.0),
    ])
    def test_argmax_beats_dense_grid(self, mu, sigma, L):
        # the closed-form maximizer lies within one step of the argmax of a
        # 2001-point grid, nothing overflows, and no grid point beats it by
        # more than 1e-9 relative
        xs = np.linspace(0.0, L, 2001)
        with np.errstate(all="raise"):
            x_opt = segment_argmax(mu, sigma, L)
            t_opt = float(segment_interval(mu, sigma, L, x_opt))
            grid = segment_interval(mu, sigma, L, xs)
        assert np.isfinite(t_opt) and np.all(np.isfinite(grid))
        assert abs(x_opt - xs[np.argmax(grid)]) <= xs[1]
        assert t_opt >= float(np.max(grid)) * (1.0 - 1e-9)

    @pytest.mark.parametrize("mu", [1e-6, -1e-6, 0.49, 0.51])
    def test_small_drift_matches_mpmath(self, mu):
        # sigma = L = 1: g L = 2 |mu| is on the series side below 1 and on the
        # closed form's side above it; 50-digit evaluation of the closed form
        mpmath = pytest.importorskip("mpmath")
        xs = np.linspace(0.0, 1.0, 21)[1:-1]
        vals = segment_interval(mu, 1.0, 1.0, xs)
        with mpmath.workdps(50):
            g = 2 * mpmath.mpf(mu)
            refs = [float((1 - mpmath.exp(-g * x) - x * (1 - mpmath.exp(-g)))
                          / (mpmath.mpf(mu) * (1 - mpmath.exp(-g))))
                    for x in map(mpmath.mpf, xs)]
        for v, ref in zip(vals, refs):
            assert abs(v - ref) <= 1e-14 * ref

    def test_strong_drift_no_overflow(self):
        assert np.isfinite(float(segment_interval(500.0, 0.01, 10.0, 5.0)))
        assert segment_argmax(500.0, 0.01, 10.0) == pytest.approx(0.0, abs=0.01)

    def test_matches_disc_solver_on_thin_strip(self):
        # 1-D solution is the strip limit of the 2-D solver: cross-check the
        # drifted case against the exact closed form
        mu, sigma, L = 2.0, 0.8, 3.0
        # finite-difference solve of the same two-point problem
        n = 600
        xs = np.linspace(0.0, L, n + 1)[1:-1]
        h = L / n
        main = np.full(n - 1, -2 * (sigma / 2) / h**2)
        upper = np.full(n - 2, (sigma / 2) / h**2 + mu / (2 * h))
        lower = np.full(n - 2, (sigma / 2) / h**2 - mu / (2 * h))
        A = np.diag(main) + np.diag(upper, 1) + np.diag(lower, -1)
        t = np.linalg.solve(A, -np.ones(n - 1))
        np.testing.assert_allclose(t, segment_interval(mu, sigma, L, xs), atol=2e-4)

    def test_validation(self):
        with pytest.raises(DomainError):
            segment_argmax(0.0, 0.0, 1.0)
