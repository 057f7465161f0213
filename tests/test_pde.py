"""Finite-difference engine: exact cases, identities, cross-oracles."""

import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamopt import approx, costs, pde
from lamopt.config import default_mobility
from lamopt.ctrw import SimConfig
from lamopt.errors import DomainError, NumericalError
from lamopt.mobility import DiffusionParams, compute_diffusion
from lamopt.pde import (
    DiscGrid,
    FactorSlot,
    ScalarField,
    TimeGrid,
    _check_residual,
    _disc_system,
    _factor,
    _refine,
    assemble_operator,
    mean_interval_cap,
    segment_argmax,
    segment_interval,
    solve_forward,
    solve_mean_interval,
    solve_survival,
)

UNIT = DiffusionParams(0.0, 1.0, 1.0)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def spacings(grid):
    """The east, west, north and south spacings of every node: the
    lattice's unit cut distances times ``h``."""
    return grid._lattice.cut * grid.h


def mirror_nodes(grid):
    """Index of node (i, -j), for every node (i, j)."""
    lat = grid._lattice
    return lat.index2d[lat.i + lat.n, lat.n - lat.j]


def full_system_solve(diff, grid, lam):
    """Oracle for the half-disc solve: one LU of the whole-disc operator."""
    A = assemble_operator(diff, grid, lam)
    return spla.spsolve(A.tocsc(), np.full(grid.n_nodes, -1.0))


def scratch_assemble(diff, grid, lam):
    """Oracle for the lattice pattern: the operator assembled from scratch,
    neighbours looked up from the node coordinates, duplicates summed by the
    COO-to-CSR conversion."""
    gi = grid._lattice.i
    n = int(np.max(np.abs(gi)))
    index2d = np.full((2 * n + 3, 2 * n + 3), -1, dtype=np.int64)
    index2d[gi + n + 1, grid.j + n + 1] = np.arange(grid.n_nodes)
    west, east, south, north = (index2d[gi + n + 1 + di, grid.j + n + 1 + dj]
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

    h_e, h_w, h_n, h_s = spacings(grid)
    h_neg, h_pos, s_coef, mu = h_w, h_e, diff.sigma11 / 2.0, diff.mu1
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
    c_neg, c_diag, c_pos = second_difference(h_s, h_n, diff.sigma22 / 2.0)
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
    upper_node = np.where(upper, np.arange(grid.n_nodes), mirror_nodes(grid))
    fold = (np.cumsum(upper) - 1)[upper_node]
    A_up = A[upper]
    half = sp.csr_matrix((A_up.data, fold[A_up.indices], A_up.indptr),
                         shape=(A_up.shape[0],) * 2)
    half.sum_duplicates()
    return half, fold


def mmd_factor(M):
    """A fresh LU of M in SuperLU's minimum-degree order of ``M^T + M``,
    with the pivoting and panel options of ``pde._factor``."""
    return spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", panel_size=1,
                     options={"SymmetricMode": True, "DiagPivotThresh": 0.0})


def scratch_solve(diff, grid, lam):
    """Oracle for the mean-interval solve: a fresh minimum-degree factor of
    the half system from scratch."""
    half, fold = scratch_half(scratch_assemble(diff, grid, lam), grid)
    return mmd_factor(half).solve(np.full(half.shape[0], -1.0))[fold]


def bits(a):
    """The IEEE bit patterns of a float array, so that -0.0 != 0.0."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _switch_cases():
    """(N, diff, R): no drift at R = 1, and drift of either sign at
    ``R_s (1 -+ 1e-9)``, just inside and just past the radius
    ``R_s = N s11 / |mu1|`` where the full cells switch from central to
    upwind x-drift."""
    for N in (2, 3, 16, 64, 128):
        yield N, DiffusionParams(0.0, 0.2, 0.1), 1.0
        for mu in (3.0, -3.0):
            for rel in (-1e-9, 1e-9):
                yield N, DiffusionParams(mu, 0.2, 0.1), N * 0.2 / 3.0 * (1.0 + rel)


class TestDiscSystem:
    @pytest.mark.parametrize("N, diff, R", list(_switch_cases()))
    def test_half_system_is_the_fold_bit_for_bit(self, N, diff, R):
        # the half system is the fold of the full-disc operator, entry for
        # entry and bit for bit, and its residual rows are the operator's
        # j >= 0 rows; at call rates 0, lam and 1/dt
        grid = DiscGrid(R, R / N)
        unfold = grid._lattice.unfold
        rank = unfold[grid.j >= 0]  # half position of each j >= 0 node
        inverse = np.argsort(rank)
        for rate in (0.0, 2.0, 1.0 / 0.01):
            A = assemble_operator(diff, grid, rate)
            half, rows = _disc_system(diff, grid, rate)
            ref = scratch_half(A, grid)[0][inverse][:, inverse].tocoo()
            got = half.tocoo()
            for M in (ref, got):
                order = np.lexsort((M.row, M.col))
                M.row, M.col, M.data = M.row[order], M.col[order], M.data[order]
            np.testing.assert_array_equal(got.row, ref.row)
            np.testing.assert_array_equal(got.col, ref.col)
            np.testing.assert_array_equal(bits(got.data), bits(ref.data))
            up = A[grid.j >= 0]
            np.testing.assert_array_equal(rows.indptr, up.indptr)
            np.testing.assert_array_equal(rows.indices, up.indices)
            np.testing.assert_array_equal(bits(rows.data), bits(up.data))

    @pytest.mark.parametrize("N", [2, 3, 16, 64, 128])
    def test_cases_cover_both_sides_of_the_switch(self, N):
        # just inside R_s every node is central; just past it every node of
        # a full cell, the origin among them, is upwinded
        (d, below), (_, above) = [(d, R) for n, d, R in _switch_cases()
                                  if n == N and d.mu1 > 0.0]

        def central(R):
            h_e, h_w = spacings(DiscGrid(R, R / N))[:2]
            return abs(d.mu1) * np.maximum(h_w, h_e) / (d.sigma11 / 2.0) <= 2.0

        full = np.all(DiscGrid(1.0, 1.0 / N)._lattice.cut == 1.0, axis=0)
        assert np.all(central(below))
        assert not np.any(central(above)[full]) and full.any()

    @pytest.mark.parametrize("N", [2, 3, 16, 33])
    @pytest.mark.parametrize("mu", [0.0, 0.7, -40.0])
    def test_mirror_rows_are_exact(self, N, mu):
        # row (i, -j) of the full operator is row (i, j) with north and south
        # swapped, bit for bit: the upper rows are the whole residual check
        grid = DiscGrid(1.3, 1.3 / N)
        lat = grid._lattice
        A = assemble_operator(DiffusionParams(mu, 0.2, 0.1), grid, 0.7)
        table = np.zeros(lat.present.shape)
        table[lat.present] = A.data
        swap, mirror = [0, 3, 2, 1, 4], mirror_nodes(grid)
        np.testing.assert_array_equal(lat.present, lat.present[mirror][:, swap])
        np.testing.assert_array_equal(bits(table), bits(table[mirror][:, swap]))

    @pytest.mark.parametrize("rate", [float("nan"), -1e-12, math.inf])
    def test_bad_call_rate_is_refused(self, rate):
        # a NaN rate reached SuperLU as "Factor is exactly singular"
        grid = DiscGrid(1.0, 1.0 / 16)
        with pytest.raises(DomainError, match="call rate"):
            solve_mean_interval(UNIT, 1.0, rate, grid)
        with pytest.raises(DomainError, match="call rate"):
            assemble_operator(UNIT, grid, rate)

    def test_nan_residual_fails_the_check(self):
        eye = sp.identity(3, format="csr")
        with pytest.raises(NumericalError, match="residual"):
            _check_residual(eye, np.array([np.nan, 0.0, 0.0]), np.zeros(3))
        _check_residual(eye, np.zeros(3), np.zeros(3))

    def test_fold_weight_is_stored_once(self):
        lat = DiscGrid(1.0, 1.0 / 16)._lattice
        assert DiscGrid(5.0, 5.0 / 16)._lattice.W is lat.W
        np.testing.assert_array_equal(lat.W, np.bincount(lat.unfold))
        assert set(lat.W) == {1, 2}
        with pytest.raises(ValueError):
            lat.W[0] = 3


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
                reused = _factor(_disc_system(diff, grid, lam)[0])
                fresh = mmd_factor(scratch_half(assemble_operator(diff, grid, lam), grid)[0])
                assert reused.L.nnz + reused.U.nnz == fresh.L.nnz + fresh.U.nnz

    @pytest.mark.parametrize("N", [2, 17, 48, 128])
    def test_stored_order_is_the_full_lu_order(self, N):
        # the lattice takes its order from an incomplete factor that drops
        # all fill; a full minimum-degree LU of the half system orders it
        # the same, node for node
        diff = compute_diffusion(default_mobility(0.5))
        grid = DiscGrid(1.0, 1.0 / N)
        half, fold = scratch_half(assemble_operator(diff, grid, 0.2), grid)
        unfold = grid._lattice.unfold
        np.testing.assert_array_equal(unfold, mmd_factor(half).perm_c[fold])

    def test_reused_order_fill_is_exact_with_diagonal_pivots(self):
        # the values here differ from the scratch half system in the last
        # digits; with every pivot on the diagonal the fill depends on the
        # order alone, so both factors hold 7312 entries
        diff = compute_diffusion(default_mobility(20.0))
        R = 10**-0.5
        grid = DiscGrid(R, R / 16)
        reused = _factor(_disc_system(diff, grid, 2.0)[0])
        fresh = mmd_factor(scratch_half(assemble_operator(diff, grid, 2.0), grid)[0])
        assert reused.L.nnz + reused.U.nnz == fresh.L.nnz + fresh.U.nnz == 7312

    def test_factor_pivots_on_the_diagonal(self):
        # threshold pivoting took off-diagonal pivots here, for 224,321
        # entries in L + U; the stored order alone gives 217,076
        diff = compute_diffusion(default_mobility(20.0))
        grid = DiscGrid(1.0, 1.0 / 64)
        lu = _factor(_disc_system(diff, grid, 2.0)[0])
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)
        assert lu.L.nnz + lu.U.nnz == 217_076

    @settings(max_examples=40, deadline=None)
    @example(20.0, 2.0, 16, -2.0, 0.1)  # cell Peclet 0.06: central drift
    @example(20.0, 2.0, 16, 1.0, 0.1)  # cell Peclet 12: one-sided drift
    @example(1e6, 0.0, 33, 2.0, 10.0)
    @given(st.sampled_from([0.0, 1e-4, 0.5, 2.0, 20.0, 1e3, 1e6]),
           st.sampled_from([0.0, 0.2, 2.0, 20.0]),
           st.sampled_from([8, 16, 33]),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=1e-3, max_value=10.0))
    def test_every_factored_matrix_is_an_m_matrix(self, k, lam, N, log_R, dt):
        # the premise of factoring without pivots: up to sign, each matrix
        # _factor sees has off-diagonal entries >= 0, a diagonal < 0 and
        # row sums <= 0 (an interior row of L sums to 0 up to round-off);
        # a march step's is the fold at call rate 1/dt
        diff = compute_diffusion(default_mobility(k))
        R = 10.0**log_R
        grid = DiscGrid(R, R / N)
        A = assemble_operator(diff, grid, lam)
        half = _disc_system(diff, grid, lam)[0]
        step = _disc_system(diff, grid, 1.0 / (dt * R * R))[0]
        for M in (A, half, step):
            M = sp.csr_matrix(M)
            diag = M.diagonal()
            off = M - sp.diags(diag)
            assert off.min() >= 0.0
            assert np.all(diag < 0.0)
            assert np.all(np.asarray(M.sum(axis=1)).ravel() <= 1e-12 * np.abs(diag))

    @pytest.mark.parametrize("rel, west", [(-1e-9, 1.28e-7), (1e-9, 128.0)],
                             ids=["central", "upwind"])
    def test_drift_stencil_switches_at_peclet_2(self, rel, west):
        # cell Peclet mu h / (s11 / 2) = 2 at mu = 16, h = 1/16: just below,
        # the central stencil's west entry s11 / (2 h^2) - mu / (2 h) nearly
        # cancels; just above, upwinding drops the drift from it
        grid = DiscGrid(1.0, 1.0 / 16)
        A = assemble_operator(DiffusionParams(16.0 * (1.0 + rel), 1.0, 1.0), grid)
        entry = A[grid.node_index(0, 0), grid.node_index(-1, 0)]
        assert entry == pytest.approx(west, rel=1e-6)

    @pytest.mark.parametrize("R", [0.3, 1.0, 7.3])
    @pytest.mark.parametrize("N", [8, 16, 31, 64])
    def test_reversed_drift_is_the_x_mirror(self, N, R):
        # the lattice and its cut distances are even in x, so reversing the
        # drift mirrors the operator through x -> -x to the bit, on central
        # and upwind nodes alike; sparse parts only, since a dense N = 64
        # operator needs over 1 GB
        g = DiscGrid(R, R / N)
        lat = g._lattice
        P = lat.index2d[lat.n - lat.i, lat.n + g.j]
        for mu in (0.05, 3.0, 40.0, 400.0):
            A = assemble_operator(DiffusionParams(mu, 0.2, 0.1), g, 0.7)[P][:, P]
            B = assemble_operator(DiffusionParams(-mu, 0.2, 0.1), g, 0.7)
            for M in (A, B):
                M.sort_indices()
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(B, part), getattr(A, part))

    @settings(max_examples=30, deadline=None)
    @example(4.0, 16, 20.0, 2.0)  # a power-of-two radius scales exactly
    @example(0.6708625855188431, 35, 6194.7, 0.1)  # Peclet 1.9 at a cut cell
    @given(st.one_of(_log_uniform(0.01, 100.0), st.integers(-6, 6).map(lambda e: 2.0**e)),
           st.integers(4, 40),
           st.one_of(st.just(0.0), _log_uniform(1e-4, 1e6)),
           st.one_of(st.just(0.0), _log_uniform(1e-3, 30.0)))
    def test_radius_scaling(self, R, N, k, lam):
        # T_R(x) = R^2 T_1(x/R), with drift mu1 R and call rate lam R^2 on the
        # unit disc: DiscGrid(R, R/N) is the unit grid scaled by R, so R^2
        # times its operator is the unit operator up to the rounding of the
        # spacings, a few ulps of the row's largest term (central drift at a
        # cut cell cancels), and to the bit when R is a power of two
        diff = compute_diffusion(default_mobility(k))
        unit_diff = DiffusionParams(diff.mu1 * R, diff.sigma11, diff.sigma22)
        grid, unit = DiscGrid(R, R / N), DiscGrid(1.0, 1.0 / N)
        A = assemble_operator(diff, grid, lam)
        B = assemble_operator(unit_diff, unit, lam * R * R)
        for part in ("indptr", "indices"):
            np.testing.assert_array_equal(getattr(A, part), getattr(B, part))

        def central(d, g):
            h_e, h_w = spacings(g)[:2]
            return abs(d.mu1) * np.maximum(h_w, h_e) / (d.sigma11 / 2.0) <= 2.0

        np.testing.assert_array_equal(central(diff, grid), central(unit_diff, unit))
        h_e, h_w, h_n, h_s = spacings(unit)
        term = (diff.sigma11 / (h_w * h_e) + abs(unit_diff.mu1)
                / np.minimum(h_w, h_e) + diff.sigma22 / (h_n * h_s)
                + lam * R * R)[np.repeat(np.arange(unit.n_nodes), np.diff(B.indptr))]
        exact = math.frexp(R)[0] == 0.5
        eps = 0.0 if exact else np.finfo(float).eps
        assert np.all(np.abs(A.data * R * R - B.data) <= 8 * eps * term)
        T = solve_mean_interval(diff, R, lam, grid).values
        T_unit = R * R * solve_mean_interval(unit_diff, 1.0, lam * R * R, unit).values
        assert np.max(np.abs(T - T_unit)) <= (0.0 if exact else 1e-12) * np.max(T_unit)

    def test_lattice_shared_and_read_only(self):
        # one lattice per N: its node tables and the half system folded from
        # them are built once, shared by every radius, and never written
        a, b = DiscGrid(1.0, 1.0 / 24), DiscGrid(7.3, 7.3 / 24)
        lat = a._lattice
        assert lat is b._lattice and a._lattice.i is b._lattice.i
        arrays = {name: v for name, v in vars(lat).items() if isinstance(v, np.ndarray)}
        assert {"up_cut", "up_present", "row_indptr", "row_indices", "half_indptr",
                "half_indices", "slot", "unfold", "W"} <= set(arrays)
        for name, arr in arrays.items():
            assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            a._lattice.i[0] = 0
        with pytest.raises(ValueError):
            lat.unfold[0] = 0


class TestDiscGrid:
    @pytest.mark.parametrize("N", [48, 50, 60, 65])
    def test_points_on_the_circle_are_not_nodes(self, N):
        # with h = R/N float rounding used to let some i^2 + j^2 = N^2
        # points in, with a cut distance of round-off
        ii, jj = np.meshgrid(np.arange(-N, N + 1), np.arange(-N, N + 1))
        n_inside = int(np.count_nonzero(ii**2 + jj**2 < N * N))
        for R in np.random.default_rng(N).uniform(0.05, 20.0, 300):
            g = DiscGrid(R, R / N)
            assert g.n_nodes == n_inside
            assert np.all(g._lattice.i**2 + g.j**2 < N * N)
            assert float(np.min(spacings(g))) > 1e-3 * g.h

    @pytest.mark.parametrize("R, h", [(math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan)])
    def test_non_finite_radius_or_spacing_rejected(self, R, h):
        # a NaN radius used to raise a bare ValueError from the lattice
        # bound, an infinite one an OverflowError
        with pytest.raises(DomainError):
            DiscGrid(R, h)

    @pytest.mark.parametrize("R, h", [(1.0, 1.0 / 64.5), (1.0, 1.0 / (64 + 1e-6)),
                                      (1e300, 1e-10)])
    def test_radius_must_be_whole_spacings(self, R, h):
        # the node rule i^2 + j^2 < N^2 needs an integer N = R / h
        with pytest.raises(DomainError, match="whole number"):
            DiscGrid(R, h)

    def test_radius_within_rounding_of_whole_spacings(self):
        assert DiscGrid(1.0, 1.0 / (64 + 1e-8)).n_nodes == DiscGrid(1.0, 1.0 / 64).n_nodes

    def test_origin_is_node(self):
        g = DiscGrid(1.0, 1.0 / 32)
        assert g.node_index(0, 0) >= 0
        assert g.n_nodes == pytest.approx(math.pi * 32**2, rel=0.05)

    def test_all_nodes_strictly_inside(self):
        g = DiscGrid(1.0, 1.0 / 24)
        assert np.all(g.x**2 + g.y**2 < 1.0)

    def test_boundary_distances_positive(self):
        g = DiscGrid(1.0, 1.0 / 24)
        for arr in spacings(g):
            assert np.all(arr > 0.0)
            assert np.all(arr <= g.h + 1e-15)

    def test_nearest_node_fallback_near_rim(self):
        g = DiscGrid(1.0, 1.0 / 16)
        ang = 0.78
        idx = g.nearest_node_index([0.999 * math.cos(ang)], [0.999 * math.sin(ang)])
        assert idx[0] >= 0

    @pytest.mark.parametrize("N", [2, 3, 5, 8, 16, 31, 64])
    @pytest.mark.parametrize("R", [0.3, 1.0, 7.3])
    def test_nearest_node_is_the_nearest(self, N, R):
        # brute force over every node, for points anywhere in the disc and in
        # the rim band, where the rounded lattice point is often not a node
        g = DiscGrid(R, R / N)
        rng = np.random.default_rng(N)
        r = R * np.concatenate((np.sqrt(rng.random(100)), 1.0 - 1e-3 * rng.random(100)))
        ang = 2.0 * np.pi * rng.random(r.size)
        xs, ys = r * np.cos(ang), r * np.sin(ang)
        assert any(g.node_index(round(x / g.h), round(y / g.h)) < 0 for x, y in zip(xs, ys))
        d2 = (g.x - xs[:, None]) ** 2 + (g.y - ys[:, None]) ** 2
        np.testing.assert_array_equal(g.nearest_node_index(xs, ys), np.argmin(d2, axis=1))

    def test_mirror_is_y_reflection_involution(self):
        g = DiscGrid(1.3, 1.3 / 20)
        mirror = mirror_nodes(g)
        assert np.all(mirror >= 0)
        np.testing.assert_array_equal(mirror[mirror], np.arange(g.n_nodes))
        np.testing.assert_array_equal(g.x[mirror], g.x)
        np.testing.assert_array_equal(g.y[mirror], -g.y)
        np.testing.assert_array_equal(mirror[g.j == 0], np.flatnonzero(g.j == 0))
        # ScalarField.axis_argmax reads the axis nodes in node order
        assert np.all(np.diff(g.x[g.j == 0]) > 0.0)

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
        for i, (ix, jy) in enumerate(zip(f.grid._lattice.i, f.grid.j)):
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

    @settings(max_examples=40, deadline=None)
    @example(0.0, 2.0, 100.0, 64)  # no drift, every cell central; T near 1/lam
    @example(1e3, 20.0, 1.0, 64)  # cell Peclet 1.5: central drift
    @example(1e6, 2.0, 100.0, 8)  # cell Peclet 1231: one-sided drift everywhere
    @example(20.0, 2.0, 1.0, 16)  # cell Peclet 6.2: one-sided drift everywhere
    @example(0.5, 1e-6, 0.01, 64)  # R^2/sigma22 is the lower term
    @example(1e6, 0.0, 100.0, 64)  # T(0) = (1 + 7.1e-15) R/mu1: the drift term, attained
    @example(0.0, 2.0, 100.0, 33)  # no drift: max T = (1 + 1.8e-15) cap
    @given(st.one_of(st.just(0.0), _log_uniform(1e-4, 1e6)), _log_uniform(1e-6, 20.0),
           _log_uniform(0.01, 100.0), st.integers(8, 64))
    def test_mean_interval_within_cap(self, k, lam, R, N):
        # the discrete maximum principle: (R^2 - y^2)/sigma22 and
        # (R - x sgn mu1)/|mu1| are supersolutions of the call-free system,
        # so the smaller of their maxima, W, bounds T0 at every node (reach
        # 2R) and at the origin (reach R); Jensen's inequality carries W to
        # lam > 0
        diff = compute_diffusion(default_mobility(k))
        grid = DiscGrid(R, R / N)
        caps = []
        for at_origin, reach in ((False, 2.0 * R), (True, R)):
            W = R * R / diff.sigma22
            if diff.mu1 != 0.0:
                W = min(W, reach / abs(diff.mu1))
            cap = -math.expm1(-lam * W) / lam if lam > 0.0 else W
            # never looser than min(1/lam, W), up to an ulp of round-off
            assert cap <= (min(1.0 / lam, W) if lam > 0.0 else W) * (1.0 + 2**-52)
            assert mean_interval_cap(diff, R, lam, at_origin) == cap
            caps.append(cap)
        origin = grid.node_index(0, 0)
        for T in (full_system_solve(diff, grid, lam),
                  solve_mean_interval(diff, R, lam, grid).values):
            assert np.max(T) <= caps[0] * (1.0 + 1e-9)
            assert T[origin] <= caps[1] * (1.0 + 1e-9)

    def test_axis_argmax_refines_between_nodes(self):
        # a parabola along the axis peaking 0.37 h past a node: the
        # three-point fit recovers its peak exactly, the nodal argmax is
        # 0.37 h off
        grid = DiscGrid(1.0, 1.0 / 16)
        peak = 0.3 + 0.37 * grid.h
        field = ScalarField(grid=grid, values=1.0 - (grid.x - peak) ** 2 - grid.y**2)
        assert field.axis_argmax() == pytest.approx(peak, abs=1e-12)

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

    def test_refinement_gives_up_past_the_sweep_budget(self):
        # on the R = 1 factor a sweep cuts the residual 27-38 times at
        # R = 1.01, but only 3-4.5 times at R = 1.1: reaching the target from
        # zero would take more sweeps than a factor costs, though it would
        # converge in the end
        diff = compute_diffusion(default_mobility(0.5))

        def half(R):
            grid = DiscGrid(R, R / 32)
            return _disc_system(diff, grid, 2.0)[0]

        lu = _factor(half(1.0))
        near, far = half(1.01), half(1.1)
        b = np.full(near.shape[0], -1.0)
        x = _refine(lu, near, b, np.zeros_like(b))
        assert np.max(np.abs(b - near @ x)) <= 1e-12 * np.max(np.abs(x))
        assert _refine(lu, far, b, np.zeros_like(b)) is None

    @pytest.mark.parametrize("k", [0.0, 0.5, 20.0])
    def test_warm_solves_along_a_golden_search_match_fresh(self, k):
        # every probe of a golden section over a 0.76-wide log R bracket,
        # each refined from the interpolant of those before it when it can be
        diff = compute_diffusion(default_mobility(k))
        slot, refined = FactorSlot(), []

        def probe(lr):
            R = math.exp(lr)
            held = slot.lu
            warm = solve_mean_interval(diff, R, 2.0, DiscGrid(R, R / 32), slot).values
            refined.append(slot.lu is held)
            fresh = solve_mean_interval(diff, R, 2.0, DiscGrid(R, R / 32)).values
            assert np.max(np.abs(warm - fresh)) <= 1e-12 * np.max(np.abs(fresh))
            return (lr - 0.1) ** 2

        costs._golden_section(probe, -0.3, 0.46)
        assert len(slot.solved) == len(refined) and sum(refined) > len(refined) / 2

    def test_repeated_radius_is_stored_once(self):
        # a search's last solve may land on one of its probes: the radius
        # keeps one entry, so no interpolation weight divides by zero
        diff = compute_diffusion(default_mobility(0.5))
        slot = FactorSlot()
        for R in (1.0, 1.02, 1.0, 1.01, 1.02):
            warm = solve_mean_interval(diff, R, 2.0, DiscGrid(R, R / 32), slot).values
            fresh = solve_mean_interval(diff, R, 2.0, DiscGrid(R, R / 32)).values
            assert np.max(np.abs(warm - fresh)) <= 1e-12 * np.max(np.abs(fresh))
        assert sorted(slot.solved) == [0.0, math.log(1.01), math.log(1.02)]

    def test_other_lattice_is_solved_fresh(self):
        slot = FactorSlot()
        solve_mean_interval(UNIT, 1.0, 0.0, DiscGrid(1.0, 1.0 / 16), slot)
        held = slot.lu
        f = solve_mean_interval(UNIT, 1.2, 0.0, DiscGrid(1.2, 1.2 / 24), slot)
        assert slot.lu is not held and slot.lattice is f.grid._lattice
        # the first lattice's solution is dropped with its factor
        assert list(slot.solved) == [math.log(1.2)]
        assert slot.solved[math.log(1.2)].size == slot.lu.shape[0]

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
        # the 2 scan radii below the cost floor, each factored, then 22
        # golden-section probes
        assert counts["solve"] == 24
        assert counts["factor"] - 2 < 22 / 2

    def test_interpolated_start_cuts_lu_solves(self, monkeypatch):
        # the same search, its warm solves started from zero instead
        class Counted:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                solves[-1] += 1
                return self.lu.solve(rhs)

        mob = default_mobility(2.0)
        cost = costs.CostParams(lam=2.0, U=20.0, V=1.0)
        factor = pde._factor
        monkeypatch.setattr(pde, "_factor", lambda A: Counted(factor(A)))
        solves, results, interpolated = [], [], pde._start
        for start in (interpolated, lambda solved, lr: 0.0 * interpolated(solved, lr)):
            monkeypatch.setattr(pde, "_start", start)
            solves.append(0)
            results.append(costs.joint_optimize(mob, cost, "pde", pde_nodes=16))
        assert results[0].r_opt == results[1].r_opt
        assert solves[0] < 0.6 * solves[1]


class TestSurvival:
    def test_starts_at_one_exactly(self):
        grid = DiscGrid(1.0, 1.0 / 32)
        c = solve_survival(UNIT, (0.0, 0.0), 1.0, grid, TimeGrid(0.5, 100))
        assert c[0] == 1.0

    @pytest.mark.parametrize("t_max", [math.nan, math.inf, 0.0])
    def test_time_grid_rejects_bad_horizon(self, t_max):
        # a NaN horizon used to be accepted
        with pytest.raises(DomainError, match="t_max"):
            TimeGrid(t_max, 10)

    @pytest.mark.parametrize("steps, ok", [(2.5, False), (10.0, False), (0, False),
                                           (np.int64(10), True), (True, False),
                                           (None, False), ("3", False)])
    def test_time_grid_steps_must_be_an_integer(self, steps, ok):
        # a fractional step count used to fail on TimeGrid.times
        if ok:
            assert TimeGrid(0.3, steps).times.size == 11
        else:
            with pytest.raises(DomainError, match="steps must be an integer"):
                TimeGrid(0.3, steps)

    @pytest.mark.parametrize("t_max, steps", [(1e-310, 10), (5e-324, 2)])
    def test_time_grid_rejects_step_without_finite_reciprocal(self, t_max, steps):
        # the marches factor at call rate 1/dt: an infinite rate would give
        # NaN survival and density, and dt = 0 a division by zero
        with pytest.raises(DomainError, match="time step"):
            TimeGrid(t_max, steps)

    @pytest.mark.parametrize("t_max", [1.0, 1e300])
    def test_time_grid_rejects_step_count_past_float_range(self, t_max):
        # t_max / steps raised a raw OverflowError
        with pytest.raises(DomainError, match="steps must be at most"):
            TimeGrid(t_max, 10**400)

    @pytest.mark.parametrize("steps", [10**300, 2**60 - 1, 2**63])
    def test_time_grid_rejects_step_count_past_array_size(self, steps):
        # .times raised a raw ValueError from np.linspace, and a march would
        # have failed the same way at np.empty(steps + 1)
        with pytest.raises(DomainError, match="no array holds its times"):
            TimeGrid(1.0, steps)
        assert TimeGrid(1.0, 2**60 - 2).steps == 2**60 - 2  # 2^63 - 8 bytes of times

    @pytest.mark.parametrize("R", [1e-3, 1.0])
    @pytest.mark.parametrize("k", [0.5, 20.0])
    def test_smallest_accepted_step_marches_finitely(self, k, R):
        # 1/dt is the largest float below overflow: the right sides -g/dt
        # and -z/dt stay finite, and one step moves nothing
        diff = compute_diffusion(default_mobility(k))
        grid = DiscGrid(R, R / 16)
        tg = TimeGrid(math.nextafter(1.0 / sys.float_info.max, 1.0), 1)
        assert math.isfinite(1.0 / tg.dt) and 1.0 / tg.dt > 1e308
        X = (0.1 * R, 0.0)
        np.testing.assert_array_equal(solve_survival(diff, X, R, grid, tg), [1.0, 1.0])
        fwd = solve_forward(diff, X, R, grid, tg, [tg.t_max])
        assert np.all(np.isfinite(fwd.fields[-1].values))
        assert fwd.masses[-1] == pytest.approx(1.0, rel=1e-12)

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
            solve_forward(UNIT, X, 1.0, grid, tg, [tg.t_max])
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
            solve_forward(UNIT, (0.1, 0.0), R, grid, tg, [tg.t_max])

    def test_monotone_and_bounded(self):
        grid = DiscGrid(1.0, 1.0 / 32)
        c = solve_survival(UNIT, (0.3, 0.0), 1.0, grid, TimeGrid(1.5, 300))
        assert np.all(np.diff(c) <= 1e-12)
        assert np.all((c >= 0.0) & (c <= 1.0))

    def test_integral_identity(self):
        # integral of the survival curve equals the zero-rate mean interval
        grid = DiscGrid(1.0, 1.0 / 48)
        tg = TimeGrid(4.0, 2000)
        c = solve_survival(UNIT, (0.0, 0.0), 1.0, grid, tg)
        direct = solve_mean_interval(UNIT, 1.0, 0.0, grid).value_at((0.0, 0.0))
        val = float(np.trapezoid(c, tg.times))
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


def scratch_step(diff, grid, dt):
    """Oracle for one march step: the fold of the call-free operator, with
    ``I - dt H`` built by sparse arithmetic and factored afresh; and the map
    from every node to its half-disc row."""
    half, fold = scratch_half(assemble_operator(diff, grid, 0.0), grid)
    return spla.splu(sp.identity(half.shape[0], format="csc") - dt * half), fold


class TestHalfDiscMarch:
    @pytest.mark.parametrize("N", [16, 31])
    @pytest.mark.parametrize("k", [0.5, 20.0])
    def test_one_step_matches_inverse_oracle(self, k, N):
        # a step of the survival march is (I - dt H)^-1 and one of the
        # density march its transpose, whatever family the factor is of
        diff = compute_diffusion(default_mobility(k))
        grid = DiscGrid(1.0, 1.0 / N)
        tg = TimeGrid(0.01, 1)
        lu, fold = scratch_step(diff, grid, tg.dt)
        g = lu.solve(np.ones(lu.shape[0]))[fold]
        for i in grid.nearest_node_index([-0.5, 0.0, 0.3, 0.2], [0.0, 0.4, -0.2, 0.7]):
            curve = solve_survival(diff, (grid.x[i], grid.y[i]), 1.0, grid, tg)
            assert curve[1] == pytest.approx(g[i], rel=1e-13)
        src = grid.nearest_node_index([-0.4], [0.0])[0]
        W = np.bincount(fold)
        z = np.zeros(W.size)
        z[fold[src]] = 1.0 / grid.h**2
        p = (lu.solve(z, trans="T") / W)[fold]
        fwd = solve_forward(diff, (grid.x[src], 0.0), 1.0, grid, tg, [tg.dt])
        assert np.max(np.abs(fwd.fields[-1].values - p)) <= 1e-13 * np.max(p)

    @pytest.mark.parametrize("k", [0.5, 20.0])
    def test_one_step_is_the_mean_interval_at_rate_1_over_dt(self, k):
        # (H - I/dt) g = -1/dt and (H - I/dt) T = -1 share one factor
        diff = compute_diffusion(default_mobility(k))
        grid = DiscGrid(1.0, 1.0 / 32)
        dt = 0.01
        i = grid.nearest_node_index([-0.4], [0.0])[0]
        X = (grid.x[i], grid.y[i])
        g = solve_survival(diff, X, 1.0, grid, TimeGrid(dt, 1))[1]
        T = solve_mean_interval(diff, 1.0, 1.0 / dt, grid).value_at(X)
        assert g == pytest.approx(T / dt, rel=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("k", [0.0, 0.5, 20.0])
    def test_matches_full_disc_march(self, k):
        diff = compute_diffusion(default_mobility(k))
        grid = DiscGrid(1.0, 1.0 / 24)
        tg = TimeGrid(0.3, 30)
        i = grid.nearest_node_index([-0.4], [0.0])[0]
        X = (grid.x[i], grid.y[i])
        survival, densities = full_disc_march(diff, grid, X, tg)
        fwd = solve_forward(diff, X, 1.0, grid, tg, output_times=[0.0, 0.1, 0.3])
        for t, field, mass in zip(fwd.times, fwd.fields, fwd.masses):
            ref = densities[int(round(t / tg.dt))]
            assert np.max(np.abs(field.values - ref)) <= 1e-12 * np.max(ref)
            assert mass == pytest.approx(ref.sum() * grid.h**2, rel=1e-12)
        curve = solve_survival(diff, X, 1.0, grid, tg)
        np.testing.assert_allclose(curve, survival, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", [0.0, 0.5, 20.0])
    def test_off_axis_survival_matches_full_disc_march(self, k):
        # G is mirror-symmetric from any start; only the density needs the axis
        diff = compute_diffusion(default_mobility(k))
        grid = DiscGrid(1.0, 1.0 / 24)
        tg = TimeGrid(0.3, 30)
        survival, _ = full_disc_march(diff, grid, (0.23, 0.17), tg)
        curve = solve_survival(diff, (0.23, 0.17), 1.0, grid, tg)
        np.testing.assert_allclose(curve, survival, rtol=1e-12, atol=0)

    def test_off_axis_density_start_rejected(self):
        grid = DiscGrid(1.0, 1.0 / 24)
        with pytest.raises(DomainError, match="road axis"):
            solve_forward(UNIT, (0.3, 0.1), 1.0, grid, TimeGrid(0.2, 50), [0.2])


class TestForward:
    def test_initial_mass_at_source(self):
        grid = DiscGrid(1.0, 1.0 / 24)
        fwd = solve_forward(UNIT, (0.3, 0.0), 1.0, grid, TimeGrid(0.2, 50),
                            output_times=[0.0, 0.2])
        p0 = fwd.fields[0].values
        src = grid.nearest_node_index([0.3], [0.0])[0]
        assert p0[src] == pytest.approx(1.0 / grid.h**2)
        assert fwd.masses[0] == pytest.approx(1.0)

    def test_mass_equals_survival(self):
        diff = compute_diffusion(default_mobility(2.0))
        grid = DiscGrid(1.0, 1.0 / 40)
        tg = TimeGrid(0.4, 160)
        i = grid.nearest_node_index([-0.5], [0.0])[0]
        X = (grid.x[i], grid.y[i])
        curve = solve_survival(diff, X, 1.0, grid, tg)
        fwd = solve_forward(diff, X, 1.0, grid, tg,
                            output_times=[0.1, 0.2, 0.4])
        for t_out, mass in zip(fwd.times, fwd.masses):
            g = curve[int(round(t_out / tg.dt))]
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

    @pytest.mark.parametrize("mu", [1e-20, 1e-16, 1e-12, 1e-8, 1e-4, 1e-2])
    def test_argmax_small_drift_series(self, mu):
        # the difference (1 - e^-u) / u - 1 cancels below u = g L ~ 1e-8
        # (it gives 0.6163 at mu = 1e-16 and -0.0 at 1e-20); with u = 2 mu
        # here, the series to u^5 is the truth within 1e-19
        u = 2.0 * mu
        truth = 0.5 - u / 24 + u**3 / 2880 - u**5 / 181440
        assert segment_argmax(mu, 1.0, 1.0) == pytest.approx(truth, rel=1e-15, abs=0)
        assert segment_argmax(-mu, 1.0, 1.0) == pytest.approx(1.0 - truth, rel=1e-15,
                                                              abs=0)

    def test_strong_drift_argmax_trails_at_weak_drift(self):
        # a tiny forward drift moves the segment maximizer upstream of the centre
        diff = compute_diffusion(default_mobility(1e-10))
        assert diff.mu1 > 0.0
        assert approx.strong_drift_argmax(diff, 1.0) <= 0.0

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
        # u = g L = 2e18: (1 - e^-u) / u - 1 rounds to -1, where log1p raises
        # ValueError; the argmax is log(u) / g to 1e-300 relative
        u = 2e18
        assert segment_argmax(1e9, 1e-9, 1.0) == pytest.approx(math.log(u) / u, rel=1e-15)

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
        # the interval divided by zero at sigma = 0, and went negative for
        # a negative sigma or length
        for sigma, L in [(0.0, 1.0), (-1.0, 1.0), (1.0, -1.0)]:
            with pytest.raises(DomainError):
                segment_interval(1.0, sigma, L, 0.5)
        # a point off the segment gave a negative interval: -0.8647 at
        # x = 2 and -1.4872 at x = -0.5 on [0, 1]
        for mu in (1.0, 0.0, -1.0):
            for x in (2.0, -0.5, np.array([0.5, 1.5]), np.array([0.5, math.nan])):
                with pytest.raises(DomainError, match=r"x must lie in \[0, L\]"):
                    segment_interval(mu, 1.0, 1.0, x)
        with pytest.raises(DomainError):
            segment_interval(1.0, 1.0, np.array([1.0, 2.0]), np.array([0.5, 2.5]))

    @pytest.mark.parametrize("mu", [0.0, 0.7, -0.7])
    def test_infinite_segment_refused(self, mu):
        # the interval returned inf at every drift, and the argmax without drift
        with pytest.raises(DomainError):
            segment_argmax(mu, 1.0, math.inf)
        with pytest.raises(DomainError):
            segment_interval(mu, 1.0, math.inf, 0.5)
        with pytest.raises(DomainError):
            segment_interval(mu, 1.0, np.array([1.0, math.inf]), 0.5)

    @pytest.mark.parametrize("mu, sigma, L", [
        (1e300, 1e-10, 1.0), (-1e300, 1e-10, 1.0), (1e300, 1.0, 1e300),
        (1.0, math.inf, 1.0), (5e-324, 10.0, 1.0),
    ])
    def test_argmax_rejects_drift_scale_out_of_float_range(self, mu, sigma, L):
        # g = 2 mu / sigma or g L past the float range gave NaN or inf, and
        # one that underflowed to 0 a ZeroDivisionError
        with pytest.raises(DomainError, match="out of float range"):
            segment_argmax(mu, sigma, L)
