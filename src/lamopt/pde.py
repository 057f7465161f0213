"""Finite-difference solutions of the exit-time equations on a disc.

The disc is embedded in a Cartesian lattice; nodes strictly inside carry
unknowns and the zero boundary condition is imposed on the circle itself
through shortened one-sided stencils at cut cells.  Three problems share one
spatial operator ``L = s11/2 d_xx + s22/2 d_yy + mu1 d_x + mu2 d_y``:

* stationary mean update interval:  ``L T - lam T = -1``, T = 0 on the circle;
* survival probability:             ``dG/dt = L G``,  G(.,0) = 1;
* surviving-position density:       ``dp/dt = L* p``, p(.,0) = delta.

The density problem is stepped with the transpose of the survival operator,
which makes the discrete mass identity  ``integral p(.,t) = G(X,t)``  exact up
to solver residual for matching time grids.

The direction law is symmetric about the preferred road direction, so the
drift has no transverse part (``mu2 = 0``) and the lattice is symmetric in
the row index j.  The mean-interval system is then exactly mirror-symmetric
in y, and ``solve_mean_interval`` solves it on the upper half disc only
(j >= 0), folding the j < 0 columns onto their mirror nodes.  Every factor
uses one LU helper, ``_factor``: a minimum-degree ordering of ``A^T + A``
(about half the fill of the default column ordering on this stencil) with
diagonal pivots preferred, which is safe on these M-matrix operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from lamopt.errors import DegenerateDiffusionError, DomainError, NumericalError
from lamopt.mobility import DiffusionParams

_RESIDUAL_TARGET = 1e-10


# ---------------------------------------------------------------------------
# grid and fields
# ---------------------------------------------------------------------------

class DiscGrid:
    """Cartesian lattice restricted to the open disc of radius R.

    Nodes sit at integer multiples of the spacing ``h`` (the origin is always
    a node).  For every node and axis direction the grid stores either the
    neighboring node or the distance to the circle along that direction.
    """

    def __init__(self, R: float, h: float | None = None):
        if R <= 0.0:
            raise DomainError(f"radius must be > 0, got {R}")
        if h is None:
            h = R / 64.0
        if h <= 0.0 or h > R / 2.0:
            raise DomainError(f"spacing {h} incompatible with radius {R}")
        self.R = float(R)
        self.h = float(h)

        n = int(math.floor(R / h))
        if (n * h) ** 2 >= R * R:
            n -= 1
        self._n = n
        side = 2 * n + 1
        ii, jj = np.meshgrid(np.arange(-n, n + 1), np.arange(-n, n + 1),
                             indexing="ij")
        inside = (ii * h) ** 2 + (jj * h) ** 2 < R * R
        self._index2d = np.full((side, side), -1, dtype=np.int64)
        self._index2d[inside] = np.arange(int(inside.sum()))
        self.i = ii[inside]
        self.j = jj[inside]
        self.x = self.i * h
        self.y = self.j * h
        self.n_nodes = self.x.size

        def shifted(di: int, dj: int) -> np.ndarray:
            ip = self.i + di + n
            jp = self.j + dj + n
            ok = (ip >= 0) & (ip < side) & (jp >= 0) & (jp < side)
            out = np.full(self.n_nodes, -1, dtype=np.int64)
            out[ok] = self._index2d[ip[ok], jp[ok]]
            return out

        self.east = shifted(1, 0)
        self.west = shifted(-1, 0)
        self.north = shifted(0, 1)
        self.south = shifted(0, -1)
        # The node at (i, -j): always inside, since the inside test is even in j.
        self.mirror = self._index2d[self.i + n, n - self.j]

        # Distance to the neighbor or, when it falls outside, to the circle.
        bx = np.sqrt(np.maximum(R * R - self.y**2, 0.0))
        by = np.sqrt(np.maximum(R * R - self.x**2, 0.0))
        tiny = 1e-12 * h
        self.he = np.where(self.east >= 0, h, np.maximum(bx - self.x, tiny))
        self.hw = np.where(self.west >= 0, h, np.maximum(self.x + bx, tiny))
        self.hn = np.where(self.north >= 0, h, np.maximum(by - self.y, tiny))
        self.hs = np.where(self.south >= 0, h, np.maximum(self.y + by, tiny))

        self.is_boundary_adjacent = (
            (self.east < 0) | (self.west < 0) | (self.north < 0) | (self.south < 0)
        )

    def node_index(self, i: int, j: int) -> int:
        """Index of lattice node (i, j), or -1 if outside the disc."""
        n = self._n
        if abs(i) > n or abs(j) > n:
            return -1
        return int(self._index2d[i + n, j + n])

    def nearest_node_index(self, xs, ys) -> np.ndarray:
        """Vectorized nearest-node lookup with an inward search fallback."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        n = self._n
        ii = np.clip(np.rint(xs / self.h).astype(np.int64), -n, n)
        jj = np.clip(np.rint(ys / self.h).astype(np.int64), -n, n)
        idx = self._index2d[ii + n, jj + n]
        for miss in np.nonzero(idx < 0)[0]:
            best, best_d2 = -1, np.inf
            for di in range(-2, 3):
                for dj in range(-2, 3):
                    cand = self.node_index(int(ii[miss]) + di, int(jj[miss]) + dj)
                    if cand >= 0:
                        d2 = (self.x[cand] - xs[miss]) ** 2 + (self.y[cand] - ys[miss]) ** 2
                        if d2 < best_d2:
                            best, best_d2 = cand, d2
            if best < 0:
                raise DomainError(f"point ({xs[miss]}, {ys[miss]}) too far outside the disc")
            idx[miss] = best
        return idx

    def nearest_node_point(self, X) -> tuple[float, float]:
        idx = int(self.nearest_node_index([X[0]], [X[1]])[0])
        return float(self.x[idx]), float(self.y[idx])

    def interpolation_weights(self, X):
        """Bilinear weights for an interior point; falls back to nearest node
        when a stencil corner lies outside the disc."""
        x0, y0 = float(X[0]), float(X[1])
        if x0 * x0 + y0 * y0 >= self.R**2:
            raise DomainError(f"point {X} is not inside the disc")
        fi, fj = x0 / self.h, y0 / self.h
        i0, j0 = math.floor(fi), math.floor(fj)
        tx, ty = fi - i0, fj - j0
        corners = [
            (self.node_index(i0, j0), (1 - tx) * (1 - ty)),
            (self.node_index(i0 + 1, j0), tx * (1 - ty)),
            (self.node_index(i0, j0 + 1), (1 - tx) * ty),
            (self.node_index(i0 + 1, j0 + 1), tx * ty),
        ]
        if all(idx >= 0 for idx, _ in corners):
            return corners
        idx = int(self.nearest_node_index([x0], [y0])[0])
        return [(idx, 1.0)]


@dataclass
class ScalarField:
    """Values on the interior nodes of a DiscGrid; zero on the circle."""

    grid: DiscGrid
    values: np.ndarray

    def value_at(self, X) -> float:
        return float(sum(w * self.values[idx]
                         for idx, w in self.grid.interpolation_weights(X)))

    def axis_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, value) along the preferred-direction axis (y = 0)."""
        on_axis = self.grid.j == 0
        order = np.argsort(self.grid.x[on_axis])
        return self.grid.x[on_axis][order], self.values[on_axis][order]

    def axis_argmax(self) -> float:
        """x of the maximum along y = 0, refined by a parabolic fit."""
        xs, vals = self.axis_profile()
        b = int(np.argmax(vals))
        if 0 < b < xs.size - 1:
            denom = vals[b - 1] - 2 * vals[b] + vals[b + 1]
            if denom < 0:
                return float(xs[b] + 0.5 * self.grid.h * (vals[b - 1] - vals[b + 1]) / denom)
        return float(xs[b])

    def integral(self) -> float:
        return float(self.values.sum() * self.grid.h**2)

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("x_km,y_km,value\n")
            for x, y, v in zip(self.grid.x, self.grid.y, self.values):
                f.write(f"{x:.10g},{y:.10g},{v:.10g}\n")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time discretization for the evolution problems."""

    t_max: float
    steps: int = 200

    def __post_init__(self) -> None:
        if self.t_max <= 0.0 or self.steps < 1:
            raise DomainError("t_max must be > 0 and steps >= 1")

    @property
    def dt(self) -> float:
        return self.t_max / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps + 1)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def assemble_operator(diff: DiffusionParams, grid: DiscGrid,
                      lam: float = 0.0) -> sp.csr_matrix:
    """Assemble ``L - lam I`` with Dirichlet-0 closure on the circle.

    Second-order central differences everywhere; the drift term switches to
    a one-sided difference at nodes whose cell Peclet number exceeds 2, which
    keeps the matrix an M-matrix in strongly drifted regimes.
    """
    if diff.sigma11 <= 0.0 or diff.sigma22 <= 0.0:
        raise DegenerateDiffusionError(
            "sigma11 and sigma22 must be > 0 for the disc solver"
        )
    if abs(diff.sigma12) > 1e-9 * max(diff.sigma11, diff.sigma22):
        raise DegenerateDiffusionError(
            "cross-diffusion is not supported (axis-sym direction law expected)"
        )
    if lam < 0.0:
        raise DomainError(f"call rate must be >= 0, got {lam}")

    n = grid.n_nodes
    diag = np.full(n, -float(lam))
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []

    def add_axis(neg_idx, pos_idx, h_neg, h_pos, s_coef, mu_coef):
        nonlocal diag
        # diffusion: one-sided-capable 3-point second difference
        c_pos = 2.0 * s_coef / (h_pos * (h_neg + h_pos))
        c_neg = 2.0 * s_coef / (h_neg * (h_neg + h_pos))
        diag += -2.0 * s_coef / (h_neg * h_pos)
        # drift: central below the Peclet threshold, one-sided above
        pe = np.abs(mu_coef) * np.maximum(h_neg, h_pos) / s_coef
        central = pe <= 2.0
        d_pos = np.where(central, mu_coef * h_neg / (h_pos * (h_neg + h_pos)), 0.0)
        d_neg = np.where(central, -mu_coef * h_pos / (h_neg * (h_neg + h_pos)), 0.0)
        d_diag = np.where(central, mu_coef * (h_pos - h_neg) / (h_neg * h_pos), 0.0)
        if mu_coef > 0.0:
            d_pos = np.where(central, d_pos, mu_coef / h_pos)
            d_diag = np.where(central, d_diag, -mu_coef / h_pos)
        elif mu_coef < 0.0:
            d_neg = np.where(central, d_neg, -mu_coef / h_neg)
            d_diag = np.where(central, d_diag, mu_coef / h_neg)
        diag += d_diag
        for nbr, coef in ((pos_idx, c_pos + d_pos), (neg_idx, c_neg + d_neg)):
            ok = nbr >= 0
            rows.append(np.nonzero(ok)[0])
            cols.append(nbr[ok])
            data.append(coef[ok])

    add_axis(grid.west, grid.east, grid.hw, grid.he, diff.sigma11 / 2.0, diff.mu1)
    add_axis(grid.south, grid.north, grid.hs, grid.hn, diff.sigma22 / 2.0, diff.mu2)

    all_rows = np.concatenate(rows + [np.arange(n)])
    all_cols = np.concatenate(cols + [np.arange(n)])
    all_data = np.concatenate(data + [diag])
    return sp.coo_matrix((all_data, (all_rows, all_cols)), shape=(n, n)).tocsr()


def _check_residual(A: sp.spmatrix, sol: np.ndarray, rhs: np.ndarray) -> float:
    res = float(np.max(np.abs(A @ sol - rhs)))
    scale = max(1.0, float(np.max(np.abs(sol))))
    if res > _RESIDUAL_TARGET * scale:
        cond_proxy = float(np.max(np.abs(rhs))) / max(res, 1e-300)
        raise NumericalError(
            f"linear solve residual {res:.3e} exceeds target; "
            f"rhs/residual ratio {cond_proxy:.3e} suggests ill-conditioning"
        )
    return res


def _factor(A: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of a disc operator, ``L - lam I``, its half-disc fold, or
    ``I - dt L``.

    The minimum-degree ordering of ``A^T + A`` suits the symmetric pattern
    of the five-point stencil; symmetric mode prefers diagonal pivots, which
    is safe because each of these matrices is an M-matrix up to sign, and
    elimination on one never meets a zero diagonal pivot.
    """
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     options={"SymmetricMode": True})


# ---------------------------------------------------------------------------
# stationary mean update interval
# ---------------------------------------------------------------------------

def solve_mean_interval(diff: DiffusionParams, R: float, lam: float,
                        grid: DiscGrid | None = None) -> ScalarField:
    """Solve the stationary equation for the mean update interval T(X).

    ``s11/2 T_xx + s22/2 T_yy + mu1 T_x + mu2 T_y - lam T = -1`` with T = 0
    on the circle of radius R.

    With ``mu2 = 0`` the discrete system is mirror-symmetric in y, so only
    the rows of the nodes with j >= 0 are kept, the column of each j < 0 node
    is added onto its mirror node's, and the half solution is mirrored back.
    The residual is checked against the full operator.

    Returns:
        ScalarField of T over the grid; nonnegative, and bounded by 1/lam
        when ``lam > 0``.

    Raises:
        DegenerateDiffusionError: a transverse drift ``mu2`` breaks the
            mirror symmetry.
    """
    if grid is None:
        grid = DiscGrid(R)
    if abs(grid.R - R) > 1e-12 * R:
        raise DomainError("grid radius does not match R")
    if abs(diff.mu2) > 1e-9 * max(abs(diff.mu1), diff.sigma11, diff.sigma22):
        raise DegenerateDiffusionError(
            "transverse drift is not supported (axis-sym direction law expected)"
        )
    A = assemble_operator(diff, grid, lam)
    rhs = np.full(grid.n_nodes, -1.0)
    upper = grid.j >= 0
    # fold[k]: position, among the j >= 0 nodes, of node k or of its mirror
    upper_node = np.where(upper, np.arange(grid.n_nodes), grid.mirror)
    fold = (np.cumsum(upper) - 1)[upper_node]
    A_up = A[upper]
    n_up = A_up.shape[0]
    half = sp.csr_matrix((A_up.data, fold[A_up.indices], A_up.indptr),
                         shape=(n_up, n_up))
    half.sum_duplicates()  # a j = 0 row meets its j = 1 neighbour twice
    T = _factor(half).solve(rhs[upper])[fold]
    _check_residual(A, T, rhs)
    if np.min(T) < -1e-9:
        raise NumericalError(f"negative mean interval {np.min(T):.3e}")
    if lam > 0.0 and np.max(T) > 1.0 / lam + 1e-9:
        raise NumericalError("mean interval exceeds the 1/lam bound")
    return ScalarField(grid=grid, values=T)


# ---------------------------------------------------------------------------
# survival probability and forward density
# ---------------------------------------------------------------------------

@dataclass
class SurvivalCurve:
    """P(exit time >= t) at a fixed start point, on a uniform time grid."""

    times: np.ndarray
    values: np.ndarray
    start: tuple[float, float]

    def integral(self) -> float:
        """Trapezoid integral of the curve: the mean exit time when the
        horizon covers the decay."""
        return float(np.trapezoid(self.values, self.times))

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("t_hr,survival\n")
            for t, g in zip(self.times, self.values):
                f.write(f"{t:.10g},{g:.10g}\n")


def solve_survival(diff: DiffusionParams, X, R: float, grid: DiscGrid,
                   tgrid: TimeGrid) -> SurvivalCurve:
    """Backward-equation survival probability G(X, t) by implicit stepping.

    G starts at 1 inside the disc and decays monotonically; the curve is
    evaluated at X by bilinear interpolation (exact when X is a node).
    """
    x0, y0 = float(X[0]), float(X[1])
    if x0 * x0 + y0 * y0 >= R * R:
        raise DomainError(f"start point {X} is not inside the disc")
    A = assemble_operator(diff, grid, 0.0)
    stepper = _factor(sp.identity(grid.n_nodes) - tgrid.dt * A)
    weights = grid.interpolation_weights((x0, y0))
    g = np.ones(grid.n_nodes)
    out = np.empty(tgrid.steps + 1)
    out[0] = 1.0
    for s in range(1, tgrid.steps + 1):
        g = stepper.solve(g)
        out[s] = sum(w * g[idx] for idx, w in weights)
    if np.any(out < -1e-9) or np.any(out > 1.0 + 1e-9):
        raise NumericalError("survival probability escaped [0, 1]")
    return SurvivalCurve(times=tgrid.times, values=np.clip(out, 0.0, 1.0),
                         start=(x0, y0))


@dataclass
class ForwardSolution:
    """Surviving-position density snapshots and their integrated mass."""

    times: np.ndarray
    fields: list[ScalarField]
    masses: np.ndarray
    source_index: int


def solve_forward(diff: DiffusionParams, X, R: float, grid: DiscGrid,
                  tgrid: TimeGrid, output_times=None) -> ForwardSolution:
    """Forward-equation density of the not-yet-exited terminal.

    The point start is a unit mass on the nearest node divided by the cell
    area.  Stepping uses the transpose of the survival operator, so the mass
    ``sum(p) h^2`` reproduces the survival probability at the source node
    exactly (up to solver residual) on the same time grid.
    """
    x0, y0 = float(X[0]), float(X[1])
    if x0 * x0 + y0 * y0 >= R * R:
        raise DomainError(f"start point {X} is not inside the disc")
    if output_times is None:
        output_times = [tgrid.t_max]
    src = int(grid.nearest_node_index([x0], [y0])[0])
    A = assemble_operator(diff, grid, 0.0)
    stepper = _factor(sp.identity(grid.n_nodes) - tgrid.dt * A)

    out_steps = sorted({int(round(t / tgrid.dt)) for t in output_times})
    if any(s < 0 or s > tgrid.steps for s in out_steps):
        raise DomainError("output times must lie within the time grid")

    p = np.zeros(grid.n_nodes)
    p[src] = 1.0 / grid.h**2
    times, fields, masses = [], [], []

    def record(step: int) -> None:
        if np.min(p) < -1e-12:
            raise NumericalError(f"density undershoot {np.min(p):.3e}")
        times.append(step * tgrid.dt)
        fields.append(ScalarField(grid=grid, values=p.copy()))
        masses.append(float(p.sum() * grid.h**2))

    if 0 in out_steps:
        record(0)
    for s in range(1, max(out_steps) + 1 if out_steps else 1):
        p = stepper.solve(p, trans="T")
        if s in out_steps:
            record(s)
    return ForwardSolution(times=np.array(times), fields=fields,
                           masses=np.array(masses), source_index=src)


# ---------------------------------------------------------------------------
# general call-arrival laws
# ---------------------------------------------------------------------------

class ExponentialArrival:
    """Memoryless call gap with the given rate (per hour)."""

    def __init__(self, rate: float):
        if rate <= 0.0:
            raise DomainError("rate must be > 0; use NeverArrival for rate 0")
        self.rate = rate

    def survival(self, t):
        return np.exp(-self.rate * np.asarray(t, dtype=float))

    def tail_integral(self, t: float) -> float:
        return math.exp(-self.rate * t) / self.rate


class DeterministicArrival:
    """Call gap fixed at a constant delay."""

    def __init__(self, at: float):
        if at < 0.0:
            raise DomainError("delay must be >= 0")
        self.at = at
        self.support_end = at  # survival drops to zero here

    def survival(self, t):
        return (np.asarray(t, dtype=float) <= self.at).astype(float)

    def tail_integral(self, t: float) -> float:
        return max(self.at - t, 0.0)


class NeverArrival:
    """No calls: the update interval is the bare exit time."""

    def survival(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def tail_integral(self, t: float) -> float:
        return math.inf


def mean_interval_general(curve: SurvivalCurve, arrival,
                          rel_tol: float = 1e-4) -> float:
    """Mean update interval for a general call-arrival law.

    Integrates ``G(X, t) P(gap >= t)`` over the sampled horizon by the
    trapezoid rule and bounds the truncated tail; the survival curve must be
    sampled densely enough for the requested relative accuracy.

    Raises:
        NumericalError: the estimated tail beyond the horizon exceeds
            ``rel_tol`` of the integral (extend the horizon).
    """
    times, values = curve.times, curve.values
    support_end = getattr(arrival, "support_end", math.inf)
    if support_end < times[-1]:
        # integrate only up to the survival cutoff, splitting the last cell
        k = int(np.searchsorted(times, support_end, side="right"))
        g_cut = float(np.interp(support_end, times, values))
        times = np.concatenate([times[:k], [support_end]])
        values = np.concatenate([values[:k], [g_cut]])
    integrand = values * arrival.survival(times)
    value = float(np.trapezoid(integrand, times))
    g_end = float(curve.values[-1])
    arr_tail = arrival.tail_integral(float(curve.times[-1]))
    if math.isinf(arr_tail):
        # Bound the exit-time tail by fitting the terminal exponential decay.
        tail = g_end * _decay_time(curve)
    else:
        tail = g_end * arr_tail
    if tail > rel_tol * max(value, 1e-300):
        raise NumericalError(
            f"truncated tail {tail:.3e} exceeds {rel_tol:.0e} of {value:.3e}; extend t_max"
        )
    return value


def _decay_time(curve: SurvivalCurve) -> float:
    """Terminal e-folding time of the survival curve (conservative)."""
    v = curve.values
    n = v.size
    a, b = int(0.8 * n), n - 1
    if v[b] <= 0.0:
        return 0.0
    if v[a] <= v[b] or v[a] <= 0.0:
        return math.inf
    rate = math.log(v[a] / v[b]) / (curve.times[b] - curve.times[a])
    return 1.0 / rate if rate > 0 else math.inf


# ---------------------------------------------------------------------------
# one-dimensional interval on a segment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneDimSolution:
    """Mean update interval on the segment [0, L] with absorbing ends."""

    mu: float
    sigma: float
    L: float
    lam: float
    x_opt: float
    t_opt: float = field(init=False)
    _coeffs: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_coeffs", _oned_coeffs(self.mu, self.sigma,
                                                         self.L, self.lam))
        object.__setattr__(self, "t_opt", float(self.interval(self.x_opt)))

    def interval(self, x):
        """T(x) for x in [0, L]; exact closed form."""
        return _oned_eval(self._coeffs, self.mu, self.sigma, self.L,
                          self.lam, np.asarray(x, dtype=float))


def _oned_coeffs(mu: float, sigma: float, L: float, lam: float):
    if lam == 0.0:
        return ()
    disc = math.sqrt(mu * mu + 2.0 * sigma * lam)
    r_pos = (-mu + disc) / sigma
    r_neg = (-mu - disc) / sigma
    # T = 1/lam + A exp(r_pos (x - L)) + B exp(r_neg x); both exponents <= 0.
    m = np.array([[math.exp(-r_pos * L), 1.0], [1.0, math.exp(r_neg * L)]])
    ab = np.linalg.solve(m, np.array([-1.0 / lam, -1.0 / lam]))
    return (r_pos, r_neg, float(ab[0]), float(ab[1]))


def _oned_eval(coeffs, mu, sigma, L, lam, x):
    if np.any(x < -1e-12) or np.any(x > L + 1e-12):
        raise DomainError("x outside [0, L]")
    x = np.clip(x, 0.0, L)
    if lam > 0.0:
        r_pos, r_neg, a, b = coeffs
        return 1.0 / lam + a * np.exp(r_pos * (x - L)) + b * np.exp(r_neg * x)
    if mu == 0.0:
        return x * (L - x) / sigma
    if mu < 0.0:
        return _oned_eval(coeffs, -mu, sigma, L, lam, L - x)
    g = 2.0 * mu / sigma
    denom = -math.expm1(-g * L)
    return (L * (-np.expm1(-g * x)) - x * denom) / (mu * denom)


def solve_1d(mu: float, sigma: float, L: float, lam: float = 0.0) -> OneDimSolution:
    """Mean update interval on [0, L]: ``(sigma/2) T'' + mu T' - lam T = -1``.

    For ``lam == 0`` the solution and its maximizer are closed forms (the
    driftless case reduces to ``x (L - x) / sigma``); for ``lam > 0`` the
    two-exponential solution is built and the maximizer found numerically.
    """
    if sigma <= 0.0 or L <= 0.0:
        raise DomainError("sigma and L must be > 0")
    if lam < 0.0:
        raise DomainError("lam must be >= 0")
    if lam == 0.0:
        x_opt = _oned_argmax_closed(mu, sigma, L)
    else:
        # Importing scipy.optimize adds about 17 MB of RSS and 0.2 s of
        # start-up (2-core Xeon VM); nothing else in the package needs it.
        from scipy.optimize import minimize_scalar

        sol_tmp = _oned_coeffs(mu, sigma, L, lam)
        res = minimize_scalar(
            lambda x: -float(_oned_eval(sol_tmp, mu, sigma, L, lam, x)),
            bounds=(0.0, L), method="bounded",
            options={"xatol": 1e-12 * L},
        )
        x_opt = float(res.x)
    return OneDimSolution(mu=mu, sigma=sigma, L=L, lam=lam, x_opt=x_opt)


def _oned_argmax_closed(mu: float, sigma: float, L: float) -> float:
    if mu == 0.0:
        return L / 2.0
    if mu < 0.0:
        return L - _oned_argmax_closed(-mu, sigma, L)
    g = 2.0 * mu / sigma
    # argmax of the drifted closed form: -(1/g) log((1 - e^{-gL}) / (gL)),
    # evaluated via log1p for accuracy deep into the small-drift limit.
    u_minus_1 = (-math.expm1(-g * L) - g * L) / (g * L)
    return -math.log1p(u_minus_1) / g
