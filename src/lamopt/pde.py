"""Finite-difference solutions of the exit-time equations on a disc.

The disc is embedded in a Cartesian lattice; nodes strictly inside carry
unknowns and the zero boundary condition is imposed on the circle itself
through shortened one-sided stencils at cut cells.  Three problems share one
spatial operator ``L = s11/2 d_xx + s22/2 d_yy + mu1 d_x``:

* stationary mean update interval:  ``L T - lam T = -1``, T = 0 on the circle;
* survival probability:             ``dG/dt = L G``,  G(.,0) = 1;
* surviving-position density:       ``dp/dt = L* p``, p(.,0) = delta.

The road is the +x axis and ``DiffusionParams`` carries no transverse drift
and no cross-diffusion, so the operator has no ``d_y`` or ``d_xy`` term.
With the lattice symmetric in the row index j, the discrete operator maps
mirror-symmetric fields (``v(i, -j) = v(i, j)``) to mirror-symmetric
fields, and all three problems are solved on the upper half disc only
(j >= 0): the half operator ``H`` keeps the rows of the j >= 0 nodes and
adds the column of each j < 0 node onto its mirror node's.  ``T`` and
``G`` are symmetric (their data are), so ``H T - lam T = -1`` and
``G <- (I - dt H)^-1 G`` give them exactly.  The density is symmetric when
it starts on the road axis, and its transposed step folds through
``W = F^T F``, the number of nodes that fold onto each half node (1 on the
axis, 2 above it): ``F^T (I - dt L)^T F = (I - dt H)^T W``, so
``z = W p_half`` steps as ``z <- (I - dt H)^-T z``, ``p = z / W`` on the
half disc and its mass is ``sum(z) h^2``.

Every factor uses one LU helper, ``_factor``: a minimum-degree ordering of
``A^T + A`` (about half the fill of the default column ordering on this
stencil) in SuperLU's symmetric mode.  That mode does not force diagonal
pivots: ``DiagPivotThresh`` stays at 1.0, so a diagonal entry is kept as
the pivot only where it is its column's largest, and some factors pivot
off the diagonal (``perm_r != perm_c`` at N = 64, R = 1, k = 0).  A radius
search may hand ``solve_mean_interval`` a ``FactorSlot``: a nearby radius
on the same lattice is then solved by iterative refinement on the factor
the slot holds, and factored afresh only when refinement stalls.
``scipy.sparse`` is imported inside the functions that build or factor a
matrix, so commands that never solve on the disc do not load it.

A grid's node set is decided in integers, and everything that depends on
it alone (indices, the fold, the sparsity patterns and the half system's
minimum-degree order) is built once per node set, in a memoized
``_Lattice``; the nodes of ``DiscGrid(R, R/N)`` depend on N only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from lamopt.errors import DegenerateDiffusionError, DomainError, NumericalError
from lamopt.mobility import DiffusionParams

if TYPE_CHECKING:
    import scipy.sparse as sp

_RESIDUAL_TARGET = 1e-10
# Iterative refinement on a nearby factor stops at this residual, relative
# to max(1, max|x|), and gives up on any sweep that cuts the residual by
# less than _REFINE_MIN_GAIN.
_REFINE_RTOL = 1e-12
_REFINE_MIN_GAIN = 10.0


# ---------------------------------------------------------------------------
# grid and fields
# ---------------------------------------------------------------------------

# A lattice point whose i^2 + j^2 is within this relative distance of
# (R/h)^2 lies on the circle and is left out: as a node, one of its cut
# distances would be round-off, and its stencil weights about 1/round-off.
_ON_CIRCLE_RTOL = 1e-9


class _Lattice:
    """Integer structure of the lattice points ``i^2 + j^2 <= K``.

    Everything here depends on the node set only, so one instance serves
    every DiscGrid with the same ``K``, whatever its radius and spacing: the
    node and mirror indices, the CSR pattern of the full operator and the
    CSC pattern of the half system.  The arrays are shared, and read-only.
    """

    def __init__(self, K: int):
        n = math.isqrt(K)
        side = 2 * n + 1
        ii, jj = np.meshgrid(np.arange(-n, n + 1), np.arange(-n, n + 1),
                             indexing="ij")
        inside = ii**2 + jj**2 <= K
        self.n = n
        self.index2d = np.full((side, side), -1, dtype=np.intc)
        self.index2d[inside] = np.arange(int(inside.sum()))
        self.i = ii[inside].astype(np.intc)
        self.j = jj[inside].astype(np.intc)
        self.n_nodes = self.i.size

        def shifted(di: int, dj: int) -> np.ndarray:
            ip = self.i + di + n
            jp = self.j + dj + n
            ok = (ip >= 0) & (ip < side) & (jp >= 0) & (jp < side)
            out = np.full(self.n_nodes, -1, dtype=np.intc)
            out[ok] = self.index2d[ip[ok], jp[ok]]
            return out

        # Nodes are numbered by i, then j, so the columns of a row sort as
        # (west, south, the node itself, north, east): the CSR pattern of
        # the operator is this table without its missing neighbours.
        stencil = np.column_stack((shifted(-1, 0), shifted(0, -1),
                                   np.arange(self.n_nodes, dtype=np.intc),
                                   shifted(0, 1), shifted(1, 0)))
        self.present = stencil >= 0
        self.indices = stencil[self.present]
        self.indptr = np.concatenate(([0], np.cumsum(self.present.sum(axis=1))),
                                     dtype=np.intc)
        # The node at (i, -j): always inside, since the inside test is even in j.
        self.mirror = self.index2d[self.i + n, n - self.j]
        _read_only(self.index2d, self.i, self.j, self.present, self.indices,
                   self.indptr, self.mirror)

    @functools.cached_property
    def half_pattern(self):
        """``(indptr, indices, src, slot, unfold)`` of the half system in CSC form.

        The half system keeps the rows of the j >= 0 nodes and adds each
        j < 0 column onto its mirror node's.  It is stored symmetrically
        permuted by its minimum-degree order, so that ``_factor`` can skip
        the ordering step: entry ``src[e]`` of the full CSR data adds into
        entry ``slot[e]`` of the half CSC data, and ``unfold`` maps the
        permuted half solution back onto every node.
        """
        upper = self.j >= 0
        n_up = int(np.count_nonzero(upper))
        # fold[k]: position, among the j >= 0 nodes, of node k or of its mirror
        fold = (np.cumsum(upper, dtype=np.intc) - 1)[
            np.where(upper, np.arange(self.n_nodes), self.mirror)]
        rows = np.repeat(np.arange(self.n_nodes, dtype=np.intc), np.diff(self.indptr))
        src = np.flatnonzero(upper[rows]).astype(np.intc)
        h_row, h_col = fold[rows[src]], fold[self.indices[src]]
        del rows
        import scipy.sparse as sp

        # The order depends on the pattern only; these values make the fold
        # strictly diagonally dominant, so the ordering factor cannot fail.
        probe = sp.csc_matrix((np.where(h_row == h_col, -5.0, 1.0), (h_row, h_col)),
                              shape=(n_up, n_up))
        rank = _factor(probe).perm_c.astype(np.int64)
        del probe
        keys, slot = np.unique(rank[h_col] * n_up + rank[h_row], return_inverse=True)
        cols, rows_p = np.divmod(keys, n_up)
        h_indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n_up))))
        return _read_only(h_indptr.astype(np.intc), rows_p.astype(np.intc), src,
                          slot.astype(np.intc), rank[fold].astype(np.intc))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=4)
def _lattice(K: int) -> _Lattice:
    return _Lattice(K)


class DiscGrid:
    """Cartesian lattice restricted to the open disc of radius R.

    Nodes sit at integer multiples of the spacing ``h`` (the origin is always
    a node).  For every node and axis direction the grid stores either the
    neighboring node or the distance to the circle along that direction.

    The node set is decided in integers: ``(i, j)`` is a node when
    ``i^2 + j^2`` is below ``(R/h)^2`` by more than a relative
    ``_ON_CIRCLE_RTOL``, so points on the circle are never nodes, and the
    nodes of ``DiscGrid(R, R/N)`` depend on N only.  Their integer structure
    is one memoized ``_Lattice``; a grid adds only the float geometry.
    """

    def __init__(self, R: float, h: float):
        if R <= 0.0:
            raise DomainError(f"radius must be > 0, got {R}")
        if h <= 0.0 or h > R / 2.0:
            raise DomainError(f"spacing {h} incompatible with radius {R}")
        self.R = float(R)
        self.h = float(h)

        # Largest integer below (R/h)^2 (1 - rtol): the bound on i^2 + j^2.
        lat = _lattice(math.ceil((R / h) ** 2 * (1.0 - _ON_CIRCLE_RTOL)) - 1)
        self._lattice = lat
        self.i = lat.i
        self.j = lat.j
        self.mirror = lat.mirror
        self.x = self.i * h
        self.y = self.j * h
        self.n_nodes = lat.n_nodes

        # Distance to the neighbor or, when it falls outside, to the circle.
        west, south, _, north, east = lat.present.T
        bx = np.sqrt(np.maximum(R * R - self.y**2, 0.0))
        by = np.sqrt(np.maximum(R * R - self.x**2, 0.0))
        tiny = 1e-12 * h
        self.he = np.where(east, h, np.maximum(bx - self.x, tiny))
        self.hw = np.where(west, h, np.maximum(self.x + bx, tiny))
        self.hn = np.where(north, h, np.maximum(by - self.y, tiny))
        self.hs = np.where(south, h, np.maximum(self.y + by, tiny))

    def node_index(self, i: int, j: int) -> int:
        """Index of lattice node (i, j), or -1 if outside the disc."""
        n = self._lattice.n
        if abs(i) > n or abs(j) > n:
            return -1
        return int(self._lattice.index2d[i + n, j + n])

    def nearest_node_index(self, xs, ys) -> np.ndarray:
        """Vectorized nearest-node lookup with an inward search fallback."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        n = self._lattice.n
        ii = np.clip(np.rint(xs / self.h).astype(np.int64), -n, n)
        jj = np.clip(np.rint(ys / self.h).astype(np.int64), -n, n)
        idx = self._lattice.index2d[ii + n, jj + n]
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
        if not x0 * x0 + y0 * y0 < self.R**2:  # a NaN coordinate fails too
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

    def axis_argmax(self) -> float:
        """x of the maximum along y = 0, refined by a parabolic fit."""
        on_axis = self.grid.j == 0
        order = np.argsort(self.grid.x[on_axis])
        xs, vals = self.grid.x[on_axis][order], self.values[on_axis][order]
        b = int(np.argmax(vals))
        if 0 < b < xs.size - 1:
            denom = vals[b - 1] - 2 * vals[b] + vals[b + 1]
            if denom < 0:
                return float(xs[b] + 0.5 * self.grid.h * (vals[b - 1] - vals[b + 1]) / denom)
        return float(xs[b])


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

    Second-order central differences everywhere; the drift term (along x
    only) switches to a one-sided difference at nodes whose cell Peclet
    number exceeds 2, which keeps the matrix an M-matrix in strongly drifted
    regimes.
    """
    if diff.sigma11 <= 0.0 or diff.sigma22 <= 0.0:
        raise DegenerateDiffusionError(
            "sigma11 and sigma22 must be > 0 for the disc solver"
        )
    if lam < 0.0:
        raise DomainError(f"call rate must be >= 0, got {lam}")

    diag = np.full(grid.n_nodes, -float(lam))

    def second_difference(h_neg, h_pos, s_coef):
        """Weights (neg, center, pos) of the one-sided-capable 3-point stencil."""
        return (2.0 * s_coef / (h_neg * (h_neg + h_pos)),
                -2.0 * s_coef / (h_neg * h_pos),
                2.0 * s_coef / (h_pos * (h_neg + h_pos)))

    # x, the road axis: diffusion plus drift, central below the Peclet
    # threshold and one-sided above
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
    west, east = c_neg + d_neg, c_pos + d_pos
    # y, across the road: diffusion only
    south, c_diag, north = second_difference(grid.hs, grid.hn, diff.sigma22 / 2.0)
    diag += c_diag

    import scipy.sparse as sp

    lat = grid._lattice
    data = np.column_stack((west, south, diag, north, east))[lat.present]
    return sp.csr_matrix((data, lat.indices, lat.indptr), shape=(grid.n_nodes,) * 2)


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


def _factor(A: sp.spmatrix, permc_spec: str = "MMD_AT_PLUS_A"):
    """Sparse LU of a disc operator ``L - lam I``, its half-disc fold, or
    the fold's backward-Euler step ``I - dt H``.

    The minimum-degree ordering of ``A^T + A`` suits the symmetric pattern
    of the five-point stencil.  Symmetric mode applies it to rows and
    columns alike, but with ``DiagPivotThresh`` left at 1.0 SuperLU keeps a
    diagonal pivot only where it is its column's largest entry; elsewhere it
    pivots off the diagonal, which adds fill.  A matrix already permuted by
    that order is factored with ``permc_spec="NATURAL"``.

    Returns:
        The ``scipy.sparse.linalg.SuperLU`` factor.
    """
    from scipy.sparse.linalg import splu  # 0.1-0.5 s to import; only solves need it

    return splu(A.tocsc(), permc_spec=permc_spec,
                options={"SymmetricMode": True})


# ---------------------------------------------------------------------------
# stationary mean update interval
# ---------------------------------------------------------------------------

def _half_system(A: sp.csr_matrix, grid: DiscGrid) -> tuple[sp.csc_matrix, np.ndarray]:
    """The half-disc fold of an assembled operator, permuted by the
    lattice's stored order (a j = 0 row meets its j = 1 neighbour twice),
    and the map from its solution to every node."""
    indptr, indices, src, slot, unfold = grid._lattice.half_pattern
    import scipy.sparse as sp

    data = np.bincount(slot, weights=A.data[src], minlength=indices.size)
    half = sp.csc_matrix((data, indices, indptr), shape=(indptr.size - 1,) * 2)
    return half, unfold


class FactorSlot:
    """The last half-system factor of one radius search, for its next solve.

    A search creates its own slot, passes it to each ``solve_mean_interval``
    call, and drops it when it ends, so no factor outlives the search.
    """

    def __init__(self) -> None:
        self.lattice: _Lattice | None = None
        self.lu = None


def _refine(lu, H: sp.csc_matrix, b: np.ndarray) -> np.ndarray | None:
    """Solve ``H x = b`` by iterative refinement on ``lu``, the factor of a
    nearby matrix, or return None once a sweep cuts the residual by less
    than ``_REFINE_MIN_GAIN`` (a NaN residual included)."""
    x = lu.solve(b)
    r = b - H @ x
    res = float(np.max(np.abs(r)))
    while not res <= _REFINE_RTOL * max(1.0, float(np.max(np.abs(x)))):
        x += lu.solve(r)
        r = b - H @ x
        last, res = res, float(np.max(np.abs(r)))
        if not res <= last / _REFINE_MIN_GAIN:
            return None
    return x


def _check_disc(grid: DiscGrid, R: float, X=None) -> tuple[float, float] | None:
    """Refuse a grid built for a radius other than ``R`` and, when given, a
    start point ``X`` not strictly inside the disc; returns ``X`` as floats.
    A NaN radius or coordinate fails too."""
    if not abs(grid.R - R) <= 1e-12 * R:
        raise DomainError(f"grid radius {grid.R:g} does not match R = {R:g}")
    if X is None:
        return None
    x0, y0 = float(X[0]), float(X[1])
    if not x0 * x0 + y0 * y0 < R * R:
        raise DomainError(f"start point {X} is not inside the disc")
    return x0, y0


def solve_mean_interval(diff: DiffusionParams, R: float, lam: float,
                        grid: DiscGrid, warm: FactorSlot | None = None) -> ScalarField:
    """Solve the stationary equation for the mean update interval T(X).

    ``s11/2 T_xx + s22/2 T_yy + mu1 T_x - lam T = -1`` with T = 0 on the
    circle of radius R.

    The operator has no y-odd term, so the discrete system is
    mirror-symmetric in y: only the rows of the nodes with j >= 0 are kept,
    the column of each j < 0 node is added onto its mirror node's, and the
    half solution is mirrored back.  The half system is factored in the
    minimum-degree order the grid's lattice stores.  When ``warm`` holds a
    factor on the same lattice, the half system is first solved by
    refinement on that factor; either way ``warm`` ends up holding the
    factor used.  The residual is checked against the full operator.

    Returns:
        ScalarField of T over the grid; nonnegative, and bounded by 1/lam
        when ``lam > 0``.
    """
    _check_disc(grid, R)
    A = assemble_operator(diff, grid, lam)
    rhs = np.full(grid.n_nodes, -1.0)
    half, unfold = _half_system(A, grid)
    b = np.full(half.shape[0], -1.0)
    T_half = None
    if warm is not None and warm.lattice is grid._lattice:
        T_half = _refine(warm.lu, half, b)
    if T_half is None:
        lu = _factor(half, "NATURAL")
        T_half = lu.solve(b)
        if warm is not None:
            warm.lattice, warm.lu = grid._lattice, lu
    T = T_half[unfold]
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


def _half_step(diff: DiffusionParams, grid: DiscGrid, dt: float):
    """LU of ``I - dt H``, one backward-Euler step on the half-disc fold H
    of the call-free operator, and the map from half nodes to every node."""
    import scipy.sparse as sp

    half, unfold = _half_system(assemble_operator(diff, grid, 0.0), grid)
    step = sp.identity(half.shape[0], format="csc") - dt * half
    return _factor(step, "NATURAL"), unfold


def solve_survival(diff: DiffusionParams, X, R: float, grid: DiscGrid,
                   tgrid: TimeGrid) -> SurvivalCurve:
    """Backward-equation survival probability G(X, t) by implicit stepping.

    G starts at 1 inside the disc and decays monotonically; it is
    mirror-symmetric in y, so it is stepped on the half disc.  The curve is
    evaluated at X by bilinear interpolation (exact when X is a node).
    Its integral is the call-free mean interval, ``integral_0^inf G(X, t) dt
    = T(X)`` at ``lam = 0``, which ``validate`` checks against
    ``solve_mean_interval``.
    """
    x0, y0 = _check_disc(grid, R, X)
    stepper, unfold = _half_step(diff, grid, tgrid.dt)
    weights = [(unfold[idx], w) for idx, w in grid.interpolation_weights((x0, y0))]
    g = np.ones(stepper.shape[0])
    out = np.empty(tgrid.steps + 1)
    out[0] = 1.0
    for s in range(1, tgrid.steps + 1):
        g = stepper.solve(g)
        out[s] = sum(w * g[idx] for idx, w in weights)
    if np.any(out < -1e-9) or np.any(out > 1.0 + 1e-9):
        raise NumericalError("survival probability escaped [0, 1]")
    return SurvivalCurve(times=tgrid.times, values=np.clip(out, 0.0, 1.0))


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
    area.  It must lie on the road axis (y = 0), where the density stays
    mirror-symmetric, so that it is stepped on the half disc.  Stepping uses
    the transpose of the survival operator, so the mass ``sum(p) h^2``
    reproduces the survival probability at the source node exactly (up to
    solver residual) on the same time grid.
    """
    x0, y0 = _check_disc(grid, R, X)
    if y0 != 0.0:
        raise DomainError(f"start point {X} is off the road axis; the density "
                          "march needs y = 0")
    if output_times is None:
        output_times = [tgrid.t_max]
    src = int(grid.nearest_node_index([x0], [y0])[0])
    stepper, unfold = _half_step(diff, grid, tgrid.dt)

    out_steps = sorted({int(round(t / tgrid.dt)) for t in output_times})
    if any(s < 0 or s > tgrid.steps for s in out_steps):
        raise DomainError("output times must lie within the time grid")

    # z = W p on the half disc, W = 1 on the axis and 2 above it
    W = np.bincount(unfold, minlength=stepper.shape[0])
    z = np.zeros(W.size)
    z[unfold[src]] = 1.0 / grid.h**2
    times, fields, masses = [], [], []

    def record(step: int) -> None:
        p = (z / W)[unfold]
        if np.min(p) < -1e-12:
            raise NumericalError(f"density undershoot {np.min(p):.3e}")
        times.append(step * tgrid.dt)
        fields.append(ScalarField(grid=grid, values=p))
        masses.append(float(z.sum() * grid.h**2))

    if 0 in out_steps:
        record(0)
    for s in range(1, max(out_steps) + 1 if out_steps else 1):
        z = stepper.solve(z, trans="T")
        if s in out_steps:
            record(s)
    return ForwardSolution(times=np.array(times), fields=fields,
                           masses=np.array(masses), source_index=src)


# ---------------------------------------------------------------------------
# one-dimensional interval on a segment
# ---------------------------------------------------------------------------

# Below this g L the segment form is summed as a series: the closed form's
# numerator is a difference of terms equal to first order, and loses about
# eps / (g L) relative.  The series' terms fall faster than 2 (n - 1) / n!
# there, so 20 of them leave less than 1e-18.
_SEGMENT_SERIES_GL = 1.0
_SEGMENT_SERIES_TERMS = 20


def segment_interval(mu: float, sigma: float, L, x):
    """Solution of ``(sigma/2) T'' + mu T' = -1``, ``T(0) = T(L) = 0``, at x.

    Every exponent is nonpositive.  ``L`` may hold one length per point (the
    chords of ``approx``'s strong-drift form); a zero-length segment gives 0.
    With ``g = 2 |mu| / sigma``, ``a = g L`` and ``b = g x`` (x measured
    from the upstream end), points with ``a < _SEGMENT_SERIES_GL`` use
    ``T = x (L - x) / sigma * a / (1 - e^-a) * sum_{n >= 2} (-1)^n 2
    h_{n-2}(a, b) / n!``, where ``h_m(a, b) = sum_{i <= m} a^(m-i) b^i``.
    """
    if mu < 0.0:
        return segment_interval(-mu, sigma, L, L - x)
    if mu == 0.0:
        return x * (L - x) / sigma
    g = 2.0 * mu / sigma
    a = g * L
    denom = -np.expm1(-a)
    safe = np.where(denom > 0.0, denom, 1.0)
    closed = (L * (-np.expm1(-g * x)) - x * denom) / (mu * safe)

    # the series, with a and b capped where the closed form is taken
    a_s = np.minimum(a, _SEGMENT_SERIES_GL)
    b_s = np.minimum(g * x, _SEGMENT_SERIES_GL)
    h, b_pow, fact, total = 1.0, 1.0, 2.0, 1.0
    for n in range(3, _SEGMENT_SERIES_TERMS + 2):
        b_pow = b_pow * b_s
        h = a_s * h + b_pow
        fact *= n
        total = total + (-1) ** n * 2.0 * h / fact
    scale = np.where(denom > 0.0, a / safe, 1.0)
    series = x * (L - x) / sigma * scale * total
    return np.where(a < _SEGMENT_SERIES_GL, series, closed)[()]


def segment_argmax(mu: float, sigma: float, L: float) -> float:
    """Maximizer of ``segment_interval`` over ``[0, L]``: ``L / 2`` without
    drift, else ``-(1/g) log((1 - e^{-gL}) / (gL))`` with ``g = 2 mu / sigma``,
    evaluated via log1p for accuracy deep into the small-drift limit."""
    if sigma <= 0.0 or L <= 0.0:
        raise DomainError("sigma and L must be > 0")
    if mu == 0.0:
        return L / 2.0
    if mu < 0.0:
        return L - segment_argmax(-mu, sigma, L)
    g = 2.0 * mu / sigma
    u_minus_1 = (-math.expm1(-g * L) - g * L) / (g * L)
    return -math.log1p(u_minus_1) / g
