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
adds the column of each j < 0 node onto its mirror node's.  ``T`` and ``G``
are symmetric (their data are), so the half system gives them exactly.

Every system is built by one constructor, ``_disc_system(diff, grid,
rate)``.  It computes the stencil once for the j >= 0 rows whose four
neighbours are nodes and once for each j >= 0 rim row, and gathers that
table straight into ``H - rate I``, bit for bit the fold of
``assemble_operator(diff, grid, rate)``, and into the j >= 0 rows of
``L - rate I``, against which the mean interval's residual is checked.
The j < 0 rows are their exact mirrors, so that is the full-disc check.
``assemble_operator`` remains the full-disc view of the same stencil, for
the referees.  Every factor is of this one family, factored by
``_factor``.  The mean interval takes ``rate = lam``.
A backward-Euler step takes ``rate = 1/dt``, since
``I - dt H = -dt (H - I/dt)``, and steps as ``G <- (H - I/dt)^-1 (-G/dt)``;
``TimeGrid`` refuses a step whose reciprocal is not finite.  The density is
symmetric when it starts on the road axis, and its transposed step folds
through ``W = F^T F``, the number of nodes that fold onto each half node
(1 on the axis, 2 above it):
``F^T (L - rate I)^T F = (H - rate I)^T W``, so ``z = W p_half h^2`` steps
as ``z <- (H - I/dt)^-T (-z/dt)``, ``p = z / (W h^2)`` on the half disc and
its mass is ``sum(z)``.  ``_factor`` factors in the minimum-degree order of
``A^T + A`` (about half the fill of the default column ordering on this
stencil) in SuperLU's symmetric mode, with every pivot on the diagonal
(``perm_r == perm_c``) and one column per panel; its docstring says why.
A radius search on one lattice may hand ``solve_mean_interval`` a
``FactorSlot``: a nearby radius is then solved by iterative refinement on
the factor the slot holds, from the interpolant in log R of the solutions
the search has solved, and factored afresh only when refinement would cost
more than a factor.
``scipy.sparse`` is imported where a matrix is built or factored, the
lattice's ordering probe included, so commands that never build a disc grid
do not load it.

``DiscGrid(R, R/N)`` is the unit-spacing lattice of radius N scaled by
``h``.  All that depends on N alone is built once per N, by the constructor
of a memoized ``_Lattice``: the nodes, the spacings of the rows the stencil
is computed on, and with them the fold, its ordered half pattern,
``unfold`` and ``W``.  So the geometry
obeys ``T_R(x) = R^2 T_1(x/R)`` (drift ``mu1 R``, call rate ``lam R^2``) by
construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from lamopt.errors import DomainError, NumericalError, require_int
from lamopt.mobility import DiffusionParams

if TYPE_CHECKING:
    import scipy.sparse as sp

_RESIDUAL_TARGET = 1e-10
# Iterative refinement on a nearby factor stops at this residual, relative
# to max(1, max|x|), and gives up once the solves taken plus those its last
# sweep's contraction projects exceed _REFINE_MAX_SOLVES: about one factor's
# cost at N = 64, where a factor took as long as 18 solves with their
# residuals, and a fresh factor serves the probes after it better.
_REFINE_RTOL = 1e-12
_REFINE_MAX_SOLVES = 12


# ---------------------------------------------------------------------------
# grid and fields
# ---------------------------------------------------------------------------

class _Lattice:
    """The nodes ``i^2 + j^2 < N^2`` of the disc of radius N at unit spacing,
    and the half system they fold into.

    Every ``DiscGrid(R, R/N)`` is this lattice scaled by its spacing, so one
    instance serves them all: the node indices and the CSR pattern of the
    full operator (``assemble_operator`` computes the spacings of every
    node, ``_cut``, on each call); for the j >= 0 nodes, the CSR
    pattern of their rows of the operator, with columns on every
    node (``row_indptr``, ``row_indices``).  The half system keeps those
    rows and adds each j < 0 column onto its mirror node's.  It is stored in
    CSC form (``half_indptr``, ``half_indices``), symmetrically permuted by
    its minimum-degree order, so that ``_factor`` can skip the ordering
    step.  Every j >= 0 row whose four neighbours are nodes has the same
    stencil, so a system's coefficient table has one row for them all and
    one per rim row (a j >= 0 row with a missing neighbour), at the unit
    spacings ``table_cut``; ``row_take``, ``half_take`` and ``twice`` /
    ``twice_take`` gather it into the rows and the half system.
    ``unfold`` maps the permuted half solution back onto every node, and
    ``W = F^T F``, the number of nodes that fold onto each half node, is 1
    on the axis and 2 above it.  The arrays are shared, and read-only.
    """

    def __init__(self, N: int):
        n = N - 1
        side = 2 * n + 1
        ii, jj = np.meshgrid(np.arange(-n, n + 1), np.arange(-n, n + 1),
                             indexing="ij")
        inside = ii**2 + jj**2 < N * N
        self.n = n
        self.index2d = np.full((side, side), -1, dtype=np.intc)
        self.index2d[inside] = np.arange(int(inside.sum()))
        self.i, self.j = ii[inside].astype(np.intc), jj[inside].astype(np.intc)
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

        # The fold: fold[k] is the position, among the j >= 0 nodes, of node
        # k or of its mirror (i, -j), always inside since the inside test is
        # even in j.
        upper = self.j >= 0
        n_up = int(np.count_nonzero(upper))
        mirror = self.index2d[self.i + n, n - self.j]
        fold = (np.cumsum(upper, dtype=np.intc) - 1)[
            np.where(upper, np.arange(self.n_nodes), mirror)]
        up_present = self.present[upper]
        self.row_indptr = np.concatenate(([0], np.cumsum(up_present.sum(axis=1))),
                                         dtype=np.intc)
        self.row_indices = self.indices[np.repeat(upper, np.diff(self.indptr))]
        h_row = np.repeat(np.arange(n_up, dtype=np.intc), np.diff(self.row_indptr))
        h_col = fold[self.row_indices]
        import scipy.sparse as sp
        from scipy.sparse.linalg import spilu

        # The order depends on the pattern only; these values make the fold
        # strictly diagonally dominant.  An incomplete factor that keeps no
        # fill orders it as a full LU would, in a third of the time or less.
        probe = sp.csc_matrix((np.where(h_row == h_col, -5.0, 1.0), (h_row, h_col)),
                              shape=(n_up, n_up))
        rank = spilu(probe, drop_tol=1.0, fill_factor=1.0, panel_size=1,
                     options={"ColPerm": "MMD_AT_PLUS_A", "SymmetricMode": True,
                              "DiagPivotThresh": 0.0}).perm_c.astype(np.int64)
        del probe
        keys, first, slot = np.unique(rank[h_col] * n_up + rank[h_row],
                                      return_index=True, return_inverse=True)
        cols, rows_p = np.divmod(keys, n_up)
        self.half_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(cols, minlength=n_up))), dtype=np.intc)
        self.half_indices = rows_p.astype(np.intc)

        # The coefficient table: row 0 is the stencil of every j >= 0 node
        # whose four neighbours are nodes (unit spacings), row 1 + r that of
        # the r-th j >= 0 node with a missing neighbour (a rim row).  Entry e
        # of the rows' CSR data reads table entry row_take[e]; it adds into
        # half entry slot[e], which a j = 0 row reaches twice (south and
        # north fold onto its j = 1 neighbour) and every other row once, so
        # each half entry takes the table entry of its first e (half_take;
        # np.unique's index is the first occurrence), plus that of its
        # second where there is one (twice, twice_take).
        # The maps are intp: numpy converts any other index type on
        # every gather, which tripled its time.
        rim = ~up_present.all(axis=1)
        on_rim = np.flatnonzero(upper)[rim]
        self.table_cut = np.column_stack((np.ones(4), self._cut(on_rim)))
        table_row = np.where(rim, np.cumsum(rim), 0)
        self.row_take = (5 * table_row[:, None] + np.arange(5, dtype=np.intp))[up_present]
        second = np.ones(slot.size, dtype=bool)
        second[first] = False
        self.half_take = self.row_take[first]
        self.twice, self.twice_take = slot[second], self.row_take[second]
        self.unfold = rank[fold].astype(np.intc)
        self.W = np.bincount(self.unfold, minlength=n_up)
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def _cut(self, nodes) -> np.ndarray:
        """East, west, north and south spacings of ``nodes``: the distance to
        the neighbour or, when it falls outside, to the circle, from exact
        integer radicands; ``N^2 - j^2 > i^2``, so that is more than
        ``1/(2N)``."""
        N = self.n + 1
        i, j = self.i[nodes].astype(np.int64), self.j[nodes].astype(np.int64)
        west, south, _, north, east = self.present[nodes].T
        bx, by = np.sqrt(N * N - j**2), np.sqrt(N * N - i**2)
        return np.where((east, west, north, south), 1.0, (bx - i, i + bx, by - j, j + by))


@functools.lru_cache(maxsize=4)
def _lattice(N: int) -> _Lattice:
    return _Lattice(N)


class DiscGrid:
    """Cartesian lattice restricted to the open disc of radius R.

    Nodes sit at integer multiples of the spacing ``h`` (the origin is always
    a node).  For every node and axis direction its lattice stores either the
    neighboring node or, in units of ``h``, the distance to the circle along
    that direction.

    The radius must be a whole number N of spacings, up to ``math.isclose``:
    the grid is the ``_Lattice`` of N scaled by ``h``, so ``(i, j)`` is a
    node when ``i^2 + j^2 < N^2`` and no point on the circle is one.
    """

    def __init__(self, R: float, h: float):
        if not (R > 0.0 and math.isfinite(R)):
            raise DomainError(f"radius must be finite and > 0, got {R}")
        if not 0.0 < h <= R / 2.0:
            raise DomainError(f"spacing {h} incompatible with radius {R}")
        ratio = R / h
        if not (math.isfinite(ratio) and math.isclose(ratio, round(ratio))):
            raise DomainError(f"radius {R} is not a whole number of spacings {h}")
        self.R, self.h = float(R), float(h)
        self._lattice = lat = _lattice(round(ratio))
        self.j, self.n_nodes = lat.j, lat.n_nodes
        self.x, self.y = lat.i * h, self.j * h

    def node_index(self, i: int, j: int) -> int:
        """Index of lattice node (i, j), or -1 if outside the disc."""
        n = self._lattice.n
        if abs(i) > n or abs(j) > n:
            return -1
        return int(self._lattice.index2d[i + n, j + n])

    def nearest_node_index(self, xs, ys) -> np.ndarray:
        """Index of the node nearest each point: the rounded lattice point
        when it is a node, else the nearest node (lowest index on a tie)."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        n = self._lattice.n
        ii = np.clip(np.rint(xs / self.h).astype(np.int64), -n, n)
        jj = np.clip(np.rint(ys / self.h).astype(np.int64), -n, n)
        idx = self._lattice.index2d[ii + n, jj + n]
        for miss in np.nonzero(idx < 0)[0]:
            idx[miss] = np.argmin((self.x - xs[miss]) ** 2 + (self.y - ys[miss]) ** 2)
        return idx

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
        on_axis = self.grid.j == 0  # numbered by i, so in increasing x
        xs, vals = self.grid.x[on_axis], self.values[on_axis]
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
    steps: int

    def __post_init__(self) -> None:
        if not (self.t_max > 0.0 and math.isfinite(self.t_max)):
            raise DomainError(f"t_max must be finite and > 0, got {self.t_max}")
        require_int("steps", self.steps, 1)
        # .times holds steps + 1 8-byte floats, and numpy sizes no array of
        # more bytes than intp holds (a count past float range also
        # overflowed t_max / steps)
        max_steps = np.iinfo(np.intp).max // 8 - 1
        if self.steps > max_steps:
            raise DomainError(f"steps must be at most {max_steps}, or no array "
                              "holds its times")
        # the marches factor their system at call rate 1/dt
        if not (self.dt > 0.0 and math.isfinite(1.0 / float(self.dt))):
            raise DomainError(f"time step {self.dt:g} has no finite reciprocal")

    @property
    def dt(self) -> float:
        return self.t_max / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps + 1)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def _coefficients(diff: DiffusionParams, h_e: np.ndarray, h_w: np.ndarray,
                  h_n: np.ndarray, h_s: np.ndarray, rate: float):
    """The stencil of ``L - rate I`` at nodes with east, west, north and
    south spacings ``h_e``, ``h_w``, ``h_n`` and ``h_s``: the coefficients
    (west, south, diagonal, north, east), one array each.

    Second-order central differences everywhere; the drift term (along x
    only) switches to a one-sided difference at nodes whose cell Peclet
    number exceeds 2.  Either way every off-diagonal coefficient is >= 0
    and the five sum to ``-rate`` or less, so the matrix is an M-matrix up
    to sign, which ``_factor`` relies on to factor it without pivoting.
    Each node's coefficients depend on its own spacings alone.  The node
    (i, -j) has the spacings of (i, j), north and south swapped, and the
    y-stencil is symmetric in them (``h_n + h_s`` and ``h_n h_s`` are
    exact sums and products, which commute), so its row is the mirror of
    (i, j)'s to the bit.
    """
    if diff.sigma11 <= 0.0 or diff.sigma22 <= 0.0:
        raise DomainError(
            "sigma11 and sigma22 must be > 0 for the disc solver"
        )
    if not 0.0 <= rate < math.inf:  # a NaN rate fails too
        raise DomainError(f"call rate must be finite and >= 0, got {rate}")
    diag = np.full(h_e.size, -float(rate))

    def second_difference(h_neg, h_pos, s_coef):
        """Weights (neg, center, pos) of the one-sided-capable 3-point stencil."""
        return (2.0 * s_coef / (h_neg * (h_neg + h_pos)),
                -2.0 * s_coef / (h_neg * h_pos),
                2.0 * s_coef / (h_pos * (h_neg + h_pos)))

    # x, the road axis: diffusion plus drift, central below the Peclet
    # threshold and one-sided above
    h_neg, h_pos, s_coef, mu = h_w, h_e, diff.sigma11 / 2.0, diff.mu1
    c_neg, c_diag, c_pos = second_difference(h_neg, h_pos, s_coef)
    diag += c_diag
    central = abs(mu) * np.maximum(h_neg, h_pos) / s_coef <= 2.0
    up_pos, up_neg = max(mu, 0.0) / h_pos, max(-mu, 0.0) / h_neg
    d_pos = np.where(central, mu * h_neg / (h_pos * (h_neg + h_pos)), up_pos)
    d_neg = np.where(central, -mu * h_pos / (h_neg * (h_neg + h_pos)), up_neg)
    diag += np.where(central, mu * (h_pos - h_neg) / (h_neg * h_pos), -up_pos - up_neg)
    west, east = c_neg + d_neg, c_pos + d_pos
    # y, across the road: diffusion only
    south, c_diag, north = second_difference(h_s, h_n, diff.sigma22 / 2.0)
    diag += c_diag
    return west, south, diag, north, east


def assemble_operator(diff: DiffusionParams, grid: DiscGrid,
                      lam: float = 0.0) -> sp.csr_matrix:
    """Assemble ``L - lam I`` on every node, with Dirichlet-0 closure on the
    circle: the full-disc view of ``_coefficients``.

    The solvers build only its j >= 0 rows (``_disc_system``); this view is
    the referee that ``validate`` and the tests solve and fold themselves.
    """
    import scipy.sparse as sp

    lat = grid._lattice
    cut = lat._cut(slice(None)) * grid.h
    data = np.column_stack(_coefficients(diff, *cut, lam))[lat.present]
    return sp.csr_matrix((data, lat.indices, lat.indptr), shape=(grid.n_nodes,) * 2)


def _disc_system(diff: DiffusionParams, grid: DiscGrid,
                 rate: float) -> tuple[sp.csc_matrix, sp.csr_matrix]:
    """The half system ``H - rate I`` and the j >= 0 rows of ``L - rate I``.

    The stencil is computed once for the j >= 0 rows whose four neighbours
    are nodes and once per rim row, from the lattice's unit spacings of
    those rows (``table_cut``) times ``h``, as ``assemble_operator`` takes
    ``_cut`` of every node.  ``_coefficients`` works element by element, so
    each row's coefficients are those ``assemble_operator`` computes for it,
    to the bit.  The table is gathered into the half system, each entry's
    first contribution then its second (a j = 0 row meets its j = 1
    neighbour twice) in the order the fold of ``assemble_operator(diff,
    grid, rate)`` adds them, so the half system is that fold bit for bit,
    and the full operator is built nowhere on this path.  Gathered with its
    columns on every node, the same table is the CSR of the j >= 0 rows,
    which ``solve_mean_interval`` checks its mirrored-back solution against.
    Those rows are the whole full-disc check: each j < 0 row is the mirror
    of a j > 0 row (``_coefficients``), and a solution read through
    ``unfold`` is mirror-symmetric.  A negative, infinite or NaN rate is
    refused with ``DomainError`` before any matrix is built.
    """
    lat = grid._lattice
    west, south, diag, north, east = _coefficients(diff, *(lat.table_cut * grid.h), rate)
    table = np.column_stack((west, south, diag, north, east)).ravel()
    import scipy.sparse as sp

    n_up = lat.W.size
    data = table[lat.half_take]
    data[lat.twice] += table[lat.twice_take]
    half = sp.csc_matrix((data, lat.half_indices, lat.half_indptr), shape=(n_up, n_up))
    rows = sp.csr_matrix((table[lat.row_take], lat.row_indices, lat.row_indptr),
                         shape=(n_up, grid.n_nodes))
    return half, rows


def _check_residual(A: sp.spmatrix, sol: np.ndarray, rhs: np.ndarray) -> None:
    """Refuse ``sol`` unless ``max|A sol - rhs|`` is within the target,
    relative to ``max(1, max|sol|)``; a NaN residual fails too."""
    res = float(np.max(np.abs(A @ sol - rhs)))
    scale = max(1.0, float(np.max(np.abs(sol))))
    if not res <= _RESIDUAL_TARGET * scale:
        cond_proxy = float(np.max(np.abs(rhs))) / max(res, 1e-300)
        raise NumericalError(
            f"linear solve residual {res:.3e} exceeds target; "
            f"rhs/residual ratio {cond_proxy:.3e} suggests ill-conditioning"
        )


def _factor(A: sp.spmatrix):
    """Sparse LU of ``H - rate I``, the half system of ``_disc_system(diff,
    grid, rate)``.

    ``H - rate I`` is an M-matrix up to sign: ``_coefficients`` gives its
    off-diagonal entries one sign, its diagonal the other and every row a
    sum of ``-rate`` or less, and the fold keeps all three, as it adds
    off-diagonal columns onto off-diagonal columns only.  Gaussian
    elimination factors such a matrix stably without row interchanges, so
    every pivot is taken on the diagonal (``DiagPivotThresh`` 0) and the
    fill is that of the ordering alone: the minimum degree of ``A^T + A``,
    which suits the stencil's symmetric pattern, applied to rows and
    columns alike in symmetric mode.  ``_Lattice`` computes that order with
    its nodes and stores the half pattern permuted by it, so this factor
    keeps the natural order of the matrix it is given.
    ``panel_size=1`` factors one column at a time, since the stencil's
    supernodes are too small for wider panels to pay off.

    Returns:
        The ``scipy.sparse.linalg.SuperLU`` factor.
    """
    from scipy.sparse.linalg import splu  # 0.1-0.5 s to import; only solves need it

    return splu(A.tocsc(), panel_size=1,
                options={"ColPerm": "NATURAL", "SymmetricMode": True,
                         "DiagPivotThresh": 0.0})


# ---------------------------------------------------------------------------
# stationary mean update interval
# ---------------------------------------------------------------------------

def mean_interval_cap(diff: DiffusionParams, R: float, lam: float,
                      at_origin: bool = False) -> float:
    """Bound on ``solve_mean_interval``'s T at every node, or at the origin
    node alone: ``-expm1(-lam W)/lam`` (W itself at ``lam = 0``), with
    ``W = min(R^2/sigma22, reach/|mu1|)`` and the reach ``2R``, or ``R`` at
    the origin.

    ``-L`` is an M-matrix, so its inverse is nonnegative (the discrete
    maximum principle), and any w with ``L w <= -1`` bounds the call-free
    interval T0 from above.  Two such supersolutions make W:
    ``(R^2 - y^2)/sigma22``, since the x-rows sum to zero, the 3-point
    y-difference is exact on quadratics (it gives ``-1``), and the Dirichlet
    zeros lie below its values on the circle; and, for ``mu1 != 0``,
    ``(R - x sgn mu1)/|mu1|``, since the second differences and both x-drift
    stencils, central and upwinded, are exact on linear functions (they give
    ``-1``), and it is >= 0 on the circle.  ``L`` is the generator of a
    killed continuous-time chain, so ``T = E[(1 - e^{-lam tau})/lam]`` and
    ``T0 = E tau`` over its killing time tau, and Jensen's inequality for
    the concave ``t -> (1 - e^{-lam t})/lam`` gives ``T <= -expm1(-lam
    T0)/lam``.  The cap is at most ``min(1/lam, W)``.
    """
    reach = R if at_origin else 2.0 * R
    W = min(R * R / diff.sigma22 if diff.sigma22 > 0.0 else math.inf,
            reach / abs(diff.mu1) if diff.mu1 != 0.0 else math.inf)
    return -math.expm1(-lam * W) / lam if lam > 0.0 else W


class FactorSlot:
    """The last half-system factor of one radius search, and the half
    solutions the search has solved, for its next solve.

    A search runs on one lattice (one node count N), and so does its slot.
    ``solved`` maps log R to the half solution divided by ``R^2``: on one
    lattice that is the unit-disc solution at drift ``mu1 R`` and call rate
    ``lam R^2``, smooth in log R.  A search creates its own slot, or a
    ``fork`` of the slot that solved its first probes, passes it to each
    ``solve_mean_interval`` call, and drops it when it ends, so no factor
    or solution outlives the search.  A slot handed a grid of another N
    fails loudly: no two N have the same number of half nodes, so the
    refinement's ``H @ x`` raises ``ValueError``.
    """

    def __init__(self) -> None:
        self.lu = None
        self.solved: dict[float, np.ndarray] = {}

    def fork(self) -> FactorSlot:
        """A new slot holding this one's factor and a copy of its solutions:
        a second search continues from the same probes, and what either
        search stores next, a new factor or a solution, stays its own."""
        other = FactorSlot()
        other.lu, other.solved = self.lu, dict(self.solved)
        return other


def _start(solved: dict[float, np.ndarray], lr: float) -> np.ndarray:
    """The quadratic Lagrange interpolant in log R, at ``lr``, of the three
    stored solutions nearest it (of all of them when fewer are stored).  The
    keys are distinct, so no weight divides by zero."""
    near = sorted(solved, key=lambda s: abs(s - lr))[:3]
    x = np.zeros_like(solved[near[0]])
    for s in near:
        x += math.prod((lr - t) / (s - t) for t in near if t != s) * solved[s]
    return x


def _refine(lu, H: sp.csc_matrix, b: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """Solve ``H x = b`` by iterative refinement on ``lu``, the factor of a
    nearby matrix, from ``x + lu.solve(b - H x)``; or return None once the
    solves taken plus those the last sweep's contraction projects exceed
    ``_REFINE_MAX_SOLVES`` (a NaN residual, or one that does not fall,
    included).  The first solve's drop is not projected: from a far start
    it is not the rate of the sweeps."""
    x = x + lu.solve(b - H @ x)
    last = math.inf
    for solves in range(1, _REFINE_MAX_SOLVES + 1):
        r = b - H @ x
        res = float(np.max(np.abs(r)))
        target = _REFINE_RTOL * max(1.0, float(np.max(np.abs(x))))
        if res <= target:
            return x
        if not res < last or (solves > 1 and solves + math.log(target / res)
                              / math.log(res / last) > _REFINE_MAX_SOLVES):
            return None
        x += lu.solve(r)
        last = res
    return None


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
    factor (of a radius search on this grid's lattice), the half system is
    first solved by refinement on that factor, from ``R^2`` times
    ``_start``'s interpolant of the stored solutions; either way ``warm``
    ends up holding the factor used and this solution.
    The residual of the mirrored-back solution is checked on the j >= 0
    rows of the unfolded operator, which ``_disc_system`` builds from the
    same table as the half system; the j < 0 rows are their mirrors.

    Returns:
        ScalarField of T over the grid; nonnegative, and at most
        ``mean_interval_cap`` up to a relative 1e-9, its origin form at the
        origin node.
    """
    _check_disc(grid, R)
    half, rows = _disc_system(diff, grid, lam)
    b = np.full(half.shape[0], -1.0)
    T_half = None
    lr = math.log(R)
    if warm is not None and warm.lu is not None:
        T_half = _refine(warm.lu, half, b, R * R * _start(warm.solved, lr))
    if T_half is None:
        lu = _factor(half)
        T_half = lu.solve(b)
        if warm is not None:
            warm.lu = lu
    T = T_half[grid._lattice.unfold]
    _check_residual(rows, T, np.full(rows.shape[0], -1.0))
    if np.min(T) < -1e-9:
        raise NumericalError(f"negative mean interval {np.min(T):.3e}")
    for t, cap in ((np.max(T), mean_interval_cap(diff, R, lam)),
                   (T[grid.node_index(0, 0)], mean_interval_cap(diff, R, lam, at_origin=True))):
        if t > cap * (1.0 + 1e-9):
            raise NumericalError(
                f"mean interval {t:.6g} exceeds its maximum-principle bound {cap:.6g}")
    if warm is not None:
        warm.solved[lr] = T_half / (R * R)
    return ScalarField(grid=grid, values=T)


# ---------------------------------------------------------------------------
# survival probability and forward density
# ---------------------------------------------------------------------------

def solve_survival(diff: DiffusionParams, X, R: float, grid: DiscGrid,
                   tgrid: TimeGrid) -> np.ndarray:
    """Backward-equation survival probability G(X, t) at ``tgrid.times``.

    G starts at 1 inside the disc and decays monotonically under implicit
    steps; it is mirror-symmetric in y, so it is stepped on the half disc.
    It is read at X by bilinear interpolation (exact when X is a node).
    Its integral is the call-free mean interval, ``integral_0^inf G(X, t) dt
    = T(X)`` at ``lam = 0``, which ``validate`` checks against
    ``solve_mean_interval``.
    """
    x0, y0 = _check_disc(grid, R, X)
    stepper = _factor(_disc_system(diff, grid, 1.0 / tgrid.dt)[0])
    unfold = grid._lattice.unfold
    weights = [(unfold[idx], w) for idx, w in grid.interpolation_weights((x0, y0))]
    g = np.ones(stepper.shape[0])
    out = np.empty(tgrid.steps + 1)
    out[0] = 1.0
    for s in range(1, tgrid.steps + 1):
        g = stepper.solve(-g / tgrid.dt)
        out[s] = sum(w * g[idx] for idx, w in weights)
    if np.any(out < -1e-9) or np.any(out > 1.0 + 1e-9):
        raise NumericalError("survival probability escaped [0, 1]")
    return np.clip(out, 0.0, 1.0)


@dataclass
class ForwardSolution:
    """Surviving-position density snapshots and their integrated mass."""

    times: np.ndarray
    fields: list[ScalarField]
    masses: np.ndarray


def solve_forward(diff: DiffusionParams, X, R: float, grid: DiscGrid,
                  tgrid: TimeGrid, output_times) -> ForwardSolution:
    """Forward-equation density of the not-yet-exited terminal.

    The point start is a unit mass on the nearest node divided by the cell
    area.  It must lie on the road axis (y = 0), where the density stays
    mirror-symmetric, so that it is stepped on the half disc as
    ``z = W p h^2``, with the lattice's ``W`` and ``unfold``.  Stepping uses
    the transpose of the survival operator, so the mass ``sum(p) h^2``
    reproduces the survival probability at the source node exactly (up to
    solver residual) on the same time grid.
    """
    x0, y0 = _check_disc(grid, R, X)
    if y0 != 0.0:
        raise DomainError(f"start point {X} is off the road axis; the density "
                          "march needs y = 0")
    src = int(grid.nearest_node_index([x0], [y0])[0])
    stepper = _factor(_disc_system(diff, grid, 1.0 / tgrid.dt)[0])
    unfold, W = grid._lattice.unfold, grid._lattice.W

    out_steps = sorted({int(round(t / tgrid.dt)) for t in output_times})
    if any(s < 0 or s > tgrid.steps for s in out_steps):
        raise DomainError("output times must lie within the time grid")

    # z = W p h^2 on the half disc, W = 1 on the axis and 2 above it: at
    # most 1, so -z/dt is finite for every step TimeGrid accepts
    z = np.zeros(W.size)
    z[unfold[src]] = 1.0
    times, fields, masses = [], [], []

    def record(step: int) -> None:
        p = (z / W)[unfold] / grid.h**2
        if np.min(p) < -1e-12:
            raise NumericalError(f"density undershoot {np.min(p):.3e}")
        times.append(step * tgrid.dt)
        fields.append(ScalarField(grid=grid, values=p))
        masses.append(float(z.sum()))

    for s in range(max(out_steps, default=0) + 1):
        if s > 0:
            z = stepper.solve(-z / tgrid.dt, trans="T")
        if s in out_steps:
            record(s)
    return ForwardSolution(times=np.array(times), fields=fields,
                           masses=np.array(masses))


# ---------------------------------------------------------------------------
# one-dimensional interval on a segment
# ---------------------------------------------------------------------------

# Below this g L the segment form and its argmax are summed as series: the
# closed forms are differences of terms equal to first order, and lose about
# eps / (g L) relative.  The series' terms fall faster than 2 (n - 1) / n!
# there, so 20 of them leave less than 1e-18.
_SEGMENT_SERIES_GL = 1.0
_SEGMENT_SERIES_TERMS = 20


def segment_interval(mu: float, sigma: float, L, x):
    """Solution of ``(sigma/2) T'' + mu T' = -1``, ``T(0) = T(L) = 0``, at x.

    Every exponent is nonpositive.  ``L`` may hold one length per point (the
    chords of ``approx``'s strong-drift form); a zero-length segment gives 0.
    A point outside ``[0, L]`` is refused.
    With ``g = 2 |mu| / sigma``, ``a = g L`` and ``b = g x`` (x measured
    from the upstream end), points with ``a < _SEGMENT_SERIES_GL`` use
    ``T = x (L - x) / sigma * a / (1 - e^-a) * sum_{n >= 2} (-1)^n 2
    h_{n-2}(a, b) / n!``, where ``h_m(a, b) = sum_{i <= m} a^(m-i) b^i``.
    """
    if not (math.isfinite(mu) and sigma > 0.0 and np.all((0.0 <= L) & (L < math.inf))):
        raise DomainError(f"mu, L must be finite, sigma > 0 and L >= 0, got {mu}, {sigma}, {L}")
    if not np.all((0.0 <= x) & (x <= L)):  # a NaN point fails too
        raise DomainError(f"x must lie in [0, L], got {x} for L = {L}")
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
    drift, else ``-(1/g) log((1 - e^{-u}) / u)`` with ``g = 2 mu / sigma``
    and ``u = g L``, taken without cancellation: as
    ``(log u - log1p(-e^{-u})) / g`` from ``_SEGMENT_SERIES_GL`` up, and
    below it through ``(1 - e^{-u}) / u - 1 = sum_{n >= 1} (-u)^n / (n + 1)!``."""
    if not (math.isfinite(mu) and sigma > 0.0 and 0.0 < L < math.inf):  # NaN fails too
        raise DomainError(f"mu, L must be finite and sigma, L > 0, got {mu}, {sigma}, {L}")
    if mu == 0.0:
        return L / 2.0
    if mu < 0.0:
        return L - segment_argmax(-mu, sigma, L)
    g = 2.0 * mu / sigma
    u = g * L
    if not 0.0 < u < math.inf:  # g or g L overflowed or underflowed
        raise DomainError(f"2 mu L / sigma is out of float range, got {mu}, {sigma}, {L}")
    if u >= _SEGMENT_SERIES_GL:
        return (math.log(u) - math.log1p(-math.exp(-u))) / g
    return -math.log1p(sum((-u) ** n / math.factorial(n + 1)
                           for n in range(1, _SEGMENT_SERIES_TERMS + 1))) / g
