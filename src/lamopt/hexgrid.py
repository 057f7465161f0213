"""Hexagonal cell lattice with unit-area cells.

Pointy-top hexagons in axial coordinates (q, r); a cell id is the integer
pair.  Point-to-cell lookup is exact hexagon containment via cube rounding,
which is also the nearest-center (Voronoi) assignment; ``cells_of`` does it
for whole arrays of points and ``cell_of`` for one.  The cell area is fixed
at 1 km^2: the cost model counts paged cells as unit areas.
"""

from __future__ import annotations

import math

import numpy as np

from lamopt.errors import DomainError

Cell = tuple[int, int]

_AXIAL_DIRECTIONS: tuple[Cell, ...] = (
    (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1),
)

# tolerance of ``cells_within`` for a center on the circle, axial units
_TIE = 1e-9


class HexGrid:
    """Plane tiling by hexagonal cells of unit area (1 km^2)."""

    # circumradius (corner distance) of a unit-area cell, km
    size = math.sqrt(2.0 / (3.0 * math.sqrt(3.0)))

    def center(self, cell: Cell) -> tuple[float, float]:
        q, r = cell
        s = self.size
        return (math.sqrt(3.0) * s * (q + r / 2.0), 1.5 * s * r)

    def cell_of(self, x: float, y: float) -> Cell:
        """Cell containing the point."""
        q, r = self.cells_of(x, y)
        return int(q), int(r)

    def cells_of(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Axial (q, r) int64 arrays of the cells containing the points.

        Cube rounding of the fractional axials: round all three cube
        coordinates (half to even) and recompute the one that moved most.
        """
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        s = self.size
        qf = (math.sqrt(3.0) / 3.0 * x - y / 3.0) / s
        rf = (2.0 / 3.0 * y) / s
        sf = -qf - rf
        q, r, s3 = np.rint(qf), np.rint(rf), np.rint(sf)
        dq, dr, ds = np.abs(q - qf), np.abs(r - rf), np.abs(s3 - sf)
        fix_q = (dq > dr) & (dq > ds)
        fix_r = ~fix_q & (dr > ds)
        q = np.where(fix_q, -r - s3, q)
        r = np.where(fix_r, -q - s3, r)
        return q.astype(np.int64), r.astype(np.int64)

    def neighbors(self, cell: Cell) -> tuple[Cell, ...]:
        q, r = cell
        return tuple((q + dq, r + dr) for dq, dr in _AXIAL_DIRECTIONS)

    def cells_within(self, center_xy: tuple[float, float],
                     radius: float) -> list[Cell]:
        """Cells whose centers lie within ``radius`` of the given point.

        A center on the circle counts as within.  The row and column bounds
        are widened by ``_TIE`` axial units, far above float rounding (about
        1e-12 for a point 3000 cells out) and far below a cell, so such a
        center is in whatever the rounding, and a disc about a cell center
        has the same shape at every cell.  Deterministic row-major order
        (by r then q).
        """
        if not 0.0 < radius < math.inf:  # NaN fails too
            raise DomainError(f"radius must be finite and > 0, got {radius}")
        cx, cy = center_xy
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise DomainError(f"center must be finite, got {center_xy}")
        s = self.size
        out: list[Cell] = []
        r_lo = math.ceil((cy - radius) / (1.5 * s) - _TIE)
        r_hi = math.floor((cy + radius) / (1.5 * s) + _TIE)
        for r in range(r_lo, r_hi + 1):
            y = 1.5 * s * r
            span = math.sqrt(max(radius * radius - (y - cy) ** 2, 0.0))
            q_lo = math.ceil((cx - span) / (math.sqrt(3.0) * s) - r / 2.0 - _TIE)
            q_hi = math.floor((cx + span) / (math.sqrt(3.0) * s) - r / 2.0 + _TIE)
            out.extend((q, r) for q in range(q_lo, q_hi + 1))
        return out
