"""In-memory spans around calls into lamopt's layers.

The tracer replaces public functions at the names their callers look up
(module globals such as ``lamopt.costs.galerkin_solution``, or class
attributes such as ``HexGrid.cell_of``) with wrappers that record one span
per call: name, start, end, parent span and run id.  Nothing in the package
is edited; ``Tracer.installed()`` puts every original back on exit.

Spans live in flat ``array`` columns so that the millions of cheap calls of
a protocol episode cost a few bytes each, and are written out once, at the
end, by ``Tracer.dump``.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array

import numpy as np

from lamopt import approx, cli, costs, ctrw, hexgrid, mobility, pde, protocol


def _steps_requested(args, kwargs, result) -> int:
    return args[2] if len(args) > 2 else kwargs["n"]


def _nodes_solved(args, kwargs, result) -> int:
    return result.grid.n_nodes


# Work done by one call, from its (args, kwargs, result).
COUNTERS = {
    "ctrw.sample_steps": _steps_requested,
    "pde.solve_mean_interval": _nodes_solved,
}

# (span name, [(owner, attribute), ...]).  One wrapper serves every listed
# name, so a call is traced once whichever name its caller used.
TARGETS = [
    ("cli.fig5_rows", [(cli, "fig5_rows")]),
    ("cli.fig6_rows", [(cli, "fig6_rows")]),
    ("cli.fig7_fig8_rows", [(cli, "fig7_fig8_rows")]),
    ("approx.galerkin_solution", [(approx, "galerkin_solution"),
                                  (costs, "galerkin_solution")]),
    ("costs.joint_optimize", [(costs, "joint_optimize"), (cli, "joint_optimize"),
                              (protocol, "joint_optimize")]),
    ("costs.saving_ratio", [(costs, "saving_ratio")]),
    ("costs.paging_breakdown_at", [(costs, "paging_breakdown_at")]),
    ("pde.DiscGrid", [(pde.DiscGrid, "__init__")]),
    ("pde.assemble_operator", [(pde, "assemble_operator")]),
    ("pde.solve_mean_interval", [(pde, "solve_mean_interval"),
                                 (costs, "solve_mean_interval")]),
    ("pde.solve_forward", [(pde, "solve_forward")]),
    ("pde.ScalarField.axis_argmax", [(pde.ScalarField, "axis_argmax")]),
    ("ctrw.estimate_T", [(ctrw, "estimate_T")]),
    ("ctrw.surviving_positions", [(ctrw, "surviving_positions")]),
    ("ctrw.sample_steps", [(ctrw, "sample_steps"), (protocol, "sample_steps")]),
    ("mobility.sample_direction", [(ctrw, "sample_direction")]),
    ("mobility.direction_moments", [(mobility, "direction_moments"),
                                    (protocol, "direction_moments")]),
    ("protocol.run_episode", [(protocol, "run_episode")]),
    ("protocol.network_update", [(protocol, "network_update")]),
    ("protocol.construct_la", [(protocol, "construct_la")]),
    ("protocol.page", [(protocol, "page")]),
    ("hexgrid.cell_of", [(hexgrid.HexGrid, "cell_of")]),
    ("hexgrid.cells_within", [(hexgrid.HexGrid, "cells_within")]),
]


class Tracer:
    """Span recorder; the caller sets ``current_run`` before each pass."""

    def __init__(self) -> None:
        self.names = [name for name, _ in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.current_run = 0
        self._stack = [-1]

    def _wrap(self, nid: int, fn):
        name_id, parent, run_id = self.name_id, self.parent, self.run_id
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        name = self.names[nid]
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            run_id.append(self.current_run)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                self.counts[name] += counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for nid, (_, sites) in enumerate(TARGETS):
                owner, attr = sites[0]
                wrapper = self._wrap(nid, getattr(owner, attr))
                for owner, attr in sites:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run_id": np.frombuffer(self.run_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def span_stats(self, n_runs: int) -> dict[str, float]:
        """``<span>.{calls,s,self_s,p50_ms,p99_ms}`` per traced run.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child_time = np.bincount(cols["parent"][has_parent],
                                 weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child_time
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            mask = cols["name_id"] == nid
            d = dur[mask]
            out[f"{name}.calls"] = d.size / n_runs
            out[f"{name}.s"] = float(d.sum()) / n_runs
            out[f"{name}.self_s"] = float(self_time[mask].sum()) / n_runs
            out[f"{name}.p50_ms"] = float(np.percentile(d, 50)) * 1e3 if d.size else 0.0
            out[f"{name}.p99_ms"] = float(np.percentile(d, 99)) * 1e3 if d.size else 0.0
        return out

    def children_of(self, parent_name: str, child_names: set[str]) -> int:
        """Number of spans named in ``child_names`` whose parent is a
        ``parent_name`` span."""
        cols = self.columns()
        pid = self.names.index(parent_name)
        cids = [self.names.index(n) for n in child_names]
        par = cols["parent"]
        has_parent = par >= 0
        parent_ok = np.zeros(par.size, dtype=bool)
        parent_ok[has_parent] = cols["name_id"][par[has_parent]] == pid
        return int(np.count_nonzero(parent_ok & np.isin(cols["name_id"], cids)))

    def dump(self, path) -> None:
        """Write every span as ``.npz`` columns plus the span-name table."""
        np.savez(path, names=np.array(json.dumps(self.names)), **self.columns())
