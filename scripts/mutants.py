#!/usr/bin/env python3
"""Run hand-made mutants of the package against the tests that should catch them.

Usage: python scripts/mutants.py [MUTANT ...]

Each mutant replaces one exact piece of text in one module of
``src/lamopt``.  For each, the checkout is copied into a temporary
directory, the text is replaced there, and the test files mapped to the
mutated module run with pytest, the three by-design failures of
``tests/test_acceptance.py`` deselected.  A mutant is killed when a test
fails, and survived when every test passes.  The checkout itself is never
written.  With no arguments every mutant runs; each takes from a few
seconds to about a minute on a 2-core host.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Mutated module -> the test files run against it.
TESTS = {
    "approx.py": ("test_approx.py", "test_costs.py", "test_cli.py"),
    "costs.py": ("test_costs.py", "test_protocol.py"),
    "ctrw.py": ("test_ctrw.py",),
    "mobility.py": ("test_mobility.py", "test_costs.py"),
    "pde.py": ("test_pde.py", "test_costs.py"),
}

BY_DESIGN_FAILURES = (
    "tests/test_acceptance.py::test_criterion_5_galerkin_vs_pde",
    "tests/test_acceptance.py::test_criterion_8_fig5_extreme_agreement",
    "tests/test_acceptance.py::test_criterion_8_fig8_saving_trend",
)

# name -> (module, exact old text, new text)
MUTANTS = {
    "nodal-argmax": (
        "pde.py", "if 0 < b < xs.size - 1:", "if False:"),
    "peclet-switch-at-1": (
        "pde.py", "np.maximum(h_neg, h_pos) / s_coef <= 2.0",
        "np.maximum(h_neg, h_pos) / s_coef <= 1.0"),
    "upwind-neg-spacing": (
        "pde.py", "max(-mu, 0.0) / h_neg", "max(-mu, 0.0) / h_pos"),
    "half-table-north-south": (
        "pde.py", "np.column_stack((west, south, diag, north, east)).ravel()",
        "np.column_stack((west, north, diag, south, east)).ravel()"),
    "rim-map-off-by-one": (
        "pde.py", "table_row = np.where(rim, np.cumsum(rim), 0)",
        "table_row = np.where(rim, np.cumsum(rim) - 1, 0)"),
    # interior rows read the second rim row, (1 - N, 1); the first, (1 - N, 0),
    # has every spacing exactly 1 (its missing neighbour lies on the circle),
    # so reading it would be an equivalent mutant
    "interior-reads-rim-stencil": (
        "pde.py", "np.where(rim, np.cumsum(rim), 0)", "np.where(rim, np.cumsum(rim), 2)"),
    "fork-aliases-solved": (
        "pde.py", "other.lattice, other.lu, other.solved = self.lattice, self.lu, dict(self.solved)",
        "other.lattice, other.lu, other.solved = self.lattice, self.lu, self.solved"),
    "fold-onto-self": (
        "pde.py", "mirror = self.index2d[self.i + n, n - self.j]",
        "mirror = self.index2d[self.i + n, n + self.j]"),
    "refine-solve-budget-40": (
        "pde.py", "_REFINE_MAX_SOLVES = 12", "_REFINE_MAX_SOLVES = 40"),
    "refine-from-zero": (
        "pde.py", "R * R * _start(warm.solved, lr)", "np.zeros_like(b)"),
    "node-rule-on-circle": (
        "pde.py", "inside = ii**2 + jj**2 < N * N", "inside = ii**2 + jj**2 <= N * N"),
    "nearest-node-argmax": (
        "pde.py", "idx[miss] = np.argmin(", "idx[miss] = np.argmax("),
    "march-step-sign": (
        "pde.py", "stepper.solve(-g / tgrid.dt)", "stepper.solve(g / tgrid.dt)"),
    "density-step-scale-dt": (
        "pde.py", 'stepper.solve(-z / tgrid.dt, trans="T")',
        'stepper.solve(-z * tgrid.dt, trans="T")'),
    "time-step-reciprocal-unchecked": (
        "pde.py", "math.isfinite(1.0 / float(self.dt))", "True"),
    "cap-reach-R-at-every-node": (
        "pde.py", "reach = R if at_origin else 2.0 * R", "reach = R"),
    "cap-min-for-jensen": (
        "pde.py", "return -math.expm1(-lam * W) / lam if lam > 0.0 else W",
        "return min(1.0 / lam, W) if lam > 0.0 else W"),
    "argmax-series-off": (
        "pde.py", "if u >= _SEGMENT_SERIES_GL:", "if u >= 0.0:"),
    "wedge-side-right": (
        "costs.py", 'np.searchsorted(inner, ang, side="left")',
        'np.searchsorted(inner, ang, side="right")'),
    "golden-bracket-two-cells-each-side": (
        "costs.py",
        "lo_b, hi_b = grid[max(i - 1, 0)], grid[min(i + 1, _SCAN_POINTS - 1)]",
        "lo_b, hi_b = grid[max(i - 2, 0)], grid[min(i + 2, _SCAN_POINTS - 1)]"),
    "half-exit-steps": (
        "ctrw.py", "exit_steps = 0.5 * r * r", "exit_steps = 0.25 * r * r"),
    "walk-horizon-at-cap": (
        "ctrw.py", "np.full(n, np.iinfo(np.int64).max)", "np.full(n, cfg.max_steps)"),
    "tan-quarter-angle": (
        "ctrw.py", "t *= 0.5", "t *= 0.25"),
    "diffusion-accepts-nan": (
        "mobility.py",
        "if not all(map(math.isfinite, (self.mu1, self.sigma11, self.sigma22))):",
        "if False:"),
    "offset-scale-cap-1e5": (
        "approx.py", "_OFFSET_SCALE_CAP = 1e6", "_OFFSET_SCALE_CAP = 1e5"),
}


def run(name: str) -> str:
    module, old, new = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out"))
        path = copy / "src" / "lamopt" / module
        text = path.read_text()
        if text.count(old) != 1:
            return f"stale: the text is found {text.count(old)} times in {module}"
        path.write_text(text.replace(old, new))
        deselect = [arg for test in BY_DESIGN_FAILURES for arg in ("--deselect", test)]
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *(f"tests/{f}" for f in TESTS[module]), *deselect],
            cwd=copy, capture_output=True, text=True)
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1:
        failed = [line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith("FAILED ")]
        return "killed" + (f" by {failed[0]}" if failed else "")
    return f"error: pytest exit {proc.returncode}"


def main(names: list[str]) -> None:
    unknown = set(names) - set(MUTANTS)
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    for name in names or MUTANTS:
        start = time.perf_counter()
        outcome = run(name)
        print(f"{name:36s} {outcome}  ({time.perf_counter() - start:.0f} s)", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
