"""Cross-implementation validation suite.

Every check pits one implementation route against an independent oracle:
exact special cases, closed forms against brute force, Monte-Carlo against
the finite-difference solver, quadratures against analytic reductions.  The
suite is the artifact's tripwire for implementation bugs; the accuracy of
the *approximations* relative to the exact solver is reported by the
acceptance tests instead, since approximation error is a property of the
method, not of the code.  The referee quadratures some checks need (the disc
quadrature of the trial moments, the drift-moment residual) live here, not in
the modules they referee.

Every check takes the mobility-to-diffusion mapping under test and returns
``(passed, measured, expected)``; checks built on fixed diffusion parameters
ignore the mapping.  A check may also take size keywords (grid nodes, time
steps, points, trial offsets) whose defaults are what ``lamopt validate``
runs; the acceptance criteria call the same checks by their ``CHECKS`` name
at their own sizes, so each bound is written once, here.
``run_checks(inject=...)`` hands the checks a deliberately corrupted
mapping so the suite's sensitivity can be demonstrated (negative controls).
"""

from __future__ import annotations

import math
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from lamopt.approx import (
    galerkin_solution,
    optimal_offset,
    strong_drift_argmax,
    strong_drift_interval,
)
from lamopt.config import default_mobility
from lamopt.costs import CostParams, asymptotic_optimum, build_paging_plan
from lamopt.ctrw import SimConfig, estimate_T
from lamopt.errors import DomainError
from lamopt.mobility import DiffusionParams, compute_diffusion
from lamopt.pde import (
    DiscGrid,
    TimeGrid,
    assemble_operator,
    segment_argmax,
    segment_interval,
    solve_forward,
    solve_mean_interval,
    solve_survival,
)
from lamopt.protocol import Scenario, run_episode

INJECTIONS = ("flip-drift-sign", "sigma-sign-bug")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    expected: str
    seconds: float


def _diffusion_mapping(inject: str | None):
    """The mobility-to-diffusion mapping under test, corrupted on request."""
    if inject is None:
        return compute_diffusion
    if inject not in INJECTIONS:
        raise DomainError(f"unknown injection {inject!r}")

    def corrupted(params):
        d = compute_diffusion(params)
        if inject == "flip-drift-sign":
            return replace(d, mu1=-d.mu1)
        return replace(d, sigma22=-d.sigma22)

    return corrupted


# Report name -> check, in run order; filled by ``@_check``.
CHECKS: dict[str, Callable] = {}


def _check(name: str):
    """Register a check under the one name every report uses for it."""
    def register(fn):
        CHECKS[name] = fn
        return fn
    return register


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

@_check("brownian_center_interval")
def check_brownian_exact(to_diffusion, nodes: int = 64) -> tuple[bool, str, str]:
    f = solve_mean_interval(DiffusionParams(0.0, 1.0, 1.0), 1.0, 0.0,
                            DiscGrid(1.0, 1.0 / nodes))
    v = f.value_at((0.0, 0.0))
    return abs(v - 0.5) <= 1e-3, f"{v:.6f}", "0.5 +- 1e-3"


@_check("mean_interval_half_disc_vs_full_lu")
def check_half_disc_fold(to_diffusion) -> tuple[bool, str, str]:
    from scipy.sparse.linalg import spsolve  # not on the import path of lamopt.cli

    grid = DiscGrid(1.0, 1.0 / 48)
    worst = 0.0
    for k in (0.5, 20.0):
        diff = to_diffusion(default_mobility(k))
        full = spsolve(assemble_operator(diff, grid, 0.2).tocsc(),
                       np.full(grid.n_nodes, -1.0))
        half = solve_mean_interval(diff, 1.0, 0.2, grid).values
        worst = max(worst, float(np.max(np.abs(half - full)) / np.max(full)))
    return worst <= 1e-12, f"worst rel diff {worst:.2e}", "relative 1e-12"


@_check("segment_recovery")
def check_one_dim(to_diffusion) -> tuple[bool, str, str]:
    mid = float(segment_interval(0.0, 1.0, 4.0, 2.0))
    x_opt = segment_argmax(1e-6, 1.0, 1.0)
    ok = mid == 4.0 and abs(x_opt - 0.5) <= 1e-6
    return ok, f"T(L/2)={mid:.3e}, x_opt={x_opt:.8f}", "L^2/4 exactly; x_opt -> L/2"


@_check("strong_regime_ratios")
def check_strong_ratios(to_diffusion) -> tuple[bool, str, str]:
    diff = to_diffusion(default_mobility(1e6))
    costs = CostParams(lam=2.0, U=20.0, V=1.0)
    o = asymptotic_optimum(diff, costs, "offset")
    c = asymptotic_optimum(diff, costs, "center")
    r_ratio = c.r_opt / o.r_opt
    c_ratio = c.c_min / o.c_min
    saving = 1.0 - o.c_min / c.c_min
    ok = (abs(r_ratio - 2.0 ** (1 / 3)) <= 1e-6
          and abs(c_ratio - 4.0 ** (1 / 3)) <= 1e-6
          and abs(saving - 0.370) <= 1e-3)
    return (ok,
            f"R ratio {r_ratio:.8f}, C ratio {c_ratio:.8f}, saving {saving:.5f}",
            "2^(1/3), 4^(1/3), 0.370")


@_check("default_weak_design_numbers")
def check_default_design_numbers(to_diffusion) -> tuple[bool, str, str]:
    mob = default_mobility(0.0)
    diff = to_diffusion(mob)
    costs = CostParams(lam=2.0, U=20.0, V=1.0)
    opt = asymptotic_optimum(diff, costs, "offset")
    steps = opt.t_opt / mob.mean_time  # displacements per update cycle
    ok = 1.00 <= opt.r_opt <= 1.07 and 1300 <= steps <= 1380
    return (ok,
            f"R_opt={opt.r_opt:.4f} km, steps={steps:.1f}",
            "R_opt in [1.00, 1.07], steps in [1300, 1380]")


@_check("diffusion_psd_and_monotone_drift")
def check_diffusion_shape(to_diffusion) -> tuple[bool, str, str]:
    ks = np.logspace(-3, 3, 13)
    mu_prev = -1.0
    ok = True
    detail = ""
    for k in ks:
        d = to_diffusion(default_mobility(float(k)))
        # the diffusion matrix is diagonal: PSD means both entries >= 0
        s_min = min(d.sigma11, d.sigma22)
        if s_min < -1e-12:
            ok, detail = False, f"sigma not PSD at k={k:.3g} (min entry {s_min:.2e})"
            break
        if d.mu1 < mu_prev - 1e-12:
            ok, detail = False, f"mu1 not nondecreasing at k={k:.3g}"
            break
        mu_prev = d.mu1
    return ok, detail or "PSD, monotone over k grid", "all hold"


@_check("offset_formula_vs_bruteforce")
def check_offset_bruteforce(to_diffusion, scales: tuple[float, ...] = (2.0,)
                            ) -> tuple[bool, str, str]:
    """At each trial offset ``a = scale * R``."""
    diff = DiffusionParams(0.0, 0.2, 0.2)
    R = 1.0
    xs = np.arange(-R + 1e-4, R, 1e-4)
    ok, lines = True, []
    for a in (scale * R for scale in scales):
        sol = galerkin_solution(diff, R, 0.0, a)
        brute = xs[int(np.argmax(sol.interval(xs, 0.0)))]
        formula = optimal_offset(a, R)
        ok &= bool(abs(brute - formula) <= 1e-3)
        lines.append(f"formula {formula:.6f}, brute {brute:.6f}")
    return ok, "; ".join(lines), "within 1e-3"


def _disc_quadrature(fn, R: float, nr: int = 24, ntheta: int = 64) -> float:
    """Integrate fn(x, y) over the disc by Gauss-Legendre in r and the
    trapezoid rule in theta; the referee for the trial moments."""
    r_nodes, r_weights = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * R * (r_nodes + 1.0)
    wr = 0.5 * R * r_weights * r
    theta = 2.0 * math.pi * np.arange(ntheta) / ntheta
    wt = 2.0 * math.pi / ntheta
    xs = np.outer(r, np.cos(theta))
    ys = np.outer(r, np.sin(theta))
    return float(np.sum(wr[:, None] * fn(xs, ys)) * wt)


def drift_moment_residual(diff: DiffusionParams, R: float, a: float) -> float:
    """Area integral of the drift term of the one-term trial function.

    Identically zero by the divergence theorem (the trial function vanishes
    on the circle), which is why ``approx.galerkin_solution``'s denominator
    has no drift moment; this quadrature confirms it.
    """
    def gx(x, y):
        u = x + a
        return diff.mu1 * (-(R * R - y * y - a * a) / u**2 - 1.0)

    return _disc_quadrature(gx, R, nr=48, ntheta=128)


@_check("trial_moments_closed_form_vs_disc_quadrature")
def check_trial_moments(to_diffusion) -> tuple[bool, str, str]:
    diff = DiffusionParams(0.0, 1.0, 1.0)
    worst = 0.0
    for R in (1.0, 2.5):
        for a in (1.2 * R, 3.0 * R, 20.0 * R, 300.0 * R):
            sol = galerkin_solution(diff, R, 0.0, a)
            # g = (R^2 - x^2 - y^2) / (x + a); g_xx and g_yy written out
            refs = (
                (sol.C11, lambda x, y: 2.0 * (R * R - y * y - a * a) / (x + a) ** 3),
                (sol.C22, lambda x, y: -2.0 / (x + a)),
                (sol.C0, lambda x, y: (R * R - x * x - y * y) / (x + a)),
            )
            for closed, integrand in refs:
                ref = _disc_quadrature(integrand, R, nr=48, ntheta=128)
                worst = max(worst, abs(closed - ref) / abs(ref))
    return worst <= 1e-9, f"worst rel err {worst:.2e}", "relative 1e-9"


@_check("trial_drift_moment_vanishes")
def check_drift_term_absent(to_diffusion) -> tuple[bool, str, str]:
    diff = to_diffusion(default_mobility(0.5))
    res = drift_moment_residual(diff, 1.0, 3.0)
    ok = abs(res) <= 1e-8
    return ok, f"{res:.2e}", "0 +- 1e-8"


@_check("mc_vs_pde_interval")
def check_mc_vs_pde(to_diffusion) -> tuple[bool, str, str]:
    mob = default_mobility(0.5)
    diff = to_diffusion(mob)
    X = (-0.3, 0.0)
    est = estimate_T(X, 1.0, 0.2, mob, SimConfig(n_trials=30_000, seed=11))
    field = solve_mean_interval(diff, 1.0, 0.2, DiscGrid(1.0, 1.0 / 96))
    pde_val = field.value_at(X)
    tol = max(0.03 * pde_val, est.half_width_95)
    ok = abs(est.mean - pde_val) <= tol and est.censored_count == 0
    return (ok,
            f"MC {est.mean:.5f}+-{est.half_width_95:.5f} vs PDE {pde_val:.5f}",
            "within max(3%, CI)")


@_check("forward_mass_equals_survival")
def check_forward_mass(to_diffusion,
                       points: tuple[tuple[float, float, float], ...] = ((0.5, -0.4, 0.6),),
                       nodes: int = 48, steps: int = 240) -> tuple[bool, str, str]:
    """Per ``(k, x0, t_max)`` point, at ``t_max`` times 1/4, 1/2 and 1."""
    grid = DiscGrid(1.0, 1.0 / nodes)
    worst, neg = 0.0, math.inf
    for k, x0, t_max in points:
        diff = to_diffusion(default_mobility(k))
        tg = TimeGrid(t_max, steps)
        X = grid.nearest_node_point((x0, 0.0))
        curve = solve_survival(diff, X, 1.0, grid, tg)
        fwd = solve_forward(diff, X, 1.0, grid, tg,
                            output_times=[0.25 * t_max, 0.5 * t_max, t_max])
        for t_out, mass in zip(fwd.times, fwd.masses):
            g = curve.values[int(round(t_out / tg.dt))]
            worst = max(worst, abs(mass - g) / max(g, 1e-12))
        neg = min(neg, *(float(f.values.min()) for f in fwd.fields))
    ok = worst <= 0.01 and neg >= -1e-12
    return ok, f"worst rel err {worst:.2e}, min p {neg:.2e}", "<= 1%, p >= -1e-12"


@_check("survival_integral_identity")
def check_survival_integral(to_diffusion) -> tuple[bool, str, str]:
    diff = DiffusionParams(0.0, 1.0, 1.0)
    grid = DiscGrid(1.0, 1.0 / 48)
    curve = solve_survival(diff, (0.0, 0.0), 1.0, grid, TimeGrid(4.0, 2000))
    integral = float(np.trapezoid(curve.values, curve.times))
    direct = solve_mean_interval(diff, 1.0, 0.0, grid).value_at((0.0, 0.0))
    ok = abs(integral - direct) <= 0.02 * direct
    return ok, f"integral {integral:.5f} vs direct {direct:.5f}", "within 2%"


@_check("pde_optimum_on_trailing_side")
def check_pde_offset_side(to_diffusion) -> tuple[bool, str, str]:
    diff = to_diffusion(default_mobility(20.0))
    field = solve_mean_interval(diff, 1.0, 0.0, DiscGrid(1.0, 1.0 / 64))
    x_star = field.axis_argmax()
    ok = x_star < -0.5
    return ok, f"argmax x = {x_star:.4f}", "< -0.5 (trailing half)"


@_check("strong_form_vs_pde")
def check_strong_form_vs_pde(to_diffusion) -> tuple[bool, str, str]:
    diff = to_diffusion(default_mobility(20.0))
    field = solve_mean_interval(diff, 1.0, 0.0, DiscGrid(1.0, 1.0 / 96))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        xo = strong_drift_argmax(diff, 1.0)
        sv = float(strong_drift_interval(diff, 1.0, xo, 0.0))
    pv = field.value_at((xo, 0.0))
    ok = abs(sv - pv) <= 0.10 * pv
    return ok, f"closed {sv:.5f} vs pde {pv:.5f}", "within 10%"


@_check("paging_angles_telescope")
def check_paging_plan(to_diffusion) -> tuple[bool, str, str]:
    ok = True
    for m in (1, 2, 4, 7):
        for var in (0.0, 0.5, 2.0, math.pi**2 / 3):
            plan = build_paging_plan(m, var)
            if abs(sum(plan.angles) - math.pi) > 1e-12:
                ok = False
    return ok, "sum = pi", "sum = pi"


@_check("protocol_certainty_paging")
def check_protocol_episode(to_diffusion) -> tuple[bool, str, str]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        metrics = run_episode(Scenario(
            mobility=default_mobility(20.0),
            costs=CostParams(lam=0.2, U=20.0, V=1.0, m=2),
            strategy="optimal", duration_hr=40.0, seed=5,
        ))
    ok = metrics.paging_failures == 0 and metrics.update_count > 10
    return (ok,
            f"{metrics.update_count} updates, {metrics.paging_failures} failures",
            "0 failures")


def run_checks(inject: str | None = None,
               names: set[str] | None = None) -> list[CheckResult]:
    """Run the validation suite, optionally with an injected defect.

    Args:
        inject: None, "flip-drift-sign", or "sigma-sign-bug".
        names: restrict to the checks with these report names (``CHECKS``
            keys).

    Returns:
        List of CheckResult (one per executed check); a check that raises
        counts as failed with the exception text as the measurement.
    """
    to_diffusion = _diffusion_mapping(inject)
    results = []
    for name, fn in CHECKS.items():
        if names is not None and name not in names:
            continue
        t0 = time.perf_counter()
        try:
            passed, measured, expected = fn(to_diffusion)
        except Exception as exc:  # a blown check is a failed check
            passed, measured, expected = (
                False, f"raised {type(exc).__name__}: {exc}", "no exception")
        results.append(CheckResult(name=name, passed=bool(passed),
                                   measured=measured, expected=expected,
                                   seconds=time.perf_counter() - t0))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name}: {r.measured} (expected {r.expected}) "
                     f"[{r.seconds:.2f}s]")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
