"""End-to-end acceptance gate.

One test per criterion, each printing a PASS/FAIL line with the measured
values before asserting at the stated tolerance.  Heavy cross-validation
sweeps are shared through module-scoped fixtures.  Criteria 1-4, 6 and 7 run
the ``lamopt validate`` check they share by its report name, at the
criterion's own sizes; the bounds live in ``lamopt.validate`` only.

Three assertions are expected to fail and are left failing on purpose: the
one-term rational-trial approximation does not track the exact solver within
10% at the default scenario (its residual weighting is blind to the drift
magnitude, see README), which breaks the approximation leg of the oracle
triangle, the extreme-k agreement of Fig. 5 and the saving trend of Fig. 8.
The failure messages quantify the actual deviations.
"""

import time
import warnings

import pytest

from lamopt.approx import galerkin_solution, optimal_offset, trial_offset_scale
from lamopt.cli import fig5_rows, fig6_rows, fig7_fig8_rows, main as cli_main
from lamopt.config import DEFAULTS, default_mobility
from lamopt.costs import CostParams
from lamopt.ctrw import SimConfig, estimate_T
from lamopt.mobility import compute_diffusion
from lamopt.pde import DiscGrid, solve_mean_interval
from lamopt.protocol import Scenario, run_episode
from lamopt.validate import CHECKS

EPISODE_SEED = 20240809


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def run_check(label: str, name: str, **sizes) -> bool:
    """Run ``validate.CHECKS[name]`` on the true mapping and report it."""
    passed, measured, expected = CHECKS[name](compute_diffusion, **sizes)
    report(label, passed, f"{measured} (expected {expected})")
    return passed


# ---------------------------------------------------------------------------
# criteria 1-4: exact disc and segment solutions, weak and strong designs
# ---------------------------------------------------------------------------


def test_criterion_1_brownian_exact():
    t0 = time.perf_counter()
    passed = run_check("criterion-1 driftless exact solution",
                       "brownian_center_interval", nodes=128)
    elapsed = time.perf_counter() - t0
    report("criterion-1 runtime", elapsed < 5.0, f"{elapsed:.2f}s < 5s")
    assert passed
    assert elapsed < 5.0


def test_criterion_2_segment_recovery():
    assert run_check("criterion-2 segment recovery", "segment_recovery")


def test_criterion_3_weak_design_numbers():
    assert run_check("criterion-3 weak design numbers", "default_weak_design_numbers")


def test_criterion_4_strong_ratios():
    assert run_check("criterion-4 strong-drift ratios", "strong_regime_ratios")


# ---------------------------------------------------------------------------
# criterion 5: oracle triangle at the default scenario
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_triangle():
    """MC, solver, and one-term values at each (k, rate) pair.

    Evaluation point per concentration: the closed-form optimal offset.
    """
    t0 = time.perf_counter()
    rows = []
    for i, k in enumerate((0.1, 0.5, 2.0, 20.0)):
        mob = default_mobility(k)
        diff = compute_diffusion(mob)
        a = trial_offset_scale(mob, 1.0, diff)
        x = optimal_offset(a, 1.0)
        grid = DiscGrid(1.0, 1.0 / 128)
        for j, lam in enumerate((0.0, 0.2, 2.0)):
            field = solve_mean_interval(diff, 1.0, lam, grid)
            pde_val = field.value_at((x, 0.0))
            est = estimate_T((x, 0.0), 1.0, lam, mob,
                             SimConfig(n_trials=100_000, seed=1000 + 10 * i + j))
            gal = galerkin_solution(diff, 1.0, lam, a)
            rows.append({
                "k": k, "lam": lam, "x": x,
                "mc": est.mean, "ci": est.half_width_95,
                "censored": est.censored_count,
                "pde": pde_val, "galerkin": float(gal.interval(x, 0.0)),
            })
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


def test_criterion_5_mc_vs_pde(oracle_triangle):
    lines, ok = [], True
    for r in oracle_triangle["rows"]:
        tol = max(0.03 * r["pde"], r["ci"])
        good = abs(r["mc"] - r["pde"]) <= tol and r["censored"] == 0
        ok &= good
        lines.append(f"k={r['k']:>4} lam={r['lam']:>3}: MC {r['mc']:.5f}"
                     f"+-{r['ci']:.5f} vs PDE {r['pde']:.5f} "
                     f"({(r['mc'] - r['pde']) / r['pde']:+.2%}) {'ok' if good else 'BAD'}")
    report("criterion-5 oracle triangle, MC vs solver", ok, "\n  " + "\n  ".join(lines))
    assert ok, "\n".join(lines)


def test_criterion_5_galerkin_vs_pde(oracle_triangle):
    lines, ok = [], True
    for r in oracle_triangle["rows"]:
        good = abs(r["galerkin"] - r["pde"]) <= 0.10 * r["pde"]
        ok &= good
        lines.append(f"k={r['k']:>4} lam={r['lam']:>3}: one-term {r['galerkin']:.5f} "
                     f"vs PDE {r['pde']:.5f} "
                     f"({(r['galerkin'] - r['pde']) / r['pde']:+.1%}) {'ok' if good else 'BAD'}")
    report("criterion-5 oracle triangle, one-term vs solver (10%)", ok,
           "\n  " + "\n  ".join(lines))
    assert ok, (
        "one-term rational-trial approximation vs exact solver exceeded 10%:\n"
        + "\n".join(lines))


def test_criterion_5_runtime(oracle_triangle):
    elapsed = oracle_triangle["elapsed"]
    report("criterion-5 runtime", elapsed < 600.0, f"{elapsed:.1f}s < 600s")
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 6: forward-density mass conservation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,x0,t_max", [(0.5, -0.4, 0.6), (20.0, -0.8, 0.3)])
def test_criterion_6_forward_conservation(k, x0, t_max):
    assert run_check(f"criterion-6 conservation (k={k})", "forward_mass_equals_survival",
                     points=((k, x0, t_max),), nodes=64, steps=300)


# ---------------------------------------------------------------------------
# criterion 7: closed-form offset vs brute force
# ---------------------------------------------------------------------------

def test_criterion_7_offset_optimality():
    assert run_check("criterion-7 offset optimality", "offset_formula_vs_bruteforce",
                     scales=(1.01, 1.5, 2.0, 10.0))


# ---------------------------------------------------------------------------
# criterion 8: figure-trend properties
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def figure_data():
    cfg = dict(DEFAULTS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, f5 = fig5_rows(cfg)
        _, f6 = fig6_rows(cfg)
        _, f78 = fig7_fig8_rows(cfg)
    return f5, f6, f78


def test_criterion_8_fig5_extreme_agreement(figure_data):
    f5, _, _ = figure_data
    lines, ok = [], True
    for row in f5:
        k, t_gal, t_weak, t_strong = row
        if k not in (1e-4, 1e6):
            continue
        for label, t_asym in (("weak", t_weak), ("strong", t_strong)):
            if t_asym is None:
                continue
            rel = abs(t_asym - t_gal) / t_gal
            good = rel < 0.10
            ok &= good
            lines.append(f"k={k:g} {label}: asym {t_asym:.4f} vs one-term "
                         f"{t_gal:.4f} ({rel:.1%}) {'ok' if good else 'BAD'}")
    report("criterion-8 fig5 extreme-k agreement (10%)", ok, "; ".join(lines))
    assert ok, (
        "regime closed forms vs one-term solution exceeded 10% at extreme k:\n"
        + "\n".join(lines))


def test_criterion_8_fig6_trends(figure_data):
    _, f6, _ = figure_data
    by = {(k, v, lam): t for k, v, lam, t in f6}
    ks = sorted({k for k, _, _, _ in f6})
    lams = (0.0, 0.2, 0.5, 1.0, 3.0)
    # call-rate insensitivity at the strong proxy
    spreads = []
    for v in (0.2, 2.0):
        vals = [by[(1e6, v, lam)] for lam in lams]
        spreads.append((max(vals) - min(vals)) / max(vals))
    ok_spread = all(s < 0.05 for s in spreads)
    # dwell-variance ordering: higher variance, faster spreading, shorter
    # interval (degenerate at vanishing drift, hence the tolerance)
    ok_order = all(
        by[(k, 0.2, lam)] >= by[(k, 2.0, lam)] - 1e-9
        for k in ks for lam in lams)
    # the interval shrinks with the call rate everywhere, weak drift included
    ok_rate = all(
        by[(ks[0], v, a)] > by[(ks[0], v, b)]
        for v in (0.2, 2.0) for a, b in zip(lams, lams[1:]))
    ok = ok_spread and ok_order and ok_rate
    report("criterion-8 fig6 trends", ok,
           f"strong-drift rate spread {max(spreads):.3%} < 5%, "
           f"variance ordering {ok_order}, rate monotone {ok_rate}")
    assert ok_spread
    assert ok_order
    assert ok_rate


def test_criterion_8_fig7_offset_limits(figure_data):
    _, _, f78 = figure_data
    by = {row[0]: row for row in f78}
    x_lo, r_lo = by[1e-4][1], by[1e-4][2]
    x_hi, r_hi = by[1e6][1], by[1e6][2]
    ok = abs(x_lo) < 0.01 * r_lo and abs(x_hi + r_hi) < 0.01 * r_hi
    report("criterion-8 fig7 offset limits", ok,
           f"x(k->0)={x_lo:.2e} (~0), x(k->inf)={x_hi:.4f} vs -R={-r_hi:.4f}")
    assert abs(x_lo) < 0.01 * r_lo
    assert abs(x_hi + r_hi) < 0.01 * r_hi


def test_criterion_8_fig8_saving_trend(figure_data):
    _, _, f78 = figure_data
    savings = [row[3] for row in sorted(f78, key=lambda r: r[0])]
    drops = [
        (f78[i][0], savings[i + 1] - savings[i])
        for i in range(len(savings) - 1) if savings[i + 1] < savings[i] - 1e-3
    ]
    ok_mono = not drops
    ok_bound = max(savings) <= 0.37 + 0.01
    ok_reach = max(savings) >= 0.25
    report("criterion-8 fig8 saving ratio", ok_mono and ok_bound and ok_reach,
           f"max {max(savings):.4f} (<=0.38, >=0.25), "
           f"monotone {'yes' if ok_mono else f'no, drops at {drops}'}")
    assert ok_bound
    assert ok_reach
    assert ok_mono, (
        f"saving ratio not nondecreasing over the sweep; decreases: {drops}")


# ---------------------------------------------------------------------------
# criterion 9: end-to-end protocol at strong drift
# ---------------------------------------------------------------------------

def test_criterion_9_protocol_cost_ratio():
    t0 = time.perf_counter()
    mob = default_mobility(20.0)
    costs = CostParams(lam=0.2, U=20.0, V=1.0, m=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        opt = run_episode(Scenario(mobility=mob, costs=costs,
                                   strategy="optimal", duration_hr=1750.0,
                                   seed=EPISODE_SEED))
        ctr = run_episode(Scenario(mobility=mob, costs=costs,
                                   strategy="center", duration_hr=1750.0,
                                   seed=EPISODE_SEED))
    elapsed = time.perf_counter() - t0
    ratio = ctr.C_t / opt.C_t
    target = 4.0 ** (1 / 3)
    ok = (abs(ratio - target) <= 0.10 * target
          and opt.update_count >= 2000
          and opt.paging_failures == 0 and ctr.paging_failures == 0
          and elapsed < 300.0)
    report("criterion-9 protocol cost ratio", ok,
           f"C_t(center)/C_t(optimal)={ratio:.4f} vs 4^(1/3)={target:.4f} "
           f"({(ratio - target) / target:+.1%}), cycles={opt.update_count}, "
           f"violations=0, runtime {elapsed:.0f}s < 300s")
    assert opt.update_count >= 2000
    assert opt.paging_failures == 0 and ctr.paging_failures == 0
    assert abs(ratio - target) <= 0.10 * target
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 10: the validation suite detects an injected drift-sign bug
# ---------------------------------------------------------------------------

def test_criterion_10_negative_control(capsys):
    clean = cli_main(["validate"])
    flipped = cli_main(["validate", "--inject", "flip-drift-sign"])
    out = capsys.readouterr().out
    ok = clean == 0 and flipped == 1 and "FAIL" in out
    report("criterion-10 negative control", ok,
           f"clean exit {clean} (0), drift-sign-flipped exit {flipped} (1)")
    assert clean == 0
    assert flipped == 1
    assert "FAIL" in out
