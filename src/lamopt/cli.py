"""Command-line harness: figure sweeps, optimization, simulation, validation.

Subcommands::

    fig5      mean interval vs concentration: one-term solution + regime forms
    fig6      mean interval vs concentration for several call rates / dwell vars
    fig7      optimal offset and radius vs concentration
    fig8      cost saving ratio vs concentration
    optimize  joint radius/offset optimum for one config
    simulate  protocol episode (or raw Monte-Carlo estimate with --mode ctrw)
    validate  oracle cross-check suite; nonzero exit on failure

All outputs are CSV with a header row; runs are deterministic for a fixed
seed and config, byte for byte.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from lamopt.approx import (
    drift_regime,
    galerkin_interval,
    optimal_offset,
    trial_offset_scale,
)
from lamopt.config import (
    DEFAULTS,
    SCENARIO_KEYS,
    costs_from_config,
    mobility_from_config,
    parse_config,
)
from lamopt.costs import (  # joint_optimize: the one-baseline search, kept public here
    PROVIDERS,
    joint_optimize,
    optimize_pair,
    paging_breakdown_at,
)
from lamopt.ctrw import SimConfig, estimate_T
from lamopt.errors import DomainError
from lamopt.mobility import compute_diffusion
from lamopt.protocol import Scenario, run_episode
from lamopt.validate import INJECTIONS, format_report, run_checks

# Concentration sweep: log grid plus stand-ins for the two limits.
K_GRID = [1e-4] + [float(k) for k in np.logspace(-2, 2, 17)] + [1e6]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _mobility_at(cfg: dict, k: float, var_eta_s2: float | None = None):
    sub = dict(cfg)
    sub["k"] = k
    if var_eta_s2 is not None:
        sub["Var_eta_s2"] = var_eta_s2
    return mobility_from_config(sub)


# ---------------------------------------------------------------------------
# figure sweeps
# ---------------------------------------------------------------------------

def fig5_rows(cfg: dict) -> tuple[list[str], list[list]]:
    """One-term interval and both regime closed forms at each concentration.

    Sweep-specific settings: dwell variance 0.1 s^2 and call rate 0.2/hr
    (small against the exit rate, as the regime forms assume).  Regime
    columns are populated only where the global drift qualifies them.
    """
    R = cfg["R_km"]
    lam = 0.2
    rows = []
    for k in K_GRID:
        mob = _mobility_at(cfg, k, var_eta_s2=0.1)
        diff = compute_diffusion(mob)
        sol = galerkin_interval(mob, R, lam, diff)
        regime = drift_regime(diff, R)
        t_weak = R * R / diff.sigma_trace if regime == "weak" else None
        t_strong = 2.0 * R / diff.mu1 if regime == "strong" else None
        rows.append([k, sol.interval_at_opt(), t_weak, t_strong])
    return ["k", "T_galerkin", "T_weak_asymptotic", "T_strong_asymptotic"], rows


def fig6_rows(cfg: dict) -> tuple[list[str], list[list]]:
    """One-term interval across call rates and two dwell-time variances."""
    R = cfg["R_km"]
    rows = []
    for k in K_GRID:
        for var_eta in (0.2, 2.0):
            mob = _mobility_at(cfg, k, var_eta_s2=var_eta)
            diff = compute_diffusion(mob)
            for lam in (0.0, 0.2, 0.5, 1.0, 3.0):
                sol = galerkin_interval(mob, R, lam, diff)
                rows.append([k, var_eta, lam, sol.interval_at_opt()])
    return ["k", "var_eta_s2", "lambda_per_hr", "T_galerkin"], rows


def fig7_fig8_rows(cfg: dict) -> tuple[list[str], list[list]]:
    """Joint optimum (offset, radius) and saving ratio at each concentration."""
    costs = costs_from_config(cfg)
    rows = []
    for k in K_GRID:
        mob = _mobility_at(cfg, k)
        opt, ctr = optimize_pair(mob, costs, "galerkin")
        saving = (ctr.c_min - opt.c_min) / ctr.c_min
        rows.append([k, opt.x_opt, opt.r_opt, saving])
    return ["k", "x_opt_km", "R_opt_km", "saving_ratio"], rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_figure(args, which: str) -> int:
    cfg = parse_config(args.config) if args.config else dict(DEFAULTS)
    if which == "fig5":
        header, rows = fig5_rows(cfg)
    elif which == "fig6":
        header, rows = fig6_rows(cfg)
    else:
        header, rows = fig7_fig8_rows(cfg)
    _write_csv(args.out, header, rows)
    return 0


def cmd_optimize(args) -> int:
    cfg = parse_config(args.config) if args.config else dict(DEFAULTS)
    mob = mobility_from_config(cfg)
    costs = costs_from_config(cfg)
    opt, ctr = optimize_pair(mob, costs, args.provider)
    breakdown = paging_breakdown_at(mob, costs, opt.x_opt, opt.r_opt,
                                    mode=args.paging_mode)
    header = ["k", "lambda_per_hr", "provider", "x_opt_km", "R_opt_km",
              "C_u", "C_p", "C_t", "saving_ratio"]
    rows = [[cfg["k"], costs.lam, args.provider, opt.x_opt, opt.r_opt,
             breakdown.C_u, breakdown.C_p, breakdown.C_t,
             (ctr.c_min - opt.c_min) / ctr.c_min]]
    _write_csv(args.out, header, rows)
    return 0


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config) if args.config else dict(DEFAULTS)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if not cfg["Var_eta_s2"] > 0.0:
        raise DomainError(f"Var_eta_s2 must be > 0 for simulate: the Monte-Carlo and "
                          f"protocol routes draw gamma dwells, got {cfg['Var_eta_s2']}")
    if args.mode == "episode":
        scenario = Scenario(mobility=mobility_from_config(cfg),
                            costs=costs_from_config(cfg),
                            **{key: cfg[key] for key in SCENARIO_KEYS if key in cfg})
        m = run_episode(scenario)
        header = ["strategy", "k", "lambda_per_hr", "duration_hr", "updates",
                  "boundary_updates", "call_updates", "cells_paged",
                  "C_u", "C_p", "C_t"]
        rows = [[scenario.strategy, cfg["k"], scenario.costs.lam,
                 m.duration_hr, m.update_count, m.boundary_updates,
                 m.call_triggered_updates, m.cells_paged_total,
                 m.C_u, m.C_p, m.C_t]]
    else:
        mob = mobility_from_config(cfg)
        R = cfg["R_km"]
        lam = cfg["lambda_per_hr"]
        if args.x_km is None:
            x = optimal_offset(trial_offset_scale(mob, R), R)
        else:
            x = args.x_km
        sim = SimConfig(n_trials=args.trials,
                        **{key: cfg[key] for key in ("seed",) if key in cfg})
        est = estimate_T((x, 0.0), R, lam, mob, sim)
        header = ["k", "lambda_per_hr", "x_km", "R_km", "mean_T_hr",
                  "ci_half_width", "n", "censored_count"]
        rows = [[cfg["k"], lam, x, R, est.mean, est.half_width_95, est.n,
                 est.censored_count]]
    _write_csv(args.out, header, rows)
    return 0


def cmd_validate(args) -> int:
    results = run_checks(inject=args.inject)
    report = format_report(results)
    print(report)
    if args.out:
        _write_csv(args.out, ["check", "passed", "measured", "expected", "seconds"],
                   [[r.name, int(r.passed), r.measured.replace(",", ";"),
                     r.expected.replace(",", ";"), r.seconds]
                    for r in results])
    return 0 if all(r.passed for r in results) else 1


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lamopt", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def subcommand(name, summary, config=True, out_required=True):
        sp = sub.add_parser(name, help=summary)
        if config:
            sp.add_argument("--config", default=None, help="key = value config file")
        sp.add_argument("--out", required=out_required, help="output CSV path")
        return sp

    for name in ("fig5", "fig6", "fig7", "fig8"):
        subcommand(name, f"emit {name} sweep CSV")
    sp_opt = subcommand("optimize", "joint optimum for one config")
    sp_opt.add_argument("--provider", choices=PROVIDERS, default="galerkin")
    sp_opt.add_argument("--paging-mode", choices=("paper", "cumulative"),
                        default="paper")
    sp_sim = subcommand("simulate", "protocol episode or raw MC run")
    sp_sim.add_argument("--seed", type=_seed, default=None)
    sp_sim.add_argument("--mode", choices=("episode", "ctrw"), default="episode")
    sp_sim.add_argument("--trials", type=int, default=100_000)
    sp_sim.add_argument("--x-km", type=float, default=None)
    sp_val = subcommand("validate", "run the oracle cross-check suite",
                        config=False, out_required=False)
    sp_val.add_argument("--inject", choices=INJECTIONS, default=None,
                        help="corrupt the diffusion mapping (negative control)")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Regime and search warnings are not reported yet; the CSV carries
        # only the numbers.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if args.command in ("fig5", "fig6", "fig7", "fig8"):
                return cmd_figure(args, "fig7" if args.command == "fig8"
                                  else args.command)
            if args.command == "optimize":
                return cmd_optimize(args)
            if args.command == "simulate":
                return cmd_simulate(args)
            return cmd_validate(args)
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
