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
from pathlib import Path

import numpy as np

from lamopt.approx import (
    drift_regime,
    galerkin_interval,
    regime_interval,
)
from lamopt.config import (
    DEFAULTS,
    SCENARIO_KEYS,
    costs_from_config,
    mobility_from_config,
    parse_config,
)
from lamopt.costs import (  # joint_optimize: the name the benchmark tracer wraps in cli
    PROVIDERS,
    joint_optimize,
    optimize_pair,
    pair_saving,
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


def _check_out(path: str) -> None:
    """Refuse, before any work, an ``--out`` path that is a directory or
    lies in a missing one; the file is not opened, so none is truncated."""
    if Path(path).is_dir() or not Path(path).parent.is_dir():
        raise DomainError(f"cannot write output file {path}: "
                          "not a file in an existing directory")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Write the CSV once the work is done, so a failed run leaves an
    existing file whole; an unwritable path is bad input."""
    try:
        with open(path, "w") as f:
            f.write(",".join(header) + "\n")
            for row in rows:
                f.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise DomainError(f"cannot write output file {path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# row functions: config (and the subcommand's own flags) -> (header, rows)
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
        mob = mobility_from_config(dict(cfg, k=k, Var_eta_s2=0.1))
        diff = compute_diffusion(mob)
        sol = galerkin_interval(mob, R, lam, diff)
        regime = drift_regime(diff, R)
        t_weak = regime_interval(diff, R, "weak") if regime == "weak" else None
        t_strong = regime_interval(diff, R, "strong") if regime == "strong" else None
        rows.append([k, float(sol.interval(sol.x_opt, 0.0)), t_weak, t_strong])
    return ["k", "T_galerkin", "T_weak_asymptotic", "T_strong_asymptotic"], rows


def fig6_rows(cfg: dict) -> tuple[list[str], list[list]]:
    """One-term interval across call rates and two dwell-time variances."""
    R = cfg["R_km"]
    rows = []
    for k in K_GRID:
        for var_eta in (0.2, 2.0):
            mob = mobility_from_config(dict(cfg, k=k, Var_eta_s2=var_eta))
            diff = compute_diffusion(mob)
            for lam in (0.0, 0.2, 0.5, 1.0, 3.0):
                sol = galerkin_interval(mob, R, lam, diff)
                rows.append([k, var_eta, lam, float(sol.interval(sol.x_opt, 0.0))])
    return ["k", "var_eta_s2", "lambda_per_hr", "T_galerkin"], rows


def fig7_fig8_rows(cfg: dict) -> tuple[list[str], list[list]]:
    """Joint optimum (offset, radius) and saving ratio at each concentration."""
    costs = costs_from_config(cfg)
    rows = []
    for k in K_GRID:
        opt, ctr = optimize_pair(mobility_from_config(dict(cfg, k=k)), costs, "galerkin")
        rows.append([k, opt.x_opt, opt.r_opt, pair_saving(opt, ctr)])
    return ["k", "x_opt_km", "R_opt_km", "saving_ratio"], rows


def optimize_rows(cfg: dict, *, provider: str | None,
                  paging_mode: str) -> tuple[list[str], list[list]]:
    """The joint optimum of one config and the cost split at it; the
    ``--provider`` flag wins over the config's ``provider`` key."""
    if provider is None:
        provider = cfg.get("provider", "galerkin")
    mob = mobility_from_config(cfg)
    costs = costs_from_config(cfg)
    opt, ctr = optimize_pair(mob, costs, provider)
    b = paging_breakdown_at(mob, costs, opt.x_opt, opt.r_opt, mode=paging_mode)
    header = ["k", "lambda_per_hr", "provider", "x_opt_km", "R_opt_km",
              "C_u", "C_p", "C_t", "saving_ratio"]
    return header, [[cfg["k"], costs.lam, provider, opt.x_opt, opt.r_opt,
                     b.C_u, b.C_p, b.C_u + b.C_p, pair_saving(opt, ctr)]]


def simulate_rows(cfg: dict, *, seed: int | None, mode: str, trials: int,
                  x_km: float | None) -> tuple[list[str], list[list]]:
    """One protocol episode, or one raw Monte-Carlo interval estimate."""
    if seed is not None:
        cfg = dict(cfg, seed=seed)
    if not cfg["Var_eta_s2"] > 0.0:
        raise DomainError(f"Var_eta_s2 must be > 0 for simulate: the Monte-Carlo and "
                          f"protocol routes draw gamma dwells, got {cfg['Var_eta_s2']}")
    mob = mobility_from_config(cfg)
    if mode == "episode":
        scenario = Scenario(mobility=mob, costs=costs_from_config(cfg),
                            **{key: cfg[key] for key in SCENARIO_KEYS if key in cfg})
        m = run_episode(scenario)
        header = ["strategy", "k", "lambda_per_hr", "duration_hr", "updates",
                  "boundary_updates", "call_updates", "cells_paged",
                  "C_u", "C_p", "C_t"]
        return header, [[scenario.strategy, cfg["k"], scenario.costs.lam,
                         m.duration_hr, m.update_count, m.boundary_updates,
                         m.call_triggered_updates, m.cells_paged_total,
                         m.C_u, m.C_p, m.C_t]]
    R = cfg["R_km"]
    lam = cfg["lambda_per_hr"]
    x = galerkin_interval(mob, R, lam).x_opt if x_km is None else x_km
    sim = SimConfig(n_trials=trials, **{key: cfg[key] for key in ("seed",) if key in cfg})
    est = estimate_T((x, 0.0), R, lam, mob, sim)
    header = ["k", "lambda_per_hr", "x_km", "R_km", "mean_T_hr",
              "ci_half_width", "n", "censored_count"]
    return header, [[cfg["k"], lam, x, R, est.mean, est.half_width_95, est.n,
                     est.censored_count]]


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


# Parser destinations every subcommand shares; the rest are its own flags,
# which main passes to its row function as keywords.
_COMMON = ("command", "config", "out", "rows")


def build_parser() -> argparse.ArgumentParser:
    """The parser; each subcommand but ``validate`` binds its row function
    as ``rows``."""
    p = argparse.ArgumentParser(prog="lamopt", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def subcommand(name, summary, rows):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", default=None, help="key = value config file")
        sp.add_argument("--out", required=True, help="output CSV path")
        sp.set_defaults(rows=rows)
        return sp

    for name, rows in (("fig5", fig5_rows), ("fig6", fig6_rows),
                       ("fig7", fig7_fig8_rows), ("fig8", fig7_fig8_rows)):
        subcommand(name, f"emit {name} sweep CSV", rows)
    sp_opt = subcommand("optimize", "joint optimum for one config", optimize_rows)
    sp_opt.add_argument("--provider", choices=PROVIDERS, default=None,
                        help="interval provider (default: the config's, else galerkin)")
    sp_opt.add_argument("--paging-mode", choices=("paper", "cumulative"),
                        default="paper")
    sp_sim = subcommand("simulate", "protocol episode or raw MC run", simulate_rows)
    sp_sim.add_argument("--seed", type=_seed, default=None)
    sp_sim.add_argument("--mode", choices=("episode", "ctrw"), default="episode")
    sp_sim.add_argument("--trials", type=int, default=100_000)
    sp_sim.add_argument("--x-km", type=float, default=None)
    sp_val = sub.add_parser("validate", help="run the oracle cross-check suite")
    sp_val.add_argument("--out", default=None, help="output CSV path")
    sp_val.add_argument("--inject", choices=INJECTIONS, default=None,
                        help="corrupt the diffusion mapping (negative control)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Regime and search warnings are not reported yet; the CSV carries
        # only the numbers.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if args.out is not None:
                _check_out(args.out)
            if args.command == "validate":
                return cmd_validate(args)
            cfg = parse_config(args.config) if args.config else dict(DEFAULTS)
            flags = {key: value for key, value in vars(args).items() if key not in _COMMON}
            header, rows = args.rows(cfg, **flags)
            _write_csv(args.out, header, rows)
            return 0
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
