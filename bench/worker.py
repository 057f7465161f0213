"""One benchmark process: import lamopt, build a workload, run its passes.

``run.py`` starts this script in a fresh interpreter for every set-up sample
and for the measured run.  Set-up ends once the package is imported and the
inputs are built; with ``--setup-only`` the script reports that time and
stops.  Otherwise it runs whole passes over the workload's calls until the
next one would overrun ``--seconds`` (always at least one), checks every
output, and prints one JSON object as its last line.

Times are reference seconds of ``hostclock.HostClock``, which discounts the
host's changing speed; the raw wall-clock figures are reported beside them
as ``raw_*``.

With ``--trace 1`` half the budget runs untraced passes and half runs
traced ones, so that the tracing overhead is measured in the same process.
"""

import os
import sys
import time

from hostclock import HostClock

# Every time this process reports is read from CLOCK, which counts from the
# moment the parent started it (see hostclock.py).
CLOCK = HostClock(start=float(sys.argv[sys.argv.index("--spawned-at") + 1]))

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

_modules_before = len(sys.modules)
import lamopt.cli  # noqa: E402  (timed and counted: the CLI's own start-up)
IMPORT_MODULES = len(sys.modules) - _modules_before

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from lamopt import mobility  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# The direction-moment cache is cold in every CLI invocation; clearing it
# before each pass makes every pass pay what a fresh process pays.
_clear_direction_cache = mobility.direction_moments.cache_clear


def host_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def run_pass(calls, refs) -> dict:
    """Run every call once; time only the calls themselves."""
    _clear_direction_cache()
    records = []
    for call in calls:
        raw0, t0 = time.perf_counter(), CLOCK.now()
        try:
            result = call.run()
            error = None
        except Exception as exc:  # a raising call is a failed call, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = CLOCK.now() - t0
        raw_seconds = time.perf_counter() - raw0
        summary = None
        if error is None:
            try:
                summary = call.summarize(result)
                if not call.check(summary, refs.get(call.name)):
                    error = "output check failed"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append({"name": call.name, "s": seconds, "raw_s": raw_seconds,
                        "error": error, "summary": summary, "work": call.work})
    return {"wall_s": sum(r["s"] for r in records),
            "raw_wall_s": sum(r["raw_s"] for r in records), "calls": records}


def workload_rates(passes: list[dict]) -> dict:
    """Workload-level rates from untraced passes (median over passes)."""
    trials, to_1pct, sim_hr = [], [], []
    for p in passes:
        mc = [r for r in p["calls"] if "trials" in r["work"] and r["error"] is None]
        if mc:
            trials.append(sum(r["work"]["trials"] for r in mc) / sum(r["s"] for r in mc))
            to_1pct.append(sum(
                r["s"] * (r["summary"]["half_width_95"] / (0.01 * r["summary"]["mean"])) ** 2
                for r in mc if "half_width_95" in r["summary"]))
        ep = [r for r in p["calls"] if "sim_hr" in r["work"] and r["error"] is None]
        if ep:
            sim_hr.append(sum(r["work"]["sim_hr"] for r in ep) / sum(r["s"] for r in ep))
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    return {"mc_trials_per_s": med(trials), "mc_s_to_1pct": med(to_1pct),
            "episode_sim_hr_per_s": med(sim_hr)}


def layer_metrics(tracer: Tracer, traced: list[dict], untraced: list[dict]) -> dict:
    n = len(traced)
    out = tracer.span_stats(n)
    nodes = tracer.counts["pde.solve_mean_interval"]
    steps = tracer.counts["ctrw.sample_steps"]
    mc_s = out["ctrw.estimate_T.s"] + out["ctrw.surviving_positions.s"]
    optima = out["costs.joint_optimize.calls"] * n
    evals = tracer.children_of("costs.joint_optimize",
                               {"approx.galerkin_solution", "pde.solve_mean_interval"})
    estimates = [r["summary"] for p in traced for r in p["calls"]
                 if r["error"] is None and isinstance(r["summary"], dict)
                 and "half_width_95" in r["summary"]]
    episodes = [r["summary"] for p in traced for r in p["calls"]
                if r["error"] is None and "sim_hr" in r["work"]]
    calls_paged = sum(e["calls"] for e in episodes)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    out.update({
        "costs.evals_per_optimum": evals / optima if optima else 0.0,
        "pde.nodes_solved": nodes / n,
        "pde.us_per_node": (out["pde.solve_mean_interval.s"] * n / nodes * 1e6
                            if nodes else 0.0),
        "ctrw.steps_drawn": steps / n,
        # Steps drawn outside an MC entry point (protocol block refills)
        # count in steps_drawn but not in this rate.
        "ctrw.steps_per_s": steps / n / mc_s if mc_s else 0.0,
        "ctrw.ci_rel_max": max((e["half_width_95"] / e["mean"] for e in estimates),
                               default=0.0),
        "ctrw.censored": sum(e["censored_count"] for e in estimates) / n,
        "protocol.updates": sum(e["update_count"] for e in episodes) / n,
        "protocol.cells_paged_per_call": (
            sum(e["cells_paged_total"] for e in episodes) / calls_paged
            if calls_paged else 0.0),
        "cli.import_modules": IMPORT_MODULES,
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "host.raw_wall_s": statistics.median(p["raw_wall_s"] for p in untraced),
        "host.slowdown": CLOCK.slowdown(),
    })
    out.update(workload_rates(untraced))
    return out


def run_passes(calls, refs, budget: float, passes: list, tracer=None) -> None:
    """Whole passes until the next would overrun ``budget`` seconds."""
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.current_run = len(passes)
            with tracer.installed():
                passes.append(run_pass(calls, refs))
        else:
            passes.append(run_pass(calls, refs))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["raw_wall_s"] for p in passes)
        if elapsed + typical > budget:
            return


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--refs", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent when it started us")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    warnings.simplefilter("ignore")  # as the CLI does around every command
    with open(args.refs) as f:
        refs = workloads.reference_for(json.load(f), args.workload, args.size,
                                       args.seed)
    calls = workloads.BUILDERS[args.workload](args.seed, args.size)
    setup_s = CLOCK.now()
    raw_setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        CLOCK.stop()
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s, "host": host_info()}
    untraced: list[dict] = []
    if args.trace:
        tracer = Tracer()
        run_passes(calls, refs, args.seconds / 2, untraced)
        traced: list[dict] = []
        run_passes(calls, refs, args.seconds / 2, traced, tracer)
        result["layer"] = layer_metrics(tracer, traced, untraced)
        if args.spans_out:
            tracer.dump(args.spans_out)
        passes = untraced + traced
    else:
        run_passes(calls, refs, args.seconds, untraced)
        passes = untraced
        result["wall_s"] = statistics.median(p["wall_s"] for p in untraced)
    CLOCK.stop()
    result["slowdown"] = CLOCK.slowdown()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = sum(len(p["calls"]) for p in passes)
    result["failures"] = [{"pass": i, "call": r["name"], "error": r["error"]}
                          for i, p in enumerate(passes) for r in p["calls"]
                          if r["error"] is not None]
    result["pass_wall_s"] = [p["wall_s"] for p in passes]
    result["pass_raw_wall_s"] = [p["raw_wall_s"] for p in passes]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
