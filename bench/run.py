"""lamopt benchmark: run one workload and print its metrics as one JSON line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads, metrics, units and bounds are defined in ``BENCHMARK.json`` at
the repository root; ``bench/workloads.py`` says why each workload is there
and ``bench/metrics.md`` maps each per-layer metric to the end-to-end metric
it should move.

Every process is a fresh, single-threaded interpreter (BLAS and OpenMP
pools pinned to one thread), started one at a time from the checkout's own
``src``.  With ``--trace 0`` it reports the end-to-end metrics: ``setup_s``
is the median over ``SETUP_SAMPLES`` fresh interpreters of the time from
start to ready (``import lamopt.cli`` plus the workload's inputs), and
``wall_s`` the median time of one pass over the workload's calls, both
read from the host-speed clock of ``hostclock.py``.  With
``--trace 1`` it reports the per-layer metrics from a traced run and
writes the spans to ``.bench_out/``.

Exit status: 0 when every call's output passed its check, 1 when some call
failed (the result line is still printed), 2 for bad arguments or a
checkout without ``src/lamopt``, 3 when the benchmark itself broke.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 9  # the measured process is one of them
DEADLINE_S = 170.0
MAX_SEED = 2**32


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # lamopt comes from this checkout only
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(worker_args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and parse its last output line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *worker_args,
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=worker_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def parse_args(spec: dict) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every call path in seconds (self-test)")
    ap.add_argument("--refs", default=os.path.join(HERE, "references.json"),
                    help="output references to check against")
    args = ap.parse_args()
    if not 0 <= args.seed < MAX_SEED:
        ap.error(f"--seed must be in [0, {MAX_SEED})")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def measure(args) -> tuple[dict, dict, list[float]]:
    """(worker result, metric values, set-up samples)."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size, "--refs", args.refs]
    setups, raw_setups = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe = spawn(common + ["--setup-only"], deadline - time.monotonic())
            setups.append(probe["setup_s"])
            raw_setups.append(probe["raw_setup_s"])
    run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        run_args += ["--spans-out", os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")]
    result = spawn(run_args, deadline - time.monotonic())
    setups.append(result["setup_s"])
    raw_setups.append(result["raw_setup_s"])
    result["raw_setup_samples_s"] = raw_setups
    if args.trace:
        values = result["layer"]
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": result["wall_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
    return result, values, setups


def main() -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        print(f"bench: {spec_path} not found", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    args = parse_args(spec)
    if not os.path.isfile(os.path.join(ROOT, "src", "lamopt", "__init__.py")):
        print(f"bench: no lamopt source under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        result, values, setups = measure(args)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not computed: {missing}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failures = result["failures"]
    for fail in failures:
        print(f"bench: failed call {fail['call']} (pass {fail['pass']}): {fail['error']}",
              file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "host": result["host"], "slowdown": result["slowdown"],
              "setup_samples_s": setups,
              "raw_setup_samples_s": result["raw_setup_samples_s"],
              "pass_wall_s": result["pass_wall_s"],
              "pass_raw_wall_s": result["pass_raw_wall_s"], "failures": failures,
              "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"host": result["host"], "passes": len(result["pass_wall_s"])}))
    print(json.dumps({"correct": not failures, "attempted": result["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
