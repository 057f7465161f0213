#!/usr/bin/env python3
"""Run the benchmark in two checkouts in alternating pairs and compare them.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N
           --out BENCH_<n>.json [--seed S] [--trace 0|1]

Each pair runs ``bench/run.py`` once in each checkout, from that checkout's
own ``bench/`` and ``src/``, with the same seed, ``S + i`` for pair i,
and for the ``run_seconds`` of the parent's ``BENCHMARK.json``.  Even
pairs run the parent first and odd pairs the change first.  Each run
becomes one record in the ``BENCH_*.json`` format: workload, seed, side,
the side that ran first in its pair, trace flag, exit status, the command,
and the two JSON lines ``bench/run.py`` prints (``result`` and ``info``).
An existing ``--out`` file is extended, so one file can hold the runs of
several workloads.

At the end it prints, for each end-to-end metric of ``BENCHMARK.json``
and each side, the median and quartiles (by ``statistics.quantiles``,
inclusive method), the gap between the medians, the parent's interquartile
range, and how many pairs the change won (ties count for neither side).
A traced run reports no end-to-end metric, so with ``--trace 1`` only the
records are written.  Nothing under either checkout's ``bench/`` is written
apart from what ``bench/run.py`` writes itself (``.bench_out/``).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its exit status and the two
    JSON lines it prints (``None`` when it printed fewer)."""
    args = ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *args], cwd=checkout,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    info, result = (json.loads(lines[-2]), json.loads(lines[-1])) if len(lines) >= 2 \
        else (None, None)
    return {"exit": proc.returncode, "command": " ".join(["python3", *args]),
            "result": result, "info": info}


def metric(record: dict, name: str):
    result = record["result"] or {}
    entry = result.get("metrics", {}).get(name)
    return None if entry is None else entry["value"]


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, lower quartile, upper quartile)."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    records = json.loads(args.out.read_text()) if args.out.exists() else []
    sides = {"parent": args.parent, "change": args.change}
    values = {name: {"parent": [], "change": []} for name in better}
    won = dict.fromkeys(better, 0)
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            rec = {"workload": args.workload, "seed": seed, "side": side,
                   "first_in_pair": order[0], "trace": args.trace,
                   **run_once(sides[side], args.workload, seed, seconds, args.trace)}
            records.append(rec)
            args.out.write_text(json.dumps(records, indent=1) + "\n")
            pair[side] = {name: metric(rec, name) for name in better}
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side:6s} exit {rec['exit']} "
                  + " ".join(f"{k} {v}" for k, v in pair[side].items()), flush=True)
        for name in better:
            p, c = pair["parent"][name], pair["change"][name]
            if p is None or c is None:
                continue
            values[name]["parent"].append(p)
            values[name]["change"].append(c)
            won[name] += (p > c) if better[name] == "lower" else (p < c)

    for name in better:
        n = len(values[name]["parent"])
        if n < 2:
            print(f"{name}: fewer than 2 complete pairs, no summary")
            continue
        stats = {side: summary(values[name][side]) for side in sides}
        for side, (med, q1, q3) in stats.items():
            print(f"{name} {side:6s} median {med:.6g}  quartiles {q1:.6g} .. {q3:.6g}"
                  f"  (n = {n})")
        gap = stats["parent"][0] - stats["change"][0]
        iqr = stats["parent"][2] - stats["parent"][1]
        print(f"{name} median gap (parent - change) {gap:.6g}, parent IQR {iqr:.6g}; "
              f"change won {won[name]} of {n} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
