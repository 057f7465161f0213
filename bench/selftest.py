"""Self-test of the benchmark: run from the repository root as

    python3 bench/selftest.py

* every workload at the tiny size, untraced and traced, emits exactly the
  metrics ``BENCHMARK.json`` names, each with its unit, and no failed call;
* an episode seed without a recorded reference still passes its checks;
* negative control: one corrupted reference value is reported as a failed
  call, and the run exits non-zero;
* in a directory holding only ``BENCHMARK.json`` and ``bench/`` the
  benchmark exits non-zero without printing a result.

Scratch files go to ``.bench_out/selftest/``.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out", "selftest")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(root: str, workload: str, seed: int, trace: int, *extra: str):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def check_metrics(result: dict, wanted: list[dict], where: str) -> None:
    assert result is not None and set(result) == RESULT_KEYS, f"{where}: {result}"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, where
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, f"{where}: metric names differ"
    for m in wanted:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], f"{where}: unit of {m['name']}"
        assert isinstance(value["value"], (int, float)), f"{where}: {m['name']}"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)

    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            where = f"{w['name']} trace={trace}"
            proc, result = bench(ROOT, w["name"], 0, trace)
            assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
            check_metrics(result, wanted, where)
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values()), where
            print(f"ok  {where}: {len(wanted)} metrics", flush=True)

    proc, result = bench(ROOT, "protocol_episode", 99, 0)
    assert proc.returncode == 0 and result["correct"], proc.stderr
    print("ok  unrecorded episode seed passes the identity checks", flush=True)

    with open(os.path.join(HERE, "references.json")) as f:
        refs = json.load(f)
    refs["tiny"]["paper_figures"]["fig5_rows"][1][1] *= 1.0 + 1e-4
    bad_refs = os.path.join(SCRATCH, "corrupted-references.json")
    with open(bad_refs, "w") as f:
        json.dump(refs, f)
    proc, result = bench(ROOT, "paper_figures", 0, 0, "--refs", bad_refs)
    assert proc.returncode != 0, "corrupted reference: exit 0"
    assert result is not None and not result["correct"] and result["failed"] >= 1, result
    assert "fig5_rows" in proc.stderr, proc.stderr
    print("ok  corrupted reference -> failed call, exit", proc.returncode, flush=True)

    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, result = bench(bare, "paper_figures", 0, 0)
    assert proc.returncode != 0 and result is None, (proc.returncode, proc.stdout)
    print("ok  without src/: exit", proc.returncode, "and no result", flush=True)
    shutil.rmtree(SCRATCH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
