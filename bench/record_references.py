"""Record the output references that the benchmark checks against.

    python3 bench/record_references.py

Writes ``bench/references.json``.  Run it only when a change to lamopt is
meant to change these outputs, and say why in the change.

* ``paper_figures`` and ``pde_optimize``: the outputs of one pass; they take
  no seed.
* ``mc_oracle``: not MC output but its oracles -- the finite-difference mean
  interval on h = R/128 at each (k, lambda) point, and the survival fraction
  of a 400k-trial run with a seed no workload seed maps to.
* ``protocol_episode``: the full ``EpisodeMetrics`` of every episode, for
  each seed in ``EPISODE_SEEDS``; other seeds are checked by the counter
  identities alone.
"""

import json
import os
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from lamopt import ctrw, pde  # noqa: E402
from lamopt.config import default_mobility  # noqa: E402
from lamopt.mobility import compute_diffusion  # noqa: E402

import workloads as w  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 20240809
EPISODE_SEEDS = list(range(16)) + [HELD_OUT_SEED]
SURVIVAL_REF_TRIALS = 400_000
SURVIVAL_REF_SEED = 2**40  # run.py keeps seeds below 2**32, so seed * 8 + i < 2**35


def one_pass(workload: str, seed: int, size: str) -> dict:
    out = {}
    for call in w.BUILDERS[workload](seed, size):
        out[call.name] = call.summarize(call.run())
    return out


def mc_oracles() -> dict:
    refs = {}
    grid = pde.DiscGrid(1.0, 1.0 / 128)
    for k, lam in w.MC_POINTS:
        field = pde.solve_mean_interval(compute_diffusion(default_mobility(k)),
                                        1.0, lam, grid)
        refs[w.mc_point_name(k, lam)] = {"pde": field.value_at((w.start_offset(k), 0.0))}
    sim = ctrw.SimConfig(n_trials=SURVIVAL_REF_TRIALS, seed=SURVIVAL_REF_SEED)
    _, frac = ctrw.surviving_positions((w.start_offset(w.SURVIVAL_K), 0.0), w.SURVIVAL_T_HR,
                                       1.0, default_mobility(w.SURVIVAL_K), sim)
    refs["surviving_positions"] = {"survival": frac, "n_trials": SURVIVAL_REF_TRIALS}
    return refs


def main() -> int:
    warnings.simplefilter("ignore")
    oracles = mc_oracles()
    refs = {}
    for size in w.SIZES:
        refs[size] = {
            "paper_figures": one_pass("paper_figures", DEFAULT_SEED, size),
            "pde_optimize": one_pass("pde_optimize", DEFAULT_SEED, size),
            "mc_oracle": oracles,
            "protocol_episode": {str(s): one_pass("protocol_episode", s, size)
                                 for s in EPISODE_SEEDS},
        }
        print(f"recorded {size}", flush=True)
    with open(os.path.join(HERE, "references.json"), "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
