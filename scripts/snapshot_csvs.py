#!/usr/bin/env python3
"""Write every CSV that a change is compared on, byte for byte.

Usage: python scripts/snapshot_csvs.py OUTDIR

Writes fig5..fig8, ``optimize`` for each provider and paging mode at
``m_paging`` = 1 and 3, and ``simulate`` in episode and ctrw mode, all at the
default scenario.  Two checkouts agree when ``diff -r`` of their OUTDIRs is
empty.
"""

import pathlib
import sys
import tempfile

from lamopt.cli import main
from lamopt.costs import PROVIDERS

if len(sys.argv) != 2:
    sys.exit(__doc__.strip().splitlines()[2])
outdir = pathlib.Path(sys.argv[1])
outdir.mkdir(parents=True, exist_ok=True)


def run(name: str, *args: str) -> None:
    path = outdir / f"{name}.csv"
    if main([*args, "--out", str(path)]) != 0:
        sys.exit(f"{name} failed")
    print(f"wrote {path}")


for fig in ("fig5", "fig6", "fig7", "fig8"):
    run(fig, fig)

with tempfile.TemporaryDirectory() as tmp:
    m3 = pathlib.Path(tmp) / "m3.cfg"
    m3.write_text("m_paging = 3\n")
    for m, config in ((1, []), (3, ["--config", str(m3)])):
        for provider in PROVIDERS:
            for mode in ("paper", "cumulative"):
                run(f"optimize_{provider}_{mode}_m{m}", "optimize", *config,
                    "--provider", provider, "--paging-mode", mode)

for mode in ("episode", "ctrw"):
    run(f"simulate_{mode}", "simulate", "--mode", mode)
