#!/usr/bin/env python3
"""Write every CSV that a change is compared on, byte for byte.

Usage: python scripts/snapshot_csvs.py OUTDIR

Writes fig5..fig8, ``optimize`` for each provider and paging mode at
``m_paging`` = 1 and 3, and ``simulate`` in episode and ctrw mode, all at the
default scenario; ``optimize`` with each provider at the strongly drifted
point ``k`` = 20, ``lambda_per_hr`` = 0.2, where the strong-drift closed
forms hold and the disc solver upwinds its drift stencil; and the
``validate`` report plain and under each ``--inject``, without its
wall-time ``seconds`` column.  Two checkouts agree when ``diff -r`` of
their OUTDIRs is empty.
"""

import contextlib
import io
import pathlib
import sys
import tempfile

from lamopt.cli import main
from lamopt.costs import PROVIDERS
from lamopt.validate import INJECTIONS

if len(sys.argv) != 2:
    sys.exit(__doc__.strip().splitlines()[2])
outdir = pathlib.Path(sys.argv[1])
outdir.mkdir(parents=True, exist_ok=True)


def run(name: str, *args: str, code: int = 0) -> pathlib.Path:
    path = outdir / f"{name}.csv"
    if main([*args, "--out", str(path)]) != code:
        sys.exit(f"{name} did not exit {code}")
    print(f"wrote {path}")
    return path


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
    strong = pathlib.Path(tmp) / "strong.cfg"
    strong.write_text("k = 20\nlambda_per_hr = 0.2\n")
    for provider in PROVIDERS:
        run(f"optimize_{provider}_strong", "optimize", "--config", str(strong),
            "--provider", provider)

for mode in ("episode", "ctrw"):
    run(f"simulate_{mode}", "simulate", "--mode", mode)

# an injected run fails on purpose (exit 1); the report also goes to stdout
for inject in (None, *INJECTIONS):
    with contextlib.redirect_stdout(io.StringIO()):
        if inject is None:
            path = run("validate", "validate")
        else:
            path = run(f"validate_{inject}", "validate", "--inject", inject, code=1)
    rows = path.read_text().splitlines()
    path.write_text("".join(row.rsplit(",", 1)[0] + "\n" for row in rows))
    print(f"wrote {path}")
