"""Location-area management optimization under a CTRW mobility model.

The package couples four views of the same mobile-terminal motion process:

* ``mobility`` -- step-level motion statistics and their diffusion limit,
* ``ctrw`` -- Monte-Carlo simulation of the jump process (the oracle),
* ``pde`` -- finite-difference solutions of the exit-time equations,
* ``approx`` -- closed-form and Galerkin approximations,

and builds on them the cost model (``costs``) and a cell-level protocol
simulation (``protocol``).  ``cli`` exposes everything as subcommands.
"""

__version__ = "0.1.0"
