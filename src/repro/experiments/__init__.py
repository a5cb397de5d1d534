"""Experiment harnesses regenerating every figure of the paper (Sec. 4).

Each module produces the rows/series of one figure:

* :mod:`~repro.experiments.fig4` -- run time vs error, single GPU vs
  6-core CPU, Coulomb and Yukawa, MAC sweep (Fig. 4ab).
* :mod:`~repro.experiments.fig5` -- weak scaling 1-32 GPUs (Fig. 5).
* :mod:`~repro.experiments.fig6` -- strong scaling + phase distribution
  (Fig. 6a-d).

The harnesses separate *measured accuracy* (real numerics at a reduced
particle count -- errors are genuinely computed against direct summation)
from *modeled run time* (the calibrated device model driven by the exact
operation counts of a model-scale run).  See DESIGN.md for the
substitution rationale; EXPERIMENTS.md records paper-vs-measured.
"""

from .fig4 import Fig4Config, Fig4Row, run_fig4
from .fig5 import Fig5Config, Fig5Row, run_fig5
from .fig6 import Fig6Config, Fig6Row, run_fig6

__all__ = [
    "Fig4Config",
    "Fig4Row",
    "run_fig4",
    "Fig5Config",
    "Fig5Row",
    "run_fig5",
    "Fig6Config",
    "Fig6Row",
    "run_fig6",
]
