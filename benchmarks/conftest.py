"""Shared infrastructure for the paper-model harnesses.

Each test module regenerates one table of the paper (Figs. 4-6), one
model ablation or the direct-sum crossover: a module-scoped fixture runs
the harness once, a ``*_regenerate`` test writes the rendered table to
``benchmarks/results/`` (tracked; the timings are simulated-device
seconds, so a rerun reproduces the file byte for byte), and the other
tests assert the paper's qualitative findings (who wins, by roughly what
factor, where the crossovers fall).  Nothing here measures wall-clock:
that is ``benchmarks/e2e``.

Figs. 4-6 run their trimmed sweeps (fewer sweep points, same scales),
which is what the tracked tables hold; ``python -m repro.figures fig4
--full`` prints the complete sweep.
"""

import os
import sys

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: str, name: str, text: str) -> None:
    """Persist a rendered table and echo it to stdout."""
    path = os.path.join(results_dir, name)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print()
    print(text)
    print(f"[written to {path}]")
