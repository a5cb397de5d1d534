"""Figure 6 reproduction: strong scaling + phase-time distribution.

Paper claims checked (Sec. 4, Fig. 6):
 * (a,b) run time falls as GPUs are added; efficiency at 32 GPUs is
   higher for the larger system (paper: 83-84% at 64M vs 64-73% at 16M);
 * (c,d) the compute phase dominates at small rank counts, and the
   setup + precompute fractions grow with the number of GPUs
   (communication volume grows; the modified-charge kernels stop
   saturating the GPU as the per-rank load shrinks).
"""

from collections import defaultdict

import pytest

from conftest import write_result
from repro.analysis import format_table
from repro.experiments import Fig6Config, run_fig6


@pytest.fixture(scope="module")
def fig6():
    return run_fig6(Fig6Config().quick())


def _curves(rows):
    curves = defaultdict(list)
    for r in rows:
        curves[(r.kernel, r.paper_total)].append(r)
    for pts in curves.values():
        pts.sort(key=lambda r: r.n_gpus)
    return curves


def test_fig6_regenerate(fig6, results_dir):
    cfg = fig6["config"]
    headers = [
        "kernel", "paper N", "model N", "GPUs", "time (s)", "efficiency",
        "setup %", "precompute %", "compute %",
    ]
    rows = [
        [r.kernel, f"{r.paper_total // 1_000_000}M", r.n_total, r.n_gpus,
         r.time, f"{r.efficiency * 100:.0f}%",
         f"{r.setup_frac * 100:.1f}", f"{r.precompute_frac * 100:.1f}",
         f"{r.compute_frac * 100:.1f}"]
        for r in fig6["rows"]
    ]
    write_result(
        results_dir,
        "fig6_strong_scaling.txt",
        format_table(
            headers,
            rows,
            title=(
                "Fig. 6 -- strong scaling + phase distribution, simulated "
                f"P100 cluster (paper scale / {cfg.scale_divisor}, "
                f"theta={cfg.theta}, n={cfg.degree})"
            ),
        ),
    )


def test_time_decreases_with_gpus(fig6):
    for (kernel, total), pts in _curves(fig6["rows"]).items():
        times = [r.time for r in pts]
        assert times == sorted(times, reverse=True), (kernel, total, times)
        assert times[-1] < times[0] / 4.0  # real speedup by 32 GPUs


def test_larger_system_scales_better(fig6):
    """Paper: the 64M case holds higher efficiency at 32 GPUs than 16M."""
    curves = _curves(fig6["rows"])
    totals = sorted({r.paper_total for r in fig6["rows"]})
    assert len(totals) >= 2
    small, large = totals[0], totals[-1]
    for kernel in {r.kernel for r in fig6["rows"]}:
        eff_small = curves[(kernel, small)][-1].efficiency
        eff_large = curves[(kernel, large)][-1].efficiency
        assert eff_large > eff_small, (kernel, eff_small, eff_large)


def test_efficiency_band_at_32_gpus(fig6):
    """Paper band: 64-84% efficiency at 32 GPUs; allow a generous
    45-100% window for the scaled-down model."""
    for (kernel, total), pts in _curves(fig6["rows"]).items():
        eff = pts[-1].efficiency
        assert 0.45 <= eff <= 1.05, (kernel, total, eff)


def test_compute_dominates_at_one_gpu(fig6):
    for (kernel, total), pts in _curves(fig6["rows"]).items():
        first = pts[0]
        assert first.compute_frac > 0.5, (kernel, total, first)


def test_setup_fraction_grows_with_gpus(fig6):
    """Fig. 6cd: work shifts toward setup (+ precompute) as ranks grow."""
    for (kernel, total), pts in _curves(fig6["rows"]).items():
        overhead_first = pts[0].setup_frac + pts[0].precompute_frac
        overhead_last = pts[-1].setup_frac + pts[-1].precompute_frac
        assert overhead_last > overhead_first, (kernel, total)
        assert pts[-1].compute_frac < pts[0].compute_frac
