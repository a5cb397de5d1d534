"""Figure 4 reproduction: run time vs error, single GPU vs 6-core CPU.

Paper claims checked (Sec. 4, Fig. 4 discussion):
 (1) the BLTC is faster than direct summation on both devices over the
     whole error range;
 (2) the BLTC runs at least ~100x faster on the GPU than the CPU;
 (3) Coulomb and Yukawa behave qualitatively alike, Yukawa slightly
     slower (~1.8x CPU, ~1.5x GPU);
 (4) the GPU direct sum beats the CPU *treecode* at this problem size;
 plus the basic anatomy of the figure: error decreases with degree n
 along each constant-theta curve, down to machine precision.
"""

from collections import defaultdict

import pytest

from conftest import write_result
from repro.analysis import format_table
from repro.experiments import Fig4Config, run_fig4


@pytest.fixture(scope="module")
def fig4():
    return run_fig4(Fig4Config().quick())


def _curves(rows):
    curves = defaultdict(list)
    for r in rows:
        curves[(r.kernel, r.theta)].append(r)
    for pts in curves.values():
        pts.sort(key=lambda r: r.degree)
    return curves


def test_fig4_regenerate(fig4, results_dir):
    headers = [
        "kernel", "theta", "n", "error", "GPU time (s)", "CPU time (s)",
        "speedup", "approx", "direct",
    ]
    rows = [
        [r.kernel, r.theta, r.degree, r.error, r.gpu_time, r.cpu_time,
         r.speedup, r.n_approx, r.n_direct]
        for r in fig4["rows"]
    ]
    direct = fig4["direct"]
    lines = [
        format_table(
            headers,
            rows,
            title=(
                "Fig. 4 -- BLTC run time vs error, 1M-particle model scale "
                "(times: calibrated device model; errors: measured at "
                f"N={fig4['config'].n_error})"
            ),
        ),
        "",
        "Direct-summation reference lines (model, 1M particles):",
    ]
    for kname, times in direct.items():
        lines.append(
            f"  {kname:>8s}: GPU {times['gpu']:10.2f} s   "
            f"CPU {times['cpu']:10.1f} s"
        )
    write_result(results_dir, "fig4_time_vs_error.txt", "\n".join(lines))


def test_error_decreases_with_degree(fig4):
    """Each constant-theta curve must descend (to ~machine precision)."""
    for (kernel, theta), pts in _curves(fig4["rows"]).items():
        errs = [r.error for r in pts]
        assert errs[-1] < errs[0] / 10.0, (kernel, theta, errs)
        # Monotone until the machine-precision floor (~1e-13).
        above_floor = [e for e in errs if e > 1e-12]
        assert above_floor == sorted(above_floor, reverse=True), (
            kernel, theta, errs,
        )
        assert errs[-1] < 1e-9


def test_machine_precision_reached(fig4):
    best = min(r.error for r in fig4["rows"])
    assert best < 1e-12


def test_gpu_speedup_at_least_paper_band(fig4):
    """Claim (2): >= 100x GPU/CPU across the sweep (we allow 80x floor)."""
    speedups = [r.speedup for r in fig4["rows"]]
    assert min(speedups) > 80.0
    assert max(speedups) > 100.0


def test_treecode_beats_direct_sum_everywhere(fig4):
    """Claim (1): on each device the BLTC undercuts direct summation for
    every point of every curve."""
    direct = fig4["direct"]
    for r in fig4["rows"]:
        assert r.gpu_time < direct[r.kernel]["gpu"], r
        assert r.cpu_time < direct[r.kernel]["cpu"], r


def test_gpu_direct_beats_cpu_treecode(fig4):
    """Claim (4): at 1M particles the GPU direct sum is faster than the
    CPU treecode (not true asymptotically -- O(N^2) vs O(N log N))."""
    direct = fig4["direct"]
    for r in fig4["rows"]:
        assert direct[r.kernel]["gpu"] < r.cpu_time


def test_yukawa_cost_ratio(fig4):
    """Claim (3): Yukawa ~1.5x GPU, ~1.8x CPU relative to Coulomb."""
    by_key = {(r.kernel, r.theta, r.degree): r for r in fig4["rows"]}
    gpu_ratios, cpu_ratios = [], []
    for (kernel, theta, degree), r in by_key.items():
        if kernel != "yukawa":
            continue
        c = by_key.get(("coulomb", theta, degree))
        if c is None:
            continue
        gpu_ratios.append(r.gpu_time / c.gpu_time)
        cpu_ratios.append(r.cpu_time / c.cpu_time)
    assert gpu_ratios and cpu_ratios
    mean_gpu = sum(gpu_ratios) / len(gpu_ratios)
    mean_cpu = sum(cpu_ratios) / len(cpu_ratios)
    assert 1.2 < mean_gpu < 1.9
    assert 1.4 < mean_cpu < 2.4
    assert mean_cpu > mean_gpu  # the exponential hurts the CPU more
