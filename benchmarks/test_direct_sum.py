"""Direct-summation baseline benchmarks (paper Sec. 1 + Sec. 4 in-text).

Checks the in-text claims about direct summation:
 * GPU direct summation is dramatically faster than the CPU version (the
   paper's intro cites 25x over an optimized CPU code and 250x over a
   portable C code; our model gives the hardware throughput ratio);
 * direct summation does not improve the O(N^2) scaling with system
   size, so the treecode overtakes it as N grows -- the crossover.
"""

import pytest

from conftest import write_result
from repro import (
    BarycentricTreecode,
    CoulombKernel,
    CPU_XEON_X5650,
    GPU_TITAN_V,
    TreecodeParams,
    random_cube,
)
from repro.analysis import format_table


def _direct_times(n: int) -> tuple[float, float]:
    inter = float(n) * float(n)
    gpu = GPU_TITAN_V.interaction_time(inter, blocks=n) + GPU_TITAN_V.launch_latency
    cpu = CPU_XEON_X5650.interaction_time(inter)
    return gpu, cpu


@pytest.fixture(scope="module")
def crossover():
    """Model treecode vs direct times over an N sweep."""
    params = TreecodeParams(
        theta=0.8, degree=8, max_leaf_size=2000, max_batch_size=2000
    )
    rows = []
    for n in (10_000, 50_000, 200_000, 1_000_000):
        p = random_cube(n, seed=9)
        tc = BarycentricTreecode(CoulombKernel(), params).compute(
            p, dry_run=True
        )
        d_gpu, d_cpu = _direct_times(n)
        rows.append((n, tc.phases.total, d_gpu, d_cpu))
    return rows


def test_direct_sum_regenerate(crossover, results_dir):
    write_result(
        results_dir,
        "direct_sum_crossover.txt",
        format_table(
            ["N", "BLTC GPU (s)", "direct GPU (s)", "direct CPU (s)"],
            [list(r) for r in crossover],
            title="Direct summation vs BLTC (device model, theta=0.8, n=8)",
        ),
    )


def test_gpu_direct_much_faster_than_cpu_direct(crossover):
    """Intro claim: GPU direct summation is orders of magnitude faster."""
    for n, _tc, d_gpu, d_cpu in crossover:
        assert d_cpu / d_gpu > 100.0


def test_treecode_overtakes_direct_sum(crossover):
    """O(N log N) beats O(N^2) from a few hundred thousand particles."""
    last_n, tc, d_gpu, _ = crossover[-1]
    assert last_n >= 1_000_000
    assert tc < d_gpu
    # The advantage grows with N.
    ratios = [d_gpu / tc for _, tc, d_gpu, _ in crossover]
    assert ratios[-1] > ratios[0]


def test_measured_direct_sum_numerics():
    """The real (NumPy) direct sum returns one potential per target."""
    from repro import direct_sum

    p = random_cube(4000, seed=10)
    phi = direct_sum(p.positions, p.positions, p.charges, CoulombKernel())
    assert phi.shape == (4000,)
