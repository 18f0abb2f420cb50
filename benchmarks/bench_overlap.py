"""Ablation A3 — component overlapping (§6).

"this method allows to use overlapping techniques that may dramatically
reduce the number of iterations required to reach the convergence" while
"whatever the size of the overlapped components, the exchanged data are
constant".

Shape assertions:
* sweep count decreases monotonically in the overlap, by >2x from o=0 to
  o=4 (the paper's "dramatically");
* exchanged components per iteration are IDENTICAL for every overlap;
* the distributed runtime shows the same direction (async run, o=0 vs o>0).
"""

import pytest

from repro.exec import RunSpec
from repro.experiments.ablations import overlap_ablation


@pytest.mark.benchmark(group="ablation")
def test_overlap_reduces_iterations_constant_exchange(benchmark, record_table):
    table = benchmark.pedantic(
        lambda: overlap_ablation(overlaps=(0, 1, 2, 3, 4), n=64, peers=8),
        rounds=1,
        iterations=1,
    )
    record_table("overlap", table.format_table())

    sweeps = [row[1] for row in table.rows]
    assert all(a > b for a, b in zip(sweeps, sweeps[1:])), (
        f"sweeps {sweeps} must decrease with overlap"
    )
    assert sweeps[0] / sweeps[-1] > 2.0, "overlap gain should be 'dramatic'"
    exchanged = {row[2] for row in table.rows}
    assert len(exchanged) == 1, "exchanged data must be constant in the overlap"


@pytest.mark.benchmark(group="ablation")
def test_overlap_helps_on_the_runtime_too(benchmark, record_table):
    def run_pair():
        no_overlap = RunSpec(n=48, peers=8, overlap=0, collect=False).run()
        with_overlap = RunSpec(n=48, peers=8, overlap=2, collect=False).run()
        return no_overlap, with_overlap

    no_overlap, with_overlap = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    record_table(
        "overlap_runtime",
        "A3 on the P2P runtime (n=48, 8 peers):\n"
        f"  overlap=0: time={no_overlap.simulated_time:.3f}s "
        f"iters/task={no_overlap.mean_iterations_per_task:.0f}\n"
        f"  overlap=2: time={with_overlap.simulated_time:.3f}s "
        f"iters/task={with_overlap.mean_iterations_per_task:.0f}",
    )
    assert no_overlap.converged and with_overlap.converged
    assert (
        with_overlap.mean_iterations_per_task
        < no_overlap.mean_iterations_per_task
    )
