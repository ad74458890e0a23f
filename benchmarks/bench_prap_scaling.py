"""Section 4.1 vs 4.2 ablation: prefetch-buffer scaling of partitioned
parallel merge vs PRaP.

The paper's Fig. 7 example: 1024 lists, 2 KB DRAM pages.  Partitioning
needs m x K x dpage (32 MB at m=16); PRaP stays at K x dpage (2 MB) for
any core count.  Both schemes are also run functionally to confirm they
compute the same dense result.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.merge.merge_core import MergeCoreConfig
from repro.merge.partitioned import PartitionedMergeConfig, partitioned_merge_dense
from repro.merge.prap import PRaPConfig, prap_merge_dense

from benchmarks._util import emit

K_LISTS = 1024
DPAGE = 2048
CORE_COUNTS = [1, 2, 4, 8, 16, 32]


def render() -> str:
    rows = []
    for m in CORE_COUNTS:
        part = PartitionedMergeConfig(partitions=m, n_lists=K_LISTS, dpage_bytes=DPAGE)
        q = m.bit_length() - 1
        prap = PRaPConfig(q=q, core=MergeCoreConfig(ways=K_LISTS), dpage_bytes=DPAGE)
        rows.append(
            [
                m,
                part.prefetch_buffer_bytes / (1 << 20),
                prap.prefetch_buffer_bytes / (1 << 20),
                part.prefetch_buffer_bytes / prap.prefetch_buffer_bytes,
            ]
        )
    table = format_table(
        ["parallel cores", "partitioning (MiB)", "PRaP (MiB)", "ratio"],
        rows,
        title="Prefetch-buffer scaling: partitioning (sec 4.1) vs PRaP (sec 4.2)",
    )
    note = (
        "paper's Fig. 7 example at 16 cores: 32 MB vs 2 MB (16x).\n"
        "PRaP on-chip cost is independent of core count; partitioning grows linearly."
    )
    return table + "\n\n" + note


def functional_equivalence():
    rng = np.random.default_rng(41)
    n_out = 4096
    lists = []
    for _ in range(12):
        size = int(rng.integers(50, 400))
        idx = np.sort(rng.choice(n_out, size=size, replace=False)).astype(np.int64)
        lists.append((idx, rng.uniform(size=size)))
    prap = prap_merge_dense(lists, n_out, q=3)
    part = partitioned_merge_dense(lists, n_out, partitions=8)
    return prap, part


def throughput_comparison():
    """Cycle-level fairness check: partitioning also scales throughput --
    the failure is on-chip memory (and range-skew imbalance), not speed."""
    from repro.merge.partitioned_sim import PartitionedMergeSim, PartitionedSimConfig
    from repro.simulator.step2_sim import Step2CycleSim, Step2SimConfig

    rng = np.random.default_rng(42)
    n_out = 8192
    lists = []
    for _ in range(8):
        size = int(rng.integers(500, 1500))
        idx = np.sort(rng.choice(n_out, size=size, replace=False)).astype(np.int64)
        lists.append((idx, rng.uniform(size=size)))
    part = PartitionedMergeSim(PartitionedSimConfig(partitions=4)).run(lists, n_out)
    prap = Step2CycleSim(Step2SimConfig(q=2)).run(lists, n_out)
    return part, prap


def test_prap_scaling(benchmark):
    text = benchmark(render)
    prap_out, part_out = functional_equivalence()
    assert np.allclose(prap_out, part_out)
    part_sim, prap_sim = throughput_comparison()
    assert np.allclose(part_sim.output, prap_sim.output)
    # Similar cycle counts on uniform inputs: the schemes differ in
    # buffering, not in peak throughput.
    assert 0.5 < part_sim.cycles / prap_sim.cycles < 2.0
    text += (
        f"\n\nthroughput fairness (uniform input, 4 cores): partitioned "
        f"{part_sim.cycles:,} cycles vs PRaP {prap_sim.cycles:,} cycles -- "
        "the difference is on-chip memory, not speed."
    )
    emit("prap_scaling", text)
    p16 = PartitionedMergeConfig(partitions=16, n_lists=K_LISTS, dpage_bytes=DPAGE)
    prap16 = PRaPConfig(q=4, core=MergeCoreConfig(ways=K_LISTS), dpage_bytes=DPAGE)
    assert p16.prefetch_buffer_bytes == 32 << 20
    assert prap16.prefetch_buffer_bytes == 2 << 20
