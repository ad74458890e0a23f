"""Cross-checks between independent models of the same mechanism.

Where two fidelities model one hardware effect, they must agree: the
analytic bank-conflict factor vs the clocked simulator's measured
conflicts, the analytic merge-cycle estimate vs the cycle-stepped tree,
and the clocked cycles' scaling with problem size.  The step-2
simulator vs the analytic step-2 estimate lives in ``test_core_steps.py``.
"""

import numpy as np
import pytest

from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.memory.scratchpad import expected_conflict_factor
from repro.merge.merge_core import MergeCore, MergeCoreConfig
from repro.simulator.step1_sim import Step1CycleSim, Step1SimConfig


def test_bank_conflict_model_vs_clocked_measurement(rng):
    """expected_conflict_factor ~ measured serialization on random columns."""
    pipelines, banks = 8, 32
    n = 40_000
    rows = np.sort(rng.integers(0, n, size=n).astype(np.int64))
    cols = rng.integers(0, n, size=n).astype(np.int64)
    vals = np.ones(n)
    sim = Step1CycleSim(Step1SimConfig(pipelines=pipelines, n_banks=banks,
                                       adder_chain_depth=1 << 30))
    result = sim.run_stripe(rows, cols, vals, np.ones(n))
    measured_factor = result.cycles / (n / pipelines)
    predicted = expected_conflict_factor(pipelines, banks)
    # The analytic form 1 + (P-1)/B is a first-order expectation; the
    # simulator measures the true max-load, which is somewhat higher.
    assert measured_factor == pytest.approx(predicted, rel=0.6)
    assert measured_factor > 1.0


def test_merge_cycle_estimate_vs_cycle_stepped_tree(rng):
    cfg = MergeCoreConfig(ways=8, fifo_depth=4)
    lists = [
        (np.arange(i, 1600, 8, dtype=np.int64), np.ones(200)) for i in range(8)
    ]
    core = MergeCore(cfg)
    core.merge(lists)
    estimated = cfg.estimate_cycles(1600)
    assert core.cycles == pytest.approx(estimated, rel=0.3)


def test_twostep_cycles_scale_with_problem(rng):
    """Sanity: doubling the edges roughly doubles the clocked cycles."""
    from repro.simulator.system import SystemSim

    small = erdos_renyi_graph(10_000, 3.0, seed=91)
    large = erdos_renyi_graph(10_000, 6.0, seed=91)
    sim = SystemSim(segment_width=2_000)
    _, small_report = sim.run(small, np.ones(small.n_cols))
    _, large_report = sim.run(large, np.ones(large.n_cols))
    ratio = large_report.step1_cycles / small_report.step1_cycles
    assert 1.5 < ratio < 2.6
