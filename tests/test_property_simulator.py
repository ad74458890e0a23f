"""Property-based tests on the simulators, schedule and I/O layers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import build_its_schedule, sequential_makespan
from repro.core.spgemm import spgemm
from repro.formats.coo import COOMatrix
from repro.formats.sell import coo_to_sell
from repro.simulator.step1_sim import Step1CycleSim, Step1SimConfig
from repro.simulator.step2_sim import Step2CycleSim, Step2SimConfig

settings.register_profile("repro-sim", deadline=None, max_examples=25)
settings.load_profile("repro-sim")


@st.composite
def sorted_record_lists(draw, max_lists=4, key_space=48):
    n_lists = draw(st.integers(0, max_lists))
    lists = []
    for _ in range(n_lists):
        keys = draw(st.lists(st.integers(0, key_space - 1), unique=True, max_size=key_space))
        keys = np.sort(np.array(keys, dtype=np.int64))
        vals = draw(
            st.lists(
                st.floats(-3, 3, allow_nan=False, allow_infinity=False),
                min_size=len(keys),
                max_size=len(keys),
            )
        )
        lists.append((keys, np.array(vals)))
    return lists


@st.composite
def stripes(draw, max_rows=32, max_cols=16, max_nnz=64):
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    nnz = draw(st.integers(0, max_nnz))
    rows = np.sort(
        np.array(draw(st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz)), dtype=np.int64)
    )
    cols = np.array(
        draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz)), dtype=np.int64
    )
    vals = np.array(
        draw(
            st.lists(
                st.floats(-2, 2, allow_nan=False, allow_infinity=False),
                min_size=nnz,
                max_size=nnz,
            )
        )
    )
    return n_rows, n_cols, rows, cols, vals


@given(stripes(), st.integers(1, 8), st.integers(1, 64))
def test_step1_sim_functional_invariant(stripe, pipelines, banks):
    n_rows, n_cols, rows, cols, vals = stripe
    sim = Step1CycleSim(Step1SimConfig(pipelines=pipelines, n_banks=banks))
    x = np.linspace(0.5, 1.5, n_cols)
    result = sim.run_stripe(rows, cols, vals, x)
    dense = np.zeros(n_rows)
    dense[result.indices] = result.values
    ref = np.zeros(n_rows)
    np.add.at(ref, rows, vals * x[cols])
    assert np.allclose(dense, ref, atol=1e-9)
    # Cycles at least ceil(records / P), and no negative stalls.
    if rows.size:
        assert result.cycles >= -(-rows.size // pipelines)
    assert result.bank_conflict_stalls >= 0
    assert result.hazard_stalls >= 0


@given(sorted_record_lists(), st.integers(0, 3), st.integers(1, 4))
def test_step2_sim_functional_invariant(lists, q, pages):
    sim = Step2CycleSim(
        Step2SimConfig(q=q, records_per_page=8, page_fetch_cycles=4, pages_buffered=pages)
    )
    n_out = 48
    result = sim.run(lists, n_out)
    ref = np.zeros(n_out)
    for idx, val in lists:
        np.add.at(ref, idx, val)
    assert np.allclose(result.output, ref, atol=1e-9)
    # Injection equalizes: total cycles at least N/p.
    assert result.cycles >= n_out // (1 << q)


@given(
    st.lists(st.floats(1, 50), min_size=1, max_size=8),
    st.lists(st.floats(1, 50), min_size=1, max_size=8),
    st.integers(1, 6),
)
def test_schedule_invariants(s1, s2, iterations):
    n = min(len(s1), len(s2))
    s1, s2 = np.array(s1[:n]), np.array(s2[:n])
    schedule = build_its_schedule(s1, s2, iterations)
    seq = sequential_makespan(s1, s2, iterations)
    # Overlap never loses, never wins more than 2x, and the two-buffer
    # constraint always holds.
    assert schedule.makespan <= seq + 1e-6
    assert seq / schedule.makespan <= 2.0 + 1e-9
    assert schedule.max_resident_segments() <= 2
    # Every task has positive duration and tasks on one fabric don't overlap.
    for phase in (1, 2):
        tasks = sorted(
            (t for t in schedule.tasks if t.phase == phase), key=lambda t: t.start
        )
        for a, b in zip(tasks, tasks[1:]):
            assert b.start >= a.end - 1e-9


@given(stripes(max_rows=24, max_cols=24))
def test_sell_roundtrip_spmv(stripe):
    n_rows, n_cols, rows, cols, vals = stripe
    coo = COOMatrix.from_triples(n_rows, n_cols, rows, cols, vals)
    sell = coo_to_sell(coo, chunk=4, sigma=8)
    x = np.linspace(-1, 1, n_cols)
    assert np.allclose(sell.spmv(x), coo.spmv(x), atol=1e-9)


@given(stripes(max_rows=12, max_cols=12, max_nnz=24))
def test_spgemm_identity_property(stripe):
    n_rows, n_cols, rows, cols, vals = stripe
    a = COOMatrix.from_triples(n_rows, n_cols, rows, cols, vals)
    eye = COOMatrix.from_triples(
        n_cols, n_cols, np.arange(n_cols), np.arange(n_cols), np.ones(n_cols)
    )
    product = spgemm(a, eye)
    assert np.allclose(product.to_dense(), a.to_dense(), atol=1e-12)


@given(stripes(max_rows=16, max_cols=16, max_nnz=30))
def test_matrix_market_roundtrip_property(stripe):
    import tempfile
    import pathlib

    from repro.formats.io import read_matrix_market, write_matrix_market

    n_rows, n_cols, rows, cols, vals = stripe
    coo = COOMatrix.from_triples(n_rows, n_cols, rows, cols, vals)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "m.mtx"
        write_matrix_market(coo, path)
        back = read_matrix_market(path)
    assert np.allclose(back.to_dense(), coo.to_dense(), atol=0)
