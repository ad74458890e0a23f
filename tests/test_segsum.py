"""The position-major batched segment sums of :mod:`repro.core.segsum`.

Both kernels are compared column by column against ``np.bincount`` --
the accumulation order the engine's bit-identity contract pins -- byte
for byte, signed zeros included (a ``nan`` only has to be a ``nan``).
Hub-run cells stop the loop at the rule's cut or at a drawn cut ``T``,
so the run-by-run tail is also checked next to a run of exactly
``T + 1`` records.
Structural tests pin the loop shape: one gather per run position below
``T`` plus one for the tail, and no tail where the rule builds none.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import create_engine
from repro.core import segsum
from repro.core.segsum import (
    build_run_layout,
    loop_positions,
    mul_segment_sum_batch,
    segment_sum_batch,
)
from repro.formats.coo import COOMatrix
from repro.generators import erdos_renyi_graph, rmat_graph

# inf and nan inputs are part of the contract under test.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: Run-length shapes: arbitrary (with empty runs anywhere, trailing
#: ones included), all length 1, one run holding every record, and
#: power-law (a few long runs over many short ones).
run_lengths = st.one_of(
    st.lists(st.integers(0, 6), max_size=40),
    st.integers(0, 40).map(lambda n: [1] * n),
    st.integers(1, 60).map(lambda n: [n]),
    st.lists(st.integers(1, 2**7).map(lambda v: 2**7 // v), max_size=40),
)

#: Special values mixed into the random blocks: zeros of both signs,
#: extreme and subnormal magnitudes, infinities and nan.
SPECIALS = np.array([0.0, -0.0, 1e300, -1e300, 3e-310, np.inf, -np.inf, np.nan])


def value_block(rng: np.random.Generator, shape: tuple, special: float) -> np.ndarray:
    """Standard normals with a ``special`` fraction replaced by SPECIALS."""
    block = rng.standard_normal(shape)
    mask = rng.random(shape) < special
    block[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return block


def stream_of(lengths: list) -> tuple:
    """Non-decreasing run ids for ``lengths``, and the run offsets."""
    run_ids = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    return run_ids, np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])


def bincount_columns(run_ids: np.ndarray, block: np.ndarray, n_runs: int) -> np.ndarray:
    """The contract: ``np.bincount`` on each column alone."""
    out = np.zeros((n_runs, block.shape[1]))
    for j in range(block.shape[1]):
        out[:, j] = np.bincount(run_ids, weights=block[:, j], minlength=n_runs)
    return out


def assert_same_bits(out: np.ndarray, want: np.ndarray) -> None:
    """IEEE-equal, and byte-equal wherever the value is not nan.

    Signed zeros are compared bit for bit; a nan's sign and payload
    depend on operand order inside the adder, which the contract leaves
    open.
    """
    assert np.array_equal(out, want, equal_nan=True)
    numbers = ~np.isnan(want)
    assert out[numbers].tobytes() == want[numbers].tobytes()


@st.composite
def streams(draw):
    """A run-id stream, its run offsets, a value block and an RNG."""
    lengths = draw(run_lengths)
    trailing = draw(st.integers(0, 3))
    run_ids, run_starts = stream_of(lengths + [0] * trailing)
    k = draw(st.sampled_from([1, 2, 33]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = draw(st.sampled_from([0.0, 0.1, 0.5]))
    return run_ids, run_starts, value_block(rng, (run_ids.size, k), special), rng


@given(case=streams(), composed=st.booleans())
@settings(max_examples=150, deadline=None)
def test_segment_sum_batch_equals_bincount(case, composed):
    run_ids, run_starts, ordered, rng = case
    n_runs = run_starts.size - 1
    if composed:
        # The kernel reads the unsorted source through the composed map.
        order = rng.permutation(run_ids.size)
        source = np.empty_like(ordered)
        source[order] = ordered
        layout = build_run_layout(run_starts, order=order)
    else:
        source = ordered
        layout = build_run_layout(run_starts)
    out = segment_sum_batch(source, layout)
    assert out.shape == (n_runs, ordered.shape[1])
    assert_same_bits(out, bincount_columns(run_ids, ordered, n_runs))


@given(case=streams(), width=st.integers(1, 50))
@settings(max_examples=150, deadline=None)
def test_mul_segment_sum_batch_equals_bincount(case, width):
    run_ids, run_starts, block, rng = case
    n_runs = run_starts.size - 1
    n, k = block.shape
    segments = value_block(rng, (width, k), 0.1)
    cols = rng.integers(0, width, size=n)
    vals = block[:, 0]
    layout = build_run_layout(run_starts)
    out = mul_segment_sum_batch(segments, cols[layout.rec], vals[layout.rec], layout)
    want = bincount_columns(run_ids, vals[:, None] * segments[cols], n_runs)
    assert out.shape == (n_runs, k)
    assert_same_bits(out, want)


@contextlib.contextmanager
def loop_cut(cut):
    """Build layouts whose loop stops at ``cut`` (None keeps the rule)."""
    if cut is None:
        yield
        return
    with mock.patch.object(segsum, "loop_positions", lambda counts: min(cut, counts.size)):
        yield


@st.composite
def hub_streams(draw):
    """A power-law stream: hub runs far longer than any loop cut.

    A few hubs of up to 3000 records sit among many short runs, in any
    run order.  The cut is the rule's, or forced to ``T``; a forced cut
    comes with a run of exactly ``T + 1`` records.  The first hub is all
    ``-0.0``.  Returns the run ids, run offsets, value block, RNG, cut
    and the all-``-0.0`` hub's run index.
    """
    cut = draw(st.none() | st.integers(1, 40))
    short = draw(st.lists(st.integers(0, 5), min_size=20, max_size=300))
    hubs = draw(st.lists(st.integers(50, 3000), min_size=1, max_size=4))
    extra = [] if cut is None else [cut + 1]
    perm = draw(st.permutations(range(len(short) + len(hubs) + len(extra))))
    lengths = np.array(short + hubs + extra)[list(perm)]
    run_ids, run_starts = stream_of(lengths.tolist())
    k = draw(st.sampled_from([1, 2, 33]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = draw(st.sampled_from([0.0, 0.1, 0.5]))
    block = value_block(rng, (run_ids.size, k), special)
    zero_hub = list(perm).index(len(short))
    block[run_starts[zero_hub] : run_starts[zero_hub + 1]] = -0.0
    return run_ids, run_starts, block, rng, cut, zero_hub


def assert_hub_layout(layout, run_starts, cut) -> None:
    """The hubs left the loop, and a forced cut sits next to a ``T + 1`` run."""
    assert layout.tail.size > 1 and layout.tail[-1] == layout.total_records
    if cut is not None:
        assert layout.positions == cut
        assert (np.diff(run_starts) == cut + 1).any()


@given(case=hub_streams(), composed=st.booleans())
@settings(max_examples=60, deadline=None)
def test_segment_sum_batch_finishes_hub_runs(case, composed):
    run_ids, run_starts, ordered, rng, cut, zero_hub = case
    n_runs = run_starts.size - 1
    source, order = ordered, None
    if composed:
        order = rng.permutation(run_ids.size)
        source = np.empty_like(ordered)
        source[order] = ordered
    with loop_cut(cut):
        layout = build_run_layout(run_starts, order=order)
    assert_hub_layout(layout, run_starts, cut)
    out = segment_sum_batch(source, layout)
    assert_same_bits(out, bincount_columns(run_ids, ordered, n_runs))
    assert not np.signbit(out[zero_hub]).any()


@given(case=hub_streams(), composed=st.booleans())
@settings(max_examples=60, deadline=None)
def test_mul_segment_sum_batch_finishes_hub_runs(case, composed):
    run_ids, run_starts, block, rng, cut, zero_hub = case
    n_runs = run_starts.size - 1
    n, k = block.shape
    segments = value_block(rng, (50, k), 0.1)
    cols = rng.integers(1, 50, size=n)
    vals = block[:, 0].copy()
    # The all -0.0 hub's products are 1.0 * -0.0.
    hub = slice(run_starts[zero_hub], run_starts[zero_hub + 1])
    segments[0] = -0.0
    cols[hub], vals[hub] = 0, 1.0
    want = bincount_columns(run_ids, vals[:, None] * segments[cols], n_runs)
    order = rng.permutation(n) if composed else np.arange(n)
    source_cols = np.empty_like(cols)
    source_vals = np.empty_like(vals)
    source_cols[order], source_vals[order] = cols, vals
    with loop_cut(cut):
        layout = build_run_layout(run_starts, order=order if composed else None)
    assert_hub_layout(layout, run_starts, cut)
    out = mul_segment_sum_batch(
        segments, source_cols[layout.rec], source_vals[layout.rec], layout
    )
    assert_same_bits(out, want)
    assert not np.signbit(out[zero_hub]).any()


def test_empty_stream_keeps_minlength():
    layout = build_run_layout(np.zeros(5, dtype=np.int64))
    assert layout.counts.size == 0 and layout.rec.size == 0
    assert np.array_equal(segment_sum_batch(np.empty((0, 3)), layout), np.zeros((4, 3)))
    out = mul_segment_sum_batch(np.ones((2, 3)), layout.rec, np.empty(0), layout)
    assert np.array_equal(out, np.zeros((4, 3)))


def test_layout_is_position_major():
    # Runs of lengths 2, 0, 3, 1: longest first, ties in run order.
    _run_ids, run_starts = stream_of([2, 0, 3, 1])
    layout = build_run_layout(run_starts)
    assert layout.runs.tolist() == [2, 0, 3]
    assert layout.counts.tolist() == [3, 2, 1]
    # Position 0 of runs 2, 0, 3; position 1 of runs 2, 0; position 2 of run 2.
    assert layout.rec.tolist() == [2, 0, 5, 3, 1, 4]
    assert layout.positions == 3 and layout.tail.tolist() == [6]


def test_layout_tail_is_run_major():
    # Two runs of 6 among five of 1: the loop stops after position 0 and
    # the two long runs' records 1..5 follow, run after run.
    _run_ids, run_starts = stream_of([6, 1, 1, 1, 1, 1, 6])
    layout = build_run_layout(run_starts)
    assert layout.runs.tolist() == [0, 6, 1, 2, 3, 4, 5]
    assert layout.positions == 1
    assert layout.tail.tolist() == [7, 12, 17]
    assert layout.rec.tolist() == [0, 11, 6, 7, 8, 9, 10, *range(1, 6), *range(12, 17)]


@pytest.mark.parametrize(
    ("counts", "positions"),
    [
        ([], 0),
        ([5], 1),
        ([100, 50, 1, 1, 1, 1], 2),
        # 2 + 2 * 1 ties with no tail (4 positions): the loop wins.
        ([10, 3, 1, 1], 4),
        # A uniform-degree stripe: every position is busy.
        ([3000, 2000, 900, 300, 80, 12, 2], 7),
    ],
)
def test_loop_positions_rule(counts, positions):
    assert loop_positions(np.array(counts, dtype=np.int64)) == positions


def test_seeds_from_the_first_record():
    # The kernel seeds each run from its first record, then adds +0.0
    # once, so a run of -0.0 ends at +0.0 as bincount's does: the same
    # bytes, not just IEEE equality.
    run_ids, run_starts = stream_of([1, 2])
    block = np.array([[-0.0], [-0.0], [-0.0]])
    want = bincount_columns(run_ids, block, 2)
    layout = build_run_layout(run_starts)
    out = segment_sum_batch(block, layout)
    assert out.tobytes() == want.tobytes()
    cols = np.zeros(3, dtype=np.int64)
    fused = mul_segment_sum_batch(block[:1], cols, np.ones(3), layout)
    assert fused.tobytes() == want.tobytes()


class CountingReads:
    """An operand block that counts how often a kernel gathers from it,
    by indexing or through ``np.take`` (which calls ``.take``)."""

    def __init__(self, array: np.ndarray):
        self.array = array
        self.shape = array.shape
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return self.array[index]

    def take(self, indices, axis=None, out=None, mode="raise"):
        self.reads += 1
        return self.array.take(indices, axis=axis, out=out, mode=mode)


@pytest.fixture(scope="module")
def planned():
    """``planned(name, width)``: a vectorized plan of a fixed matrix, and
    its step-2 symbolic."""
    matrices = {
        "rmat13": rmat_graph(13, 4, seed=5),
        "er6k": erdos_renyi_graph(6000, 3, seed=5),
    }

    def plan_of(name: str, width: int | None) -> tuple:
        engine = create_engine(backend="vectorized", segment_width=width)
        plan = engine.plan(matrices[name])
        return plan, plan.step2_symbolic(engine.config.n_cores)

    return plan_of


def gathers(layout, lengths: np.ndarray, tail: bool) -> int:
    """The gathers a kernel makes: one per loop position, one for the tail.

    Also pins where the loop stops: at the rule's ``T``, with a tail of
    every run longer than ``T`` exactly when ``tail`` is expected.
    """
    positions = layout.positions
    assert positions == loop_positions(layout.counts)
    n_long = int(np.count_nonzero(lengths > positions))
    assert layout.tail.size == n_long + 1
    assert (n_long > 0) == tail
    if not tail:
        assert positions == lengths.max()
    return positions + tail


@pytest.mark.parametrize(("name", "tail"), [("rmat13", True), ("er6k", False)])
def test_stripe_kernel_gathers_per_loop_position_and_once_for_the_tail(
    planned, name, tail
):
    plan, _symbolic = planned(name, None)
    rng = np.random.default_rng(0)
    (stripe,) = plan.stripes
    lengths = np.bincount(stripe.run_ids, minlength=stripe.n_runs)
    layout = stripe.run_groups
    want_reads = gathers(layout, lengths, tail)
    if tail:
        # The hub rows leave the loop: its T + counts[T] steps are under
        # a quarter of the longest run's length.
        assert layout.positions + layout.tail.size - 1 < lengths.max() / 4
    segments = rng.standard_normal((stripe.width, 4))
    counted = CountingReads(segments)
    out = mul_segment_sum_batch(counted, stripe.batch_cols, stripe.batch_vals, layout)
    assert counted.reads == want_reads
    want = bincount_columns(
        stripe.run_ids, stripe.vals[:, None] * segments[stripe.cols], stripe.n_runs
    )
    assert_same_bits(out, want)


@pytest.mark.parametrize(
    ("name", "width", "tail"),
    [("rmat13", 32, True), ("rmat13", 1024, False), ("er6k", 1024, False)],
)
def test_merge_kernel_gathers_per_loop_position_and_once_for_the_tail(
    planned, name, width, tail
):
    _plan, symbolic = planned(name, width)
    lengths = np.bincount(symbolic.run_ids, minlength=symbolic.n_merged)
    want_reads = gathers(symbolic.run_groups, lengths, tail)
    source = np.random.default_rng(1).standard_normal((symbolic.total_records, 3))
    counted = CountingReads(source)
    out = segment_sum_batch(counted, symbolic.run_groups)
    assert counted.reads == want_reads
    want = bincount_columns(symbolic.run_ids, source[symbolic.order], symbolic.n_merged)
    assert_same_bits(out, want)


class TestSignedZeroContract:
    """The contract is byte equality, signed zeros included.

    Every sum starts from ``+0.0``, as ``bincount`` and SciPy do, so a
    row whose only product is ``-0.0`` returns ``+0.0`` from ``run``
    and from every ``run_many`` column, on every backend.
    """

    matrix = COOMatrix(3, 3, [0, 1, 1, 2], [0, 1, 2, 2], [-1.5, 2.0, 1.0, 3.0])
    x = np.array([0.0, 1.0, 1.0])

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_run_many_returns_positive_zero(self, backend):
        engine = create_engine(backend=backend)
        y = engine.run_many(self.matrix, np.stack([self.x, self.x], axis=1)).y
        assert np.array_equal(y[:, 0], [0.0, 3.0, 3.0])
        assert not np.signbit(y[0]).any()
        want = engine.run(self.matrix, self.x).y
        assert np.ascontiguousarray(y[:, 1]).tobytes() == want.tobytes()

    def test_reference_run_returns_positive_zero(self):
        y = create_engine(backend="reference").run(self.matrix, self.x).y
        assert not np.signbit(y[0])

    def test_vectorized_run_returns_positive_zero(self):
        y = create_engine(backend="vectorized").run(self.matrix, self.x).y
        want = create_engine(backend="reference").run(self.matrix, self.x).y
        assert not np.signbit(y[0])
        assert y.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "options",
        [{}, {"segment_width": 4}],
        ids=["default", "width4"],
    )
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_signbit_matches_scipy(self, backend, options):
        sparse = pytest.importorskip("scipy.sparse")
        engine = create_engine(backend=backend, **options)
        zeros = np.array([0.0, -0.0, 1.5, -2.0])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n_rows, n_cols = rng.integers(1, 16, size=2)
            nnz = int(rng.integers(0, 40))
            matrix = COOMatrix.from_triples(
                n_rows,
                n_cols,
                rng.integers(0, n_rows, nnz),
                rng.integers(0, n_cols, nnz),
                rng.choice(zeros, nnz),
            )
            csr = sparse.csr_matrix(
                (matrix.vals, (matrix.rows, matrix.cols)), shape=matrix.shape
            )
            X = rng.choice(zeros, size=(n_cols, 2))
            y = engine.run(matrix, X[:, 0]).y
            want = csr @ X[:, 0]
            assert np.array_equal(np.signbit(y), np.signbit(want))
            assert y.tobytes() == want.tobytes()
            Y = engine.run_many(matrix, X).y
            assert np.ascontiguousarray(Y[:, 0]).tobytes() == y.tobytes()
