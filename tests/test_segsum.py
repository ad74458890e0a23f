"""The position-major batched segment sums of :mod:`repro.core.segsum`.

Both kernels are compared column by column against ``np.bincount`` --
the accumulation order the engine's bit-identity contract pins -- byte
for byte, signed zeros included (a ``nan`` only has to be a ``nan``).  A
structural test pins the loop shape: one step per run position, so the
Python-level loop runs ``max run length`` times per stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import create_engine
from repro.core.segsum import (
    build_run_layout,
    mul_segment_sum_batch,
    segment_sum_batch,
)
from repro.formats.coo import COOMatrix
from repro.generators import rmat_graph

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
def rmat13():
    matrix = rmat_graph(13, 4, seed=5)
    engine = create_engine(backend="vectorized")
    plan = engine.plan(matrix)
    return plan, plan.step2_symbolic(engine.config.n_cores)


def test_stripe_kernel_loops_once_per_run_position(rmat13):
    plan, _symbolic = rmat13
    rng = np.random.default_rng(0)
    for stripe in plan.stripes:
        lengths = np.bincount(stripe.run_ids, minlength=stripe.n_runs)
        distinct = np.unique(lengths)
        # A per-distinct-length loop would take sum(distinct) steps.
        assert distinct.sum() > lengths.max()
        segments = rng.standard_normal((stripe.width, 4))
        counted = CountingReads(segments)
        out = mul_segment_sum_batch(
            counted, stripe.batch_cols, stripe.batch_vals, stripe.run_groups
        )
        assert counted.reads == lengths.max()
        want = bincount_columns(
            stripe.run_ids, stripe.vals[:, None] * segments[stripe.cols], stripe.n_runs
        )
        assert np.array_equal(out, want)


def test_merge_kernel_loops_once_per_run_position(rmat13):
    _plan, symbolic = rmat13
    lengths = np.bincount(symbolic.run_ids, minlength=symbolic.n_merged)
    source = np.random.default_rng(1).standard_normal((symbolic.total_records, 3))
    counted = CountingReads(source)
    out = segment_sum_batch(counted, symbolic.run_groups)
    assert counted.reads == lengths.max()
    want = bincount_columns(symbolic.run_ids, source[symbolic.order], symbolic.n_merged)
    assert np.array_equal(out, want)


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
        [{}, {"segment_width": 4}, {"check_interleave": True}],
        ids=["default", "width4", "interleave"],
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
