"""Property-based telemetry invariants (Hypothesis).

Two families of properties:

* **Span trees are well-formed** -- for any nesting program, the tracer
  produces exactly one root, every parent reference resolves, and local
  child spans are contained (in time) by their parents.
* **Counters are conserved** -- the global merged-record count is a
  property of the matrix, identical on every backend and thread count,
  and registry merging never loses increments no matter how a stream of
  updates is partitioned.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.telemetry import MetricsRegistry, Tracer


# ---------------------------------------------------------------------------
# Span-tree well-formedness
# ---------------------------------------------------------------------------

#: Random nesting programs: a tree node is a list of child nodes.
nesting_trees = st.recursive(
    st.just([]), lambda children: st.lists(children, max_size=4), max_leaves=24
)


def _count(tree) -> int:
    return 1 + sum(_count(child) for child in tree)


@given(tree=nesting_trees)
@settings(max_examples=60, deadline=None)
def test_span_tree_is_well_formed(tree):
    tracer = Tracer()

    def walk(node, depth):
        with tracer.span(f"depth{depth}"):
            for child in node:
                walk(child, depth + 1)

    walk(tree, 0)
    spans = tracer.finished()
    assert len(spans) == _count(tree)
    assert tracer.current() is None  # everything closed

    by_id = {s.span_id for s in spans}
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1  # single root
    for s in spans:
        assert s.span_id not in (s.parent_id,)  # no self-parenting
        if s.parent_id is not None:
            assert s.parent_id in by_id  # every parent resolves

    parents = {s.span_id: s for s in spans}
    for s in spans:
        assert s.t_end >= s.t_start
        if s.parent_id is None:
            continue
        parent = parents[s.parent_id]
        # Local children are contained in their parent's interval.
        assert s.t_start >= parent.t_start
        assert s.t_end <= parent.t_end

    # Sequential children never exceed their parent's elapsed time.
    for s in spans:
        child_time = sum(
            c.duration_s for c in spans if c.parent_id == s.span_id
        )
        assert child_time <= s.duration_s + 1e-9


@given(tree=nesting_trees, split=st.integers(min_value=0, max_value=100))
@settings(max_examples=30, deadline=None)
def test_finished_order_closes_children_before_parents(tree, split):
    tracer = Tracer()

    def walk(node, depth):
        with tracer.span(f"depth{depth}"):
            for child in node:
                walk(child, depth + 1)

    walk(tree, 0)
    position = {s.span_id: i for i, s in enumerate(tracer.finished())}
    for s in tracer.finished():
        if s.parent_id is not None:
            assert position[s.span_id] < position[s.parent_id]


# ---------------------------------------------------------------------------
# Counter conservation: registry merging
# ---------------------------------------------------------------------------

_updates = st.lists(
    st.tuples(
        st.sampled_from(["a_total", "b_total", "c_total"]),
        st.sampled_from([None, {"site": "x"}, {"site": "y"}]),
        st.integers(min_value=0, max_value=1000),
    ),
    max_size=40,
)


@given(updates=_updates, pivot=st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_registry_merge_never_loses_counter_increments(updates, pivot):
    """Applying a stream whole == applying any split then merging."""
    pivot = min(pivot, len(updates))
    whole = MetricsRegistry()
    left, right = MetricsRegistry(), MetricsRegistry()
    for i, (name, labels, amount) in enumerate(updates):
        whole.inc(name, amount, labels=labels)
        (left if i < pivot else right).inc(name, amount, labels=labels)
    left.merge(right)
    for name in ("a_total", "b_total", "c_total"):
        assert left.total(name) == whole.total(name)
        assert left.series(name) == whole.series(name)


# ---------------------------------------------------------------------------
# Counter conservation: engine merge accounting
# ---------------------------------------------------------------------------


def test_merged_count_invariant_across_worker_counts():
    """The global merged-record counter is a property of the matrix, not
    of the execution schedule."""
    graph = erdos_renyi_graph(300, 4.0, seed=17)
    x = np.random.default_rng(17).uniform(size=graph.n_cols)
    totals = []
    for backend, n_jobs in [("reference", None), ("vectorized", None),
                            ("native", 1), ("native", 4)]:
        engine = TwoStepEngine(
            TwoStepConfig(
                segment_width=64, q=2, backend=backend, n_jobs=n_jobs, telemetry=True
            )
        )
        metrics = engine.run(graph, x).telemetry.metrics
        totals.append(metrics.total("spmv_records_merged_total"))
    assert len(set(totals)) == 1
