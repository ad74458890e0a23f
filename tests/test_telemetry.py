"""Telemetry layer: differential zero-drift harness + exporter schemas.

The observability layer must never change results: for every backend, a
run with telemetry enabled is bit-identical (result vector) and
byte-identical (traffic ledger) to the same run with telemetry disabled.  On top of that, the exporters must emit artifacts
their consumers can actually load: the Chrome trace schema-checks, the
Prometheus text parses under a strict grammar, and the JSON-lines round
trip through ``json.loads``.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.api import ENV_VARS, EngineOptions
from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.telemetry import (
    CallbackHook,
    MetricsRegistry,
    TelemetryReport,
    Tracer,
    add_global_hook,
    chrome_trace,
    combine_reports,
    current_session,
    metric_inc,
    prometheus_text,
    remove_global_hook,
    span,
    spans_to_jsonl,
    telemetry_scope,
    telemetry_session,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)


@pytest.fixture
def graph():
    return erdos_renyi_graph(400, 4.0, seed=7)


def _engine(telemetry_flag, **kwargs) -> TwoStepEngine:
    return TwoStepEngine(
        TwoStepConfig(segment_width=64, q=2, telemetry=telemetry_flag, **kwargs)
    )


#: Every backend.  The ids keep the names these cells had when the grid
#: also swept a thread count (``None`` = the engine default).
BACKEND_MATRIX = [
    pytest.param("reference", id="reference-None"),
    pytest.param("vectorized", id="vectorized-None"),
]


# ---------------------------------------------------------------------------
# Differential harness: telemetry on == telemetry off, bit for bit
# ---------------------------------------------------------------------------


class TestZeroSemanticDrift:
    @pytest.mark.parametrize("backend", BACKEND_MATRIX)
    def test_run_bit_identical_on_vs_off(self, graph, backend):
        x = np.random.default_rng(11).uniform(size=graph.n_cols)
        on = _engine(True, backend=backend).run(graph, x, verify=True)
        off = _engine(False, backend=backend).run(graph, x, verify=True)
        assert on.verified and off.verified
        assert np.array_equal(on.y, off.y)  # bit-identical, not allclose
        assert on.y.tobytes() == off.y.tobytes()
        assert on.telemetry is not None
        assert off.telemetry is None

    @pytest.mark.parametrize("backend", BACKEND_MATRIX)
    def test_ledger_byte_identical_on_vs_off(self, graph, backend):
        x = np.random.default_rng(12).uniform(size=graph.n_cols)
        on = _engine(True, backend=backend).run(graph, x)
        off = _engine(False, backend=backend).run(graph, x)
        assert on.report.traffic.breakdown() == off.report.traffic.breakdown()
        assert repr(on.report.traffic) == repr(off.report.traffic)
        assert on.report.intermediate_records == off.report.intermediate_records
        assert on.report.n_stripes == off.report.n_stripes

    @pytest.mark.parametrize("backend", BACKEND_MATRIX[1:])
    def test_run_many_bit_identical_on_vs_off(self, graph, backend):
        X = np.random.default_rng(13).uniform(size=(graph.n_cols, 3))
        on = _engine(True, backend=backend).run_many(graph, X)
        off = _engine(False, backend=backend).run_many(graph, X)
        assert on.y.tobytes() == off.y.tobytes()
        assert on.report.traffic.breakdown() == off.report.traffic.breakdown()
        assert on.telemetry is not None and off.telemetry is None

    def test_result_tuple_unpacking_unchanged(self, graph):
        """The SpMVResult tuple protocol must ignore the telemetry field."""
        x = np.ones(graph.n_cols)
        result = _engine(True).run(graph, x)
        y, report = result
        assert y is result.y and report is result.report
        assert len(result) == 2


# ---------------------------------------------------------------------------
# Span capture on the engine path
# ---------------------------------------------------------------------------


class TestEngineSpans:
    def test_span_tree_names_and_single_root(self, graph):
        x = np.ones(graph.n_cols)
        engine = _engine(True, backend="reference")
        report = engine.run(graph, x).telemetry
        names = set(report.span_names())
        assert {"spmv.run", "plan.build", "step1", "step2", "step2.merge"} <= names
        assert any(n.startswith("step1.stripe[") for n in names)
        roots = report.roots()
        assert [r.name for r in roots] == ["spmv.run"]
        assert roots[0].attrs["backend"] == "reference"

    def test_cached_plan_run_has_no_plan_build_span(self, graph):
        engine = _engine(True)
        x = np.ones(graph.n_cols)
        first = engine.run(graph, x).telemetry
        second = engine.run(graph, x).telemetry
        assert len(first.find("plan.build")) == 1
        assert len(second.find("plan.build")) == 0

    def test_metrics_cover_the_advertised_names(self, graph):
        result = _engine(True).run(graph, np.ones(graph.n_cols))
        metrics = result.telemetry.metrics
        assert metrics.total("spmv_records_merged_total") > 0
        assert metrics.value(
            "spmv_plan_cache_events_total", labels={"outcome": "miss"}
        ) == 1
        assert metrics.total("spmv_stream_bytes_total") > 0
        assert metrics.value("spmv_shard_imbalance_ratio") >= 1.0
        assert metrics.value("spmv_run_seconds") > 0  # histogram sum

    def test_engine_lifetime_metrics_accumulate(self, graph):
        engine = _engine(True)
        x = np.ones(graph.n_cols)
        single = engine.run(graph, x).telemetry.metrics.total(
            "spmv_records_merged_total"
        )
        engine.run(graph, x)
        assert engine.metrics().total("spmv_records_merged_total") == 2 * single

    def test_disabled_engine_collects_nothing(self, graph):
        engine = _engine(False)
        engine.run(graph, np.ones(graph.n_cols))
        assert engine.metrics().names() == ()

    def test_inject_radix_mask_built_inside_class_span(self):
        """Regression: ``inject_classes`` once built the radix mask before
        opening ``inject.class[r]``, so per-class timings missed the mask
        cost.  Observe the ``keys & (p - 1)`` call via an ndarray subclass
        and assert it always fires with a class span open."""
        from repro.backends.vectorized import VectorizedBackend

        recorded = []

        class SpyKeys(np.ndarray):
            def __and__(self, other):
                session = current_session()
                open_span = session.tracer.current() if session else None
                recorded.append(open_span.name if open_span is not None else None)
                return np.asarray(self) & other

        p = 4
        keys = np.array([0, 1, 2, 5, 7, 10], dtype=np.int64).view(SpyKeys)
        vals = np.arange(keys.size, dtype=np.float64)
        with telemetry_scope(telemetry_session()):
            streams = VectorizedBackend().inject_classes(keys, vals, 12, p)
        assert len(streams) == p
        assert len(recorded) == p
        assert all(
            name is not None and name.startswith("inject.class[") for name in recorded
        )


# ---------------------------------------------------------------------------
# Session scoping and the no-op fast path
# ---------------------------------------------------------------------------


class TestSessionScoping:
    def test_helpers_noop_without_session(self):
        assert current_session() is None
        with span("orphan", x=1) as s:
            assert s is None  # shared no-op context manager
        metric_inc("orphan_total")  # must not raise

    def test_scope_activates_and_restores(self):
        session = telemetry_session()
        with telemetry_scope(session):
            assert current_session() is session
            with span("inner"):
                metric_inc("scoped_total")
        assert current_session() is None
        assert [s.name for s in session.tracer.finished()] == ["inner"]
        assert session.metrics.value("scoped_total") == 1

    def test_none_scope_deactivates_inner_block(self):
        outer = telemetry_session()
        with telemetry_scope(outer):
            with telemetry_scope(None):
                with span("hidden"):
                    metric_inc("hidden_total")
            assert current_session() is outer
        assert outer.tracer.finished() == []
        assert outer.metrics.value("hidden_total") == 0.0

    def test_resolve_telemetry_precedence(self, monkeypatch):
        var = ENV_VARS["telemetry"]
        monkeypatch.delenv(var, raising=False)
        assert EngineOptions().resolve().telemetry is True  # default on
        assert EngineOptions(telemetry=False).resolve().telemetry is False
        monkeypatch.setenv(var, "0")
        assert EngineOptions().resolve().telemetry is False
        monkeypatch.setenv(var, "1")
        assert EngineOptions().resolve().telemetry is True
        # An explicit flag always beats the environment.
        monkeypatch.setenv(var, "0")
        assert EngineOptions(telemetry=True).resolve().telemetry is True

    def test_env_var_disables_engine_telemetry(self, graph, monkeypatch):
        monkeypatch.setenv(ENV_VARS["telemetry"], "0")
        result = _engine(None).run(graph, np.ones(graph.n_cols))
        assert result.telemetry is None
        monkeypatch.setenv(ENV_VARS["telemetry"], "1")
        assert _engine(None).run(graph, np.ones(graph.n_cols)).telemetry is not None


# ---------------------------------------------------------------------------
# Profiling hooks
# ---------------------------------------------------------------------------


class TestHooks:
    def test_callback_hook_sees_spans_and_metrics(self):
        started, ended, metrics = [], [], []
        hook = CallbackHook(
            on_span_start=lambda s: started.append(s.name),
            on_span_end=lambda s: ended.append(s.name),
            on_metric=lambda name, kind, value, labels: metrics.append((name, kind)),
        )
        session = telemetry_session(hooks=(hook,))
        with telemetry_scope(session):
            with span("outer"):
                with span("inner"):
                    metric_inc("hooked_total", 2)
        assert started == ["outer", "inner"]
        assert ended == ["inner", "outer"]  # LIFO close order
        assert metrics == [("hooked_total", "counter")]

    def test_global_hook_observes_engine_run(self, graph):
        seen = []
        hook = CallbackHook(on_span_end=lambda s: seen.append(s.name))
        add_global_hook(hook)
        try:
            _engine(True).run(graph, np.ones(graph.n_cols))
        finally:
            remove_global_hook(hook)
        assert "spmv.run" in seen
        # Detached hook no longer fires.
        count = len(seen)
        _engine(True).run(graph, np.ones(graph.n_cols))
        assert len(seen) == count

    def test_partial_callback_hook_defaults_are_noops(self):
        hook = CallbackHook()  # no callbacks at all
        session = telemetry_session(hooks=(hook,))
        with telemetry_scope(session):
            with span("quiet"):
                metric_inc("quiet_total")
        assert session.metrics.value("quiet_total") == 1


# ---------------------------------------------------------------------------
# Chrome trace exporter
# ---------------------------------------------------------------------------


class TestChromeTrace:
    def test_pagerank_two_iterations_schema_checks(self, graph, tmp_path):
        from repro.apps.pagerank import pagerank

        config = TwoStepConfig(segment_width=64, q=2, telemetry=True)
        result = pagerank(graph, config, max_iterations=2, tol=0.0)
        rollup = result.telemetry()
        payload = rollup.to_chrome_trace()
        validate_chrome_trace(payload)  # must not raise
        roots = [e for e in payload["traceEvents"] if e.get("name") == "spmv.run"]
        assert len(roots) == 2  # one root per iteration
        # Round-trips through JSON on disk.
        path = tmp_path / "pagerank.trace.json"
        write_chrome_trace(rollup.spans, path)
        validate_chrome_trace(json.loads(path.read_text()))

    def test_trace_has_metadata_and_timeline_events(self, graph):
        report = _engine(True).run(graph, np.ones(graph.n_cols)).telemetry
        payload = chrome_trace(report.spans, process_name="unit")
        meta = payload["traceEvents"][0]
        assert meta["ph"] == "M" and meta["args"]["name"] == "unit"
        for event in payload["traceEvents"][1:]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["cat"] == "span"

    @pytest.mark.parametrize(
        "payload",
        [
            [],  # not an object
            {},  # no traceEvents
            {"traceEvents": {}},  # not a list
            {"traceEvents": ["nope"]},  # event not an object
            {"traceEvents": [{"ph": "X"}]},  # unnamed
            {"traceEvents": [{"name": "a", "ph": "XX"}]},  # bad phase
            {"traceEvents": [{"name": "a", "ph": "X", "ts": -1, "dur": 0, "pid": 1}]},
            {"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "dur": 0}]},  # no pid
            {"traceEvents": [{"name": "a", "ph": "M", "args": 3}]},  # bad args
        ],
    )
    def test_validator_rejects_malformed_payloads(self, payload):
        with pytest.raises(ValueError):
            validate_chrome_trace(payload)


# ---------------------------------------------------------------------------
# JSON-lines + Prometheus exporters
# ---------------------------------------------------------------------------

#: One Prometheus text-exposition line (strict).
_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABELS = r"\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\}"
_VALUE = r"-?\d+(\.\d+)?([eE][+-]?\d+)?"
PROM_LINE = re.compile(
    rf"^(# HELP {_METRIC_NAME} \S.*"
    rf"|# TYPE {_METRIC_NAME} (counter|gauge|histogram)"
    rf"|{_METRIC_NAME}({_LABELS})? {_VALUE})$"
)


class TestTextExporters:
    def test_jsonl_round_trips(self, graph, tmp_path):
        report = _engine(True).run(graph, np.ones(graph.n_cols)).telemetry
        text = spans_to_jsonl(report.spans)
        records = [json.loads(line) for line in text.strip().split("\n")]
        assert len(records) == len(report.spans)
        assert {r["name"] for r in records} == set(report.span_names())
        path = tmp_path / "spans.jsonl"
        write_jsonl(report.spans, path)
        assert path.read_text() == text

    def test_prometheus_output_matches_strict_grammar(self, graph, tmp_path):
        report = _engine(True, backend="vectorized").run(
            graph, np.ones(graph.n_cols)
        ).telemetry
        text = prometheus_text(report.metrics)
        lines = text.strip().split("\n")
        assert lines, "exposition must not be empty"
        for line in lines:
            assert PROM_LINE.match(line), f"invalid Prometheus line: {line!r}"
        # Histogram series carry cumulative buckets plus sum/count.
        assert any(l.startswith("spmv_run_seconds_bucket{le=") for l in lines)
        assert any(l.startswith("spmv_run_seconds_sum") for l in lines)
        assert any(l.startswith("spmv_run_seconds_count") for l in lines)
        # Runs are labelled by backend alone: it names the kernels too.
        assert 'spmv_backend_runs_total{backend="vectorized"} 1' in lines
        path = tmp_path / "metrics.prom"
        write_prometheus(report.metrics, path)
        assert path.read_text() == text

    def test_histogram_buckets_are_cumulative_and_end_at_count(self):
        registry = MetricsRegistry()
        for value in (1e-6, 1e-6, 0.005, 0.5, 100.0):
            registry.observe("lat_seconds", value)
        text = registry.to_prometheus()
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("lat_seconds_bucket")
        ]
        assert buckets == sorted(buckets)  # cumulative
        assert buckets[-1] == 5  # +Inf bucket equals total count
        assert "lat_seconds_count 5" in text


# ---------------------------------------------------------------------------
# Registry semantics + report roll-ups
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_rejects_negative_and_kind_clashes(self):
        registry = MetricsRegistry()
        registry.inc("a_total")
        with pytest.raises(ValueError):
            registry.inc("a_total", -1)
        with pytest.raises(ValueError):
            registry.set("a_total", 2.0)  # counter re-registered as gauge
        with pytest.raises(ValueError):
            registry.inc("0bad")

    def test_merge_adds_counters_histograms_overwrites_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c_total", 2, labels={"site": "x"})
        b.inc("c_total", 3, labels={"site": "x"})
        b.inc("c_total", 7, labels={"site": "y"})
        a.set("g", 1.0)
        b.set("g", 9.0)
        a.observe("h_seconds", 0.5)
        b.observe("h_seconds", 0.25)
        a.merge(b)
        assert a.value("c_total", labels={"site": "x"}) == 5
        assert a.total("c_total") == 12
        assert a.value("g") == 9.0
        assert a.value("h_seconds") == 0.75
        assert a.series("c_total") == {
            (("site", "x"),): 5.0,
            (("site", "y"),): 7.0,
        }

    def test_combine_reports_skips_none_and_sums(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.inc("n_total", 1)
        second.inc("n_total", 2)
        tracer = Tracer()
        with tracer.span("it0"):
            pass
        combined = combine_reports(
            [
                TelemetryReport(spans=tracer.finished(), metrics=first),
                None,  # a telemetry-disabled iteration
                TelemetryReport(spans=[], metrics=second),
            ]
        )
        assert combined.metrics.value("n_total") == 3
        assert combined.span_names() == ("it0",)
        assert combine_reports([]).spans == []

