"""Telemetry layer: differential zero-drift harness + exporter schemas.

The observability layer must never change results: for every backend, a
run with telemetry enabled is bit-identical (result vector) and
byte-identical (traffic ledger) to the same run with telemetry disabled.
On top of that, the exporters must emit artifacts their consumers can
actually load: the Chrome trace schema-checks and the Prometheus text
parses under a strict grammar.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import json
import re
import threading

import numpy as np
import pytest

from repro.api import ENV_VARS, resolve_config
from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.telemetry import (
    MetricsRegistry,
    SeriesHandle,
    TelemetryReport,
    Tracer,
    chrome_trace,
    combine_reports,
    current_session,
    metric_inc,
    span,
    telemetry_scope,
    telemetry_session,
    validate_chrome_trace,
    write_chrome_trace,
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
        assert names == {
            "spmv.run", "plan.build", "plan.symbolic", "step1", "step2", "step2.merge"
        }
        roots = report.roots()
        assert [r.name for r in roots] == ["spmv.run"]
        assert roots[0].attrs["backend"] == "reference"

    @pytest.mark.parametrize("check_interleave", [False, True])
    def test_warm_run_opens_one_span_per_phase(self, check_interleave):
        """Spans are per phase, never per stripe or per radix class: a
        warm run opens the same spans at 32 stripes as at 4."""
        matrix, x, _ = _contents_inputs()
        opened = []
        for width in (64, 512):
            engine = _engine_with_options(
                segment_width=width, q=2, check_interleave=check_interleave
            )
            engine.run(matrix, x)
            report = engine.run(matrix, x).telemetry
            opened.append(collections.Counter(s.name for s in report.spans))
        assert opened[0] == opened[1]
        phases = {"spmv.run", "step1", "step2", "step2.merge"}
        if check_interleave:
            phases.add("inject")
        assert opened[0] == collections.Counter(phases)

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

        def resolved(**fields):
            return resolve_config(TwoStepConfig(**fields))[0].telemetry

        assert resolved() is True  # default on
        assert resolved(telemetry=False) is False
        monkeypatch.setenv(var, "0")
        assert resolved() is False
        monkeypatch.setenv(var, "1")
        assert resolved() is True
        # An explicit flag always beats the environment.
        monkeypatch.setenv(var, "0")
        assert resolved(telemetry=True) is True

    def test_env_var_disables_engine_telemetry(self, graph, monkeypatch):
        monkeypatch.setenv(ENV_VARS["telemetry"], "0")
        result = _engine(None).run(graph, np.ones(graph.n_cols))
        assert result.telemetry is None
        monkeypatch.setenv(ENV_VARS["telemetry"], "1")
        assert _engine(None).run(graph, np.ones(graph.n_cols)).telemetry is not None


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
# Prometheus exporter
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
    def test_prometheus_output_matches_strict_grammar(self, graph):
        report = _engine(True, backend="vectorized").run(
            graph, np.ones(graph.n_cols)
        ).telemetry
        text = report.metrics.to_prometheus()
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


def _streams(source_and_result: float, intermediate: float) -> dict:
    return {
        '{stream="matrix"}': 55988.0,
        '{stream="source_vector"}': source_and_result,
        '{stream="result_vector"}': source_and_result,
        '{stream="intermediate_write"}': intermediate,
        '{stream="intermediate_read"}': intermediate,
        '{stream="cache_line_wastage"}': 0.0,
    }


def _published(streams: dict) -> dict:
    """One warm run's ``metrics.to_dict()`` minus ``spmv_run_seconds``."""

    def entry(kind, help, series):
        return {"kind": kind, "help": help, "series": series}

    return {
        "spmv_backend_runs_total": entry(
            "counter", "Engine runs, by backend", {'{backend="vectorized"}': 1.0}
        ),
        "spmv_plan_cache_events_total": entry(
            "counter", "Plan-cache lookups by outcome", {'{outcome="hit"}': 1.0}
        ),
        "spmv_shard_imbalance_ratio": entry(
            "gauge", "Max/mean intermediate records across stripes", {"{}": 1.0}
        ),
        "spmv_stream_bytes_total": entry(
            "counter", "Off-chip bytes moved, by traffic stream", streams
        ),
        "spmv_vldi_bits_per_index": entry(
            "gauge", "Encoded bits per intermediate index (VLDI or fixed)", {"{}": 32.0}
        ),
    }


#: What one warm default-geometry run (``run``, and ``run_many`` with
#: k = 3) on ``_contents_inputs()`` published before the per-run publish
#: became O(1); ``spmv_run_seconds`` is left out because it is wall time.
WARM_METRICS = {
    "run": _published(_streams(8000.0, 15128.0)),
    "run_many": _published(_streams(24000.0, 30256.0)),
}

#: sha256 prefixes of the same ``to_dict()``, recorded at the same
#: point, for the default and a multi-stripe plan.
WARM_DIGESTS = {
    ("default", "run"): "d3e802056672765c",
    ("default", "run_many"): "58bb5b746ca17ad8",
    ("width512", "run"): "26366bba8cc4e22e",
    ("width512", "run_many"): "a0833d8d32920478",
}


@functools.lru_cache(maxsize=None)
def _contents_inputs():
    matrix = erdos_renyi_graph(2000, 3.0, seed=7)
    x = np.random.default_rng(1).standard_normal(matrix.n_cols)
    X = np.random.default_rng(2).standard_normal((matrix.n_cols, 3))
    return matrix, x, X


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _without_run_seconds(registry: MetricsRegistry) -> dict:
    published = registry.to_dict()
    published.pop("spmv_run_seconds")
    return published


def _engine_with_options(**options) -> TwoStepEngine:
    return TwoStepEngine(TwoStepConfig(backend="vectorized", telemetry=True, **options))


class TestPublishedContents:
    """The per-run publish replays cached samples through resolved
    handles and folds runs into the lifetime registry in place; what a
    run reports and what accumulates must not move."""

    @staticmethod
    def _op(engine, op):
        matrix, x, X = _contents_inputs()
        if op == "run":
            return engine.run(matrix, x)
        return engine.run_many(matrix, X)

    @pytest.mark.parametrize("op", ["run", "run_many"])
    def test_warm_run_metrics_match_recorded_snapshot(self, op):
        engine = _engine_with_options()
        self._op(engine, op)
        result = self._op(engine, op)
        assert _without_run_seconds(result.telemetry.metrics) == WARM_METRICS[op]
        histogram = result.telemetry.metrics.to_dict()["spmv_run_seconds"]
        assert histogram["series"]["{}"]["count"] == 1

    @pytest.mark.parametrize("op", ["run", "run_many"])
    @pytest.mark.parametrize("geometry", ["default", "width512"])
    def test_warm_run_metrics_match_recorded_digests(self, geometry, op):
        options = {} if geometry == "default" else {"segment_width": 512}
        engine = _engine_with_options(**options)
        self._op(engine, op)
        result = self._op(engine, op)
        digest = _digest(_without_run_seconds(result.telemetry.metrics))
        assert digest == WARM_DIGESTS[(geometry, op)]

    def test_each_batch_size_publishes_its_own_samples(self):
        engine = _engine_with_options()
        for op in ("run", "run_many", "run", "run_many"):
            result = self._op(engine, op)
            published = _without_run_seconds(result.telemetry.metrics)
            published.pop("spmv_plan_cache_events_total")  # a miss, then hits
            expected = dict(WARM_METRICS[op])
            expected.pop("spmv_plan_cache_events_total")
            assert published == expected

    @pytest.mark.parametrize("op", ["run", "run_many"])
    def test_lifetime_counters_are_n_times_one_run(self, op):
        engine = _engine_with_options()
        engine.plan(_contents_inputs()[0])  # outside a session: records nothing
        runs = [self._op(engine, op) for _ in range(4)]
        one = runs[0].telemetry.metrics.to_dict()
        lifetime = engine.metrics().to_dict()
        assert set(lifetime) == set(one)
        for name, entry in one.items():
            kept = lifetime[name]["series"]
            if entry["kind"] == "counter":
                assert kept == {k: 4 * v for k, v in entry["series"].items()}
            elif entry["kind"] == "gauge":
                assert kept == entry["series"]
            else:
                assert kept["{}"]["count"] == 4
                total = sum(r.telemetry.metrics.value(name) for r in runs)
                assert kept["{}"]["sum"] == pytest.approx(total)


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

    def test_handles_end_in_the_same_state_as_by_name_writes(self):
        by_name, by_handle = MetricsRegistry(), MetricsRegistry()
        by_name.inc("c_total", 2, labels={"site": "x"}, help="c")
        by_name.set("g", 0.5)
        by_name.observe("h_seconds", 3e-4)
        by_name.inc("c_total", 1.5, labels={"site": "x"}, help="c")
        counter = SeriesHandle("c_total", "counter", {"site": "x"}, help="c")
        by_handle.record(counter, 2)
        by_handle.record_all(
            (
                (SeriesHandle("g", "gauge"), 0.5),
                (SeriesHandle("h_seconds", "histogram"), 3e-4),
                (counter, 1.5),
            )
        )
        assert by_handle.to_dict() == by_name.to_dict()
        assert by_handle.to_prometheus() == by_name.to_prometheus()

    def test_handles_reject_bad_input_like_by_name_writes(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.record(SeriesHandle("a_total", "counter"), -1)
        with pytest.raises(ValueError):
            SeriesHandle("0bad", "counter")
        with pytest.raises(ValueError):
            SeriesHandle("a_total", "summary")

    def test_queued_kind_clash_raises_on_read_and_keeps_the_rest(self):
        registry = MetricsRegistry()
        registry.inc("a_total")
        registry.record_all(
            (
                (SeriesHandle("a_total", "gauge"), 5.0),
                (SeriesHandle("b_total", "counter"), 2.0),
            )
        )
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.to_dict()
        assert registry.value("a_total") == 1.0
        assert registry.value("b_total") == 2.0

    def test_merge_of_queued_samples_adds_each_series_total(self):
        # 1e16 + (1.0 + 1.0) != (1e16 + 1.0) + 1.0: a run's samples for
        # one series must reach the lifetime registry as their sum.
        lifetime, run = MetricsRegistry(), MetricsRegistry()
        lifetime.inc("c_total", 1e16)
        counter = SeriesHandle("c_total", "counter")
        run.record_all(((counter, 1.0), (counter, 1.0)))
        lifetime.merge(run)
        assert lifetime.value("c_total") == 1e16 + 2.0
        assert run.value("c_total") == 2.0
        # One sample per series: applied straight to the lifetime registry.
        other = MetricsRegistry()
        other.record_all(((counter, 4.0), (SeriesHandle("g", "gauge"), 4.0)))
        lifetime.merge(other)
        assert lifetime.value("c_total") == 1e16 + 6.0
        assert lifetime.value("g") == 4.0
        assert other.to_dict()["g"]["series"] == {"{}": 4.0}

    def test_merge_into_self_doubles(self):
        registry = MetricsRegistry()
        registry.inc("c_total", 3)
        registry.record(SeriesHandle("h_seconds", "histogram"), 0.5)
        registry.merge(registry)
        assert registry.value("c_total") == 6
        assert registry.to_dict()["h_seconds"]["series"]["{}"]["count"] == 2

    def test_registries_merging_into_each_other_do_not_deadlock(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("a_total")
        b.inc("b_total")

        def fold(into, other):
            for _ in range(2000):
                into.merge(other)

        threads = [
            threading.Thread(target=fold, args=(a, b)),
            threading.Thread(target=fold, args=(b, a)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)

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

