"""Tests for the tuning sweep: search space, study discipline, reports.

The study's three disciplines are each pinned directly: every kept
trial is bit-identical to the reference oracle at its structural
configuration, pruned/mismatched candidates are never adopted, and the
trial budget records skips instead of silently dropping candidates.
"""

import json

import numpy as np
import pytest

from repro.autotune import (
    Component,
    SearchSpace,
    TunedProfileStore,
    TuningStudy,
    default_search_space,
    knobs_to_config,
    matrix_fingerprint,
    structural_key,
    tune_matrix,
)
from repro.faults.errors import ConfigurationError
from repro.generators.erdos_renyi import erdos_renyi_graph


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(500, 4.0, seed=41)


def small_space(serving: bool = True) -> SearchSpace:
    components = [
        Component("segment_width", (500, 128)),
        Component("q", (1, 0)),
    ]
    if serving:
        components.append(Component("max_batch", (4, 8), serving=True))
    return SearchSpace(tuple(components))


class TestSearchSpace:
    def test_unknown_knob_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown knob"):
            Component("warp_speed", (1, 2))

    def test_empty_candidates_are_rejected(self):
        with pytest.raises(ConfigurationError, match="no candidates"):
            Component("q", ())

    def test_candidates_are_deduped_in_order(self):
        component = Component("q", (4, 2, 4, 1, 2))
        assert component.candidates == (4, 2, 1)

    def test_duplicate_knobs_are_rejected(self):
        with pytest.raises(ConfigurationError, match="twice"):
            SearchSpace((Component("q", (1,)), Component("q", (2,))))

    def test_default_space_caps_widths_at_columns(self, graph):
        space = default_search_space(graph)
        widths = next(
            c.candidates for c in space if c.knob == "segment_width"
        )
        assert all(1 <= w <= graph.n_cols for w in widths)
        assert graph.n_cols in widths

    def test_default_space_marks_max_batch_as_serving(self, graph):
        space = default_search_space(graph)
        serving = [c.knob for c in space if c.serving]
        assert serving == ["max_batch"]
        no_serving = default_search_space(graph, include_serving=False)
        assert not any(c.serving for c in no_serving)

    def test_execution_knobs_are_not_offered(self, graph):
        """The removed ``native`` backend's knobs are never swept."""
        knobs = [c.knob for c in default_search_space(graph)]
        assert not {"backend", "n_jobs"} & set(knobs)

    def test_describe_is_json_native(self, graph):
        payload = default_search_space(graph).describe()
        assert json.loads(json.dumps(payload)) == payload


class TestKnobsToConfig:
    def test_hdn_threshold_expands_to_config(self):
        config = knobs_to_config({"hdn_threshold": 64})
        assert config.hdn is not None
        assert config.hdn.degree_threshold == 64
        assert config.segment_width is None  # the one-stripe default
        assert config.telemetry is False

    def test_backend_override_drops_parallel_knobs(self):
        config = knobs_to_config(
            {"backend": "vectorized", "q": 2}, backend_override="reference"
        )
        assert config.backend == "reference"
        assert config.q == 2

    def test_max_batch_is_ignored(self):
        config = knobs_to_config({"max_batch": 64, "q": 2})
        assert config.q == 2
        assert not hasattr(config, "max_batch")

    def test_structural_key_ignores_execution_knobs(self):
        structural = {"segment_width": 64, "q": 1}
        assert structural_key(structural) == structural_key(
            {**structural, "backend": "reference", "max_batch": 8}
        )
        assert structural_key(structural) != structural_key(
            {**structural, "q": 2}
        )


class TestTuningStudy:
    def test_invalid_objective_is_rejected(self, graph):
        with pytest.raises(ConfigurationError, match="objective"):
            TuningStudy(graph, objective="vibes")

    def test_report_invariants(self, graph):
        study = TuningStudy(
            graph, space=small_space(), probe_batch=4, repeats=2
        )
        report = study.run()
        assert report.fingerprint == matrix_fingerprint(graph)
        assert report.tuned_s <= report.baseline_s
        assert report.speedup >= 1.0
        # Every kept (non-pruned, non-skipped, non-errored) trial passed
        # the oracle; nothing that failed it was adopted.
        for trial in report.trials:
            if trial.adopted:
                assert trial.identical is True
                assert not trial.pruned
            if trial.identical is False:
                assert not trial.adopted
        assert report.profile is not None
        assert report.profile.fingerprint == report.fingerprint
        assert report.profile.speedup == pytest.approx(report.speedup)

    def test_latency_objective(self, graph):
        report = TuningStudy(
            graph,
            space=small_space(serving=False),
            objective="latency",
            repeats=2,
        ).run()
        assert report.objective == "latency"
        assert report.tuned_s <= report.baseline_s

    def test_serving_phase_records_batch_curve(self, graph):
        report = TuningStudy(
            graph, space=small_space(), probe_batch=4, repeats=2
        ).run()
        assert set(report.batch_per_column_s) <= {4, 8}
        assert report.profile.max_batch in (4, 8)

    def test_trial_budget_records_skips(self, graph):
        report = TuningStudy(
            graph, space=small_space(), probe_batch=4, repeats=1, max_trials=1
        ).run()
        assert any(t.skipped for t in report.trials)

    def test_report_round_trips_to_json(self, graph):
        report = TuningStudy(
            graph, space=small_space(), probe_batch=4, repeats=1
        ).run()
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert isinstance(report.render(), str)
        assert report.fingerprint in report.render()

    def test_tune_matrix_persists_the_profile(self, graph, tmp_path):
        store = TunedProfileStore(tmp_path)
        report = tune_matrix(
            graph,
            store=store,
            space=small_space(),
            probe_batch=4,
            repeats=1,
        )
        stored = store.lookup(report.fingerprint)
        assert stored == report.profile

    def test_adopted_knobs_beat_baseline_when_gain_clears_margin(self, graph):
        # With min_gain=1.0 any strict improvement is adopted; the tuned
        # config must then reproduce the reference oracle bytes.
        from repro.core.twostep import TwoStepEngine

        report = TuningStudy(
            graph, space=small_space(serving=False), repeats=2, min_gain=1.0
        ).run()
        config = report.profile.apply(knobs_to_config({}))
        x = np.random.default_rng(42).standard_normal(graph.n_cols)
        y = TwoStepEngine(config).run(graph, x).y
        oracle = TwoStepEngine(
            knobs_to_config(report.profile.knobs, backend_override="reference")
        )
        assert np.array_equal(y, oracle.run(graph, x).y)
