"""Engine-side auto-selection tests: ``create_engine(tuning=...)``.

What the tuning loop promises:

* a profile hit routes runs through a child engine built from the
  profile-applied config, bit-identically;
* the decision is made once per matrix -- the warm path never
  fingerprints or touches the store again;
* counters (``spmv_tuned_profile_{hits,misses,applied}_total``) surface
  on ``engine.metrics()`` and ``tuning_stats()``;
* ``plan.tune`` wraps the cold decision when a telemetry session is
  active;
* ``forget`` drops the decision along with the plans;
* ``REPRO_TUNING`` selects the mode with the standard precedence and
  shows up in the options audit.
"""

import numpy as np
import pytest

from repro.api import EngineOptions, create_engine
from repro.autotune import (
    TuningProfile,
    active_profile_provenance,
    matrix_fingerprint,
)
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.telemetry import telemetry_scope, telemetry_session


@pytest.fixture
def graph():
    return erdos_renyi_graph(400, 4.0, seed=31)


@pytest.fixture
def store(tmp_path):
    # Resolve rather than construct: engines consulting the same
    # directory share this exact instance (and its counters).
    from repro.autotune import resolve_profile_store

    return resolve_profile_store(str(tmp_path))


def _save_profile(store, graph, **extra_knobs):
    knobs = {"q": 1, "segment_width": 128}
    knobs.update(extra_knobs)
    profile = TuningProfile(
        fingerprint=matrix_fingerprint(graph), knobs=knobs, speedup=1.5
    )
    store.save(profile)
    return profile


class TestAutoSelection:
    def test_hit_matches_explicit_config_bitwise(self, graph, store):
        _save_profile(store, graph)
        rng = np.random.default_rng(32)
        x = rng.standard_normal(graph.n_cols)
        tuned = create_engine(EngineOptions(tuning=str(store.directory)))
        y_tuned = tuned.run(graph, x).y
        # Auto-selection is pure delegation: the same knobs configured
        # explicitly (tuning off) produce exactly the same bytes.
        explicit = create_engine(EngineOptions(segment_width=128, q=1))
        assert np.array_equal(y_tuned, explicit.run(graph, x).y)
        # And the tuned structure only reorders accumulation vs default.
        y_default = create_engine(EngineOptions()).run(graph, x).y
        assert np.allclose(y_tuned, y_default)
        assert tuned.tuning_profile(graph) is not None
        assert tuned.tuning_profile(graph).knobs["segment_width"] == 128

    def test_miss_runs_on_the_parent_config(self, graph, store):
        engine = create_engine(EngineOptions(tuning=str(store.directory)))
        x = np.ones(graph.n_cols)
        engine.run(graph, x)
        assert engine.tuning_profile(graph) is None
        stats = engine.tuning_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 0
        assert stats["applied"] == 0

    def test_counters_surface_on_metrics(self, graph, store):
        _save_profile(store, graph)
        engine = create_engine(EngineOptions(tuning=str(store.directory)))
        x = np.ones(graph.n_cols)
        for _ in range(3):
            engine.run(graph, x)
        metrics = engine.metrics()
        assert metrics.total("spmv_tuned_profile_hits_total") == 1
        assert metrics.total("spmv_tuned_profile_misses_total") == 0
        assert metrics.total("spmv_tuned_profile_applied_total") == 3
        stats = engine.tuning_stats()
        assert stats["matrices_decided"] == 1
        assert stats["matrices_tuned"] == 1

    def test_run_many_columns_match_tuned_run(self, graph, store):
        _save_profile(store, graph)
        engine = create_engine(EngineOptions(tuning=str(store.directory)))
        rng = np.random.default_rng(33)
        X = rng.standard_normal((graph.n_cols, 4))
        Y = engine.run_many(graph, X).y
        for j in range(4):
            assert np.array_equal(Y[:, j], engine.run(graph, X[:, j]).y)

    def test_tuning_off_never_consults_the_store(self, graph, store, monkeypatch):
        _save_profile(store, graph)
        monkeypatch.setenv("REPRO_TUNE_DIR", str(store.directory))
        engine = create_engine(EngineOptions())  # tuning defaults to off
        engine.run(graph, np.ones(graph.n_cols))
        assert engine.metrics().total("spmv_tuned_profile_hits_total") == 0
        assert engine.tuning_profile(graph) is None


class TestWarmPathOverhead:
    def test_fingerprint_computed_exactly_once(self, graph, store, monkeypatch):
        _save_profile(store, graph)
        import repro.autotune.profile as profile_mod

        calls = {"n": 0}
        real = profile_mod.matrix_fingerprint

        def counting(matrix):
            calls["n"] += 1
            return real(matrix)

        monkeypatch.setattr(profile_mod, "matrix_fingerprint", counting)
        engine = create_engine(EngineOptions(tuning=str(store.directory)))
        x = np.ones(graph.n_cols)
        for _ in range(10):
            engine.run(graph, x)
        # One cold decision; nine warm runs do a dict probe only.
        assert calls["n"] == 1
        assert store.lookups == 1

    def test_forget_drops_the_decision(self, graph, store):
        _save_profile(store, graph)
        engine = create_engine(EngineOptions(tuning=str(store.directory)))
        x = np.ones(graph.n_cols)
        engine.run(graph, x)
        assert engine.tuning_stats()["matrices_decided"] == 1
        assert engine.forget(graph) >= 1
        assert engine.tuning_stats()["matrices_decided"] == 0
        # The next run re-decides (second store lookup).
        engine.run(graph, x)
        assert store.lookups == 2


class TestTelemetryAndProvenance:
    def test_plan_tune_span_recorded(self, graph, store):
        _save_profile(store, graph)
        engine = create_engine(EngineOptions(tuning=str(store.directory)))
        session = telemetry_session()
        with telemetry_scope(session):
            engine.run(graph, np.ones(graph.n_cols))
        names = [s.name for s in session.tracer.finished()]
        assert "plan.tune" in names

    def test_applied_profile_feeds_bench_provenance(self, graph, store):
        _save_profile(store, graph)
        engine = create_engine(EngineOptions(tuning=str(store.directory)))
        engine.run(graph, np.ones(graph.n_cols))
        provenance = active_profile_provenance()
        assert provenance["profile"] == matrix_fingerprint(graph)
        assert provenance["knobs"]["segment_width"] == 128

    def test_tuning_mode_in_options_audit(self, store):
        options = EngineOptions(tuning=str(store.directory)).resolve()
        value, source = options.provenance()["tuning"]
        assert value == str(store.directory)
        assert source == "explicit"

    def test_env_var_precedence(self, monkeypatch, store):
        monkeypatch.setenv("REPRO_TUNING", str(store.directory))
        value, source = EngineOptions().provenance()["tuning"]
        assert value == str(store.directory)
        assert source == "env:REPRO_TUNING"
        assert EngineOptions().resolve().tuning == str(store.directory)
        # An explicit value beats the environment.
        assert EngineOptions(tuning="off").resolve().tuning == "off"

    def test_direct_engine_honours_env_var(self, monkeypatch, graph, store):
        """A ``TwoStepEngine`` built without the factory resolves
        ``REPRO_TUNING`` exactly as ``create_engine`` does."""
        from repro.core.config import TwoStepConfig
        from repro.core.twostep import TwoStepEngine

        _save_profile(store, graph)
        monkeypatch.setenv("REPRO_TUNING", str(store.directory))
        direct = TwoStepEngine(TwoStepConfig(segment_width=1024))
        factory = create_engine(segment_width=1024)
        assert direct.tuning_stats()["mode"] == str(store.directory)
        assert direct.tuning_stats()["mode"] == factory.tuning_stats()["mode"]
        x = np.ones(graph.n_cols)
        assert np.array_equal(direct.run(graph, x).y, factory.run(graph, x).y)
        assert direct.tuning_profile(graph) is not None


class TestQuarantinedProfileIsAMiss:
    def test_corrupted_profile_never_reaches_the_engine(self, graph, store):
        profile = _save_profile(store, graph)
        path = store.path_for(profile.fingerprint)
        path.write_text("{broken")
        engine = create_engine(EngineOptions(tuning=str(store.directory)))
        x = np.random.default_rng(34).standard_normal(graph.n_cols)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            y = engine.run(graph, x).y
        assert engine.tuning_profile(graph) is None
        assert np.array_equal(y, create_engine(EngineOptions()).run(graph, x).y)
