"""Tests for :mod:`repro.autotune.profile`: the profile schema, the
crash-safe store, and the tuned-vs-default differential contract.

Three layers:

* **round-trip** -- hypothesis-generated profiles survive
  ``to_dict``/``from_dict`` and a full save/lookup cycle byte-exactly;
* **quarantine** -- every corruption mode (truncated JSON, flipped CRC,
  fingerprint mismatch, unknown knobs or backends) is detected at lookup, moved to
  ``quarantine/``, warned about, and reported as a miss -- never
  propagated into an engine configuration;
* **differential** -- applying a stored profile yields bit-identical
  results to the untuned engine across all three backends (the profile
  only moves work between bit-identical tiers).
"""

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import create_engine
from repro.autotune.profile import (
    KNOB_FIELDS,
    PROFILE_VERSION,
    TunedProfileStore,
    TuningProfile,
    matrix_fingerprint,
    resolve_profile_store,
)
from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.faults.errors import ConfigurationError
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.generators.rmat import rmat_graph

settings.register_profile("repro", deadline=None, max_examples=40)
settings.load_profile("repro")


_KNOB_VALUES = {
    "backend": st.sampled_from(["reference", "vectorized"]),
    "q": st.integers(0, 6),
    "segment_width": st.integers(1, 1 << 20),
    "vldi_vector_block_bits": st.integers(1, 8),
    "hdn_threshold": st.one_of(st.none(), st.integers(1, 10_000)),
    "max_batch": st.integers(1, 512),
}


@st.composite
def profiles(draw):
    knobs = {}
    for name in draw(st.sets(st.sampled_from(KNOB_FIELDS))):
        knobs[name] = draw(_KNOB_VALUES[name])
    return TuningProfile(
        fingerprint=draw(st.text("0123456789abcdef", min_size=4, max_size=16)),
        knobs=knobs,
        baseline_s=draw(st.one_of(st.none(), st.floats(0, 10, allow_nan=False))),
        tuned_s=draw(st.one_of(st.none(), st.floats(0, 10, allow_nan=False))),
        speedup=draw(st.one_of(st.none(), st.floats(0.1, 100, allow_nan=False))),
        n_rows=draw(st.integers(0, 1 << 30)),
        n_cols=draw(st.integers(0, 1 << 30)),
        nnz=draw(st.integers(0, 1 << 40)),
        created_at=draw(st.floats(0, 2e9, allow_nan=False)),
        source=draw(st.sampled_from(["study", "manual", "ci"])),
    )


class TestProfileRoundTrip:
    @given(profile=profiles())
    def test_dict_round_trip_is_exact(self, profile):
        rebuilt = TuningProfile.from_dict(profile.to_dict())
        assert rebuilt == profile
        # And the dict form itself is JSON-stable.
        assert json.loads(json.dumps(profile.to_dict())) == profile.to_dict()

    @given(profile=profiles())
    def test_store_round_trip_is_exact(self, profile, tmp_path_factory):
        store = TunedProfileStore(tmp_path_factory.mktemp("profiles"))
        store.save(profile)
        assert store.lookup(profile.fingerprint) == profile

    def test_unknown_knob_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown tuning knob"):
            TuningProfile(fingerprint="abcd", knobs={"warp_speed": 9})

    def test_non_finite_values_are_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            TuningProfile(fingerprint="abcd", tuned_s=float("nan"))

    def test_numpy_scalars_are_coerced(self):
        profile = TuningProfile(
            fingerprint="abcd", knobs={"q": np.int64(3), "max_batch": np.int32(8)}
        )
        assert profile.knobs == {"q": 3, "max_batch": 8}
        assert all(type(v) is int for v in profile.knobs.values())

    def test_unsupported_version_is_rejected(self):
        payload = TuningProfile(fingerprint="abcd").to_dict()
        payload["version"] = PROFILE_VERSION + 1
        with pytest.raises(ConfigurationError, match="version"):
            TuningProfile.from_dict(payload)


class TestQuarantine:
    def _saved(self, tmp_path):
        store = TunedProfileStore(tmp_path)
        profile = TuningProfile(fingerprint="feedbeefcafe0123", knobs={"q": 2})
        path = store.save(profile)
        return store, profile, path

    def _assert_quarantined(self, store, fingerprint, path):
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.lookup(fingerprint) is None
        assert not path.exists()
        quarantined = list(store.quarantine_dir.iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith(path.name)
        assert store.quarantined == 1
        assert store.misses == 1

    def test_truncated_json_is_quarantined(self, tmp_path):
        store, profile, path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        self._assert_quarantined(store, profile.fingerprint, path)

    def test_crc_mismatch_is_quarantined(self, tmp_path):
        store, profile, path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        payload["profile"]["knobs"]["q"] = 5  # body edited, CRC not updated
        path.write_text(json.dumps(payload))
        self._assert_quarantined(store, profile.fingerprint, path)

    def test_fingerprint_mismatch_is_quarantined(self, tmp_path):
        store, profile, path = self._saved(tmp_path)
        other = store.path_for("0123456789abcdef")
        path.rename(other)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.lookup("0123456789abcdef") is None
        assert store.quarantined == 1

    def test_unknown_knob_in_file_is_quarantined(self, tmp_path):
        # Made-up knobs and backends, and ones that older releases wrote
        # but that no longer exist: all fail the schema, none gets a shim,
        # and the matrix still runs on the untuned configuration.
        graph = erdos_renyi_graph(200, 3.0, seed=5)
        x = np.random.default_rng(5).uniform(size=graph.n_cols)
        cases = (
            ("warp_speed", 9),
            ("fused_step2", False),
            ("min_parallel_nnz", 0),
            ("backend", "bogus"),
            ("backend", "parallel"),
            ("n_jobs", 2),
            ("backend", "native"),
        )
        for name, value in cases:
            directory = tmp_path / f"{name}-{value}"
            store = resolve_profile_store(str(directory))
            path = store.save(
                TuningProfile(fingerprint=matrix_fingerprint(graph), knobs={"q": 2})
            )
            payload = json.loads(path.read_text())
            payload["profile"]["knobs"][name] = value
            body = json.dumps(
                payload["profile"], sort_keys=True, separators=(",", ":")
            ).encode()
            payload["crc32"] = zlib.crc32(body) & 0xFFFFFFFF  # valid CRC, bad schema
            path.write_text(json.dumps(payload))
            with pytest.warns(RuntimeWarning, match="quarantined"):
                assert store.lookup(matrix_fingerprint(graph)) is None
            assert (store.quarantined, store.misses) == (1, 1)
            result = create_engine(segment_width=64).run(graph, x, verify=True)
            assert result.verified
            assert not path.exists()
            assert len(list(store.quarantine_dir.iterdir())) == 1
            assert (store.quarantined, store.misses) == (1, 1)

    def test_missing_file_is_a_plain_miss(self, tmp_path):
        store = TunedProfileStore(tmp_path)
        assert store.lookup("feedbeefcafe0123") is None
        assert store.misses == 1
        assert store.quarantined == 0

    def test_save_after_quarantine_recovers(self, tmp_path):
        store, profile, path = self._saved(tmp_path)
        path.write_text("not json")
        with pytest.warns(RuntimeWarning):
            assert store.lookup(profile.fingerprint) is None
        store.save(profile)
        assert store.lookup(profile.fingerprint) == profile


class TestResolveProfileStore:
    def test_off_and_none_disable(self):
        assert resolve_profile_store(None) is None
        assert resolve_profile_store("off") is None

    def test_same_directory_shares_one_store(self, tmp_path):
        a = resolve_profile_store(str(tmp_path))
        b = resolve_profile_store(str(tmp_path))
        assert a is b


class TestTunedDifferential:
    """The differential contract a tuned config must honor, per backend.

    Structural knobs (stripe width, merge radix, HDN) legitimately
    reorder the accumulation, so tuned-vs-default is *numerically* close
    but not bytewise equal.  The bit-identity obligation is the one the
    study enforces every trial: at the tuned structural configuration,
    every backend produces exactly the reference backend's bytes.
    """

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_tuned_config_matches_oracle_bitwise(self, backend):
        from dataclasses import replace

        graph = rmat_graph(8, 6.0, seed=21)
        profile = TuningProfile(
            fingerprint=matrix_fingerprint(graph),
            knobs={"q": 1, "segment_width": 64, "hdn_threshold": 32},
        )
        base = TwoStepConfig(backend=backend, segment_width=8192, q=4, telemetry=False)
        rng = np.random.default_rng(22)
        x = rng.standard_normal(graph.n_cols)
        y_default = TwoStepEngine(base).run(graph, x).y
        tuned_config = profile.apply(base)
        assert (tuned_config.q, tuned_config.segment_width) == (1, 64)
        assert tuned_config.hdn.degree_threshold == 32
        assert tuned_config.backend == backend
        y_tuned = TwoStepEngine(tuned_config).run(graph, x).y
        oracle = TwoStepEngine(replace(tuned_config, backend="reference"))
        assert np.array_equal(y_tuned, oracle.run(graph, x).y)
        assert np.allclose(y_tuned, y_default)

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_store_lookup_to_engine_matches_oracle(self, backend, tmp_path):
        from dataclasses import replace

        graph = erdos_renyi_graph(300, 4.0, seed=23)
        fingerprint = matrix_fingerprint(graph)
        store = TunedProfileStore(tmp_path)
        store.save(
            TuningProfile(
                fingerprint=fingerprint,
                knobs={"segment_width": 100, "q": 0, "max_batch": 8},
            )
        )
        base = TwoStepConfig(backend=backend, segment_width=8192, telemetry=False)
        rng = np.random.default_rng(24)
        X = rng.standard_normal((graph.n_cols, 5))
        Y_default = TwoStepEngine(base).run_many(graph, X).y
        profile = store.lookup(fingerprint)
        tuned_config = profile.apply(base)
        Y_tuned = TwoStepEngine(tuned_config).run_many(graph, X).y
        oracle = TwoStepEngine(replace(tuned_config, backend="reference"))
        assert np.array_equal(Y_tuned, oracle.run_many(graph, X).y)
        assert np.allclose(Y_tuned, Y_default)


class TestMatrixFingerprint:
    def test_matches_serving_registry_import(self):
        from repro.serving.registry import matrix_fingerprint as serving_fp

        assert serving_fp is matrix_fingerprint

    def test_content_not_identity(self):
        a = erdos_renyi_graph(100, 3.0, seed=25)
        b = erdos_renyi_graph(100, 3.0, seed=25)
        c = erdos_renyi_graph(100, 3.0, seed=26)
        assert a is not b
        assert matrix_fingerprint(a) == matrix_fingerprint(b)
        assert matrix_fingerprint(a) != matrix_fingerprint(c)
