"""TwoStepConfig / resolve_config / create_engine: one engine configuration.

Covers the precedence rule (explicit value > environment variable >
package default), provenance reporting, the one reader of ``REPRO_*``
(every engine-building path agrees on the same environment), the
rejection of removed fields and legacy constructor keywords, and the
pinning of directly built engines through the same resolver.
"""

import json
import warnings

import numpy as np
import pytest

from repro import create_engine, reference_spmv
from repro.api import ENV_VARS, resolve_config
from repro.backends import DEFAULT_BACKEND, available_backends, resolve_backend
from repro.core.accelerator import Accelerator
from repro.core.config import TwoStepConfig
from repro.core.design_points import TS_ASIC
from repro.core.records import Precision
from repro.core.twostep import TwoStepEngine
from repro.faults.errors import ConfigurationError
from repro.generators import erdos_renyi_graph
from repro.serving import SpMVServer


@pytest.fixture
def clean_env(monkeypatch):
    """Strip every REPRO_* variable so defaults are observable."""
    for var in ENV_VARS.values():
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


@pytest.fixture
def small_graph():
    return erdos_renyi_graph(n_nodes=600, avg_degree=4.0, seed=11)


def resolved(**fields) -> TwoStepConfig:
    return resolve_config(TwoStepConfig(**fields))[0]


# ----------------------------------------------------------------------
# Precedence: explicit > env > default
# ----------------------------------------------------------------------


class TestPrecedence:
    def test_default_when_nothing_set(self, clean_env):
        config = resolved()
        assert config.backend == DEFAULT_BACKEND
        # Unset width: the engine derives one stripe from the matrix.
        assert config.segment_width is None
        assert config.telemetry is True
        assert config.strict_validate is False

    def test_env_beats_default(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "reference")
        clean_env.setenv("REPRO_STRICT_VALIDATE", "1")
        config = resolved()
        assert config.backend == "reference"
        assert config.strict_validate is True

    def test_explicit_beats_env(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "reference")
        assert resolved(backend="vectorized").backend == "vectorized"

    def test_resolution_pins_values(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "reference")
        config = resolved()
        clean_env.setenv("REPRO_BACKEND", "vectorized")
        # An already-pinned config must not chase the environment.
        assert config.backend == "reference"
        assert resolve_config(config)[0].backend == "reference"

    def test_boolean_env_parsing_matches_historical_resolvers(self, clean_env):
        # Default-on flag: only the falsy set (case- and space-insensitive)
        # turns it off.
        for falsy in ("0", "false", "No", " OFF ", ""):
            clean_env.setenv("REPRO_TELEMETRY", falsy)
            assert resolved().telemetry is False, falsy
        clean_env.setenv("REPRO_TELEMETRY", "maybe")
        assert resolved().telemetry is True
        # Default-off flag: requires an explicit truthy value.
        clean_env.setenv("REPRO_STRICT_VALIDATE", "yes")
        assert resolved().strict_validate is True
        clean_env.setenv("REPRO_STRICT_VALIDATE", "maybe")
        assert resolved().strict_validate is False

    def test_garbage_env_value_raises_configuration_error(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "many")
        for build in (resolved, create_engine):
            with pytest.raises(ConfigurationError, match="unknown backend 'many'"):
                build()

    def test_dynamic_defaults_stay_unset(self, clean_env):
        config = resolved()
        # Stripe width resolves per matrix; the other defaults are the
        # dataclass's own.
        assert config.segment_width is None
        assert config.precision is Precision.SINGLE


# ----------------------------------------------------------------------
# One reader of REPRO_*: every engine-building path agrees
# ----------------------------------------------------------------------


_BACKEND_OF = {
    "create_engine": lambda: create_engine().backend,
    "TwoStepEngine": lambda: TwoStepEngine(TwoStepConfig()).backend,
    "resolve_backend": lambda: resolve_backend(None),
}


class TestOneBackendReader:
    @pytest.mark.parametrize("build", sorted(_BACKEND_OF))
    def test_padded_value_is_stripped_everywhere(self, clean_env, build):
        clean_env.setenv("REPRO_BACKEND", " reference")
        assert _BACKEND_OF[build]().name == "reference"

    @pytest.mark.parametrize("build", sorted(_BACKEND_OF))
    def test_empty_value_is_rejected_everywhere(self, clean_env, build):
        clean_env.setenv("REPRO_BACKEND", "")
        with pytest.raises(
            ConfigurationError, match="available: reference, vectorized"
        ):
            _BACKEND_OF[build]()

    def test_env_backend_reaches_served_engines(self, clean_env, small_graph):
        # The reference-oracle CI leg sets REPRO_BACKEND=reference; the
        # engine and every serving lane must then run the oracle.
        clean_env.setenv("REPRO_BACKEND", "reference")
        x = np.ones(small_graph.n_cols)
        assert create_engine().run(small_graph, x).report.backend == "reference"
        server = SpMVServer()
        assert server.registry.engine().backend.name == "reference"
        assert server.stats()["backend"]["configured"] == "reference"


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


class TestProvenance:
    def test_provenance_sources(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "reference")
        _config, provenance = resolve_config(TwoStepConfig(segment_width=2048))
        assert provenance["segment_width"] == (2048, "explicit")
        assert provenance["backend"] == ("reference", "env:REPRO_BACKEND")
        assert provenance["q"] == (4, "default")
        assert provenance["telemetry"] == (True, "default")

    def test_value_equal_to_default_reports_default(self, clean_env):
        _config, provenance = resolve_config(TwoStepConfig(q=4, plan_cache=8))
        assert provenance["q"] == (4, "default")
        assert provenance["plan_cache"] == (8, "default")

    def test_engine_carries_provenance(self, clean_env):
        clean_env.setenv("REPRO_TELEMETRY", "0")
        engine = create_engine(segment_width=512)
        provenance = engine.options_provenance
        assert set(provenance) == {
            "segment_width", "q", "precision", "vldi_vector_block_bits",
            "vldi_matrix_block_bits", "step1_pipelines", "hdn",
            "backend", "plan_cache", "strict_validate",
            "telemetry",
        }
        assert provenance["segment_width"] == (512, "explicit")
        assert provenance["telemetry"] == (False, "env:REPRO_TELEMETRY")
        assert provenance["backend"] == (DEFAULT_BACKEND, "default")

    def test_stats_lists_the_resolved_settings(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "reference")
        server = SpMVServer(config=TwoStepConfig(segment_width=256))
        assert server.options_provenance["backend"] == (
            "reference", "env:REPRO_BACKEND",
        )
        options = server.stats()["engine_options"]
        assert options["segment_width"] == 256
        assert options["backend"] == "reference"
        assert options["telemetry"] is True
        assert "hdn" not in options  # unset values are left out
        json.dumps(options)  # served as JSON by /stats


# ----------------------------------------------------------------------
# create_engine
# ----------------------------------------------------------------------


class TestCreateEngine:
    def test_returns_twostep_engine_by_default(self, clean_env):
        engine = create_engine(segment_width=512)
        assert isinstance(engine, TwoStepEngine)
        assert engine.config.segment_width == 512

    def test_takes_a_config_plus_overrides(self, clean_env):
        engine = create_engine(TwoStepConfig(q=3), backend="reference")
        assert engine.config.q == 3
        assert engine.config.backend == "reference"
        assert engine.options_provenance["q"] == (3, "explicit")

    def test_create_engine_rejects_unknown_overrides(self):
        with pytest.raises(ConfigurationError, match="unknown engine option") as info:
            create_engine(bakend="reference")
        assert "valid fields: backend, hdn," in str(info.value)

    @pytest.mark.parametrize(
        "config", ["reference", {"backend": "reference"}], ids=["str", "dict"]
    )
    def test_create_engine_rejects_non_configs(self, config):
        with pytest.raises(ConfigurationError, match="must be a TwoStepConfig"):
            create_engine(config)

    def test_returns_accelerator_for_design_point(self, clean_env):
        engine = create_engine(design_point="TS_ASIC", segment_width=1024)
        assert isinstance(engine, Accelerator)
        assert engine.point is TS_ASIC
        assert engine.config.segment_width == 1024
        assert engine.options_provenance["segment_width"] == (1024, "explicit")

    def test_design_point_object_accepted(self, clean_env):
        engine = create_engine(design_point=TS_ASIC, segment_width=1024)
        assert isinstance(engine, Accelerator)
        assert engine.point is TS_ASIC

    def test_design_point_simulates_at_default_width(self, clean_env):
        engine = create_engine(design_point="TS_ASIC", backend="reference")
        assert engine.config.segment_width == 8_192
        assert engine.config.backend == "reference"

    def test_env_backed_engine_runs_correctly(self, clean_env, small_graph):
        clean_env.setenv("REPRO_BACKEND", "reference")
        engine = create_engine(segment_width=256)
        x = np.random.default_rng(0).uniform(size=small_graph.n_cols)
        y, _ = engine.run(small_graph, x)
        np.testing.assert_allclose(y, reference_spmv(small_graph, x))
        assert engine.config.backend == "reference"


class TestDirectEnginePinning:
    """``TwoStepEngine(config)`` resolves through the factory's resolver."""

    def test_direct_engine_matches_factory(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "reference")
        clean_env.setenv("REPRO_STRICT_VALIDATE", "1")
        clean_env.setenv("REPRO_TELEMETRY", "0")
        direct = TwoStepEngine(TwoStepConfig(segment_width=512))
        factory = create_engine(segment_width=512)
        assert direct.config == factory.config
        assert direct.options_provenance == factory.options_provenance
        assert direct.backend.name == "reference"
        assert direct.config.strict_validate is True
        assert direct.config.telemetry is False

    def test_environment_changes_after_construction_are_ignored(
        self, clean_env, small_graph
    ):
        engine = TwoStepEngine(TwoStepConfig(segment_width=512))
        pinned = engine.config
        clean_env.setenv("REPRO_TELEMETRY", "0")
        clean_env.setenv("REPRO_BACKEND", "reference")
        clean_env.setenv("REPRO_STRICT_VALIDATE", "1")
        x = np.ones(small_graph.n_cols)
        x[0] = np.inf  # only the strict tier rejects non-finite values
        result = engine.run(small_graph, x)
        assert engine.config == pinned
        assert result.telemetry is not None
        assert result.report.backend == DEFAULT_BACKEND


# ----------------------------------------------------------------------
# Removed parallel backend and its options
# ----------------------------------------------------------------------


class TestRemovedParallelBackend:
    """The ``parallel`` backend and its knobs are gone: naming them fails."""

    def test_backend_argument_is_rejected(self, clean_env):
        with pytest.raises(
            ConfigurationError, match="available: reference, vectorized"
        ):
            create_engine(backend="parallel")

    def test_backend_env_var_is_rejected(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "parallel")
        with pytest.raises(
            ConfigurationError, match="available: reference, vectorized"
        ):
            create_engine()

    def test_cli_backend_flag_is_an_argparse_error(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["run", "m.bin", "--backend", "parallel"])
        assert info.value.code == 2
        assert "invalid choice: 'parallel'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name",
        [
            "parallel_pool", "max_retries", "task_timeout", "min_parallel_nnz",
            "tuning", "dpage_bytes", "index_field_bytes",
        ],
    )
    def test_removed_fields_are_unknown(self, name):
        with pytest.raises(TypeError, match=name):
            TwoStepConfig(**{name: 1})
        with pytest.raises(ConfigurationError, match="unknown engine option"):
            create_engine(**{name: 1})


# ----------------------------------------------------------------------
# Removed native backend and its n_jobs knob
# ----------------------------------------------------------------------


class TestRemovedNativeBackend:
    """The ``native`` backend and ``n_jobs`` are gone: naming them fails."""

    def test_backend_argument_is_rejected(self, clean_env):
        assert available_backends() == ("reference", "vectorized")
        for build in (
            lambda: create_engine(backend="native"),
            lambda: TwoStepConfig(backend="native"),
        ):
            with pytest.raises(
                ConfigurationError, match="available: reference, vectorized"
            ):
                build()

    def test_backend_env_var_is_rejected(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "native")
        with pytest.raises(
            ConfigurationError, match="available: reference, vectorized"
        ):
            create_engine()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--backend", "native"], "invalid choice: 'native'"),
            (["--jobs", "2"], "unrecognized arguments: --jobs 2"),
        ],
        ids=["backend", "jobs"],
    )
    def test_cli_flags_are_argparse_errors(self, capsys, flags, message):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["run", "m.bin", *flags])
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_n_jobs_field_is_unknown(self):
        with pytest.raises(TypeError, match="n_jobs"):
            TwoStepConfig(n_jobs=2)
        with pytest.raises(ConfigurationError, match="unknown engine option"):
            create_engine(n_jobs=2)

    def test_env_vars_are_the_three_remaining(self):
        assert set(ENV_VARS) == {"backend", "strict_validate", "telemetry"}


# ----------------------------------------------------------------------
# Removed check_interleave: the engine no longer replays the store queue
# ----------------------------------------------------------------------


class TestRemovedCheckInterleave:
    """``check_interleave`` is gone from the engine: naming it fails, and
    a multi-stripe step 2 merges and scatters without per-class injection
    (the store-queue model stays in the plan-free ``prap_merge_dense``)."""

    def test_config_field_is_unknown(self):
        with pytest.raises(TypeError, match="check_interleave"):
            TwoStepConfig(check_interleave=True)

    def test_create_engine_rejects_it(self, clean_env):
        with pytest.raises(ConfigurationError, match="unknown engine option") as info:
            create_engine(check_interleave=True)
        valid = str(info.value).split("valid fields:", 1)[1]
        assert "check_interleave" not in valid
        assert "segment_width" in valid

    @pytest.mark.parametrize("op", ["run", "run_many_C", "run_many_F"])
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_multi_stripe_step2_never_injects(self, monkeypatch, small_graph, backend, op):
        engine = create_engine(backend=backend, segment_width=64, q=2, telemetry=True)
        calls = []
        cls = type(engine.backend)
        for name in ("inject_classes_plan", "inject_classes"):
            original = getattr(cls, name)

            def spy(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(cls, name, spy)
        X = np.random.default_rng(2).standard_normal((small_graph.n_cols, 3))
        for _ in range(2):  # cold and warm plan
            if op == "run":
                result = engine.run(small_graph, X[:, 0])
            else:
                order = op[-1]
                result = engine.run_many(small_graph, np.array(X, order=order))
            names = set(result.telemetry.span_names())
            assert result.report.n_stripes > 1
            assert "step2.merge" in names
            assert not any(name.startswith("inject") for name in names)
        assert calls == []


# ----------------------------------------------------------------------
# Removed step-engine knobs: config.backend is the one backend selector
# ----------------------------------------------------------------------


class TestRemovedStepEngineKnobs:
    """``Step1Engine``, ``Step2Engine`` and ``TwoStepEngine``'s
    ``backend`` parameter are gone; the configured backend is the one
    that runs."""

    @pytest.mark.parametrize(
        "build",
        [lambda: TwoStepEngine(TwoStepConfig(), backend="reference")],
        ids=["TwoStepEngine-backend"],
    )
    def test_parameter_is_typeerror(self, clean_env, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize("name", ["Step1Engine", "IntermediateVector"])
    def test_step1_engine_is_gone(self, name):
        """No plan-free step-1 executor: structure comes from the stripes
        (``step1.sample_intermediate_deltas``, ``step1.account_stripe``)."""
        import repro.core
        import repro.core.step1

        assert not hasattr(repro.core, name)
        assert name not in repro.core.__all__
        assert not hasattr(repro.core.step1, name)

    def test_step2_engine_is_gone(self):
        import repro.core
        import repro.core.step2

        assert not hasattr(repro.core, "Step2Engine")
        assert "Step2Engine" not in repro.core.__all__
        assert not hasattr(repro.core.step2, "Step2Engine")

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_configured_backend_is_the_running_one(self, clean_env, small_graph, backend):
        config = TwoStepConfig(segment_width=256, backend=backend)
        x = np.ones(small_graph.n_cols)
        engines = {
            "create_engine": create_engine(config),
            "TwoStepEngine": TwoStepEngine(config),
            "registry": SpMVServer(config=config).registry.engine(),
        }
        for name, engine in engines.items():
            assert engine.config.backend == engine.backend.name == backend, name
        accelerator = Accelerator(
            TS_ASIC, simulation_segment_width=256, config=config
        )
        assert accelerator.config.backend == backend
        assert accelerator.run(small_graph, x).report.backend == backend


# ----------------------------------------------------------------------
# Deprecation shims
# ----------------------------------------------------------------------


class TestDeprecationShims:
    """The deprecated keywords are gone: passing them fails loudly."""

    def test_accelerator_legacy_kwargs_are_typeerror(self):
        for name, value in (("backend", "reference"), ("n_jobs", 2),
                            ("telemetry", False), ("max_retries", 1),
                            ("options", None)):
            with pytest.raises(TypeError, match=name):
                Accelerator(TS_ASIC, simulation_segment_width=1024,
                            **{name: value})

    @pytest.mark.parametrize(
        "config",
        ["reference", {"backend": "reference"}],
        ids=["str", "dict"],
    )
    def test_accelerator_config_must_be_a_config(self, config):
        # The third positional argument is ``config``, never a backend.
        with pytest.raises(ConfigurationError) as info:
            Accelerator(TS_ASIC, 1024, config)
        message = str(info.value)
        assert "must be a TwoStepConfig" in message
        assert type(config).__name__ in message
        assert "unknown backend" not in message

    def test_accelerator_unknown_kwarg_is_typeerror(self):
        with pytest.raises(TypeError):
            Accelerator(TS_ASIC, bakend="reference")

    def test_accelerator_config_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            accelerator = Accelerator(TS_ASIC, simulation_segment_width=1024,
                                      config=TwoStepConfig(backend="reference"))
        assert accelerator.config.backend == "reference"
        assert accelerator.config.segment_width == 1024

    def test_pagerank_legacy_backend_kwarg_is_typeerror(self, small_graph):
        from repro.apps import conjugate_gradient, pagerank

        config = TwoStepConfig(segment_width=256)
        with pytest.raises(TypeError, match="backend"):
            pagerank(small_graph, config, max_iterations=2, backend="reference")
        with pytest.raises(TypeError, match="n_jobs"):
            pagerank(small_graph, config, max_iterations=2, n_jobs=2)
        b = np.ones(small_graph.n_rows)
        with pytest.raises(TypeError, match="backend"):
            conjugate_gradient(small_graph, b, config=config, backend="reference")
