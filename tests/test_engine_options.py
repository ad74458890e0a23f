"""EngineOptions / create_engine: the single audited entry point.

Covers the precedence rule (explicit argument > environment variable >
package default), provenance reporting, the TwoStepConfig bridge, the
rejection of the removed legacy constructor keywords, and the pinning
of directly built engines through the same resolver.
"""

import warnings

import numpy as np
import pytest

from repro import create_engine, reference_spmv
from repro.api import ENV_VARS, EngineOptions, ensure_config
from repro.backends import DEFAULT_BACKEND, available_backends
from repro.core.accelerator import Accelerator
from repro.core.config import TwoStepConfig
from repro.core.design_points import TS_ASIC
from repro.core.twostep import TwoStepEngine
from repro.faults.errors import ConfigurationError
from repro.generators import erdos_renyi_graph


@pytest.fixture
def clean_env(monkeypatch):
    """Strip every REPRO_* variable so defaults are observable."""
    for var in ENV_VARS.values():
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


@pytest.fixture
def small_graph():
    return erdos_renyi_graph(n_nodes=600, avg_degree=4.0, seed=11)


# ----------------------------------------------------------------------
# Precedence: explicit > env > default
# ----------------------------------------------------------------------


class TestPrecedence:
    def test_default_when_nothing_set(self, clean_env):
        options = EngineOptions().resolve()
        assert options.backend == DEFAULT_BACKEND
        # Unset width: the engine derives one stripe from the matrix.
        assert options.segment_width is None
        assert options.telemetry is True
        assert options.strict_validate is False

    def test_env_beats_default(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "reference")
        clean_env.setenv("REPRO_STRICT_VALIDATE", "1")
        options = EngineOptions().resolve()
        assert options.backend == "reference"
        assert options.strict_validate is True

    def test_explicit_beats_env(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "reference")
        options = EngineOptions(backend="vectorized").resolve()
        assert options.backend == "vectorized"

    def test_resolution_pins_values(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "reference")
        options = EngineOptions().resolve()
        clean_env.setenv("REPRO_BACKEND", "vectorized")
        # Already-resolved options must not chase the environment.
        assert options.backend == "reference"
        assert options.resolve().backend == "reference"

    def test_boolean_env_parsing_matches_historical_resolvers(self, clean_env):
        # Default-on flag: only the falsy set (case- and space-insensitive)
        # turns it off.
        for falsy in ("0", "false", "No", " OFF ", ""):
            clean_env.setenv("REPRO_TELEMETRY", falsy)
            assert EngineOptions().resolve().telemetry is False, falsy
        clean_env.setenv("REPRO_TELEMETRY", "maybe")
        assert EngineOptions().resolve().telemetry is True
        # Default-off flag: requires an explicit truthy value.
        clean_env.setenv("REPRO_STRICT_VALIDATE", "yes")
        assert EngineOptions().resolve().strict_validate is True
        clean_env.setenv("REPRO_STRICT_VALIDATE", "maybe")
        assert EngineOptions().resolve().strict_validate is False

    def test_garbage_env_value_raises_configuration_error(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "many")
        with pytest.raises(ConfigurationError, match="unknown backend 'many'"):
            EngineOptions().to_config()

    def test_dynamic_defaults_stay_unset(self, clean_env):
        options = EngineOptions().resolve()
        # Stripe width / precision resolve downstream.
        assert options.segment_width is None
        assert options.precision is None


# ----------------------------------------------------------------------
# from_env / from_config / replace / provenance
# ----------------------------------------------------------------------


class TestConstruction:
    def test_from_env_reads_only_set_variables(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "reference")
        options = EngineOptions.from_env()
        assert options.backend == "reference"
        assert options.telemetry is None  # unset variable stays None

    def test_from_env_overrides_win(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "reference")
        options = EngineOptions.from_env(backend="vectorized")
        assert options.backend == "vectorized"

    def test_from_config_round_trip(self, clean_env):
        config = TwoStepConfig(segment_width=1024, q=3, backend="reference")
        options = EngineOptions.from_config(config)
        rebuilt = options.to_config()
        assert rebuilt.segment_width == 1024
        assert rebuilt.q == 3
        assert rebuilt.backend == "reference"

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="segmnt_width"):
            EngineOptions().replace(segmnt_width=512)

    def test_create_engine_rejects_unknown_overrides(self):
        with pytest.raises(ConfigurationError, match="unknown engine option"):
            create_engine(bakend="reference")

    def test_create_engine_rejects_non_options(self):
        with pytest.raises(ConfigurationError, match="EngineOptions"):
            create_engine(TwoStepConfig(segment_width=512))

    def test_provenance_sources(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "reference")
        options = EngineOptions(segment_width=2048)
        provenance = options.provenance()
        assert provenance["segment_width"] == (2048, "explicit")
        assert provenance["backend"] == ("reference", "env:REPRO_BACKEND")
        assert provenance["q"] == (4, "default")


# ----------------------------------------------------------------------
# create_engine
# ----------------------------------------------------------------------


class TestCreateEngine:
    def test_returns_twostep_engine_by_default(self, clean_env):
        engine = create_engine(segment_width=512)
        assert isinstance(engine, TwoStepEngine)
        assert engine.config.segment_width == 512
        assert engine.options.segment_width == 512
        assert engine.options_provenance["segment_width"] == (512, "explicit")

    def test_returns_accelerator_for_design_point(self, clean_env):
        engine = create_engine(design_point="TS_ASIC", segment_width=1024)
        assert isinstance(engine, Accelerator)
        assert engine.point is TS_ASIC
        assert engine.config.segment_width == 1024

    def test_design_point_object_accepted(self, clean_env):
        engine = create_engine(design_point=TS_ASIC, segment_width=1024)
        assert isinstance(engine, Accelerator)
        assert engine.point is TS_ASIC

    def test_env_backed_engine_runs_correctly(self, clean_env, small_graph):
        clean_env.setenv("REPRO_BACKEND", "reference")
        engine = create_engine(segment_width=256)
        x = np.random.default_rng(0).uniform(size=small_graph.n_cols)
        y, _ = engine.run(small_graph, x)
        np.testing.assert_allclose(y, reference_spmv(small_graph, x))
        assert engine.options.backend == "reference"

    def test_ensure_config_accepts_both_surfaces(self, clean_env):
        config = TwoStepConfig(segment_width=512)
        assert ensure_config(config) is config
        assert ensure_config(None) is None
        converted = ensure_config(EngineOptions(segment_width=512))
        assert isinstance(converted, TwoStepConfig)
        assert converted.segment_width == 512


class TestDirectEnginePinning:
    """``TwoStepEngine(config)`` resolves through the factory's resolver."""

    def test_direct_engine_matches_factory(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "reference")
        clean_env.setenv("REPRO_STRICT_VALIDATE", "1")
        clean_env.setenv("REPRO_TELEMETRY", "0")
        direct = TwoStepEngine(TwoStepConfig(segment_width=512))
        assert direct.config == create_engine(segment_width=512).config
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
        ["parallel_pool", "max_retries", "task_timeout", "min_parallel_nnz", "tuning"],
    )
    def test_removed_fields_are_unknown(self, name):
        with pytest.raises(TypeError, match=name):
            EngineOptions(**{name: 1})
        with pytest.raises(ConfigurationError, match="unknown engine option"):
            EngineOptions().replace(**{name: 1})


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
        for build in (EngineOptions, TwoStepConfig):
            with pytest.raises(TypeError, match="n_jobs"):
                build(n_jobs=2)
        with pytest.raises(ConfigurationError, match="unknown engine option"):
            create_engine(n_jobs=2)

    def test_env_vars_are_the_three_remaining(self):
        assert set(ENV_VARS) == {"backend", "strict_validate", "telemetry"}

    def test_degradation_ladder_has_no_native_rung(self):
        from repro.serving.resilience import degradation_ladder

        assert degradation_ladder("vectorized") == ("vectorized", "reference")
        # An unknown tier fails closed: it never re-routes to another one.
        assert degradation_ladder("native") == ("native",)


# ----------------------------------------------------------------------
# Deprecation shims
# ----------------------------------------------------------------------


class TestDeprecationShims:
    """The deprecated keywords are gone: passing them fails loudly."""

    def test_accelerator_legacy_kwargs_are_typeerror(self):
        for name, value in (("backend", "reference"), ("n_jobs", 2),
                            ("telemetry", False), ("max_retries", 1)):
            with pytest.raises(TypeError, match=name):
                Accelerator(TS_ASIC, simulation_segment_width=1024,
                            **{name: value})

    @pytest.mark.parametrize(
        "options",
        ["reference", TwoStepConfig(segment_width=64), {"backend": "reference"}],
        ids=["str", "TwoStepConfig", "dict"],
    )
    def test_accelerator_options_must_be_engine_options(self, options):
        # The third positional argument is ``options``, never a backend.
        with pytest.raises(ConfigurationError) as info:
            Accelerator(TS_ASIC, 1024, options)
        message = str(info.value)
        assert "must be an EngineOptions" in message
        assert type(options).__name__ in message
        assert "unknown backend" not in message

    def test_accelerator_unknown_kwarg_is_typeerror(self):
        with pytest.raises(TypeError):
            Accelerator(TS_ASIC, bakend="reference")

    def test_accelerator_options_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Accelerator(TS_ASIC, simulation_segment_width=1024,
                        options=EngineOptions(backend="reference"))

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

    def test_pagerank_accepts_engine_options(self, small_graph):
        from repro.apps import pagerank

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = pagerank(
                small_graph,
                EngineOptions(segment_width=256, backend="reference"),
                max_iterations=2,
            )
        assert np.isfinite(result.ranks).all()
