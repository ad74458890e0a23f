"""The per-matrix tuning study: timed trials, oracle checks, pruning.

:class:`TuningStudy` sweeps a :class:`~repro.autotune.space.SearchSpace`
over one matrix in AblationStudy style -- components are declared, each
candidate runs as a timed :class:`Trial` against the warm plan-replay
path, and the study adopts a candidate only when it beats the incumbent
by the ``min_gain`` margin.  Three disciplines keep the sweep honest and
cheap:

* **bit-identity every trial** -- each trial's result is compared
  ``np.array_equal`` against the reference-backend oracle *at the same
  structural configuration* (stripe width / merge radix / VLDI / HDN
  change the accumulation order legitimately, so a single dense
  reference would reject valid configs).  Oracle vectors are cached per
  structural key; a trial that is not bit-identical is discarded no
  matter how fast it ran.
* **early pruning** -- a candidate whose *cold* run (plan build + first
  execution) already exceeds ``prune_ratio`` times the baseline's cold
  run (or the incumbent's warm time, whichever is larger -- cold times
  are dominated by plan build, so they are only comparable to other
  cold times) is dominated: warm repeats are skipped and the trial is
  marked pruned.
* **a trial budget** -- ``max_trials`` bounds the sweep on huge spaces;
  remaining candidates are recorded as skipped in the report rather than
  silently dropped.

The outcome is a :class:`StudyReport`: every trial, each component's
marginal contribution (warm time before / after adopting its winner),
and the winning :class:`~repro.autotune.profile.TuningProfile`
ready for a :class:`~repro.autotune.profile.TunedProfileStore`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import static_defaults
from repro.autotune.profile import TuningProfile, matrix_fingerprint
from repro.autotune.space import SearchSpace, default_search_space

#: Structural knobs: changing one changes the accumulation order, so the
#: oracle must be recomputed (reference backend, same structure).
STRUCTURAL_KNOBS = ("segment_width", "q", "vldi_vector_block_bits", "hdn_threshold")

def _baseline_defaults() -> dict:
    """Effective values of the static default configuration; a candidate
    equal to the current effective value is a no-op and is not measured."""
    defaults = static_defaults()
    return {name: defaults.get(name) for name in ("segment_width", "q", "backend")}


def knobs_to_config(knobs: dict, *, backend_override: str | None = None):
    """A telemetry-off :class:`~repro.core.config.TwoStepConfig` from a
    flat knob mapping (``max_batch`` is serving-side and ignored)."""
    from repro.core.config import TwoStepConfig

    kwargs = {**_baseline_defaults(), "telemetry": False}
    for name in ("segment_width", "q", "backend", "vldi_vector_block_bits"):
        if name in knobs and knobs[name] is not None:
            kwargs[name] = knobs[name]
    threshold = knobs.get("hdn_threshold")
    if threshold is not None:
        from repro.filters.hdn import HDNConfig

        kwargs["hdn"] = HDNConfig(degree_threshold=int(threshold))
    if backend_override is not None:
        kwargs["backend"] = backend_override
    return TwoStepConfig(**kwargs)


def structural_key(knobs: dict) -> tuple:
    """The accumulation-order-relevant slice of a knob mapping."""
    return tuple(knobs.get(name) for name in STRUCTURAL_KNOBS)


@dataclass
class Trial:
    """One measured candidate configuration."""

    component: str
    knob: str
    value: object
    cold_s: float = 0.0
    warm_s: float | None = None
    identical: bool | None = None
    pruned: bool = False
    adopted: bool = False
    skipped: bool = False
    error: str = ""

    def describe(self) -> dict:
        """JSON-native row for reports."""
        return {
            "component": self.component,
            "knob": self.knob,
            "value": self.value,
            "cold_s": self.cold_s,
            "warm_s": self.warm_s,
            "identical": self.identical,
            "pruned": self.pruned,
            "adopted": self.adopted,
            "skipped": self.skipped,
            "error": self.error,
        }


@dataclass
class StudyReport:
    """Everything one tuning study measured and decided."""

    fingerprint: str
    n_rows: int
    n_cols: int
    nnz: int
    baseline_s: float
    tuned_s: float
    objective: str = "throughput"
    probe_batch: int = 32
    trials: list = field(default_factory=list)
    contributions: dict = field(default_factory=dict)
    profile: TuningProfile | None = None
    batch_per_column_s: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Warm static-default time over warm tuned time (per RHS)."""
        return self.baseline_s / self.tuned_s if self.tuned_s else 1.0

    def to_dict(self) -> dict:
        """JSON-native form."""
        return {
            "fingerprint": self.fingerprint,
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "nnz": self.nnz,
            "objective": self.objective,
            "probe_batch": self.probe_batch,
            "baseline_s": self.baseline_s,
            "tuned_s": self.tuned_s,
            "speedup": self.speedup,
            "contributions": dict(self.contributions),
            "trials": [t.describe() for t in self.trials],
            "profile": self.profile.to_dict() if self.profile else None,
            "batch_per_column_s": {
                str(k): v for k, v in self.batch_per_column_s.items()
            },
        }

    def render(self) -> str:
        """The comparative ablation report, as an aligned text table."""
        from repro.analysis.reporting import format_table

        rows = []
        for trial in self.trials:
            status = "adopted" if trial.adopted else (
                "pruned" if trial.pruned else (
                    "skipped" if trial.skipped else (
                        "MISMATCH" if trial.identical is False else "-")))
            rows.append([
                trial.component,
                "default" if trial.value is None else trial.value,
                trial.warm_s if trial.warm_s is not None else "",
                trial.cold_s,
                status,
            ])
        table = format_table(
            ["component", "candidate", "warm s", "cold s", "status"],
            rows,
            title=f"Tuning study for {self.fingerprint} "
                  f"({self.n_rows}x{self.n_cols}, nnz={self.nnz})",
        )
        contrib_rows = [
            [name, f"{ratio:.2f}x"]
            for name, ratio in self.contributions.items()
        ]
        contrib = format_table(
            ["component", "marginal contribution"],
            contrib_rows,
            title="Per-component marginal contribution (warm before/after)",
        )
        return (
            f"{table}\n\n{contrib}\n\n"
            f"baseline {self.baseline_s * 1e3:.3f} ms -> tuned "
            f"{self.tuned_s * 1e3:.3f} ms ({self.speedup:.2f}x), "
            "all kept trials bit-identical to the reference oracle"
        )


class TuningStudy:
    """Greedy coordinate-descent sweep over one matrix.

    Args:
        matrix: The RM-COO input to tune for.
        space: Search space; default :func:`default_search_space` shaped
            to the matrix.
        objective: ``"throughput"`` (default) times warm per-column
            ``run_many`` at ``probe_batch`` right-hand sides -- the
            serving layer's hot path; ``"latency"`` times warm
            single-RHS ``run``.  Bit-identity is checked either way
            (column 0 of the probe block is the oracle vector).
        probe_batch: Batch width of the throughput probe; defaults to
            the serving layer's default ``max_batch`` so the baseline is
            exactly what an untuned server executes.
        repeats: Warm timed runs per trial (best-of).
        max_trials: Trial budget; candidates beyond it are recorded as
            skipped.
        prune_ratio: A candidate whose cold run exceeds this multiple of
            the baseline's cold run is pruned without warm repeats.
        min_gain: Multiplicative margin a candidate must clear to be
            adopted (guards against timer noise flapping the winner).
        seed: RNG seed for the probe right-hand sides.
    """

    def __init__(
        self,
        matrix,
        space: SearchSpace | None = None,
        objective: str = "throughput",
        probe_batch: int = 32,
        repeats: int = 3,
        max_trials: int = 64,
        prune_ratio: float = 8.0,
        min_gain: float = 1.03,
        seed: int = 0,
    ):
        if objective not in ("throughput", "latency"):
            from repro.autotune.profile import _profile_error

            raise _profile_error(
                f'objective must be "throughput" or "latency", got {objective!r}'
            )
        self.matrix = matrix
        self.space = space if space is not None else default_search_space(matrix)
        self.objective = objective
        self.probe_batch = max(int(probe_batch), 1)
        self.repeats = max(int(repeats), 1)
        self.max_trials = max(int(max_trials), 1)
        self.prune_ratio = float(prune_ratio)
        self.min_gain = float(min_gain)
        rng = np.random.default_rng(seed)
        self.x = rng.standard_normal(matrix.n_cols)
        if objective == "throughput":
            self.X = rng.standard_normal((matrix.n_cols, self.probe_batch))
            self.X[:, 0] = self.x  # column 0 is oracle-checkable
        else:
            self.X = None
        self._oracles: dict[tuple, np.ndarray] = {}
        self._trials_run = 0

    # -- measurement ------------------------------------------------------

    def _engine(self, knobs: dict):
        from repro.core.twostep import TwoStepEngine

        return TwoStepEngine(knobs_to_config(knobs))

    def _oracle(self, knobs: dict) -> np.ndarray:
        """Reference-backend result at this structural configuration."""
        key = structural_key(knobs)
        if key not in self._oracles:
            from repro.core.twostep import TwoStepEngine

            engine = TwoStepEngine(
                knobs_to_config(knobs, backend_override="reference")
            )
            self._oracles[key] = engine.run(self.matrix, self.x).y
        return self._oracles[key]

    def _measure(self, knobs: dict, prune_floor: float | None):
        """``(y, cold_s, warm_s, pruned)`` for one candidate config.

        ``y`` is the oracle-comparable vector (the single-RHS result, or
        column 0 of the probe block); times are per right-hand side so
        the two objectives prune and compare in the same units.
        """
        engine = self._engine(knobs)
        if self.objective == "throughput":
            k = self.probe_batch

            def once():
                return engine.run_many(self.matrix, self.X).y[:, 0]
        else:
            k = 1

            def once():
                return engine.run(self.matrix, self.x).y

        t0 = time.perf_counter()
        y = once()
        cold_s = (time.perf_counter() - t0) / k
        if prune_floor is not None and cold_s > self.prune_ratio * prune_floor:
            return y, cold_s, None, True
        warm_s = float("inf")
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            y = once()
            warm_s = min(warm_s, (time.perf_counter() - t0) / k)
        return y, cold_s, warm_s, False

    def _measure_batch(self, knobs: dict, k: int):
        """Warm per-column seconds of ``run_many`` at batch width ``k``."""
        engine = self._engine(knobs)
        rng = np.random.default_rng(1)
        X = rng.standard_normal((self.matrix.n_cols, k))
        X[:, 0] = self.x  # column 0 is oracle-checkable
        Y = engine.run_many(self.matrix, X).y  # cold: builds the plan
        best = float("inf")
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            Y = engine.run_many(self.matrix, X).y
            best = min(best, time.perf_counter() - t0)
        identical = bool(np.array_equal(Y[:, 0], self._oracle(knobs)))
        return best / k, identical

    # -- the sweep --------------------------------------------------------

    def run(self) -> StudyReport:
        """Execute the sweep and return the full report."""
        fingerprint = matrix_fingerprint(self.matrix)
        report = StudyReport(
            fingerprint=fingerprint,
            n_rows=self.matrix.n_rows,
            n_cols=self.matrix.n_cols,
            nnz=self.matrix.nnz,
            baseline_s=0.0,
            tuned_s=0.0,
            objective=self.objective,
            probe_batch=self.probe_batch,
        )
        knobs: dict = {}
        baseline = _baseline_defaults()
        if baseline["segment_width"] is None:
            # The default plan is one stripe spanning every column.
            baseline["segment_width"] = self.matrix.n_cols
        _y, baseline_cold, baseline_warm, _ = self._measure(knobs, None)
        if not np.array_equal(_y, self._oracle(knobs)):
            raise AssertionError(
                "static default configuration failed the oracle check"
            )
        report.baseline_s = baseline_warm
        current_warm = baseline_warm

        for component in self.space:
            if component.serving:
                continue
            warm_before = current_warm
            best_value, best_warm = None, None
            effective = knobs.get(component.knob, baseline.get(component.knob))
            for value in component.candidates:
                if value == effective or (value is None and effective is None):
                    continue
                trial = Trial(component.name, component.knob, value)
                report.trials.append(trial)
                if self._trials_run >= self.max_trials:
                    trial.skipped = True
                    continue
                self._trials_run += 1
                candidate = dict(knobs)
                if value is None:
                    candidate.pop(component.knob, None)
                else:
                    candidate[component.knob] = value
                try:
                    y, cold_s, warm_s, pruned = self._measure(
                        candidate, max(current_warm, baseline_cold)
                    )
                except Exception as exc:  # a candidate may be invalid here
                    trial.error = f"{type(exc).__name__}: {exc}"
                    continue
                trial.cold_s = cold_s
                trial.warm_s = warm_s
                trial.pruned = pruned
                trial.identical = bool(
                    np.array_equal(y, self._oracle(candidate))
                )
                if not trial.identical or pruned:
                    continue
                if best_warm is None or warm_s < best_warm:
                    best_value, best_warm = value, warm_s
            if best_warm is not None and best_warm * self.min_gain < current_warm:
                if best_value is None:
                    knobs.pop(component.knob, None)
                else:
                    knobs[component.knob] = best_value
                current_warm = best_warm
                for trial in report.trials:
                    if trial.knob == component.knob and trial.value == best_value:
                        trial.adopted = True
            report.contributions[component.name] = (
                warm_before / current_warm if current_warm else 1.0
            )

        report.tuned_s = current_warm

        for component in self.space:
            if not component.serving:
                continue
            best_value, best_per_col = None, None
            for value in component.candidates:
                trial = Trial(component.name, component.knob, value)
                report.trials.append(trial)
                if self._trials_run >= self.max_trials:
                    trial.skipped = True
                    continue
                self._trials_run += 1
                try:
                    per_col, identical = self._measure_batch(knobs, int(value))
                except Exception as exc:
                    trial.error = f"{type(exc).__name__}: {exc}"
                    continue
                trial.warm_s = per_col
                trial.identical = identical
                report.batch_per_column_s[int(value)] = per_col
                if not identical:
                    continue
                if best_per_col is None or per_col < best_per_col:
                    best_value, best_per_col = int(value), per_col
            if best_value is not None:
                knobs[component.knob] = best_value
                values = [
                    v for v in report.batch_per_column_s.values() if v
                ]
                report.contributions[component.name] = (
                    max(values) / best_per_col if best_per_col else 1.0
                )
                for trial in report.trials:
                    if trial.knob == component.knob and trial.value == best_value:
                        trial.adopted = True
                if (
                    self.objective == "throughput"
                    and best_per_col is not None
                    and best_per_col < report.tuned_s
                ):
                    # The serving workload runs at the adopted batch
                    # width; fold its per-column time into the headline.
                    report.tuned_s = best_per_col

        report.profile = TuningProfile(
            fingerprint=fingerprint,
            knobs=knobs,
            baseline_s=report.baseline_s,
            tuned_s=report.tuned_s,
            speedup=report.speedup,
            n_rows=self.matrix.n_rows,
            n_cols=self.matrix.n_cols,
            nnz=self.matrix.nnz,
            created_at=time.time(),
            source="study",
        )
        return report


def tune_matrix(matrix, store=None, **kwargs) -> StudyReport:
    """Run a study on ``matrix``; persist the profile when a store is given."""
    report = TuningStudy(matrix, **kwargs).run()
    if store is not None and report.profile is not None:
        store.save(report.profile)
    return report


__all__ = [
    "STRUCTURAL_KNOBS",
    "StudyReport",
    "Trial",
    "TuningStudy",
    "knobs_to_config",
    "structural_key",
    "tune_matrix",
]
