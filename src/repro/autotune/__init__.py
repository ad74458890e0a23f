"""Offline per-matrix tuning studies and their persisted profiles.

The paper's speedups come from matching the configuration to the input
(VLDI width per stripe geometry, HDN threshold per degree tail, stripe
width per scratchpad -- Fig. 13, section 5.3).  This package measures
that matching for one matrix and keeps the outcome:

* :mod:`repro.autotune.space` -- a declarative :class:`SearchSpace` of
  :class:`Component`\\ s over every knob the engine and serving layer
  expose.
* :mod:`repro.autotune.study` -- :class:`TuningStudy`, the timed sweep
  (bit-identity against the reference oracle every trial, early pruning
  of dominated configs) producing a :class:`StudyReport` with
  per-component marginal contributions.
* :mod:`repro.autotune.profile` -- :class:`TuningProfile` and the
  :class:`TunedProfileStore` persisting winners keyed by matrix content
  fingerprint, with the snapshot store's atomic-write / CRC /
  quarantine discipline.

The package is opt-in and offline: no engine, registry or server
consults a store.  A caller applies a profile explicitly::

    profile = store.lookup(matrix_fingerprint(matrix))
    engine = TwoStepEngine(profile.apply(config) if profile else config)
"""

from repro.autotune.profile import (
    KNOB_FIELDS,
    TunedProfileStore,
    TuningProfile,
    matrix_fingerprint,
    resolve_profile_store,
)
from repro.autotune.space import Component, SearchSpace, default_search_space
from repro.autotune.study import (
    STRUCTURAL_KNOBS,
    StudyReport,
    Trial,
    TuningStudy,
    knobs_to_config,
    structural_key,
    tune_matrix,
)

__all__ = [
    "KNOB_FIELDS",
    "STRUCTURAL_KNOBS",
    "Component",
    "SearchSpace",
    "StudyReport",
    "Trial",
    "TunedProfileStore",
    "TuningProfile",
    "TuningStudy",
    "default_search_space",
    "knobs_to_config",
    "matrix_fingerprint",
    "resolve_profile_store",
    "structural_key",
    "tune_matrix",
]
