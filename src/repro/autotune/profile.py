"""Tuned configuration profiles, persisted per matrix fingerprint.

A :class:`TuningProfile` is the durable outcome of one tuning study: the
winning knob values for one matrix, keyed by the same SHA-256 content
fingerprint the serving registry uses, plus the measured baseline/tuned
times that justify it.  Nothing in the engine or the serving layer reads
a profile on its own: a caller that wants one looks it up and builds its
engine from :meth:`TuningProfile.apply`.  Profiles live in a :class:`TunedProfileStore`
directory as one JSON file per fingerprint, written with the snapshot
store's crash-safety discipline:

* **atomic writes** -- temp file + flush + fsync + rename, then fsync the
  directory, so a crash mid-save leaves either the old profile or the
  new one, never a torn file;
* **CRC-32 payloads** -- the profile body is checksummed inside the file
  and verified at load;
* **quarantine on corruption** -- a profile that fails to parse, fails
  its CRC, carries a knob or backend this release does not know, or
  names a different fingerprint than its filename is moved to
  ``quarantine/`` with a warning and the lookup reports a miss;
  corruption is detected, never propagated into an engine configuration.

The knob schema is deliberately flat and JSON-native (:data:`KNOB_FIELDS`):
``hdn`` is stored as ``hdn_threshold`` (an int or None) rather than the
:class:`~repro.filters.hdn.HDNConfig` object, and ``max_batch`` carries
the serving-side micro-batch hint that has no ``TwoStepConfig`` home.
:meth:`TuningProfile.apply` maps the knobs back onto a config.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
import warnings
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.serving.registry import matrix_fingerprint

PROFILE_VERSION = 1

#: The tunable knobs a profile may carry.  ``backend`` ..
#: ``vldi_vector_block_bits`` map 1:1 onto
#: :class:`~repro.core.config.TwoStepConfig` fields (``hdn_threshold``
#: expands to an :class:`~repro.filters.hdn.HDNConfig`); ``max_batch``
#: is the serving layer's micro-batch hint.
KNOB_FIELDS = (
    "backend",
    "q",
    "segment_width",
    "vldi_vector_block_bits",
    "hdn_threshold",
    "max_batch",
)

#: Knobs applied onto ``TwoStepConfig`` directly (same field name).
_CONFIG_KNOBS = (
    "backend",
    "q",
    "segment_width",
    "vldi_vector_block_bits",
)


def _profile_error(message: str):
    from repro.faults.errors import ConfigurationError

    return ConfigurationError(message)


def _check_knobs(knobs: dict) -> dict:
    """Validate a knob mapping: known keys, JSON-native finite values,
    and a ``backend`` the registry knows."""
    if not isinstance(knobs, dict):
        raise _profile_error(f"profile knobs must be a mapping, got {type(knobs).__name__}")
    unknown = sorted(set(knobs) - set(KNOB_FIELDS))
    if unknown:
        raise _profile_error(
            f"unknown tuning knob(s): {', '.join(unknown)}; "
            f"valid knobs: {', '.join(KNOB_FIELDS)}"
        )
    clean = {}
    for name in KNOB_FIELDS:
        if name not in knobs:
            continue
        value = knobs[name]
        if isinstance(value, (np.integer,)):
            value = int(value)
        if isinstance(value, (np.floating,)):
            value = float(value)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise _profile_error(f"knob {name!r} is not finite: {value!r}")
            if value == int(value):
                value = int(value)
        if value is not None and not isinstance(value, (bool, int, str)):
            raise _profile_error(
                f"knob {name!r} must be JSON-native (bool/int/str/None), "
                f"got {type(value).__name__}"
            )
        if name == "backend" and value is not None:
            from repro.backends import available_backends

            if value not in available_backends():
                raise _profile_error(
                    f"unknown backend {value!r} in tuning knobs; "
                    f"available: {', '.join(available_backends())}"
                )
        clean[name] = value
    return clean


@dataclass(frozen=True)
class TuningProfile:
    """The persisted outcome of one per-matrix tuning study.

    Attributes:
        fingerprint: Matrix content fingerprint (:func:`matrix_fingerprint`).
        knobs: Flat JSON-native knob values (keys from :data:`KNOB_FIELDS`).
        baseline_s: Warm static-default seconds the study measured.
        tuned_s: Warm tuned seconds the study measured.
        speedup: ``baseline_s / tuned_s`` at study time.
        n_rows / n_cols / nnz: Shape facts for human auditing.
        created_at: Unix timestamp of the study.
        source: Free-form provenance tag (``"study"``, ``"manual"`` ...).
    """

    fingerprint: str
    knobs: dict = field(default_factory=dict)
    baseline_s: float | None = None
    tuned_s: float | None = None
    speedup: float | None = None
    n_rows: int = 0
    n_cols: int = 0
    nnz: int = 0
    created_at: float = 0.0
    source: str = "study"

    def __post_init__(self) -> None:
        if not isinstance(self.fingerprint, str) or not self.fingerprint:
            raise _profile_error("profile fingerprint must be a non-empty string")
        object.__setattr__(self, "knobs", _check_knobs(self.knobs))
        for name in ("baseline_s", "tuned_s", "speedup"):
            value = getattr(self, name)
            if value is not None and (
                not isinstance(value, (int, float)) or not math.isfinite(value)
            ):
                raise _profile_error(f"profile {name} must be finite or None")

    def to_dict(self) -> dict:
        """JSON-native form; round-trips exactly through :meth:`from_dict`."""
        return {
            "version": PROFILE_VERSION,
            "fingerprint": self.fingerprint,
            "knobs": dict(self.knobs),
            "baseline_s": self.baseline_s,
            "tuned_s": self.tuned_s,
            "speedup": self.speedup,
            "n_rows": int(self.n_rows),
            "n_cols": int(self.n_cols),
            "nnz": int(self.nnz),
            "created_at": float(self.created_at),
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TuningProfile":
        """Rebuild a profile; raises ``ConfigurationError`` on bad shape."""
        if not isinstance(payload, dict):
            raise _profile_error("profile payload must be a JSON object")
        version = payload.get("version", PROFILE_VERSION)
        if version != PROFILE_VERSION:
            raise _profile_error(f"unsupported profile version {version!r}")
        return cls(
            fingerprint=payload.get("fingerprint", ""),
            knobs=payload.get("knobs", {}),
            baseline_s=payload.get("baseline_s"),
            tuned_s=payload.get("tuned_s"),
            speedup=payload.get("speedup"),
            n_rows=int(payload.get("n_rows", 0)),
            n_cols=int(payload.get("n_cols", 0)),
            nnz=int(payload.get("nnz", 0)),
            created_at=float(payload.get("created_at", 0.0)),
            source=str(payload.get("source", "study")),
        )

    def apply(self, config):
        """The config with this profile's knobs written over it.

        ``hdn_threshold`` expands to an
        :class:`~repro.filters.hdn.HDNConfig` (None disables the HDN
        pipeline); ``max_batch`` is serving-side and ignored here.
        """
        updates = {
            name: self.knobs[name] for name in _CONFIG_KNOBS if name in self.knobs
        }
        if "hdn_threshold" in self.knobs:
            threshold = self.knobs["hdn_threshold"]
            if threshold is None:
                updates["hdn"] = None
            else:
                from repro.filters.hdn import HDNConfig

                updates["hdn"] = HDNConfig(degree_threshold=int(threshold))
        return replace(config, **updates)

    @property
    def max_batch(self) -> int | None:
        """The serving micro-batch hint, when the study chose one."""
        value = self.knobs.get("max_batch")
        return int(value) if value is not None else None

    def describe(self) -> dict:
        """Short JSON-native summary of the profile."""
        return {
            "fingerprint": self.fingerprint,
            "speedup": self.speedup,
            "knobs": dict(self.knobs),
            "source": self.source,
        }


def _atomic_write(path: Path, data: bytes) -> None:
    """temp-file + flush + fsync + rename, then fsync the directory."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _canonical_bytes(profile_dict: dict) -> bytes:
    """Canonical JSON bytes of the profile body (what the CRC covers)."""
    return json.dumps(
        profile_dict, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode()


class TunedProfileStore:
    """A directory of fingerprint-keyed :class:`TuningProfile` files.

    Layout::

        <directory>/<fingerprint>.json   # {"version", "profile", "crc32"}
        <directory>/quarantine/<name>.<ms>   # files that failed verification

    Thread-safe: one store may be shared by several threads.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.quarantine_dir = self.directory / "quarantine"
        self._lock = threading.Lock()
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.saves = 0
        self.quarantined = 0

    def path_for(self, fingerprint: str) -> Path:
        """The profile file path for one fingerprint."""
        safe = "".join(c for c in fingerprint if c.isalnum() or c in "-_")
        if not safe:
            raise _profile_error(f"unusable profile fingerprint {fingerprint!r}")
        return self.directory / f"{safe}.json"

    def save(self, profile: TuningProfile) -> Path:
        """Persist one profile atomically; returns the written path."""
        body = profile.to_dict()
        payload = {
            "version": PROFILE_VERSION,
            "profile": body,
            "crc32": zlib.crc32(_canonical_bytes(body)) & 0xFFFFFFFF,
        }
        data = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False).encode()
        with self._lock:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.path_for(profile.fingerprint)
            _atomic_write(path, data)
            self.saves += 1
        return path

    def lookup(self, fingerprint: str) -> TuningProfile | None:
        """The stored profile for ``fingerprint``, or None.

        A missing file is a plain miss; a file that fails verification
        (JSON decode, CRC, schema, fingerprint-vs-filename) is moved to
        ``quarantine/`` with a warning and also reported as a miss.
        """
        path = self.path_for(fingerprint)
        with self._lock:
            self.lookups += 1
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                self.misses += 1
                return None
            try:
                profile = self._verify(data, fingerprint)
            except Exception as exc:
                self._quarantine(path, exc)
                self.misses += 1
                return None
            self.hits += 1
            return profile

    def _verify(self, data: bytes, fingerprint: str) -> TuningProfile:
        payload = json.loads(data)
        if not isinstance(payload, dict):
            raise _profile_error("profile file is not a JSON object")
        body = payload.get("profile")
        expected_crc = int(payload.get("crc32", -1))
        actual_crc = zlib.crc32(_canonical_bytes(body)) & 0xFFFFFFFF
        if actual_crc != expected_crc:
            raise _profile_error(
                f"profile CRC mismatch: file {expected_crc:#010x}, "
                f"content {actual_crc:#010x}"
            )
        profile = TuningProfile.from_dict(body)
        if profile.fingerprint != fingerprint:
            raise _profile_error(
                f"profile names fingerprint {profile.fingerprint!r}, "
                f"file is keyed {fingerprint!r}"
            )
        return profile

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """Move a corrupted profile aside (lock held)."""
        self.quarantined += 1
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / f"{path.name}.{int(time.time() * 1e3)}"
        try:
            os.replace(path, target)
        except OSError:
            pass
        warnings.warn(
            f"quarantined corrupted tuning profile {path.name!r}: "
            f"{type(exc).__name__}: {exc}",
            RuntimeWarning,
            stacklevel=3,
        )

    def fingerprints(self) -> tuple:
        """Fingerprints with a stored profile, sorted."""
        if not self.directory.is_dir():
            return ()
        return tuple(
            sorted(p.stem for p in self.directory.glob("*.json"))
        )

    def describe(self) -> dict:
        """JSON-native summary of the store's contents and counters."""
        return {
            "directory": str(self.directory),
            "profiles": len(self.fingerprints()),
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "saves": self.saves,
            "quarantined": self.quarantined,
        }


#: Process-wide store instances, shared per resolved directory so every
#: caller naming the same directory sees the same counters.
_STORES: dict[str, TunedProfileStore] = {}
_STORES_LOCK = threading.Lock()


def resolve_profile_store(directory) -> TunedProfileStore | None:
    """The shared store for ``directory``.

    ``None``/``"off"`` -> no store; any other path -> that directory.
    Instances are cached per resolved path, so every caller naming the
    same directory shares one counter surface.
    """
    if directory is None or directory == "off":
        return None
    directory = Path(directory)
    key = str(directory.expanduser().resolve())
    with _STORES_LOCK:
        store = _STORES.get(key)
        if store is None:
            store = TunedProfileStore(directory)
            _STORES[key] = store
        return store


__all__ = [
    "KNOB_FIELDS",
    "PROFILE_VERSION",
    "TunedProfileStore",
    "TuningProfile",
    "matrix_fingerprint",
    "resolve_profile_store",
]
