"""Crash-safe registry snapshots: atomic writes, CRC payloads, quarantine.

A snapshot is a *fingerprint manifest* plus one CRC-checked payload file
per registered matrix, in the SMASH style of checksummed index
structures: corruption is detected at load, never propagated.

Layout under ``state_dir``::

    registry/MANIFEST.json          # {"version", "entries": [...]}
    registry/<tenant>__<fp>.snap    # np.savez payload (rows/cols/vals/dims)
    quarantine/<name>.<n>           # entries that failed verification

Write protocol (crash-safe at every step):

1. Each payload is serialized to bytes, its CRC-32 computed, and the
   bytes written to ``<name>.tmp`` in the same directory, flushed and
   fsynced, then atomically renamed over the final name (``os.replace``).
2. The manifest -- listing every entry's file, CRC and fingerprint -- is
   written last with the same temp+fsync+rename protocol, so a crash
   mid-snapshot leaves the *previous* complete manifest in force and at
   worst some orphaned payload files (garbage-collected on the next
   successful save).

Restore protocol (quarantine, never crash):

Each manifest entry is read, CRC-verified against the manifest, decoded,
and its rebuilt matrix re-fingerprinted; the fingerprint must equal the
manifest's.  Any failure -- missing file, truncation, CRC mismatch,
decode error, fingerprint mismatch, injected ``registry.io`` fault --
moves the payload into ``quarantine/`` with a ``RuntimeWarning`` and a
``serving_snapshot_quarantined_total`` tick, and restoration continues
with the remaining entries.
"""

from __future__ import annotations

import io
import json
import os
import time
import warnings
import zlib
from pathlib import Path

import numpy as np

from repro.faults.errors import SnapshotCorruptError
from repro.faults.injection import apply_fault
from repro.telemetry.session import span

_MANIFEST = "MANIFEST.json"
_MANIFEST_VERSION = 1


def _safe_name(tenant: str, fingerprint: str) -> str:
    safe_tenant = "".join(c if c.isalnum() or c in "-_" else "_" for c in tenant)
    return f"{safe_tenant}__{fingerprint}.snap"


def _encode_matrix(matrix) -> bytes:
    """Serialize one matrix's streams to npz bytes (no pickling)."""
    buffer = io.BytesIO()
    np.savez(
        buffer,
        dims=np.array([matrix.n_rows, matrix.n_cols], dtype=np.int64),
        rows=np.ascontiguousarray(matrix.rows),
        cols=np.ascontiguousarray(matrix.cols),
        vals=np.ascontiguousarray(matrix.vals),
    )
    return buffer.getvalue()


def _decode_matrix(data: bytes):
    """Rebuild a COOMatrix from npz bytes.

    The streams were canonical (row-major sorted) when registered, so
    the direct constructor -- which validates but never re-sorts --
    reproduces the registered content byte for byte.
    """
    from repro.formats.coo import COOMatrix

    with np.load(io.BytesIO(data), allow_pickle=False) as payload:
        dims = payload["dims"]
        return COOMatrix(
            int(dims[0]), int(dims[1]),
            payload["rows"], payload["cols"], payload["vals"],
        )


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


class SnapshotStore:
    """Saves and restores a :class:`~repro.serving.registry.MatrixRegistry`.

    Args:
        state_dir: Root state directory (created on first use).
        metrics: Optional ``MetricsRegistry`` for save/restore/quarantine
            counters and duration histograms.
    """

    def __init__(self, state_dir, metrics=None):
        self.state_dir = Path(state_dir)
        self.registry_dir = self.state_dir / "registry"
        self.quarantine_dir = self.state_dir / "quarantine"
        self._metrics = metrics
        self.saves = 0
        self.save_failures = 0
        self.restored = 0
        self.quarantined = 0
        self.last_save_at: float | None = None

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------

    def save(self, registry) -> dict:
        """Write one complete snapshot; returns the manifest written.

        Raises on I/O failure (callers decide whether a failed periodic
        snapshot is fatal; the server counts it and keeps serving).
        """
        t0 = time.perf_counter()
        with span("serving.snapshot.save"):
            self.registry_dir.mkdir(parents=True, exist_ok=True)
            entries = []
            keep = {_MANIFEST}
            for index, (tenant, fingerprint, matrix) in enumerate(
                registry.snapshot_entries()
            ):
                apply_fault("registry.io", index)
                data = _encode_matrix(matrix)
                name = _safe_name(tenant, fingerprint)
                keep.add(name)
                _atomic_write(self.registry_dir / name, data)
                entries.append(
                    {
                        "tenant": tenant,
                        "fingerprint": fingerprint,
                        "file": name,
                        "crc32": zlib.crc32(data) & 0xFFFFFFFF,
                        "bytes": len(data),
                        "n_rows": int(matrix.n_rows),
                        "n_cols": int(matrix.n_cols),
                        "nnz": int(matrix.nnz),
                    }
                )
            manifest = {
                "version": _MANIFEST_VERSION,
                "saved_at": time.time(),
                "entries": entries,
            }
            _atomic_write(
                self.registry_dir / _MANIFEST,
                json.dumps(manifest, indent=1).encode(),
            )
            # Garbage-collect payloads dropped from the registry.  Only
            # after the manifest no longer references them, so a crash
            # between rename and unlink cannot orphan a referenced file.
            for stale in self.registry_dir.iterdir():
                if stale.name not in keep and stale.suffix != ".tmp":
                    stale.unlink(missing_ok=True)
        self.saves += 1
        self.last_save_at = time.time()
        if self._metrics is not None:
            self._metrics.inc(
                "serving_snapshot_saves_total", help="Registry snapshots written"
            )
            self._metrics.observe(
                "serving_snapshot_save_seconds",
                time.perf_counter() - t0,
                help="Snapshot save duration",
            )
        return manifest

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------

    def restore(self, registry) -> dict:
        """Restore every verifiable entry; quarantine the rest.

        Returns ``{"restored": [...], "quarantined": [...]}`` where each
        item names (tenant, fingerprint).  Never raises on corrupted or
        missing snapshot state: a damaged manifest means an empty
        restore, a damaged entry means one quarantined file.
        """
        t0 = time.perf_counter()
        restored, quarantined = [], []
        manifest_path = self.registry_dir / _MANIFEST
        with span("serving.snapshot.restore"):
            manifest = self._load_manifest(manifest_path)
            for index, entry in enumerate(manifest.get("entries", ())):
                tenant = str(entry.get("tenant", "default"))
                fingerprint = str(entry.get("fingerprint", ""))
                try:
                    apply_fault("registry.io", index)
                    matrix = self._verify_entry(entry)
                    registry.restore(matrix, tenant, expected_fingerprint=fingerprint)
                except Exception as exc:
                    self._quarantine(entry, exc)
                    quarantined.append((tenant, fingerprint))
                else:
                    restored.append((tenant, fingerprint))
        self.restored += len(restored)
        if self._metrics is not None:
            self._metrics.inc(
                "serving_snapshot_restored_total",
                amount=float(len(restored)),
                help="Registry entries restored from snapshot",
            )
            self._metrics.observe(
                "serving_snapshot_restore_seconds",
                time.perf_counter() - t0,
                help="Snapshot restore duration",
            )
        return {"restored": restored, "quarantined": quarantined}

    def _load_manifest(self, manifest_path: Path) -> dict:
        if not manifest_path.exists():
            return {}
        try:
            manifest = json.loads(manifest_path.read_bytes())
            if not isinstance(manifest, dict):
                raise SnapshotCorruptError("manifest is not a JSON object")
            return manifest
        except Exception as exc:
            self._quarantine({"file": _MANIFEST}, exc)
            return {}

    def _verify_entry(self, entry: dict):
        """CRC-check and decode one payload; verify its fingerprint."""
        from repro.serving.registry import matrix_fingerprint

        path = self.registry_dir / str(entry["file"])
        data = path.read_bytes()
        expected_crc = int(entry["crc32"])
        actual_crc = zlib.crc32(data) & 0xFFFFFFFF
        if actual_crc != expected_crc:
            raise SnapshotCorruptError(
                f"payload {entry['file']!r} CRC mismatch: "
                f"manifest {expected_crc:#010x}, file {actual_crc:#010x}"
            )
        matrix = _decode_matrix(data)
        fingerprint = matrix_fingerprint(matrix)
        if fingerprint != entry["fingerprint"]:
            raise SnapshotCorruptError(
                f"payload {entry['file']!r} fingerprint mismatch: "
                f"manifest {entry['fingerprint']!r}, content {fingerprint!r}"
            )
        return matrix

    def _quarantine(self, entry: dict, exc: Exception) -> None:
        """Move a failed entry aside, warn, and count it."""
        name = str(entry.get("file", "unknown"))
        detail = f"{type(exc).__name__}: {exc}"
        self.quarantined += 1
        source = self.registry_dir / name
        if source.exists():
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / f"{name}.{int(time.time() * 1e3)}"
            try:
                os.replace(source, target)
            except OSError:
                pass
        warnings.warn(
            f"quarantined snapshot entry {name!r}: {detail}",
            RuntimeWarning,
            stacklevel=2,
        )
        if self._metrics is not None:
            self._metrics.inc(
                "serving_snapshot_quarantined_total",
                help="Snapshot entries quarantined during restore",
            )

    def describe(self) -> dict:
        """JSON-native summary for ``/stats``."""
        return {
            "state_dir": str(self.state_dir),
            "saves": self.saves,
            "save_failures": self.save_failures,
            "restored": self.restored,
            "quarantined": self.quarantined,
            "last_save_at": self.last_save_at,
        }


__all__ = ["SnapshotStore"]
