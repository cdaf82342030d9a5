"""The service's versioned model registry.

The one on-disk copy of a fitted model: an append-only, schema-versioned
JSON history per (application, config-space size, estimator), so a
published model is never overwritten — a returning tenant reads the
newest version, an auditor can read every version that ever served
traffic.

On-disk layout::

    registry/
      latest/
        {app}--{n}--{estimator}.json  # hard link to the newest version
      models/
        {app}--{n}--{estimator}/
          v000001.json              # one immutable record per publish
          v000002.json

Version files are immutable once written: a publish assembles the record
in a temporary file and links it into place with ``os.link`` (atomic,
refuses to clobber), retrying on the next free version number when two
publishers race.  ``latest/`` holds a second name for the newest version
file, not a second copy, so a warm read opens one file however long the
history grows.

Each record (``schema_version`` 2) stores its two curves as the base64
text of their little-endian float64 bytes, so a warm read decodes two
strings and a publish encodes bytes instead of parsing or printing
thousands of floats, and every bit — negative zero, NaN payloads —
survives the round trip.  The record's CRC-32 covers the same bytes,
rates then powers.  Schema-1 records, written before the bytes
encoding, store the curves as JSON float lists and still load; the
decoder is chosen by the field's JSON type.  Readers skip records they
cannot interpret — corrupt JSON, missing fields, curves that are not
valid base64 or not whole float64s, a CRC mismatch, curves that do not
cover the record's configuration count, or a ``schema_version`` from the
future — and fall back to the newest *valid* version.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import json
import logging
import os
import pathlib
import re
import threading
import zlib
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.clock import get_clock
from repro.runtime.controller import TradeoffEstimate

PathLike = Union[str, pathlib.Path]

logger = logging.getLogger(__name__)

#: Schema stamped on every registry record; readers skip newer versions.
#: Schema 2 stores curves as base64 float64 bytes, schema 1 as lists.
REGISTRY_SCHEMA_VERSION = 2

#: The byte order records store curves in, whatever the host's.
_CURVE_DTYPE = np.dtype("<f8")

_VERSION_FILE = re.compile(r"^v(\d{6})\.json$")
_KEY_SANITIZER = re.compile(r"[^A-Za-z0-9._-]+")


def _slug(text: str) -> str:
    slug = _KEY_SANITIZER.sub("-", text).strip("-")
    if not slug:
        raise ValueError(f"cannot derive a storage key from {text!r}")
    return slug


def _curve_bytes(curve: np.ndarray) -> bytes:
    """A curve's little-endian float64 bytes, as records store them."""
    return np.ascontiguousarray(curve, dtype=_CURVE_DTYPE).tobytes()


def _curve_crc(rates: bytes, powers: bytes) -> int:
    """CRC-32 over both curves' bytes — the record integrity field."""
    return zlib.crc32(powers, zlib.crc32(rates))


def _decode_curve(field: Any) -> np.ndarray:
    """A record's curve as a writeable native float64 array.

    Schema 2 stores base64 text of the little-endian bytes; schema 1
    stored a JSON list of floats.  Raises ``ValueError`` on text that is
    not base64 or does not hold whole float64s.
    """
    if isinstance(field, str):
        raw = base64.b64decode(field, validate=True)
        if len(raw) % _CURVE_DTYPE.itemsize:
            raise ValueError(f"curve holds {len(raw)} bytes, not a whole "
                             f"number of float64s")
        return np.frombuffer(raw, dtype=_CURVE_DTYPE).astype(float)
    return np.asarray(field, dtype=float)


@dataclasses.dataclass(frozen=True)
class ModelRecord:
    """One immutable published model version.

    Attributes:
        app: Application name (unslugged, as published).
        estimator: Estimator name the curves came from.
        num_configs: Configuration-space size the curves cover.
        version: 1-based publish sequence number within the key.
        rates: Estimated heartbeat rates, shape ``(num_configs,)``.
        powers: Estimated system powers, shape ``(num_configs,)``.
        metadata: Free-form provenance (sampling cost, accuracy, ...).
        created_unix: Publish wall-clock time (seconds since epoch).
    """

    app: str
    estimator: str
    num_configs: int
    version: int
    rates: np.ndarray
    powers: np.ndarray
    metadata: Dict[str, Any]
    created_unix: float

    def to_estimate(self) -> TradeoffEstimate:
        """The record as a controller-consumable estimate."""
        return TradeoffEstimate(
            rates=self.rates, powers=self.powers,
            estimator_name=self.estimator,
            sampling_time=float(self.metadata.get("sampling_time", 0.0)),
            sampling_energy=float(self.metadata.get("sampling_energy", 0.0)),
            fit_seconds=float(self.metadata.get("fit_seconds", 0.0)),
        )

    def to_dict(self) -> Dict[str, Any]:
        rates = _curve_bytes(self.rates)
        powers = _curve_bytes(self.powers)
        return {
            "schema_version": REGISTRY_SCHEMA_VERSION,
            "app": self.app,
            "estimator": self.estimator,
            "num_configs": self.num_configs,
            "version": self.version,
            "rates": base64.b64encode(rates).decode("ascii"),
            "powers": base64.b64encode(powers).decode("ascii"),
            "crc32": _curve_crc(rates, powers),
            "metadata": self.metadata,
            "created_unix": self.created_unix,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ModelRecord":
        """Rebuild a record; raises ``ValueError`` on curves that do not
        decode, are misaligned, do not cover ``num_configs``, or fail
        their CRC (a record written before the CRC field still loads)."""
        rates = _decode_curve(payload["rates"])
        powers = _decode_curve(payload["powers"])
        num_configs = int(payload["num_configs"])
        if rates.ndim != 1 or rates.shape != powers.shape:
            raise ValueError("record curves must be aligned 1-D arrays")
        if rates.size != num_configs:
            raise ValueError(f"record curves cover {rates.size} "
                             f"configurations, expected {num_configs}")
        stored_crc = payload.get("crc32")
        if stored_crc is not None and stored_crc != _curve_crc(
                _curve_bytes(rates), _curve_bytes(powers)):
            raise ValueError(f"curve CRC mismatch (stored {stored_crc})")
        return cls(
            app=str(payload["app"]), estimator=str(payload["estimator"]),
            num_configs=num_configs,
            version=int(payload["version"]),
            rates=rates, powers=powers,
            metadata=dict(payload.get("metadata", {})),
            created_unix=float(payload.get("created_unix", 0.0)),
        )


class ModelRegistry:
    """Versioned fitted-model store shared by every service tenant."""

    def __init__(self, directory: PathLike) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._models_dir = self.directory / "models"
        self._latest_dir = self.directory / "latest"

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    def _key(self, app: str, num_configs: int, estimator: str) -> str:
        return f"{_slug(app)}--{int(num_configs)}--{_slug(estimator)}"

    def _model_dir(self, app: str, num_configs: int,
                   estimator: str) -> pathlib.Path:
        return self._models_dir / self._key(app, num_configs, estimator)

    def _latest_link(self, app: str, num_configs: int,
                     estimator: str) -> pathlib.Path:
        return self._latest_dir / (
            self._key(app, num_configs, estimator) + ".json")

    @staticmethod
    def _versions_in(directory: pathlib.Path) -> List[int]:
        if not directory.is_dir():
            return []
        versions = []
        for entry in directory.iterdir():
            match = _VERSION_FILE.match(entry.name)
            if match:
                versions.append(int(match.group(1)))
        return sorted(versions)

    def versions(self, app: str, num_configs: int,
                 estimator: str) -> List[int]:
        """Published version numbers for one key, ascending."""
        return self._versions_in(self._model_dir(app, num_configs,
                                                 estimator))

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, app: str, estimate: TradeoffEstimate,
                metadata: Optional[Dict[str, Any]] = None) -> ModelRecord:
        """Append a new immutable version and point ``latest/`` at it.

        Returns the published record (with its allocated version).  Safe
        against concurrent publishers on the same key: version files are
        created with an atomic no-clobber link, and collisions retry on
        the next number.
        """
        rates = np.asarray(estimate.rates, dtype=float)
        powers = np.asarray(estimate.powers, dtype=float)
        if rates.ndim != 1 or rates.shape != powers.shape:
            raise ValueError("estimate curves must be aligned 1-D arrays")
        meta = dict(metadata or {})
        meta.setdefault("sampling_time", estimate.sampling_time)
        meta.setdefault("sampling_energy", estimate.sampling_energy)
        meta.setdefault("fit_seconds", estimate.fit_seconds)

        directory = self._model_dir(app, rates.size, estimate.estimator_name)
        directory.mkdir(parents=True, exist_ok=True)
        tmp = directory / (f".publish.{os.getpid()}."
                           f"{threading.get_ident()}.tmp")
        record: Optional[ModelRecord] = None
        linked = True
        try:
            existing = self._versions_in(directory)
            version = (existing[-1] + 1) if existing else 1
            while True:
                record = ModelRecord(
                    app=app, estimator=estimate.estimator_name,
                    num_configs=int(rates.size), version=version,
                    rates=rates, powers=powers, metadata=meta,
                    created_unix=get_clock().time(),
                )
                tmp.write_text(json.dumps(record.to_dict()) + "\n")
                target = directory / f"v{version:06d}.json"
                try:
                    os.link(tmp, target)
                    break
                except FileExistsError:
                    version += 1  # lost a race; take the next number
                except OSError:
                    # Filesystem without hard links: fall back to a
                    # replace, accepting last-writer-wins on a collision.
                    os.replace(tmp, target)
                    linked = False
                    break
        finally:
            if tmp.exists():
                tmp.unlink()
        self._repoint_latest(
            self._latest_link(app, rates.size, estimate.estimator_name),
            target if linked else None)
        return record

    @staticmethod
    def _repoint_latest(link: pathlib.Path,
                        target: Optional[pathlib.Path]) -> None:
        """Make ``link`` a second name for the version file ``target``.

        Linked under a temporary name, then moved over the old link with
        ``os.replace``, so a warm read sees the previous version or this
        one.  Two racing publishers can leave the link on the older of
        their two versions until the next publish; a copied "latest"
        file would have the same race.  Without hard links (``target``
        is ``None``) or on failure, the old link is removed: warm reads
        then scan the history instead of serving a stale version.
        """
        if target is not None:
            tmp = link.with_name(
                f".{link.name}.{os.getpid()}.{threading.get_ident()}.tmp")
            try:
                link.parent.mkdir(exist_ok=True)
                os.link(target, tmp)
                os.replace(tmp, link)
                return
            except OSError as exc:
                logger.warning("could not re-point %s (%s); warm reads "
                               "scan the history", link, exc)
                with contextlib.suppress(OSError):
                    tmp.unlink()
        with contextlib.suppress(OSError):
            link.unlink()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _read_record(self, path: pathlib.Path) -> Optional[ModelRecord]:
        """One version file, or ``None`` when it cannot be interpreted."""
        try:
            payload = json.loads(path.read_text())
            schema = payload.get("schema_version", 1)
            if not isinstance(schema, int) or schema > \
                    REGISTRY_SCHEMA_VERSION:
                logger.warning(
                    "skipping registry record %s with schema_version %r "
                    "(this build reads <= %d)", path, schema,
                    REGISTRY_SCHEMA_VERSION)
                return None
            return ModelRecord.from_dict(payload)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            logger.warning("skipping unreadable registry record %s (%s)",
                           path, exc)
            return None

    def latest(self, app: str, num_configs: int,
               estimator: str) -> Optional[ModelRecord]:
        """The newest valid record for a key, or ``None``."""
        directory = self._model_dir(app, num_configs, estimator)
        for version in reversed(self._versions_in(directory)):
            record = self._read_record(directory / f"v{version:06d}.json")
            if record is not None:
                return record
        return None

    def history(self, app: str, num_configs: int,
                estimator: str) -> List[ModelRecord]:
        """Every valid record for a key, oldest first."""
        directory = self._model_dir(app, num_configs, estimator)
        records = []
        for version in self._versions_in(directory):
            record = self._read_record(directory / f"v{version:06d}.json")
            if record is not None:
                records.append(record)
        return records

    def warm_estimate(self, app: str, num_configs: int,
                      estimator: str) -> Optional[TradeoffEstimate]:
        """Warm-start lookup: the latest model as a ready estimate.

        Reads the ``latest/`` link (one file, however many versions the
        key has), falling back to the version history when the link is
        missing or its record is unreadable.
        """
        link = self._latest_link(app, num_configs, estimator)
        record = self._read_record(link) if link.exists() else None
        if record is None:
            record = self.latest(app, num_configs, estimator)
        return record.to_estimate() if record is not None else None

    def known_models(self) -> List[Dict[str, Any]]:
        """A summary row per key: app slug, size, estimator, versions."""
        rows = []
        if self._models_dir.is_dir():
            for directory in sorted(self._models_dir.iterdir()):
                parts = directory.name.split("--")
                if len(parts) != 3 or not directory.is_dir():
                    continue
                versions = self._versions_in(directory)
                if not versions:
                    continue
                rows.append({
                    "app": parts[0],
                    "num_configs": int(parts[1]),
                    "estimator": parts[2],
                    "versions": len(versions),
                    "latest_version": versions[-1],
                })
        return rows
