"""Controller checkpoints on disk.

:class:`CheckpointManager` writes a running controller's state every few
control quanta, atomically (temporary file + ``os.replace``) and with a
CRC-32 over the payload, so a crashed run resumes from its last
boundary — bit-equal to an uninterrupted run — and a torn or corrupted
checkpoint is detected and skipped rather than resumed from.  Fitted
models persist elsewhere: :class:`repro.service.registry.ModelRegistry`
versions them so a returning application skips calibration
(Section 6.7).
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import threading
import zlib
from typing import Optional, Union

from repro.faults.context import get_injector

PathLike = Union[str, pathlib.Path]

logger = logging.getLogger(__name__)


class CheckpointManager:
    """Atomic, CRC-guarded controller checkpoints on disk.

    One file, overwritten in place every ``every_quanta`` quantum
    boundaries of a :meth:`~repro.runtime.controller.RuntimeController.
    run` (pass the manager as its ``checkpointer``).  Writes are
    temp-file + ``os.replace`` with a CRC-32 over the canonical payload
    JSON, so a crash mid-write leaves either the previous checkpoint or
    the new one — and a torn or corrupted file is *detected* on
    :meth:`load` and skipped with a warning rather than resumed from.

    Recovery::

        manager = CheckpointManager(path)
        state = manager.load()
        if state is not None:
            report = controller.resume(state, profile)
        else:
            report = controller.run(..., checkpointer=manager)
    """

    def __init__(self, path: PathLike, every_quanta: int = 5) -> None:
        if every_quanta < 1:
            raise ValueError(
                f"every_quanta must be >= 1, got {every_quanta}")
        self.path = pathlib.Path(path)
        self.every_quanta = every_quanta
        #: Checkpoints written by this manager (for tests/metrics).
        self.saves = 0

    @staticmethod
    def _canonical(payload: dict) -> bytes:
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def due(self, quantum_index: int) -> bool:
        """Whether the boundary before quantum ``quantum_index + 1`` is
        a checkpoint boundary."""
        return quantum_index > 0 and quantum_index % self.every_quanta == 0

    def maybe_save(self, quantum_index: int, payload_fn) -> bool:
        """Save ``payload_fn()`` when ``quantum_index`` is due.

        The payload is only built when a write actually happens, so the
        per-quantum cost on off-boundary quanta is one modulo.
        """
        if not self.due(quantum_index):
            return False
        self.save(payload_fn())
        return True

    def save(self, payload: dict) -> None:
        """Write one checkpoint atomically (temp file + ``os.replace``)."""
        body = self._canonical(payload)
        envelope = json.dumps({"crc32": zlib.crc32(body),
                               "payload": payload})
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(
            f".{self.path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            tmp.write_text(envelope, encoding="utf-8")
            # Fault-injection hook: a torn write truncates the file's
            # tail before it lands (what a crash mid-fsync or a buggy
            # copier produces); load() must detect and skip it.
            for spec in get_injector().fire("persistence.write"):
                if spec.kind == "partial-write":
                    keep = max(int(tmp.stat().st_size
                                   * min(max(spec.magnitude, 0.0), 1.0)), 1)
                    with open(tmp, "rb+") as handle:
                        handle.truncate(keep)
            os.replace(tmp, self.path)
        finally:
            if tmp.exists():
                tmp.unlink()
        self.saves += 1

    def load(self) -> Optional[dict]:
        """The latest checkpoint payload, or ``None``.

        Missing, truncated, unparseable, or CRC-mismatching checkpoints
        all return ``None`` (with a warning): recovery falls back to a
        fresh run, which is always safe — never resume corrupt state.
        """
        if not self.path.exists():
            return None
        try:
            envelope = json.loads(self.path.read_text(encoding="utf-8"))
            stored = envelope["crc32"]
            payload = envelope["payload"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            logger.warning("skipping unreadable checkpoint %s (%s)",
                           self.path, exc)
            return None
        if not isinstance(payload, dict) or \
                zlib.crc32(self._canonical(payload)) != stored:
            logger.warning("skipping checkpoint %s with CRC mismatch",
                           self.path)
            return None
        return payload

    def clear(self) -> bool:
        """Delete the checkpoint (e.g. after a completed run)."""
        if self.path.exists():
            self.path.unlink()
            return True
        return False
