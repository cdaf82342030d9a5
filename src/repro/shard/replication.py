"""Registry replication: leader-append writes, staleness-bounded reads.

The :class:`~repro.service.registry.ModelRegistry` already has the two
properties replication wants: version files are **immutable** once
linked into place, and publishes are **append-only** with atomic
no-clobber allocation.  That makes a read replica trivial and safe: a
replica holds its own registry directory and *pulls* whatever version
files it is missing — ``os.link`` when leader and replica share a
filesystem (the deployment this repo's single-host fleet uses), byte
copy otherwise.  A half-synced replica is never corrupt, merely behind;
there is no record that can change under a reader.

Write path (:class:`ReplicatedRegistry`): every ``publish`` goes to the
**leader** — the single append point, so version numbers stay a single
monotone sequence and two shards can never allocate the same version to
different records.

Read path: ``warm_estimate`` fans out over the replicas round-robin, so
lookup throughput scales with replica count.  Each read is
**staleness-bounded**: a replica re-syncs when its last sync is older
than ``staleness_s``, and a replica that cannot sync (leader partition
— the ``partitioned-replica`` fault) serves what it has, falling back
to a direct leader read only when it has *never* synced.  Strong reads
(``latest``, ``history``, ``known_models``) always go to the leader.
"""

from __future__ import annotations

import itertools
import logging
import os
import pathlib
import shutil
from typing import Any, Dict, List, Optional, Sequence

from repro.clock import get_clock
from repro.errors import PersistenceError
from repro.faults.context import get_injector
from repro.service.registry import (
    _VERSION_FILE,
    ModelRecord,
    ModelRegistry,
    PathLike,
)

logger = logging.getLogger(__name__)

__all__ = ["RegistryReplica", "ReplicatedRegistry"]


class RegistryReplica:
    """One read replica of a leader :class:`ModelRegistry`.

    Args:
        leader: The registry every publish appends to.
        directory: This replica's own registry root.
        staleness_s: Reads older than this re-sync first.  ``0`` syncs
            on every read (read-your-writes against the leader);
            ``float("inf")`` never re-syncs after the first pull.
        clock: Monotonic time source (injectable for tests); ``None``
            reads the ambient :func:`repro.clock.get_clock` per call,
            so replicas age in simulated time under a virtual clock.
    """

    def __init__(self, leader: ModelRegistry, directory: PathLike,
                 staleness_s: float = 1.0,
                 clock=None) -> None:
        if staleness_s < 0:
            raise ValueError(f"staleness_s must be >= 0, got {staleness_s}")
        self.leader = leader
        self.registry = ModelRegistry(directory)
        self.staleness_s = staleness_s
        self._clock = clock

        self._last_sync: Optional[float] = None
        self._pulled_files = 0

    def _now(self) -> float:
        return (self._clock() if self._clock is not None
                else get_clock().now())

    # -- sync -----------------------------------------------------------
    @property
    def last_sync_age_s(self) -> Optional[float]:
        """Seconds since the last successful sync; ``None`` if never."""
        if self._last_sync is None:
            return None
        return self._now() - self._last_sync

    @property
    def pulled_files(self) -> int:
        """Version files pulled over this replica's lifetime."""
        return self._pulled_files

    def sync(self) -> int:
        """Pull every version file the replica is missing.

        Returns the number of files pulled.  Immutability makes this a
        pure fill-in: existing files are never touched, so a crash
        mid-sync leaves a valid (just older) replica.  The
        ``registry.sync`` fault site injects the ``partitioned-replica``
        failure here.
        """
        for spec in get_injector().fire("registry.sync"):
            if spec.kind == "partitioned-replica":
                raise PersistenceError(
                    "injected replica partition: leader unreachable")
        pulled = 0
        leader_models = self.leader._models_dir
        if leader_models.is_dir():
            for key_dir in leader_models.iterdir():
                if not key_dir.is_dir():
                    continue
                target_dir = self.registry._models_dir / key_dir.name
                for entry in key_dir.iterdir():
                    if not _VERSION_FILE.match(entry.name):
                        continue
                    target = target_dir / entry.name
                    if target.exists():
                        continue
                    target_dir.mkdir(parents=True, exist_ok=True)
                    pulled += self._pull(entry, target)
        self._last_sync = self._now()
        self._pulled_files += pulled
        return pulled

    @staticmethod
    def _pull(source: pathlib.Path, target: pathlib.Path) -> int:
        """Link (or copy) one immutable version file; idempotent."""
        try:
            os.link(source, target)
        except FileExistsError:
            return 0  # another reader pulled it concurrently
        except OSError:
            # Cross-filesystem replica: fall back to a byte copy via a
            # temp name so a torn copy is never visible under the
            # version-file name.
            tmp = target.with_name(f".sync.{os.getpid()}.tmp")
            try:
                shutil.copyfile(source, tmp)
                os.replace(tmp, target)
            except FileExistsError:
                return 0
            finally:
                if tmp.exists():
                    tmp.unlink()
        return 1

    def _ensure_fresh(self) -> bool:
        """Sync when stale; returns False when the replica has never
        managed a sync (reads must fall back to the leader)."""
        age = self.last_sync_age_s
        if age is not None and age <= self.staleness_s:
            return True
        try:
            self.sync()
            return True
        except (OSError, PersistenceError) as exc:
            logger.warning("replica sync failed (%s); serving %s", exc,
                           "stale data" if self._last_sync is not None
                           else "from the leader")
            return self._last_sync is not None

    # -- reads ----------------------------------------------------------
    def warm_estimate(self, app: str, num_configs: int, estimator: str):
        """Staleness-bounded warm-start lookup on this replica.

        A replica that has synced at least once answers locally — at
        worst ``staleness_s`` behind.  One that has never synced (e.g.
        partitioned from birth) reads through to the leader rather than
        inventing an empty answer.
        """
        if not self._ensure_fresh():
            return self.leader.warm_estimate(app, num_configs, estimator)
        # The replica pulls version files only and keeps no latest/
        # link of its own, so its warm_estimate scans the version
        # history it holds.
        return self.registry.warm_estimate(app, num_configs, estimator)

    def latest(self, app: str, num_configs: int,
               estimator: str) -> Optional[ModelRecord]:
        if not self._ensure_fresh():
            return self.leader.latest(app, num_configs, estimator)
        return self.registry.latest(app, num_configs, estimator)


class ReplicatedRegistry:
    """Leader-append writes plus round-robin replica reads.

    Duck-types the :class:`ModelRegistry` surface the
    :class:`~repro.service.server.EstimationService` consumes
    (``publish``, ``warm_estimate``, ``known_models``), so a
    shard's service runs against replication without knowing it.

    Args:
        leader: The single append point.
        replicas: Read replicas; empty means every read is a leader
            read (replication factor 1).
    """

    def __init__(self, leader: ModelRegistry,
                 replicas: Sequence[RegistryReplica] = ()) -> None:
        self.leader = leader
        self.replicas = list(replicas)
        self._rotation = itertools.cycle(range(len(self.replicas))) \
            if self.replicas else None

    # -- writes (leader only) -------------------------------------------
    def publish(self, app: str, estimate,
                metadata: Optional[Dict[str, Any]] = None) -> ModelRecord:
        return self.leader.publish(app, estimate, metadata)

    # -- scaled reads (replicas) ----------------------------------------
    def warm_estimate(self, app: str, num_configs: int, estimator: str):
        if self._rotation is None:
            return self.leader.warm_estimate(app, num_configs, estimator)
        replica = self.replicas[next(self._rotation)]
        return replica.warm_estimate(app, num_configs, estimator)

    # -- strong reads (leader) ------------------------------------------
    def latest(self, app: str, num_configs: int, estimator: str):
        return self.leader.latest(app, num_configs, estimator)

    def history(self, app: str, num_configs: int,
                estimator: str) -> List[ModelRecord]:
        return self.leader.history(app, num_configs, estimator)

    def versions(self, app: str, num_configs: int,
                 estimator: str) -> List[int]:
        return self.leader.versions(app, num_configs, estimator)

    def known_models(self) -> List[Dict[str, Any]]:
        return self.leader.known_models()

    def sync_all(self) -> int:
        """Force-sync every replica; returns total files pulled."""
        return sum(replica.sync() for replica in self.replicas)
