"""The shard fleet: N brokers, one replicated registry, one process.

:class:`ShardFleet` is the in-process deployment of the sharded
service: it spins up ``num_shards`` independent
:class:`~repro.service.server.ServerThread` brokers, each fronting its
own :class:`~repro.service.server.EstimationService` backed by a
:class:`~repro.shard.replication.ReplicatedRegistry` — every shard
publishes to the one leader registry and warm-reads from its own
replicas, so a model published through shard 0 warm-starts a tenant on
shard 3 within the staleness bound.

The fleet is the unit the throughput experiment, the chaos gate, and
the ``repro shard`` CLI all drive.  :meth:`stop_shard` kills one broker
in place (the chaos primitive behind the ``shard-loss`` plan): its
tenants start failing with transport errors → the client's failure
accounting trips the router → those tenants shed with the typed
:class:`~repro.errors.ShardUnavailable` while every other shard keeps
serving.
"""

from __future__ import annotations

import contextlib
import pathlib
import tempfile
from typing import Any, Dict, List, Optional

from repro.service.protocol import ServiceAddress
from repro.service.registry import ModelRegistry
from repro.service.server import EstimationService, ServerThread
from repro.shard.replication import RegistryReplica, ReplicatedRegistry
from repro.shard.router import ShardRouter

__all__ = ["ShardFleet"]


class ShardFleet:
    """``num_shards`` service brokers over one replicated registry.

    Args:
        num_shards: Fleet width.
        registry_root: Directory for the leader registry and the
            per-shard replicas; ``None`` uses a temporary directory
            that is removed on :meth:`stop`.
        replicas_per_shard: Read replicas each shard's registry fans
            warm reads over.  ``0`` makes every shard read the leader
            directly.
        staleness_s: Replica staleness bound (see
            :class:`RegistryReplica`).
        max_pending: Per-shard admission budget.
        max_workers: Per-shard handler threads.
        server_kwargs: Extra :class:`ServiceServer` arguments applied
            to every shard.
    """

    def __init__(self, num_shards: int = 2,
                 registry_root: Optional[pathlib.Path] = None,
                 replicas_per_shard: int = 1,
                 staleness_s: float = 1.0,
                 max_pending: int = 32,
                 max_workers: int = 2,
                 **server_kwargs: Any) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if replicas_per_shard < 0:
            raise ValueError(f"replicas_per_shard must be >= 0, "
                             f"got {replicas_per_shard}")
        self.num_shards = num_shards
        self.shard_ids = tuple(f"shard-{index}"
                               for index in range(num_shards))
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if registry_root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-fleet-")
            registry_root = pathlib.Path(self._tmp.name)
        self.registry_root = pathlib.Path(registry_root)
        self.leader = ModelRegistry(self.registry_root / "leader")
        self.replicas: Dict[str, List[RegistryReplica]] = {}
        self._threads: Dict[str, ServerThread] = {}
        for shard_id in self.shard_ids:
            shard_replicas = [
                RegistryReplica(
                    self.leader,
                    self.registry_root / shard_id / f"replica-{index}",
                    staleness_s=staleness_s)
                for index in range(replicas_per_shard)
            ]
            self.replicas[shard_id] = shard_replicas
            service = EstimationService(
                registry=ReplicatedRegistry(self.leader, shard_replicas))
            self._threads[shard_id] = ServerThread(
                service,
                ServiceAddress(host="127.0.0.1", port=0),
                max_pending=max_pending, max_workers=max_workers,
                **server_kwargs)
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> Dict[str, ServiceAddress]:
        """Start every shard; returns the address map."""
        if self._started:
            raise RuntimeError("fleet already started")
        started: List[str] = []
        try:
            for shard_id in self.shard_ids:
                self._threads[shard_id].start()
                started.append(shard_id)
        except Exception:
            for shard_id in started:
                with contextlib.suppress(Exception):
                    self._threads[shard_id].stop()
            raise
        self._started = True
        return self.addresses

    def stop(self) -> None:
        """Stop every still-running shard and drop a temp registry."""
        for thread in self._threads.values():
            with contextlib.suppress(Exception):
                thread.stop()
        self._started = False
        if self._tmp is not None:
            with contextlib.suppress(OSError):
                self._tmp.cleanup()
            self._tmp = None

    def stop_shard(self, shard_id: str) -> None:
        """Kill one broker in place — the shard-loss chaos primitive.

        The listener closes and in-flight connections drop; the fleet
        keeps running.  Routing is *not* updated here: clients discover
        the loss through transport failures, exactly as they would a
        real crash.
        """
        if shard_id not in self._threads:
            raise ValueError(f"unknown shard {shard_id!r} "
                             f"(fleet: {list(self.shard_ids)})")
        self._threads[shard_id].stop()

    def __enter__(self) -> "ShardFleet":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- introspection --------------------------------------------------
    @property
    def addresses(self) -> Dict[str, ServiceAddress]:
        """Bound address per shard (available after :meth:`start`)."""
        return {shard_id: thread.bound_address
                for shard_id, thread in self._threads.items()}

    def router(self, **router_kwargs: Any) -> ShardRouter:
        """A fresh router over this fleet's shard ids."""
        return ShardRouter(self.shard_ids, **router_kwargs)

    def server(self, shard_id: str) -> ServerThread:
        """The underlying thread for one shard (tests, metrics)."""
        return self._threads[shard_id]

    def replication_lag(self) -> Dict[str, Optional[float]]:
        """Seconds since each replica's last sync, keyed
        ``"{shard}/replica-{i}"``; ``None`` means never synced."""
        lag: Dict[str, Optional[float]] = {}
        for shard_id, shard_replicas in self.replicas.items():
            for index, replica in enumerate(shard_replicas):
                lag[f"{shard_id}/replica-{index}"] = replica.last_sync_age_s
        return lag
