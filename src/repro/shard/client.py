"""The shard-aware client: routing, pooling, and typed shedding.

:class:`ShardedServiceClient` fronts a fleet with the same call surface
as a single :class:`~repro.service.client.ServiceClient`, so
:class:`~repro.service.client.RemoteEstimator` (and anything else
written against one broker) drops onto a fleet unchanged::

    with ShardFleet(num_shards=4) as fleet:
        client = ShardedServiceClient(fleet.addresses, tenant_key="app-7")
        remote = RemoteEstimator(client, estimator="leo")
        curve = remote.estimate(problem)   # bit-equal to local execution

Per call: the tenant key consistent-hashes to its owning shard
(:class:`~repro.shard.router.ShardRouter`), the pooled connection for
that shard is reused (one :class:`ServiceClient` per shard, created on
first use, kept across calls), and the wire is whatever that client
negotiated — binary against this repo's fleet, JSON against a legacy
broker.  Estimate requests carry their float data as float64 arrays
(:func:`~repro.service.protocol.problem_to_payload`), one raw block
each on the binary wire; so on that wire the array fields of a raw
:meth:`~ShardedServiceClient.call` or
:meth:`~ShardedServiceClient.call_shard` reply (``rates``, ``powers``,
``estimate``) are float64 ndarrays, where JSON lines give lists.

Failure semantics: a transport failure that survives the inner
client's own retries counts against the shard's health; at the
router's threshold the shard trips to down and every later call for
its tenants sheds immediately with the typed
:class:`~repro.errors.ShardUnavailable` — no failover, no dogpiling
the survivors.  Calls for tenants on healthy shards never see any of
it, which is the fleet-stays-up property the chaos gate asserts.

Fault sites: ``shard.route`` (kind ``broker-crash``) injects a
transport failure on the routed call — the crash path exercised end to
end — and ``shard.call`` (kind ``slow-shard``) injects added latency
before the call.
"""

from __future__ import annotations

import logging
import socket
from typing import Any, Dict, Optional

import numpy as np

from repro.clock import get_clock
from repro.errors import ShardUnavailable
from repro.faults.injector import stable_seed
from repro.estimators.base import EstimationProblem
from repro.faults.context import get_injector
from repro.service.client import ServiceClient
from repro.service.protocol import (
    ServiceAddress,
    decode_array,
    problem_to_payload,
)
from repro.shard.router import ShardRouter

logger = logging.getLogger(__name__)

__all__ = ["ShardedServiceClient"]


class ShardedServiceClient:
    """Routes tenant calls across a shard fleet over pooled connections.

    Args:
        addresses: ``shard_id -> ServiceAddress`` for the fleet.
        tenant_key: Default routing key for calls that do not pass one
            — the identity this client routes *as* (an application
            name, a tenant id).
        router: Shared :class:`ShardRouter`; ``None`` builds a private
            one over ``addresses``' keys.  Pass a shared router when
            several clients should agree on health state.
        wire: Wire mode for the pooled clients (default ``"auto"``:
            binary against this repo's fleet, JSON fallback).
        jitter_seed: Base seed for the pooled clients' backoff jitter.
            Each shard's client gets a seed derived from this and its
            shard id, so retry timing is deterministic per shard yet
            decorrelated across the pool — the property that makes
            virtual-clock chaos traces reproducible.  ``None`` leaves
            every pooled client on OS entropy (the old behaviour).
        client_kwargs: Extra :class:`ServiceClient` arguments (timeout,
            retries, backoff, ...) applied to every pooled client.
    """

    def __init__(self, addresses: Dict[str, ServiceAddress],
                 tenant_key: str = "default",
                 router: Optional[ShardRouter] = None,
                 wire: str = "auto",
                 jitter_seed: Optional[int] = None,
                 **client_kwargs: Any) -> None:
        if not addresses:
            raise ValueError("a sharded client needs at least one shard")
        self.addresses = dict(addresses)
        self.tenant_key = tenant_key
        self.router = (router if router is not None
                       else ShardRouter(sorted(self.addresses)))
        for shard_id in self.router.shard_ids:
            if shard_id not in self.addresses:
                raise ValueError(f"router shard {shard_id!r} has no "
                                 f"address")
        self.wire = wire
        self.jitter_seed = jitter_seed
        self._client_kwargs = dict(client_kwargs)
        self._pool: Dict[str, ServiceClient] = {}

    # -- pooling --------------------------------------------------------
    def client_for(self, shard_id: str) -> ServiceClient:
        """The pooled connection to one shard (created on first use)."""
        client = self._pool.get(shard_id)
        if client is None:
            kwargs = dict(self._client_kwargs)
            if self.jitter_seed is not None and "jitter_seed" not in kwargs:
                kwargs["jitter_seed"] = stable_seed(
                    "shard-jitter", self.jitter_seed, shard_id)
            client = ServiceClient(self.addresses[shard_id],
                                   wire=self.wire, **kwargs)
            self._pool[shard_id] = client
        return client

    def close(self) -> None:
        """Close every pooled connection (the pool itself survives)."""
        for client in self._pool.values():
            client.close()

    def __enter__(self) -> "ShardedServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the routed call ------------------------------------------------
    def call(self, op: str, payload: Optional[Dict[str, Any]] = None,
             deadline_s: Optional[float] = None,
             tenant_key: Optional[str] = None) -> Dict[str, Any]:
        """Invoke ``op`` on the tenant's owning shard.

        Raises :class:`ShardUnavailable` when the owner is down (from
        the router) or goes down during the call (from failure
        accounting); other typed service errors pass through unchanged.
        """
        key = tenant_key if tenant_key is not None else self.tenant_key
        shard_id = self.router.route(key)
        for spec in get_injector().fire("shard.call"):
            if spec.kind == "slow-shard":
                get_clock().sleep(max(0.0, spec.magnitude))
        crashed = any(spec.kind == "broker-crash"
                      for spec in get_injector().fire("shard.route"))
        try:
            if crashed:
                raise ConnectionError(
                    f"injected broker crash on {shard_id}")
            result = self.call_shard(shard_id, op, payload,
                                     deadline_s=deadline_s)
        except (ConnectionError, socket.timeout, OSError) as exc:
            tripped = self.router.record_failure(shard_id)
            logger.warning("shard %s transport failure (%s)%s", shard_id,
                           exc, "; shard marked down" if tripped else "")
            raise ShardUnavailable(
                f"shard {shard_id!r} failed transport for tenant "
                f"{key!r}: {exc}",
                details={"shard": shard_id, "tenant": key,
                         "marked_down": tripped}) from exc
        self.router.record_success(shard_id)
        return result

    def call_shard(self, shard_id: str, op: str,
                   payload: Optional[Dict[str, Any]] = None,
                   deadline_s: Optional[float] = None) -> Dict[str, Any]:
        """Invoke ``op`` on a *named* shard, bypassing tenant routing
        (fleet operations: metrics, ping, shutdown)."""
        return self.client_for(shard_id).call(op, payload,
                                              deadline_s=deadline_s)

    # -- ServiceClient-compatible surface -------------------------------
    def ping(self, echo: Any = None,
             tenant_key: Optional[str] = None) -> Dict[str, Any]:
        return self.call("ping", {"echo": echo}, tenant_key=tenant_key)

    def estimate(self, problem: EstimationProblem,
                 estimator: Optional[str] = None,
                 deadline_s: Optional[float] = None,
                 tenant_key: Optional[str] = None,
                 **kwargs: Any) -> np.ndarray:
        """Run a remote fit on the tenant's shard; returns the curve.

        Signature-compatible with :meth:`ServiceClient.estimate`, so
        :class:`RemoteEstimator` routes through the fleet untouched.
        """
        payload: Dict[str, Any] = {"problem": problem_to_payload(problem)}
        if estimator is not None:
            payload["estimator"] = estimator
        if kwargs:
            payload["kwargs"] = kwargs
        result = self.call("estimate", payload, deadline_s=deadline_s,
                           tenant_key=tenant_key)
        return decode_array(result["estimate"])

    def calibrate_report(self, app: str, **options: Any) -> Dict[str, Any]:
        """Calibrate on the shard owning ``app`` — the app *is* the
        tenant key, so repeat calibrations hit the same shard's cache
        and coalescing."""
        return self.call("calibrate-report", dict(options, app=app),
                         tenant_key=app)

    def metrics(self, shard_id: Optional[str] = None) -> Dict[str, Any]:
        """One shard's metrics, or every healthy shard's keyed by id."""
        if shard_id is not None:
            return self.call_shard(shard_id, "metrics")
        fleet: Dict[str, Any] = {}
        for member in self.router.shard_ids:
            if not self.router.is_up(member):
                continue
            try:
                fleet[member] = self.call_shard(member, "metrics")
            except (ConnectionError, socket.timeout, OSError) as exc:
                logger.warning("metrics unavailable from %s (%s)",
                               member, exc)
        return fleet

    def shutdown(self) -> None:
        """Stop every reachable shard (fleet teardown)."""
        for member in self.router.shard_ids:
            try:
                self.call_shard(member, "shutdown")
            except (ConnectionError, socket.timeout, OSError):
                pass
        self.close()
