"""repro.faults: deterministic, seedable fault injection.

The framework has three pieces:

* :mod:`repro.faults.plan` — typed :class:`FaultSpec` / named, seeded
  :class:`FaultPlan`: fifteen fault kinds over ten sites.
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which
  evaluates a plan deterministically at the injection sites threaded
  through the stack (machine measurement, EM, estimators, the service
  client, persistence writes, the cluster coordinator, the sharded
  fleet's routing, calls and replica sync).
* :mod:`repro.faults.context` — the ambient contextvar install
  (:func:`use` / :func:`get_injector`), mirroring :mod:`repro.obs`;
  the default :data:`NULL_INJECTOR` keeps the fault-free path
  bit-identical and allocation-free.

Shipped plans live in :mod:`repro.faults.plans`; the ``default`` plan
covers the entire fault taxonomy and is what ``repro chaos`` and the
acceptance tests run.
"""

from repro.faults.context import NULL_INJECTOR, get_injector, use
from repro.faults.injector import FaultInjector, stable_seed
from repro.faults.plan import KIND_SITES, KINDS, SITES, FaultPlan, FaultSpec
from repro.faults.plans import default_plan, get_plan, plan_names

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "KINDS",
    "KIND_SITES",
    "SITES",
    "NULL_INJECTOR",
    "default_plan",
    "get_injector",
    "get_plan",
    "plan_names",
    "stable_seed",
    "use",
]
