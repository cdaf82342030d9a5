"""Shared fixtures for the test suite.

Most tests run on the 32-configuration cores-only space: it exercises
every code path (the hierarchy, the frontier, the runtime) at a fraction
of the 1024-configuration cost.  The full paper space is used where the
behaviour under test depends on it (flattening order, online regression's
15-coefficient threshold, integration tests).

Property tests run under the derandomized ``tier1`` Hypothesis profile
by default: every run draws the same examples, so the suite's verdict
cannot change between runs.  ``HYPOTHESIS_PROFILE=default`` (Hypothesis'
own profile) draws fresh examples instead, for hunting counterexamples.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.platform.config_space import ConfigurationSpace
from repro.platform.machine import Machine
from repro.platform.topology import PAPER_TOPOLOGY
from repro.workloads.suite import get_benchmark, paper_suite
from repro.workloads.traces import OfflineDataset

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture(scope="session")
def cores_space() -> ConfigurationSpace:
    return ConfigurationSpace.cores_only()


@pytest.fixture(scope="session")
def paper_space() -> ConfigurationSpace:
    return ConfigurationSpace.paper_space()


@pytest.fixture()
def machine() -> Machine:
    return Machine(PAPER_TOPOLOGY, seed=1234)


@pytest.fixture(scope="session")
def suite():
    return paper_suite()


@pytest.fixture(scope="session")
def kmeans():
    return get_benchmark("kmeans")


@pytest.fixture(scope="session")
def swish():
    return get_benchmark("swish")


@pytest.fixture(scope="session")
def cores_dataset(cores_space, suite) -> OfflineDataset:
    """Noisy offline tables for the full suite on the cores-only space."""
    machine = Machine(PAPER_TOPOLOGY, seed=99)
    return OfflineDataset.collect(machine, suite, cores_space, noisy=True)


@pytest.fixture(scope="session")
def cores_truth(cores_space, suite) -> OfflineDataset:
    """Noise-free ground-truth tables on the cores-only space."""
    machine = Machine(PAPER_TOPOLOGY, seed=98)
    return OfflineDataset.collect(machine, suite, cores_space, noisy=False)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(7)
