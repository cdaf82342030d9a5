"""Tests for the asymmetric-platform layer (repro.platform.hetero).

The load-bearing invariant is exact homogeneous degeneracy: a
single-cluster ``HeteroTopology`` built with ``from_topology`` must
reproduce the plain homogeneous stack bit for bit — space, model
outputs, noise draws, idle power — not merely within a tolerance.
"""

import numpy as np
import pytest

from repro.platform.config_space import ConfigurationSpace
from repro.platform.hetero import (
    BIG_LITTLE,
    CoreCluster,
    HeteroConfiguration,
    HeteroMachine,
    HeteroPerformanceModel,
    HeteroPowerModel,
    HeteroTopology,
    OffloadDevice,
    cluster_indices,
    hetero_space,
)
from repro.platform.machine import Machine
from repro.platform.topology import PAPER_TOPOLOGY
from repro.workloads.suite import get_benchmark


@pytest.fixture(scope="module")
def big_little_space() -> ConfigurationSpace:
    return hetero_space(BIG_LITTLE)


class TestCoreCluster:
    def test_speed_ladder_spans_range(self):
        cluster = CoreCluster("big", cores=4, min_ghz=1.2, max_ghz=2.9,
                              dvfs_steps=7, turbo=True)
        ladder = cluster.speed_ladder()
        assert len(ladder) == 8  # 7 steps + turbo
        assert ladder[0].base_ghz == pytest.approx(1.2)
        assert ladder[-1].turbo
        assert [s.index for s in ladder] == list(range(8))

    def test_no_turbo_ladder(self):
        cluster = CoreCluster("little", cores=2, min_ghz=0.6,
                              max_ghz=1.6, dvfs_steps=4)
        ladder = cluster.speed_ladder()
        assert len(ladder) == 4
        assert not any(s.turbo for s in ladder)

    @pytest.mark.parametrize("kwargs", [
        dict(cores=0),
        dict(min_ghz=-1.0),
        dict(min_ghz=3.0, max_ghz=2.0),
        dict(dvfs_steps=0),
        dict(perf_scale=0.0),
        dict(power_scale=-0.5),
        dict(tdp_watts=0.0),
    ])
    def test_validation(self, kwargs):
        base = dict(cores=4)
        base.update(kwargs)
        with pytest.raises(ValueError):
            CoreCluster("bad", **base)

    def test_offload_device_validation(self):
        with pytest.raises(ValueError):
            OffloadDevice(speedup=0.0)
        with pytest.raises(ValueError):
            OffloadDevice(transfer_seconds=-1.0)
        with pytest.raises(ValueError):
            OffloadDevice(idle_watts=100.0, active_watts=50.0)


class TestHeteroTopology:
    def test_totals_sum_over_clusters(self):
        assert BIG_LITTLE.total_cores == 8
        assert BIG_LITTLE.total_tdp_watts == pytest.approx(78.0)

    def test_cluster_lookup(self):
        little = BIG_LITTLE.cluster_index("little")
        assert BIG_LITTLE.clusters[little].perf_scale < 1.0
        with pytest.raises(KeyError):
            BIG_LITTLE.cluster_index("huge")

    def test_duplicate_cluster_names_rejected(self):
        with pytest.raises(ValueError):
            HeteroTopology(clusters=(CoreCluster("a", cores=2),
                                     CoreCluster("a", cores=2)))

    def test_split_by_cluster_is_contiguous(self):
        parts = BIG_LITTLE.split_by_cluster()
        assert [p.name for p in parts] == ["big", "little"]
        assert parts[0].first_core == 0
        assert parts[1].first_core == parts[0].cores

    def test_signature_is_nine_dimensional(self):
        assert BIG_LITTLE.signature().shape == (9,)

    def test_from_topology_is_homogeneous(self):
        topo = HeteroTopology.from_topology(PAPER_TOPOLOGY)
        assert topo.is_homogeneous
        assert topo.base_topology is PAPER_TOPOLOGY
        assert not BIG_LITTLE.is_homogeneous
        with pytest.raises(ValueError):
            BIG_LITTLE.base_topology


class TestHeteroSpace:
    def test_size_exceeds_paper_space(self, big_little_space):
        # (5*4 - skip both-zero... ) x ladders x mem x offload = 2240
        assert len(big_little_space) == 2240
        assert len(big_little_space) > 1024

    def test_lookup_round_trip(self, big_little_space):
        for i in range(0, len(big_little_space), 97):
            config = big_little_space[i]
            assert big_little_space.index_of(config) == i
            assert config in big_little_space

    def test_all_configs_are_hetero_and_unique(self, big_little_space):
        keys = {c.lookup_key() for c in big_little_space}
        assert len(keys) == len(big_little_space)
        assert all(isinstance(c, HeteroConfiguration)
                   for c in big_little_space)

    def test_speed_decimation_shrinks_space(self):
        small = hetero_space(BIG_LITTLE,
                             speed_indices=([0, 7], [0]))
        assert 0 < len(small) < 2240
        big_speeds = {c.cluster_speeds[0].index for c in small
                      if c.cluster_cores[0] > 0}
        assert big_speeds == {0, 7}

    def test_cluster_indices_select_exclusive_configs(
            self, big_little_space):
        idx = cluster_indices(big_little_space, BIG_LITTLE, "little")
        assert len(idx) > 0
        for i in idx:
            config = big_little_space[int(i)]
            assert config.cluster_cores[0] == 0
            assert config.cluster_cores[1] > 0
            assert not config.offload
        # Non-contiguous: there are gaps between selected indices.
        assert np.any(np.diff(np.asarray(idx)) > 1)

    def test_empty_clusters_pin_ladder_floor(self, big_little_space):
        for config in big_little_space:
            for k, cores in enumerate(config.cluster_cores):
                if cores == 0:
                    assert config.cluster_speeds[k].index == 0

    def test_validation_rejects_mismatched_cores(self):
        big = BIG_LITTLE.clusters[0]
        little = BIG_LITTLE.clusters[1]
        with pytest.raises(ValueError):
            HeteroConfiguration(
                cores=5, threads=5, memory_controllers=1,
                speed=big.speed_ladder()[0],
                cluster_cores=(2, 2),
                cluster_speeds=(big.speed_ladder()[0],
                                little.speed_ladder()[0]))


class TestHeteroModels:
    def test_rejects_plain_config_on_hetero_platform(self):
        model = HeteroPerformanceModel(BIG_LITTLE)
        plain = ConfigurationSpace.paper_space(PAPER_TOPOLOGY)[100]
        with pytest.raises(TypeError):
            model.heartbeat_rate(get_benchmark("kmeans"), plain)

    def test_little_cores_are_slower_and_cheaper(self, big_little_space):
        perf = HeteroPerformanceModel(BIG_LITTLE)
        power = HeteroPowerModel(BIG_LITTLE)
        profile = get_benchmark("kmeans")
        idx = cluster_indices(big_little_space, BIG_LITTLE, "little")
        jdx = cluster_indices(big_little_space, BIG_LITTLE, "big")
        little_best = max(
            perf.heartbeat_rate(profile, big_little_space[int(i)])
            for i in idx)
        big_best = max(
            perf.heartbeat_rate(profile, big_little_space[int(j)])
            for j in jdx)
        assert little_best < big_best
        little_power = min(
            power.system_power(profile, big_little_space[int(i)])
            for i in idx)
        big_power = min(
            power.system_power(profile, big_little_space[int(j)])
            for j in jdx)
        assert little_power < big_power

    def test_offload_caps_rate_by_transfer_overhead(
            self, big_little_space):
        perf = HeteroPerformanceModel(BIG_LITTLE)
        profile = get_benchmark("kmeans")
        cap = 1.0 / BIG_LITTLE.offload.transfer_seconds
        for config in big_little_space:
            if config.offload:
                rate = perf.heartbeat_rate(profile, config)
                assert rate <= cap + 1e-9

    def test_offload_adds_device_power(self, big_little_space):
        power = HeteroPowerModel(BIG_LITTLE)
        profile = get_benchmark("kmeans")
        by_key = {}
        for config in big_little_space:
            key = (config.cluster_cores,
                   tuple(s.index for s in config.cluster_speeds),
                   config.memory_controllers)
            by_key.setdefault(key, {})[config.offload] = config
        pair = next(v for v in by_key.values() if len(v) == 2)
        delta = (power.system_power(profile, pair[True])
                 - power.system_power(profile, pair[False]))
        assert delta == pytest.approx(
            BIG_LITTLE.offload.active_watts
            - BIG_LITTLE.offload.idle_watts)


class TestHomogeneousDegeneracy:
    """The bit-identity guarantee enforced by CI (hetero-smoke)."""

    def test_space_is_exactly_paper_space(self):
        topo = HeteroTopology.from_topology(PAPER_TOPOLOGY)
        assert list(hetero_space(topo)) == list(
            ConfigurationSpace.paper_space(PAPER_TOPOLOGY))

    def test_sweeps_bit_identical(self):
        topo = HeteroTopology.from_topology(PAPER_TOPOLOGY)
        space = hetero_space(topo)
        profile = get_benchmark("swish")
        base = Machine(PAPER_TOPOLOGY, seed=42)
        het = HeteroMachine(topo, seed=42)
        assert het.idle_power() == base.idle_power()
        for noisy in (False, True):
            r0, p0 = base.sweep(profile, space, noisy=noisy)
            r1, p1 = het.sweep(profile, space, noisy=noisy)
            assert np.array_equal(r0, r1)
            assert np.array_equal(p0, p1)

    def test_hetero_machine_exposes_hetero_topology(self):
        assert HeteroMachine(BIG_LITTLE, seed=0).hetero is BIG_LITTLE
        topo = HeteroTopology.from_topology(PAPER_TOPOLOGY)
        machine = HeteroMachine(topo, seed=0)
        assert machine.hetero.is_homogeneous
