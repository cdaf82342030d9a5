"""Tests for repro.platform.topology."""

import pytest

from repro.platform.topology import PAPER_TOPOLOGY, Topology


class TestPaperTopology:
    def test_matches_section_6_1(self):
        assert PAPER_TOPOLOGY.sockets == 2
        assert PAPER_TOPOLOGY.cores_per_socket == 8
        assert PAPER_TOPOLOGY.threads_per_core == 2
        assert PAPER_TOPOLOGY.memory_controllers == 2
        assert PAPER_TOPOLOGY.tdp_watts == 135.0

    def test_total_counts(self):
        assert PAPER_TOPOLOGY.total_cores == 16
        assert PAPER_TOPOLOGY.total_threads == 32


class TestSocketsForCores:
    def test_zero_cores_needs_no_sockets(self):
        assert PAPER_TOPOLOGY.sockets_for_cores(0) == 0

    def test_single_core_powers_one_socket(self):
        assert PAPER_TOPOLOGY.sockets_for_cores(1) == 1

    def test_exactly_one_socket(self):
        assert PAPER_TOPOLOGY.sockets_for_cores(8) == 1

    def test_spills_to_second_socket(self):
        assert PAPER_TOPOLOGY.sockets_for_cores(9) == 2

    def test_all_cores(self):
        assert PAPER_TOPOLOGY.sockets_for_cores(16) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PAPER_TOPOLOGY.sockets_for_cores(-1)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            PAPER_TOPOLOGY.sockets_for_cores(17)


class TestValidation:
    def test_rejects_zero_sockets(self):
        with pytest.raises(ValueError):
            Topology(sockets=0)

    def test_rejects_negative_tdp(self):
        with pytest.raises(ValueError):
            Topology(tdp_watts=-1.0)

    def test_rejects_more_controllers_than_sockets(self):
        with pytest.raises(ValueError):
            Topology(sockets=1, memory_controllers=2)

    def test_rejects_non_integer_cores(self):
        with pytest.raises(ValueError):
            Topology(cores_per_socket=1.5)

    def test_custom_topology(self):
        small = Topology(sockets=1, cores_per_socket=4,
                         memory_controllers=1)
        assert small.total_cores == 4
        assert small.total_threads == 8


class TestSplit:
    def test_packs_cores_in_request_order(self):
        parts = PAPER_TOPOLOGY.split([("a", 6), ("b", 5), ("c", 5)])
        assert [p.name for p in parts] == ["a", "b", "c"]
        assert [p.first_core for p in parts] == [0, 6, 11]
        assert [p.last_core for p in parts] == [6, 11, 16]

    def test_threads_default_to_both_siblings(self):
        (part,) = PAPER_TOPOLOGY.split([("a", 4)])
        assert part.threads == 8

    def test_explicit_thread_count(self):
        (part,) = PAPER_TOPOLOGY.split([("a", 4, 4)])
        assert part.threads == 4

    def test_zero_core_partition_named(self):
        with pytest.raises(ValueError, match="'b'.*zero cores"):
            PAPER_TOPOLOGY.split([("a", 4), ("b", 0)])

    def test_negative_core_partition_rejected(self):
        with pytest.raises(ValueError, match="'a'"):
            PAPER_TOPOLOGY.split([("a", -1)])

    def test_ht_sibling_split_named(self):
        # 4 cores own 8 thread contexts; claiming 9 would steal a
        # sibling context from another partition's core.
        with pytest.raises(ValueError, match="'greedy'.*hyperthread"):
            PAPER_TOPOLOGY.split([("greedy", 4, 9), ("b", 4)])

    def test_threads_below_cores_named(self):
        with pytest.raises(ValueError, match="'a'"):
            PAPER_TOPOLOGY.split([("a", 4, 3)])

    def test_over_subscription_names_offender(self):
        with pytest.raises(ValueError, match="over-subscribe.*'late'"):
            PAPER_TOPOLOGY.split([("a", 8), ("b", 8), ("late", 1)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PAPER_TOPOLOGY.split([("a", 4), ("a", 4)])

    def test_exact_fit_is_allowed(self):
        parts = PAPER_TOPOLOGY.split([("a", 8), ("b", 8)])
        assert sum(p.cores for p in parts) == PAPER_TOPOLOGY.total_cores

    def test_accepts_core_partition_instances(self):
        from repro.platform.topology import CorePartition
        spec = CorePartition(name="a", cores=3, threads=6)
        (part,) = PAPER_TOPOLOGY.split([spec])
        assert (part.name, part.cores, part.threads) == ("a", 3, 6)
        assert part.first_core == 0


class TestSplitEdgeCases:
    """The corners the hetero layer leans on (split_by_cluster)."""

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            PAPER_TOPOLOGY.split([("", 4)])

    def test_non_string_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            PAPER_TOPOLOGY.split([(7, 4)])

    def test_single_core_remainders(self):
        parts = PAPER_TOPOLOGY.split(
            [("bulk", 14), ("tail0", 1), ("tail1", 1)])
        assert [p.cores for p in parts] == [14, 1, 1]
        assert [p.first_core for p in parts] == [0, 14, 15]
        # A 1-core partition still owns both hyperthread siblings.
        assert parts[1].threads == 2

    def test_all_singleton_partitions(self):
        parts = PAPER_TOPOLOGY.split(
            [(f"c{i}", 1) for i in range(PAPER_TOPOLOGY.total_cores)])
        assert len(parts) == PAPER_TOPOLOGY.total_cores
        assert [p.first_core for p in parts] == list(
            range(PAPER_TOPOLOGY.total_cores))

    def test_asymmetric_explicit_threads_keep_offsets(self):
        parts = PAPER_TOPOLOGY.split(
            [("big", 10, 10), ("little", 6, 12)])
        assert [(p.first_core, p.last_core) for p in parts] == \
            [(0, 10), (10, 16)]
        assert [p.threads for p in parts] == [10, 12]

    def test_partial_split_leaves_cores_unowned(self):
        parts = PAPER_TOPOLOGY.split([("only", 3)])
        assert len(parts) == 1
        assert parts[0].last_core == 3  # remaining 13 cores unassigned

    def test_no_hyperthreading_topology(self):
        flat = Topology(sockets=1, cores_per_socket=8,
                        threads_per_core=1, memory_controllers=1)
        (part,) = flat.split([("a", 4)])
        assert part.threads == 4
        with pytest.raises(ValueError, match="hyperthread"):
            flat.split([("a", 4, 5)])

    def test_validation_precedes_packing(self):
        # The offending request fails before earlier ones are packed
        # into partitions, so no partial result escapes.
        with pytest.raises(ValueError):
            PAPER_TOPOLOGY.split([("ok", 4), ("bad", 0), ("late", 4)])

    def test_empty_request_list_is_empty_split(self):
        assert PAPER_TOPOLOGY.split([]) == []
