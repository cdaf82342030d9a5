"""Tests for repro.platform.config_space."""

import numpy as np
import pytest

from repro.platform.config_space import Configuration, ConfigurationSpace
from repro.platform.dvfs import speed_ladder


def _config(cores=1, threads=None, mem=1, speed_idx=0):
    ladder = speed_ladder()
    return Configuration(cores=cores,
                         threads=threads if threads is not None else cores,
                         memory_controllers=mem, speed=ladder[speed_idx])


class TestConfiguration:
    def test_hyperthreading_flag(self):
        assert not _config(cores=4, threads=4).hyperthreading
        assert _config(cores=4, threads=8).hyperthreading
        assert _config(cores=4, threads=5).hyperthreading

    def test_rejects_threads_below_cores(self):
        with pytest.raises(ValueError):
            _config(cores=4, threads=3)

    def test_rejects_threads_above_double(self):
        with pytest.raises(ValueError):
            _config(cores=4, threads=9)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            _config(cores=0)

    def test_rejects_zero_memory_controllers(self):
        with pytest.raises(ValueError):
            _config(mem=0)

    def test_feature_vector_contents(self):
        config = _config(cores=4, threads=8, mem=2, speed_idx=3)
        np.testing.assert_allclose(config.feature_vector(),
                                   [4.0, 8.0, 2.0, 3.0])

    def test_frozen(self):
        config = _config()
        with pytest.raises(AttributeError):
            config.cores = 2


class TestPaperSpace:
    def test_has_1024_configurations(self, paper_space):
        assert len(paper_space) == 1024

    def test_no_duplicates(self, paper_space):
        keys = {(c.cores, c.threads, c.memory_controllers, c.speed.index)
                for c in paper_space}
        assert len(keys) == 1024

    def test_flattening_order(self, paper_space):
        """Memory controllers fastest, then speed, then HT, then cores."""
        c0, c1 = paper_space[0], paper_space[1]
        assert c0.memory_controllers == 1 and c1.memory_controllers == 2
        assert c0.speed.index == c1.speed.index == 0
        # After the two memory settings, speed advances.
        assert paper_space[2].speed.index == 1
        # Cores are the slowest-changing dimension.
        assert paper_space[0].cores == 1
        assert paper_space[-1].cores == 16

    def test_last_config_is_all_resources(self, paper_space):
        last = paper_space[-1]
        assert last.cores == 16
        assert last.threads == 32
        assert last.memory_controllers == 2
        assert last.speed.turbo

    def test_index_of_roundtrip(self, paper_space):
        for i in (0, 1, 511, 1023):
            assert paper_space.index_of(paper_space[i]) == i

    def test_contains(self, paper_space):
        assert paper_space[10] in paper_space
        foreign = _config(cores=3, threads=5)  # partial HT not in the space
        assert foreign not in paper_space

    def test_index_of_raises_for_foreign(self, paper_space):
        with pytest.raises(KeyError):
            paper_space.index_of(_config(cores=3, threads=5))

    def test_feature_matrix_shape(self, paper_space):
        features = paper_space.feature_matrix()
        assert features.shape == (1024, 4)
        assert features[:, 0].max() == 16  # cores
        assert features[:, 1].max() == 32  # threads
        assert features[:, 3].max() == 15  # speed index

    def test_feature_matrix_is_one_shared_read_only_array(self):
        space = ConfigurationSpace.cores_only()
        view = space.subspace([3, 1])
        features = space.feature_matrix()
        assert space.feature_matrix() is features
        assert not features.flags.writeable
        with pytest.raises(ValueError):
            features[0, 0] = 0.0
        np.testing.assert_array_equal(
            features, np.stack([c.feature_vector() for c in space]))
        np.testing.assert_array_equal(view.feature_matrix(),
                                      features[[3, 1]])


class TestCoresOnlySpace:
    def test_has_32_configurations(self, cores_space):
        assert len(cores_space) == 32

    def test_logical_cpu_semantics(self, cores_space):
        """Config c allocates c+1 logical CPUs, HT beyond 16."""
        assert cores_space[0].cores == 1 and cores_space[0].threads == 1
        assert cores_space[15].cores == 16 and cores_space[15].threads == 16
        assert cores_space[16].cores == 16 and cores_space[16].threads == 17
        assert cores_space[31].cores == 16 and cores_space[31].threads == 32

    def test_fixed_speed_and_memory(self, cores_space):
        speeds = {c.speed.index for c in cores_space}
        mems = {c.memory_controllers for c in cores_space}
        assert len(speeds) == 1
        assert mems == {2}

    def test_uses_top_non_turbo_speed(self, cores_space):
        assert not cores_space[0].speed.turbo
        assert cores_space[0].speed.base_ghz == pytest.approx(2.9)


class TestSpaceValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConfigurationSpace([])

    def test_rejects_duplicates(self):
        config = _config()
        with pytest.raises(ValueError):
            ConfigurationSpace([config, config])

    def test_iteration_matches_indexing(self, cores_space):
        listed = list(cores_space)
        assert all(listed[i] is cores_space[i] for i in range(len(listed)))
