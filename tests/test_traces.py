"""Tests for repro.workloads.traces."""

import numpy as np
import pytest

from repro.platform.machine import Machine
from repro.workloads.traces import OfflineDataset


class TestConstructionValidation:
    def test_shape_mismatch_rejected(self, cores_space):
        with pytest.raises(ValueError):
            OfflineDataset(cores_space, ["a"], np.ones((2, 32)),
                           np.ones((2, 32)))

    def test_power_shape_must_match(self, cores_space):
        with pytest.raises(ValueError):
            OfflineDataset(cores_space, ["a"], np.ones((1, 32)),
                           np.ones((1, 31)))

    def test_duplicate_names_rejected(self, cores_space):
        with pytest.raises(ValueError):
            OfflineDataset(cores_space, ["a", "a"], np.ones((2, 32)),
                           np.ones((2, 32)))

    def test_nonpositive_entries_rejected(self, cores_space):
        rates = np.ones((1, 32))
        rates[0, 3] = 0.0
        with pytest.raises(ValueError):
            OfflineDataset(cores_space, ["a"], rates, np.ones((1, 32)))


class TestCollect:
    def test_collect_dimensions(self, cores_dataset, cores_space, suite):
        assert len(cores_dataset) == 25
        assert cores_dataset.rates.shape == (25, len(cores_space))

    def test_row_lookup(self, cores_dataset):
        rates, powers = cores_dataset.row("kmeans")
        assert rates.shape == powers.shape == (32,)

    def test_unknown_row_raises(self, cores_dataset):
        with pytest.raises(KeyError):
            cores_dataset.row("nope")

    def test_noise_free_matches_machine_truth(self, cores_truth,
                                              cores_space, kmeans):
        machine = Machine()
        rates, _ = cores_truth.row("kmeans")
        for i, config in enumerate(cores_space):
            assert rates[i] == machine.true_rate(kmeans, config)


class TestLeaveOneOut:
    def test_excludes_target(self, cores_dataset):
        view = cores_dataset.leave_one_out("kmeans")
        assert "kmeans" not in view.prior_names
        assert len(view.prior_names) == 24
        assert view.prior_rates.shape == (24, 32)

    def test_truth_matches_row(self, cores_dataset):
        view = cores_dataset.leave_one_out("swish")
        rates, powers = cores_dataset.row("swish")
        np.testing.assert_array_equal(view.true_rates, rates)
        np.testing.assert_array_equal(view.true_powers, powers)

    def test_truth_is_a_copy(self, cores_dataset):
        view = cores_dataset.leave_one_out("swish")
        view.true_rates[0] = 1e9
        assert cores_dataset.row("swish")[0][0] != 1e9


class TestPersistence:
    def test_save_load_roundtrip(self, cores_dataset, cores_space, tmp_path):
        path = str(tmp_path / "traces.npz")
        cores_dataset.save(path)
        loaded = OfflineDataset.load(path, cores_space)
        assert loaded.names == cores_dataset.names
        np.testing.assert_allclose(loaded.rates, cores_dataset.rates)
        np.testing.assert_allclose(loaded.powers, cores_dataset.powers)
