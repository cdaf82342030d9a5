"""Tests for cross-platform transfer priors and TransferAwareLEO.

Two guarantees matter: same-platform blocks pass through *bit-identical*
(so the homogeneous path cannot drift), and ``psi_blend=0`` makes
``TransferAwareLEO`` produce exactly the plain ``LEOEstimator``'s
output.
"""

import numpy as np
import pytest

from repro.core.priors import NIWPrior
from repro.core.transfer import (
    TransferPrior,
    alignment_features,
    block_psi,
    map_indices,
    platform_distance,
    platform_similarity,
    signature_of,
)
from repro.estimators import (
    EstimationProblem,
    LEOEstimator,
    TransferAwareLEO,
    create_estimator,
    normalize_problem,
)
from repro.experiments.harness import random_indices
from repro.platform.config_space import ConfigurationSpace
from repro.platform.hetero import BIG_LITTLE, HeteroTopology, hetero_space
from repro.platform.machine import Machine
from repro.platform.topology import PAPER_TOPOLOGY
from repro.workloads.suite import get_benchmark, paper_suite
from repro.workloads.traces import OfflineDataset


@pytest.fixture(scope="module")
def paper_space() -> ConfigurationSpace:
    return ConfigurationSpace.paper_space(PAPER_TOPOLOGY)


@pytest.fixture(scope="module")
def prior_tables(paper_space):
    machine = Machine(PAPER_TOPOLOGY, seed=3)
    profiles = paper_suite()[:6]
    dataset = OfflineDataset.collect(machine, profiles, paper_space,
                                     noisy=True)
    return dataset.rates, dataset.powers


class TestSimilarityKernel:
    def test_identity_is_exactly_one(self):
        sig = signature_of(PAPER_TOPOLOGY)
        assert platform_distance(sig, sig) == 0.0
        assert platform_similarity(sig, sig) == 1.0

    def test_symmetric_and_bounded(self):
        a = signature_of(PAPER_TOPOLOGY)
        b = signature_of(BIG_LITTLE)
        assert platform_similarity(a, b) == platform_similarity(b, a)
        assert 0.0 < platform_similarity(a, b) < 1.0

    def test_shorter_length_scale_shrinks_weight(self):
        a = signature_of(PAPER_TOPOLOGY)
        b = signature_of(BIG_LITTLE)
        near = platform_similarity(a, b, length_scale=1.0)
        far = platform_similarity(a, b, length_scale=0.2)
        assert far < near


class TestAlignment:
    def test_same_space_maps_to_itself(self, paper_space):
        idx = map_indices(paper_space, paper_space)
        assert np.array_equal(idx, np.arange(len(paper_space)))

    def test_alignment_features_shape(self, paper_space):
        feats = alignment_features(paper_space)
        assert feats.shape == (len(paper_space), 5)
        assert np.all(np.isfinite(feats))

    def test_mapped_indices_in_range(self, paper_space):
        target = hetero_space(BIG_LITTLE, speed_indices=([0, 4], [0]))
        idx = map_indices(paper_space, target)
        assert idx.shape == (len(target),)
        assert idx.min() >= 0 and idx.max() < len(paper_space)


class TestTransferPrior:
    def test_native_passthrough_bit_identical(self, paper_space,
                                              prior_tables):
        rates, powers = prior_tables
        transfer = TransferPrior()
        transfer.add_platform(PAPER_TOPOLOGY, paper_space, rates, powers)
        built = transfer.build(PAPER_TOPOLOGY, paper_space)
        assert np.array_equal(built.rates, rates)
        assert np.array_equal(built.powers, powers)
        assert built.blocks == ((0, rates.shape[0], 1.0),)

    def test_foreign_block_is_weight_shrunk(self, paper_space,
                                            prior_tables):
        rates, powers = prior_tables
        transfer = TransferPrior()
        transfer.add_platform(PAPER_TOPOLOGY, paper_space, rates, powers)
        # No offload in the target so the device response does not
        # reshape the aligned curves before the shrinkage under test.
        target = hetero_space(BIG_LITTLE, speed_indices=([0, 4], [0]),
                              include_offload=False)
        built = transfer.build(BIG_LITTLE, target)
        assert built.rates.shape == (rates.shape[0], len(target))
        (start, stop, weight), = built.blocks
        assert (start, stop) == (0, rates.shape[0])
        assert 0.0 < weight < 1.0
        # Shrinkage compresses per-app spread relative to raw alignment.
        idx = map_indices(paper_space, target)
        raw = rates[:, idx]
        raw_spread = raw.max(axis=1) - raw.min(axis=1)
        built_spread = built.rates.max(axis=1) - built.rates.min(axis=1)
        assert np.all(built_spread <= raw_spread + 1e-9)

    def test_offload_columns_capped_by_device_response(
            self, paper_space, prior_tables):
        rates, powers = prior_tables
        transfer = TransferPrior()
        transfer.add_platform(PAPER_TOPOLOGY, paper_space, rates, powers)
        target = hetero_space(BIG_LITTLE, speed_indices=([0, 4], [0]))
        built = transfer.build(BIG_LITTLE, target)
        device = BIG_LITTLE.offload
        cap = 1.0 / device.transfer_seconds
        offload_cols = [j for j, c in enumerate(target) if c.offload]
        assert offload_cols
        # _shrink mixes toward the row mean, so allow the mean's pull
        # above the hard cap but require the raw aligned value capped.
        idx = map_indices(paper_space, target)
        raw = rates[:, idx]
        transformed = 1.0 / (1.0 / (device.speedup * raw[:, offload_cols])
                             + device.transfer_seconds)
        assert np.all(transformed <= cap + 1e-9)
        assert np.all(built.rates[:, offload_cols]
                      < raw[:, offload_cols].max() + 1e-9)

    def test_build_without_platforms_raises(self, paper_space):
        with pytest.raises(ValueError):
            TransferPrior().build(PAPER_TOPOLOGY, paper_space)


class TestBlockPsi:
    def test_blend_zero_is_scalar_identity(self):
        std = np.random.default_rng(0).normal(size=(5, 12))
        psi = block_psi(std, ((0, 5, 1.0),), 0.0)
        assert np.isscalar(psi) and psi == 1.0

    def test_blended_psi_is_symmetric_psd(self):
        std = np.random.default_rng(1).normal(size=(6, 10))
        factored = block_psi(std, ((0, 3, 1.0), (3, 6, 0.4)), 0.35)
        psi = NIWPrior(psi=factored).psi_matrix(10)
        assert psi.shape == (10, 10)
        assert np.array_equal(psi, psi.T)
        eigenvalues = np.linalg.eigvalsh(psi)
        assert eigenvalues.min() > 0.0

    def test_factors_reproduce_the_blended_scatter(self):
        """``(1 - blend) I + F F'`` is the blend of I and the weighted
        per-block scatter, which the factors never materialize."""
        std = np.random.default_rng(2).normal(size=(7, 9))
        blocks = ((0, 4, 1.0), (4, 7, 0.25))
        scale, factor = block_psi(std, blocks, 0.6)
        scatter = np.zeros((9, 9))
        for start, stop, weight in blocks:
            centered = std[start:stop] - std[start:stop].mean(axis=0)
            scatter += weight * centered.T @ centered
        scatter /= 1.0 * 4 + 0.25 * 3
        assert scale == pytest.approx(0.4)
        np.testing.assert_allclose(factor @ factor.T, 0.6 * scatter,
                                   rtol=1e-12, atol=1e-15)


class TestTransferAwareLEO:
    def _problem(self, paper_space, prior_tables):
        rates, _ = prior_tables
        machine = Machine(PAPER_TOPOLOGY, seed=9)
        truth, _ = machine.sweep(get_benchmark("swish"), paper_space,
                                 noisy=False)
        indices = random_indices(len(paper_space), 20, 5)
        problem = EstimationProblem(
            features=paper_space.feature_matrix(), prior=rates,
            observed_indices=indices, observed_values=truth[indices])
        return normalize_problem(problem)

    def test_blend_zero_bit_identical_to_leo(self, paper_space,
                                             prior_tables):
        normalized, scale = self._problem(paper_space, prior_tables)
        plain = LEOEstimator().estimate(normalized) * scale
        zero = TransferAwareLEO(
            blocks=((0, 6, 1.0),), psi_blend=0.0).estimate(normalized)
        assert np.array_equal(plain, zero * scale)

    def test_no_blocks_bit_identical_to_leo(self, paper_space,
                                            prior_tables):
        normalized, scale = self._problem(paper_space, prior_tables)
        plain = LEOEstimator().estimate(normalized)
        none = TransferAwareLEO(blocks=(), psi_blend=0.5).estimate(
            normalized)
        assert np.array_equal(plain, none)

    def test_blend_changes_estimate(self, paper_space, prior_tables):
        normalized, _ = self._problem(paper_space, prior_tables)
        plain = LEOEstimator().estimate(normalized)
        blended = TransferAwareLEO(
            blocks=((0, 6, 1.0),), psi_blend=0.35).estimate(normalized)
        assert not np.array_equal(plain, blended)
        assert np.all(np.isfinite(blended))

    def test_invalid_blend_rejected(self):
        with pytest.raises(ValueError):
            TransferAwareLEO(psi_blend=1.5)

    def test_registry_constructs_transfer_estimator(self):
        estimator = create_estimator("leo-transfer", psi_blend=0.2)
        assert estimator.name == "leo-transfer"
        assert estimator.psi_blend == 0.2


class TestHomogeneousDegenerateTransfer:
    def test_degenerate_topology_counts_as_native(self, paper_space,
                                                  prior_tables):
        rates, powers = prior_tables
        topo = HeteroTopology.from_topology(PAPER_TOPOLOGY)
        transfer = TransferPrior()
        transfer.add_platform(PAPER_TOPOLOGY, paper_space, rates, powers)
        built = transfer.build(topo, hetero_space(topo))
        assert np.array_equal(built.rates, rates)
        assert np.array_equal(built.powers, powers)
