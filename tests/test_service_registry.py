"""Tests for repro.service.registry (the versioned model registry)."""

import json
import os
import threading

import numpy as np
import pytest

from repro.runtime.controller import TradeoffEstimate
from repro.service.registry import REGISTRY_SCHEMA_VERSION, ModelRegistry


def _estimate(n=8, fill=1.0, name="leo"):
    return TradeoffEstimate(rates=np.full(n, fill),
                            powers=np.full(n, fill * 10.0),
                            estimator_name=name,
                            sampling_time=3.0, sampling_energy=500.0)


class TestPublishAndRead:
    def test_publish_allocates_versions(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        first = reg.publish("kmeans", _estimate(fill=1.0))
        second = reg.publish("kmeans", _estimate(fill=2.0))
        assert (first.version, second.version) == (1, 2)
        assert reg.versions("kmeans", 8, "leo") == [1, 2]

    def test_latest_returns_newest(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.publish("kmeans", _estimate(fill=1.0))
        reg.publish("kmeans", _estimate(fill=2.0))
        latest = reg.latest("kmeans", 8, "leo")
        assert latest.version == 2
        np.testing.assert_array_equal(latest.rates, np.full(8, 2.0))

    def test_history_oldest_first(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        for fill in (1.0, 2.0, 3.0):
            reg.publish("kmeans", _estimate(fill=fill))
        history = reg.history("kmeans", 8, "leo")
        assert [r.version for r in history] == [1, 2, 3]
        assert [r.rates[0] for r in history] == [1.0, 2.0, 3.0]

    def test_keys_are_independent(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.publish("kmeans", _estimate(n=8))
        reg.publish("kmeans", _estimate(n=16))
        reg.publish("swish", _estimate(n=8, name="online"))
        assert reg.latest("kmeans", 8, "leo").version == 1
        assert reg.latest("kmeans", 16, "leo").version == 1
        assert reg.latest("swish", 8, "online").version == 1
        assert reg.latest("swish", 8, "leo") is None

    def test_metadata_and_provenance_roundtrip(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        record = reg.publish("kmeans", _estimate(),
                             metadata={"note": "trial", "seed": 4})
        back = reg.latest("kmeans", 8, "leo")
        assert back.metadata["note"] == "trial"
        assert back.metadata["seed"] == 4
        # Estimate provenance defaults in unless explicitly overridden.
        assert back.metadata["sampling_time"] == 3.0
        assert record.created_unix > 0

    def test_to_estimate(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.publish("kmeans", _estimate(fill=4.0))
        estimate = reg.latest("kmeans", 8, "leo").to_estimate()
        assert isinstance(estimate, TradeoffEstimate)
        assert estimate.estimator_name == "leo"
        assert estimate.sampling_time == 3.0
        np.testing.assert_array_equal(estimate.rates, np.full(8, 4.0))

    def test_known_models_summary(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.publish("kmeans", _estimate())
        reg.publish("kmeans", _estimate())
        reg.publish("swish", _estimate(name="online"))
        rows = {(r["app"], r["estimator"]): r for r in reg.known_models()}
        assert rows[("kmeans", "leo")]["versions"] == 2
        assert rows[("kmeans", "leo")]["latest_version"] == 2
        assert rows[("swish", "online")]["versions"] == 1

    def test_mismatched_curves_rejected(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        bad = TradeoffEstimate(rates=np.ones(4), powers=np.ones(5),
                               estimator_name="leo")
        with pytest.raises(ValueError):
            reg.publish("kmeans", bad)


class TestWarmStart:
    def test_warm_estimate_after_publish(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        assert reg.warm_estimate("kmeans", 8, "leo") is None
        reg.publish("kmeans", _estimate(fill=5.0))
        warm = reg.warm_estimate("kmeans", 8, "leo")
        np.testing.assert_array_equal(warm.rates, np.full(8, 5.0))

    def test_latest_link_is_the_newest_version_file(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        for fill in (1.0, 2.0, 3.0):
            record = reg.publish("kmeans", _estimate(fill=fill))
        newest = (reg._model_dir("kmeans", 8, "leo")
                  / f"v{record.version:06d}.json")
        link = tmp_path / "latest" / "kmeans--8--leo.json"
        assert os.path.samefile(link, newest)
        assert list(tmp_path.rglob("*.npz")) == []

    def test_warm_falls_back_to_history_when_store_damaged(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.publish("kmeans", _estimate(fill=4.0))
        reg.publish("kmeans", _estimate(fill=5.0))
        # Wreck the newest record (the link and v2 are one file); the
        # older version still serves.
        reg._latest_link("kmeans", 8, "leo").write_bytes(b"garbage")
        warm = reg.warm_estimate("kmeans", 8, "leo")
        assert warm is not None
        np.testing.assert_array_equal(warm.rates, np.full(8, 4.0))

    def test_warm_falls_back_to_history_when_link_missing(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.publish("kmeans", _estimate(fill=4.0))
        reg.publish("kmeans", _estimate(fill=5.0))
        reg._latest_link("kmeans", 8, "leo").unlink()
        warm = reg.warm_estimate("kmeans", 8, "leo")
        np.testing.assert_array_equal(warm.rates, np.full(8, 5.0))

    def test_failed_repoint_removes_the_stale_link(self, tmp_path,
                                                   monkeypatch, caplog):
        reg = ModelRegistry(tmp_path)
        reg.publish("kmeans", _estimate(fill=4.0))

        def no_replace(src, dst):
            raise OSError("injected replace failure")

        monkeypatch.setattr(os, "replace", no_replace)
        with caplog.at_level("WARNING"):
            reg.publish("kmeans", _estimate(fill=5.0))
        assert "re-point" in caplog.text
        assert list((tmp_path / "latest").iterdir()) == []
        warm = reg.warm_estimate("kmeans", 8, "leo")
        np.testing.assert_array_equal(warm.rates, np.full(8, 5.0))

    def test_without_hard_links_warm_reads_scan_the_history(
            self, tmp_path, monkeypatch):
        def no_link(src, dst):
            raise PermissionError("hard links unsupported")

        reg = ModelRegistry(tmp_path)
        reg.publish("kmeans", _estimate(fill=4.0))
        # The registry moves to a filesystem without hard links: the
        # old link must not keep serving version 1.
        monkeypatch.setattr(os, "link", no_link)
        reg.publish("kmeans", _estimate(fill=5.0))
        assert reg.versions("kmeans", 8, "leo") == [1, 2]
        assert list((tmp_path / "latest").iterdir()) == []
        warm = reg.warm_estimate("kmeans", 8, "leo")
        np.testing.assert_array_equal(warm.rates, np.full(8, 5.0))


class TestTolerantReads:
    def test_corrupt_version_skipped_for_older_valid(self, tmp_path, caplog):
        reg = ModelRegistry(tmp_path)
        reg.publish("kmeans", _estimate(fill=1.0))
        record = reg.publish("kmeans", _estimate(fill=2.0))
        path = (reg._model_dir("kmeans", 8, "leo")
                / f"v{record.version:06d}.json")
        path.write_text("{broken json")
        with caplog.at_level("WARNING"):
            latest = reg.latest("kmeans", 8, "leo")
        assert latest.version == 1
        assert "skipping" in caplog.text

    def test_future_schema_version_skipped(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.publish("kmeans", _estimate(fill=1.0))
        record = reg.publish("kmeans", _estimate(fill=2.0))
        path = (reg._model_dir("kmeans", 8, "leo")
                / f"v{record.version:06d}.json")
        payload = json.loads(path.read_text())
        payload["schema_version"] = REGISTRY_SCHEMA_VERSION + 5
        path.write_text(json.dumps(payload))
        assert reg.latest("kmeans", 8, "leo").version == 1
        assert len(reg.history("kmeans", 8, "leo")) == 1

    def _edit_newest(self, reg, edit):
        """Publish fills 1 then 2; rewrite v2's record with ``edit``."""
        reg.publish("kmeans", _estimate(fill=1.0))
        record = reg.publish("kmeans", _estimate(fill=2.0))
        path = (reg._model_dir("kmeans", 8, "leo")
                / f"v{record.version:06d}.json")
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))

    def test_crc_mismatch_skipped_for_older_valid(self, tmp_path, caplog):
        reg = ModelRegistry(tmp_path)
        self._edit_newest(reg, lambda p: p["rates"].__setitem__(0, 9.0))
        with caplog.at_level("WARNING"):
            assert reg.latest("kmeans", 8, "leo").version == 1
        assert "CRC mismatch" in caplog.text
        warm = reg.warm_estimate("kmeans", 8, "leo")
        np.testing.assert_array_equal(warm.rates, np.full(8, 1.0))

    def test_short_curves_skipped_for_older_valid(self, tmp_path, caplog):
        reg = ModelRegistry(tmp_path)
        self._edit_newest(reg, lambda p: p.update(num_configs=16))
        with caplog.at_level("WARNING"):
            assert reg.latest("kmeans", 8, "leo").version == 1
        assert "cover 8 configurations, expected 16" in caplog.text
        warm = reg.warm_estimate("kmeans", 8, "leo")
        np.testing.assert_array_equal(warm.rates, np.full(8, 1.0))

    def test_record_without_crc_still_loads(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        self._edit_newest(reg, lambda p: p.pop("crc32"))
        assert REGISTRY_SCHEMA_VERSION == 1
        assert reg.latest("kmeans", 8, "leo").version == 2
        warm = reg.warm_estimate("kmeans", 8, "leo")
        np.testing.assert_array_equal(warm.rates, np.full(8, 2.0))

    def test_all_versions_unreadable_returns_none(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        record = reg.publish("kmeans", _estimate())
        path = (reg._model_dir("kmeans", 8, "leo")
                / f"v{record.version:06d}.json")
        path.write_text("nope")
        assert reg.latest("kmeans", 8, "leo") is None


class TestConcurrentPublishers:
    def test_racing_publishers_get_distinct_versions(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        results, errors = [], []
        barrier = threading.Barrier(4)

        def publish(fill):
            try:
                barrier.wait(5.0)
                for _ in range(5):
                    results.append(
                        reg.publish("racy", _estimate(fill=fill)).version)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=publish, args=(float(i),))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors, errors
        # Every publish landed, nobody clobbered anybody.
        assert sorted(results) == list(range(1, 21))
        assert reg.versions("racy", 8, "leo") == list(range(1, 21))
        assert len(reg.history("racy", 8, "leo")) == 20

    def test_no_tmp_files_leak(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        for _ in range(3):
            reg.publish("kmeans", _estimate())
        leftovers = [p for p in reg._model_dir("kmeans", 8, "leo").iterdir()
                     if p.name.startswith(".")]
        assert leftovers == []
