"""Tests for persisted models: the warm-start read of a published model.

A returning application reads its model back with
``ModelRegistry.warm_estimate``, which opens the ``latest/`` link to the
newest version file.  Version allocation, history scans and racing
publishers are covered in ``test_service_registry.py``.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.runtime.controller import TradeoffEstimate
from repro.service.registry import REGISTRY_SCHEMA_VERSION, ModelRegistry


def _estimate(n=8, name="leo"):
    return TradeoffEstimate(
        rates=np.linspace(10.0, 100.0, n),
        powers=np.linspace(100.0, 300.0, n),
        estimator_name=name, sampling_time=5.0, sampling_energy=700.0,
        fit_seconds=0.8)


def _published_link(reg, app="kmeans", estimate=None):
    """Publish one estimate; return the ``latest/`` link to its record."""
    estimate = estimate if estimate is not None else _estimate()
    reg.publish(app, estimate)
    return reg._latest_link(app, estimate.rates.size,
                            estimate.estimator_name)


class TestRoundtrip:
    def test_save_load(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        original = _estimate()
        # Values a decimal round trip could disturb come back bit for bit.
        original.rates[:3] = [-0.0, 5e-324, 1e308]
        original.powers[:2] = [1.0 / 3.0, np.nextafter(1.0, 2.0)]
        reg.publish("kmeans", original)
        loaded = reg.warm_estimate("kmeans", 8, "leo")
        assert loaded.rates.tobytes() == original.rates.tobytes()
        assert loaded.powers.tobytes() == original.powers.tobytes()
        assert loaded.estimator_name == "leo"
        assert loaded.sampling_time == 5.0
        assert loaded.sampling_energy == 700.0
        assert loaded.fit_seconds == 0.8

    def test_missing_returns_none(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        assert reg.warm_estimate("kmeans", 8, "leo") is None

    def test_keyed_by_estimator_and_size(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.publish("kmeans", _estimate(n=8, name="leo"))
        reg.publish("kmeans", _estimate(n=8, name="online"))
        reg.publish("kmeans", _estimate(n=16, name="leo"))
        assert reg.warm_estimate("kmeans", 8, "leo") is not None
        assert reg.warm_estimate("kmeans", 8, "online") is not None
        assert reg.warm_estimate("kmeans", 16, "leo") is not None
        assert reg.warm_estimate("kmeans", 32, "leo") is None

    def test_known_applications(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.publish("kmeans", _estimate())
        reg.publish("swish", _estimate())
        assert sorted({row["app"] for row in reg.known_models()}) == [
            "kmeans", "swish"]

    def test_awkward_names_sanitized(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        link = _published_link(reg, "my app/v2")
        assert link.name == "my-app-v2--8--leo.json"
        assert reg.warm_estimate("my app/v2", 8, "leo") is not None

    def test_unsanitizable_name_rejected(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        with pytest.raises(ValueError):
            reg.publish("///", _estimate())

    def test_creates_directory(self, tmp_path):
        reg = ModelRegistry(tmp_path / "deep" / "models")
        reg.publish("kmeans", _estimate())
        assert reg.warm_estimate("kmeans", 8, "leo") is not None


class TestSchemaVersioning:
    def test_records_carry_schema_version(self, tmp_path):
        link = _published_link(ModelRegistry(tmp_path))
        payload = json.loads(link.read_text())
        assert payload["schema_version"] == REGISTRY_SCHEMA_VERSION == 2
        assert isinstance(payload["crc32"], int)
        assert isinstance(payload["rates"], str)
        assert isinstance(payload["powers"], str)

    def test_version1_record_without_key_still_loads(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        link = _published_link(reg)
        payload = json.loads(link.read_text())
        del payload["schema_version"]  # a pre-versioning record
        link.write_text(json.dumps(payload))
        assert reg.warm_estimate("kmeans", 8, "leo") is not None

    def test_future_schema_version_skipped(self, tmp_path, caplog):
        reg = ModelRegistry(tmp_path)
        link = _published_link(reg)
        payload = json.loads(link.read_text())
        payload["schema_version"] = REGISTRY_SCHEMA_VERSION + 10
        link.write_text(json.dumps(payload))
        with caplog.at_level("WARNING"):
            assert reg.warm_estimate("kmeans", 8, "leo") is None
        assert "schema_version" in caplog.text

    def test_corrupt_archive_returns_none(self, tmp_path, caplog):
        reg = ModelRegistry(tmp_path)
        link = _published_link(reg)
        link.write_bytes(b"this is not a JSON record")
        with caplog.at_level("WARNING"):
            assert reg.warm_estimate("kmeans", 8, "leo") is None
        assert "unreadable" in caplog.text

    def test_truncated_archive_returns_none(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        link = _published_link(reg)
        link.write_bytes(link.read_bytes()[:40])
        assert reg.warm_estimate("kmeans", 8, "leo") is None

    def test_missing_array_key_returns_none(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        link = _published_link(reg)
        payload = json.loads(link.read_text())
        del payload["powers"]
        link.write_text(json.dumps(payload))
        assert reg.warm_estimate("kmeans", 8, "leo") is None


class TestConcurrentAccess:
    def test_two_writers_atomic_replace(self, tmp_path):
        """Racing publishers on one key: every warm read is one complete
        record, and the link ends on one of the version files."""
        reg = ModelRegistry(tmp_path)
        n = 64
        variants = {
            1.0: _full_estimate(n, 1.0),
            2.0: _full_estimate(n, 2.0),
        }
        errors = []
        stop = threading.Event()

        def writer(fill):
            try:
                while not stop.is_set():
                    reg.publish("racy", variants[fill])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            try:
                while not stop.is_set():
                    loaded = reg.warm_estimate("racy", n, "leo")
                    if loaded is None:
                        continue
                    # A torn record would mix fills within one curve.
                    fill = loaded.rates[0]
                    assert fill in variants
                    np.testing.assert_array_equal(
                        loaded.rates, variants[fill].rates)
                    np.testing.assert_array_equal(
                        loaded.powers, variants[fill].powers)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(1.0,)),
                   threading.Thread(target=writer, args=(2.0,)),
                   threading.Thread(target=reader),
                   threading.Thread(target=reader)]
        for t in threads:
            t.start()
        stop_timer = threading.Timer(1.0, stop.set)
        stop_timer.start()
        for t in threads:
            t.join(10.0)
        stop_timer.cancel()
        stop.set()
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert reg.warm_estimate("racy", n, "leo") is not None
        link = reg._latest_link("racy", n, "leo")
        directory = reg._model_dir("racy", n, "leo")
        assert any(os.path.samefile(link, directory / f"v{v:06d}.json")
                   for v in reg.versions("racy", n, "leo"))

    def test_tmp_files_do_not_leak_or_pollute_listing(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        for _ in range(5):
            reg.publish("kmeans", _estimate())
        for directory in (reg._model_dir("kmeans", 8, "leo"),
                          reg._latest_dir):
            leftovers = [p for p in directory.iterdir()
                         if p.name.startswith(".")]
            assert leftovers == []
        assert [row["app"] for row in reg.known_models()] == ["kmeans"]


def _full_estimate(n, fill):
    return TradeoffEstimate(rates=np.full(n, fill),
                            powers=np.full(n, fill * 10.0),
                            estimator_name="leo")
