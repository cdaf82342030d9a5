"""Property suite for the registry's record format.

A schema-2 record stores each curve as the base64 text of its
little-endian float64 bytes.  The oracle is the bytes themselves: any
pair of equal-length curves a publisher hands the registry comes back,
through every read path (``warm_estimate``, ``latest``, ``history``),
with identical bytes — negative zero, subnormals, infinities and NaNs
with payloads included, which float text could not carry.

Records written before the bytes encoding (schema 1: JSON float lists,
a CRC over the host's native bytes, sometimes no CRC at all) must keep
loading and be served warm bit for bit.  A newest record whose curves
do not decode — a character outside the base64 alphabet, a byte count
that is not whole float64s, flipped bytes that fail the CRC — is
skipped for the newest valid version, as any unreadable record is.
"""

import base64
import json
import os
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.runtime.controller import TradeoffEstimate
from repro.service import ModelRegistry

#: Bit patterns a float text format would lose or that sit at the edges
#: of the format: -0, the smallest and largest subnormals of either sign,
#: +-inf, the quiet NaN, a signalling NaN, NaNs with payloads and sign.
SPECIAL_BITS = (
    0x0000000000000000, 0x8000000000000000,
    0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x000FFFFFFFFFFFFF,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0x7FF0000000000001, 0x7FF4000000000123,
    0xFFF8DEADBEEF0042, 0xFFFFFFFFFFFFFFFF,
)

bit_patterns = st.one_of(st.integers(0, 2**64 - 1),
                         st.sampled_from(SPECIAL_BITS))


@st.composite
def curve_pairs(draw):
    """Two equal-length float64 curves drawn as raw bit patterns."""
    n = draw(st.integers(1, 64))
    bits = draw(st.lists(bit_patterns, min_size=2 * n, max_size=2 * n))
    both = np.array(bits, dtype=np.uint64).view(np.float64)
    return both[:n].copy(), both[n:].copy()


def _publish(registry, rates, powers, app="kmeans"):
    return registry.publish(app, TradeoffEstimate(
        rates=rates, powers=powers, estimator_name="leo"))


def _version_path(registry, version, app="kmeans", n=8):
    return registry._model_dir(app, n, "leo") / f"v{version:06d}.json"


def _schema1_payload(rates, powers, version, app="kmeans", crc=True):
    """A record as the builds before the bytes encoding wrote it."""
    payload = {
        "schema_version": 1, "app": app, "estimator": "leo",
        "num_configs": int(rates.size), "version": version,
        "rates": rates.tolist(), "powers": powers.tolist(),
        "metadata": {"sampling_time": 0.0, "sampling_energy": 0.0,
                     "fit_seconds": 0.0},
        "created_unix": 1.0,
    }
    if crc:
        crc32 = zlib.crc32(np.ascontiguousarray(rates, dtype=float)
                           .tobytes())
        payload["crc32"] = zlib.crc32(
            np.ascontiguousarray(powers, dtype=float).tobytes(), crc32)
    return payload


def _write_schema1(registry, payload):
    """Store ``payload`` as its key's version file, linked as latest."""
    app, n = payload["app"], payload["num_configs"]
    directory = registry._model_dir(app, n, "leo")
    directory.mkdir(parents=True)
    path = directory / f"v{payload['version']:06d}.json"
    path.write_text(json.dumps(payload) + "\n")
    latest = registry._latest_link(app, n, "leo")
    latest.parent.mkdir()
    os.link(path, latest)


class TestBytesRoundTrip:
    @given(curve_pairs())
    def test_every_read_path_returns_the_published_bytes(self, curves):
        rates, powers = curves
        n = rates.size
        with tempfile.TemporaryDirectory() as root:
            registry = ModelRegistry(root)
            published = _publish(registry, rates, powers)
            warm = registry.warm_estimate("kmeans", n, "leo")
            latest = registry.latest("kmeans", n, "leo")
            history = registry.history("kmeans", n, "leo")
            assert published.version == 1 and len(history) == 1
            for read in (warm, latest, history[0]):
                assert read.rates.tobytes() == rates.tobytes()
                assert read.powers.tobytes() == powers.tobytes()
                assert read.rates.dtype == np.float64
                assert read.rates.flags.writeable
                assert read.powers.flags.writeable

    def test_record_stores_little_endian_bytes_as_base64(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        rates = np.array([1.5, -0.0, np.inf])
        powers = np.array([2.0, 5e-324, np.nan])
        record = _publish(registry, rates, powers, app="edge")
        payload = json.loads(_version_path(
            registry, record.version, app="edge", n=3).read_text())
        assert payload["schema_version"] == 2
        little = [np.ascontiguousarray(c, dtype="<f8").tobytes()
                  for c in (rates, powers)]
        assert base64.b64decode(payload["rates"]) == little[0]
        assert base64.b64decode(payload["powers"]) == little[1]
        assert payload["crc32"] == zlib.crc32(little[1],
                                              zlib.crc32(little[0]))


#: -0 and subnormals of either sign, each in both curves: a float list
#: carries them, and a warm read must hand back exactly those bits.
EDGE_VALUES = [-0.0, 5e-324, -2.5e-310, 1.5, -0.0, -5e-324, 2.5e-310, 40.0]


class TestSchema1Records:
    @given(st.integers(1, 32).flatmap(lambda n: st.lists(
               st.floats(allow_nan=False), min_size=2 * n, max_size=2 * n)),
           st.booleans())
    @example(EDGE_VALUES, True)
    @example(EDGE_VALUES, False)
    def test_float_list_record_loads_bit_for_bit(self, values, crc):
        both = np.array(values, dtype=float)
        rates, powers = both[:both.size // 2], both[both.size // 2:]
        with tempfile.TemporaryDirectory() as root:
            registry = ModelRegistry(root)
            _write_schema1(registry, _schema1_payload(
                rates, powers, version=1, crc=crc))
            for read in (registry.warm_estimate("kmeans", rates.size, "leo"),
                         registry.latest("kmeans", rates.size, "leo")):
                assert read.rates.tobytes() == rates.tobytes()
                assert read.powers.tobytes() == powers.tobytes()

    def test_publish_after_schema1_history_takes_the_next_version(
            self, tmp_path):
        registry = ModelRegistry(tmp_path)
        old = np.linspace(1.0, 8.0, 8)
        _write_schema1(registry, _schema1_payload(old, old * 10.0,
                                                  version=1))
        record = _publish(registry, old * 2.0, old * 20.0)
        assert record.version == 2
        history = registry.history("kmeans", 8, "leo")
        assert [r.version for r in history] == [1, 2]
        assert history[0].rates.tobytes() == old.tobytes()


def _bad_alphabet(encoded):
    return "!" + encoded[1:]


def _partial_float(encoded):
    return base64.b64encode(base64.b64decode(encoded)[:-3]).decode("ascii")


def _flipped_bytes(encoded):
    raw = bytearray(base64.b64decode(encoded))
    raw[11] ^= 0x5A
    return base64.b64encode(bytes(raw)).decode("ascii")


class TestUndecodableNewestRecord:
    @pytest.mark.parametrize("damage, reason", [
        (_bad_alphabet, "base64"),
        (_partial_float, "not a whole number of float64s"),
        (_flipped_bytes, "CRC mismatch"),
    ], ids=["alphabet", "partial-float", "flipped-bytes"])
    def test_skipped_for_older_valid_version(self, tmp_path, caplog,
                                             damage, reason):
        registry = ModelRegistry(tmp_path)
        _publish(registry, np.full(8, 1.0), np.full(8, 10.0))
        newest = _publish(registry, np.full(8, 2.0), np.full(8, 20.0))
        path = _version_path(registry, newest.version)
        payload = json.loads(path.read_text())
        payload["rates"] = damage(payload["rates"])
        path.write_text(json.dumps(payload))
        with caplog.at_level("WARNING"):
            warm = registry.warm_estimate("kmeans", 8, "leo")
        assert reason in caplog.text
        assert warm.rates.tobytes() == np.full(8, 1.0).tobytes()
        assert registry.latest("kmeans", 8, "leo").version == 1
        assert [r.version for r in registry.history("kmeans", 8, "leo")] \
            == [1]
