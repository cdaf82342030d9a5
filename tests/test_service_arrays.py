"""Float arrays on the service wire: one block each, bit-exact both ways.

Payload arrays stay float64 ``ndarray`` objects from the caller to the
handler and back (``encode_array``).  A frame carries each as one raw
block, the JSON text ``repro request`` prints shows it exactly as the
equal nested list, and the coalescing key hashes its shape and bytes.
A paper-scale request (1024 configurations, a 24-application prior) is
the case that matters: its frame is about 230 KB, far over asyncio's
default 64 KiB stream limit.
"""

import socket
import struct

import numpy as np
import pytest

from repro.estimators.base import EstimationProblem
from repro.estimators.registry import create_estimator
from repro.service import EstimationService, ServerThread, ServiceClient
from repro.service.frames import (
    BINARY_PROTOCOL_VERSION,
    MAGIC,
    MAX_FRAME_BYTES,
    FrameError,
    decode_binary_frame,
    encode_binary_frame,
    read_binary_frame,
)
from repro.service.protocol import (
    _ARRAY_MARK,
    Request,
    encode_array,
    encode_frame,
    fingerprint,
    problem_from_payload,
    problem_to_payload,
)

#: Adversarial float64 bit patterns.
SPECIALS = {
    "negative zero": b"\x80\x00\x00\x00\x00\x00\x00\x00",
    "smallest subnormal": b"\x00\x00\x00\x00\x00\x00\x00\x01",
    "NaN with a payload": b"\x7f\xf8\x00\x00\x00\x00\x12\x34",
    "+inf": b"\x7f\xf0\x00\x00\x00\x00\x00\x00",
    "-inf": b"\xff\xf0\x00\x00\x00\x00\x00\x00",
}


#: The finite ones, which an :class:`EstimationProblem` accepts.
FINITE_SPECIALS = ("negative zero", "smallest subnormal")

#: The problem's float arrays.
FLOAT_FIELDS = ("features", "prior", "observed_values")


def _special(name):
    return struct.unpack(">d", SPECIALS[name])[0]


def _place_specials(arrays, names):
    """Write each named pattern into each of ``arrays`` (features,
    prior, observed values), at a different entry per pattern."""
    features, prior, values = arrays
    for column, name in enumerate(names):
        features[column, column % 4] = _special(name)
        prior[column, -1 - column] = _special(name)
        values[column] = _special(name)


def _paper_problem(seed=0, specials=False):
    """A problem shaped like the paper space's: 1024 configurations,
    four knobs, a leave-one-out prior of 24 applications, 20 samples.
    ``specials`` places the finite special patterns."""
    rng = np.random.default_rng(seed)
    features = rng.random((1024, 4)) * 8
    prior = rng.random((24, 1024)) * 100 + 1
    indices = np.sort(rng.choice(1024, size=20, replace=False))
    values = rng.random(20) * 100 + 1
    if specials:
        _place_specials((features, prior, values), FINITE_SPECIALS)
    return EstimationProblem(features=features, prior=prior,
                             observed_indices=indices,
                             observed_values=values)


def _over_the_wire(payload):
    """The problem payload of an ``estimate`` request, sent and decoded."""
    wire = Request(op="estimate", request_id=3,
                   payload={"problem": payload,
                            "estimator": "offline"}).to_wire()
    back = Request.from_wire(decode_binary_frame(encode_binary_frame(wire)))
    return back.payload["problem"]


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


class TestArrayPayloads:
    def test_encode_array_is_a_float64_copy(self):
        source = np.arange(6, dtype=np.float32).reshape(2, 3)
        encoded = encode_array(source)
        assert isinstance(encoded, np.ndarray)
        assert encoded.dtype == np.float64 and encoded.shape == (2, 3)
        source[0, 0] = 99.0
        assert encoded[0, 0] == 0.0
        curve = np.linspace(1.0, 2.0, 5)
        assert not np.shares_memory(encode_array(curve), curve)

    def test_paper_scale_problem_round_trips_bit_exactly(self):
        """The finite special patterns ride in a problem, which the
        handler rebuilds bit for bit.  NaN and the infinities cross the
        wire in the same payload arrays just as exactly; the rebuilt
        problem then rejects them."""
        problem = _paper_problem(specials=True)
        back = _over_the_wire(problem_to_payload(problem))
        rebuilt = problem_from_payload(back)
        for name in FLOAT_FIELDS:
            sent, got = getattr(problem, name), getattr(rebuilt, name)
            assert got.shape == sent.shape
            assert got.tobytes() == sent.tobytes(), name
            assert got.dtype == np.float64 and got.dtype.isnative
            assert got.flags.c_contiguous and got.flags.writeable
        assert np.array_equal(rebuilt.observed_indices,
                              problem.observed_indices)
        assert back["observed_indices"] == [
            int(i) for i in problem.observed_indices]
        raw = rebuilt.prior.tobytes()
        for name in FINITE_SPECIALS:
            assert struct.pack("=d", _special(name)) in raw, name

        payload = problem_to_payload(_paper_problem())
        _place_specials([payload[name] for name in FLOAT_FIELDS], SPECIALS)
        back = _over_the_wire(payload)
        for name in FLOAT_FIELDS:
            sent, got = payload[name], back[name]
            assert got.shape == sent.shape
            assert got.tobytes() == sent.tobytes(), name
            assert got.dtype == np.float64 and got.dtype.isnative
            assert got.flags.c_contiguous and got.flags.writeable
        for name in SPECIALS:
            assert struct.pack("=d", _special(name)) in back["prior"].tobytes()
        with pytest.raises(ValueError, match="finite"):
            problem_from_payload(back)

    def test_json_frame_bytes_equal_the_list_payload(self):
        """The JSON text ``repro request`` prints: an array payload
        prints exactly what the equal nested-list payload prints."""
        problem = _paper_problem(seed=4)

        def as_list(array):
            return np.asarray(array, dtype=float).tolist()

        lists = {
            "features": as_list(problem.features),
            "prior": as_list(problem.prior),
            "observed_indices": [int(i) for i in problem.observed_indices],
            "observed_values": as_list(problem.observed_values),
        }
        for payload, listed in (
                ({"problem": problem_to_payload(problem)},
                 {"problem": lists}),
                ({"rates": encode_array(problem.prior[0]), "work": 2.5},
                 {"rates": as_list(problem.prior[0]), "work": 2.5})):
            request = Request(op="estimate", payload=payload, request_id=9,
                              deadline_s=5.0)
            expected = Request(op="estimate", payload=listed, request_id=9,
                               deadline_s=5.0)
            assert (encode_frame(request.to_wire())
                    == encode_frame(expected.to_wire()))


class TestBinaryArrayDtypes:
    """``encode_value`` takes floating arrays no wider than float64 and
    raises :class:`FrameError` for every other array."""

    @pytest.mark.parametrize("array", [
        np.array([2 ** 53 + 1]),
        np.array([1 + 2j, 3 - 4j]),
        np.array([True, False]),
        np.array([1.5, "x"], dtype=object),
    ], ids=["int64-above-2**53", "complex", "bool", "object"])
    def test_non_float_arrays_raise(self, array):
        with pytest.raises(FrameError, match="dtype"):
            encode_binary_frame({"a": array})

    @pytest.mark.skipif(np.dtype(np.longdouble).itemsize <= 8,
                        reason="long double is float64 on this platform")
    def test_floats_wider_than_float64_raise(self):
        with pytest.raises(FrameError, match="dtype"):
            encode_binary_frame({"a": np.array([1.0], dtype=np.longdouble)})

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_narrow_floats_widen_exactly(self, dtype):
        rng = np.random.default_rng(11)
        narrow = (rng.standard_normal((3, 5)) * 1e3).astype(dtype)
        narrow[0, 0] = -0.0
        narrow[0, 1] = np.inf
        narrow[0, 2] = np.nan
        decoded = decode_binary_frame(encode_binary_frame({"a": narrow}))["a"]
        assert decoded.dtype == np.float64
        assert decoded.tobytes() == narrow.astype(np.float64).tobytes()

    def test_zero_dimensional_array_keeps_its_shape(self):
        decoded = decode_binary_frame(
            encode_binary_frame({"a": np.array(2.5)}))["a"]
        assert decoded.shape == () and decoded == 2.5


class TestArrayFingerprint:
    def test_equal_arrays_under_reordered_keys_share_a_key(self):
        rng = np.random.default_rng(2)
        prior, curve = rng.random((3, 8)), rng.random(8)
        a = fingerprint("estimate", {"p": {"prior": prior, "k": 1},
                                     "c": curve})
        b = fingerprint("estimate", {"c": curve.copy(),
                                     "p": {"k": 1, "prior": prior.copy()}})
        assert a == b

    def test_one_flipped_bit_changes_the_key(self):
        curve = np.linspace(1.0, 2.0, 16)
        flipped = curve.copy()
        flipped.view(np.uint64)[7] ^= np.uint64(1)
        assert (fingerprint("estimate", {"c": curve})
                != fingerprint("estimate", {"c": flipped}))

    def test_reshaped_array_changes_the_key(self):
        prior = np.arange(12, dtype=float)
        assert (fingerprint("estimate", {"p": prior.reshape(3, 4)})
                != fingerprint("estimate", {"p": prior.reshape(4, 3)}))
        assert (fingerprint("estimate", {"p": prior})
                != fingerprint("estimate", {"p": prior.reshape(1, 12)}))

    def test_json_look_alike_of_the_stand_in_changes_the_key(self):
        curve = np.array([1.0, 2.0])
        real = fingerprint("estimate", {"c": curve})
        assert fingerprint("estimate", {"c": _ARRAY_MARK}) != real
        # A payload holding an array and a look-alike of the stand-in
        # must still tell which field is the array.
        assert (fingerprint("estimate", {"a": curve, "b": _ARRAY_MARK})
                != fingerprint("estimate", {"a": _ARRAY_MARK, "b": curve}))
        assert (fingerprint("estimate", {"a": curve, "b": _ARRAY_MARK})
                == fingerprint("estimate", {"a": curve.copy(),
                                            "b": _ARRAY_MARK}))

    def test_keys_depend_on_the_encoding(self):
        curve = np.array([1.0, 2.0])
        assert (fingerprint("estimate", {"c": curve})
                != fingerprint("estimate", {"c": curve.tolist()}))


class TestPaperScaleOverTheWire:
    def test_estimate_matches_in_process(self):
        problem = _paper_problem(seed=7)
        local = create_estimator("offline").estimate(problem)
        with ServerThread(EstimationService(), max_pending=4,
                          max_workers=1) as thread:
            # wire="auto" is the benchmark's spelling of the one wire.
            for options in ({}, {"wire": "auto"}):
                with ServiceClient(thread.bound_address, timeout=60.0,
                                   **options) as client:
                    remote = client.estimate(problem, estimator="offline")
                assert _bits(remote) == _bits(local), options

    def test_over_bound_line_gets_a_typed_error(self):
        # A frame prefix whose LENGTH is over the bound: the broker must
        # answer without reading (or allocating) the announced body.
        prefix = (MAGIC + bytes((BINARY_PROTOCOL_VERSION, 0))
                  + struct.pack(">I", MAX_FRAME_BYTES + 1))
        with ServerThread(EstimationService()) as thread:
            address = thread.bound_address
            with socket.create_connection((address.host, address.port),
                                          timeout=10.0) as sock:
                sock.sendall(prefix)
                reader = sock.makefile("rb")
                reply = decode_binary_frame(read_binary_frame(reader))
                assert reader.read() == b""  # then the server hangs up
            assert reply["ok"] is False and reply["id"] is None
            assert reply["error"]["type"] == "frame-error"
            assert f"{MAX_FRAME_BYTES}-byte bound" in reply["error"]["message"]
            # The broker keeps serving other connections.
            with ServiceClient(address, timeout=10.0) as client:
                assert client.ping(echo="y" * 100)["echo"] == "y" * 100
                counters = client.metrics()["metrics"]["counters"]
            assert counters["service_protocol_errors_total"] == 1
