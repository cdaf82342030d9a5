"""Tests for repro.service.protocol (frames, errors, codecs)."""

import math

import numpy as np
import pytest

from repro.estimators.base import EstimationProblem
from repro.service.protocol import (
    PROTOCOL_VERSION,
    DeadlineExceeded,
    ProtocolError,
    RemoteError,
    Request,
    RequestRejected,
    Response,
    ServiceAddress,
    ServiceOverloaded,
    decode_array,
    decode_frame,
    encode_array,
    encode_frame,
    exception_for,
    fingerprint,
    problem_from_payload,
    problem_to_payload,
)


class TestFrames:
    def test_roundtrip(self):
        frame = decode_frame(encode_frame({"a": 1, "b": [1.5, None]}))
        assert frame == {"a": 1, "b": [1.5, None]}

    def test_one_line_per_frame(self):
        data = encode_frame({"x": "multi\nline"})
        assert data.count(b"\n") == 1 and data.endswith(b"\n")

    def test_numpy_values_degrade(self):
        frame = decode_frame(encode_frame({"v": np.float64(2.5),
                                           "a": np.arange(3)}))
        assert frame == {"v": 2.5, "a": [0, 1, 2]}

    def test_malformed_json_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"{not json")

    def test_non_object_frame_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_frame(b"[1, 2]")


class TestRequest:
    def test_roundtrip(self):
        req = Request(op="estimate", payload={"k": 1}, request_id=7,
                      deadline_s=2.5)
        back = Request.from_wire(req.to_wire())
        assert back == req

    def test_default_deadline_omitted_from_wire(self):
        assert "deadline_s" not in Request(op="ping").to_wire()

    def test_future_version_rejected(self):
        with pytest.raises(ProtocolError, match="version"):
            Request.from_wire({"v": PROTOCOL_VERSION + 1, "op": "ping"})

    def test_missing_op_rejected(self):
        with pytest.raises(ProtocolError, match="op"):
            Request.from_wire({"v": 1, "payload": {}})

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ProtocolError, match="payload"):
            Request.from_wire({"op": "ping", "payload": [1]})

    @pytest.mark.parametrize("deadline", [0, -1, "soon"])
    def test_bad_deadline_rejected(self, deadline):
        with pytest.raises(ProtocolError, match="deadline"):
            Request.from_wire({"op": "ping", "deadline_s": deadline})


class TestResponse:
    def test_success_roundtrip(self):
        resp = Response.success(3, {"x": 1})
        back = Response.from_wire(resp.to_wire())
        assert back.result() == {"x": 1}
        assert back.request_id == 3

    def test_failure_rehydrates_typed_exception(self):
        resp = Response.from_wire(Response.failure(
            4, ServiceOverloaded("full", details={"max_pending": 2})
        ).to_wire())
        with pytest.raises(ServiceOverloaded) as excinfo:
            resp.result()
        assert excinfo.value.details == {"max_pending": 2}

    def test_unexpected_exception_becomes_internal(self):
        resp = Response.failure(1, RuntimeError("boom"))
        assert resp.error["type"] == "internal"
        with pytest.raises(RemoteError, match="boom"):
            resp.result()

    def test_unknown_code_preserved(self):
        exc = exception_for("weird-new-code", "hi")
        assert isinstance(exc, RemoteError)
        assert exc.code == "weird-new-code"

    def test_known_codes_map_to_classes(self):
        assert isinstance(exception_for("overloaded", "m"),
                          ServiceOverloaded)
        assert isinstance(exception_for("deadline-exceeded", "m"),
                          DeadlineExceeded)
        assert isinstance(exception_for("bad-request", "m"),
                          RequestRejected)

    def test_frame_without_ok_rejected(self):
        with pytest.raises(ProtocolError):
            Response.from_wire({"id": 1})


class TestServiceAddress:
    def test_parse_tcp(self):
        addr = ServiceAddress.parse("127.0.0.1:8080")
        assert (addr.host, addr.port, addr.path) == ("127.0.0.1", 8080, None)
        assert str(addr) == "127.0.0.1:8080"

    def test_parse_unix(self):
        addr = ServiceAddress.parse("unix:/tmp/svc.sock")
        assert addr.path == "/tmp/svc.sock"
        assert str(addr) == "unix:/tmp/svc.sock"

    def test_parse_garbage_rejected(self):
        with pytest.raises(ValueError):
            ServiceAddress.parse("no-port-here")

    def test_needs_path_or_host_port(self):
        with pytest.raises(ValueError):
            ServiceAddress()
        with pytest.raises(ValueError):
            ServiceAddress(host="x", port=1, path="/also")


class TestArrayCodec:
    def test_floats_roundtrip_bit_exactly(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([
            rng.random(100) * 1e6, rng.random(100) * 1e-6,
            np.array([1 / 3, math.pi, 0.1 + 0.2])])
        # Through the codec AND through an actual JSON wire hop.
        wire = decode_frame(encode_frame({"a": encode_array(values)}))
        back = decode_array(wire["a"])
        assert np.array_equal(back, values)  # exact, not allclose

    def test_problem_roundtrip(self):
        rng = np.random.default_rng(5)
        problem = EstimationProblem(
            features=rng.random((8, 3)),
            prior=rng.random((2, 8)) + 0.5,
            observed_indices=np.array([0, 3, 6]),
            observed_values=rng.random(3) + 0.5)
        wire = decode_frame(encode_frame(problem_to_payload(problem)))
        back = problem_from_payload(wire)
        assert np.array_equal(back.features, problem.features)
        assert np.array_equal(back.prior, problem.prior)
        assert np.array_equal(back.observed_indices,
                              problem.observed_indices)
        assert np.array_equal(back.observed_values,
                              problem.observed_values)

    def test_problem_without_prior(self):
        problem = EstimationProblem(
            features=np.ones((4, 2)), prior=None,
            observed_indices=np.array([1]),
            observed_values=np.array([2.0]))
        back = problem_from_payload(problem_to_payload(problem))
        assert back.prior is None

    def test_missing_key_rejected(self):
        with pytest.raises(RequestRejected, match="features"):
            problem_from_payload({"observed_indices": [],
                                  "observed_values": []})


class TestFingerprint:
    def test_deterministic_and_order_insensitive(self):
        a = fingerprint("estimate", {"x": 1, "y": [1.0, 2.0]})
        b = fingerprint("estimate", {"y": [1.0, 2.0], "x": 1})
        assert a == b

    def test_distinguishes_ops_and_payloads(self):
        base = fingerprint("estimate", {"x": 1})
        assert fingerprint("optimize", {"x": 1}) != base
        assert fingerprint("estimate", {"x": 2}) != base
