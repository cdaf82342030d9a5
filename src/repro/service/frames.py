"""The service wire: length-prefixed, checksummed binary frames.

Every request and reply between a :class:`~repro.service.client.
ServiceClient` and the broker travels as one frame.  A frame carries a
request/response dictionary (:mod:`repro.service.protocol`) whose
float64 values are raw IEEE-754 bytes, so every double (subnormals, NaN
payloads, ``-0.0``, ``±inf``) round-trips bit-exactly by construction.

Frame layout (all integers big-endian)::

    MAGIC    1 byte   0xAB — neither '{' nor a UTF-8 lead byte, so the
                      broker refuses a stray text line at its first byte
    VERSION  1 byte   0x02 (wire protocol version 2)
    FLAGS    1 byte   bit 0: a trace-context header follows the prefix
    LENGTH   4 bytes  byte length of HEADER + BODY
    HEADER   tagged dict — the optional ``trace`` context
             (:meth:`repro.obs.propagation.TraceContext.to_wire`),
             present iff FLAGS bit 0 is set
    BODY     tagged dict — the request/response object, minus ``trace``
    CRC32    4 bytes  zlib.crc32 over HEADER + BODY
    TERM     1 byte   0x0A

LENGTH says where a frame ends; TERM is a framing check on top of it: a
frame whose last byte is not ``0x0A`` is rejected as corrupt framing.

Carrying the trace context in the frame *header* keeps it out of the
operation payload, and so out of coalescing fingerprints.

Tagged value encoding (one ASCII tag byte, then the value):

=====  =============================================================
tag    value
=====  =============================================================
``Z``  ``None``
``T``  ``True``
``F``  ``False``
``i``  int64, 8 bytes signed big-endian
``I``  arbitrary-precision int: u32 length + ASCII decimal digits
``f``  float64, 8 raw IEEE-754 bytes (bit-exact)
``s``  str: u32 byte length + UTF-8
``b``  bytes: u32 length + raw
``l``  list: u32 count + tagged items
``d``  dict: u32 count + (u32+UTF-8 key, tagged value) pairs
``a``  float64 ndarray: u8 ndim + u32 per-dim sizes + raw ``>f8`` data
=====  =============================================================

Float arrays are the bulk of the traffic: the service's payloads keep
curves, features and priors as float64 arrays
(:func:`repro.service.protocol.encode_array`), so each crosses as one
``a`` block instead of one ``f`` tag per element, and decodes to a
writeable, C-contiguous, native float64 array.  Only floating dtypes
no wider than float64 are accepted; other arrays raise rather than
convert lossily.

Every decode failure — short read, bad magic, future version, length
overflow, checksum mismatch, unknown tag, trailing bytes, missing
terminator — raises the typed :class:`~repro.errors.FrameError` (wire
code ``frame-error``), a :class:`~repro.errors.ProtocolError` subclass,
so a corrupt frame is answered with the same typed-error machinery as
any other malformed request.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import FrameError

__all__ = [
    "BINARY_PROTOCOL_VERSION",
    "MAGIC",
    "PREFIX_SIZE",
    "MAX_FRAME_BYTES",
    "FrameError",
    "encode_binary_frame",
    "decode_binary_frame",
    "parse_prefix",
    "read_binary_frame",
    "encode_value",
    "decode_value",
]

#: The wire-protocol version this codec implements.
BINARY_PROTOCOL_VERSION = 2

#: First byte of every frame.  ``0xAB`` is neither ``{`` nor a legal
#: UTF-8 lead byte, so a stray JSON or text line fails at its first
#: byte.
MAGIC = b"\xab"

#: MAGIC + VERSION + FLAGS + LENGTH.
PREFIX_SIZE = 7

#: Upper bound on HEADER + BODY; a corrupt length field fails fast as a
#: typed error instead of a multi-gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_FLAG_TRACE = 0x01

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1


# ----------------------------------------------------------------------
# Tagged values
# ----------------------------------------------------------------------
def encode_value(value: Any, out: List[bytes]) -> None:
    """Append the tagged encoding of ``value`` to ``out``.

    Accepts the JSON-object universe (None/bool/int/float/str/list/
    dict) plus ``bytes`` and ``numpy.ndarray`` of a floating dtype no
    wider than float64 (sent as float64, which widens it exactly);
    numpy scalars degrade to their Python equivalents.  Anything else —
    an int, bool, complex or object array included — raises
    :class:`FrameError`: the wire format never guesses.
    """
    if value is None:
        out.append(b"Z")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int) and not isinstance(value, bool):
        if _I64_MIN <= value <= _I64_MAX:
            out.append(b"i")
            out.append(_I64.pack(value))
        else:
            digits = str(value).encode("ascii")
            out.append(b"I")
            out.append(_U32.pack(len(digits)))
            out.append(digits)
    elif isinstance(value, float):
        out.append(b"f")
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"s")
        out.append(_U32.pack(len(data)))
        out.append(data)
    elif isinstance(value, (bytes, bytearray)):
        out.append(b"b")
        out.append(_U32.pack(len(value)))
        out.append(bytes(value))
    elif isinstance(value, np.ndarray):
        # float16/32/64 widen to float64 exactly; ints above 2**53,
        # complex, bool and object arrays would not survive the block.
        if value.dtype.kind != "f" or value.dtype.itemsize > 8:
            raise FrameError(f"array dtype {value.dtype} is not encodable "
                             f"on the wire (float64 or narrower only)")
        array = np.asarray(value, dtype=">f8")
        if array.ndim > 255:
            raise FrameError(f"array rank {array.ndim} exceeds 255")
        out.append(b"a")
        out.append(bytes((array.ndim,)))
        for dim in array.shape:
            out.append(_U32.pack(dim))
        out.append(array.tobytes())
    elif isinstance(value, (list, tuple)):
        out.append(b"l")
        out.append(_U32.pack(len(value)))
        for item in value:
            encode_value(item, out)
    elif isinstance(value, dict):
        out.append(b"d")
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise FrameError(
                    f"frame dict keys must be str, got {type(key).__name__}")
            data = key.encode("utf-8")
            out.append(_U32.pack(len(data)))
            out.append(data)
            encode_value(item, out)
    elif isinstance(value, (np.integer, np.floating, np.bool_)):
        encode_value(value.item(), out)
    else:
        raise FrameError(
            f"type {type(value).__name__} is not encodable on the wire")


class _Reader:
    """Bounds-checked cursor over one frame's payload bytes."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise FrameError(
                f"truncated frame: wanted {count} bytes at offset "
                f"{self.pos}, only {len(self.data) - self.pos} remain")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]


def decode_value(reader: _Reader) -> Any:
    """Decode one tagged value at the reader's cursor."""
    tag = reader.take(1)
    if tag == b"Z":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"i":
        return _I64.unpack(reader.take(8))[0]
    if tag == b"I":
        digits = reader.take(reader.u32())
        try:
            return int(digits.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise FrameError(f"corrupt big-int digits: {exc}") from exc
    if tag == b"f":
        return _F64.unpack(reader.take(8))[0]
    if tag == b"s":
        data = reader.take(reader.u32())
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError(f"corrupt string: {exc}") from exc
    if tag == b"b":
        return reader.take(reader.u32())
    if tag == b"a":
        ndim = reader.take(1)[0]
        shape = tuple(reader.u32() for _ in range(ndim))
        count = 1
        for dim in shape:
            count *= dim
        if count * 8 > MAX_FRAME_BYTES:
            raise FrameError(f"array of shape {shape} exceeds the frame "
                             f"size bound")
        raw = reader.take(count * 8)
        return np.frombuffer(raw, dtype=">f8").astype("=f8").reshape(shape)
    if tag == b"l":
        return [decode_value(reader) for _ in range(reader.u32())]
    if tag == b"d":
        result: Dict[str, Any] = {}
        for _ in range(reader.u32()):
            key_data = reader.take(reader.u32())
            try:
                key = key_data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FrameError(f"corrupt dict key: {exc}") from exc
            result[key] = decode_value(reader)
        return result
    raise FrameError(f"unknown value tag {tag!r} at offset "
                     f"{reader.pos - 1}")


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def encode_binary_frame(obj: Dict[str, Any]) -> bytes:
    """One protocol-v2 frame for a request/response wire dict.

    The dict's optional ``trace`` entry travels in the frame header
    (FLAGS bit 0) when it is a trace-context dict; everything else is
    the body, a ``trace`` of any other type included (the decoder
    accepts only a dict header).  The input dict is not mutated.
    """
    if not isinstance(obj, dict):
        raise FrameError(
            f"frame must be a dict, got {type(obj).__name__}")
    trace = obj.get("trace")
    parts: List[bytes] = []
    flags = 0
    if isinstance(trace, dict):
        flags |= _FLAG_TRACE
        encode_value(trace, parts)
        body = {key: value for key, value in obj.items() if key != "trace"}
    else:
        body = obj
    encode_value(body, parts)
    payload = b"".join(parts)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {len(payload)} bytes exceeds "
                         f"the {MAX_FRAME_BYTES}-byte bound")
    return b"".join((
        MAGIC,
        bytes((BINARY_PROTOCOL_VERSION, flags)),
        _U32.pack(len(payload)),
        payload,
        _U32.pack(zlib.crc32(payload)),
        b"\n",
    ))


def parse_prefix(prefix: bytes) -> Tuple[int, int]:
    """Validate a 7-byte frame prefix; returns ``(flags, length)``.

    ``length`` counts HEADER + BODY bytes; the caller must then read
    ``length + 5`` more bytes (payload, CRC32, terminator).
    """
    if len(prefix) < PREFIX_SIZE:
        raise FrameError(f"truncated frame prefix: {len(prefix)} of "
                         f"{PREFIX_SIZE} bytes")
    if prefix[0:1] != MAGIC:
        raise FrameError(f"bad frame magic 0x{prefix[0]:02x}")
    version = prefix[1]
    if version != BINARY_PROTOCOL_VERSION:
        raise FrameError(
            f"unsupported binary protocol version {version} "
            f"(this build speaks {BINARY_PROTOCOL_VERSION})")
    length = _U32.unpack(prefix[3:7])[0]
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds the "
                         f"{MAX_FRAME_BYTES}-byte bound")
    return prefix[2], length


def decode_binary_frame(data: bytes) -> Dict[str, Any]:
    """Decode one complete frame (prefix through CRC32) to its wire dict.

    The header's trace context, when present, is restored as the dict's
    ``trace`` entry, so callers see exactly what
    :func:`encode_binary_frame` was given.
    """
    flags, length = parse_prefix(data[:PREFIX_SIZE])
    expected = PREFIX_SIZE + length + 5
    if len(data) < expected:
        raise FrameError(f"truncated frame: {len(data)} of {expected} "
                         f"bytes")
    if len(data) > expected:
        raise FrameError(f"oversized frame: {len(data) - expected} "
                         f"trailing bytes")
    if data[expected - 1:expected] != b"\n":
        raise FrameError("frame terminator missing (corrupt framing)")
    payload = data[PREFIX_SIZE:PREFIX_SIZE + length]
    (crc,) = _U32.unpack(data[PREFIX_SIZE + length:expected - 1])
    if zlib.crc32(payload) != crc:
        raise FrameError("frame checksum mismatch (corrupt payload)")
    reader = _Reader(payload)
    trace = decode_value(reader) if flags & _FLAG_TRACE else None
    if trace is not None and not isinstance(trace, dict):
        raise FrameError(
            f"frame trace header must be a dict, "
            f"got {type(trace).__name__}")
    body = decode_value(reader)
    if reader.pos != len(payload):
        raise FrameError(f"frame payload has {len(payload) - reader.pos} "
                         f"undecoded bytes")
    if not isinstance(body, dict):
        raise FrameError(
            f"frame body must be a dict, got {type(body).__name__}")
    if trace is not None:
        body = dict(body, trace=trace)
    return body


def read_binary_frame(readable) -> bytes:
    """Read one complete frame from a blocking file-like object.

    Returns the full frame bytes; raises :class:`FrameError` on
    truncation and ``ConnectionError`` on a clean EOF before any byte
    arrives.
    """
    head = readable.read(1)
    if not head:
        raise ConnectionError("connection closed before a frame arrived")
    prefix = head + _read_exact(readable, PREFIX_SIZE - 1)
    _, length = parse_prefix(prefix)
    return prefix + _read_exact(readable, length + 5)


def _read_exact(readable, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = readable.read(remaining)
        if not chunk:
            raise FrameError(
                f"truncated frame: connection closed with {remaining} "
                f"bytes outstanding")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
