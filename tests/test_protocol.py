"""Frame codec: pinned bytes, CRC oracle, totality, stream reader."""

import math
import socket
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shmlink.protocol import (
    COUNTER_MODULUS,
    MAGIC,
    MAX_CHANNELS,
    MAX_FRAME_SIZE,
    MAX_MESSAGE_SIZE,
    BadMagic,
    CrcMismatch,
    FrameError,
    InvalidFrame,
    TelemetryFrame,
    Truncated,
    UnsupportedVersion,
    VERSION,
    decode,
    encode,
    recv_batches,
    recv_message,
    send_message,
)

# Bytes of the minimal frame, frozen before the codec was written:
# magic "SHM1", version 1, node 0, counter 0, one channel at 0.0, CRC.
EXAMPLE_FRAME_BYTES = bytes.fromhex(
    "53 48 4d 31 01 00 00 00 00 00 00 01"
    "00 00 00 00 00 00 00 00"
    "44 76 8a 7f".replace(" ", ""))


def crc32_reference(data: bytes) -> int:
    """Bitwise CRC-32 (IEEE reflected, init/xorout 0xFFFFFFFF) oracle."""
    crc = 0xFFFFFFFF
    for b in data:
        crc ^= b
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def frames(draw=None):
    return st.builds(
        TelemetryFrame,
        counter=st.integers(min_value=0, max_value=0xFFFFFFFF),
        node_id=st.integers(min_value=0, max_value=0xFFFF),
        resistances=st.lists(
            st.floats(min_value=0.0, max_value=2500.0, allow_nan=False),
            min_size=1, max_size=8).map(tuple))


# -- encoding ----------------------------------------------------------------------


def test_pinned_example_frame():
    frame = TelemetryFrame(counter=0, node_id=0, resistances=(0.0,))
    assert encode(frame) == EXAMPLE_FRAME_BYTES


def test_encoded_crc_matches_reference_oracle():
    frame = TelemetryFrame(counter=912, node_id=7, resistances=(47.0, 120.5))
    data = encode(frame)
    (stored,) = struct.unpack_from("<I", data, len(data) - 4)
    assert stored == crc32_reference(data[:-4])


def test_counter_change_touches_only_counter_and_crc():
    a = encode(TelemetryFrame(counter=0, node_id=0, resistances=(0.0,)))
    b = encode(TelemetryFrame(counter=1, node_id=0, resistances=(0.0,)))
    assert a[:7] == b[:7]
    assert a[7:11] != b[7:11]      # counter field
    assert a[11:20] == b[11:20]    # channel_count + payload
    assert a[20:] != b[20:]        # crc


def test_zero_channels_invalid():
    with pytest.raises(InvalidFrame):
        encode(TelemetryFrame(counter=0, node_id=0, resistances=()))


def test_nine_channels_invalid():
    with pytest.raises(InvalidFrame):
        encode(TelemetryFrame(counter=0, node_id=0, resistances=(0.0,) * 9))


@pytest.mark.parametrize("counter,node_id", [(2**32, 0), (0, 65536)])
def test_counter_or_node_id_past_its_field_invalid(counter, node_id):
    with pytest.raises(InvalidFrame):
        encode(TelemetryFrame(counter=counter, node_id=node_id, resistances=(0.0,)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_resistance_invalid(bad):
    with pytest.raises(InvalidFrame):
        encode(TelemetryFrame(counter=0, node_id=0, resistances=(bad,)))


# -- decoding ----------------------------------------------------------------------


@given(frames())
def test_round_trip(frame):
    assert decode(encode(frame)) == frame


@given(frames())
def test_re_encode_is_byte_identical(frame):
    data = encode(frame)
    assert encode(decode(data)) == data


def test_empty_input_truncated():
    with pytest.raises(Truncated):
        decode(b"")


def test_bad_magic():
    with pytest.raises(BadMagic):
        decode(b"XXM1" + EXAMPLE_FRAME_BYTES[4:])


def test_unsupported_version():
    data = bytearray(EXAMPLE_FRAME_BYTES)
    data[4] = 2
    with pytest.raises(UnsupportedVersion):
        decode(bytes(data))


def test_truncated_mid_payload():
    with pytest.raises(Truncated):
        decode(EXAMPLE_FRAME_BYTES[:15])


@pytest.mark.parametrize("length", range(5, 12))
def test_truncated_mid_header(length):
    with pytest.raises(Truncated, match="header needs"):
        decode(EXAMPLE_FRAME_BYTES[:length])


def test_trailing_bytes_rejected():
    with pytest.raises(InvalidFrame):
        decode(EXAMPLE_FRAME_BYTES + b"\x00")


def test_crafted_zero_channel_frame_with_valid_crc():
    # structurally well-formed and CRC-correct, but violates the invariant
    body = struct.pack("<4sBHIB", b"SHM1", 1, 0, 0, 0)
    data = body + struct.pack("<I", crc32_reference(body))
    with pytest.raises(InvalidFrame):
        decode(data)


def test_every_payload_bit_flip_is_crc_mismatch():
    frame = TelemetryFrame(counter=3, node_id=2, resistances=(47.0, 120.0))
    data = encode(frame)
    # node_id..end: everything after magic+version except channel_count byte
    payload_bytes = [i for i in range(5, len(data)) if i != 11]
    for i in payload_bytes:
        for bit in range(8):
            corrupted = bytearray(data)
            corrupted[i] ^= 1 << bit
            with pytest.raises(CrcMismatch):
                decode(bytes(corrupted))


def test_any_single_bit_flip_fails_somehow():
    data = encode(TelemetryFrame(counter=3, node_id=2, resistances=(47.0,)))
    for i in range(len(data)):
        for bit in range(8):
            corrupted = bytearray(data)
            corrupted[i] ^= 1 << bit
            with pytest.raises(FrameError):
                decode(bytes(corrupted))


@settings(max_examples=300)
@given(st.binary(max_size=200))
def test_decoder_total_over_random_bytes(data):
    try:
        decode(data)
    except FrameError:
        pass


@settings(max_examples=100)
@given(st.binary(max_size=40))
def test_decoder_total_over_magic_prefixed_bytes(data):
    try:
        decode(b"SHM1" + data)
    except FrameError:
        pass


# -- the decoder against its reference ----------------------------------------------------

# ``protocol.decode`` as it was written field by field, before it unpacked a frame in one
# call, and the ``_validate`` it called: the oracle of the tests below.
_HEADER = struct.Struct("<4sBHIB")
_CRC = struct.Struct("<I")


def _validate(frame: TelemetryFrame) -> None:
    if not 1 <= frame.channel_count <= MAX_CHANNELS:
        raise InvalidFrame(f"channel_count {frame.channel_count} outside 1..{MAX_CHANNELS}")
    if not 0 <= frame.counter < COUNTER_MODULUS:
        raise InvalidFrame(f"counter {frame.counter} does not fit u32")
    if not 0 <= frame.node_id <= 0xFFFF:
        raise InvalidFrame(f"node_id {frame.node_id} does not fit u16")
    for r in frame.resistances:
        if not math.isfinite(r) or r < 0:
            raise InvalidFrame(f"resistance {r!r} not finite and >= 0")


def reference_decode(data: bytes) -> TelemetryFrame:
    """Parse one frame from ``data``; total over arbitrary byte sequences.

    Checks run magic -> version -> structure -> CRC -> value invariants, so a
    corrupted payload always surfaces as CrcMismatch rather than a value error.
    """
    if len(data) < 4:
        raise Truncated(f"{len(data)} bytes, need at least 4 for magic")
    if data[:4] != MAGIC:
        raise BadMagic(data[:4].hex())
    if len(data) < 5:
        raise Truncated("missing version byte")
    if data[4] != VERSION:
        raise UnsupportedVersion(f"version {data[4]}")
    if len(data) < _HEADER.size:
        raise Truncated(f"{len(data)} bytes, header needs {_HEADER.size}")
    _, _, node_id, counter, channel_count = _HEADER.unpack_from(data)
    total = _HEADER.size + 8 * channel_count + _CRC.size
    if len(data) < total:
        raise Truncated(f"{len(data)} bytes, frame needs {total}")
    if len(data) > total:
        raise InvalidFrame(f"{len(data) - total} trailing bytes")
    body = data[: total - _CRC.size]
    (stored,) = _CRC.unpack_from(data, total - _CRC.size)
    if zlib.crc32(body) != stored:
        raise CrcMismatch(f"stored 0x{stored:08X}")
    resistances = struct.unpack_from(f"<{channel_count}d", data, _HEADER.size)
    frame = TelemetryFrame(counter=counter, node_id=node_id, resistances=resistances)
    _validate(frame)
    return frame


def outcome(decoder, data: bytes):
    """What ``decoder`` makes of ``data``: the frame's repr (so -0.0 counts), or its error."""
    try:
        return repr(decoder(data))
    except FrameError as exc:
        return type(exc), str(exc)


def assert_decodes_as_reference(data: bytes) -> None:
    assert outcome(decode, data) == outcome(reference_decode, data)


def crafted(channel_count: int, cells: bytes, node_id: int = 0, counter: int = 0) -> bytes:
    """A frame with any channel-count byte and any cell bytes, and a valid CRC."""
    body = _HEADER.pack(MAGIC, VERSION, node_id, counter, channel_count) + cells
    return body + _CRC.pack(zlib.crc32(body))


@settings(max_examples=300)
@given(st.binary(max_size=200))
def test_decode_matches_the_reference_on_any_bytes(data):
    assert_decodes_as_reference(data)


@settings(max_examples=300)
@given(st.sampled_from([b"SHM1", b"SHM1\x01"]), st.binary(max_size=100))
def test_decode_matches_the_reference_on_magic_prefixed_bytes(prefix, data):
    assert_decodes_as_reference(prefix + data)


@settings(max_examples=20, deadline=None)
@given(node_id=st.integers(0, 0xFFFF), counter=st.integers(0, COUNTER_MODULUS - 1),
       cell=st.floats(min_value=0.0, allow_infinity=False),
       extra=st.sampled_from([-8, -1, 0, 0, 1, 8]))
def test_decode_matches_the_reference_for_every_channel_count_byte(node_id, counter, cell,
                                                                     extra):
    """Each count 0..255 with a valid CRC, its cells the right length or ``extra`` bytes off;
    and the same frame with its CRC broken."""
    for channel_count in range(256):
        cells = struct.pack(f"<{channel_count}d", *[cell] * channel_count)
        cells = cells[:len(cells) + extra] if extra < 0 else cells + b"\x00" * extra
        data = crafted(channel_count, cells, node_id, counter)
        assert_decodes_as_reference(data)
        assert_decodes_as_reference(data[:-1] + bytes([data[-1] ^ 1]))


@settings(max_examples=300)
@given(cells=st.lists(st.one_of(st.floats().map(struct.Struct("<d").pack),
                                st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -5e-324])
                                .map(struct.Struct("<d").pack),
                                st.binary(min_size=8, max_size=8)),  # NaNs of every payload
                      min_size=1, max_size=MAX_CHANNELS),
       node_id=st.integers(0, 0xFFFF), counter=st.integers(0, COUNTER_MODULUS - 1))
def test_decode_matches_the_reference_on_nan_infinite_and_negative_cells(cells, node_id, counter):
    assert_decodes_as_reference(crafted(len(cells), b"".join(cells), node_id, counter))


# -- buffered stream reader --------------------------------------------------------------


class CutReads:
    """A socket whose reads stop at the next of the given cut sizes."""

    def __init__(self, sock, cuts):
        self._sock, self._cuts = sock, iter(cuts)

    def recv_into(self, buffer):
        return self._sock.recv_into(buffer, min(len(buffer), next(self._cuts, len(buffer))))


def test_max_frame_size_is_the_widest_frame():
    widest = TelemetryFrame(counter=0, resistances=(1.0,) * 8)
    assert MAX_FRAME_SIZE == len(encode(widest)) == 12 + 8 * 8 + 4


@settings(max_examples=100, deadline=None)
@given(messages=st.lists(st.binary(max_size=40), min_size=1, max_size=20),
       cuts=st.lists(st.integers(1, 60), max_size=40))
def test_recv_batches_yields_each_message_once_in_order(messages, cuts):
    reader, writer = socket.socketpair()
    with reader, writer:
        for m in messages:
            send_message(writer, m)
        writer.shutdown(socket.SHUT_WR)
        batches = list(recv_batches(CutReads(reader, cuts), 64))
    assert [m for batch in batches for m in batch] == messages
    assert all(batches)  # a recv that completes nothing yields nothing


def test_recv_batches_yields_a_lone_message_without_waiting():
    reader, writer = socket.socketpair()
    with reader, writer:
        reader.settimeout(5)
        send_message(writer, b"alone")
        assert next(recv_batches(reader, 64)) == [b"alone"]


def test_recv_message_refuses_a_length_past_its_cap():
    reader, writer = socket.socketpair()
    with reader, writer:
        reader.settimeout(5)
        writer.sendall(struct.pack("<I", MAX_MESSAGE_SIZE + 1))
        with pytest.raises(ValueError, match="exceeds cap"):
            recv_message(reader)


def test_recv_batches_stops_at_an_oversized_prefix():
    reader, writer = socket.socketpair()
    with reader, writer:
        reader.settimeout(5)
        send_message(writer, b"first")
        writer.sendall(struct.pack("<I", 65) + b"never read")
        assert list(recv_batches(reader, 64)) == [[b"first"]]
