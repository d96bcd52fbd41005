"""Frame codec: pinned bytes, CRC oracle, totality, link simulation."""

import math
import random
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shmlink.protocol import (
    MAX_FRAME_SIZE,
    MAX_MESSAGE_SIZE,
    BadMagic,
    CrcMismatch,
    Delivery,
    FrameError,
    InvalidFrame,
    LinkConfig,
    TelemetryFrame,
    Truncated,
    UnsupportedVersion,
    decode,
    encode,
    link_send,
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


# -- link simulation -----------------------------------------------------------------


def test_delivery_time_from_size_and_throughput():
    frame = TelemetryFrame(counter=0, node_id=0, resistances=(1.0, 2.0))
    config = LinkConfig(throughput=2e6, loss=0.0, latency=0.0)
    delivery = link_send(frame, config, now=5.0, rng=random.Random(0))
    size = len(encode(frame))
    assert delivery.time == pytest.approx(5.0 + size * 8 / 2e6)
    # a 30-byte message at 2 Mbit/s takes 1.2e-4 s
    assert 30 * 8 / config.throughput == pytest.approx(1.2e-4)


def test_latency_adds_exactly():
    frame = TelemetryFrame(counter=0, node_id=0, resistances=(1.0,))
    rng = random.Random(0)
    base = link_send(frame, LinkConfig(latency=0.0), now=0.0, rng=rng).time
    slow = link_send(frame, LinkConfig(latency=0.05), now=0.0, rng=rng).time
    assert slow - base == pytest.approx(0.05)


def test_full_loss_always_drops():
    frame = TelemetryFrame(counter=0, node_id=0, resistances=(1.0,))
    rng = random.Random(1)
    assert all(link_send(frame, LinkConfig(loss=1.0), now=float(i), rng=rng) is None
               for i in range(50))


def test_lossless_link_preserves_counter_order():
    config, rng = LinkConfig(loss=0.0, latency=0.003), random.Random(0)
    deliveries = []
    for i in range(100):
        frame = TelemetryFrame(counter=i, node_id=1, resistances=(47.0, 120.0))
        deliveries.append(link_send(frame, config, now=i * 0.01, rng=rng))
    times = [d.time for d in deliveries]
    counters = [decode(d.data).counter for d in deliveries]
    assert times == sorted(times)
    assert counters == list(range(100))


def test_loss_probability_seeded_and_plausible():
    frame = TelemetryFrame(counter=0, node_id=0, resistances=(1.0,))

    def run(seed):
        config, rng = LinkConfig(loss=0.3), random.Random(seed)
        return [link_send(frame, config, now=0.0, rng=rng) is None for _ in range(1000)]

    outcomes = run(5)
    assert outcomes == run(5)
    assert 0.2 < sum(outcomes) / len(outcomes) < 0.4


def test_invalid_link_config():
    with pytest.raises(ValueError):
        LinkConfig(throughput=0.0)
    with pytest.raises(ValueError):
        LinkConfig(loss=1.5)
    for fields in ({"throughput": math.nan}, {"loss": math.nan},
                   {"latency": -1.0}, {"latency": math.nan}):
        with pytest.raises(ValueError):
            LinkConfig(**fields)


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
