"""Bit-exact telemetry framing for the emulated low-energy radio link.

Frame layout, little-endian throughout:

    offset  size  field
    0       4     magic, ASCII "SHM1"
    4       1     version, 0x01
    5       2     node_id, u16
    7       4     counter, u32
    11      1     channel_count, u8 (1..8)
    12      8*n   resistances, f64 each
    12+8n   4     CRC-32 (IEEE reflected, init/xorout 0xFFFFFFFF) over all
                  preceding bytes

Frames travel over TCP, one frame per length-prefixed message (u32 LE
length); :func:`link_send` models the radio link's budget and losses.  Both TCP
listeners read their streams through :func:`recv_batches`, one ``recv`` per
arrival, which yields every message that ``recv`` completed; request/response
clients read one reply with :func:`recv_message`.  The decoder is
total: any byte sequence yields a frame or a :class:`FrameError`, never a
crash.  The TCP services (gateway node intake, inference server) share one
listen / accept / stop loop, :func:`listen` plus :func:`serve_connections`.

Example:
    >>> from shmlink.protocol import TelemetryFrame, encode, decode
    >>> frame = TelemetryFrame(counter=0, node_id=0, resistances=(0.0,))
    >>> encode(frame).hex(" ")
    '53 48 4d 31 01 00 00 00 00 00 00 01 00 00 00 00 00 00 00 00 44 76 8a 7f'
    >>> decode(encode(frame)) == frame
    True
"""

from __future__ import annotations

import logging
import math
import socket
import struct
import threading
import zlib
from dataclasses import dataclass

log = logging.getLogger(__name__)

MAGIC = b"SHM1"
VERSION = 1
MAX_CHANNELS = 8
COUNTER_MODULUS = 1 << 32  # the u32 frame counter wraps to 0 here
_HEADER = struct.Struct("<4sBHIB")  # magic, version, node_id, counter, channel_count
_CRC = struct.Struct("<I")
MAX_FRAME_SIZE = _HEADER.size + 8 * MAX_CHANNELS + _CRC.size  # the widest frame, in bytes


class FrameError(Exception):
    """Base class for encode/decode failures."""


class InvalidFrame(FrameError):
    """Frame invariants violated (channel count, non-finite or negative R)."""


class BadMagic(FrameError):
    pass


class UnsupportedVersion(FrameError):
    pass


class Truncated(FrameError):
    pass


class CrcMismatch(FrameError):
    pass


@dataclass(frozen=True)
class TelemetryFrame:
    """One telemetry message: node counter plus per-channel resistances (ohm)."""

    counter: int
    resistances: tuple[float, ...]
    node_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "resistances", tuple(float(r) for r in self.resistances))

    @property
    def channel_count(self) -> int:
        return len(self.resistances)


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


def encode(frame: TelemetryFrame) -> bytes:
    """Serialize a frame; raises InvalidFrame if its invariants do not hold."""
    _validate(frame)
    body = _HEADER.pack(MAGIC, VERSION, frame.node_id, frame.counter, frame.channel_count)
    body += struct.pack(f"<{frame.channel_count}d", *frame.resistances)
    return body + _CRC.pack(zlib.crc32(body))


def decode(data: bytes) -> TelemetryFrame:
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


# -- link simulation -----------------------------------------------------------


@dataclass
class LinkConfig:
    """Radio link budget: bit rate (bit/s), drop probability, latency (s).

    Each frame is delayed by its own serialization time at ``throughput``;
    frames do not queue, so two sent at one ``now`` arrive together.
    """

    throughput: float = 2_000_000.0
    loss: float = 0.0
    latency: float = 0.0

    def __post_init__(self):
        if not self.throughput > 0:  # the nots also refuse nan
            raise ValueError("throughput must be > 0")
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError("loss must be within [0, 1]")
        if not self.latency >= 0:
            raise ValueError("latency must be >= 0")


@dataclass(frozen=True)
class Delivery:
    """A frame that survived the link, due at ``time`` (seconds)."""

    time: float
    data: bytes


def link_send(frame: TelemetryFrame, config: LinkConfig, now: float, rng) -> Delivery | None:
    """Push one frame onto the simulated link.

    Returns the delivery event at ``now + latency + bits/throughput``, or
    None when the link dropped the frame (probability ``config.loss``, drawn
    from ``rng``, anything with a ``random()`` in [0, 1), so a seeded
    generator repeats the losses).
    """
    data = encode(frame)
    if config.loss > 0.0 and rng.random() < config.loss:
        return None
    return Delivery(time=now + config.latency + len(data) * 8 / config.throughput, data=data)


# -- length-prefixed TCP transport ----------------------------------------------

MAX_MESSAGE_SIZE = 64 * 1024 * 1024
READ_SIZE = 64 * 1024  # bytes asked of one recv by recv_batches
_LENGTH = struct.Struct("<I")


class ConnectionClosed(Exception):
    pass


def send_message(sock: socket.socket, payload: bytes) -> None:
    """Write one u32-LE length-prefixed message."""
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def recv_message(sock: socket.socket) -> bytes:
    """Read one u32-LE length-prefixed message; raises ConnectionClosed on EOF."""
    header = _recv_exact(sock, 4)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_MESSAGE_SIZE:
        raise ValueError(f"message length {length} exceeds cap {MAX_MESSAGE_SIZE}")
    return _recv_exact(sock, length)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosed(f"peer closed with {remaining} bytes outstanding")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_batches(sock: socket.socket, max_size: int):
    """Yield, per read of up to READ_SIZE bytes, the list of messages it completed.

    A message is yielded as soon as its last byte has arrived, so a lone
    message never waits for more bytes.  The stream ends at EOF, on a socket
    error, or at a length prefix above ``max_size`` (logged), after the
    messages before that prefix were yielded; the rest is never read.
    """
    chunk = memoryview(bytearray(READ_SIZE))  # every read lands here: no allocation per recv
    buf = bytearray()
    while True:
        try:
            n = sock.recv_into(chunk)
        except OSError:
            return  # shut down by the owner, or reset by the peer
        if not n:
            return
        buf += chunk[:n]
        messages, start, end = [], 0, len(buf)
        while end - start >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(buf, start)
            if length > max_size:
                if messages:
                    yield messages
                log.warning("message length %d exceeds cap %d; closing the stream",
                            length, max_size)
                return
            stop = start + _LENGTH.size + length
            if stop > end:
                break
            messages.append(bytes(buf[start + _LENGTH.size:stop]))
            start = stop
        if messages:
            del buf[:start]
            yield messages


# -- listening services ----------------------------------------------------------

DEFAULT_HOST = "127.0.0.1"  # where the inference server listens and the gateway sends
DEFAULT_PORT = 7420
LISTEN_BACKLOG = 32
ACCEPT_POLL_S = 0.2   # how often the accept loop looks at its stop event
JOIN_TIMEOUT_S = 5.0  # per handler thread, on stop


def parse_endpoint(text: str) -> tuple[str, int]:
    """``host:port`` as ``(host, port)``; ValueError unless the port is in 1..65535."""
    host, _, port = text.rpartition(":")
    if not (host and port.isascii() and port.isdigit() and 1 <= int(port) <= 65535):
        raise ValueError(f"{text!r} is not host:port with a port in 1..65535")
    return host, int(port)


def listen(host: str, port: int) -> socket.socket:
    """A listening TCP socket with ``SO_REUSEADDR`` on POSIX; raises on an unbindable address."""
    return socket.create_server((host, port), backlog=LISTEN_BACKLOG)


def serve_connections(listener: socket.socket, handle, stop: threading.Event) -> None:
    """Accept connections until ``stop`` is set; ``handle(conn)`` runs on one
    daemon thread per connection, which closes ``conn`` when it returns.

    On stop every open connection is shut down, which wakes a handler blocked
    in ``recv`` or ``sendall``, and every handler thread is joined (at most
    JOIN_TIMEOUT_S each) before this returns.  The owner closes the listener
    afterwards; shutting it down before that also ends the loop, at once.
    """
    lock = threading.Lock()  # guards open_conns
    open_conns: set[socket.socket] = set()
    handlers: list[threading.Thread] = []

    def run(conn: socket.socket) -> None:
        try:
            handle(conn)
        finally:
            with lock:
                open_conns.discard(conn)
            conn.close()

    listener.settimeout(ACCEPT_POLL_S)
    try:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed or shut down
            with lock:
                open_conns.add(conn)
            handlers = [t for t in handlers if t.is_alive()]
            handler = threading.Thread(target=run, args=(conn,), daemon=True)
            handler.start()
            handlers.append(handler)
    finally:
        with lock:  # a handler cannot close its connection while it is shut down
            for conn in open_conns:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        for handler in handlers:
            handler.join(timeout=JOIN_TIMEOUT_S)
