"""Mask wire format, synchronous exchange and communication accounting.

Frame layout (all little-endian):

    header   magic b"GMK1" | version u8 | sender u16 | round u32
             | layer count u16 | 3 zero pad bytes            (16 bytes)
    segment  layer index u16 | entry count u32
             | ceil(count / 8) payload bytes                 (per layer)

Segments are stored in ascending layer order. Payload bits are packed
LSB-first and padding bits up to the byte boundary must be zero; decoding
rejects any frame violating the layout.

Cost accounting follows the 1-bit-per-mask-entry vs 32-bit-per-real
convention: a mask transmission costs one payload bit per entry, a
real-valued transmission 32 bits per entry. Header and padding overhead is
tracked separately so payload comparisons stay exact, and is counted from
the frame's bytes: the layout above lives only in the struct formats,
``to_bytes`` and ``from_bytes``. Every transmission is unicast: an agent
sending to d neighbors pays d times.
"""

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MaskFrame",
    "CommLedger",
    "ProtocolError",
    "SimulationError",
    "encode_mask",
    "decode_mask",
    "account_real_bits",
    "exchange",
]

MAGIC = b"GMK1"
VERSION = 1
SENDER_BITS = 16   # width of the header's sender field: agent ids must fit
_HEADER = struct.Struct("<4sBHIH3x")
_SEGMENT = struct.Struct("<HI")


class ProtocolError(Exception):
    pass


class SimulationError(Exception):
    pass


@dataclass(frozen=True)
class MaskFrame:
    """One agent's full mask set for one round, ready for the wire.

    ``segments`` is a tuple of (layer index, entry count, packed payload
    bytes) in ascending layer order.
    """

    sender: int
    round_index: int
    segments: tuple

    def payload_bits(self):
        """One bit per mask entry, padding excluded."""
        return int(sum(count for _, count, _ in self.segments))

    def header_bits(self):
        """Everything that is not a mask entry: frame header, segment
        headers and padding bits, counted from the bytes."""
        return 8 * len(self.to_bytes()) - self.payload_bits()

    def to_bytes(self):
        out = [_HEADER.pack(MAGIC, VERSION, self.sender, self.round_index,
                            len(self.segments))]
        for layer, count, payload in self.segments:
            out.append(_SEGMENT.pack(layer, count))
            out.append(payload)
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data):
        if len(data) < _HEADER.size:
            raise ProtocolError(f"frame truncated at {len(data)} bytes")
        magic, version, sender, round_index, nseg = _HEADER.unpack_from(data, 0)
        if magic != MAGIC:
            raise ProtocolError(f"bad magic {magic!r}")
        if version != VERSION:
            raise ProtocolError(f"unsupported version {version}")
        pos = _HEADER.size
        segments = []
        last_layer = -1
        for _ in range(nseg):
            if pos + _SEGMENT.size > len(data):
                raise ProtocolError(f"segment header truncated at byte {pos}")
            layer, count = _SEGMENT.unpack_from(data, pos)
            pos += _SEGMENT.size
            if layer <= last_layer:
                raise ProtocolError(f"segment layer {layer}: not in ascending order")
            last_layer = layer
            nbytes = (count + 7) // 8
            if pos + nbytes > len(data):
                raise ProtocolError(f"segment layer {layer}: payload truncated")
            segments.append((layer, count, data[pos:pos + nbytes]))
            pos += nbytes
        if pos != len(data):
            raise ProtocolError(f"{len(data) - pos} trailing bytes after last segment")
        return cls(sender, round_index, tuple(segments))


def _check_field(name, value, bits):
    if not 0 <= value < 1 << bits:
        raise ValueError(
            f"{name} {value} does not fit its u{bits} field [0, {(1 << bits) - 1}]")


def encode_mask(mask_set, sender, round_index):
    """Bit-pack a mask set into a :class:`MaskFrame` (LSB-first, zero
    padding, segments in ascending layer order). A bool mask is packed as
    it is; any other mask must hold only 0 and 1. A header field out of
    its wire range, or a non-binary entry, raises ValueError naming the
    field or layer."""
    _check_field("sender", sender, SENDER_BITS)
    _check_field("round index", round_index, 32)
    _check_field("layer count", len(mask_set), 16)
    segments = []
    for layer in sorted(mask_set):
        _check_field("layer index", layer, 16)
        bits = np.asarray(mask_set[layer]).ravel()
        _check_field(f"layer {layer} entry count", bits.size, 32)
        if bits.dtype != bool:
            if not ((bits == 0) | (bits == 1)).all():
                raise ValueError(f"layer {layer}: mask entries must be 0 or 1")
            bits = bits.astype(np.uint8)
        payload = np.packbits(bits, bitorder="little").tobytes()
        segments.append((int(layer), int(bits.size), payload))
    return MaskFrame(int(sender), int(round_index), tuple(segments))


def decode_mask(frame, expected_shapes):
    """Inverse of :func:`encode_mask`, validated against the expected
    per-layer shapes: each layer's wire bits unpacked as uint8 (one byte
    per entry) in its shape. Rejects count mismatches and nonzero padding
    bits."""
    expected = {int(k): tuple(v) for k, v in expected_shapes.items()}
    got = [layer for layer, _, _ in frame.segments]
    if sorted(got) != sorted(expected):
        raise ProtocolError(
            f"frame layers {sorted(got)} do not match expected {sorted(expected)}")
    masks = {}
    for layer, count, payload in frame.segments:
        shape = expected[layer]
        want = int(np.prod(shape))
        if count != want:
            raise ProtocolError(
                f"segment layer {layer}: {count} entries, expected {want}")
        if len(payload) != (count + 7) // 8:
            raise ProtocolError(f"segment layer {layer}: payload length mismatch")
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8),
                             bitorder="little")
        if bits[count:].any():
            raise ProtocolError(f"segment layer {layer}: nonzero padding bits")
        masks[layer] = bits[:count].reshape(shape)
    return masks


def account_real_bits(params):
    """Payload cost of a real-valued tensor set: 32 bits per entry."""
    return int(sum(np.asarray(p).size for p in params.values())) * 32


class CommLedger:
    """Per-agent, per-round bit accounting.

    For every transmission the sender is charged once per receiver and each
    receiver is charged once; total bits received therefore always equal
    total bits sent. Payload and header bits are tracked separately.
    """

    def __init__(self):
        # round -> agent -> [sent_payload, sent_header, recv_payload, recv_header]
        self.per_round = {}
        self._totals = (0, 0, 0, 0)     # the same four, summed over everything

    def _slot(self, round_index, agent):
        return self.per_round.setdefault(round_index, {}).setdefault(
            agent, [0, 0, 0, 0])

    def add_transmission(self, round_index, sender, receivers, payload_bits,
                         header_bits=0):
        receivers = list(receivers)
        sent = (payload_bits * len(receivers), header_bits * len(receivers))
        slot = self._slot(round_index, sender)
        slot[0] += sent[0]
        slot[1] += sent[1]
        for r in receivers:
            rslot = self._slot(round_index, int(r))
            rslot[2] += payload_bits
            rslot[3] += header_bits
        self._totals = tuple(t + b for t, b in zip(self._totals, sent + sent))

    def totals(self):
        """Cumulative (sent_payload, sent_header, recv_payload, recv_header)
        over all rounds, kept as a running sum: every bit sent is received
        once, so the received sums grow by the sent ones."""
        return self._totals


def exchange(graph, outbox, ledger=None):
    """Synchronous frame exchange over a graph.

    ``outbox`` maps every agent id of the graph, and no other, to its frame;
    agent i's inbox holds the frames of exactly its neighbors, in ascending
    sender order regardless of delivery schedule. A missing outbox entry
    violates the synchronous barrier. When a ledger is given, each sender is
    charged once per neighbor under the frame's round index.
    """
    missing = [i for i in range(graph.n) if i not in outbox]
    if missing:
        raise SimulationError(
            f"synchronous barrier violated: no frame from agents {missing}")
    strangers = sorted(set(outbox) - set(range(graph.n)))
    if strangers:
        raise SimulationError(f"frames from agents {strangers} outside the graph")
    for i, frame in outbox.items():
        if frame.sender != i:
            raise SimulationError(
                f"outbox slot {i} holds a frame from sender {frame.sender}")
    rounds = {frame.round_index for frame in outbox.values()}
    if len(rounds) != 1:
        raise SimulationError(f"mixed round indices in outbox: {sorted(rounds)}")
    inbox = {i: [outbox[int(j)] for j in graph.neighbors[i]] for i in range(graph.n)}
    if ledger is not None:
        round_index = rounds.pop()
        for i in range(graph.n):
            frame = outbox[i]
            ledger.add_transmission(round_index, i, graph.neighbors[i],
                                    frame.payload_bits(), frame.header_bits())
    return inbox
