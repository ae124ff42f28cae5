import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipmask import (CommLedger, MaskFrame, ProtocolError, SimulationError,
                        account_real_bits, decode_mask, encode_mask, exchange,
                        ring)


def random_mask_set(rng, max_layers=3, max_entries=64):
    masks = {}
    for layer in range(int(rng.integers(1, max_layers + 1))):
        n = int(rng.integers(1, max_entries + 1))
        masks[layer] = (rng.random(n) < 0.5).astype(np.float64)
    return masks


# ------------------------------------------------------------------ codec

def test_lsb_first_packing():
    frame = encode_mask({0: np.array([1.0, 0, 0, 0, 0, 0, 0, 1.0])}, 0, 0)
    assert frame.segments[0][2] == bytes([0x81])


def test_empty_mask_set_is_header_only():
    frame = encode_mask({}, sender=3, round_index=9)
    data = frame.to_bytes()
    assert len(data) == 16
    assert frame.payload_bits() == 0
    back = MaskFrame.from_bytes(data)
    assert back.sender == 3 and back.round_index == 9 and back.segments == ()


def test_round_trip_random_masks():
    rng = np.random.default_rng(0)
    for _ in range(50):
        masks = random_mask_set(rng)
        frame = encode_mask(masks, 1, 2)
        wire = MaskFrame.from_bytes(frame.to_bytes())
        decoded = decode_mask(wire, {k: v.shape for k, v in masks.items()})
        for k in masks:
            assert decoded[k].dtype == np.uint8
            assert np.array_equal(decoded[k], masks[k])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31), st.integers(1, 4))
def test_round_trip_property(seed, layers):
    rng = np.random.default_rng(seed)
    masks = {}
    for layer in range(layers):
        shape = tuple(int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 4))))
        masks[layer] = (rng.random(shape) < 0.5).astype(np.float64)
    frame = MaskFrame.from_bytes(encode_mask(masks, 0, 0).to_bytes())
    decoded = decode_mask(frame, {k: v.shape for k, v in masks.items()})
    for k in masks:
        assert np.array_equal(decoded[k], masks[k])


def test_tampered_padding_rejected():
    masks = {0: np.ones(5)}  # 3 padding bits
    frame = encode_mask(masks, 0, 0)
    tampered = MaskFrame(0, 0, ((0, 5, bytes([frame.segments[0][2][0] | 0x80])),))
    with pytest.raises(ProtocolError, match="padding"):
        decode_mask(tampered, {0: (5,)})


def test_count_mismatch_rejected():
    frame = encode_mask({0: np.ones(100)}, 0, 0)
    with pytest.raises(ProtocolError, match="layer 0"):
        decode_mask(frame, {0: (99,)})


def test_layer_set_mismatch_rejected():
    frame = encode_mask({0: np.ones(4)}, 0, 0)
    with pytest.raises(ProtocolError):
        decode_mask(frame, {0: (4,), 1: (4,)})


def test_bad_magic_and_version():
    data = encode_mask({0: np.ones(8)}, 0, 0).to_bytes()
    with pytest.raises(ProtocolError, match="magic"):
        MaskFrame.from_bytes(b"XXXX" + data[4:])
    with pytest.raises(ProtocolError, match="version"):
        MaskFrame.from_bytes(data[:4] + bytes([99]) + data[5:])


def test_truncated_frame_rejected():
    data = encode_mask({0: np.ones(8)}, 0, 0).to_bytes()
    with pytest.raises(ProtocolError):
        MaskFrame.from_bytes(data[:-1])
    with pytest.raises(ProtocolError):
        MaskFrame.from_bytes(data[:10])


def test_trailing_bytes_rejected():
    data = encode_mask({0: np.ones(8)}, 0, 0).to_bytes()
    with pytest.raises(ProtocolError, match="trailing"):
        MaskFrame.from_bytes(data + b"\x00")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31),
       st.lists(st.tuples(st.sampled_from(("flip", "truncate", "insert")),
                          st.integers(0, 2 ** 16), st.integers(1, 255)),
                min_size=1, max_size=4))
def test_mutated_frames_raise_only_protocol_error(seed, edits):
    rng = np.random.default_rng(seed)
    masks = random_mask_set(rng, max_layers=4, max_entries=40)
    shapes = {k: v.shape for k, v in masks.items()}
    data = bytearray(encode_mask(masks, int(rng.integers(0, 9)), 5).to_bytes())
    for op, pos, byte in edits:
        pos %= len(data) + 1
        if op == "flip" and pos < len(data):
            data[pos] ^= byte
        elif op == "truncate":
            del data[pos:]
        elif op == "insert":
            data.insert(pos, byte)
    try:
        decoded = decode_mask(MaskFrame.from_bytes(bytes(data)), shapes)
    except ProtocolError:
        return
    # a mutation the codec accepts (a flipped payload or header bit) still
    # yields a well-formed mask set
    for layer, shape in shapes.items():
        assert decoded[layer].shape == shape
        assert ((decoded[layer] == 0) | (decoded[layer] == 1)).all()


def test_non_binary_mask_rejected():
    for bad in (0.5, np.nan, np.inf, -np.inf, 2.0, -1.0):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            encode_mask({0: np.array([bad, 1.0])}, 0, 0)
    # -0.0 is a zero entry
    frame = encode_mask({0: np.array([-0.0, 1.0])}, 0, 0)
    np.testing.assert_array_equal(decode_mask(frame, {0: (2,)})[0], [0.0, 1.0])


def test_bool_mask_encodes_as_its_float_copy():
    rng = np.random.default_rng(11)
    masks = {layer: rng.random(shape) < 0.5
             for layer, shape in ((0, (4, 3, 3, 3)), (2, (9,)), (5, (2, 13)))}
    floats = {layer: m.astype(np.float64) for layer, m in masks.items()}
    assert (encode_mask(masks, 3, 7).to_bytes()
            == encode_mask(floats, 3, 7).to_bytes())
    # the bool fast path leaves the float check in place, naming the layer
    for bad in (0.5, np.nan):
        layer2 = floats[2].copy()
        layer2[4] = bad
        with pytest.raises(ValueError, match="^layer 2: mask entries must be 0 or 1$"):
            encode_mask({0: masks[0], 2: layer2, 5: masks[5]}, 3, 7)


# ------------------------------------------------------------- accounting

def test_account_bits():
    masks = {0: np.ones(600), 1: np.ones(400)}
    assert encode_mask(masks, 0, 0).payload_bits() == 1000
    params = {0: np.zeros(600), 1: np.zeros(400)}
    assert account_real_bits(params) == 32000
    assert encode_mask({}, 0, 0).payload_bits() == 0
    assert account_real_bits({}) == 0


@pytest.mark.parametrize("masks, sender, round_index, field", [
    ({0: np.ones((2, 2))}, 70000, 0, "sender"),
    ({0: np.ones((2, 2))}, -1, 0, "sender"),
    ({0: np.ones((2, 2))}, 1, 2 ** 32, "round index"),
    ({0: np.ones((2, 2))}, 1, -1, "round index"),
    ({70000: np.ones(3)}, 1, 0, "layer index"),
    ({-1: np.ones(3)}, 1, 0, "layer index"),
])
def test_header_field_out_of_range_rejected(masks, sender, round_index, field):
    with pytest.raises(ValueError, match=field):
        encode_mask(masks, sender, round_index)


def test_layer_count_out_of_range_rejected():
    with pytest.raises(ValueError, match="layer count"):
        encode_mask({layer: np.ones(1) for layer in range(2 ** 16)}, 0, 0)


def test_header_field_limits_accepted():
    frame = encode_mask({65535: np.ones(3)}, 65535, 2 ** 32 - 1)
    back = MaskFrame.from_bytes(frame.to_bytes())
    assert (back.sender, back.round_index) == (65535, 2 ** 32 - 1)
    assert back.segments[0][0] == 65535


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31), st.integers(0, 5))
def test_header_bits_match_serialized_length(seed, layers):
    rng = np.random.default_rng(seed)
    masks = {int(layer): (rng.random(int(rng.integers(1, 40))) < 0.5).astype(float)
             for layer in rng.choice(1000, layers, replace=False)}
    frame = encode_mask(masks, int(rng.integers(2 ** 16)), int(rng.integers(2 ** 32)))
    assert frame.header_bits() == len(frame.to_bytes()) * 8 - frame.payload_bits()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=3),
                max_size=5))
def test_header_bits_follow_the_documented_layout(shapes):
    # a 16-byte frame header, a 6-byte header per segment and the padding
    # bits up to each payload's byte boundary
    masks = {layer: np.ones(shape) for layer, shape in enumerate(shapes)}
    frame = encode_mask(masks, 1, 2)
    padding = sum(-int(np.prod(shape)) % 8 for shape in shapes)
    assert frame.header_bits() == 8 * (16 + 6 * len(shapes)) + padding


def test_header_bits_separate_from_payload():
    masks = {0: np.ones(5), 1: np.ones(16)}
    frame = encode_mask(masks, 0, 0)
    assert frame.payload_bits() == 21
    # 16-byte header + 2 * 6-byte segment headers + 1 + 2 payload bytes
    assert len(frame.to_bytes()) == 31
    assert frame.header_bits() == 31 * 8 - 21


# --------------------------------------------------------------- exchange

def make_outbox(graph, round_index=1, entries=12):
    rng = np.random.default_rng(7)
    return {i: encode_mask({0: (rng.random(entries) < 0.5).astype(float)},
                           i, round_index)
            for i in range(graph.n)}


def test_exchange_complete_graph():
    from gossipmask import erdos_renyi
    g = erdos_renyi(3, 1.0, 0)
    inbox = exchange(g, make_outbox(g))
    assert all(len(inbox[i]) == 2 for i in range(3))


def test_exchange_ring_order():
    g = ring(4)
    inbox = exchange(g, make_outbox(g))
    assert [f.sender for f in inbox[0]] == [1, 3]
    assert [f.sender for f in inbox[2]] == [1, 3]


def test_exchange_missing_frame():
    g = ring(4)
    outbox = make_outbox(g)
    del outbox[2]
    with pytest.raises(SimulationError, match="barrier"):
        exchange(g, outbox)


def test_exchange_rejects_frames_from_outside_the_graph():
    # nothing could deliver or charge these frames, so they are not dropped
    g = ring(3)
    outbox = make_outbox(g)
    for i in (7, 3):
        outbox[i] = encode_mask({0: np.ones(12)}, i, 1)
    ledger = CommLedger()
    with pytest.raises(SimulationError,
                       match=r"^frames from agents \[3, 7\] outside the graph$"):
        exchange(g, outbox, ledger)
    assert ledger.totals() == (0, 0, 0, 0)


def test_exchange_sender_mismatch():
    g = ring(3)
    outbox = make_outbox(g)
    outbox[0] = outbox[1]
    with pytest.raises(SimulationError):
        exchange(g, outbox)


def test_exchange_mixed_rounds():
    g = ring(3)
    outbox = make_outbox(g)
    outbox[1] = encode_mask({0: np.ones(12)}, 1, 5)
    with pytest.raises(SimulationError, match="mixed round"):
        exchange(g, outbox)


def test_ledger_conservation():
    g = ring(5)
    ledger = CommLedger()
    exchange(g, make_outbox(g, round_index=1), ledger)
    exchange(g, make_outbox(g, round_index=2), ledger)
    sp, sh, rp, rh = ledger.totals()
    assert sp == rp and sh == rh
    assert sp > 0


def test_ledger_per_round_payload_formula():
    from gossipmask import erdos_renyi
    g = erdos_renyi(6, 0.6, 2)
    ledger = CommLedger()
    entries = 12
    exchange(g, make_outbox(g, entries=entries), ledger)
    sent = sum(slot[0] for slot in ledger.per_round[1].values())
    assert sent == int(g.degrees.sum()) * entries


def test_ledger_totals_accumulate():
    g = ring(3)
    ledger = CommLedger()
    exchange(g, make_outbox(g, round_index=1), ledger)
    first = ledger.totals()[0]
    exchange(g, make_outbox(g, round_index=2), ledger)
    assert ledger.totals()[0] == 2 * first


def test_ledger_totals_are_the_sum_of_the_round_totals():
    # totals() is a running sum; it must equal summing every round's
    # per-agent slots afresh
    g = ring(7)
    rng = np.random.default_rng(0)
    ledger = CommLedger()
    for _ in range(200):
        round_index = int(rng.integers(0, 40))
        sender = int(rng.integers(0, g.n))
        ledger.add_transmission(round_index, sender, g.neighbors[sender],
                                int(rng.integers(0, 10 ** 6)), int(rng.integers(0, 200)))
    summed = [sum(slot[i] for agents in ledger.per_round.values()
                  for slot in agents.values()) for i in range(4)]
    assert ledger.totals() == tuple(summed)
    assert summed[0] == summed[2] and summed[1] == summed[3]


def test_mask_to_real_ratio_is_exactly_one_over_32():
    shapes = {0: np.ones((16, 3, 5, 5)), 1: np.ones((32, 16, 5, 5))}
    assert encode_mask(shapes, 0, 0).payload_bits() * 32 == account_real_bits(shapes)
