"""The mask wire format and what collaboration costs.

Masks cross the wire bit-packed: one bit per parameter, LSB-first, with a
16-byte frame header and a 6-byte header per layer segment. Real-valued
baselines pay 32 bits per parameter, so mask payloads are exactly 1/32 of
weight payloads for identical shapes.
"""

import numpy as np

from gossipmask import (CommLedger, MaskFrame, account_real_bits, decode_mask,
                        desk_arch, encode_mask, exchange, ring)

# a tiny frame, byte by byte
mask = np.array([1.0, 0, 0, 0, 0, 0, 0, 1.0])
frame = encode_mask({0: mask}, sender=2, round_index=9)
data = frame.to_bytes()
print("mask", mask.astype(int).tolist(), "->", data.hex())
print(f"  16-byte header, 6-byte segment header, payload byte "
      f"0x{data[-1]:02x} (LSB first)")
back = decode_mask(MaskFrame.from_bytes(data), {0: (8,)})
print("  decodes back to", back[0].astype(int).tolist())

# accounting for the default desk network
arch = desk_arch()
masks = {idx: np.ones(s) for idx, s in arch.param_shapes().items()}
frame = encode_mask(masks, 0, 0)
payload = frame.payload_bits()
real = account_real_bits(masks)
print(f"\ndesk network, {arch.param_count()} parameters:")
print(f"  mask payload  {payload} bits ({payload / 8 / 1024:.1f} KiB)")
print(f"  weight payload {real} bits ({real / 8 / 1024:.1f} KiB), "
      f"ratio {payload / real}")
print(f"  frame overhead {frame.header_bits()} bits "
      f"({frame.header_bits() / frame.payload_bits():.3%} of payload)")

# one synchronous exchange over a ring, unicast accounting
graph = ring(6)
ledger = CommLedger()
outbox = {i: encode_mask(masks, i, 1) for i in range(graph.n)}
inbox = exchange(graph, outbox, ledger)
sent_payload, sent_header, recv_payload, recv_header = ledger.totals()
print(f"\nring of 6, one round: every agent sends to its 2 neighbors")
print(f"  inbox of agent 0 holds senders {[f.sender for f in inbox[0]]}")
print(f"  total payload sent {sent_payload} bits = "
      f"{int(graph.degrees.sum())} transmissions x {payload} bits")
print(f"  received equals sent: {recv_payload == sent_payload}")
