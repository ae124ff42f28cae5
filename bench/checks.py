"""Output checks computed apart from the program.

Each check takes plain values (rows, masks, arrays) and returns a list of
failure messages, empty when the outputs hold. Expected values come from
properties, the documented frame layout and the benchmark's own direct
convolution, never from stored outputs.
"""

import hashlib
import math

import numpy as np

# Frame layout documented in gossipmask.protocol: a 16-byte frame header,
# then per layer a 6-byte segment header (u16 layer, u32 count) and the
# LSB-first packed bits, zero-padded to a whole byte.
FRAME_HEADER_BYTES = 16
SEGMENT_HEADER_BYTES = 6

# Two logits closer than this are a tie that rounding may break either way.
TIE_MARGIN = 1e-9


def metrics_csv(rows):
    """Metrics rows in the layout of ``gossipmask run``'s metrics CSV."""
    lines = ["round,agent,accuracy,loss,payload_bits,header_bits"]
    for r in rows:
        lines.append(f"{r.round},{r.agent},{float(r.accuracy)!r},"
                     f"{float(r.loss)!r},{r.payload_bits},{r.header_bits}")
    return "\n".join(lines) + "\n"


def sparsity_csv(final_sparsity):
    """Final sparsity in the layout of ``gossipmask run``'s sparsity CSV."""
    lines = ["agent,layer,ones,total,density"]
    for agent in sorted(final_sparsity):
        for layer in sorted(final_sparsity[agent]):
            ones, total = final_sparsity[agent][layer]
            lines.append(f"{agent},{layer},{ones},{total},{float(ones / total)!r}")
    return "\n".join(lines) + "\n"


def traces_csv(traces, r_values):
    """Mask-vs-weight traces in the layout of ``gossipmask run``'s
    mask_vs_weight CSV."""
    lines = ["step,agent,arm,r,accuracy"]
    for agent in sorted(traces.weight):
        for step, acc in traces.weight[agent]:
            lines.append(f"{step},{agent},weight,,{float(acc)!r}")
        for r in r_values:
            for step, acc in traces.mask[(agent, r)]:
                lines.append(f"{step},{agent},mask,{float(r)!r},{float(acc)!r}")
    return "\n".join(lines) + "\n"


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


# ------------------------------------------------------------------ wire bits

def frame_header_bits(shapes):
    """Non-payload bits of one mask frame: frame and segment headers plus
    the padding bits of every layer."""
    sizes = [int(np.prod(s)) for s in shapes.values()]
    padding = sum(-n % 8 for n in sizes)
    return 8 * (FRAME_HEADER_BYTES + SEGMENT_HEADER_BYTES * len(sizes)) + padding


def check_wire_bits(rows, degrees, shapes):
    """Cumulative bits logged at round k must be k + 1 exchanges (the
    bootstrap one included) of one frame per directed edge."""
    frames = int(np.sum(degrees))
    payload = frames * sum(int(np.prod(s)) for s in shapes.values())
    header = frames * frame_header_bits(shapes)
    failures = []
    for r in rows:
        want = ((r.round + 1) * payload, (r.round + 1) * header)
        if (r.payload_bits, r.header_bits) != want:
            failures.append(
                f"round {r.round} agent {r.agent}: payload/header bits "
                f"{r.payload_bits}/{r.header_bits}, expected {want[0]}/{want[1]}")
    return failures


# ------------------------------------------------------------------- sparsity

def check_sparsity(masks, retention, min_nonzero, final_sparsity):
    """Per agent and layer: binary entries, at most round(r*n) ones, every
    output filter empty or holding at least ``min_nonzero`` ones, and the
    logged count equal to the mask's."""
    failures = []
    for agent, per_layer in sorted(masks.items()):
        r = retention[agent]
        for layer, m in sorted(per_layer.items()):
            m = np.asarray(m)
            where = f"agent {agent} layer {layer}"
            if not np.isin(m, (0.0, 1.0)).all():
                failures.append(f"{where}: mask is not binary")
                continue
            ones = int(m.sum())
            cap = math.floor(r * m.size + 0.5)
            if ones > cap:
                failures.append(f"{where}: {ones} ones over the cap {cap} at r={r}")
            per_filter = m.reshape(m.shape[0], -1).sum(axis=1)
            thin = np.flatnonzero((per_filter > 0) & (per_filter < min_nonzero))
            if thin.size:
                failures.append(f"{where}: filters {thin.tolist()} hold fewer "
                                f"than {min_nonzero} ones")
            logged = final_sparsity.get(agent, {}).get(layer)
            if logged != (ones, m.size):
                failures.append(f"{where}: logged sparsity {logged}, mask has "
                                f"{(ones, m.size)}")
    return failures


def check_params_unchanged(used, fresh):
    """The shared parameters a run used must be bitwise equal to a fresh
    draw of the same parameter stream."""
    if used is None or set(used) != set(fresh):
        return ["the run's shared parameter set was not captured"]
    return [f"layer {layer}: shared parameters changed during the run"
            for layer in sorted(fresh)
            if used[layer].tobytes() != fresh[layer].tobytes()]


# -------------------------------------------------------- independent forward

def _conv_direct(x, v, padding):
    """Stride-1 convolution as a sum over kernel offsets."""
    n, _, h, w = x.shape
    o, _, kh, kw = v.shape
    xp = np.zeros((n, x.shape[1], h + 2 * padding, w + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + w] = x
    oh, ow = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    out = np.zeros((n, o, oh, ow))
    for a in range(kh):
        for b in range(kw):
            out += np.einsum("nchw,oc->nohw", xp[:, :, a:a + oh, b:b + ow],
                             v[:, :, a, b])
    return out


def _maxpool_direct(x, window, stride):
    """Max pooling as an element-wise maximum over window offsets."""
    wh, ww = window
    oh = (x.shape[2] - wh) // stride + 1
    ow = (x.shape[3] - ww) // stride + 1
    out = np.full(x.shape[:2] + (oh, ow), -np.inf)
    for a in range(wh):
        for b in range(ww):
            np.maximum(out, x[:, :, a:a + stride * (oh - 1) + 1:stride,
                              b:b + stride * (ow - 1) + 1:stride], out=out)
    return out


def reference_logits(arch, params, masks, x):
    """Logits of the masked network, computed layer by layer from the
    architecture's layer list with this module's own kernels."""
    x = np.asarray(x, dtype=np.float64)
    for idx, layer in enumerate(arch.layers):
        if layer.kind == "conv2d":
            x = _conv_direct(x, params[idx] * masks[idx], layer.padding)
        elif layer.kind == "linear":
            x = np.einsum("ni,oi->no", x, params[idx] * masks[idx])
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        elif layer.kind == "maxpool2d":
            x = _maxpool_direct(x, layer.window, layer.stride)
        elif layer.kind == "flatten":
            x = x.reshape(x.shape[0], -1)
        else:
            raise ValueError(f"layer {idx}: unknown kind '{layer.kind}'")
    return x


def correct_range(logits, labels):
    """(surely correct, correct if near-ties break the right way)."""
    top = logits.argmax(axis=1)
    best = logits.max(axis=1)
    label_logit = logits[np.arange(len(labels)), labels]
    sure = int((top == labels).sum())
    # a wrong top pick whose label logit is within the margin could flip
    maybe = int(((top != labels) & (best - label_logit <= TIE_MARGIN)).sum())
    # a right top pick with a runner-up within the margin could flip away
    others = logits.copy()
    others[np.arange(len(labels)), labels] = -np.inf
    shaky = int(((top == labels) & (best - others.max(axis=1) <= TIE_MARGIN)).sum())
    return sure - shaky, sure + maybe


def check_accuracy(arch, params, masks, test_sets, logged):
    """Each agent's logged final test accuracy must equal the share of its
    test samples the reference forward classifies correctly."""
    failures = []
    for agent, (x, y) in sorted(test_sets.items()):
        lo, hi = correct_range(reference_logits(arch, params, masks[agent], x), y)
        acc = logged[agent]
        if not any(acc == k / len(y) for k in range(lo, hi + 1)):
            failures.append(f"agent {agent}: logged accuracy {acc!r}, reference "
                            f"{lo}..{hi} of {len(y)} correct")
    return failures


# ---------------------------------------------------- learning and determinism

def check_learning(rows):
    """The final mean accuracy must beat the round-0 mean accuracy."""
    means = {r.round: r.accuracy for r in rows if r.agent == -1}
    first, last = means[min(means)], means[max(means)]
    if not last > first:
        return [f"mean accuracy did not improve: round {min(means)} {first!r}, "
                f"round {max(means)} {last!r}"]
    return []


def check_rerun(rows, rerun_rows):
    """A shorter rerun's rows must be byte-identical to the same rounds of
    the full run."""
    last = max(r.round for r in rerun_rows)
    head = [r for r in rows if r.round <= last]
    if metrics_csv(head) != metrics_csv(rerun_rows):
        return [f"rerun of rounds 0..{last} differs from the full run"]
    return []


# ----------------------------------------------------------- mask vs weight

def check_trace_lengths(traces, steps, eval_interval, agents, r_values):
    want = steps // eval_interval + 1
    failures = []
    for a in range(agents):
        for key, trace in [(("weight", a), traces.weight.get(a))] + [
                (("mask", a, r), traces.mask.get((a, r))) for r in r_values]:
            if trace is None or len(trace) != want:
                got = None if trace is None else len(trace)
                failures.append(f"trace {key}: {got} points, expected {want}")
    return failures


def _arm_medians(per_seed, r_values):
    """Median over seeds of (weight arm, {r: mask arm}) accuracies."""
    weight = float(np.median([w for w, _ in per_seed]))
    return weight, {r: float(np.median([m[r] for _, m in per_seed]))
                    for r in r_values}


def check_arms_learn(starts, finals, r_values):
    """Every arm's median over seeds of its final accuracy must beat its
    median step-0 accuracy. ``starts`` and ``finals`` hold one
    ``(weight, {r: mask})`` pair of mean accuracies per seed."""
    w0, m0 = _arm_medians(starts, r_values)
    w1, m1 = _arm_medians(finals, r_values)
    pairs = [("weight arm", w0, w1)] + [(f"mask arm r={r}", m0[r], m1[r])
                                        for r in r_values]
    return [f"{arm} did not learn: {a:.4f} at step 0, {b:.4f} at the end"
            for arm, a, b in pairs if not b > a]


def criterion5_shortfalls(finals, r_values):
    """Acceptance criterion 5's rule: per r, the median over seeds of the
    mask arm's final accuracy is at least 0.9 times the weight arm's.
    Returns the r values that fall short, with their figures."""
    weight, mask = _arm_medians(finals, r_values)
    return [f"r={r}: mask arm {mask[r]:.4f} < 0.9 x weight arm {weight:.4f}"
            for r in r_values if not mask[r] >= 0.9 * weight]


def check_trace_prefix(traces, rerun):
    """A shorter rerun's traces must equal the full traces' first points."""
    pairs = ([(k, traces.weight.get(k), t) for k, t in rerun.weight.items()]
             + [(k, traces.mask.get(k), t) for k, t in rerun.mask.items()])
    return [f"rerun trace {key} differs from the full run"
            for key, full, short in pairs
            if full is None or full[:len(short)] != short]
