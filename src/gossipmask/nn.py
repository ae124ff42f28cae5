"""Dense float64 networks evaluated under element-wise masking.

A model is an ordered list of layer specs (conv2d / relu / maxpool2d /
flatten / linear). Only conv2d and linear layers own parameters, and no
layer carries a bias term. A masked layer is evaluated with the effective
tensor ``v = w * m`` where ``w`` is the real-valued parameter tensor and
``m`` a binary mask of identical shape (bool, or floats of 0.0 and 1.0:
the products are bitwise equal); every gradient returned here is
taken with respect to ``v``. The backward pass stops at the first
parameterized layer: nothing below it, its input included, gets a gradient.

Convolutions are im2col products: the columns are gathered from the
zero-padded input with one ``np.take`` of per-sample offsets and
multiplied with one gemm per sample and output row. Their input gradient
scatters the column gradient back (col2im) one cache-sized block of
samples at a time, into the unpadded input only: the adds that would land
in the padding are skipped. It loops over kernel offsets or, where fewer
(a small output plane), over output positions, with every entry's adds in
the same order. Max pooling takes each window's first maximum, as
``argmax`` does. From ``_GATHER_BYTES`` of windows on, the pool gathers
them like the conv columns, one block of samples at a time, and finds its
maxima with elementwise reductions over the gathered planes instead of a
row-wise ``argmax`` over a strided copy. The bytes are the same either
way. The offset tables depend only on a layer's geometry, so each is
built once and cached read-only.

Each conv runs as one stage with the relu right after it and the max pool
after that, where present. The stage computes about ``_BLOCK_BYTES`` of
conv output at a time, a chunk of samples (whole agents or samples of one
in a stack): it pads the chunk's input, gathers its columns and multiplies
them in ``_BLOCK_BYTES`` blocks of samples, applies the relu in place and
pools the chunk. Conv, relu and pool work per sample, so the bytes do not
depend on the chunks. So the whole batch's conv output exists only where
a conv has no pool after it, and its padded input only where the conv
keeps its columns (below).

:func:`forward` keeps what the backward reads: the relu masks and the pool
indices (one byte per entry), written chunk by chunk into whole-batch
arrays, and each conv's columns below ``_SHARED_BYTES``. From there on
(the README default shape at batch 128) a conv keeps only its unpadded
input; its weight gradient pads it and gathers the columns again with the
same ``np.take``, into the same gemm, in one process-wide buffer, read
only under its lock, so that threads may share it. The backward
frees each layer's cache once it has used it, a conv's columns before its
input gradient, and a relu writes in place to the array the layer below
it made. A pool scatters its input gradient in the memory order of the
gradient it gets, so it copies none. Evaluation (:func:`loss`, the
trainer's accuracy and bound networks) keeps no cache and runs the layers
below the first flatten or linear one on ``_EVAL_ROWS`` samples at a time;
the whole batch's first pool output would otherwise stay alive. The
linear layers see the whole batch, since a 2-d gemm rounds differently
when its row count changes.

:func:`loss_and_grad_v` also steps a stack of A agents at once: one
shared network under A masks, their batches stacked. Conv, relu and pool
run on the A * n samples agent by agent; each conv gemm stays one gemm per
(agent, sample, output row), a broadcast matmul against that agent's
filters, and each weight gradient one 2-d gemm per agent over its whole
batch's columns. A stack's convs run blocked and gather their columns
again in the shared buffer, whatever their size. The linear layers and
the cross-entropy work per agent. So every agent's loss and gradients
are, bit for bit, those of a call of its own.

Tensors are plain numpy float64 arrays. A conv output is a channel-last
array viewed as (n, c, h, w). The max pool's gathered path reads its input
channel-last, and its input gradient is channel-last: each pool of
:func:`desk_arch` follows a conv and a relu, so it reads a view, and the
relu mask meets a gradient of its own layout. Other inputs are copied,
with the same bytes out. All functions are pure and may run on several
threads at once: no global state but the table caches and the locked
column buffer, no randomness outside :func:`init_params`.
"""

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import blame

__all__ = [
    "LayerSpec",
    "ModelArch",
    "conv2d",
    "linear",
    "relu",
    "maxpool2d",
    "flatten",
    "desk_arch",
    "shape_chain",
    "init_params",
    "forward",
    "loss",
    "loss_and_grad_v",
    "grad_z",
    "finite_diff_check",
]


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a model; only the fields for ``kind`` are meaningful."""

    kind: str
    in_channels: int = 0
    out_channels: int = 0
    kernel: tuple = ()
    padding: int = 0
    window: tuple = ()
    stride: int = 0
    in_features: int = 0
    out_features: int = 0


def _pair(x):
    return (int(x), int(x)) if np.isscalar(x) else (int(x[0]), int(x[1]))


def conv2d(in_channels, out_channels, kernel, padding=0):
    """Stride-1 biasless 2-d convolution with symmetric zero padding."""
    if min(in_channels, out_channels) < 1:
        raise ValueError(f"conv2d needs positive channel counts, got "
                         f"{in_channels} -> {out_channels}")
    kernel = _pair(kernel)
    if min(kernel) < 1 or padding < 0:
        raise ValueError(f"conv2d needs a positive kernel and padding >= 0, "
                         f"got kernel {kernel}, padding {padding}")
    return LayerSpec("conv2d", in_channels=int(in_channels),
                     out_channels=int(out_channels), kernel=kernel,
                     padding=int(padding))


def linear(in_features, out_features):
    """Biasless fully connected layer, weight shape (out, in)."""
    if min(in_features, out_features) < 1:
        raise ValueError(f"linear needs positive sizes, got "
                         f"{in_features} -> {out_features}")
    return LayerSpec("linear", in_features=int(in_features),
                     out_features=int(out_features))


def relu():
    return LayerSpec("relu")


def maxpool2d(window, stride):
    window = _pair(window)
    if min(window) < 1 or stride < 1:
        raise ValueError(f"maxpool2d needs a positive window and stride, "
                         f"got window {window}, stride {stride}")
    return LayerSpec("maxpool2d", window=window, stride=int(stride))


def flatten():
    return LayerSpec("flatten")


def shape_chain(layers, input_shape):
    """Per-sample shapes before and after each layer.

    Raises ValueError on an input extent below 1 and as soon as two
    consecutive layers are incompatible.
    """
    shapes = [tuple(int(e) for e in input_shape)]
    if min(shapes[0], default=0) < 1:
        raise ValueError("feature extents must be positive")
    for pos, layer in enumerate(layers):
        s = shapes[-1]
        if layer.kind == "conv2d":
            if len(s) != 3 or s[0] != layer.in_channels:
                raise ValueError(
                    f"layer {pos}: conv2d expects {layer.in_channels} input "
                    f"channels, got shape {s}")
            kh, kw = layer.kernel
            oh = s[1] + 2 * layer.padding - kh + 1
            ow = s[2] + 2 * layer.padding - kw + 1
            if oh < 1 or ow < 1:
                raise ValueError(f"layer {pos}: conv2d output collapses on {s}")
            shapes.append((layer.out_channels, oh, ow))
        elif layer.kind == "maxpool2d":
            if len(s) != 3:
                raise ValueError(f"layer {pos}: maxpool2d needs a 3-d input, got {s}")
            wh, ww = layer.window
            if s[1] < wh or s[2] < ww:
                raise ValueError(f"layer {pos}: pool window {layer.window} exceeds {s}")
            shapes.append((s[0], (s[1] - wh) // layer.stride + 1,
                           (s[2] - ww) // layer.stride + 1))
        elif layer.kind == "relu":
            shapes.append(s)
        elif layer.kind == "flatten":
            shapes.append((int(np.prod(s)),))
        elif layer.kind == "linear":
            if len(s) != 1 or s[0] != layer.in_features:
                raise ValueError(
                    f"layer {pos}: linear expects ({layer.in_features},), got {s}")
            shapes.append((layer.out_features,))
        else:
            raise ValueError(f"layer {pos}: unknown layer kind '{layer.kind}'")
    return shapes


@dataclass(frozen=True)
class ModelArch:
    """Layer list plus the per-sample input shape and the class count."""

    layers: tuple
    input_shape: tuple
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape",
                           tuple(int(e) for e in self.input_shape))
        chain = shape_chain(self.layers, self.input_shape)
        if chain[-1] != (self.num_classes,):
            raise ValueError(
                f"model output shape {chain[-1]} does not match "
                f"{self.num_classes} classes")

    def param_shapes(self):
        """Parameter tensor shape per parameterized layer index."""
        shapes = {}
        for idx, layer in enumerate(self.layers):
            if layer.kind == "conv2d":
                shapes[idx] = (layer.out_channels, layer.in_channels) + layer.kernel
            elif layer.kind == "linear":
                shapes[idx] = (layer.out_features, layer.in_features)
        return shapes

    def param_count(self):
        return int(sum(np.prod(s) for s in self.param_shapes().values()))


def desk_arch(input_shape=(3, 16, 16), num_classes=4, conv_channels=(16, 32),
              hidden=128):
    """Small biasless conv/pool stack: per conv block a 5x5 convolution
    (zero padding 2), relu and 3x3/2 max pooling, then two linear layers.
    A rejected argument raises a FieldError that names it."""
    with blame("input_shape"):
        in_ch = shape_chain((), input_shape)[0][0]
    layers = []
    with blame("conv_channels"):
        for ch in conv_channels:
            layers += [conv2d(in_ch, ch, 5, padding=2), relu(), maxpool2d(3, 2)]
            in_ch = ch
    with blame("input_shape"):
        flat = int(np.prod(shape_chain(layers, input_shape)[-1]))
    with blame("hidden"):
        layers += [flatten(), linear(flat, hidden), relu()]
    with blame("num_classes"):
        layers.append(linear(hidden, num_classes))
    return ModelArch(tuple(layers), tuple(input_shape), int(num_classes))


def init_params(arch, seed):
    """Parameter set with every entry i.i.d. uniform on [-1, 1].

    Each layer draws from its own stream keyed by (seed, layer index), so
    identical (arch, seed) pairs yield bit-identical tensors.
    """
    base = list(seed) if isinstance(seed, (tuple, list)) else [int(seed)]
    params = {}
    for idx, shape in arch.param_shapes().items():
        rng = np.random.default_rng(base + [idx])
        params[idx] = rng.uniform(-1.0, 1.0, size=shape)
    return params


# ----------------------------------------------------------- layer kernels

# bytes of columns, column gradient, pool windows or conv output a blocked
# kernel handles per sample block or chunk: half of a 2 MiB per-core L2
_BLOCK_BYTES = 1 << 20
# bytes of im2col columns from which a training step's conv keeps only its
# input and its weight gradient gathers them again into the shared buffer,
# and up to which the trainer stacks agents: the L2 of both cores. The desk
# convs (0.3 MiB at batch 8) and the harness's (1.2 and 0.9 MiB at 32)
# keep their columns; the default shape's (19 MiB at 128) reach it
_SHARED_BYTES = 1 << 22
# samples per evaluation chunk of the conv stages: a default training
# step's batch, so evaluation peaks below a training step
_EVAL_ROWS = 128
# bytes of pool windows from which _maxpool_forward gathers them with one
# np.take and reduces elementwise; below it the strided copy and row-wise
# argmax cost less
_GATHER_BYTES = 1 << 17


def _table(a):
    a.setflags(write=False)
    return a


def _window_offsets(c, h, w, window, stride, ec, eh, ew):
    """Offsets in a (c, h, w) sample of element strides (ec, eh, ew): of
    each window's first cell as (channel, out row, out col), and of each
    window cell from the first, row-major."""
    wh, ww = window
    oh, ow = (h - wh) // stride + 1, (w - ww) // stride + 1
    corner = ((np.arange(c) * ec)[:, None, None]
              + stride * (eh * np.arange(oh)[:, None] + ew * np.arange(ow)))
    return corner, (eh * np.arange(wh)[:, None] + ew * np.arange(ww)).ravel()


@lru_cache(maxsize=32)
def _conv_offsets(c, hp, wp, kh, kw):
    """Offsets of a padded (c, hp, wp) sample's im2col columns within it,
    in (out row, out col, channel, kernel row, kernel col) order, as one
    read-only table. None where the window's (c, kh, kw) axes merge without
    a copy (e.g. only one above 1): the columns are then a strided view,
    since the gemm would round a contiguous copy differently."""
    dims = [(d, s) for d, s in ((c, hp * wp), (kh, wp), (kw, 1)) if d > 1]
    if all(s0 == d1 * s1 for (_, s0), (d1, s1) in zip(dims, dims[1:])):
        return None
    corner, cell = _window_offsets(c, hp, wp, (kh, kw), 1, hp * wp, wp, 1)
    return _table((corner.transpose(1, 2, 0)[..., None] + cell).ravel())


def _runs(outer, inner, e, padding):
    """Per index u < ``outer``, in ascending order, the run [lo, hi) of
    indices t < ``inner`` whose input index u + t - padding lies in
    [0, e), and the slice of those input indices. Empty runs are left
    out."""
    runs = []
    for u in range(outer):
        lo, hi = max(0, padding - u), min(inner, e + padding - u)
        if lo < hi:
            runs.append((u, slice(lo, hi), slice(u + lo - padding, u + hi - padding)))
    return runs


@lru_cache(maxsize=32)
def _col2im_spans(h, w, kh, kw, padding):
    """The adds of a col2im into the unpadded channel-last (h, w) input:
    the index of the input gradient entries each adds to and of the
    (n, out row, out col, kh, kw, c) column gradient entries it adds. They
    run per kernel offset (a, b) ascending or, where fewer, per output
    position (i, j) descending: an entry (p, q) gets offset
    (p + padding - i, q + padding - j) from position (i, j), so either way
    every entry gets its adds by ascending offset. Offsets and positions
    whose window cells land only in the padding are left out."""
    oh, ow = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    rows, cols = _runs(kh, oh, h, padding), _runs(kw, ow, w, padding)
    at_rows, at_cols = _runs(oh, kh, h, padding), _runs(ow, kw, w, padding)
    if len(rows) * len(cols) <= len(at_rows) * len(at_cols):
        return tuple(((slice(None), hs, ws), (slice(None), i, j, a, b))
                     for a, i, hs in rows for b, j, ws in cols)
    return tuple(((slice(None), hs, ws), (slice(None), i, j, a, b))
                 for i, a, hs in reversed(at_rows) for j, b, ws in reversed(at_cols))


@lru_cache(maxsize=32)
def _pool_offsets(shape, window, stride):
    """Read-only offset tables of a max pool over channel-last (h, w, c)
    samples of logical shape ``shape`` = (c, h, w): of each window's first
    cell per (channel, out row, out col), of each window cell from the
    first, and of every window cell as (cell, channel, out row, out col)."""
    c, h, w = shape
    corner, cell = _window_offsets(c, h, w, window, stride, 1, w * c, c)
    return (_table(corner), _table(cell),
            _table((cell[:, None] + corner.ravel()).ravel()))


def _im2col(xp, kh, kw, buf=None):
    """The im2col columns of a zero-padded (n, c, hp, wp) batch, as
    (n, out row, out col, c * kh * kw). Gathered columns are written to the
    front of the flat array ``buf`` where it is given."""
    n, c, hp, wp = xp.shape
    oh, ow = hp - kh + 1, wp - kw + 1
    off = _conv_offsets(c, hp, wp, kh, kw)
    if off is None:
        sn, sc, sh, sw = xp.strides
        return as_strided(xp, (n, oh, ow, c, kh, kw), (sn, sh, sw, sc, sh, sw),
                          writeable=False).reshape(n, oh, ow, -1)
    if buf is None:
        return np.take(xp.reshape(n, -1), off, axis=1).reshape(n, oh, ow, -1)
    # mode="clip" changes no in-range offset; with out= the default mode
    # gathers into a temporary and copies it over
    cols = buf[:n * off.size].reshape(n, -1)
    np.take(xp.reshape(n, -1), off, axis=1, out=cols, mode="clip")
    return cols.reshape(n, oh, ow, -1)


# the full columns of a sharing conv's weight gradient: one process-wide
# buffer, grown to the largest column set seen and used only under its lock
_shared = threading.Lock()
_shared_buf = np.empty(0)


def _column_bytes(rows, c, kh, kw):
    """Bytes of ``rows`` im2col rows (output positions) of a conv with
    ``c`` input channels and a (kh, kw) kernel."""
    return rows * c * kh * kw * 8


@lru_cache(maxsize=32)
def _largest_column_bytes(arch, batch):
    chain = shape_chain(arch.layers, arch.input_shape)
    return max((_column_bytes(batch * chain[pos + 1][1] * chain[pos + 1][2],
                              layer.in_channels, *layer.kernel)
                for pos, layer in enumerate(arch.layers)
                if layer.kind == "conv2d"), default=0)


def _stack_size(arch, batch):
    """Agents whose training steps on ``batch`` samples each run as one
    stack: as many as keep the stack's largest conv columns, which its
    weight gradient gathers into the shared buffer, below
    ``_SHARED_BYTES``; at least one, which a step whose own columns reach
    it stays."""
    return max(1, (_SHARED_BYTES - 1) // max(1, _largest_column_bytes(arch, batch)))


def _blocks(agents, n, blk):
    """Blocks of a stack's ``agents * n`` samples, agent-major, of at most
    ``blk`` samples each but never fewer than one agent's or one sample:
    whole agents at a time where ``blk`` holds one, else ``blk`` samples of
    one agent at a time. Yields (sample slice, agent slice) pairs."""
    if blk >= n:
        step = blk // n
        for a in range(0, agents, step):
            yield slice(a * n, min(a + step, agents) * n), slice(a, a + step)
        return
    for a in range(agents):
        for s in range(a * n, (a + 1) * n, blk):
            yield slice(s, min(s + blk, (a + 1) * n)), slice(a, a + 1)


def _gemm_operand(v):
    """A conv's filters as the right operand of its gemms: (K, o) for one
    bank (o, c, kh, kw), or (A, 1, 1, K, o) for a stack of A banks
    (A, o, c, kh, kw), to meet one agent's samples in each gemm."""
    m = v.reshape(v.shape[:-3] + (-1,))
    return m.T if v.ndim == 4 else m.swapaxes(1, 2)[:, None, None]


def _by_agent(a, operand):
    """``a``'s leading samples axis split into one run per agent of a
    stacked gemm ``operand`` (from :func:`_gemm_operand`); ``a`` itself
    against one bank."""
    return a if operand.ndim == 2 else a.reshape((len(operand), -1) + a.shape[1:])


def _padded(x, padding):
    """A contiguous zero-padded copy of (n, c, h, w) ``x``, also at padding
    0: columns viewed straight from a strided input could reach the gemm
    with other strides."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + w] = x
    return xp


def _conv_forward(x, v, padding, keep=True):
    """The conv output one chunk of about ``_BLOCK_BYTES`` of it at a time,
    as an iterator of (sample slice, channel-last (k, oh, ow, o) output)
    pairs, and the backward cache ``(cols, x, x shape, padding)``. ``v`` is
    one filter bank or a stack of A, one per agent, whose samples ``x``
    holds agent by agent; a chunk, like a gemm block within it, holds whole
    agents or samples of one (:func:`_blocks`). Where ``keep`` is set, ``v``
    is one bank and the columns stay below ``_SHARED_BYTES``, it gathers
    them at once and holds them; else it pads each chunk's input, gathers
    one ``_BLOCK_BYTES`` block of samples at a time and holds the unpadded
    input ``x``. The other of the two is None. A stack keeps no columns:
    they would be all its agents' at once, several MB that glibc, freed
    every step, hands back to the kernel and faults in again on the next
    (without the benchmark's ``mallopt``)."""
    n, c, h, w = x.shape
    o, _, kh, kw = v.shape[-4:]
    oh, ow = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    agents = 1 if v.ndim == 4 else len(v)
    chunks = _blocks(agents, n // agents, max(1, _BLOCK_BYTES // (oh * ow * o * 8)))
    vt = _gemm_operand(v)
    # one gemm per (sample, output row), against its agent's filters; a
    # single 2-d gemm over all rows would round differently
    if keep and v.ndim == 4 and _column_bytes(n * oh * ow, c, kh, kw) < _SHARED_BYTES:
        cols = _im2col(_padded(x, padding), kh, kw)
        return (((rows, cols[rows] @ vt) for rows, _ in chunks),
                (cols, None, x.shape, padding))

    def gathered():
        blk = max(1, _BLOCK_BYTES // _column_bytes(oh * ow, c, kh, kw))
        for rows, who in chunks:
            part = vt if v.ndim == 4 else vt[who]
            k = 1 if v.ndim == 4 else len(part)
            xp = _padded(x[rows], padding)
            buf = np.empty(min(len(xp), blk) * oh * ow * c * kh * kw)
            y = np.empty((len(xp), oh, ow, o))
            for block, a in _blocks(k, len(xp) // k, blk):
                p = part if v.ndim == 4 else part[a]
                np.matmul(_by_agent(_im2col(xp[block], kh, kw, buf), p), p,
                          out=_by_agent(y[block], p))
            # freed before the stage pools the chunk, so that the pool's
            # buffers can take their place
            del xp, buf
            yield rows, y
    return gathered(), (None, x, x.shape, padding)


def _into(whole, n, rows, part):
    """``whole`` with ``part`` written at sample ``rows``: an array of
    ``n`` samples shaped like ``part``'s, made on first use, or ``part``
    itself where it holds them all."""
    if whole is None:
        if len(part) == n:
            return part
        whole = np.empty((n,) + part.shape[1:], part.dtype)
    whole[rows] = part
    return whole


def _conv_stage(x, v, padding, relu, pool, keep):
    """A conv run together with the relu right after it where ``relu`` is
    set and the max-pool layer ``pool`` after that where given, one chunk
    of :func:`_conv_forward`'s output at a time: the relu in place on the
    chunk, then the pool. Returns the stage's output and, where ``keep`` is
    set, its layers' backward caches in layer order: the conv's, the relu
    mask and the pool's, the mask and the pool's argmax written chunk by
    chunk into whole-batch arrays. So the whole-batch conv output exists
    only in a stage without a pool."""
    chunks, cache = _conv_forward(x, v, padding, keep)
    n, out, mask, idx = len(x), None, None, None
    for rows, y in chunks:
        if relu:
            if keep:
                mask = _into(mask, n, rows, y > 0)
            np.maximum(y, 0.0, out=y)
        if pool:
            y, (part, shape, *_) = _maxpool_forward(y.transpose(0, 3, 1, 2),
                                                     pool.window, pool.stride)
            if keep:
                idx = _into(idx, n, rows, part)
        out = _into(out, n, rows, y)
    kept = [(v, cache)] if keep else []
    if relu and keep:
        kept.append((mask.transpose(0, 3, 1, 2),))
    if pool and keep:
        kept.append(((idx, (n,) + shape[1:], pool.window, pool.stride),))
    return (out if pool else out.transpose(0, 3, 1, 2)), kept


def _conv_grad_v(grad_out, v, cache):
    """The weight gradient, shaped like ``v``: one 2-d gemm per agent over
    its whole batch's columns, the cached ones or, where the cache holds
    the unpadded input, gathered again from it, padded, into the shared
    buffer under its lock."""
    global _shared_buf
    cols, x = cache[:2]
    o, c, kh, kw = v.shape[-4:]
    g = grad_out.transpose(0, 2, 3, 1).reshape(-1, o)
    if cols is not None:
        return _weight_gemm(g, cols, v)
    size = _column_bytes(len(g), c, kh, kw)
    with _shared:
        if _shared_buf.nbytes < size:
            _shared_buf = np.empty(size // 8)
        return _weight_gemm(g, _im2col(_padded(x, cache[3]), kh, kw, _shared_buf), v)


def _weight_gemm(g, cols, v):
    """``g.T @ cols`` shaped like ``v``: one 2-d gemm over all rows, or per
    agent over its own for a stack of filter banks."""
    if v.ndim == 4:
        return (g.T @ cols.reshape(-1, cols.shape[-1])).reshape(v.shape)
    return (g.reshape(len(v), -1, g.shape[1]).swapaxes(1, 2)
            @ cols.reshape(len(v), -1, cols.shape[-1])).reshape(v.shape)


def _conv_backward(grad_out, v, x_shape, padding):
    n, c, h, w = x_shape
    o, _, kh, kw = v.shape[-4:]
    oh, ow = grad_out.shape[2:]
    g = grad_out.transpose(0, 2, 3, 1)
    vm = v.reshape(v.shape[:-3] + (-1,))
    vm = vm if v.ndim == 4 else vm[:, None, None]
    # channel-last col2im into the unpadded input: each entry gets the
    # (n, c, h, w) layout's adds in the same order, and the adds that would
    # land in the padding are skipped. It runs over blocks of samples whose
    # column gradient fits in cache; blocking changes neither the row gemms
    # nor any entry's add order.
    gx = np.zeros((n, h, w, c))
    spans = _col2im_spans(h, w, kh, kw, padding)
    blk = max(1, _BLOCK_BYTES // _column_bytes(oh * ow, c, kh, kw))
    agents = 1 if v.ndim == 4 else len(v)
    for rows, who in _blocks(agents, n // agents, blk):
        part = vm if v.ndim == 4 else vm[who]
        gc = (_by_agent(g[rows], part) @ part).reshape(-1, oh, ow, c, kh, kw)
        gc = gc.transpose(0, 1, 2, 4, 5, 3)     # a view, as _col2im_spans indexes it
        dst = gx[rows]
        for to, at in spans:
            dst[to] += gc[at]
    return gx.transpose(0, 3, 1, 2)


def _maxpool_forward(x, window, stride):
    wh, ww = window
    n, c, h, w = x.shape
    oh, ow = (h - wh) // stride + 1, (w - ww) // stride + 1
    k, m = wh * ww, c * oh * ow
    # idx is the first maximum, i.e. the lowest flat index in the window,
    # as argmax takes it (a NaN counts as the maximum), in one byte where
    # the window allows
    kind = np.uint8 if k < 256 else np.intp
    if n * m * k * x.itemsize < _GATHER_BYTES:
        sn, sc, sh, sw = x.strides
        flat = as_strided(x, (n, c, oh, ow, wh, ww),
                          (sn, sc, stride * sh, stride * sw, sh, sw),
                          writeable=False).reshape(-1, k)
        idx = flat.argmax(axis=1)
        out = flat[np.arange(len(flat)), idx].reshape(n, c, oh, ow)
        return out, (idx.astype(kind).reshape(n, c, oh, ow), x.shape, window, stride)
    # above it: gather each sample's cells as (cell, window) planes, reduce
    # the planes with elementwise maxima and take each window's first hit,
    # one block of samples at a time. The rows are a view of a channel-last
    # x, such as a conv output.
    rows = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n, -1)
    off = _pool_offsets(x.shape[1:], window, stride)[2]
    out, idx = np.empty((n, m), dtype=x.dtype), np.empty((n, m), dtype=kind)
    blk = max(1, _BLOCK_BYTES // (m * k * x.itemsize))
    buf = np.empty((min(n, blk), k * m), dtype=x.dtype)
    for s in range(0, n, blk):
        part = rows[s:s + blk]
        cells = np.take(part, off, axis=1, out=buf[:len(part)],
                        mode="clip").reshape(-1, k, m)
        top = np.maximum.reduce(cells, axis=1)
        miss = cells != top[:, None]
        if np.isnan(top).any():
            miss &= cells == cells     # a NaN is the maximum of its window
        # the first hit's index is the number of misses before it
        first = idx[s:s + blk]
        first.fill(0)
        left = miss[:, 0].copy()
        for j in range(1, k):
            first += left
            left &= miss[:, j]
        # the values are gathered, not taken from top, so a zero keeps its
        # sign
        np.take(cells, (np.arange(len(cells))[:, None] * k + first) * m
                + np.arange(m), out=out[s:s + blk], mode="clip")
    return out.reshape(n, c, oh, ow), (idx.reshape(n, c, oh, ow), x.shape, window,
                                       stride)


def _maxpool_backward(grad_out, cache):
    idx, x_shape, window, stride = cache
    n, c, h, w = x_shape
    corner, cell, _ = _pool_offsets(x_shape[1:], window, stride)
    # channel-last index of each window's maximum, listed in the order of
    # the gradient's memory: channel-last, as a conv's input gradient is,
    # or else (n, c, oh, ow), so only the one-byte idx is copied. Windows
    # may share a maximum, and all of a cell's shares come from windows of
    # its channel, so either way bincount adds them in ascending window
    # order
    last = grad_out.transpose(0, 2, 3, 1).flags.c_contiguous
    if last:
        corner, grad_out = corner.transpose(1, 2, 0), grad_out.transpose(0, 2, 3, 1)
    src = cell[np.ascontiguousarray(idx.transpose(0, 2, 3, 1)) if last else idx]
    src += corner
    src += (np.arange(n) * (c * h * w))[:, None, None, None]
    gx = np.bincount(src.ravel(), grad_out.ravel(), n * c * h * w)
    return gx.reshape(n, h, w, c).transpose(0, 3, 1, 2)


def _cross_entropy(logits, labels, agents=None):
    """The mean softmax cross-entropy over the rows, or per agent over
    each of ``agents`` equal runs of rows, and the log-probabilities."""
    shift = logits - logits.max(axis=1, keepdims=True)
    logp = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
    picked = logp[np.arange(logits.shape[0]), labels]
    if agents is None:
        return -picked.mean(), logp
    return -picked.reshape(agents, -1).mean(axis=1), logp


def _softmax_cross_entropy(logits, labels, agents):
    n = logits.shape[0]
    loss, logp = _cross_entropy(logits, labels, agents)
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / (n // (agents or 1))


# ------------------------------------------------------------- public ops

def _agentwise(a, b):
    """``a @ b`` for a stack of agents: one 2-d gemm per agent of ``b``
    (A, k, m) on its equal run of ``a``'s rows."""
    return (a.reshape(len(b), -1, a.shape[1]) @ b).reshape(len(a), -1)


def _operands(arch, w, m, batch):
    """The checked float64 batch as one run of samples, its agent count A
    (None for a batch of one agent, unstacked) and the effective tensor
    ``w * m`` of each parameterized layer (``w`` itself where ``m`` is
    None). A stack's batch is (A, n, ...), its masks (A, *shape) and each
    ``w`` shared or (A, *shape); the effective tensors then carry the
    agent axis."""
    x = np.asarray(batch, dtype=np.float64)
    d = len(arch.input_shape)
    if x.ndim not in (d + 1, d + 2) or x.shape[x.ndim - d:] != arch.input_shape:
        raise ValueError(
            f"batch shape {x.shape} does not match input {arch.input_shape}")
    agents = len(x) if x.ndim == d + 2 else None
    lead = () if agents is None else (agents,)
    v = {}
    for idx, shape in arch.param_shapes().items():
        each = lead + shape
        if w[idx].shape not in (shape, each):
            raise ValueError(f"layer {idx}: parameter shape {w[idx].shape} != {shape}")
        if m is not None and (idx not in m or m[idx].shape != each):
            raise ValueError(f"layer {idx}: mask missing or shape mismatch")
        t = w[idx] if m is None else w[idx] * m[idx]
        # a shared w without masks
        v[idx] = t if t.shape == each else np.broadcast_to(t, each)
    return x if agents is None else x.reshape((-1,) + arch.input_shape), v, agents


def _layers(arch, v, x, span, caches=None, agents=None):
    """Run the layers on ``x``, the samples of ``agents`` agents (None:
    one) agent by agent, each conv as one stage with the relu right after
    it and the max pool after that, where present (:func:`_conv_stage`).
    Each layer's backward cache goes to ``caches`` where it is given; else
    the next layer drops it. A relu writes in place to an array an earlier
    layer of this call made, never to ``x`` itself."""
    made, pos, layers = False, span.start, arch.layers
    while pos < span.stop:
        idx, layer = pos, layers[pos]
        pos += 1
        if layer.kind == "conv2d":
            relu = pos < span.stop and layers[pos].kind == "relu"
            pos += relu
            pool = pos < span.stop and layers[pos].kind == "maxpool2d"
            pos += pool
            x, kept = _conv_stage(x, v[idx], layer.padding, relu,
                                  layers[pos - 1] if pool else None, caches is not None)
        elif layer.kind == "linear":
            kept = [(v[idx], x)]
            x = x @ v[idx].T if agents is None else _agentwise(x, v[idx].swapaxes(1, 2))
        elif layer.kind == "relu":
            kept = [(x > 0,) if caches is not None else ()]
            x = np.maximum(x, 0.0, out=x if made else None)
        elif layer.kind == "maxpool2d":
            x, kept = _maxpool_forward(x, layer.window, layer.stride)
            kept = [(kept,)]
        elif layer.kind == "flatten":
            kept = [(x.shape,)]
            x = x.reshape(x.shape[0], -1)
        if caches is not None:
            caches += [(layers[i].kind, i) + k for i, k in zip(range(idx, pos), kept)]
        made = made or layer.kind != "flatten"
    return x


def forward(arch, w, m, batch):
    """Run the masked network on a batch.

    ``m`` may be None for an unmasked evaluation. Returns the (N, classes)
    logits and the cache consumed by the internal backward pass.
    """
    x, v, agents = _operands(arch, w, m, batch)
    caches = []
    return _layers(arch, v, x, range(len(arch.layers)), caches, agents), caches


def _logits(arch, w, m, batch):
    """:func:`forward`'s logits, bitwise, keeping no cache. The layers
    below the first flatten or linear one run on ``_EVAL_ROWS`` samples at
    a time, the rest on the whole batch."""
    x, v, _ = _operands(arch, w, m, batch)
    cut = next((idx for idx, layer in enumerate(arch.layers)
                if layer.kind in ("flatten", "linear")), len(arch.layers))
    if cut and len(x) > _EVAL_ROWS:
        x = np.concatenate([_layers(arch, v, x[s:s + _EVAL_ROWS], range(cut))
                            for s in range(0, len(x), _EVAL_ROWS)])
    else:
        cut = 0
    return _layers(arch, v, x, range(cut, len(arch.layers)))


def _backward(caches, grad_logits, agents=None):
    """The v-gradient of every parameterized layer, shaped like ``v``:
    (A, *shape) for a stack of ``agents``. It pops each layer's cache off
    ``caches`` as it goes, so a used cache is freed before the layer below
    runs, and a conv's columns before its input gradient."""
    # nothing below the lowest parameterized layer needs a gradient
    first = next((e[1] for e in caches if e[0] in ("conv2d", "linear")), len(caches))
    g = grad_logits
    grad_v = {}
    while len(caches) > first:
        kind, idx, *rest = caches.pop()
        if kind == "linear":
            v, xin = rest
            if agents is None:
                grad_v[idx] = g.T @ xin
                g = g @ v if idx > first else None
            else:
                grad_v[idx] = (g.reshape(agents, -1, g.shape[1]).swapaxes(1, 2)
                               @ xin.reshape(agents, -1, xin.shape[1]))
                g = _agentwise(g, v) if idx > first else None
        elif kind == "conv2d":
            v, cache = rest
            grad_v[idx] = _conv_grad_v(g, v, cache)
            x_shape, padding = cache[2:]
            del rest, cache     # frees the columns before the input gradient
            g = _conv_backward(g, v, x_shape, padding) if idx > first else None
        elif kind == "relu":
            g = np.multiply(g, rest[0], out=g)     # g is always this pass's own
        elif kind == "maxpool2d":
            g = _maxpool_backward(g, rest[0])
        elif kind == "flatten":
            g = g.reshape(rest[0])
    return dict(sorted(grad_v.items()))


def _labelled_batch(arch, batch, labels):
    """The float64 batch and the labels, checked against each other: a
    stack's (A, n, ...) batch takes (A, n) labels."""
    y = np.asarray(labels)
    x = np.asarray(batch, dtype=np.float64)
    lead = x.shape[:1 + (x.ndim == len(arch.input_shape) + 2)]
    if 0 in lead:
        raise ValueError("empty batch")
    if y.shape[:len(lead)] != lead:
        raise ValueError("batch and labels disagree in length")
    if y.size and (y.min() < 0 or y.max() >= arch.num_classes):
        raise ValueError(f"labels must lie in [0, {arch.num_classes})")
    return x, y


def loss(arch, w, m, batch, labels):
    """Mean softmax cross-entropy over the batch, forward pass only; the
    same float :func:`loss_and_grad_v` returns.

    It keeps no backward cache and runs the conv stages on ``_EVAL_ROWS``
    samples at a time, each one chunk of conv output at a time, so its
    peak stays below a training step's. The linear layers see the whole
    batch: their gemms round differently when the row count changes."""
    x, y = _labelled_batch(arch, batch, labels)
    return _cross_entropy(_logits(arch, w, m, x), y)[0]


def loss_and_grad_v(arch, w, m, batch, labels):
    """Mean softmax cross-entropy over the batch and its gradient.

    The gradient is taken with respect to the effective parameters
    ``v = w * m`` of each parameterized layer, one tensor per layer.

    It also steps a stack of A agents at once: an (A, n, ...) batch with
    (A, n) labels, (A, *shape) masks per layer (or None) and each ``w``
    shared or (A, *shape). It then returns the A losses and (A, *shape)
    gradients, each agent's bit for bit its own call's.
    """
    x, y = _labelled_batch(arch, batch, labels)
    x, v, agents = _operands(arch, w, m, x)
    caches = []
    logits = _layers(arch, v, x, range(len(arch.layers)), caches, agents)
    value, grad_logits = _softmax_cross_entropy(logits, y.reshape(-1), agents)
    return value, _backward(caches, grad_logits, agents)


def grad_z(grad_v, w, z):
    """Chain the loss gradient back to the score tensor.

    ``v = w * m`` makes dv/dm equal to ``w`` element-wise; the step from the
    binary mask to the score tensor is approximated by ``sign(z)``, with
    sign(0) = 0. ``grad_v`` and ``z`` may carry a leading agent axis that
    a shared ``w`` lacks.
    """
    if grad_v.shape != z.shape or w.shape != z.shape[z.ndim - w.ndim:]:
        raise ValueError(
            f"shape mismatch: {grad_v.shape} vs {w.shape} vs {z.shape}")
    g = grad_v * w
    g *= np.sign(z)
    return g


def finite_diff_check(fn, point, step, num_coords=None, seed=0):
    """Max relative error of fn's analytic gradient vs central differences.

    ``fn(point)`` must return ``(value, gradient)`` with the gradient shaped
    like ``point``. At most ``num_coords`` coordinates are probed (all when
    None), drawn without replacement from a fixed-seed stream. Relative
    error is |a - b| / max(|a|, |b|, 1e-8).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    point = np.asarray(point, dtype=np.float64)
    _, grad = fn(point)
    grad = np.asarray(grad).ravel()
    size = point.size
    coords = np.arange(size)
    if num_coords is not None and num_coords < size:
        coords = np.random.default_rng(seed).choice(size, num_coords, replace=False)
    worst = 0.0
    flat = point.ravel()
    for c in coords:
        bumped = flat.copy()
        bumped[c] = flat[c] + step
        hi, _ = fn(bumped.reshape(point.shape))
        bumped[c] = flat[c] - step
        lo, _ = fn(bumped.reshape(point.shape))
        fd = (hi - lo) / (2.0 * step)
        err = abs(fd - grad[c]) / max(abs(fd), abs(grad[c]), 1e-8)
        worst = max(worst, err)
    return worst
