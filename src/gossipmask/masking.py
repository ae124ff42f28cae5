"""Binary masks from real-valued score tensors.

Each parameterized layer carries a trainable score tensor ``z``; its binary
mask keeps the entries of largest magnitude, layer by layer, at the agent's
retention ratio. A filter-zeroing rule then clears whole output filters
that retained too few entries, and a group-lasso term (the l2 norm of every
output-filter slice) drives the scores toward structured sparsity.

Masks are bool arrays, one byte per entry; ``w * m`` with a bool ``m`` is
bitwise the product with its 0.0/1.0 float copy. The leading axis of every
masked tensor indexes output filters (conv: ``(O, I, H, W)``, linear:
``(O, I)``). Masks decoded from the wire are uint8 bits
(``protocol.decode_mask``), which the receiver only counts.
"""

import numpy as np

from .errors import FieldError, LayerError

__all__ = [
    "retained_count",
    "threshold_layer",
    "filter_zero",
    "check_min_nonzero",
    "extract",
    "group_lasso_value",
    "group_lasso_grad",
]


def retained_count(r, n):
    """Entries kept by a layer of ``n`` entries at retention ratio ``r``.

    Half-up rounding, never below one entry.
    """
    if not 0.0 < r <= 1.0:
        raise FieldError("r", f"retention ratio must be in (0, 1], got {r}")
    return max(1, int(np.floor(r * n + 0.5)))


def threshold_layer(z, r):
    """Keep the ``retained_count(r, n)`` entries of largest magnitude.

    Ties at equal magnitude are broken by the lower flat index winning
    (+0.0 and -0.0 are equal magnitudes), so the result is deterministic
    and scale-invariant. Scores must be finite: a NaN or infinite score
    raises ValueError, whatever ``r``.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.size
    if n == 0:
        raise ValueError("empty score tensor")
    k = retained_count(r, n)
    a = np.abs(z).ravel()
    if not np.isfinite(a.max()):
        bad = n - np.count_nonzero(np.isfinite(a))
        raise ValueError(
            f"{bad} non-finite score(s) in a tensor of shape {z.shape}")
    if k == n:
        return np.ones(z.shape, dtype=bool)
    # everything at or above the k-th largest magnitude; when that keeps
    # more than k, the entries equal to it with the highest flat indices
    # are dropped
    kth = np.partition(a, n - k)[n - k]
    keep = a >= kth
    excess = np.count_nonzero(keep) - k
    if excess:
        ties = np.flatnonzero(a == kth)
        keep[ties[len(ties) - excess:]] = False
    return keep.reshape(z.shape)


def filter_zero(mask, min_nonzero):
    """Zero every output filter holding fewer than ``min_nonzero`` ones, in
    a bool copy of ``mask``.

    Groups are slices along the leading axis. ``min_nonzero <= 0`` leaves
    the mask unchanged.
    """
    out = np.array(mask, dtype=bool)
    if min_nonzero > 0:
        _clear_thin_filters(out, min_nonzero)
    return out


def _clear_thin_filters(mask, min_nonzero):
    """Clear, in place, every output filter of ``mask`` holding fewer than
    ``min_nonzero`` ones. Returns the number of filters left with ones."""
    groups = mask.reshape(mask.shape[0], -1)
    thin = groups.sum(axis=1) < min_nonzero
    cleared = np.count_nonzero(thin)
    if cleared:
        groups[thin] = False
    return len(thin) - cleared


def check_min_nonzero(min_nonzero, shapes, ratios):
    """Reject a ``min_nonzero`` above what an output filter of some layer can
    hold: its entries per filter, or the entries the layer keeps at one of
    ``ratios``. Filter zeroing would clear that whole layer."""
    for layer, shape in sorted(shapes.items()):
        n = int(np.prod(shape))
        most = min([n // shape[0]] + [retained_count(r, n) for r in ratios])
        if min_nonzero > most:
            raise FieldError("min_nonzero", f"min_nonzero {min_nonzero}: an output "
                             f"filter of layer {layer} keeps at most {most} ones")


def extract(tensors, r, min_nonzero=0, out=None):
    """Per-layer composition of thresholding and filter zeroing, which
    clears filters in the thresholded mask itself. A tensor that
    thresholding rejects, or a layer that filter zeroing leaves with no
    ones, raises a LayerError naming its layer. With ``out`` (layer ->
    bool tensor of the layer's shape) each layer's mask is written there,
    and the masks returned are those tensors."""
    masks = {}
    for idx, t in sorted(tensors.items()):
        try:
            masks[idx] = threshold_layer(t, r)
        except ValueError as exc:
            raise LayerError(idx, str(exc)) from None
        if out is not None:
            out[idx][...] = masks[idx]
            masks[idx] = out[idx]
        if min_nonzero > 0 and not _clear_thin_filters(masks[idx], min_nonzero):
            raise LayerError(idx, f"filter zeroing at min_nonzero {min_nonzero} "
                                  f"left no ones")
    return masks


def _filter_norms(z, lam):
    """Per layer in index order: the layer index, its score tensor and the
    l2 norm of each output filter. ``lam`` may hold one lambda per agent of
    a stack, whose tensors then carry a leading agent axis. A negative
    ``lam`` is rejected first."""
    lead = getattr(lam, "ndim", 0) + 1
    if (lam < 0).any() if lead > 1 else lam < 0:
        raise FieldError("lam", "lambda must be nonnegative")
    for idx in sorted(z):
        t = np.asarray(z[idx], dtype=np.float64)
        yield idx, t, np.sqrt((t.reshape(t.shape[:lead] + (-1,)) ** 2).sum(axis=-1))


def group_lasso_value(z, lam):
    """lam times the sum over layers and output filters of each filter
    slice's l2 norm."""
    return lam * sum(norms.sum() for _, _, norms in _filter_norms(z, lam))


def group_lasso_grad(z, lam):
    """Gradient of :func:`group_lasso_value`: lam * z_g / ||z_g|| per group,
    and the zero tensor for groups of zero norm (subgradient choice). With
    one lambda per agent, each agent's slices get its own."""
    grads, each = {}, lam if getattr(lam, "ndim", 0) == 0 else np.reshape(lam, (-1, 1))
    for idx, t, norms in _filter_norms(z, lam):
        scale = np.divide(each, norms, out=np.zeros_like(norms), where=norms > 0)
        grads[idx] = t * scale.reshape(scale.shape + (1,) * (t.ndim - scale.ndim))
    return grads
