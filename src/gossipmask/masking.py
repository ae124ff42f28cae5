"""Binary masks from real-valued score tensors.

Each parameterized layer carries a trainable score tensor ``z``; its binary
mask keeps the entries of largest magnitude, layer by layer, at the agent's
retention ratio. A filter-zeroing rule then clears whole output filters
that retained too few entries, and a group-lasso term (the l2 norm of every
output-filter slice) drives the scores toward structured sparsity.

Masks are float64 arrays of 0.0/1.0 so they combine directly with
parameter tensors; the leading axis of every masked tensor indexes output
filters (conv: ``(O, I, H, W)``, linear: ``(O, I)``).
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
        return np.ones(z.shape)
    # everything at or above the k-th largest magnitude; when that keeps
    # more than k, the entries equal to it with the highest flat indices
    # are dropped
    kth = np.partition(a, n - k)[n - k]
    keep = a >= kth
    excess = np.count_nonzero(keep) - k
    if excess:
        ties = np.flatnonzero(a == kth)
        keep[ties[len(ties) - excess:]] = False
    return keep.astype(np.float64).reshape(z.shape)


def filter_zero(mask, min_nonzero):
    """Zero every output filter holding fewer than ``min_nonzero`` ones.

    Groups are slices along the leading axis. ``min_nonzero <= 0`` leaves
    the mask unchanged.
    """
    out = np.array(mask, dtype=np.float64)
    if min_nonzero <= 0:
        return out
    groups = out.reshape(out.shape[0], -1)
    groups[groups.sum(axis=1) < min_nonzero] = 0.0
    return out


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


def extract(tensors, r, min_nonzero=0):
    """Per-layer composition of thresholding and filter zeroing. A tensor
    that thresholding rejects raises a LayerError naming its layer."""
    masks = {}
    for idx, t in sorted(tensors.items()):
        try:
            mask = threshold_layer(t, r)
        except ValueError as exc:
            raise LayerError(idx, str(exc)) from None
        masks[idx] = filter_zero(mask, min_nonzero)
    return masks


def _filter_norms(z, lam):
    """Per layer in index order: the layer index, its score tensor and the
    l2 norm of each output filter. A negative ``lam`` is rejected first."""
    if lam < 0:
        raise FieldError("lam", "lambda must be nonnegative")
    for idx in sorted(z):
        t = np.asarray(z[idx], dtype=np.float64)
        yield idx, t, np.sqrt((t.reshape(t.shape[0], -1) ** 2).sum(axis=1))


def group_lasso_value(z, lam):
    """lam times the sum over layers and output filters of each filter
    slice's l2 norm."""
    return lam * sum(norms.sum() for _, _, norms in _filter_norms(z, lam))


def group_lasso_grad(z, lam):
    """Gradient of :func:`group_lasso_value`: lam * z_g / ||z_g|| per group,
    and the zero tensor for groups of zero norm (subgradient choice)."""
    grads = {}
    for idx, t, norms in _filter_norms(z, lam):
        scale = np.zeros_like(norms)
        nz = norms > 0
        scale[nz] = lam / norms[nz]
        grads[idx] = t * scale.reshape((-1,) + (1,) * (t.ndim - 1))
    return grads
