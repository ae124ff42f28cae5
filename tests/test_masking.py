from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipmask import (FieldError, check_min_nonzero, desk_arch, extract,
                        filter_zero, finite_diff_check, group_lasso_grad,
                        group_lasso_value, masking, retained_count,
                        threshold_layer)
from gossipmask.cli import parse_config, run_experiment
from gossipmask.errors import LayerError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# -------------------------------------------------------- threshold_layer

def test_threshold_hand_example():
    mask = threshold_layer(np.array([0.5, -0.9, 0.1, 0.3]), 0.5)
    np.testing.assert_array_equal(mask, [1, 1, 0, 0])


def test_threshold_full_retention():
    z = np.random.default_rng(0).standard_normal((3, 4))
    np.testing.assert_array_equal(threshold_layer(z, 1.0), np.ones((3, 4)))


def test_threshold_tie_break_lowest_flat_index():
    mask = threshold_layer(np.array([0.2, 0.2, 0.2, 0.2]), 0.5)
    np.testing.assert_array_equal(mask, [1, 1, 0, 0])


def test_threshold_rejects_bad_ratio():
    for r in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            threshold_layer(np.ones(4), r)
    with pytest.raises(ValueError):
        threshold_layer(np.zeros(0), 0.5)


def test_threshold_never_empty():
    mask = threshold_layer(np.random.default_rng(1).standard_normal(50), 0.001)
    assert mask.sum() == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 200), st.floats(0.01, 1.0), st.integers(0, 2 ** 31))
def test_threshold_exact_count_property(n, r, seed):
    z = np.random.default_rng(seed).standard_normal(n)
    assert threshold_layer(z, r).sum() == retained_count(r, n)


def argsort_threshold(z, r):
    """Reference: a stable argsort of -|z|, keeping the first k."""
    z = np.asarray(z, dtype=np.float64)
    k = retained_count(r, z.size)
    order = np.argsort(-np.abs(z).ravel(), kind="stable")
    mask = np.zeros(z.size)
    mask[order[:k]] = 1.0
    return mask.reshape(z.shape)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
       st.sampled_from(["normal", "ties", "signed_zeros"]),
       st.integers(0, 2 ** 31), st.data())
def test_threshold_matches_argsort_reference(shape, values, seed, data):
    rng = np.random.default_rng(seed)
    shape = tuple(shape)
    n = int(np.prod(shape))
    if values == "normal":
        z = rng.standard_normal(shape)
    elif values == "ties":
        z = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=shape)
    else:
        z = rng.choice([-0.0, 0.0, -1.0, 1.0], size=shape)
    # k = 1, k = n and everything between
    k = data.draw(st.integers(1, n))
    r = data.draw(st.sampled_from([k / n, 1.0, 1.0 / (2 * n),
                                   float(rng.uniform(0.01, 1.0))]))
    np.testing.assert_array_equal(threshold_layer(z, r), argsort_threshold(z, r))


def test_run_matches_argsort_reference(tmp_path, monkeypatch):
    # configs/train.conf shape; the mask algorithms and the weight
    # baselines' pruning both threshold through masking.extract
    cfg = replace(parse_config((CONFIGS / "train.conf").read_text()),
                  rounds=10, algorithm=("gossip_mask", "par_weipru"))
    outputs = []
    for name in ("partition", "argsort"):
        if name == "argsort":
            monkeypatch.setattr(masking, "threshold_layer", argsort_threshold)
        out = tmp_path / name
        run_experiment(replace(cfg, out=str(out)), quiet=True)
        outputs.append({f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))})
    assert sorted(outputs[0]) == ["metrics_gossip_mask.csv", "metrics_par_weipru.csv",
                                  "sparsity_gossip_mask.csv", "sparsity_par_weipru.csv"]
    assert outputs[0] == outputs[1]


def test_threshold_signed_zero_ties_lowest_index():
    mask = threshold_layer(np.array([-0.0, 0.0, 0.0, -0.0, 1.0]), 0.6)
    np.testing.assert_array_equal(mask, [1, 1, 0, 0, 1])


@pytest.mark.parametrize("r", [0.5, 1.0])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_threshold_rejects_non_finite_scores(r, bad):
    with pytest.raises(ValueError, match="1 non-finite"):
        threshold_layer(np.array([bad, 0.5, -0.2, 0.1]), r)
    with pytest.raises(ValueError, match="2 non-finite"):
        threshold_layer(np.array([[bad, 0.5], [-0.2, np.nan]]), r)


def test_extract_names_the_rejected_layer():
    # also where the masks are written into ``out``
    z = {0: np.ones((2, 3)), 4: np.array([[0.5, np.inf], [np.nan, 0.1]])}
    for out in (None, {idx: np.empty(t.shape, dtype=bool) for idx, t in z.items()}):
        with pytest.raises(LayerError, match=r"^layer 4: 2 non-finite score\(s\) "
                                             r"in a tensor of shape \(2, 2\)$") as caught:
            extract(z, 0.5, out=out)
        assert caught.value.layer == 4


def test_threshold_scale_invariance():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 5))
    for c in (0.01, 3.0, 1e6):
        np.testing.assert_array_equal(threshold_layer(c * z, 0.3),
                                      threshold_layer(z, 0.3))


# -------------------------------------------------------------------- filter_zero

def test_fil_clears_weak_group():
    np.testing.assert_array_equal(filter_zero(np.array([[1.0, 1.0, 0.0, 0.0]]), 3),
                                  [[0, 0, 0, 0]])


def test_fil_zero_threshold_is_identity():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(filter_zero(m, 0), m)


def test_fil_per_group():
    m = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(filter_zero(m, 2), [[1, 1, 1], [0, 0, 0]])


def test_fil_does_not_mutate_input():
    m = np.array([[1.0, 0.0], [1.0, 1.0]])
    filter_zero(m, 2)
    np.testing.assert_array_equal(m, [[1, 0], [1, 1]])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 4),
       st.integers(0, 2 ** 31))
def test_fil_idempotent_property(groups, width, min_nonzero, seed):
    m = (np.random.default_rng(seed).random((groups, width)) < 0.4).astype(float)
    once = filter_zero(m, min_nonzero)
    np.testing.assert_array_equal(filter_zero(once, min_nonzero), once)


# ------------------------------------------------------ check_min_nonzero

def test_min_nonzero_limits_are_inclusive():
    # conv filters of 2 * 2 * 2 = 8 entries; 32 entries keep 6 at r = 0.2
    # and 16 at r = 0.5; the linear layer's filters hold 5 entries each
    shapes = {0: (4, 2, 2, 2), 3: (2, 5)}
    check_min_nonzero(5, shapes, (0.5,))
    check_min_nonzero(0, shapes, (0.01,))
    for min_nonzero, ratios, layer, most in ((6, (0.5,), 3, 5),
                                             (7, (0.5, 0.2), 0, 6),
                                             (2, (0.01,), 0, 1)):
        with pytest.raises(FieldError, match=f"^min_nonzero {min_nonzero}: an output "
                           f"filter of layer {layer} keeps at most {most} ones$") as exc:
            check_min_nonzero(min_nonzero, shapes, ratios)
        assert exc.value.field == "min_nonzero"


# ---------------------------------------------------------------- extract

def test_extract_without_fil_equals_threshold():
    rng = np.random.default_rng(5)
    z = {0: rng.standard_normal((3, 4)), 2: rng.standard_normal((2, 6))}
    masks = extract(z, 0.4, 0)
    for idx in z:
        np.testing.assert_array_equal(masks[idx], threshold_layer(z[idx], 0.4))
    # the same bools written into row 1 of a stack of masks, and returned
    # as those rows; the other rows stay as they were
    stack = {idx: np.zeros((3,) + t.shape, dtype=bool) for idx, t in z.items()}
    rows = extract(z, 0.4, 0, out={idx: t[1] for idx, t in stack.items()})
    for idx, t in stack.items():
        assert np.shares_memory(rows[idx], t[1]) and rows[idx].shape == t[1].shape
        assert t[1].tobytes() == masks[idx].tobytes()
        assert not t[0].any() and not t[2].any()


def test_extract_thresholds_each_layer_through_the_module(monkeypatch):
    # bench/spans.py traces thresholding by swapping masking.threshold_layer,
    # so extract must look that name up on the module at every call
    shapes = desk_arch((3, 8, 8), 6, (16, 32), 32).param_shapes()
    rng = np.random.default_rng(9)
    z = {layer: rng.standard_normal(shape) for layer, shape in shapes.items()}
    calls = []

    def counting(t, r):
        calls.append(t.shape)
        return threshold_layer(t, r)
    monkeypatch.setattr(masking, "threshold_layer", counting)
    masks = extract(z, 0.3, 2)
    assert calls == list(shapes.values()) and len(calls) == 4
    assert all(m.dtype == bool and m.shape == shapes[layer]
               for layer, m in masks.items())


def test_extract_fil_only_clears_bits():
    rng = np.random.default_rng(6)
    z = {0: rng.standard_normal((4, 5))}
    loose = extract(z, 0.3, 0)
    tight = extract(z, 0.3, 2)
    assert 0 < tight[0].sum() <= loose[0].sum()
    assert (tight[0] <= loose[0]).all()
    # 6 ones over 4 filters: none keeps 3, so the layer would be left empty
    with pytest.raises(LayerError, match="^layer 0: filter zeroing at "
                                         "min_nonzero 3 left no ones$"):
        extract(z, 0.3, 3)


def test_extract_starved_filter_cleared():
    # top-3 of 8 entries: two land in filter 0, one in filter 1
    z = np.array([[5.0, 4.0, 0.1, 0.05], [6.0, 0.2, 0.1, 0.05]])
    masks = extract({0: z}, 3 / 8, min_nonzero=2)
    np.testing.assert_array_equal(masks[0], [[1, 1, 0, 0], [0, 0, 0, 0]])


# ------------------------------------------------------------ group lasso

def test_group_lasso_value_hand_examples():
    assert group_lasso_value({0: np.array([[3.0, 4.0]])}, 1.0) == pytest.approx(5.0)
    assert group_lasso_value({0: np.zeros((2, 3))}, 1.0) == 0.0
    z = {0: np.array([[3.0, 4.0], [0.0, 0.0]])}
    assert group_lasso_value(z, 0.5) == pytest.approx(2.5)


def test_group_lasso_value_nonnegative_zero_iff_zero():
    rng = np.random.default_rng(7)
    z = {0: rng.standard_normal((3, 4))}
    assert group_lasso_value(z, 0.5) > 0
    assert group_lasso_value({0: np.zeros((3, 4))}, 0.5) == 0.0


def test_group_lasso_grad_hand_example():
    g = group_lasso_grad({0: np.array([[3.0, 4.0]])}, 1.0)
    np.testing.assert_allclose(g[0], [[0.6, 0.8]], atol=1e-15)


def test_group_lasso_grad_zero_group():
    g = group_lasso_grad({0: np.zeros((2, 3))}, 1.0)
    assert not g[0].any()


def test_group_lasso_grad_matches_finite_differences():
    rng = np.random.default_rng(8)
    lam = 0.37
    z = rng.standard_normal((3, 2, 2, 2))
    # keep every group norm comfortably away from the kink at zero
    z += 0.5 * np.sign(z)

    def fn(t):
        return (group_lasso_value({0: t}, lam),
                group_lasso_grad({0: t}, lam)[0])
    assert finite_diff_check(fn, z, 1e-6) < 1e-6


def test_group_lasso_rejects_negative_lambda():
    with pytest.raises(ValueError):
        group_lasso_value({0: np.ones((1, 2))}, -0.1)
    with pytest.raises(ValueError):
        group_lasso_grad({0: np.ones((1, 2))}, -0.1)
