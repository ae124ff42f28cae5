import pickle
import re
import sys
import threading
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from gossipmask import (FieldError, ModelArch, conv2d, desk_arch, extract,
                        finite_diff_check, flatten, forward, grad_z,
                        init_params, linear, loss_and_grad_v,
                        maxpool2d, relu, shape_chain)
from gossipmask import nn
from gossipmask.cli import RunConfig, parse_config, run_experiment
from gossipmask.nn import _maxpool_backward, _maxpool_forward, loss


def small_arch():
    return ModelArch((conv2d(2, 3, 3, padding=1), relu(), maxpool2d(2, 2),
                      flatten(), linear(27, 4)), (2, 6, 6), 4)


def random_masks(arch, rng, density=0.6):
    return {idx: (rng.random(shape) < density).astype(np.float64)
            for idx, shape in arch.param_shapes().items()}


# ------------------------------------------------------------- arch specs

def test_shape_chain_desk():
    arch = desk_arch((3, 16, 16), 4)
    chain = shape_chain(arch.layers, arch.input_shape)
    assert chain[0] == (3, 16, 16)
    assert chain[-1] == (4,)


def test_arch_rejects_incompatible_layers():
    with pytest.raises(ValueError):
        ModelArch((conv2d(3, 4, 3), flatten(), linear(10, 2)), (2, 6, 6), 2)
    with pytest.raises(ValueError):
        ModelArch((flatten(), linear(8, 3)), (2, 2, 2), 4)  # 3 != 4 classes


def test_zero_sized_layers_rejected():
    with pytest.raises(ValueError, match="conv2d needs positive channel counts"):
        conv2d(3, 0, 5)
    with pytest.raises(ValueError, match="linear needs positive sizes"):
        linear(0, 4)
    # each of these once failed late in shape_chain or grew the input
    kernel, window = "conv2d needs a positive kernel", "maxpool2d needs a positive"
    for make, args, match in [(conv2d, (2, 3, 0), kernel),
                              (conv2d, (2, 3, (3, 0)), kernel),
                              (conv2d, (2, 3, 3, -1), "padding >= 0"),
                              (maxpool2d, (3, 0), window),
                              (maxpool2d, (0, 1), window),
                              (maxpool2d, ((2, 0), 1), window),
                              (maxpool2d, (2, -1), window)]:
        with pytest.raises(ValueError, match=match):
            make(*args)


def test_desk_arch_names_the_rejected_argument():
    for kwargs, field in [({"input_shape": (0, 16, 16)}, "input_shape"),
                          ({"input_shape": (3, 2, 2)}, "input_shape"),
                          ({"input_shape": (3, 16)}, "input_shape"),
                          ({"conv_channels": (16, 0)}, "conv_channels"),
                          ({"hidden": 0}, "hidden"),
                          ({"num_classes": 0}, "num_classes")]:
        with pytest.raises(FieldError) as caught:
            desk_arch(**kwargs)
        assert caught.value.field == field


def test_param_shapes():
    arch = small_arch()
    assert arch.param_shapes() == {0: (3, 2, 3, 3), 4: (4, 27)}
    assert arch.param_count() == 3 * 2 * 9 + 4 * 27


# ------------------------------------------------------------ init_params

def test_init_params_deterministic():
    arch = small_arch()
    a = init_params(arch, 7)
    b = init_params(arch, 7)
    for idx in a:
        assert np.array_equal(a[idx], b[idx])


def test_init_params_in_range():
    arch = small_arch()
    for t in init_params(arch, 7).values():
        assert t.min() >= -1.0 and t.max() <= 1.0


def test_init_params_seed_matters():
    arch = small_arch()
    a = init_params(arch, 7)
    b = init_params(arch, 8)
    assert any(not np.array_equal(a[idx], b[idx]) for idx in a)


# ---------------------------------------------------------------- forward

def test_identity_mask_is_bitwise_noop():
    arch = small_arch()
    rng = np.random.default_rng(0)
    w = init_params(arch, 3)
    x = rng.random((4, 2, 6, 6))
    ones = {idx: np.ones(s) for idx, s in arch.param_shapes().items()}
    masked, _ = forward(arch, w, ones, x)
    unmasked, _ = forward(arch, w, None, x)
    assert np.array_equal(masked, unmasked)


def test_zero_mask_zero_logits():
    arch = small_arch()
    w = init_params(arch, 3)
    zeros = {idx: np.zeros(s) for idx, s in arch.param_shapes().items()}
    logits, _ = forward(arch, w, zeros, np.random.default_rng(1).random((3, 2, 6, 6)))
    assert np.array_equal(logits, np.zeros((3, 4)))


def test_hand_convolution():
    arch = ModelArch((conv2d(1, 1, 1), flatten()), (1, 1, 1), 1)
    logits, _ = forward(arch, {0: np.full((1, 1, 1, 1), 2.0)},
                        {0: np.ones((1, 1, 1, 1))}, np.full((1, 1, 1, 1), 3.0))
    assert logits[0, 0] == pytest.approx(6.0, abs=0)


def test_forward_shape_mismatch():
    arch = small_arch()
    w = init_params(arch, 3)
    with pytest.raises(ValueError):
        forward(arch, w, None, np.zeros((2, 2, 5, 5)))
    bad_mask = {idx: np.ones(s) for idx, s in arch.param_shapes().items()}
    bad_mask[0] = np.ones((3, 2, 2, 2))
    with pytest.raises(ValueError):
        forward(arch, w, bad_mask, np.zeros((2, 2, 6, 6)))


def test_forward_deterministic():
    arch = small_arch()
    rng = np.random.default_rng(5)
    w = init_params(arch, 5)
    m = random_masks(arch, rng)
    x = rng.random((3, 2, 6, 6))
    a, _ = forward(arch, w, m, x)
    b, _ = forward(arch, w, m, x)
    assert np.array_equal(a, b)


# ------------------------------------------------------------------- loss

def test_uniform_logits_loss_is_log_classes():
    arch = small_arch()
    w = init_params(arch, 3)
    zeros = {idx: np.zeros(s) for idx, s in arch.param_shapes().items()}
    x = np.random.default_rng(2).random((6, 2, 6, 6))
    loss, _ = loss_and_grad_v(arch, w, zeros, x, np.arange(6) % 4)
    assert loss == pytest.approx(np.log(4), abs=1e-12)


def test_empty_batch_rejected():
    arch = small_arch()
    w = init_params(arch, 3)
    with pytest.raises(ValueError):
        loss_and_grad_v(arch, w, None, np.zeros((0, 2, 6, 6)), np.zeros(0, int))


def test_labels_out_of_range_rejected():
    arch = small_arch()
    w = init_params(arch, 3)
    x = np.zeros((2, 2, 6, 6))
    with pytest.raises(ValueError):
        loss_and_grad_v(arch, w, None, x, np.array([0, 4]))


def test_forward_only_loss_shares_input_checks():
    arch = small_arch()
    w = init_params(arch, 3)
    x = np.zeros((2, 2, 6, 6))
    for batch, labels in ((np.zeros((0, 2, 6, 6)), np.zeros(0, int)),
                          (x, np.array([0, 4])), (x, np.array([0, 1, 2]))):
        with pytest.raises(ValueError):
            loss(arch, w, None, batch, labels)


def test_forward_only_loss_builds_no_gradient(monkeypatch):
    # the logged loss needs the value alone: no softmax gradient is built
    def no_gradient(*args):
        raise AssertionError("loss built a softmax gradient")
    monkeypatch.setattr(nn, "_softmax_cross_entropy", no_gradient)
    arch = small_arch()
    x = np.random.default_rng(0).random((3,) + arch.input_shape)
    assert np.isfinite(loss(arch, init_params(arch, 0), None, x, np.array([0, 1, 2])))


@pytest.mark.parametrize("masked", [False, True])
def test_forward_only_loss_bitwise_equal(masked):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        arch = small_arch() if seed % 2 else desk_arch((3, 8, 8), 6, (16, 32), 32)
        w = init_params(arch, seed)
        m = random_masks(arch, rng) if masked else None
        x = rng.random((int(rng.integers(1, 20)),) + arch.input_shape)
        y = rng.integers(0, arch.num_classes, len(x))
        value, _ = loss_and_grad_v(arch, w, m, x, y)
        assert loss(arch, w, m, x, y) == value
    # the README default shape, across the evaluation's 128-sample chunks
    rng = np.random.default_rng(7)
    arch = desk_arch((3, 16, 16), 10, (16, 32), 128)
    w = init_params(arch, 7)
    m = random_masks(arch, rng) if masked else None
    for n in (129, 256, 300):
        x, y = rng.standard_normal((n,) + arch.input_shape), rng.integers(0, 10, n)
        assert loss(arch, w, m, x, y) == loss_and_grad_v(arch, w, m, x, y)[0]
        assert nn._logits(arch, w, m, x).tobytes() == forward(arch, w, m, x)[0].tobytes()


def test_forward_only_loss_peaks_below_a_training_step():
    # the logged loss over 256 README-default samples keeps no cache and
    # holds one 128-sample chunk's columns at a time, so the peak does not
    # grow with the batch (512 samples: an accuracy chunk)
    arch = desk_arch((3, 16, 16), 10, (16, 32), 128)
    rng = np.random.default_rng(0)
    w = init_params(arch, 0)
    x, y = rng.standard_normal((512, 3, 16, 16)), rng.integers(0, 10, 512)
    loss_and_grad_v(arch, w, None, x[:128], y[:128])   # builds the tables

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(arch, w, None, *args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    step = peak(loss_and_grad_v, x[:128], y[:128])
    for n in (256, 512):
        assert peak(loss, x[:n], y[:n]) < step


def test_training_step_holds_one_set_of_large_columns():
    # a conv keeps its columns below _SHARED_BYTES, else its padded input.
    # At the README default shape and batch 128 each conv's columns take
    # about 19 MiB: the weight gradients gather them into the one shared
    # buffer, so the step itself holds none. At batch 8 both convs (1.2 MiB
    # each) keep their columns, and so does the desk shape at its batch of
    # 8 and the harness's batch of 32 (1.2 and 0.9 MiB)
    arch = desk_arch((3, 16, 16), 10, (16, 32), 128)
    rng = np.random.default_rng(0)
    w = init_params(arch, 0)
    x, y = rng.standard_normal((128, 3, 16, 16)), rng.integers(0, 10, 128)
    loss_and_grad_v(arch, w, None, x, y)   # builds the tables and the buffer
    tracemalloc.start()
    try:
        loss_and_grad_v(arch, w, None, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20
    assert nn._shared_buf.nbytes >= 128 * 7 * 7 * 16 * 25 * 8

    def kept(arch, batch):
        caches = forward(arch, init_params(arch, 0), None, batch)[1]
        return [(e[3][0] is not None, e[3][1] is not None)
                for e in caches if e[0] == "conv2d"]
    assert kept(arch, x) == [(False, True)] * 2
    assert kept(arch, x[:8]) == [(True, False)] * 2
    desk = desk_arch((3, 8, 8), 6, (16, 32), 32)
    assert kept(desk, rng.standard_normal((8, 3, 8, 8))) == [(True, False)] * 2
    assert kept(desk, rng.standard_normal((32, 3, 8, 8))) == [(True, False)] * 2


def test_harness_step_peak_holds_its_kept_columns():
    # a mask-vs-weight harness step (3x8x8, batch 32) keeps both convs'
    # columns, 1.2 and 0.9 MiB, and peaks near 2.4 MiB. The upper conv's
    # columns go before its input gradient's 0.9 MiB of column gradient:
    # held through it, the step peaks near 3.3 MiB
    arch = desk_arch((3, 8, 8), 4, (16, 32), 32)
    rng = np.random.default_rng(0)
    w = init_params(arch, 0)
    x, y = rng.standard_normal((32, 3, 8, 8)), rng.integers(0, 4, 32)
    loss_and_grad_v(arch, w, None, x, y)   # builds the tables
    tracemalloc.start()
    try:
        loss_and_grad_v(arch, w, None, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * (1 << 20)


def test_desk_gossip_round_peak_holds_one_stack():
    # a gossip_mask round at configs/train.conf's shape (8 agents, batch 8)
    # steps all 8 agents as one stack, holding their effective tensors,
    # gradients and score stacks at once. Rounds 2 to 5 peak near 6.4 MiB
    # beside the shared column buffer (2.3 MiB, the stack's lower conv),
    # which round 1 allocates; one agent at a time they peaked near 4.2 MiB,
    # and 8.6 MiB when a stack kept its columns
    import gossipmask as gm
    from gossipmask import trainer
    cfg = parse_config((Path(__file__).resolve().parent.parent / "configs"
                        / "train.conf").read_text())
    train, test = gm.synth_generate(cfg.classes, cfg.dim, cfg.per_class, cfg.noise, seed=0)
    plan = gm.partition(train, test, gm.assign_labels(cfg.n, cfg.classes, cfg.c, 0), 0)
    graph = gm.erdos_renyi(cfg.n, cfg.p, 0)
    arch = desk_arch(cfg.dim, cfg.classes, cfg.conv_channels, cfg.hidden)
    hyper = gm.HyperConfig("gossip_mask", 5, cfg.batch_size, cfg.eta_mask, cfg.lam, 0,
                           (0.1, 0.2, 0.3, 0.4) * 2, cfg.min_nonzero)
    assert nn._stack_size(arch, hyper.batch_size) >= cfg.n
    w = init_params(arch, 0)
    states = trainer.build_states(arch, hyper, graph, train, test, plan, w)
    averages = trainer._exchange_masks(graph, {s.agent_id: s.m for s in states}, 0,
                                       arch.param_shapes(), None)
    for s in states:
        s.neighbor_avg = averages[s.agent_id]
    trainer.gossip_mask_round(states, w, arch, graph, hyper, 1)
    tracemalloc.start()
    try:
        for k in range(2, 6):
            trainer.gossip_mask_round(states, w, arch, graph, hyper, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.9 * (1 << 20)
    assert nn._shared_buf.nbytes >= 8 * nn._largest_column_bytes(arch, hyper.batch_size)


def test_readme_quotes_the_size_bounds_as_nn_sets_them():
    # every nn._*_BYTES name the README quotes exists in nn, each comes with
    # its figure, as "4 MiB (`_SHARED_BYTES`)" or "`nn._SHARED_BYTES`
    # (4 MiB)", and the figure equals the constant
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    name = r"`(?:nn\.)?(_[A-Z_]+_BYTES)`"
    figure = r"(\d+(?:\.\d+)?)\s+(KiB|MiB)"
    names = set(re.findall(name, readme))
    assert names and {n for n in names if not hasattr(nn, n)} == set()
    quoted = ([(n, f, u) for f, u, n
               in re.findall(figure + r"\s+\(" + name + r"\)", readme)]
              + re.findall(name + r"\s+\(" + figure + r"\)", readme))
    assert {n for n, _, _ in quoted} == names
    unit = {"KiB": 1 << 10, "MiB": 1 << 20}
    for n, f, u in quoted:
        assert float(f) * unit[u] == getattr(nn, n), (n, f, u)


def test_loss_and_grad_v_on_three_threads_bitwise_equal_to_serial(monkeypatch):
    # above one block and _SHARED_BYTES (here from the first byte) every
    # conv's weight gradient gathers its columns into the one shared buffer;
    # three threads that switch often contend for it, and each result
    # matches a serial call
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 1)
    monkeypatch.setattr(nn, "_SHARED_BYTES", 0)
    monkeypatch.setattr(nn, "_shared_buf", np.empty(0))
    arch = desk_arch((3, 8, 8), 6, (16, 32), 32)
    rng = np.random.default_rng(5)
    w = init_params(arch, 5)
    calls = [(random_masks(arch, rng), rng.standard_normal((n, 3, 8, 8)),
              rng.integers(0, 6, n)) for n in (8, 32, 13) for _ in range(2)]

    def digest(m, x, y):
        value, grads = loss_and_grad_v(arch, w, m, x, y)
        return pickle.dumps((value, grads))
    want = [digest(*call) for call in calls]
    got, start = [[] for _ in range(3)], threading.Barrier(3, timeout=10)

    def worker(t):
        start.wait()
        for k in range(4 * len(calls)):     # each call several times, staggered
            got[t].append(digest(*calls[(k + 2 * t) % len(calls)]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for t in range(3):
        assert got[t] == [want[(k + 2 * t) % len(calls)] for k in range(4 * len(calls))]
    assert nn._shared_buf.nbytes == nn._largest_column_bytes(arch, 32)


# ------------------------------------------------------------ agent stacks

def _stack_masks(arch, rng, agents):
    """Per agent a bool mask set at a retention ratio in [0.1, 0.4], with
    one output filter of the first layer cleared."""
    sets = []
    for _ in range(agents):
        z = {idx: rng.standard_normal(shape)
             for idx, shape in arch.param_shapes().items()}
        m = extract(z, float(rng.uniform(0.1, 0.4)))
        m[min(m)][int(rng.integers(len(m[min(m)])))] = False
        sets.append(m)
    return sets


def _stack_cases():
    """(name, arch, batch, agents): the desk and harness shapes, a 1x1
    conv whose columns are a strided view (``_conv_offsets`` is None) and
    the README default shape."""
    yield "desk", desk_arch((3, 8, 8), 6, (16, 32), 32), 8, 3
    yield "desk", desk_arch((3, 8, 8), 6, (16, 32), 32), 8, 8
    yield "harness", desk_arch((3, 8, 8), 4, (16, 32), 32), 32, 4
    yield "view", ModelArch((conv2d(2, 3, 1), relu(), maxpool2d(2, 2), flatten(),
                             linear(27, 4)), (2, 6, 6), 4), 5, 3
    yield "default", desk_arch((3, 16, 16), 10, (16, 32), 128), 3, 2


# (_BLOCK_BYTES, _SHARED_BYTES): a stack runs blocked and gathers its
# weight gradients' columns in the shared buffer, with whole agents per
# block where one fits (three of the desk shape's), while the one-agent
# calls keep their columns or share them too; and one sample per block
_STACK_REGIMES = ((1 << 20, 1 << 62), (1 << 20, 0), (1, 0))


@pytest.mark.parametrize("regime", _STACK_REGIMES)
def test_stacked_loss_and_grad_v_equals_per_agent_calls(monkeypatch, regime):
    # every agent's loss and gradients in a stack, bit for bit its own
    # call's: shared and per-agent weights, masked and dense
    monkeypatch.setattr(nn, "_BLOCK_BYTES", regime[0])
    monkeypatch.setattr(nn, "_SHARED_BYTES", regime[1])
    for k, (name, arch, n, agents) in enumerate(_stack_cases()):
        rng = np.random.default_rng(k)
        x = rng.random((agents, n) + arch.input_shape)
        y = rng.integers(0, arch.num_classes, (agents, n))
        masks = _stack_masks(arch, rng, agents)
        own = [init_params(arch, [k, a]) for a in range(agents)]
        shared = init_params(arch, k)
        for w, m in ((shared, masks), (own, masks), (shared, None), (own, None)):
            ws = w if isinstance(w, dict) else {
                idx: np.stack([p[idx] for p in w]) for idx in w[0]}
            ms = None if m is None else {idx: np.stack([s[idx] for s in m])
                                         for idx in m[0]}
            values, grads = loss_and_grad_v(arch, ws, ms, x, y)
            assert values.shape == (agents,)
            for a in range(agents):
                wa = w if isinstance(w, dict) else w[a]
                ma = None if m is None else m[a]
                value, grad = loss_and_grad_v(arch, wa, ma, x[a], y[a])
                assert np.float64(values[a]).tobytes() == np.float64(value).tobytes(), name
                assert values[a] == loss(arch, wa, ma, x[a], y[a])
                assert sorted(grads) == sorted(grad)
                for idx, g in grad.items():
                    assert grads[idx][a].tobytes() == g.tobytes(), (name, idx)


def test_a_stack_of_one_equals_the_unstacked_call():
    arch = desk_arch((3, 8, 8), 6, (16, 32), 32)
    rng = np.random.default_rng(3)
    w = init_params(arch, 3)
    m = _stack_masks(arch, rng, 1)[0]
    x, y = rng.random((8, 3, 8, 8)), rng.integers(0, 6, 8)
    value, grad = loss_and_grad_v(arch, w, m, x, y)
    values, grads = loss_and_grad_v(arch, w, {i: t[None] for i, t in m.items()},
                                    x[None], y[None])
    assert values.shape == (1,) and values[0] == value
    for idx, g in grad.items():
        assert grads[idx].shape == (1,) + g.shape
        assert grads[idx][0].tobytes() == g.tobytes()


def test_stacked_call_rejects_mismatched_agents():
    arch = small_arch()
    w = init_params(arch, 0)
    x, y = np.zeros((3, 2, 2, 6, 6)), np.zeros((3, 2), dtype=int)
    with pytest.raises(ValueError, match="disagree"):
        loss_and_grad_v(arch, w, None, x, y[:2])
    masks = {idx: np.ones((2,) + shape) for idx, shape in arch.param_shapes().items()}
    with pytest.raises(ValueError, match="mask missing or shape mismatch"):
        loss_and_grad_v(arch, w, masks, x, y)


def test_duplicated_batch_same_loss_and_grad():
    arch = small_arch()
    rng = np.random.default_rng(9)
    w = init_params(arch, 9)
    m = random_masks(arch, rng)
    x = rng.random((5, 2, 6, 6))
    y = rng.integers(0, 4, 5)
    loss1, g1 = loss_and_grad_v(arch, w, m, x, y)
    loss2, g2 = loss_and_grad_v(arch, w, m, np.concatenate([x, x]),
                                np.concatenate([y, y]))
    assert loss1 == pytest.approx(loss2, rel=1e-12)
    for idx in g1:
        np.testing.assert_allclose(g1[idx], g2[idx], rtol=0, atol=1e-14)


def test_grad_matches_finite_differences_two_layer_net():
    arch = small_arch()
    rng = np.random.default_rng(4)
    w = init_params(arch, 4)
    m = random_masks(arch, rng)
    x = rng.random((4, 2, 6, 6))
    y = rng.integers(0, 4, 4)
    v = {idx: w[idx] * m[idx] for idx in w}
    for idx in v:
        def fn(t, idx=idx):
            probe = dict(v)
            probe[idx] = t
            loss, grads = loss_and_grad_v(arch, probe, None, x, y)
            return loss, grads[idx]
        err = finite_diff_check(fn, v[idx], 1e-5, num_coords=30, seed=idx)
        assert err < 1e-5


# ----------------------------------------------------------------- grad_z

def test_grad_z_hand_example():
    out = grad_z(np.array([2.0, -3.0]), np.array([0.5, 1.0]),
                 np.array([0.1, -0.2]))
    np.testing.assert_array_equal(out, [1.0, 3.0])


def test_grad_z_zero_score_gives_zero():
    out = grad_z(np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.zeros(2))
    assert not out.any()


def test_grad_z_zero_weight_gives_zero():
    out = grad_z(np.array([1.0, 2.0]), np.zeros(2), np.array([0.5, -0.5]))
    assert not out.any()


def test_grad_z_shape_mismatch():
    with pytest.raises(ValueError):
        grad_z(np.zeros(2), np.zeros(3), np.zeros(3))


# ------------------------------------------------------ finite differences

def test_finite_diff_quadratic():
    def fn(x):
        return (x ** 2).sum(), 2 * x
    assert finite_diff_check(fn, np.array([1.0, 2.0]), 1e-6) < 1e-6


def test_finite_diff_linear_is_exact():
    c = np.array([3.0, -1.0, 0.5])

    def fn(x):
        return (c * x).sum(), c
    assert finite_diff_check(fn, np.array([0.2, 0.4, -0.1]), 1e-4) < 1e-9


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_check(lambda x: ((x ** 2).sum(), 2 * x), np.ones(2), 0.0)


def test_finite_diff_masked_cnn_loss():
    arch = small_arch()
    rng = np.random.default_rng(12)
    w = init_params(arch, 12)
    m = random_masks(arch, rng)
    x = rng.random((3, 2, 6, 6))
    y = rng.integers(0, 4, 3)
    v = {idx: w[idx] * m[idx] for idx in w}

    def fn(t):
        probe = dict(v)
        probe[0] = t
        loss, grads = loss_and_grad_v(arch, probe, None, x, y)
        return loss, grads[0]
    assert finite_diff_check(fn, v[0], 1e-5, num_coords=25) < 1e-5


# ------------------------------------------------------- gradient routing

def test_maxpool_routes_to_argmax_only():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    out, cache = _maxpool_forward(x, (2, 2), 2)
    np.testing.assert_array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])
    gx = _maxpool_backward(np.ones_like(out), cache)
    expected = np.zeros((1, 1, 4, 4))
    expected[0, 0, 1, 1] = expected[0, 0, 1, 3] = 1.0
    expected[0, 0, 3, 1] = expected[0, 0, 3, 3] = 1.0
    np.testing.assert_array_equal(gx, expected)
    # inactive paths receive exactly zero
    assert np.abs(gx[expected == 0]).sum() == 0.0


def test_maxpool_tie_breaks_to_lowest_flat_index():
    x = np.full((1, 1, 2, 2), 3.0)
    out, cache = _maxpool_forward(x, (2, 2), 2)
    gx = _maxpool_backward(np.ones_like(out), cache)
    expected = np.zeros((1, 1, 2, 2))
    expected[0, 0, 0, 0] = 1.0
    np.testing.assert_array_equal(gx, expected)


def test_maxpool_overlapping_windows_accumulate():
    x = np.zeros((1, 1, 3, 3))
    x[0, 0, 1, 1] = 5.0  # center wins every 2x2/1 window... use stride 2 window 3
    out, cache = _maxpool_forward(x, (3, 3), 2)
    gx = _maxpool_backward(np.ones_like(out), cache)
    assert gx[0, 0, 1, 1] == 1.0


def test_maxpool_input_gradient_is_channel_last():
    # channel-last whatever the input's layout: in desk_arch the pool input
    # is a conv output through a relu, so the relu mask has that layout too
    x = np.random.default_rng(0).standard_normal((2, 3, 7, 7))
    channel_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    strided = np.zeros((2, 3, 7, 14))[..., ::2]
    strided[...] = x
    for layout in (x, channel_last, strided):
        out, cache = _maxpool_forward(layout, (3, 3), 2)
        gx = _maxpool_backward(np.ones_like(out), cache)
        assert gx.transpose(0, 2, 3, 1).flags.c_contiguous
        np.testing.assert_array_equal(
            gx, _ref_maxpool_backward(np.ones_like(out), cache))


def test_relu_blocks_inactive_gradient():
    arch = ModelArch((flatten(), linear(2, 2), relu(), linear(2, 2)), (2,), 2)
    w = {1: np.array([[1.0, 0.0], [-1.0, 0.0]]), 3: np.eye(2)}
    x = np.array([[1.0, 5.0]])
    # second hidden unit is negative, so nothing may flow through row 1
    _, g = loss_and_grad_v(arch, w, None, x, np.array([0]))
    assert np.abs(g[1][1]).sum() == 0.0
    assert np.abs(g[3][:, 1]).sum() == 0.0


# ------------------------------------------------ layer kernels, bit for bit

def _ref_conv_forward(x, v, padding):
    """The earlier conv forward: ``np.pad`` and a transposed
    ``sliding_window_view``. Returns the output and the columns."""
    n = x.shape[0]
    o, _, kh, kw = v.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    oh, ow = win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh, ow, -1)
    out = cols @ v.reshape(o, -1).T
    return out.transpose(0, 3, 1, 2), cols


def _ref_maxpool_forward(x, window, stride):
    """The earlier max-pool forward: a strided ``sliding_window_view`` and
    ``take_along_axis``. Returns the output and the argmax indices."""
    win = np.lib.stride_tricks.sliding_window_view(x, window, axis=(2, 3))
    flat = win[:, :, ::stride, ::stride]
    flat = flat.reshape(flat.shape[:4] + (-1,))
    idx = flat.argmax(axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], idx


def _ref_conv_backward(grad_out, v, cache):
    """The earlier conv backward: col2im over kernel offsets into an
    (n, c, h, w) buffer with transposed reads, and the weight gradient
    from the cached columns, where the cache holds them."""
    cols, _, x_shape, padding = cache
    n, c, h, w = x_shape
    o, _, kh, kw = v.shape
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    g = grad_out.transpose(0, 2, 3, 1)
    grad_v = None if cols is None else (
        g.reshape(-1, o).T @ cols.reshape(-1, cols.shape[-1])).reshape(v.shape)
    gc = (g @ v.reshape(o, -1)).reshape(n, oh, ow, c, kh, kw)
    gxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    for a in range(kh):
        for b in range(kw):
            gxp[:, :, a:a + oh, b:b + ow] += gc[:, :, :, :, a, b].transpose(0, 3, 1, 2)
    if padding:
        gxp = gxp[:, :, padding:padding + h, padding:padding + w]
    return gxp, grad_v


def _ref_maxpool_backward(grad_out, cache):
    """The earlier max-pool backward: one ``np.add.at`` scatter."""
    idx, x_shape, window, stride = cache
    n, c, oh, ow = grad_out.shape
    ww = window[1]
    gx = np.zeros(x_shape)
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    ri = np.arange(oh)[None, None, :, None] * stride + idx // ww
    cj = np.arange(ow)[None, None, None, :] * stride + idx % ww
    np.add.at(gx, (np.broadcast_to(ni, idx.shape), np.broadcast_to(ci, idx.shape),
                   ri, cj), grad_out)
    return gx


def _wide_magnitudes(rng, shape):
    """Normal draws scaled entry by entry by 10**k, k uniform in [-8, 8]."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)


def _layouts(g):
    """``g`` as a contiguous array, a channel-last transposed view and a
    strided slice of a larger array."""
    wide = np.zeros(g.shape[:-1] + (2 * g.shape[-1],))
    wide[..., ::2] = g
    return (g, np.ascontiguousarray(g.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
            wide[..., ::2])


def _conv_cases():
    rng = np.random.default_rng(2024)
    # the desk arch's second conv: 3x3 output positions, fewer than its
    # 5x5 kernel offsets; then the README default shape's second conv
    yield rng, (8, 16, 3, 3), (32, 16, 5, 5), 2
    yield rng, (16, 16, 7, 7), (32, 16, 5, 5), 2
    # _conv_backward's sample blocks: 6, 6 and a remainder of 1 here, and
    # one sample per block at a 32x32 output
    yield rng, (13, 16, 7, 7), (32, 16, 5, 5), 2
    yield rng, (2, 8, 32, 32), (4, 8, 5, 5), 2
    # kernel offsets whose every window position lies in the padding: 2x2,
    # 1x6 and 1x1 inputs under a 5x5 kernel at padding 2
    yield rng, (3, 4, 2, 2), (8, 4, 5, 5), 2
    yield rng, (2, 3, 1, 6), (5, 3, 5, 5), 2
    yield rng, (4, 2, 1, 1), (3, 2, 5, 5), 2
    # a 1x1 kernel: the columns are a view of the padded input
    yield rng, (2, 5, 4, 4), (3, 5, 1, 1), 1
    for _ in range(40):
        kh, kw = (int(k) for k in rng.integers(1, 6, 2))
        pad = int(rng.integers(0, 3))
        h = int(rng.integers(max(1, kh - 2 * pad), 9))
        w = int(rng.integers(max(1, kw - 2 * pad), 9))
        n, c = (int(k) for k in rng.integers(1, 6, 2))
        o = int(rng.choice([1, 3, 8, 32, 33]))
        yield rng, (n, c, h, w), (o, c, kh, kw), pad


def _special_values(rng, x):
    """``x`` with a few NaN, +-inf and -0.0 entries."""
    x = x.copy()
    flat = x.reshape(-1)
    for value in (np.nan, np.inf, -np.inf, -0.0):
        flat[rng.integers(0, flat.size, max(1, flat.size // 50))] = value
    return x


def _nan_blind(a):
    """The bytes of ``a`` with every NaN as the one positive quiet NaN."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _columns(cache, v):
    """A conv cache's columns: the cached ones, or gathered again from the
    cached padded input."""
    cols, xp = cache[:2]
    return nn._im2col(xp, *v.shape[2:]) if cols is None else cols


# (_BLOCK_BYTES, _SHARED_BYTES) of the two conv regimes: columns kept, and
# the input gradient in one block; a blocked forward and the columns
# gathered again into the shared buffer, one sample per block
_REGIMES = {"keep": (1 << 62, 1 << 62), "shared": (1, 0)}


def test_conv_forward_bitwise_equal_to_reference(monkeypatch):
    # an evaluation forward (keep False) runs blocked in either regime
    cases = 0
    for i, (rng, x_shape, v_shape, pad) in enumerate(_conv_cases()):
        x = _wide_magnitudes(rng, x_shape)
        if i % 2:
            x = _special_values(rng, x)
        v = _wide_magnitudes(rng, v_shape)
        for layout in _layouts(x):
            before = layout.copy()
            for (regime, (block, shared)), keep in product(_REGIMES.items(), (True, False)):
                monkeypatch.setattr(nn, "_BLOCK_BYTES", block)
                monkeypatch.setattr(nn, "_SHARED_BYTES", shared)
                with np.errstate(invalid="ignore"):  # inf - inf in the products
                    want_out, want_cols = _ref_conv_forward(layout, v, pad)
                    out, cache = nn._conv_forward(layout, v, pad, keep)
                    cols = _columns(cache, v)
                assert out.tobytes() == want_out.tobytes(), (x_shape, v_shape, pad)
                assert out.strides == want_out.strides
                assert cols.tobytes() == want_cols.tobytes()
                keeps_xp = regime != "keep" or not keep
                assert (cache[0] is None, cache[1] is None) == (keeps_xp, not keeps_xp)
                assert cache[2:] == (x_shape, pad)
                assert layout.tobytes() == before.tobytes()
                cases += 1
    assert cases == 3 * 2 * 2 * 48


def test_maxpool_forward_bitwise_equal_to_reference():
    rng = np.random.default_rng(11)
    for trial in range(300):
        wh, ww = (int(k) for k in rng.integers(1, 4, 2))
        stride = int(rng.integers(1, 5))  # up to wider than the window
        n, c = (int(k) for k in rng.integers(1, 4, 2))
        h, w = int(rng.integers(wh, 10)), int(rng.integers(ww, 10))
        if trial % 2:
            x = rng.integers(0, 2, (n, c, h, w)).astype(np.float64)  # heavy ties
        else:
            x = rng.standard_normal((n, c, h, w))
        if trial % 3 == 0:
            x = _special_values(rng, x)
        for layout in _layouts(x):
            before = layout.copy()
            want_out, want_idx = _ref_maxpool_forward(layout, (wh, ww), stride)
            out, (idx, x_shape, window, s) = _maxpool_forward(
                layout, (wh, ww), stride)
            assert out.tobytes() == want_out.tobytes(), (trial, (wh, ww), stride)
            assert out.strides == want_out.strides
            assert idx.tobytes() == want_idx.tobytes() and idx.shape == want_idx.shape
            assert (x_shape, window, s) == (x.shape, (wh, ww), stride)
            assert layout.tobytes() == before.tobytes()


def test_conv_backward_bitwise_equal_to_reference(monkeypatch):
    # the weight gradient of a cache that keeps the padded input gathers the
    # columns again; its bytes match the reference's on the reference's
    # columns. The input gradient runs one sample per block but in "keep",
    # its col2im per kernel offset or, where fewer, per output position;
    # every other case's output gradient holds NaN, +-inf and -0.0. A NaN
    # meeting a NaN of the other sign may keep either sign, as numpy's add
    # loops pick their operand order by layout, so NaN signs are not compared
    monkeypatch.setattr(nn, "_shared_buf", np.empty(0))
    cases, orders = 0, set()
    for i, (rng, x_shape, v_shape, pad) in enumerate(_conv_cases()):
        x = _wide_magnitudes(rng, x_shape)
        v = _wide_magnitudes(rng, v_shape)
        out, want_cols = _ref_conv_forward(x, v, pad)
        g = _wide_magnitudes(rng, out.shape)
        if i % 2:
            g = _special_values(rng, g)
        spans = nn._col2im_spans(*x_shape[2:], *v_shape[2:], pad)
        orders.add((isinstance(spans[0][1][1], int), i % 2))
        for layout in _layouts(g):
            with np.errstate(invalid="ignore"):  # inf - inf in the products
                want_gx, want_gv = _ref_conv_backward(
                    layout, v, (want_cols, None, x_shape, pad))
            for block, shared in _REGIMES.values():
                monkeypatch.setattr(nn, "_BLOCK_BYTES", block)
                monkeypatch.setattr(nn, "_SHARED_BYTES", shared)
                cache = nn._conv_forward(x, v, pad)[1]
                with np.errstate(invalid="ignore"):
                    gx = nn._conv_backward(layout, v, *cache[2:])
                    gv = nn._conv_grad_v(layout, v, cache)
                assert gx.shape == x_shape
                assert _nan_blind(gx) == _nan_blind(want_gx), (x_shape, v_shape, pad)
                assert gv.tobytes() == want_gv.tobytes()
                cases += 1
    assert cases == 3 * 2 * 48
    # both col2im orders, each on finite and on special output gradients
    assert orders == {(False, 0), (False, 1), (True, 0), (True, 1)}
    assert nn._shared_buf.nbytes > 0


def test_maxpool_backward_bitwise_equal_to_reference():
    rng = np.random.default_rng(7)
    for trial in range(300):
        wh, ww, stride = (int(k) for k in rng.integers(1, 4, 3))
        n, c = (int(k) for k in rng.integers(1, 4, 2))
        h, w = int(rng.integers(wh, 10)), int(rng.integers(ww, 10))
        if trial % 2:
            x = rng.integers(0, 2, (n, c, h, w)).astype(np.float64)  # heavy ties
        else:
            x = rng.standard_normal((n, c, h, w))
        out, cache = _maxpool_forward(x, (wh, ww), stride)
        g = _wide_magnitudes(rng, out.shape)
        g[rng.random(g.shape) < 0.1] = -0.0
        if trial % 10 == 0:
            g.flat[0], g.flat[-1] = np.inf, np.nan
        for layout in _layouts(g):
            want = _ref_maxpool_backward(layout, cache)
            assert _maxpool_backward(layout, cache).tobytes() == want.tobytes(), \
                (trial, (wh, ww), stride)


class _MatmulSpy:
    """Stands in for a linear layer's weight in the backward cache and
    counts the products ``g @ v`` that form the layer's input gradient."""

    __array_ufunc__ = None  # numpy defers ``g @ spy`` to __rmatmul__

    def __init__(self, v):
        self.v, self.calls = v, 0

    def __rmatmul__(self, g):
        self.calls += 1
        return g @ self.v


def test_backward_skips_input_gradient_of_lowest_conv(monkeypatch):
    conv_calls, pool_calls = [], []
    conv_bw, pool_bw = nn._conv_backward, nn._maxpool_backward

    def conv_spy(g, v, x_shape, padding):
        conv_calls.append(v.shape)
        return conv_bw(g, v, x_shape, padding)

    def pool_spy(g, cache):
        pool_calls.append(g.shape)
        return pool_bw(g, cache)
    monkeypatch.setattr(nn, "_conv_backward", conv_spy)
    monkeypatch.setattr(nn, "_maxpool_backward", pool_spy)
    rng = np.random.default_rng(1)

    arch = desk_arch((3, 8, 8), 6, (16, 32), 32)
    x = rng.random((8, 3, 8, 8))
    grads = loss_and_grad_v(arch, init_params(arch, 1), None, x, np.arange(8) % 6)[1]
    assert sorted(grads) == [0, 3, 7, 9]
    assert conv_calls == [(32, 16, 5, 5)]  # never conv0's input gradient
    assert len(pool_calls) == 2

    # a pool below the lowest conv is not back-propagated at all
    conv_calls.clear()
    pool_calls.clear()
    arch = ModelArch((maxpool2d(2, 1), conv2d(2, 3, 3, padding=1), relu(),
                      maxpool2d(2, 2), flatten(), linear(12, 4)), (2, 5, 5), 4)
    grads = loss_and_grad_v(arch, init_params(arch, 1), None,
                            rng.random((4, 2, 5, 5)), np.arange(4))[1]
    assert sorted(grads) == [1, 5]
    assert conv_calls == [] and pool_calls == [(4, 3, 2, 2)]


def test_backward_skips_input_gradient_of_lowest_linear():
    rng = np.random.default_rng(1)
    arch = ModelArch((flatten(), linear(12, 7), relu(), linear(7, 3)), (3, 2, 2), 3)
    w = init_params(arch, 1)
    x = rng.random((5, 3, 2, 2))
    logits, caches = forward(arch, w, None, x)
    spies = {}
    for pos, entry in enumerate(caches):
        if entry[0] == "linear":
            spies[entry[1]] = _MatmulSpy(entry[2])
            caches[pos] = entry[:2] + (spies[entry[1]],) + entry[3:]
    grads = nn._backward(caches, np.ones_like(logits))
    assert sorted(grads) == [1, 3]
    assert spies[3].calls == 1 and spies[1].calls == 0


# -------------------------------------------------------- gathered layers

def test_gathered_kernels_bitwise_equal_to_reference(monkeypatch):
    # every pool from _GATHER_BYTES of windows on gathers them with np.take;
    # the reference tests run small shapes below it (the conv always gathers)
    monkeypatch.setattr(nn, "_GATHER_BYTES", 0)
    test_maxpool_forward_bitwise_equal_to_reference()
    test_maxpool_backward_bitwise_equal_to_reference()
    test_maxpool_input_gradient_is_channel_last()
    # the gathered forward in sample blocks of one sample each
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 1)
    test_maxpool_forward_bitwise_equal_to_reference()


def _use_reference_kernels(monkeypatch):
    """Run every conv through the in-test reference kernels, which copy
    strided windows and always cache them, and every pool through the
    strided copy."""
    def conv_forward(x, v, padding, keep=True):
        out, cols = _ref_conv_forward(x, v, padding)
        return out, (cols, None, x.shape, padding)
    monkeypatch.setattr(nn, "_conv_forward", conv_forward)
    monkeypatch.setattr(nn, "_conv_backward", lambda g, v, x_shape, padding:
                        _ref_conv_backward(g, v, (None, None, x_shape, padding))[0])
    monkeypatch.setattr(nn, "_GATHER_BYTES", 1 << 62)


@pytest.mark.parametrize("shape,batch", [
    pytest.param((3, 16, 16), 128, id="128"),
    pytest.param((3, 16, 16), 131, id="131"),
    pytest.param((3, 16, 16), 3, id="3"),
    pytest.param((3, 8, 8), 32, id="8x8-32"),
    pytest.param((3, 8, 8), 40, id="8x8-40"),
])
def test_default_shape_gathers_and_matches_the_strided_copy(monkeypatch, shape, batch):
    # conv columns, forward logits, the loss and every gradient at the
    # README default shape and the mask-vs-weight harness shape: the
    # gathered kernels against the reference kernels' strided copies
    rng = np.random.default_rng(batch)
    arch = desk_arch(shape, 10, (16, 32), 128)
    w, m = init_params(arch, batch), random_masks(arch, rng)
    x, y = rng.standard_normal((batch,) + shape), rng.integers(0, 10, batch)
    x[0] = 0.0   # windows of tied zeros

    def outputs():
        logits, caches = forward(arch, w, m, x)
        value, grads = loss_and_grad_v(arch, w, m, x, y)
        return (logits.tobytes(),
                [_columns(entry[3], entry[2]).tobytes()
                 for entry in caches if entry[0] == "conv2d"],
                np.float64(value).tobytes(),
                {idx: g.tobytes() for idx, g in grads.items()})
    takes = []
    take = np.take
    monkeypatch.setattr(nn.np, "take", lambda *a, **k: takes.append(1) or take(*a, **k))
    gathered = outputs()
    # per forward: one take for each conv's columns, two for the first pool
    assert len(takes) >= 2 * 4
    _use_reference_kernels(monkeypatch)
    takes.clear()
    assert outputs() == gathered
    assert not takes


def test_default_shape_gossip_run_matches_the_strided_copy(monkeypatch, tmp_path):
    # tests/test_golden.py runs the desk shape only
    config = replace(RunConfig(), n=4, rounds=2, eval_interval=1)
    outputs = []
    for reference in (False, True):
        if reference:
            _use_reference_kernels(monkeypatch)
        out = tmp_path / str(reference)
        assert run_experiment(replace(config, out=str(out)), quiet=True) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    assert outputs[0] == outputs[1] and outputs[0]


def test_index_tables_are_cached_read_only_and_bounded():
    tables = (nn._conv_offsets, nn._col2im_spans, nn._pool_offsets)
    for fn in tables:
        fn.cache_clear()
    arch = desk_arch((3, 16, 16), 10, (16, 32), 128)   # the README default
    rng = np.random.default_rng(0)
    w = init_params(arch, 0)
    x, y = rng.standard_normal((131, 3, 16, 16)), rng.integers(0, 10, 131)
    for batch in (128, 131, 40):
        loss_and_grad_v(arch, w, None, x[:batch], y[:batch])
    # one table per layer geometry, whatever the batch: both convs' columns,
    # the upper conv's col2im and both pools
    assert [fn.cache_info().misses for fn in tables] == [2, 1, 2]
    assert [fn.cache_info().currsize for fn in tables] == [2, 1, 2]

    # all of them take under 1 MB at this shape
    caches = forward(arch, w, None, x[:2])[1]
    arrays = []
    for entry in caches:
        if entry[0] == "conv2d":
            (_, c, h, wd), pad = entry[3][2:]
            arrays.append(nn._conv_offsets(c, h + 2 * pad, wd + 2 * pad, 5, 5))
        elif entry[0] == "maxpool2d":
            _, shape, window, stride = entry[2]
            arrays.extend(nn._pool_offsets(shape[1:], window, stride))
    assert len(arrays) == 8
    assert sum(a.nbytes for a in arrays) < 1 << 20
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0

    # bounded: past maxsize geometries, the oldest tables are dropped
    limit = nn._conv_offsets.cache_info().maxsize
    for hp in range(2, limit + 8):
        assert nn._conv_offsets(2, hp, 3, 2, 2).size == (hp - 1) * 2 * 8
    assert nn._conv_offsets.cache_info().currsize == limit
