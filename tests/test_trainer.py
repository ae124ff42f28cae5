import copy
import math
import os
import pickle
import re
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from gossipmask import (ALGORITHMS, AgentState, FieldError, Graph, HyperConfig,
                        ModelArch, SimulationError, aggregate_step,
                        assign_labels, backprop_half_step, bound_check,
                        build_states, check_harness, conv2d, decode_mask,
                        desk_arch, erdos_renyi, extract, fine_tune_step,
                        flatten, forward, gossip_mask_round, init_params,
                        linear, make_masked_net,
                        mask_vs_weight_verify, partition, relu,
                        random_bound_instance, retained_count, run,
                        sample_batch, substream, synth_generate)
from gossipmask import nn, trainer
from gossipmask.cli import RunConfig, parse_config, run_experiment
from gossipmask.errors import LayerError
from gossipmask.protocol import MaskFrame

import test_golden

CONFIGS = test_golden.CONFIGS


def reference_average(mask_sets):
    """The neighbor average the round must give, computed the plain way:
    the mask sets (keyed by sender) as float64, summed in ascending sender
    order and divided once by their number; None for no senders."""
    if not mask_sets:
        return None
    senders = sorted(mask_sets)
    total = {layer: np.array(m, dtype=np.float64)
             for layer, m in mask_sets[senders[0]].items()}
    for s in senders[1:]:
        for layer, m in mask_sets[s].items():
            total[layer] += m
    return {layer: t / len(senders) for layer, t in total.items()}


def k2_graph():
    return Graph(np.array([[0, 1], [1, 0]]))


def tiny_arch():
    # single conv layer covering the full input, so logits are linear in v
    return ModelArch((conv2d(1, 3, 2), flatten()), (1, 2, 2), 3)


def make_state(z, r=0.5, min_nonzero=0, eta=1.0, lam=0.0, agent_id=0,
               grad_cache=None, m=None):
    z = {k: np.asarray(v, dtype=np.float64) for k, v in z.items()}
    state = AgentState(agent_id=agent_id, r=r, z=z, min_nonzero=min_nonzero,
                       train_x=np.zeros((4, 1, 2, 2)),
                       train_y=np.zeros(4, dtype=int),
                       test_x=np.zeros((2, 1, 2, 2)),
                       test_y=np.zeros(2, dtype=int), eta=eta, lam=lam)
    if grad_cache is not None:
        state.grad_cache = {k: np.asarray(v, float) for k, v in grad_cache.items()}
    if m is not None:
        state.m = {k: np.asarray(v, float) for k, v in m.items()}
    return state


# --------------------------------------------------------- half-step math

def test_aggregation_tensor_hand_example():
    # z = [0.2, -0.4], neighbor average [1, 0.5], mean |z| = 0.3
    # y = [0.2 + 0.3 * 1 * 1, -0.4 + 0.3 * (-1) * 0.5] = [0.5, -0.55]
    state = make_state({0: [[0.2, -0.4]]}, r=0.5, eta=1.0,
                       grad_cache={0: [[0.0, 0.0]]})
    avg = reference_average({1: {0: np.array([[1.0, 1.0]])},
                             2: {0: np.array([[1.0, 0.0]])}})
    y, m = aggregate_step(state, avg)
    np.testing.assert_allclose(y[0], [[0.5, -0.55]], atol=1e-15)
    # r = 0.5 over 2 entries keeps the single largest magnitude: -0.55
    np.testing.assert_array_equal(m[0], [[0.0, 1.0]])


def test_aggregation_preserves_sign():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 6))
    nb = {1: {0: (rng.random((4, 6)) < 0.5).astype(float)},
          2: {0: (rng.random((4, 6)) < 0.5).astype(float)}}
    state = make_state({0: z}, r=0.5, grad_cache={0: np.zeros((4, 6))})
    y, _ = aggregate_step(state, reference_average(nb))
    nz = z != 0
    assert np.array_equal(np.sign(y[0])[nz], np.sign(z)[nz])


def test_isolated_agent_aggregation_is_plain_extraction():
    z = {0: np.array([[0.9, -0.1, 0.4, -0.6]])}
    state = make_state(z, r=0.5, grad_cache={0: np.zeros((1, 4))})
    y, m = aggregate_step(state, None)
    np.testing.assert_array_equal(y[0], z[0])
    np.testing.assert_array_equal(m[0], extract(z, 0.5, 0)[0])


def test_fine_tune_hand_example():
    # z = [1.0], G = [0.5], eta = 1, neighbor mask average [0.5] -> z = 0.75
    state = make_state({0: [[1.0]]}, r=1.0, eta=1.0, grad_cache={0: [[0.5]]})
    z = fine_tune_step(state, reference_average({1: {0: np.array([[1.0]])},
                                                 2: {0: np.array([[0.0]])}}))
    np.testing.assert_allclose(z[0], [[0.75]], atol=1e-15)


def test_fine_tune_zero_neighbor_mask_is_noop():
    state = make_state({0: [[1.0, -2.0]]}, eta=1.0, grad_cache={0: [[0.5, 0.5]]})
    z = fine_tune_step(state, {0: np.array([[0.0, 0.0]])})
    np.testing.assert_array_equal(z[0], [[1.0, -2.0]])


def test_fine_tune_zero_rate_is_noop():
    state = make_state({0: [[1.0, -2.0]]}, eta=0.0, grad_cache={0: [[0.5, 0.5]]})
    z = fine_tune_step(state, {0: np.array([[1.0, 1.0]])})
    np.testing.assert_array_equal(z[0], [[1.0, -2.0]])


def test_fine_tune_requires_cached_gradient():
    state = make_state({0: [[1.0]]})
    with pytest.raises(SimulationError, match="half-step"):
        fine_tune_step(state, {0: np.array([[1.0]])})


def test_agent_state_rejects_unknown_fields():
    # a slotted state: a write to a field it lacks raises, not sticks
    state = make_state({0: [[1.0]]})
    with pytest.raises(AttributeError):
        state.neighbor_masks = {1: {0: np.array([[1.0]])}}


def test_backprop_half_step_zero_weight_freezes_scores():
    arch = tiny_arch()
    w = {0: np.zeros((3, 1, 2, 2))}
    z = {0: np.array([[[[0.3, -0.2], [0.1, 0.5]]]] * 3)}
    state = make_state(z, r=0.5, lam=0.0, m={0: np.ones((3, 1, 2, 2))})
    bx = np.random.default_rng(1).random((4, 1, 2, 2))
    by = np.array([0, 1, 2, 0])
    z_half, g, _ = backprop_half_step(state, w, arch, bx, by)
    assert not g[0].any()
    np.testing.assert_array_equal(z_half[0], z[0])


def test_backprop_half_step_isolated_extracts_from_scores():
    arch = tiny_arch()
    rng = np.random.default_rng(2)
    w = init_params(arch, 5)
    z = {0: rng.standard_normal((3, 1, 2, 2))}
    state = make_state(copy.deepcopy(z), r=0.5, lam=0.001,
                       m={0: np.ones((3, 1, 2, 2))})
    bx = rng.random((4, 1, 2, 2))
    by = np.array([0, 1, 2, 0])
    z_half, _, m_half = backprop_half_step(state, w, arch, bx, by)
    expected = extract(z_half, 0.5, 0)
    np.testing.assert_array_equal(m_half[0], expected[0])


def test_half_step_skips_group_lasso_at_zero_lambda(monkeypatch):
    from gossipmask import group_lasso_grad, grad_z, loss_and_grad_v
    calls = []

    def spy(z, lam):
        calls.append(lam)
        return group_lasso_grad(z, lam)
    monkeypatch.setattr(trainer, "group_lasso_grad", spy)
    arch = tiny_arch()
    rng = np.random.default_rng(3)
    w = init_params(arch, 5)
    z = {0: rng.standard_normal((3, 1, 2, 2))}
    m = {0: np.ones((3, 1, 2, 2))}
    bx, by = rng.random((4, 1, 2, 2)), np.array([0, 1, 2, 0])
    z_half, _, _ = backprop_half_step(make_state(copy.deepcopy(z), lam=0.0, m=m),
                                      w, arch, bx, by)
    assert calls == []
    # the skipped term is +-0, so every nonzero score comes out bit for bit
    grad_v = loss_and_grad_v(arch, w, m, bx, by)[1]
    with_reg = z[0] - 1.0 * (grad_z(grad_v[0], w[0], z[0])
                             + group_lasso_grad(z, 0.0)[0])
    assert z_half[0].tobytes() == with_reg.tobytes()
    backprop_half_step(make_state(copy.deepcopy(z), lam=0.001, m=m), w, arch, bx, by)
    assert calls == [0.001]


def _mask_senders(masks, shapes):
    """One mask state per agent of ``masks`` (agent -> mask set), held in a
    small agent store."""
    store = trainer.AgentStore(shapes, len(masks))
    return [AgentState(a, 0.5, None, None, None, None, 1.0, 0.0, store=store,
                       m=masks[a]) for a in range(len(masks))]


def test_constructor_copies_stored_fields_into_the_store_rows():
    store = trainer.AgentStore({0: (2, 3)}, 2)
    ones = np.ones((2, 3))
    state = AgentState(1, 0.5, None, None, None, None, 1.0, 0.0, z={0: ones},
                       m={0: ones > 0}, grad_cache={0: 2 * ones},
                       neighbor_avg={0: ones / 2}, store=store)
    for name, want in (("z", ones), ("m", ones > 0), ("grad_cache", 2 * ones),
                       ("neighbor_avg", ones / 2)):
        rows = getattr(store, name)[0]
        np.testing.assert_array_equal(rows[1], want)
        assert not rows[0].any()            # agent 0's row is untouched
        assert np.shares_memory(getattr(state, name)[0], rows[1])


def test_exchange_masks_ascending_and_empty():
    # agent 0 hears agents 1 and 2; agents 1 and 2 hear only agent 0
    path = Graph(np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]]))
    masks = {0: {0: np.array([0.0, 1.0])}, 1: {0: np.array([1.0, 1.0])},
             2: {0: np.array([1.0, 0.0])}}
    states = _mask_senders(masks, {0: (2,)})
    averages = trainer._exchange_masks(states, path, 0, None)
    # per layer one array, with row a agent a's; the store takes it, and each
    # state's neighbor average views its row
    assert list(averages) == [0] and averages[0].dtype == np.float64
    np.testing.assert_array_equal(averages[0], [[1.0, 0.5], [0.0, 1.0], [0.0, 1.0]])
    assert states[0].store.neighbor_avg is averages
    assert all(np.shares_memory(s.neighbor_avg[0], averages[0][s.agent_id])
               for s in states)
    # a lone agent hears nobody: no average, which acts as a zero tensor
    lone, = _mask_senders({0: masks[0]}, {0: (2,)})
    assert trainer._exchange_masks([lone], Graph(np.zeros((1, 1))), 0, None) is None
    assert lone.store.neighbor_avg is None and lone.neighbor_avg is None


def test_hub_average_of_many_senders_equals_the_float_reference():
    # 300 leaves send to the hub: an entry every leaf keeps counts past 255,
    # so a count narrower than int32 would wrap there
    n = 301
    adjacency = np.zeros((n, n), dtype=int)
    adjacency[0, 1:] = adjacency[1:, 0] = 1
    shapes = {0: (3,), 2: (2, 2)}
    rng = np.random.default_rng(11)
    masks = {a: {layer: (rng.random(shape) < 0.5).astype(np.float64)
                 for layer, shape in shapes.items()} for a in range(n)}
    for a in range(n):
        masks[a][0][0] = 1.0
    averages = trainer._exchange_masks(_mask_senders(masks, shapes),
                                       Graph(adjacency), 4, None)
    want = reference_average({a: masks[a] for a in range(1, n)})
    for layer in shapes:
        assert averages[layer].dtype == want[layer].dtype
        assert averages[layer][0].tobytes() == want[layer].tobytes()
    assert averages[0][0][0] == 1.0
    for a in (1, n - 1):
        for layer in shapes:
            assert averages[layer][a].tobytes() == masks[0][layer].tobytes()


# ------------------------------------------------------------- full round

def fixture_run_inputs(n=4, seed=0, classes=4, algorithm="gossip_mask",
                       rounds=3, r=(0.3, 0.2, 0.4, 0.3), min_nonzero=2):
    train, test = synth_generate(classes, (2, 5, 5), 40, noise=0.2, seed=seed)
    sets = assign_labels(n, classes, 2, seed)
    plan = partition(train, test, sets, seed)
    graph = erdos_renyi(n, 0.8, seed)
    arch = ModelArch((conv2d(2, 4, 3, padding=1), flatten(),
                      linear(4 * 25, classes)), (2, 5, 5), classes)
    hyper = HyperConfig(algorithm, rounds=rounds, batch_size=8, eta=1.0,
                        lam=0.001, seed=seed, retention=r,
                        min_nonzero=min_nonzero, eval_interval=2)
    return arch, hyper, graph, train, test, plan


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_build_states_are_ready_for_round_one(algorithm):
    arch, hyper, graph, train, test, plan = fixture_run_inputs(algorithm=algorithm)
    w = init_params(arch, 7)
    states = build_states(arch, hyper, graph, train, test, plan, w)
    assert [s.agent_id for s in states] == list(range(graph.n))
    for s in states:
        r = hyper.retention[s.agent_id]
        assert s.r == r and s.neighbor_avg is None and s.grad_cache is None
        if algorithm in ("gossip_mask", "ind_mask"):
            assert s.weights is None and s.min_nonzero == hyper.min_nonzero
            for layer, t in w.items():   # the per-agent z substream
                want = substream(hyper.seed, "z", s.agent_id, layer)
                assert s.z[layer].tobytes() == want.uniform(-1.0, 1.0, t.shape).tobytes()
            want = extract(s.z, r, hyper.min_nonzero)
        else:
            assert s.z is None
            for layer, t in w.items():   # equal to w, but the agent's own copy
                assert s.weights[layer].tobytes() == t.tobytes()
                assert not np.shares_memory(s.weights[layer], t)
            want = None if algorithm == "dsgd" else extract(w, r)
        if want is None:
            assert s.m is None
        else:
            assert s.m.keys() == want.keys()
            assert all(np.array_equal(s.m[layer], want[layer]) for layer in want)


def test_states_read_the_plan_rows_without_copying_them():
    # a state's batch, test rows and logged-loss rows are, byte for byte,
    # the rows of the plan's indices, read from the datasets themselves
    arch, hyper, graph, train, test, plan = fixture_run_inputs()
    states = build_states(arch, hyper, graph, train, test, plan, init_params(arch, 0))
    for s, tr, te in zip(states, plan.train_indices, plan.test_indices):
        assert s.train_x.base is train.features and s.test_x.base is test.features
        assert s.train_y.base is train.labels and s.test_y.base is test.labels
        x, y = train.features[tr], train.labels[tr]
        idx = sample_batch(hyper.seed, s.agent_id, 3, len(tr), hyper.batch_size)
        bx, by = trainer._local_batch(s, hyper, 3)
        assert bx.tobytes() == x[idx].tobytes() and by.tobytes() == y[idx].tobytes()
        rows = trainer._LOSS_ROWS
        assert s.train_x[:rows].tobytes() == x[:rows].tobytes()
        assert s.train_y[:rows].tobytes() == y[:rows].tobytes()
        assert s.test_x[:len(te)].tobytes() == test.features[te].tobytes()
        assert s.test_y[:len(te)].tobytes() == test.labels[te].tobytes()
        assert np.asarray(s.test_x).tobytes() == test.features[te].tobytes()


def test_build_states_at_the_default_shape_hold_no_sample_copies():
    # README defaults (20 agents, 3x16x16): float64 scores and bool masks
    # take 9.0 MiB; a copy of each agent's train and test rows would add
    # 14 MiB, and float64 masks 7 MiB
    cfg = RunConfig()
    train, test = synth_generate(cfg.classes, cfg.dim, cfg.per_class, cfg.noise, seed=0)
    plan = partition(train, test, assign_labels(cfg.n, cfg.classes, cfg.c, 0), 0)
    arch = _config_arch(cfg)
    hyper = HyperConfig("gossip_mask", rounds=1, batch_size=cfg.batch_size,
                        eta=cfg.eta_mask, lam=cfg.lam, seed=0,
                        retention=(0.3,) * cfg.n, min_nonzero=cfg.min_nonzero)
    w = init_params(arch, 0)
    tracemalloc.start()
    try:
        states = build_states(arch, hyper, erdos_renyi(cfg.n, cfg.p, 0), train,
                              test, plan, w)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(states) == cfg.n
    assert held < 9.5 * 2 ** 20


def test_hyper_config_rejects_bad_ratio_and_min_nonzero():
    for retention, min_nonzero, field, message in (
            ((0.5, 0.0), 0, "r", "retention ratio must be in (0, 1], got 0.0"),
            ((1.5,), 2, "r", "retention ratio must be in (0, 1], got 1.5"),
            ((0.5,), -1, "min_nonzero", "min_nonzero must be nonnegative")):
        with pytest.raises(FieldError, match=f"^{re.escape(message)}$") as exc:
            HyperConfig("ind_mask", 1, 8, 1.0, 0.0, 0, retention, min_nonzero)
        assert exc.value.field == field


@pytest.mark.parametrize("eta,lam,field,message", [
    (math.nan, 0.0, "eta", "learning rates must be positive"),
    (math.inf, 0.0, "eta", "eta must be finite"),
    (1.0, -0.5, "lam", "lambda must be nonnegative"),
    (1.0, math.nan, "lam", "lambda must be nonnegative"),
    (1.0, math.inf, "lam", "lam must be finite"),
])
def test_hyper_config_rejects_bad_eta_and_lambda(eta, lam, field, message):
    # at construction, not as a divergence blamed on an agent at round 1
    with pytest.raises(FieldError, match=f"^{re.escape(message)}$") as exc:
        HyperConfig("gossip_mask", 1, 8, eta, lam, 0, (0.5,))
    assert exc.value.field == field


def test_shared_params_frozen_under_mask_rounds():
    arch, hyper, graph, train, test, plan = fixture_run_inputs()
    w = init_params(arch, 123)
    w_copy = copy.deepcopy(w)
    states = build_states(arch, hyper, graph, train, test, plan, w)
    from gossipmask import encode_mask, exchange
    outbox = {s.agent_id: encode_mask(s.m, s.agent_id, 0) for s in states}
    inbox = exchange(graph, outbox)
    shapes = arch.param_shapes()
    for s in states:
        s.neighbor_avg = reference_average({f.sender: decode_mask(f, shapes)
                                            for f in inbox[s.agent_id]})
    for k in range(1, 3):
        gossip_mask_round(states, w, arch, graph, hyper, k)
    gossip_mask_round(states, w, arch, graph, replace(hyper, algorithm="ind_mask"),
                      3)
    for idx in w:
        assert np.array_equal(w[idx], w_copy[idx])


def _held_bytes(states, w):
    """(array, its bytes) for each array a step may read but not write: the
    shared parameters, every agent's neighbor average and weights, and the
    scores and mask of an agent outside an agent store (a store's rows are
    the agents' own, written in place)."""
    held = [(t, t.tobytes()) for t in w.values()]
    for s in states:
        own = (s.z, s.m) if s.store is None else ()
        for part in (*own, s.neighbor_avg, s.weights):
            held += [(t, t.tobytes()) for t in (part or {}).values()]
    return held


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_round_writes_only_into_arrays_it_made(algorithm):
    # or into the rows of the mask agents' store, which stays the same arrays
    arch, hyper, graph, train, test, plan = fixture_run_inputs(algorithm=algorithm)
    w = init_params(arch, 5)
    states = build_states(arch, hyper, graph, train, test, plan, w)
    store = states[0].store
    assert (store is None) == (algorithm not in ("gossip_mask", "ind_mask"))
    if algorithm == "gossip_mask":      # run()'s bootstrap exchange
        trainer._exchange_masks(states, graph, 0, None)
    for k in (1, 2):
        held = _held_bytes(states, w)
        rows = store and [t for part in (store.z, store.m) for t in part.values()]
        gossip_mask_round(states, w, arch, graph, hyper, k)
        assert all(t.tobytes() == data for t, data in held)
        assert rows == (store and [t for part in (store.z, store.m)
                                   for t in part.values()])


def test_harness_arms_write_only_into_arrays_they_made(monkeypatch):
    # the weight arms start from the shared parameters themselves. Each arm
    # checks itself, since a write in the child's copy of an array would
    # stay there, and marks its trace with the process that ran it
    monkeypatch.setattr(trainer, "_WORKERS", 2)
    original = trainer._train_arm

    def checking(arch, w, state, batches, eval_interval):
        held = _held_bytes([state], w)
        trace = original(arch, w, state, batches, eval_interval)
        assert all(t.tobytes() == data for t, data in held)
        return trace + [os.getpid()]
    monkeypatch.setattr(trainer, "_train_arm", checking)
    arch, shards = _harness_inputs(agents=2)
    traces = mask_vs_weight_verify(arch, shards, r_values=(0.3, 0.5), steps=3,
                                   eta_weight=0.01, eta_mask=1.0, batch_size=4,
                                   seed=3)
    pids = [t[-1] for t in (*traces.weight.values(), *traces.mask.values())]
    assert len(pids) == 6 and os.getpid() in pids and len(set(pids)) == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_harness_arms_cannot_write_the_shared_parameters(workers, monkeypatch):
    # arm 1, agent 0's mask arm at r = 0.3, runs in the child at two workers
    monkeypatch.setattr(trainer, "_WORKERS", workers)
    original = trainer._train_arm

    def writing(arch, w, state, batches, eval_interval):
        if state.weights is None and state.r == 0.3 and state.agent_id == 0:
            w[min(w)][...] = 0.0
        return original(arch, w, state, batches, eval_interval)
    monkeypatch.setattr(trainer, "_train_arm", writing)
    arch, shards = _harness_inputs(agents=2)
    with pytest.raises(ValueError, match="read-only"):
        mask_vs_weight_verify(arch, shards, r_values=(0.3, 0.5), steps=3,
                              eta_weight=0.01, eta_mask=1.0, batch_size=4, seed=3)
    _assert_no_child_left()


def test_aggregation_tensor_without_neighbors_is_the_scores_themselves():
    z = {0: np.array([[0.9, -0.1]]), 2: np.array([0.3, -0.0])}
    before = {layer: t.tobytes() for layer, t in z.items()}
    assert trainer._aggregation_tensor(z, None) is z
    assert {layer: t.tobytes() for layer, t in z.items()} == before


# bench/spans.py and bench/workloads.py trace and time these by rebinding
# them on the trainer module, so the trainer must look each one up there at
# call time, once per use; a call that bypassed the binding would read as
# zero calls in the benchmark

def _counting(monkeypatch, name, record):
    original = getattr(trainer, name)

    def wrapper(*args, **kwargs):
        record(*args)
        return original(*args, **kwargs)
    monkeypatch.setattr(trainer, name, wrapper)


def test_run_and_harness_draw_shared_params_once(monkeypatch):
    # the bench keeps the shared parameters from this call; scores drawn
    # through it would be kept instead
    calls = []
    _counting(monkeypatch, "init_params", lambda arch, seed: calls.append(seed))
    arch, hyper, graph, train, test, plan = fixture_run_inputs(rounds=2)
    for algorithm in ("gossip_mask", "ind_mask", "avr_weipru"):
        run(arch, replace(hyper, algorithm=algorithm), graph, train, test, plan)
    shards = [(train.features, train.labels, test.features, test.labels)] * 2
    mask_vs_weight_verify(arch, shards, r_values=(0.3, 0.5), steps=2,
                          eta_weight=0.01, eta_mask=1.0, batch_size=4, seed=3)
    assert len(calls) == 4


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_only_mask_runs_draw_scores(monkeypatch, algorithm):
    keys = []
    _counting(monkeypatch, "substream", lambda seed, name, *_: keys.append(name))
    arch, hyper, graph, train, test, plan = fixture_run_inputs(algorithm=algorithm,
                                                               rounds=2)
    run(arch, hyper, graph, train, test, plan)
    scores = graph.n * len(arch.param_shapes())
    assert keys.count("z") == (scores if algorithm in ("gossip_mask", "ind_mask") else 0)
    assert keys.count("batch") == graph.n * hyper.rounds


def _stacks_of(monkeypatch, arch, batch_size, size):
    """Budget a round into stacks of ``size`` agents: the stacks' columns
    stay below ``nn._SHARED_BYTES``, and each step's own too."""
    monkeypatch.setattr(nn, "_SHARED_BYTES",
                        size * nn._largest_column_bytes(arch, batch_size) + 1)
    assert nn._stack_size(arch, batch_size) == size


def _eight_agents(rounds=3):
    return fixture_run_inputs(n=8, rounds=rounds, r=(0.3, 0.2, 0.4, 0.3) * 2)


def _is_rows(t, whole, stack):
    """Whether ``t`` is exactly the rows of ``stack``'s agents in the store
    array ``whole``: their shape, their memory and no other row's."""
    i, j = stack[0].agent_id, stack[-1].agent_id + 1
    return (t.shape == whole[i:j].shape and np.shares_memory(t, whole[i:j])
            and not np.shares_memory(t, whole[:i])
            and not np.shares_memory(t, whole[j:]))


def _reads_rows(tensors, whole, stack):
    return tensors.keys() == whole.keys() and all(
        _is_rows(t, whole[layer], stack) for layer, t in tensors.items())


def test_gossip_round_steps_through_module_bindings(monkeypatch):
    # per stack of consecutive agents, in ascending order: one gradient of
    # the stack's masks and batches, then fine-tuning and aggregation. Each
    # step is looked up on the module at call time, and reads the stack's
    # rows of the agent store, not copies: its scores, masks and averages,
    # and in fine-tuning its cached gradients. At stacks of 2 and of 8
    arch, hyper, graph, train, test, plan = _eight_agents()
    w = init_params(arch, 0)
    calls, stepping, stores = [], [], []

    def agents(stack):
        return [s.agent_id for s in stack]

    def half(stack, rows, *_):
        store = stores[-1]
        stepping[:] = stack
        calls.append(("half", agents(stack)))
        assert _reads_rows(rows.z, store.z, stack)
        assert _reads_rows(rows.m, store.m, stack)
        assert _reads_rows(rows.neighbor_avg, store.neighbor_avg, stack)
    _counting(monkeypatch, "_half_steps", half)

    def grad(arch, w, m, x, y):
        assert _reads_rows(m, stores[-1].m, stepping)
        calls.append(("grad", len(x)))
    _counting(monkeypatch, "loss_and_grad_v", grad)

    def fine_tuned(stack, avg, z, g, *_):
        store = stores[-1]
        calls.append(("_fine_tuned", agents(stack)))
        assert _reads_rows(z, store.z, stack)
        assert _reads_rows(g, store.grad_cache, stack)
        assert _reads_rows(avg, store.neighbor_avg, stack)
    _counting(monkeypatch, "_fine_tuned", fine_tuned)

    def aggregated(stack, z, avg, *_):
        calls.append(("_aggregated", agents(stack)))
        assert _reads_rows(avg, stores[-1].neighbor_avg, stack)
    _counting(monkeypatch, "_aggregated", aggregated)
    for size in (2, 8):
        _stacks_of(monkeypatch, arch, hyper.batch_size, size)
        states = build_states(arch, hyper, graph, train, test, plan, w)
        trainer._exchange_masks(states, graph, 0, None)
        stores.append(states[0].store)
        calls.clear()
        gossip_mask_round(states, w, arch, graph, hyper, 1)
        stacks = [list(range(i, i + size)) for i in range(0, graph.n, size)]
        assert calls == ([c for a in stacks for c in (("half", a), ("grad", size))]
                         + [(name, a) for a in stacks
                            for name in ("_fine_tuned", "_aggregated")])


def test_each_frame_decoded_once(monkeypatch):
    calls = []

    def counting_decode(frame, shapes):
        calls.append(frame.sender)
        return decode_mask(frame, shapes)

    monkeypatch.setattr(trainer, "decode_mask", counting_decode)
    arch, hyper, graph, train, test, plan = fixture_run_inputs(rounds=2)
    run(arch, hyper, graph, train, test, plan)
    # the bootstrap exchange and each of the 2 rounds: one decode per frame
    assert sorted(calls) == sorted(list(range(graph.n)) * 3)


def test_decoded_masks_do_not_outlive_the_round(monkeypatch):
    decoded, dtypes = [], set()

    def recording_decode(frame, shapes):
        masks = decode_mask(frame, shapes)
        decoded.extend(weakref.ref(m) for m in masks.values())
        dtypes.update(m.dtype for m in masks.values())
        return masks

    monkeypatch.setattr(trainer, "decode_mask", recording_decode)
    arch, hyper, graph, train, test, plan = fixture_run_inputs()
    w = init_params(arch, 0)
    states = build_states(arch, hyper, graph, train, test, plan, w)
    gossip_mask_round(states, w, arch, graph, hyper, 1)
    assert len(decoded) == graph.n * len(arch.param_shapes())
    # the wire bits, one byte each, not float64 copies
    assert dtypes == {np.dtype(np.uint8)}
    # each agent keeps only the average: no decoded array is still alive
    assert all(ref() is None for ref in decoded)
    for s in states:
        assert set(s.neighbor_avg) == set(arch.param_shapes())


def test_received_masks_averaged_once_per_round(monkeypatch):
    # one exchange per round, the bootstrap included, whose per-layer
    # averages the agent store takes. Each stack's fine-tuning and
    # aggregation read its rows of that round's averages, and its half-step
    # in the next round, not copies. At stacks of 2 and of 8
    arch, hyper, graph, train, test, plan = _eight_agents()
    exchanged, seen, states = [], {}, []
    exchange_masks = trainer._exchange_masks

    def recording_exchange(*args):
        exchanged.append(exchange_masks(*args))
        return exchanged[-1]
    monkeypatch.setattr(trainer, "_exchange_masks", recording_exchange)

    def reading(name, stack, avg):
        # all exchanges stay alive in ``exchanged``, so their memory differs
        which = [e for e, whole in enumerate(exchanged)
                 if _reads_rows(avg, whole, stack)]
        for s in stack:
            seen.setdefault((name, s.agent_id), []).extend(which)
    _counting(monkeypatch, "_half_steps",
              lambda stack, rows, *_: reading("half", stack, rows.neighbor_avg))
    _counting(monkeypatch, "_fine_tuned",
              lambda stack, avg, *_: reading("_fine_tuned", stack, avg))
    _counting(monkeypatch, "_aggregated",
              lambda stack, z, avg, *_: reading("_aggregated", stack, avg))
    build = trainer.build_states
    monkeypatch.setattr(trainer, "build_states",
                        lambda *args: states.extend(build(*args)) or states)
    for size in (2, 8):
        _stacks_of(monkeypatch, arch, hyper.batch_size, size)
        exchanged.clear(), seen.clear(), states.clear()
        run(arch, hyper, graph, train, test, plan)
        assert len(exchanged) == hyper.rounds + 1
        rounds = list(range(hyper.rounds))
        for a in range(graph.n):
            assert seen[("half", a)] == rounds
            for name in ("_fine_tuned", "_aggregated"):
                assert seen[(name, a)] == [k + 1 for k in rounds]
        assert states[0].store.neighbor_avg is exchanged[-1]
        for s in states:
            assert all(t.shape == exchanged[-1][layer][s.agent_id].shape
                       and np.shares_memory(t, exchanged[-1][layer][s.agent_id])
                       for layer, t in s.neighbor_avg.items())


@pytest.mark.parametrize("algorithm", ["gossip_mask", "ind_mask"])
def test_run_csv_bytes_do_not_depend_on_the_stacking(algorithm, monkeypatch, tmp_path):
    # configs/train.conf's 8 agents stepped one at a time, in stacks of 3
    # (3, 3 and 2) and in one stack of 8: the same CSV bytes
    cfg = replace(parse_config((CONFIGS / "train.conf").read_text()),
                  algorithm=(algorithm,), rounds=6, eval_interval=3)
    arch = _config_arch(cfg)
    cols = nn._largest_column_bytes(arch, cfg.batch_size)
    outputs = []
    for size in (1, 3, 8):
        monkeypatch.setattr(nn, "_SHARED_BYTES", size * cols + 1)
        assert nn._stack_size(arch, cfg.batch_size) == size
        out = tmp_path / str(size)
        assert run_experiment(replace(cfg, out=str(out)), quiet=True) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    assert outputs[0] and outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("algorithm", ["gossip_mask", "ind_mask"])
def test_stacked_round_keeps_each_agents_own_settings(algorithm, monkeypatch):
    # agents of one stack with their own eta, lam (one of them 0) and
    # min_nonzero, beside their own retention ratios: every score, cached
    # gradient, mask and average ends as the one-agent steps leave it. So
    # do stacks of one on four threads that switch often, each writing its
    # rows of the one agent store
    arch, hyper, graph, train, test, plan = fixture_run_inputs(algorithm=algorithm)
    w = init_params(arch, 0)
    monkeypatch.setattr(trainer, "_WORKERS", 4)
    monkeypatch.setattr(nn, "_shared_buf", np.empty(0))
    cols = nn._largest_column_bytes(arch, hyper.batch_size)
    ends = []
    interval = sys.getswitchinterval()
    try:
        for shared in (cols + 1, graph.n * cols + 1, 0):
            monkeypatch.setattr(nn, "_SHARED_BYTES", shared)
            sys.setswitchinterval(1e-5 if shared == 0 else interval)
            states = build_states(arch, hyper, graph, train, test, plan, w)
            for s, eta, lam, least in zip(states, (1.0, 0.5, 2.0, 1.0),
                                          (0.001, 0.0, 0.01, 0.001), (2, 0, 1, 3)):
                s.eta, s.lam, s.min_nonzero = eta, lam, least
            trainer._exchange_masks(states, graph, 0, None)
            for k in (1, 2):
                gossip_mask_round(states, w, arch, graph, hyper, k)
            ends.append(pickle.dumps([(s.z, s.m, s.grad_cache, s.neighbor_avg,
                                       s.last_loss) for s in states]))
    finally:
        sys.setswitchinterval(interval)
    assert ends[0] == ends[1] == ends[2]


def test_one_agent_gossip_run_equals_its_independent_run():
    # a lone agent hears nobody: it sends nothing, and fine-tuning and
    # aggregation without a neighbor average change nothing
    train, test = synth_generate(4, (2, 5, 5), 40, noise=0.2, seed=0)
    plan = partition(train, test, assign_labels(1, 4, 4, 0), 0)
    arch = fixture_run_inputs()[0]
    hyper = HyperConfig("gossip_mask", rounds=4, batch_size=8, eta=1.0, lam=0.001,
                        seed=0, retention=(0.3,), min_nonzero=2, eval_interval=2)
    logs = [run(arch, replace(hyper, algorithm=algorithm),
                Graph(np.zeros((1, 1), dtype=int)), train, test, plan)
            for algorithm in ("gossip_mask", "ind_mask")]
    assert len(logs[0].rows) == 3 * 2
    assert pickle.dumps(logs[0]) == pickle.dumps(logs[1])


def test_logged_header_bits_count_an_extra_frame_byte(monkeypatch):
    # header bits are counted from the frame's bytes: one byte appended to
    # every frame adds 8 bits per frame sent, the bootstrap exchange
    # included, and changes nothing else
    arch, hyper, graph, train, test, plan = fixture_run_inputs(rounds=3)
    plain = run(arch, hyper, graph, train, test, plan)
    to_bytes = MaskFrame.to_bytes
    monkeypatch.setattr(MaskFrame, "to_bytes", lambda frame: to_bytes(frame) + b"\0")
    padded = run(arch, hyper, graph, train, test, plan)
    frames = int(graph.degrees.sum())
    assert len(padded.rows) == len(plain.rows)
    for got, want in zip(padded.rows, plain.rows):
        assert got.header_bits - want.header_bits == 8 * frames * (want.round + 1)
        assert replace(got, header_bits=want.header_bits) == want


def test_round_determinism():
    logs = []
    for _ in range(2):
        arch, hyper, graph, train, test, plan = fixture_run_inputs()
        logs.append(run(arch, hyper, graph, train, test, plan))
    assert logs[0] == logs[1]


def test_rounds_zero_gives_single_evaluation():
    arch, hyper, graph, train, test, plan = fixture_run_inputs(rounds=0)
    log = run(arch, hyper, graph, train, test, plan)
    assert log.rounds() == [0]
    assert {row.agent for row in log.rows} == {-1, 0, 1, 2, 3}


def test_retention_length_mismatch_rejected():
    arch, hyper, graph, train, test, plan = fixture_run_inputs()
    bad = HyperConfig("gossip_mask", 1, 8, 1.0, 0.001, 0, (0.3, 0.3),
                      eval_interval=1)
    with pytest.raises(ValueError, match="retention"):
        run(arch, bad, graph, train, test, plan)


def test_metrics_bits_nondecreasing_and_positive_for_gossip():
    arch, hyper, graph, train, test, plan = fixture_run_inputs(rounds=4)
    log = run(arch, hyper, graph, train, test, plan)
    by_round = [row.payload_bits for row in log.rows if row.agent == -1]
    assert all(b2 > b1 for b1, b2 in zip(by_round, by_round[1:]))
    assert by_round[0] > 0  # the bootstrap exchange is accounted


def test_ind_variants_zero_communication():
    for alg in ("ind_mask", "ind_weipru"):
        arch, hyper, graph, train, test, plan = fixture_run_inputs(
            algorithm=alg, rounds=2)
        log = run(arch, hyper, graph, train, test, plan)
        assert all(row.payload_bits == 0 and row.header_bits == 0
                   for row in log.rows)


def test_weight_baselines_communicate_32bit():
    arch, hyper, graph, train, test, plan = fixture_run_inputs(
        algorithm="avr_weipru", rounds=2)
    log = run(arch, hyper, graph, train, test, plan)
    per_round = int(graph.degrees.sum()) * arch.param_count() * 32
    final = [row.payload_bits for row in log.rows if row.agent == -1][-1]
    assert final == 2 * per_round


def test_sparsity_respects_retention():
    arch, hyper, graph, train, test, plan = fixture_run_inputs(rounds=3)
    log = run(arch, hyper, graph, train, test, plan)
    shapes = arch.param_shapes()
    for agent, per_layer in log.final_sparsity.items():
        r = hyper.retention[agent]
        for layer, (ones, total) in per_layer.items():
            assert total == int(np.prod(shapes[layer]))
            assert ones <= retained_count(r, total)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_calls_the_one_round_function_every_round(algorithm, monkeypatch):
    calls = []
    round_fn = trainer.gossip_mask_round

    def counting(states, w, arch, graph, hyper, round_index, ledger=None):
        calls.append(round_index)
        return round_fn(states, w, arch, graph, hyper, round_index, ledger)
    monkeypatch.setattr(trainer, "gossip_mask_round", counting)
    run(*fixture_run_inputs(algorithm=algorithm, rounds=2))
    assert calls == [1, 2]


def test_unknown_algorithm_rejected():
    arch, hyper, graph, train, test, plan = fixture_run_inputs()
    with pytest.raises(ValueError):
        HyperConfig("magic", 1, 8, 1.0, 0.0, 0, (0.5,) * 4)
    # a config changed after construction must not fall into a mixing rule
    hyper.algorithm = "magic"
    with pytest.raises(ValueError, match="^unknown algorithm 'magic'$"):
        gossip_mask_round([], None, arch, graph, hyper, 1)


# ------------------------------------------------------------- divergence

@pytest.mark.parametrize("algorithm,message", [
    ("dsgd", "non-finite loss nan"),
    ("par_weipru", r"\d+ non-finite score"),
])
def test_diverging_weight_step_names_agent_and_round(algorithm, message):
    arch, hyper, graph, train, test, plan = fixture_run_inputs(
        algorithm=algorithm, rounds=4)
    hyper.eta = 1e200
    # a pruned weight tensor that is not finite names its layer too
    where = "agent 0, round 2" + (", layer 0" if algorithm == "par_weipru" else "")
    with np.errstate(all="ignore"), pytest.raises(
            SimulationError, match=f"^{where}: {message}"):
        run(arch, hyper, graph, train, test, plan)


@pytest.mark.parametrize("algorithm", ["gossip_mask", "ind_mask"])
def test_non_finite_score_names_agent_and_round(algorithm):
    arch, hyper, graph, train, test, plan = fixture_run_inputs(algorithm=algorithm)
    w = init_params(arch, 0)
    states = build_states(arch, hyper, graph, train, test, plan, w)
    for s in states:
        s.neighbor_avg = reference_average({int(j): s.m
                                            for j in graph.neighbors[s.agent_id]})
    states[2].z[0][0, 0, 0, 0] = np.nan
    with pytest.raises(SimulationError,
                       match=r"^agent 2, round 5, layer 0: \d+ non-finite score"):
        gossip_mask_round(states, w, arch, graph, hyper, 5)


def test_non_finite_score_names_its_layer():
    arch, hyper, graph, train, test, plan = fixture_run_inputs(algorithm="ind_mask")
    w = init_params(arch, 0)
    states = build_states(arch, hyper, graph, train, test, plan, w)
    states[1].z[2][0, 0] = np.inf   # the linear layer's scores
    with np.errstate(invalid="ignore"), pytest.raises(
            SimulationError,
            match=r"^agent 1, round 4, layer 2: 1 non-finite score\(s\) "
                  r"in a tensor of shape \(4, 100\)$"):
        gossip_mask_round(states, w, arch, graph, hyper, 4)


def test_layer_left_without_ones_names_agent_round_and_layer():
    # an output filter of layer 0 holds 18 entries, so filter zeroing at 19
    # clears the layer: when the states are built (round 0) or mid-run
    message = "layer 0: filter zeroing at min_nonzero 19 left no ones$"
    arch, hyper, graph, train, test, plan = fixture_run_inputs(algorithm="ind_mask")
    w = init_params(arch, 0)
    with pytest.raises(SimulationError, match=f"^agent 0, round 0, {message}"):
        build_states(arch, replace(hyper, min_nonzero=19), graph, train, test, plan, w)
    states = build_states(arch, hyper, graph, train, test, plan, w)
    states[1].min_nonzero = 19
    with pytest.raises(SimulationError, match=f"^agent 1, round 4, {message}"):
        gossip_mask_round(states, w, arch, graph, hyper, 4)


@pytest.mark.parametrize("fault", ["nan_score", "min_nonzero"])
def test_failed_stack_leaves_the_store_as_the_plain_loop_does(fault, monkeypatch):
    # agent 2 fails in the middle of a stack of 4, at round 2: the stack
    # writes no row, and the replay one agent at a time raises what stacks
    # of one raise and leaves every row of the store as they leave it. A
    # stack that wrote agents 0 and 1's masks before agent 2 failed would
    # replay them from those masks
    arch, hyper, graph, train, test, plan = fixture_run_inputs()
    w = init_params(arch, 0)
    ends = []
    for size in (1, 4):
        _stacks_of(monkeypatch, arch, hyper.batch_size, size)
        states = build_states(arch, hyper, graph, train, test, plan, w)
        trainer._exchange_masks(states, graph, 0, None)
        gossip_mask_round(states, w, arch, graph, hyper, 1)
        if fault == "nan_score":
            states[2].z[0][0, 0, 0, 0] = np.nan
        else:   # an output filter of layer 0 holds 18 entries
            states[2].min_nonzero = 19
        with pytest.raises(SimulationError) as err:
            gossip_mask_round(states, w, arch, graph, hyper, 2)
        store = states[0].store
        ends.append((str(err.value), [t.tobytes() for part in (
            store.z, store.m, store.grad_cache, store.neighbor_avg) for t in part.values()]))
    assert ends[0][0].startswith("agent 2, round 2, layer 0")
    assert ends[0] == ends[1]


def test_diverging_harness_arm_names_agent_and_step():
    train, test = synth_generate(3, (1, 3, 3), 20, noise=0.2, seed=0)
    arch = ModelArch((conv2d(1, 4, 3, padding=1), relu(), flatten(),
                      linear(36, 3)), (1, 3, 3), 3)
    shards = [(train.features, train.labels, test.features, test.labels)]
    with np.errstate(all="ignore"), pytest.raises(
            SimulationError, match="^agent 0, round 2: non-finite loss nan"):
        mask_vs_weight_verify(arch, shards, r_values=(0.5,), steps=6,
                              eta_weight=1e200, eta_mask=1.0, batch_size=4,
                              seed=3)


@pytest.mark.parametrize("algorithm", ["dsgd", "avr_weipru"])
def test_non_finite_mixed_weight_names_agent_round_and_layer(algorithm):
    # zero data leaves each step's weights as they were, finite, but their
    # neighborhood sum overflows
    arch = tiny_arch()
    graph = Graph(np.ones((3, 3), dtype=int) - np.eye(3, dtype=int))
    w = {k: np.full(t.shape, 1e308) for k, t in init_params(arch, 0).items()}
    states = zero_data_states(graph, arch, [w, w, w], r=1.0)
    if algorithm == "dsgd":
        for s in states:
            s.m = None
    hyper = HyperConfig(algorithm, 1, 4, 0.5, 0.0, 0, (1.0,) * 3,
                        min_nonzero=0, eval_interval=1)
    with np.errstate(over="ignore"), pytest.raises(
            SimulationError, match=r"^agent 0, round 1, layer 0: non-finite weight$"):
        gossip_mask_round(states, None, arch, graph, hyper, 1)
    assert all(np.isfinite(s.weights[0]).all() for s in states[1:])


# -------------------------------------------------------- weight baselines

def zero_data_states(graph, arch, weights_per_agent, r=0.5):
    # all-zero features give exactly zero gradients in a biasless network,
    # so SGD is a no-op and aggregation effects can be isolated
    states = []
    for i in range(graph.n):
        state = AgentState(
            agent_id=i, r=r, train_x=np.zeros((6,) + arch.input_shape),
            train_y=np.zeros(6, dtype=int),
            test_x=np.zeros((2,) + arch.input_shape),
            test_y=np.zeros(2, dtype=int), eta=0.5, lam=0.0)
        state.weights = copy.deepcopy(weights_per_agent[i])
        state.m = {k: np.ones(s) for k, s in arch.param_shapes().items()}
        states.append(state)
    return states


def test_avr_weipru_identical_models_fixed_point():
    arch = tiny_arch()
    graph = Graph(np.ones((3, 3), dtype=int) - np.eye(3, dtype=int))
    w = init_params(arch, 9)
    states = zero_data_states(graph, arch, [w, w, w], r=0.5)
    hyper = HyperConfig("avr_weipru", 1, 4, 0.5, 0.0, 0, (0.5,) * 3,
                        min_nonzero=0, eval_interval=1)
    gossip_mask_round(states, None, arch, graph, hyper, 1)
    pruned = {k: w[k] * states[0].m[k] for k in w}
    for s in states:
        for k in w:
            np.testing.assert_allclose(s.weights[k], pruned[k], atol=1e-15)


def test_par_weipru_keeps_unmasked_entries_local():
    arch = tiny_arch()
    graph = Graph(np.ones((3, 3), dtype=int) - np.eye(3, dtype=int))
    ws = [init_params(arch, seed) for seed in (1, 2, 3)]
    states = zero_data_states(graph, arch, ws, r=0.4)
    hyper = HyperConfig("par_weipru", 1, 4, 0.5, 0.0, 0, (0.4,) * 3,
                        min_nonzero=0, eval_interval=1)
    gossip_mask_round(states, None, arch, graph, hyper, 1)
    for i, s in enumerate(states):
        local = s.m[0] == 0.0
        # zero gradient left the local weights at their initial values
        np.testing.assert_array_equal(s.weights[0][local], ws[i][0][local])
        assert (s.m[0] == 1.0).any()
        changed = s.m[0] == 1.0
        avg = sum((ws[j][0] * states[j].m[0] for j in range(3))) / 3
        np.testing.assert_allclose(s.weights[0][changed], avg[changed], atol=1e-15)


def test_dsgd_averages_neighbors():
    arch = tiny_arch()
    graph = Graph(np.ones((3, 3), dtype=int) - np.eye(3, dtype=int))
    ws = [init_params(arch, seed) for seed in (4, 5, 6)]
    states = zero_data_states(graph, arch, ws)
    for s in states:
        s.m = None
    hyper = HyperConfig("dsgd", 1, 4, 0.5, 0.0, 0, (1.0,) * 3,
                        min_nonzero=0, eval_interval=1)
    gossip_mask_round(states, None, arch, graph, hyper, 1)
    mean = sum((ws[j][0] for j in range(3))) / 3
    for s in states:
        np.testing.assert_allclose(s.weights[0], mean, atol=1e-15)


def test_ind_weipru_mask_matches_weight_magnitudes():
    arch, hyper, graph, train, test, plan = fixture_run_inputs(
        algorithm="ind_weipru", rounds=2)
    log = run(arch, hyper, graph, train, test, plan)
    for agent, per_layer in log.final_sparsity.items():
        for layer, (ones, total) in per_layer.items():
            assert ones == retained_count(hyper.retention[agent], total)


# ------------------------------------------------------------- batch draw

def test_sample_batch_deterministic():
    a = sample_batch(0, 1, 2, 50, 8)
    b = sample_batch(0, 1, 2, 50, 8)
    assert np.array_equal(a, b)
    c = sample_batch(0, 1, 3, 50, 8)
    assert not np.array_equal(a, c)


def test_sample_batch_empty_shard():
    with pytest.raises(ValueError, match="empty"):
        sample_batch(0, 1, 2, 0, 8)


# --------------------------------------------------- mask vs weight arms

def test_mask_arm_full_retention_trace_is_constant():
    train, test = synth_generate(3, (1, 3, 3), 20, noise=0.2, seed=0)
    arch = ModelArch((conv2d(1, 3, 3), flatten()), (1, 3, 3), 3)
    shards = [(train.features, train.labels, test.features, test.labels)]
    traces = mask_vs_weight_verify(arch, shards, r_values=(1.0,), steps=9,
                          eta_weight=0.01, eta_mask=1.0, batch_size=4, seed=3)
    accs = [acc for _, acc in traces.mask[(0, 1.0)]]
    assert len(set(accs)) == 1


@pytest.mark.parametrize("r_values, steps, eval_interval, field, message", [
    ((0.3, 0.3), 6, 3, "r_values", "r_values repeats the ratio 0.3"),
    ((0.5,), 0, 3, "steps", "steps must be at least 1"),
    ((0.5,), 6, 0, "eval_interval", "eval_interval must be at least 1"),
])
def test_harness_rejects_bad_arguments_before_training(
        monkeypatch, r_values, steps, eval_interval, field, message):
    monkeypatch.setattr(trainer, "init_params", None)   # nothing may run
    shards = [(np.zeros((4, 1, 3, 3)), np.zeros(4, dtype=int),
               np.zeros((2, 1, 3, 3)), np.zeros(2, dtype=int))]
    for call in (lambda: check_harness(r_values, steps, eval_interval),
                 lambda: mask_vs_weight_verify(
                     None, shards, r_values, steps, 0.01, 1.0, 4, 3,
                     eval_interval)):
        with pytest.raises(FieldError, match=f"^{message}$") as exc:
            call()
        assert exc.value.field == field


def test_mask_vs_weight_trace_lengths():
    train, test = synth_generate(3, (1, 3, 3), 20, noise=0.2, seed=0)
    arch = ModelArch((conv2d(1, 3, 3), flatten()), (1, 3, 3), 3)
    shards = [(train.features, train.labels, test.features, test.labels)]
    traces = mask_vs_weight_verify(arch, shards, r_values=(0.5,), steps=12,
                          eta_weight=0.01, eta_mask=1.0, batch_size=4, seed=3,
                          eval_interval=3)
    assert len(traces.weight[0]) == 12 // 3 + 1
    assert len(traces.mask[(0, 0.5)]) == 12 // 3 + 1
    assert [s for s, _ in traces.weight[0]] == [0, 3, 6, 9, 12]


# ------------------------------------------------------------ harness arms

def test_each_returns_results_in_item_order():
    delays = np.random.default_rng(0).random(24) * 0.01
    threads = set()

    def square(i):
        threads.add(threading.get_ident())
        time.sleep(delays[i])
        return i * i
    assert trainer._each(square, range(24), 4) == [i * i for i in range(24)]
    assert len(threads) > 1
    assert trainer._each(square, [], 4) == []
    # one worker is a plain loop on the calling thread
    threads.clear()
    assert trainer._each(square, range(6), 1) == [i * i for i in range(6)]
    assert threads == {threading.get_ident()}


def test_each_keeps_its_helper_threads_across_calls():
    # a helper that exited would return its malloc arena only after join(),
    # so a fresh helper per call could allocate a second arena's peak
    def where(i):
        time.sleep(0.005)
        return threading.current_thread()
    calls = [set(trainer._each(where, range(8), 2)) for _ in range(3)]
    helpers = [c - {threading.current_thread()} for c in calls]
    assert helpers[0] and helpers[0] == helpers[1] == helpers[2]


def test_workers_stay_at_the_measured_two():
    # each helper thread adds a few MB of peak memory; more threads were
    # not measured against the benchmark's memory bound
    assert 1 <= trainer._WORKERS <= 2


def test_each_reraises_the_lowest_failing_item():
    # item 1 fails first, while item 0 still runs; item 0's failure is the
    # one a plain loop would raise. No item starts after a failure
    failed, started = threading.Event(), []

    def fn(i):
        started.append(i)
        if i == 0:
            assert failed.wait(10)
            raise ValueError("item 0")
        if i == 1:
            failed.set()
            raise ValueError("item 1")
        return i
    with pytest.raises(ValueError, match="^item 0$"):
        trainer._each(fn, range(6), 2)
    assert sorted(started) == [0, 1]


def _harness_inputs(agents=1):
    train, test = synth_generate(3, (1, 3, 3), 20, noise=0.2, seed=0)
    arch = ModelArch((conv2d(1, 4, 3, padding=1), relu(), flatten(),
                      linear(36, 3)), (1, 3, 3), 3)
    return arch, [(train.features, train.labels, test.features, test.labels)] * agents


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _acting(monkeypatch, child=None, caller=None):
    """Rebind ``trainer._train_arm`` so that each arm first calls ``child()``
    where a forked child runs it and ``caller()`` where the calling process
    does (None: nothing). Two workers."""
    monkeypatch.setattr(trainer, "_WORKERS", 2)
    pid, original = os.getpid(), trainer._train_arm

    def arm(*args):
        act = caller if os.getpid() == pid else child
        if act is not None:
            act()
        return original(*args)
    monkeypatch.setattr(trainer, "_train_arm", arm)


def _verify_small_harness():
    arch, shards = _harness_inputs(agents=2)
    return mask_vs_weight_verify(arch, shards, r_values=(0.3, 0.5), steps=2,
                                 eta_weight=0.01, eta_mask=1.0, batch_size=4,
                                 seed=3)


def test_harness_arms_run_under_the_callers_errstate(monkeypatch):
    # the child's arms overflow: under the caller's np.errstate that raises
    # FloatingPointError in the child, which the caller re-raises, and
    # nothing where the caller ignores overflows
    _acting(monkeypatch, child=lambda: np.float64(1e308) * 10.0)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError,
                                                  match="overflow"):
        _verify_small_harness()
    with np.errstate(over="ignore"):
        _verify_small_harness()
    _assert_no_child_left()


@pytest.mark.parametrize("leave, message", [
    (lambda: os._exit(3), "exited with status 3 before sending its results"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     "exited with signal SIGKILL before sending its results"),
])
def test_a_harness_child_that_dies_names_its_exit(leave, message, monkeypatch):
    _acting(monkeypatch, child=leave)
    with pytest.raises(RuntimeError, match=f"^a forked worker {message}$"):
        _verify_small_harness()
    _assert_no_child_left()


def _raise(exc):
    raise exc


@pytest.mark.parametrize("exc, child", [
    (ValueError("caller"), None),
    (KeyboardInterrupt(), lambda: time.sleep(60)),
])
def test_harness_reaps_its_child_when_the_callers_arm_raises(exc, child,
                                                            monkeypatch):
    # an Exception in the caller's arms waits for the child, whose arms
    # might hold a lower failure; a KeyboardInterrupt kills it at once
    _acting(monkeypatch, child=child, caller=lambda: _raise(exc))
    start = time.perf_counter()
    with pytest.raises(type(exc)):
        _verify_small_harness()
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


def test_harness_names_the_lower_of_two_diverging_arms(monkeypatch):
    # 2 agents x (weight arm + 1 mask arm): arm 1 (agent 0's mask arm, in
    # the child) diverges at step 3, arm 2 (agent 1's weight arm, in the
    # caller) at step 1. The error names arm 1, as the plain loop's does
    step = trainer._local_step

    def diverging(state, w, arch, batch_x, batch_y, k):
        if (state.agent_id, state.weights is None, k) in ((0, True, 3), (1, False, 1)):
            batch_x = np.full_like(batch_x, np.nan)
        return step(state, w, arch, batch_x, batch_y, k)
    monkeypatch.setattr(trainer, "_local_step", diverging)
    arch, shards = _harness_inputs(agents=2)
    messages = []
    for workers in (1, 2):
        monkeypatch.setattr(trainer, "_WORKERS", workers)
        with np.errstate(invalid="ignore"), pytest.raises(SimulationError) as err:
            mask_vs_weight_verify(arch, shards, r_values=(0.5,), steps=6,
                                  eta_weight=0.01, eta_mask=1.0, batch_size=4,
                                  seed=3)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("agent 0, round 3")
    _assert_no_child_left()


def test_harness_traces_do_not_depend_on_the_worker_count(monkeypatch):
    # 2 agents x (weight arm + 2 mask arms): 6 arms on 1, 2 and 4
    # processes, also with every conv blocked and its weight gradient
    # through the shared buffer, as the golden test's pool run has them
    arch, shards = _harness_inputs(agents=2)
    traces = []
    for block, shared in ((nn._BLOCK_BYTES, nn._SHARED_BYTES), (1, 0)):
        monkeypatch.setattr(nn, "_BLOCK_BYTES", block)
        monkeypatch.setattr(nn, "_SHARED_BYTES", shared)
        monkeypatch.setattr(nn, "_shared_buf", np.empty(0))
        for workers in (1, 2, 4):
            monkeypatch.setattr(trainer, "_WORKERS", workers)
            traces.append(pickle.dumps(mask_vs_weight_verify(
                arch, shards, r_values=(0.3, 0.5), steps=12, eta_weight=0.01,
                eta_mask=1.0, batch_size=4, seed=3)))
    assert len(set(traces)) == 1
    _assert_no_child_left()


@pytest.mark.parametrize("error", [
    FieldError("steps", "steps must be at least 1"),
    LayerError(3, "non-finite score"),
    SimulationError("agent 0, round 2: non-finite loss nan"),
])
def test_library_errors_survive_pickling(error):
    # a forked harness arm sends its failure back pickled
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error) and str(back) == str(error)
    assert vars(back) == vars(error)


# -------------------------------------------------------------- round pool

def _config_arch(cfg):
    return desk_arch(cfg.dim, cfg.classes, cfg.conv_channels, cfg.hidden)


def test_round_pool_gate_threads_only_the_default_shape():
    # the README default shape's columns reach _SHARED_BYTES at batch 128;
    # configs/train.conf (batch 8) and the mask-vs-weight harness (batch 32)
    # stay below it, and their rounds run in a plain loop
    default = RunConfig()
    assert default.batch_size == 128
    assert nn._shares_columns(_config_arch(default), 128)
    for name, batch in (("train.conf", 8), ("mask_vs_weight.conf", 32)):
        cfg = parse_config((CONFIGS / name).read_text())
        assert cfg.batch_size == batch
        assert not nn._shares_columns(_config_arch(cfg), batch)


@pytest.mark.parametrize("shared", [False, True])
def test_round_runs_its_local_steps_through_the_pool_past_the_gate(shared, monkeypatch):
    monkeypatch.setattr(nn, "_SHARED_BYTES", 0 if shared else 1 << 62)
    monkeypatch.setattr(trainer, "_WORKERS", 2)
    pooled = []
    each = trainer._each

    def spy(fn, items, workers):
        if workers > 1:
            pooled.append([[s.agent_id for s in stack] for stack in items])
        return each(fn, items, workers)
    monkeypatch.setattr(trainer, "_each", spy)
    arch, hyper, graph, train, test, plan = fixture_run_inputs()
    w = init_params(arch, 0)
    states = build_states(arch, hyper, graph, train, test, plan, w)
    gossip_mask_round(states, w, arch, graph, hyper, 1)
    assert pooled == ([[[0], [1], [2], [3]]] if shared else [])


def test_threaded_round_names_the_lower_of_two_diverging_agents(monkeypatch):
    # agents 1 and 2 diverge; agent 1 fails only after agent 2 has failed on
    # the other thread. The error names agent 1, as the serial loop's does
    # (each agent a stack of one past the gate)
    monkeypatch.setattr(trainer, "_WORKERS", 2)
    failed = threading.Event()
    step = trainer._stack_half_steps

    def ordered(stack, *args):
        if stack[0].agent_id == 1:
            assert failed.wait(10)
        try:
            return step(stack, *args)
        except ValueError:
            if stack[0].agent_id == 2:
                failed.set()
            raise
    arch, hyper, graph, train, test, plan = fixture_run_inputs(algorithm="ind_mask")
    w = init_params(arch, 0)
    messages = []
    for shared in (True, False):
        monkeypatch.setattr(nn, "_SHARED_BYTES", 0 if shared else 1 << 62)
        monkeypatch.setattr(trainer, "_stack_half_steps", ordered if shared else step)
        states = build_states(arch, hyper, graph, train, test, plan, w)
        for s in states[1:3]:
            s.train_x = np.full_like(s.train_x, np.nan)
        with np.errstate(invalid="ignore"), pytest.raises(SimulationError) as err:
            gossip_mask_round(states, w, arch, graph, hyper, 3)
        messages.append(str(err.value))
    assert failed.is_set()
    assert messages[0] == messages[1]
    assert messages[0].startswith("agent 1, round 3")


def test_round_pool_keeps_the_golden_digests(monkeypatch, tmp_path):
    # every conv above one block and past the gate, its weight gradient
    # through the shared buffer, the rounds and evaluations of all six
    # algorithms on four threads and the harness arms on four processes:
    # every golden CSV digest stays as it is
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 1)
    monkeypatch.setattr(nn, "_SHARED_BYTES", 0)
    monkeypatch.setattr(nn, "_shared_buf", np.empty(0))
    monkeypatch.setattr(trainer, "_WORKERS", 4)
    pooled = []
    each = trainer._each

    def spy(fn, items, workers):
        pooled.append((fn.__name__, len(items), workers))
        return each(fn, items, workers)
    monkeypatch.setattr(trainer, "_each", spy)
    test_golden.test_golden_trajectory(tmp_path)
    # per algorithm: the round-0 evaluation, 10 rounds of 8 agents and the
    # round-10 evaluation; the harness arms do not go through _each
    run = [("evaluate", 8, 4)] + [("step", 8, 4)] * 10 + [("evaluate", 8, 4)]
    assert pooled == run * 6
    # the harness's batch of 32 at the train.conf shape, from the arms the
    # caller ran
    assert nn._shared_buf.nbytes == 32 * 8 * 8 * 3 * 5 * 5 * 8


@pytest.mark.parametrize("name", [None, "train.conf", "mask_vs_weight.conf"])
def test_run_evaluates_on_the_pool_exactly_past_the_gate(name, monkeypatch):
    # the README default shape (name None) passes the round steps' gate,
    # the two config shapes do not; the gate depends only on the
    # architecture and the batch size, so a small task of each shape does
    monkeypatch.setattr(trainer, "_WORKERS", 2)
    cfg = RunConfig() if name is None else parse_config((CONFIGS / name).read_text())
    seen = []
    each = trainer._each

    def spy(fn, items, workers):
        seen.append((fn.__name__, workers))
        return each(fn, items, workers)
    monkeypatch.setattr(trainer, "_each", spy)
    train, test = synth_generate(cfg.classes, cfg.dim, 5, noise=0.1, seed=0)
    plan = partition(train, test, assign_labels(2, cfg.classes, cfg.classes, 0), 0)
    hyper = HyperConfig("ind_mask", rounds=0, batch_size=cfg.batch_size, eta=1.0,
                        lam=0.0, seed=0, retention=(0.5, 0.5))
    run(_config_arch(cfg), hyper, erdos_renyi(2, 1.0, 0), train, test, plan)
    assert seen == [("evaluate", 2 if name is None else 1)]


def test_pooled_evaluation_rows_equal_the_plain_loops(monkeypatch):
    # four threads, switching often, against one, with every conv on the
    # default shape's blocked forward and weight gradients through the
    # shared buffer: the same rows, float for float, for every agent and
    # the mean row
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 1)
    monkeypatch.setattr(nn, "_SHARED_BYTES", 0)
    monkeypatch.setattr(nn, "_shared_buf", np.empty(0))
    arch, hyper, graph, train, test, plan = fixture_run_inputs(
        n=6, r=(0.3, 0.2, 0.4, 0.3, 0.5, 0.1))
    w = init_params(arch, 0)
    states = build_states(arch, hyper, graph, train, test, plan, w)
    for k in (1, 2):
        gossip_mask_round(states, w, arch, graph, hyper, k)
    assert nn._shared_buf.nbytes == nn._largest_column_bytes(arch, hyper.batch_size)
    ledger = trainer.CommLedger()
    logs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 4):
            logs.append(trainer.MetricsLog())
            trainer._evaluate_round(logs[-1], 2, states, w, arch, ledger, workers)
    finally:
        sys.setswitchinterval(interval)
    assert [row.agent for row in logs[0].rows] == [-1, 0, 1, 2, 3, 4, 5]
    assert pickle.dumps(logs[0].rows) == pickle.dumps(logs[1].rows)


# ----------------------------------------------------------- bound checker

def test_bound_check_substitution():
    (f1, f2, g1, g2), probe = random_bound_instance(0, probes=50)
    rep = bound_check(f1, f2, f1, f2, probe)
    assert rep.eps1 == 0.0 and rep.eps2 == 0.0
    assert rep.sup_gap == rep.alpha_u and rep.inf_gap == rep.alpha_l
    assert rep.upper_holds


def test_bound_check_all_equal():
    (f1, _, _, _), probe = random_bound_instance(1, probes=20)
    rep = bound_check(f1, f1, f1, f1, probe)
    assert rep.eps1 == rep.eps2 == rep.alpha_u == rep.alpha_l == 0.0
    assert rep.sup_gap == rep.inf_gap == 0.0
    assert rep.upper_holds and rep.lower_holds


def test_bound_check_upper_holds_on_random_instances():
    for seed in range(20):
        nets, probe = random_bound_instance(seed, probes=60)
        assert bound_check(*nets, probe).upper_holds


def test_masked_net_logits_bitwise_equal_to_forward():
    # 200 probes, as the bound-check experiment draws by default: the
    # conv stack runs in two chunks, the linear layers on all 200 rows
    rng = np.random.default_rng(3)
    for arch in (trainer._bound_arch(), desk_arch((3, 16, 16), 10, (16, 32), 128)):
        w = init_params(arch, 3)
        m = {idx: (rng.random(s) < 0.5).astype(np.float64)
             for idx, s in arch.param_shapes().items()}
        x = rng.random((200,) + arch.input_shape)
        for masks in (None, m):
            net = make_masked_net(arch, w, masks)
            assert net(x).tobytes() == forward(arch, w, masks, x)[0].tobytes()


def test_bound_check_rejects_bad_inputs():
    (f1, f2, g1, g2), probe = random_bound_instance(2, probes=10)
    with pytest.raises(ValueError, match="empty"):
        bound_check(f1, f2, g1, g2, probe[:0])
    bad = lambda x: np.zeros((len(x), 7))
    with pytest.raises(ValueError, match="shape"):
        bound_check(f1, f2, g1, bad, probe)
