"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The learning-based criteria (5 and 6) use fixed seeds and desk-scale
synthetic tasks; their runtime dominates the suite.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from gossipmask import (Dataset, Graph, HyperConfig, MaskFrame, ModelArch,
                        PartitionPlan, ProtocolError, assign_labels,
                        bound_check, build_states, conv2d, decode_mask,
                        desk_arch, mask_vs_weight_verify, encode_mask,
                        erdos_renyi, exchange, filter_zero, finite_diff_check,
                        flatten, gossip_mask_round,
                        group_lasso_grad, group_lasso_value, init_params,
                        linear, loss_and_grad_v, maxpool2d, partition,
                        random_bound_instance, relu, retained_count,
                        run, sample_batch, seed_key, substream, synth_generate,
                        threshold_layer)
from gossipmask.cli import parse_config, run_experiment
from gossipmask.protocol import CommLedger
from gossipmask.trainer import (_average_masks, aggregate_step,
                                backprop_half_step, fine_tune_step)


def _pass(n, name):
    print(f"\n[acceptance] criterion {n} ({name}): PASS")


# ---------------------------------------------------------------------- 1

def _random_net(seed):
    rng = np.random.default_rng(seed)
    channels = int(rng.integers(1, 3))
    filters = int(rng.integers(2, 5))
    side = int(rng.integers(5, 7))
    classes = int(rng.integers(3, 5))
    layers = [conv2d(channels, filters, 3, padding=1), relu()]
    if rng.random() < 0.5:
        layers.append(maxpool2d(2, 2))
        side_out = side // 2
    else:
        side_out = side
    layers.append(flatten())
    flat = filters * side_out * side_out
    if rng.random() < 0.5:
        hidden = int(rng.integers(4, 9))
        layers += [linear(flat, hidden), relu(), linear(hidden, classes)]
    else:
        layers.append(linear(flat, classes))
    arch = ModelArch(tuple(layers), (channels, side, side), classes)
    w = init_params(arch, int(rng.integers(2 ** 31)))
    m = {idx: (rng.random(s) < rng.uniform(0.4, 0.8)).astype(float)
         for idx, s in arch.param_shapes().items()}
    x = rng.random((int(rng.integers(3, 6)),) + arch.input_shape)
    y = rng.integers(0, classes, x.shape[0])
    return arch, w, m, x, y, rng


def test_criterion_1_gradient_correctness():
    # step 1e-4: at 1e-5 the difference-quotient roundoff (~3e-11 absolute)
    # already exceeds 1e-5 relative for coordinates whose true gradient is
    # of order 1e-6, which random masked nets do produce
    start = time.monotonic()
    worst = 0.0
    for net in range(20):
        arch, w, m, x, y, rng = _random_net(1000 + net)
        v = {idx: w[idx] * m[idx] for idx in w}
        for idx in v:
            def fn(t, idx=idx):
                probe = dict(v)
                probe[idx] = t
                loss, grads = loss_and_grad_v(arch, probe, None, x, y)
                return loss, grads[idx]
            err = finite_diff_check(fn, v[idx], 1e-4, num_coords=10,
                                    seed=net * 10 + idx)
            worst = max(worst, err)
        # group-lasso gradient against the same oracle, away from the kink
        z = rng.standard_normal(next(iter(v.values())).shape)
        z += 0.5 * np.sign(z)
        lam = float(rng.uniform(0.1, 1.0))

        def fn_gl(t):
            return (group_lasso_value({0: t}, lam),
                    group_lasso_grad({0: t}, lam)[0])
        worst = max(worst, finite_diff_check(fn_gl, z, 1e-4, num_coords=10,
                                             seed=net))
    elapsed = time.monotonic() - start
    assert worst < 1e-5, f"max relative error {worst}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _pass(1, f"gradient correctness, max rel err {worst:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------- 2

def test_criterion_2_equation_oracle_equivalence():
    # fixture: 2 agents, one conv layer covering the whole input
    classes = 3
    arch = ModelArch((conv2d(1, classes, 2), flatten()), (1, 2, 2), classes)
    shape = (classes, 1, 2, 2)
    eta, lam, r, min_nonzero, seed = 0.7, 0.01, 0.5, 2, 99
    rng = np.random.default_rng(5)
    w = {0: rng.uniform(-1, 1, shape)}
    train_x = [rng.random((12, 1, 2, 2)) for _ in range(2)]
    train_y = [rng.integers(0, classes, 12) for _ in range(2)]
    # the library's agents on these shards, scores from the z substream
    graph = Graph(np.array([[0, 1], [1, 0]]))
    data = Dataset(np.concatenate(train_x), np.concatenate(train_y), classes)
    shards = [np.arange(12), np.arange(12, 24)]
    plan = PartitionPlan([tuple(range(classes))] * 2, shards, [s[:2] for s in shards])
    hyper = HyperConfig("gossip_mask", 1, 8, eta, lam, seed, (r, r),
                        min_nonzero, 1)
    states = build_states(arch, hyper, graph, data, data, plan, w)

    # --- straight-line scripted reference, plain numpy throughout ---
    def thres(t):
        n = t.size
        k = max(1, int(np.floor(r * n + 0.5)))
        order = np.argsort(-np.abs(t).ravel(), kind="stable")
        out = np.zeros(n)
        out[order[:k]] = 1.0
        return out.reshape(t.shape)

    def weak_filter_rule(mask):
        out = mask.copy()
        for o in range(out.shape[0]):
            if out[o].sum() < min_nonzero:
                out[o] = 0.0
        return out

    def data_grad(v, x, y):
        logits = np.einsum("ocij,ncij->no", v, x)
        shift = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(shift) / np.exp(shift).sum(axis=1, keepdims=True)
        p[np.arange(len(y)), y] -= 1.0
        return np.einsum("no,ncij->ocij", p / len(y), x)

    def reg_grad(t):
        out = np.zeros_like(t)
        for o in range(t.shape[0]):
            norm = np.sqrt((t[o] ** 2).sum())
            if norm > 0:
                out[o] = lam * t[o] / norm
        return out

    z = [s.z[0].copy() for s in states]
    m_prev = [weak_filter_rule(thres(z[a])) for a in range(2)]      # own initial mask
    nb = [m_prev[1 - a] for a in range(2)]                  # bootstrap exchange
    g_ref, z_ref, m_ref = [None, None], [None, None], [None, None]
    m_half = [None, None]
    z_half = [None, None]
    for a in range(2):
        idx = sample_batch(seed, a, 1, len(train_y[a]), 8)
        x, y = train_x[a][idx], train_y[a][idx]
        gv = data_grad(w[0] * m_prev[a], x, y)
        g = gv * w[0] * np.sign(z[a]) + reg_grad(z[a])
        zh = z[a] - eta * g
        yh = zh + np.abs(zh).mean() * np.sign(zh) * nb[a]
        m_half[a] = weak_filter_rule(thres(yh))
        g_ref[a], z_half[a] = g, zh
    for a in range(2):
        recv = m_half[1 - a]
        zk = z_half[a] - eta * g_ref[a] * recv
        yk = zk + np.abs(zk).mean() * np.sign(zk) * recv
        z_ref[a], m_ref[a] = zk, weak_filter_rule(thres(yk))

    # --- the same round through the library ---
    for a in range(2):
        np.testing.assert_array_equal(states[a].m[0], m_prev[a])
        states[a].neighbor_avg = {0: states[1 - a].m[0].copy()}
    gossip_mask_round(states, w, arch, graph, hyper, 1)

    for a in range(2):
        np.testing.assert_allclose(states[a].z[0], z_ref[a], rtol=0,
                                   atol=1e-12)
        np.testing.assert_array_equal(states[a].m[0], m_ref[a])
    _pass(2, "one round matches the straight-line scripted reference")


# ---------------------------------------------------------------------- 3

def test_criterion_3_sparsity_exactness():
    n_agents, classes, rounds, mn = 20, 6, 4, 2
    train, test = synth_generate(classes, (2, 6, 6), 40, noise=0.3,
                                 seed=seed_key(0, "data"))
    sets = assign_labels(n_agents, classes, 2, seed_key(0, "labels"))
    plan = partition(train, test, sets, seed_key(0, "partition"))
    graph = erdos_renyi(n_agents, 0.5, seed_key(0, "topology"))
    retention = tuple(substream(0, "retention").choice([0.1, 0.2, 0.3, 0.4],
                                                       size=n_agents))
    arch = ModelArch((conv2d(2, 8, 3, padding=1), relu(), flatten(),
                      linear(8 * 36, classes)), (2, 6, 6), classes)
    hyper = HyperConfig("gossip_mask", rounds, 8, 0.1, 0.001, 0, retention, mn, 1)
    w = init_params(arch, seed_key(0, "params"))
    states = build_states(arch, hyper, graph, train, test, plan, w)
    shapes = arch.param_shapes()
    inbox = exchange(graph, {s.agent_id: encode_mask(s.m, s.agent_id, 0)
                             for s in states})
    for s in states:
        s.neighbor_avg = _average_masks({f.sender: decode_mask(f, shapes)
                                         for f in inbox[s.agent_id]})
    checked = equalities = 0
    for k in range(1, rounds + 1):
        outbox = {}
        for s in states:
            idx = sample_batch(hyper.seed, s.agent_id, k, len(s.train_y),
                               hyper.batch_size)
            _, _, m_half = backprop_half_step(s, w, arch, s.train_x[idx],
                                              s.train_y[idx])
            outbox[s.agent_id] = encode_mask(m_half, s.agent_id, k)
        inbox = exchange(graph, outbox)
        for s in states:
            avg = _average_masks({f.sender: decode_mask(f, shapes)
                                  for f in inbox[s.agent_id]})
            fine_tune_step(s, avg)
            y, m = aggregate_step(s, avg)
            for layer, shape in shapes.items():
                total = int(np.prod(shape))
                cap = retained_count(s.r, total)
                ones = int(m[layer].sum())
                assert ones <= cap
                pre = threshold_layer(y[layer], s.r)
                post = filter_zero(pre, mn)
                np.testing.assert_array_equal(m[layer], post)
                if np.array_equal(post, pre):  # filter zeroing cleared nothing
                    assert ones == cap
                    equalities += 1
                checked += 1
    assert checked == rounds * n_agents * len(shapes)
    assert equalities > 0
    _pass(3, f"sparsity exact on {checked} agent/layer/round checks "
             f"({equalities} at equality)")


# ---------------------------------------------------------------------- 4

def test_criterion_4_communication_ratio():
    classes = 4
    train, test = synth_generate(classes, (2, 5, 5), 30, noise=0.2,
                                 seed=seed_key(1, "data"))
    sets = assign_labels(6, classes, 2, seed_key(1, "labels"))
    plan = partition(train, test, sets, seed_key(1, "partition"))
    graph = erdos_renyi(6, 0.6, seed_key(1, "topology"))
    arch = ModelArch((conv2d(2, 4, 3, padding=1), relu(), flatten(),
                      linear(4 * 25, classes)), (2, 5, 5), classes)
    shapes = arch.param_shapes()

    gossip_hyper = HyperConfig("gossip_mask", 1, 8, 0.1, 0.001, 1,
                               (0.3,) * 6, 2, 1)
    w = init_params(arch, seed_key(1, "params"))
    states = build_states(arch, gossip_hyper, graph, train, test, plan, w)
    inbox = exchange(graph, {s.agent_id: encode_mask(s.m, s.agent_id, 0)
                             for s in states})
    for s in states:
        s.neighbor_avg = _average_masks({f.sender: decode_mask(f, shapes)
                                         for f in inbox[s.agent_id]})
    gossip_ledger = CommLedger()
    gossip_mask_round(states, w, arch, graph, gossip_hyper, 1, gossip_ledger)
    gossip_payload = gossip_ledger.round_totals(1)[0]

    avr_hyper = HyperConfig("avr_weipru", 1, 8, 0.001, 0.001, 1,
                            (0.3,) * 6, 2, 1)
    avr_states = build_states(arch, avr_hyper, graph, train, test, plan, w)
    avr_ledger = CommLedger()
    gossip_mask_round(avr_states, None, arch, graph, avr_hyper, 1, avr_ledger)
    avr_payload = avr_ledger.round_totals(1)[0]

    assert gossip_payload * 32 == avr_payload
    assert gossip_payload == int(graph.degrees.sum()) * arch.param_count()

    # header overhead of the default desk architecture
    desk = desk_arch()
    frame = encode_mask({idx: np.ones(s) for idx, s in desk.param_shapes().items()},
                        0, 0)
    ratio = frame.header_bits() / frame.payload_bits()
    assert ratio < 0.01, f"header overhead {ratio:.4%}"
    _pass(4, f"mask/real payload ratio exactly 1/32; desk header overhead "
             f"{ratio:.3%}")


# ---------------------------------------------------------------------- 5

def test_criterion_5_mask_vs_weight_training():
    start = time.monotonic()
    arch = desk_arch((3, 8, 8), 4, (16, 32), 32)
    r_values = (0.3, 0.5)
    weight_finals, mask_finals = [], {r: [] for r in r_values}
    for seed in (0, 1, 2):
        train, test = synth_generate(4, (3, 8, 8), 100, noise=0.1,
                                     seed=[seed, 7])
        sets = assign_labels(2, 4, 2, seed=[seed, 6])
        shards = []
        for labels in sets:
            tr = np.flatnonzero(np.isin(train.labels, list(labels)))
            te = np.flatnonzero(np.isin(test.labels, list(labels)))
            shards.append((train.features[tr], train.labels[tr],
                           test.features[te], test.labels[te]))
        traces = mask_vs_weight_verify(arch, shards, r_values, steps=300,
                              eta_weight=0.01, eta_mask=0.1, batch_size=32,
                              seed=seed, eval_interval=3)
        assert all(len(traces.weight[a]) == 300 // 3 + 1 for a in traces.weight)
        weight_finals.append(np.mean([traces.weight[a][-1][1]
                                      for a in traces.weight]))
        for r in r_values:
            mask_finals[r].append(np.mean([traces.mask[(a, r)][-1][1]
                                           for a in traces.weight]))
    weight_med = float(np.median(weight_finals))
    for r in r_values:
        mask_med = float(np.median(mask_finals[r]))
        assert mask_med >= 0.9 * weight_med, (
            f"r={r}: mask {mask_med:.3f} < 0.9 * weight {weight_med:.3f}")
    elapsed = time.monotonic() - start
    assert elapsed < 900
    _pass(5, f"mask-trained vs weight-trained: weight {weight_med:.3f}, "
             f"mask {[round(float(np.median(mask_finals[r])), 3) for r in r_values]} "
             f"in {elapsed:.0f}s")


# ---------------------------------------------------------------------- 6

def _collab_final(seed, algorithm):
    train, test = synth_generate(6, (3, 8, 8), 60, noise=0.45, seed=[seed, 7])
    sets = assign_labels(8, 6, 2, seed=[seed, 6])
    plan = partition(train, test, sets, seed=[seed, 3])
    graph = erdos_renyi(8, 0.5, seed=[seed, 2])
    retention = tuple(substream(seed, "retention").choice([0.1, 0.2, 0.3, 0.4],
                                                          size=8))
    arch = desk_arch((3, 8, 8), 6, (16, 32), 32)
    eta = 0.1 if algorithm in ("gossip_mask", "ind_mask") else 0.001
    hyper = HyperConfig(algorithm, rounds=60, batch_size=8, eta=eta, lam=0.001,
                        seed=seed, retention=retention, min_nonzero=2,
                        eval_interval=60)
    return run(arch, hyper, graph, train, test, plan).final_mean_accuracy()


def test_criterion_6_collaboration_gain():
    start = time.monotonic()
    finals = {alg: [_collab_final(seed, alg) for seed in (0, 1, 2)]
              for alg in ("gossip_mask", "ind_mask", "avr_weipru")}
    med = {alg: float(np.median(v)) for alg, v in finals.items()}
    assert med["gossip_mask"] > med["ind_mask"], finals
    assert med["gossip_mask"] >= med["avr_weipru"], finals
    elapsed = time.monotonic() - start
    _pass(6, f"collaboration gain: gossip {med['gossip_mask']:.3f} > "
             f"ind {med['ind_mask']:.3f} >= avr {med['avr_weipru']:.3f} "
             f"in {elapsed:.0f}s")


# ---------------------------------------------------------------------- 7

def test_criterion_7_determinism(tmp_path):
    text = """
experiment = train
seed = 5
n = 5
p = 0.7
classes = 4
c = 2
per_class = 30
noise = 0.2
dim = 2,5,5
conv_channels = 4
hidden = 16
algorithm = gossip_mask,ind_mask
rounds = 3
batch_size = 8
eval_interval = 1
eta_mask = 0.1
"""
    cfg = parse_config(text + f"out = {tmp_path/'a'}\n")
    assert run_experiment(cfg, quiet=True) == 0
    manifest = (tmp_path / "a" / "manifest.txt").read_text()
    cfg2 = replace(parse_config(manifest), out=str(tmp_path / "b"))
    assert run_experiment(cfg2, quiet=True) == 0
    for name in ("metrics_gossip_mask.csv", "metrics_ind_mask.csv",
                 "sparsity_gossip_mask.csv", "sparsity_ind_mask.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    _pass(7, "manifest rerun reproduces metrics CSVs byte for byte")


# ---------------------------------------------------------------------- 8

def test_criterion_8_bound_checker():
    lower_held = 0
    for i in range(100):
        nets, probe = random_bound_instance(5000 + i, probes=200)
        rep = bound_check(*nets, probe)
        # brute-force max-norm oracle, one probe sample at a time
        outs = [np.asarray(f(probe)) for f in nets]
        sup_ref = {}
        inf_ref = {}
        for key, (a, b) in {"e1": (0, 2), "e2": (1, 3), "f": (0, 1),
                            "g": (2, 3)}.items():
            per = []
            for s in range(probe.shape[0]):
                per.append(float(np.max(np.abs(outs[a][s] - outs[b][s]))))
            sup_ref[key] = max(per)
            inf_ref[key] = min(per)
        assert abs(rep.eps1 - sup_ref["e1"]) <= 1e-12
        assert abs(rep.eps2 - sup_ref["e2"]) <= 1e-12
        assert abs(rep.alpha_u - sup_ref["f"]) <= 1e-12
        assert abs(rep.alpha_l - inf_ref["f"]) <= 1e-12
        assert abs(rep.sup_gap - sup_ref["g"]) <= 1e-12
        assert abs(rep.inf_gap - inf_ref["g"]) <= 1e-12
        assert rep.upper_holds, f"instance {i}: upper inequality violated"
        lower_held += int(rep.lower_holds)
    _pass(8, f"upper bound held on 100/100 instances; lower bound held on "
             f"{lower_held}/100 (evaluated and reported)")


# ---------------------------------------------------------------------- 9

def test_criterion_9_codec():
    rng = np.random.default_rng(77)
    tampered = 0
    for trial in range(10000):
        masks = {}
        for layer in range(int(rng.integers(1, 4))):
            n = int(rng.integers(1, 121))
            masks[layer] = (rng.random(n) < 0.5).astype(np.float64)
        frame = encode_mask(masks, int(rng.integers(0, 100)),
                            int(rng.integers(0, 1000)))
        wire = MaskFrame.from_bytes(frame.to_bytes())
        shapes = {k: v.shape for k, v in masks.items()}
        decoded = decode_mask(wire, shapes)
        for k in masks:
            assert np.array_equal(decoded[k], masks[k])
        # corrupt one padding bit wherever padding exists
        padded = [seg for seg in wire.segments if seg[1] % 8]
        if padded:
            layer, count, payload = padded[0]
            byte_idx, bit = count // 8, count % 8
            bad = bytearray(payload)
            bad[byte_idx] |= 1 << bit
            bad_segments = tuple((l, c, bytes(bad) if l == layer else p)
                                 for l, c, p in wire.segments)
            with pytest.raises(ProtocolError):
                decode_mask(MaskFrame(wire.sender, wire.round_index,
                                      bad_segments), shapes)
            tampered += 1
    assert tampered > 5000
    _pass(9, f"10000 round-trips lossless; {tampered} corrupted-padding "
             f"frames all rejected")
