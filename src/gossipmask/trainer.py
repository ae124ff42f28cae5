"""Synchronous multi-agent training loops and verification harnesses.

One round function, :func:`gossip_mask_round`, runs all six algorithms.
Every round starts with one local step per agent, the same step the
mask-vs-weight harness takes: the half-step (a) below for an agent that
trains scores, the weight step for one that trains weights. The algorithm
then picks the round's mixing rule, its only branch.

Algorithms
----------
``gossip_mask``
    Collaborative mask learning. All agents share one fixed random
    parameter set and each trains a personalized score tensor. Every round
    an agent (a) back-propagates through its masked network, steps the
    scores and extracts its intermediate mask from an aggregation tensor
    that blends the scores with the average of the previous round's
    neighbor masks, (b) broadcasts that mask, (c) fine-tunes the scores
    with its cached gradient scaled by the average of the fresh neighbor
    masks, and (d) re-extracts its mask from the aggregation tensor built
    on the fine-tuned scores. Only 1-bit masks ever cross the wire, and
    fusion sees the neighborhood only through that entry-wise average:
    the receive step decodes each frame once to uint8 bits, counts each
    agent's received bits per entry in ascending sender order, divides
    once by the sender count and drops the bits.
``ind_mask``
    The collaborative round with an empty neighborhood: (c) and (d) change
    nothing, so the mask extracted in (a) is the new mask; nothing is sent.
``ind_weipru``, ``avr_weipru``, ``par_weipru``, ``dsgd``
    One step-prune-mix skeleton on per-agent copies of the parameters: the
    weight step (a local SGD step, then magnitude pruning back to the
    agent's retention ratio, not for dsgd), then a mixing rule over the
    transmitted weights: none (ind_weipru, no communication), the
    neighborhood average, self included (avr_weipru, and D-PSGD for dsgd),
    or that average only where the local mask keeps the entry (par_weipru).

Within a round agents are processed in ascending id and all reductions
over neighbors iterate in ascending sender id, so results do not depend
on scheduling. Three kinds of work are independent per item and run
through :func:`_each`: a round's local steps, the per-agent evaluation
(test accuracy and logged loss) and the mask-vs-weight harness's arms.
The harness arms use up to two cores. The steps and the evaluation do
where a step's conv columns reach ``nn._SHARED_BYTES`` (the README
default shape, not the desk or harness shapes; a fixed property of the
architecture and batch size), else one worker, which is a plain loop.
Results, the exchange, the mixing and the evaluation rows stay in
ascending agent order. The shared parameter set is never written by the
mask-based algorithms.
"""

import math
import os
import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import Rows
from .errors import FieldError, LayerError
from .masking import (extract, group_lasso_grad, retained_count,
                      threshold_layer)  # noqa: F401 (bench/spans.py traces it)
from .nn import (ModelArch, _logits, _shares_columns, conv2d, flatten, grad_z,
                 init_params, linear, loss as batch_loss, loss_and_grad_v, relu)
from .protocol import (CommLedger, SimulationError, account_real_bits,
                       decode_mask, encode_mask, exchange)
from .seeds import seed_key, substream

__all__ = [
    "ALGORITHMS",
    "AgentState",
    "HyperConfig",
    "MetricsRow",
    "MetricsLog",
    "BoundReport",
    "sample_batch",
    "backprop_half_step",
    "fine_tune_step",
    "aggregate_step",
    "build_states",
    "gossip_mask_round",
    "run",
    "MaskVsWeightTraces",
    "mask_vs_weight_verify",
    "check_harness",
    "bound_check",
    "make_masked_net",
    "random_bound_instance",
]

ALGORITHMS = ("gossip_mask", "ind_mask", "ind_weipru", "avr_weipru",
              "par_weipru", "dsgd")
_MASK_ALGORITHMS = ("gossip_mask", "ind_mask")


@dataclass
class HyperConfig:
    algorithm: str
    rounds: int
    batch_size: int
    eta: float
    lam: float
    seed: int
    retention: tuple
    min_nonzero: int = 2
    eval_interval: int = 10

    def __post_init__(self):
        self.retention = tuple(float(r) for r in self.retention)
        for r in self.retention:
            retained_count(r, 1)  # rejects a ratio outside (0, 1]
        if self.min_nonzero < 0:
            raise FieldError("min_nonzero", "min_nonzero must be nonnegative")
        if self.algorithm not in ALGORITHMS:
            raise FieldError("algorithm", f"unknown algorithm '{self.algorithm}' "
                                          f"(choose from {ALGORITHMS})")
        if not self.eta > 0:    # also rejects nan
            raise FieldError("eta", "learning rates must be positive")
        if not self.lam >= 0:
            raise FieldError("lam", "lambda must be nonnegative")
        for name in ("eta", "lam"):
            if math.isinf(getattr(self, name)):
                raise FieldError(name, f"{name} must be finite")
        if self.batch_size < 1:
            raise FieldError("batch_size", "batch size must be at least 1")
        if self.rounds < 0:
            raise FieldError("rounds", "rounds must be nonnegative")
        if self.eval_interval < 1:
            raise FieldError("eval_interval", "eval interval must be at least 1")


@dataclass(slots=True)
class AgentState:
    """One agent's state between rounds. It reads its train and test
    samples through shared rows (:class:`~gossipmask.data.Rows` in a run,
    or plain arrays) and owns the rest: its mask ``m`` comes from its
    scores ``z`` or, in a weight baseline, its ``weights``, at ratio ``r``."""

    agent_id: int
    r: float
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    eta: float
    lam: float
    z: dict = None                    # score tensors (mask algorithms)
    min_nonzero: int = 0              # filter zeroing of the scores' mask
    m: dict = None                    # current binary masks (None = unmasked)
    grad_cache: dict = None           # score gradient of the last half-step
    neighbor_avg: dict = None         # mean of the last received masks
    weights: dict = None              # per-agent weights (weight baselines)
    last_loss: float = math.nan


@dataclass
class MetricsRow:
    round: int
    agent: int                        # -1 marks the per-round mean row
    accuracy: float
    loss: float
    payload_bits: int
    header_bits: int


@dataclass
class MetricsLog:
    """Evaluation rows (sorted by round, then agent with the mean row
    first) plus the final per-agent, per-layer mask density."""

    rows: list = field(default_factory=list)
    final_sparsity: dict = field(default_factory=dict)

    def rounds(self):
        return sorted({row.round for row in self.rows})

    def mean_accuracy(self, round_index):
        for row in self.rows:
            if row.round == round_index and row.agent == -1:
                return row.accuracy
        raise KeyError(f"round {round_index} was not evaluated")

    def final_mean_accuracy(self):
        return self.mean_accuracy(self.rounds()[-1])


def sample_batch(seed, agent, round_index, n, batch_size):
    """Deterministic batch indices for (seed, agent, round); sampling is
    with replacement so any shard size works."""
    if n <= 0:
        raise ValueError(f"agent {agent} has an empty training shard")
    rng = substream(seed, "batch", agent, round_index)
    return rng.integers(0, n, size=batch_size)


def _aggregation_tensor(z, neighbor_avg):
    """Blend neighbor mask information into the scores: per layer
    y = z + mean(|z|) * sign(z) * neighbor_average. That formula is this
    repository's reading of the paper's aggregation tensor, not a quoted
    equation (PAPER.md holds only the abstract). Without a neighbor
    average that is the scores themselves, not a copy: ``extract`` only
    reads them. Each layer's terms accumulate in one array of its own, with
    the operands of the formula's products and sum swapped, so every entry
    is rounded as the formula rounds it."""
    if neighbor_avg is None:
        return z
    y = {}
    for layer, t in z.items():
        y[layer] = acc = np.abs(t)
        scale = acc.sum() / acc.size     # acc.mean(), bitwise, for less overhead
        np.sign(t, out=acc)
        acc *= scale
        acc *= neighbor_avg[layer]
        acc += t
    return y


def backprop_half_step(state, w, arch, batch_x, batch_y):
    """Gradient half-step of the collaborative round.

    Computes the score gradient (data chain plus group-lasso term), steps
    the scores, builds the aggregation tensor against the average of the
    masks received in the previous round and extracts the intermediate mask
    to transmit.
    Returns (half-stepped scores, cached gradient, intermediate mask set).
    """
    z_prev = state.z
    loss, grad_v = loss_and_grad_v(arch, w, state.m, batch_x, batch_y)
    g = {layer: grad_z(grad_v[layer], w[layer], z_prev[layer]) for layer in z_prev}
    # at lam = 0 the group-lasso term is +-0 everywhere. Since gz + (+-0) == gz
    # and z - (+-0) == z for nonzero gz and z, skipping it can change only
    # the sign of a zero gradient or score entry; thresholding compares
    # magnitudes, so no mask or metric sees it
    if state.lam:
        reg = group_lasso_grad(z_prev, state.lam)
        for layer in z_prev:
            g[layer] += reg[layer]
    z_half = {layer: _descend(t, state.eta, g[layer]) for layer, t in z_prev.items()}
    m_half = extract(_aggregation_tensor(z_half, state.neighbor_avg),
                     state.r, state.min_nonzero)
    state.z = z_half
    state.grad_cache = g
    state.last_loss = loss
    return z_half, g, m_half


def fine_tune_step(state, neighbor_avg):
    """Personalized fine-tuning: re-apply the cached score gradient, scaled
    entry-wise by the average of the just-received neighbor masks (None, for
    no neighbors, changes nothing). No new gradient is computed."""
    if state.grad_cache is None:
        raise SimulationError(
            f"agent {state.agent_id}: fine-tune before the gradient half-step")
    if neighbor_avg is not None:
        g = state.grad_cache
        state.z = {layer: _descend(t, state.eta, g[layer], neighbor_avg[layer])
                   for layer, t in state.z.items()}
    return state.z


def _descend(t, eta, g, scale=None):
    """``t - eta * g * scale``, or ``t - eta * g`` without a scale, rounded
    as written, in the one array that ``eta * g`` makes."""
    step = eta * g
    if scale is not None:
        step *= scale
    return np.subtract(t, step, out=step)


def aggregate_step(state, neighbor_avg):
    """Fuse the average of the received masks through the aggregation tensor
    built on the fine-tuned scores, re-extract the agent's mask and keep the
    average for the next half-step. Returns (aggregation tensors, new mask
    set)."""
    y = _aggregation_tensor(state.z, neighbor_avg)
    m = extract(y, state.r, state.min_nonzero)
    state.m = m
    state.neighbor_avg = neighbor_avg
    state.grad_cache = None
    return y, m


@contextmanager
def _blamed(state, round_index):
    """Re-raise a ValueError of the block as a SimulationError naming the
    agent and round, and for a LayerError the layer. Yields that name."""
    where = f"agent {state.agent_id}, round {round_index}"
    try:
        yield where
    except LayerError as exc:
        raise SimulationError(f"{where}, {exc}") from exc
    except ValueError as exc:
        raise SimulationError(f"{where}: {exc}") from exc


@contextmanager
def _checked_step(state, round_index):
    """Wrap one per-agent step. A step diverged when its loss is not finite,
    when extraction met a non-finite score or weight or left a layer with
    no ones (a LayerError), or when it left the agent with a non-finite
    weight; each raises SimulationError naming the agent and round, and
    the layer for the latter two."""
    with _blamed(state, round_index) as where:
        yield
    if not math.isfinite(state.last_loss):
        raise SimulationError(f"{where}: non-finite loss {state.last_loss}")
    for layer, t in (state.weights or {}).items():
        if not np.isfinite(t).all():
            raise SimulationError(f"{where}, layer {layer}: non-finite weight")


def _local_batch(state, hyper, round_index):
    idx = sample_batch(hyper.seed, state.agent_id, round_index,
                       len(state.train_y), hyper.batch_size)
    return state.train_x[idx], state.train_y[idx]


def _local_step(state, w, arch, batch_x, batch_y, step):
    """One checked local update at round or harness step ``step``: the
    half-step for a state without weights (``state.m`` holds the mask it
    sends until aggregation), else the weight step. Returns what it sends."""
    with _checked_step(state, step):
        if state.weights is None:
            state.m = backprop_half_step(state, w, arch, batch_x, batch_y)[2]
            return state.m
        return _weight_step(state, arch, batch_x, batch_y)


def _exchange_masks(graph, masks, round_index, shapes, ledger):
    """Send every agent's mask set (``masks`` maps agent -> mask set) to its
    neighbors: one frame per agent through :func:`exchange`, each frame
    decoded once to uint8 bits. Returns agent -> the entry-wise average of
    the masks it received (None without neighbors, which acts as a zero
    tensor): per layer the received bits counted in int32 (wide enough
    for every sender id ``encode_mask`` admits), in ascending sender order,
    and divided once by the sender count. The counts are exact, so that is
    a float64 sum-then-divide bit for bit. The decoded bits are dropped on
    return."""
    outbox = {a: encode_mask(m, a, round_index) for a, m in masks.items()}
    inbox = exchange(graph, outbox, ledger)
    decoded = {sender: decode_mask(frame, shapes) for sender, frame in outbox.items()}

    def average(frames):
        if not frames:
            return None
        first, *rest = (decoded[f.sender] for f in frames)
        counts = {layer: bits.astype(np.int32) for layer, bits in first.items()}
        for bits in rest:
            for layer, count in counts.items():
                count += bits[layer]
        return {layer: count / len(frames) for layer, count in counts.items()}
    return {a: average(inbox[a]) for a in outbox}


def _weight_step(state, arch, batch_x, batch_y):
    """Local SGD step on the agent's own weights. Dense when ``state.m`` is
    None; otherwise masked (v = w * m, so the weight gradient is the
    v-gradient masked) and then magnitude-pruned back to the retention
    ratio. Returns the weights the agent would transmit."""
    loss, grad = loss_and_grad_v(arch, state.weights, state.m, batch_x, batch_y)
    state.last_loss = loss
    if state.m is None:
        state.weights = {layer: _descend(t, state.eta, grad[layer])
                         for layer, t in state.weights.items()}
        return state.weights
    state.weights = {layer: _descend(t, state.eta, grad[layer], state.m[layer])
                     for layer, t in state.weights.items()}
    state.m = extract(state.weights, state.r)
    return {layer: t * state.m[layer] for layer, t in state.weights.items()}


# bench/workloads.py times rounds by swapping trainer.gossip_mask_round and
# bench/spans.py traces it as trainer.round, so the round function of all
# six algorithms keeps this name until those two are renamed with it.
def gossip_mask_round(states, w, arch, graph, hyper, round_index, ledger=None):
    """One synchronous round of ``hyper.algorithm`` (see the module
    docstring): one local step per agent, collected in ascending id, then
    the algorithm's mixing rule. The steps run through :func:`_each` on
    :func:`_agent_workers` threads; a diverging step raises what the plain
    loop would, naming the lowest failing agent."""
    kind = hyper.algorithm
    if kind not in ALGORITHMS:
        raise ValueError(f"unknown algorithm '{kind}'")
    def step(state):
        return _local_step(state, w, arch, *_local_batch(state, hyper, round_index),
                           round_index)
    sent = dict(zip([s.agent_id for s in states],
                    _each(step, states, _agent_workers(arch, hyper.batch_size))))
    if kind == "gossip_mask":
        averages = _exchange_masks(graph, sent, round_index, arch.param_shapes(),
                                   ledger)
        for state in states:
            with _checked_step(state, round_index):
                fine_tune_step(state, averages[state.agent_id])
                aggregate_step(state, averages[state.agent_id])
    elif kind not in ("ind_mask", "ind_weipru"):
        for state in states:
            neighbors = graph.neighbors[state.agent_id]
            if ledger is not None:
                ledger.add_transmission(round_index, state.agent_id, neighbors,
                                        account_real_bits(sent[state.agent_id]))
            parties = [state.agent_id] + [int(j) for j in neighbors]
            avg = {layer: sum(sent[p][layer] for p in parties) / len(parties)
                   for layer in state.weights}
            if kind == "par_weipru":     # mix only the entries the mask keeps
                avg = {layer: np.where(state.m[layer], avg[layer], t)
                       for layer, t in state.weights.items()}
            with _checked_step(state, round_index):
                state.weights = avg
    return states


# ------------------------------------------------------------- evaluation

# Test samples per accuracy chunk and train samples of the logged loss: the
# linear layers' gemms round differently when their row count changes, so
# other counts could flip a near-tie in an accuracy or move a logged loss.
_ACCURACY_CHUNK = 512
_LOSS_ROWS = 256


def _accuracy(arch, params, masks, x, y):
    """Share of the samples whose top logit is their label, with the logits
    taken in chunks of ``_ACCURACY_CHUNK`` samples."""
    if len(y) == 0:
        return math.nan
    correct = 0
    for start in range(0, len(y), _ACCURACY_CHUNK):
        logits = _logits(arch, params, masks, x[start:start + _ACCURACY_CHUNK])
        correct += int((logits.argmax(axis=1) == y[start:start + _ACCURACY_CHUNK]).sum())
    return correct / len(y)


def _evaluate_round(log, round_index, states, w, arch, ledger, workers):
    """Log every agent's test accuracy and loss over its first
    ``_LOSS_ROWS`` train samples, computed on ``workers`` threads, in
    ascending agent order after the round's mean row."""
    sent_payload, sent_header, _, _ = ledger.totals()

    def evaluate(state):
        params = state.weights if state.weights is not None else w
        return (_accuracy(arch, params, state.m, state.test_x, state.test_y),
                batch_loss(arch, params, state.m, state.train_x[:_LOSS_ROWS],
                           state.train_y[:_LOSS_ROWS]))
    rows = [MetricsRow(round_index, state.agent_id, acc, loss, sent_payload,
                       sent_header)
            for state, (acc, loss) in zip(states, _each(evaluate, states, workers))]
    log.rows.append(MetricsRow(round_index, -1,
                               float(np.mean([row.accuracy for row in rows])),
                               float(np.mean([row.loss for row in rows])),
                               sent_payload, sent_header))
    log.rows.extend(rows)


def _final_sparsity(states, arch):
    """agent -> layer -> (mask ones, entries); an unmasked agent keeps all."""
    totals = {layer: int(np.prod(shape))
              for layer, shape in arch.param_shapes().items()}
    return {s.agent_id: {layer: (total if s.m is None else int(s.m[layer].sum()), total)
                         for layer, total in totals.items()} for s in states}


def _scores(arch, seed, *key):
    """Uniform [-1, 1] scores per layer from the z substream at ``(*key, layer)``."""
    return {layer: substream(seed, "z", *key, layer).uniform(-1.0, 1.0, shape)
            for layer, shape in arch.param_shapes().items()}


def build_states(arch, hyper, graph, train, test, plan, w):
    """Per-agent states for :func:`run`, ready for round 1: a data shard each,
    read through :class:`~gossipmask.data.Rows` at the plan's indices (no
    copy of a sample), and scores from the z substream with their mask
    (mask algorithms) or a copy of ``w`` with its pruning mask (weight
    baselines; dsgd is unmasked)."""
    if len(hyper.retention) != graph.n:
        raise ValueError(
            f"retention list has {len(hyper.retention)} entries for {graph.n} agents")
    if len(plan.train_indices) != graph.n:
        raise ValueError("partition plan does not match the agent count")
    states = []
    for i in range(graph.n):
        tr, te = plan.train_indices[i], plan.test_indices[i]
        if len(tr) == 0:
            raise ValueError(f"agent {i} has an empty training shard")
        state = AgentState(i, hyper.retention[i], Rows(train.features, tr),
                           Rows(train.labels, tr), Rows(test.features, te),
                           Rows(test.labels, te), hyper.eta, hyper.lam)
        if hyper.algorithm in _MASK_ALGORITHMS:
            state.z = _scores(arch, hyper.seed, i)
            state.min_nonzero = hyper.min_nonzero
            with _blamed(state, 0):
                state.m = extract(state.z, state.r, state.min_nonzero)
        else:
            state.weights = {layer: t.copy() for layer, t in w.items()}
            if hyper.algorithm != "dsgd":
                state.m = extract(state.weights, state.r)
        states.append(state)
    return states


def run(arch, hyper, graph, train, test, plan):
    """Full training run; returns the metrics log.

    The shared parameters come from the params substream of the run seed,
    :func:`build_states` readies every agent for round 1 and ``gossip_mask``
    bootstraps the neighbor averages with one (accounted) mask exchange.
    Evaluation happens at round 0, every ``eval_interval`` rounds and at the
    final round; the logged loss is the current model's loss over (at most)
    the first 256 local train samples. A diverging step raises
    SimulationError naming the agent and round. Evaluation runs on the
    round steps' :func:`_agent_workers` threads.
    """
    workers = _agent_workers(arch, hyper.batch_size)
    w = init_params(arch, seed_key(hyper.seed, "params"))
    states = build_states(arch, hyper, graph, train, test, plan, w)
    ledger = CommLedger()
    if hyper.algorithm == "gossip_mask":
        averages = _exchange_masks(graph, {s.agent_id: s.m for s in states},
                                   0, arch.param_shapes(), ledger)
        for state in states:
            state.neighbor_avg = averages[state.agent_id]

    log = MetricsLog()
    _evaluate_round(log, 0, states, w, arch, ledger, workers)
    for k in range(1, hyper.rounds + 1):
        gossip_mask_round(states, w, arch, graph, hyper, k, ledger)
        if k % hyper.eval_interval == 0 or k == hyper.rounds:
            _evaluate_round(log, k, states, w, arch, ledger, workers)
    log.final_sparsity = _final_sparsity(states, arch)
    return log


# --------------------------------------------- mask-vs-weight verification

@dataclass
class MaskVsWeightTraces:
    """Accuracy traces of weight-trained vs mask-trained arms.

    ``weight`` maps agent -> [(step, accuracy)]; ``mask`` maps
    (agent, retention ratio) -> [(step, accuracy)]. Both arms of an agent
    start from the same fixed uniform [-1, 1] parameters and see the same
    batch sequence.
    """

    weight: dict
    mask: dict


def check_harness(r_values, steps, eval_interval):
    """The argument checks of :func:`mask_vs_weight_verify` beyond each
    ratio's own range: a FieldError names the argument it rejects."""
    for i, r in enumerate(r_values):
        if r in r_values[:i]:      # its trace would overwrite the first one's
            raise FieldError("r_values", f"r_values repeats the ratio {r:g}")
    for name, value in (("steps", steps), ("eval_interval", eval_interval)):
        if value < 1:
            raise FieldError(name, f"{name} must be at least 1")


def mask_vs_weight_verify(arch, shards, r_values, steps, eta_weight, eta_mask,
                          batch_size, seed, eval_interval=3):
    """Train each agent independently twice: full SGD on the weights (the
    weight step of ``dsgd`` without mixing), and mask-only training at each
    retention ratio (the half-step of an agent without neighbors, with no
    regularizer and no filter zeroing), from the same fixed random
    initialization. Accuracy is recorded at step 0 and every
    ``eval_interval`` steps. Arguments are checked by
    :func:`check_harness` first. The arms are independent: they run
    through :func:`_each` on up to two of the cores the process may use,
    and the traces are those of a plain loop over them."""
    check_harness(r_values, steps, eval_interval)
    w0 = init_params(arch, seed_key(seed, "params"))
    batches = [[sample_batch(seed, a, k, len(ty), batch_size)
                for k in range(1, steps + 1)]
               for a, (_, ty, _, _) in enumerate(shards)]

    def train(arm):
        a, ri = arm
        if ri is None:
            state = AgentState(a, 1.0, *shards[a], eta_weight, 0.0, weights=w0)
        else:
            z = _scores(arch, seed, a, ri)
            state = AgentState(a, r_values[ri], *shards[a], eta_mask, 0.0, z=z,
                               m=extract(z, r_values[ri], 0))
        return _train_arm(arch, w0, state, batches[a], eval_interval)

    arms = [(a, ri) for a in range(len(shards)) for ri in (None, *range(len(r_values)))]
    traces = dict(zip(arms, _each(train, arms, _WORKERS)))
    return MaskVsWeightTraces(
        {a: t for (a, ri), t in traces.items() if ri is None},
        {(a, r_values[ri]): t for (a, ri), t in traces.items() if ri is not None})


def _train_arm(arch, w, state, batches, eval_interval):
    """One harness arm: a local step per batch (a dense weight step if the
    state has weights, else a half-step without neighbors). Returns the test
    accuracy at step 0 and every ``eval_interval`` steps."""
    trace = []
    for k in range(len(batches) + 1):
        if k > 0:
            idx = batches[k - 1]
            _local_step(state, w, arch, state.train_x[idx], state.train_y[idx], k)
        if k % eval_interval == 0:
            params = state.weights if state.weights is not None else w
            trace.append((k, _accuracy(arch, params, state.m, state.test_x,
                                       state.test_y)))
    return trace


# Threads that run independent work items: the calling thread and helpers,
# one per core the process may use, at most two. Each thread adds a few MB
# of peak memory (its own malloc arena), and more than two were never
# measured against the benchmark's memory bound.
try:
    _WORKERS = min(2, len(os.sched_getaffinity(0)))
except AttributeError:      # no affinity masks outside Linux
    _WORKERS = min(2, os.cpu_count() or 1)


def _agent_workers(arch, batch_size):
    """Threads for a run's per-agent work (local steps and evaluation):
    ``_WORKERS`` where a training step's conv columns reach
    ``nn._SHARED_BYTES``, else one. Threads pay off only for large kernels
    (small numpy calls hold the GIL), and fit in memory only where the
    steps share their columns."""
    return _WORKERS if _shares_columns(arch, batch_size) else 1


# Job queues of the helper threads started so far. A helper serves every
# later call and never exits: a thread hands its malloc arena back only
# after join() has returned, so a helper started right after another one
# could get a fresh arena and keep a second copy of a step's peak memory.
_helpers = []
_helpers_lock = threading.Lock()


def _serve(jobs):
    while True:
        jobs.get()()


def _each(fn, items, workers):
    """``[fn(item) for item in items]``, computed by the calling thread and
    up to ``workers - 1`` helper threads, which take the items in order
    under one lock; one worker is a plain loop on the calling thread. Each
    helper sets the caller's ``np.errstate`` itself, since numpy before
    2.0 keeps that state per thread. Once a failure is recorded no further
    item starts, and the failure of the lowest item index is raised: the
    one a plain loop would raise, since every lower item had started.
    ``fn`` must not call ``_each``: its job would wait behind its own."""
    items = list(items)
    results, failures = [None] * len(items), {}
    lock, todo = threading.Lock(), iter(range(len(items)))

    def drain():
        while True:
            with lock:
                i = None if failures else next(todo, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                with lock:
                    failures[i] = exc
    err, errcall = np.geterr(), np.geterrcall()
    finished = threading.Semaphore(0)

    def helper():
        try:
            with np.errstate(call=errcall, **err):
                drain()
        finally:
            finished.release()
    count = max(0, min(workers, len(items)) - 1)
    with _helpers_lock:
        while len(_helpers) < count:
            _helpers.append(queue.SimpleQueue())
            threading.Thread(target=_serve, args=(_helpers[-1],), daemon=True).start()
        for jobs in _helpers[:count]:
            jobs.put(helper)
    try:
        drain()
    finally:
        for _ in range(count):
            finished.acquire()
    if failures:
        raise failures[min(failures)]
    return results


# ----------------------------------------------------- output-gap bounds

@dataclass
class BoundReport:
    """Measured max-norm output distances of four networks over a probe set
    and the two inequalities they imply.

    eps1/eps2 bound each pruned network against its reference, alpha_u and
    alpha_l are the sup/inf reference gaps, sup_gap/inf_gap the measured
    gaps between the two pruned networks. ``upper_holds`` checks
    sup_gap <= eps1 + eps2 + alpha_u; ``lower_holds`` checks
    inf_gap >= min(|eps1+eps2-alpha_l|, |eps1+eps2-alpha_u|, |alpha_l|).
    """

    eps1: float
    eps2: float
    alpha_u: float
    alpha_l: float
    sup_gap: float
    inf_gap: float
    upper_holds: bool
    lower_holds: bool


def make_masked_net(arch, params, masks=None):
    """Callable batch -> logits for a (possibly masked) parameter set."""
    return lambda x: _logits(arch, params, masks, x)


def bound_check(f1, f2, g1, g2, probe):
    """Measure the four pairwise max-norm distances over the probe set and
    evaluate the implied upper/lower output-gap inequalities.

    All four arguments are callables mapping a batch to outputs of one
    common shape. The upper inequality is a triangle-inequality consequence
    of the measured quantities, so a False there indicates an arithmetic
    bug rather than a property of the networks.
    """
    x = np.asarray(probe, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("empty probe set")
    outs = [np.asarray(f(x), dtype=np.float64) for f in (f1, f2, g1, g2)]
    shapes = {o.shape for o in outs}
    if len(shapes) != 1:
        raise ValueError(f"networks disagree on output shape: {shapes}")

    def gaps(a, b):
        return np.abs(a - b).reshape(x.shape[0], -1).max(axis=1)

    eps1 = float(gaps(outs[0], outs[2]).max())
    eps2 = float(gaps(outs[1], outs[3]).max())
    ref = gaps(outs[0], outs[1])
    alpha_u, alpha_l = float(ref.max()), float(ref.min())
    gap = gaps(outs[2], outs[3])
    sup_gap, inf_gap = float(gap.max()), float(gap.min())
    upper = sup_gap <= eps1 + eps2 + alpha_u
    lower = inf_gap >= min(abs(eps1 + eps2 - alpha_l),
                           abs(eps1 + eps2 - alpha_u), abs(alpha_l))
    return BoundReport(eps1, eps2, alpha_u, alpha_l, sup_gap, inf_gap,
                       upper, lower)


def random_bound_instance(seed, probes=200):
    """Random 4-network instance for bound checking: two independent
    reference networks, and two prunings of one further random network, all
    sharing a small conv architecture. Returns ((f1, f2, g1, g2), probe)."""
    arch = _bound_arch()
    rng = np.random.default_rng(seed)
    f1_params = init_params(arch, [int(rng.integers(2 ** 31)), 0])
    f2_params = init_params(arch, [int(rng.integers(2 ** 31)), 1])
    g_params = init_params(arch, [int(rng.integers(2 ** 31)), 2])
    shapes = arch.param_shapes()
    r1 = float(rng.uniform(0.2, 0.9))
    r2 = float(rng.uniform(0.2, 0.9))
    z1 = {layer: rng.standard_normal(shape) for layer, shape in shapes.items()}
    z2 = {layer: rng.standard_normal(shape) for layer, shape in shapes.items()}
    m1 = extract(z1, r1, 0)
    m2 = extract(z2, r2, 0)
    probe = rng.random((probes,) + arch.input_shape)
    nets = (make_masked_net(arch, f1_params),
            make_masked_net(arch, f2_params),
            make_masked_net(arch, g_params, m1),
            make_masked_net(arch, g_params, m2))
    return nets, probe


def _bound_arch():
    layers = (conv2d(2, 3, 3, padding=1), relu(), flatten(),
              linear(3 * 6 * 6, 4))
    return ModelArch(layers, (2, 6, 6), 4)
