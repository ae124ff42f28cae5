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
on scheduling. Every agent's model is the shared parameters under its own
mask, so a round steps the mask agents in stacks of consecutive agents
(:func:`_stack_size`): one masked forward and backward per stack, then
the score chain, group-lasso term, descent, aggregation tensor and
fine-tuning as (A, ...) array operations per layer, and per agent only the
thresholding. A stack holds as many agents as keep its conv columns below
``nn._SHARED_BYTES``: all 8 of configs/train.conf, while a step of the
README default shape, whose own columns reach it, stays a stack of one.
Every agent's bytes are those of a step of its own. Three kinds of work
are independent per item. The local steps of stacks of one and of the
weight baselines, and the per-agent evaluation (test accuracy and logged
loss), run through :func:`_each` on up to two threads where a step's conv
columns reach ``nn._SHARED_BYTES`` (the README default shape, not the
desk or harness shapes; a fixed property of the architecture and batch
size), else in a plain loop. The mask-vs-weight harness's arms share
nothing they write, and run through :func:`_forked` on the calling
process and a child forked per further core, up to two in all (a plain
loop where ``os.fork`` is missing). Results, the exchange, the mixing and
the evaluation rows stay in ascending agent order. The shared parameter
set is never written by the mask-based algorithms.
"""

import math
import os
import pickle
import queue
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import Rows
from .errors import FieldError, LayerError
from .masking import (extract, group_lasso_grad, retained_count,
                      threshold_layer)  # noqa: F401 (bench/spans.py traces it)
from .nn import (ModelArch, _logits, _shares_columns, _stack_size, conv2d,
                 flatten, grad_z, init_params, linear, loss as batch_loss,
                 loss_and_grad_v, relu)
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


def _agent_values(stack, field):
    """The agents' ``field``: one float where they all agree, else an (A,)
    array."""
    first = getattr(stack[0], field)
    if all(getattr(s, field) == first for s in stack):
        return first
    return np.array([getattr(s, field) for s in stack], dtype=np.float64)


def _column(values, like):
    """Per-agent ``values`` from :func:`_agent_values`, shaped to broadcast
    over a stack like ``like``."""
    if not isinstance(values, np.ndarray):
        return values
    return values.reshape((-1,) + (1,) * (like.ndim - 1))


def _address(a):
    return a.__array_interface__["data"][0]


def _stacked(arrays):
    """``np.stack(arrays)``, without the copy where the arrays are, in
    order, consecutive rows of one array: the stack an earlier step made."""
    first, base = arrays[0], arrays[0].base
    if (isinstance(base, np.ndarray) and base.flags.c_contiguous
            and base.shape[1:] == first.shape and first.nbytes
            and all(a.base is base and a.shape == first.shape
                    and a.flags.c_contiguous for a in arrays)):
        start, off = divmod(_address(first) - _address(base), first.nbytes)
        at = _address(first)
        if not off and all(_address(a) == at + i * first.nbytes
                           for i, a in enumerate(arrays)):
            return base[start:start + len(arrays)]
    return np.stack(arrays)


def _stack_layers(sets):
    """Per layer, the stack of the agents' tensors in ``sets`` (each a
    layer -> tensor dict, or None where all are). A stack of one runs
    unstacked: its one set comes back as it is."""
    if len(sets) == 1 or all(t is None for t in sets):
        return sets[0]
    if any(t is None for t in sets):
        raise ValueError("a stack mixes agents with and without a tensor set")
    return {layer: _stacked([t[layer] for t in sets]) for layer in sets[0]}


def _split(stacks, count):
    """Each of ``count`` agents' tensors of per-layer stacks, as views."""
    if count == 1:
        return [stacks]
    return [{layer: t[i] for layer, t in stacks.items()} for i in range(count)]


def _aggregation_tensor(z, neighbor_avg, stacked=False):
    """Blend neighbor mask information into the scores: per layer
    y = z + mean(|z|) * sign(z) * neighbor_average, per agent where the
    tensors are ``stacked`` with a leading agent axis. That formula is this
    repository's reading of the paper's aggregation tensor, not a quoted
    equation (PAPER.md holds only the abstract). Without a neighbor average
    that is the scores themselves, not a copy: ``extract`` only reads them.
    Each layer's terms accumulate in one array of its own, with the
    operands of the formula's products and sum swapped, so every entry is
    rounded as the formula rounds it."""
    if neighbor_avg is None:
        return z
    y = {}
    for layer, t in z.items():
        y[layer] = acc = np.abs(t)
        # each agent's acc.mean(), bitwise, for less overhead
        each = acc.reshape(acc.shape[:stacked] + (-1,))
        scale = each.sum(axis=-1) / each.shape[-1]
        np.sign(t, out=acc)
        acc *= _column(scale, acc) if stacked else scale
        acc *= neighbor_avg[layer]
        acc += t
    return y


def _half_steps(stack, w, arch, batches):
    """The gradient half-steps of the agents of ``stack`` on their
    ``batches`` ((samples, labels) each): one :func:`loss_and_grad_v` on
    the stacked batches, then per layer the score gradient (data chain plus
    group-lasso term), the step and the aggregation tensor against each
    agent's previous neighbor average as (A, ...) array operations, then
    each agent's intermediate mask. A stack of one runs unstacked. Writes
    no state; returns the agents' losses, the half-stepped scores and the
    cached gradient as per-layer stacks, and each agent's intermediate
    mask set."""
    count = len(stack)
    x, y = batches[0] if count == 1 else (np.stack(b) for b in zip(*batches))
    z = _stack_layers([s.z for s in stack])
    losses, grad_v = loss_and_grad_v(arch, w, _stack_layers([s.m for s in stack]), x, y)
    g = {layer: grad_z(grad_v.pop(layer), w[layer], t) for layer, t in z.items()}
    # at lam = 0 the group-lasso term is +-0 everywhere. Since gz + (+-0) == gz
    # and z - (+-0) == z for nonzero gz and z, skipping it can change only
    # the sign of a zero gradient or score entry; thresholding compares
    # magnitudes, so no mask or metric sees it
    lam = _agent_values(stack, "lam")
    if isinstance(lam, np.ndarray) or lam:     # an array holds a nonzero lam
        reg = group_lasso_grad(z, lam if count == 1 else np.broadcast_to(lam, count))
        for layer, t in g.items():
            np.add(t, reg.pop(layer), out=t, where=_column(lam != 0, t))
    eta = _agent_values(stack, "eta")
    z_half = {layer: _descend(t, _column(eta, t), g[layer]) for layer, t in z.items()}
    agg = _aggregation_tensor(z_half, _stack_layers([s.neighbor_avg for s in stack]),
                              count > 1)
    return (losses if count > 1 else [losses], z_half, g,
            [extract(ys, s.r, s.min_nonzero) for s, ys in zip(stack, _split(agg, count))])


def _fine_tuned(stack, avg, z, g):
    """The stacked scores ``z`` of ``stack``'s agents with their stacked
    cached gradients ``g`` re-applied, scaled entry-wise by the stacked
    neighbor average ``avg`` (None, for no neighbors, changes nothing);
    unstacked for a stack of one."""
    if avg is None:
        return z
    eta = _agent_values(stack, "eta")
    return {layer: _descend(t, _column(eta, t), g[layer], avg[layer])
            for layer, t in z.items()}


def _aggregated(stack, z, avg):
    """Per agent of ``stack``: its aggregation tensor on the stacked scores
    ``z`` and neighbor average ``avg`` (None: no neighbors), and the mask
    extracted from it."""
    return [(ys, extract(ys, s.r, s.min_nonzero)) for s, ys in zip(
        stack, _split(_aggregation_tensor(z, avg, len(stack) > 1), len(stack)))]


def backprop_half_step(state, w, arch, batch_x, batch_y):
    """Gradient half-step of the collaborative round.

    Computes the score gradient (data chain plus group-lasso term), steps
    the scores, builds the aggregation tensor against the average of the
    masks received in the previous round and extracts the intermediate mask
    to transmit: :func:`_half_steps` on a stack of one.
    Returns (half-stepped scores, cached gradient, intermediate mask set).
    """
    (loss,), z_half, g, (m_half,) = _half_steps([state], w, arch, [(batch_x, batch_y)])
    state.z, state.grad_cache, state.last_loss = z_half, g, loss
    return z_half, g, m_half


def fine_tune_step(state, neighbor_avg):
    """Personalized fine-tuning: re-apply the cached score gradient, scaled
    entry-wise by the average of the just-received neighbor masks (None, for
    no neighbors, changes nothing). No new gradient is computed."""
    if state.grad_cache is None:
        raise SimulationError(
            f"agent {state.agent_id}: fine-tune before the gradient half-step")
    state.z = _fine_tuned([state], neighbor_avg, state.z, state.grad_cache)
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
    (y, m), = _aggregated([state], state.z, neighbor_avg)
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


# What a stacked step raises where one of its agents' steps would fail: a
# rejected input or tensor, floating-point errors under np.errstate, and
# numpy's warnings where a filter raises them. The stack is then replayed
# one agent at a time, which raises what the plain loop raises.
_STACK_FAILURES = (ValueError, ArithmeticError, Warning)


def _stack_half_steps(stack, w, arch, hyper, round_index):
    """The half-steps of ``stack``'s agents as one :func:`_half_steps`,
    committed in ascending id with each agent's loss checked. Returns the
    stacked scores and cached gradient that fine-tuning reads, or None
    where the stacked step failed and was replayed one agent at a time."""
    batches = [_local_batch(s, hyper, round_index) for s in stack]
    try:
        losses, z, g, masks = _half_steps(stack, w, arch, batches)
    except _STACK_FAILURES:
        for s, (bx, by) in zip(stack, batches):
            _local_step(s, w, arch, bx, by, round_index)
        return None
    for state, loss, zs, gs, m in zip(stack, losses, _split(z, len(stack)),
                                      _split(g, len(stack)), masks):
        with _checked_step(state, round_index):
            state.z, state.grad_cache, state.last_loss, state.m = zs, gs, loss, m
    return z, g


def _stack_fuse(stack, averages, round_index, held):
    """Fine-tuning and aggregation of ``stack``'s agents on their fresh
    neighbor averages: stacked on the ``held`` stacks of their half-step,
    else, or where that fails, one agent at a time through
    :func:`fine_tune_step` and :func:`aggregate_step`."""
    if held is not None:
        try:
            avg = _stack_layers(averages)
            z = _fine_tuned(stack, avg, *held)
            done = _aggregated(stack, z, avg)
        except _STACK_FAILURES:
            pass
        else:
            for state, mine, zs, (_, m) in zip(stack, averages,
                                                _split(z, len(stack)), done):
                state.z, state.m, state.neighbor_avg = zs, m, mine
                state.grad_cache = None
            return
    for state, avg in zip(stack, averages):
        with _checked_step(state, round_index):
            fine_tune_step(state, avg)
            aggregate_step(state, avg)


def _exchange_masks(graph, masks, round_index, shapes, ledger):
    """Send every agent's mask set (``masks`` maps agent -> mask set) to its
    neighbors: one frame per agent through :func:`exchange`, each frame
    decoded once to uint8 bits. Returns agent -> the entry-wise average of
    the masks it received (None without neighbors, which acts as a zero
    tensor). Per layer, a float64 matrix of who heard whom times every
    sender's bits counts each agent's received ones, exactly, and one
    divide by its sender count then gives the float64 sum-then-divide bit
    for bit. Each agent's average is its row of one array per layer, so a
    stack of consecutive agents reads them without a copy. The decoded bits
    are dropped on return."""
    outbox = {a: encode_mask(m, a, round_index) for a, m in masks.items()}
    inbox = exchange(graph, outbox, ledger)
    heard = np.zeros((len(outbox), len(outbox)))
    for a, frames in inbox.items():
        heard[a, [f.sender for f in frames]] = 1.0
    senders = heard.sum(axis=1)[:, None]
    decoded = [decode_mask(outbox[a], shapes) for a in range(len(outbox))]
    average = {}
    for layer in sorted(shapes):
        average[layer] = np.empty((len(outbox),) + tuple(shapes[layer]))
        total = average[layer].reshape(len(outbox), -1)
        np.matmul(heard, np.stack([d[layer].reshape(-1) for d in decoded],
                                  dtype=np.float64), out=total)
        np.divide(total, senders, out=total, where=senders > 0)
    return {a: {layer: t[a] for layer, t in average.items()} if senders[a, 0] else None
            for a in range(len(outbox))}


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
    the algorithm's mixing rule. A mask algorithm steps stacks of
    :func:`_stack_size` consecutive agents; stacks of one, and the weight
    steps, run through :func:`_each` on :func:`_agent_workers` threads. A
    diverging step raises what the plain loop would, naming the lowest
    failing agent."""
    kind = hyper.algorithm
    if kind not in ALGORITHMS:
        raise ValueError(f"unknown algorithm '{kind}'")
    size = _stack_size(arch, hyper.batch_size) if kind in _MASK_ALGORITHMS else 1
    stacks = [states[i:i + size] for i in range(0, len(states), size)]

    def step(state):
        return _local_step(state, w, arch, *_local_batch(state, hyper, round_index),
                           round_index)
    if size == 1:
        sent = _each(step, states, _agent_workers(arch, hyper.batch_size))
        held = [None] * len(stacks)
    else:
        held = [_stack_half_steps(stack, w, arch, hyper, round_index)
                for stack in stacks]
        sent = [s.m for s in states]
    sent = dict(zip([s.agent_id for s in states], sent))
    if kind == "gossip_mask":
        averages = _exchange_masks(graph, sent, round_index, arch.param_shapes(),
                                   ledger)
        for stack, kept in zip(stacks, held):
            _stack_fuse(stack, [averages[s.agent_id] for s in stack], round_index,
                        kept)
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
    :func:`check_harness` first. The arms are independent: on POSIX they
    run through :func:`_forked` on the calling process and a forked child
    per further core (up to two in all), elsewhere in a plain loop. The
    traces, and the failure raised, are those of a plain loop over them.
    The shared parameters are made read-only first, so an arm that wrote
    them would fail in whichever process ran it."""
    check_harness(r_values, steps, eval_interval)
    w0 = init_params(arch, seed_key(seed, "params"))
    for t in w0.values():
        t.flags.writeable = False
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
    traces = dict(zip(arms, _forked(train, arms, _WORKERS)))
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


# Workers that run independent work items, one per core the process may
# use, at most two: the calling thread and helper threads in _each, the
# calling process and forked children in _forked. Each thread adds a few
# MB of peak memory (its own malloc arena), and a harness child peaks at
# about 34 MB of RSS of its own, pages it shares with the caller included.
# More than two were never measured against the benchmark's memory bound.
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


def _forked(fn, items, workers):
    """``[fn(item) for item in items]``, computed by the calling process and
    up to ``workers - 1`` children it forks, which inherit its memory,
    ``np.errstate`` and module state. Of ``p`` processes, process ``k``
    runs items ``k, k + p, ...`` in a plain loop up to its first failure;
    a child pickles its results or failure into a pipe and leaves through
    ``os._exit``. The lowest item's failure is raised, as a plain loop
    would raise it, and a child that exits without sending raises a
    RuntimeError naming its status or signal. Every child is reaped, and
    killed first where the caller raises. One worker, or no ``os.fork``,
    is a plain loop. ``fn`` must write nothing shared, since a child's
    writes stay in the child, and start no thread: a child holds only the
    forking thread, so ``_each`` there needs one worker. Python 3.12 and
    later warn (DeprecationWarning) where ``os.fork`` runs beside other
    threads, such as ``_each``'s helpers."""
    items = list(items)
    count = min(workers, len(items)) if hasattr(os, "fork") else 1
    if count <= 1:
        return [fn(item) for item in items]
    shares = [range(k, len(items), count) for k in range(count)]
    running, pipes = {}, []       # child pid -> read end of its pipe
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pipes.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _send_share(fn, items, share, write)
            finally:
                os.close(write)
            running[pid] = read
        results, failures = _run_share(fn, items, shares[0])
        for (pid, read), share in zip(list(running.items()), shares[1:]):
            data = b"".join(iter(lambda: os.read(read, 1 << 16), b""))
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[pid]
            if code == 0:
                done, failed = pickle.loads(data)
                results.update(done)
                failures.update(failed)
            else:
                how = (f"status {code}" if code > 0 else
                       f"signal {signal.Signals(-code).name}")
                failures[share[0]] = RuntimeError(
                    f"a forked worker exited with {how} before sending its results")
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for read in pipes:
            os.close(read)
    if failures:
        raise failures[min(failures)]
    return [results[i] for i in range(len(items))]


def _run_share(fn, items, share):
    """``fn`` over the items at the indices of ``share``, in order, up to
    the first that raises an Exception. Returns index -> result and
    index -> failure (empty, or that first failure)."""
    results = {}
    for i in share:
        try:
            results[i] = fn(items[i])
        except Exception as exc:  # noqa: BLE001 - raised by _forked
            return results, {i: exc}
    return results, {}


def _send_share(fn, items, share, write):
    """A forked child's whole life: its share of the items, pickled into the
    pipe end ``write``, then ``os._exit``, with status 0 only once all of it
    was written. It never returns into the caller's code."""
    code = 1
    try:
        data = pickle.dumps(_run_share(fn, items, share))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


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
