"""The benchmark's workloads: input construction and the timed training calls.

Every input is derived from the workload seed through the library's named
substreams, the same way ``gossipmask run`` derives them from a config's
``seed``, so a workload at seed ``s`` is the corresponding config run at
``--seed s``. Work sizes are a fixed function of the run length in seconds,
never of a measurement, so a (workload, seed, seconds) triple always does
the same work and produces the same outputs.

The library is imported once here and only through its public names; the
tracer in ``spans.py`` swaps those names for wrapped ones, so look them up
on the module at call time.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import gossipmask as gm
from gossipmask import trainer
from gossipmask.seeds import seed_key, substream
from speed import SpeedProbe


@dataclass(frozen=True)
class GossipShape:
    """Task, model, graph and loop settings of one gossip workload."""

    classes: int
    per_class: int
    noise: float
    dim: tuple
    n: int
    p: float
    c: int
    conv_channels: tuple
    hidden: int
    eta: float
    batch: int
    eval_interval: int
    rounds_per_second: float     # sizing constant: rounds per second of budget
    retention_set: tuple = (0.1, 0.2, 0.3, 0.4)
    lam: float = 0.001
    min_nonzero: int = 2

    def rounds(self, seconds):
        """Rounds run for a budget of ``seconds``: a whole number of
        evaluation intervals, at least one."""
        intervals = round(seconds * self.rounds_per_second / self.eval_interval)
        return self.eval_interval * max(1, int(intervals))


# configs/train.conf restricted to gossip_mask.
DESK = GossipShape(classes=6, per_class=60, noise=0.45, dim=(3, 8, 8), n=8,
                   p=0.5, c=2, conv_channels=(16, 32), hidden=32, eta=0.1,
                   batch=8, eval_interval=10, rounds_per_second=13.3)
# The README defaults (RunConfig), with 4 agents so rounds fit the budget.
DEFAULT = GossipShape(classes=10, per_class=100, noise=0.1, dim=(3, 16, 16),
                      n=4, p=0.5, c=4, conv_channels=(16, 32), hidden=128,
                      eta=1.0, batch=128, eval_interval=4,
                      rounds_per_second=1.07)


@dataclass
class GossipInputs:
    shape: GossipShape
    seed: int
    rounds: int
    train: object
    test: object
    plan: object
    graph: object
    arch: object
    retention: tuple

    def hyper(self, rounds):
        s = self.shape
        return gm.HyperConfig("gossip_mask", rounds, s.batch, s.eta, s.lam,
                              self.seed, self.retention, s.min_nonzero,
                              s.eval_interval)

    def samples(self, rounds):
        return self.shape.n * self.shape.batch * rounds


def gossip_setup(shape, seed, seconds):
    """Everything before the first training call, as ``gossipmask run``
    does it: task synthesis, label assignment, partition, graph draw."""
    train, test = gm.synth_generate(shape.classes, shape.dim, shape.per_class,
                                    shape.noise, seed=seed_key(seed, "data"))
    label_sets = gm.assign_labels(shape.n, shape.classes, shape.c,
                                  seed_key(seed, "labels"))
    plan = gm.partition(train, test, label_sets, seed_key(seed, "partition"))
    graph = gm.erdos_renyi(shape.n, shape.p, seed_key(seed, "topology"))
    retention = tuple(float(r) for r in substream(seed, "retention").choice(
        shape.retention_set, size=shape.n))
    arch = gm.desk_arch(shape.dim, shape.classes, shape.conv_channels,
                        shape.hidden)
    return GossipInputs(shape, seed, shape.rounds(seconds), train, test, plan,
                        graph, arch, retention)


@dataclass
class GossipResult:
    log: object
    run_s: float           # the run call, at reference speed
    round_s: list          # each completed round, at reference speed
    states: list           # the run's agent states, final masks included
    params: dict           # the shared parameter set the run used
    raw_run_s: float = math.nan    # wall time of the run call, probe excluded
    kernel_ms: float = math.nan    # median reference kernel time
    error: str = ""


@contextmanager
def _swapped(module, wrappers):
    """Rebind ``module.name`` to ``wrap(original)`` for each name, restoring
    the originals on exit."""
    originals = {name: getattr(module, name) for name in wrappers}
    try:
        for name, wrap in wrappers.items():
            setattr(module, name, wrap(originals[name]))
        yield
    finally:
        for name, original in originals.items():
            setattr(module, name, original)


def _sampling(probe):
    """Wrapper that lets the probe sample before each call."""
    def wrap(fn):
        def wrapper(*args, **kwargs):
            probe.maybe_sample()
            return fn(*args, **kwargs)
        return wrapper
    return wrap


def gossip_train(inputs, rounds, probe=None):
    """One ``run`` call of ``rounds`` rounds. Times every round, samples
    the machine's speed between gradient computations, and keeps the agent
    states and shared parameters the run builds, for the output checks. An
    exception ends the call; ``error`` then names it."""
    probe = probe or SpeedProbe()
    result = GossipResult(None, math.nan, [], [], {})
    rounds_at = []

    def timed_round(fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            rounds_at.append((start, time.perf_counter()))
            return out
        return wrapper

    def keep(field):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                setattr(result, field, out)
                return out
            return wrapper
        return wrap

    with _swapped(trainer, {"gossip_mask_round": timed_round,
                            "build_states": keep("states"),
                            "init_params": keep("params"),
                            "loss_and_grad_v": _sampling(probe)}):
        spent = probe.spent
        start = time.perf_counter()
        try:
            result.log = trainer.run(inputs.arch, inputs.hyper(rounds),
                                     inputs.graph, inputs.train, inputs.test,
                                     inputs.plan)
        except Exception as exc:  # noqa: BLE001 - reported as failed rounds
            result.error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
    if not result.error:
        result.run_s = probe.scaled(start, end)
        result.raw_run_s = end - start - (probe.spent - spent)
    result.round_s = [probe.scaled(a, b) for a, b in rounds_at]
    result.kernel_ms = probe.kernel_ms()
    return result


# ------------------------------------------------------------ mask vs weight

@dataclass(frozen=True)
class MaskVsWeightShape:
    """Acceptance criterion 5's harness shape: per seed a fresh 4-class
    3x8x8 task split over 2 agents, a weight arm and mask arms at r = 0.3
    and 0.5."""

    classes: int = 4
    per_class: int = 100
    noise: float = 0.1
    dim: tuple = (3, 8, 8)
    agents: int = 2
    labels_per_agent: int = 2
    conv_channels: tuple = (16, 32)
    hidden: int = 32
    r_values: tuple = (0.3, 0.5)
    steps: int = 120
    eval_interval: int = 3
    eta_weight: float = 0.01
    eta_mask: float = 0.1
    batch: int = 32
    seconds_per_seed: float = 7.5    # sizing constant

    def seed_count(self, seconds):
        return max(1, int(round(seconds / self.seconds_per_seed)))


MASK_VS_WEIGHT = MaskVsWeightShape()


@dataclass
class MaskVsWeightInputs:
    shape: MaskVsWeightShape
    seeds: tuple           # harness seeds
    shards: dict           # harness seed -> per-agent (tx, ty, ex, ey)
    arch: object

    def samples(self, seeds, steps):
        arms = 1 + len(self.shape.r_values)
        return len(seeds) * self.shape.agents * arms * steps * self.shape.batch


def mask_vs_weight_setup(shape, seed, seconds):
    """Tasks and shards of every harness seed. Workload seed ``s`` uses
    harness seeds ``k*s .. k*s + k - 1`` for ``k`` seeds per run, so seed 0
    starts from acceptance criterion 5's seeds, with criterion 5's
    per-seed data and label streams."""
    count = shape.seed_count(seconds)
    seeds = tuple(count * seed + i for i in range(count))
    shards = {}
    for hs in seeds:
        train, test = gm.synth_generate(shape.classes, shape.dim,
                                        shape.per_class, noise=shape.noise,
                                        seed=[hs, 7])
        label_sets = gm.assign_labels(shape.agents, shape.classes,
                                      shape.labels_per_agent, seed=[hs, 6])
        per_agent = []
        for labels in label_sets:
            tr = np.flatnonzero(np.isin(train.labels, list(labels)))
            te = np.flatnonzero(np.isin(test.labels, list(labels)))
            per_agent.append((train.features[tr], train.labels[tr],
                              test.features[te], test.labels[te]))
        shards[hs] = per_agent
    arch = gm.desk_arch(shape.dim, shape.classes, shape.conv_channels,
                        shape.hidden)
    return MaskVsWeightInputs(shape, seeds, shards, arch)


@dataclass
class MaskVsWeightResult:
    traces: dict           # harness seed -> MaskVsWeightTraces
    call_s: list           # each completed call, at reference speed
    params: dict           # harness seed -> shared parameters it used
    errors: list
    raw_run_s: float = 0.0         # wall time of the calls, probe excluded
    kernel_ms: float = math.nan    # median reference kernel time


def mask_vs_weight_train(inputs, seeds, steps, probe=None):
    """One harness call per seed, each timed, sampling the machine's speed
    between gradient computations and keeping the shared parameter set
    each call builds."""
    s = inputs.shape
    probe = probe or SpeedProbe()
    result = MaskVsWeightResult({}, [], {}, [])
    kept = {}
    calls_at = []

    def keep(fn):
        def wrapper(*args, **kwargs):
            kept["params"] = fn(*args, **kwargs)
            return kept["params"]
        return wrapper

    with _swapped(trainer, {"init_params": keep,
                            "loss_and_grad_v": _sampling(probe)}):
        for hs in seeds:
            kept.clear()
            try:
                spent = probe.spent
                start = time.perf_counter()
                traces = trainer.mask_vs_weight_verify(
                    inputs.arch, inputs.shards[hs], s.r_values, steps,
                    s.eta_weight, s.eta_mask, s.batch, hs, s.eval_interval)
                end = time.perf_counter()
                calls_at.append((start, end))
                result.raw_run_s += end - start - (probe.spent - spent)
                result.traces[hs] = traces
                result.params[hs] = kept.get("params")
            except Exception as exc:  # noqa: BLE001 - reported as a failed call
                result.errors.append(f"seed {hs}: {type(exc).__name__}: {exc}")
    result.call_s = [probe.scaled(a, b) for a, b in calls_at]
    result.kernel_ms = probe.kernel_ms()
    return result


def setup(name, seed, seconds):
    """Inputs of the named workload; the set-up ``setup_s`` times."""
    if name == "mask_vs_weight":
        return mask_vs_weight_setup(MASK_VS_WEIGHT, seed, seconds)
    return gossip_setup({"desk_gossip": DESK, "default_gossip": DEFAULT}[name],
                        seed, seconds)
