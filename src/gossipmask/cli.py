"""Experiment driver: flat-text configs, deterministic orchestration,
metrics and ledger export.

Config format: one ``key = value`` per line, ``#`` starts a comment,
lists are comma-separated. Unknown keys, type errors and invariant
violations are reported with the offending line number. Every unspecified
key is filled from its documented default and echoed into the run
manifest, which is itself a valid config reproducing the run bit for bit.

Experiments
-----------
``train``        one run per algorithm on a synthetic (or CIFAR-10) task
``sweep``        the first algorithm across several topologies
``mask_vs_weight``  per-agent weight-trained vs mask-trained comparison
``bound_check``  random 4-network instances of the output-gap inequalities

Outputs (per run directory): ``manifest.txt``, ``graph*.edges`` where a
topology exists, metrics CSVs with header
``round,agent,accuracy,loss,payload_bits,header_bits`` (rows sorted by
round then agent, agent -1 being the per-round mean), and per-agent
``sparsity*.csv`` files. Each file is written whole, through a temp file
renamed over it, so a crashed run leaves no half-written output.

Exit codes: 0 success, 1 config error, 2 runtime error.
"""

import argparse
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import load_cifar10, assign_labels, partition, synth_generate
from .nn import desk_arch
from .seeds import seed_key, substream
from .topology import erdos_renyi, ring, to_edge_list
from .trainer import (_MASK_ALGORITHMS, ALGORITHMS, HyperConfig, bound_check,
                      mask_vs_weight_verify, random_bound_instance, run)

__all__ = ["ConfigError", "RunConfig", "parse_config", "render_config",
           "run_experiment", "main"]

_KINDS = ("train", "mask_vs_weight", "bound_check", "sweep")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    experiment: str = "train"
    seed: int = 0
    out: str = "runs"
    # task
    classes: int = 10
    per_class: int = 100
    noise: float = 0.1
    dim: tuple = (3, 16, 16)
    cifar10: str = ""
    # agents and topology
    n: int = 20
    topology: str = "er"
    p: float = 0.5
    c: int = 4
    retention: tuple = ()          # empty = sample from retention_set
    retention_set: tuple = (0.1, 0.2, 0.3, 0.4)
    # model
    conv_channels: tuple = (16, 32)
    hidden: int = 128
    # training
    algorithm: tuple = ("gossip_mask",)
    eta_mask: float = 1.0
    eta_weight: float = 0.001
    lam: float = 0.001
    batch_size: int = 128
    rounds: int = 100
    eval_interval: int = 10
    min_nonzero: int = 2
    # mask_vs_weight
    mask_vs_weight_r: tuple = (0.1, 0.3, 0.5)
    mask_vs_weight_steps: int = 300
    mask_vs_weight_eval: int = 3
    # bound_check
    instances: int = 100
    probes: int = 200
    # sweep
    sweep: tuple = ("ring", 0.3, 0.5, 0.7)


def _as_int(v):
    return int(v)


def _as_float(v):
    return float(v)


def _as_str(v):
    return v


def _as_ints(v):
    return tuple(int(x.strip()) for x in v.split(","))


def _as_floats(v):
    return tuple(float(x.strip()) for x in v.split(","))


def _as_strs(v):
    return tuple(x.strip() for x in v.split(","))


def _as_mixed(v):
    out = []
    for x in v.split(","):
        x = x.strip()
        try:
            out.append(float(x))
        except ValueError:
            out.append(x)
    return tuple(out)


# key -> (config field, value parser)
_KEYS = {
    "experiment": ("experiment", _as_str),
    "seed": ("seed", _as_int),
    "out": ("out", _as_str),
    "classes": ("classes", _as_int),
    "per_class": ("per_class", _as_int),
    "noise": ("noise", _as_float),
    "dim": ("dim", _as_ints),
    "cifar10": ("cifar10", _as_str),
    "n": ("n", _as_int),
    "topology": ("topology", _as_str),
    "p": ("p", _as_float),
    "c": ("c", _as_int),
    "retention": ("retention", _as_floats),
    "retention_set": ("retention_set", _as_floats),
    "conv_channels": ("conv_channels", _as_ints),
    "hidden": ("hidden", _as_int),
    "algorithm": ("algorithm", _as_strs),
    "eta_mask": ("eta_mask", _as_float),
    "eta_weight": ("eta_weight", _as_float),
    "lambda": ("lam", _as_float),
    "batch_size": ("batch_size", _as_int),
    "rounds": ("rounds", _as_int),
    "eval_interval": ("eval_interval", _as_int),
    "min_nonzero": ("min_nonzero", _as_int),
    "mask_vs_weight_r": ("mask_vs_weight_r", _as_floats),
    "mask_vs_weight_steps": ("mask_vs_weight_steps", _as_int),
    "mask_vs_weight_eval": ("mask_vs_weight_eval", _as_int),
    "instances": ("instances", _as_int),
    "probes": ("probes", _as_int),
    "sweep": ("sweep", _as_mixed),
}
_FIELD_TO_KEY = {field: key for key, (field, _) in _KEYS.items()}


def parse_config(text):
    """Parse and validate a flat-text config into a :class:`RunConfig`."""
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in lines:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' "
                              f"(first set on line {lines[key]})")
        field, parser = _KEYS[key]
        try:
            values[field] = parser(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: key '{key}' cannot parse value '{value}'") from None
        lines[key] = lineno
    config = RunConfig(**values)
    _validate(config, lines)
    return config


def _where(lines, field):
    key = _FIELD_TO_KEY[field]
    return f"line {lines[key]}: " if key in lines else ""


def _validate(cfg, lines):
    def fail(field, message):
        raise ConfigError(f"{_where(lines, field)}{message}")

    if cfg.experiment not in _KINDS:
        fail("experiment", f"experiment must be one of {_KINDS}")
    if cfg.n < 2:
        fail("n", "need at least 2 agents")
    if cfg.n > 1 << 16:
        fail("n", f"at most {1 << 16} agents: agent ids travel in a u16 "
                  f"wire field")
    if cfg.topology not in ("er", "ring"):
        fail("topology", "topology must be 'er' or 'ring'")
    if cfg.topology == "ring" and cfg.n < 3:
        fail("n", "a ring topology needs at least 3 agents")
    if not 0.0 < cfg.p <= 1.0:
        fail("p", f"connectivity probability must be in (0, 1], got {cfg.p}")
    if cfg.classes < 2:
        fail("classes", "need at least 2 classes")
    if not 1 <= cfg.c <= cfg.classes:
        fail("c", f"labels per agent must be in [1, {cfg.classes}]")
    if cfg.per_class < 2:
        fail("per_class", "need at least 2 samples per class")
    if cfg.noise < 0:
        fail("noise", "noise must be nonnegative")
    if not cfg.dim or any(d < 1 for d in cfg.dim):
        fail("dim", "feature extents must be positive")
    if cfg.retention:
        if len(cfg.retention) != cfg.n:
            fail("retention", f"retention lists {len(cfg.retention)} ratios "
                              f"for {cfg.n} agents")
        if any(not 0.0 < r <= 1.0 for r in cfg.retention):
            fail("retention", "retention ratios must be in (0, 1]")
    if not cfg.retention_set or any(not 0.0 < r <= 1.0 for r in cfg.retention_set):
        fail("retention_set", "retention_set values must be in (0, 1]")
    for alg in cfg.algorithm:
        if alg not in ALGORITHMS:
            fail("algorithm", f"unknown algorithm '{alg}' (choose from {ALGORITHMS})")
    if cfg.eta_mask <= 0 or cfg.eta_weight <= 0:
        fail("eta_mask" if cfg.eta_mask <= 0 else "eta_weight",
             "learning rates must be positive")
    if cfg.lam < 0:
        fail("lambda", "lambda must be nonnegative")
    if cfg.batch_size < 1:
        fail("batch_size", "batch size must be at least 1")
    if cfg.rounds < 0:
        fail("rounds", "rounds must be nonnegative")
    if cfg.eval_interval < 1:
        fail("eval_interval", "eval interval must be at least 1")
    if cfg.min_nonzero < 0:
        fail("min_nonzero", "min_nonzero must be nonnegative")
    if any(not 0.0 < r <= 1.0 for r in cfg.mask_vs_weight_r):
        fail("mask_vs_weight_r", "mask_vs_weight_r ratios must be in (0, 1]")
    if cfg.mask_vs_weight_steps < 1:
        fail("mask_vs_weight_steps", "mask_vs_weight_steps must be at least 1")
    if cfg.mask_vs_weight_eval < 1:
        fail("mask_vs_weight_eval", "mask_vs_weight_eval must be at least 1")
    if cfg.instances < 1:
        fail("instances", "instances must be at least 1")
    if cfg.probes < 1:
        fail("probes", "probes must be at least 1")
    for entry in cfg.sweep:
        if isinstance(entry, str):
            if entry != "ring":
                fail("sweep", f"sweep entries are 'ring' or a probability, got '{entry}'")
        elif not 0.0 < entry <= 1.0:
            fail("sweep", f"sweep probability {entry} outside (0, 1]")
    if cfg.cifar10 and not Path(cfg.cifar10).is_dir():
        fail("cifar10", f"cifar10 directory '{cfg.cifar10}' does not exist")


def _fmt_value(v):
    if isinstance(v, tuple):
        return ",".join(_fmt_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_config(cfg):
    """Config text with every field resolved; parses back to ``cfg``."""
    out = []
    for key, (field, _) in _KEYS.items():
        value = getattr(cfg, field)
        if value == "" or value == ():
            continue
        out.append(f"{key} = {_fmt_value(value)}")
    return "\n".join(out) + "\n"


def _resolve_retention(cfg):
    if cfg.retention:
        return cfg
    rng = substream(cfg.seed, "retention")
    sampled = tuple(float(r) for r in rng.choice(cfg.retention_set, size=cfg.n))
    return replace(cfg, retention=sampled)


def _task(cfg):
    """The config's train and test data, per-agent label sets and model."""
    if cfg.cifar10:
        train, test = load_cifar10(cfg.cifar10)
        dim, classes = (3, 32, 32), 10
    else:
        train, test = synth_generate(cfg.classes, cfg.dim, cfg.per_class,
                                     cfg.noise, seed=seed_key(cfg.seed, "data"))
        dim, classes = cfg.dim, cfg.classes
    label_sets = assign_labels(cfg.n, classes, cfg.c, seed_key(cfg.seed, "labels"))
    arch = desk_arch(dim, classes, cfg.conv_channels, cfg.hidden)
    return train, test, label_sets, arch


def _build_graph(cfg, topology=None, p=None):
    topology = topology if topology is not None else cfg.topology
    if topology == "ring":
        return ring(cfg.n)
    return erdos_renyi(cfg.n, p if p is not None else cfg.p,
                       seed_key(cfg.seed, "topology"))


def _fmt_float(x):
    return repr(float(x))


def _write(path, text):
    """Write ``text`` to ``path`` through a temp file in the same directory
    and ``os.replace``, so a crash leaves the old file or the new one whole.
    The temp name ends in ``.tmp`` and never matches an output pattern."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_metrics(path, log):
    lines = ["round,agent,accuracy,loss,payload_bits,header_bits"]
    for row in log.rows:
        lines.append(f"{row.round},{row.agent},{_fmt_float(row.accuracy)},"
                     f"{_fmt_float(row.loss)},{row.payload_bits},{row.header_bits}")
    _write(path, "\n".join(lines) + "\n")


def _write_sparsity(path, log):
    lines = ["agent,layer,ones,total,density"]
    for agent in sorted(log.final_sparsity):
        for layer in sorted(log.final_sparsity[agent]):
            ones, total = log.final_sparsity[agent][layer]
            lines.append(f"{agent},{layer},{ones},{total},{_fmt_float(ones / total)}")
    _write(path, "\n".join(lines) + "\n")


def _say(quiet, message):
    if not quiet:
        print(message)


def _trainer(cfg, out):
    """Training on the config's task and partition: returns
    ``train_on(algorithm, graph, name)``, which runs the algorithm, writes
    ``metrics_<name>.csv`` and ``sparsity_<name>.csv`` and returns the log."""
    train, test, label_sets, arch = _task(cfg)
    plan = partition(train, test, label_sets, seed_key(cfg.seed, "partition"))

    def train_on(alg, graph, name):
        eta = cfg.eta_mask if alg in _MASK_ALGORITHMS else cfg.eta_weight
        hyper = HyperConfig(alg, cfg.rounds, cfg.batch_size, eta, cfg.lam,
                            cfg.seed, cfg.retention, cfg.min_nonzero,
                            cfg.eval_interval)
        log = run(arch, hyper, graph, train, test, plan)
        _write_metrics(out / f"metrics_{name}.csv", log)
        _write_sparsity(out / f"sparsity_{name}.csv", log)
        return log
    return train_on


def _run_train(cfg, out, quiet):
    train_on = _trainer(cfg, out)
    graph = _build_graph(cfg)
    _write(out / "graph.edges", to_edge_list(graph))
    for alg in cfg.algorithm:
        log = train_on(alg, graph, alg)
        _say(quiet, f"{alg}: final mean accuracy "
                    f"{log.final_mean_accuracy():.4f} over {cfg.rounds} rounds")


def _run_sweep(cfg, out, quiet):
    train_on = _trainer(cfg, out)
    alg = cfg.algorithm[0]
    for entry in cfg.sweep:
        if entry == "ring":
            label, graph = "ring", _build_graph(cfg, topology="ring")
        else:
            label, graph = f"p{entry:g}", _build_graph(cfg, topology="er", p=entry)
        _write(out / f"graph_{label}.edges", to_edge_list(graph))
        log = train_on(alg, graph, label)
        _say(quiet, f"{alg} on {label}: final mean accuracy "
                    f"{log.final_mean_accuracy():.4f}")


def _run_mask_vs_weight(cfg, out, quiet):
    train, test, label_sets, arch = _task(cfg)
    shards = []
    for labels in label_sets:
        tr = np.flatnonzero(np.isin(train.labels, list(labels)))
        te = np.flatnonzero(np.isin(test.labels, list(labels)))
        shards.append((train.features[tr], train.labels[tr],
                       test.features[te], test.labels[te]))
    traces = mask_vs_weight_verify(arch, shards, cfg.mask_vs_weight_r,
                                   cfg.mask_vs_weight_steps, cfg.eta_weight,
                                   cfg.eta_mask, cfg.batch_size, cfg.seed,
                                   cfg.mask_vs_weight_eval)
    lines = ["step,agent,arm,r,accuracy"]
    for agent in sorted(traces.weight):
        for step, acc in traces.weight[agent]:
            lines.append(f"{step},{agent},weight,,{_fmt_float(acc)}")
        for r in cfg.mask_vs_weight_r:
            for step, acc in traces.mask[(agent, r)]:
                lines.append(f"{step},{agent},mask,{_fmt_float(r)},{_fmt_float(acc)}")
    _write(out / "mask_vs_weight.csv", "\n".join(lines) + "\n")
    for agent in sorted(traces.weight):
        final_w = traces.weight[agent][-1][1]
        per_r = ", ".join(f"r={r:g}: {traces.mask[(agent, r)][-1][1]:.4f}"
                          for r in cfg.mask_vs_weight_r)
        _say(quiet, f"agent {agent}: weight-trained {final_w:.4f} | mask-trained {per_r}")


def _run_bound_check(cfg, out, quiet):
    lines = ["instance,eps1,eps2,alpha_u,alpha_l,sup_gap,inf_gap,"
             "upper_holds,lower_holds"]
    upper_ok = 0
    for i in range(cfg.instances):
        nets, probe = random_bound_instance(seed_key(cfg.seed, "probe", i),
                                            cfg.probes)
        rep = bound_check(*nets, probe)
        upper_ok += int(rep.upper_holds)
        lines.append(
            f"{i},{_fmt_float(rep.eps1)},{_fmt_float(rep.eps2)},"
            f"{_fmt_float(rep.alpha_u)},{_fmt_float(rep.alpha_l)},"
            f"{_fmt_float(rep.sup_gap)},{_fmt_float(rep.inf_gap)},"
            f"{int(rep.upper_holds)},{int(rep.lower_holds)}")
    _write(out / "bounds.csv", "\n".join(lines) + "\n")
    _say(quiet, f"upper inequality held on {upper_ok}/{cfg.instances} instances")


def run_experiment(config, quiet=False):
    """Resolve the config, write the manifest and run the experiment.
    Returns 0 on success; module errors propagate to the caller."""
    cfg = _resolve_retention(config)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "manifest.txt", render_config(cfg))
    if cfg.experiment == "train":
        _run_train(cfg, out, quiet)
    elif cfg.experiment == "sweep":
        _run_sweep(cfg, out, quiet)
    elif cfg.experiment == "mask_vs_weight":
        _run_mask_vs_weight(cfg, out, quiet)
    else:
        _run_bound_check(cfg, out, quiet)
    return 0


def _parser():
    parser = argparse.ArgumentParser(
        prog="gossipmask",
        description="Decentralized personalized mask-learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment from a config file")
    runp.add_argument("config", help="path to a flat-text config")
    runp.add_argument("--seed", type=int, default=None, help="override the root seed")
    runp.add_argument("--out", default=None, help="override the output directory")
    runp.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, out=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return run_experiment(cfg, quiet=args.quiet)
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
