"""Experiment driver: flat-text configs, deterministic orchestration,
metrics and ledger export.

Config format: one ``key = value`` per line, ``#`` starts a comment,
lists are comma-separated. Unknown keys, type errors, non-finite numbers
and invariant violations are reported with the offending line number.
Every unspecified key is filled from its documented default and echoed
into the run manifest, which is itself a valid config reproducing the run
bit for bit.

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
import math
import os
import sys
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import (assign_labels, check_synth, load_cifar10, partition,
                   synth_generate)
from .errors import FieldError
from .masking import check_min_nonzero, retained_count
from .nn import desk_arch
from .protocol import SENDER_BITS
from .seeds import seed_key, substream
from .topology import erdos_renyi, ring, to_edge_list
from .trainer import (_MASK_ALGORITHMS, HyperConfig, bound_check,
                      check_harness, mask_vs_weight_verify,
                      random_bound_instance, run)

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


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not finite")
    return value


def _probability_or_name(text):
    try:
        return _finite(text)
    except ValueError:
        return text


# what the field defaults cannot tell: the key of a field named otherwise,
# and the element type of the empty and of the mixed tuple default
_KEY_OF = {"lam": "lambda"}
_ELEMENT_OF = {"retention": float, "sweep": _probability_or_name}


def _value_parser(f):
    """Parse with the type of the field's default, or of a tuple default's
    elements from a comma-separated list; floats must be finite."""
    is_list = isinstance(f.default, tuple)
    kind = _ELEMENT_OF.get(f.name) or type(f.default[0] if is_list else f.default)
    parse = _finite if kind is float else kind
    if not is_list:
        return parse
    return lambda text: tuple(parse(x.strip()) for x in text.split(","))


# key -> (config field, value parser), in field order
_SCHEMA = {_KEY_OF.get(f.name, f.name): (f.name, _value_parser(f))
           for f in fields(RunConfig)}


def parse_config(text, overrides=None):
    """Parse and validate a flat-text config into a :class:`RunConfig`.

    ``overrides`` maps keys to values that replace the text's, as the
    command line's ``--seed`` and ``--out`` do; an error in one names its
    flag where a config error names its line."""
    values = {}
    where = {}  # key -> "line N" or "--key"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in where:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' "
                              f"(first set on {where[key]})")
        field, parser = _SCHEMA[key]
        try:
            values[field] = parser(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: key '{key}' cannot parse value '{value}'") from None
        where[key] = f"line {lineno}"
    for key, value in (overrides or {}).items():
        values[_SCHEMA[key][0]] = value
        where[key] = f"--{key}"
    config = RunConfig(**values)
    _validate(config, where)
    return config


def _validate(cfg, where):
    def fail(field, message):
        key = _KEY_OF.get(field, field)
        raise ConfigError(f"{where[key]}: {message}" if key in where else message)

    def check(fields_of, library_check, *args):
        """Return a library check's result, or fail at the field its
        FieldError names, looked up in ``fields_of`` where the library names
        it otherwise; a message starting with the library's name gets the key."""
        try:
            return library_check(*args)
        except FieldError as exc:
            field, message = fields_of.get(exc.field, exc.field), str(exc)
            if message.startswith(f"{exc.field} "):
                message = _KEY_OF.get(field, field) + message[len(exc.field):]
            fail(field, message)

    if cfg.experiment not in _KINDS:
        fail("experiment", f"experiment must be one of {_KINDS}")
    if cfg.seed < 0:
        fail("seed", f"seed must be nonnegative, got {cfg.seed}")
    if cfg.n < 2:
        fail("n", "need at least 2 agents")
    if cfg.n > 1 << SENDER_BITS:
        fail("n", f"at most {1 << SENDER_BITS} agents: agent ids travel in a "
                  f"u{SENDER_BITS} wire field")
    if cfg.topology not in ("er", "ring"):
        fail("topology", "topology must be 'er' or 'ring'")
    if cfg.topology == "ring" and cfg.n < 3:
        fail("n", "a ring topology needs at least 3 agents")
    if not 0.0 < cfg.p <= 1.0:
        fail("p", f"connectivity probability must be in (0, 1], got {cfg.p}")
    check({"num_classes": "classes"}, check_synth, cfg.classes, cfg.per_class,
          cfg.noise)
    if cfg.retention and len(cfg.retention) != cfg.n:
        fail("retention", f"retention lists {len(cfg.retention)} ratios "
                          f"for {cfg.n} agents")
    for field in ("retention", "retention_set", "mask_vs_weight_r"):
        for r in getattr(cfg, field):
            check({"r": field}, retained_count, r, 1)
    for i, alg in enumerate(cfg.algorithm):
        if alg in cfg.algorithm[:i]:   # its outputs would overwrite the first's
            fail("algorithm", f"algorithm repeats '{alg}'")
        for eta in ("eta_mask", "eta_weight"):
            check({"eta": eta}, _hyper, cfg, alg, getattr(cfg, eta))
    check({"r_values": "mask_vs_weight_r", "steps": "mask_vs_weight_steps",
           "eval_interval": "mask_vs_weight_eval"}, check_harness,
          cfg.mask_vs_weight_r, cfg.mask_vs_weight_steps, cfg.mask_vs_weight_eval)
    for field in ("instances", "probes"):
        if getattr(cfg, field) < 1:
            fail(field, f"{field} must be at least 1")
    for i, entry in enumerate(cfg.sweep):
        if isinstance(entry, str):
            if entry != "ring":
                fail("sweep", f"sweep entries are 'ring' or a probability, got '{entry}'")
        elif not 0.0 < entry <= 1.0:
            fail("sweep", f"sweep probability {entry} outside (0, 1]")
        if _sweep_label(entry) in map(_sweep_label, cfg.sweep[:i]):
            fail("sweep", f"sweep repeats the topology {_sweep_label(entry)}")
    if cfg.experiment == "sweep" and "ring" in cfg.sweep and cfg.n < 3:
        fail("sweep", "a ring sweep entry needs at least 3 agents")
    for field in ("out", "cifar10"):   # the manifest holds them raw
        text = getattr(cfg, field)
        if text.split("#")[0].strip() != text or len(text.splitlines()) > 1:
            fail(field, f"{field} must not contain '#', a line break or edge blanks")
    if cfg.cifar10 and not Path(cfg.cifar10).is_dir():
        fail("cifar10", f"cifar10 directory '{cfg.cifar10}' does not exist")
    dim, classes = _task_shape(cfg)
    # the run's own seeded draws: cheap, and the only sure test of coverage
    check({"labels_per_agent": "c"}, assign_labels, cfg.n, classes, cfg.c,
          seed_key(cfg.seed, "labels"))
    arch = check({"input_shape": "dim", "num_classes": "classes"},
                 desk_arch, dim, classes, cfg.conv_channels, cfg.hidden)
    trained = {"train": cfg.algorithm, "sweep": cfg.algorithm[:1]}
    if set(trained.get(cfg.experiment, ())) & set(_MASK_ALGORITHMS):
        check({}, check_min_nonzero, cfg.min_nonzero, arch.param_shapes(),
              cfg.retention or cfg.retention_set)


def _fmt_value(v):
    if isinstance(v, tuple):
        return ",".join(_fmt_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_config(cfg):
    """Config text with every field resolved; parses back to ``cfg``."""
    out = []
    for key, (field, _) in _SCHEMA.items():
        value = getattr(cfg, field)
        if value in ("", ()) and value == getattr(RunConfig, field):
            continue  # unset: the empty default has no line
        out.append(f"{key} = {_fmt_value(value)}")
    return "\n".join(out) + "\n"


def _resolve_retention(cfg):
    if cfg.retention:
        return cfg
    rng = substream(cfg.seed, "retention")
    sampled = tuple(float(r) for r in rng.choice(cfg.retention_set, size=cfg.n))
    return replace(cfg, retention=sampled)


def _hyper(cfg, alg, eta):
    return HyperConfig(alg, cfg.rounds, cfg.batch_size, eta, cfg.lam, cfg.seed,
                       cfg.retention, cfg.min_nonzero, cfg.eval_interval)


def _task_shape(cfg):
    """The feature extents and class count of the config's task."""
    return ((3, 32, 32), 10) if cfg.cifar10 else (cfg.dim, cfg.classes)


def _task(cfg):
    """The config's train and test data, per-agent label sets and model."""
    if cfg.cifar10:
        train, test = load_cifar10(cfg.cifar10)
    else:
        train, test = synth_generate(cfg.classes, cfg.dim, cfg.per_class,
                                     cfg.noise, seed=seed_key(cfg.seed, "data"))
    dim, classes = _task_shape(cfg)
    label_sets = assign_labels(cfg.n, classes, cfg.c, seed_key(cfg.seed, "labels"))
    arch = desk_arch(dim, classes, cfg.conv_channels, cfg.hidden)
    return train, test, label_sets, arch


def _sweep_label(entry):
    """The name of a sweep entry's output files: ring or p<probability>."""
    return entry if isinstance(entry, str) else f"p{entry:g}"


def _build_graph(cfg, entry):
    """The ring for ``entry = "ring"``, else the Erdos-Renyi graph with
    edge probability ``entry``."""
    if entry == "ring":
        return ring(cfg.n)
    return erdos_renyi(cfg.n, entry, seed_key(cfg.seed, "topology"))


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


def _write_csv(path, header, rows):
    """Write a CSV table whole through :func:`_write`: floats as
    ``repr(float(x))``, every other cell through ``str``."""
    def cell(x):
        return repr(float(x)) if isinstance(x, float) else str(x)
    _write(path, "".join(",".join(map(cell, row)) + "\n"
                         for row in [header.split(","), *rows]))


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
        log = run(arch, _hyper(cfg, alg, eta), graph, train, test, plan)
        _write_csv(out / f"metrics_{name}.csv",
                   "round,agent,accuracy,loss,payload_bits,header_bits",
                   map(astuple, log.rows))
        _write_csv(out / f"sparsity_{name}.csv", "agent,layer,ones,total,density",
                   [(agent, layer, ones, total, ones / total)
                    for agent, per_layer in sorted(log.final_sparsity.items())
                    for layer, (ones, total) in sorted(per_layer.items())])
        return log
    return train_on


def _run_train(cfg, out, quiet):
    train_on = _trainer(cfg, out)
    graph = _build_graph(cfg, "ring" if cfg.topology == "ring" else cfg.p)
    _write(out / "graph.edges", to_edge_list(graph))
    for alg in cfg.algorithm:
        log = train_on(alg, graph, alg)
        _say(quiet, f"{alg}: final mean accuracy "
                    f"{log.final_mean_accuracy():.4f} over {cfg.rounds} rounds")


def _run_sweep(cfg, out, quiet):
    train_on = _trainer(cfg, out)
    alg = cfg.algorithm[0]
    for entry in cfg.sweep:
        label = _sweep_label(entry)
        graph = _build_graph(cfg, entry)
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
    rows = []
    for agent in sorted(traces.weight):
        rows += [(step, agent, "weight", "", acc)
                 for step, acc in traces.weight[agent]]
        rows += [(step, agent, "mask", r, acc) for r in cfg.mask_vs_weight_r
                 for step, acc in traces.mask[(agent, r)]]
    _write_csv(out / "mask_vs_weight.csv", "step,agent,arm,r,accuracy", rows)
    for agent in sorted(traces.weight):
        final_w = traces.weight[agent][-1][1]
        per_r = ", ".join(f"r={r:g}: {traces.mask[(agent, r)][-1][1]:.4f}"
                          for r in cfg.mask_vs_weight_r)
        _say(quiet, f"agent {agent}: weight-trained {final_w:.4f} | mask-trained {per_r}")


def _run_bound_check(cfg, out, quiet):
    reps = []
    for i in range(cfg.instances):
        nets, probe = random_bound_instance(seed_key(cfg.seed, "probe", i),
                                            cfg.probes)
        reps.append(bound_check(*nets, probe))
    _write_csv(out / "bounds.csv", "instance,eps1,eps2,alpha_u,alpha_l,sup_gap,"
               "inf_gap,upper_holds,lower_holds",
               [(i, rep.eps1, rep.eps2, rep.alpha_u, rep.alpha_l, rep.sup_gap,
                 rep.inf_gap, int(rep.upper_holds), int(rep.lower_holds))
                for i, rep in enumerate(reps)])
    upper_ok = sum(rep.upper_holds for rep in reps)
    _say(quiet, f"upper inequality held on {upper_ok}/{cfg.instances} instances")


def run_experiment(config, quiet=False):
    """Resolve the config, write the manifest and run the experiment.
    Returns 0 on success; module errors propagate to the caller."""
    cfg = _resolve_retention(config)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "manifest.txt", render_config(cfg))
    {"train": _run_train, "sweep": _run_sweep, "mask_vs_weight": _run_mask_vs_weight,
     "bound_check": _run_bound_check}[cfg.experiment](cfg, out, quiet)
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
    overrides = {key: getattr(args, key) for key in ("seed", "out")
                 if getattr(args, key) is not None}
    try:
        cfg = parse_config(text, overrides)
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
