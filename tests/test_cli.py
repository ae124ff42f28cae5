import os
import re
import string
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gossipmask import (ALGORITHMS, FieldError, assign_labels, cli, desk_arch,
                        retained_count, seed_key)
from gossipmask.cli import (ConfigError, RunConfig, main, parse_config,
                            render_config, run_experiment)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SMALL_TRAIN = """
# desk-scale smoke config
experiment = train
seed = 3
n = 4
topology = er
p = 0.8
classes = 4
c = 2
per_class = 30
noise = 0.2
dim = 2,5,5
conv_channels = 4
hidden = 16
algorithm = gossip_mask
rounds = 2
batch_size = 8
eval_interval = 1
"""


# ---------------------------------------------------------------- parsing

def test_parse_basic_keys():
    cfg = parse_config("n = 20\np = 0.5\n")
    assert cfg.n == 20 and cfg.p == 0.5


def test_parse_lambda():
    cfg = parse_config("lambda = 0.001\n")
    assert cfg.lam == 0.001


def test_parse_fills_defaults():
    cfg = parse_config("")
    assert cfg.experiment == "train"
    assert cfg.retention_set == (0.1, 0.2, 0.3, 0.4)
    assert cfg.batch_size == 128


def test_parse_unknown_key_line_numbered():
    with pytest.raises(ConfigError, match="line 2: unknown key 'frobnicate'"):
        parse_config("n = 4\nfrobnicate = 1\n")


def test_parse_type_mismatch_line_numbered():
    with pytest.raises(ConfigError, match="line 1.*rounds"):
        parse_config("rounds = soon\n")


def test_parse_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("n = 4\nn = 5\n")


def test_parse_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just words\n")


def test_parse_comments_and_blanks():
    cfg = parse_config("# comment\n\nn = 6  # inline\n")
    assert cfg.n == 6


def test_retention_length_mismatch():
    with pytest.raises(ConfigError, match="line 2.*retention"):
        parse_config("n = 20\nretention = 0.4,0.4,0.3\n")


def test_retention_range_checked():
    with pytest.raises(ConfigError, match="retention"):
        parse_config("n = 2\nretention = 0.5,1.5\n")


_ENTRY = "topology entries are 'er', 'ring' or a probability in (0, 1], got"
# (config text, the full ConfigError message): one case per validation rule
CONFIG_ERRORS = [
    ("experiment = fly\n",
     "line 1: experiment must be one of ('train', 'mask_vs_weight', 'bound_check')"),
    ("n = 1\n", "line 1: need at least 2 agents"),
    ("seed = 0\nn = 70000\n",
     "line 2: at most 65536 agents: agent ids travel in a u16 wire field"),
    ("topology = star\n", f"line 1: {_ENTRY} 'star'"),
    ("topology = ring,star\n", f"line 1: {_ENTRY} 'star'"),
    ("topology = 0.5,1.5\n", f"line 1: {_ENTRY} '1.5'"),
    ("topology = ring\nn = 2\nc = 5\n",
     "line 2: a ring topology needs at least 3 agents"),
    ("topology = 0.5,ring\nn = 2\n",
     "line 2: a ring topology needs at least 3 agents"),
    ("p = 0\n", "line 1: connectivity probability must be in (0, 1], got 0.0"),
    ("classes = 1\n", "line 1: need at least 2 classes"),
    ("c = 11\n", "line 1: labels per agent must be in [1, 10]"),
    ("c = 0\n", "line 1: labels per agent must be in [1, 10]"),
    ("per_class = 1\n", "line 1: need at least 5 samples per class"),
    # 4 // 5 = 0 test samples per class would log nan accuracies
    ("classes = 4\nper_class = 4\ndim = 3,8,8\nn = 4\nc = 2\n",
     "line 2: need at least 5 samples per class"),
    ("noise = -0.5\n", "line 1: noise must be nonnegative"),
    ("dim = 3,0,16\n", "line 1: feature extents must be positive"),
    ("n = 4\nretention = 0.5,0.5\n", "line 2: retention lists 2 ratios for 4 agents"),
    ("algorithm = gossip_mask,magic\n",
     f"line 1: unknown algorithm 'magic' (choose from {ALGORITHMS})"),
    ("eta_mask = 0\n", "line 1: learning rates must be positive"),
    ("eta_weight = -1\n", "line 1: learning rates must be positive"),
    ("lambda = -0.1\n", "line 1: lambda must be nonnegative"),
    ("batch_size = 0\n", "line 1: batch size must be at least 1"),
    ("rounds = -1\n", "line 1: rounds must be nonnegative"),
    ("eval_interval = 0\n", "line 1: eval interval must be at least 1"),
    ("min_nonzero = -1\n", "line 1: min_nonzero must be nonnegative"),
    ("mask_vs_weight_steps = 0\n", "line 1: mask_vs_weight_steps must be at least 1"),
    ("mask_vs_weight_eval = 0\n", "line 1: mask_vs_weight_eval must be at least 1"),
    ("instances = 0\n", "line 1: instances must be at least 1"),
    ("probes = 0\n", "line 1: probes must be at least 1"),
    ("cifar10 = /no/such/dir\n",
     "line 1: cifar10 directory '/no/such/dir' does not exist"),
    # the retention ranges come from retained_count's own check
    ("n = 3\nretention = 0.5,0.5,1.5\n",
     "line 2: retention ratio must be in (0, 1], got 1.5"),
    ("retention_set = 0.5,0\n", "line 1: retention ratio must be in (0, 1], got 0.0"),
    ("mask_vs_weight_r = 0.5,1.5\n",
     "line 1: retention ratio must be in (0, 1], got 1.5"),
    # non-finite floats are rejected by the parser
    ("eta_mask = nan\n", "line 1: key 'eta_mask' cannot parse value 'nan'"),
    ("eta_mask = inf\n", "line 1: key 'eta_mask' cannot parse value 'inf'"),
    ("eta_weight = inf\n", "line 1: key 'eta_weight' cannot parse value 'inf'"),
    ("noise = nan\n", "line 1: key 'noise' cannot parse value 'nan'"),
    ("lambda = nan\n", "line 1: key 'lambda' cannot parse value 'nan'"),
    ("retention_set = 0.5,-inf\n",
     "line 1: key 'retention_set' cannot parse value '0.5,-inf'"),
    ("topology = ring,nan\n", f"line 1: {_ENTRY} 'nan'"),
    ("seed = -1\n", "line 1: seed must be nonnegative, got -1"),
    # the label, shape and layer-size checks of data and nn, at parse time
    ("n = 2\nc = 1\nclasses = 10\n",
     "line 2: 2 agents with 1 labels each cannot cover 10 labels"),
    # 2 x 5 could cover 10 labels, but the run's seeded draws never do
    ("n = 2\nc = 5\nclasses = 10\n",
     "line 2: label coverage not reached in 100 draws: 2 agents with "
     "labels_per_agent = 5 left some of the 10 labels without a holder every time"),
    ("dim = 3,2,2\n", "line 1: layer 2: pool window (3, 3) exceeds (16, 2, 2)"),
    ("dim = 3,16\n",
     "line 1: layer 0: conv2d expects 3 input channels, got shape (3, 16)"),
    ("hidden = 0\n", "line 1: linear needs positive sizes, got 288 -> 0"),
    ("conv_channels = 16,0\n",
     "line 1: conv2d needs positive channel counts, got 16 -> 0"),
    ("mask_vs_weight_r = 0.3,0.5,0.3\n",
     "line 1: mask_vs_weight_r repeats the ratio 0.3"),
    # a repeated run would overwrite the first one's output files
    ("algorithm = ind_mask,ind_mask\n", "line 1: algorithm repeats 'ind_mask'"),
    ("topology = 0.5,ring,0.50\n", "line 1: topology repeats the graph p0.5"),
    ("topology = ring,ring\n", "line 1: topology repeats the graph ring"),
    # er is the Erdos-Renyi graph at p
    ("p = 0.3\ntopology = 0.3,er\n", "line 2: topology repeats the graph p0.3"),
    # filter zeroing would clear every filter of a layer: conv0's filters
    # hold 3 * 5 * 5 = 75 entries, and conv0 keeps 12 of its 1200 at r = 0.01
    ("algorithm = ind_mask,gossip_mask\nmin_nonzero = 80\n",
     "line 2: min_nonzero 80: an output filter of layer 0 keeps at most 75 ones"),
    ("retention_set = 0.4,0.01\nmin_nonzero = 20\n",
     "line 2: min_nonzero 20: an output filter of layer 0 keeps at most 12 ones"),
    # every listed algorithm is trained on every listed topology
    ("topology = ring,0.5\nalgorithm = dsgd,gossip_mask\nmin_nonzero = 80\n",
     "line 3: min_nonzero 80: an output filter of layer 0 keeps at most 75 ones"),
]


def test_validation_errors():
    wrong = []
    for text, message in CONFIG_ERRORS:
        try:
            parse_config(text)
            got = "accepted"
        except ConfigError as exc:
            got = str(exc)
        if got != message:
            wrong.append((text, message, got))
    assert wrong == []


def test_unreachable_min_nonzero_passes_where_no_mask_is_trained():
    # weight baselines and the harness arms never zero filters
    for text in ("algorithm = dsgd,avr_weipru\n",
                 "topology = ring,0.5\nalgorithm = dsgd,avr_weipru\n",
                 "experiment = mask_vs_weight\n", "experiment = bound_check\n"):
        assert parse_config(text + "min_nonzero = 80\n").min_nonzero == 80


@pytest.mark.parametrize("key, value", [
    ("out", "/tmp/run#1"), ("out", "a\nb"), ("out", "runs\r"), ("out", " runs"),
    ("cifar10", "data#1"), ("cifar10", "a\x0bb"),
])
def test_manifest_strings_must_parse_back(key, value):
    # render_config writes them raw, and this value would not read back
    with pytest.raises(ConfigError, match=f"^--{key}: {key} must not contain "
                                          "'#', a line break or edge blanks$"):
        parse_config("", {key: value})


def test_render_round_trips():
    cfg = parse_config(SMALL_TRAIN)
    again = parse_config(render_config(cfg))
    assert again == cfg


_RATIO = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# what a config value can hold: no comment mark, no line break, no
# surrounding blanks (the parser strips them)
_TEXT = st.text(string.ascii_letters + string.digits + "/._-=, ").map(str.strip)


@st.composite
def valid_configs(draw):
    """A RunConfig that parse_config accepts, drawn field by field within
    each validation rule."""
    cifar10 = draw(st.sampled_from(["", "."]))
    classes = draw(st.integers(2, 12))
    covered = 10 if cifar10 else classes
    c = draw(st.integers(1, covered))
    n = draw(st.integers(max(-(-covered // c), 2), 40))
    p = draw(_RATIO)
    seed = draw(st.integers(0, 2 ** 64))
    try:   # the run's own label draws must cover every label
        assign_labels(n, covered, c, seed_key(seed, "labels"))
    except FieldError:
        assume(False)
    cfg = RunConfig(
        experiment=draw(st.sampled_from(cli._KINDS)),
        seed=seed,
        out=draw(_TEXT),
        classes=classes,
        per_class=draw(st.integers(5, 1000)),
        noise=draw(st.floats(min_value=0.0, allow_infinity=False)),
        dim=(draw(st.integers(1, 4)), draw(st.integers(7, 24)),
             draw(st.integers(7, 24))),
        cifar10=cifar10,
        n=n, p=p, c=c,
        topology=tuple(draw(st.lists(
            st.sampled_from(["er", "ring"] if n >= 3 else ["er"]) | _RATIO,
            min_size=1, max_size=5, unique_by=lambda e: cli._label(e, p)))),
        retention=draw(st.one_of(st.just(()), st.lists(
            _RATIO, min_size=n, max_size=n).map(tuple))),
        retention_set=tuple(draw(st.lists(_RATIO, min_size=1, max_size=5))),
        conv_channels=tuple(draw(st.lists(st.integers(1, 8), min_size=1,
                                          max_size=2))),
        hidden=draw(st.integers(1, 16)),
        algorithm=tuple(draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1,
                                      max_size=6, unique=True))),
        eta_mask=draw(_POSITIVE), eta_weight=draw(_POSITIVE),
        lam=draw(st.floats(min_value=0.0, allow_infinity=False)),
        batch_size=draw(st.integers(1, 512)),
        rounds=draw(st.integers(0, 10 ** 6)),
        eval_interval=draw(st.integers(1, 100)),
        min_nonzero=0,
        mask_vs_weight_r=tuple(draw(st.lists(_RATIO, min_size=1, max_size=4,
                                             unique=True))),
        mask_vs_weight_steps=draw(st.integers(1, 10 ** 4)),
        mask_vs_weight_eval=draw(st.integers(1, 100)),
        instances=draw(st.integers(1, 10 ** 4)),
        probes=draw(st.integers(1, 10 ** 4)))
    # a trained mask algorithm's min_nonzero must fit in every layer's
    # output filters, at every ratio
    most = 10
    if cfg.experiment == "train" and set(cfg.algorithm) & {"gossip_mask", "ind_mask"}:
        dim, classes = cli._task_shape(cfg)
        arch = desk_arch(dim, classes, cfg.conv_channels, cfg.hidden)
        for shape in arch.param_shapes().values():
            n = int(np.prod(shape))
            most = min([most, n // shape[0]] + [
                retained_count(r, n) for r in cfg.retention or cfg.retention_set])
    return replace(cfg, min_nonzero=draw(st.integers(0, most)))


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_render_round_trips_any_valid_config(cfg):
    assert parse_config(render_config(cfg)) == cfg


@pytest.mark.parametrize("conf", sorted(CONFIGS.glob("*.conf")), ids=lambda p: p.name)
def test_shipped_config_parses(conf):
    cfg = parse_config(conf.read_text())
    assert parse_config(render_config(cfg)) == cfg


def test_readme_documents_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("### Config format", 1)[1].split("\n\n| key |", 1)[1]
    table = table.split("\n\n", 1)[0]
    documented = {name for row in table.splitlines()
                  for name in re.findall(r"`([a-z0-9_]+)`", row.split("|")[1])}
    assert set(cli._SCHEMA) - documented == set()


# ------------------------------------------------------------- experiments

def test_run_train_outputs(tmp_path):
    cfg = parse_config(SMALL_TRAIN + f"out = {tmp_path/'run'}\n")
    assert run_experiment(cfg, quiet=True) == 0
    out = tmp_path / "run"
    assert (out / "manifest.txt").is_file()
    assert (out / "graph.edges").is_file()
    metrics = (out / "metrics_gossip_mask.csv").read_text().splitlines()
    assert metrics[0] == "round,agent,accuracy,loss,payload_bits,header_bits"
    # rounds 0..2 evaluated at interval 1: 3 rounds x (1 mean + 4 agents)
    assert len(metrics) == 1 + 3 * 5
    sparsity = (out / "sparsity_gossip_mask.csv").read_text().splitlines()
    assert sparsity[0] == "agent,layer,ones,total,density"


def test_metrics_rows_sorted(tmp_path):
    cfg = parse_config(SMALL_TRAIN + f"out = {tmp_path/'run'}\n")
    run_experiment(cfg, quiet=True)
    rows = (tmp_path / "run" / "metrics_gossip_mask.csv").read_text().splitlines()[1:]
    keys = [(int(r.split(",")[0]), int(r.split(",")[1])) for r in rows]
    assert keys == sorted(keys)


def test_rounds_zero_only_initial_rows(tmp_path):
    cfg = parse_config(SMALL_TRAIN.replace("rounds = 2", "rounds = 0")
                       + f"out = {tmp_path/'run'}\n")
    run_experiment(cfg, quiet=True)
    rows = (tmp_path / "run" / "metrics_gossip_mask.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[0] == "0" for r in rows)


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(SMALL_TRAIN + f"out = {tmp_path/'a'}\n")
    run_experiment(cfg, quiet=True)
    run_experiment(replace(cfg, out=str(tmp_path / "b")), quiet=True)
    a = (tmp_path / "a" / "metrics_gossip_mask.csv").read_bytes()
    b = (tmp_path / "b" / "metrics_gossip_mask.csv").read_bytes()
    assert a == b


def test_manifest_reproduces_run(tmp_path):
    cfg = parse_config(SMALL_TRAIN + f"out = {tmp_path/'a'}\n")
    run_experiment(cfg, quiet=True)
    manifest = (tmp_path / "a" / "manifest.txt").read_text()
    cfg2 = parse_config(manifest)
    run_experiment(replace(cfg2, out=str(tmp_path / "b")), quiet=True)
    assert ((tmp_path / "a" / "metrics_gossip_mask.csv").read_bytes()
            == (tmp_path / "b" / "metrics_gossip_mask.csv").read_bytes())


def test_failed_write_leaves_earlier_output_whole(tmp_path, monkeypatch):
    cfg = parse_config(SMALL_TRAIN.replace("rounds = 2", "rounds = 0")
                       + f"out = {tmp_path/'run'}\n")
    run_experiment(cfg, quiet=True)
    out = tmp_path / "run"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_replace = os.replace

    def refuse_metrics(src, dst):
        if os.path.basename(dst) == "metrics_gossip_mask.csv":
            raise OSError("disk full")
        real_replace(src, dst)
    monkeypatch.setattr(os, "replace", refuse_metrics)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(replace(cfg, seed=4), quiet=True)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(after) == sorted(before)  # no temp file left behind
    assert after["metrics_gossip_mask.csv"] == before["metrics_gossip_mask.csv"]
    assert after["manifest.txt"] != before["manifest.txt"]  # written in full


def _topology_run(tmp_path, algorithms):
    """SMALL_TRAIN's task for one round on a ring, er (p = 0.8) and p = 0.5:
    the names of the files it writes."""
    text = SMALL_TRAIN.replace("rounds = 2", "rounds = 1").replace(
        "topology = er", "topology = ring,er,0.5").replace(
        "algorithm = gossip_mask", f"algorithm = {algorithms}")
    run_experiment(parse_config(text + f"out = {tmp_path/'s'}\n"), quiet=True)
    return sorted(p.name for p in (tmp_path / "s").iterdir())


def test_sweep_writes_one_file_per_topology(tmp_path):
    # one algorithm: each run's files are named by its graph alone
    labels = ("p0.5", "p0.8", "ring")
    assert _topology_run(tmp_path, "gossip_mask") == sorted(
        ["manifest.txt"] + [f"{kind}_{label}.{ext}" for label in labels
                            for kind, ext in (("graph", "edges"), ("metrics", "csv"),
                                              ("sparsity", "csv"))])


def test_several_algorithms_on_several_topologies(tmp_path):
    algorithms, labels = ("gossip_mask", "dsgd"), ("p0.5", "p0.8", "ring")
    assert _topology_run(tmp_path, ",".join(algorithms)) == sorted(
        ["manifest.txt"] + [f"graph_{label}.edges" for label in labels]
        + [f"{kind}_{alg}_{label}.csv" for kind in ("metrics", "sparsity")
           for alg in algorithms for label in labels])


def test_mask_vs_weight_experiment(tmp_path, monkeypatch):
    text = """
experiment = mask_vs_weight
seed = 1
n = 2
classes = 3
c = 2
per_class = 20
noise = 0.2
dim = 1,5,5
conv_channels = 3
hidden = 8
mask_vs_weight_r = 0.5
mask_vs_weight_steps = 6
mask_vs_weight_eval = 3
batch_size = 6
"""
    # the harness shards read the task's rows; they hold no copy of them
    tasks, shards = [], []
    task, verify = cli._task, cli.mask_vs_weight_verify

    def task_spy(cfg):
        tasks.append(task(cfg))
        return tasks[-1]

    def verify_spy(arch, agent_shards, *args):
        shards.extend(agent_shards)
        return verify(arch, agent_shards, *args)
    monkeypatch.setattr(cli, "_task", task_spy)
    monkeypatch.setattr(cli, "mask_vs_weight_verify", verify_spy)
    run_experiment(parse_config(text + f"out = {tmp_path/'d'}\n"), quiet=True)
    rows = (tmp_path / "d" / "mask_vs_weight.csv").read_text().splitlines()
    assert rows[0] == "step,agent,arm,r,accuracy"
    # 2 agents x 2 arms x (6/3 + 1) evaluations
    assert len(rows) == 1 + 2 * 2 * 3
    (train, test, label_sets, _), = tasks
    assert len(shards) == len(label_sets) == 2
    for (tx, ty, ex, ey), labels in zip(shards, label_sets):
        assert tx.base is train.features and ex.base is test.features
        assert ty.base is train.labels and ey.base is test.labels
        assert set(ty[:len(ty)]) == set(ey[:len(ey)]) == set(labels)


def test_bound_check_experiment(tmp_path):
    text = f"experiment = bound_check\ninstances = 5\nprobes = 20\nout = {tmp_path/'b'}\n"
    run_experiment(parse_config(text), quiet=True)
    rows = (tmp_path / "b" / "bounds.csv").read_text().splitlines()
    assert len(rows) == 6
    assert all(r.split(",")[7] == "1" for r in rows[1:])  # upper bound holds


# ------------------------------------------------------------- entry point

def test_main_exit_codes(tmp_path):
    good = tmp_path / "good.conf"
    good.write_text(SMALL_TRAIN + f"out = {tmp_path/'out'}\n")
    assert main(["run", str(good), "--quiet"]) == 0

    bad = tmp_path / "bad.conf"
    bad.write_text("frobnicate = 1\n")
    assert main(["run", str(bad)]) == 1

    assert main(["run", str(tmp_path / "missing.conf")]) == 1


def test_main_label_coverage_fails_at_parse_time(tmp_path, capsys):
    conf = tmp_path / "c.conf"
    conf.write_text(f"n = 2\nc = 5\nclasses = 10\nout = {tmp_path / 'out'}\n")
    assert main(["run", str(conf), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: line 2: label coverage not reached in 100 draws")
    assert not (tmp_path / "out").exists()


def test_main_seed_and_out_override(tmp_path):
    conf = tmp_path / "c.conf"
    conf.write_text(SMALL_TRAIN)
    out = tmp_path / "o"
    assert main(["run", str(conf), "--seed", "9", "--out", str(out), "--quiet"]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "seed = 9" in manifest


def test_main_rejects_an_out_the_manifest_cannot_hold(tmp_path, capsys):
    # '#' starts a comment: the manifest line would read back as out = .../run
    conf = tmp_path / "c.conf"
    conf.write_text(SMALL_TRAIN)
    out = tmp_path / "run#1"
    assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "config error: --out: out must not contain '#', a line break or edge blanks\n")
    assert not out.exists()


def test_main_overrides_are_validated(tmp_path, capsys):
    conf = tmp_path / "c.conf"
    conf.write_text(SMALL_TRAIN + f"out = {tmp_path/'out'}\n")
    assert main(["run", str(conf), "--seed", "-1", "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "config error: --seed: seed must be nonnegative, got -1\n")
    assert not (tmp_path / "out").exists()


def test_main_runtime_error_exit_2(tmp_path, monkeypatch):
    conf = tmp_path / "c.conf"
    conf.write_text(SMALL_TRAIN + f"out = {tmp_path/'out'}\n")
    import gossipmask.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")
    monkeypatch.setattr(cli, "_run_train", boom)
    assert main(["run", str(conf), "--quiet"]) == 2


def test_main_diverging_run_names_agent_and_round(tmp_path, capsys):
    conf = tmp_path / "c.conf"
    conf.write_text(SMALL_TRAIN.replace("gossip_mask", "dsgd")
                    + f"eta_weight = 1e200\nout = {tmp_path/'out'}\n")
    with np.errstate(all="ignore"):
        assert main(["run", str(conf), "--quiet"]) == 2
    assert "agent 0, round 2: non-finite loss nan" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics_dsgd.csv").exists()


def _train_conf(tmp_path, values):
    """configs/train.conf with the given keys' values replaced."""
    text = (CONFIGS / "train.conf").read_text()

    def override(mo):
        return f"{mo[1]} = {values[mo[1]]}" if mo[1] in values else mo[0]
    conf = tmp_path / "c.conf"
    conf.write_text(re.sub(r"(?m)^(\w+) = .*$", override, text))
    return conf


def test_main_non_finite_weight_names_agent_round_and_layer(tmp_path, capsys):
    # round 1's loss is finite, but its dsgd step overflows the weights; a
    # last-round blow-up would otherwise show only as a nan evaluation
    conf = _train_conf(tmp_path, {"algorithm": "dsgd", "eta_weight": "1e307",
                                  "rounds": "1", "out": str(tmp_path / "out")})
    with np.errstate(all="ignore"):
        assert main(["run", str(conf), "--quiet"]) == 2
    assert "error: agent 0, round 1, layer 0: non-finite weight\n" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics_dsgd.csv").exists()


def test_main_layer_left_without_ones_names_agent_round_and_layer(tmp_path, capsys):
    # min_nonzero 12 passes the parse-time rule (layer 9 keeps 19 entries
    # at r = 0.1), but thresholding spreads those over 6 filters and filter
    # zeroing then clears the whole layer
    conf = _train_conf(tmp_path, {"algorithm": "gossip_mask", "min_nonzero": "12",
                                  "rounds": "10", "out": str(tmp_path / "out")})
    assert main(["run", str(conf), "--quiet"]) == 2
    assert re.fullmatch(r"error: agent \d+, round \d+, layer \d+: filter zeroing "
                        r"at min_nonzero 12 left no ones\n", capsys.readouterr().err)
    assert not (tmp_path / "out" / "metrics_gossip_mask.csv").exists()
