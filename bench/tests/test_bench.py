"""Tests of the benchmark itself: tiny workloads pass every output check,
planted faults are caught, and the printed metrics match BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import REFERENCE_MS, SpeedProbe  # noqa: E402

import gossipmask as gm  # noqa: E402
from gossipmask import masking, protocol, trainer  # noqa: E402
from gossipmask.seeds import seed_key  # noqa: E402

TINY = 0.1     # seconds: one evaluation interval, one harness seed


@pytest.fixture(scope="module")
def desk():
    inputs = workloads.gossip_setup(workloads.DESK, 0, TINY)
    return inputs, workloads.gossip_train(inputs, inputs.rounds)


def _final_masks(result):
    return {s.agent_id: s.m for s in result.states}


# ------------------------------------------------------- tiny workloads pass

def test_tiny_desk_gossip_passes_every_check():
    inputs = workloads.gossip_setup(workloads.DESK, 1, TINY)
    outcome = measure.gossip(inputs)
    assert inputs.rounds == workloads.DESK.eval_interval
    assert outcome.failures == []
    assert (outcome.attempted, outcome.failed) == (2 * inputs.rounds, 0)


def test_tiny_default_gossip_passes_every_check():
    shape = dataclasses.replace(workloads.DEFAULT, eval_interval=2, per_class=40)
    inputs = workloads.gossip_setup(shape, 0, TINY)
    outcome = measure.gossip(inputs)
    assert outcome.failures == []
    assert outcome.failed == 0


def test_tiny_mask_vs_weight_passes_every_check():
    shape = dataclasses.replace(workloads.MASK_VS_WEIGHT, steps=30)
    inputs = workloads.mask_vs_weight_setup(shape, 0, TINY)
    outcome = measure.mask_vs_weight(inputs)
    assert inputs.seeds == (0,)
    assert outcome.failures == []
    assert (outcome.attempted, outcome.failed) == (2, 0)


# ----------------------------------------------------- planted faults caught

def test_mask_bit_over_the_retention_cap_is_caught(desk):
    inputs, result = desk
    masks = _final_masks(result)
    sparsity = result.log.final_sparsity
    assert checks.check_sparsity(masks, inputs.retention, 2, sparsity) == []
    planted = {a: {k: m.copy() for k, m in per.items()} for a, per in masks.items()}
    layer = planted[0][max(planted[0])]
    zeros = np.flatnonzero(layer.reshape(-1) == 0.0)
    layer.reshape(-1)[zeros[0]] = 1.0
    cap = inputs.retention[0] * layer.size
    assert layer.sum() > np.floor(cap + 0.5)
    failures = checks.check_sparsity(planted, inputs.retention, 2, sparsity)
    assert any("over the cap" in f for f in failures)


def test_accuracy_off_by_one_sample_is_caught(desk):
    inputs, result = desk
    fresh = gm.init_params(inputs.arch, seed_key(inputs.seed, "params"))
    last = max(r.round for r in result.log.rows)
    logged = {r.agent: r.accuracy for r in result.log.rows
              if r.round == last and r.agent >= 0}
    test_sets = {a: (inputs.test.features[idx], inputs.test.labels[idx])
                 for a, idx in enumerate(inputs.plan.test_indices)}
    masks = _final_masks(result)
    assert checks.check_accuracy(inputs.arch, fresh, masks, test_sets, logged) == []
    n3 = len(test_sets[3][1])
    off = dict(logged)
    off[3] = logged[3] - 1 / n3 if logged[3] > 0 else 1 / n3
    failures = checks.check_accuracy(inputs.arch, fresh, masks, test_sets, off)
    assert len(failures) == 1 and failures[0].startswith("agent 3:")


def test_extra_header_byte_is_caught(monkeypatch):
    inputs = workloads.gossip_setup(workloads.DESK, 0, TINY)
    to_bytes = protocol.MaskFrame.to_bytes
    monkeypatch.setattr(protocol.MaskFrame, "to_bytes",
                        lambda frame: to_bytes(frame) + b"\0")
    outcome = measure.gossip(inputs)
    assert any("payload/header bits" in f for f in outcome.failures)


def test_changed_shared_parameters_are_caught(desk):
    inputs, result = desk
    fresh = gm.init_params(inputs.arch, seed_key(inputs.seed, "params"))
    assert checks.check_params_unchanged(result.params, fresh) == []
    bumped = {k: v.copy() for k, v in result.params.items()}
    bumped[0].reshape(-1)[0] = np.nextafter(bumped[0].reshape(-1)[0], 2.0)
    assert checks.check_params_unchanged(bumped, fresh) == [
        "layer 0: shared parameters changed during the run"]


def test_reference_forward_matches_the_library(desk):
    inputs, result = desk
    x = inputs.test.features[:16]
    masks = _final_masks(result)[0]
    ours = checks.reference_logits(inputs.arch, result.params, masks, x)
    theirs, _ = gm.forward(inputs.arch, result.params, masks, x)
    np.testing.assert_allclose(ours, theirs, rtol=1e-10, atol=1e-10)


def test_header_bits_follow_the_documented_layout():
    shapes = {0: (2, 3), 3: (5,)}       # 6 and 5 entries: 2 and 3 padding bits
    frame = protocol.encode_mask({k: np.ones(s) for k, s in shapes.items()}, 1, 0)
    assert checks.frame_header_bits(shapes) == 8 * (16 + 6 * 2) + 5
    assert frame.header_bits() == checks.frame_header_bits(shapes)


# ------------------------------------------------------------------- tracer

def test_tracer_restores_bindings_and_nests_spans():
    originals = (trainer.loss_and_grad_v, masking.threshold_layer, trainer.extract)
    tracer = Tracer()
    with tracer.installed({"trainer": trainer, "masking": masking}):
        assert trainer.threshold_layer is masking.threshold_layer
        with tracer.span("outer"):
            trainer.extract({0: np.arange(6.0).reshape(2, 3)}, 0.5)
    assert (trainer.loss_and_grad_v, masking.threshold_layer,
            trainer.extract) == originals
    summary = tracer.summary()
    assert summary["masking.threshold_layer"]["calls"] == 1
    assert summary["masking.extract"]["calls"] == 1
    outer, inner = summary["outer"], summary["masking.extract"]
    assert outer["self_s"] <= outer["busy_s"] - inner["busy_s"] + 1e-9
    assert tracer.busy_outside("masking.threshold_layer", ("outer",)) == 0.0


# -------------------------------------------------------------- speed probe

def test_speed_probe_scales_gaps_and_skips_samples():
    probe = SpeedProbe()
    # samples at [1, 1.5) and [3, 3.5): kernels at half and at the reference speed
    probe._starts, probe._ends = [1.0, 3.0], [1.5, 3.5]
    probe._kernel_s = [2 * REFERENCE_MS / 1e3, REFERENCE_MS / 1e3]
    scale = REFERENCE_MS / (1.5 * REFERENCE_MS)       # median of the two
    assert probe.scaled(0.0, 4.0) == pytest.approx(3.0 * scale)
    assert probe.scaled(1.1, 1.4) == 0.0
    assert probe.scaled(3.2, 3.7) == pytest.approx(0.2 * scale)
    assert probe.scaled(2.0, 2.5) == pytest.approx(0.5 * scale)


# -------------------------------------------------------------- the command

def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_the_declared_metrics(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(["--workload", "desk_gossip", "--seed", "2", "--seconds", "0.1",
                 "--trace", trace], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(["--workload", "desk_gossip", "--seed", "0", "--seconds", "1"],
                tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
