"""Timed phases, output checks and the traced rerun of each workload."""

import math
import statistics
from dataclasses import dataclass, field

import checks
import workloads
from gossipmask import masking, trainer
import gossipmask as gm
from gossipmask.seeds import seed_key
from spans import ROUND_SPANS, Tracer, span_cost
from speed import SpeedProbe


PROBE_SPAN = "bench.speed_probe"


@dataclass
class Outcome:
    metrics: dict                      # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)   # failed output checks
    info: dict = field(default_factory=dict)


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _timed_metrics(result, run_s, op_s, samples, outcome, key):
    """End-to-end timings at the reference speed; the tail percentiles,
    the raw wall time and the machine's speed go to ``outcome.info``."""
    ms = [t * 1e3 for t in op_s]
    p50 = statistics.median(ms) if ms else math.nan
    outcome.metrics = {
        "run_s": (run_s, "s"),
        "round_ms.p50": (p50, "ms"),
        "samples_per_s": (samples / run_s if run_s else math.nan, "1/s"),
    }
    info = {"count": len(ms), "p50_ms": p50}
    if len(ms) <= 10:
        info["all_ms"] = ms
    if len(ms) >= 40:       # a tail percentile needs samples beyond it
        info["p90_ms"] = _percentile(ms, 0.90)
        info["p95_ms"] = _percentile(ms, 0.95)
    outcome.info[key] = info
    outcome.info["raw_run_s"] = result.raw_run_s
    outcome.info["kernel_ms"] = result.kernel_ms


# ------------------------------------------------------------------- gossip

def _gossip_call(inputs, rounds, outcome, probe=None):
    result = workloads.gossip_train(inputs, rounds, probe)
    outcome.attempted += rounds
    if result.error:
        outcome.failed += rounds - len(result.round_s)
        outcome.info.setdefault("errors", []).append(result.error)
    return result


def _gossip_checks(inputs, result, rerun):
    log = result.log
    arch = inputs.arch
    rows = log.rows
    fresh = gm.init_params(arch, seed_key(inputs.seed, "params"))
    masks = {state.agent_id: state.m for state in result.states}
    failures = []
    if sorted(masks) != list(range(inputs.shape.n)) or any(
            m is None for m in masks.values()):
        failures.append("the run's final agent masks were not captured")
        masks = {}
    failures += checks.check_learning(rows)
    if rerun.log is not None:
        failures += checks.check_rerun(rows, rerun.log.rows)
    failures += checks.check_wire_bits(rows, inputs.graph.degrees,
                                       arch.param_shapes())
    failures += checks.check_sparsity(masks, inputs.retention,
                                      inputs.shape.min_nonzero, log.final_sparsity)
    failures += checks.check_params_unchanged(result.params, fresh)
    if masks:
        last = max(r.round for r in rows)
        logged = {r.agent: r.accuracy for r in rows
                  if r.round == last and r.agent >= 0}
        test_sets = {a: (inputs.test.features[idx], inputs.test.labels[idx])
                     for a, idx in enumerate(inputs.plan.test_indices)}
        failures += checks.check_accuracy(arch, fresh, masks, test_sets, logged)
    return failures


def gossip(inputs):
    """Rerun of the first evaluation interval (it also warms caches), then
    the timed ``run`` call, then every output check."""
    outcome = Outcome({})
    rerun = _gossip_call(inputs, inputs.shape.eval_interval, outcome)
    result = _gossip_call(inputs, inputs.rounds, outcome)
    _timed_metrics(result, result.run_s, result.round_s,
                   inputs.samples(inputs.rounds), outcome, "round_ms")
    outcome.info["rounds"] = inputs.rounds
    if result.log is not None:
        outcome.failures += _gossip_checks(inputs, result, rerun)
        outcome.info["digest"] = checks.digest([
            checks.metrics_csv(result.log.rows),
            checks.sparsity_csv(result.log.final_sparsity)])
        outcome.info["mean_accuracy"] = {r.round: r.accuracy for r in result.log.rows
                                         if r.agent == -1}
    return outcome


# ----------------------------------------------------------- mask vs weight

def _mvw_call(inputs, seeds, steps, outcome, probe=None):
    result = workloads.mask_vs_weight_train(inputs, seeds, steps, probe)
    outcome.attempted += len(seeds)
    outcome.failed += len(result.errors)
    if result.errors:
        outcome.info.setdefault("errors", []).extend(result.errors)
    return result


def _mvw_digest(r_values, traces):
    return checks.digest([checks.traces_csv(traces[hs], r_values)
                          for hs in sorted(traces)])


def _arm_accuracies(traces, r_values, point):
    """Mean over agents of each arm's accuracy at one trace point."""
    agents = sorted(traces.weight)
    weight = statistics.fmean(traces.weight[a][point][1] for a in agents)
    return weight, {r: statistics.fmean(traces.mask[(a, r)][point][1] for a in agents)
                    for r in r_values}


def mask_vs_weight(inputs):
    """A short rerun of the first seed (it also warms caches), then one
    timed harness call per seed, then every output check."""
    s = inputs.shape
    outcome = Outcome({})
    rerun = _mvw_call(inputs, inputs.seeds[:1], 2 * s.eval_interval, outcome)
    result = _mvw_call(inputs, inputs.seeds, s.steps, outcome)
    _timed_metrics(result, sum(result.call_s), result.call_s,
                   inputs.samples(list(result.traces), s.steps), outcome, "call_ms")
    outcome.info["seeds"] = list(inputs.seeds)
    starts, finals = [], []
    for hs, traces in sorted(result.traces.items()):
        outcome.failures += checks.check_trace_lengths(
            traces, s.steps, s.eval_interval, s.agents, s.r_values)
        outcome.failures += checks.check_params_unchanged(
            result.params[hs], gm.init_params(inputs.arch, seed_key(hs, "params")))
        starts.append(_arm_accuracies(traces, s.r_values, 0))
        finals.append(_arm_accuracies(traces, s.r_values, -1))
    if finals:
        outcome.failures += checks.check_arms_learn(starts, finals, s.r_values)
        # reported, not gated: at 120 steps the rule falls short in about
        # one run in ten (see bench/README.md)
        outcome.info["criterion5_shortfalls"] = checks.criterion5_shortfalls(
            finals, s.r_values)
    outcome.info["finals"] = [[w, {str(r): v for r, v in m.items()}] for w, m in finals]
    first = inputs.seeds[0]
    if first in result.traces and first in rerun.traces:
        outcome.failures += checks.check_trace_prefix(result.traces[first],
                                                      rerun.traces[first])
    outcome.info["digest"] = _mvw_digest(s.r_values, result.traces)
    return outcome


# ------------------------------------------------------------------ tracing

# Per-layer metrics read straight from the span summary: span -> keys.
_SPAN_METRICS = (
    ("nn.loss_and_grad_v", ("calls", "ms_p50", "busy_s")),
    ("nn.forward", ("calls", "ms_p50", "busy_s")),
    ("masking.extract", ("calls", "ms_p50", "busy_s")),
    ("masking.threshold_layer", ("calls", "busy_s")),
    ("masking.group_lasso_grad", ("busy_s",)),
    ("protocol.encode_mask", ("calls", "busy_s")),
    ("protocol.decode_mask", ("calls", "busy_s")),
    ("protocol.exchange", ("busy_s",)),
    ("trainer.backprop_half_step", ("busy_s",)),
    ("trainer.fine_tune_step", ("busy_s",)),
    ("trainer.aggregate_step", ("busy_s",)),
    ("trainer.round", ("self_s",)),
)
_UNITS = {"calls": "count", "ms_p50": "ms", "busy_s": "s", "self_s": "s"}


def _busy(summary, name):
    return summary.get(name, {}).get("busy_s", 0.0)


def _per_layer(tracer, summary, bits_per_round, run_s, untraced_run_s, kernel_ms):
    m = {f"{name}.{key}": (summary.get(name, {}).get(key, 0), _UNITS[key])
         for name, keys in _SPAN_METRICS for key in keys}
    m["nn.loss_and_grad_v.eval_busy_s"] = (
        tracer.busy_outside("nn.loss_and_grad_v", ROUND_SPANS), "s")
    encodes = m["protocol.encode_mask.calls"][0]
    m["protocol.decodes_per_frame"] = (
        m["protocol.decode_mask.calls"][0] / encodes if encodes else 0.0, "ratio")
    m["protocol.payload_bits_per_round"] = (bits_per_round[0], "bit")
    m["protocol.header_bits_per_round"] = (bits_per_round[1], "bit")
    # everything in run() outside the round calls, the parameter and state
    # set-up and the speed probe: the evaluation passes and the bootstrap
    # exchange
    eval_s = _busy(summary, "run")
    if eval_s:
        eval_s -= sum(_busy(summary, n) for n in
                      ("trainer.round", "nn.init_params", "trainer.build_states"))
        eval_s -= tracer.busy_outside(PROBE_SPAN, ROUND_SPANS)
    m["trainer.eval.busy_s"] = (eval_s, "s")
    for name in ("data.synth_generate", "data.partition", "topology.erdos_renyi",
                 "nn.init_params", "trainer.build_states"):
        m[f"{name}.s"] = (_busy(summary, name), "s")
    m["trace.run_s"] = (run_s, "s")
    m["trace.overhead_s"] = (run_s - untraced_run_s, "s")
    m["trace.span_cost_s"] = (len(tracer.spans) * span_cost(), "s")
    m["machine.ref_ms"] = (kernel_ms, "ms")
    return m


def traced(workload, setup, outcome):
    """Set-up (``setup()`` builds the inputs) and timed phase again under
    the tracer. The traced outputs must match the untraced ones byte for
    byte."""
    tracer = Tracer()
    traced_outcome = Outcome({})
    probe = SpeedProbe()
    probe.kernel = tracer.wrap(PROBE_SPAN, probe.kernel)
    with tracer.installed({"trainer": trainer, "masking": masking, "gossipmask": gm}):
        with tracer.span("setup"):
            again = setup()
        if workload == "mask_vs_weight":
            s = again.shape
            run_s, traces = 0.0, {}
            for hs in again.seeds:
                with tracer.span("trainer.mask_vs_weight_verify"):
                    call = _mvw_call(again, (hs,), s.steps, traced_outcome, probe)
                run_s += sum(call.call_s)
                traces.update(call.traces)
            digest = _mvw_digest(s.r_values, traces)
            bits = (0, 0)
        else:
            with tracer.span("run"):
                result = _gossip_call(again, again.rounds, traced_outcome, probe)
            run_s = result.run_s
            digest = ""
            bits = (0, 0)
            if result.log is not None:
                digest = checks.digest([checks.metrics_csv(result.log.rows),
                                        checks.sparsity_csv(result.log.final_sparsity)])
                last = result.log.rows[-1]
                bits = (last.payload_bits // (last.round + 1),
                        last.header_bits // (last.round + 1))
    if digest != outcome.info.get("digest"):
        traced_outcome.failures.append("traced outputs differ from untraced ones")
    summary = tracer.summary()
    traced_outcome.metrics = _per_layer(tracer, summary, bits, run_s,
                                        outcome.metrics["run_s"][0],
                                        outcome.info["kernel_ms"])
    busy = _busy(summary, "run") or sum(
        _busy(summary, n) for n in ROUND_SPANS)
    traced_outcome.info = {
        name: {**v, "share_of_run": v["self_s"] / busy if busy else 0.0}
        for name, v in sorted(summary.items())}
    return traced_outcome


# ------------------------------------------------------------------- report

def report(record):
    """Human-readable lines ahead of the JSON result line."""
    lines = [f"workload {record['workload']} seed {record['seed']} "
             f"seconds {record['seconds']:g}"]
    for name, (value, unit) in record["end_to_end"].items():
        lines.append(f"  {name:<16} {value:12.4f} {unit}")
    for key, value in sorted(record["info"].items()):
        lines.append(f"  {key}: {value}")
    for failure in record["failures"]:
        lines.append(f"  CHECK FAILED: {failure}")
    if "spans" in record:
        lines.append(f"  {'span':<30} {'calls':>7} {'busy_s':>9} {'self_s':>9} "
                     f"{'self %':>7}")
        for name, v in sorted(record["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"  {name:<30} {v['calls']:>7} {v['busy_s']:>9.4f} "
                         f"{v['self_s']:>9.4f} {100 * v['share_of_run']:>6.1f}%")
        for name, (value, unit) in record["per_layer"].items():
            lines.append(f"  {name:<40} {value:14.6g} {unit}")
    return lines
