"""gossipmask benchmark: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload desk_gossip --seed 0 --seconds 30 --trace 0

Workloads: desk_gossip, default_gossip, mask_vs_weight (see bench/README.md).
``--seconds`` sets the work of the timed phase through fixed sizing
constants, so a (workload, seed, seconds) triple always does the same work.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds a traced
rerun of the timed phase and prints the per-layer metrics instead. Every run
checks the program's outputs. The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
a full record goes to bench/results/.
"""

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, fixed before numpy is first imported (here or in a
# set-up probe), so timings do not depend on the caller's environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _keep_freed_memory():
    """Have glibc serve every allocation from its heap and never hand freed
    memory back to the kernel. Otherwise a fresh process spends its first
    20 s or so faulting numpy's large temporaries back in (10-15% of the
    time, with counts that vary threefold between identical calls) until
    malloc's adaptive thresholds settle; a long-running process pays none
    of that, and that steady state is what the timings measure."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    m_trim_threshold, m_mmap_max = -1, -4
    libc.mallopt(m_mmap_max, 0)
    libc.mallopt(m_trim_threshold, 1 << 30)


BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("desk_gossip", "default_gossip", "mask_vs_weight")
SETUP_PROBES = 7


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time the set-up alone in this fresh process")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def _setup_probe(args):
    """Print the seconds from before ``import gossipmask`` to the first
    training call (import, task synthesis, labels, partition, graph), then
    the scale of this process's speed to the reference speed."""
    start = time.perf_counter()
    import workloads
    workloads.setup(args.workload, args.seed, args.seconds)
    elapsed = time.perf_counter() - start
    import speed
    probe = speed.SpeedProbe(interval_s=0.0)
    for _ in range(5):
        probe.maybe_sample()
    print(repr(elapsed), repr(probe.scale()))


def _setup_seconds(args):
    """Median set-up time over fresh processes, so import and first-touch
    costs count as a user pays them, each scaled to the reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        elapsed, scale = done.stdout.strip().splitlines()[-1].split()
        times.append(float(elapsed) * float(scale))
    return statistics.median(times)


def main(argv=None):
    args = _parse(argv)
    _keep_freed_memory()
    if not (SRC / "gossipmask" / "__init__.py").is_file():
        print(f"error: gossipmask sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        _setup_probe(args)
        return 0

    setup_s = _setup_seconds(args)
    import measure
    import workloads
    inputs = workloads.setup(args.workload, args.seed, args.seconds)
    if args.workload == "mask_vs_weight":
        outcome = measure.mask_vs_weight(inputs)
    else:
        outcome = measure.gossip(inputs)
    metrics = {"setup_s": (setup_s, "s"), **outcome.metrics,
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                               / 1024.0, "MB")}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "end_to_end": metrics,
              "failures": outcome.failures, "info": outcome.info}
    if args.trace:
        traced = measure.traced(
            args.workload,
            lambda: workloads.setup(args.workload, args.seed, args.seconds),
            outcome)
        record["per_layer"] = traced.metrics
        record["spans"] = traced.info
        outcome.attempted += traced.attempted
        outcome.failed += traced.failed
        outcome.failures += traced.failures
        metrics = traced.metrics

    for line in measure.report(record):
        print(line)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
