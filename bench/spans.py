"""Span tracing from outside the program.

The tracer swaps module attributes for wrappers that record one span per
call (name, start, end, parent span), so a function is traced wherever the
swapped name is looked up at call time: ``trainer`` calls what it imported
through its own module globals, and ``masking.extract`` calls
``masking.threshold_layer`` through the masking module's. Spans stay in
memory until the run ends.
"""

import time
from contextlib import contextmanager

import numpy as np

# (span name, attribute, modules whose binding of it is swapped). A name
# absent from a module is skipped, so its metrics then read zero calls.
TRACED = (
    ("nn.loss_and_grad_v", "loss_and_grad_v", ("trainer",)),
    ("nn.forward", "forward", ("trainer",)),
    ("nn.init_params", "init_params", ("trainer",)),
    ("masking.extract", "extract", ("trainer",)),
    ("masking.threshold_layer", "threshold_layer", ("masking", "trainer")),
    ("masking.group_lasso_grad", "group_lasso_grad", ("trainer",)),
    ("protocol.encode_mask", "encode_mask", ("trainer",)),
    ("protocol.decode_mask", "decode_mask", ("trainer",)),
    ("protocol.exchange", "exchange", ("trainer",)),
    ("trainer.backprop_half_step", "backprop_half_step", ("trainer",)),
    ("trainer.fine_tune_step", "fine_tune_step", ("trainer",)),
    ("trainer.aggregate_step", "aggregate_step", ("trainer",)),
    ("trainer.round", "gossip_mask_round", ("trainer",)),
    ("trainer.build_states", "build_states", ("trainer",)),
    ("data.synth_generate", "synth_generate", ("gossipmask",)),
    ("data.assign_labels", "assign_labels", ("gossipmask",)),
    ("data.partition", "partition", ("gossipmask",)),
    ("topology.erdos_renyi", "erdos_renyi", ("gossipmask",)),
)

# Spans that stand for one training operation: a collaborative round, or
# one call of the mask-vs-weight harness (a benchmark-level span).
ROUND_SPANS = ("trainer.round", "trainer.mask_vs_weight_verify")


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self._stack = []

    def _open(self, name):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        """``fn`` recording one span per call."""
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    @contextmanager
    def span(self, name):
        """A benchmark-level span around the enclosed block."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def installed(self, modules):
        """Swap every TRACED binding found in ``modules`` (name -> module)
        for a traced wrapper, and restore them on exit."""
        swapped = []
        try:
            for name, attr, owners in TRACED:
                present = [modules[o] for o in owners
                           if o in modules and hasattr(modules[o], attr)]
                if not present:
                    continue
                wrapper = self.wrap(name, getattr(present[0], attr))
                for module in present:
                    swapped.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(swapped):
                setattr(module, attr, original)

    # ---------------------------------------------------------------- summary

    def _has_ancestor(self, index, names):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def summary(self):
        """Per span name: calls, busy seconds (inclusive), self seconds
        (minus direct children) and the median call in milliseconds."""
        durations = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            durations.setdefault(name, []).append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        self_time = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
        return {name: {"calls": len(d), "busy_s": float(sum(d)),
                       "self_s": self_time[name],
                       "ms_p50": float(np.median(d)) * 1e3}
                for name, d in durations.items()}

    def busy_outside(self, name, enclosing):
        """Busy seconds of ``name`` spans with no ``enclosing`` ancestor."""
        return float(sum(end - start
                         for i, (n, start, end, _) in enumerate(self.spans)
                         if n == name and not self._has_ancestor(i, enclosing)))


def span_cost(calls=20000):
    """Seconds one traced call adds over a plain call, measured on a
    function that does nothing."""
    def noop():
        return None
    traced = Tracer().wrap("noop", noop)
    timings = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter() - start)
    return max(0.0, timings[1] - timings[0]) / calls
