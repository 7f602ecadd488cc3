"""Span tracing of grassmann-stream's layers, installed from outside.

A :class:`Tracer` replaces public module functions with wrappers that
record one span per call: (name, start, end, parent index). Nothing in
the package changes; the originals are put back when the ``with`` block
ends, even when the traced call raises. A layer's self time is its span
minus the spans of its direct children.

The wrappers do not touch arguments, results or random generators, so a
traced call returns bit-identical results to an untraced one.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from grassmann_stream import datagen, grouse, harness, numerics, sampling, theory

# (module, attribute, span name). Each entry is a module-level function
# that the package calls through its module, so replacing the attribute
# intercepts every call.
WRAPPED = (
    (harness, "run_trial", "harness"),
    (harness, "verify_step_invariants", "harness"),
    (grouse, "step", "grouse.step"),
    (numerics, "least_squares", "numerics.least_squares"),
    (sampling, "make_gaussian", "sampling.draw"),
    (sampling, "make_entrywise", "sampling.draw"),
    (sampling, "restrict_basis", "sampling.restrict"),
    (sampling, "apply", "sampling.apply"),
    (sampling, "adjoint", "sampling.adjoint"),
    (theory, "delta_term", "theory.delta_term"),
    (theory, "coefficient_split", "theory.coefficient_split"),
)
# gen_stream is a generator: each next() is one "datagen.sample" span.
STREAM = (datagen, "gen_stream", "datagen.sample")


@dataclass
class TraceSummary:
    """Per-layer totals of one traced call."""

    self_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    steps: int = 0
    skipped: int = 0
    reorthonormalized: int = 0
    # Computed from the sizes of the drawn operators' arrays, not measured.
    bytes_drawn: int = 0

    def add(self, other: "TraceSummary") -> None:
        self.self_s.update(other.self_s)
        self.calls.update(other.calls)
        self.steps += other.steps
        self.skipped += other.skipped
        self.reorthonormalized += other.reorthonormalized
        self.bytes_drawn += other.bytes_drawn


class Tracer:
    """Context manager that traces the layers listed in WRAPPED and STREAM."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._originals: list = []
        self._steps = TraceSummary()

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name in WRAPPED:
                self._install(module, attr, self._wrap(name, getattr(module, attr)))
            module, attr, name = STREAM
            self._install(module, attr, self._wrap_stream(name, getattr(module, attr)))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, module, attr, wrapper) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _observe(self, name: str, result) -> None:
        if name == "grouse.step":
            self._steps.steps += 1
            self._steps.skipped += result.status is not grouse.StepStatus.UPDATED
            self._steps.reorthonormalized += result.reorthonormalized
        elif name == "sampling.draw":
            self._steps.bytes_drawn += sum(
                value.nbytes for value in vars(result).values()
                if isinstance(value, np.ndarray))

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = name in ("grouse.step", "sampling.draw")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if observe:
                self._observe(name, result)
            return result

        return wrapper

    def _wrap_stream(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = clock()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    spans[index] = (name, start, clock(), parent)
                    stack.pop()
                yield item

        return wrapper

    def summary(self) -> TraceSummary:
        """Self time and call count per span name, plus the step counts."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = TraceSummary()
        out.add(self._steps)
        for (name, start, end, _), children in zip(self.spans, child_s):
            out.self_s[name] += end - start - children
            out.calls[name] += 1
        return out


# perfbench/README.md lists the end-to-end metric and workload each of
# these should move.
def layer_metrics(timing: TraceSummary, counts: TraceSummary, trials: int) -> dict:
    """Per-layer metrics: times from ``timing``, exact counts from ``counts``.

    Times are self microseconds per step (a step is one grouse.step call).
    Counts come from a fixed set of trials so they repeat exactly for a seed.
    """
    steps = max(timing.steps, 1)

    def us(span: str) -> float:
        return timing.self_s[span] / steps * 1e6

    count_steps = max(counts.steps, 1)
    return {
        "sampling.draw_us": (us("sampling.draw"), "us"),
        "sampling.restrict_us": (us("sampling.restrict"), "us"),
        "sampling.apply_us": (us("sampling.apply"), "us"),
        "sampling.adjoint_us": (us("sampling.adjoint"), "us"),
        "sampling.bytes_drawn_per_step": (
            counts.bytes_drawn / count_steps,
            "bytes_computed",
        ),
        "numerics.least_squares_us": (us("numerics.least_squares"), "us"),
        "numerics.least_squares_calls_per_step": (
            counts.calls["numerics.least_squares"] / count_steps,
            "calls/step",
        ),
        "theory.delta_term_self_us": (us("theory.delta_term"), "us"),
        "theory.coefficient_split_self_us": (us("theory.coefficient_split"), "us"),
        "grouse.step_self_us": (us("grouse.step"), "us"),
        "datagen.sample_self_us": (us("datagen.sample"), "us"),
        "harness.self_us_per_step": (us("harness"), "us"),
        "grouse.iterations_to_target": (counts.steps / max(trials, 1), "steps"),
        "grouse.skip_frac": (counts.skipped / count_steps, "fraction"),
        "grouse.reorth_per_kstep": (
            counts.reorthonormalized / count_steps * 1000.0,
            "count/kstep",
        ),
    }
