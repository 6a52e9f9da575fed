"""Layer tracing from outside the program.

The tracer replaces public owtt functions and methods with wrappers at the
module or class attribute their callers look them up through, records one
span per wrapped call (name, start, end, parent, batch) in memory, and
restores every attribute when the traced block ends. Calls that happen too
often to be worth a span (the re-scores inside ``expand``, pool matrix
builds, pushes into a full pool) are counted instead, so their time stays
in the self time of the span that made them.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass(frozen=True)
class Patch:
    """One attribute to wrap: ``target.attr`` recorded under ``name``."""

    target: object
    attr: str
    name: str
    counted: bool = False  # count calls instead of recording spans


def patch_table() -> List[Patch]:
    """Every attribute the traced run wraps, grouped by owtt module."""
    from owtt import datagen, engine, prototypes, scoring
    from owtt.metrics import RunningMetrics

    return [
        Patch(datagen, "generate_source", "datagen.generate_source"),
        Patch(datagen, "generate_stream", "datagen.generate_stream"),
        Patch(datagen, "generate_batch", "datagen.generate_batch"),
        Patch(datagen, "rotation_matrix", "datagen.rotation_matrix"),
        Patch(datagen, "class_means", "datagen.class_means"),
        Patch(datagen, "strong_means", "datagen.strong_means"),
        Patch(engine.Engine, "__init__", "engine.Engine.__init__"),
        Patch(engine.Engine, "run", "engine.run"),
        Patch(engine.Engine, "inference_stage", "engine.inference_stage"),
        Patch(engine.Engine, "adaptation_stage", "engine.adaptation_stage"),
        Patch(engine, "select_confident", "engine.select_confident"),
        Patch(engine, "embed_batch", "adapter.embed_batch"),
        Patch(engine, "sgd_momentum_step", "adapter.sgd_momentum_step"),
        Patch(engine, "batch_ood_scores", "scoring.batch_ood_scores"),
        Patch(scoring, "batch_ood_scores", "scoring.batch_ood_scores"),
        Patch(engine, "batch_discrete_scores", "scoring.batch_discrete_scores"),
        Patch(scoring.ScoreWindow, "push", "scoring.ScoreWindow.push"),
        Patch(engine, "adaptive_threshold", "scoring.adaptive_threshold"),
        Patch(prototypes, "adaptive_threshold", "scoring.adaptive_threshold"),
        Patch(engine, "expand", "prototypes.expand"),
        Patch(engine, "momentum_update_novel", "prototypes.momentum_update_novel"),
        Patch(engine, "clustering_loss", "objective.clustering_loss"),
        Patch(engine, "clustering_loss_gradient", "objective.clustering_loss_gradient"),
        Patch(engine, "update_target_stats", "objective.update_target_stats"),
        Patch(engine, "kl_divergence", "objective.kl_divergence"),
        Patch(engine, "kl_gradient", "objective.kl_gradient"),
        Patch(RunningMetrics, "update", "metrics.RunningMetrics.update"),
        Patch(prototypes, "ood_score", "prototypes.expand.rescored", counted=True),
        Patch(prototypes.PrototypePool, "novel_matrix",
              "prototypes.PrototypePool.novel_matrix.calls", counted=True),
        Patch(prototypes.PrototypePool, "all_matrix",
              "prototypes.PrototypePool.all_matrix.calls", counted=True),
        Patch(prototypes.PrototypePool, "push_novel", "prototypes.evicted", counted=True),
    ]


# Spans also reported as call counts (".calls"); every span reports self time.
CALLS = [
    "datagen.rotation_matrix",
    "datagen.class_means",
    "datagen.strong_means",
    "scoring.ScoreWindow.push",
    "scoring.adaptive_threshold",
    "prototypes.expand",
    "prototypes.momentum_update_novel",
]
# Counters the span wrappers keep besides the counted patches.
RESULT_COUNTERS = ["scoring.adaptive_threshold.degenerate", "prototypes.expand.added"]


class Tracer:
    """In-memory span recorder for one traced stream."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # Each span is [name, start, end, parent index or -1, batch].
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.batch = -1  # index of the batch the engine last pulled; -1 in set-up
        self._stack: List[int] = []

    def set_batch(self, t: int) -> None:
        self.batch = t

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.batch]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if name == "scoring.adaptive_threshold" and result.degenerate:
                self.counts["scoring.adaptive_threshold.degenerate"] += 1
            elif name == "prototypes.expand":
                self.counts["prototypes.expand.added"] += result
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        if name == "prototypes.evicted":
            @functools.wraps(fn)
            def push_wrapper(pool, *args, **kwargs):
                if pool.novel_count >= pool.novel_capacity:
                    counts[name] += 1
                return fn(pool, *args, **kwargs)

            return push_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every patched attribute for the block, then restore the originals."""
        saved = []
        try:
            for p in patch_table():
                original = vars(p.target)[p.attr]
                saved.append((p.target, p.attr, original))
                wrap = self.counter if p.counted else self.span
                setattr(p.target, p.attr, wrap(p.name, original))
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, batch) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "batch": batch,
                    "start": start - origin, "end": end - origin,
                }) + "\n")


def self_times(spans) -> List[float]:
    """Per span: its duration minus the part of its interval its children cover.

    ``spans`` holds (name, start, end, parent, ...) rows whose parent is the
    index of the enclosing span or -1.
    """
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer figures of one traced stream, keyed by metric name."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        self_s[span[0]] += own
        calls[span[0]] += 1
    patches = patch_table()
    spanned = dict.fromkeys(p.name for p in patches if not p.counted)
    out = {f"{name}.s": self_s[name] for name in spanned if name != "engine.run"}
    out["engine.run.self_s"] = self_s["engine.run"]
    out.update({f"{name}.calls": calls[name] for name in CALLS})
    counters = [p.name for p in patches if p.counted] + RESULT_COUNTERS
    out.update({name: tracer.counts[name] for name in counters})
    rescored = tracer.counts["prototypes.expand.rescored"]
    added = tracer.counts["prototypes.expand.added"]
    out["prototypes.expand.added_per_rescore"] = added / rescored if rescored else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out
