"""Span tracing for the traced benchmark run.

The benchmark's untraced run never imports this module. In the traced run,
:meth:`Tracer.install` replaces each layer function below with a wrapper
under every name it is bound to in the loaded ``episcore`` modules, so a
caller that looks a function up by its own binding (``pipeline`` calls
``read_features``, ``cli`` calls ``read_pairs``) is traced as well. Each
call records one span (layer, parent span, start, end) in memory, plus the
layer's counters; :func:`summarize` derives self time (span time minus the
time of its child spans) and :meth:`Tracer.write` writes the spans out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


def _write_bytes(args, kwargs, result) -> int:
    feats = kwargs["features"] if "features" in kwargs else args[1]
    return 4 * int(feats.shape[0]) * int(feats.shape[1])  # stored as float32


# "<module>.<function>" -> {counter name: f(args, kwargs, result) -> int}.
# Every layer also counts its calls.
LAYERS = {
    "scorer.score": {},
    "scorer.backward": {},
    "scorer.episode_input_matrix": {"rows": lambda a, k, r: r.shape[0]},
    "scorer.save_checkpoint": {},
    "scorer.load_checkpoint": {},
    "training.total_loss": {},
    "training.optimizer_step": {},
    "training.clip_gradients": {},
    "training.lr_at_step": {},
    "training.evaluate_loss": {},
    "episodes.read_pairs": {"pairs": lambda a, k, r: len(r)},
    "episodes.read_features": {"bytes": lambda a, k, r: r.nbytes},
    "episodes.validate_episode": {},
    "episodes.write_features": {"bytes": _write_bytes},
    "episodes.write_pairs": {},
    "episodes.write_episodes": {},
    "episodes.read_segments": {},
    "episodes.read_episodes": {},
    "pipeline.synth_pairs": {},
    "pipeline.group_segments": {"episodes": lambda a, k, r: len(r)},
    "pipeline.filter_structural": {"kept": lambda a, k, r: len(r[0]), "rejected": lambda a, k, r: len(r[1])},
    "pipeline.stratify_bench": {},
    "evaluation.write_scores": {},
    "evaluation.read_scores": {},
    "evaluation.build_report": {},
}

# Spans the benchmark opens itself around each `episcore.cli.main` call.
CLI_SPANS = ("train", "score", "eval", "pipeline_group", "pipeline_filter", "pipeline_stratify")

# The reported per-layer metrics, in BENCHMARK.json order: (name, unit).
METRICS = [
    ("scorer.score.s", "s"), ("scorer.score.calls", "count"),
    ("scorer.backward.s", "s"), ("scorer.backward.calls", "count"),
    ("scorer.episode_input_matrix.s", "s"), ("scorer.episode_input_matrix.calls", "count"),
    ("scorer.episode_input_matrix.rows", "count"),
    ("scorer.save_checkpoint.s", "s"), ("scorer.save_checkpoint.calls", "count"),
    ("scorer.load_checkpoint.s", "s"),
    ("training.total_loss.s", "s"),
    ("training.optimizer_step.s", "s"),
    ("training.clip_gradients.calls", "count"),
    ("training.lr_at_step.calls", "count"),
    ("training.evaluate_loss.s", "s"), ("training.evaluate_loss.calls", "count"),
    ("episodes.read_pairs.s", "s"), ("episodes.read_pairs.calls", "count"), ("episodes.read_pairs.pairs", "count"),
    ("episodes.read_features.s", "s"), ("episodes.read_features.calls", "count"),
    ("episodes.read_features.bytes", "bytes"),
    ("episodes.validate_episode.s", "s"), ("episodes.validate_episode.calls", "count"),
    ("episodes.write_features.s", "s"), ("episodes.write_features.calls", "count"),
    ("episodes.write_features.bytes", "bytes"),
    ("episodes.write_pairs.s", "s"),
    ("episodes.write_episodes.s", "s"),
    ("episodes.read_segments.s", "s"),
    ("episodes.read_episodes.s", "s"),
    ("pipeline.synth_pairs.s", "s"),
    ("pipeline.group_segments.s", "s"), ("pipeline.group_segments.episodes", "count"),
    ("pipeline.filter_structural.s", "s"), ("pipeline.filter_structural.kept", "count"),
    ("pipeline.filter_structural.rejected", "count"),
    ("pipeline.kept_ratio", "ratio"),
    ("pipeline.stratify_bench.s", "s"),
    ("evaluation.write_scores.s", "s"), ("evaluation.read_scores.s", "s"), ("evaluation.build_report.s", "s"),
] + [(f"cli.{sub}.s", "s") for sub in CLI_SPANS] + [("trace.overhead_s", "s")]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent index or -1, start, end]
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._name_index: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        span = len(self.spans)
        self.spans.append([idx, self._stack[-1] if self._stack else -1, time.perf_counter(), None])
        self._stack.append(span)
        self.counts[(name, "calls")] += 1
        return span

    def _close(self, span: int) -> None:
        self.spans[span][3] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, counters: dict):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            for stat, count in counters.items():
                self.counts[(name, stat)] += count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "episcore" or n.startswith("episcore.")]
        for layer, counters in LAYERS.items():
            module, func = layer.split(".")
            original = getattr(sys.modules[f"episcore.{module}"], func)
            wrapper = self._wrap(layer, original, counters)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        """Position in the span list, to summarize the spans recorded after it."""
        return len(self.spans)

    def take_counts(self) -> dict[tuple[str, str], int]:
        counts = dict(self.counts)
        self.counts.clear()
        return counts

    def write(self, path, origin: float, upto: int | None = None) -> None:
        """Write spans as JSON lines (times in seconds from ``origin``)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans[:upto]):
                fh.write(
                    json.dumps(
                        {"id": i, "parent": parent, "name": self.names[name],
                         "start": start - origin, "end": end - origin},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def summarize(tracer: Tracer, start: int, end: int) -> dict[str, float]:
    """Self time per layer name over spans[start:end]."""
    child = defaultdict(float)
    for _, parent, t0, t1 in tracer.spans[start:end]:
        if parent >= start:
            child[parent] += t1 - t0
    self_s = defaultdict(float)
    for i in range(start, end):
        name, _, t0, t1 = tracer.spans[i]
        self_s[tracer.names[name]] += (t1 - t0) - child[i]
    return dict(self_s)
