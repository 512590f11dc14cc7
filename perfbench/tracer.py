"""In-memory span tracer that wraps fewbench's public functions from outside.

Each wrap replaces one attribute at the name its caller looks up (for
example ``fewbench.pipeline.meta_fit``, not ``fewbench.api.meta_fit``,
because ``run_ingestion`` calls the name bound in ``pipeline``).  A span is
``[name, start, end, parent, trace_id, extra]``: ``parent`` is the index of
the enclosing span (-1 at top level), ``trace_id`` is
``method/seed/episode`` at the moment the span opened, and ``extra`` holds
what the span's hook read from the call's result.  ``uninstall`` puts every
original object back; ``leftover_patches`` lists any that are not.

The source tree is not modified: the tracer only rebinds attributes of the
imported modules and classes for the lifetime of one traced round.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

#: Names of the methods whose per-phase time is reported.
METHOD_NAMES = ("proto", "qda", "rect", "ptmap", "linear", "fomaml")

# per-call durations reported as p50 and p99:
# metric stem -> (span name, scale from seconds, self time instead of wall)
_DISTRIBUTIONS = {
    "rng.generator_us": ("rng.generator", 1e6, False),
    "sampler.episode_ms": ("sampler.sample_episode", 1e3, False),
    "heads.sinkhorn_ms": ("heads.sinkhorn", 1e3, False),
    "heads.ptmap_ms": ("heads.ptmap_fit_predict", 1e3, False),
    "heads.power_transform_ms": ("heads.power_transform", 1e3, False),
    "heads.qda_fit_ms": ("heads.qda_fit", 1e3, False),
    "heads.qda_predict_ms": ("heads.qda_predict", 1e3, False),
    "heads.rect_ms": ("heads.rectified_proto_predict", 1e3, False),
    "heads.proto_ms": ("heads.proto_labels", 1e3, False),
    "heads.prototypes_ms": ("heads.compute_prototypes", 1e3, False),
    "heads.linear_fit_ms": ("heads.linear_head_fit", 1e3, False),
    "heads.linear_predict_ms": ("heads.linear_head_predict", 1e3, False),
    "fomaml.inner_adapt_ms": ("fomaml.inner_adapt", 1e3, False),
    "api.fit_ms": ("api.fit", 1e3, False),
    "api.fit_self_ms": ("api.fit", 1e3, True),
    "api.predict_ms": ("api.predict", 1e3, False),
    "api.predict_self_ms": ("api.predict", 1e3, True),
    "api.save_learner_ms": ("api.save_learner", 1e3, False),
    "api.load_learner_ms": ("api.load_learner", 1e3, False),
}

# summed seconds over the round: metric -> (span names, self time instead of wall)
_TOTALS = {
    "dataset.generate_s": (("dataset.generate_synthetic",), False),
    "dataset.split_s": (("dataset.split_classes",), False),
    "dataset.write_s": (("dataset.write_feature_dataset",), False),
    "dataset.load_s": (("dataset.load_feature_dataset",), False),
    "dataset.parse_s": (("dataset.parse_feature_dataset",), False),
    "fomaml.meta_train_s": (("fomaml.meta_train",), False),
    "api.meta_fit_s": (("api.meta_fit",), False),
    "api.meta_fit_self_s": (("api.meta_fit",), True),
    "evaluation.evaluate_s": (("evaluation.evaluate_learner",), False),
    "evaluation.self_s": (("evaluation.evaluate_learner",), True),
    "pipeline.load_split_s": (("pipeline.load_split",), False),
    "pipeline.ingestion_s": (("pipeline.run_ingestion",), False),
    "pipeline.scoring_s": (("pipeline.run_scoring",), False),
    "pipeline.self_s": (
        ("pipeline.run_phase", "pipeline.load_split",
         "pipeline.run_ingestion", "pipeline.run_scoring"),
        True,
    ),
}

#: Every metric name ``layer_metrics`` returns, in report order.
METRIC_NAMES = tuple(
    [f"{stem}.{q}" for stem in _DISTRIBUTIONS for q in ("p50", "p99")]
    + [
        "rng.generator_calls", "sampler.episodes", "sampler.query_rows",
        "heads.sinkhorn_calls", "heads.sinkhorn_iters", "heads.sinkhorn_cells",
        "heads.sinkhorn_nonconverged", "heads.sinkhorn_nonconverged_share",
        "heads.ptmap_calls", "heads.qda_fit_calls", "heads.qda_predict_calls",
        "heads.rect_calls", "heads.proto_calls", "heads.linear_fit_calls",
        "fomaml.inner_adapt_calls", "api.fit_calls", "api.predict_calls",
        "api.artifact_bytes", "evaluation.episodes", "dataset.rows",
    ]
    + list(_TOTALS)
    + [f"pipeline.phase_s.{m}" for m in METHOD_NAMES]
)


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


class Tracer:
    """Collects spans from wrapped fewbench functions; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._installed: list[tuple[object, str, object]] = []
        self._method = "-"
        self._seed = "-"
        self._episode = "-"

    # -- context carried into trace ids -----------------------------------

    def _enter_phase(self, args, kwargs):
        self._method = _arg(args, kwargs, 0, "config").method.name
        self._seed = self._episode = "-"

    def _enter_ingestion(self, args, kwargs):
        self._seed = str(_arg(args, kwargs, 1, "seed"))
        self._episode = "-"

    def _enter_scoring(self, args, kwargs):
        self._seed = str(_arg(args, kwargs, 2, "seed"))
        self._episode = "-"

    def _enter_episode(self, args, kwargs):
        self._episode = ".".join(str(p) for p in _arg(args, kwargs, 2, "rng").path)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    f"{self._method}/{self._seed}/{self._episode}", None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                span[5] = after(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, name, before=None, after=None):
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, property):
                replacement = property(self._wrap(original.fget, name, before, after))
            else:
                replacement = self._wrap(original, name, before, after)
        else:
            original = getattr(owner, attr)
            replacement = self._wrap(original, name, before, after)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        from fewbench import api, dataset, fomaml, heads, pipeline, rng, sampler

        def sinkhorn_stats(args, kwargs, plan):
            rows, cols = plan.matrix.shape
            return {"iters": plan.iterations, "cells": plan.iterations * rows * cols,
                    "nonconverged": int(not plan.converged)}

        def episode_stats(args, kwargs, episode):
            return {"query_rows": len(episode.query_y)}

        def parse_stats(args, kwargs, table):
            return {"rows": table.total_examples}

        def artifact_stats(args, kwargs, _result):
            return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}

        p = self._patch
        # pipeline layer: the benchmark calls run_phase through the module
        p(pipeline, "run_phase", "pipeline.run_phase", before=self._enter_phase)
        p(pipeline, "load_split", "pipeline.load_split")
        p(pipeline, "run_ingestion", "pipeline.run_ingestion", before=self._enter_ingestion)
        p(pipeline, "run_scoring", "pipeline.run_scoring", before=self._enter_scoring)
        # api and evaluation entry points, at the names pipeline binds
        p(pipeline, "meta_fit", "api.meta_fit")
        p(pipeline, "save_learner", "api.save_learner", after=artifact_stats)
        p(pipeline, "load_learner", "api.load_learner")
        p(pipeline, "evaluate_learner", "evaluation.evaluate_learner")
        # evaluate_learner calls learner.fit / predictor.predict on instances
        p(api.LearnerState, "fit", "api.fit")
        p(api.PredictorState, "predict", "api.predict")
        # dataset: load_split calls the names bound in pipeline; the benchmark's
        # set-up, and load_feature_dataset's parse, use the dataset module's
        p(pipeline, "generate_synthetic", "dataset.generate_synthetic")
        p(pipeline, "split_classes", "dataset.split_classes")
        p(pipeline, "load_feature_dataset", "dataset.load_feature_dataset")
        p(dataset, "generate_synthetic", "dataset.generate_synthetic")
        p(dataset, "split_classes", "dataset.split_classes")
        p(dataset, "write_feature_dataset", "dataset.write_feature_dataset")
        p(dataset, "parse_feature_dataset", "dataset.parse_feature_dataset", after=parse_stats)
        # sampler: episode_stream and fomaml.meta_train each bind sample_episode
        p(sampler, "sample_episode", "sampler.sample_episode",
          before=self._enter_episode, after=episode_stats)
        p(fomaml, "sample_episode", "sampler.sample_episode",
          before=self._enter_episode, after=episode_stats)
        p(rng.RngState, "generator", "rng.generator")
        # fomaml: api calls fm.meta_train / fm.inner_adapt, meta_train calls inner_adapt
        p(fomaml, "meta_train", "fomaml.meta_train")
        p(fomaml, "inner_adapt", "fomaml.inner_adapt")
        # heads: api calls heads.<name>; heads functions call each other by global name
        p(heads, "sinkhorn", "heads.sinkhorn", after=sinkhorn_stats)
        for fn in ("ptmap_fit_predict", "power_transform", "qda_fit", "qda_predict",
                   "rectified_proto_predict", "proto_labels", "compute_prototypes",
                   "linear_head_fit", "linear_head_predict"):
            p(heads, fn, f"heads.{fn}")
        self._installed = list(self._patches)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def leftover_patches(self) -> list[str]:
        """Attributes patched by the last install that are not the original object."""
        left = []
        for owner, attr, original in self._installed:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return left

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trace_id, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "id": trace_id,
                                     "extra": extra}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of this round, keyed by ``METRIC_NAMES``."""
        return layer_metrics(self.spans)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Reduce spans to per-layer metrics.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap, since fewbench runs on one thread.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    wall: dict[str, list[float]] = defaultdict(list)
    own: dict[str, list[float]] = defaultdict(list)
    extras: dict[str, list[dict]] = defaultdict(list)
    phase_by_method: dict[str, float] = defaultdict(float)
    eval_episodes = 0
    for i, (name, start, end, parent, trace_id, extra) in enumerate(spans):
        wall[name].append(end - start)
        own[name].append(end - start - child_time[i])
        if extra is not None:
            extras[name].append(extra)
        if name == "pipeline.run_phase":
            phase_by_method[trace_id.split("/", 1)[0]] += end - start
        elif (name == "sampler.sample_episode" and parent >= 0
              and spans[parent][0] == "evaluation.evaluate_learner"):
            eval_episodes += 1

    out: dict[str, float] = {}
    for stem, (name, scale, use_self) in _DISTRIBUTIONS.items():
        values = [v * scale for v in (own if use_self else wall)[name]]
        out[f"{stem}.p50"] = _percentile(values, 50)
        out[f"{stem}.p99"] = _percentile(values, 99)

    def total(name: str, key: str) -> int:
        return sum(e[key] for e in extras[name])

    calls = len(wall["heads.sinkhorn"])
    nonconverged = total("heads.sinkhorn", "nonconverged")
    out.update({
        "rng.generator_calls": len(wall["rng.generator"]),
        "sampler.episodes": len(wall["sampler.sample_episode"]),
        "sampler.query_rows": total("sampler.sample_episode", "query_rows"),
        "heads.sinkhorn_calls": calls,
        "heads.sinkhorn_iters": total("heads.sinkhorn", "iters"),
        "heads.sinkhorn_cells": total("heads.sinkhorn", "cells"),
        "heads.sinkhorn_nonconverged": nonconverged,
        "heads.sinkhorn_nonconverged_share": nonconverged / calls if calls else 0.0,
        "heads.ptmap_calls": len(wall["heads.ptmap_fit_predict"]),
        "heads.qda_fit_calls": len(wall["heads.qda_fit"]),
        "heads.qda_predict_calls": len(wall["heads.qda_predict"]),
        "heads.rect_calls": len(wall["heads.rectified_proto_predict"]),
        "heads.proto_calls": len(wall["heads.proto_labels"]),
        "heads.linear_fit_calls": len(wall["heads.linear_head_fit"]),
        "fomaml.inner_adapt_calls": len(wall["fomaml.inner_adapt"]),
        "api.fit_calls": len(wall["api.fit"]),
        "api.predict_calls": len(wall["api.predict"]),
        "api.artifact_bytes": total("api.save_learner", "bytes"),
        "evaluation.episodes": eval_episodes,
        "dataset.rows": total("dataset.parse_feature_dataset", "rows"),
    })
    for metric, (names, use_self) in _TOTALS.items():
        source = own if use_self else wall
        out[metric] = sum(sum(source[n]) for n in names)
    for method in METHOD_NAMES:
        out[f"pipeline.phase_s.{method}"] = phase_by_method.get(method, 0.0)
    return {name: out[name] for name in METRIC_NAMES}
