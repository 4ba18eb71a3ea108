"""In-memory span tracer that wraps regrow's public functions from outside.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent, request id) and, for a few
functions, a counter derived from the arguments or the result. A function is
replaced in every regrow module that holds a reference to it, so
`grow_step` is traced whether `regrow.grow` or `regrow.search` calls it.
Methods are replaced on their class. `uninstall()` restores the originals.

Request ids group the spans of one scene or one training batch: a span named
in `REQUEST_STARTS` opens a new id, and later spans inherit the current id.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

REQUEST_STARTS = ("pointcloud.load_scene", "network.forward_batch")
STRATEGIES = ("greedy", "rr-np", "bs-np")
CLI_COMMANDS = ("features", "simulate", "train", "segment", "baseline", "eval")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int       # index into Tracer.spans, -1 for a root span
    request: int
    tag: str = ""


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # targets not found, left untraced
    _request: int = 0
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording -----------------------------------------------------------

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _wrap(self, name: str, fn, on_call=None, on_result=None, tag=None):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            if name in REQUEST_STARTS and not (
                    parent >= 0 and tracer.spans[parent].name == "network.predict"):
                tracer._request += 1
            if on_call is not None:
                on_call(tracer, args, kwargs)
            span = Span(name, time.perf_counter(), 0.0, parent, tracer._request,
                        tag(args, kwargs) if tag else "")
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, span, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, module, attr: str, name: str | None = None, **hooks) -> None:
        """Replace `module.attr` in every loaded regrow module that refers to it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        traced = self._wrap(name or f"{module.__name__.split('.')[-1]}.{attr}",
                            original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "regrow" or mod_name.startswith("regrow.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, traced)

    def wrap_method(self, module, cls_name: str, attr: str, name: str, **hooks) -> None:
        """Replace a method on its class, where every instance looks it up."""
        cls = getattr(module, cls_name, None)
        if cls is None or attr not in vars(cls):
            self.missing.append(f"{module.__name__}.{cls_name}.{attr}")
            return
        self._patch(cls, attr, self._wrap(name, vars(cls)[attr], **hooks))

    def install(self) -> "Tracer":
        """Wrap every traced target; a target that no longer exists is listed
        in `missing` and its metrics read 0."""
        self.missing.clear()
        from regrow import baselines, cli, features, grow, metrics, network
        from regrow import pointcloud, search, simulate, synth

        fn = self.wrap_function
        fn(pointcloud, "load_scene",
           on_result=lambda t, _, cloud: t.count("pointcloud.points_loaded", cloud.n_points))
        fn(synth, "generate_room")
        fn(features, "compute_features")
        fn(features, "build_context")
        fn(features, "sample_fixed", on_call=_count_resampled)
        fn(features, "normalize_inputs")
        self.wrap_method(features, "SpatialIndex", "neighbor_lists", "features.neighbor_lists",
                         on_result=lambda t, _, csr: t.count("features.adjacency_pairs",
                                                             len(csr[1])))
        for method in ("add", "remove", "frontier", "copy"):
            self.wrap_method(features, "FrontierTracker", method, f"features.tracker.{method}")
        fn(simulate, "corrupt_region")
        fn(simulate, "make_training_sample",
           on_result=lambda t, _, sample: t.count("simulate.samples", sample is not None))
        fn(simulate, "instance_closure")
        fn(simulate, "generate_dataset")
        fn(simulate, "load_dataset", on_result=_count_dataset)
        fn(network, "train")
        fn(network, "forward_batch", on_call=_count_train_rows)
        fn(network, "backward")
        fn(network, "adam_step")
        fn(network, "save_params")
        fn(network, "load_params")
        self.wrap_method(network, "Predictor", "__call__", "network.predict")
        fn(grow, "segment_scene", on_result=_count_regions)
        fn(grow, "grow_region")
        fn(grow, "grow_step")
        fn(grow, "select_seed")
        fn(grow, "reassign_small_segments")
        fn(search, "run_search", on_result=_count_search, tag=_strategy_tag)
        fn(baselines, "grow_threshold", on_result=_count_segments)
        fn(baselines, "grow_smoothness", on_result=_count_segments)
        fn(metrics, "score_scene")
        fn(metrics, "expected_mutual_information")
        fn(metrics, "build_contingency",
           on_result=lambda t, _, c: t.count("metrics.contingency_cells", c.counts.size))
        for command in CLI_COMMANDS:
            self._patch_command(cli, command)
        return self

    def _patch_command(self, cli, command: str) -> None:
        table = cli._COMMANDS
        if command not in table:
            self.missing.append(f"cli.{command}")
            return
        original = table[command]
        self._patches.append((table, command, original))
        table[command] = self._wrap(f"cli.{command}", original)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._request = 0

    # -- reporting -----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "request": s.request, "tag": s.tag}) + "\n")

    def summary(self) -> "TraceSummary":
        return TraceSummary(self.spans)


class TraceSummary:
    """Per-name span statistics over a finished trace."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.duration = np.array([s.end - s.start for s in spans])
        self.child_time = np.zeros(len(spans))
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            if s.parent >= 0:
                self.child_time[s.parent] += self.duration[i]
            self.by_name.setdefault(s.name, []).append(i)

    def nesting_errors(self, slack: float = 1e-6) -> int:
        """Spans that are not contained in their parent (0 for a sound trace)."""
        bad = int((self.child_time > self.duration + slack).sum())
        for s in self.spans:
            if s.parent >= 0:
                p = self.spans[s.parent]
                bad += s.start < p.start or s.end > p.end
        return bad

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def select(self, name: str, under: str | None = None, parent: str | None = None,
               tag: str | None = None) -> list[int]:
        """Spans called `name` or `name.*`, optionally filtered by context."""
        idx = [i for key, ids in self.by_name.items()
               if key == name or key.startswith(name + ".") for i in ids]
        if tag is not None:
            idx = [i for i in idx if self.spans[i].tag == tag]
        if parent is not None:
            idx = [i for i in idx if self.spans[i].parent >= 0
                   and self.spans[self.spans[i].parent].name == parent]
        if under is not None:
            idx = [i for i in idx if self._has_ancestor(i, under)]
        return idx

    def stats(self, name: str, **where) -> dict[str, float]:
        """calls, s (busy), self_s and ms_p50/ms_p99 of the matching spans."""
        idx = self.select(name, **where)
        if not idx:
            return {"calls": 0, "s": 0.0, "self_s": 0.0, "ms_p50": 0.0, "ms_p99": 0.0}
        dur = self.duration[idx]
        return {
            "calls": len(idx),
            "s": float(dur.sum()),
            "self_s": float(dur.sum() - self.child_time[idx].sum()),
            "ms_p50": float(np.percentile(dur, 50) * 1e3),
            "ms_p99": float(np.percentile(dur, 99) * 1e3),
        }


def _count_resampled(tracer: Tracer, args, kwargs) -> None:
    indices = args[0]
    count = args[1] if len(args) > 1 else kwargs["count"]
    tracer.count("features.sample_fixed.resampled", len(indices) < count)


def _count_train_rows(tracer: Tracer, args, kwargs) -> None:
    parent = tracer._stack[-1] if tracer._stack else -1
    if parent >= 0 and tracer.spans[parent].name == "network.train":
        tracer.count("network.train_samples", len(args[1]))


def _count_dataset(tracer: Tracer, _span, ds) -> None:
    arrays = (ds.inlier_features, ds.neighbor_features, ds.remove_target,
              ds.add_target, ds.meta)
    tracer.count("simulate.dataset_mb", sum(a.nbytes for a in arrays) / 2**20)


def _count_regions(tracer: Tracer, _span, result) -> None:
    _labels, stats = result
    tracer.count("grow.instances", stats["instances"])
    tracer.count("grow.regions_grown", stats["regions_grown"])


def _strategy_tag(args, kwargs) -> str:
    search_cfg = args[5] if len(args) > 5 else kwargs["search_cfg"]
    return search_cfg.strategy


def _count_search(tracer: Tracer, span, result) -> None:
    tracer.count(f"search.run_search.{span.tag}.inferences", result.inferences)


def _count_segments(tracer: Tracer, _span, labels) -> None:
    tracer.count("baselines.segments", int(labels.max()))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: TraceSummary, counters: dict[str, float],
                  train_flops: float, predict_flops: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    c = lambda key: counters.get(key, 0.0)  # noqa: E731
    st = summary.stats
    m: dict[str, tuple[float, str]] = {}

    def busy(name: str, stats: dict, *keys: str) -> None:
        units = {"s": "s", "self_s": "s", "calls": "count", "ms_p50": "ms", "ms_p99": "ms"}
        for key in keys:
            m[f"{name}.{key}"] = (stats[key], units[key])

    busy("pointcloud.load_scene", st("pointcloud.load_scene"), "s", "calls")
    m["pointcloud.points_loaded"] = (c("pointcloud.points_loaded"), "count")

    busy("features.compute_features", st("features.compute_features"), "s")
    busy("features.neighbor_lists", st("features.neighbor_lists"), "s")
    m["features.adjacency_pairs"] = (c("features.adjacency_pairs"), "count")
    busy("features.build_context", st("features.build_context"), "s", "calls")
    sample = st("features.sample_fixed")
    busy("features.sample_fixed", sample, "s", "calls")
    m["features.sample_fixed.resampled_ratio"] = (
        _ratio(c("features.sample_fixed.resampled"), sample["calls"]), "ratio")
    busy("features.normalize_inputs", st("features.normalize_inputs"), "s", "calls")
    busy("features.tracker", st("features.tracker"), "s", "calls")
    m["features.tracker_copy.calls"] = (st("features.tracker.copy")["calls"], "count")

    busy("simulate.corrupt_region", st("simulate.corrupt_region"), "s", "calls")
    make = st("simulate.make_training_sample")
    busy("simulate.make_training_sample", make, "s", "calls")
    m["simulate.sample_yield_ratio"] = (_ratio(c("simulate.samples"), make["calls"]), "ratio")
    busy("simulate.instance_closure", st("simulate.instance_closure"), "s")
    busy("simulate.load_dataset", st("simulate.load_dataset"), "s")
    m["simulate.dataset_mb"] = (c("simulate.dataset_mb"), "MB")

    fwd = st("network.forward_batch", parent="network.train")
    bwd = st("network.backward")
    m["network.forward_train.s"] = (fwd["s"], "s")
    busy("network.backward", bwd, "s")
    busy("network.adam_step", st("network.adam_step"), "s")
    busy("network.save_params", st("network.save_params"), "s")
    m["network.batches"] = (fwd["calls"], "count")
    m["network.train_model_gflop_per_s"] = (
        _ratio(train_flops * c("network.train_samples"), fwd["s"] + bwd["s"]) / 1e9, "GFLOP/s")
    predict = st("network.predict")
    busy("network.predict", predict, "calls", "s", "ms_p50", "ms_p99")
    m["network.predict_model_gflop_per_s"] = (
        _ratio(predict_flops * predict["calls"], predict["s"]) / 1e9, "GFLOP/s")
    busy("network.load_params", st("network.load_params"), "s")

    busy("grow.segment_scene", st("grow.segment_scene"), "s")
    busy("grow.grow_region", st("grow.grow_region"), "calls", "ms_p50", "ms_p99")
    busy("grow.grow_step", st("grow.grow_step"), "calls", "self_s")
    busy("grow.select_seed", st("grow.select_seed", under="grow.segment_scene"), "s")
    busy("grow.reassign_small_segments",
         st("grow.reassign_small_segments", under="grow.segment_scene"), "s")
    m["grow.kept_region_ratio"] = (
        _ratio(c("grow.instances"), c("grow.regions_grown")), "ratio")

    for strategy in STRATEGIES:
        name = f"search.run_search.{strategy}"
        runs = st("search.run_search", tag=strategy)
        busy(name, runs, "calls", "ms_p50", "ms_p99", "self_s")
        m[f"{name}.inferences_per_seed"] = (
            _ratio(c(f"{name}.inferences"), runs["calls"]), "ratio")

    busy("baselines.grow_threshold", st("baselines.grow_threshold"), "s")
    busy("baselines.grow_smoothness", st("baselines.grow_smoothness"), "s")
    m["baselines.segments"] = (c("baselines.segments"), "count")

    busy("metrics.score_scene", st("metrics.score_scene"), "s")
    busy("metrics.expected_mutual_information", st("metrics.expected_mutual_information"), "s")
    m["metrics.contingency_cells"] = (c("metrics.contingency_cells"), "count")

    for command in CLI_COMMANDS:
        busy(f"cli.{command}", st(f"cli.{command}"), "s", "self_s")
    return m
