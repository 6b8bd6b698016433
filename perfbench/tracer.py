"""Per-layer tracing from outside the program.

`Tracer.install` replaces the layer entry points of the peerseg modules with
thin wrappers.  It rebinds every module attribute that holds the original
function, so names that one module imported from another (`trainer` holds
`project_to_voxel`, `cutmix_range`, ...; `losses` holds `cross_transfer`;
`cli` holds `read_scan`, `save_checkpoint`, ...) are caught as well.  Each call
becomes a span (name, parent, start, end) kept in memory and written out once
at the end.  Counts are taken at the same boundaries; the work of taking them
is itself recorded as a `bench.overhead` span, so it is charged to no layer.

`per_layer_metrics` turns the written spans and counts into the benchmark's
per-layer metrics.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import weakref
from time import perf_counter

import numpy as np

from workloads import positions_key

# (module, function or Class.method) -> span name
ENTRY_POINTS = {
    ("projection", "project_to_range"): "projection.project_to_range",
    ("projection", "project_to_voxel"): "projection.project_to_voxel",
    ("projection", "cells_to_points"): "projection.cells_to_points",
    ("projection", "point_labels_to_grid"): "projection.point_labels_to_grid",
    ("projection", "cross_transfer"): "projection.cross_transfer",
    ("augment", "cutmix_range"): "augment.cutmix_range",
    ("augment", "lasermix_voxel"): "augment.lasermix_voxel",
    ("autodiff", "Tensor.backward"): "autodiff.backward",
    ("model", "trunk_hidden"): "model.trunk_hidden",
    ("model", "segment_logits"): "model.segment_logits",
    ("model", "project_embed"): "model.project_embed",
    ("model", "forward_segment"): "model.forward_segment",
    ("model", "probs_grid"): "model.probs_grid",
    ("model", "sgd_step"): "model.optimizer_step",
    ("model", "AdamW.step"): "model.optimizer_step",
    ("model", "save_checkpoint"): "model.save_checkpoint",
    ("model", "load_checkpoint"): "model.load_checkpoint",
    ("losses", "set_supervised_loss"): "losses.set_supervised_loss",
    ("losses", "make_pseudo_labels"): "losses.make_pseudo_labels",
    ("gmm", "mine_anchors"): "gmm.mine_anchors",
    ("gmm", "contrastive_loss"): "gmm.contrastive_loss",
    ("gmm", "collect_embeddings"): "gmm.collect_embeddings",
    ("gmm", "em_update"): "gmm.em_update",
    ("gmm", "ema_update"): "gmm.ema_update",
    ("metrics", "ConfusionMatrix.update"): "metrics.confusion",
    ("metrics", "ConfusionMatrix.iou"): "metrics.confusion",
    ("metrics", "ConfusionMatrix.miou"): "metrics.confusion",
    ("metrics", "fuse_predictions"): "metrics.fuse_predictions",
    ("scans", "generate_scene"): "scans.generate",
    ("scans", "write_scan"): "scans.write",
    ("scans", "read_scan"): "scans.read",
    ("trainer", "train"): "trainer.train",
    ("trainer", "evaluate"): "trainer.evaluate",
    ("cli", "main"): "cli.main",
}

OVERHEAD = "bench.overhead"

# Self time in ms per training iteration, summed over spans under `train`.
TRAIN_LAYERS = (
    "projection.cross_transfer", "projection.point_labels_to_grid",
    "projection.project_to_voxel", "projection.project_to_range",
    "projection.cells_to_points", "augment.cutmix_range", "augment.lasermix_voxel",
    "autodiff.backward", "model.trunk_hidden", "model.segment_logits",
    "model.project_embed", "model.optimizer_step", "losses.set_supervised_loss",
    "losses.make_pseudo_labels", "gmm.mine_anchors", "gmm.contrastive_loss",
    "gmm.collect_embeddings", "gmm.em_update", "gmm.ema_update",
)

# Self time in ms per scored scan, summed over spans under `evaluate`.
EVAL_LAYERS = {
    "eval.projection_ms": ("projection.project_to_range", "projection.project_to_voxel"),
    "eval.model_forward_ms": ("model.forward_segment", "model.trunk_hidden",
                              "model.segment_logits"),
    "eval.probs_grid_ms": ("model.probs_grid",),
    "eval.cells_to_points_ms": ("projection.cells_to_points",),
    "eval.metrics_ms": ("metrics.confusion", "metrics.fuse_predictions"),
}

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {f"{n}_ms": ("ms/iter", "lower") for n in TRAIN_LAYERS}
PER_LAYER["trainer.train_self_ms"] = ("ms/iter", "lower")
PER_LAYER.update({n: ("ms/scan", "lower") for n in EVAL_LAYERS})
PER_LAYER.update({
    "eval.trainer_self_ms": ("ms/scan", "lower"),
    "scans.generate_ms": ("ms/scan", "lower"),
    "scans.write_ms": ("ms/scan", "lower"),
    "scans.read_ms": ("ms/scan", "lower"),
    "model.save_checkpoint_ms": ("ms/call", "lower"),
    "model.load_checkpoint_ms": ("ms/call", "lower"),
    "cli.self_ms": ("ms/command", "lower"),
    "projection.voxelizations_per_iter": ("count", "lower"),
    "projection.grid_mb_per_scan": ("MB", "lower"),
    "autodiff.tape_nodes_per_iter": ("count", "lower"),
    "gmm.anchors_per_iter": ("count", "higher"),
    "gmm.hard_anchor_share": ("ratio", "lower"),
    "losses.pseudo_label_accuracy": ("ratio", "higher"),
    "trace.train_s": ("s", "lower"),
})

MB = float(1 << 20)


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _tape_nodes(loss) -> int:
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class Tracer:
    """Spans and counts for one process; `truth` maps positions_key -> labels."""

    def __init__(self, truth=None):
        self.truth = truth or {}
        self.spans = []          # [name, parent index, start, end]
        self.stack = []
        self.counters = {}
        self._truth_views = {}   # id(RangeImage) -> (weakref, hidden labels)
        self._observers = {
            "projection.project_to_range": self._saw_range,
            "projection.project_to_voxel": self._saw_voxel,
            "autodiff.backward": self._saw_backward,
            "gmm.mine_anchors": self._saw_anchors,
            "losses.make_pseudo_labels": self._saw_pseudo_labels,
        }

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"peerseg.{name}")
                   for name in {m for m, _ in ENTRY_POINTS}}
        loaded = [m for n, m in sys.modules.items()
                  if (n == "peerseg" or n.startswith("peerseg.")) and m is not None]
        for (mod_name, attr), span_name in ENTRY_POINTS.items():
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), span_name))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, span_name)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if observe is not None:
                extra = [OVERHEAD, parent, perf_counter(), 0.0]
                spans.append(extra)
                observe(args, result)
                extra[3] = perf_counter()
            return result

        return wrapper

    # -- counts taken at layer boundaries ---------------------------------

    def _add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _saw_range(self, args, rimg):
        self._add("range_grids", 1)
        self._add("range_grid_bytes", _array_bytes(rimg))
        labels = self.truth.get(positions_key(args[0].positions))
        if labels is not None:
            self._truth_views[id(rimg)] = (weakref.ref(rimg), labels)

    def _saw_voxel(self, args, vox):
        self._add("voxel_grids", 1)
        self._add("voxel_grid_bytes", _array_bytes(vox))

    def _saw_backward(self, args, _):
        self._add("tape_nodes", _tape_nodes(args[0]))

    def _saw_anchors(self, args, anchors):
        self._add("anchors", anchors.num_easy + anchors.num_hard)
        self._add("hard_anchors", anchors.num_hard)

    def _saw_pseudo_labels(self, args, result):
        rimg, vox = args[2], args[3]
        entry = self._truth_views.get(id(rimg))
        if entry is None or entry[0]() is not rimg:
            return
        truth = entry[1].astype(np.int64)
        for_range, for_voxel = result
        u, v = rimg.pixel_of_point[:, 0], rimg.pixel_of_point[:, 1]
        h, w, l = (vox.voxel_of_point[:, i] for i in range(3))
        hits = int((for_range.labels[u, v] == truth).sum())
        hits += int((for_voxel.labels[h, w, l] == truth).sum())
        self._add("pseudo_label_hits", hits)
        self._add("pseudo_label_points", 2 * truth.shape[0])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def self_times(spans):
    """Per-span self time in seconds: duration minus its direct children."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _context(spans, roots):
    """Index of the nearest enclosing span whose name is in roots, per span."""
    ctx = []
    for _, parent, _, _ in spans:
        if parent < 0:
            ctx.append(-1)
        elif spans[parent][0] in roots:
            ctx.append(parent)
        else:
            ctx.append(ctx[parent])
    return ctx


def per_layer_metrics(trace: dict, train_s: float) -> dict:
    """The per-layer metrics from a dumped trace; values are plain floats."""
    spans, counters = trace["spans"], trace["counters"]
    own = self_times(spans)
    ctx = _context(spans, {"trainer.train", "trainer.evaluate"})
    sums = {"train": {}, "evaluate": {}, None: {}}
    calls = {"train": {}, "evaluate": {}, None: {}}
    root_time = {"train": 0.0, "evaluate": 0.0}
    for i, (name, _, start, end) in enumerate(spans):
        where = None if ctx[i] < 0 else spans[ctx[i]][0].split(".")[1]
        if name in ("trainer.train", "trainer.evaluate"):
            root_time[name.split(".")[1]] += end - start
            where = None
        sums[where][name] = sums[where].get(name, 0.0) + own[i]
        calls[where][name] = calls[where].get(name, 0) + 1

    def total(where, names):
        return sum(sums[where].get(n, 0.0) for n in names)

    def count(where, name):
        return calls[where].get(name, 0)

    def every(name):
        return sum(calls[w].get(name, 0) for w in calls)

    def per(value, n, scale=1000.0):
        return value * scale / n if n else 0.0

    out = {}
    iters = count("train", "model.optimizer_step")
    for name in TRAIN_LAYERS:
        out[f"{name}_ms"] = per(total("train", [name]), iters)
    # Time under train that no listed layer accounts for, tracing overhead aside.
    listed = total("train", TRAIN_LAYERS) + total("train", [OVERHEAD])
    out["trainer.train_self_ms"] = per(root_time["train"] - listed, iters)

    scans = count("evaluate", "projection.project_to_range")
    for metric, names in EVAL_LAYERS.items():
        out[metric] = per(total("evaluate", names), scans)
    listed = sum(total("evaluate", names) for names in EVAL_LAYERS.values())
    listed += total("evaluate", [OVERHEAD])
    out["eval.trainer_self_ms"] = per(root_time["evaluate"] - listed, scans)

    def everywhere(name):
        return sum(sums[w].get(name, 0.0) for w in sums)

    for metric, name in (("scans.generate_ms", "scans.generate"),
                         ("scans.write_ms", "scans.write"),
                         ("scans.read_ms", "scans.read"),
                         ("model.save_checkpoint_ms", "model.save_checkpoint"),
                         ("model.load_checkpoint_ms", "model.load_checkpoint"),
                         ("cli.self_ms", "cli.main")):
        out[metric] = per(everywhere(name), every(name))

    out["projection.voxelizations_per_iter"] = per(
        count("train", "projection.project_to_voxel"), iters, 1.0)
    grid_bytes = (per(counters.get("range_grid_bytes", 0), counters.get("range_grids", 0), 1.0)
                  + per(counters.get("voxel_grid_bytes", 0), counters.get("voxel_grids", 0), 1.0))
    out["projection.grid_mb_per_scan"] = grid_bytes / MB
    out["autodiff.tape_nodes_per_iter"] = per(counters.get("tape_nodes", 0), iters, 1.0)
    anchors = counters.get("anchors", 0)
    out["gmm.anchors_per_iter"] = per(anchors, iters, 1.0)
    out["gmm.hard_anchor_share"] = per(counters.get("hard_anchors", 0), anchors, 1.0)
    out["losses.pseudo_label_accuracy"] = per(
        counters.get("pseudo_label_hits", 0), counters.get("pseudo_label_points", 0), 1.0)
    out["trace.train_s"] = float(train_s)
    return out

