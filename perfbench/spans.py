"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each layer's public functions with a timing
wrapper at every binding site: the defining module and every `lidarshape`
module (the package `__init__`, `cli`, `evaluate`, `alignment`, ...) that
imported the function by name. Private helpers are left alone. Each call
becomes a span (name, start, end, parent); spans and counts stay in
memory and are turned into metrics once the traced run ends.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# layer -> public functions timed at the layer boundary
LAYERS: Dict[str, Tuple[str, ...]] = {
    "core": ("load_cloud", "save_cloud", "emd_1d"),
    "octree": ("build_octree", "nodes_at_level"),
    "shapedist": ("exact_sd", "hsd"),
    "evaluate": ("load_manifest", "dataset_features", "distance_matrix", "group_stats",
                 "write_matrix_csv", "write_stats_csv", "write_matrix_pgm"),
    "alignment": ("similarity_matrix", "icp_4dof", "align_group", "write_similarity_csv",
                  "write_transforms_csv", "write_merges_csv"),
    "roi": ("build_grid", "tile_features", "basic_filter", "train_class_model", "refine_roi",
            "write_roi_csv", "write_roi_pgm"),
    "spinimage": ("spin_images", "train_codebook", "save_codebook", "encode_all",
                  "cluster_parts", "write_spin_pgm"),
}
KINDS = ("D2", "A3", "T3", "R3")


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int = 0
    parent: Optional[int] = None  # index into Tracer.spans


@dataclass
class Tracer:
    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    _stack: List[int] = field(default_factory=list)
    _restore: List[Tuple[object, str, object]] = field(default_factory=list)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, layer: str, fn: Callable) -> Callable:
        sig = inspect.signature(fn)
        counter = COUNTERS.get(fn.__name__)
        by_kind = fn.__name__ in ("hsd", "exact_sd")  # one span name per feature kind

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = fn.__name__
            if counter is not None or by_kind:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if by_kind:
                    name = f"{name}.{bound.arguments['kind']}"
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            span = Span(name, 0, parent=parent)
            self.spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(f"{layer}.errors")
                raise
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                counter(self, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function at each `lidarshape` binding site."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lidarshape" or n.startswith("lidarshape."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"lidarshape.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(layer, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# counts taken at the call boundary from arguments and results
# ---------------------------------------------------------------------------


def _count_load(tr: Tracer, args, result) -> None:
    tr.count("core.load_cloud.points", len(result))


def _count_build(tr: Tracer, args, result) -> None:
    tr.count("octree.build_octree.points", len(args["cloud"]))


def _count_nodes(tr: Tracer, args, result) -> None:
    tr.count("octree.reps", sum(len(node.reps) for node in result))


def _count_hsd(tr: Tracer, args, result) -> None:
    from lidarshape.octree import nodes_at_level
    from lidarshape.shapedist import ARITY

    # the module attribute may be wrapped; its __wrapped__ is not timed again
    levels = getattr(nodes_at_level, "__wrapped__", nodes_at_level)
    n_reps = sum(len(node.reps) for node in levels(args["root"], args["level"]))
    tr.count("shapedist.hsd.calls")
    tr.count("shapedist.hsd.votes",
             min(math.comb(n_reps, ARITY[args["kind"]]), args["cfg"].sample_budget))


def _count_exact(tr: Tracer, args, result) -> None:
    from lidarshape.shapedist import ARITY

    tuples = math.comb(len(args["cloud"]), ARITY[args["kind"]])
    tr.count("shapedist.exact_sd.tuples", min(tuples, args["cfg"].sample_budget))


def _count_grid(tr: Tracer, args, result) -> None:
    tr.count("roi.tiles", len(result.cells))


def _count_basic(tr: Tracer, args, result) -> None:
    tr.count("roi.tiles_basic", len(result))


def _count_refined(tr: Tracer, args, result) -> None:
    tr.count("roi.tiles_refined", len(result))


def _count_images(tr: Tracer, args, result) -> None:
    tr.count("spinimage.spin_images.images", len(result))


COUNTERS = {
    "load_cloud": _count_load,
    "build_octree": _count_build,
    "nodes_at_level": _count_nodes,
    "hsd": _count_hsd,
    "exact_sd": _count_exact,
    "build_grid": _count_grid,
    "basic_filter": _count_basic,
    "refine_roi": _count_refined,
    "spin_images": _count_images,
}


# ---------------------------------------------------------------------------
# span arithmetic and the per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: List[Span]) -> List[int]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span (ns)."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


# metric -> span names whose busy time (or, for ".self_s", self time) it sums
TIMED = {
    "core.load_cloud.s": ("load_cloud",),
    "core.save_cloud.s": ("save_cloud",),
    "core.emd_1d.s": ("emd_1d",),
    "octree.build_octree.s": ("build_octree",),
    **{f"shapedist.hsd.{k}.s": (f"hsd.{k}",) for k in KINDS},
    **{f"shapedist.exact_sd.{k}.s": (f"exact_sd.{k}",) for k in KINDS},
    "evaluate.load_manifest.s": ("load_manifest",),
    "evaluate.dataset_features.self_s": ("dataset_features",),
    "evaluate.distance_matrix.s": ("distance_matrix",),
    "evaluate.distance_matrix.self_s": ("distance_matrix",),
    "evaluate.group_stats.s": ("group_stats",),
    "evaluate.write_s": ("write_matrix_csv", "write_stats_csv", "write_matrix_pgm"),
    "alignment.similarity_matrix.s": ("similarity_matrix",),
    "alignment.similarity_matrix.self_s": ("similarity_matrix",),
    "alignment.icp_4dof.s": ("icp_4dof",),
    "alignment.align_group.self_s": ("align_group",),
    "alignment.write_s": ("write_similarity_csv", "write_transforms_csv", "write_merges_csv"),
    "roi.build_grid.s": ("build_grid",),
    "roi.tile_features.s": ("tile_features",),
    "roi.refine_roi.s": ("refine_roi",),
    "roi.write_s": ("write_roi_csv", "write_roi_pgm"),
    "spinimage.spin_images.s": ("spin_images",),
    "spinimage.train_codebook.s": ("train_codebook",),
    "spinimage.encode_all.s": ("encode_all",),
    "spinimage.cluster_parts.s": ("cluster_parts",),
}
COUNTED = (
    "core.load_cloud.points", "core.emd_1d.calls", "octree.build_octree.points", "octree.reps",
    "shapedist.hsd.calls", "shapedist.hsd.votes", "shapedist.exact_sd.tuples",
    "alignment.icp_4dof.calls", "roi.tiles", "roi.tiles_basic", "roi.tiles_refined",
    "spinimage.spin_images.images",
)


def layer_metrics(tracer: Tracer, wall_ns: int) -> Dict[str, float]:
    """Per-layer metrics of one traced run that took `wall_ns` in total."""
    spans = tracer.spans
    selfs = self_times(spans)
    busy: Dict[str, int] = {}
    own: Dict[str, int] = {}
    for s, self_ns in zip(spans, selfs):
        busy[s.name] = busy.get(s.name, 0) + s.end - s.start
        own[s.name] = own.get(s.name, 0) + self_ns
    out: Dict[str, float] = {}
    for metric, names in TIMED.items():
        table = own if metric.endswith(".self_s") else busy
        out[metric] = sum(table.get(n, 0) for n in names) / 1e9
    calls = {n: sum(1 for s in spans if s.name == n) for n in ("emd_1d", "icp_4dof")}
    counts = dict(tracer.counts, **{"core.emd_1d.calls": calls["emd_1d"],
                                     "alignment.icp_4dof.calls": calls["icp_4dof"]})
    for metric in COUNTED:
        out[metric] = float(counts.get(metric, 0))
    hsd_ms = [(s.end - s.start) / 1e6 for s in spans if s.name.startswith("hsd.")]
    p50, p90 = np.percentile(hsd_ms, [50, 90]) if hsd_ms else (0.0, 0.0)
    out["shapedist.hsd.call_ms.p50"] = float(p50)
    out["shapedist.hsd.call_ms.p90"] = float(p90)
    top = sum(s.end - s.start for s in spans if s.parent is None)
    out["cli.other_s"] = (wall_ns - top) / 1e9
    for layer in LAYERS:
        out[f"{layer}.errors"] = float(tracer.counts.get(f"{layer}.errors", 0))
    return out
