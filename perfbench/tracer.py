"""Outside tracer: wraps tsagg's public functions and records spans.

The program is not changed. Each target below is looked up by name and the
function object found there is replaced, by identity, in every ``tsagg.*``
module namespace that binds it (``reconstruct`` is bound in
``tsagg.metrics``, ``tsagg.pathway``, ``tsagg.cli`` and ``tsagg``); methods
and properties are replaced on their class. A target whose name no longer
exists is reported as absent with zero calls instead of failing, because
planned refactors delete some of these names.

A span is ``[name, op, parent, start, end, extra]``: the layer name, the
operation id, the index of the enclosing span (-1 at the root), two
``perf_counter`` readings and a per-layer value (see ``_before``/``_after``).
Spans stay in memory until the caller writes them out.

``ward_linkage`` and ``Linkage.cut`` serve two layers. Called under a
``segmentation.*`` span they are segmentation work: no span is opened, so
their time stays in the segmentation span's self time. Anywhere else they
are the period clustering, ``hierarchy.period_linkage`` and
``hierarchy.period_cut``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import tracemalloc
from time import perf_counter

import numpy as np

# (layer, module, attribute path); layers resolved per call are marked below
TARGETS = (
    ("cli.read_csv", "tsagg.cli", "read_csv"),
    ("cli.write_representatives", "tsagg.cli", "write_representatives"),
    ("cli.write_mapping", "tsagg.cli", "write_mapping"),
    ("cli.write_pathway", "tsagg.cli", "write_pathway"),
    ("cli.write_json", "tsagg.cli", "write_json"),
    ("core.validate_and_build", "tsagg.core", "validate_and_build"),
    ("core.normalize", "tsagg.core", "normalize"),
    ("core.to_periods", "tsagg.core", "to_periods"),
    ("hierarchy.ward_linkage", "tsagg.hierarchy", "ward_linkage"),  # by parent
    ("hierarchy.Linkage.cut", "tsagg.hierarchy", "Linkage.cut"),  # by parent
    ("hierarchy.Connectivity.n_components", "tsagg.hierarchy",
     "Connectivity.n_components"),
    ("hierarchy.medoid_of", "tsagg.hierarchy", "medoid_of"),
    ("representation.represent", "tsagg.representation", "represent"),
    ("segmentation.segment_linkage", "tsagg.segmentation", "segment_linkage"),
    ("segmentation.cut_segments", "tsagg.segmentation", "cut_segments"),
    ("segmentation.SegmentLayout.expand", "tsagg.segmentation",
     "SegmentLayout.expand"),
    ("metrics.reconstruct", "tsagg.metrics", "reconstruct"),
    ("metrics.rmse_tot", "tsagg.metrics", "rmse_tot"),
    ("metrics.build_report", "tsagg.metrics", "build_report"),
    ("pathway.evaluate", "tsagg.pathway", "ConfigEvaluator.evaluate"),
    ("pathway.pathway_search", "tsagg.pathway", "pathway_search"),
)

# parent-dependent targets: name outside segmentation
_PERIOD_NAMES = {
    "hierarchy.ward_linkage": "hierarchy.period_linkage",
    "hierarchy.Linkage.cut": "hierarchy.period_cut",
}

ROOT = "cli.main"

# every layer a summary reports, in report order
LAYERS = (ROOT,) + tuple(_PERIOD_NAMES.get(t[0], t[0]) for t in TARGETS)


class Tracer:
    """Installs wrappers around TARGETS and collects spans."""

    def __init__(self, track_alloc: bool = False):
        # tracemalloc doubles the period linkage's time, so peaks are
        # taken in runs of their own
        self.track_alloc = track_alloc
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        self.absent.clear()
        for layer, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(layer)
                continue
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None:
                self.absent.append(layer)
            elif isinstance(owner, type):
                self._install_on_class(layer, owner, attr)
            else:
                self._install_by_identity(layer, owner, attr)

    def _install_on_class(self, layer: str, cls: type, attr: str) -> None:
        for klass in cls.__mro__:
            if attr in vars(klass):
                static = vars(klass)[attr]
                break
        else:
            self.absent.append(layer)
            return
        if isinstance(static, property):
            wrapped = property(self._wrap(layer, static.fget))
        else:
            wrapped = self._wrap(layer, static)
        self._restore.append((cls, attr, vars(cls).get(attr)))
        setattr(cls, attr, wrapped)

    def _install_by_identity(self, layer: str, module, attr: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(layer)
            return
        wrapped = self._wrap(layer, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "tsagg" or name.startswith("tsagg.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- spans ----------------------------------------------------------

    def run_op(self, op: int, fn, *args):
        """Call fn(*args) as operation ``op`` under a root span."""
        self._op = op
        index = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(index, perf_counter(), None)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._op, parent, 0.0, 0.0, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index][3] = perf_counter()
        return index

    def _close(self, index: int, end: float, extra) -> None:
        self._stack.pop()
        self.spans[index][4] = end
        self.spans[index][5] = extra

    def _resolve(self, layer: str) -> str | None:
        if layer not in _PERIOD_NAMES:
            return layer
        if any(self.spans[i][0].startswith("segmentation.") for i in self._stack):
            return None
        return _PERIOD_NAMES[layer]

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = tracer._resolve(layer)
            if name is None:
                return fn(*args, **kwargs)
            state = _before(name, args, tracer.track_alloc)
            index = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._close(index, end, _after(name, state, result))
            return result

        return traced


def _before(name: str, args, track_alloc: bool):
    """Per-layer value taken before the call (outside the span's time)."""
    if name == "segmentation.segment_linkage":
        profile = np.ascontiguousarray(args[0], dtype=np.float64)
        return hashlib.sha1(repr(profile.shape).encode()
                            + profile.tobytes()).hexdigest()
    if name == "hierarchy.period_linkage" and track_alloc:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        return (started, tracemalloc.get_traced_memory()[0])
    return None


def _after(name: str, state, result):
    """Per-layer value stored in the span once the call returned."""
    if name == "segmentation.cut_segments" and result is not None:
        return len(result)
    if name == "hierarchy.period_linkage" and state is not None:
        started, base = state
        peak = tracemalloc.get_traced_memory()[1] - base
        if started:
            tracemalloc.stop()
        return peak
    return state


def summarize(spans: list, n_ops: int) -> dict[str, float]:
    """Per-operation calls and self seconds of every layer, plus extras.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread never overlap, so this is the time not
    covered by a child.
    """
    child = [0.0] * len(spans)
    for name, op, parent, start, end, extra in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    evaluate_hits = 0
    distinct: dict[int, set] = {}
    segments_built = 0
    for i, (name, op, parent, start, end, extra) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        if name == "pathway.evaluate" and child[i] == 0.0:
            evaluate_hits += 1
        elif name == "segmentation.segment_linkage":
            distinct.setdefault(op, set()).add(extra)
        elif name == "segmentation.cut_segments":
            segments_built += extra or 0
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / n_ops
        out[f"{layer}.self_s"] = self_s[layer] / n_ops
    seg_calls = calls["segmentation.segment_linkage"]
    out["segmentation.segment_linkage.distinct_ratio"] = (
        sum(len(s) for s in distinct.values()) / seg_calls if seg_calls else 0.0)
    out["segmentation.cut_segments.segments_built"] = segments_built / n_ops
    root_s = sum(end - start for name, _, _, start, end, _ in spans if name == ROOT)
    for prefix in ("segmentation.", "hierarchy.period_linkage"):
        out[f"{prefix.rstrip('.')}.op_share"] = (
            _covered(spans, prefix) / root_s if root_s else 0.0)
    ev_calls = calls["pathway.evaluate"]
    out["pathway.evaluate.hit_ratio"] = (
        evaluate_hits / ev_calls if ev_calls else 0.0)
    return out


def _covered(spans: list, prefix: str) -> float:
    """Seconds inside spans whose name starts with ``prefix``, children
    included; a match inside another match is not counted again."""
    total = 0.0
    for name, _, parent, start, end, _ in spans:
        if not name.startswith(prefix):
            continue
        while parent >= 0 and not spans[parent][0].startswith(prefix):
            parent = spans[parent][2]
        if parent < 0:
            total += end - start
    return total
