"""Span recorder for the traced benchmark pass.

The recorder wraps the public entry points of each latgas layer from
outside the package.  Every module namespace that binds a traced function
object gets the wrapper, so calls through ``from .oracle import ...``
aliases and calls through a module's own globals are both caught.  Spans
carry name, start, end, busy time, parent, thread id and job id; they stay
in memory until the pass ends.

``model`` and ``powerseries`` are not traced: their calls take
microseconds, so a wrapper would cost more than the call.  Their time shows
up in the self time of their callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

# layer -> (latgas module, public functions whose calls are the layer's spans)
LAYERS = {
    "series.tree": ("series", ("tree_graph_check",)),
    "series.coef": ("series", ("connected_coefficient", "irreducible_coefficient")),
    "series.extract": ("series", ("extract_b_lambda",)),
    "oracle.enum": ("oracle", ("exact_canonical_table",)),
    "oracle.corr": ("oracle", ("exact_correlations",)),
    "oracle.tm": ("oracle", ("transfer_matrix_table",)),
    "oracle.gc": ("oracle", ("grand_canonical_eval",)),
    "deviations.formula": ("deviations", ("formula_probability",)),
    "deviations.tilt": ("deviations", ("tilted_potential",)),
    "radii.maximize": ("radii", ("maximize_big_f",)),
    "radii.report": ("radii", ("radius_report",)),
    "graphs.enum": ("graphs", ("enumerate_all_graphs", "enumerate_connected",
                               "enumerate_biconnected", "enumerate_trees",
                               "enumerate_af_two_colored")),
    "graphs.brute": ("graphs", ("brute_force_class",)),
    "correlations.calibrate": ("correlations", ("calibrate_constants",)),
    "correlations.pair_rows": ("correlations", ("pair_rows",)),
    "correlations.decay_fit": ("correlations", ("decay_fit",)),
    "csvfmt.write": ("csvfmt", ("write_csv",)),
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    busy: float  # end - start, or the time spent inside a generator's next()
    parent: int | None
    thread: int
    job: str | None


def _geometry(lattice, pot) -> tuple:
    """Box and potential support of an oracle call; beta is not geometry."""
    return (lattice.dimension, lattice.side, lattice.boundary, lattice.gamma,
            pot.kind, pot.support_radius)


class Recorder:
    """Collects spans and call-argument counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.geometries: dict[str, Counter] = defaultdict(Counter)
        self.unannotated = 0
        self.job: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self._annotators = {
            "oracle.enum": self._note_enum,
            "oracle.corr": self._note_corr,
            "oracle.tm": self._note_tm,
            "series.tree": self._note_tree,
            "series.extract": self._note_extract,
            "csvfmt.write": self._note_csv,
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer, (mod_name, names) in LAYERS.items():
            module = importlib.import_module(f"latgas.{mod_name}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:  # removed by a later refactor: the layer reads 0
                    continue
                self._rebind(fn, self._wrap(fn, layer))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _rebind(self, fn, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "latgas" or mod_name.startswith("latgas.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return (yield from self._consume(fn(*args, **kwargs), layer))
            return gen_wrapper
        annotate = self._annotators.get(layer)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, layer, t0, t1, t1 - t0, parent,
                                       threading.get_ident(), self.job))
                if annotate is not None:
                    self._annotate(annotate, signature, args, kwargs, result)
        return wrapper

    def _consume(self, gen, layer: str):
        """Re-yield ``gen``; the span covers time inside its next() calls."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        start = end = None
        busy = 0.0
        yielded = 0
        try:
            while True:
                stack.append(sid)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    busy += end - t0
                    if start is None:
                        start = t0
                yielded += 1
                yield item
        finally:
            gen.close()
            if start is not None:
                self.spans.append(Span(sid, layer, start, end, busy, parent,
                                       threading.get_ident(), self.job))
            with self._lock:
                self.counts[f"{layer}.yielded"] += yielded

    # -- call-argument counts (taken after the span has ended) ------------

    def _annotate(self, annotate, signature, args, kwargs, result) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
        except TypeError:
            self.unannotated += 1
            return
        bound.apply_defaults()
        try:
            with self._lock:
                annotate(bound.arguments, result)
        except (AttributeError, KeyError, TypeError, OSError):
            self.unannotated += 1

    # Work counts are taken for calls that returned; a call rejected by a
    # guard or failing part-way did not do the work its arguments describe.

    def _note_enum(self, a, result) -> None:
        self.geometries["oracle.enum"][_geometry(a["lattice"], a["pot"])] += 1
        if result is not None:
            self.counts["oracle.enum.configs"] += 2 ** a["lattice"].n_sites

    def _note_corr(self, a, result) -> None:
        if result is not None:
            self.counts["oracle.corr.subsets"] += math.comb(a["lattice"].n_sites,
                                                            a["n_particles"])

    def _note_tm(self, a, result) -> None:
        if result is not None:
            chains = 2 if a["boundary"] == "periodic" else 1
            self.counts["oracle.tm.site_steps"] += (a["side"] * 2 ** a["pot"].support_radius
                                                    * chains)

    def _note_tree(self, a, result) -> None:
        pot = a["pot"]
        key = (a["n"], a["d"], pot.kind, pot.support_radius)
        self.geometries["series.tree"][key] += 1
        if result is not None:
            self.counts["series.tree.configs"] += result.n_configs

    def _note_extract(self, a, _result) -> None:
        series = sys.modules["latgas.series"]
        threshold = getattr(series, "EXTENDED_PRECISION_SITES", 100)
        self.counts["series.extract.mp_calls"] += a["table"].n_sites >= threshold

    def _note_csv(self, a, _result) -> None:
        self.counts["csvfmt.bytes"] += os.path.getsize(a["path"])

    # -- output -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass (zero where a layer did not run)."""
        busy: Counter = Counter()
        calls: Counter = Counter()
        child_busy: Counter = Counter()
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            busy[s.name] += s.busy
            calls[s.name] += 1
            if s.parent is not None:
                child_busy[s.parent] += s.busy
        self_s: Counter = Counter()
        for s in self.spans:
            self_s[s.name] += s.busy - child_busy[s.id]

        def under(span: Span, name: str) -> bool:
            while span.parent is not None:
                span = by_id[span.parent]
                if span.name == name:
                    return True
            return False

        gc_in_tilt = sum(1 for s in self.spans
                         if s.name == "oracle.gc" and under(s, "deviations.tilt"))
        tree_configs = self.counts["series.tree.configs"]
        tree_connected = sum(calls * connected_configs(n, d, radius, kind)
                             for (n, d, kind, radius), calls
                             in self.geometries["series.tree"].items())

        def per_geometry(layer: str) -> float:
            geoms = self.geometries[layer]
            return sum(geoms.values()) / len(geoms) if geoms else 0.0

        return {
            "series.tree.busy_s": busy["series.tree"],
            "series.tree.configs": tree_configs,
            "series.tree.connected_share": (tree_connected / tree_configs
                                            if tree_configs else 0.0),
            "series.tree.calls_per_geometry": per_geometry("series.tree"),
            "series.coef.busy_s": busy["series.coef"],
            "series.coef.calls": calls["series.coef"],
            "series.extract.busy_s": busy["series.extract"],
            "series.extract.mp_calls": self.counts["series.extract.mp_calls"],
            "oracle.enum.busy_s": busy["oracle.enum"],
            "oracle.enum.calls": calls["oracle.enum"],
            "oracle.enum.configs": self.counts["oracle.enum.configs"],
            "oracle.enum.calls_per_geometry": per_geometry("oracle.enum"),
            "oracle.corr.busy_s": busy["oracle.corr"],
            "oracle.corr.calls": calls["oracle.corr"],
            "oracle.corr.subsets": self.counts["oracle.corr.subsets"],
            "oracle.tm.busy_s": busy["oracle.tm"],
            "oracle.tm.calls": calls["oracle.tm"],
            "oracle.tm.site_steps": self.counts["oracle.tm.site_steps"],
            "oracle.gc.calls": calls["oracle.gc"],
            "oracle.gc.busy_s": busy["oracle.gc"],
            "deviations.formula.busy_s": busy["deviations.formula"],
            "deviations.formula.calls": calls["deviations.formula"],
            "deviations.tilt.gc_per_call": (gc_in_tilt / calls["deviations.tilt"]
                                            if calls["deviations.tilt"] else 0.0),
            "radii.maximize.busy_s": busy["radii.maximize"],
            "radii.maximize.calls": calls["radii.maximize"],
            "radii.report.busy_s": busy["radii.report"],
            "graphs.enum.busy_s": busy["graphs.enum"],
            "graphs.enum.yielded": self.counts["graphs.enum.yielded"],
            "graphs.brute.busy_s": busy["graphs.brute"],
            "correlations.calibrate.busy_s": busy["correlations.calibrate"],
            "correlations.pair_rows.busy_s": busy["correlations.pair_rows"],
            "correlations.decay_fit.self_s": self_s["correlations.decay_fit"],
            "csvfmt.write.busy_s": busy["csvfmt.write"],
            "csvfmt.bytes": self.counts["csvfmt.bytes"],
        }


@functools.lru_cache(maxsize=None)
def connected_configs(n: int, d: int, radius: int, kind: str) -> int:
    """Pinned n-point configurations whose support graph is connected.

    x_1 = 0 and x_2..x_n range over the region the cluster sums sweep (the
    l1 ball of radius (n-1) for the standard potential, the l-infinity box
    of radius (n-1)R for Kac).  Two points are joined when they coincide or
    lie within range.  Counted here, independently of latgas, so that
    ``series.tree.connected_share`` is configs with connected support over
    configs swept.
    """
    reach = (n - 1) * radius
    pts = np.array([p for p in itertools.product(range(-reach, reach + 1), repeat=d)
                    if kind != "standard" or sum(map(abs, p)) <= reach])
    diff = pts[:, None, :] - pts[None, :, :]
    touch = np.einsum("abk,abk->ab", diff, diff) <= radius * radius
    origin = int(np.flatnonzero(~pts.any(axis=1))[0])
    k = len(pts)
    total_configs = k ** (n - 1)
    count = 0
    chunk = 100_000
    for start in range(0, total_configs, chunk):
        flat = np.arange(start, min(start + chunk, total_configs), dtype=np.int64)
        ids = np.empty((len(flat), n), dtype=np.int64)
        ids[:, 0] = origin
        for p in range(n - 1, 0, -1):
            ids[:, p] = flat % k
            flat //= k
        adj = touch[ids[:, :, None], ids[:, None, :]]
        reached = np.zeros((len(ids), n), dtype=bool)
        reached[:, 0] = True
        for _ in range(n - 1):
            reached |= (reached[:, :, None] & adj).any(axis=1)
        count += int(reached.all(axis=1).sum())
    return count
