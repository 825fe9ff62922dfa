"""Span tracer for the traced benchmark run.

Nothing here runs inside the library: the tracer wraps the public functions
and methods of each umbellab module from outside, at every place the name is
looked up (including names bound by ``from ... import``), and restores the
originals afterwards.

Two kinds of wrapped call exist:

* spans (job, cli.main, certify, report, embedding stages, ...) are kept as
  records with a name, start, end, parent span and job id;
* hot leaves (distance, sample, check_inequality, TreeMap.dist, ...) run once
  per sampled configuration or search evaluation, so they are only aggregated
  as a call count plus summed time, which keeps the trace bounded.

Both kinds feed one aggregate per name: calls, inclusive seconds (calls
nested inside a call of the same name are not counted twice) and self
seconds (duration minus the time covered by wrapped child calls).
Everything stays in memory until the run writes its result file.
"""

from __future__ import annotations

import functools
import types
from collections import Counter
from time import perf_counter

SPAN, LEAF = True, False


class Tracer:
    def __init__(self):
        self.active = False
        self.job = None
        self._stack = []          # [name, start, child_s, span_id, parent_id]
        self._depth = Counter()   # open calls per name
        self._open_span = None
        self._next_id = 0
        self.agg = {}             # name -> [calls, incl_s, self_s]
        self.spans = []           # (id, name, start, end, parent_id, job)
        self.counters = Counter()

    # -- recording ---------------------------------------------------------

    def enter(self, name, store):
        sid = None
        parent = self._open_span
        if store:
            sid = self._next_id
            self._next_id += 1
            self._open_span = sid
        self._depth[name] += 1
        self._stack.append([name, perf_counter(), 0.0, sid, parent])

    def exit(self):
        end = perf_counter()
        name, start, child, sid, parent = self._stack.pop()
        dur = end - start
        self._depth[name] -= 1
        rec = self.agg.get(name)
        if rec is None:
            rec = self.agg[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[2] += dur - child
        if not self._depth[name]:
            rec[1] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if sid is not None:
            self.spans.append((sid, name, start, end, parent, self.job))
            self._open_span = parent

    def inside(self, name) -> bool:
        return self._depth[name] > 0

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name, store, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(name, store)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(out)
            return out

        return traced

    # -- summaries ---------------------------------------------------------

    def calls(self, name) -> int:
        return self.agg.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[2]

    def to_json(self) -> dict:
        return {
            "aggregates": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                           for k, v in sorted(self.agg.items())},
            "counters": dict(self.counters),
            "spans": [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                       "parent": s[4], "job": s[5]} for s in self.spans],
        }


class _Scaled:
    """A tracer's summaries with seconds multiplied by a speed factor."""

    def __init__(self, tracer, speed):
        self.tracer, self.speed = tracer, speed

    def calls(self, name):
        return self.tracer.calls(name)

    def seconds(self, name):
        return self.tracer.seconds(name) * self.speed

    def self_seconds(self, name):
        return self.tracer.self_seconds(name) * self.speed


class Patches:
    """Replace attributes and put the originals back in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr, value):
        self._saved.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def restore(self):
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)


def _rebind(patches, modules, original, replacement):
    """Point every module-level name bound to `original` at `replacement`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                patches.set(mod, attr, replacement)


def install(tracer, U) -> Patches:
    """Wrap the public entry points of every umbellab module.  `U` is the
    imported umbellab package; returns the patches to restore."""
    from umbellab import cli, embeddings, invariants, pointwise, search
    from umbellab import spaces, trees

    modules = [U, cli, embeddings, invariants, pointwise, search, spaces,
               trees]
    patches = Patches()

    def function(mod, attr, name, store, after=None):
        original = getattr(mod, attr, None)
        if original is None:
            return
        _rebind(patches, modules, original,
                tracer.wrap(original, name, store, after))

    def method(cls, attr, name, store):
        raw = cls.__dict__.get(attr)
        if isinstance(raw, classmethod):
            patches.set(cls, attr, classmethod(
                tracer.wrap(raw.__func__, name, store)))
        elif isinstance(raw, types.FunctionType):
            patches.set(cls, attr, tracer.wrap(raw, name, store))

    # trees
    graph = getattr(trees, "tree_graph", None)
    info = getattr(graph, "cache_info", None)

    def tree_graph(*args, **kwargs):
        if not tracer.active:
            return graph(*args, **kwargs)
        before = info().misses if info else None
        tracer.enter("trees.tree_graph", LEAF)
        try:
            return graph(*args, **kwargs)
        finally:
            tracer.exit()
            missed = info().misses - before if info else 1
            tracer.counters["trees.tree_graph.misses"] += missed

    if graph is not None:
        _rebind(patches, modules, graph, tree_graph)
    function(trees, "vertices", "trees.vertices", LEAF)
    function(trees, "vertices_at_height", "trees.vertices_at_height", LEAF)
    function(trees, "level_edges", "trees.level_edges", LEAF)
    function(trees, "parse_tree_spec", "trees.parse_tree_spec", SPAN)

    # spaces
    for cls in (spaces.LpSpace, spaces.FiniteMatrixSpace,
                spaces.GraphMetricSpace, spaces.ProductSpace,
                spaces.HeisenbergMetricSpace):
        method(cls, "distance", "spaces.distance", LEAF)
        method(cls, "sample", "spaces.sample", LEAF)
        method(cls, "norm", "spaces.norm", LEAF)
    method(spaces.FiniteMatrixSpace, "from_json", "spaces.from_json", SPAN)
    function(spaces, "h_mul", "spaces.h_mul", LEAF)
    function(spaces, "parse_space", "spaces.parse_space", SPAN)

    # pointwise
    def count_certify(rep):
        tracer.counters["pointwise.violations"] += rep.violations
        if tracer.inside("pointwise.min_feasible_K"):
            tracer.counters["pointwise.min_feasible_K.certify"] += 1

    sampler_factory = pointwise.ball_sampler

    def ball_sampler(*args, **kwargs):
        draw = sampler_factory(*args, **kwargs)
        return tracer.wrap(draw, "pointwise.draw", LEAF)

    _rebind(patches, modules, sampler_factory,
            tracer.wrap(ball_sampler, "pointwise.ball_sampler", SPAN))
    function(pointwise, "check_inequality", "pointwise.check_inequality", LEAF)
    function(pointwise, "check_parallelogram", "pointwise.check_parallelogram",
             LEAF)
    function(pointwise, "certify", "pointwise.certify", SPAN, count_certify)
    function(pointwise, "min_feasible_K", "pointwise.min_feasible_K", SPAN)

    # invariants (lhs/rhs/... run once per search evaluation: leaves)
    for attr in ("lhs", "rhs", "lipschitz_constant", "distance_matrices"):
        function(invariants, attr, "invariants." + attr, LEAF)
    function(invariants, "report", "invariants.report", SPAN)
    function(invariants, "named_map", "invariants.named_map", SPAN)
    method(invariants.TreeMap, "__init__", "invariants.TreeMap.init", LEAF)
    method(invariants.TreeMap, "dist", "invariants.TreeMap.dist", LEAF)
    method(invariants.TreeMap, "identity", "invariants.TreeMap.identity", SPAN)

    # embeddings
    for attr in ("bourgain_embed", "distortion", "moduli",
                 "compression_integral"):
        function(embeddings, attr, "embeddings." + attr, SPAN)

    # search: every rhs looked up by search is one evaluation
    for attr in ("exhaustive_max", "local_search_max"):
        function(search, attr, "search." + attr, SPAN)
    traced_rhs = getattr(search, "rhs", None)
    if traced_rhs is not None:
        def counted_rhs(*args, **kwargs):
            out = traced_rhs(*args, **kwargs)
            if tracer.active:
                tracer.counters["search.evals"] += 1
                tracer.counters["search.feasible"] += out > 0
            return out
        patches.set(search, "rhs", counted_rhs)

    # cli
    function(cli, "main", "cli.main", SPAN)
    return patches


def layer_metrics(tracer: Tracer, overhead_frac: float,
                  speed: float = 1.0) -> dict:
    """Per-layer metrics of the traced passes, as {name: (value, unit)}.
    Seconds are multiplied by `speed`, the machine-speed factor of the
    traced passes (see calibrate.py)."""
    t, c = _Scaled(tracer, speed), tracer.counters
    configs = t.calls("pointwise.check_inequality")
    fits = t.calls("pointwise.min_feasible_K")
    evals = c["search.evals"]
    search_s = (t.seconds("search.exhaustive_max")
                + t.seconds("search.local_search_max"))
    return {
        "trees.tree_graph.s": (t.seconds("trees.tree_graph"), "s"),
        "trees.tree_graph.misses": (c["trees.tree_graph.misses"], "count"),
        "trees.vertices.calls":
            (t.calls("trees.vertices") + t.calls("trees.vertices_at_height"),
             "count"),
        "spaces.distance.calls": (t.calls("spaces.distance"), "count"),
        "spaces.distance.s": (t.seconds("spaces.distance"), "s"),
        "spaces.sample.calls": (t.calls("spaces.sample"), "count"),
        "spaces.sample.s": (t.seconds("spaces.sample"), "s"),
        "spaces.h_mul.calls": (t.calls("spaces.h_mul"), "count"),
        "pointwise.configs": (configs, "count"),
        "pointwise.check_inequality.self_s":
            (t.self_seconds("pointwise.check_inequality"), "s"),
        "pointwise.draw.self_s": (t.self_seconds("pointwise.draw"), "s"),
        "pointwise.certify.self_s": (t.self_seconds("pointwise.certify"), "s"),
        "pointwise.us_per_config":
            (t.seconds("pointwise.certify") / configs * 1e6 if configs
             else 0.0, "us"),
        "pointwise.min_feasible_K.passes":
            (c["pointwise.min_feasible_K.certify"] / fits if fits else 0.0,
             "count"),
        "pointwise.violations": (c["pointwise.violations"], "count"),
        "invariants.lhs.s": (t.seconds("invariants.lhs"), "s"),
        "invariants.rhs.s": (t.seconds("invariants.rhs"), "s"),
        "invariants.lipschitz_constant.s":
            (t.seconds("invariants.lipschitz_constant"), "s"),
        "invariants.distance_matrices.calls":
            (t.calls("invariants.distance_matrices"), "count"),
        "invariants.distance_matrices.s":
            (t.seconds("invariants.distance_matrices"), "s"),
        "invariants.TreeMap.init.calls":
            (t.calls("invariants.TreeMap.init"), "count"),
        "invariants.TreeMap.dist.calls":
            (t.calls("invariants.TreeMap.dist"), "count"),
        "embeddings.bourgain_embed.s":
            (t.seconds("embeddings.bourgain_embed"), "s"),
        "embeddings.distortion.s": (t.seconds("embeddings.distortion"), "s"),
        "embeddings.moduli.s": (t.seconds("embeddings.moduli"), "s"),
        "embeddings.compression_integral.s":
            (t.seconds("embeddings.compression_integral"), "s"),
        "search.evals": (evals, "count"),
        "search.evals_per_s": (evals / search_s if search_s else 0.0, "1/s"),
        "search.feasible_frac":
            (c["search.feasible"] / evals if evals else 0.0, "ratio"),
        "cli.main.calls": (t.calls("cli.main"), "count"),
        "cli.self_s": (t.self_seconds("cli.main"), "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
