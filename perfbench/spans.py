"""Outside-in tracing: wrap the package's public functions from the outside.

Every public function of every ``convexcodes`` module is replaced, in every
module namespace that binds it, by one wrapper that records a span (name,
parent span, start, end).  Calls between modules go through those
namespaces, so they are seen too.  Spans are kept in memory for one input
and folded into per-name totals when the input ends; self time is a span's
duration minus the durations of its direct children.

A few per-layer counts are taken at the same boundaries from the call's
arguments and result (never from ``SimplicialComplex.face_set``, which is
cached on the object and would change the work the program does).
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Bitmask helpers that cost less than the wrapper itself and are called
# per face or per sort key; wrapping them would swamp every other span.
UNWRAPPED = frozenset({"word", "members", "word_key", "word_label", "full_word", "barred"})


def _verdict(res) -> str:
    if res.cone_apex is not None:
        return "cone"
    if res.nonzero_betti_dim is not None:
        return "betti"
    if res.collapse_steps is not None:
        return "collapse"
    return "empty" if res.empty else "unknown"


def _faces_bound(cpx) -> int:
    return sum(1 << f.bit_count() for f in cpx.facets)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        self.rows_max = 0

    # -- recording -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                args = observe(args, None)
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span = spans[idx]
                span[2], span[3] = t0, t1
            if observe is not None:
                observe(args, (result,))
            return result

        return traced

    def install(self, package: str = "convexcodes") -> None:
        """Wrap every public package function in every namespace that binds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or attr in UNWRAPPED or not inspect.isfunction(fn)
                        or not fn.__module__.startswith(package + ".")):
                    continue
                if id(fn) not in wrappers:
                    layer = fn.__module__.rsplit(".", 1)[1]
                    wrappers[id(fn)] = self._wrap(f"{layer}.{fn.__name__}", fn)
                setattr(mod, attr, wrappers[id(fn)])

    def fold(self) -> None:
        """Fold the spans of one finished input into per-name totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, parent, t0, t1) in enumerate(spans):
            dur = t1 - t0
            self.counts[name + ".calls"] += 1
            self.times[name + ".self_s"] += dur - child[i]
            # inclusive time only for the outermost span of a name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                self.times[name + ".s"] += dur
        spans.clear()

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- per-layer counts taken at the boundaries ---------------------------------

    def _observe_geometry_feasible_point(self, args, out):
        if out is None:
            cons = args[0] if isinstance(args[0], (list, tuple)) else list(args[0])
            self.counts["fm_rows"] += len(cons)
            self.rows_max = max(self.rows_max, len(cons))
            return (cons,) + tuple(args[1:])
        if out[0] is None:
            self.counts["fm_infeasible"] += 1
        return args

    def _observe_geometry_point_satisfies(self, args, out):
        if out is not None and out[0]:
            self.counts["point_hits"] += 1
        return args

    def _observe_geometry_code_of_arrangement(self, args, out):
        if out is not None:
            self.counts["words_extracted"] += len(out[0].words)
        return args

    def _observe_topology_contractibility(self, args, out):
        if out is None:
            self.counts["faces_bound"] += _faces_bound(args[0])
        else:
            self.counts["verdict." + _verdict(out[0])] += 1
        return args

    def _observe_topology_reduced_homology(self, args, out):
        if out is None and self.parent_name() != "topology.contractibility":
            self.counts["faces_bound"] += _faces_bound(args[0])
        return args

    def _observe_formats_parse_code(self, args, out):
        if out is None:
            self.counts["bytes_in"] += len(args[0].encode())
        return args

    _observe_formats_parse_arrangement = _observe_formats_parse_code


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, passes: int, bytes_out: int, overhead: float) -> dict:
    """Per-pass per-layer metrics, named ``<module>.<function>.<what>``."""
    c, t = tracer.counts, tracer.times

    def calls(name):
        return c[name + ".calls"] / passes

    def secs(key):
        return t[key] / passes

    fm = c["geometry.feasible_point.calls"]
    contr = c["topology.contractibility.calls"]
    out = {
        "geometry.feasible_point.calls": (calls("geometry.feasible_point"), "count"),
        "geometry.feasible_point.s": (secs("geometry.feasible_point.s"), "s"),
        "geometry.feasible_point.infeasible_frac": (_ratio(c["fm_infeasible"], fm), "ratio"),
        "geometry.feasible_point.rows_mean": (_ratio(c["fm_rows"], fm), "rows"),
        "geometry.feasible_point.rows_max": (tracer.rows_max, "rows"),
        "geometry.words_per_fm_call": (_ratio(c["words_extracted"], fm), "words/call"),
        "geometry.point_satisfies.calls": (calls("geometry.point_satisfies"), "count"),
        "geometry.point_satisfies.hit_frac": (
            _ratio(c["point_hits"], c["geometry.point_satisfies.calls"]), "ratio"),
        "geometry.code_of_arrangement.self_s": (secs("geometry.code_of_arrangement.self_s"), "s"),
        "geometry.membership_pattern.calls": (calls("geometry.membership_pattern"), "count"),
        "geometry.membership_pattern.s": (secs("geometry.membership_pattern.s"), "s"),
        "topology.faces_bound": (c["faces_bound"] / passes, "count"),
        "topology.reduced_homology.s": (secs("topology.reduced_homology.s"), "s"),
        "topology.link.calls": (calls("topology.link"), "count"),
        "topology.link.s": (secs("topology.link.s"), "s"),
        "topology.mandatory_codewords.self_s": (secs("topology.mandatory_codewords.self_s"), "s"),
        "topology.contractibility.calls": (calls("topology.contractibility"), "count"),
        "topology.contractibility.self_s": (secs("topology.contractibility.self_s"), "s"),
        "topology.collapse_to_point.calls": (calls("topology.collapse_to_point"), "count"),
        "topology.collapse_to_point.s": (secs("topology.collapse_to_point.s"), "s"),
        "topology.is_locally_good.s": (secs("topology.is_locally_good.s"), "s"),
        "codes.simplicial_complex.s": (secs("codes.simplicial_complex.s"), "s"),
        "codes.complex_from_faces.calls": (calls("codes.complex_from_faces"), "count"),
        "codes.complex_from_faces.s": (secs("codes.complex_from_faces.s"), "s"),
        "codes.maximal_codewords.s": (secs("codes.maximal_codewords.s"), "s"),
        "codes.is_max_intersection_complete.s": (secs("codes.is_max_intersection_complete.s"), "s"),
        "formats.parse_code.s": (secs("formats.parse_code.s"), "s"),
        "formats.parse_arrangement.s": (secs("formats.parse_arrangement.s"), "s"),
        "formats.serialize_code.s": (secs("formats.serialize_code.s"), "s"),
        "formats.bytes_in": (c["bytes_in"] / passes, "bytes"),
        "cli.main.self_s": (secs("cli.main.self_s"), "s"),
        "cli.build_analysis.self_s": (secs("cli.build_analysis.self_s"), "s"),
        "cli.render_analysis.s": (secs("cli.render_analysis.s"), "s"),
        "cli.bytes_out": (bytes_out / passes, "bytes"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    for v in ("cone", "betti", "collapse", "unknown"):
        out[f"topology.contractibility.{v}_frac"] = (_ratio(c["verdict." + v], contr), "ratio")
    return out
