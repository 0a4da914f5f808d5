"""Span recording and work counters around metacirc's public functions.

The benchmark measures each module from outside: it replaces every binding
of a public function, in every ``metacirc`` module that looks it up, with a
wrapper.  A traced pass records one span per call (name, start, end, parent
span, operation id) in memory; the per-layer metric of a span name is the
sum of its self time, i.e. its duration minus the part covered by child
spans.  Every pass, traced or not, keeps the exact work counters, whose
wrappers only count.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (defining module, attribute, per-layer time metric of its spans)
TARGETS = [
    ("metacirc.classify", "inverse_closed_four_subsets", "groups.enumerate_s"),
    ("metacirc.classify", "enumerate_candidates", "groups.enumerate_s"),
    ("metacirc.classify", "candidate_orbits", "aut.orbit_reduction_s"),
    ("metacirc.aut", "aut_vertex_permutations", "aut.orbit_reduction_s"),
    ("metacirc.aut", "automorphism_maps", "aut.maps_s"),
    ("metacirc.aut", "brute_force_automorphisms", "aut.maps_s"),
    ("metacirc.aut", "aut_stabilizer", "aut.set_stabilizer_s"),
    ("metacirc.aut", "set_orbit_canonical", "aut.set_canonical_s"),
    ("metacirc.graphs", "build_cayley", "graphs.build_s"),
    ("metacirc.graphs", "from_graph6", "graphs.graph6_s"),
    ("metacirc.graphs", "to_graph6", "graphs.graph6_s"),
    ("metacirc.autosearch", "analyze", "autosearch.analyze_s"),
    ("metacirc.autosearch", "automorphism_group", "autosearch.analyze_s"),
    ("metacirc.autosearch", "canonical_form", "autosearch.canonical_s"),
    ("metacirc.autosearch", "are_isomorphic", "autosearch.canonical_s"),
    ("metacirc.permgroup", "PermGroup.order", "permgroup.chain_s"),
    ("metacirc.permgroup", "PermGroup.point_stabilizer", "permgroup.stabilizer_s"),
    ("metacirc.permgroup", "normalizer_of_regular", "permgroup.normalizer_s"),
    ("metacirc.permgroup", "edge_orbit_count", "permgroup.orbit_count_s"),
    ("metacirc.permgroup", "max_s_arc_transitive", "permgroup.orbit_count_s"),
    ("metacirc.classify", "classify_spec", "classify.self_s"),
    ("metacirc.classify", "analyze_connection_set", "classify.self_s"),
    ("metacirc.cli", "main", "cli.self_s"),
]

LAYER_TIMES = sorted({metric for _, _, metric in TARGETS})


class Recorder:
    """Spans and counters of one pass, kept in memory until the pass ends."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.op: int | None = None
        self.spans: list[tuple] = []  # (id, parent, name, op, start, end)
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._group_order = 0

    def call(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, self.op, start, end)

    def self_times(self, metric_of: dict[str, str]) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = dict.fromkeys(LAYER_TIMES, 0.0)
        for sid, _, name, _, start, end in self.spans:
            out[metric_of[name]] += end - start - child_time[sid]
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for sid, parent, name, op, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "op": op, "start": start, "end": end}) + "\n")

    # ---------------------------------------------------------- counters
    # each takes the call's arguments and result; none of them does work
    # that grows with the input, so untraced passes stay unperturbed

    def _count_aut_perms(self, args, kwargs, result):
        self._group_order = len(result)
        self.counts["aut.group_order"] += len(result)

    def _count_orbits(self, args, kwargs, result):
        orbits, _ = result
        self.counts["aut.orbits"] += len(orbits)
        # computed, not observed: |Aut(G)| images of every connected candidate
        self.counts["aut.perm_images"] += self._group_order * len(args[0])
        self._group_order = 0

    def _count_analyze(self, args, kwargs, result):
        self.counts["autosearch.calls"] += 1
        self.counts["autosearch.generators"] += len(result.generators)

    def _count_normalizer(self, args, kwargs, result):
        # computed: normalizer_of_regular filters every element of Aut
        self.counts["permgroup.normalizer_elements"] += args[0].order

    def _count_rep(self, args, kwargs, result):
        self.counts["classify.reps_analyzed"] += 1
        self.counts["classify.edge_transitive"] += result is not None

    def counters(self) -> dict[str, object]:
        return {
            "metacirc.aut.aut_vertex_permutations": self._count_aut_perms,
            "metacirc.classify.candidate_orbits": self._count_orbits,
            "metacirc.autosearch.analyze": self._count_analyze,
            "metacirc.permgroup.normalizer_of_regular": self._count_normalizer,
            "metacirc.classify.analyze_connection_set": self._count_rep,
        }


def _wrap(rec: Recorder, fn, name: str, count):
    if rec.trace:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = rec.call(name, fn, args, kwargs)
            if count is not None:
                count(args, kwargs, result)
            return result
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(args, kwargs, result)
            return result
    return wrapper


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """The tracer's own cost of one span: a traced call of a no-op minus a
    plain call of it, fastest of ``repeats`` rounds of ``calls`` calls."""

    def noop():
        return None

    def round_s(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    best = float("inf")
    for _ in range(repeats):
        traced = _wrap(Recorder(trace=True), noop, "noop", None)
        best = min(best, round_s(traced) - round_s(noop))
    return max(best, 0.0) / calls


def _patch_order(rec: Recorder, cls, name: str) -> None:
    """Time only the first ``order`` of each group: that call builds the
    stabilizer chain, later ones multiply cached transversal sizes."""
    fget = cls.order.fget

    def order(self):
        if getattr(self, "_chain", None) is not None:
            return fget(self)
        result = rec.call(name, fget, (self,), {})
        rec.counts["permgroup.chains"] += 1
        rec.counts["permgroup.base_length"] += len(self.chain())
        return result

    cls.order = property(order)


def install(rec: Recorder) -> list[str]:
    """Wrap the targets in every loaded metacirc module; return the targets
    this version of the package does not have."""
    modules = [m for k, m in sorted(sys.modules.items())
               if k == "metacirc" or k.startswith("metacirc.")]
    counters = rec.counters()
    missing = []
    for modname, attr, _ in TARGETS:
        name = _span_name(modname, attr)
        count = counters.get(f"{modname}.{attr}")
        if not rec.trace and count is None:
            continue
        mod = importlib.import_module(modname)
        if "." in attr:
            clsname, meth = attr.split(".")
            cls = getattr(mod, clsname, None)
            if cls is None or not hasattr(cls, meth):
                missing.append(name)
            elif meth == "order":
                _patch_order(rec, cls, name)
            else:
                setattr(cls, meth, _wrap(rec, getattr(cls, meth), name, count))
            continue
        fn = getattr(mod, attr, None)
        if fn is None:
            missing.append(name)
            continue
        wrapper = _wrap(rec, fn, name, count)
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is fn:
                    setattr(m, k, wrapper)
    return missing


def _span_name(modname: str, attr: str) -> str:
    return f"{modname.split('.')[-1]}.{attr}"


def metric_of_span() -> dict[str, str]:
    return {_span_name(mod, attr): metric for mod, attr, metric in TARGETS}
