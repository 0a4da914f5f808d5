"""The benchmark's workloads: which operations each one runs, and their keys.

An operation is one call a metacirc user waits for: a ``classify_spec``
census of one group, or one ``metacirc`` command-line query.  Each operation
has a key; the golden answers in ``golden/`` are looked up by that key.

This module imports nothing from metacirc at import time, so ``run.py`` can
use it without loading the package under test.
"""

from __future__ import annotations

# (m, n, r, ell), mode, bound
CENSUS_REF = [
    ((7, 3, 2, 1), "oracle", 1000),
    ((11, 5, 3, 1), "oracle", 1000),
    ((11, 5, 3, 3), "oracle", 1000),
    ((23, 11, 2, 1), "oracle", 1000),
]
THEOREM_LARGE = [
    ((43, 7, 4, 1), "theorem", 1000),
    ((29, 7, 7, 3), "theorem", 1000),
]
SWEEP_MAX_ORDER = 135

# classes above this order stay out of graph_queries: an unseeded query on a
# 253- to 609-vertex class takes 0.2 to 1.3 s, and with them one pass would
# take most of a run, leaving no passes to take the median of
QUERY_MAX_ORDER = 200

WORKLOADS = ("census_ref", "sweep_135", "theorem_large", "graph_queries")

# the seconds of a run given to each pass: a run makes seconds // PASS_SECONDS
# passes, at least one.  The count never depends on how fast the passes went,
# so a faster commit earns no extra passes.  In reference units (see
# hostspeed.py) census_ref had a ten-run spread of 0.078 with one pass a run
# and 0.02 to 0.03 with two; sweep_135, whose pass is longest, keeps one.
# graph_queries gets three: its percentiles depend on how the seeded
# relabelings fall, and every pass brings new ones (four passes, tried on
# five seeds, left the spread of its 90th percentile no smaller)
PASS_SECONDS = {"census_ref": 10, "sweep_135": 20, "theorem_large": 10, "graph_queries": 6}

# the latency percentiles need samples: graph_queries has 103 queries a pass,
# the census workloads only 4, 17 and 2 classify_spec calls (and the sweep's
# 17 are one `metacirc sweep` command), so there the whole pass, the census
# job a user waits for, is one request
WHOLE_PASS_REQUEST = ("census_ref", "sweep_135", "theorem_large")

MALFORMED = ("malformed aut-graph6", "malformed iso-missing")


def spec_key(spec: tuple[int, int, int, int]) -> str:
    return ",".join(map(str, spec))


def census_key(spec: tuple[int, int, int, int], mode: str) -> str:
    return f"census {mode} {spec_key(spec)}"


def census_ops(workload: str) -> list[tuple[tuple[int, int, int, int], str, int]]:
    """The classify_spec calls of a census workload, in run order."""
    if workload == "census_ref":
        return list(CENSUS_REF)
    if workload == "theorem_large":
        return list(THEOREM_LARGE)
    if workload == "sweep_135":
        # the calls `metacirc sweep --max-order 135` makes
        from metacirc.groups import iter_specs

        return [
            ((s.m, s.n, s.r, s.ell), "oracle", SWEEP_MAX_ORDER)
            for s in iter_specs(SWEEP_MAX_ORDER)
        ]
    raise ValueError(f"{workload} is not a census workload")
