"""End-to-end census: take one connection set per Aut(G)-orbit of
tetravalent connection sets, compute full graph automorphism groups,
classify transitivity, and hand the classes to ``predictions.compare``.

Two modes:

* ``oracle``: every Aut(G)-orbit of inverse-closed 4-subsets, met in a fixed
  walk over all of them, is taken once and tested for generation once on a
  single member; each generating orbit's least member is analyzed, one class
  per isomorphism type.  This is the ground truth.
* ``theorem``: build only the standard sets S_j with j in
  ``predictions.theorem_js``; equals the oracle list exactly when the count
  formula phi(n0)/2 is right.

``classify_spec`` owns what belongs to the group, and reads each class's
|Aut(G, S)|, the normalizer identity and the standard form S_j without a
graph.  Oracle mode computes Aut(G) once and walks each Aut(G)-orbit on
raw sets once: |Aut(G, S)| = |Aut(G)| / orbit size, and S_j is read off
the walk that met the class's orbit.  Theorem mode computes no Aut(G):
|Aut(G, S_j)| is 2 if an automorphism swaps S_j's generating pair, which
happens iff <a> meets the centre trivially, and 1 otherwise
(``aut.standard_set_stabilizer_order``), and S_j is its own standard form.
``analyze_connection_set`` reads the rest off the graph of one set and
never needs Aut(G), so neither does a worker process.

A set whose graph is not edge-transitive leaves the census at the first
of two exits that sees two edge orbits at vertex 0.  The first is a stage
of ``classify_spec``: distance-pair counts from one breadth-first search,
run on every set in this process before any graph is built
(``_distance_split``).  The second is in ``analyze_connection_set``, the
one per-set step, which takes the sets that pass: the orbits of the vertex
stabilizer on the neighbours of 0, after the search (``orbits_at_zero``),
which alone decides whether it returns a class.  The first exit only drops
sets with more than one edge orbit, so it changes no report, and a theorem
set whose swap is an automorphism, which is edge-transitive, skips it.
"""

from __future__ import annotations

import json
from functools import partial
from math import comb
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from metacirc import predictions
from metacirc.aut import aut_generators, standard_set_stabilizer_order
from metacirc.autosearch import PermGroup, analyze, canonical_form
from metacirc.errors import BoundExceeded
from metacirc.graphs import build_cayley, to_dot, to_graph6, validate_connection_set
from metacirc.groups import (
    Element,
    GroupSpec,
    generates,
    inv,
    inversion,
    left_translation,
    regular_representation,
)
from metacirc.permgroup import normalizer_of_regular, orbits_at_zero


class ClassReport(NamedTuple):
    """One isomorphism class of connected tetravalent edge-transitive graphs.

    The fields hold what was computed; the transitivity flags are read off
    them.  The graph is vertex-transitive, as a Cayley graph, and
    edge-transitive, since a set whose graph is not leaves the census
    before a report is made, so the JSON report's ``vertex`` and ``edge``
    are always true.  It is arc-transitive iff s >= 1, and half-transitive
    otherwise; R is normal iff its normalizer is all of Aut.

    The fields that need Aut(G) (``set_stabilizer_order`` and
    ``standard_j``) belong to the group, not to the graph:
    ``analyze_connection_set`` leaves them None and ``classify_spec`` fills
    them in.  ``set_stabilizer_order`` is |Aut(G)| over the size of the
    Aut(G)-orbit of the class's set; ``standard_j`` stays None for a class
    with no standard set.
    """

    connection_set: tuple[Element, ...]
    canonical: str
    aut_order: int
    stab_order: int
    s: int
    normalizer_order: int
    set_stabilizer_order: int | None = None
    standard_j: int | None = None

    @property
    def arc(self) -> bool:
        return self.s >= 1

    @property
    def half(self) -> bool:
        return not self.arc

    @property
    def normal_cayley(self) -> bool:
        return self.normalizer_order == self.aut_order

    @property
    def normalizer_ok(self) -> bool | None:
        """Whether |N| = |G| * |Aut(G, S)|, None without |Aut(G, S)|; |G|
        is |Aut| / |A_0|."""
        if self.set_stabilizer_order is None:
            return None
        return self.normalizer_order * self.stab_order == self.aut_order * self.set_stabilizer_order

    def set_list(self) -> list[list[int]]:
        return [list(x) for x in self.connection_set]

    def to_json_dict(self) -> dict:
        return {
            "set": self.set_list(),
            "canonical": self.canonical,
            "aut_order": self.aut_order,
            "stab_order": self.stab_order,
            "vertex": True,
            "edge": True,
            "arc": self.arc,
            "half": self.half,
            "s": self.s,
            "normal_cayley": self.normal_cayley,
            "standard_j": self.standard_j,
            "normalizer_ok": self.normalizer_ok,
        }


class GroupReport(NamedTuple):
    spec: GroupSpec
    mode: str
    classes: list[ClassReport]
    raw_candidates: int
    connected_candidates: int
    orbit_count: int
    phi_n0_half: int
    thm2_exception_count: int | None
    thm2_claim: int | None
    table1: predictions.Table1Row | None
    agreement_theorem2: bool | None
    agreement_table1: bool | None
    findings: list[str]

    @property
    def oracle_count(self) -> int:
        return len(self.classes)

    @property
    def count_matches_n(self) -> bool | None:
        """Whether the class count equals the reference row's n, None
        without a row.  It is reported apart from ``agreement_table1``,
        since the census disagrees with the row's n."""
        return None if self.table1 is None else self.oracle_count == self.table1.n

    @property
    def disagrees(self) -> bool:
        """Whether the census disagrees with the bundled predictions: the
        count formula or the reference row fails, the class count differs
        from the row's n, or there is any finding."""
        return (
            self.agreement_theorem2 is False
            or self.agreement_table1 is False
            or self.count_matches_n is False
            or bool(self.findings)
        )


# ------------------------------------------------------------- candidates

def orbit_representatives(
    spec: GroupSpec, gens: Sequence[Sequence[int]], standard: Mapping[int, Sequence[int]]
) -> list[tuple[tuple[int, ...], int, int | None]]:
    """Aut(G)-orbits of the connected tetravalent connection sets.

    ``gens`` generate Aut(G) as vertex permutations (``aut_generators``);
    ``standard`` maps each j to S_j as vertex indices, and is empty where
    the count formula does not apply.

    The identity-free inverse-closed 4-subsets {x, x^-1, y, y^-1} are the
    C((|G|-1)/2, 2) pairs of distinct inverse pairs (|G| is odd, so no
    element but the identity is its own inverse).  Automorphisms commute
    with inversion, so they permute the inverse pairs, listed as (x, x^-1)
    with x < x^-1 in order of x, and a raw set is the pair {i, j} of its
    pairs' indices.  Raw set {i, j} with i < j has the slot ``base[i] + j``
    in one byte array, in walk order: by i, then by j.  A set not marked
    yet has its Aut(G)-orbit taken breadth first on pair indices, and every
    member is marked, so the later members of that orbit are skipped.
    Automorphisms preserve generation, so one generation test decides the
    whole orbit (orderly generation in the sense of Read, 1978); it is
    arithmetic on the exponents of x and y (``groups.generates``), with no
    search over G.

    Returns [(least member, orbit size, standard_j)] of the generating
    orbits, in order of their first member.  The least member, the least
    sorted 4-tuple of vertex indices, is the first member met, the least
    (i, j): its least vertex is pairs[i][0], and for one i, j < j' gives a
    smaller rest, since pairs[j][0] < pairs[j'][0] and pairs[j][0] <
    pairs[j][1].  standard_j, the least j whose S_j lies in the orbit, is
    read right after each orbit's walk, generating or not, from the slots
    of the S_j not met by an earlier orbit.
    """
    pairs = [(x, y) for x, y in enumerate(inversion(spec)) if x < y]
    pair_of = [-1] * spec.order
    for i, (x, y) in enumerate(pairs):
        pair_of[x] = pair_of[y] = i
    count = len(pairs)
    perms = [[pair_of[g[x]] for x, _ in pairs] for g in gens]
    base = [i * (2 * count - i - 3) // 2 - 1 for i in range(count)]
    # the slot of each S_j not met yet, by j
    unmet = {}
    for t, S in standard.items():
        i, j = sorted({pair_of[x] for x in S})
        unmet[t] = base[i] + j
    marks = bytearray(comb(count, 2))
    orbits = []
    i = 0
    k = marks.find(0)
    while k >= 0:
        j = k - base[i]
        while j >= count:
            i += 1
            j = k - base[i]
        marks[k] = 1
        members = [(i, j)]
        for a, b in members:
            for p in perms:
                x, y = p[a], p[b]
                if x > y:
                    x, y = y, x
                slot = base[x] + y
                if not marks[slot]:
                    marks[slot] = 1
                    members.append((x, y))
        standard_j = min((t for t, slot in unmet.items() if marks[slot]), default=None)
        unmet = {t: slot for t, slot in unmet.items() if not marks[slot]}
        if generates((spec.at_index(pairs[i][0]), spec.at_index(pairs[j][0])), spec):
            orbits.append((tuple(sorted(pairs[i] + pairs[j])), len(members), standard_j))
        k = marks.find(0, k + 1)
    return orbits


# ------------------------------------------------------------ per-rep work

def _distance_split(spec: GroupSpec, inverse: Mapping[int, int]) -> bool:
    """Whether distance-pair counts at vertex 0 prove that the Cayley graph
    of S = {x, x^-1, y, y^-1} has two edge orbits; ``inverse`` maps each
    vertex index in S to its inverse's.

    M_z counts the pairs (d(0, v), d(z, v)) over the vertices v.  Right
    translations are automorphisms, and the one by z^-1 sends z to 0, so
    d(z, v) = d(0, v z^-1).  So M_z's row sums and its column sums are
    both the layer sizes at 0.  z is a neighbour of 0, so M_z is
    tridiagonal, and row and column k give N(k, k-1) + N(k, k+1) =
    N(k-1, k) + N(k+1, k): induction from N(0, -1) = 0 gives N(k, k+1) =
    N(k+1, k), so M_z is symmetric.  It is then the count of pairs
    (d(u, v), d(w, v)) for the edge {u, w} = {0, z} in either direction,
    which automorphisms preserve: if M_y is not M_x, the edges at 0 fall
    into two orbits.  This is the two-point distance invariant of McKay &
    Piperno ("Practical graph isomorphism, II", 2014): it only drops sets
    that have more than one edge orbit.

    One breadth-first search from 0 over the left translations by S finds
    the layers, so no graph is built.  It carries v x^-1 and v y^-1 along
    its tree: for w = s v, w t = s (v t) is one lookup in the left
    translation by s.  If rows 0..k-1 of M_x and M_y agree, so do their
    entries at (k, k-1), by symmetry, and the sum of row k: so row k
    differs iff its diagonal count does, of the v in layer k whose v z^-1
    is in layer k too.  The search stops at the first layer where the two
    counts differ.  Vertices out of reach of 0 (S need not generate) add
    the same block to both matrices: their translates are out of reach too.
    """
    x = min(inverse)
    y = min(z for z in inverse if z != x and z != inverse[x])
    steps = [left_translation(s, spec) for s in inverse]
    dist = [-1] * spec.order
    dist[0] = 0
    # the vertices v of layer k, each with v x^-1 and v y^-1
    layer = [(0, inverse[x], inverse[y])]
    k = 0
    while layer:
        # at k = 0 each count reads one vertex not reached yet, so they agree
        _, xs, ys = zip(*layer)
        if [dist[u] for u in xs].count(k) != [dist[u] for u in ys].count(k):
            return True
        k += 1
        nxt = []
        for v, a, b in layer:
            for p in steps:
                w = p[v]
                if dist[w] < 0:
                    dist[w] = k
                    nxt.append((w, p[a], p[b]))
        layer = nxt
    return False


def analyze_connection_set(spec: GroupSpec, S: Iterable[Element]) -> ClassReport | None:
    """Full classification data for one connection set, whose report holds
    the set sorted by vertex index in whatever order it comes.

    Returns None when the graph is not edge-transitive (such sets leave the
    census): when the orbits of A_0 on the neighbours of vertex 0, merged
    along x ~ x^-1, are more than one (``orbits_at_zero``).  Every fact is
    read at vertex 0, since Aut = R * A_0 with R the regular copy of G and
    A_0 the stabilizer of vertex 0, and off one search:

    * the automorphism search is seeded with R, so every automorphism it
      finds fixes vertex 0, and those found generate A_0 (first-path
      property, see ``autosearch``), a strong generating set for the
      search's first path; only A_0 gets a stabilizer chain, read off that
      path, and |Aut| = |G| * |A_0|;
    * arc- and s-arc-transitivity come from the orbits of A_0 on the
      s-arcs of vertex 0 (``orbits_at_zero``);
    * the normalizer of R is found by enumerating A_0, and R is normal
      exactly when its normalizer is all of Aut.
    """
    S = validate_connection_set(S, spec)
    graph = build_cayley(S, spec)
    result = analyze(graph, seeds=regular_representation(spec))
    # the translations fix no vertex, so the found automorphisms are the
    # generators that fix base[0] = 0
    a0 = PermGroup(graph.n, result.found, result.base)
    edge_orbits, s = orbits_at_zero(a0, graph, _inverses(S, spec))
    if edge_orbits != 1:
        return None
    return ClassReport(
        connection_set=S,
        canonical=canonical_form(graph, result).decode("ascii"),
        aut_order=spec.order * a0.order,
        stab_order=a0.order,
        s=s,
        normalizer_order=normalizer_of_regular(a0, spec),
    )


def _inverses(S: Sequence[Element], spec: GroupSpec) -> dict[int, int]:
    return {spec.index(x): spec.index(inv(x, spec)) for x in S}


# ---------------------------------------------------------------- pipeline

def classify_spec(
    spec: GroupSpec,
    mode: str = "oracle",
    bound: int = 1000,
    jobs: int = 1,
) -> GroupReport:
    """Classify all connected tetravalent edge-transitive Cayley graphs of G,
    and compare the classes with the predictions (``predictions.compare``).

    Oracle mode checks the walk bound before it computes Aut(G); theorem
    mode checks the count formula's hypotheses, and computes no Aut(G)."""
    if mode not in ("oracle", "theorem"):
        raise ValueError(f"unknown mode {mode!r}")
    # (set, |Aut(G, S)|, standard_j) per candidate set
    if mode == "theorem":
        js = predictions.theorem_js(spec)
        set_stab = standard_set_stabilizer_order(spec)
        sets = [(predictions.standard_connection_set(j, spec), set_stab, j) for j in js]
        raw = connected = 0
    else:
        if spec.order > bound:
            raise BoundExceeded(f"|G| = {spec.order} exceeds candidate bound {bound}")
        gens, aut_order = aut_generators(spec)
        # each standard set S_j, by j, where the count formula applies
        standard = {j: [spec.index(x) for x in predictions.standard_connection_set(j, spec)]
                    for j in predictions.standard_js(spec)} if predictions.thm2_applicable(spec) else {}
        reps = orbit_representatives(spec, gens, standard)
        sets = [(tuple(map(spec.at_index, rep)), aut_order // size, standard_j)
                for rep, size, standard_j in reps]
        raw = comb((spec.order - 1) // 2, 2)
        connected = sum(size for _, size, _ in reps)

    orbit_count = len(sets)
    # the distance filter, in this process; a theorem set with |Aut(G, S_j)|
    # = 2 has the swap, so it is edge-transitive and skips it
    if mode == "oracle" or set_stab != 2:
        sets = [t for t in sets if not _distance_split(spec, _inverses(t[0], spec))]

    # merge by canonical form; distinct aut-orbits with equal canonical forms
    # witness a failure of the CI property and are passed on as twins
    merged: dict[str, ClassReport] = {}
    twins: list[tuple[ClassReport, ClassReport]] = []
    results = parallel_map(partial(analyze_connection_set, spec), [S for S, _, _ in sets], jobs)
    # strict=True draws the results to their end, which shuts any pool down
    for (_, set_stab, standard_j), c in zip(sets, results, strict=True):
        if c is None:
            continue
        c = c._replace(set_stabilizer_order=set_stab, standard_j=standard_j)
        prev = merged.setdefault(c.canonical, c)
        if prev is not c:
            twins.append((prev, c))
    classes = sorted(merged.values(), key=lambda c: c.canonical)
    return GroupReport(
        spec=spec,
        mode=mode,
        classes=classes,
        raw_candidates=raw,
        connected_candidates=connected,
        orbit_count=orbit_count,
        **predictions.compare(spec, mode, classes, twins),
    )


def parallel_map(fn: Callable, items: Sequence, jobs: int) -> Iterator:
    """fn applied to each item, yielded in item order.

    With ``jobs <= 1`` or at most one item, fn runs in this process.
    Otherwise each item is one task of one pool of min(jobs, len(items))
    worker processes, so fn and the items must pickle; a task that raises
    ends the map with its exception, and the pending tasks are cancelled.
    """
    if jobs <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    from concurrent import futures

    with futures.ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        try:
            yield from pool.map(fn, items)
        finally:
            pool.shutdown(cancel_futures=True)


# ------------------------------------------------------------------- JSON

def report_to_json_dict(report: GroupReport) -> dict:
    spec = report.spec
    group = spec.to_json_dict()
    group["order"] = spec.order
    row = report.table1
    table = None if row is None else {**row._asdict(), "count_matches_n": report.count_matches_n}
    return {
        "group": group,
        "theory": {
            "phi_n0_half": report.phi_n0_half,
            "thm2_exception_count": report.thm2_exception_count,
            "table1": table,
        },
        "classes": [c.to_json_dict() for c in report.classes],
        "agreement": {
            "theorem2": report.agreement_theorem2,
            "table1": report.agreement_table1,
        },
        "findings": report.findings,
        "mode": report.mode,
        "candidates": {
            "raw": report.raw_candidates,
            "connected": report.connected_candidates,
            "orbits": report.orbit_count,
        },
    }


def emit_report(report: GroupReport, path: str | Path, graphs: bool = False) -> None:
    """Write the JSON report; optionally graph6 and DOT files per class."""
    path = Path(path)
    path.write_text(json.dumps(report_to_json_dict(report), indent=2, sort_keys=False) + "\n")
    if graphs:
        for i, c in enumerate(report.classes):
            g = build_cayley(c.connection_set, report.spec)
            path.with_suffix(f".class{i}.g6").write_bytes(to_graph6(g) + b"\n")
            path.with_suffix(f".class{i}.dot").write_text(to_dot(g))
