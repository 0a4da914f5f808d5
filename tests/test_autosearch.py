from __future__ import annotations

import gc
import hashlib
import inspect
import json
import math
import random
import sys
from collections import Counter, deque
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metacirc import autosearch
from metacirc.aut import aut_generators
from metacirc.classify import analyze_connection_set, classify_spec, orbit_representatives
from metacirc.autosearch import (
    _individualize,
    _initial_partition,
    _refine,
    analyze,
    are_isomorphic,
    automorphism_group,
    canonical_form,
)
from metacirc.graphs import (
    are_automorphisms,
    build_cayley,
    from_graph6,
    graph_from_edges,
    packed_rows,
    to_graph6,
)
from metacirc.groups import Element, GroupSpec, iter_specs, regular_representation
from metacirc.permgroup import PermGroup, orbit
from metacirc.predictions import standard_connection_set
from oracles import (
    apply_aut,
    aut_triples,
    backtracking_automorphism_count,
    bitmask_refine,
    brute_force_graph_automorphisms,
    brute_force_isomorphic,
    edge_orbit_count,
    leaf_keys,
    least_leaf_key,
    orbit_count,
    point_orbits,
    rows_in_order,
    s_arcs,
    signature_cells,
    vertex_mask,
    vertex_masks,
)

F21 = GroupSpec(7, 3, 2)
Z5 = GroupSpec(5, 1, 1)
K5 = build_cayley([Element(u, 0, 0) for u in range(1, 5)], Z5)
PETERSEN = graph_from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


def generating_sets(spec):
    """The least member of each generating Aut(G)-orbit of connection sets,
    in the census's walk order (``orbit_representatives``)."""
    return [rep for rep, _, _ in orbit_representatives(spec, aut_generators(spec)[0], {})]


def z4_squared_graph(steps):
    """The Cayley graph of Z4 x Z4 whose connection set is ``steps`` and
    their negatives; (a, b) is vertex 4a + b."""
    edges = {
        tuple(sorted((4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4)))
        for a in range(4) for b in range(4) for x, y in steps
    }
    return graph_from_edges(16, sorted(edges))


# strongly regular graphs with the same parameters (16, 6, 2, 2), not isomorphic
SHRIKHANDE = z4_squared_graph([(0, 1), (1, 0), (1, 1)])
ROOK_4X4 = z4_squared_graph([(0, 1), (0, 2), (1, 0), (2, 0)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, p, rng):
    return graph_from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def random_relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def random_regular_graph(n, d, rng):
    """A simple d-regular graph on n vertices: d points per vertex, paired
    at random until no pair is a loop or a double edge."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges = {tuple(sorted(e)) for e in zip(points[::2], points[1::2])}
        if len(edges) == n * d // 2 and all(u != v for u, v in edges):
            return graph_from_edges(n, sorted(edges))


def refine_fixture(n, kind, rng):
    """A sparse, dense or disconnected random graph, or a relabeled circulant."""
    if kind == "sparse":
        return random_graph(n, rng.uniform(0.02, 0.15), rng)
    if kind == "dense":
        return random_graph(n, rng.uniform(0.6, 0.95), rng)
    if kind == "disconnected":
        # two copies of one random graph, plus an isolated vertex if n is odd
        half = random_graph(n // 2, 0.3, rng)
        k = n // 2
        return graph_from_edges(n, half.edges() + [(u + k, v + k) for u, v in half.edges()])
    jumps = {rng.randint(1, max(1, n // 2)) for _ in range(rng.randint(1, 3))}
    edges = {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in jumps if d % n}
    return random_relabel(graph_from_edges(n, sorted(edges)), rng)


# ------------------------------------------------------------- refinement

def partition(cells):
    """The search's partition (cell_at, cell_of, ncells) of a list of cells."""
    n = sum(map(len, cells))
    cell_at, cell_of = [None] * n, [-1] * n
    start = 0
    for cell in cells:
        cell_at[start] = cell
        for v in cell:
            cell_of[v] = start if len(cell) > 1 else -1
        start += len(cell)
    return cell_at, cell_of, len(cells)


def cells_of(part):
    """The list of cells of a partition, in order."""
    return [cell for cell in part[0] if cell is not None]


@given(
    n=st.integers(1, 40),
    kind=st.sampled_from(["sparse", "dense", "disconnected", "circulant"]),
    rnd=st.random_module(),
)
@settings(max_examples=150, deadline=None)
def test_refine_matches_bitmask_reference(n, kind, rnd):
    """Splitter-local refinement gives the reference's cells, in the same
    order and each in ascending vertex order, after the initial refinement
    and after every step of a random sequence of individualizations.  Its
    ``cell_of`` and cell count are those of its cells, and the parent it
    was individualized from, whose cell lists it shares, is unchanged."""
    rng = random.Random(rnd.seed)
    g = refine_fixture(n, kind, rng)
    adj_bits = vertex_masks(g.adjacency)
    part = _initial_partition(g)
    cells = cells_of(part)
    refined = _refine(g.adjacency, part, None)
    assert cells_of(refined) == bitmask_refine(adj_bits, cells, None)
    assert refined == partition(cells_of(refined))
    while True:
        assert all(cell == sorted(cell) for cell in cells_of(refined))
        open_cells = [s for s, cell in enumerate(refined[0]) if cell and len(cell) > 1]
        if not open_cells:
            break
        t = rng.choice(open_cells)
        parent = refined
        before = ([cell and list(cell) for cell in parent[0]], parent[1][:], parent[2])
        child, splitters = _individualize(parent, t, rng.choice(parent[0][t]))
        child_cells = cells_of(child)
        refined = _refine(g.adjacency, child, splitters)
        assert cells_of(refined) == bitmask_refine(
            adj_bits, child_cells, [vertex_mask(s) for s in splitters]
        )
        assert refined == partition(cells_of(refined))
        # the child shares the parent's cell lists and changed none of them
        assert parent == before


def two_circulants(n, jumps1, jumps2):
    """Two circulants on n vertices each, side by side: a regular graph
    when both have as many jumps, and not vertex-transitive in general."""
    edges = [(i, (i + d) % n) for i in range(n) for d in jumps1]
    edges += [(n + i, n + (i + d) % n) for i in range(n) for d in jumps2]
    return graph_from_edges(2 * n, edges)


@given(
    n=st.integers(1, 30),
    kind=st.sampled_from(
        ["sparse", "dense", "disconnected", "circulant", "regular", "empty", "complete", "union", "triangles"]
    ),
    rnd=st.random_module(),
)
@example(n=12, kind="empty", rnd=SimpleNamespace(seed=0))
@example(n=1, kind="complete", rnd=SimpleNamespace(seed=0))
@example(n=7, kind="complete", rnd=SimpleNamespace(seed=0))
@example(n=11, kind="union", rnd=SimpleNamespace(seed=0))
@example(n=9, kind="triangles", rnd=SimpleNamespace(seed=0))
@settings(max_examples=100, deadline=None)
def test_initial_partition_matches_signature_reference(n, kind, rnd):
    """The starting partition groups the vertices by their signature, in
    signature order, also on regular graphs, whose signatures it orders by
    the number of vertices at distance 2 alone.  That number is read off bit
    rows, so these regular graphs are given too: the empty graph, where no
    vertex reaches any; K_n, where none is at distance 2; C_m(1, 2) beside
    C_m(1, 3), which have 4 and 6 vertices at distance 2 once m >= 11; and
    C_m(1, 2) beside C_m(1, 3) for m = 9 or 10, which both have 4 but whose
    neighbours' rows reach 9 and 7, or 9 and 5, vertices, as triangles put
    neighbours in them."""
    rng = random.Random(rnd.seed)
    if kind == "regular":
        k = rng.randint(1, 3)
        g = random_relabel(two_circulants(
            max(n, 2 * k + 1), rng.sample(range(1, k + 4), k), rng.sample(range(1, k + 4), k)
        ), rng)
    elif kind == "empty":
        g = graph_from_edges(n, [])
    elif kind == "complete":
        g = graph_from_edges(n, combinations(range(n), 2))
    elif kind in ("union", "triangles"):
        m = max(n, 11) if kind == "union" else 9 + n % 2
        g = random_relabel(two_circulants(m, [1, 2], [1, 3]), rng)
    else:
        g = refine_fixture(n, kind, rng)
    assert _initial_partition(g) == partition(signature_cells(g.adjacency))


def first_node(g, seeds):
    """``analyze(g, seeds)`` and the path and partition of its first
    ``_Search.node`` call, or None if the search is one leaf."""
    calls = []
    node = autosearch._Search.node

    def recording_node(self, part, fixed, kept, fed):
        calls.append((list(fixed), (list(part[0]), list(part[1]), part[2])))
        return node(self, part, fixed, kept, fed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autosearch._Search, "node", recording_node)
        result = analyze(g, seeds)
    return result, calls[0] if calls else None


def assert_seeding_changes_nothing(g, seeded):
    """The seeded search gives the unseeded one's canonical form and group
    order."""
    plain = analyze(g)
    assert canonical_form(g, seeded) == canonical_form(g, plain)
    assert PermGroup(g.n, seeded.generators, seeded.base).order == PermGroup(
        g.n, plain.generators, plain.base
    ).order


def vertex_0_branch(g):
    """The refined partition of vertex 0 individualized in one cell."""
    child, splitters = _individualize(partition([list(range(g.n))]), 0, 0)
    return _refine(g.adjacency, child, splitters)


@pytest.mark.parametrize("spec", list(iter_specs(135)), ids=lambda s: f"{s.m}-{s.n}-{s.r}")
def test_seeded_initial_partition_on_census_graphs(spec):
    """With the regular translations as seeds, the search of a Cayley graph
    starts at vertex 0's branch: its first node's partition is vertex 0
    individualized in one cell and refined, or its one leaf is that
    partition when it is discrete; the initial partition, which the search
    does not compute, is that one cell.  Seeding changes neither the
    canonical form nor the group order."""
    regular = regular_representation(spec)
    for rep in generating_sets(spec):
        g = build_cayley([spec.at_index(x) for x in rep], spec)
        assert cells_of(_initial_partition(g)) == [list(range(g.n))]
        start = vertex_0_branch(g)
        result, first = first_node(g, regular)
        if first is None:
            assert start[2] == g.n and result.canonical_order == [c[0] for c in start[0]]
        else:
            assert first == ([0], start)
        assert_seeding_changes_nothing(g, result)


def test_seeded_initial_partition_with_intransitive_seeds():
    """The same equalities when the seeds have several orbits, any subset of
    the automorphisms an unseeded search finds: the search then starts at
    the root, whose partition is the initial one, refined unless it is one
    cell.  Transitive subsets start at vertex 0's branch as above.
    Intransitive seeds must occur over the run."""
    intransitive = []

    @given(
        n=st.integers(1, 30),
        kind=st.sampled_from(["sparse", "dense", "disconnected", "circulant"]),
        rnd=st.random_module(),
    )
    @settings(max_examples=60, deadline=None)
    def check(n, kind, rnd):
        rng = random.Random(rnd.seed)
        g = refine_fixture(n, kind, rng)
        gens = analyze(g).generators
        seeds = rng.sample(gens, rng.randint(0, len(gens)))
        result, first = first_node(g, seeds)
        transitive = bool(seeds) and len(point_orbits(seeds, g.n)) == 1
        if transitive:
            assert cells_of(_initial_partition(g)) == [list(range(g.n))]
            start, path = vertex_0_branch(g), [0]
        else:
            part = _initial_partition(g)
            start, path = (part if part[2] == 1 else _refine(g.adjacency, part, None)), []
        if first is None:
            assert start[2] == g.n and result.canonical_order == [c[0] for c in start[0]]
        else:
            assert first == (path, start)
        intransitive.append(bool(seeds) and not transitive)
        assert_seeding_changes_nothing(g, result)

    check()
    assert any(intransitive)


def two_splitter_individualize(part, start, v):
    """The former individualization, which also queued the rest of the
    target cell as a splitter."""
    child, splitters = _individualize(part, start, v)
    return child, splitters + [[u for u in part[0][start] if u != v]]


@given(
    n=st.integers(1, 40),
    kind=st.sampled_from(["sparse", "dense", "disconnected", "circulant"]),
    rnd=st.random_module(),
)
@settings(max_examples=100, deadline=None)
def test_search_result_unchanged_without_rest_splitter(n, kind, rnd):
    """Individualizing with [v] as the only splitter gives the search result
    (generators in order, canonical order and key) of also splitting by the
    rest of the target cell."""
    g = refine_fixture(n, kind, random.Random(rnd.seed))
    result = analyze(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autosearch, "_individualize", two_splitter_individualize)
        reference = analyze(g)
    assert result == reference


def recorded_search(g, seeds=()):
    """Run ``analyze(g, seeds)`` and record every ``_refine`` call as
    (cells, splitters, result), and every pruning test of ``_Search.node``
    as (path, processed, done, generators, kept): the node's path, the
    vertices of its target cell processed so far, its set ``done``, the
    generators found so far and those the node keeps.  Returns the refine
    calls and the pruning tests.

    The pruning test is the line ``if v in done:``; a tracer reads the
    node's locals there.  A vertex its test let through has been processed
    by the node's next test: a node that a jump leaves tests no more."""
    refines, prunes = [], []
    refine = autosearch._refine
    code = autosearch._Search.node.__code__
    lines, first = inspect.getsourcelines(autosearch._Search.node)
    prune_line = first + [line.strip() for line in lines].index("if v in done:")

    def recording_refine(adj, part, splitters):
        given = cells_of(part), None if splitters is None else [list(s) for s in splitters]
        result = refine(adj, part, splitters)
        refines.append((*given, cells_of(result)))
        return result

    # each resume of a node's generator is a new call event of its frame
    processed_at = {}

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        processed = processed_at.setdefault(frame, [])

        def at_line(frame, event, arg):
            if event == "line" and frame.f_lineno == prune_line:
                local = frame.f_locals
                v, done = local["v"], local["done"]
                gens = local["self"].gens
                prunes.append(
                    (list(local["fixed"]), list(processed), set(done), gens[:], list(local["kept"]))
                )
                if v not in done:
                    processed.append(v)
            return at_line

        return at_line

    previous = sys.gettrace()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autosearch, "_refine", recording_refine)
        sys.settrace(tracer)
        try:
            analyze(g, seeds)
        finally:
            sys.settrace(previous)
    return refines, prunes


def matches_bitmask_reference(g, refines) -> bool:
    adj_bits = vertex_masks(g.adjacency)
    return all(
        result == bitmask_refine(
            adj_bits, cells, None if splitters is None else [vertex_mask(s) for s in splitters]
        )
        for cells, splitters, result in refines
    )


# the census_ref specs; by index in generating_sets, the generating
# orbits whose graph is not edge-transitive
CENSUS_REF_EXITS = {
    GroupSpec(7, 3, 2): [0],
    GroupSpec(11, 5, 3): [0, 3],
    GroupSpec(11, 5, 3, ell=3): [0, 1, 2, 3, 4, 6, 7, 8, 9, 11, 12],
    GroupSpec(23, 11, 2): [0, 1, 2, 3, 4, 6, 7, 9, 11, 12, 13, 15, 16, 18],
}


CENSUS_CLASS_SPECS = {55: GroupSpec(11, 5, 3), 125: GroupSpec(25, 5, 6), 165: GroupSpec(11, 5, 3, ell=3)}


@lru_cache(maxsize=None)
def census_class_searches(order):
    """The unseeded search on each census class of 55, 125 or 165 vertices,
    relabeled at random, as ``recorded_search`` records it, with its graph."""
    spec = CENSUS_CLASS_SPECS[order]
    rng = random.Random(order)
    out = []
    for cls in classify_spec(spec).classes:
        g = random_relabel(build_cayley(cls.connection_set, spec), rng)
        out.append((g, *recorded_search(g)))
    return tuple(out)


@lru_cache(maxsize=None)
def census_ref_searches(spec):
    """The census's seeded search on each generating orbit of a census_ref
    spec, as ``recorded_search`` records it, with its graph."""
    regular = regular_representation(spec)
    out = []
    for rep in generating_sets(spec):
        g = build_cayley([spec.at_index(x) for x in rep], spec)
        out.append((g, *recorded_search(g, regular)))
    return tuple(out)


@pytest.mark.parametrize("order", [55, 125, 165])
def test_refine_matches_bitmask_reference_on_census_classes(order):
    """Every refinement the unseeded search makes on a relabeled census
    class past the random fixtures' 40 vertices gives the reference's cells."""
    searches = census_class_searches(order)
    assert len(searches) == {55: 3, 125: 2, 165: 5}[order]
    for g, refines, _ in searches:
        assert refines and matches_bitmask_reference(g, refines)


@contextmanager
def recorded_queue():
    """Record, in the list this yields, every entry that ``_refine`` queues
    after its first ones, as its (splitter, other) pair, and every entry it
    pops, as None."""
    events = []

    class RecordingDeque(deque):
        def append(self, item):
            events.append(item)
            super().append(item)

        def popleft(self):
            events.append(None)
            return super().popleft()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autosearch, "deque", RecordingDeque)
        yield events


def sibling_counted_splits(cells, events) -> int:
    """Check the splits of one ``_refine`` call on ``cells``, from its
    ``recorded_queue`` events: each split queues its first fragment to be
    counted by the union of its siblings exactly when they are fewer, queues
    its middle fragments to be counted themselves, and does not queue its
    last fragment.  Return how many splits into three or more fragments
    counted their first by its siblings.

    The partition is tracked from ``cells``.  A splitter splits a cell at
    most once, so the entries queued in a row between two pops that lie in
    one cell are the queued fragments of one split of it, and the rest of
    the cell is its last fragment."""
    cell_of = {v: cell for cell in cells for v in cell}
    fired = 0
    split = []  # the entries queued so far by the split being read

    def close():
        nonlocal fired
        if not split:
            return
        cell = cell_of[split[0][0][0]]
        frags = [frag for frag, _ in split]
        assert all(set(frag) <= set(cell) for frag in frags)
        last = sorted(set(cell).difference(*frags))
        assert last, "a split queued its last fragment"
        (first, other), *middle = split
        union = [v for frag in frags[1:] for v in frag] + last
        assert other == (union if len(union) < len(first) else None)
        assert all(o is None for _, o in middle)
        fired += other is not None and len(frags) > 1
        for frag in frags + [last]:
            for v in frag:
                cell_of[v] = frag
        split.clear()

    for entry in events:
        if entry is None or split and cell_of[entry[0][0]] is not cell_of[split[0][0][0]]:
            close()
        if entry is not None:
            split.append(entry)
    close()
    return fired


def refine_checking_splits(adj, cells, splitters):
    """``_refine(adj, cells, splitters)``, its splits checked by
    ``sibling_counted_splits``, and what that returned."""
    with recorded_queue() as events:
        refined = cells_of(_refine(adj, partition(cells), splitters))
    return refined, sibling_counted_splits(cells, events)


def test_refine_counts_first_fragments_by_their_siblings():
    """On random 3- and 4-regular graphs some cell splits into three or
    more fragments whose first is more than half of it; refinement counts
    that fragment by its siblings, queues no last fragment, and still gives
    the reference's cells after every step of a random sequence of
    individualizations.  The rule must fire at least once over the run, so
    the test cannot pass without exercising it."""
    fired = []

    @given(n=st.integers(8, 40), d=st.sampled_from([3, 4]), rnd=st.random_module())
    @settings(max_examples=100, deadline=None)
    def check(n, d, rnd):
        rng = random.Random(rnd.seed)
        g = random_regular_graph(n - n * d % 2, d, rng)
        adj_bits = vertex_masks(g.adjacency)
        cells = cells_of(_initial_partition(g))
        refined, k = refine_checking_splits(g.adjacency, cells, None)
        assert refined == bitmask_refine(adj_bits, cells, None)
        while True:
            fired.append(k)
            part = partition(refined)
            open_cells = [s for s, cell in enumerate(part[0]) if cell and len(cell) > 1]
            if not open_cells:
                break
            t = rng.choice(open_cells)
            child, splitters = _individualize(part, t, rng.choice(part[0][t]))
            child = cells_of(child)
            refined, k = refine_checking_splits(g.adjacency, child, splitters)
            assert refined == bitmask_refine(adj_bits, child, [vertex_mask(s) for s in splitters])

    check()
    assert sum(fired) > 0


@pytest.mark.parametrize("order", [125, 165])
def test_refine_counts_first_fragments_by_their_siblings_on_census_classes(order):
    """The unseeded search on a relabeled census class of 125 or 165
    vertices counts some first fragment of a split into three or more by
    its siblings and queues no last fragment; its refinements give the
    reference's cells (see
    ``test_refine_matches_bitmask_reference_on_census_classes``)."""
    fired = 0
    for g, refines, _ in census_class_searches(order):
        for cells, splitters, result in refines:
            refined, k = refine_checking_splits(g.adjacency, cells, splitters)
            assert refined == result
            fired += k
    assert fired > 0


def root_refinements(g, seeds=()) -> int:
    """How many ``_refine(..., None)`` calls ``analyze(g, seeds)`` makes."""
    roots = []
    refine = autosearch._refine

    def recording_refine(adj, part, splitters):
        roots.append(splitters is None)
        return refine(adj, part, splitters)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autosearch, "_refine", recording_refine)
        analyze(g, seeds)
    return sum(roots)


def test_one_cell_partitions_skip_the_root_refinement():
    """One signature means a regular graph, whose one-cell partition is
    already equitable: regular graphs whose vertices share a signature,
    unseeded, and seeded Cayley graphs make no root refinement.  A regular
    graph with several signatures and graphs that are not regular still
    make theirs.  That the results are unchanged is checked by
    ``test_searches_match_frozen_results``."""
    one_cell = [PETERSEN, SHRIKHANDE, cycle_graph(9), graph_from_edges(6, []), K5]
    one_cell += [g for g, _, _ in census_class_searches(55)]
    for g in one_cell:
        assert len(cells_of(_initial_partition(g))) == 1
        assert root_refinements(g) == 0
    for spec in (F21, GroupSpec(11, 5, 3, ell=3)):
        g = build_cayley(standard_connection_set(1, spec), spec)
        assert root_refinements(g, regular_representation(spec)) == 0
    star = graph_from_edges(7, [(0, v) for v in range(1, 7)])
    path = graph_from_edges(8, [(i, i + 1) for i in range(7)])
    # a cycle of 8 beside two of 4: 2-regular, with 2 or 1 vertices at distance 2
    for g in (star, path, two_circulants(8, [1], [2])):
        assert len(cells_of(_initial_partition(g))) > 1
        assert root_refinements(g) == 1


@pytest.mark.parametrize("spec", list(CENSUS_REF_EXITS), ids=lambda s: f"{s.m}-{s.n}-{s.r}-{s.ell}")
def test_edge_split_exit_on_census_ref_orbits(spec):
    """``analyze_connection_set`` drops the frozen generating orbits, the
    ones that are not edge-transitive, and no other, and every refinement
    of the census's seeded search on each orbit gives the reference's
    cells."""
    orbits = generating_sets(spec)
    dropped = [
        i for i, rep in enumerate(orbits)
        if analyze_connection_set(spec, [spec.at_index(x) for x in rep]) is None
    ]
    assert dropped == CENSUS_REF_EXITS[spec]
    searches = census_ref_searches(spec)
    assert len(searches) == len(orbits)
    for g, refines, _ in searches:
        assert refines and matches_bitmask_reference(g, refines)


def test_pruning_orbits_match_fresh_orbits():
    """At every pruning test of the searches above, ``done`` is the union
    of the orbits of the processed vertices under the generators found so
    far that fix the node's path pointwise, found from scratch."""
    searches = [(g, prunes) for order in (55, 125, 165) for g, _, prunes in census_class_searches(order)]
    searches += [(g, prunes) for spec in CENSUS_REF_EXITS for g, _, prunes in census_ref_searches(spec)]
    tests = grown = 0
    for g, prunes in searches:
        for path, processed, done, gens, _ in prunes:
            stabilizer = [p for p in gens if all(p[x] == x for x in path)]
            expected = {x for o in point_orbits(stabilizer, g.n) if set(o) & set(processed) for x in o}
            assert done == expected
            tests += 1
            grown += len(done) > len(processed)
    assert tests > 1000 and grown > 500


def test_pruning_orbits_with_intransitive_seeds():
    """The same when the seeds move one component of a graph only: the
    search starts at the root, which grows ``done`` under the seeds until
    the search finds generators of its own, which move the other
    component, and from then on under all of them."""
    union = graph_from_edges(
        32, SHRIKHANDE.edges() + [(u + 16, v + 16) for u, v in ROOK_4X4.edges()]
    )
    seeds = [p + tuple(range(16, 32)) for p in analyze(SHRIKHANDE).generators]
    _, prunes = recorded_search(union, seeds)
    for path, processed, done, gens, _ in prunes:
        stabilizer = [p for p in gens if all(p[x] == x for x in path)]
        expected = {x for o in point_orbits(stabilizer, union.n) if set(o) & set(processed) for x in o}
        assert done == expected
    # the root branches on 0, skips the rest of its seed orbit, branches on
    # 16 and returns, done grown over the second component
    assert [processed for path, processed, *_ in prunes if not path] == [[]] + [[0]] * 16


def test_kept_generators_fix_the_node_path():
    """A node keeps a generator found below it only if it fixes the node's
    path.  On the disjoint union of the Shrikhande and 4 x 4 rook's
    graphs, automorphisms found against the least leaf, not the first,
    reach nodes whose path they move under some of 30 relabelings, and the
    filter drops them there."""
    union = graph_from_edges(
        32, SHRIKHANDE.edges() + [(u + 16, v + 16) for u, v in ROOK_4X4.edges()]
    )
    dropped = 0
    for seed in range(30):
        _, prunes = recorded_search(random_relabel(union, random.Random(seed)))
        gens_at_first_test = {}
        for path, _, _, gens, kept in prunes:
            assert all(p[x] == x for p in kept for x in path)
            since = gens_at_first_test.setdefault(tuple(path), len(gens))
            dropped += sum(any(p[x] != x for x in path) for p in gens[since:])
    assert dropped > 0


def recorded_leaves(g):
    """Run the unseeded search on g; return its result and every leaf it
    reached, in search order, as (path, key): the vertices individualized
    on the way down and the leaf's rows in its order of vertices."""
    leaves = []
    leaf = autosearch._Search.leaf
    rows = [list(r) for r in g.adjacency]

    def recording_leaf(self, cells, fixed):
        leaves.append((list(fixed), rows_in_order(rows, [c[0] for c in cells])))
        return leaf(self, cells, fixed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autosearch._Search, "leaf", recording_leaf)
        result = analyze(g)
    return result, leaves


def jumps_skip_their_subtrees(leaves) -> int:
    """Check that the search left the subtree of every leaf whose key is
    the first leaf's: if such a leaf's path leaves the first leaf's path at
    depth d, no later leaf shares its first d + 1 path vertices.  Returns
    the number of such leaves."""
    (first_path, first_key), *rest = leaves
    jumps = 0
    for i, (path, key) in enumerate(rest):
        if key == first_key:
            d = next(d for d, (v, w) in enumerate(zip(path, first_path)) if v != w)
            assert all(later[:d + 1] != path[:d + 1] for later, _ in rest[i + 1:])
            jumps += 1
    return jumps


@pytest.mark.parametrize("order", [55, 125, 165])
def test_search_jumps_back_to_the_first_path_on_census_classes(order):
    """On each relabeled census class the search jumps back after a leaf
    that matches the first, and still finds the census's group order and
    canonical form."""
    classes = classify_spec(CENSUS_CLASS_SPECS[order]).classes
    jumps = 0
    for (g, _, _), cls in zip(census_class_searches(order), classes, strict=True):
        result, leaves = recorded_leaves(g)
        jumps += jumps_skip_their_subtrees(leaves)
        assert PermGroup(g.n, result.generators, result.base).order == cls.aut_order
        assert canonical_form(g, result).decode() == cls.canonical
    assert jumps > 0


@given(
    n=st.integers(1, 40),
    kind=st.sampled_from(["sparse", "dense", "disconnected", "circulant"]),
    rnd=st.random_module(),
)
@settings(max_examples=100, deadline=None)
def test_search_jumps_back_to_the_first_path(n, kind, rnd):
    """The same on the random refinement fixtures, and every generator
    found is an automorphism."""
    g = refine_fixture(n, kind, random.Random(rnd.seed))
    result, leaves = recorded_leaves(g)
    jumps_skip_their_subtrees(leaves)
    assert are_automorphisms(g, result.generators)


def reaches_every_leaf_key(g) -> bool:
    """Check that the search reaches a leaf of every key of the unpruned
    tree.  Returns whether the tree has more than one key."""
    _, leaves = recorded_leaves(g)
    keys = leaf_keys([list(r) for r in g.adjacency])
    assert {key for _, key in leaves} == keys
    return len(keys) > 1


@given(n=st.integers(0, 8), p=st.floats(0.1, 0.9), rnd=st.random_module())
@settings(max_examples=100, deadline=None)
def test_search_reaches_every_leaf_key(n, p, rnd):
    reaches_every_leaf_key(random_graph(n, p, random.Random(rnd.seed)))


def test_search_reaches_every_leaf_key_of_regular_graphs():
    """The same on 440 graphs, 3- and 4-regular of 8 to 14 vertices, whose
    root cell is often the whole graph; 115 of their trees have several
    keys."""
    rng = random.Random(2514)
    sizes = [(n, d) for d in (3, 4) for n in range(8, 15) if n * d % 2 == 0]
    several = sum(reaches_every_leaf_key(random_regular_graph(n, d, rng)) for n, d in sizes * 40)
    assert several == 115


def test_search_leaves_no_reference_cycle():
    """A search leaves nothing for the cyclic garbage collector: its state
    is freed as soon as it is dropped, whether finished or, as ``iso``
    leaves both of its searches, suspended at a leaf."""
    spec = GroupSpec(11, 5, 3, ell=3)
    g, other = (build_cayley(c.connection_set, spec) for c in classify_spec(spec).classes[:2])
    regular = regular_representation(spec)
    rep = generating_sets(spec)[0]
    split = build_cayley([spec.at_index(x) for x in rep], spec)
    relabeled = random_relabel(g, random.Random(165))
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            analyze(g)
        analyze(g, seeds=regular)
        analyze(split, seeds=regular)
        assert are_isomorphic(g, relabeled)
        assert not are_isomorphic(g, other)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ----------------------------------------------------------- group orders

@pytest.mark.parametrize("complete", [False, True], ids=["empty", "complete"])
def test_empty_and_complete_graphs_keep_few_generators(complete):
    """Every leaf of these trees matches the first, so each jumps back at
    once: at most n - 1 generators (not C(n, 2)) for all of S_60."""
    n = 60
    g = graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)] if complete else [])
    result = analyze(g)
    assert len(result.found) <= n - 1
    assert PermGroup(n, result.generators, result.base).order == math.factorial(n)


@pytest.mark.parametrize("n, matching", [(150, False), (160, True)], ids=["empty-150", "matching-160"])
def test_symmetric_graphs_prune_in_few_orbit_images(monkeypatch, n, matching):
    """The empty graph and a perfect matching keep their whole groups, S_150
    and the wreath product of order 2^80 * 80!, and the pruning computes at
    most one orbit of c points under c generators per cell size c <= n, the
    sum of c^2 images, not the orbits of every kept generator at every node
    of the tree."""
    images = 0

    def counted_orbit(start, gens, image, seen=None):
        def counted_image(p, t):
            nonlocal images
            images += 1
            return image(p, t)

        return orbit(start, gens, counted_image, seen)

    monkeypatch.setattr(autosearch, "orbit", counted_orbit)
    g = graph_from_edges(n, [(2 * i, 2 * i + 1) for i in range(n // 2)] if matching else [])
    result = analyze(g)
    assert are_automorphisms(g, result.generators)
    order = 2 ** (n // 2) * math.factorial(n // 2) if matching else math.factorial(n)
    assert PermGroup(n, result.generators, result.base).order == order
    assert 0 < images <= n * (n + 1) * (2 * n + 1) // 6


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    """Each level of the search of the empty 150-vertex graph individualizes
    one more vertex, 149 levels in all, and the search runs to the end with
    only 40 frames of stack to spare."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    g = graph_from_edges(150, [])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        result = analyze(g)
    finally:
        sys.setrecursionlimit(limit)
    assert PermGroup(g.n, result.generators, result.base).order == math.factorial(150)


def test_known_orders():
    assert automorphism_group(K5).order == 120
    assert automorphism_group(cycle_graph(6)).order == 12
    assert automorphism_group(PETERSEN).order == 120


def test_order_matches_brute_force_small_fixtures():
    fixtures = [
        K5,
        cycle_graph(5),
        graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        graph_from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
        graph_from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6)]),
        graph_from_edges(3, []),
    ]
    for g in fixtures:
        assert automorphism_group(g).order == len(brute_force_graph_automorphisms(
            [list(r) for r in g.adjacency]
        ))


def test_order_matches_backtracking_oracle_at_ten_vertices():
    assert automorphism_group(PETERSEN).order == backtracking_automorphism_count(
        [list(r) for r in PETERSEN.adjacency]
    ) == 120


@given(n=st.integers(4, 8), p=st.floats(0.15, 0.8), rnd=st.random_module())
@settings(max_examples=40, deadline=None)
def test_order_matches_brute_force_random(n, p, rnd):
    """The group order and the canonical key equal those of exhaustive
    references: every permutation, and every leaf of the unpruned tree."""
    g = random_graph(n, p, random.Random(rnd.seed))
    rows = [list(r) for r in g.adjacency]
    result = analyze(g)
    assert PermGroup(g.n, result.generators, result.base).order == len(brute_force_graph_automorphisms(rows))
    assert packed_rows(g, result.canonical_order) == least_leaf_key(rows)


# fixed graphs for the same check, each one that a known fault gets wrong on
# every run, whatever the random test draws
BRUTE_FORCE_GRAPHS = {
    # refinement that counts a repeated neighbour once gets its key wrong
    "repeated-neighbour-8": [
        [1, 3, 5, 6], [0, 2, 5, 7], [1, 5, 6], [0, 4, 5, 6, 7],
        [3, 7], [0, 1, 2, 3, 7], [0, 2, 3, 7], [1, 3, 4, 5, 6],
    ],
}


@pytest.mark.parametrize("rows", list(BRUTE_FORCE_GRAPHS.values()), ids=list(BRUTE_FORCE_GRAPHS))
def test_order_matches_brute_force_fixed(rows):
    """The group order and the canonical key of each fixed graph equal
    those of the exhaustive references."""
    g = graph_from_edges(len(rows), [(u, v) for u, row in enumerate(rows) for v in row if u < v])
    assert [list(r) for r in g.adjacency] == rows
    result = analyze(g)
    assert PermGroup(g.n, result.generators, result.base).order == len(brute_force_graph_automorphisms(rows))
    assert packed_rows(g, result.canonical_order) == least_leaf_key(rows)


def test_generators_preserve_adjacency():
    for g in (K5, PETERSEN, build_cayley(standard_connection_set(1, F21), F21)):
        rows = [set(r) for r in g.adjacency]
        for p in analyze(g).generators:
            for v in range(g.n):
                assert {p[u] for u in rows[v]} == rows[p[v]]


def test_cayley_graphs_have_transitive_automorphism_groups():
    for spec in (F21, GroupSpec(13, 3, 3)):
        g = build_cayley(standard_connection_set(1, spec), spec)
        assert automorphism_group(g).is_transitive()


def test_seeding_changes_nothing():
    for spec in (F21, GroupSpec(13, 3, 3)):
        g = build_cayley(standard_connection_set(1, spec), spec)
        plain = analyze(g)
        seeded = analyze(g, seeds=regular_representation(spec))
        orders = [PermGroup(g.n, r.generators, r.base).order for r in (plain, seeded)]
        assert orders[0] == orders[1]
        assert packed_rows(g, plain.canonical_order) == packed_rows(g, seeded.canonical_order)


def test_seed_validation():
    with pytest.raises(ValueError):
        analyze(K5, seeds=[(1, 2, 3, 4, 0, 5)])  # wrong degree
    with pytest.raises(ValueError):
        analyze(graph_from_edges(5, [(0, 1), (1, 2)]), seeds=[(4, 3, 2, 1, 0)])
    bad = (4, 3, 2, 1, 0)
    with pytest.raises(ValueError):
        analyze(graph_from_edges(5, [(0, 1), (1, 2)]), seeds=[(0, 1, 2, 3, 4), bad, bad])


def test_each_distinct_non_identity_seed_is_checked_once(monkeypatch):
    checked = []
    are_automorphisms = autosearch.are_automorphisms

    def recording(g, perms):
        checked.append([tuple(p) for p in perms])
        return are_automorphisms(g, perms)

    monkeypatch.setattr(autosearch, "are_automorphisms", recording)
    regular = [tuple(p) for p in regular_representation(F21)]
    identity = tuple(range(F21.order))
    g = build_cayley(standard_connection_set(1, F21), F21)
    analyze(g, seeds=[identity, *regular, *regular])
    assert checked[0] == [p for p in regular if p != identity]


def test_seeds_prune_the_root_only(monkeypatch):
    """The translations are transitive, so a search seeded with them has no
    root node: its first node has path [0], and no node keeps a seed, since
    deeper nodes keep only generators that fix their path, which no
    translation does."""
    calls = []
    node = autosearch._Search.node

    def recording_node(self, cells, fixed, kept, fed):
        calls.append((list(fixed), list(kept)))
        return node(self, cells, fixed, kept, fed)

    monkeypatch.setattr(autosearch._Search, "node", recording_node)
    for spec in (F21, GroupSpec(11, 5, 3, ell=3)):
        regular = [tuple(p) for p in regular_representation(spec)]
        seeds = {p for p in regular if p != tuple(range(spec.order))}
        g = build_cayley(standard_connection_set(1, spec), spec)
        calls.clear()
        analyze(g, seeds=regular)
        assert calls and calls[0][0] == [0]
        assert all(path[:1] == [0] for path, _ in calls)
        assert not any(p in seeds for _, kept in calls for p in kept)


def test_seeded_search_takes_the_seed_orbits_once(monkeypatch):
    """A seeded Cayley graph search takes the orbit of a vertex under the
    translations once, to see that they are transitive, and no node takes
    it again."""
    calls = []
    orbit = autosearch.orbit

    def recording_orbit(start, gens, image, seen=None):
        calls.append(set(gens))
        return orbit(start, gens, image, seen)

    monkeypatch.setattr(autosearch, "orbit", recording_orbit)
    for spec in (F21, GroupSpec(11, 5, 3, ell=3)):
        regular = [tuple(p) for p in regular_representation(spec)]
        seeds = {p for p in regular if p != tuple(range(spec.order))}
        g = build_cayley(standard_connection_set(1, spec), spec)
        calls.clear()
        result = analyze(g, seeds=regular)
        assert result.found and calls.count(seeds) == 1


# -------------------------------------------------------------- canonical

def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(99)
    fixtures = [K5, PETERSEN, build_cayley(standard_connection_set(1, F21), F21)]
    for g in fixtures:
        reference = canonical_form(g)
        for _ in range(100):
            assert canonical_form(random_relabel(g, rng)) == reference


def test_canonical_form_distinguishes():
    k5_minus = graph_from_edges(5, [e for e in K5.edges() if e != (0, 1)])
    assert canonical_form(K5) != canonical_form(k5_minus)
    assert canonical_form(cycle_graph(6)) != canonical_form(
        graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    )


def relabeled_graph6(g, result):
    """Reference canonical form through a relabeled graph: g relabeled by
    the canonical order (vertex -> its position), then encoded."""
    pos = [0] * g.n
    for i, v in enumerate(result.canonical_order):
        pos[v] = i
    return to_graph6(g.relabel(pos))


@pytest.mark.parametrize("spec", list(iter_specs(135)), ids=lambda s: f"{s.m}-{s.n}-{s.r}")
def test_canonical_form_matches_relabeled_graph6_on_census_graphs(spec):
    """The canonical form, graph6 written in the canonical order, is that
    of the canonically relabeled graph, on the graph of every generating orbit, searched as the census
    searches it."""
    regular = regular_representation(spec)
    for rep in generating_sets(spec):
        g = build_cayley([spec.at_index(x) for x in rep], spec)
        result = analyze(g, seeds=regular)
        assert canonical_form(g, result) == relabeled_graph6(g, result)


@given(n=st.sampled_from([0, 1, 2, 62, 63]), p=st.floats(0.1, 0.9), rnd=st.random_module())
@settings(max_examples=40, deadline=None)
def test_canonical_form_matches_relabeled_graph6(n, p, rnd):
    """The same on random graphs, across the graph6 header's growth from
    one size byte (n <= 62) to four."""
    g = random_graph(n, p, random.Random(rnd.seed))
    result = analyze(g)
    assert canonical_form(g) == canonical_form(g, result) == relabeled_graph6(g, result)


def test_canonical_form_is_valid_graph6_of_isomorphic_graph():
    g = build_cayley(standard_connection_set(1, F21), F21)
    back = from_graph6(canonical_form(g))
    assert back.n == g.n and sorted(back.degrees()) == sorted(g.degrees())
    assert are_isomorphic(back, g)


def counted_forms(graphs):
    """The distinct canonical forms of the graphs, and the sum of n!/|Aut|
    over the forms, each |Aut| from the search of the form's own graph."""
    forms = {canonical_form(g) for g in graphs}
    labelings = sum(
        math.factorial(g.n) // automorphism_group(g).order for g in map(from_graph6, forms)
    )
    return forms, labelings


def one_vertex_extensions(forms):
    """Each graph of the graph6 ``forms`` with a new vertex joined to its
    vertices in every way."""
    for g in map(from_graph6, forms):
        for mask in range(1 << g.n):
            yield graph_from_edges(g.n + 1, g.edges() + [(v, g.n) for v in range(g.n) if mask >> v & 1])


@lru_cache(maxsize=1)
def forms_on_six_and_seven():
    """The canonical forms of every labeled graph on 6 vertices, and of
    every extension of one of those forms by a seventh vertex, each with
    its sum of n!/|Aut|."""
    pairs = list(combinations(range(6), 2))
    six = counted_forms(
        graph_from_edges(6, [e for k, e in enumerate(pairs) if mask >> k & 1])
        for mask in range(1 << len(pairs))
    )
    return six, counted_forms(one_vertex_extensions(six[0]))


def test_canonical_forms_count_the_graphs_on_six_and_seven_vertices():
    """An exhaustive oracle with no frozen data.  The 2^15 labeled graphs on
    6 vertices have 156 canonical forms, and the forms extended by a vertex
    in every way have 1044: the numbers of graphs on 6 and 7 vertices (OEIS
    A000088).  A form that splits or merges classes changes a count, and a
    wrong |Aut| breaks the orbit-stabilizer sum of n!/|Aut| = 2^C(n, 2)."""
    (six, six_labelings), (seven, seven_labelings) = forms_on_six_and_seven()
    assert (len(six), six_labelings) == (156, 2**15)
    assert (len(seven), seven_labelings) == (1044, 2**21)


@pytest.mark.slow
def test_canonical_forms_count_the_graphs_on_eight_vertices():
    """The same oracle one vertex further: the 1044 forms on 7 vertices
    extended by an eighth vertex in every way have 12346 canonical forms,
    the number of graphs on 8 vertices, with sum 8!/|Aut| = 2^28."""
    _, (seven, _) = forms_on_six_and_seven()
    eight, labelings = counted_forms(one_vertex_extensions(seven))
    assert (len(eight), labelings) == (12346, 2**28)


def test_are_isomorphic_on_every_graph_on_seven_vertices():
    """Each of the 1044 graphs on 7 vertices is isomorphic to a seeded
    relabeling of itself, and not to one of the next graph in form order."""
    _, (seven, _) = forms_on_six_and_seven()
    graphs = [from_graph6(f) for f in sorted(seven)]
    rng = random.Random(1044)
    for g, other in zip(graphs, graphs[1:] + graphs[:1]):
        assert are_isomorphic(g, random_relabel(g, rng))
        assert not are_isomorphic(g, random_relabel(other, rng))


# ------------------------------------------------------------ isomorphism

def test_are_isomorphic_relabeling():
    rng = random.Random(5)
    for g in (PETERSEN, random_graph(9, 0.4, rng)):
        assert are_isomorphic(g, random_relabel(g, rng))


def test_are_isomorphic_cayley_conjugates():
    maps = aut_triples(F21)
    S = standard_connection_set(1, F21)
    g = build_cayley(S, F21)
    for f in maps[::7]:
        Sf = [apply_aut(f, x, F21) for x in S]
        assert are_isomorphic(g, build_cayley(Sf, F21))


def test_are_isomorphic_negative():
    assert not are_isomorphic(K5, cycle_graph(5))
    assert not are_isomorphic(cycle_graph(6), cycle_graph(5))


@given(n=st.integers(3, 7), p=st.floats(0.2, 0.8), rnd=st.random_module())
@settings(max_examples=30, deadline=None)
def test_are_isomorphic_matches_brute_force(n, p, rnd):
    rng = random.Random(rnd.seed)
    g1 = random_graph(n, p, rng)
    g2 = random_graph(n, p, rng)
    expected = brute_force_isomorphic(
        [list(r) for r in g1.adjacency], [list(r) for r in g2.adjacency]
    )
    assert are_isomorphic(g1, g2) == expected
    first = next(autosearch._Search(g2, []).leaves())
    first_key = rows_in_order([list(r) for r in g2.adjacency], first)
    assert expected == (first_key in leaf_keys([list(r) for r in g1.adjacency]))
    relabeled = random_relabel(g1, rng)
    assert are_isomorphic(g1, relabeled)
    for g in (g1, g2, relabeled):
        rows = [list(r) for r in g.adjacency]
        result = analyze(g)
        assert packed_rows(g, result.canonical_order) == least_leaf_key(rows)
        assert PermGroup(g.n, result.generators, result.base).order == len(brute_force_graph_automorphisms(rows))


def test_are_isomorphic_on_strongly_regular_graphs():
    """The Shrikhande and 4 x 4 rook's graphs share n, degrees and
    strongly regular parameters; each is isomorphic only to itself."""
    assert sorted(SHRIKHANDE.degrees()) == sorted(ROOK_4X4.degrees()) == [6] * 16
    assert SHRIKHANDE.n_edges == ROOK_4X4.n_edges == 48
    assert canonical_form(SHRIKHANDE) != canonical_form(ROOK_4X4)
    assert not are_isomorphic(SHRIKHANDE, ROOK_4X4)
    assert not are_isomorphic(ROOK_4X4, SHRIKHANDE)
    rng = random.Random(16)
    for g in (SHRIKHANDE, ROOK_4X4):
        for _ in range(5):
            assert are_isomorphic(g, random_relabel(g, rng))
            assert are_isomorphic(random_relabel(g, rng), g)


CENSUS_231 = Path(__file__).parent / "data" / "census_231.jsonl"


def census_231_classes():
    """(graph, canonical form) of every class of the frozen census."""
    out = []
    for line in CENSUS_231.read_text().splitlines():
        report = json.loads(line)
        spec = GroupSpec(*(report["group"][k] for k in ("m", "n", "r", "ell")))
        for cls in report["classes"]:
            g = build_cayley([Element(*x) for x in cls["set"]], spec)
            out.append((g, cls["canonical"]))
    return out


def test_are_isomorphic_on_census_classes(monkeypatch):
    """Each relabeled class of the frozen census against each relabeled
    class of its order, itself included: the verdict is the comparison of
    the frozen canonical forms.  No key is compared: g1's leaves are
    tested against g2's first leaf by the edge test, and g2's first leaf
    builds no key.  So ``packed_rows`` runs only where g1's own search
    orders leaves: never when the classes are the same, since g1's first
    leaf maps onto g2's, and otherwise as often as in the whole search of
    g1 alone."""
    keys = 0
    packed_rows = autosearch.packed_rows

    def counted(g, order=None):
        nonlocal keys
        keys += 1
        return packed_rows(g, order)

    monkeypatch.setattr(autosearch, "packed_rows", counted)
    rng = random.Random(231)
    classes = census_231_classes()
    assert len(classes) == 54
    pairs = same = 0
    for (g1, c1), (g2, c2) in combinations_with_replacement(classes, 2):
        if g1.n != g2.n:
            continue
        g1, g2 = random_relabel(g1, rng), random_relabel(g2, rng)
        keys = 0
        assert are_isomorphic(g1, g2) == (c1 == c2)
        if c1 == c2:
            assert keys == 0
            same += 1
        else:
            reached = keys
            keys = 0
            analyze(g1)
            assert reached == keys
        pairs += 1
    assert (pairs, same) == (54 + 57, 54)


# ----------------------------------------------- cross-module: orbit counts

def test_half_transitive_witness_13_3_3():
    spec = GroupSpec(13, 3, 3)
    g = build_cayley(standard_connection_set(1, spec), spec)
    result = analyze(g, seeds=regular_representation(spec))
    aut = PermGroup(g.n, result.generators, result.base)
    assert aut.order == 78
    assert edge_orbit_count(g.adjacency, aut.generators) == 1
    assert orbit_count(s_arcs(g.adjacency, 1), aut.generators) == 2


def test_exceptional_21_vertex_graph():
    g = build_cayley(standard_connection_set(1, F21), F21)
    aut = automorphism_group(g)
    assert aut.order == 336
    assert edge_orbit_count(g.adjacency, aut.generators) == 1
    assert orbit_count(s_arcs(g.adjacency, 1), aut.generators) == 1


# --------------------------------------------------------- frozen searches

SEARCH_RESULTS = Path(__file__).parent / "data" / "search_results.json"

# iter_specs(231) includes (9, 9, 4); the other two have a central factor
CORPUS_SPECS = [*iter_specs(231), GroupSpec(11, 5, 3, ell=3), GroupSpec(25, 5, 6, ell=3)]


def search_corpus():
    """(name, graph, seeds) of every search in ``data/search_results.json``:
    random and random 3- or 4-regular graphs of at most 30 vertices, the
    empty, complete and cycle graphs of up to 60, and the Cayley graph of
    every generating orbit of ``CORPUS_SPECS``, seeded with the translations
    as the census is, and relabeled at random unseeded."""
    rng = random.Random(0)
    for i in range(300):
        n = rng.randint(0, 30)
        yield f"random-{i}", random_graph(n, rng.uniform(0.05, 0.95), rng), ()
    for i in range(200):
        n, d = rng.choice([(n, d) for d in (3, 4) for n in range(6, 31) if n * d % 2 == 0])
        yield f"regular-{i}", random_regular_graph(n, d, rng), ()
    for n in range(61):
        yield f"empty-{n}", graph_from_edges(n, []), ()
        yield f"complete-{n}", graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)]), ()
        if n >= 3:
            yield f"cycle-{n}", cycle_graph(n), ()
    for spec in CORPUS_SPECS:
        regular = regular_representation(spec)
        for rep in generating_sets(spec):
            name = f"{spec.m}-{spec.n}-{spec.r}-{spec.ell}:{'.'.join(map(str, rep))}"
            g = build_cayley([spec.at_index(x) for x in rep], spec)
            yield f"{name}:seeded", g, regular
            yield f"{name}:relabeled", random_relabel(g, rng), ()


def search_digest(g, result) -> str:
    """SHA-256 of the repr the digests were frozen from, when
    ``SearchResult`` held the canonical key, the packed rows of g in the
    canonical order, between the order and the base."""
    frozen_repr = (
        f"SearchResult(generators={result.generators!r}, "
        f"canonical_order={result.canonical_order!r}, "
        f"canonical_key={packed_rows(g, result.canonical_order)!r}, "
        f"base={result.base!r}, n_seeds={result.n_seeds!r})"
    )
    return hashlib.sha256(frozen_repr.encode()).hexdigest()


def test_searches_match_frozen_results():
    """Every search of the corpus returns the frozen ``SearchResult``: the
    same generators in the same order, canonical order and key, base and
    seed count, compared by the SHA-256 of its repr.  The digests were
    frozen from the recursive search, before it became one loop over node
    generators; refreeze them (``PYTHONPATH=src python
    tests/test_autosearch.py``) only for a change meant to alter a search."""
    frozen = json.loads(SEARCH_RESULTS.read_text())
    corpus = list(search_corpus())
    assert [name for name, _, _ in corpus] == list(frozen)
    assert len(frozen) > 1000
    for name, g, seeds in corpus:
        assert search_digest(g, analyze(g, seeds)) == frozen[name], name


CENSUS_REF_SPECS = [GroupSpec(7, 3, 2), GroupSpec(11, 5, 3), GroupSpec(11, 5, 3, ell=3), GroupSpec(23, 11, 2)]


def counting_keys_and_leaves(monkeypatch) -> Counter:
    """Count the keys leaves build (``packed_rows`` runs once per key), the
    leaves, and the leaves whose key, by the reference ``rows_in_order``,
    is not the first leaf's."""
    counts = Counter()
    rows = autosearch.packed_rows
    leaf = autosearch._Search.leaf

    def counted_rows(g, order=None):
        counts["keys"] += 1
        return rows(g, order)

    def counted_leaf(self, cells, fixed):
        order = leaf(self, cells, fixed)
        adjacency = self.g.adjacency
        counts["leaves"] += 1
        counts["off_first"] += rows_in_order(adjacency, order) != rows_in_order(adjacency, self.first)
        return order

    monkeypatch.setattr(autosearch, "packed_rows", counted_rows)
    monkeypatch.setattr(autosearch._Search, "leaf", counted_leaf)
    return counts


def test_seeded_census_searches_build_no_key(monkeypatch):
    """In the seeded search of every class of the reference census specs,
    each leaf after the first maps onto the first by an automorphism, so
    no two leaves are ordered and no key is built."""
    counts = counting_keys_and_leaves(monkeypatch)
    searches = 0
    for spec in CENSUS_REF_SPECS:
        regular = regular_representation(spec)
        for rep in generating_sets(spec):
            g = build_cayley([spec.at_index(x) for x in rep], spec)
            counts["keys"] = 0
            analyze(g, regular)
            assert counts["keys"] == 0
            searches += 1
    assert counts["off_first"] == 0 and counts["leaves"] > searches


def test_leaves_off_the_first_build_their_keys(monkeypatch):
    """In the unseeded searches of the random regular graphs of the frozen
    corpus, a key is built for each leaf whose key is not the first's, and
    one more, once, for the first leaf, to be ordered against them; a search
    with no such leaf builds none.  Every result is the frozen one."""
    frozen = json.loads(SEARCH_RESULTS.read_text())
    counts = counting_keys_and_leaves(monkeypatch)
    off_first = 0
    for name, g, seeds in search_corpus():
        if name.startswith("regular-"):
            counts.clear()
            assert search_digest(g, analyze(g, seeds)) == frozen[name], name
            assert counts["keys"] == counts["off_first"] + (1 if counts["off_first"] else 0)
            off_first += counts["off_first"]
    assert off_first > 0


def test_a_leaf_records_each_new_generator_once():
    """A leaf that an automorphism p maps onto the first leaf keeps p as a
    generator unless it is one already, sets the jump to the depth where
    its path leaves the first, and builds no key; a leaf with the first
    leaf's order gives no generator, since its map would be the identity."""
    n = PETERSEN.n
    p = analyze(PETERSEN).generators[0]
    first = [[v] for v in range(n)]
    mapped = [[0]] * n  # the order taking position i to the vertex p maps to i
    for v in range(n):
        mapped[p[v]] = [v]
    search = autosearch._Search(PETERSEN, [])
    assert search.leaf(first, [0, 1]) == search.first == list(range(n))
    assert search.leaf(mapped, [0, 2]) == [c[0] for c in mapped]
    assert search.gens == [p] and search.jump == 1 and search.best_key is None
    search.jump = None
    search.leaf(mapped, [3])
    assert search.gens == [p] and search.jump == 0 and search.best_key is None
    search.jump = None
    search.leaf(first, [4])
    assert search.gens == [p] and search.jump is None


if __name__ == "__main__":
    digests = {name: search_digest(g, analyze(g, seeds)) for name, g, seeds in search_corpus()}
    SEARCH_RESULTS.write_text(json.dumps(digests, indent=0) + "\n")
