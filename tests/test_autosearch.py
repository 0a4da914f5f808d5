from __future__ import annotations

import gc
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metacirc import autosearch
from metacirc.aut import enumerate_aut
from metacirc.classify import classify_spec, orbit_representatives
from metacirc.autosearch import (
    NotEdgeTransitive,
    _individualize,
    _Orbits,
    _initial_partition,
    _refine,
    analyze,
    are_isomorphic,
    automorphism_group,
    canonical_form,
)
from metacirc.graphs import (
    build_cayley,
    from_graph6,
    graph_from_edges,
    standard_connection_set,
    to_graph6,
)
from metacirc.groups import Element, GroupSpec, inv, iter_specs, regular_representation
from metacirc.permgroup import PermGroup, arc_orbit_count, edge_orbit_count
from oracles import (
    apply_aut,
    backtracking_automorphism_count,
    bitmask_refine,
    brute_force_graph_automorphisms,
    brute_force_isomorphic,
    point_orbits,
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

@given(
    n=st.integers(1, 40),
    kind=st.sampled_from(["sparse", "dense", "disconnected", "circulant"]),
    rnd=st.random_module(),
)
@settings(max_examples=150, deadline=None)
def test_refine_matches_bitmask_reference(n, kind, rnd):
    """Splitter-local refinement gives the reference's cells, in the same
    order and each in ascending vertex order, after the initial refinement
    and after every step of a random sequence of individualizations, also
    when told that the partition before individualizing was equitable."""
    rng = random.Random(rnd.seed)
    g = refine_fixture(n, kind, rng)
    adj_bits = vertex_masks(g.adjacency)
    cells = _initial_partition(g)
    refined = _refine(g.adjacency, cells, None)
    assert refined == bitmask_refine(adj_bits, cells, None)
    while True:
        assert all(cell == sorted(cell) for cell in refined)
        open_cells = [i for i, cell in enumerate(refined) if len(cell) > 1]
        if not open_cells:
            break
        t = rng.choice(open_cells)
        child, splitters = _individualize(refined, t, rng.choice(refined[t]))
        refined = _refine(g.adjacency, child, splitters)
        assert refined == bitmask_refine(adj_bits, child, [vertex_mask(s) for s in splitters])
        # the search's call: the input came from an equitable partition
        assert _refine(g.adjacency, child, splitters, equitable=True) == refined


@given(n=st.integers(1, 30), p=st.floats(0.05, 0.9), rnd=st.random_module())
@settings(max_examples=100, deadline=None)
def test_refine_matches_reference_from_any_partition(n, p, rnd):
    """The same from an arbitrary ordered partition and arbitrary splitters,
    neither of them equitable."""
    rng = random.Random(rnd.seed)
    g = random_graph(n, p, rng)
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
    cells = [sorted(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    splitters = [sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 3))]
    assert _refine(g.adjacency, cells, splitters) == bitmask_refine(
        vertex_masks(g.adjacency), cells, [vertex_mask(s) for s in splitters]
    )


def two_circulants(n, jumps1, jumps2):
    """Two circulants on n vertices each, side by side: a regular graph
    when both have as many jumps, and not vertex-transitive in general."""
    edges = [(i, (i + d) % n) for i in range(n) for d in jumps1]
    edges += [(n + i, n + (i + d) % n) for i in range(n) for d in jumps2]
    return graph_from_edges(2 * n, edges)


@given(
    n=st.integers(1, 30),
    kind=st.sampled_from(["sparse", "dense", "disconnected", "circulant", "regular"]),
    rnd=st.random_module(),
)
@settings(max_examples=100, deadline=None)
def test_initial_partition_matches_signature_reference(n, kind, rnd):
    """The starting partition groups the vertices by their signature, in
    signature order, also on regular graphs, whose signatures it orders by
    the number of vertices at distance 2 alone."""
    rng = random.Random(rnd.seed)
    if kind == "regular":
        k = rng.randint(1, 3)
        g = random_relabel(two_circulants(
            max(n, 2 * k + 1), rng.sample(range(1, k + 4), k), rng.sample(range(1, k + 4), k)
        ), rng)
    else:
        g = refine_fixture(n, kind, rng)
    assert _initial_partition(g) == signature_cells(g.adjacency)


@pytest.mark.parametrize("spec", list(iter_specs(135)), ids=lambda s: f"{s.m}-{s.n}-{s.r}")
def test_seeded_initial_partition_on_census_graphs(spec):
    """With the regular translations as seeds, one signature per Cayley
    graph gives the partition of a signature per vertex."""
    regular = regular_representation(spec)
    orbits = orbit_representatives(spec, bound=spec.order)
    for rep, _ in orbits:
        g = build_cayley([spec.at_index(x) for x in rep], spec)
        assert _initial_partition(g, _Orbits(g.n, regular)) == _initial_partition(g)


@given(
    n=st.integers(1, 30),
    kind=st.sampled_from(["sparse", "dense", "disconnected", "circulant"]),
    rnd=st.random_module(),
)
@settings(max_examples=60, deadline=None)
def test_seeded_initial_partition_with_intransitive_seeds(n, kind, rnd):
    """The same when the seeds have several orbits: any subset of the
    automorphisms an unseeded search finds."""
    rng = random.Random(rnd.seed)
    g = refine_fixture(n, kind, rng)
    gens = analyze(g).generators
    seeds = rng.sample(gens, rng.randint(0, len(gens)))
    assert _initial_partition(g, _Orbits(g.n, seeds)) == _initial_partition(g)


def two_splitter_individualize(cells, target_idx, v):
    """The former individualization, which also queued the rest of the
    target cell as a splitter."""
    cell = cells[target_idx]
    rest = [u for u in cell if u != v]
    return cells[:target_idx] + [[v], rest] + cells[target_idx + 1:], [[v], rest]


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


def recorded_search(g, seeds=(), reverse=None):
    """Run ``analyze(g, seeds, reverse)`` and record every ``_refine`` call
    as (cells, splitters, reverse, result), result None if the call raised
    NotEdgeTransitive, and the orbits after every feed of the generators as
    (orbits, the generators that fix the path).  Returns the search result,
    None if it raised, the refine calls and the orbits."""
    refines, orbits = [], []
    refine, feed = autosearch._refine, autosearch._Orbits.feed

    def recording_refine(adj, cells, splitters, equitable=False, reverse=None):
        call = [
            [list(c) for c in cells],
            None if splitters is None else [list(s) for s in splitters],
            reverse,
            None,
        ]
        refines.append(call)
        call[3] = refine(adj, cells, splitters, equitable, reverse)
        return call[3]

    def recording_feed(self, gens, fixed):
        feed(self, gens, fixed)
        cells = {}
        for x in range(g.n):
            cells.setdefault(self.find(x), []).append(x)
        orbits.append((list(cells.values()), [p for p in gens if all(p[x] == x for x in fixed)]))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autosearch, "_refine", recording_refine)
        mp.setattr(autosearch._Orbits, "feed", recording_feed)
        try:
            result = analyze(g, seeds, reverse)
        except NotEdgeTransitive:
            result = None
    return result, refines, orbits


def matches_bitmask_reference(g, refines) -> bool:
    adj_bits = vertex_masks(g.adjacency)
    return all(
        result == bitmask_refine(
            adj_bits, cells, None if splitters is None else [vertex_mask(s) for s in splitters]
        )
        for cells, splitters, _, result in refines
        if result is not None
    )


# the census_ref specs; by index in orbit_representatives, the generating
# orbits on which the seeded search given x ~ x^-1 raised NotEdgeTransitive
# with the refinement kernel before the current one
CENSUS_REF_EXITS = {
    GroupSpec(7, 3, 2): [0],
    GroupSpec(11, 5, 3): [0, 3],
    GroupSpec(11, 5, 3, ell=3): [0, 1, 2, 3, 4, 6, 7, 8, 9, 11, 12],
    GroupSpec(23, 11, 2): [0, 1, 2, 3, 4, 6, 7, 9, 11, 12, 13, 15, 16, 18],
}


@lru_cache(maxsize=None)
def census_class_searches(order):
    """The unseeded search on each census class of 55, 125 or 165 vertices,
    relabeled at random, as ``recorded_search`` records it, with its graph."""
    spec = {55: GroupSpec(11, 5, 3), 125: GroupSpec(25, 5, 6), 165: GroupSpec(11, 5, 3, ell=3)}[order]
    rng = random.Random(order)
    out = []
    for cls in classify_spec(spec).classes:
        g = random_relabel(build_cayley(cls.connection_set, spec), rng)
        out.append((g, *recorded_search(g)[1:]))
    return tuple(out)


@lru_cache(maxsize=None)
def census_ref_searches(spec):
    """The census's seeded search given x ~ x^-1 on each generating orbit
    of a census_ref spec, as ``recorded_search`` records it, with its graph
    and whether it raised."""
    regular = regular_representation(spec)
    out = []
    for rep, _ in orbit_representatives(spec):
        g = build_cayley([spec.at_index(x) for x in rep], spec)
        inverse = {x: spec.index(inv(spec.at_index(x), spec)) for x in rep}
        result, refines, orbits = recorded_search(g, regular, inverse)
        out.append((g, refines, orbits, result is None))
    return tuple(out)


@pytest.mark.parametrize("order", [55, 125, 165])
def test_refine_matches_bitmask_reference_on_census_classes(order):
    """Every refinement the unseeded search makes on a relabeled census
    class past the random fixtures' 40 vertices gives the reference's cells."""
    searches = census_class_searches(order)
    assert len(searches) == {55: 3, 125: 2, 165: 5}[order]
    for g, refines, _ in searches:
        assert refines and matches_bitmask_reference(g, refines)


@pytest.mark.parametrize("spec", list(CENSUS_REF_EXITS), ids=lambda s: f"{s.m}-{s.n}-{s.r}-{s.ell}")
def test_edge_split_exit_on_census_ref_orbits(spec):
    """The seeded search watching x ~ x^-1 raises NotEdgeTransitive on the
    frozen generating orbits and on no other, and every refinement it
    completes gives the reference's cells."""
    searches = census_ref_searches(spec)
    assert [i for i, (*_, raised) in enumerate(searches) if raised] == CENSUS_REF_EXITS[spec]
    for g, refines, _, _ in searches:
        assert matches_bitmask_reference(g, refines)
    assert any(reverse is not None for _, refines, _, _ in searches for _, _, reverse, _ in refines)


def test_incremental_orbits_match_fresh_union_find():
    """At every node of the searches above, each time the generators are
    fed, the orbits that prune the node's branches are those of the
    generators that fix its path pointwise, found from scratch."""
    searches = [(g, orbits) for order in (55, 125, 165) for g, _, orbits in census_class_searches(order)]
    searches += [(g, orbits) for spec in CENSUS_REF_EXITS for g, _, orbits, _ in census_ref_searches(spec)]
    nodes = 0
    for g, orbits in searches:
        for cells, stabilizer in orbits:
            assert cells == point_orbits(stabilizer, g.n)
            nodes += 1
    assert nodes > 100


def test_search_leaves_no_reference_cycle():
    """A finished search, returned or raised, leaves nothing for the cyclic
    garbage collector: its state is freed as soon as it is dropped."""
    spec = GroupSpec(11, 5, 3, ell=3)
    g = build_cayley(standard_connection_set(1, spec), spec)
    regular = regular_representation(spec)
    rep = orbit_representatives(spec)[0][0]
    split = build_cayley([spec.at_index(x) for x in rep], spec)
    inverse = {x: spec.index(inv(spec.at_index(x), spec)) for x in rep}
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            analyze(g)
        analyze(g, seeds=regular)
        try:
            analyze(split, seeds=regular, reverse=inverse)
            raised = False
        except NotEdgeTransitive:
            raised = True
        assert raised
        assert gc.collect() == 0
    finally:
        gc.enable()


# ----------------------------------------------------------- group orders

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
    g = random_graph(n, p, random.Random(rnd.seed))
    assert automorphism_group(g).order == len(
        brute_force_graph_automorphisms([list(r) for r in g.adjacency])
    )


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
        assert PermGroup(g.n, plain.generators).order == PermGroup(g.n, seeded.generators).order
        assert plain.canonical_key == seeded.canonical_key


def test_seed_validation():
    with pytest.raises(ValueError):
        analyze(K5, seeds=[(1, 2, 3, 4, 0, 5)])  # wrong degree
    with pytest.raises(ValueError):
        analyze(graph_from_edges(5, [(0, 1), (1, 2)]), seeds=[(4, 3, 2, 1, 0)])


def test_seeds_feed_one_union_find(monkeypatch):
    """Each seed is merged into one union-find, which serves both the
    starting signature and the root of the tree; deeper levels keep only
    generators that fix their path, which no translation does."""
    added = []
    add = autosearch._Orbits.add

    def counted(self, p):
        added.append(tuple(p))
        return add(self, p)

    monkeypatch.setattr(autosearch._Orbits, "add", counted)
    for spec in (F21, GroupSpec(11, 5, 3, ell=3)):
        regular = [tuple(p) for p in regular_representation(spec)]
        seeds = {p for p in regular if p != tuple(range(spec.order))}
        g = build_cayley(standard_connection_set(1, spec), spec)
        added.clear()
        analyze(g, seeds=regular)
        assert sorted(p for p in added if p in seeds) == sorted(seeds)


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
    """The graph6 of the canonical key is that of the canonically relabeled
    graph, on the graph of every generating orbit, searched as the census
    searches it."""
    regular = regular_representation(spec)
    for rep, _ in orbit_representatives(spec, bound=spec.order):
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


# ------------------------------------------------------------ isomorphism

def test_are_isomorphic_relabeling():
    rng = random.Random(5)
    for g in (PETERSEN, random_graph(9, 0.4, rng)):
        assert are_isomorphic(g, random_relabel(g, rng))


def test_are_isomorphic_cayley_conjugates():
    maps = enumerate_aut(F21)
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
    relabeled = random_relabel(g1, rng)
    assert are_isomorphic(g1, relabeled)


# ----------------------------------------------- cross-module: orbit counts

def test_half_transitive_witness_13_3_3():
    spec = GroupSpec(13, 3, 3)
    g = build_cayley(standard_connection_set(1, spec), spec)
    aut = PermGroup(g.n, analyze(g, seeds=regular_representation(spec)).generators)
    assert aut.order == 78
    assert edge_orbit_count(aut, g) == 1
    assert arc_orbit_count(aut, g) == 2


def test_exceptional_21_vertex_graph():
    g = build_cayley(standard_connection_set(1, F21), F21)
    aut = automorphism_group(g)
    assert aut.order == 336
    assert edge_orbit_count(aut, g) == 1
    assert arc_orbit_count(aut, g) == 1
