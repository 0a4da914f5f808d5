from __future__ import annotations

import pickle
import random
from itertools import combinations, compress, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metacirc.autosearch import analyze
from metacirc.aut import aut_generators
from metacirc.classify import orbit_representatives
from metacirc.graphs import (
    Graph,
    are_automorphisms,
    build_cayley,
    from_graph6,
    graph_from_edges,
    is_isomorphism,
    packed_rows,
    to_dot,
    to_graph6,
    validate_connection_set,
)
from metacirc.groups import Element, GroupSpec, IDENTITY, inv, iter_specs, regular_representation
from metacirc.predictions import standard_connection_set
from oracles import (
    apply_aut,
    aut_permutations,
    aut_triples,
    closure_size,
    connected_components,
    graph6_bit_by_bit,
    is_automorphism_by_sets,
    parse_graph6,
)

F21 = GroupSpec(7, 3, 2)
Z5 = GroupSpec(5, 1, 1)
K5 = build_cayley([Element(u, 0, 0) for u in range(1, 5)], Z5)


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ------------------------------------------------------------ construction

def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, ((1,), ()))  # not symmetric
    with pytest.raises(ValueError):
        Graph(1, ((0,),))  # loop
    with pytest.raises(ValueError):
        Graph(2, ((1, 1), (0,)))  # duplicates


def test_graph_is_an_immutable_value():
    """Graphs compare and hash by (n, adjacency), refuse assignment and
    pickle to an equal graph."""
    g = cycle_graph(5)
    assert g == cycle_graph(5) and hash(g) == hash(cycle_graph(5)) and g != cycle_graph(6)
    assert repr(Graph(2, ((1,), (0,)))) == "Graph(n=2, adjacency=((1,), (0,)))"
    with pytest.raises(AttributeError):
        g.n = 6
    assert pickle.loads(pickle.dumps(g)) == g
    assert pickle.loads(pickle.dumps(K5)) == K5


def test_connection_set_validation():
    with pytest.raises(ValueError):
        validate_connection_set([IDENTITY, Element(1, 0, 0), Element(6, 0, 0), Element(2, 0, 0)], F21)
    with pytest.raises(ValueError):
        validate_connection_set([Element(1, 0, 0), Element(2, 0, 0), Element(3, 0, 0), Element(4, 0, 0)], F21)
    # valid set comes back sorted by vertex index
    S = validate_connection_set(
        [Element(1, 1, 0), Element(0, 1, 0), Element(5, 2, 0), Element(0, 2, 0)], F21
    )
    assert [F21.index(x) for x in S] == sorted(F21.index(x) for x in S)


def test_standard_connection_set_f21():
    S = standard_connection_set(1, F21)
    assert set(S) == {Element(0, 1, 0), Element(1, 1, 0), Element(0, 2, 0), Element(5, 2, 0)}


def test_standard_connection_set_range_checks():
    with pytest.raises(ValueError):
        standard_connection_set(3, F21)  # j >= n0
    with pytest.raises(ValueError):
        standard_connection_set(0, F21)
    spec = GroupSpec(23, 11, 2)
    S = standard_connection_set(2, spec)
    assert {x.v for x in S} == {2, 9}
    assert all(inv(x, spec) in S for x in S)


def test_standard_connection_set_with_central_factor():
    spec = GroupSpec(7, 3, 2, ell=5)
    S = standard_connection_set(1, spec)
    assert set(S) == {
        Element(0, 1, 1),
        Element(1, 1, 4),
        Element(0, 2, 4),
        Element(5, 2, 1),
    }
    assert all(inv(x, spec) in S for x in S)


def test_build_cayley_k5():
    assert K5.n == 5 and K5.n_edges == 10
    assert all(len(row) == 4 for row in K5.adjacency)


def test_build_cayley_f21_standard():
    g = build_cayley(standard_connection_set(1, F21), F21)
    assert g.n == 21 and g.n_edges == 42
    assert len(connected_components(g.adjacency)) == 1
    assert all(d == 4 for d in g.degrees())


def test_build_cayley_disconnected():
    S = [Element(1, 0, 0), Element(2, 0, 0), Element(5, 0, 0), Element(6, 0, 0)]
    g = build_cayley(S, F21)
    comps = connected_components(g.adjacency)
    assert len(comps) == 3 and all(len(c) == 7 for c in comps)


@pytest.mark.parametrize(
    "spec",
    list(iter_specs(231))
    + [
        GroupSpec(11, 5, 3, ell=3),
        GroupSpec(7, 3, 2, ell=3),
        GroupSpec(7, 3, 2, ell=5),
        GroupSpec(23, 11, 2, ell=3),
        GroupSpec(29, 7, 7, ell=3),
    ],
    ids=lambda spec: f"{spec.m}-{spec.n}-{spec.r}-{spec.ell}",
)
def test_build_cayley_rows_pass_graph_validation(spec):
    """build_cayley skips Graph's checks; on every generating orbit its rows
    pass them."""
    for rep, _, _ in orbit_representatives(spec, aut_generators(spec)[0], {}):
        g = build_cayley([spec.at_index(x) for x in rep], spec)
        assert Graph(g.n, g.adjacency) == g


def test_cayley_connected_iff_generating():
    rng = random.Random(5)
    elems = [g for g in F21.elements() if g != IDENTITY]
    for _ in range(30):
        x = rng.choice(elems)
        y = rng.choice(elems)
        S = {x, inv(x, F21), y, inv(y, F21)}
        if len(S) != 4:
            continue
        g = build_cayley(S, F21)
        assert (len(connected_components(g.adjacency)) == 1) == (closure_size(S, F21) == 21)


def test_right_regular_action_gives_graph_automorphisms():
    for spec, S in [(F21, standard_connection_set(1, F21)), (Z5, [Element(u, 0, 0) for u in range(1, 5)])]:
        g = build_cayley(S, spec)
        rows = [set(row) for row in g.adjacency]
        for p in regular_representation(spec):
            for v in range(g.n):
                assert {p[u] for u in rows[v]} == rows[p[v]]


def test_cayley_isomorphic_under_group_automorphisms():
    maps = aut_triples(F21)
    perms = aut_permutations(F21)
    S = standard_connection_set(1, F21)
    g = build_cayley(S, F21)
    for f, p in zip(maps[:12], perms[:12]):
        Sf = [apply_aut(f, x, F21) for x in S]
        assert g.relabel(p) == build_cayley(Sf, F21)


# ------------------------------------------------------------------ graph6

def test_graph6_frozen_strings():
    assert to_graph6(K5) == b"D~{"
    assert to_graph6(Graph(1, ((),))) == b"@"
    assert to_graph6(graph_from_edges(2, [(0, 1)])) == b"A_"


def test_graph6_roundtrip_through_independent_parser():
    for g in [K5, cycle_graph(6), build_cayley(standard_connection_set(1, F21), F21)]:
        decoded = parse_graph6(to_graph6(g))
        assert [list(row) for row in g.adjacency] == decoded


def test_graph6_long_form():
    g = cycle_graph(63)
    data = to_graph6(g)
    assert data[0] == 126 and len(data) == 4 + (63 * 62 // 2 + 5) // 6
    assert from_graph6(data) == g
    assert [list(r) for r in parse_graph6(data)] == [list(r) for r in g.adjacency]


@given(st.integers(2, 24), st.random_module())
@settings(max_examples=60, deadline=None)
def test_graph6_roundtrip_random(n, rnd):
    rng = random.Random(rnd.seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    g = graph_from_edges(n, edges)
    assert from_graph6(to_graph6(g)) == g
    assert [list(r) for r in parse_graph6(to_graph6(g))] == [list(r) for r in g.adjacency]


@given(st.integers(0, 130), st.sampled_from([0.0, 0.03, 0.5, 1.0]), st.random_module())
@settings(max_examples=80, deadline=None)
def test_graph6_matches_bit_by_bit_reference(n, p, rnd):
    # 62/63 switch the size header; every residue of the bit count mod 24
    # (one base64 group) comes up below 130 vertices
    rng = random.Random(rnd.seed)
    g = graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
    data = to_graph6(g)
    assert data == graph6_bit_by_bit([list(r) for r in g.adjacency])
    assert from_graph6(data) == g


def test_graph6_large_graphs_match_bit_by_bit_reference():
    for n in (609, 1081):
        g = graph_from_edges(n, [(i, (i * 7 + k) % n) for i in range(n) for k in (1, 5)])
        data = to_graph6(g)
        assert data == graph6_bit_by_bit([list(r) for r in g.adjacency])
        assert from_graph6(data) == g


@given(
    st.integers(0, 8) | st.integers(55, 70),
    st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    st.random_module(),
)
@settings(max_examples=60, deadline=None)
def test_from_graph6_rows_pass_graph_validation(n, p, rnd):
    """from_graph6 skips Graph's checks; its rows pass them, on either side
    of the switch from the one-byte to the four-byte size header at 63."""
    rng = random.Random(rnd.seed)
    g = graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
    h = from_graph6(to_graph6(g))
    assert Graph(h.n, h.adjacency) == h == g


def random_graph(n, p, rng):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


@given(st.sampled_from([0, 1, 2, 5, 62, 63]), st.floats(0.0, 1.0), st.random_module())
@settings(max_examples=60, deadline=None)
def test_packed_rows_in_any_order_are_the_rows_of_the_relabeled_graph(n, p, rnd):
    """Row i of the rows in the order ``order`` has bit n-1-k set iff
    order[i] and order[k] are adjacent; they are the identity-order rows of
    g relabeled by v -> position of v."""
    rng = random.Random(rnd.seed)
    g = random_graph(n, p, rng)
    order = list(range(n))
    rng.shuffle(order)
    rows = packed_rows(g, order)
    adj = [set(row) for row in g.adjacency]
    assert all((rows[i] >> (n - 1 - k) & 1) == (order[k] in adj[order[i]])
               for i in range(n) for k in range(n))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    relabeled = g.relabel(pos)
    assert rows == packed_rows(relabeled)


@given(st.sampled_from([0, 1, 2, 3, 6, 7, 62, 63, 64, 100]), st.floats(0.0, 1.0), st.random_module())
@settings(max_examples=80, deadline=None)
def test_graph6_in_any_order_is_that_of_the_relabeled_graph(n, p, rnd):
    """``to_graph6(g, order)`` is the bit-by-bit graph6 of g relabeled by
    v -> position of v in ``order``, and reads back as that graph: on either
    side of the size header's switch at 63, and with n(n-1)/2 bits that are
    a multiple of 6 (n = 0, 1, 3, 64) or not."""
    rng = random.Random(rnd.seed)
    g = random_graph(n, p, rng)
    order = list(range(n))
    rng.shuffle(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    relabeled = g.relabel(pos)
    data = to_graph6(g, order)
    assert data == graph6_bit_by_bit([list(r) for r in relabeled.adjacency])
    assert from_graph6(data) == relabeled
    assert to_graph6(g, range(n)) == to_graph6(g)


def test_key_order_is_not_graph6_order():
    """Leaf keys order adjacency matrices row by row, and graph6 strings
    read the upper triangle column by column, so the least key is not the
    least graph6: on 4 vertices the edge {1, 2} has the lesser rows and the
    greater graph6.  Comparing graph6 bytes in place of keys would change
    every canonical form that such a pair decides."""
    g03, g12 = graph_from_edges(4, [(0, 3)]), graph_from_edges(4, [(1, 2)])
    assert (packed_rows(g03), to_graph6(g03)) == ((1, 0, 0, 8), b"CC")
    assert (packed_rows(g12), to_graph6(g12)) == ((0, 2, 4, 0), b"CG")
    assert packed_rows(g12) < packed_rows(g03) and to_graph6(g12) > to_graph6(g03)


def automorphism_candidates(autos, n, rng):
    """The automorphisms ``autos`` and, for each of them, it composed with
    a transposition, a random permutation, a non-permutation and a map of
    the wrong degree."""
    candidates = list(autos)
    for p in autos:
        q = list(p)
        if n >= 2:
            i, j = rng.sample(range(n), 2)
            q[i], q[j] = q[j], q[i]
        candidates.append(tuple(q))
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        candidates.append(tuple(shuffled))
        if n >= 2:
            candidates.append(tuple(p[:-1]) + (p[0],))  # not a permutation
        candidates.append(tuple(p[:-1]))  # wrong degree
    return candidates


def check_are_automorphisms(g, autos, candidates):
    """``are_automorphisms`` against the set oracle on each candidate, alone
    and after each automorphism, which the test must not remember."""
    adjacency = [list(r) for r in g.adjacency]
    assert all(is_automorphism_by_sets(adjacency, p) for p in autos)
    assert are_automorphisms(g, autos)
    for p in candidates:
        expected = is_automorphism_by_sets(adjacency, p)
        assert are_automorphisms(g, [p]) == expected
        assert all(are_automorphisms(g, [q, p, *autos]) == expected for q in autos)


# the Petersen graph and the 21-vertex census class, as graph6
GRAPH6_STRINGS = ["IheA@GUAo", "T?OCOs_OAWSOD?`?gA@?H?KA?PHHO?b?OOAo"]


def test_are_automorphisms_matches_set_reference():
    """The edge test agrees with neighbour-set comparison on the regular
    seeds and the automorphisms a search finds of Cayley graphs, on the
    automorphisms found of irregular and disconnected graphs (a star, a
    path with an isolated vertex, random graphs) and of graphs read from
    graph6, and on maps that are not automorphisms: random permutations,
    automorphisms composed with a transposition, non-permutations and maps
    of the wrong degree; and on every permutation of every graph of at most
    four vertices."""
    rng = random.Random(13)
    for spec in iter_specs(63):
        g = build_cayley(standard_connection_set(1, spec), spec)
        seeds = [tuple(p) for p in regular_representation(spec)]
        autos = seeds + analyze(g, seeds=seeds).found
        check_are_automorphisms(g, autos, automorphism_candidates(autos, g.n, rng))
    graphs = [
        graph_from_edges(8, [(0, v) for v in range(1, 8)]),
        graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        *(random_graph(n, p, random.Random(n)) for n in (2, 7, 12, 20) for p in (0.15, 0.5, 0.85)),
        *map(from_graph6, GRAPH6_STRINGS),
        *(from_graph6(to_graph6(random_graph(15, 0.3, random.Random(seed)))) for seed in range(3)),
    ]
    for g in graphs:
        autos = [tuple(range(g.n)), *analyze(g).generators]
        check_are_automorphisms(g, autos, automorphism_candidates(autos, g.n, rng))
    for n in range(5):
        pairs = list(combinations(range(n), 2))
        for edges in product([False, True], repeat=len(pairs)):
            g = graph_from_edges(n, compress(pairs, edges))
            perms = list(permutations(range(n)))
            adjacency = [list(r) for r in g.adjacency]
            autos = [p for p in perms if is_automorphism_by_sets(adjacency, p)]
            check_are_automorphisms(g, autos, perms)
    assert are_automorphisms(Graph(0, ()), [()])
    assert are_automorphisms(K5, [])


def test_is_isomorphism_matches_relabeling():
    """The edge test between two graphs: a permutation p maps g onto h iff
    g relabeled by p is h, for every pair of graphs of at most four vertices
    with as many edges and every permutation."""
    for n in range(5):
        pairs = list(combinations(range(n), 2))
        graphs = [
            graph_from_edges(n, compress(pairs, edges))
            for edges in product([False, True], repeat=len(pairs))
        ]
        perms = list(permutations(range(n)))
        for g, h in product(graphs, repeat=2):
            if g.n_edges == h.n_edges:
                assert [is_isomorphism(g, h, p) for p in perms] == [g.relabel(p) == h for p in perms]


def test_graph6_decoder_ignores_padding_bits():
    # 3 vertices use 3 of the 6 bits of the one body byte
    assert from_graph6(b"Bx") == from_graph6(b"Bw") == graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])


def test_dot_output():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    text = to_dot(g)
    assert "graph G {" in text and "0 -- 1;" in text and "1 -- 2;" in text
    assert to_dot(K5) == (
        "graph G {\n  0;\n  1;\n  2;\n  3;\n  4;\n"
        "  0 -- 1;\n  0 -- 2;\n  0 -- 3;\n  0 -- 4;\n  1 -- 2;\n"
        "  1 -- 3;\n  1 -- 4;\n  2 -- 3;\n  2 -- 4;\n  3 -- 4;\n}\n"
    )


def test_json_dict():
    d = K5.to_json_dict()
    assert d["n"] == 5 and len(d["adj"]) == 5
