from __future__ import annotations

import math
from operator import getitem

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metacirc import permgroup
from metacirc.autosearch import analyze
from metacirc.classify import classify_spec
from metacirc.errors import BoundExceeded
from metacirc.graphs import build_cayley, graph_from_edges
from metacirc.groups import Element, GroupSpec, inv, iter_specs, regular_representation
from metacirc.permgroup import (
    PermGroup,
    identity_perm,
    normalizer_of_regular,
    orbit,
    orbits_at_zero,
    s_arcs_at_zero,
)
from metacirc.predictions import standard_connection_set
from oracles import (
    edge_orbit_count,
    group_elements,
    max_s_arc_transitive,
    normalizer_by_right_translations,
    normalizer_order,
    oracle_mul_index,
    orbit_count,
    point_orbits,
    s_arcs,
)

F21 = GroupSpec(7, 3, 2)
Z5 = GroupSpec(5, 1, 1)
K5 = build_cayley([Element(u, 0, 0) for u in range(1, 5)], Z5)


def cycle(n, *points):
    p = list(range(n))
    for a, b in zip(points, points[1:]):
        p[a] = b
    p[points[-1]] = points[0]
    return tuple(p)


def aut_group(g, seeds=()):
    """Aut(g), its chain read off the search's first path."""
    result = analyze(g, seeds=seeds)
    return PermGroup(g.n, result.generators, result.base)


def stabilizer_group(g, spec):
    """The stabilizer of vertex 0 in Aut of a Cayley graph of spec, as the
    census builds it: the automorphisms found by a search seeded with the
    regular copy, on the search's first path."""
    result = analyze(g, seeds=regular_representation(spec))
    return PermGroup(g.n, result.found, result.base)


def regular_group(spec):
    """The regular copy of G.  Its stabilizer of point 0 is trivial and every
    generator moves 0, so any generating set is strong for the base [0]."""
    return PermGroup(spec.order, regular_representation(spec), [0])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def matching(k):
    return graph_from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


PETERSEN = graph_from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
)

S5 = aut_group(K5)
S4 = stabilizer_group(K5, Z5)  # the stabilizer of 0 in S5
# a cyclic group of prime order: each non-identity element moves every point
C5 = PermGroup(5, [(1, 2, 3, 4, 0)], [0])
D6 = aut_group(cycle_graph(6))


def stabilizer_of_zero(grp):
    """The elements of the group that fix point 0, by the closure oracle."""
    return {x for x in group_elements(grp.generators, grp.degree) if x[0] == 0}


# -------------------------------------------------------------- order/chain

def test_group_order_examples():
    assert S5.order == 120
    assert S4.order == 24
    assert C5.order == 5
    assert D6.order == 12
    assert PermGroup(4, [], []).order == 1


def test_chain_order_matches_exhaustive_closure():
    cases = [
        S5,
        S4,
        C5,
        D6,
        PermGroup(4, [], []),
        aut_group(PETERSEN),
        aut_group(graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])),  # K4 less an edge
        aut_group(matching(3)),
        aut_group(graph_from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])),  # K3,3
        aut_group(build_cayley(standard_connection_set(1, F21), F21)),
        stabilizer_group(build_cayley(standard_connection_set(1, F21), F21), F21),
        regular_group(F21),
    ]
    for grp in cases:
        assert grp.order == len(group_elements(grp.generators, grp.degree))


@st.composite
def small_graphs(draw):
    """A graph of 0 to 9 vertices with each edge drawn, or an empty or
    complete graph of 0 to 8 vertices (the closure oracle lists S_9 in
    seconds)."""
    kind = draw(st.sampled_from(["random", "empty", "complete"]))
    n = draw(st.integers(0, 9 if kind == "random" else 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "random":
        pairs = [e for e in pairs if draw(st.booleans())]
    elif kind == "empty":
        pairs = []
    return graph_from_edges(n, pairs)


# a triangle 1-2-5 with a leaf 0 on 1 and a path 3-4 on 2: no automorphism
# but the identity
ASYMMETRIC = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 5)])


@given(small_graphs())
@example(graph_from_edges(0, []))
@example(graph_from_edges(1, []))
@example(graph_from_edges(2, []))
@example(graph_from_edges(2, [(0, 1)]))
@example(ASYMMETRIC)
@example(graph_from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]))  # disconnected
@settings(max_examples=60, deadline=None)
def test_first_path_chain_matches_closure_on_random_graphs(g):
    result = analyze(g)
    grp = PermGroup(g.n, result.generators, result.base)
    els = group_elements(result.generators, g.n)
    assert grp.order == len(els)
    assert set(grp.elements()) == els
    assert grp.is_transitive() == (len(point_orbits(result.generators, g.n)) <= 1)


def test_long_base():
    # a perfect matching on 80 vertices: each of the 40 edges may be
    # flipped and the edges permuted, so |Aut| = 2^40 * 40!, and the first
    # path individualizes one vertex of each edge, a base of length 40
    grp = aut_group(matching(40))
    assert grp.order == 2**40 * math.factorial(40)
    assert len(grp.chain()) == 40


def test_chain_levels_hold_the_generators_that_fix_the_earlier_base_points():
    for grp in (S5, S4, D6, aut_group(PETERSEN), aut_group(matching(4))):
        levels = grp.chain()
        assert [lvl.point for lvl in levels] == grp.base
        for i, lvl in enumerate(levels):
            fixing = [g for g in grp.generators if all(g[b] == b for b in grp.base[:i])]
            assert sorted(lvl.gens) == sorted(fixing)
            assert lvl.orbit == orbit(lvl.point, fixing, getitem)


def test_generators_must_not_fix_the_whole_base():
    with pytest.raises(ValueError):
        PermGroup(3, [(1, 0, 2)], []).order
    with pytest.raises(ValueError):
        PermGroup(3, [(1, 0, 2)], [2]).order
    with pytest.raises(ValueError):
        PermGroup(3, [], [0, 0])
    with pytest.raises(ValueError):
        PermGroup(3, [], [3])


def test_elements_enumeration_is_exact():
    for grp in (S5, S4, C5, D6, regular_group(F21)):
        els = list(grp.elements())
        assert len(els) == grp.order == len(set(els))
        assert set(els) == group_elements(grp.generators, grp.degree)


def test_contains():
    for grp, p, member in (
        (S5, (4, 3, 2, 1, 0), True),
        (C5, (2, 3, 4, 0, 1), True),
        (C5, (1, 0, 2, 3, 4), False),
        (S4, (1, 0, 2, 3, 4), False),
    ):
        assert (p in set(grp.elements())) == (p in group_elements(grp.generators, 5)) == member


def test_elements_bound(monkeypatch):
    # S5 has 120 elements, and the stabilizer S4 of point 0 in S5 has 24
    monkeypatch.setattr(permgroup, "ELEMENT_BOUND", 100)
    with pytest.raises(BoundExceeded):
        list(S5.elements())
    assert len(list(S4.elements())) == 24
    monkeypatch.setattr(permgroup, "ELEMENT_BOUND", 10)
    with pytest.raises(BoundExceeded):
        list(S4.elements())


# ------------------------------------------------------- orbits/stabilizers

def point_orbit(group, point):
    return orbit(point, group.generators, getitem)


def test_orbit_examples():
    assert point_orbit(C5, 0) == set(range(5))
    assert point_orbit(S5, 3) == set(range(5))
    assert orbit(4, [cycle(5, 0, 1)], getitem) == {4}
    # sets, as the Aut(G)-orbits of connection sets are walked
    assert orbit((0, 1), C5.generators, lambda p, t: tuple(sorted(p[x] for x in t))) == {
        (0, 1), (1, 2), (2, 3), (3, 4), (0, 4)
    }


def test_point_stabilizer_s5():
    stab = list(S4.elements())
    assert S4.order == len(stab) == len(set(stab)) == 24
    assert set(stab) == stabilizer_of_zero(S5)


def test_point_stabilizer_regular_group_is_trivial():
    ghat = regular_group(F21)
    assert ghat.is_transitive()
    assert ghat.order == ghat.degree
    assert stabilizer_of_zero(ghat) == {identity_perm(21)}


def test_orbit_stabilizer_identity():
    for grp in (S5, C5, D6, aut_group(PETERSEN)):
        assert len(point_orbit(grp, 0)) * len(stabilizer_of_zero(grp)) == grp.order


def test_is_transitive_is_the_orbit_of_zero():
    assert PermGroup(0, [], []).is_transitive()
    assert PermGroup(1, [], []).is_transitive()
    assert not PermGroup(2, [], []).is_transitive()
    assert S5.is_transitive() and C5.is_transitive() and D6.is_transitive()
    # intransitive: orbits {0, 1} and {2, 3, 4}
    assert not aut_group(graph_from_edges(5, [(0, 1), (2, 3), (3, 4), (4, 2)])).is_transitive()
    # fixing 0
    assert not S4.is_transitive()
    assert not aut_group(graph_from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 1)])).is_transitive()
    for grp in (S5, S4, C5, D6, aut_group(matching(3))):
        assert grp.is_transitive() == (point_orbit(grp, 0) == set(range(grp.degree)))
    # the orbit of the first base point decides, whichever point that is;
    # a trivial group is transitive on at most one point
    assert PermGroup(5, C5.generators, [3]).is_transitive()
    assert not PermGroup(5, S4.generators, [4, 3, 2]).is_transitive()
    for degree, base in ((0, []), (1, []), (1, [0]), (2, [1]), (5, [])):
        grp = PermGroup(degree, [], base)
        assert grp.is_transitive() == (degree <= 1) == (point_orbit(grp, 0) >= set(range(degree)))


# ----------------------------------------------------------- graph orbits

def test_edge_and_arc_orbits_k5():
    assert edge_orbit_count(K5.adjacency, S5.generators) == 1
    assert orbit_count(s_arcs(K5.adjacency, 1), S5.generators) == 1


def test_edge_orbits_of_regular_group_alone():
    g = build_cayley(standard_connection_set(1, F21), F21)
    ghat = regular_group(F21)
    # the two inverse pairs of S give two edge orbits under right translation
    assert edge_orbit_count(g.adjacency, ghat.generators) == 2
    assert orbit_count(s_arcs(g.adjacency, 1), ghat.generators) == 4


def negation(n):
    """x -> -x on Z_n, the inverse map of a circulant's connection set."""
    return {x: (-x) % n for x in range(n)}


def inverses(spec):
    return {spec.index(x): spec.index(inv(x, spec)) for x in spec.elements()}


def test_s_arcs_counts():
    assert len(s_arcs(K5.adjacency, 1)) == 20
    assert len(s_arcs(K5.adjacency, 2)) == 20 * 3
    c6 = cycle_graph(6)
    assert len(s_arcs(c6.adjacency, 3)) == 12  # cycles never backtrack
    # both graphs are vertex-transitive: n times the s-arcs at vertex 0
    for g, s in ((K5, 1), (K5, 2), (c6, 3)):
        walks = s_arcs_at_zero(g, s)
        assert all(w[0] == 0 for w in walks)
        assert g.n * len(walks) == len(s_arcs(g.adjacency, s))


def test_max_s_arc_transitive_k5():
    # 3-arcs split into closing (v3 = v0) and open walks, so s stops at 2
    assert orbits_at_zero(S4, K5, negation(5)) == (1, 2)
    assert max_s_arc_transitive(S5.generators, K5.adjacency) == 2
    assert edge_orbit_count(K5.adjacency, S5.generators) == 1


def test_max_s_arc_circulant_orbit_set():
    # Cay(Z13, {±1, ±5}): the set is the orbit of the multiplicative subgroup
    # generated by 5, so multiplication by 5 is an automorphism and the full
    # group is arc-transitive
    z13 = GroupSpec(13, 1, 1)
    g = build_cayley([Element(u, 0, 0) for u in (1, 5, 8, 12)], z13)
    result = analyze(g, seeds=regular_representation(z13))
    edges, s = orbits_at_zero(PermGroup(13, result.found, result.base), g, negation(13))
    assert edges == 1 and s >= 1
    assert s == max_s_arc_transitive(result.generators, g.adjacency)


def test_max_s_arc_zero_when_not_arc_transitive():
    g = build_cayley(standard_connection_set(1, F21), F21)
    ghat = regular_group(F21)
    # A_0 of the regular copy alone is trivial: two edge orbits, no arc-transitivity
    assert orbits_at_zero(PermGroup(21, [], []), g, inverses(F21)) == (2, 0)
    assert max_s_arc_transitive(ghat.generators, g.adjacency) == 0
    assert edge_orbit_count(g.adjacency, ghat.generators) == 2


def test_max_s_arc_cycle_is_capped():
    c6 = cycle_graph(6)
    # seeded with the rotation, the search finds the stabilizer of vertex 0
    result = analyze(c6, seeds=[cycle(6, 0, 1, 2, 3, 4, 5)])
    stab = PermGroup(6, result.found, result.base)
    assert stab.order == 2
    assert orbits_at_zero(stab, c6, negation(6)) == (1, 3)
    assert max_s_arc_transitive(D6.generators, c6.adjacency, cap=3) == 3


def test_orbits_at_zero_rejects_non_automorphism():
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        orbits_at_zero(PermGroup(3, [(0, 2, 1)], [1]), path, {1: 1})
    # an automorphism that moves vertex 0 belongs to no stabilizer of it
    c6 = cycle_graph(6)
    with pytest.raises(ValueError):
        orbits_at_zero(PermGroup(6, [cycle(6, 0, 1, 2, 3, 4, 5)], [0]), c6, negation(6))
    # the reverse map must permute the neighbours of 0
    for reverse in ({1: 1, 5: 1}, {1: 5}):
        with pytest.raises(ValueError):
            orbits_at_zero(PermGroup(6, [], []), c6, reverse)


# ------------------------------------------------------------- normalizer

def test_normalizer_k5():
    # N = AGL(1,5) of order 20; index over |G| = 4 = |Aut(G,S)|
    assert normalizer_of_regular(S4, Z5, regular_representation(Z5)) == 20
    assert normalizer_order(S5.generators, 5, 1, 1) == 20


def test_normalizer_of_regular_in_itself():
    ghat = regular_group(F21)
    assert normalizer_of_regular(PermGroup(21, [], []), F21, regular_representation(F21)) == 21
    assert normalizer_order(ghat.generators, 7, 3, 2) == 21


def test_normalizer_degree_mismatch():
    with pytest.raises(ValueError):
        normalizer_of_regular(S4, F21, regular_representation(F21))
    with pytest.raises(ValueError):
        normalizer_of_regular(S4, Z5, regular_representation(F21))


def test_normalizer_needs_the_regular_copy():
    # R * A_0 is a group only for the stabilizer A_0 of vertex 0, which R
    # complements; a group moving 0 is none
    with pytest.raises(ValueError):
        normalizer_of_regular(PermGroup(5, [cycle(5, 0, 1)], [0]), Z5, regular_representation(Z5))


@pytest.mark.parametrize("mnrl", [(5, 1, 1, 1), (7, 3, 2, 1), (11, 5, 3, 1), (11, 5, 3, 3)])
def test_normalizer_matches_reference_on_census_classes(mnrl):
    spec = GroupSpec(*mnrl)
    regular = regular_representation(spec)
    classes = classify_spec(spec).classes
    assert classes
    for c in classes:
        graph = build_cayley(c.connection_set, spec)
        result = analyze(graph, seeds=regular)
        ref = normalizer_order(result.generators, *mnrl)
        a0 = PermGroup(graph.n, result.found, result.base)
        assert normalizer_of_regular(a0, spec, regular) == ref == c.normalizer_order
        assert c.normal_cayley == (ref == PermGroup(graph.n, result.generators, result.base).order)


@pytest.mark.parametrize(
    "spec",
    list(iter_specs(135)) + [GroupSpec(11, 5, 3, ell=3)],
    ids=lambda s: f"{s.m}-{s.n}-{s.r}-{s.ell}",
)
def test_normalizer_matches_right_translation_membership(spec):
    """Counting the elements of A_0 that are automorphisms of G (the
    holomorph criterion) counts what testing each conjugate of R against
    the right translations counts, on every edge-transitive class."""
    regular = regular_representation(spec)
    for c in classify_spec(spec, bound=spec.order).classes:
        graph = build_cayley(c.connection_set, spec)
        a0 = stabilizer_group(graph, spec)
        expected = normalizer_by_right_translations(
            a0.elements(), spec.m, spec.n, spec.r, spec.ell
        )
        assert normalizer_of_regular(a0, spec, regular) == expected == c.normalizer_order


@pytest.mark.parametrize("spec", [F21, GroupSpec(11, 5, 3, ell=3)], ids=["7-3-2-1", "11-5-3-3"])
def test_normalizer_needs_every_left_translation(spec):
    """For each generator g, a permutation that fixes 0 and commutes with the
    left translation by g alone: that translation on one orbit of it away
    from 0, the identity elsewhere.  It is no automorphism of G, and the
    count must still be that of the right-translation reference.  <x> is
    no whole point stabilizer of a group containing R, so this lies outside
    the base argument of ``normalizer_of_regular``: it checks only that the
    base point h exposes x."""
    regular = regular_representation(spec)
    params = (spec.m, spec.n, spec.r, spec.ell)
    for g in (1, spec.m, spec.m * spec.n):
        if g >= spec.order:
            continue
        left = [oracle_mul_index(g, x, *params) for x in range(spec.order)]
        h = next(x for x in range(spec.order) if 0 not in _cycle(left, x))
        moved = set(_cycle(left, h))
        x = tuple(left[y] if y in moved else y for y in range(spec.order))
        # <x> is cyclic and moves h around one cycle, so [h] is a base
        a0 = PermGroup(spec.order, [x], [h])
        expected = normalizer_by_right_translations(a0.elements(), *params)
        assert normalizer_of_regular(a0, spec, regular) == expected < spec.order * a0.order


@pytest.mark.parametrize("spec", [F21, GroupSpec(11, 5, 3, ell=3)], ids=["7-3-2-1", "11-5-3-3"])
def test_normalizer_tests_every_generator(spec):
    """For each generator g, a permutation x that fixes 0 and passes the
    holomorph test for every other generator but not for g: with K the
    subgroup the others generate, x(gk) = g k0 k for k in K and one
    k0 != 1 of K, and x is the identity off gK.  Then x(yk) = x(y)k for
    every y and every k in K: x commutes with the right translations by K
    and passes their tests.  But x is no automorphism of G, so the count is
    right only if g is tested too.  As in the test above, <x> is no whole
    point stabilizer of a group containing R, so only the base point g
    exposes x here."""
    regular = regular_representation(spec)
    params = (spec.m, spec.n, spec.r, spec.ell)
    for g in (1, spec.m, spec.m * spec.n):
        if g >= spec.order:
            continue
        others = [h for h in (1, spec.m, spec.m * spec.n) if h != g and h < spec.order]
        subgroup = orbit(0, others, lambda h, y: oracle_mul_index(y, h, *params))
        assert g not in subgroup
        k0 = min(subgroup - {0})
        x = list(range(spec.order))
        for k in subgroup:
            x[oracle_mul_index(g, k, *params)] = oracle_mul_index(g, oracle_mul_index(k0, k, *params), *params)
        # <x> moves g's coset by k -> k0 k, freely, so [g] is a base
        a0 = PermGroup(spec.order, [tuple(x)], [g])
        expected = normalizer_by_right_translations(a0.elements(), *params)
        assert normalizer_of_regular(a0, spec, regular) == expected < spec.order * a0.order


def _cycle(p, x):
    out = [x]
    while p[out[-1]] != x:
        out.append(p[out[-1]])
    return out
