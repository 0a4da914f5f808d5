from __future__ import annotations

import json
import pickle
from collections import Counter, deque
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, sqrt
from pathlib import Path

import pytest

from metacirc import classify
from metacirc.aut import aut_generators, standard_set_stabilizer_order
from metacirc.classify import (
    analyze_connection_set,
    classify_spec,
    emit_report,
    orbit_representatives,
    parallel_map,
    report_to_json_dict,
)
from metacirc.autosearch import analyze
from metacirc.errors import BoundExceeded
from metacirc.graphs import build_cayley
from metacirc.groups import (
    Element,
    GroupSpec,
    automorphism_permutation,
    euler_phi,
    generates,
    inv,
    iter_specs,
    mul,
    regular_representation,
)
from metacirc.permgroup import PermGroup, orbits_at_zero
from metacirc.predictions import (
    TABLE1,
    standard_connection_set,
    standard_js,
    table1_checks,
    theorem_js,
    thm2_applicable,
)
from oracles import _inverses as inverses
from oracles import _right_multiplications as right_multiplications
from oracles import (
    aut_permutations,
    aut_stabilizer,
    aut_triples,
    candidate_orbits,
    closure_size,
    distance_matrix,
    distance_split as reference_distance_split,
    edge_orbit_count,
    enumerate_candidates,
    inverse_closed_four_subsets,
    max_s_arc_transitive,
    orbit_walk,
    parse_graph6,
    set_orbit,
)

F21 = GroupSpec(7, 3, 2)
Z5 = GroupSpec(5, 1, 1)
DATA = Path(__file__).parent / "data"


def spec_id(spec):
    return f"{spec.m}-{spec.n}-{spec.r}-{spec.ell}"


def orbit_members(rep, spec):
    """The Aut(G)-orbit of rep, from every element of Aut(G)."""
    perms = aut_permutations(spec)
    return {tuple(sorted(p[x] for x in rep)) for p in perms}


def sorted_standard_set(j, spec):
    return tuple(sorted(spec.index(x) for x in standard_connection_set(j, spec)))


def generating_orbits(spec):
    """(least member, orbit size) of each generating orbit, in walk order."""
    return [(rep, size) for rep, size, _ in orbit_representatives(spec, aut_generators(spec)[0], {})]


def every_orbit(spec, gens):
    """The walk's output with ``generates`` accepting every set, so that it
    reports every orbit on raw sets, generating or not."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "generates", lambda *args: True)
        return orbit_representatives(spec, gens, {})


# ------------------------------------------------------------- candidates

def test_raw_candidate_counts():
    assert classify_spec(Z5).raw_candidates == 1
    assert classify_spec(F21).raw_candidates == 45
    assert len(inverse_closed_four_subsets(23, 11, 2)) == comb(126, 2) == 7875


def test_candidates_are_valid_and_generating():
    orbits = generating_orbits(F21)
    assert sum(size for _, size in orbits) == 42
    for rep, size in orbits:
        members = orbit_members(rep, F21)
        assert len(members) == size and min(members) == rep
        for S in members:
            S = [F21.at_index(x) for x in S]
            assert len(set(S)) == 4
            assert all(inv(x, F21) in S for x in S)
            assert closure_size(S, F21) == 21


def test_candidate_bound():
    with pytest.raises(BoundExceeded, match=r"^\|G\| = 253 exceeds candidate bound 100$"):
        classify_spec(GroupSpec(23, 11, 2), bound=100)


def test_early_exits_come_before_aut(monkeypatch):
    """The walk bound (oracle mode) and the count formula's hypotheses
    (theorem mode) refuse a spec before Aut(G) is computed: a group of 4185
    elements gets the candidate bound's message, not the element search's,
    and a spec outside the count formula gets ``theorem_js``'s."""
    def refuse(spec):
        raise AssertionError(f"Aut(G) computed for {spec}")

    monkeypatch.setattr(classify, "aut_generators", refuse)
    with pytest.raises(BoundExceeded, match=r"^\|G\| = 4185 exceeds candidate bound 1000$"):
        classify_spec(GroupSpec(3, 3, 1, ell=465), bound=1000)
    with pytest.raises(ValueError, match="^theorem mode needs a nonabelian Sylow-cyclic spec"):
        classify_spec(GroupSpec(9, 3, 4), mode="theorem")


def test_candidate_orbits_cover_everything():
    orbits = generating_orbits(F21)
    assert sum(size for _, size in orbits) == len(enumerate_candidates(7, 3, 2))
    assert len(orbits) == 2


@pytest.mark.parametrize(
    "spec",
    [GroupSpec(7, 3, 2), GroupSpec(11, 5, 3, ell=3), GroupSpec(9, 3, 4), GroupSpec(25, 5, 6)],
    ids=spec_id,
)
def test_candidate_orbits_match_full_group_reference(spec):
    """The orbits agree with reducing the reference candidates by every
    element of Aut(G), not just a generating set."""
    orbits = generating_orbits(spec)
    cands = enumerate_candidates(spec.m, spec.n, spec.r, spec.ell)
    assert orbits == candidate_orbits(cands, aut_permutations(spec))


@pytest.mark.parametrize(
    "spec",
    list(iter_specs(231))
    + [Z5, GroupSpec(11, 5, 3, ell=3), GroupSpec(33, 5, 4), GroupSpec(9, 9, 4)],
    ids=spec_id,
)
def test_orbit_representatives_match_enumerate_then_reduce(spec):
    """The orbit-first walk gives the representatives, sizes and order of
    enumerating every set, testing each for generation and reducing the
    generating ones by Aut(G)-orbits, and the raw count is the closed form."""
    raw = inverse_closed_four_subsets(spec.m, spec.n, spec.r, spec.ell)
    cands = enumerate_candidates(spec.m, spec.n, spec.r, spec.ell)
    expected = candidate_orbits(cands, aut_generators(spec)[0])
    orbits = generating_orbits(spec)
    assert orbits == expected
    assert sum(size for _, size in orbits) == len(cands)
    assert comb((spec.order - 1) // 2, 2) == len(raw)


def check_eulerian_function(spec):
    """P. Hall's phi_2(G), the number of ordered pairs that generate G,
    against the walk and |Aut(G)|.  G is nonabelian, so no generating pair
    lies in one cyclic subgroup: each generating set {x^+-1, y^+-1} is 8
    generating ordered pairs, on which Aut(G) acts freely.  So phi_2 is 8
    times the generating sets, |Aut(G)| divides it, each |Aut(G, S)| =
    |Aut(G)| / orbit size divides 8, and the 8 / |Aut(G, S)| sum to
    phi_2 / |Aut(G)|."""
    assert not spec.is_abelian
    elements = list(spec.elements())
    phi2 = sum(generates((x, y), spec) for x in elements for y in elements)
    gens, aut_order = aut_generators(spec)
    sizes = [size for _, size, _ in orbit_representatives(spec, gens, {})]
    # the walk's sizes are the report's candidates.connected
    assert phi2 == 8 * sum(sizes)
    assert phi2 % aut_order == 0
    assert all(aut_order % size == 0 and 8 % (aut_order // size) == 0 for size in sizes)
    assert sum(8 // (aut_order // size) for size in sizes) == phi2 // aut_order


@pytest.mark.parametrize("spec", list(iter_specs(135)) + [GroupSpec(7, 3, 2, ell=5)], ids=spec_id)
def test_eulerian_function_counts_the_walk(spec):
    check_eulerian_function(spec)


@pytest.mark.slow
@pytest.mark.parametrize(
    "spec",
    [s for s in iter_specs(231) if s.order > 135] + [GroupSpec(11, 5, 3, ell=3)],
    ids=spec_id,
)
def test_eulerian_function_counts_the_walk_to_231(spec):
    check_eulerian_function(spec)


@pytest.mark.parametrize(
    "spec",
    list(iter_specs(231)) + [GroupSpec(11, 5, 3, ell=3), GroupSpec(7, 3, 2, ell=3), GroupSpec(7, 3, 2, ell=5)],
    ids=spec_id,
)
def test_vertex_zero_analysis_matches_whole_graph(spec):
    """On every generating orbit, edge-transitive or not: the automorphisms
    the seeded search finds fix vertex 0 and generate its whole stabilizer
    in the full group, and the counts at vertex 0 equal the
    whole-graph edge-orbit count and s-arc-transitivity."""
    regular = regular_representation(spec)
    orbits = generating_orbits(spec)
    for rep, _ in orbits:
        graph = build_cayley([spec.at_index(x) for x in rep], spec)
        result = analyze(graph, seeds=regular)
        assert all(g[0] == 0 for g in result.found)
        aut = PermGroup(graph.n, result.generators, result.base)
        a0 = PermGroup(graph.n, result.found, result.base)
        # the group is transitive, so its order is n times the stabilizer's
        assert graph.n * a0.order == aut.order
        inverse = {x: spec.index(inv(spec.at_index(x), spec)) for x in rep}
        assert orbits_at_zero(a0, graph, inverse) == (
            edge_orbit_count(graph.adjacency, aut.generators),
            max_s_arc_transitive(aut.generators, graph.adjacency),
        )


@lru_cache(maxsize=None)
def edge_split_exits(spec):
    """Per generating orbit: the edge orbits that ``orbits_at_zero`` counts
    from the seeded search.  Cached, as several tests walk each spec."""
    regular = regular_representation(spec)
    orbits = generating_orbits(spec)
    out = []
    for rep, _ in orbits:
        graph = build_cayley([spec.at_index(x) for x in rep], spec)
        inverse = {x: spec.index(inv(spec.at_index(x), spec)) for x in rep}
        result = analyze(graph, seeds=regular)
        out.append(orbits_at_zero(PermGroup(graph.n, result.found, result.base), graph, inverse)[0])
    return tuple(out)


def distance_split(spec, rep):
    """Whether the distance-pair test drops the set of vertex indices rep."""
    return classify._distance_split(spec, {x: spec.index(inv(spec.at_index(x), spec)) for x in rep})


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
    ids=spec_id,
)
def test_distance_split_is_sound(spec):
    """On every generating orbit: the distance-pair test drops a set only
    when A_0, from the seeded search, has more than one edge orbit."""
    orbits = generating_orbits(spec)
    for (rep, _), edge_orbits in zip(orbits, edge_split_exits(spec), strict=True):
        assert edge_orbits > 1 or not distance_split(spec, rep)


@pytest.mark.parametrize(
    "spec",
    list(iter_specs(105)) + [GroupSpec(11, 5, 3, ell=3), GroupSpec(23, 11, 2), GroupSpec(7, 3, 2, ell=5)],
    ids=spec_id,
)
def test_distance_split_matches_whole_matrix_reference(spec):
    """On every raw set, generating or not, the layer-by-layer test decides
    as the whole-matrix reference does, so it drops no set the reference
    keeps and keeps none it drops."""
    raw = inverse_closed_four_subsets(spec.m, spec.n, spec.r, spec.ell)
    assert [distance_split(spec, S) for S in raw] == [
        reference_distance_split(S, spec.m, spec.n, spec.r, spec.ell) for S in raw
    ]


@pytest.mark.parametrize(
    "spec", [F21, GroupSpec(11, 5, 3, ell=3), GroupSpec(9, 9, 4), GroupSpec(7, 3, 2, ell=5)], ids=spec_id
)
def test_distance_matrices_are_symmetric(spec):
    """On every raw set, generating or not, the whole M_x and M_y of the
    reference are their own transposes: the premise that lets
    ``_distance_split`` compare one count per layer."""
    for S in inverse_closed_four_subsets(spec.m, spec.n, spec.r, spec.ell):
        for z in S:
            matrix = distance_matrix(S, z, spec.m, spec.n, spec.r, spec.ell)
            assert matrix == Counter({(j, i): count for (i, j), count in matrix.items()}), (S, z)


@lru_cache(maxsize=None)
def late_exits(spec):
    """The generating orbits that the distance-pair test keeps, each with
    its edge orbits and whether ``analyze_connection_set`` drops it."""
    return tuple(
        (edge_orbits, analyze_connection_set(spec, [spec.at_index(x) for x in rep]) is None)
        for (rep, _), edge_orbits in zip(generating_orbits(spec), edge_split_exits(spec), strict=True)
        if not distance_split(spec, rep)
    )


@pytest.mark.parametrize(
    "spec",
    list(iter_specs(231)) + [GroupSpec(11, 5, 3, ell=3), GroupSpec(7, 3, 2, ell=3), GroupSpec(7, 3, 2, ell=5)],
    ids=spec_id,
)
def test_edge_split_exit_is_sound(spec):
    """On every generating orbit the distance-pair test keeps, the census
    drops the set, at ``orbits_at_zero``, exactly when A_0 has more than
    one edge orbit."""
    assert all(dropped == (edge_orbits > 1) for edge_orbits, dropped in late_exits(spec))


def test_orbits_at_zero_exit_counts():
    """``orbits_at_zero`` drops 5 generating orbits over the 17 specs up to
    order 135 and 8 over those up to 231."""
    def count(specs):
        return sum(dropped for spec in specs for _, dropped in late_exits(spec))

    assert len(list(iter_specs(135))) == 17
    assert count(iter_specs(135)) == 5
    assert count(iter_specs(231)) == 8


def test_distance_split_catches_census_ref_orbits():
    """On the four census_ref specs, the distance-pair test drops 27 of the
    28 generating orbits that are not edge-transitive, and
    ``orbits_at_zero`` drops the remaining one."""
    specs = (F21, GroupSpec(11, 5, 3), GroupSpec(11, 5, 3, ell=3), GroupSpec(23, 11, 2))
    exits = [
        (edge_orbits, distance_split(spec, rep))
        for spec in specs
        for (rep, _), edge_orbits in zip(generating_orbits(spec), edge_split_exits(spec), strict=True)
    ]
    assert len(exits) == 43
    assert sum(edge_orbits > 1 for edge_orbits, _ in exits) == 28
    assert sum(split for _, split in exits) == 27
    assert sum(dropped for spec in specs for _, dropped in late_exits(spec)) == 1


def test_distance_split_catches_all_at_1081_vertices():
    """On Z47:Z23 the distance-pair test alone drops 66 of the 77 generating
    orbits.  The frozen report has 11 classes, so the 11 survivors are the
    edge-transitive ones, and the test dropped every orbit that is not."""
    spec = GroupSpec(47, 23, 2)
    orbits = generating_orbits(spec)
    dropped = sum(distance_split(spec, rep) for rep, _ in orbits)
    assert (len(orbits), dropped) == (77, 66)
    golden = json.loads((DATA / "classify_47_23_2_1_oracle.json").read_text())
    assert len(golden["classes"]) == len(orbits) - dropped


def test_set_stabilizer_order_matches_reference():
    """Each class's |Aut(G, S)|, off the orbit walk in oracle mode and from
    ``aut.standard_set_stabilizer_order`` in theorem mode, counts the
    oracle's automorphisms that fix S."""
    for spec in (F21, GroupSpec(11, 5, 3), GroupSpec(19, 9, 4), GroupSpec(7, 3, 2, ell=5)):
        triples = aut_triples(spec)
        for mode in ("oracle", "theorem"):
            report = classify_spec(spec, mode=mode)
            assert report.classes
            for c in report.classes:
                assert c.set_stabilizer_order == len(aut_stabilizer(c.connection_set, spec, triples))


@pytest.mark.parametrize(
    "spec",
    list(iter_specs(231))
    + [GroupSpec(11, 5, 3, ell=3), GroupSpec(9, 9, 4, ell=3), GroupSpec(7, 3, 2, ell=9), GroupSpec(5, 1, 1, ell=5)],
    ids=spec_id,
)
def test_pair_action_pairs_match_reference_inverses(spec):
    """With no automorphism and every set taken as generating, each raw set
    is its own orbit, so the walk lists the raw sets in walk order: the
    pairs {i, j}, i < j, of the inverse pairs (x, x^-1) for each x < x^-1
    of the oracle's inverses, in order of x."""
    inverse = inverses(right_multiplications(spec.m, spec.n, spec.r, spec.ell))
    pairs = [(x, y) for x, y in enumerate(inverse) if x < y]
    assert every_orbit(spec, []) == [
        (tuple(sorted(pairs[i] + pairs[j])), 1, None) for i, j in combinations(range(len(pairs)), 2)
    ]


@pytest.mark.parametrize(
    "spec",
    list(iter_specs(231))
    + [GroupSpec(11, 5, 3, ell=3), GroupSpec(9, 9, 4), GroupSpec(25, 5, 6, ell=3), GroupSpec(23, 11, 2)],
    ids=spec_id,
)
def test_orbit_representatives_match_reference_walk(spec):
    """The walk on inverse-pair indices, one byte per raw set, gives the
    output of the walk over sorted 4-tuples, each orbit taken by set_orbit."""
    gens, _ = aut_generators(spec)
    assert generating_orbits(spec) == orbit_walk(spec, gens)


@pytest.mark.parametrize(
    "spec",
    list(iter_specs(105)) + [GroupSpec(11, 5, 3, ell=3), GroupSpec(7, 3, 2, ell=3), GroupSpec(5, 1, 1, ell=5)],
    ids=spec_id,
)
def test_pair_action_orbits_match_burnside_count(spec):
    """The walk, every set taken as generating, meets (1/|Aut(G)|) * sum of
    fix(phi) orbits on raw sets, over every automorphism phi of the
    oracle's exhaustive list (Burnside), with no frozen data.  Each phi
    acts on the oracle's inverse pairs by the permutation pi that
    ``automorphism_permutation`` gives, and fixes the raw sets {i, j} with
    i and j both fixed by pi or swapped by it: C(#fixed points, 2) +
    #2-cycles."""
    inverse = inverses(right_multiplications(spec.m, spec.n, spec.r, spec.ell))
    pairs = [(x, y) for x, y in enumerate(inverse) if x < y]
    pair_of = {x: i for i, pair in enumerate(pairs) for x in pair}
    triples = aut_triples(spec)
    fixed_sets = 0
    for f in triples:
        g = automorphism_permutation(f, spec)
        pi = [pair_of[g[x]] for x, _ in pairs]
        fixed = sum(1 for i, x in enumerate(pi) if x == i)
        swaps = sum(1 for i, x in enumerate(pi) if x > i and pi[x] == i)
        fixed_sets += comb(fixed, 2) + swaps
    orbits = every_orbit(spec, aut_generators(spec)[0])
    assert sum(size for _, size, _ in orbits) == comb(len(pairs), 2)
    assert len(orbits) * len(triples) == fixed_sets


@pytest.mark.parametrize(
    "spec",
    [F21, GroupSpec(13, 3, 3), GroupSpec(11, 5, 3), GroupSpec(11, 5, 3, ell=3), GroupSpec(9, 3, 4)],
    ids=spec_id,
)
def test_orbit_cache_holds_least_member_and_size(spec):
    """The walk gives (min(o), len(o)) of the set_orbit o of each generating
    orbit it meets, and, given every S_j with gcd(j, n) = 1, the least j
    whose S_j lies in o; and each class's standard_j is the least j whose
    S_j lies in the class's orbit under every element of Aut(G)."""
    gens, _ = aut_generators(spec)
    js = [j for j in range(1, spec.n0) if gcd(j, spec.n) == 1]
    standard = {j: sorted_standard_set(j, spec) for j in js}
    for rep, size, standard_j in orbit_representatives(spec, gens, standard):
        o = set_orbit(rep, gens)
        assert (min(o), len(o)) == (rep, size)
        assert standard_j == min((j for j in js if sorted_standard_set(j, spec) in o), default=None)
    report = classify_spec(spec)
    thm2_applicable = report.thm2_claim is not None
    for c in report.classes:
        members = orbit_members(sorted(map(spec.index, c.connection_set)), spec)
        expected = min((j for j in js if sorted_standard_set(j, spec) in members), default=None)
        assert c.standard_j == (expected if thm2_applicable else None)


@pytest.mark.parametrize(
    "spec",
    list(iter_specs(231))
    + [GroupSpec(11, 5, 3, ell=3), GroupSpec(9, 3, 4), GroupSpec(23, 11, 2), GroupSpec(29, 7, 7, ell=3)],
    ids=spec_id,
)
def test_class_orbit_size_and_standard_j_match_set_orbit(spec):
    """In each mode that applies, every class's set stabilizer order and
    standard_j are those of the set_orbit of its connection set: |Aut(G)|
    over the size of that orbit, and the least j with gcd(j, n) = 1 whose
    sorted S_j lies in it (None where the count formula does not apply, or
    where no S_j lies in it, as for the generic classes of Z29:Z7 x Z3)."""
    gens, aut_order = aut_generators(spec)
    reports = [classify_spec(spec)]
    thm2_applicable = reports[0].thm2_claim is not None
    if thm2_applicable:
        reports.append(classify_spec(spec, mode="theorem"))
    js = [j for j in range(1, spec.n0) if gcd(j, spec.n) == 1]
    for report in reports:
        assert not any("isomorphic" in f for f in report.findings)
        for c in report.classes:
            o = set_orbit(map(spec.index, c.connection_set), gens)
            assert c.set_stabilizer_order * len(o) == aut_order
            expected = min((j for j in js if sorted_standard_set(j, spec) in o), default=None)
            assert c.standard_j == (expected if thm2_applicable else None)


# the thm2-applicable specs to order 1100: iter_specs(1100), and its specs
# times a central Z_ell for odd ell <= 11
THEOREM_FAMILY = [
    spec
    for base in iter_specs(1100)
    for spec in (GroupSpec(base.m, base.n, base.r, ell) for ell in (1, 3, 5, 7, 9, 11))
    if spec.order <= 1100 and thm2_applicable(spec)
]


@pytest.mark.parametrize("spec", THEOREM_FAMILY, ids=spec_id)
def test_theorem_set_stabilizer_matches_the_orbit_walk(spec):
    """For each theorem j, one generating orbit of the walk, given every
    S_j, has j as its least j whose S_j it holds, and theorem mode's
    |Aut(G, S_j)| is |Aut(G)| over that orbit's size; and where the swap
    is an automorphism, the distance test sees one edge orbit, as it must
    on an edge-transitive graph."""
    gens, aut_order = aut_generators(spec)
    standard = {j: sorted_standard_set(j, spec) for j in standard_js(spec)}
    orbits = orbit_representatives(spec, gens, standard)
    set_stab = standard_set_stabilizer_order(spec)
    for j in theorem_js(spec):
        (size,) = [size for _, size, standard_j in orbits if standard_j == j]
        assert set_stab * size == aut_order
        if set_stab == 2:
            assert not distance_split(spec, sorted_standard_set(j, spec))


def test_theorem_family_takes_both_set_stabilizers():
    """The family has 207 specs and 332 theorem sets, 247 of them with the
    swap."""
    counts = [standard_set_stabilizer_order(spec) for spec in THEOREM_FAMILY for _ in theorem_js(spec)]
    assert (len(THEOREM_FAMILY), len(counts), counts.count(2)) == (207, 332, 247)


@pytest.mark.parametrize(
    "spec",
    [GroupSpec(29, 7, 7), GroupSpec(29, 7, 7, ell=3), GroupSpec(35, 3, 11), GroupSpec(33, 5, 4)],
    ids=spec_id,
)
def test_theorem_mode_computes_no_aut(monkeypatch, spec):
    """Theorem mode computes no Aut(G) and walks no orbit, and it runs the
    distance test only on the sets whose swap is not an automorphism; on
    these specs each of those leaves the census, and each set with the swap
    is a class."""
    def refuse(*args):
        raise AssertionError("theorem mode used Aut(G)")

    tested = []
    split = classify._distance_split

    def counted(spec, inverse):
        tested.append(sorted(inverse))
        return split(spec, inverse)

    monkeypatch.setattr(classify, "aut_generators", refuse)
    monkeypatch.setattr(classify, "orbit_representatives", refuse)
    monkeypatch.setattr(classify, "_distance_split", counted)
    report = classify_spec(spec, mode="theorem")
    swap = standard_set_stabilizer_order(spec) == 2
    without_swap = [] if swap else [list(sorted_standard_set(j, spec)) for j in theorem_js(spec)]
    assert tested == without_swap
    assert len(report.classes) == len(theorem_js(spec)) - len(without_swap)


@pytest.mark.parametrize("spec", [GroupSpec(11, 5, 3), GroupSpec(29, 7, 7, ell=3)], ids=spec_id)
def test_oracle_mode_walks_each_orbit_once(monkeypatch, spec):
    """One walk per census and one generation test per orbit on raw sets,
    generating or not, and none for a class: with every set taken as
    generating, the walk's orbits cover the raw sets exactly once, and
    there are as many of them as the census made generation tests."""
    walks, tests = [], []
    walk, test = classify.orbit_representatives, classify.generates

    def counted_walk(*args):
        walks.append(args[0])
        return walk(*args)

    def counted_test(*args):
        tests.append(args)
        return test(*args)

    monkeypatch.setattr(classify, "orbit_representatives", counted_walk)
    monkeypatch.setattr(classify, "generates", counted_test)
    report = classify_spec(spec)
    monkeypatch.undo()
    assert report.classes and report.thm2_claim is not None
    assert walks == [spec]
    orbits = every_orbit(spec, aut_generators(spec)[0])
    assert sum(size for _, size, _ in orbits) == report.raw_candidates
    assert len(tests) == len(orbits)


# ----------------------------------------------------------- single sets

def test_analyze_standard_set_f21():
    c = analyze_connection_set(F21, standard_connection_set(1, F21))
    assert c is not None
    assert (c.aut_order, c.stab_order, c.s) == (336, 16, 1)
    assert c.arc and not c.half and not c.normal_cayley
    assert c.to_json_dict()["vertex"] and c.to_json_dict()["edge"]


def test_analyze_connection_set_never_computes_aut(monkeypatch):
    """The per-class work needs the group and the set alone; the fields read
    off Aut(G)-orbits are left to the census."""
    calls = []

    def counted(spec):
        calls.append(spec)
        return aut_generators(spec)

    monkeypatch.setattr(classify, "aut_generators", counted)
    c = analyze_connection_set(F21, standard_connection_set(1, F21))
    assert calls == []
    assert (c.set_stabilizer_order, c.normalizer_ok, c.standard_j) == (None,) * 3


def test_analyze_connection_set_reports_the_set_sorted():
    """The report's set is sorted by vertex index, whatever order it is
    given in."""
    S = standard_connection_set(1, F21)
    c = analyze_connection_set(F21, reversed(S))
    assert c.connection_set == S == tuple(sorted(S, key=F21.index))
    assert c.to_json_dict() == analyze_connection_set(F21, S).to_json_dict()


def test_analyze_non_edge_transitive_returns_none(monkeypatch):
    # S = {a, a^-1, b, b^-1} in F21 is connected but not edge-transitive;
    # the search drops it, with no distance-pair test
    def refuse(*args):
        raise AssertionError("analyze_connection_set ran the distance-pair test")

    monkeypatch.setattr(classify, "_distance_split", refuse)
    S = (Element(1, 0, 0), Element(6, 0, 0), Element(0, 1, 0), Element(0, 2, 0))
    assert closure_size(S, F21) == 21
    assert analyze_connection_set(F21, S) is None


@pytest.mark.parametrize(
    "spec, tested, analyzed",
    [(GroupSpec(11, 5, 3), 5, 3), (GroupSpec(47, 23, 2), 77, 11)],
    ids=["11-5-3-1", "47-23-2-1"],
)
def test_distance_filter_is_a_stage_of_classify_spec(monkeypatch, spec, tested, analyzed):
    """Oracle mode runs the distance-pair test once per generating orbit,
    on its least member, before any search, and hands the sets it keeps to
    ``analyze_connection_set``, which runs no test of its own; the orbit
    count still counts every orbit."""
    walks, splits, searched = [], [], []
    walk, split, analyze_set = classify.orbit_representatives, classify._distance_split, analyze_connection_set

    def recorded_walk(*args):
        walks.append(walk(*args))
        return walks[-1]

    def counted_split(spec, inverse):
        splits.append((sorted(inverse), split(spec, inverse)))
        return splits[-1][1]

    def counted_analyze(spec, S):
        # every set was tested before the first search, and a search tests none
        assert len(splits) == tested
        searched.append(sorted(map(spec.index, S)))
        c = analyze_set(spec, S)
        assert len(splits) == tested
        return c

    monkeypatch.setattr(classify, "orbit_representatives", recorded_walk)
    monkeypatch.setattr(classify, "_distance_split", counted_split)
    monkeypatch.setattr(classify, "analyze_connection_set", counted_analyze)
    report = classify_spec(spec, bound=spec.order)
    (reps,) = walks
    assert [rep for rep, _ in splits] == [list(rep) for rep, _, _ in reps]
    assert searched == [rep for rep, dropped in splits if not dropped]
    assert (len(splits), len(searched), report.orbit_count) == (tested, analyzed, tested)


# -------------------------------------------------------------- pipeline

def test_classify_k5():
    rep = classify_spec(Z5)
    assert rep.oracle_count == 1
    c = rep.classes[0]
    assert (c.aut_order, c.stab_order, c.s) == (120, 24, 2)
    assert rep.raw_candidates == 1
    assert rep.agreement_table1 is True
    assert rep.agreement_theorem2 is None  # count formula is for nonabelian groups
    assert not rep.findings


def test_classify_f21_oracle():
    rep = classify_spec(F21)
    assert (rep.raw_candidates, rep.connected_candidates) == (45, 42)
    assert rep.oracle_count == 1 == rep.thm2_claim
    c = rep.classes[0]
    assert (c.aut_order, c.stab_order, c.s) == (336, 16, 1)
    assert c.normalizer_ok and c.set_stabilizer_order == 2
    assert c.standard_j == 1
    assert rep.agreement_theorem2 is True and rep.agreement_table1 is True


def test_classify_f21_theorem_mode_matches_oracle():
    oracle = classify_spec(F21, mode="oracle")
    theorem = classify_spec(F21, mode="theorem")
    assert [c.canonical for c in theorem.classes] == [c.canonical for c in oracle.classes]


def test_theorem_mode_orbit_size_matches_oracle():
    # the standard set of (13,3,3) lies in an Aut(G)-orbit of 78 sets; theorem
    # mode's closed form gives the set stabilizer that oracle mode's walk does
    spec = GroupSpec(13, 3, 3)
    _, aut_order = aut_generators(spec)
    assert aut_order % 78 == 0
    oracle = classify_spec(spec, mode="oracle")
    theorem = classify_spec(spec, mode="theorem")
    stabs = [[c.set_stabilizer_order for c in r.classes] for r in (theorem, oracle)]
    assert stabs == [[aut_order // 78]] * 2


def test_classify_f39_half_transitive():
    rep = classify_spec(GroupSpec(13, 3, 3))
    assert rep.oracle_count == 1 == rep.thm2_claim
    c = rep.classes[0]
    assert c.aut_order == 78 and c.half and c.normal_cayley and c.s == 0
    assert c.stab_order == 2
    assert rep.agreement_theorem2 is True and rep.agreement_table1 is None


def test_classify_55_vertices():
    rep = classify_spec(GroupSpec(11, 5, 3))
    assert rep.oracle_count == 3
    assert rep.phi_n0_half == 2 and rep.thm2_exception_count == 3 and rep.thm2_claim == 3
    orders = sorted(c.aut_order for c in rep.classes)
    assert orders == [110, 110, 1320]
    exceptional = [c for c in rep.classes if c.aut_order == 1320][0]
    assert (exceptional.stab_order, exceptional.s) == (24, 2)
    assert exceptional.standard_j is None
    assert not exceptional.normal_cayley
    halves = [c for c in rep.classes if c.aut_order == 110]
    assert all(c.half and c.normal_cayley and c.stab_order == 2 for c in halves)
    assert sorted(c.standard_j for c in halves) == [1, 2]
    assert rep.agreement_theorem2 is True
    assert rep.agreement_table1 is True  # structural checks; count 3 != 6 is separate
    assert any("no standard-form representative" in f for f in rep.findings)


def test_classify_465_vertices():
    # a scale point beyond the golden census: Z31:Z15, 26796 raw sets
    rep = classify_spec(GroupSpec(31, 15, 7), bound=500)
    assert rep.raw_candidates == comb(232, 2)
    assert rep.oracle_count == 4 == rep.thm2_claim
    assert report_to_json_dict(rep)["agreement"]["theorem2"] is True


def girth_and_diameter(adjacency):
    """By a breadth-first search from each vertex: the least d(u) + d(w) + 1
    over the edges u ~ w off the search tree, and the largest distance."""
    girth, diameter = len(adjacency), 0
    for root in range(len(adjacency)):
        dist, parent = {root: 0}, {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if w not in dist:
                    dist[w], parent[w] = dist[u] + 1, u
                    queue.append(w)
                elif w != parent[u]:
                    girth = min(girth, dist[u] + dist[w] + 1)
        assert len(dist) == len(adjacency)
        diameter = max(diameter, *dist.values())
    return girth, diameter


def test_census_27_is_the_doyle_holt_graph():
    """The census of the non-Sylow-cyclic group Z9:Z3 has one class: the
    Doyle-Holt graph, the smallest half-transitive tetravalent graph (Holt,
    "A graph which is edge transitive but not arc transitive", J. Graph
    Theory 5, 1981), with |Aut| = 2|G| = 54, girth 5 and diameter 3.  On 21
    vertices there is none."""
    rep = classify_spec(GroupSpec(9, 3, 4))
    assert rep.oracle_count == 1
    c = rep.classes[0]
    assert (c.aut_order, c.stab_order) == (54, 2)
    assert c.half and c.normal_cayley
    assert girth_and_diameter(parse_graph6(c.canonical.encode())) == (5, 3)
    assert rep.thm2_claim is None and rep.agreement_theorem2 is None
    assert not any(c.half for c in classify_spec(F21).classes)


def test_classify_theorem_mode_rejects_out_of_domain():
    with pytest.raises(ValueError):
        classify_spec(Z5, mode="theorem")
    with pytest.raises(ValueError):
        classify_spec(GroupSpec(9, 3, 4), mode="theorem")


def test_classify_invariants():
    for spec in (Z5, F21, GroupSpec(13, 3, 3), GroupSpec(11, 5, 3)):
        rep = classify_spec(spec)
        canons = [c.canonical for c in rep.classes]
        assert canons == sorted(canons) and len(set(canons)) == len(canons)
        for c in rep.classes:
            flags = c.to_json_dict()
            assert flags["half"] == (flags["vertex"] and flags["edge"] and not flags["arc"])
            assert c.aut_order == spec.order * c.stab_order
            assert c.normalizer_order == spec.order * c.set_stabilizer_order
            if c.normal_cayley:
                assert c.aut_order % (spec.order * c.set_stabilizer_order) == 0
                assert c.aut_order == c.normalizer_order


def test_theorem_js():
    assert theorem_js(F21) == [1]
    assert theorem_js(GroupSpec(11, 5, 3)) == [1, 2]
    assert theorem_js(GroupSpec(23, 11, 2)) == [1, 2, 3, 4, 5]
    assert theorem_js(GroupSpec(19, 9, 4)) == [1, 2, 4]


@pytest.mark.parametrize(
    "spec, mode, jobs",
    [
        (GroupSpec(11, 5, 3), "oracle", 3),
        # all three sets have the swap, so the workers skip the distance test
        (GroupSpec(29, 7, 7, ell=3), "theorem", 2),
        # gcd(r - 1, m) = 3, so no swap: the workers run the distance test,
        # and both sets leave the census
        (GroupSpec(33, 5, 4), "theorem", 2),
    ],
    ids=lambda x: spec_id(x) if isinstance(x, GroupSpec) else str(x),
)
def test_jobs_give_identical_reports(spec, mode, jobs):
    seq = report_to_json_dict(classify_spec(spec, mode=mode, jobs=1))
    par = report_to_json_dict(classify_spec(spec, mode=mode, jobs=jobs))
    assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)


def test_parallel_map_keeps_item_order():
    items = list(range(-20, 20))
    assert list(parallel_map(abs, items, 2)) == [abs(x) for x in items]


def test_parallel_map_runs_in_process_for_one_job_or_one_item():
    # a lambda does not pickle, so no worker could run it
    assert list(parallel_map(lambda x: x + 1, [1, 2, 3], 1)) == [2, 3, 4]
    assert list(parallel_map(lambda x: x + 1, [1], 4)) == [2]
    assert list(parallel_map(lambda x: x + 1, [], 4)) == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_parallel_map_propagates_a_task_exception(jobs):
    with pytest.raises(ValueError, match="math domain error"):
        list(parallel_map(sqrt, [4.0, -1.0, 9.0], jobs))


def test_parallel_map_pool_has_at_most_one_worker_per_item(monkeypatch):
    import concurrent.futures

    workers = []

    class Recorded:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    assert list(parallel_map(abs, [-1, -2], 8)) == [1, 2]
    assert list(parallel_map(abs, [-1, -2, -3, -4, -5], 3)) == [1, 2, 3, 4, 5]
    assert workers == [2, 3]


# -------------------------------------------------------------- reporting

def test_report_json_schema():
    payload = report_to_json_dict(classify_spec(F21))
    assert set(payload) >= {"group", "theory", "classes", "agreement"}
    assert payload["group"] == {"m": 7, "n": 3, "r": 2, "ell": 1, "n0": 3, "order": 21}
    assert set(payload["theory"]) == {"phi_n0_half", "thm2_exception_count", "table1"}
    cls = payload["classes"][0]
    for key in ("set", "canonical", "aut_order", "stab_order", "vertex", "edge",
                "arc", "half", "s", "normal_cayley"):
        assert key in cls
    assert len(cls["set"]) == 4 and all(len(t) == 3 for t in cls["set"])
    assert set(payload["agreement"]) == {"theorem2", "table1"}
    assert payload["theory"]["table1"]["n"] == 3
    assert payload["theory"]["table1"]["count_matches_n"] is False  # oracle says 1


def test_emit_report_roundtrip(tmp_path):
    rep = classify_spec(F21)
    out = tmp_path / "f21.json"
    emit_report(rep, out, graphs=True)
    loaded = json.loads(out.read_text())
    assert loaded == report_to_json_dict(rep)
    assert (tmp_path / "f21.class0.g6").exists()
    assert (tmp_path / "f21.class0.dot").exists()
    # stable across runs
    emit_report(classify_spec(F21), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == out.read_text()


def test_verify_table1_f21():
    rep = classify_spec(F21)
    checks = table1_checks(rep.spec, rep.classes)
    named = {name: ok for name, ok, _ in checks}
    assert named["one exceptional class"]
    assert named["stabilizer order"]
    assert named["s-arc-transitivity"]
    assert rep.count_matches_n is False  # oracle 1 vs table 3


def test_verify_table1_wrong_spec():
    with pytest.raises(ValueError):
        table1_checks(GroupSpec(13, 3, 3), classify_spec(GroupSpec(13, 3, 3)).classes)


def test_reports_pickle_to_equal_reports():
    """A ``--jobs`` pool ships each ``ClassReport`` back from its worker;
    class and group reports round trip through pickle unchanged."""
    report = classify_spec(GroupSpec(7, 3, 2))
    (c,) = report.classes
    assert pickle.loads(pickle.dumps(c)) == c
    back = pickle.loads(pickle.dumps(report))
    assert back == report and report_to_json_dict(back) == report_to_json_dict(report)


def test_report_disagrees_on_each_prediction():
    agreeing = classify_spec(GroupSpec(13, 3, 3))
    assert not agreeing.disagrees
    for change in ({"agreement_theorem2": False}, {"agreement_table1": False}, {"findings": ["x"]}):
        assert agreeing._replace(**change).disagrees
    # F21 agrees with its reference row but has one class, not the row's n = 3
    f21 = classify_spec(F21)
    assert f21.agreement_table1 and not f21.findings
    assert f21.oracle_count != f21.table1.n and f21.disagrees
    assert f21.count_matches_n is False and agreeing.count_matches_n is None


def test_isomorphic_twins_merge_into_one_class_and_a_finding(monkeypatch):
    """No census spec of the 1100 sweep has two analyzed sets with
    isomorphic graphs, so twins are forced: in oracle mode F21's
    edge-transitive orbit is walked twice, in theorem mode S_1 and S_2 are
    both analyzed, their graphs being isomorphic.  One class holds the
    first set, the finding names the twins in each mode's words, and the
    report disagrees."""
    s1 = [[0, 1, 0], [1, 1, 0], [0, 2, 0], [5, 2, 0]]
    assert [list(x) for x in standard_connection_set(1, F21)] == s1
    walk = classify.orbit_representatives

    def twice(spec, gens, standard):
        (orbit,) = [rep for rep in walk(spec, gens, standard) if rep[2] == 1]
        return [orbit, orbit]

    with monkeypatch.context() as mp:
        mp.setattr(classify, "orbit_representatives", twice)
        oracle = classify_spec(F21)
    assert [c.set_list() for c in oracle.classes] == [s1]
    assert oracle.findings == [f"isomorphic graphs from distinct Aut(G)-orbits: {s1} vs {s1}"]
    assert oracle.disagrees

    monkeypatch.setattr(classify.predictions, "theorem_js", standard_js)
    theorem = classify_spec(F21, mode="theorem")
    assert standard_js(F21) == [1, 2] and theorem.orbit_count == 2
    assert [(c.set_list(), c.standard_j) for c in theorem.classes] == [(s1, 1)]
    assert theorem.findings == ["standard sets j=1 and j=2 are isomorphic"]
    assert theorem.disagrees


TABLE1_ROW_CASES = (
    [(GroupSpec(m, n, 1), None) for m, n in ((7, 3), (11, 5), (23, 11))]
    + [(Z5, TABLE1[5, 1]), (GroupSpec(7, 3, 2, ell=3), None)]
    + [
        (GroupSpec(m, n, r), TABLE1[m, n])
        for m, n in ((7, 3), (11, 5), (23, 11))
        for r in range(2, m)
        if pow(r, n, m) == 1
    ]
)


@pytest.mark.parametrize("spec, row", TABLE1_ROW_CASES, ids=[spec_id(s) for s, _ in TABLE1_ROW_CASES])
def test_table1_row_rule(spec, row):
    """A spec gets the Table-1 row of its (m, n) when it has no central
    factor and is nonabelian, or is Z5: every multiplier r != 1 of the
    three nonabelian rows gets its row, while the abelian Z7 x Z3, Z11 x Z5
    and Z23 x Z11, and Z3 x (Z7:Z3), get none."""
    assert classify_spec(spec).table1 == row


# --------------------------------------------- documented disagreements
#
# The census is the ground truth; where it contradicts the bundled
# predictions the report must say so rather than fail.  These cases are
# verified disagreements (see also the independent cover/backtracking
# checks in the development notes): the oracle counts stand.

def test_census_of_z3_times_f55_finds_arc_transitive_cover():
    # Z3 x (Z11:Z5), unreduced presentation: five classes, one of which is an
    # arc-transitive cover of the 55-vertex exceptional graph, so the
    # half-transitivity prediction fails for this group and is flagged
    rep = classify_spec(GroupSpec(33, 5, 4), bound=231)
    assert rep.oracle_count == 5
    orders = sorted(c.aut_order for c in rep.classes)
    assert orders == [330, 330, 330, 330, 3960]
    exceptional = [c for c in rep.classes if c.aut_order == 3960][0]
    assert exceptional.arc and exceptional.stab_order == 24 and exceptional.s == 2
    assert not exceptional.normal_cayley
    assert set(exceptional.connection_set) == {
        Element(1, 0, 0), Element(32, 0, 0), Element(0, 2, 0), Element(0, 3, 0)
    }
    assert any("violates the generic half-transitive pattern" in f for f in rep.findings)
    assert all(c.normalizer_ok for c in rep.classes)


@pytest.mark.parametrize(
    "unreduced, reduced",
    [
        (GroupSpec(33, 5, 4), GroupSpec(11, 5, 3, ell=3)),
        (GroupSpec(35, 3, 11), GroupSpec(7, 3, 2, ell=5)),
        (GroupSpec(69, 11, 4), GroupSpec(23, 11, 2, ell=3)),
    ],
    ids=spec_id,
)
def test_reduced_and_unreduced_presentations_agree(unreduced, reduced):
    """One group, presented unreduced and reduced with a central factor,
    gives the same classes field by field.  Only the connection set and
    standard_j depend on the presentation: the two index the group
    differently and have different standard sets."""

    def fields(spec):
        return [
            {k: v for k, v in c._asdict().items() if k not in ("connection_set", "standard_j")}
            for c in classify_spec(spec, bound=spec.order).classes
        ]

    assert fields(unreduced) == fields(reduced)


def test_census_231_findings():
    """The frozen census, read without recomputing anything.  The count
    formula fails exactly where <a> meets the centre (gcd(r-1, m) > 1), and
    there the census finds phi(n0) classes, twice the formula, except at
    (33,5,4) = Z3 x (Z11:Z5), whose fifth class is a non-normal 2-arc-
    transitive cover.  Apart from it, only the reference graphs on 21 and 55
    vertices are non-normal Cayley graphs."""
    path = DATA / "census_231.jsonl"
    reports = [json.loads(line) for line in path.read_text().splitlines()]

    def key(report):
        g = report["group"]
        return (g["m"], g["n"], g["r"])

    covered = [rep for rep in reports if rep["agreement"]["theorem2"] is not None]
    failing = [rep for rep in covered if not rep["agreement"]["theorem2"]]
    assert (len(failing), len(covered) - len(failing)) == (4, 19)
    for rep in covered:
        m, _, r = key(rep)
        assert rep["agreement"]["theorem2"] == (gcd(r - 1, m) == 1)
    for rep in failing:
        expected = 5 if key(rep) == (33, 5, 4) else euler_phi(rep["group"]["n0"])
        assert len(rep["classes"]) == expected
    non_normal = {key(rep) for rep in reports for c in rep["classes"] if not c["normal_cayley"]}
    assert non_normal == {(7, 3, 2), (11, 5, 3), (33, 5, 4)}


def test_central_factor_second_family():
    # with a nontrivial central factor the census finds twice the predicted
    # number of classes: the sets {cx, cy, ...} with equal central parts form
    # a second family missing from the count formula
    rep = classify_spec(GroupSpec(7, 3, 2, ell=5), bound=231)
    assert rep.oracle_count == 2 and rep.thm2_claim == 1
    assert rep.agreement_theorem2 is False
    assert all(c.half and c.aut_order == 210 and c.normal_cayley for c in rep.classes)
    assert sorted((c.standard_j for c in rep.classes), key=str) == [1, None]
    assert any("no standard-form representative" in f for f in rep.findings)


def central_factor_family(spec):
    """The sets S_(j,eps) = {c b^j, c^eps a b^j} and their inverses, for j
    in theorem_js and eps^2 = 1 (mod ell); eps = -1 is the standard set."""
    a, c = spec.generator_a(), spec.generator_c()
    sets = []
    for j in theorem_js(spec):
        b_j = spec.element(0, j, 0)
        for eps in (e for e in range(1, spec.ell) if e * e % spec.ell == 1):
            x, y = mul(c, b_j, spec), mul(spec.element(0, 0, eps), mul(a, b_j, spec), spec)
            sets.append((x, y, inv(x, spec), inv(y, spec)))
    return sets


# every spec of iter_specs times a central factor of odd order ell > 1,
# up to order 600, where the product is Sylow-cyclic
SYLOW_CYCLIC_CENTRAL = [
    spec
    for spec in (
        GroupSpec(b.m, b.n, b.r, ell) for b in iter_specs(200) for ell in range(3, 600 // b.order + 1, 2)
    )
    if spec.sylow_cyclic
]


@pytest.mark.parametrize("spec", SYLOW_CYCLIC_CENTRAL, ids=spec_id)
def test_central_factor_family_hits_each_generic_class_once(spec):
    """On every Sylow-cyclic spec with a central factor c of order ell > 1
    and order at most 600, the S_(j,eps) hit each class with |Aut| = 2|G|
    exactly once, and no other class.  The family needs gcd(ell, n) = 1: on
    (7,3,2,15) only 2 of its 4 sets hit a class."""
    assert len(SYLOW_CYCLIC_CENTRAL) == 20
    assert spec.central_a_order == 1
    report = classify_spec(spec, bound=spec.order)
    generic = [c.canonical for c in report.classes if c.aut_order == 2 * spec.order]
    hits = [analyze_connection_set(spec, S) for S in central_factor_family(spec)]
    assert None not in hits
    assert sorted(c.canonical for c in hits) == sorted(generic)
