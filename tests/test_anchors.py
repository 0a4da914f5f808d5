"""Independent anchors: the census against published counts of tetravalent
half-arc-transitive graphs of prime-power order, over all groups.

* Xu, "Half-transitive graphs of prime-cube order", J. Algebraic Combin. 1
  (1992): every tetravalent half-transitive graph of order p^3 is a Cayley
  graph of the nonabelian metacyclic group of that order, and there are
  (p - 1)/2 of them.
* Feng, Kwak, Xu & Zhou, "Tetravalent half-arc-transitive graphs of order
  p^4", European J. Combin. 29 (2008): there are exactly p - 1 of them.

Both statements are those of ROADMAP item 16, recalled from the papers'
abstracts; they were not checked against the papers' text here.

The counts are of graphs, not of (group, graph) pairs, so the classes of
every spec of one order are merged by canonical form.  Every graph counted
has |Aut| = 2|G|.  Orders 2197 = 13^3 and 2401 = 7^4 lie past
``autosearch.MAX_DEGREE``.

The last test shows that the 165-vertex class of (33,5,4), a non-normal
class on none of the four orders of the bundled Table 1, is a regular
Z3-cover of the 55-vertex Table-1 graph.
"""

from __future__ import annotations

import pytest

from metacirc.autosearch import automorphism_group, canonical_form
from metacirc.classify import classify_spec
from metacirc.graphs import build_cayley, graph_from_edges
from metacirc.groups import GroupSpec, iter_specs, right_translation


def half_transitive_graphs(order):
    """|Aut| of each half-transitive graph of the census of every spec of
    the given order, by canonical form."""
    graphs = {}
    for spec in iter_specs(order):
        if spec.order == order:
            for c in classify_spec(spec, bound=order).classes:
                if c.half:
                    graphs[c.canonical] = c.aut_order
    return graphs


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_half_transitive_graphs_of_prime_cube_order(p):
    """(p - 1)/2 graphs on p^3 vertices (Xu, 1992)."""
    graphs = half_transitive_graphs(p**3)
    assert len(graphs) == (p - 1) // 2
    assert set(graphs.values()) == {2 * p**3}


@pytest.mark.parametrize("p", [3, 5])
def test_half_transitive_graphs_of_prime_fourth_order(p):
    """p - 1 graphs on p^4 vertices (Feng, Kwak, Xu & Zhou, 2008)."""
    graphs = half_transitive_graphs(p**4)
    assert len(graphs) == p - 1
    assert set(graphs.values()) == {2 * p**4}


def test_the_165_vertex_class_covers_the_55_vertex_table1_graph():
    """The (33,5,4) census, Z3 x (Z11:Z5), has one class with |Aut| = 3960,
    2-arc-transitive and not normal.  The orbits of the right translation
    by the central z = a^11 are blocks of 3, and the quotient by them is
    tetravalent on 55 vertices with |Aut| = 1320: the (11,5,3) class of
    that order, by canonical form.  So the class is a regular Z3-cover."""
    spec = GroupSpec(33, 5, 4)
    (c,) = [c for c in classify_spec(spec).classes if c.aut_order == 3960]
    assert (c.s, c.normal_cayley) == (2, False)
    g = build_cayley(c.connection_set, spec)
    z = right_translation(spec.index(spec.element(11, 0, 0)), spec)
    block = [min(v, z[v], z[z[v]]) for v in range(g.n)]
    assert all(z[z[z[v]]] == v != z[v] for v in range(g.n))
    names = {b: i for i, b in enumerate(sorted(set(block)))}
    quotient = graph_from_edges(len(names), {(names[block[u]], names[block[v]]) for u, v in g.edges()})
    assert quotient.n == 55 and set(quotient.degrees()) == {4}
    assert automorphism_group(quotient).order == 1320
    (table1,) = [t for t in classify_spec(GroupSpec(11, 5, 3)).classes if t.aut_order == 1320]
    assert canonical_form(quotient).decode("ascii") == table1.canonical
