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
"""

from __future__ import annotations

import pytest

from metacirc.classify import classify_spec
from metacirc.groups import iter_specs


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
