"""Permutation groups via stabilizer chains, plus orbit counting on graphs.

Permutations are tuples ``p`` with ``p[i]`` the image of ``i``; ``compose(p, q)``
applies p first, then q.  A group comes with a base and a strong generating
set for it, as the automorphism search returns them: the base is the
search's first path, and the generators that fix its first i points
generate their pointwise stabilizer.  So no Schreier generator is ever
sifted: level i of the chain holds the generators that fix the first i base
points and the basic orbit of the i-th base point under them, the order is
the product of the basic orbit lengths, and transversals are built only to
enumerate the elements.

The graph orbits are counted on a vertex-transitive graph, from the
stabilizer A_0 of vertex 0 alone: ``orbits_at_zero`` counts edge orbits on
the neighbours of vertex 0 and decides s-arc-transitivity by the orbit of
one s-arc against the deg*(deg-1)^(s-1) s-arcs at vertex 0, and
``normalizer_of_regular`` enumerates A_0 alone.  Every
orbit, the chain's basic orbits and the orbits that prune the automorphism
search included, comes from one breadth-first routine, ``orbit``, which can
also grow a set of points in place.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import prod
from operator import getitem, itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from metacirc.errors import BoundExceeded
from metacirc.graphs import Graph, are_automorphisms
from metacirc.groups import GroupSpec, mul, regular_representation

Perm = tuple[int, ...]

# most elements an enumeration of a group or of a point stabilizer may yield
ELEMENT_BOUND = 10_000_000

# the largest s for which orbits_at_zero decides s-arc-transitivity
MAX_S = 3


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Apply p first, then q."""
    if len(p) < 2:
        # itemgetter of one index returns a scalar, of none it raises
        return tuple(q[x] for x in p)
    return itemgetter(*p)(q)


def is_identity(p: Sequence[int]) -> bool:
    return tuple(p) == identity_perm(len(p))


def _check_perm(p: Sequence[int], degree: int) -> Perm:
    p = tuple(p)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise ValueError("not a permutation of the expected degree")
    return p


class _Level(NamedTuple):
    point: int
    gens: list[Perm]  # the generators that fix the earlier base points
    orbit: set[int]   # the basic orbit of point under gens


class PermGroup:
    """Permutation group with a strong generating set relative to a known base.

    Precondition: ``generators`` are a strong generating set for ``base``,
    that is, for each i the generators that fix base[:i] pointwise generate
    the pointwise stabilizer of base[:i], and the stabilizer of the whole
    base is trivial.  The automorphisms an individualization-refinement
    search finds are such a set for the search's first path (first-path
    property, McKay, "Practical graph isomorphism", 1981; McKay & Piperno,
    "Practical graph isomorphism, II", 2014), so ``autosearch.analyze``
    returns that path as ``base``.  The precondition is not checked, save
    that no generator may fix the whole base.
    """

    def __init__(self, degree: int, generators: Iterable[Sequence[int]], base: Sequence[int]):
        self.degree = degree
        base = list(base)
        if len(set(base)) != len(base) or not all(0 <= b < degree for b in base):
            raise ValueError("the base must be distinct points of the domain")
        gens = []
        seen = set()
        for g in generators:
            g = _check_perm(g, degree)
            if not is_identity(g) and g not in seen:
                seen.add(g)
                gens.append(g)
        self.generators: list[Perm] = gens
        self.base = base
        self._chain: list[_Level] | None = None

    # ------------------------------------------------------------- chain

    def chain(self) -> list[_Level]:
        """One level per base point: its point, the generators that fix the
        earlier base points and its basic orbit under them."""
        if self._chain is None:
            base = self.base
            # the level of a generator: how many leading base points it fixes
            by_level: list[list[Perm]] = [[] for _ in base]
            for g in self.generators:
                i = 0
                while i < len(base) and g[base[i]] == base[i]:
                    i += 1
                if i == len(base):
                    raise ValueError("a generator fixes the whole base")
                by_level[i].append(g)
            levels = []
            gens: list[Perm] = []
            for point, own in zip(reversed(base), reversed(by_level)):
                gens = own + gens
                levels.append(_Level(point, gens, orbit(point, gens, getitem)))
            self._chain = levels[::-1]
        return self._chain

    @property
    def order(self) -> int:
        return prod(len(lvl.orbit) for lvl in self.chain())

    def elements(self) -> Iterator[Perm]:
        """All group elements: the products of one transversal element per
        level.  Refuses more than ``ELEMENT_BOUND``."""
        levels = self.chain()
        size = self.order
        if size > ELEMENT_BOUND:
            raise BoundExceeded(f"{size} elements exceed the enumeration bound {ELEMENT_BOUND}")
        transversals = [list(_transversal(lvl, self.degree).values()) for lvl in levels]
        if not transversals:
            return iter([identity_perm(self.degree)])
        return (reduce(compose, reversed(reps)) for reps in product(*transversals))

    def is_transitive(self) -> bool:
        """Whether the orbit of the first base point under the generators
        holds every point: that orbit is the first chain level's, whose
        generators are all of them.  With no base the group is trivial."""
        levels = self.chain()
        return len(levels[0].orbit) == self.degree if levels else self.degree <= 1


def orbit(start: Hashable, gens: Sequence, image: Callable, seen: set | None = None) -> set:
    """Breadth-first orbit of ``start`` under the group the maps ``gens``
    generate; ``image(p, t)`` applies the map p to t.

    Given ``seen``, the search adds to that set in place and returns it: it
    expands start and each point it adds, and no other point seen holds.
    So a set closed under ``gens`` except at start grows to the union of
    itself and the orbit.
    """
    if seen is None:
        seen = set()
    seen.add(start)
    frontier = [start]
    while frontier:
        nxt = []
        for t in frontier:
            for p in gens:
                im = image(p, t)
                if im not in seen:
                    seen.add(im)
                    nxt.append(im)
        frontier = nxt
    return seen


def _transversal(level: _Level, degree: int) -> dict[int, Perm]:
    """For each point of the level's basic orbit, an element of the level's
    group that maps the base point to it, by breadth-first search."""
    out = {level.point: identity_perm(degree)}
    frontier = [level.point]
    while frontier:
        nxt = []
        for t in frontier:
            u = out[t]
            for g in level.gens:
                im = g[t]
                if im not in out:
                    out[im] = compose(u, g)
                    nxt.append(im)
        frontier = nxt
    return out


# ---------------------------------------------------------- graph orbits

def s_arcs_at_zero(graph: Graph, s: int) -> list[tuple[int, ...]]:
    """The s-arcs (0, v1, ..., vs) from vertex 0: non-backtracking walks."""
    if s < 1:
        raise ValueError("s must be >= 1")
    walks = [(0, x) for x in graph.adjacency[0]]
    for _ in range(s - 1):
        walks = [w + (x,) for w in walks for x in graph.adjacency[w[-1]] if x != w[-2]]
    return walks


def orbits_at_zero(stabilizer: PermGroup, graph: Graph, reverse: Mapping[int, int]) -> tuple[int, int]:
    """Edge orbits and s-arc-transitivity of a vertex-transitive graph,
    counted at vertex 0.

    ``stabilizer`` is the stabilizer A_0 of vertex 0 in a vertex-transitive
    group A of automorphisms, and ``reverse`` maps each neighbour x of 0 to
    the neighbour y such that A maps the arc (x, 0) to (0, y); in a Cayley
    graph, right translation by x^-1 maps (x, 1) to (1, x^-1).  Every arc,
    edge and s-arc of the graph is then the image of one at vertex 0, and two
    at vertex 0 share an A-orbit iff A_0 maps one to the other.  So the
    A-orbits on edges are the orbits of <A_0, reverse> on N(0), each counted
    once by its least neighbour, and A is s-arc-transitive iff the A_0-orbit
    of one s-arc from 0 is as large as the set of them all: A_0 maps s-arcs
    from 0 to s-arcs from 0, so that orbit is all of them exactly then.

    Returns (edge orbit count, largest s <= ``MAX_S`` with one orbit on
    s-arcs, 0 if not arc-transitive).  Raises ValueError when a generator of
    A_0 is not an automorphism or moves vertex 0, or when ``reverse`` does
    not permute N(0).
    """
    gens = stabilizer.generators
    if not are_automorphisms(graph, gens):
        raise ValueError("generator does not preserve adjacency")
    if any(g[0] != 0 for g in gens):
        raise ValueError("generator moves vertex 0")
    nbrs = graph.adjacency[0]
    if sorted(reverse.get(x, -1) for x in nbrs) != list(nbrs):
        raise ValueError("reverse does not permute the neighbours of 0")
    edge_orbits = len({min(orbit(x, [*gens, reverse], getitem)) for x in nbrs})
    s = 0
    while s < MAX_S:
        walks = s_arcs_at_zero(graph, s + 1)
        if not walks or len(orbit(walks[0], gens, lambda g, w: compose(w, g))) != len(walks):
            break
        s += 1
    return edge_orbits, s


def normalizer_of_regular(stabilizer: PermGroup, spec: GroupSpec) -> int:
    """Order of the normalizer N of the regular copy R of G in A = R * A_0.

    ``stabilizer`` is A_0, the stabilizer of vertex 0 in a group A of
    permutations of the vertex indices that contains R, which the right
    translations by a, b and c generate (``regular_representation``).  R
    is transitive, so N = R(N ∩ A_0), and R ∩ A_0 = 1 gives |N| = |G| *
    #{x in A_0 : x normalizes R}.  Only A_0 is enumerated, from its own
    chain.  The
    normalizer of R in the symmetric group is the holomorph R Aut(G), so an
    x that fixes the identity normalizes R iff it is an automorphism of G.
    It is tested on the generators: with products read left to right, as
    ``compose`` applies them, x^-1 ρ_g x takes 0 to x(g), so it lies in R iff
    it is ρ_x(g), that is, iff ρ_g x = x ρ_x(g).  The right translation ρ_g
    takes 0 to g, so g is read off it.

    Both sides lie in A, so they are equal iff they agree on a base of A
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, 2005),
    and {0} with the base of ``stabilizer`` is one: an element of A that
    fixes 0 lies in A_0.  Both sides send 0 to x(g), so the test is
    x(b g) = x(b) x(g) at the base points b other than 0, the right side
    multiplied on exponents (``groups.mul``).

    The count is therefore exact only when ``stabilizer`` is the whole
    stabilizer A_0 of a group A that contains R, as the census passes it.
    For a mere subgroup H that fixes 0, R H need not be a group, the two
    sides need not lie in one group whose base is {0} with H's, and an x
    that is no automorphism of G can pass the test at H's base points.
    """
    if stabilizer.degree != spec.order:
        raise ValueError("degree mismatch")
    if any(g[0] != 0 for g in stabilizer.generators):
        raise ValueError("the stabilizer moves vertex 0, so it is no complement of R")
    points = [b for b in stabilizer.base if b]
    # (g, [(b, b g) for each base point b]) for each generator ρ_g of R
    tests = [(p[0], [(b, p[b]) for b in points]) for p in regular_representation(spec) if p[0]]
    at, index = spec.at_index, spec.index
    count = 0
    for x in stabilizer.elements():
        count += all(x[bg] == index(mul(at(x[b]), at(x[g]), spec))
                     for g, pairs in tests for b, bg in pairs)
    return spec.order * count
