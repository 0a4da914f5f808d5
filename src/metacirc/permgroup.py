"""Permutation groups via stabilizer chains, plus orbit counting on graphs.

Permutations are tuples ``p`` with ``p[i]`` the image of ``i``; ``compose(p, q)``
applies p first, then q.  The chain is built with the deterministic
incremental Schreier-Sims algorithm (Holt, Eick & O'Brien, *Handbook of
Computational Group Theory*, 4.4.2): levels are completed bottom-up, and each
Schreier generator -- a triple of level, orbit point and strong generator --
is tested exactly once.  Transversals are only ever extended, so a Schreier
generator that sifted to the identity stays sifted; a new strong generator
reopens only the levels it joins.  The resulting order is exact.  The base
starts at point 0, so the chain below its first level is the stabilizer of
point 0; later base points are picked greedily from the largest orbit at each
level.

The graph orbits are counted on a vertex-transitive graph, from the
stabilizer A_0 of vertex 0 alone: ``orbits_at_zero`` counts edge orbits and
decides s-arc-transitivity on the neighbours and the deg*(deg-1)^(s-1)
s-arcs at vertex 0, and ``normalizer_of_regular`` enumerates A_0 alone.  All
orbits off the chain come from one breadth-first routine, ``orbit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import product
from math import prod
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from metacirc.errors import BoundExceeded
from metacirc.graphs import Graph, are_automorphisms
from metacirc.groups import GroupSpec, left_translation

Perm = tuple[int, ...]

# most elements an enumeration of a group or of a point stabilizer may yield
ELEMENT_BOUND = 10_000_000

# the largest s for which orbits_at_zero decides s-arc-transitivity
MAX_S = 3


# shared, so that the ints of every inverse come from one tuple
@lru_cache(maxsize=16)
def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Apply p first, then q."""
    if len(p) < 2:
        # itemgetter of one index returns a scalar, of none it raises
        return tuple(q[x] for x in p)
    return itemgetter(*p)(q)


def inverse_perm(p: Sequence[int]) -> Perm:
    out = [0] * len(p)
    for i, x in zip(identity_perm(len(p)), p):
        out[x] = i
    return tuple(out)


def is_identity(p: Sequence[int]) -> bool:
    return tuple(p) == identity_perm(len(p))


def _check_perm(p: Sequence[int], degree: int) -> Perm:
    p = tuple(p)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise ValueError("not a permutation of the expected degree")
    return p


@dataclass
class _Level:
    point: int
    gens: list[Perm] = field(default_factory=list)
    transversal: dict[int, Perm] = field(default_factory=dict)


class PermGroup:
    """Permutation group with a lazily built stabilizer chain."""

    def __init__(self, degree: int, generators: Iterable[Sequence[int]]):
        self.degree = degree
        gens = []
        seen = set()
        for g in generators:
            g = _check_perm(g, degree)
            if not is_identity(g) and g not in seen:
                seen.add(g)
                gens.append(g)
        self.generators: list[Perm] = gens
        self._chain: list[_Level] | None = None

    # ------------------------------------------------------------- chain

    def chain(self) -> list[_Level]:
        if self._chain is None:
            self._chain = _schreier_sims(self.degree, self.generators)
        return self._chain

    @property
    def order(self) -> int:
        return prod(len(lvl.transversal) for lvl in self.chain())

    def elements(self) -> Iterator[Perm]:
        """All group elements from the chain transversals."""
        return _transversal_products(self.chain(), self.degree)

    def is_transitive(self) -> bool:
        """Whether the orbit of point 0, the transversal of the chain's first
        level, holds every point."""
        return self.degree == 0 or len(self.chain()[0].transversal) == self.degree


def orbit(start: Hashable, gens: Sequence, image: Callable) -> set:
    """Breadth-first orbit of ``start`` under the group the maps ``gens``
    generate; ``image(p, t)`` applies the map p to t."""
    seen = {start}
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


def _transversal_products(levels: Sequence[_Level], degree: int) -> Iterator[Perm]:
    """Each element of the group the levels generate, once: the products of
    one transversal element per level.  Refuses more than ``ELEMENT_BOUND``."""
    size = prod(len(lvl.transversal) for lvl in levels)
    if size > ELEMENT_BOUND:
        raise BoundExceeded(f"{size} elements exceed the enumeration bound {ELEMENT_BOUND}")
    if not levels:
        yield identity_perm(degree)
        return
    for reps in product(*[list(lvl.transversal.values()) for lvl in levels]):
        yield reduce(compose, reversed(reps))


def _schreier_sims(degree: int, generators: Sequence[Perm]) -> list[_Level]:
    """Base and strong generating set of the group the generators generate.

    Level l holds the strong generators S_l that generate the l-th group on
    the chain and a transversal of that group's orbit of the l-th base point,
    built as the Schreier generators of the level are tested.  A residue that
    drops out at level j while level i is tested joins S_{i+1}, ..., S_j, and
    testing resumes at level j; the levels above j keep the triples they
    tested.  The chain is complete once level 0 has no untested triple.
    """
    if not degree:
        return []
    ident = identity_perm(degree)
    # point 0 is always the first base point, even when every generator fixes it
    levels = [_Level(0, [], {0: ident})]
    # orbit points of each level in the order they joined its transversal, and
    # for each of them how many of the level's generators have been applied
    orbits: list[list[int]] = [[0]]
    tested: list[list[int]] = [[0]]

    def add_generator(y: Perm, top: int, j: int) -> int:
        if j == len(levels):
            point = _pick_base_point(y)
            levels.append(_Level(point, [], {point: ident}))
            orbits.append([point])
            tested.append([0])
        for lvl in levels[top : j + 1]:
            lvl.gens.append(y)
        return j

    def test_level(i: int) -> int:
        """Test the untested triples of level i; the level to go on with."""
        lvl = levels[i]
        gens, transversal = lvl.gens, lvl.transversal
        orbit, done = orbits[i], tested[i]
        k = 0
        while k < len(orbit):
            beta = orbit[k]
            u = transversal[beta]
            for q in range(done[k], len(gens)):
                done[k] = q + 1
                g = gens[q]
                ug = compose(u, g)
                gamma = g[beta]
                v = transversal.get(gamma)
                if v is None:
                    transversal[gamma] = ug
                    orbit.append(gamma)
                    done.append(0)
                    continue
                if ug == v:
                    continue
                # the Schreier generator ug * v^-1
                a, b, j = _sift(levels, ug, v, i + 1)
                if a != b:
                    return add_generator(compose(a, inverse_perm(b)), i + 1, j)
            k += 1
        return i - 1

    for p in generators:
        a, b, j = _sift(levels, p, ident, 0)
        if a == b:
            continue
        i = add_generator(compose(a, inverse_perm(b)), 0, j)
        while i >= 0:
            i = test_level(i)
    return levels


def _pick_base_point(p: Perm) -> int:
    """A moved point on the longest cycle of p (greedy largest-orbit choice)."""
    seen = set()
    best_point, best_len = -1, 0
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cycle = [i]
        j = p[i]
        while j != i:
            cycle.append(j)
            j = p[j]
        seen.update(cycle)
        if len(cycle) > best_len:
            best_point, best_len = min(cycle), len(cycle)
    if best_point < 0:
        raise ValueError("identity permutation has no base point")
    return best_point


def _sift(levels: list[_Level], a: Perm, b: Perm, start: int) -> tuple[Perm, Perm, int]:
    """Sift a * b^-1 (a first, as in compose) through levels[start:] without
    inverting anything.

    Returns (a, b', j): the residue is a * b'^-1, the identity iff a == b',
    and j is the level it dropped out at (len(levels) if it went through).
    Dividing the residue by a transversal element u is b' -> compose(u, b').
    """
    for i in range(start, len(levels)):
        lvl = levels[i]
        beta = b.index(a[lvl.point])
        if beta == lvl.point:
            # the transversal element of the base point is the identity
            continue
        u = lvl.transversal.get(beta)
        if u is None:
            return a, b, i
        b = compose(u, b)
    return a, b, len(levels)


# ---------------------------------------------------------- graph orbits

def _orbit_count(items: list[tuple[int, ...]], gens: Sequence[Perm | Mapping[int, int]]) -> int:
    """Orbits of the group the maps ``gens`` generate on the tuples ``items``;
    each map needs to be defined on the points of the items only."""
    def image(g, it):
        return tuple([g[x] for x in it])

    left = set(items)
    count = 0
    for it in items:
        if it in left:
            count += 1
            left -= orbit(it, gens, image)
    return count


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
    A-orbits on edges are the A_0-orbits on N(0) merged along x ~ reverse[x],
    and A is s-arc-transitive iff A_0 is transitive on the s-arcs from 0.

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
    edge_orbits = _orbit_count([(x,) for x in nbrs], [*gens, reverse])
    s = 0
    while s < MAX_S:
        walks = s_arcs_at_zero(graph, s + 1)
        if not walks or _orbit_count(walks, gens) != 1:
            break
        s += 1
    return edge_orbits, s


def normalizer_of_regular(stabilizer: PermGroup, spec: GroupSpec, regular: Sequence[Perm]) -> int:
    """Order of the normalizer N of the regular copy R of G in A = R * A_0.

    ``stabilizer`` is A_0, the stabilizer of vertex 0 in a group A of
    permutations of the vertex indices that contains R, and ``regular``
    holds generators of R.  R is transitive, so N = R(N ∩ A_0), and
    R ∩ A_0 = 1 gives |N| = |G| * #{x in A_0 : x normalizes R}.  Only A_0 is
    enumerated, from its own chain.  R, the right translations, is the
    centralizer of the left translations in the symmetric group (Dixon &
    Mortimer, *Permutation Groups*, 4.2), so a conjugate lies in R iff it
    commutes with the left translations by a, b and c.
    """
    if stabilizer.degree != spec.order or any(len(g) != spec.order for g in regular):
        raise ValueError("degree mismatch")
    if any(g[0] != 0 for g in stabilizer.generators):
        raise ValueError("the stabilizer moves vertex 0, so it is no complement of R")
    regular_gens = [tuple(p) for p in regular]
    left = [left_translation(spec.index(g), spec)
            for g in (spec.generator_a(), spec.generator_b(), spec.generator_c())]
    left = [p for p in left if not is_identity(p)]

    def in_regular(q: Perm) -> bool:
        return all(compose(p, q) == compose(q, p) for p in left)

    count = 0
    for x in stabilizer.elements():
        xinv = inverse_perm(x)
        if all(in_regular(compose(compose(xinv, g), x)) for g in regular_gens):
            count += 1
    return spec.order * count
