"""Permutation groups via stabilizer chains, plus orbit counting on graphs.

Permutations are tuples ``p`` with ``p[i]`` the image of ``i``; ``compose(p, q)``
applies p first, then q.  The chain is built with a deterministic
Schreier-Sims: every Schreier generator is sifted, so the resulting order is
exact.  The base starts at point 0, so the chain below its first level is the
stabilizer of point 0; later base points are picked greedily from the largest
orbit at each level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from math import prod
from typing import Iterable, Iterator, Sequence

from metacirc.errors import BoundExceeded
from metacirc.graphs import Graph
from metacirc.groups import GroupSpec, regular_representation, right_multiplication_perm

Perm = tuple[int, ...]

# most elements an enumeration of a group or of a point stabilizer may yield
ELEMENT_BOUND = 10_000_000


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Apply p first, then q."""
    return tuple(q[x] for x in p)


def inverse_perm(p: Sequence[int]) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def is_identity(p: Sequence[int]) -> bool:
    return all(i == x for i, x in enumerate(p))


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

    @property
    def stabilizer_order(self) -> int:
        """Order of the stabilizer of point 0: the chain below its first level."""
        return prod(len(lvl.transversal) for lvl in self.chain()[1:])

    def contains(self, p: Sequence[int]) -> bool:
        residue, _ = _sift(self.chain(), _check_perm(p, self.degree), 0)
        return is_identity(residue)

    def elements(self, bound: int = ELEMENT_BOUND) -> Iterator[Perm]:
        """All group elements from the chain transversals."""
        return _transversal_products(self.chain(), self.degree, bound)

    def stabilizer_elements(self) -> Iterator[Perm]:
        """All elements of the stabilizer of point 0."""
        return _transversal_products(self.chain()[1:], self.degree, ELEMENT_BOUND)

    # ------------------------------------------------------------- orbits

    def orbit(self, point: int) -> set[int]:
        if not 0 <= point < self.degree:
            raise ValueError("point out of range")
        seen = {point}
        frontier = [point]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.generators:
                    y = g[x]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen

    def orbits(self) -> list[set[int]]:
        seen: set[int] = set()
        out = []
        for v in range(self.degree):
            if v not in seen:
                orb = self.orbit(v)
                seen |= orb
                out.append(orb)
        return out

    def is_transitive(self) -> bool:
        return self.degree == 0 or len(self.orbit(0)) == self.degree


def _transversal_products(levels: Sequence[_Level], degree: int, bound: int) -> Iterator[Perm]:
    """Each element of the group the levels generate, once: the products of
    one transversal element per level."""
    size = prod(len(lvl.transversal) for lvl in levels)
    if size > bound:
        raise BoundExceeded(f"{size} elements exceed the enumeration bound {bound}")
    if not levels:
        yield identity_perm(degree)
        return
    for reps in product(*[list(lvl.transversal.values()) for lvl in levels]):
        yield reduce(compose, reversed(reps))


def _schreier_sims(degree: int, generators: Sequence[Perm]) -> list[_Level]:
    # point 0 is always the first base point, even when every generator fixes it
    levels = [_Level(0, [], {0: identity_perm(degree)})] if degree else []

    def gens_from(i: int) -> list[Perm]:
        # generators of the i-th group on the chain: every strong generator
        # stored at level i or deeper fixes the base points above it
        out: list[Perm] = []
        for lvl in levels[i:]:
            out.extend(lvl.gens)
        return out

    def rebuild_transversal(i: int) -> None:
        lvl = levels[i]
        gens = gens_from(i)
        lvl.transversal = {lvl.point: identity_perm(degree)}
        frontier = [lvl.point]
        while frontier:
            nxt = []
            for beta in frontier:
                u = lvl.transversal[beta]
                for g in gens:
                    gamma = g[beta]
                    if gamma not in lvl.transversal:
                        lvl.transversal[gamma] = compose(u, g)
                        nxt.append(gamma)
            frontier = nxt

    def establish(i: int) -> None:
        # re-establish the strong-generation property for levels[i:],
        # assuming it already holds for levels[i+1:]
        if i >= len(levels):
            return
        while True:
            rebuild_transversal(i)
            lvl = levels[i]
            gens = gens_from(i)
            added = False
            for beta in list(lvl.transversal):
                u = lvl.transversal[beta]
                for g in gens:
                    x = compose(u, g)
                    schreier = compose(x, inverse_perm(lvl.transversal[x[lvl.point]]))
                    if is_identity(schreier):
                        continue
                    residue, j = _sift(levels, schreier, i + 1)
                    if is_identity(residue):
                        continue
                    if j == len(levels):
                        levels.append(_Level(_pick_base_point(residue)))
                    levels[j].gens.append(residue)
                    for l in range(j, i, -1):
                        establish(l)
                    added = True
                    break
                if added:
                    break
            if not added:
                return

    for p in generators:
        residue, j = _sift(levels, p, 0)
        if is_identity(residue):
            continue
        if j == len(levels):
            levels.append(_Level(_pick_base_point(residue)))
        levels[j].gens.append(residue)
        for l in range(j, -1, -1):
            establish(l)
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


def _sift(levels: list[_Level], p: Perm, start: int) -> tuple[Perm, int]:
    i = start
    while i < len(levels):
        lvl = levels[i]
        u = lvl.transversal.get(p[lvl.point])
        if u is None:
            return p, i
        p = compose(p, inverse_perm(u))
        i += 1
    return p, i


# ---------------------------------------------------------- graph orbits

def _check_automorphisms(group: PermGroup, graph: Graph) -> None:
    rows = [set(row) for row in graph.adjacency]
    for g in group.generators:
        for v in range(graph.n):
            if {g[u] for u in rows[v]} != rows[g[v]]:
                raise ValueError("generator does not preserve adjacency")


def _orbit_count(items: list[tuple[int, ...]], gens: list[Perm], sort_images: bool = False) -> int:
    index = {item: k for k, item in enumerate(items)}
    seen = [False] * len(items)
    count = 0
    for k in range(len(items)):
        if seen[k]:
            continue
        count += 1
        seen[k] = True
        frontier = [items[k]]
        while frontier:
            nxt = []
            for it in frontier:
                for g in gens:
                    im = tuple(g[x] for x in it)
                    if sort_images:
                        im = tuple(sorted(im))
                    j = index[im]
                    if not seen[j]:
                        seen[j] = True
                        nxt.append(items[j])
            frontier = nxt
    return count


def edge_orbit_count(group: PermGroup, graph: Graph) -> int:
    """Number of orbits of the group on the edge set."""
    _check_automorphisms(group, graph)
    return _orbit_count(graph.edges(), group.generators, sort_images=True)


def arc_orbit_count(group: PermGroup, graph: Graph) -> int:
    """Number of orbits of the group on the arc set (ordered adjacent pairs)."""
    _check_automorphisms(group, graph)
    return _orbit_count(graph.arcs(), group.generators)


def s_arcs(graph: Graph, s: int) -> list[tuple[int, ...]]:
    """All s-arcs: non-backtracking walks (v0, ..., vs)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    walks = graph.arcs()
    for _ in range(s - 1):
        walks = [
            w + (x,)
            for w in walks
            for x in graph.adjacency[w[-1]]
            if x != w[-2]
        ]
    return walks


def max_s_arc_transitive(group: PermGroup, graph: Graph, cap: int = 3) -> int:
    """Largest s <= cap with a single orbit on s-arcs; 0 if not arc-transitive."""
    _check_automorphisms(group, graph)
    if graph.n_edges == 0 or _orbit_count(graph.arcs(), group.generators) != 1:
        return 0
    best = 1
    for s in range(2, cap + 1):
        arcs = s_arcs(graph, s)
        if not arcs or _orbit_count(arcs, group.generators) != 1:
            break
        best = s
    return best


def normalizer_of_regular(aut: PermGroup, spec: GroupSpec) -> int:
    """Order of the normalizer N of the regular copy R of G inside aut.

    R is transitive, so N = R(N ∩ A_0) with A_0 the stabilizer of vertex 0,
    and R ∩ A_0 = 1 gives |N| = |G| * #{x in A_0 : x normalizes R}.  Only
    A_0 is enumerated; membership in R is the O(n) check "equals right
    multiplication by the image of the identity".
    """
    if aut.degree != spec.order:
        raise ValueError("degree mismatch")
    regular_gens = [tuple(p) for p in regular_representation(spec)]
    if not all(aut.contains(g) for g in regular_gens):
        raise ValueError("the regular copy of G is not a subgroup of aut")
    cache: dict[int, Perm] = {}

    def in_regular(q: Perm) -> bool:
        e = q[0]
        p = cache.get(e)
        if p is None:
            p = tuple(right_multiplication_perm(spec.at_index(e), spec))
            cache[e] = p
        return q == p

    count = 0
    for x in aut.stabilizer_elements():
        xinv = inverse_perm(x)
        if all(in_regular(compose(compose(xinv, g), x)) for g in regular_gens):
            count += 1
    return spec.order * count
