"""Full graph automorphism groups and canonical forms.

Colour refinement plus individualization backtracking, with automorphism
(orbit) pruning.  One tree search produces both the automorphism generators
and the canonical labeling: every leaf is an ordering of the vertices, and
its key is the packed rows of the relabeled adjacency matrix
(``graphs.packed_rows``).  Equal keys yield automorphisms, and the leaf of
the lexicographically least key over the surviving leaves gives the
canonical order, whose graph6 (``graphs.to_graph6``) is the canonical form.
Two leaves have equal keys iff the map of one onto the other, position by
position, is an automorphism, so a leaf is first tested against the first
leaf by the edge test ``graphs.is_isomorphism``, and a key is built only to
order two leaves that differ: the key of a leaf that fails the test, and
once, that of the best leaf so far (see ``_Search.leaf``).  A search whose
every leaf maps onto the first builds no key, and the first leaf's order is
canonical.

A branch is pruned when its vertex lies in the orbit of a processed
branch's vertex under the automorphisms found that fix the node's path
(McKay & Piperno, "Practical graph isomorphism, II", 2014).  Each node
keeps the vertices of those orbits as a set, grown by ``permgroup.orbit``
after a branch returns and when new generators arrive, and the node's path
generators are handed down to its children, which keep those that fix one
more vertex.

After a leaf whose key equals the first leaf's, the search jumps back to the
node where the two paths part (first-path backjumping, McKay & Piperno,
"Practical graph isomorphism, II", 2014).  The automorphism the two leaves
give fixes the shared part of the paths and maps the first path's child at
the parting node onto the current one, so it maps the subtree already
searched below that child onto the current subtree.  Every leaf key there
has been seen, and every automorphism a leaf there would give is the new one
times one the searched subtree accounts for.  So the leaf keys reached, the
least of them, and the group the generators found generate, are those of
the whole tree; only fewer generators are found.

Refinement does not look at vertex labels, so an isomorphism maps one
graph's tree onto the other's, keys included: g2 is isomorphic to g1 iff the
search of g1 reaches a leaf with the key of g2's first leaf, that is, a leaf
whose map onto g2's first leaf, position by position, is an isomorphism.
The search of g1 tests each leaf so, with the edge test, and stops at the
first that passes; no key is compared (see ``are_isomorphic``).

Known automorphisms may be seeded into the search; they only ever prune
branches that are provably equivalent, so the result is unchanged.  Seeds
that are transitive, as a Cayley graph's regular translations are, make
every branch of the root equivalent to vertex 0's: the initial partition
of a vertex-transitive graph is one cell, whose first vertex is 0.  So such
a search starts at vertex 0's branch, with the seeds that fix 0, and has no
root node; every automorphism found then fixes vertex 0.  Other seeds prune
at the root as found generators prune at every node.

The first leaf's path, individualized vertex by vertex, is a base of the
automorphism group, and the generators are a strong generating set for it:
by the first-path property (McKay, "Practical graph isomorphism", 1981;
McKay & Piperno, "Practical graph isomorphism, II", 2014) those that fix
the first i vertices of the path generate the pointwise stabilizer of
those vertices.  The result carries the path as ``base``, and
``permgroup.PermGroup`` reads the stabilizer chain off it.  In a seeded
Cayley graph search the path starts at vertex 0, and the automorphisms
found, without the seeds, are a strong generating set of the stabilizer
of vertex 0 for the same base.
"""

from __future__ import annotations

from collections import deque
from itertools import groupby
from operator import getitem
from typing import Iterator, NamedTuple, Sequence

from metacirc.errors import BoundExceeded
from metacirc.graphs import Graph, are_automorphisms, is_isomorphism, packed_rows, to_graph6
from metacirc.permgroup import PermGroup, orbit

MAX_DEGREE = 2000

# (cell_at, cell_of, ncells), the ordered partition of ``_refine``
Partition = tuple[list[list[int] | None], list[int], int]


class SearchResult(NamedTuple):
    """What one search found.  The canonical form is the graph6 of g in
    ``canonical_order``; its key, the packed rows in that order, is built
    only when the search had leaves to order, so it is not kept."""

    generators: list[tuple[int, ...]]  # the seeds first, then those found
    canonical_order: list[int]         # position -> vertex, the best leaf
    base: list[int]                    # the first leaf's path
    n_seeds: int = 0                   # how many generators are seeds

    @property
    def found(self) -> list[tuple[int, ...]]:
        """The automorphisms the search found, without the seeds."""
        return self.generators[self.n_seeds:]


def _initial_partition(g: Graph) -> Partition:
    """The partition (see ``_refine``) into cells by (degree, neighbor
    degrees, distance-2 degrees), an isomorphism-invariant starting
    colouring.

    In a regular graph of degree d each signature is (d, (d,) * d, (d,) * k),
    k = |N2(v)| the number of vertices at distance 2, so k alone orders them,
    and it is read off the bit rows of ``graphs.packed_rows``: the union of
    the neighbours' rows, less v's own row, is N2(v) and v itself, v being
    a neighbour of each of its neighbours.  So it counts k + 1 at every
    vertex, or 0 at every vertex when d = 0.
    """
    deg = g.degrees()
    adj = g.adjacency
    regular = min(deg, default=0) == max(deg, default=0)
    rows = packed_rows(g) if regular else ()
    sigs: list = []
    for v, nbrs in enumerate(adj):
        if regular:  # k + 1, or 0 if d = 0 (see above)
            reach = 0
            for u in nbrs:
                reach |= rows[u]
            sigs.append((reach & ~rows[v]).bit_count())
        else:
            two = set().union(*map(adj.__getitem__, nbrs))
            two.discard(v)
            two.difference_update(nbrs)
            sigs.append((
                deg[v],
                tuple(sorted(map(deg.__getitem__, nbrs))),
                tuple(sorted(map(deg.__getitem__, two))),
            ))
    # a stable sort: each cell in vertex-index order.  The search's one
    # conversion from a list of cells, at its root
    order = sorted(range(g.n), key=sigs.__getitem__)
    cell_at: list[list[int] | None] = [None] * g.n
    cell_of = [-1] * g.n
    ncells = start = 0
    for _, group in groupby(order, sigs.__getitem__):
        cell = list(group)
        cell_at[start] = cell
        if len(cell) > 1:
            for v in cell:
                cell_of[v] = start
        start += len(cell)
        ncells += 1
    return cell_at, cell_of, ncells


def _refine(
    adj: Sequence[Sequence[int]], part: Partition, splitters: list[list[int]] | None
) -> Partition:
    """Equitable refinement of ``part``, in place; fragments are ordered by
    ascending neighbor count.

    The partition is ordered, as in nauty (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): ``cell_at`` maps the start position of each
    cell to the cell, the list of its vertices in ascending order, and every
    other position to None; ``cell_of`` maps each vertex to the start of its
    cell, or to -1 in a singleton cell, which cannot split; ``ncells``
    counts the cells.  A split writes its fragments into both arrays and
    returns the partition with its new count.  No code changes a cell list
    in place: ``_individualize`` copies the two arrays, not the cells, so a
    child shares its cell lists with its parent, whose partition its
    siblings start from.

    A splitter is a vertex list.  Splitting by it walks the adjacency lists
    of its vertices only: the cells holding a counted vertex are the only
    ones that can split, and the uncounted rest of such a cell is its
    count-0 fragment.  Every splitter counts its neighbours into an array of
    n made once per call, and groups the counted vertices in another,
    indexed by cell start; each touched cell clears its entries of both
    once it is looked at, so a splitter builds nothing but its groups.
    Touched cells are split in partition order, so the work of a splitter
    is proportional to its edges and to the cells it touches, not to the
    size of the graph, and once all cells are singletons no splitter is
    looked at.

    A touched cell whose counted vertices share one count is left whole if
    they are all of it, and otherwise split into the rest of the cell, read
    off count 0, and the counted vertices; a cell with several counts is
    split into the rest, if any, and one bucket per count, in ascending
    order.  One case builds no fragment list: a touched cell of two vertices
    is read off their two counts, and if they differ it becomes two
    singletons, the lower count (the rest's 0 if one is uncounted) first.

    One precondition: ``splitters`` is None, which queues every cell, or
    ``part`` and ``splitters`` are what ``_individualize`` returned for an
    equitable partition.  The last fragment of a split cell C is then not
    queued: at its turn the partition would be equitable to C and to every
    other fragment of C, popped before it, so it would split nothing.  It
    is equitable to C because C was a splitter before it (C was queued
    before it was split and is popped before its fragments, or C is itself
    an unqueued last fragment, to which the partition is equitable from
    what would have been its turn, before its fragments' turns) or because
    the input came from ``_individualize`` on an equitable partition, which
    the individualized vertex, the first splitter, restores.  For the same
    reason the first fragment F of C, popped before its k - 1 siblings, may
    be counted by their union U when U is smaller than F.  At F's turn
    every cell X has one count c_X in C, so a vertex of X has c_X less its
    U-count neighbours in F: X splits by F-counts where it splits by
    U-counts, into the same fragments, in the reverse order of U-counts
    (the vertices with no neighbour in U, F-count c_X, last).  Leaving out
    the last fragments and counting the siblings change no split, so the
    result is that of counting every splitter.
    """
    n = len(adj)
    cell_at, cell_of, ncells = part
    # vertex -> its number of neighbours in the splitter, and cell start ->
    # its counted vertices: all 0 and None between splitters
    count = [0] * n
    hits: list[list[int] | None] = [None] * n
    # (splitter, other): `other`, if not None, is counted in the splitter's place
    queue = deque((c, None) for c in (filter(None, cell_at) if splitters is None else splitters))
    push = queue.append
    while queue and ncells < n:
        splitter, other = queue.popleft()
        counted = splitter if other is None else other
        touched = []  # starts of the cells holding a counted vertex
        for w in counted:
            for u in adj[w]:
                s = cell_of[u]
                if s >= 0:
                    if count[u]:
                        count[u] += 1
                    else:
                        count[u] = 1
                        if hits[s] is None:
                            hits[s] = [u]
                            touched.append(s)
                        else:
                            hits[s].append(u)
        if len(touched) > 1:
            touched.sort()
        for s in touched:
            cell = cell_at[s]
            hit = hits[s]
            hits[s] = None
            if len(cell) == 2:
                x, y = cell
                cx, cy = count[x], count[y]
                count[x] = count[y] = 0
                if cx == cy:
                    continue
                # the lower count first, reversed if `other` was counted; [x]
                # is not counted by its sibling, and [y], the last, not queued
                if (cx > cy) == (other is None):
                    x, y = y, x
                cell_at[s], cell_at[s + 1] = [x], [y]
                cell_of[x] = cell_of[y] = -1
                ncells += 1
                push(([x], None))
                continue
            k = count[hit[0]]
            for v in hit:
                if count[v] != k:
                    k = 0  # the counts differ
                    break
            if k and len(hit) == len(cell):
                for v in hit:
                    count[v] = 0
                continue
            frags = [[v for v in cell if not count[v]]] if len(hit) < len(cell) else []
            hit.sort()
            if k:
                for v in hit:
                    count[v] = 0
                frags.append(hit)
            else:
                buckets: dict[int, list[int]] = {}
                for v in hit:
                    c = count[v]
                    count[v] = 0
                    if c in buckets:
                        buckets[c].append(v)
                    else:
                        buckets[c] = [v]
                frags += [buckets[c] for c in sorted(buckets)]
            if other is not None:
                frags.reverse()
            pos = s
            for frag in frags:
                cell_at[pos] = frag
                if len(frag) == 1:
                    cell_of[frag[0]] = -1
                elif pos != s:
                    for v in frag:
                        cell_of[v] = pos
                pos += len(frag)
            ncells += len(frags) - 1
            # the first fragment is counted by its siblings if they are
            # fewer, and the last is not queued (see above)
            first = frags[0]
            fewer = 2 * len(first) > len(cell)
            push((first, [v for frag in frags[1:] for v in frag] if fewer else None))
            for frag in frags[1:-1]:
                push((frag, None))
    return cell_at, cell_of, ncells


def _individualize(part: Partition, start: int, v: int) -> tuple[Partition, list[list[int]]]:
    """Split the cell at ``start`` into [v] and the rest, in a copy of the
    arrays of ``part`` that shares its cell lists (see ``_refine``); return
    it and the splitters for the follow-up refinement.

    The input partition is equitable, so only [v] is a splitter: once it has
    been processed, every cell has a constant number of neighbours in the
    rest of the target cell (its count in the whole cell minus its adjacency
    to v), and that rest would split nothing.
    """
    cell_at, cell_of = part[0][:], part[1][:]
    rest = [u for u in cell_at[start] if u != v]
    cell_at[start], cell_at[start + 1] = [v], rest
    cell_of[v] = -1
    rest_start = start + 1 if len(rest) > 1 else -1
    for u in rest:
        cell_of[u] = rest_start
    return (cell_at, cell_of, part[2] + 1), [[v]]


def _mapping(order: list[int], image: list[int]) -> tuple[int, ...]:
    """The permutation taking order[i] to image[i] for every position i."""
    p = [0] * len(order)
    for v, w in zip(order, image):
        p[v] = w
    return tuple(p)


def _target_cell(cell_at: list[list[int] | None]) -> int:
    """Start of the first smallest non-singleton cell, -1 if there is none."""
    best, best_len = -1, len(cell_at) + 1
    start = 0
    while start < len(cell_at):
        k = len(cell_at[start])
        if 1 < k < best_len:
            best, best_len = start, k
        start += k
    return best


class _Search:
    """One run of the search: the generators found so far, the seeds
    first, the orders of the first and best leaves, the best leaf's key
    once one is built, the first leaf's path, and the depth the search is
    jumping back to, if any.  Nothing it holds refers back to it, so a
    search, even one left before its last leaf, is freed as soon as it is
    dropped.

    A graph of more than ``MAX_DEGREE`` vertices raises ``BoundExceeded``
    before the seeds are looked at; a seed that is not an automorphism
    raises ``ValueError``.
    """

    __slots__ = ("g", "gens", "n_seeds", "gen_set", "first", "best", "best_key", "first_path", "jump")

    def __init__(self, g: Graph, seeds: Sequence[Sequence[int]] = ()):
        if g.n > MAX_DEGREE:
            raise BoundExceeded(f"graph too large (n = {g.n} > {MAX_DEGREE})")
        identity = tuple(range(g.n))
        self.gens = list(dict.fromkeys(p for p in map(tuple, seeds) if p != identity))
        if not are_automorphisms(g, self.gens):
            raise ValueError("seed is not an automorphism")
        self.g = g
        self.n_seeds = len(self.gens)
        self.gen_set = set(self.gens)
        # the orders of the first leaf and of the least key so far, and
        # that key, None until a leaf off the first needs it
        self.first: list[int] | None = None
        self.best: list[int] | None = None
        self.best_key: tuple[int, ...] | None = None
        self.first_path: list[int] = []
        self.jump: int | None = None

    def leaves(self) -> Iterator[list[int]]:
        """Search g, from vertex 0's branch if the seeds are transitive
        and from the root otherwise, and yield the order of each leaf in
        search order, once ``leaf`` has taken it in.  The search is one
        loop over a stack of ``node`` generators, one for each node of the
        current path: each step resumes the deepest for its next child, a
        discrete child is a leaf, and an exhausted node is popped.  So the
        tree may be as deep as g has vertices, whatever Python's recursion
        limit."""
        g, gens = self.g, self.gens
        if gens and len(orbit(0, gens, getitem)) == g.n:
            # transitive seeds give every vertex one signature, so the root
            # is one cell, each of whose branches is equivalent to vertex 0's
            cell_at: list[list[int] | None] = [None] * g.n
            cell_at[0] = list(range(g.n))
            child, splitters = _individualize((cell_at, [0] * g.n, 1), 0, 0)
            start = (_refine(g.adjacency, child, splitters), [0], [p for p in gens if p[0] == 0], len(gens))
        else:
            part = _initial_partition(g)
            # one cell means one signature, so g is regular and the cell equitable
            root = part if part[2] == 1 else _refine(g.adjacency, part, None)
            start = (root, [], gens[:], len(gens))
        stack = [iter([start])]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            elif child[0][2] == g.n:
                yield self.leaf(child[0][0], child[1])
            else:
                stack.append(self.node(*child))

    def leaf(self, cell_at: list[list[int]], fixed: list[int]) -> list[int]:
        """Take in the leaf whose discrete partition has the singletons
        ``cell_at``, reached by individualizing ``fixed``, and return its
        order.

        A later leaf is first mapped onto the first leaf, position by
        position.  If that map is an automorphism, the two keys are equal,
        so the leaf builds no key: the map is kept as a generator and the
        search jumps back to the node where this path left the first one.
        Otherwise the keys differ, and the leaf builds its key to compare
        with the least so far, whose key is built the first time it is
        needed; an equal key gives an automorphism the same way."""
        order = [c[0] for c in cell_at]
        if self.first is None:
            self.first = self.best = order
            self.first_path = fixed
            return order
        g = self.g
        if order != self.first:
            p = _mapping(order, self.first)
            if is_isomorphism(g, g, p):
                self.keep(p)
                d = 0
                while fixed[d] == self.first_path[d]:
                    d += 1
                self.jump = d
                return order
        key = packed_rows(g, order)
        if self.best_key is None:
            self.best_key = packed_rows(g, self.best)
        if key == self.best_key and order != self.best:
            self.keep(_mapping(order, self.best))
        elif key < self.best_key:
            self.best, self.best_key = order, key
        return order

    def keep(self, p: tuple[int, ...]) -> None:
        """Add the automorphism p to the generators unless it is one."""
        if p not in self.gen_set:
            self.gens.append(p)
            self.gen_set.add(p)

    def node(
        self, part: Partition, fixed: list[int], kept: list[tuple[int, ...]], fed: int
    ) -> Iterator[tuple]:
        """Yield each child of the equitable, non-discrete partition
        ``part``, reached by individualizing ``fixed``, as its ``node``
        arguments; ``leaves`` searches its subtree before resuming here.
        ``kept`` holds the generators among the first ``fed`` found that fix
        ``fixed`` pointwise; the later ones are looked at before each
        branch.  A branch is equivalent to a processed one iff its vertex
        lies in the orbit of a processed vertex under those generators, that
        is, in ``done``.  They fix every cell, so done stays in the target
        cell; once it is all of the cell the node is finished, and a node
        that takes one branch builds none of it.  While a jump is pending,
        every node deeper than its depth stops once its child is searched."""
        t = _target_cell(part[0])
        gens = self.gens
        cell = part[0][t]
        done: set[int] = set()
        for v in cell:
            if fed < len(gens):
                new = [p for p in gens[fed:] if all(p[x] == x for x in fixed)]
                fed = len(gens)
                kept += new
                # every image of done under a new generator is in done or
                # is expanded here, so done ends closed under all of kept
                for x in [p[x] for p in new for x in done]:
                    if x not in done:
                        orbit(x, kept, getitem, done)
            if v in done:
                continue
            child, splitters = _individualize(part, t, v)
            refined = _refine(self.g.adjacency, child, splitters)
            yield refined, fixed + [v], [p for p in kept if p[v] == v], fed
            if self.jump is not None:
                if self.jump < len(fixed):
                    return
                self.jump = None
            orbit(v, kept, getitem, done)
            if len(done) == len(cell):
                # every other branch is equivalent to a processed one
                return


def analyze(g: Graph, seeds: Sequence[Sequence[int]] = ()) -> SearchResult:
    """Run the search once, returning generators and the canonical labeling."""
    search = _Search(g, seeds)
    for _ in search.leaves():
        pass
    return SearchResult(search.gens, search.best, search.first_path, search.n_seeds)


def automorphism_group(g: Graph) -> PermGroup:
    """The full automorphism group of a simple graph, its chain based on the
    search's first path."""
    result = analyze(g)
    return PermGroup(g.n, result.generators, result.base)


def canonical_form(g: Graph, result: SearchResult | None = None) -> bytes:
    """Complete isomorphism invariant: graph6 of g in the canonical order,
    the order of the leaf whose adjacency matrix is least row by row (which
    is not the least graph6, see ``graphs.packed_rows``)."""
    return to_graph6(g, (result or analyze(g)).canonical_order)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Whether the search of g1 reaches a leaf whose map onto g2's first
    leaf, position by position, is an isomorphism (see the module
    docstring)."""
    if g1.n != g2.n or g1.n_edges != g2.n_edges:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    first = next(_Search(g2).leaves())
    return any(is_isomorphism(g1, g2, _mapping(order, first)) for order in _Search(g1).leaves())
