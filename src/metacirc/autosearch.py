"""Full graph automorphism groups and canonical forms.

Colour refinement plus individualization backtracking, with automorphism
(orbit) pruning.  One tree search produces both the automorphism generators
and the canonical labeling: every leaf is an ordering of the vertices, leaves
are compared by the packed rows of the relabeled adjacency matrix
(``graphs.packed_rows``), equal keys yield automorphisms, and the
lexicographically least key over the surviving leaves is the canonical form,
emitted as its graph6.

Known automorphisms may be seeded into the search; they only ever prune
branches that are provably equivalent, so the result is unchanged but e.g.
Cayley graphs (with their regular translations supplied) search a single
root branch instead of one per vertex.  That branch individualizes vertex 0:
the initial partition of a vertex-transitive graph is one cell, whose first
vertex is 0.  Every automorphism found then fixes vertex 0, and by the
first-path property of the search (McKay & Piperno, "Practical graph
isomorphism, II", 2014) those found generate the stabilizer of vertex 0.
"""

from __future__ import annotations

import sys
from collections import _count_elements, deque
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

from metacirc.errors import BoundExceeded
from metacirc.graphs import Graph, are_automorphisms, graph6_of_rows, packed_rows
from metacirc.permgroup import PermGroup

MAX_DEGREE = 2000


@dataclass
class SearchResult:
    generators: list[tuple[int, ...]]  # the seeds first, then those found
    canonical_order: list[int]         # position -> vertex
    canonical_key: tuple[int, ...]     # packed rows, in canonical_order
    n_seeds: int = 0                   # how many generators are seeds

    @property
    def found(self) -> list[tuple[int, ...]]:
        """The automorphisms the search found, without the seeds."""
        return self.generators[self.n_seeds:]


def _initial_partition(g: Graph, seeded: _Orbits | None = None) -> list[list[int]]:
    """Cells by (degree, neighbor degrees, distance-2 degrees), an
    isomorphism-invariant starting colouring.

    Automorphisms preserve the signature, so it is computed once per orbit
    of ``seeded``, the orbits of the seeds, and given to the whole orbit: a
    graph whose seeds are transitive, as a Cayley graph's translations are,
    gets one.
    """
    deg = g.degrees()
    # in a regular graph of degree d each signature is (d, (d,) * d, (d,) * k),
    # k the number of distance-2 vertices, so k alone orders them
    regular = min(deg, default=0) == max(deg, default=0)
    root = list(range(g.n))
    if seeded is not None:
        root = [seeded.find(v) for v in root]
    adj = g.adjacency
    sig_of = {}
    for v, r in enumerate(root):
        if r == v:
            nbrs = adj[v]
            two = set().union(*map(adj.__getitem__, nbrs))
            two.discard(v)
            two.difference_update(nbrs)
            sig_of[v] = len(two) if regular else (
                deg[v],
                tuple(sorted(map(deg.__getitem__, nbrs))),
                tuple(sorted(map(deg.__getitem__, two))),
            )
    if len(sig_of) == 1:
        return [list(range(g.n))]
    sigs = [sig_of[r] for r in root]
    order = sorted(range(g.n), key=lambda v: (sigs[v], v))
    cells: list[list[int]] = []
    for v in order:
        if cells and sigs[cells[-1][-1]] == sigs[v]:
            cells[-1].append(v)
        else:
            cells.append([v])
    # keep each cell in vertex-index order (sorted by construction)
    return cells


class NotEdgeTransitive(Exception):
    """The refinement after individualizing vertex 0 split the edges at 0
    into classes that no automorphism joins."""


def _edge_classes(cell_of: Sequence[int], reverse: Mapping[int, int]) -> int:
    """Classes of the neighbours x of 0 under "same cell" and x ~ reverse[x];
    ``cell_of`` is ``_refine``'s map, -1 for a singleton cell."""

    def cell(x: int) -> int:
        return cell_of[x] if cell_of[x] >= 0 else ~x  # ~x names x's singleton

    parent = {cell(x): cell(x) for x in reverse}

    def find(c: int) -> int:
        while parent[c] != c:
            c = parent[c]
        return c

    for x, y in reverse.items():
        parent[find(cell(x))] = find(cell(y))
    return sum(c == p for c, p in parent.items())


def _refine(
    adj: Sequence[Sequence[int]],
    cells: list[list[int]],
    splitters: list[list[int]] | None,
    equitable: bool = False,
    reverse: Mapping[int, int] | None = None,
) -> list[list[int]]:
    """Equitable refinement; fragments are ordered by ascending neighbor count.

    Cells are addressed by their start position in the ordered partition, as
    in nauty (McKay & Piperno, "Practical graph isomorphism, II", 2014), and
    keep their vertices in ascending order.  A splitter is a vertex list.
    Splitting by it walks the adjacency lists of its vertices only: the cells
    holding a counted vertex are the only ones that can split, and the
    uncounted rest of such a cell is its count-0 fragment.  Touched cells are
    split in partition order and every fragment is queued as a splitter, so
    the work of a splitter is proportional to its edges and to the cells it
    touches, not to the size of the graph.  Splitters that cannot split
    anything are skipped: every splitter once all cells are singletons, and
    a one-vertex splitter with no neighbour in a non-singleton cell.

    Most splits take one count.  A one-vertex splitter gives every neighbour
    count 1, so its neighbours are grouped by cell with no count at all (the
    rows of ``adj`` are ascending, as a Graph's are, so each group is too).
    A touched cell whose counted vertices share one count is left whole if
    they are all of it, and otherwise split in two, the rest of the cell
    being what still names its start once the counted vertices are
    unnamed.  Only a cell with several counts is bucketed.

    The last fragment of a split cell C is queued but skipped, unless C is
    open (below): at its turn the partition is equitable to C and to every
    other fragment of C, popped before it, so it splits nothing.  It is
    equitable to C because C was a splitter before it (C was queued before
    it was split, and is popped, processed or itself skipped, before its
    fragments) or because ``equitable`` says the input came from
    ``_individualize`` on an equitable partition, which the individualized
    vertex, the first splitter, restores.  The open cells are the given
    ones when neither holds: given splitters and no ``equitable``.  For the
    same reason the first of two fragments F, G of such a C may be counted
    by G when G is smaller: a vertex's count in F is then its cell's count
    in C less its count in G, so the same cells split into the same
    fragments, in the reverse order of G-counts.  Skipping and counting the
    other fragment change no split, so the result is that of counting every
    splitter.

    ``reverse``, given only for the unit partition with vertex 0
    individualized, maps each neighbour x of 0 to its reverse as in
    ``permgroup.orbits_at_zero``.  Every partition this call passes through
    is then preserved by the stabilizer A_0 of 0 (refinement commutes with
    relabeling), so A_0's orbits on N(0) lie in cells; if the cells of N(0),
    merged along x ~ reverse[x], form two classes, so do the edge orbits,
    and NotEdgeTransitive is raised.  The test runs after each splitter
    that split a cell holding a neighbour of 0.
    """
    n = len(adj)
    cell_at: list[list[int] | None] = [None] * n  # start position -> cell
    # vertex -> start of its cell; -1 in a singleton cell, which cannot split
    cell_of = [-1] * n
    start = 0
    for cell in cells:
        cell_at[start] = cell
        if len(cell) > 1:
            for v in cell:
                cell_of[v] = start
        start += len(cell)
    # starts of the open cells, which queue every fragment when they split
    opened = set() if splitters is None or equitable else set(cell_of) - {-1}
    ncells = len(cells)
    # (splitter, skip, other): a skipped splitter is the last fragment of a
    # cell not open; `other`, if not None, is counted in the splitter's place
    queue = deque((c, False, None) for c in (cells if splitters is None else splitters))
    push = queue.append
    # starts of the cells holding a neighbour of 0, if watched
    watched = set() if reverse is None else {cell_of[x] for x in reverse}
    while queue and ncells < n:
        splitter, skip, other = queue.popleft()
        if skip:
            continue
        if other is not None:
            splitter = other
        touched: dict[int, list[int]] = {}  # cell start -> its counted vertices
        if len(splitter) == 1:
            # every count is 1
            counts = None
            counted: Sequence[int] = adj[splitter[0]]
        else:
            # vertex -> its number of neighbours in the splitter, if nonzero
            counts = {}
            _count_elements(counts, chain.from_iterable(map(adj.__getitem__, splitter)))
            counted = counts
        for u in counted:
            s = cell_of[u]
            if s >= 0:
                if s in touched:
                    touched[s].append(u)
                else:
                    touched[s] = [u]
        if not touched:
            continue
        moved = False
        for s in sorted(touched) if len(touched) > 1 else touched:
            cell = cell_at[s]
            hit = touched[s]
            mixed = False
            if counts is not None:
                k = counts[hit[0]]
                for v in hit:
                    if counts[v] != k:
                        mixed = True
                        break
            last = s not in opened
            if not mixed:
                if len(hit) == len(cell):
                    continue
                if counts is not None:
                    hit.sort()
                # the rest is what still names s once hit is unnamed
                for v in hit:
                    cell_of[v] = -1
                rest = [v for v in cell if cell_of[v] == s]
                # hit goes last, or first when its complement was counted
                first, second = (rest, hit) if other is None else (hit, rest)
                pos = s + len(first)
                cell_at[s] = first
                cell_at[pos] = second
                if len(rest) == 1:
                    cell_of[rest[0]] = -1
                elif other is not None:
                    for v in rest:
                        cell_of[v] = pos
                if len(hit) > 1:
                    at = pos if other is None else s
                    for v in hit:
                        cell_of[v] = at
                # the last fragment splits nothing, and the first is counted
                # by it if it is smaller (see above)
                push((first, False, second if last and len(second) < len(first) else None))
                push((second, last, None))
                ncells += 1
            else:
                buckets = {0: [v for v in cell if v not in counts]} if len(hit) < len(cell) else {}
                hit.sort()
                for v in hit:
                    buckets.setdefault(counts[v], []).append(v)
                ncells += len(buckets) - 1
                pos = s
                for k in sorted(buckets, reverse=other is not None):
                    frag = buckets[k]
                    cell_at[pos] = frag
                    if len(frag) == 1:
                        cell_of[frag[0]] = -1
                    elif pos != s:
                        for v in frag:
                            cell_of[v] = pos
                    pos += len(frag)
                    push((frag, last and pos == s + len(cell), None))
            opened.discard(s)
            moved = moved or s in watched
        if moved:
            if _edge_classes(cell_of, reverse) > 1:
                raise NotEdgeTransitive
            watched = {cell_of[x] for x in reverse}
    out = []
    start = 0
    while start < n:
        cell = cell_at[start]
        out.append(cell)
        start += len(cell)
    return out


def _individualize(
    cells: list[list[int]], target_idx: int, v: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Split the target cell into [v] and the rest; return new cells and the
    splitters for the follow-up refinement.

    The input partition is equitable, so only [v] is a splitter: once it has
    been processed, every cell has a constant number of neighbours in the
    rest of the target cell (its count in the whole cell minus its adjacency
    to v), and that rest would split nothing.
    """
    cell = cells[target_idx]
    rest = [u for u in cell if u != v]
    return cells[:target_idx] + [[v], rest] + cells[target_idx + 1:], [[v]]


def _target_cell(cells: list[list[int]]) -> int:
    """Index of the first smallest non-singleton cell."""
    best = -1
    best_len = None
    for i, cell in enumerate(cells):
        if len(cell) > 1 and (best_len is None or len(cell) < best_len):
            best, best_len = i, len(cell)
    return best


class _Orbits:
    """Union-find of the orbits of the generators that fix a path pointwise,
    with a flag per orbit: does it hold a processed vertex.  ``kept`` lists
    those generators and ``fed`` counts the generators already looked at by
    :meth:`feed`."""

    __slots__ = ("parent", "hit", "kept", "fed")

    def __init__(self, n: int, gens: Sequence[Sequence[int]] = ()):
        self.parent = list(range(n))
        self.hit = [False] * n
        self.kept: list[Sequence[int]] = []
        self.fed = 0
        self.feed(gens, ())

    def feed(self, gens: Sequence[Sequence[int]], fixed: Sequence[int]) -> None:
        """Merge the orbits of the generators past the first ``fed`` that fix
        ``fixed`` pointwise."""
        for p in gens[self.fed:]:
            if all(p[x] == x for x in fixed):
                self.add(p)
        self.fed = len(gens)

    def child(self, v: int) -> _Orbits:
        """The orbits one level down, where the path also fixes v: those of
        the kept generators that fix v.  The path's generators are passed
        down the tree, as in nauty, so a node filters its parent's list, not
        every generator found, and has looked at as many as its parent."""
        orbits = _Orbits(len(self.parent))
        for p in self.kept:
            if p[v] == v:
                orbits.add(p)
        orbits.fed = self.fed
        return orbits

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def add(self, p: Sequence[int]) -> None:
        """Merge the orbits that the permutation p joins."""
        self.kept.append(p)
        parent, hit = self.parent, self.hit
        for x, y in enumerate(p):
            if x != y:
                # find(x) and find(y), inline: this loop runs once per point
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x != y:
                    parent[y] = x
                    hit[x] = hit[x] or hit[y]

    def mark(self, v: int) -> None:
        self.hit[self.find(v)] = True

    def processed(self, v: int) -> bool:
        return self.hit[self.find(v)]


class _Search:
    """One run of the search: the generators found so far and the first and
    best leaves.  Its methods recurse through ``self``, so a finished search
    holds no reference cycle and is freed as soon as it is dropped."""

    __slots__ = ("g", "reverse", "gens", "gen_set", "first", "best")

    def __init__(self, g: Graph, gens: list[tuple[int, ...]], reverse: Mapping[int, int] | None):
        self.g = g
        self.reverse = reverse
        self.gens = gens
        self.gen_set = set(gens)
        # (key, order) of the first leaf and of the least key so far
        self.first: tuple[tuple[int, ...], list[int]] | None = None
        self.best: tuple[tuple[int, ...], list[int]] | None = None

    def leaf(self, cells: list[list[int]]) -> None:
        order = [c[0] for c in cells]
        key = packed_rows(self.g, order)
        if self.first is None:
            self.first = self.best = (key, order)
            return
        for ref in (self.first, self.best):
            if ref[0] == key and ref[1] != order:
                p = [0] * self.g.n
                for v, w in zip(order, ref[1]):
                    p[v] = w
                p = tuple(p)
                if p not in self.gen_set:
                    self.gens.append(p)
                    self.gen_set.add(p)
                break
        if key < self.best[0]:
            self.best = (key, order)

    def node(self, cells: list[list[int]], fixed: list[int], orbits: _Orbits) -> None:
        """Search below the equitable partition ``cells``, reached by
        individualizing ``fixed``; ``orbits`` are those of the generators
        that fix ``fixed`` pointwise.  A branch is equivalent to a processed
        one iff its vertex shares their orbit."""
        t = _target_cell(cells)
        if t < 0:
            self.leaf(cells)
            return
        for v in cells[t]:
            orbits.feed(self.gens, fixed)
            if orbits.processed(v):
                continue
            child, splitters = _individualize(cells, t, v)
            # A_0 preserves the unit partition with 0 individualized
            watch = self.reverse if v == 0 and len(cells) == 1 else None
            refined = _refine(self.g.adjacency, child, splitters, True, watch)
            self.node(refined, fixed + [v], orbits.child(v))
            orbits.mark(v)


def analyze(
    g: Graph, seeds: Sequence[Sequence[int]] = (), reverse: Mapping[int, int] | None = None
) -> SearchResult:
    """Run the search once, returning generators and the canonical labeling.

    ``reverse``, for a vertex-transitive graph, maps each neighbour x of 0
    to the neighbour y such that some automorphism maps the arc (x, 0) to
    (0, y), as in ``permgroup.orbits_at_zero``.  Given it, the search raises
    NotEdgeTransitive as soon as the refinement of its root branch at vertex
    0 shows two edge orbits (see ``_refine``); a graph that passes may still
    have several, which ``orbits_at_zero`` counts.
    """
    if g.n > MAX_DEGREE:
        raise BoundExceeded(f"graph too large (n = {g.n} > {MAX_DEGREE})")
    if g.n == 0:
        return SearchResult([], [], ())

    seeds = [tuple(p) for p in seeds]
    if not are_automorphisms(g, seeds):
        raise ValueError("seed is not an automorphism")
    identity = tuple(range(g.n))
    gens = list(dict.fromkeys(p for p in seeds if p != identity))

    n_seeds = len(gens)
    adj = g.adjacency
    if reverse is not None:
        if sorted(reverse.get(x, -1) for x in adj[0]) != list(adj[0]):
            raise ValueError("reverse does not permute the neighbours of 0")
        reverse = {x: reverse[x] for x in adj[0]}
    search = _Search(g, gens, reverse)
    # the seeds' orbits: the starting signature's, and the root's to start from
    orbits = _Orbits(g.n, gens)
    try:
        search.node(_refine(adj, _initial_partition(g, orbits if gens else None), None), [], orbits)
    except RecursionError:
        # each level of the tree is one frame of node
        raise BoundExceeded(
            f"search tree deeper than the recursion limit ({sys.getrecursionlimit()})"
        ) from None
    key, order = search.best
    return SearchResult(gens, order, key, n_seeds)


def automorphism_group(g: Graph) -> PermGroup:
    """Generators of the full automorphism group of a simple graph."""
    return PermGroup(g.n, analyze(g).generators)


def canonical_form(g: Graph, result: SearchResult | None = None) -> bytes:
    """Complete isomorphism invariant: graph6 of the canonical key, the rows
    of g in the canonical order."""
    return graph6_of_rows((result or analyze(g)).canonical_key)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.n_edges != g2.n_edges:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    return canonical_form(g1) == canonical_form(g2)
