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
from collections import Counter, deque
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
    root = list(range(g.n))
    if seeded is not None:
        root = [seeded.find(v) for v in root]
    sig_of = {}
    for v, r in enumerate(root):
        if r == v:
            nbrs = g.adjacency[v]
            two = set()
            for u in nbrs:
                two.update(g.adjacency[u])
            two.discard(v)
            two.difference_update(nbrs)
            sig_of[v] = (
                deg[v],
                tuple(sorted(deg[u] for u in nbrs)),
                tuple(sorted(deg[u] for u in two)),
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
    a one-vertex splitter with no neighbour in a non-singleton cell.  A cell
    every vertex of which has one count is left whole without bucketing.

    When the partition is already equitable to a cell C that splits (C was
    a splitter of this call, or ``equitable`` says the input came from
    ``_individualize`` on an equitable partition), the last fragment is
    queued but skipped: at its turn the partition is equitable to C and to
    every other fragment of C, popped before it, so it splits nothing.

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
    done: set[int] = set()  # starts of cells the partition is equitable to
    start = 0
    for cell in cells:
        cell_at[start] = cell
        if len(cell) > 1:
            for v in cell:
                cell_of[v] = start
            if equitable:
                done.add(start)
        start += len(cell)
    ncells = len(cells)
    # (splitter, skip): a skipped splitter is the last fragment of a cell in `done`
    queue = deque((c, False) for c in (cells if splitters is None else splitters))
    # starts of the cells holding a neighbour of 0, if watched
    watched = set() if reverse is None else {cell_of[x] for x in reverse}
    while queue and ncells < n:
        splitter, skip = queue.popleft()
        if len(splitter) > 1:
            s = cell_of[splitter[0]]
            if s >= 0 and cell_at[s] is splitter:
                done.add(s)
        if skip:
            continue
        # vertex -> its number of neighbours in the splitter, if nonzero
        if len(splitter) == 1:
            hits = [u for u in adj[splitter[0]] if cell_of[u] >= 0]
            if not hits:
                continue
            counts = dict.fromkeys(hits, 1)
        else:
            counts = Counter(chain.from_iterable([adj[w] for w in splitter]))
        touched: dict[int, list[int]] = {}  # cell start -> its counted vertices
        for u in counts:
            s = cell_of[u]
            if s >= 0:
                touched.setdefault(s, []).append(u)
        moved = False
        for s in sorted(touched):
            cell = cell_at[s]
            hit = touched[s]
            if len(hit) < len(cell):
                buckets = {0: [v for v in cell if v not in counts]}
            elif len(set(map(counts.__getitem__, hit))) == 1:
                continue
            else:
                buckets = {}
            hit.sort()
            for v in hit:
                buckets.setdefault(counts[v], []).append(v)
            ncells += len(buckets) - 1
            moved = moved or s in watched
            last = max(buckets) if s in done else None
            done.discard(s)
            pos = s
            for k in sorted(buckets):
                frag = buckets[k]
                cell_at[pos] = frag
                if len(frag) == 1:
                    cell_of[frag[0]] = -1
                elif pos != s:
                    for v in frag:
                        cell_of[v] = pos
                queue.append((frag, k == last))
                pos += len(frag)
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
    """Union-find of the orbits of a growing set of permutations, with a
    flag per orbit: does it hold a processed vertex.  ``fed`` counts the
    generators already fed in by :meth:`feed`."""

    __slots__ = ("parent", "hit", "fed")

    def __init__(self, n: int, gens: Sequence[Sequence[int]] = ()):
        self.parent = list(range(n))
        self.hit = [False] * n
        self.fed = 0
        self.feed(gens, ())

    def feed(self, gens: Sequence[Sequence[int]], fixed: Sequence[int]) -> None:
        """Merge the orbits of the generators past the first ``fed`` that fix
        ``fixed`` pointwise."""
        for p in gens[self.fed:]:
            if all(p[x] == x for x in fixed):
                self.add(p)
        self.fed = len(gens)

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def add(self, p: Sequence[int]) -> None:
        """Merge the orbits that the permutation p joins."""
        find, parent, hit = self.find, self.parent, self.hit
        for x, y in enumerate(p):
            if x != y:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[ry] = rx
                    hit[rx] = hit[rx] or hit[ry]

    def mark(self, v: int) -> None:
        self.hit[self.find(v)] = True

    def processed(self, v: int) -> bool:
        return self.hit[self.find(v)]


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

    gens: list[tuple[int, ...]] = []
    gen_set: set[tuple[int, ...]] = set()
    seeds = [tuple(p) for p in seeds]
    if not are_automorphisms(g, seeds):
        raise ValueError("seed is not an automorphism")
    for p in seeds:
        if any(i != x for i, x in enumerate(p)) and p not in gen_set:
            gens.append(p)
            gen_set.add(p)

    n_seeds = len(gens)
    adj = g.adjacency
    if reverse is not None:
        if sorted(reverse.get(x, -1) for x in adj[0]) != list(adj[0]):
            raise ValueError("reverse does not permute the neighbours of 0")
        reverse = {x: reverse[x] for x in adj[0]}
    first: tuple[tuple[int, ...], list[int]] | None = None
    best: tuple[tuple[int, ...], list[int]] | None = None

    def handle_leaf(cells: list[list[int]]) -> None:
        nonlocal first, best
        order = [c[0] for c in cells]
        key = packed_rows(g, order)
        if first is None:
            first = (key, order)
            best = (key, order)
            return
        for ref in (first, best):
            if ref is not None and ref[0] == key and ref[1] != order:
                p = [0] * g.n
                for k, v in enumerate(order):
                    p[v] = ref[1][k]
                p = tuple(p)
                if p not in gen_set:
                    gens.append(p)
                    gen_set.add(p)
                break
        if key < best[0]:
            best = (key, order)

    def rec(cells: list[list[int]], fixed: list[int], orbits: _Orbits | None = None) -> None:
        t = _target_cell(cells)
        if t < 0:
            handle_leaf(cells)
            return
        # orbits of the generators that fix `fixed` pointwise; a branch is
        # equivalent to a processed one iff its vertex shares their orbit
        if orbits is None:
            orbits = _Orbits(g.n)
        for v in cells[t]:
            orbits.feed(gens, fixed)
            if orbits.processed(v):
                continue
            child, splitters = _individualize(cells, t, v)
            # A_0 preserves the unit partition with 0 individualized
            watch = reverse if v == 0 and len(cells) == 1 else None
            rec(_refine(adj, child, splitters, True, watch), fixed + [v])
            orbits.mark(v)

    # the seeds' orbits: the starting signature's, and the root's to start from
    seeded = _Orbits(g.n, gens) if gens else None
    try:
        rec(_refine(adj, _initial_partition(g, seeded), None), [], seeded)
    except RecursionError:
        # each level of the tree is one frame of rec
        raise BoundExceeded(
            f"search tree deeper than the recursion limit ({sys.getrecursionlimit()})"
        ) from None
    assert best is not None
    return SearchResult(gens, best[1], best[0], n_seeds)


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
