"""Independent oracles used by the test suite.

Everything here is deliberately written from first principles (single-relation
actions, exhaustive search, naive permutation composition) and must not call
into the package's own arithmetic, so that the two routes stay independent.
Functions that take a ``GroupSpec`` use only its parameters and the fixed
vertex indexing u + m*v + m*n*w (``spec.index``, ``spec.at_index``).
"""

from __future__ import annotations

from collections import Counter, deque
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd


def perm_apply(p: list[int], i: int) -> int:
    return p[i]


def perm_compose(p: list[int], q: list[int]) -> list[int]:
    """Apply p first, then q."""
    return [q[x] for x in p]


def perm_power(p: list[int], k: int) -> list[int]:
    out = list(range(len(p)))
    for _ in range(k):
        out = perm_compose(out, p)
    return out


def regular_generator_perms(m: int, n: int, r: int, ell: int = 1):
    """Right-multiplication permutations for a, b, c on u + m*v + m*n*w.

    Built from the single defining relation only: b a b^-1 = a^(r^-1), so
    (a^u b^v c^w) * a = a^(u + r^-v) b^v c^w, while right-multiplying by b or
    c just increments v or w.
    """
    size = m * n * ell
    rinv = pow(r % m, -1, m) if m > 1 else 0

    def idx(u, v, w):
        return u + m * (v + n * w)

    pa = [0] * size
    pb = [0] * size
    pc = [0] * size
    for w in range(ell):
        for v in range(n):
            shift = pow(rinv, v, m) if m > 1 else 0
            for u in range(m):
                i = idx(u, v, w)
                pa[i] = idx((u + shift) % m, v, w)
                pb[i] = idx(u, (v + 1) % n, w)
                pc[i] = idx(u, v, (w + 1) % ell)
    return pa, pb, pc


def oracle_mul_index(i: int, j: int, m: int, n: int, r: int, ell: int = 1) -> int:
    """Index of (element i) * (element j), by permutation composition only."""
    pa, pb, pc = regular_generator_perms(m, n, r, ell)
    u = j % m
    rest = j // m
    v = rest % n
    w = rest // n
    x = i
    for _ in range(u):
        x = pa[x]
    for _ in range(v):
        x = pb[x]
    for _ in range(w):
        x = pc[x]
    return x


def brute_force_graph_automorphisms(adjacency: list[list[int]]) -> list[tuple[int, ...]]:
    """All automorphisms of a small graph by exhausting S_n.  n <= 10 or so."""
    n = len(adjacency)
    adj = [set(row) for row in adjacency]
    out = []
    for p in permutations(range(n)):
        if all({p[x] for x in adj[v]} == adj[p[v]] for v in range(n)):
            out.append(p)
    return out


def is_automorphism_by_sets(adjacency: list[list[int]], p) -> bool:
    """Whether p is a permutation of the vertices that maps each neighbour
    set onto the neighbour set of the image vertex."""
    n = len(adjacency)
    if sorted(p) != list(range(n)):
        return False
    adj = [set(row) for row in adjacency]
    return all({p[x] for x in adj[v]} == adj[p[v]] for v in range(n))


def backtracking_automorphism_count(adjacency: list[list[int]]) -> int:
    """Count automorphisms by depth-first assignment with adjacency checks.

    Positions are assigned in vertex order; a partial map is extended only
    while it preserves adjacency and non-adjacency among assigned vertices.
    Practical up to a dozen vertices.
    """
    n = len(adjacency)
    adj = [set(row) for row in adjacency]
    deg = [len(row) for row in adjacency]
    count = 0
    image = [-1] * n
    used = [False] * n

    def extend(v: int) -> None:
        nonlocal count
        if v == n:
            count += 1
            return
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            ok = True
            for u in range(v):
                if (u in adj[v]) != (image[u] in adj[w]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                extend(v + 1)
                used[w] = False
                image[v] = -1

    extend(0)
    return count


def brute_force_isomorphic(adj1: list[list[int]], adj2: list[list[int]]) -> bool:
    """Exhaustive isomorphism test for graphs on <= 8 vertices."""
    n = len(adj1)
    if n != len(adj2):
        return False
    a1 = [set(row) for row in adj1]
    a2 = [set(row) for row in adj2]
    if sorted(map(len, a1)) != sorted(map(len, a2)):
        return False
    for p in permutations(range(n)):
        if all({p[x] for x in a1[v]} == a2[p[v]] for v in range(n)):
            return True
    return False


def parse_graph6(data: bytes) -> list[list[int]]:
    """Decode graph6 into adjacency lists (hand-rolled, independent decoder)."""
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    vals = [c - 63 for c in data]
    if vals[0] == 63:
        if vals[1] == 63:
            n = 0
            for v in vals[2:8]:
                n = n * 64 + v
            body = vals[8:]
        else:
            n = vals[1] * 64 * 64 + vals[2] * 64 + vals[3]
            body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    bits = []
    for v in body:
        for k in range(5, -1, -1):
            bits.append((v >> k) & 1)
    adjacency = [[] for _ in range(n)]
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                adjacency[i].append(j)
                adjacency[j].append(i)
            idx += 1
    return adjacency


def sample_hypothesis_star_specs(rng, count: int, max_order: int):
    """Random (m, n, r) pools for the element-order law, as parameter triples.

    Samples nonabelian specs with gcd(m, n) = 1, every prime of n dividing
    n0, and gcd(r-1, m) = 1, i.e. groups that are not direct products.
    """
    pool = []
    for m in range(3, max_order // 3 + 1, 2):
        for r in range(2, m):
            if gcd(r, m) != 1 or gcd(r - 1, m) != 1:
                continue
            n0 = order_mod(r, m)
            if n0 % 2 == 0 or n0 < 3:
                continue
            k = 1
            while m * n0 * k <= max_order:
                n = n0 * k
                if all(n0 % p == 0 for p in _prime_divisors(n)):
                    pool.append((m, n, r))
                k += 2
    return rng.sample(pool, count)


def order_mod(x: int, m: int) -> int:
    acc = x % m
    k = 1
    while acc != 1:
        acc = acc * x % m
        k += 1
    return k


def canonical_r(m: int, n: int, r: int) -> int:
    """Least r' among {r^u mod m : gcd(u, n) = 1} presenting an isomorphic group.

    Replacing b by b^u (u a unit mod n) turns the conjugation multiplier r
    into r^u, so specs sharing this value present isomorphic groups.
    """
    r %= m
    best = r
    for u in range(1, n):
        if gcd(u, n) == 1:
            best = min(best, pow(r, u, m))
    return best


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def signature_cells(adjacency) -> list[list[int]]:
    """The vertices grouped by (degree, sorted neighbour degrees, sorted
    degrees of the vertices at distance 2), groups in ascending signature
    order, each in ascending vertex order; distances by breadth-first
    search."""
    n = len(adjacency)
    deg = [len(row) for row in adjacency]
    groups: dict[tuple, list[int]] = {}
    for v in range(n):
        dist = {v: 0}
        frontier = [v]
        for d in (1, 2):
            frontier = [u for w in frontier for u in adjacency[w] if u not in dist]
            for u in frontier:
                dist.setdefault(u, d)
        sig = (
            deg[v],
            tuple(sorted(deg[u] for u in adjacency[v])),
            tuple(sorted(deg[u] for u, d in dist.items() if d == 2)),
        )
        groups.setdefault(sig, []).append(v)
    return [groups[sig] for sig in sorted(groups)]


def vertex_mask(vertices) -> int:
    """The vertex set as a bitmask: bit v set iff v is in it."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertex_masks(adjacency) -> list[int]:
    """Each vertex's neighbour set as a ``vertex_mask``."""
    return [vertex_mask(row) for row in adjacency]


def bitmask_refine(adj_bits: list[int], cells: list[list[int]], active: list[int] | None) -> list[list[int]]:
    """Equitable refinement by whole-partition passes over bitmasks.

    Each splitter, a ``vertex_mask``, re-buckets every vertex of every
    non-singleton cell by its number of neighbours in the splitter (its row
    of ``vertex_masks``); a cell that splits is replaced by its fragments in
    ascending count order, each queued as a splitter.  ``active`` holds the
    first splitters (every cell when None).  This costs O(n) per splitter
    whatever its size.
    """
    queue = deque(vertex_mask(c) for c in cells) if active is None else deque(active)
    while queue:
        smask = queue.popleft()
        out: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            for v in cell:
                buckets.setdefault((adj_bits[v] & smask).bit_count(), []).append(v)
            if len(buckets) == 1:
                out.append(cell)
            else:
                for k in sorted(buckets):
                    frag = buckets[k]
                    out.append(frag)
                    queue.append(vertex_mask(frag))
        cells = out
    return cells


def rows_in_order(adjacency, order) -> tuple[int, ...]:
    """The adjacency rows of the vertices in ``order`` as integers: row i
    has bit n-1-k set iff the i-th and k-th vertices of ``order`` are
    adjacent."""
    n = len(adjacency)
    pos = {v: i for i, v in enumerate(order)}
    return tuple(sum(1 << (n - 1 - pos[u]) for u in adjacency[v]) for v in order)


def leaf_keys(adjacency) -> set[tuple[int, ...]]:
    """The ``rows_in_order`` keys of every leaf of the whole
    individualization-refinement tree, no branch pruned or skipped.

    The root is ``signature_cells`` refined by every cell; a node
    individualizes each vertex v of its first smallest non-singleton cell
    in turn, as the cell [v] before the rest, and refines by [v] alone; a
    discrete partition is a leaf, read as its order of vertices.
    Exponential: for graphs of a few vertices only.
    """
    adj_bits = vertex_masks(adjacency)
    keys = set()
    stack = [bitmask_refine(adj_bits, signature_cells(adjacency), None)]
    while stack:
        cells = stack.pop()
        sizes = [len(c) for c in cells if len(c) > 1]
        if not sizes:
            keys.add(rows_in_order(adjacency, [c[0] for c in cells]))
            continue
        t = next(i for i, c in enumerate(cells) if len(c) == min(sizes))
        for v in cells[t]:
            child = cells[:t] + [[v], [u for u in cells[t] if u != v]] + cells[t + 1:]
            stack.append(bitmask_refine(adj_bits, child, [1 << v]))
    return keys


def least_leaf_key(adjacency) -> tuple[int, ...]:
    """The least key of ``leaf_keys``."""
    return min(leaf_keys(adjacency))


def inverse_closed_four_subsets(m: int, n: int, r: int, ell: int = 1) -> list[tuple[int, ...]]:
    """All identity-free inverse-closed 4-subsets, as sorted vertex-index
    tuples: inverse pairs are listed by their first-met index and every two
    distinct pairs, in ``combinations`` order, form one set."""
    inverse = _inverses(_right_multiplications(m, n, r, ell))
    pairs = []
    seen = {0}
    for x in range(m * n * ell):
        if x not in seen:
            seen.update((x, inverse[x]))
            pairs.append((x, inverse[x]))
    return [tuple(sorted(p + q)) for p, q in combinations(pairs, 2)]


def enumerate_candidates(m: int, n: int, r: int, ell: int = 1) -> list[tuple[int, ...]]:
    """The connected candidates, in the order of
    :func:`inverse_closed_four_subsets`: every set is tested for generation
    by a breadth-first search of the subgroup it generates."""
    right = _right_multiplications(m, n, r, ell)
    return [S for S in inverse_closed_four_subsets(m, n, r, ell) if _generates(S, right)]


def _generates(S, right) -> bool:
    """Whether the vertex indices S generate the group of the right
    multiplications ``right``."""
    perms = [right[s] for s in S]
    seen, frontier = {0}, {0}
    while frontier:
        frontier = {p[x] for x in frontier for p in perms} - seen
        seen |= frontier
    return len(seen) == len(right)


def set_orbit(S, gens) -> set[tuple[int, ...]]:
    """Orbit of the vertex-index set S under the group the permutations
    ``gens`` generate, each set as a sorted tuple."""
    orbit = {tuple(sorted(S))}
    frontier = list(orbit)
    while frontier:
        images = {tuple(sorted(p[x] for x in t)) for t in frontier for p in gens}
        frontier = list(images - orbit)
        orbit.update(frontier)
    return orbit


def candidate_orbits(candidates, gens) -> list[tuple[tuple[int, ...], int]]:
    """Partition candidates into the orbits of the group the vertex
    permutations ``gens`` generate: (least member, orbit size) per orbit, in
    the order of each orbit's first candidate."""
    seen: set[tuple[int, ...]] = set()
    out = []
    for S in candidates:
        if S in seen:
            continue
        orbit = set_orbit(S, gens)
        seen |= orbit
        out.append((min(orbit), len(orbit)))
    return out


def orbit_walk(spec, gens) -> list[tuple[tuple[int, ...], int]]:
    """The candidate walk over sorted 4-tuples: every raw set in the order of
    :func:`inverse_closed_four_subsets`; a set not yet covered has its
    :func:`set_orbit` under ``gens`` taken, and that orbit is tested for
    generation once, on the set met first.  Returns (least member, orbit
    size) of the generating orbits, in order of their first member."""
    right = _right_multiplications(spec.m, spec.n, spec.r, spec.ell)
    covered: set[tuple[int, ...]] = set()
    out = []
    for S in inverse_closed_four_subsets(spec.m, spec.n, spec.r, spec.ell):
        if S in covered:
            continue
        orbit = set_orbit(S, gens)
        covered |= orbit
        if _generates(S, right):
            out.append((min(orbit), len(orbit)))
    return out


@lru_cache(maxsize=16)
def _right_multiplications(m: int, n: int, r: int, ell: int) -> list[list[int]]:
    """Per vertex index j = u + m*v + m*n*w, the permutation x -> x * j,
    composed from the right multiplications by a, b and c.  Cached: callers
    only read it."""
    pa, pb, pc = regular_generator_perms(m, n, r, ell)

    def powers(p, k):
        out = [list(range(len(p)))]
        for _ in range(k - 1):
            out.append(perm_compose(out[-1], p))
        return out

    a_pow, b_pow, c_pow = powers(pa, m), powers(pb, n), powers(pc, ell)
    return [
        perm_compose(perm_compose(a_pow[u], b_pow[v]), c_pow[w])
        for w in range(ell)
        for v in range(n)
        for u in range(m)
    ]


def closure(gens, spec) -> set:
    """The subgroup the elements ``gens`` generate, by breadth-first closure
    over the right multiplications."""
    right = _right_multiplications(spec.m, spec.n, spec.r, spec.ell)
    gens = [spec.index(g) for g in gens]
    seen, frontier = {0}, {0}
    while frontier:
        frontier = {right[h][x] for x in frontier for h in gens} - seen
        seen |= frontier
    return {spec.at_index(i) for i in seen}


def closure_size(gens, spec) -> int:
    return len(closure(gens, spec))


def apply_aut(f, g, spec):
    """Image of g = a^u b^v c^w under the automorphism with images
    f = (f(a), f(b), f(c)), as the product f(a)^u f(b)^v f(c)^w of right
    multiplications."""
    right = _right_multiplications(spec.m, spec.n, spec.r, spec.ell)
    x = 0
    for image, k in zip(f, g):
        step = right[spec.index(image)]
        for _ in range(k):
            x = step[x]
    return spec.at_index(x)


def aut_triples(spec) -> list:
    """Every automorphism of G as its images (f(a), f(b), f(c)), by
    exhaustive search over the triples of elements of orders m, n and ell.

    A triple is kept iff walking the Cayley graph on a, b, c breadth-first
    from the identity, with g*s sent to f(g)*f(s), gives every vertex one
    image (so f is a homomorphism) and the images are distinct.
    """
    right = _right_multiplications(spec.m, spec.n, spec.r, spec.ell)
    order = spec.order

    def element_order(g):
        k, x = 1, right[g][0]
        while x:
            k, x = k + 1, right[g][x]
        return k

    orders = [element_order(g) for g in range(order)]
    gens = (1 % spec.m, spec.m * (1 % spec.n), spec.m * spec.n * (1 % spec.ell))
    cands = [[g for g in range(order) if orders[g] == k] for k in (spec.m, spec.n, spec.ell)]
    out = []
    for images in product(*cands):
        p = [-1] * order
        p[0] = 0
        frontier = [0]
        consistent = True
        while frontier and consistent:
            nxt = []
            for g in frontier:
                for s, im in zip(gens, images):
                    h, ph = right[s][g], right[im][p[g]]
                    if p[h] < 0:
                        p[h] = ph
                        nxt.append(h)
                    elif p[h] != ph:
                        consistent = False
            frontier = nxt
        if consistent and len(set(p)) == order:
            out.append(tuple(map(spec.at_index, images)))
    return out


def aut_permutation(f, spec) -> list[int]:
    """Action on vertex indices of the automorphism with images f of
    (a, b, c), by :func:`apply_aut`: a^u b^v c^w goes to f(a)^u f(b)^v f(c)^w."""
    return [spec.index(apply_aut(f, spec.at_index(i), spec)) for i in range(spec.order)]


def aut_permutations(spec) -> list[list[int]]:
    """Action of each automorphism of :func:`aut_triples` on vertex
    indices."""
    return [aut_permutation(f, spec) for f in aut_triples(spec)]


def aut_stabilizer(S, spec, maps) -> list:
    """Aut(G, S): the automorphisms among ``maps`` that fix the set S."""
    S = frozenset(S)
    return [f for f in maps if frozenset(apply_aut(f, x, spec) for x in S) == S]


def distance_split(S, m: int, n: int, r: int, ell: int = 1) -> bool:
    """Whole-matrix reference for the distance-pair test on the raw set S =
    {x, x^-1, y, y^-1} of vertex indices, x the least and y the least not
    in {x, x^-1}: whether M_y is neither M_x nor M_x transposed, where M_z
    counts the pairs (d(0, v), d(z, v)) over every vertex v, -1 standing
    for out of reach.  d(z, v) = d(0, v z^-1), the right multiplication by
    z^-1 being an automorphism of the Cayley graph v ~ s v."""
    right = _right_multiplications(m, n, r, ell)
    inverse = _inverses(right)
    dist = [-1] * len(right)
    dist[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for s in S:
            w = right[v][s]
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    x = min(S)
    y = min(z for z in S if z not in (x, inverse[x]))
    dx, dy = ([dist[right[inverse[z]][v]] for v in range(len(right))] for z in (x, y))
    my = Counter(zip(dist, dy))
    return my != Counter(zip(dist, dx)) and my != Counter(zip(dx, dist))


def distance_matrix(S, z: int, m: int, n: int, r: int, ell: int = 1) -> Counter:
    """The whole M_z of ``distance_split`` for the set S of vertex indices:
    the count of the pairs (d(0, v), d(z, v)) over every vertex v, by one
    breadth-first search from each end, -1 standing for out of reach."""
    right = _right_multiplications(m, n, r, ell)

    def distances(root):
        dist = [-1] * len(right)
        dist[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for s in S:
                w = right[v][s]
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    return Counter(zip(distances(0), distances(z)))


def connected_components(adjacency: list[list[int]]) -> list[list[int]]:
    """The vertex sets of the components, each sorted, by least vertex."""
    seen: set[int] = set()
    comps = []
    for start in range(len(adjacency)):
        if start in seen:
            continue
        comp, frontier = {start}, {start}
        while frontier:
            frontier = {u for v in frontier for u in adjacency[v]} - comp
            comp |= frontier
        seen |= comp
        comps.append(sorted(comp))
    return comps


def _inverses(right: list[list[int]]) -> list[int]:
    """j -> j^-1: the x with x * j = 1."""
    return [p.index(0) for p in right]


def s_arcs(adjacency: list[list[int]], s: int) -> list[tuple[int, ...]]:
    """All s-arcs of the graph: non-backtracking walks (v0, ..., vs)."""
    walks = [(u, v) for u, row in enumerate(adjacency) for v in row]
    for _ in range(s - 1):
        walks = [w + (x,) for w in walks for x in adjacency[w[-1]] if x != w[-2]]
    return walks


def orbit_count(items, gens) -> int:
    """Orbits of the group the permutations ``gens`` generate on the tuples
    ``items``, by a breadth-first search from each item not yet reached."""
    seen: set = set()
    count = 0
    for item in items:
        if item in seen:
            continue
        count += 1
        seen.add(item)
        frontier = [item]
        while frontier:
            images = {tuple(g[x] for x in it) for it in frontier for g in gens}
            frontier = list(images - seen)
            seen.update(frontier)
    return count


def edge_orbit_count(adjacency: list[list[int]], gens) -> int:
    """Orbits of the group the automorphisms ``gens`` generate on the edges,
    each edge the set of its two ends, by a breadth-first search from each
    edge not yet reached."""
    left = {frozenset((u, v)) for u, row in enumerate(adjacency) for v in row}
    count = 0
    while left:
        count += 1
        frontier = [left.pop()]
        while frontier:
            images = {frozenset(g[x] for x in e) for e in frontier for g in gens}
            frontier = list(images & left)
            left -= images
    return count


def point_orbits(gens, degree: int) -> list[list[int]]:
    """The orbits of the group the permutations ``gens`` generate on
    0..degree-1, each sorted, ordered by their least point; by a
    breadth-first search from each point not yet reached."""
    seen = [False] * degree
    out = []
    for x in range(degree):
        if seen[x]:
            continue
        seen[x] = True
        orbit = [x]
        for y in orbit:
            for g in gens:
                if not seen[g[y]]:
                    seen[g[y]] = True
                    orbit.append(g[y])
        out.append(sorted(orbit))
    return out


def max_s_arc_transitive(gens, adjacency: list[list[int]], cap: int = 3) -> int:
    """Largest s <= cap such that the group the automorphisms ``gens``
    generate has one orbit on all s-arcs of the graph; 0 if not
    arc-transitive."""
    best = 0
    for s in range(1, cap + 1):
        walks = s_arcs(adjacency, s)
        if not walks or orbit_count(walks, gens) != 1:
            break
        best = s
    return best


def group_elements(gens, degree: int) -> set[tuple[int, ...]]:
    """Every element of the group the permutations generate, by closure."""
    els = {tuple(range(degree))}
    frontier = list(els)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(perm_compose(p, g))
                if q not in els:
                    els.add(q)
                    nxt.append(q)
        frontier = nxt
    return els


def normalizer_order(gens, m: int, n: int, r: int, ell: int = 1) -> int:
    """|N_A(R)| for the group A the vertex permutations ``gens`` generate and
    the regular copy R of G: every element of A is tested, not only the
    stabilizer of a vertex."""
    right = _right_multiplications(m, n, r, ell)
    regular = regular_generator_perms(m, n, r, ell)
    count = 0
    for x in group_elements(gens, m * n * ell):
        xinv = [0] * len(x)
        for i, y in enumerate(x):
            xinv[y] = i
        if all(perm_compose(perm_compose(xinv, g), x) == right[x[g[xinv[0]]]] for g in regular):
            count += 1
    return count


def normalizer_by_right_translations(elements, m: int, n: int, r: int, ell: int = 1) -> int:
    """|G| * #{x in ``elements`` : x normalizes R}, for the elements of the
    stabilizer A_0 of vertex 0: a conjugate x^-1 g x of a generator g of R
    lies in R iff it is the right multiplication by its image of vertex 0."""
    right = _right_multiplications(m, n, r, ell)
    regular = regular_generator_perms(m, n, r, ell)
    count = 0
    for x in elements:
        xinv = [0] * len(x)
        for i, y in enumerate(x):
            xinv[y] = i
        conjugates = [perm_compose(perm_compose(xinv, g), x) for g in regular]
        if all(q == right[q[0]] for q in conjugates):
            count += 1
    return m * n * ell * count


def graph6_bit_by_bit(adjacency: list[list[int]]) -> bytes:
    """graph6 of a graph, one upper-triangle bit at a time: the size bytes,
    then column j = 1, 2, ... of the upper triangle, rows 0..j-1, packed six
    bits to a byte and offset by 63."""
    n = len(adjacency)
    if n <= 62:
        out = bytearray([n + 63])
    elif n <= 258047:
        out = bytearray([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    else:
        out = bytearray([126, 126] + [63 + ((n >> k) & 63) for k in range(30, -1, -6)])
    adj = [set(row) for row in adjacency]
    bits = nbits = 0
    for j in range(1, n):
        for i in range(j):
            bits = (bits << 1) | (i in adj[j])
            nbits += 1
            if nbits == 6:
                out.append(63 + bits)
                bits = nbits = 0
    if nbits:
        out.append(63 + (bits << (6 - nbits)))
    return bytes(out)
