"""Connection sets, Cayley graphs, serialization."""

from __future__ import annotations

import binascii
from typing import Iterable, Sequence

from metacirc.groups import Element, GroupSpec, IDENTITY, inv, left_translation


class Graph:
    """Simple graph as per-vertex sorted neighbor tuples.

    Immutable; equality, hash, repr and pickle read (n, adjacency).  The
    constructor checks the rows: sorted, duplicate-free, loop-free, in range
    and symmetric.
    """

    __slots__ = ("n", "adjacency")

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, adjacency: tuple[tuple[int, ...], ...]) -> None:
        if len(adjacency) != n:
            raise ValueError("adjacency length must equal n")
        for v, row in enumerate(adjacency):
            if list(row) != sorted(set(row)):
                raise ValueError(f"neighbor list of {v} must be sorted and duplicate-free")
            if v in row:
                raise ValueError(f"loop at vertex {v}")
            if any(u < 0 or u >= n for u in row):
                raise ValueError("neighbor out of range")
        nbrs = [set(row) for row in adjacency]
        for v, row in enumerate(adjacency):
            if any(v not in nbrs[u] for u in row):
                raise ValueError("adjacency is not symmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", adjacency)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Graph:
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, adjacency={self.adjacency!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Graph, (self.n, self.adjacency)

    @property
    def n_edges(self) -> int:
        return sum(len(row) for row in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edge list, each as (u, v) with u < v."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def degrees(self) -> list[int]:
        return [len(row) for row in self.adjacency]

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image under vertex map v -> perm[v]."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for v, row in enumerate(self.adjacency):
            adj[perm[v]] = sorted(perm[u] for u in row)
        return Graph(self.n, tuple(tuple(row) for row in adj))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "adj": [list(row) for row in self.adjacency]}


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            continue
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in adj))


# ---------------------------------------------------------- connection sets

def validate_connection_set(S: Iterable[Element], spec: GroupSpec) -> tuple[Element, ...]:
    """Check the tetravalent connection-set invariants; return S sorted by index."""
    elems = sorted(set(S), key=spec.index)
    if len(elems) != 4:
        raise ValueError(f"connection set must have exactly 4 distinct elements, got {len(elems)}")
    if IDENTITY in elems:
        raise ValueError("connection set must not contain the identity")
    if any(inv(x, spec) not in elems for x in elems):
        raise ValueError("connection set must be inverse-closed")
    return tuple(elems)


def build_cayley(S: Iterable[Element], spec: GroupSpec) -> Graph:
    """Cayley graph on the vertex indexing: x ~ y iff y * x^-1 in S, i.e. y = s*x.

    Row x zips the images of x under the four left translations by S.
    """
    S = validate_connection_set(S, spec)
    rows = zip(*[left_translation(spec.index(s), spec) for s in S])
    return _trusted_graph(spec.order, tuple(tuple(sorted(row)) for row in rows))


def _trusted_graph(n: int, adjacency: tuple[tuple[int, ...], ...]) -> Graph:
    """A Graph of rows valid by construction, skipping the checks of
    ``Graph.__init__``.

    A Cayley graph's rows need no check: the four left translations by
    distinct s map x to distinct s*x, none is x since 1 is not in S, and
    y = s*x gives x = s^-1*y with s^-1 in S, so the rows are symmetric.
    Nor do ``from_graph6``'s: the bit of each pair i < j < n adds j to row
    i and i to row j, and the bits are read by ascending j, each column by
    ascending i, so every row gets its lower neighbours, then its upper
    ones, each in ascending order.
    """
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adjacency", adjacency)
    return g


# ------------------------------------------------------------ packed rows

def packed_rows(g: Graph, order: Sequence[int] | None = None) -> tuple[int, ...]:
    """Adjacency matrix as one int per position, position i holding vertex
    ``order[i]`` (vertex i when ``order`` is None).

    Bit (n-1-k) of row i is set iff positions i and k are adjacent, so tuple
    comparison is row-major lexicographic comparison of the matrices.  That
    is not the order of their graph6 strings, which read the upper triangle
    column by column: on 4 vertices the edge {1, 2} has the lesser rows,
    (0, 2, 4, 0) against (1, 0, 0, 8) for the edge {0, 3}, and the greater
    graph6, ``CG`` against ``CC``.
    """
    n = g.n
    if order is None:
        order = range(n)
    # vertex -> the bit of its position
    shift = [0] * n
    for i, v in enumerate(order, 1):
        shift[v] = n - i
    adj = g.adjacency
    key = []
    for v in order:
        row = 0
        for u in adj[v]:
            row |= 1 << shift[u]
        key.append(row)
    return tuple(key)


def are_automorphisms(g: Graph, perms: Sequence[Sequence[int]]) -> bool:
    """Whether every p in ``perms`` permutes the vertices (v -> p[v]) and
    preserves adjacency (see ``is_isomorphism``)."""
    points = list(range(g.n))
    return all(sorted(p) == points and is_isomorphism(g, g, p) for p in perms)


def is_isomorphism(g: Graph, h: Graph, p: Sequence[int]) -> bool:
    """Whether the bijection v -> p[v] from the vertices of g onto those of
    h maps g onto h, given that g and h have as many edges.

    p maps the m edges of g to m distinct pairs, so it maps them onto the
    edges of h iff it maps each edge to an edge, that is, iff p[u] is a
    neighbour of p[v] in h for every v and every u in the row of v.  The
    neighbours of p[v] are marked with v before the row of v is looked at,
    so the test costs O(n + m), whatever the degrees.
    """
    mark = [-1] * g.n
    adj = h.adjacency
    for v, row in enumerate(g.adjacency):
        for w in adj[p[v]]:
            mark[w] = v
        for u in row:
            if mark[p[u]] != v:
                return False
    return True


# ------------------------------------------------------------------ formats

# graph6 body bytes are 63 plus a 6-bit value: sextet -> its body byte, and
# body byte -> the letter base64 writes for the same sextet, so decoding runs
# through binascii
_SEXTETS = bytes(range(63, 127)) + bytes(192)
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_FROM_GRAPH6 = bytes.maketrans(bytes(range(63, 127)), _BASE64)


def to_graph6(g: Graph, order: Sequence[int] | None = None) -> bytes:
    """Bit-exact graph6 of g with position i holding vertex ``order[i]``
    (vertex i when ``order`` is None): size bytes, then the upper triangle
    column by column, six bits to a byte, each byte offset by 63.

    The bit of positions i < j is bit j(j - 1)/2 + i of the body, and only
    the edges set bits, so the body is a bytearray of sextets with one bit
    set per edge and no relabeled graph or packed rows built.
    """
    n = g.n
    size = _graph6_size(n)
    pos = list(range(n))  # vertex -> position
    if order is not None:
        for i, v in enumerate(order):
            pos[v] = i
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    adj = g.adjacency
    for v in range(n):
        j = pos[v]
        column = j * (j - 1) // 2
        for u in adj[v]:
            i = pos[u]
            if i < j:
                k = column + i
                body[k // 6] |= 32 >> k % 6
    return size + body.translate(_SEXTETS)


def _graph6_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    if n <= 68719476735:
        return bytes([126, 126] + [63 + ((n >> k) & 63) for k in range(30, -1, -6)])
    raise ValueError("graph too large for graph6")


def from_graph6(data: bytes | str) -> Graph:
    """Parse graph6 (the inverse of to_graph6)."""
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    # what is left once the bytes 63..126 are deleted is out of range
    if data.translate(None, bytes(range(63, 127))):
        raise ValueError("invalid graph6 byte")
    vals = [c - 63 for c in data[:8]]
    header = 8 if vals[:2] == [63, 63] else 4 if vals[:1] == [63] else 1
    if len(vals) < header:
        raise ValueError("truncated graph6 header")
    # n is the big-endian sextets after the header's 0, 1 or 2 bytes 126
    n = 0
    for v in vals[header // 3 : header]:
        n = (n << 6) | v
    body = data[header:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)}, expected {need}")
    # each body byte is one sextet; whole base64 groups decode to 3 bytes
    text = body.translate(_FROM_GRAPH6) + b"A" * (-len(body) % 4)
    raw = binascii.a2b_base64(text)
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    adj: list[list[int]] = [[] for _ in range(n)]
    pos = 0
    for j in range(1, n):
        column = bits[pos : pos + j]
        i = column.find("1")
        while i >= 0:
            adj[j].append(i)
            adj[i].append(j)
            i = column.find("1", i + 1)
        pos += j
    # each row holds its lower neighbours in order, then its upper ones, so
    # the rows are valid by construction (see _trusted_graph)
    return _trusted_graph(n, tuple(map(tuple, adj)))


def to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"
