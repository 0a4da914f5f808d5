"""Connection sets, Cayley graphs, serialization."""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from metacirc.groups import Element, GroupSpec, IDENTITY, inv, left_translation, mul


@dataclass(frozen=True)
class Graph:
    """Simple graph as per-vertex sorted neighbor tuples."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency length must equal n")
        for v, row in enumerate(self.adjacency):
            if list(row) != sorted(set(row)):
                raise ValueError(f"neighbor list of {v} must be sorted and duplicate-free")
            if v in row:
                raise ValueError(f"loop at vertex {v}")
            if any(u < 0 or u >= self.n for u in row):
                raise ValueError("neighbor out of range")
        nbrs = [set(row) for row in self.adjacency]
        for v, row in enumerate(self.adjacency):
            if any(v not in nbrs[u] for u in row):
                raise ValueError("adjacency is not symmetric")

    @property
    def n_edges(self) -> int:
        return sum(len(row) for row in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edge list, each as (u, v) with u < v."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u]]

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


def standard_connection_set(j: int, spec: GroupSpec) -> tuple[Element, ...]:
    """The distinguished set {c b^j, c^-1 a b^j, c^-1 b^-j, c (a b^j)^-1}.

    For ell = 1 this is S_j = {b^j, a b^j, b^-j, (a b^j)^-1}.  Valid for
    1 <= j < n0 with gcd(j, n) = 1.
    """
    if not 1 <= j < spec.n0:
        raise ValueError(f"j must satisfy 1 <= j < n0 = {spec.n0}, got {j}")
    if gcd(j, spec.n) != 1:
        raise ValueError(f"j must be coprime to n = {spec.n}, got {j}")
    c = spec.generator_c()
    x = mul(c, spec.element(0, j, 0), spec)
    y = mul(inv(c, spec), spec.element(1, j, 0), spec)
    return validate_connection_set([x, y, inv(x, spec), inv(y, spec)], spec)


def build_cayley(S: Iterable[Element], spec: GroupSpec) -> Graph:
    """Cayley graph on the vertex indexing: x ~ y iff y * x^-1 in S, i.e. y = s*x.

    Row x zips the images of x under the four left translations by S.
    """
    S = validate_connection_set(S, spec)
    rows = zip(*[left_translation(spec.index(s), spec) for s in S])
    return _trusted_graph(spec.order, tuple(tuple(sorted(row)) for row in rows))


def _trusted_graph(n: int, adjacency: tuple[tuple[int, ...], ...]) -> Graph:
    """A Graph of rows valid by construction, skipping ``__post_init__``.

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
    comparison is row-major lexicographic comparison of the matrices.
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
    preserves adjacency: the rows of g in the order p are those of g."""
    points = list(range(g.n))
    rows = packed_rows(g) if perms else ()
    return all(sorted(p) == points and packed_rows(g, p) == rows for p in perms)


# ------------------------------------------------------------------ formats

# graph6 body bytes are 63 plus a 6-bit value, the same sextets base64
# writes as these letters: the bit packing runs through binascii
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_FROM_GRAPH6 = bytes.maketrans(bytes(range(63, 127)), _BASE64)


def to_graph6(g: Graph) -> bytes:
    """Bit-exact graph6 of g."""
    return graph6_of_rows(packed_rows(g))


def graph6_of_rows(rows: Sequence[int]) -> bytes:
    """Bit-exact graph6 of the packed rows (see ``packed_rows``): size bytes,
    then the upper triangle column by column.

    Column j holds the bits of positions 0..j-1, so it is the top j bits of
    row j, position 0 first.  The concatenated bits are padded to whole
    base64 groups and encoded by ``binascii``.
    """
    n = len(rows)
    size = _graph6_size(n)
    nbits = n * (n - 1) // 2
    if not nbits:
        return size
    bits = "".join([format(rows[j] >> (n - j), f"0{j}b") for j in range(1, n)])
    bits += "0" * (-nbits % 24)
    body = binascii.b2a_base64(int(bits, 2).to_bytes(len(bits) // 8, "big"), newline=False)
    return size + body[: (nbits + 5) // 6].translate(_TO_GRAPH6)


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
    if data and (min(data) < 63 or max(data) > 126):
        raise ValueError("invalid graph6 byte")
    vals = [c - 63 for c in data[:8]]
    header = 8 if vals[:2] == [63, 63] else 4 if vals[:1] == [63] else 1
    if len(vals) < header:
        raise ValueError("truncated graph6 header")
    if header == 8:
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
    elif header == 4:
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
    else:
        n = vals[0]
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
