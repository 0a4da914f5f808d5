"""Exact arithmetic in odd-order split metacyclic groups.

The groups handled here are G = <c> x (<a> : <b>) with presentation

    a^m = b^n = c^ell = 1,   a^b = a^r,   c central,

where m, n, ell are odd and r^n = 1 (mod m).  Every element has a unique
normal form a^u b^v c^w with 0 <= u < m, 0 <= v < n, 0 <= w < ell, stored
as an :class:`Element` triple.  All operations are pure functions of
immutable values.

Vertex indexing is fixed at u + m*v + m*n*w and is part of the external
report contract.

The product rule, and with it the split relation b^n = 1, is written out
only in :func:`mul` and :func:`inv` for elements, in :func:`left_translation`
for vertex indices, and in the commutator of :func:`generates`.  Every other
vertex map (the right translations, the automorphisms' permutations) is one
walk over left translations (:func:`_walk`), inversion is one walk over right
translations, and :func:`power` is square-and-multiply on :func:`mul`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence


class Element(NamedTuple):
    """Normal-form exponent triple a^u b^v c^w."""

    u: int
    v: int
    w: int


IDENTITY = Element(0, 0, 0)


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out -= out // p
    return out


def multiplicative_order(x: int, m: int) -> int:
    """Least k >= 1 with x^k = 1 (mod m); requires gcd(x, m) = 1.

    The order divides phi(m) (Euler), so it is phi(m) with each prime p
    divided out for as long as x^(k/p) = 1 still holds.
    """
    if m == 1:
        return 1
    if gcd(x, m) != 1:
        raise ValueError(f"{x} is not a unit mod {m}")
    k = euler_phi(m)
    for p in prime_factors(k):
        while k % p == 0 and pow(x, k // p, m) == 1:
            k //= p
    return k


class GroupSpec:
    """Presentation parameters (m, n, r, ell) of G = <c> x (<a> : <b>).

    A spec is immutable: its fields are m, n, r (reduced mod m) and ell,
    which its equality, hash, repr and pickle read, and two derived at
    construction, which they do not:

    * ``n0``: multiplicative order of r mod m (1 when m = 1); <b^n0> is the
      central part of <b>.
    * ``_r_pow``: the powers r^0, ..., r^(n0-1) mod m, read by ``rpow``.

    Derived properties:

    * ``sylow_cyclic``: all Sylow subgroups of G are cyclic, i.e.
      gcd(m, n) = 1 and gcd(ell, m*n) = 1.
    * ``hypothesis_star``: no Sylow p-subgroup of <b> is central, i.e. every
      prime dividing n also divides n0.
    """

    __slots__ = ("m", "n", "r", "ell", "n0", "_r_pow")

    m: int
    n: int
    r: int
    ell: int
    n0: int
    _r_pow: tuple[int, ...]

    def __init__(self, m: int, n: int, r: int, ell: int = 1) -> None:
        for name, val in (("m", m), ("n", n), ("ell", ell)):
            if val < 1 or val % 2 == 0:
                raise ValueError(f"{name} must be a positive odd integer, got {val}")
        r %= m
        if gcd(r, m) != 1:
            raise ValueError(f"gcd(r, m) must be 1, got r={r}, m={m}")
        if pow(r, n, m) != 1 % m:
            raise ValueError(f"r^n must be 1 mod m, got r={r}, n={n}, m={m}")
        n0 = multiplicative_order(r, m)
        # power table; r^n0 = 1, so r^v = r^(v mod n0) for any integer v
        pows = [1 % m]
        for _ in range(n0 - 1):
            pows.append(pows[-1] * r % m)
        for name, val in zip(self.__slots__, (m, n, r, ell, n0, tuple(pows))):
            object.__setattr__(self, name, val)

    def _key(self) -> tuple[int, int, int, int]:
        return (self.m, self.n, self.r, self.ell)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GroupSpec:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"GroupSpec(m={self.m!r}, n={self.n!r}, r={self.r!r}, ell={self.ell!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt from the four parameters, as a worker process receives it
        return GroupSpec, self._key()

    @property
    def order(self) -> int:
        return self.m * self.n * self.ell

    @property
    def sylow_cyclic(self) -> bool:
        return gcd(self.m, self.n) == 1 and gcd(self.ell, self.m * self.n) == 1

    @property
    def hypothesis_star(self) -> bool:
        return all(self.n0 % p == 0 for p in prime_factors(self.n))

    @property
    def is_abelian(self) -> bool:
        return self.m == 1 or self.r == 1

    @property
    def central_a_order(self) -> int:
        """Order of <a> ∩ Z(G), i.e. gcd(r-1, m); 1 means <a> meets the centre trivially."""
        return gcd(self.r - 1, self.m)

    def rpow(self, v: int) -> int:
        """r^v mod m for any integer v."""
        return self._r_pow[v % self.n0]

    def element(self, u: int, v: int, w: int = 0) -> Element:
        return Element(u % self.m, v % self.n, w % self.ell)

    def index(self, g: Element) -> int:
        """Fixed vertex index u + m*v + m*n*w."""
        return g.u + self.m * (g.v + self.n * g.w)

    def at_index(self, i: int) -> Element:
        u = i % self.m
        i //= self.m
        return Element(u, i % self.n, i // self.n)

    def elements(self) -> Iterable[Element]:
        """All group elements in vertex-index order."""
        for w in range(self.ell):
            for v in range(self.n):
                for u in range(self.m):
                    yield Element(u, v, w)

    def generator_a(self) -> Element:
        return self.element(1, 0, 0)

    def generator_b(self) -> Element:
        return self.element(0, 1, 0)

    def generator_c(self) -> Element:
        return self.element(0, 0, 1)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "r": self.r, "ell": self.ell, "n0": self.n0}


def mul(g: Element, h: Element, spec: GroupSpec) -> Element:
    """Product g*h in normal form.

    The a-before-b normal form of (a^u1 b^v1)(a^u2 b^v2) is
    a^(u1 + u2*r^-v1) b^(v1+v2): the b-first product rule pushed back through
    a^x b^v = b^v a^(x r^v).  The central c-exponents simply add.
    """
    return Element(
        (g.u + h.u * spec.rpow(-g.v)) % spec.m,
        (g.v + h.v) % spec.n,
        (g.w + h.w) % spec.ell,
    )


def inv(g: Element, spec: GroupSpec) -> Element:
    """Inverse: (a^u b^v c^w)^-1 = a^(-u r^v) b^-v c^-w."""
    return Element(
        (-g.u * spec.rpow(g.v)) % spec.m,
        -g.v % spec.n,
        -g.w % spec.ell,
    )


def power(g: Element, k: int, spec: GroupSpec) -> Element:
    """g^k by square-and-multiply on :func:`mul`; a negative k powers g^-1."""
    if k < 0:
        g, k = inv(g, spec), -k
    out = IDENTITY
    while k:
        if k & 1:
            out = mul(out, g, spec)
        g = mul(g, g, spec)
        k >>= 1
    return out


def element_order(g: Element, spec: GroupSpec) -> int:
    """Least k >= 1 with g^k = identity.

    The b- and c-exponents of g^k are k*v and k*w, so k is a multiple of
    the order K = lcm(n / gcd(v, n), ell / gcd(w, ell)) of g modulo <a>, and
    g^K = a^u_K is a power of a, of order m / gcd(u_K, m).  One power is
    taken.
    """
    modulo_a = lcm(spec.n // gcd(g.v, spec.n), spec.ell // gcd(g.w, spec.ell))
    return modulo_a * (spec.m // gcd(power(g, modulo_a, spec).u, spec.m))


def generates(elements: Sequence[Element], spec: GroupSpec) -> bool:
    """Whether the elements generate G, decided from their exponents alone.

    Let A = <a> and H the subgroup the elements generate.  Then H = G iff
    HA = G and H<a^p> = G for every prime p | m: if HA = G and H != G,
    then H meets A in <a^d> with d > 1, and for a prime p | d,
    |H<a^p>| = |G|/p.  Each condition is read off a quotient by the
    Burnside basis theorem (Holt, Eick & O'Brien, *Handbook of
    Computational Group Theory*, 2005):

    * G/A = Z_n x Z_ell, so HA = G iff the (v, w) span Z_n x Z_ell modulo
      every prime q | n * ell;
    * in Q = G/<a^p>, A becomes Z_p, and H<a^p> = G iff H maps onto Q.  If
      r = 1 (mod p), Q = Z_p x Z_n x Z_ell by a^u b^v c^w -> (u mod p, v, w),
      so the (u, v if p | n, w if p | ell) must span F_p^d (with d = 3 no
      pair generates).  Otherwise Q is nonabelian, and H's image, Q or a
      complement of Z_p (abelian, as G/A is), is Q iff two elements do not
      commute modulo <a^p>: their commutator's a-exponent is prime to p.
    """
    spans, noncommuting = _generation_tests(spec)
    for q, coords in spans:
        if not _spans([[x[i] % q for i in coords] for x in elements], q, len(coords)):
            return False
    if not noncommuting:
        return True
    # [x, y] = (yx)^-1 xy = a^(k r^(x.v + y.v)), k the a-exponent of xy less yx's
    m, rpow = spec.m, spec.rpow
    ks = [
        (x.u * (1 - rpow(-y.v)) - y.u * (1 - rpow(-x.v))) % m
        for x, y in itertools.combinations(elements, 2)
    ]
    return all(any(k % p for k in ks) for p in noncommuting)


@lru_cache(maxsize=64)
def _generation_tests(
    spec: GroupSpec,
) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], tuple[int, ...]]:
    """What :func:`generates` checks for ``spec``: the primes q with the
    exponents (0 for u, 1 for v, 2 for w) whose vectors must span F_q^d,
    and the primes p | m with r != 1 (mod p), which need a commutator."""
    spans, noncommuting = [], []
    orders = (spec.m, spec.n, spec.ell)
    for q in prime_factors(spec.order):
        central = spec.m % q == 0 and (spec.r - 1) % q == 0
        if spec.m % q == 0 and not central:
            noncommuting.append(q)
        coords = tuple(i for i, k in enumerate(orders) if k % q == 0 and (i or central))
        if coords:
            spans.append((q, coords))
    return tuple(spans), tuple(noncommuting)


def _spans(rows: list[list[int]], q: int, d: int) -> bool:
    """Whether the rows, vectors of length d over F_q, span F_q^d: Gaussian
    elimination, one pivot per column."""
    for col in range(d):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            return False
        scale = pow(pivot[col], -1, q)
        rows = [
            [(x - row[col] * scale * y) % q for x, y in zip(row, pivot)]
            for row in rows
            if row is not pivot
        ]
    return True


@lru_cache(maxsize=64)
def regular_representation(spec: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """The right translations x -> x*a, x -> x*b and x -> x*c of the vertex
    indices: together they generate the regular copy of G inside the
    symmetric group on the vertices.  Cached per spec."""
    return tuple(right_translation(spec.index(g), spec)
                 for g in (spec.generator_a(), spec.generator_b(), spec.generator_c()))


def right_translation(s: int, spec: GroupSpec) -> tuple[int, ...]:
    """Permutation x -> x*s on vertex indices, for the element of index s.

    It sends the identity to s, and g*x to g*(x*s), so it is the walk from s
    that steps by the left translations by a, b and c (:func:`_walk`).
    """
    gens = (spec.generator_a(), spec.generator_b(), spec.generator_c())
    return tuple(_walk(s, [left_translation(spec.index(g), spec) for g in gens], spec))


def inversion(spec: GroupSpec) -> list[int]:
    """Permutation x -> x^-1 on vertex indices.

    It fixes the identity and sends g*x to x^-1 * g^-1, so it is the walk
    from 0 that steps by the right translations by a^-1, b^-1 and c^-1
    (:func:`_walk`).
    """
    gens = (spec.generator_a(), spec.generator_b(), spec.generator_c())
    return _walk(0, [right_translation(spec.index(inv(g, spec)), spec) for g in gens], spec)


def automorphism_permutation(images: Sequence[Element], spec: GroupSpec) -> list[int]:
    """Action on vertex indices of the automorphism f with images
    f(a), f(b), f(c): a^u b^v c^w goes to f(a)^u f(b)^v f(c)^w.

    f fixes the identity and sends g*x to f(g)*f(x), so it is the walk from
    0 that steps by the left translations by f(a), f(b) and f(c)
    (:func:`_walk`); a homomorphism is fixed by its images of the generators
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, 2005).
    """
    return _walk(0, [left_translation(spec.index(g), spec) for g in images], spec)


def _walk(start: int, steps: Sequence[Sequence[int]], spec: GroupSpec) -> list[int]:
    """The map phi on vertex indices with phi(identity) = ``start`` and
    phi(g*x) = steps_g[phi(x)] for g = a, b, c, listed in vertex-index order.

    Index order meets a^(u+1) b^v c^w = a*(a^u b^v c^w) one index after
    a^u b^v c^w, b^(v+1) c^w = b*(b^v c^w) m indices after b^v c^w, and
    c^(w+1) = c*c^w m*n indices after c^w, so each image is one lookup in a
    step table from one listed before it, with no group arithmetic.
    """
    step_a, step_b, step_c = steps
    m, block = spec.m, spec.m * spec.n
    out: list[int] = []
    append = out.append
    for i in range(0, spec.order, m):
        if i == 0:
            x = start
        elif i % block:
            x = step_b[out[i - m]]
        else:
            x = step_c[out[i - block]]
        append(x)
        for _ in range(m - 1):
            x = step_a[x]
            append(x)
    return out


def left_translation(s: int, spec: GroupSpec) -> tuple[int, ...]:
    """Permutation x -> s*x on vertex indices, for the element of index s.

    By the product rule the a-exponent of s*x is s.u + x.u * r^-s.v, a
    function of x's a-exponent alone, while the b- and c-exponents just add.
    So the m images of each block of m consecutive indices (one b- and
    c-exponent) are one fixed block permutation, shifted to the block of s*x.
    No group multiplication is made.  Cached per spec, by index.
    """
    table = _left_translations(spec)
    p = table.get(s)
    if p is None:
        g = spec.at_index(s)
        m, n, ell = spec.m, spec.n, spec.ell
        rinv = spec.rpow(-g.v)
        block = [(g.u + u * rinv) % m for u in range(m)]
        starts = [m * ((g.v + v) % n + n * ((g.w + w) % ell)) for w in range(ell) for v in range(n)]
        if m == 1:
            p = tuple(starts)
        else:
            # slices of the identity, so every table shares one set of ints
            ident, pick = table[0], itemgetter(*block)
            p = tuple(itertools.chain.from_iterable([pick(ident[k : k + m]) for k in starts]))
        table[s] = p
    return p


@lru_cache(maxsize=8)
def _left_translations(spec: GroupSpec) -> dict[int, tuple[int, ...]]:
    """The left translations of ``spec`` built so far, by index; the
    identity's is there from the start."""
    return {0: tuple(range(spec.order))}


def iter_specs(bound: int) -> Iterable[GroupSpec]:
    """All nonabelian (m, n, r) specs with ell = 1, m*n <= bound, hypothesis (*).

    One spec per isomorphism class: replacing b by b^u (u a unit mod n)
    turns the multiplier r into r^u, so one r is kept per cyclic subgroup
    <r>, its least generator, and n runs over odd multiples of n0 all of
    whose prime factors divide n0.
    """
    for m in range(3, bound // 3 + 1, 2):
        # the generators of every <r> kept so far
        seen: set[int] = set()
        for r in range(2, m):
            if r in seen or gcd(r, m) != 1:
                continue
            n0 = multiplicative_order(r, m)
            if n0 % 2 == 0 or n0 < 3:
                continue
            seen.update(pow(r, u, m) for u in range(1, n0) if gcd(u, n0) == 1)
            for k in itertools.count(1, 2):
                n = n0 * k
                if m * n > bound:
                    break
                spec = GroupSpec(m, n, r)
                if spec.hypothesis_star:
                    yield spec
