"""The automorphism group of G = <c> x (<a> : <b>), odd order.

An automorphism is fixed by its images of a, b and c, and is held as that
triple of elements throughout.  For Sylow-cyclic specs every automorphism
acts as

    a -> a^s,   b -> a^t b^(1+l*n0),   c -> c^sc,

with gcd(s, m) = 1, gcd(1+l*n0, n) = 1, gcd(sc, ell) = 1 and
t * rsum(r, n) = 0 (mod m).  The t-constraint is vacuous when <a> meets the
centre trivially (then rsum(r, n) = 0 mod m and the count is
phi(m) * m * (n/n0) * phi(ell)); on decomposable presentations it restricts t
to multiples of m / gcd(r-1, m).

Outside the Sylow-cyclic case <a> need not be characteristic and this shape
misses automorphisms, so :func:`enumerate_aut` refuses there and
:func:`aut_generators` chooses :func:`brute_force_automorphisms` instead.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import Iterable, Sequence

from metacirc import permgroup
from metacirc.errors import BoundExceeded
from metacirc.groups import (
    IDENTITY,
    Element,
    GroupSpec,
    element_order,
    euler_phi,
    inv,
    mul,
    power,
    rsum,
)


def _verify(f: tuple[Element, Element, Element], spec: GroupSpec) -> None:
    img_a, img_b, img_c = f
    assert element_order(img_a, spec) == spec.m
    assert element_order(img_b, spec) == spec.n
    assert element_order(img_c, spec) == spec.ell
    conj = mul(mul(inv(img_b, spec), img_a, spec), img_b, spec)
    assert conj == power(img_a, spec.r, spec) if spec.m > 1 else True


def enumerate_aut(
    spec: GroupSpec, *, verify: bool = False
) -> list[tuple[Element, Element, Element]]:
    """All automorphisms of a Sylow-cyclic spec, as their images of (a, b, c).

    The parameters (s, t, l, s_c) run over their values reduced mod
    (m, m, n/n0, ell), s outermost, so distinct parameters give distinct
    triples.  Raises ValueError for non-Sylow-cyclic specs, where the shape
    is incomplete; use brute_force_automorphisms there.
    """
    if not spec.sylow_cyclic:
        raise ValueError(
            f"Aut parametrization needs a Sylow-cyclic spec; {spec} is not "
            "(use brute_force_automorphisms)"
        )
    m, n, ell, n0 = spec.m, spec.n, spec.ell, spec.n0
    t_step = m // gcd(rsum(spec.r, n, spec), m)
    a_images = [Element(s, 0, 0) for s in range(m) if gcd(s, m) == 1]
    b_images = [
        Element(t, (1 + l * n0) % n, 0)
        for t in range(0, m, t_step)
        for l in range(n // n0)
        if gcd(1 + l * n0, n) == 1
    ]
    c_images = [Element(0, 0, s_c) for s_c in range(ell) if gcd(s_c, ell) == 1]
    out = list(product(a_images, b_images, c_images))
    if verify:
        for f in out:
            _verify(f, spec)
    return out


def parametrized_count(spec: GroupSpec) -> int:
    """|Aut(G)| for a Sylow-cyclic spec, without enumerating."""
    if not spec.sylow_cyclic:
        raise ValueError("count formula needs a Sylow-cyclic spec")
    m, n, n0 = spec.m, spec.n, spec.n0
    t_count = gcd(rsum(spec.r, n, spec), m)
    l_count = sum(1 for l in range(n // n0) if gcd(1 + l * n0, n) == 1)
    return euler_phi(m) * t_count * l_count * euler_phi(spec.ell)


def brute_force_automorphisms(
    spec: GroupSpec, max_order: int = 4000
) -> list[tuple[Element, Element, Element]]:
    """Exhaustive automorphism search over candidate generator images.

    Independent of the parametrized route: searches all elements of the right
    orders, checks the defining relations, and confirms the images generate.
    Images (a', b', c') that satisfy the relations give an endomorphism whose
    image is <a'><b'><c'>, with <a'> normal and c' central; it is all of G iff
    |<b'><c'>| = n * ell and <a'> meets <b'><c'> trivially.
    """
    if spec.order > max_order:
        raise BoundExceeded(f"group order {spec.order} exceeds brute-force bound {max_order}")
    elements = list(spec.elements())
    orders = {g: element_order(g, spec) for g in elements}
    a_cands = [g for g in elements if orders[g] == spec.m]
    b_cands = [g for g in elements if orders[g] == spec.n]
    c_cands = [
        g
        for g in elements
        if orders[g] == spec.ell
        and mul(g, spec.generator_a(), spec) == mul(spec.generator_a(), g, spec)
        and mul(g, spec.generator_b(), spec) == mul(spec.generator_b(), g, spec)
    ]
    c_powers = [_power_table(g, spec.ell, spec) for g in c_cands]
    out = []
    for img_a in a_cands:
        target = power(img_a, spec.r, spec)
        a_powers = set(_power_table(img_a, spec.m, spec)[1:])
        for img_b in b_cands:
            if mul(mul(inv(img_b, spec), img_a, spec), img_b, spec) != target:
                continue
            b_powers = _power_table(img_b, spec.n, spec)
            for img_c, powers in zip(c_cands, c_powers):
                if _complements(a_powers, b_powers, powers, spec):
                    out.append((img_a, img_b, img_c))
    return out


def _complements(
    a_powers: set[Element], b_powers: list[Element], c_powers: list[Element], spec: GroupSpec
) -> bool:
    """Whether the products of b_powers and c_powers are n * ell distinct
    elements, none of them in a_powers (the non-identity elements of <a'>)."""
    seen: set[Element] = set()
    for x in b_powers:
        for y in c_powers:
            z = mul(x, y, spec)
            if z in seen or z in a_powers:
                return False
            seen.add(z)
    return True


def aut_generators(spec: GroupSpec) -> tuple[list[list[int]], int]:
    """A generating set of Aut(G) as vertex permutations, and |Aut(G)|.

    Aut(G) is listed by :func:`enumerate_aut` for Sylow-cyclic specs and by
    :func:`brute_force_automorphisms` otherwise.  An automorphism is fixed by
    its images of (a, b, c), so Aut(G) acts regularly on the orbit of that
    triple: a map lies in the group generated so far iff its triple lies in
    the generators' orbit of (a, b, c), and the orbit's size is that group's
    order.  Maps are taken greedily in list order until the orbit holds all
    of them.
    """
    maps = enumerate_aut(spec) if spec.sylow_cyclic else brute_force_automorphisms(spec)
    abc = (spec.generator_a(), spec.generator_b(), spec.generator_c())
    base = tuple(map(spec.index, abc))
    gens: list[list[int]] = []
    orbit = {base}
    for f in maps:
        if len(orbit) == len(maps):
            break
        if tuple(map(spec.index, f)) in orbit:
            continue
        gens.append(_permutation(f, spec))
        orbit = permgroup.orbit(base, gens, lambda p, t: tuple(p[x] for x in t))
    return gens, len(orbit)


def _permutation(f: tuple[Element, Element, Element], spec: GroupSpec) -> list[int]:
    """Action on vertex indices of the automorphism with images f of
    (a, b, c): a^u b^v c^w goes to f(a)^u f(b)^v f(c)^w."""
    img_a, img_b, img_c = f
    a_pow = _power_table(img_a, spec.m, spec)
    b_pow = _power_table(img_b, spec.n, spec)
    c_pow = _power_table(img_c, spec.ell, spec)
    perm = [0] * spec.order
    for g in spec.elements():
        image = mul(mul(a_pow[g.u], b_pow[g.v], spec), c_pow[g.w], spec)
        perm[spec.index(g)] = spec.index(image)
    return perm


def set_orbit(S: Iterable[int], gens: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """Orbit of the vertex-index set S under the group the permutations
    ``gens`` generate, each set as a sorted tuple.

    With ``gens`` from :func:`aut_generators`, the orbit has
    |Aut(G)| / |Aut(G, S)| sets and its least member is the same for every
    set in it, so it serves as an Aut(G)-canonical key.
    """
    return permgroup.orbit(tuple(sorted(S)), gens, lambda p, t: tuple(sorted(map(p.__getitem__, t))))


def _power_table(g: Element, count: int, spec: GroupSpec) -> list[Element]:
    out = [IDENTITY]
    for _ in range(count - 1):
        out.append(mul(out[-1], g, spec))
    return out
