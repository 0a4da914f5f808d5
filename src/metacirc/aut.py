"""The automorphism group of G = <c> x (<a> : <b>), odd order.

An automorphism is fixed by its images of a, b and c, and is held as that
triple of elements throughout, until :func:`groups.automorphism_permutation`
walks it out to a vertex permutation.  So (a, b, c) is a base of Aut(G)
acting on G, and :func:`aut_generators` finds a generating set and |Aut(G)|
by a search along that known base, one automorphism per new point of each
basic orbit, without listing Aut(G).

For Sylow-cyclic specs every automorphism acts as

    a -> a^s,   b -> a^t b^(1+l*n0),   c -> c^sc,

with gcd(s, m) = 1, gcd(1+l*n0, n) = 1, gcd(sc, ell) = 1 and
t * (r + r^2 + ... + r^n) = 0 (mod m), which ``_t_count`` of the m values
of t satisfy.  The t-constraint is vacuous when <a> meets the centre trivially
(then the sum is 0 mod m and the count is phi(m) * m * (n/n0) * phi(ell));
on decomposable presentations it restricts t to the multiples of
gcd(r-1, m), m / gcd(r-1, m) values.  The search takes its candidate
images from this shape there.

Outside the Sylow-cyclic case <a> need not be characteristic and this shape
misses automorphisms, so the candidates are the elements of the right
orders.  Either way a candidate triple is kept only when it satisfies the
defining relation b'^-1 a' b' = a'^r and generates G, which the exponent
arithmetic of :func:`groups.generates` decides (:func:`_completions`).
"""

from __future__ import annotations

from math import gcd
from operator import getitem
from typing import Iterable, Iterator

from metacirc import permgroup
from metacirc.errors import BoundExceeded
from metacirc.groups import (
    Element,
    GroupSpec,
    automorphism_permutation,
    element_order,
    euler_phi,
    generates,
    inv,
    mul,
    power,
)

# most elements of a non-Sylow-cyclic group whose automorphisms are searched
SEARCH_BOUND = 4000

Triple = tuple[Element, Element, Element]


def _t_count(spec: GroupSpec) -> int:
    """gcd(r + r^2 + ... + r^n, m), the number of t mod m with
    t * (r + ... + r^n) = 0.  r^n0 = 1 and n0 divides n, so the sum is n/n0
    times the sum of the power table, r^0 + ... + r^(n0-1), mod m."""
    return gcd(spec.n // spec.n0 * sum(map(spec.rpow, range(spec.n0))), spec.m)


def _parametrized_images(spec: GroupSpec) -> tuple[list[Element], list[Element], list[Element]]:
    """The images a^s, a^t b^(1+l*n0) and c^sc of a Sylow-cyclic spec's
    automorphisms, each in ascending parameter order."""
    m, n, ell, n0 = spec.m, spec.n, spec.ell, spec.n0
    t_step = m // _t_count(spec)
    a_images = [Element(s, 0, 0) for s in range(m) if gcd(s, m) == 1]
    b_images = [
        Element(t, (1 + l * n0) % n, 0)
        for t in range(0, m, t_step)
        for l in range(n // n0)
        if gcd(1 + l * n0, n) == 1
    ]
    c_images = [Element(0, 0, s_c) for s_c in range(ell) if gcd(s_c, ell) == 1]
    return a_images, b_images, c_images


def parametrized_count(spec: GroupSpec) -> int:
    """|Aut(G)| for a Sylow-cyclic spec, without enumerating."""
    if not spec.sylow_cyclic:
        raise ValueError("count formula needs a Sylow-cyclic spec")
    m, n, n0 = spec.m, spec.n, spec.n0
    l_count = sum(1 for l in range(n // n0) if gcd(1 + l * n0, n) == 1)
    return euler_phi(m) * _t_count(spec) * l_count * euler_phi(spec.ell)


def _image_candidates(spec: GroupSpec) -> tuple[list[Element], list[Element], list[Element]]:
    """The elements of order m, of order n, and the central elements of
    order ell, each in element order.  Refuses groups of more than
    ``SEARCH_BOUND`` elements."""
    if spec.order > SEARCH_BOUND:
        raise BoundExceeded(f"group order {spec.order} exceeds brute-force bound {SEARCH_BOUND}")
    a, b = spec.generator_a(), spec.generator_b()
    elements = list(spec.elements())
    orders = {g: element_order(g, spec) for g in elements}
    a_cands = [g for g in elements if orders[g] == spec.m]
    b_cands = [g for g in elements if orders[g] == spec.n]
    c_cands = [
        g
        for g in elements
        if orders[g] == spec.ell
        and mul(g, a, spec) == mul(a, g, spec)
        and mul(g, b, spec) == mul(b, g, spec)
    ]
    return a_cands, b_cands, c_cands


def _completions(
    img_a: Element, b_images: Iterable[Element], c_images: Iterable[Element], spec: GroupSpec
) -> Iterator[Triple]:
    """The automorphisms a -> img_a with b and c sent among the given
    candidates, in candidate order.

    Images (a', b', c') of orders m, n and ell, with c' central, that satisfy
    b'^-1 a' b' = a'^r give an endomorphism of G onto <a', b', c'>; it is an
    automorphism iff they generate G, which :func:`groups.generates` decides
    from their exponents.
    """
    target = power(img_a, spec.r, spec)
    for img_b in b_images:
        if mul(mul(inv(img_b, spec), img_a, spec), img_b, spec) != target:
            continue
        for img_c in c_images:
            if generates((img_a, img_b, img_c), spec):
                yield img_a, img_b, img_c


def standard_set_stabilizer_order(spec: GroupSpec) -> int:
    """|Aut(G, S_j)| for every theorem j (``predictions.theorem_js``): 2 if
    <a> meets the centre trivially (gcd(r-1, m) = 1), else 1.

    S_j = {x, x^-1, y, y^-1} with x = c b^j and y = w c^-1, w = a b^j.  The
    spec is Sylow-cyclic, so m, n and ell are pairwise coprime, and n0 >= 3
    is odd.  Every automorphism sends b to a^t b^(1+l*n0), so it keeps each
    b-exponent mod n0: x and y have j, their inverses -j != j.  And x, y
    generate G: b = x^k and c = x^k' for k = 1/j mod n, k = 0 mod ell,
    k' = 0 mod n, k' = 1 mod ell, and a = c^2 y x^-1.  So an automorphism
    mapping S_j onto itself is the identity or swaps x and y.

    A swap needs o(y) = o(x) = n*ell, that is o(w) = n.  Then a -> a^-1,
    b -> w^k, c -> c^-1 is one: w^k = a^u b, so the images satisfy the
    presentation and generate G, and the map sends x = b^j c to w c^-1 = y
    and y to a^-1 w c = x.  w^n = a^((n/n0)(1 + r + ... + r^(n0-1))), as
    r^-j runs over <r>.  For a prime p | m, the sum is 0 mod p's power in
    m if r != 1 (mod p), as (r-1) times it is r^n0 - 1, and n0 mod p if
    r = 1 (mod p), where p does not divide n.  So o(w) = n iff
    gcd(r-1, m) = 1.

    By the same b-exponents, S_j' lies in the orbit of S_j only for
    j' = +-j (mod n0), so j is its least standard j.  A swap fixes vertex 0
    and maps edge {0, x} to {0, y}, and the right translations by x and y
    join {0, x^-1} to {0, x} and {0, y^-1} to {0, y}: the graph is then
    edge-transitive.
    """
    return 2 if spec.central_a_order == 1 else 1


def aut_generators(spec: GroupSpec) -> tuple[list[list[int]], int]:
    """A generating set of Aut(G) as vertex permutations, and |Aut(G)|.

    (a, b, c) is a base of Aut(G), so its chain of stabilizers
    Aut(G) >= Aut(G)_a >= Aut(G)_(a,b) >= 1 ends in the identity.  The
    levels are taken bottom up: the images of c with a and b fixed, then the
    images of b with a fixed, then the images of a.  At each level, a
    candidate image already in the orbit of the base point under the
    generators found so far is skipped; for any other, the first completion
    (:func:`_completions`) to an automorphism fixing the base points above,
    if there is one, becomes a generator and the orbit is extended.  A
    candidate with no completion lies off the basic orbit, and so does its
    whole orbit under the generators so far, which is skipped too.

    The candidates hold every image of the base point, so each level's orbit
    ends as its whole basic orbit, and the generators found at a level and
    below generate that level's group, whose stabilizer is the next level's
    group (Schreier-Sims with a known base: Holt, Eick & O'Brien, *Handbook
    of Computational Group Theory*, 2005, 4.4).  The bottom level acts regularly, so
    |Aut(G)| is the product of the three orbit lengths, with no sifting.

    Every group takes the same levels and the same completion rule, the
    relation and the generation test; only the candidates differ.
    Sylow-cyclic specs take them from the (s, t, l, s_c) parametrization
    (:func:`_parametrized_images`), so no element order is computed.  Other
    specs take the elements of the right orders (:func:`_image_candidates`),
    and refuse groups of more than ``SEARCH_BOUND`` elements.
    """
    a, b, c = spec.generator_a(), spec.generator_b(), spec.generator_c()
    a_cands, b_cands, c_cands = (
        _parametrized_images(spec) if spec.sylow_cyclic else _image_candidates(spec)
    )
    # each level: base point, candidate images, and the completions of a
    # candidate by the base points above it
    levels = [
        (c, c_cands, lambda x: _completions(a, (b,), (x,), spec)),
        (b, b_cands, lambda x: _completions(a, (x,), c_cands, spec)),
        (a, a_cands, lambda x: _completions(x, b_cands, c_cands, spec)),
    ]
    gens: list[list[int]] = []
    order = 1
    for base, candidates, completions in levels:
        point = spec.index(base)
        orbit = permgroup.orbit(point, gens, getitem)
        failed: set[int] = set()
        for x in candidates:
            i = spec.index(x)
            if i in orbit or i in failed:
                continue
            f = next(completions(x), None)
            if f is None:
                # the generators so far lie in this level's group, which
                # keeps the points off its basic orbit off it
                failed |= permgroup.orbit(i, gens, getitem)
                continue
            gens.append(automorphism_permutation(f, spec))
            orbit = permgroup.orbit(point, gens, getitem)
        order *= len(orbit)
    return gens, order
