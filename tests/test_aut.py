from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from itertools import product
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metacirc import aut, classify, permgroup
from metacirc.aut import aut_generators, parametrized_count, standard_set_stabilizer_order
from metacirc.errors import BoundExceeded
from metacirc.groups import (
    IDENTITY,
    Element,
    GroupSpec,
    element_order,
    euler_phi,
    inv,
    iter_specs,
    mul,
    power,
)
from metacirc.predictions import standard_connection_set, theorem_js
from oracles import (
    apply_aut,
    aut_permutation,
    aut_permutations,
    aut_stabilizer,
    aut_triples,
    closure_size,
    group_elements,
    set_orbit,
)

F21 = GroupSpec(7, 3, 2)
Z5 = GroupSpec(5, 1, 1)

PARAMETRIZED_SPECS = [
    Z5,
    F21,
    GroupSpec(7, 3, 4),
    GroupSpec(13, 3, 3),
    GroupSpec(11, 5, 3),
    GroupSpec(7, 9, 2),
    GroupSpec(35, 3, 16),
    GroupSpec(7, 3, 2, ell=5),
    GroupSpec(1, 9, 0),
]


def identity_map(spec):
    return (spec.generator_a(), spec.generator_b(), spec.generator_c())


# the oracle's list of Aut(G), shared by the hypothesis examples
cached_aut_triples = lru_cache(maxsize=None)(aut_triples)


# ------------------------------------------------------------------- apply

def test_apply_identity_map():
    for g in F21.elements():
        assert apply_aut(identity_map(F21), g, F21) == g


def test_apply_frozen_example():
    f = (Element(6, 0, 0), Element(0, 1, 0), IDENTITY)  # a -> a^6, b -> b
    assert apply_aut(f, Element(1, 1, 0), F21) == Element(6, 1, 0)
    assert apply_aut(f, IDENTITY, F21) == IDENTITY


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_apply_is_a_homomorphism(data):
    spec = data.draw(st.sampled_from(PARAMETRIZED_SPECS))
    maps = cached_aut_triples(spec)
    f = data.draw(st.sampled_from(maps))
    g = spec.at_index(data.draw(st.integers(0, spec.order - 1)))
    h = spec.at_index(data.draw(st.integers(0, spec.order - 1)))
    assert apply_aut(f, mul(g, h, spec), spec) == mul(
        apply_aut(f, g, spec), apply_aut(f, h, spec), spec
    )


# --------------------------------------------------------------- enumerate

def test_enumerate_counts_frozen():
    for spec, count in ((F21, 42), (GroupSpec(23, 11, 2), 506), (Z5, 4), (GroupSpec(1, 9, 0), 6)):
        assert len(aut_triples(spec)) == aut_generators(spec)[1] == count


def test_enumerate_formula_on_specs_with_trivial_a_centre():
    for spec in [F21, GroupSpec(13, 3, 3), GroupSpec(11, 5, 3), GroupSpec(7, 9, 2), GroupSpec(23, 11, 2)]:
        assert spec.central_a_order == 1
        expected = euler_phi(spec.m) * spec.m * (spec.n // spec.n0) * euler_phi(spec.ell)
        assert len(aut_triples(spec)) == expected == parametrized_count(spec)


def test_enumerate_on_decomposable_presentation():
    # Z5 x (Z7:Z3) written on m = 35: t is forced into multiples of 5, so the
    # naive phi(m)*m*(n/n0) = 840 overcounts; the true order is 168
    spec = GroupSpec(35, 3, 16)
    maps = aut_triples(spec)
    assert len(maps) == 168 == parametrized_count(spec)
    assert all(img_b.u % 5 == 0 for _, img_b, _ in maps)


def test_enumerate_rejects_non_sylow_cyclic():
    with pytest.raises(ValueError):
        parametrized_count(GroupSpec(9, 3, 4))
    with pytest.raises(ValueError):
        parametrized_count(GroupSpec(3, 3, 1))


def test_enumerate_has_no_duplicates():
    """Distinct parameters give distinct images, so the count formula
    counts the parametrized triples."""
    for spec in PARAMETRIZED_SPECS:
        images = aut._parametrized_images(spec)
        assert all(len(set(xs)) == len(xs) for xs in images)
        assert all(type(x) is Element for xs in images for x in xs)
        assert prod(map(len, images)) == parametrized_count(spec)


@pytest.mark.parametrize("spec", PARAMETRIZED_SPECS, ids=str)
def test_enumerate_matches_brute_force(spec):
    """The parametrization, the candidate images of the Sylow-cyclic
    search, gives exactly the automorphisms the oracle finds."""
    assert set(product(*aut._parametrized_images(spec))) == set(aut_triples(spec))


def test_brute_force_on_non_sylow_cyclic_specs():
    # modular group of order 27: 54 automorphisms, of which only 18 keep <a>
    # setwise invariant, so the parametrized shape would be incomplete here
    m27 = GroupSpec(9, 3, 4)
    maps = aut_triples(m27)
    assert len(maps) == 54
    assert all(len(f) == 3 and all(type(x) is Element for x in f) for f in maps)
    shaped = [f for f in maps if f[0].v == 0]
    assert len(shaped) == 18
    assert len(aut_triples(GroupSpec(45, 3, 16))) == 216


@pytest.mark.parametrize("spec", [GroupSpec(9, 3, 4), GroupSpec(9, 9, 4), GroupSpec(25, 5, 6)], ids=str)
def test_brute_force_matches_closure_reference(spec):
    # reference: the image triples that satisfy the relations and whose
    # closure is all of G; the search's completion rule takes a complement
    # test in place of the closure
    a, b = spec.generator_a(), spec.generator_b()
    order = {g: element_order(g, spec) for g in spec.elements()}
    central = [g for g in spec.elements() if mul(g, a, spec) == mul(a, g, spec) and mul(g, b, spec) == mul(b, g, spec)]
    expected = [
        (x, y, z)
        for x in spec.elements()
        if order[x] == spec.m
        for y in spec.elements()
        if order[y] == spec.n and mul(mul(inv(y, spec), x, spec), y, spec) == power(x, spec.r, spec)
        for z in central
        if order[z] == spec.ell and closure_size([x, y, z], spec) == spec.order
    ]
    gens, order = aut_generators(spec)
    assert abc_orbit(spec, gens) == {tuple(map(spec.index, f)) for f in expected}
    assert order == len(expected)


def test_bijectivity_via_image_closure():
    for spec in (F21, GroupSpec(7, 9, 2)):
        for f in abc_orbit(spec, aut_generators(spec)[0]):
            assert closure_size(map(spec.at_index, f), spec) == spec.order


# ------------------------------------------------------------- conjugacy

def test_powers_of_b_conjugate_to_shifted_forms():
    # b^j lies in one orbit with a^t b^(j + l*n0) for gcd(j, n) = 1
    for spec in (F21, GroupSpec(7, 9, 2)):
        maps = aut_triples(spec)
        for j in range(1, spec.n):
            if gcd(j, spec.n) != 1:
                continue
            orbit = {apply_aut(f, Element(0, j, 0), spec) for f in maps}
            expected = {
                Element(t, v, 0)
                for t in range(spec.m)
                for v in range(spec.n)
                if (v - j) % spec.n0 == 0 and gcd(v, spec.n) == 1
            }
            assert orbit == expected


def test_b_never_conjugate_to_its_inverse():
    for spec in (F21, GroupSpec(7, 9, 2), GroupSpec(11, 5, 3)):
        maps = aut_triples(spec)
        for j in range(1, spec.n):
            if gcd(j, spec.n) != 1 or j % spec.n0 == 0:
                continue
            target = Element(0, (spec.n - j) % spec.n, 0)
            assert all(apply_aut(f, Element(0, j, 0), spec) != target for f in maps)


# ----------------------------------------------------------- stabilizers

def S1(spec):
    x = Element(0, 1 % spec.n, 0)
    y = Element(1 % spec.m, 1 % spec.n, 0)
    return (x, y, inv(x, spec), inv(y, spec))


def test_aut_stabilizer_standard_set():
    stab = aut_stabilizer(S1(F21), F21, aut_triples(F21))
    assert len(stab) == 2
    assert identity_map(F21) in stab


@pytest.mark.parametrize(
    "spec",
    [F21, GroupSpec(11, 5, 3), GroupSpec(7, 9, 2), GroupSpec(19, 9, 4), GroupSpec(7, 3, 2, ell=5),
     GroupSpec(35, 3, 11), GroupSpec(33, 5, 4)],
    ids=lambda s: f"{s.m}-{s.n}-{s.r}-{s.ell}",
)
def test_standard_set_stabilizer_order_matches_the_oracle(spec):
    """|Aut(G, S_j)| is the oracle's count for each theorem j; where <a>
    meets the centre trivially, the one automorphism besides the identity
    is a -> a^-1, b -> (a b^j)^k, c -> c^-1, with k = 1/j mod n and
    k = 0 mod ell, and it swaps x = c b^j and y = c^-1 a b^j.  (35,3,11)
    and (33,5,4) have <a> meeting the centre."""
    triples = cached_aut_triples(spec)
    swaps = spec.central_a_order == 1
    for j in theorem_js(spec):
        S = standard_connection_set(j, spec)
        stabilizer = aut_stabilizer(S, spec, triples)
        assert standard_set_stabilizer_order(spec) == len(stabilizer) == 1 + swaps
        if swaps:
            k = spec.ell * pow(j * spec.ell, -1, spec.n)
            swap = (inv(spec.generator_a(), spec), power(spec.element(1, j, 0), k, spec),
                    inv(spec.generator_c(), spec))
            assert set(stabilizer) == {identity_map(spec), swap}
            x, y = spec.element(0, j, 1), spec.element(1, j, -1)
            assert (apply_aut(swap, x, spec), apply_aut(swap, y, spec)) == (y, x)


def test_aut_stabilizer_complete_graph_set():
    S = [Element(u, 0, 0) for u in range(1, 5)]
    assert len(aut_stabilizer(S, Z5, aut_triples(Z5))) == 4


def test_aut_stabilizer_trivial_case():
    # asymmetric generating set in Z11:Z5 fixed by nothing but the identity
    spec = GroupSpec(11, 5, 3)
    S = [Element(0, 1, 0), Element(1, 2, 0), Element(2, 3, 0), Element(0, 4, 0)]
    assert frozenset(inv(x, spec) for x in S) == frozenset(S)
    assert len(aut_stabilizer(S, spec, aut_triples(spec))) == 1


def test_aut_stabilizer_brute_force_backend():
    # non-Sylow-cyclic spec
    spec = GroupSpec(9, 3, 4)
    S = S1(spec)
    stab = aut_stabilizer(S, spec, aut_triples(spec))
    assert len(stab) >= 1
    for f in stab:
        assert frozenset(apply_aut(f, x, spec) for x in S) == frozenset(S)


# ------------------------------------------------------- orbit canonical

@lru_cache(maxsize=None)
def every_orbit(spec):
    """(least member, size) of every Aut(G)-orbit on raw sets, generating or
    not: the census's walk with ``generates`` accepting every set.  Cached,
    as several tests walk each spec."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "generates", lambda *args: True)
        return {(rep, size) for rep, size, _ in classify.orbit_representatives(spec, aut_generators(spec)[0], {})}


def pair_orbit(S, spec):
    """The Aut(G)-orbit of the set S of elements, each member as a sorted
    vertex-index tuple, under the census's generators of Aut(G); its least
    member and size are those of an orbit the census's walk reports."""
    orbit = sorted(set_orbit([spec.index(x) for x in S], aut_generators(spec)[0]))
    assert (orbit[0], len(orbit)) in every_orbit(spec)
    return orbit


def orbit_min(S, spec):
    """Aut(G)-canonical key of S: the least set in its orbit."""
    return min(pair_orbit(S, spec))


def test_set_orbit_canonical_idempotent_and_orbit_invariant():
    spec = F21
    maps = aut_triples(spec)
    S = S1(spec)
    canon = orbit_min(S, spec)
    assert orbit_min([spec.at_index(i) for i in canon], spec) == canon
    rng = random.Random(11)
    for _ in range(20):
        f = rng.choice(maps)
        image = [apply_aut(f, x, spec) for x in S]
        assert orbit_min(image, spec) == canon


def test_set_orbit_canonical_frozen_example():
    spec = F21
    other = (Element(0, 1, 0), Element(3, 1, 0), Element(0, 2, 0), inv(Element(3, 1, 0), spec))
    assert orbit_min(other, spec) == orbit_min(S1(spec), spec)
    assert orbit_min(S1(spec), spec) == tuple(
        spec.index(x)
        for x in (Element(0, 1, 0), Element(1, 1, 0), Element(0, 2, 0), Element(5, 2, 0))
    )


# ------------------------------------------------------- generating set

# Sylow-cyclic specs (parametrized candidates) and others (elements of the right orders)
GENERATOR_SPECS = [
    GroupSpec(7, 3, 2),
    GroupSpec(11, 5, 3, ell=3),
    GroupSpec(9, 3, 4),
    GroupSpec(25, 5, 6),
]


@pytest.mark.parametrize("spec", GENERATOR_SPECS, ids=lambda s: f"{s.m}-{s.n}-{s.r}-{s.ell}")
def test_aut_generators_generate_aut(spec):
    # the order itself is checked against the oracle with ORACLE_SPECS
    gens, order = aut_generators(spec)
    assert len(group_elements(gens, spec.order)) == order
    assert len(gens) < order


def test_set_orbit_size_is_index_of_stabilizer():
    for spec in (F21, GroupSpec(9, 3, 4)):
        gens, order = aut_generators(spec)
        S = S1(spec)
        orbit = pair_orbit(S, spec)
        assert len(set(orbit)) == len(orbit)
        assert set(orbit) == set_orbit((spec.index(x) for x in S), gens)
        assert len(orbit) * len(aut_stabilizer(S, spec, aut_triples(spec))) == order
        assert all(t == tuple(sorted(t)) and len(t) == 4 for t in orbit)


# ---------------------------------------------------- vertex permutations

def test_aut_generators_consistent_with_apply():
    """Each generator is the apply_aut permutation of its images of (a, b, c)."""
    for spec in (F21, GroupSpec(11, 5, 3), GroupSpec(7, 3, 2, ell=5), GroupSpec(9, 3, 4)):
        perms = dict(zip(aut_triples(spec), aut_permutations(spec)))
        gens, _ = aut_generators(spec)
        for p in gens:
            f = tuple(spec.at_index(p[spec.index(x)]) for x in identity_map(spec))
            assert p == perms[f]


def test_aut_generators_lists_no_automorphism_group(monkeypatch):
    """The Sylow-cyclic levels of the known-base search need no element
    order."""
    def refused(*args, **kwargs):
        raise AssertionError("an element order was computed")

    monkeypatch.setattr(aut, "element_order", refused)
    for spec in PARAMETRIZED_SPECS + [GroupSpec(29, 7, 7, ell=3)]:
        aut_generators(spec)


# ------------------------------------------------------- known-base search

ORACLE_SPECS = list(iter_specs(231)) + [
    GroupSpec(11, 5, 3, ell=3),
    GroupSpec(9, 9, 4),
    GroupSpec(25, 5, 6, ell=3),
]


def abc_orbit(spec, gens):
    base = tuple(spec.index(x) for x in identity_map(spec))
    return permgroup.orbit(base, gens, lambda p, t: tuple(p[x] for x in t))


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
def test_aut_generators_generate_the_oracle_aut(spec):
    """The generators reach exactly the automorphisms the oracle finds, as
    images of (a, b, c), and the order is the product of the basic orbits."""
    gens, order = aut_generators(spec)
    triples = {tuple(map(spec.index, f)) for f in aut_triples(spec)}
    assert abc_orbit(spec, gens) == triples
    assert order == len(triples)


def test_aut_generators_order_is_parametrized_count():
    specs = [s for s in iter_specs(231) if s.sylow_cyclic] + PARAMETRIZED_SPECS + [GroupSpec(29, 7, 7, ell=3)]
    for spec in specs:
        assert aut_generators(spec)[1] == parametrized_count(spec), spec


@pytest.mark.parametrize(
    "spec",
    [s for s in iter_specs(231) if s.sylow_cyclic]
    + [GroupSpec(11, 5, 3, ell=3), GroupSpec(29, 7, 7, ell=3), GroupSpec(7, 3, 2, ell=5)],
    ids=str,
)
def test_sylow_cyclic_candidates_always_complete(spec, monkeypatch):
    """The parametrized candidates are images of automorphisms, so each one
    the search tries has a completion that passes the relation and the
    generation test."""
    calls = []  # per call, how many completions the search took
    completions = aut._completions

    def recorded(*args):
        calls.append(0)
        for f in completions(*args):
            calls[-1] += 1
            yield f

    monkeypatch.setattr(aut, "_completions", recorded)
    aut_generators(spec)
    assert calls and all(calls)


@pytest.mark.parametrize(
    "spec, order",
    [(GroupSpec(9, 27, 4, ell=3), 236196), (GroupSpec(9, 9, 4, ell=9), 708588)],
    ids=["Z3xZ9:Z27", "Z9xZ9:Z9"],
)
def test_aut_generators_on_large_non_sylow_cyclic_groups(spec, order):
    """Groups whose Aut(G) was too large to list in tier-1 time."""
    gens, got = aut_generators(spec)
    assert got == order
    assert all(sorted(p) == list(range(spec.order)) for p in gens)


AUT_GENERATORS = Path(__file__).parent / "data" / "aut_generators.json"

# iter_specs(231) and the generation test's extra specs: ell > 1, abelian,
# not Sylow-cyclic
FROZEN_SPECS = list(iter_specs(231)) + [
    GroupSpec(5, 1, 1, ell=5),
    GroupSpec(7, 3, 2, ell=9),
    GroupSpec(9, 3, 4, ell=3),
    GroupSpec(11, 5, 3, ell=3),
    GroupSpec(23, 11, 2),
    GroupSpec(25, 5, 6, ell=3),
]


def aut_digest(spec: GroupSpec) -> str:
    return hashlib.sha256(repr(aut_generators(spec)).encode()).hexdigest()


def test_aut_generators_match_frozen_digests():
    """``aut_generators`` returns the frozen generators, in order, and the
    frozen order, compared by the SHA-256 of their repr.  The digests were
    frozen while completions were still tested by multiplying out
    <b'><c'>; refreeze them (``PYTHONPATH=src:tests python
    tests/test_aut.py``) only for a change meant to alter the generators."""
    frozen = json.loads(AUT_GENERATORS.read_text())
    assert list(frozen) == [repr(spec) for spec in FROZEN_SPECS]
    for spec in FROZEN_SPECS:
        assert aut_digest(spec) == frozen[repr(spec)], spec


def test_aut_generators_keeps_the_search_bound():
    with pytest.raises(BoundExceeded, match="^group order 4185 exceeds brute-force bound 4000$"):
        aut_generators(GroupSpec(3, 3, 1, ell=465))


@pytest.mark.parametrize(
    "spec", ORACLE_SPECS + [GroupSpec(23, 11, 2), GroupSpec(47, 23, 2)], ids=str
)
def test_permutation_matches_products(spec, monkeypatch):
    """Each generator's vertex permutation, the walk from 0 by the left
    translations by its images (``groups.automorphism_permutation``), is
    the permutation a^u b^v c^w -> f(a)^u f(b)^v f(c)^w of its images f,
    built element by element from products."""
    built = []

    def recorded(f, spec):
        p = permutation(f, spec)
        built.append((f, p))
        return p

    permutation = aut.automorphism_permutation
    monkeypatch.setattr(aut, "automorphism_permutation", recorded)
    gens, _ = aut_generators(spec)
    assert [p for _, p in built] == gens
    for f, p in built:
        assert p == aut_permutation(f, spec)


if __name__ == "__main__":
    digests = {repr(spec): aut_digest(spec) for spec in FROZEN_SPECS}
    AUT_GENERATORS.write_text(json.dumps(digests, indent=0) + "\n")
