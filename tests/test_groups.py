from __future__ import annotations

import hashlib
import pickle
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metacirc.aut import _t_count
from metacirc.groups import (
    IDENTITY,
    Element,
    GroupSpec,
    element_order,
    euler_phi,
    generates,
    inv,
    iter_specs,
    left_translation,
    multiplicative_order,
    mul,
    power,
    regular_representation,
    right_translation,
)
from oracles import _generates as search_generates
from oracles import _right_multiplications as right_multiplications
from oracles import (
    canonical_r,
    closure,
    closure_size,
    oracle_mul_index,
    order_mod,
    perm_compose,
    perm_power,
    regular_generator_perms,
)

F21 = GroupSpec(7, 3, 2)
Z5 = GroupSpec(5, 1, 1)

SMALL_SPECS = [
    Z5,
    F21,
    GroupSpec(7, 3, 4),
    GroupSpec(13, 3, 3),
    GroupSpec(11, 5, 3),
    GroupSpec(7, 9, 2),
    GroupSpec(9, 3, 4),          # not Sylow-cyclic
    GroupSpec(35, 3, 16),        # <a> meets the centre: gcd(r-1, m) = 5
    GroupSpec(7, 3, 2, ell=5),   # nontrivial central factor
    GroupSpec(1, 9, 0),          # cyclic, m = 1
    GroupSpec(1, 1, 0, ell=7),   # cyclic, central factor only
]


def spec_strategy():
    return st.sampled_from(SMALL_SPECS)


def element_strategy(spec):
    return st.builds(
        Element,
        st.integers(0, spec.m - 1),
        st.integers(0, spec.n - 1),
        st.integers(0, spec.ell - 1),
    )


# ---------------------------------------------------------------- GroupSpec

def test_spec_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GroupSpec(6, 3, 1)  # even m
    with pytest.raises(ValueError):
        GroupSpec(7, 4, 1)  # even n
    with pytest.raises(ValueError):
        GroupSpec(7, 3, 3)  # 3^3 = 6 != 1 mod 7
    with pytest.raises(ValueError):
        GroupSpec(9, 3, 3)  # gcd(r, m) != 1
    with pytest.raises(ValueError):
        GroupSpec(3, 3, 1, ell=2)  # even ell


def test_spec_derived_values():
    assert F21.n0 == 3
    assert F21.order == 21
    assert F21.sylow_cyclic and F21.hypothesis_star and not F21.is_abelian
    assert Z5.n0 == 1 and Z5.is_abelian and Z5.hypothesis_star

    # hypothesis (*) holds for n = 9 over n0 = 3: the only prime of n divides n0
    assert GroupSpec(7, 9, 2).hypothesis_star
    # ... but fails when a prime of n misses n0
    assert not GroupSpec(7, 15, 2).hypothesis_star
    # modular group of order 27: hypothesis (*) true, Sylow subgroups not cyclic
    m27 = GroupSpec(9, 3, 4)
    assert m27.hypothesis_star and not m27.sylow_cyclic
    # Z5 x (Z7:Z3) presented un-reduced on m = 35
    assert GroupSpec(35, 3, 16).central_a_order == 5
    assert F21.central_a_order == 1


def test_spec_repr_equality_and_hash():
    """The repr names the four parameters, which the frozen digests of
    ``tests/data/aut_generators.json`` are keyed by; a spec is equal to,
    and hashes as, the spec of the same group with r reduced mod m."""
    assert repr(GroupSpec(7, 3, 2)) == "GroupSpec(m=7, n=3, r=2, ell=1)"
    assert repr(GroupSpec(7, 3, 2, 3)) == "GroupSpec(m=7, n=3, r=2, ell=3)"
    assert GroupSpec(7, 3, 9) == GroupSpec(7, 3, 2)
    assert hash(GroupSpec(7, 3, 9)) == hash(GroupSpec(7, 3, 2))
    assert GroupSpec(7, 3, 2) != GroupSpec(7, 3, 4) and GroupSpec(7, 3, 2) != GroupSpec(7, 3, 2, 3)


def test_spec_is_immutable():
    spec = GroupSpec(7, 3, 2)
    for name, value in (("m", 9), ("r", 4), ("n0", 1)):
        with pytest.raises(AttributeError):
            setattr(spec, name, value)
    assert (spec.m, spec.r, spec.n0) == (7, 2, 3)


def test_spec_pickles_by_its_parameters():
    """``parallel_map`` ships specs to worker processes: a pickled spec
    comes back equal, with its power table rebuilt."""
    for spec in (GroupSpec(7, 3, 2), GroupSpec(11, 5, 3, 3), GroupSpec(9, 3, 4)):
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and back.n0 == spec.n0
        assert [back.rpow(v) for v in range(-4, 5)] == [spec.rpow(v) for v in range(-4, 5)]


def test_vertex_indexing_roundtrip():
    for spec in SMALL_SPECS:
        seen = set()
        for g in spec.elements():
            i = spec.index(g)
            assert spec.at_index(i) == g
            seen.add(i)
        assert seen == set(range(spec.order))


# ------------------------------------------------------------------- mul/inv

def test_mul_identity_cases():
    assert mul(IDENTITY, Element(1, 1, 0), F21) == Element(1, 1, 0)
    assert mul(Element(1, 1, 0), IDENTITY, F21) == Element(1, 1, 0)


def test_mul_frozen_examples():
    # (ab)(ab) = a^5 b^2 in Z7:Z3 with r = 2, checked against the
    # right-regular permutation oracle below as well
    assert mul(Element(1, 1, 0), Element(1, 1, 0), F21) == Element(5, 2, 0)
    assert mul(Element(3, 0, 0), Element(5, 0, 0), F21) == Element(1, 0, 0)


def test_inv_frozen_examples():
    assert inv(IDENTITY, F21) == IDENTITY
    assert inv(Element(1, 1, 0), F21) == Element(5, 2, 0)
    assert inv(Element(4, 0, 0), F21) == Element(3, 0, 0)


@given(spec=spec_strategy(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_mul_inverse_and_associativity(spec, data):
    g = data.draw(element_strategy(spec))
    h = data.draw(element_strategy(spec))
    k = data.draw(element_strategy(spec))
    assert mul(g, inv(g, spec), spec) == IDENTITY
    assert mul(inv(g, spec), g, spec) == IDENTITY
    assert mul(mul(g, h, spec), k, spec) == mul(g, mul(h, k, spec), spec)


def test_mul_against_regular_permutation_oracle():
    rng = random.Random(2025)
    for spec in SMALL_SPECS:
        for _ in range(40):
            i = rng.randrange(spec.order)
            j = rng.randrange(spec.order)
            g, h = spec.at_index(i), spec.at_index(j)
            expected = oracle_mul_index(i, j, spec.m, spec.n, spec.r, spec.ell)
            assert spec.index(mul(g, h, spec)) == expected


def test_commutation_rule_matches_normal_form():
    # a^u b^v = b^v a^(u r^v): multiply out the right side and compare
    for spec in (F21, GroupSpec(13, 3, 3), GroupSpec(7, 9, 2)):
        for u in range(spec.m):
            for v in range(spec.n):
                lhs = mul(Element(u, 0, 0), Element(0, v, 0), spec)
                rhs = mul(Element(0, v, 0), Element(u * spec.rpow(v) % spec.m, 0, 0), spec)
                assert lhs == rhs == Element(u, v, 0)


# --------------------------------------------------------------------- power

def test_power_frozen_examples():
    g = Element(1, 1, 0)
    assert power(g, 1, F21) == g
    assert power(g, 2, F21) == Element(5, 2, 0)
    assert power(g, 3, F21) == IDENTITY


@given(spec=spec_strategy(), data=st.data(), k=st.integers(-40, 40))
@settings(max_examples=300, deadline=None)
def test_power_matches_iterated_mul(spec, data, k):
    g = data.draw(element_strategy(spec))
    acc = IDENTITY
    step = g if k >= 0 else inv(g, spec)
    for _ in range(abs(k)):
        acc = mul(acc, step, spec)
    assert power(g, k, spec) == acc


def test_power_exhaustive_small():
    for spec in (F21, GroupSpec(9, 3, 4), GroupSpec(1, 9, 0)):
        for g in spec.elements():
            acc = IDENTITY
            for k in range(2 * spec.n + 1):
                assert power(g, k, spec) == acc
                acc = mul(acc, g, spec)


# ---------------------------------------------------------------------- rsum

def test_rsum_examples():
    """The t-count gcd(r + r^2 + ... + r^n, m) of Aut(G)'s parametrization."""
    assert _t_count(F21) == 7                    # 2 + 4 + 8 = 14 = 0 mod 7
    assert _t_count(GroupSpec(13, 3, 3)) == 13   # 3 + 9 + 27 = 39 = 0 mod 13
    assert _t_count(GroupSpec(7, 5, 1)) == 1     # 1 + 1 + 1 + 1 + 1 = 5 mod 7
    assert _t_count(GroupSpec(33, 5, 4)) == 11   # 4 + 16 + 64 + 256 + 1024 = 11 mod 33


def test_rsum_matches_direct_summation():
    """The t-count, read off the power table of r, is gcd(r + ... + r^n, m)
    summed term by term: on every spec up to order 231, on (11, 5, 3) with
    a central factor of 3, and on (33, 5, 4), whose <a> meets the centre in
    a subgroup of order 3."""
    specs = [*iter_specs(231), GroupSpec(11, 5, 3, ell=3), GroupSpec(33, 5, 4)]
    assert any(spec.central_a_order > 1 and not spec.is_abelian for spec in specs)
    for spec in specs:
        direct = sum(pow(spec.r, i, spec.m) for i in range(1, spec.n + 1))
        assert _t_count(spec) == gcd(direct, spec.m), spec


# ------------------------------------------------------------------- orders

def test_element_order_examples():
    assert element_order(IDENTITY, F21) == 1
    assert element_order(Element(0, 1, 0), F21) == 3
    assert element_order(Element(3, 1, 0), F21) == 3
    assert element_order(Element(1, 0, 0), F21) == 7


# specs with central factors, non-Sylow-cyclic and larger ones, past SMALL_SPECS
EXTRA_SPECS = [
    GroupSpec(11, 5, 3, ell=3),
    GroupSpec(9, 9, 4),
    GroupSpec(25, 5, 6, ell=3),
    GroupSpec(3, 3, 1, ell=9),
    GroupSpec(27, 27, 4),
    GroupSpec(9, 3, 4, ell=3),
]
TABLE_SPECS = SMALL_SPECS + list(iter_specs(135)) + EXTRA_SPECS


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda s: f"{s.m}-{s.n}-{s.r}-{s.ell}")
def test_element_order_matches_cyclic_closure(spec):
    """The closed form against the size of <g>, closed by repeated right
    multiplication."""
    for g in spec.elements():
        assert element_order(g, spec) == closure_size([g], spec)


def test_order_law_for_nondegenerate_specs():
    # o(a^i b^j) = n for all i and gcd(j, n) = 1, whenever no Sylow subgroup
    # of <b> is central and <a> meets the centre trivially
    for spec in [F21, GroupSpec(13, 3, 3), GroupSpec(7, 9, 2), GroupSpec(11, 5, 3)]:
        assert spec.hypothesis_star and spec.central_a_order == 1
        for j in range(spec.n):
            if gcd(j, spec.n) != 1:
                continue
            for i in range(spec.m):
                assert element_order(Element(i, j, 0), spec) == spec.n


def test_order_law_fails_without_trivial_a_centre():
    # (35, 3, 16) is hypothesis-(*) and Sylow-cyclic yet decomposes as
    # Z5 x (Z7:Z3); the order law breaks exactly because gcd(r-1, m) = 5
    spec = GroupSpec(35, 3, 16)
    assert spec.hypothesis_star and spec.sylow_cyclic
    assert element_order(Element(1, 1, 0), spec) == 15


# ------------------------------------------------------------------ closure

def test_closure_examples():
    assert closure_size([Element(1, 0, 0)], F21) == 7
    assert closure_size([Element(0, 1, 0), Element(1, 1, 0)], F21) == 21
    assert closure_size([IDENTITY], F21) == 1
    assert closure_size([Element(0, 0, 1)], GroupSpec(7, 3, 2, ell=5)) == 5


def test_closure_is_a_subgroup():
    sub = closure([Element(0, 1, 0)], F21)
    assert len(sub) == 3
    for g in sub:
        assert inv(g, F21) in sub
        for h in sub:
            assert mul(g, h, F21) in sub


# ------------------------------------------------- regular representation

def test_regular_representation_z5():
    pa, pb, pc = regular_representation(Z5)
    assert pa == (1, 2, 3, 4, 0)
    assert pb == tuple(range(5)) and pc == tuple(range(5))


def test_regular_representation_matches_independent_construction():
    for spec in TABLE_SPECS:
        got = regular_representation(spec)
        expected = regular_generator_perms(spec.m, spec.n, spec.r, spec.ell)
        assert got == tuple(tuple(p) for p in expected)


def test_regular_representation_satisfies_presentation():
    for spec in SMALL_SPECS:
        pa, pb, pc = regular_representation(spec)
        ident = list(range(spec.order))
        assert perm_power(pa, spec.m) == ident
        assert perm_power(pb, spec.n) == ident
        assert perm_power(pc, spec.ell) == ident
        # a^b = a^r, and c commutes with both
        binv = [0] * spec.order
        for i, x in enumerate(pb):
            binv[x] = i
        assert perm_compose(perm_compose(binv, pa), pb) == perm_power(pa, spec.r if spec.m > 1 else 0)
        assert perm_compose(pa, pc) == perm_compose(pc, pa)
        assert perm_compose(pb, pc) == perm_compose(pc, pb)


def test_regular_representation_is_fixed_point_free():
    for spec in SMALL_SPECS:
        for p in regular_representation(spec):
            if p == tuple(range(spec.order)):
                continue
            assert all(p[i] != i for i in range(spec.order))


def test_order_of_regular_b_permutation():
    _, pb, _ = regular_representation(F21)
    assert perm_power(pb, 3) == list(range(21))
    assert perm_power(pb, 1) != list(range(21))


@pytest.mark.parametrize(
    "spec",
    list(iter_specs(231))
    + [Z5, GroupSpec(7, 3, 2, ell=3), GroupSpec(11, 5, 3, ell=3), GroupSpec(9, 9, 4)]
    + [GroupSpec(1, 9, 0), GroupSpec(1, 1, 0, ell=7)],
    ids=lambda s: f"{s.m}-{s.n}-{s.r}-{s.ell}",
)
def test_left_translation_matches_mul(spec):
    """The closed-form left translation by s is x -> index(mul(s, x)), for
    every element s."""
    elements = list(spec.elements())
    for s in elements:
        expected = tuple(spec.index(mul(s, x, spec)) for x in elements)
        assert left_translation(spec.index(s), spec) == expected


@pytest.mark.parametrize(
    "spec",
    list(iter_specs(63))
    + [Z5, GroupSpec(7, 3, 2, ell=3), GroupSpec(11, 5, 3, ell=3), GroupSpec(9, 9, 4), GroupSpec(23, 11, 2)]
    + [GroupSpec(1, 9, 0), GroupSpec(1, 1, 0, ell=7)],
    ids=lambda s: f"{s.m}-{s.n}-{s.r}-{s.ell}",
)
def test_right_translation_matches_oracle_product(spec):
    """The right translation by s, walked from s by the left translations
    by a, b and c, is x -> x*s, the product the oracle takes by composing
    the right multiplications by a, b and c, for every element s of groups
    up to 63 elements and for a, b, c and a spread of other elements of the
    larger ones."""
    order = spec.order
    abc = {spec.index(g) for g in (spec.generator_a(), spec.generator_b(), spec.generator_c())}
    for s in abc | set(range(0, order, 1 if order <= 63 else order // 8)) | {order - 1}:
        expected = tuple(oracle_mul_index(x, s, spec.m, spec.n, spec.r, spec.ell) for x in range(order))
        assert right_translation(s, spec) == expected


# ------------------------------------------------------------- generation

# ell sharing a prime with m or n (three exponents to span), abelian, not
# Sylow-cyclic
GENERATION_EXTRAS = [GroupSpec(5, 1, 1, ell=5), GroupSpec(7, 3, 2, ell=9), GroupSpec(9, 3, 4, ell=3)]


@pytest.mark.parametrize(
    "spec", [s for s in iter_specs(231) if s.order <= 81] + GENERATION_EXTRAS, ids=str
)
def test_generates_matches_search_on_every_pair(spec):
    """The arithmetic generation test equals a breadth-first search of the
    subgroup on the oracle's right multiplication table, on every ordered
    pair of elements."""
    right = right_multiplications(spec.m, spec.n, spec.r, spec.ell)
    elements = list(spec.elements())
    for i, x in enumerate(elements):
        for j in range(i, spec.order):
            y = elements[j]
            want = search_generates((i, j), right)
            assert generates((x, y), spec) == want == generates((y, x), spec), (x, y)


@pytest.mark.parametrize(
    "spec",
    [s for s in iter_specs(231) if s.order > 81]
    + [GroupSpec(11, 5, 3, ell=3), GroupSpec(23, 11, 2), GroupSpec(25, 5, 6, ell=3), GroupSpec(9, 9, 4, ell=3)],
    ids=str,
)
def test_generates_matches_search_on_sampled_sets(spec):
    """The same on a seeded sample of pairs, as the walk tests them, and of
    triples, as Aut(G)'s completions test them, in the larger groups."""
    rng = random.Random(spec.order)
    right = right_multiplications(spec.m, spec.n, spec.r, spec.ell)
    for size in [2] * 120 + [3] * 40:
        S = [rng.randrange(spec.order) for _ in range(size)]
        assert generates([spec.at_index(i) for i in S], spec) == search_generates(S, right), S


# ----------------------------------------------------------------- sweeps

def test_canonical_r_identifies_isomorphic_presentations():
    assert canonical_r(7, 3, 2) == canonical_r(7, 3, 4) == 2
    assert canonical_r(11, 5, 3) == canonical_r(11, 5, 9)


def test_iter_specs_small():
    specs = list(iter_specs(63))
    keys = {(s.m, s.n, s.r) for s in specs}
    assert (7, 3, 2) in keys
    assert (13, 3, 3) in keys
    assert (9, 3, 4) in keys
    assert (7, 9, 2) in keys
    assert all(s.hypothesis_star and not s.is_abelian for s in specs)
    assert all(s.m * s.n <= 63 for s in specs)
    # no two listed specs present isomorphic groups
    assert len(keys) == len({(s.m, s.n, canonical_r(s.m, s.n, s.r)) for s in specs})


def test_iter_specs_list_is_frozen():
    """The 276 specs of the 1100 sweep, with their n0, in order, as frozen
    from the enumeration that canonicalized every unit r (``canonical_r``)."""
    specs = [(s.m, s.n, s.r, s.n0) for s in iter_specs(1100)]
    assert len(specs) == 276
    assert hashlib.sha256(repr(specs).encode()).hexdigest() == (
        "369a11f787baeb3f5c4f957bc1cd9913046d90c47de3dea88529682daaf82b9a"
    )


def test_euler_phi():
    assert [euler_phi(k) for k in (1, 3, 5, 9, 11)] == [1, 2, 4, 6, 10]


def test_multiplicative_order_matches_stepping():
    """The order read off phi(m) is the least power that steps to 1, for
    every unit of every odd modulus below 600."""
    for m in range(3, 600, 2):
        for x in range(1, m):
            if gcd(x, m) == 1:
                assert multiplicative_order(x, m) == order_mod(x, m), (x, m)
    assert multiplicative_order(0, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(3, 9)


def test_power_table_has_n0_entries_for_large_n():
    # r = 2 has order 3 mod 7, so the table holds 3 entries, not n of them
    spec = GroupSpec(7, 3000003, 2)
    assert len(spec._r_pow) == spec.n0 == 3
    rng = random.Random(17)
    for v in [0, 1, -1, spec.n, -spec.n - 1] + [rng.randrange(-3 * spec.n, 3 * spec.n) for _ in range(50)]:
        assert spec.rpow(v) == pow(spec.r, v % spec.n, spec.m)
