"""Acceptance suite: ten end-to-end criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import random
import time
from math import gcd
from pathlib import Path

import pytest

from metacirc.aut import aut_generators, parametrized_count
from metacirc.autosearch import analyze, canonical_form
from metacirc.classify import _PairAction, classify_spec, orbit_representatives, report_to_json_dict
from metacirc.cli import main
from metacirc.graphs import build_cayley
from metacirc.groups import (
    Element,
    GroupSpec,
    element_order,
    euler_phi,
    iter_specs,
    mul,
    regular_representation,
)
from metacirc.permgroup import PermGroup
from oracles import (
    aut_triples,
    edge_orbit_count,
    orbit_count,
    regular_generator_perms,
    s_arcs,
    sample_hypothesis_star_specs,
)

TABLE_KEYS = {(5, 1), (7, 3), (11, 5), (23, 11)}

# `metacirc sweep --max-order 231 --out census_231.jsonl`, frozen before the
# orbit reduction moved to a generating set of Aut(G)
GOLDEN_CENSUS = Path(__file__).parent / "data" / "census_231.jsonl"


def check(num: int, ok: bool, desc: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def report_21():
    t0 = time.monotonic()
    rep = classify_spec(GroupSpec(7, 3, 2))
    return rep, time.monotonic() - t0


@pytest.fixture(scope="module")
def report_55():
    t0 = time.monotonic()
    rep = classify_spec(GroupSpec(11, 5, 3))
    return rep, time.monotonic() - t0


@pytest.fixture(scope="module")
def report_253():
    t0 = time.monotonic()
    rep = classify_spec(GroupSpec(23, 11, 2))
    return rep, time.monotonic() - t0


def sweep_specs():
    """Nonabelian hypothesis-(*) specs with m*n <= 231 whose reduced core is
    not one of the four reference groups (see the half-transitivity check)."""
    out = []
    for spec in iter_specs(231):
        core = (spec.m // gcd(spec.r - 1, spec.m), spec.n)
        if core in TABLE_KEYS or (spec.m, spec.n) in TABLE_KEYS:
            continue
        out.append(spec)
    return out


@pytest.fixture(scope="module")
def census_231():
    """The census of ``metacirc sweep --max-order 231``: every spec, classified
    as the sweep does."""
    return [(spec, classify_spec(spec, bound=231)) for spec in iter_specs(231)]


@pytest.fixture(scope="module")
def sweep_reports(census_231):
    keep = set(sweep_specs())
    return [(spec, rep) for spec, rep in census_231 if spec in keep]


# --------------------------------------------------------------------------

def test_criterion_1_k5_baseline(capsys):
    t0 = time.monotonic()
    code = main(["classify", "--m", "5", "--n", "1", "--r", "1"])
    elapsed = time.monotonic() - t0
    payload = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        classes = payload["classes"]
        ok = (
            code == 0
            and len(classes) == 1
            and classes[0]["aut_order"] == 120
            and classes[0]["stab_order"] == 24
            and classes[0]["s"] == 2
            and payload["agreement"]["table1"] is True
            and payload["theory"]["table1"]["n"] == 1
            and payload["theory"]["table1"]["count_matches_n"] is True
            and elapsed < 1.0
        )
        check(1, ok, f"K5: 1 class, (120, 24, s=2), reference row matched, {elapsed:.2f}s < 1s")


def test_criterion_2_21_vertices(report_21, capsys):
    rep, elapsed = report_21
    with capsys.disabled():
        exceptional = [c for c in rep.classes if c.aut_order == 336]
        ok = (
            rep.raw_candidates == 45
            and rep.phi_n0_half == 1
            and rep.table1 is not None
            and rep.table1.n == 3
            and all(c.stab_order == 16 and c.s == 1 for c in exceptional)
            and elapsed < 60
        )
        check(
            2,
            ok,
            f"21 vertices: 45 candidates, oracle count {rep.oracle_count} "
            f"(phi(n0)/2 = 1, table n = 3), exceptional class (336, 16, s=1), "
            f"{elapsed:.1f}s < 60s",
        )


def test_criterion_3_55_vertices(report_55, capsys):
    rep, elapsed = report_55
    with capsys.disabled():
        exceptional = [c for c in rep.classes if c.aut_order == 1320]
        ok = (
            rep.phi_n0_half == 2
            and rep.thm2_exception_count == 3
            and rep.table1.n == 6
            and all(c.stab_order == 24 and c.s == 2 for c in exceptional)
            and elapsed < 300
        )
        check(
            3,
            ok,
            f"55 vertices: oracle count {rep.oracle_count} vs stated counts 3 and 6; "
            f"exceptional class (1320, 24, s=2), {elapsed:.1f}s < 300s",
        )


def test_criterion_4_253_vertices(report_253, capsys):
    rep, elapsed = report_253
    with capsys.disabled():
        exceptional = [c for c in rep.classes if c.aut_order == 6072]
        ok = (
            rep.raw_candidates == 7875
            and rep.phi_n0_half == 5
            and rep.thm2_exception_count == 6
            and rep.table1.n == 11
            and all(c.stab_order == 24 and c.s == 2 for c in exceptional)
            and elapsed < 1800
        )
        check(
            4,
            ok,
            f"253 vertices: 7875 candidates, oracle count {rep.oracle_count} vs stated "
            f"counts 11 and 6; exceptional class (6072, 24, s=2), {elapsed:.1f}s < 1800s",
        )


def test_criterion_5_generic_half_transitivity(sweep_reports, capsys):
    with capsys.disabled():
        failures = []
        n_classes = 0
        for spec, rep in sweep_reports:
            for c in rep.classes:
                n_classes += 1
                g = build_cayley(c.connection_set, spec)
                result = analyze(g, seeds=regular_representation(spec))
                aut = PermGroup(g.n, result.generators, result.base)
                if not (
                    aut.order == 2 * spec.m * spec.n
                    and edge_orbit_count(g.adjacency, aut.generators) == 1
                    and orbit_count(s_arcs(g.adjacency, 1), aut.generators) == 2
                    and c.half
                ):
                    failures.append((spec.m, spec.n, spec.r, aut.order))
        ok = not failures and n_classes > 0
        check(
            5,
            ok,
            f"half-transitivity on {len(sweep_reports)} specs / {n_classes} classes: "
            f"every class has |Aut| = 2mn, 1 edge orbit, 2 arc orbits"
            + (f"; failures: {failures}" if failures else ""),
        )


def test_criterion_6_order_law(capsys):
    with capsys.disabled():
        rng = random.Random(20250810)
        triples = sample_hypothesis_star_specs(rng, 20, 1000)
        bad = []
        for m, n, r in triples:
            spec = GroupSpec(m, n, r)
            assert spec.hypothesis_star and spec.central_a_order == 1
            for j in range(1, n):
                if gcd(j, n) != 1:
                    continue
                for i in range(m):
                    if element_order(Element(i, j, 0), spec) != n:
                        bad.append((m, n, r, i, j))
        check(
            6,
            not bad,
            f"element-order law on 20 sampled specs (m*n <= 1000): "
            f"o(a^i b^j) = n for all i and gcd(j, n) = 1"
            + (f"; failures: {bad[:3]}" if bad else ""),
        )


def test_criterion_7_aut_parametrization(capsys):
    with capsys.disabled():
        checked = formula_checked = 0
        bad = []
        for spec in iter_specs(231):
            if not spec.sylow_cyclic:
                continue  # the parametrized form needs <a> characteristic
            searched = aut_generators(spec)[1]
            counted = parametrized_count(spec)
            brute = len(aut_triples(spec))
            checked += 1
            if not searched == counted == brute:
                bad.append((spec.m, spec.n, spec.r, searched, counted, brute))
            if spec.central_a_order == 1:
                formula_checked += 1
                formula = euler_phi(spec.m) * spec.m * (spec.n // spec.n0)
                if brute != formula:
                    bad.append((spec.m, spec.n, spec.r, brute, formula))
        ok = not bad and checked > 10
        check(
            7,
            ok,
            f"Aut parametrization (search order, count) vs brute force on {checked} Sylow-cyclic specs "
            f"(formula phi(m)*m*(n/n0) on the {formula_checked} with trivial <a>-centre)"
            + (f"; failures: {bad}" if bad else ""),
        )


def test_criterion_8_multiplication_oracle(capsys):
    with capsys.disabled():
        rng = random.Random(8)
        specs = [
            GroupSpec(7, 3, 2),
            GroupSpec(13, 3, 3),
            GroupSpec(11, 5, 3),
            GroupSpec(7, 9, 2),
            GroupSpec(9, 3, 4),
            GroupSpec(35, 3, 16),
            GroupSpec(7, 3, 2, ell=5),
            GroupSpec(23, 11, 2),
        ]
        tables = {}
        failures = 0
        for _ in range(10_000):
            spec = rng.choice(specs)
            key = (spec.m, spec.n, spec.r, spec.ell)
            if key not in tables:
                tables[key] = regular_generator_perms(*key)
            pa, pb, pc = tables[key]
            i = rng.randrange(spec.order)
            j = rng.randrange(spec.order)
            g, h = spec.at_index(i), spec.at_index(j)
            x = i
            for _ in range(h.u):
                x = pa[x]
            for _ in range(h.v):
                x = pb[x]
            for _ in range(h.w):
                x = pc[x]
            if spec.index(mul(g, h, spec)) != x:
                failures += 1
        check(8, failures == 0, f"10^4 random products vs the permutation oracle: {failures} failures")


def test_criterion_9_normalizer_identity(report_21, report_55, report_253, sweep_reports, capsys):
    with capsys.disabled():
        k5 = classify_spec(GroupSpec(5, 1, 1))
        all_reports = [k5, report_21[0], report_55[0], report_253[0]] + [r for _, r in sweep_reports]
        bad = []
        total = 0
        for rep in all_reports:
            for c in rep.classes:
                total += 1
                if not c.normalizer_ok:
                    bad.append((rep.spec.m, rep.spec.n, rep.spec.r, c.normalizer_order))
        check(
            9,
            not bad and total > 0,
            f"normalizer identity |N(G)| = |G| * |Aut(G,S)| on all {total} classified classes"
            + (f"; failures: {bad}" if bad else ""),
        )


def test_criterion_10_ci_property(capsys):
    with capsys.disabled():
        ok = True
        details = []
        for spec in (GroupSpec(7, 3, 2), GroupSpec(11, 5, 3)):
            # per Aut(G)-orbit of connected candidates: the canonical form
            # and the vertex-stabilizer order of the graph
            rows = []
            for rep, _, _ in orbit_representatives(spec, _PairAction(spec, aut_generators(spec)[0]), {}):
                graph = build_cayley([spec.at_index(x) for x in rep], spec)
                result = analyze(graph, seeds=regular_representation(spec))
                rows.append((canonical_form(graph, result), PermGroup(graph.n, result.found, result.base).order))
            canons = [canon for canon, stab_order in rows if gcd(spec.order, stab_order) == 1]
            distinct = len(set(canons)) == len(canons)
            ok = ok and distinct
            details.append(f"|G|={spec.order}: {len(canons)}/{len(rows)} orbits, distinct={distinct}")
        check(
            10,
            ok,
            "isomorphism coincides with Aut(G)-conjugacy wherever gcd(|G|, stab) = 1 "
            f"({'; '.join(details)})",
        )


def test_golden_census_231(census_231):
    """The sweep's JSONL, regenerated, equals the frozen census byte for byte."""
    jsonl = "".join(json.dumps(report_to_json_dict(rep)) + "\n" for _, rep in census_231)
    assert jsonl.encode() == GOLDEN_CENSUS.read_bytes()
