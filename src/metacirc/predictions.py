"""What the paper predicts about the census, each prediction with its
hypotheses, and the one comparison of a census with them.

* **Table 1**: the four exceptional arc-transitive graphs, on 5, 21, 55
  and 253 vertices, one row per group (``TABLE1``, ``table1_row``).
* **Normality and half-transitivity**: every other class of a nonabelian
  group is half-transitive and normal, with |Aut| = 2|G| (``is_generic``).
* **The count formula**: phi(n0)/2 classes, or the stated exception
  count, for a nonabelian Sylow-cyclic group with no central Sylow
  subgroup of <b> (``thm2_applicable``); one class per standard set S_j
  with j in ``theorem_js``.

``classify.classify_spec`` computes the census and calls :func:`compare`
once.  Each mismatch, and each class with |N(G)| != |G|*|Aut(G,S)| (the
normalizer identity), becomes a finding of the report.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, NamedTuple, Sequence

from metacirc.graphs import validate_connection_set
from metacirc.groups import Element, GroupSpec, euler_phi, inv, mul

if TYPE_CHECKING:
    from metacirc.classify import ClassReport


class Table1Row(NamedTuple):
    """Reference data for the four exceptional arc-transitive graphs."""

    group: str
    aut_group: str
    aut_order: int
    stab_order: int
    s: int
    n: int


TABLE1: dict[tuple[int, int], Table1Row] = {
    (5, 1): Table1Row("Z5", "S5", 120, 24, 2, 1),
    (7, 3): Table1Row("Z7:Z3", "PGL(2,7)", 336, 16, 1, 3),
    (11, 5): Table1Row("Z11:Z5", "PGL(2,11)", 1320, 24, 2, 6),
    (23, 11): Table1Row("Z23:Z11", "PSL(2,23)", 6072, 24, 2, 11),
}

# the count formula's stated exceptions: these two groups get explicit counts
THM2_EXCEPTION_COUNTS = {(11, 5): 3, (23, 11): 6}


def table1_row(spec: GroupSpec) -> Table1Row | None:
    """The row of the spec's group: Z_m : Z_n with no central factor,
    nonabelian unless n = 1 (Z5)."""
    if spec.ell != 1 or (spec.is_abelian and spec.n != 1):
        return None
    return TABLE1.get((spec.m, spec.n))


def thm2_applicable(spec: GroupSpec) -> bool:
    """The count formula's hypotheses: G is nonabelian and Sylow-cyclic, and
    no Sylow subgroup of <b> is central."""
    return spec.sylow_cyclic and spec.hypothesis_star and not spec.is_abelian


def standard_js(spec: GroupSpec) -> list[int]:
    """The j of the standard sets S_j: 1 <= j < n0 and gcd(j, n) = 1."""
    return [j for j in range(1, spec.n0) if gcd(j, spec.n) == 1]


def theorem_js(spec: GroupSpec) -> list[int]:
    """The count formula's classes, one j each: S_j and S_(n0-j) give
    isomorphic graphs.  Raises where the formula does not apply."""
    if not thm2_applicable(spec):
        raise ValueError(
            "theorem mode needs a nonabelian Sylow-cyclic spec satisfying "
            "the no-central-Sylow condition; use oracle mode"
        )
    return [j for j in standard_js(spec) if 2 * j < spec.n0]


def standard_connection_set(j: int, spec: GroupSpec) -> tuple[Element, ...]:
    """The distinguished set {c b^j, c^-1 a b^j, c^-1 b^-j, c (a b^j)^-1},
    for j in :func:`standard_js`.

    For ell = 1 this is S_j = {b^j, a b^j, b^-j, (a b^j)^-1}.
    """
    if j not in standard_js(spec):
        raise ValueError(
            f"j must satisfy 1 <= j < n0 = {spec.n0} and gcd(j, n) = 1 with n = {spec.n}, got {j}")
    c = spec.generator_c()
    x = mul(c, spec.element(0, j, 0), spec)
    y = mul(inv(c, spec), spec.element(1, j, 0), spec)
    return validate_connection_set([x, y, inv(x, spec), inv(y, spec)], spec)


def is_generic(c: ClassReport, spec: GroupSpec) -> bool:
    """Whether a class is what the paper predicts outside Table 1:
    half-transitive and normal, with |Aut| = 2|G|."""
    return c.half and c.normal_cayley and c.aut_order == 2 * spec.order


def table1_checks(spec: GroupSpec, classes: Sequence[ClassReport]) -> list[tuple[str, bool, str]]:
    """The census of a Table-1 group against its row's structure, as (name,
    passed, detail); ``agreement.table1`` holds when all pass.  The class
    count against the row's n is ``GroupReport.count_matches_n``.  Raises
    for groups outside Table 1."""
    row = table1_row(spec)
    if row is None:
        raise ValueError(f"no reference data for spec {spec}")
    exceptional = [c for c in classes if c.aut_order == row.aut_order]
    checks = [("one exceptional class", len(exceptional) == 1,
               f"classes with aut_order {row.aut_order}: {len(exceptional)}")]
    if len(exceptional) == 1:
        (c,) = exceptional
        checks += [
            ("stabilizer order", c.stab_order == row.stab_order,
             f"got {c.stab_order}, expected {row.stab_order}"),
            ("s-arc-transitivity", c.s == row.s, f"got {c.s}, expected {row.s}"),
            ("arc-transitive", c.arc, f"arc={c.arc}"),
        ]
    others = [c for c in classes if c.aut_order != row.aut_order]
    checks.append(("other classes half-transitive normal", all(is_generic(c, spec) for c in others),
                   f"{len(others)} other classes"))
    return checks


def compare(spec: GroupSpec, mode: str, classes: Sequence[ClassReport],
            twins: Sequence[tuple[ClassReport, ClassReport]]) -> dict:
    """The report's prediction fields for the census ``classes`` of
    ``spec``, by ``GroupReport`` field name.  ``twins`` are the pairs
    (first, later) of analyzed sets, in the order met, whose graphs are
    isomorphic: distinct Aut(G)-orbits in oracle mode, or standard sets
    that the count formula says are not isomorphic in theorem mode."""
    applies = thm2_applicable(spec)
    phi_n0_half = euler_phi(spec.n0) // 2
    exception = THM2_EXCEPTION_COUNTS.get((spec.m, spec.n)) if applies and spec.ell == 1 else None
    claim = (phi_n0_half if exception is None else exception) if applies else None
    row = table1_row(spec)
    findings = [
        f"isomorphic graphs from distinct Aut(G)-orbits: {a.set_list()} vs {b.set_list()}"
        if mode == "oracle" else f"standard sets j={a.standard_j} and j={b.standard_j} are isomorphic"
        for a, b in twins
    ]
    for c in classes:
        if not c.normalizer_ok:
            findings.append(
                f"normalizer identity fails for {list(map(spec.index, c.connection_set))}: "
                f"|N| = {c.normalizer_order}, |G|*|Aut(G,S)| = {spec.order * c.set_stabilizer_order}"
            )
        if applies and c.standard_j is None:
            findings.append(f"class {c.canonical!r} has no standard-form representative")
        in_table1 = row is not None and c.aut_order == row.aut_order
        if not (spec.is_abelian or is_generic(c, spec) or in_table1):
            findings.append(
                f"class {c.canonical!r} violates the generic half-transitive pattern: "
                f"aut_order={c.aut_order}, half={c.half}, normal={c.normal_cayley}"
            )
    table_ok = None if row is None else all(ok for _, ok, _ in table1_checks(spec, classes))
    return {
        "phi_n0_half": phi_n0_half,
        "thm2_exception_count": exception,
        "thm2_claim": claim,
        "table1": row,
        "agreement_theorem2": None if claim is None else len(classes) == claim,
        "agreement_table1": table_ok,
        "findings": findings,
    }
