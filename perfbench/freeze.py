#!/usr/bin/env python3
"""Regenerate the golden answers in ``perfbench/golden/``.

Run it only on a commit whose census is trusted: the benchmark checks every
later commit against what this writes.  Before writing, it asserts the
census facts the README states (1/3/5/6 classes on 21/55/165/253 vertices,
|Aut| = 1320, 3960 and 6072 for the arc-transitive classes on 55, 165 and
253 vertices), and that the unseeded command-line search agrees with the
census on every class the queries use.

    python3 perfbench/freeze.py        # about a minute
"""

from __future__ import annotations

import json
import random

import worker
import workloads


def main() -> int:
    worker.import_package()
    from metacirc.classify import classify_spec, report_to_json_dict
    from metacirc.graphs import build_cayley, to_graph6
    from metacirc.groups import GroupSpec

    census: dict[str, dict] = {}
    reports: dict[str, object] = {}
    for workload in ("census_ref", "sweep_135", "theorem_large"):
        for spec_t, mode, bound in workloads.census_ops(workload):
            key = workloads.census_key(spec_t, mode)
            report = classify_spec(GroupSpec(*spec_t), mode=mode, bound=bound, jobs=1)
            payload = json.dumps(report_to_json_dict(report), indent=2)
            census[key] = {
                "sha256": worker.sha256(payload),
                "classes": len(report.classes),
                "aut_orders": [c.aut_order for c in report.classes],
            }
            reports[key] = report
            print(key, census[key]["aut_orders"], flush=True)

    def classes_of(spec_t):
        return reports[workloads.census_key(spec_t, "oracle")].classes

    facts = {(7, 3, 2, 1): (1, 336), (11, 5, 3, 1): (3, 1320),
             (11, 5, 3, 3): (5, 3960), (23, 11, 2, 1): (6, 6072)}
    for spec_t, (count, top) in facts.items():
        cls = classes_of(spec_t)
        assert len(cls) == count, (spec_t, len(cls))
        assert max(c.aut_order for c in cls) == top, (spec_t, [c.aut_order for c in cls])
        assert sum(c.aut_order == top for c in cls) == 1, spec_t

    queries: dict[str, dict] = {}
    rng = random.Random(0)
    for key, report in reports.items():
        spec = report.spec
        if spec.order > workloads.QUERY_MAX_ORDER:
            continue
        spec_t = (spec.m, spec.n, spec.r, spec.ell)
        for i, c in enumerate(report.classes):
            graph = build_cayley(c.connection_set, spec)
            perm = list(range(graph.n))
            rng.shuffle(perm)
            expected = {"exit": 0, "n": graph.n, "aut_order": c.aut_order, "transitive": True,
                        "canonical_sha256": worker.sha256(c.canonical)}
            for g in (graph, graph.relabel(perm)):
                tmp = worker.OUT / "freeze.g6"
                worker.OUT.mkdir(exist_ok=True)
                tmp.write_bytes(to_graph6(g) + b"\n")
                got, _ = worker._aut_answer(worker._cli(["aut", "--file", str(tmp)]))
                tmp.unlink()
                assert got == expected, (key, i, got, expected)
            queries[f"{workloads.spec_key(spec_t)}#{i}"] = {
                "order": spec.order,
                "set": [[x.u, x.v, x.w] for x in c.connection_set],
                **{k: v for k, v in expected.items() if k != "exit"},
            }
    canon = [q["canonical_sha256"] for q in queries.values()]
    assert len(set(canon)) == len(canon), "two query classes are isomorphic"

    golden = worker.HERE / "golden"
    golden.mkdir(exist_ok=True)
    (golden / "census.json").write_text(json.dumps(census, indent=1, sort_keys=True) + "\n")
    (golden / "queries.json").write_text(json.dumps({
        # documented exit code for malformed input: 1 (usage error)
        "malformed_exit": 1,
        "classes": queries,
    }, indent=1, sort_keys=True) + "\n")
    print(f"{len(census)} census reports, {len(queries)} query classes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
