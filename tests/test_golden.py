"""Golden gates for the paths the 231-vertex census never runs.

The files under ``data/`` were frozen from the commit before the
splitter-local refinement and are compared byte for byte:

* ``classify_*.json``: the stdout of ``metacirc classify`` for oracle mode
  above 231 vertices and with a central factor, and for theorem mode;
  ``classify_47_23_2_1_oracle.json`` (1081 vertices, 66 of its 77
  generating orbits not edge-transitive) was frozen later, from 3ca9761,
  the commit before the distance-pair test;
* ``aut_queries.json``: the stdout of ``metacirc aut --graph6 G`` for census
  classes and two disconnected graphs, each under a fixed random relabeling
  (stored as the input G).  The search is unseeded here, so the generator
  lines depend on the order in which branches are pruned and on where the
  search jumps back to its first path; they were re-frozen when that jump
  was added, with every other line unchanged.  Being a generating set, not
  a fixed one, they are also checked against the independent oracles: each
  is an automorphism, and together they generate a group of the frozen
  order;
* ``sweep_2000_reports.sha256``: one line ``m n r ell digest`` per spec of
  ``metacirc sweep --max-order 2000``, in sweep order, the digest being the
  SHA-256 of that spec's JSONL line (without its newline).  Frozen from
  abee032, whose 1100 sweep matches ``sweep_1100.sha256``, before the
  distance-pair test compared one count per layer.  The whole check takes
  minutes, so it is marked slow, one test per spec, and a mismatch names
  its spec.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from metacirc.classify import classify_spec, report_to_json_dict
from metacirc.cli import main
from metacirc.groups import GroupSpec, iter_specs
from oracles import group_elements, is_automorphism_by_sets, parse_graph6

DATA = Path(__file__).parent / "data"

REPORTS = {
    "classify_23_11_2_1_oracle.json": ["--m", "23", "--n", "11", "--r", "2"],
    "classify_47_23_2_1_oracle.json": ["--m", "47", "--n", "23", "--r", "2", "--bound", "1100"],
    "classify_11_5_3_3_oracle.json": ["--m", "11", "--n", "5", "--r", "3", "--ell", "3"],
    "classify_43_7_4_1_theorem.json": ["--m", "43", "--n", "7", "--r", "4", "--mode", "theorem"],
    "classify_29_7_7_3_theorem.json": [
        "--m", "29", "--n", "7", "--r", "7", "--ell", "3", "--mode", "theorem",
    ],
}


@pytest.mark.parametrize(
    "name, jobs",
    # the report's name alone is the id of the run in this process
    [pytest.param(name, jobs, id=name if jobs == 1 else f"{name}-jobs{jobs}")
     for name in sorted(REPORTS) for jobs in (1, 2)],
)
def test_golden_classify_report(name, jobs, capsysbinary):
    """The report is the frozen one in this process and on a pool of two
    workers."""
    assert main(["classify", *REPORTS[name], "--jobs", str(jobs)]) == 0
    assert capsysbinary.readouterr().out == (DATA / name).read_bytes()


def test_golden_aut_queries(capsysbinary):
    for row in json.loads((DATA / "aut_queries.json").read_text()):
        assert main(["aut", "--graph6", row["graph6"]]) == 0
        assert capsysbinary.readouterr().out == row["stdout"].encode(), row["graph"]


@pytest.mark.parametrize(
    "row", json.loads((DATA / "aut_queries.json").read_text()), ids=lambda row: row["graph"]
)
def test_golden_aut_generators_generate_the_frozen_group(row):
    """The frozen generator lines are automorphisms of the input graph, by
    neighbour sets, and their closure has the frozen ``aut_order``."""
    adjacency = parse_graph6(row["graph6"].encode())
    fields = [line.split("=", 1) for line in row["stdout"].splitlines()]
    gens = [tuple(map(int, value.split())) for name, value in fields if name == "generator"]
    order = int(dict(fields)["aut_order"])
    assert all(is_automorphism_by_sets(adjacency, p) for p in gens)
    assert len(group_elements(gens, len(adjacency))) == order


SWEEP_2000 = {
    tuple(map(int, key)): digest
    for *key, digest in map(str.split, (DATA / "sweep_2000_reports.sha256").read_text().splitlines())
}


def test_sweep_2000_digests_cover_every_spec_in_order():
    assert list(SWEEP_2000) == [(s.m, s.n, s.r, s.ell) for s in iter_specs(2000)]


@pytest.mark.slow
@pytest.mark.parametrize("key", SWEEP_2000, ids=lambda key: "-".join(map(str, key)))
def test_sweep_2000_report_matches_its_digest(key):
    """The spec's report, as the 2000 sweep writes it to its JSONL, hashes to
    the frozen digest."""
    m, n, r, ell = key
    line = json.dumps(report_to_json_dict(classify_spec(GroupSpec(m, n, r, ell), bound=2000)))
    assert hashlib.sha256(line.encode()).hexdigest() == SWEEP_2000[key]
