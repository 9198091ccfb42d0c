"""Digests of N and C over every small canonical class, and of the consistency reports, pinned.

The N and C digests were recorded with the engine that still enumerated both
orders of every splitting through the walk, before `_orbit_rows` listed each
unordered orbit once.  Unlike `CanonicalKeyEngine`, they share no code with
the engine under test, so an orbit that is dropped, doubled or mis-weighted
shows here.
"""

import hashlib
from itertools import combinations_with_replacement

import pytest

from dpcount import cli
from dpcount.cusp import c_beta
from dpcount.gw import GWEngine, InconsistentRelationError
from dpcount.lattice import DivisorClass, delta, parse_class_literal


@pytest.fixture(scope="module")
def pinned_engine():
    """One engine for both digests: the C sweep reuses the N memo."""
    return GWEngine()


def canonical_classes(k_max, degrees):
    """Every canonical class (d; m) with m non-increasing in d..0, k = 0..k_max, d in degrees(k)."""
    for k in range(k_max + 1):
        for d in degrees(k):
            for m in combinations_with_replacement(range(d, -1, -1), k):
                yield DivisorClass(d, m)


def digest(lines):
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def test_n_digest_over_every_canonical_class(pinned_engine):
    # k = 0..8, d = 0..8 for k <= 6 and d = 0..7 for k = 7, 8, delta >= -1
    classes = [
        b
        for b in canonical_classes(8, lambda k: range(9 if k <= 6 else 8))
        if delta(b) >= -1
    ]
    lines = [f"{b}={pinned_engine.n_beta(b)}\n" for b in classes]
    assert len(lines) == 12622
    assert digest(lines) == "6b621a0e92d9825ac8b09fe6ebd35869e1e1e07b5b69f6ef895c983e7f3193c5"


def test_c_digest_over_every_canonical_class(pinned_engine):
    # k = 0..8, d = 1..6, delta >= 1; a non-integer total is a skip
    lines, skips = [], 0
    for b in canonical_classes(8, lambda k: range(1, 7)):
        if delta(b) < 1:
            continue
        try:
            r = c_beta(pinned_engine, b)
        except InconsistentRelationError:
            skips += 1
            lines.append(f"{b}:skip\n")
            continue
        lines.append(f"{b}={r.value},{r.first_term},{r.boundary_term},{r.valid}\n")
    assert (len(lines), skips) == (3564, 13)
    assert digest(lines) == "619af7d8fb0a83e01be77a3c2b3b23f5fc8ff1d4a8a483189292b5be1c15569e"


def test_consistency_digest_over_the_default_draw(default_consistency_draw):
    """Every report of `verify --suite consistency` on its default draw (seed 1, 200 classes,
    k <= 8), in order: beta, the value, and each relation's name, divisors, lhs and rhs.

    Recorded with the evaluator that took one dot product per basis tuple and
    read each (b, c)-swapped R2 and R3 tuple off by a sign change, before R2 and
    R3 were read off per-class tables, so the reports must not change in value,
    number or order.
    """
    engine, result, _ = default_consistency_draw
    assert result == (True, ["consistency: 200 classes, all relations agree"])
    lines = []
    for report in engine.reports:
        lines.append(f"{report.beta}={report.value}\n")
        for r in report.relations:
            lines.append(f"{r.name}{tuple(map(str, r.divisors))}:{r.lhs_coeff},{r.rhs}\n")
    assert (len(engine.reports), len(lines)) == (200, 200 + 17676)
    assert digest(lines) == "601adbb727b36689cd448d332e03c02b5e7070ef5b2f6534d9b56791b5f32a97"


def test_cache_half_n_and_cusp_boundary_digest(tmp_path, capsys):
    """What a cold solve files besides the values: the cache file that `nbeta --cache-path F`
    writes for both `cold_nbeta` anchors and 12;3^8, each from a fresh file, the sorted `_half_n`
    items of one engine after those three solves, and its `cusp_boundary` after `cbeta 6;2,1,1`.

    Recorded with the engine whose splitting rows were one tuple per orbit, before the scan
    merged them per (d1, delta1), so neither the keys filed nor their order may move.
    """
    literals = ("8;2,2,2,2,2,2", "7;3,2,2,2,2,2,2,2", "12;3,3,3,3,3,3,3,3")
    lines = []
    for i, literal in enumerate(literals):
        path = tmp_path / f"cache{i}.tsv"
        assert cli.main(["--cache-path", str(path), "nbeta", literal]) == 0
        lines.append(path.read_text(encoding="utf-8"))
    capsys.readouterr()
    engine = GWEngine()
    for literal in literals:
        engine.n_beta(parse_class_literal(literal))
    halves = sorted(engine._half_n.items())
    lines.extend(f"{d};{m}={value}\n" for (d, m), value in halves)
    c_beta(engine, parse_class_literal("6;2,1,1"))
    lines.extend(f"{beta}={value}\n" for beta, value in engine.cusp_boundary.items())
    assert (len(halves), len(engine.cusp_boundary)) == (931, 1)
    assert digest(lines) == "6836cb4c62d3e71a4de0f07daefdcb4f1b464755229fb846e201fd901da8db38"
