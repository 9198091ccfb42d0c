"""Acceptance suite: one test per gate criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import os
import subprocess
import sys
import time
from itertools import combinations, product

import pytest

import dpcount
from dpcount.cusp import c_beta
from dpcount.lattice import DivisorClass, canonical_form, delta, minus_one_classes
from dpcount.verify import (
    blowup_suite,
    consistency_suite,
    cremona_suite,
    symmetry_suite,
)
from oracles import count_minus_one_classes, plane_count


def report(criterion, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {criterion}: {elapsed:.2f}s (budget {budget:.0f}s)")
    assert ok
    assert elapsed < budget


def test_criterion_1_plane_counts(engine):
    t0 = time.time()
    expected = [1, 1, 12, 620, 87304, 26312976, 14616808192]
    got = [engine.n_beta(DivisorClass(d, ())) for d in range(1, 8)]
    oracle = [plane_count(d) for d in range(1, 8)]
    ok = got == expected == oracle
    report("1 (plane counts d<=7)", ok, time.time() - t0, 1.0)


def test_criterion_2_minus_one_class_counts():
    t0 = time.time()
    got = [len(minus_one_classes(k)) for k in range(1, 9)]
    ok = got == [1, 3, 6, 10, 16, 27, 56, 240]
    ok = ok and got == [count_minus_one_classes(k) for k in range(1, 9)]
    report("2 ((-1)-class counts)", ok, time.time() - t0, 1.0)


def test_criterion_3_plane_cuspidal_counts(engine):
    t0 = time.time()
    expected = {2: 0, 3: 24, 4: 2304, 5: 435168}
    ok = all(c_beta(engine, DivisorClass(d, ())).value == v for d, v in expected.items())
    report("3 (cuspidal counts 2L..5L)", ok, time.time() - t0, 1.0)


def test_criterion_4_blowup_invariance(engine):
    t0 = time.time()
    ok, lines = blowup_suite(engine)
    report("4 (blow-up invariance)", ok, time.time() - t0, 10.0)


def test_criterion_5_specialization(engine):
    t0 = time.time()
    ok = True
    for d in range(1, 6):
        base = engine.n_beta(DivisorClass(d, ()))
        for k in range(1, 5):
            for r in range(0, min(k, 3 * d - 2) + 1):
                beta = DivisorClass(d, (1,) * r + (0,) * (k - r))
                ok &= engine.n_beta(beta) == base
    report("5 (specialization identity)", ok, time.time() - t0, 30.0)


def test_criterion_6_consistency_fuzz(engine):
    t0 = time.time()
    ok, lines = consistency_suite(engine, samples=200, seed=0, k_max=4, delta_max=10)
    for line in lines:
        print(line)
    report("6 (cross-relation consistency, 200 classes)", ok, time.time() - t0, 120.0)


def test_criterion_6_consistency_fuzz_large_k(default_consistency_draw):
    # seed 1, the draw of `verify --suite consistency`: its 200 classes, one report each,
    # include every k = 5..8 (seed 0 draws no k = 8 class); the session fixture runs the
    # draw once, and test_pinned.py pins the digest of the same reports
    engine, (ok, lines), elapsed = default_consistency_draw
    assert {r.beta.k for r in engine.reports} >= {5, 6, 7, 8}
    for line in lines:
        print(line)
    report("6 (cross-relation consistency, 200 classes, k <= 8)", ok, elapsed, 120.0)


def test_criterion_7_integrality_sweep(engine):
    t0 = time.time()
    violations = 0
    checked = 0
    for k in range(0, 5):
        for d in range(1, 8):
            for m in product(range(0, d + 1), repeat=k):
                if tuple(sorted(m, reverse=True)) != m:
                    continue  # permutations add nothing to an integrality check
                beta = DivisorClass(d, m)
                if not 1 <= delta(beta) <= 14:
                    continue
                if engine.quick_vanishing(beta):
                    continue  # no irreducible rational curves: formula out of scope
                checked += 1
                result = c_beta(engine, beta)
                total = result.first_term + result.boundary_term
                if total.denominator != 1 or total != result.value:
                    violations += 1
    print(f"integrality: {checked} classes, {violations} violations")
    report("7 (integrality sweep)", violations == 0, time.time() - t0, 120.0)


def test_criterion_8_permutation_symmetry(engine):
    t0 = time.time()
    ok, lines = symmetry_suite(engine)
    report("8 (permutation symmetry)", ok, time.time() - t0, 30.0)


def test_criterion_9_table_determinism(tmp_path):
    # Each child gets a minimal environment, so a DPCOUNT_CACHE or
    # PYTHONHASHSEED exported by the caller reaches none of the runs.
    # PYTHONPATH points the child at the dpcount package this process
    # imported, whether that is src/ or an installed copy, and
    # PYTHONDONTWRITEBYTECODE keeps the children from writing a
    # __pycache__ into it.
    t0 = time.time()
    package_root = os.path.dirname(os.path.dirname(dpcount.__file__))
    base_cmd = [sys.executable, "-m", "dpcount"]
    table_args = ["table", "--k", "2", "--dmax", "6"]

    def run(**env_extra):
        env = {
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": package_root,
            "PYTHONDONTWRITEBYTECODE": "1",
            **env_extra,
        }
        proc = subprocess.run([*base_cmd, *table_args], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    # fixed, distinct hash seeds: any dependence on hash order shows, reproducibly
    outputs = [run(PYTHONHASHSEED=str(seed)) for seed in (1, 2, 3)]
    cache = tmp_path / "cache.tsv"
    outputs.append(run(DPCOUNT_CACHE=str(cache)))   # cold cache
    assert cache.is_file() and cache.read_text(encoding="utf-8").split(), "cold-cache run left no cache rows"
    outputs.append(run(DPCOUNT_CACHE=str(cache)))   # warm cache
    ok = len(set(outputs)) == 1 and outputs[0].strip()
    report("9 (table determinism)", bool(ok), time.time() - t0, 120.0)


def test_criterion_10_cremona_extended(engine):
    # N and C against the quadratic transform, over the range the Weyl-orbit
    # memo key is checked on by tests/test_gw.py (k = 3..8, d <= 7)
    t0 = time.time()
    ok, lines = cremona_suite(engine)
    for line in lines:
        print(line)
    assert lines[-1] == "cremona invariance: 4677 pairs, ok"
    report("10 (cremona invariance of N and C, k = 3..8, d <= 7)", ok, time.time() - t0, 120.0)


def test_every_exported_name_exists():
    # `from dpcount import *` fails on a stale __all__ entry
    missing = [name for name in dpcount.__all__ if not hasattr(dpcount, name)]
    assert not missing
