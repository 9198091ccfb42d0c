import gc
import os
import random
import stat
import time
from collections import Counter
from itertools import combinations_with_replacement, product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcount.gw import (
    RELATIONS,
    GWEngine,
    InconsistentRelationError,
    RelationEvaluator,
    WDVVRelation,
    _orbit,
    _viable_multiplicities,
    comb0,
    divisor_pool,
    seed_classes,
)
from dpcount.lattice import (
    DivisorClass,
    SurfaceModel,
    arithmetic_genus,
    blown_down_form,
    blown_down_key,
    canonical_form,
    delta,
    intersect,
    minus_one_classes,
    parse_class_literal,
    reduced_form,
)
from dpcount import gw, verify
from dpcount.cusp import c_beta
from oracles import plane_count


def P(d):
    return DivisorClass(d, ())


def memo_key(beta):
    """The `GWEngine._memo` key of a class that is its own key (`blown_down_form`): its ints (d, m)."""
    return beta.d, beta.m


def on_orbits(beta, divisors, weights):
    """An evaluator over the `GWEngine._orbit_data` weights {(d1, delta1): w} of beta.

    A weight sees its halves only through (L.beta1, -K.beta1) = (d1, delta1 + 1),
    so it projects onto L and -K alone, and no other divisor may be asked for."""
    surface = SurfaceModel(beta.k)
    line, mk = surface.line(), surface.anticanonical()
    assert all(x in (line, mk) for x in divisors), [str(x) for x in divisors]
    rows = [
        (tuple(d1 if x == line else delta1 + 1 for x in divisors), w, delta1)
        for (d1, delta1), w in weights.items()
    ]
    return RelationEvaluator(beta, divisors, rows)


def box_splittings(engine, beta):
    """Reference for `GWEngine.splittings`: the whole multiplicity box per d1, then the filter."""
    k, d = beta.k, beta.d
    surface = SurfaceModel(k)
    halves = [surface.exceptional(i) for i in range(k)]
    for d1 in range(1, d):
        ranges = [range(max(0, mi - (d - d1)), min(d1, mi) + 1) for mi in beta.m]
        halves.extend(DivisorClass(d1, m1) for m1 in product(*ranges))
    halves.extend(beta - surface.exceptional(i) for i in range(k))
    pairs = []
    for b1 in halves:
        b2 = beta - b1
        if b1.is_zero() or b2.is_zero():
            continue
        if engine.quick_vanishing(b1) or engine.quick_vanishing(b2):
            continue
        pairs.append((b1, b2))
    pairs.sort(key=lambda p: (p[0].d, p[0].m))
    return tuple(pairs)


def pool_relations(engine, beta, tuples, keep_zero_lhs=False):
    """Reference for `verify.consistency_check`: the check it replaced, over `divisor_pool`.

    Returns (name, divisors, lhs, rhs) for every relation with lhs != 0 on the
    pool index tuples that tuples(arity, pool size) yields; with
    `keep_zero_lhs`, also those with lhs = 0 and rhs != 0.  Each rhs is summed
    row by row, each intersection number is taken directly, x.beta2 included,
    and the splitting data comes from `splittings` and `n_beta`.
    """
    pool = divisor_pool(beta.k)
    db = delta(beta)
    data = [
        (b1, b2, engine.n_beta(b1) * engine.n_beta(b2) * intersect(b1, b2), delta(b1))
        for b1, b2 in engine.splittings(beta)
    ]
    n, s = len(pool), len(data)
    p1 = [[intersect(p, row[0]) for row in data] for p in pool]
    p2 = [[intersect(p, row[1]) for row in data] for p in pool]
    pb = [intersect(p, beta) for p in pool]
    pp = [[intersect(x, y) for y in pool] for x in pool]
    w = [row[2] for row in data]
    d1s = [row[3] for row in data]
    found = []
    if db >= 3:
        c_hi = [comb0(db - 3, d1 - 1) for d1 in d1s]
        c_lo = [comb0(db - 3, d1 - 2) for d1 in d1s]
        for ia, ib in tuples(2, n):
            if pp[ia][ib] == 0 and not keep_zero_lhs:
                continue
            rhs = sum(
                w[t] * p2[ib][t] * (p1[ia][t] * c_hi[t] - p2[ia][t] * c_lo[t]) for t in range(s)
            )
            if pp[ia][ib] == rhs == 0:
                continue
            found.append(("R1", (pool[ia], pool[ib]), pp[ia][ib], rhs))
    if db >= 2:
        cw = [comb0(db - 2, d1s[t]) * w[t] for t in range(s)]
        for ia, ib, ic in tuples(3, n):
            lhs = pp[ia][ib] * pb[ic] - pp[ia][ic] * pb[ib]
            if lhs == 0 and not keep_zero_lhs:
                continue
            rhs = sum(
                cw[t] * p1[ia][t] * (p1[ic][t] * p2[ib][t] - p1[ib][t] * p2[ic][t])
                for t in range(s)
            )
            if lhs == rhs == 0:
                continue
            found.append(("R2", (pool[ia], pool[ib], pool[ic]), lhs, rhs))
    if db >= 1:
        cw = [comb0(db - 1, d1s[t]) * w[t] for t in range(s)]
        # products of two half-intersections per index pair
        prod1, prod2 = {}, {}
        for i, j in product(range(n), repeat=2):
            prod1[i, j] = [p1[i][t] * p1[j][t] for t in range(s)]
            prod2[i, j] = [p2[i][t] * p2[j][t] for t in range(s)]
        for ia, ib, ic, idx in tuples(4, n):
            lhs = (
                pp[ia][ib] * pb[ic] * pb[idx]
                + pp[ic][idx] * pb[ia] * pb[ib]
                - pp[ia][ic] * pb[ib] * pb[idx]
                - pp[ib][idx] * pb[ia] * pb[ic]
            )
            if lhs == 0 and not keep_zero_lhs:
                continue
            left, right = prod1[ia, ic], prod2[ib, idx]
            left2, right2 = prod1[ia, ib], prod2[ic, idx]
            rhs = sum(cw[t] * (left[t] * right[t] - left2[t] * right2[t]) for t in range(s))
            if lhs == rhs == 0:
                continue
            found.append(("R3", (pool[ia], pool[ib], pool[ic], pool[idx]), lhs, rhs))
    return found


def pool_solve_low_delta(engine, beta):
    """Reference for the delta 1 and 2 solves of `GWEngine._orbit_relation`: the solver they
    replaced, over `divisor_pool`.

    The first pool tuple with lhs != 0, R2 before R3, solved over the whole
    splitting list.  Unlike the solve on L and -K it needs no reduced key: it
    also solves classes such as 2;1,1,1,1, where every stabiliser-invariant
    R3 tuple is degenerate.
    """
    db = delta(beta)
    pool = divisor_pool(beta.k)
    pp = [[intersect(x, y) for y in pool] for x in pool]
    pb = [intersect(x, beta) for x in pool]
    lhs = {  # as `pool_relations` takes them, from intersection numbers alone
        "R2": lambda a, b, c: pp[a][b] * pb[c] - pp[a][c] * pb[b],
        "R3": lambda a, b, c, d: (
            pp[a][b] * pb[c] * pb[d] + pp[c][d] * pb[a] * pb[b] - pp[a][c] * pb[b] * pb[d] - pp[b][d] * pb[a] * pb[c]
        ),
    }
    for name in ("R2", "R3"):
        arity, low = RELATIONS[name]
        if db < low:
            continue
        for ins in product(range(len(pool)), repeat=arity):
            if lhs[name](*ins) != 0:
                return verify.relation(engine, name, beta, tuple(pool[i] for i in ins)).solve()
    raise ValueError(f"no nondegenerate relation in the pool for {beta}")


def canonical_with_sum(k, d, total):
    """Every non-increasing m of length k with entries in 0..d and sum(m) = total."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for a in range(min(d, total), -1, -1):
        if a * k < total:
            break
        for rest in canonical_with_sum(k - 1, a, total - a):
            yield (a,) + rest


def every_tuple(arity, n):
    return product(range(n), repeat=arity)


def some_tuples(rng, count):
    """Every tuple when there are at most `count` of them, else `count` seeded draws."""

    def tuples(arity, n):
        if n**arity <= count:
            return every_tuple(arity, n)
        return [tuple(rng.randrange(n) for _ in range(arity)) for _ in range(count)]

    return tuples


class CanonicalKeyEngine(GWEngine):
    """Reference for the Weyl-orbit memo key: N memoized per canonical class alone.

    Every class of a Weyl orbit is solved on its own, through its own
    splitting orbits; `_run` asks this `n_beta` for each half that `_rows`
    yields, where the engine's own driver goes to its `blown_down_key` and
    int-keyed solve, so no engine key is read.  Its keys are
    not reduced, so low-delta classes go to the pool reference solver.  It
    solves delta >= 3 by R1(-K, -K) over every orbit, E_i ones included, so it
    also checks the engine's R1(L, -K) solve; it sums that relation itself, term
    by term with `comb0`, and shares no R1 code with the engine.
    """

    def n_beta(self, beta):
        key = canonical_form(beta)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        seed = self.seed_value(key)
        if seed is not None:
            value = seed
        elif self.quick_vanishing(key):
            value = 0
        elif delta(key) >= 3:
            # -K.beta1 = delta1 + 1 and -K.beta2 = delta - delta1 on a weight at (d1, delta1)
            db, mk = delta(key), SurfaceModel(key.k).anticanonical()
            rhs = sum(
                w * (db - e) * (comb0(db - 3, e - 1) * (e + 1) - comb0(db - 3, e - 2) * (db - e))
                for (_, e), w in self._orbit_data(key).items()
            )
            value = WDVVRelation("R1", (mk, mk), intersect(mk, mk), rhs).solve()
        else:
            value = pool_solve_low_delta(self, key)
        self._memo[key] = value
        return value

    def _run(self, task):
        value = None
        while True:
            try:
                half = task.send(value)
            except StopIteration as done:
                return done.value
            value = self.n_beta(DivisorClass(*half))


def orbit_row(h1, h2, size, swap):
    """A `GWEngine._orbit_rows` row of the halves h1 and h2, its derived fields recomputed from them:
    the canonical halves by `sorted`, size * (beta1.beta2) by `intersect` and delta(beta1) by `delta`."""
    b1, b2 = DivisorClass(*h1), DivisorClass(*h2)
    c1, c2 = ((b.d, tuple(sorted(b.m, reverse=True))) for b in (b1, b2))
    return h1, h2, size, swap, c1, c2, size * intersect(b1, b2), delta(b1)


def lhs_zero_poisoned_engine():
    """An engine whose only splitting of 1;1 is E_1 + (L - 2E_1), with N(L - 2E_1) = 1.

    (L - E_1)^2 = 0 on k = 1, so every relation on 1;1 has lhs = 0 for all
    insertions and only the rhs = 0 rule sees its splittings.  The vanishing
    half L - 2E_1 is admitted as a quick_vanishing that lost the m_i <= d rule
    would admit it.
    """
    engine = GWEngine()
    beta, e1, bad = DivisorClass(1, (1,)), SurfaceModel(1).exceptional(0), DivisorClass(1, (2,))
    rows = (orbit_row((e1.d, e1.m), (bad.d, bad.m), 1, True),)
    engine._orbit_rows = lambda b: rows if b == beta else GWEngine._orbit_rows(engine, b)
    engine._memo[memo_key(bad)] = 1
    return engine, beta


def pivot_poisoned_engine():
    """An engine whose only splitting of 0;-1,-1 = E_1 + E_2 is (2E_1 - E_2) + (2E_2 - E_1), with N = 1
    for both halves, which vanish.

    L.beta = 0 there, and every half has degree 0, so each R3 table row D reads D[L] = 0 at the
    engine value N = 0: a verdict that tested D against x.beta at the pivot L would pass, while
    the relations on the E_i fail."""
    engine = GWEngine()
    beta = DivisorClass(0, (-1, -1))
    rows = (orbit_row((0, (-2, 1)), (0, (1, -2)), 1, False),)
    engine._orbit_rows = lambda b: rows if b == beta else GWEngine._orbit_rows(engine, b)
    for half in rows[0][:2]:
        engine._memo[blown_down_key(*half)] = 1
    return engine, beta


@pytest.fixture
def orbit_row_calls(monkeypatch):
    """The classes, as literals, whose rows `GWEngine._orbit_rows` lists, once per call."""
    calls = []
    orbit_rows = GWEngine._orbit_rows
    monkeypatch.setattr(GWEngine, "_orbit_rows", lambda self, b: calls.append(str(b)) or orbit_rows(self, b))
    return calls


def small_classes():
    """Every class with k <= 3 and -1 <= d <= 6, m_i in [-1, d + 1], in every order."""
    for k in range(4):
        for d in range(-1, 7):
            for m in product(range(-1, d + 2), repeat=k):
                yield DivisorClass(d, m)


def large_classes():
    """Both `cold_nbeta` anchors and 12 seeded k = 6..8 classes with delta >= 1."""
    rng = random.Random(2015)
    sample = [DivisorClass(8, (2,) * 6), DivisorClass(7, (3,) + (2,) * 7)]
    while len(sample) < 14:
        k, d = rng.randint(6, 8), rng.randint(2, 7)
        beta = DivisorClass(d, tuple(rng.randint(0, min(d, 3)) for _ in range(k)))
        if delta(beta) >= 1:
            sample.append(beta)
    return sample


class TestSeeds:
    def test_exceptional_curve(self, engine):
        assert engine.seed_value(SurfaceModel(5).exceptional(2)) == 1

    def test_line(self, engine):
        assert engine.seed_value(P(1)) == 1

    def test_line_through_blown_up_point(self, engine):
        assert engine.seed_value(DivisorClass(1, (1, 0, 0))) == 1

    def test_anticanonical_pencil_on_k8(self, engine):
        assert engine.seed_value(DivisorClass(3, (1,) * 8)) == 12
        assert engine.seed_value(DivisorClass(3, (1,) * 7)) is None

    def test_absent_for_generic_class(self, engine):
        assert engine.seed_value(P(2)) is None


class TestQuickVanishing:
    def test_degree_zero_non_exceptional(self, engine):
        assert engine.quick_vanishing(DivisorClass(0, (-1, -1)))

    def test_multiplicity_exceeds_degree(self, engine):
        assert engine.quick_vanishing(DivisorClass(1, (2,)))

    def test_negative_genus(self, engine):
        assert engine.quick_vanishing(DivisorClass(2, (2, 1)))

    def test_survivors(self, engine):
        assert not engine.quick_vanishing(P(1))
        assert not engine.quick_vanishing(DivisorClass(0, (0, -1)))
        assert not engine.quick_vanishing(DivisorClass(2, (1, 1, 1, 1)))

    def test_the_verdict_does_not_depend_on_the_order_of_m(self, engine):
        # so the samplers in `verify` may test a drawn class as it is drawn
        classes = list(small_classes())
        classes += [DivisorClass(b.d, b.m[::-1]) for b in large_classes()]
        for beta in classes:
            assert engine.quick_vanishing(beta) == engine.quick_vanishing(canonical_form(beta)), beta

    def test_the_solve_decides_as_seed_value_and_quick_vanishing(self, engine):
        # n_beta decides on a class's key, without a relation, exactly when seed_value or
        # quick_vanishing of the key's class does; a fresh engine then files that key alone,
        # while a solve files the halves it reads too (every solved key here reads one)
        by_key = {}
        for k in range(5):
            for d in range(-1, 9):
                for m in product(range(-2, d + 2), repeat=k):
                    beta = DivisorClass(d, m)
                    by_key.setdefault(blown_down_form(beta), []).append(beta)
        assert (len(by_key), sum(map(len, by_key.values()))) == (5117, 67498)
        solved = 0
        for key, classes in by_key.items():
            fresh = GWEngine()
            value = fresh.n_beta(key)
            seed, vanishing = engine.seed_value(key), engine.quick_vanishing(key)
            assert (fresh.memo_size == 1) == (seed is not None or vanishing), key
            if seed is not None or vanishing:
                assert value == (seed or 0), key
            solved += fresh.memo_size > 1
            for beta in classes:  # the verdict on a class itself agrees with its key's value
                assert engine.seed_value(beta) in (None, value), beta
                assert not (engine.quick_vanishing(beta) and value), beta
        assert solved > 0


class TestSplittings:
    def test_plane_conic(self, engine):
        assert engine.splittings(P(2)) == ((P(1), P(1)),)

    def test_plane_cubic(self, engine):
        assert engine.splittings(P(3)) == ((P(1), P(2)), (P(2), P(1)))

    def test_line_through_one_point_on_two_blowups(self, engine):
        beta = DivisorClass(1, (1, 0))
        e2 = DivisorClass(0, (0, -1))
        rest = DivisorClass(1, (1, 1))
        assert set(engine.splittings(beta)) == {(e2, rest), (rest, e2)}

    def test_parts_sum_and_survive(self, engine):
        beta = DivisorClass(4, (2, 1, 1))
        for b1, b2 in engine.splittings(beta):
            assert b1 + b2 == beta
            assert not b1.is_zero() and not b2.is_zero()
            assert not engine.quick_vanishing(b1)
            assert not engine.quick_vanishing(b2)

    def test_matches_box_enumeration_small_k(self):
        # every order, negative multiplicities and m_i > d included
        engine = GWEngine()
        for beta in small_classes():
            assert engine.splittings(beta) == box_splittings(engine, beta), beta

    def test_matches_box_enumeration_large_k(self):
        # canonical and reversed: the walk caps each position by the last earlier one with equal m_i
        engine = GWEngine()
        for beta in large_classes():
            for b in (beta, DivisorClass(beta.d, beta.m[::-1])):
                assert engine.splittings(b) == box_splittings(engine, b), b

    def test_matches_box_enumeration_on_plane_classes(self):
        # the k = 0 rows are listed without the walk, one per 1 <= d1 <= d/2
        engine = GWEngine()
        for d in range(41):
            assert engine.splittings(P(d)) == box_splittings(engine, P(d)), d


class TestSplittingOrbits:
    """`GWEngine._orbit_rows`: one row ((d1, m1), (d2, m2), size, swap, c1, c2, w, delta1) of ints per
    stabiliser orbit."""

    def test_plane_quartic(self, engine):
        # (3L, L) is the swap of (L, 3L); (2L, 2L) is its own; L.3L = 3, delta(L) = 2, 2L.2L = 4, delta(2L) = 5
        assert engine._orbit_rows(P(4)) == (
            ((1, ()), (3, ()), 1, True, (1, ()), (3, ()), 3, 2),
            ((2, ()), (2, ()), 1, False, (2, ()), (2, ()), 4, 5),
        )

    def test_weights_are_block_multinomials(self, engine):
        # the E_i halves of 3L - E1 - ... - E4 form one orbit of size 4
        beta = DivisorClass(3, (1, 1, 1, 1))
        orbits = {h1: size for h1, _, size, *_ in engine._orbit_rows(beta)}
        assert orbits[(0, (-1, 0, 0, 0))] == 4
        assert orbits[(1, (1, 1, 0, 0))] == 6

    def test_canonical_orbits_cover_the_ordered_splittings(self, engine):
        # each listed orbit, and its swap when flagged, expands to exactly
        # the ordered pairs of splittings(beta), each once (the d = 0 halves
        # E_i and beta - E_i are enumerated apart, as in box_splittings); with
        # -K fixed by the stabiliser, the orbit-weighted R1(-K, -K) over every
        # orbit, E_i ones included, is the relation over the whole ordered list
        canonical = {canonical_form(b) for b in small_classes()}
        canonical.update(canonical_form(b) for b in large_classes())
        for beta in sorted(canonical, key=lambda b: (b.k, b.d, b.m)):
            pairs = engine.splittings(beta)
            int_pairs = [((b1.d, b1.m), (b2.d, b2.m)) for b1, b2 in pairs]
            expanded = Counter()
            for h1, h2, size, swap, *_ in engine._orbit_rows(beta):
                assert (h1, h2) in int_pairs and (not swap or (h2, h1) in int_pairs), beta
                for half in (h1, h2) if swap else (h1,):
                    members = _orbit(beta.m, half[1])
                    assert len(members) == size, (str(beta), half)
                    expanded.update((half[0], m1) for m1 in members)
            assert expanded == Counter(h1 for h1, _ in int_pairs), beta
            if beta.d != 0:
                assert len(set(pairs)) == len(pairs), beta
            if delta(beta) >= 3:
                mk = SurfaceModel(beta.k).anticanonical()
                orbit_rhs = on_orbits(beta, (mk, mk), engine._orbit_data(beta)).relation("R1", (0, 1)).rhs
                assert orbit_rhs == verify.relation(engine, "R1", beta, (mk, mk)).rhs, beta

    def test_walk_weights_are_orbit_lengths_in_any_order(self, engine):
        # `splittings` is public and passes m in any order to _orbit_rows, so
        # permuted classes are checked besides the canonical ones above
        classes = set(small_classes()) | set(large_classes())
        classes |= {canonical_form(b) for b in classes}
        classes |= {DivisorClass(b.d, b.m[::-1]) for b in large_classes()}
        for beta in classes:
            for h1, _, size, *_ in engine._orbit_rows(beta):
                assert size == len(_orbit(beta.m, h1[1])), (str(beta), h1)

    def test_derived_fields_match_the_positional_halves(self, engine):
        # the walk derives the canonical halves, size * (beta1.beta2) and delta(beta1) from its
        # running sums, and `_orbit_rows` those of the E_i rows from m; each row is recomputed
        # here from its positional halves, on every reduced key with k <= 8 and d <= 9 (plane,
        # one-block, two- and three-block keys) and on its reverse, whose blocks the walk meets
        # in increasing order
        keys = [
            (d, m)
            for k in range(9)
            for d in range(10)
            for m in combinations_with_replacement(range(d, -1, -1), k)
            if blown_down_key(d, m) == (d, m)
        ]
        assert {len(set(m)) for _, m in keys} == {0, 1, 2, 3}
        rows = 0
        for d, m in keys:
            for beta in {DivisorClass(d, m), DivisorClass(d, m[::-1])}:
                for row in engine._orbit_rows(beta):
                    assert row == orbit_row(*row[:4]), str(beta)
                    rows += 1
        assert rows > 10000

    def test_delta_zero_viable_halves_are_seeds(self):
        # why _orbit_rows skips the delta = 0 seed test on the halves of
        # _viable_multiplicities: -K.h = 1 and genus >= 0 make h a (-1)-class
        # or, at k = 8, -K (Hodge index theorem)
        classes = [
            DivisorClass(d, m)
            for k in range(9)
            for d in range(1, 13)
            for m in canonical_with_sum(k, d, 3 * d - 1)
        ]
        classes = [b for b in classes if arithmetic_genus(b) >= 0]
        assert len(classes) == 17
        assert [str(b) for b in classes if b not in seed_classes(b.k)] == []


class TestR1Insertions:
    """`n_beta` solves delta >= 3 by R1(L, -K) over the orbits with d1 >= 1 alone."""

    @staticmethod
    def classes():
        """Every canonical class with delta >= 3 of small_classes and large_classes, and 12;3^8."""
        canonical = {canonical_form(b) for b in small_classes()}
        canonical.update(canonical_form(b) for b in large_classes())
        canonical.add(DivisorClass(12, (3,) * 8))
        return sorted((b for b in canonical if delta(b) >= 3), key=lambda b: (b.k, b.d, b.m))

    @staticmethod
    def d1_weights(engine, beta):
        """The weights of the orbits with d1 >= 1 that `n_beta` passes to `_orbit_relation` at delta >= 3."""
        return engine._run(engine._rows(beta, _viable_multiplicities(beta.m, beta.d)))

    def test_the_e_i_orbits_add_nothing_once_l_is_inserted(self, engine):
        # an E_i orbit adds w at (d1, delta1) = (0, 0), for the half E_i, both of whose
        # R1 binomials are 0, and at (d, delta - 1), for beta - E_i, whose term is -w (a.E_i)(b.E_i)
        dropped = changed_by_minus_k = 0
        for beta in self.classes():
            surface = SurfaceModel(beta.k)
            line, mk = surface.line(), surface.anticanonical()
            full, kept = engine._orbit_data(beta), self.d1_weights(engine, beta)
            # the weights of the E_i orbits are those at degree 0 or d, where no other orbit adds
            assert kept == {key: w for key, w in full.items() if 0 < key[0] < beta.d}, beta
            dropped += len(kept) < len(full)
            for divisors in ((line, mk), (mk, line), (line, line)):
                on_full = on_orbits(beta, divisors, full).relation("R1", (0, 1))
                on_kept = on_orbits(beta, divisors, kept).relation("R1", (0, 1))
                assert on_full == on_kept, (str(beta), [str(x) for x in divisors])
            rhs = [on_orbits(beta, (mk, mk), data).relation("R1", (0, 1)).rhs for data in (full, kept)]
            changed_by_minus_k += rhs[0] != rhs[1]
        # the E_i rows were there to drop, and R1(-K, -K) needs them
        assert dropped > 0 and changed_by_minus_k > 0

    def test_merged_weights_give_the_relation_of_the_unmerged_rows(self, engine):
        # the solve merges the orbits per (L.beta1, -K.beta1); summed row by row
        # over the unmerged orbits with d1 >= 1, each built here from the walk's
        # orbit rows and `n_beta`, R1(L, -K) has the same two sides
        merged_somewhere = False
        for beta in self.classes():
            surface = SurfaceModel(beta.k)
            line, mk = surface.line(), surface.anticanonical()
            rows = []  # (half, size * N1 * N2 * (beta1.beta2)), a swapped orbit a row of its own
            for (d1, m1), (d2, m2), size, swap, *_ in _viable_multiplicities(beta.m, beta.d):
                b1, b2 = DivisorClass(d1, m1), DivisorClass(d2, m2)
                if w := size * engine.n_beta(b1) * engine.n_beta(b2) * intersect(b1, b2):
                    rows.extend((half, w) for half in ((b1, b2) if swap else (b1,)))
            n, rhs, projections = delta(beta) - 3, 0, set()
            for half, w in rows:
                a1, b1 = intersect(line, half), intersect(mk, half)
                a2, b2 = intersect(line, beta) - a1, intersect(mk, beta) - b1
                rhs += w * b2 * (a1 * comb0(n, delta(half) - 1) - a2 * comb0(n, delta(half) - 2))
                projections.add((a1, b1))
            merged_somewhere |= len(projections) < len(rows)
            relation = engine._orbit_relation(beta, self.d1_weights(engine, beta))
            assert relation == WDVVRelation("R1", (line, mk), intersect(line, mk), rhs), str(beta)
            assert relation.lhs_coeff == 3
        assert merged_somewhere

    def test_r1_minus_k_minus_k_over_every_orbit_agrees_with_the_solve(self, engine):
        # R1(-K, -K) reads the E_i orbits too, so it checks the solve's value independently
        for beta in self.classes():
            mk = SurfaceModel(beta.k).anticanonical()
            relation = on_orbits(beta, (mk, mk), engine._orbit_data(beta)).relation("R1", (0, 1))
            assert relation.solve() == engine.n_beta(beta), beta

    def test_a_cold_count_solves_no_other_key_of_its_degree(self):
        # R1(-K, -K) would need N(beta - E_i) = N(8;3,2^5) too, then 8;3,3,2^4, ...
        engine = GWEngine()
        beta = DivisorClass(8, (2,) * 6)
        assert engine.n_beta(beta) == 8613864688
        assert memo_key(blown_down_form(DivisorClass(8, (3, 2, 2, 2, 2, 2)))) not in engine._memo
        assert [key for key in engine._memo if key[0] >= beta.d] == [memo_key(beta)]

    def test_a_cold_count_lists_no_orbit_rows_and_no_e_i_half(self, monkeypatch, orbit_row_calls):
        # the solve merges the walk's orbits as they come: no `_orbit_rows` call, and
        # no beta - E_i row, so no seed or vanishing test of one, for any key it solves;
        # the solve and `_orbit_rows` test a class by the int rule `gw._base_value`
        tested = []
        base_value = gw._base_value
        monkeypatch.setattr(
            gw, "_base_value", lambda d, m: tested.append(DivisorClass(d, m)) or base_value(d, m)
        )
        engine = GWEngine()
        assert engine.n_beta(DivisorClass(8, (2,) * 6)) == 8613864688
        assert orbit_row_calls == []
        minus_e_i = {
            (d, tuple(sorted((*m[:i], m[i] + 1, *m[i + 1 :]), reverse=True)))
            for d, m in engine._memo
            for i in range(len(m))
        }
        assert tested and [str(b) for b in tested if (b.d, tuple(sorted(b.m, reverse=True))) in minus_e_i] == []

    @pytest.mark.parametrize(
        "literal, value",
        [
            # recorded from the engine before the R1 solve merged its rows
            ("14;4,4,4,4,4,4,4,4", 7022436368411200),
            ("15;4,4,4,4,4,4,4,4", 378644557632132632544),
            ("17;5,5,5,5,5,5,5,5", 17217270177916895232),
        ],
    )
    def test_k_8_classes_where_the_rows_merge(self, literal, value, orbit_row_calls):
        # the R1 keys of these solves list no orbit rows; the only rows listed are
        # those of 6;2^8 and 9;3^8, the delta 1 and 2 keys, once each
        engine = GWEngine()
        assert engine.n_beta(parse_class_literal(literal)) == value
        assert set(orbit_row_calls) <= {"6;2,2,2,2,2,2,2,2", "9;3,3,3,3,3,3,3,3"}
        assert len(set(orbit_row_calls)) == len(orbit_row_calls)

    @pytest.mark.parametrize("half", ["4;2", "6;2,2,2,2,2,2,2,2"])
    def test_the_division_by_three_catches_a_poisoned_half_at_k_8(self, half):
        # at k = 8 the lhs of R1(-K, -K) is (-K)^2 = 1, so no rhs could fail
        # the division; L.(-K) = 3 is the lhs at every k
        beta = parse_class_literal("7;3,2,2,2,2,2,2,2")
        clean = GWEngine()
        clean.n_beta(beta)
        engine = GWEngine()
        engine._memo.update((key, value) for key, value in clean._memo.items() if key != memo_key(beta))
        engine._memo[memo_key(parse_class_literal(half))] += 1
        with pytest.raises(InconsistentRelationError, match="not divisible by lhs coefficient 3"):
            engine.n_beta(beta)


class TestWeylKey:
    def test_matches_the_canonical_key_on_every_class_up_to_degree_7(self, monkeypatch):
        # every canonical class with k = 3..8, d <= 7, m_i >= 0, delta >= 1
        # that quick_vanishing does not decide; zero values included
        engine, reference = GWEngine(), CanonicalKeyEngine()
        classes = [
            DivisorClass(d, m)
            for k in range(3, 9)
            for d in range(1, 8)
            for m in combinations_with_replacement(range(d, -1, -1), k)
        ]
        classes = [b for b in classes if delta(b) >= 1 and not engine.quick_vanishing(b)]
        assert len(classes) == 2161
        with monkeypatch.context() as patch:  # the reference reads no engine key, its halves' included
            patch.setattr(gw, "blown_down_key", None)
            expected = [reference.n_beta(b) for b in classes]
        mismatches = [str(b) for b, value in zip(classes, expected) if engine.n_beta(b) != value]
        assert mismatches == []
        assert sum(engine.n_beta(b) == 0 for b in classes) == 242

    def test_one_memo_entry_per_orbit(self):
        engine = GWEngine()
        assert engine.n_beta(DivisorClass(5, (2, 2, 2, 0))) == 620
        assert engine.n_beta(DivisorClass(4, (0, 1, 1, 1))) == 620
        # both reduce to 4;1,1,1,0, whose 0 and 1s blow down to the plane quartic
        assert memo_key(DivisorClass(5, (2, 2, 2, 0))) not in engine._memo
        assert memo_key(DivisorClass(4, (1, 1, 1, 0))) not in engine._memo
        assert engine._memo[memo_key(P(4))] == 620


class TestBlowDownKey:
    """The memo key drops m_i in {0, 1} only at delta >= 1, where N does not see them."""

    def test_negative_delta_keeps_its_zero(self):
        # dropping a 1 from 1;1,1,1 (delta -1) would give the seed 1;1,1
        engine = GWEngine()
        assert engine.n_beta(DivisorClass(1, (1, 1, 1))) == 0
        assert engine.n_beta(DivisorClass(1, (1, 1))) == 1

    @pytest.mark.parametrize("beta, value", [(DivisorClass(2, (1,) * 5), 1), (DivisorClass(3, (1,) * 8), 12)])
    def test_delta_zero_seeds_keep_their_own_keys(self, beta, value):
        engine = GWEngine()
        assert delta(beta) == 0
        assert blown_down_form(beta) == reduced_form(beta)
        assert engine.n_beta(beta) == value
        assert engine._memo == {memo_key(reduced_form(beta)): value}

    def test_stripped_classes_share_the_plane_entry(self):
        engine = GWEngine()
        assert engine.n_beta(P(4)) == 620
        known = engine.memo_size
        assert engine.n_beta(DivisorClass(4, (1, 0))) == 620
        assert engine.n_beta(DivisorClass(4, (0, 1, 1, 1, 1, 1, 1, 1))) == 620
        assert engine.memo_size == known  # both hits on 4;
        assert all(blown_down_key(*key) == key for key in engine._memo)


# every reduced key with k <= 8, d <= 12 and delta 1 or 2 that is neither a
# seed nor quick_vanishing, and its N
LOW_DELTA_KEYS = {
    "3;1,1,1,1,1,1": 12,
    "3;1,1,1,1,1,1,0": 12,
    "3;1,1,1,1,1,1,0,0": 12,
    "3;1,1,1,1,1,1,1": 12,
    "3;1,1,1,1,1,1,1,0": 12,
    "4;2,1,1,1,1,1,1,1": 96,
    "6;2,2,2,2,2,2,2,1": 576,
    "6;2,2,2,2,2,2,2,2": 90,
    "9;3,3,3,3,3,3,3,3": 2880,
}


class TestLowDelta:
    def test_every_reduced_key_solves_on_the_invariant_basis(self):
        engine, reference = GWEngine(), CanonicalKeyEngine()
        keys = [
            DivisorClass(d, m)
            for k in range(9)
            for d in range(1, 13)
            for total in (3 * d - 2, 3 * d - 3)
            for m in canonical_with_sum(k, d, total)
        ]
        keys = [
            b
            for b in keys
            if reduced_form(b) == b and engine.seed_value(b) is None and not engine.quick_vanishing(b)
        ]
        # of these keys only two are their own memo key, so only they reach the solve
        own_keys = [str(b) for b in keys if blown_down_key(b.d, b.m) == (b.d, b.m)]
        assert own_keys == ["6;2,2,2,2,2,2,2,2", "9;3,3,3,3,3,3,3,3"]
        # the relation `_orbit_relation` names on (L, -K) refuses a zero lhs in `.solve()`
        assert {str(b): engine._orbit_relation(b, engine._orbit_data(b)).solve() for b in keys} == LOW_DELTA_KEYS
        assert {str(b): pool_solve_low_delta(reference, b) for b in keys} == LOW_DELTA_KEYS
        assert all(engine.n_beta(b) == LOW_DELTA_KEYS[str(b)] for b in keys)

    def test_unreduced_class_has_no_invariant_relation(self):
        engine = GWEngine()
        beta = DivisorClass(2, (1, 1, 1, 1))
        relation = engine._orbit_relation(beta, engine._orbit_data(beta))
        assert relation.lhs_coeff == 0
        with pytest.raises(ValueError, match="degenerate"):
            relation.solve()
        assert pool_solve_low_delta(engine, beta) == engine.n_beta(beta) == 1

    def test_named_relations_have_closed_form_lhs(self):
        # with L.beta = d and -K.beta = delta + 1, the lhs reads no weights; at delta 1 the R3 lhs
        # vanishes only where 9 - k = (12 d - 4) / d^2, which lies in (0, 1) for d > 12
        engine, zeros = GWEngine(), []
        for k in range(9):
            surface = SurfaceModel(k)
            line, minus_k = surface.line(), surface.anticanonical()
            named = {1: ("R3", (line, line, minus_k, minus_k)), 2: ("R2", (line, line, minus_k))}
            for d, db in product(range(1, 13), (1, 2)):
                total = 3 * d - db - 1
                for m in canonical_with_sum(k, total, total):
                    beta = DivisorClass(d, m)
                    lhs = -sum(m) if db == 2 else (db + 1) ** 2 - 6 * d * (db + 1) + (9 - k) * d * d
                    assert engine._orbit_relation(beta, {})[:3] == (*named[db], lhs), beta
                    if not lhs:
                        zeros.append(beta)
        lines = [str(DivisorClass(1, (0,) * k)) for k in range(9)]  # L at delta 2, by k
        conics = ["2;4,0,0,0", "2;3,1,0,0", "2;2,2,0,0", "2;2,1,1,0", "2;1,1,1,1"]  # d = 2, k = 4, delta 1
        assert sorted(map(str, zeros)) == sorted([*lines, "1;1", *conics])
        assert all(gw._base_value(b.d, b.m) is not None or reduced_form(b) != b for b in zeros)

    @pytest.mark.parametrize(
        "literal, name, insertions, lhs, value",
        [("6;2,2,2,2,2,2,2,2", "R3", "LLKK", -32, 90), ("9;3,3,3,3,3,3,3,3", "R2", "LLK", -24, 2880)],
    )
    def test_the_blown_down_keys_solve_on_l_and_minus_k(self, literal, name, insertions, lhs, value):
        # the first tuple of (L, -K) with lhs != 0; |lhs| > 1, so the division checks the rhs
        surface = SurfaceModel(8)
        divisors = {"L": surface.line(), "K": surface.anticanonical()}
        engine = GWEngine()
        beta = parse_class_literal(literal)
        relation = engine._orbit_relation(beta, engine._orbit_data(beta))
        assert relation[:3] == (name, tuple(divisors[x] for x in insertions), lhs)
        assert relation.solve() == value == engine.n_beta(beta)


class TestRelationR1:
    def test_conic(self, engine):
        rel = verify.relation(engine, "R1", P(2), (P(1), P(1)))
        assert (rel.lhs_coeff, rel.rhs) == (1, 1)

    def test_nodal_cubics(self, engine):
        assert verify.relation(engine, "R1", P(3), (P(1), P(1))).rhs == 12

    def test_quartics(self, engine):
        assert verify.relation(engine, "R1", P(4), (P(1), P(1))).rhs == 620

    def test_precondition(self, engine):
        with pytest.raises(ValueError):
            verify.relation(engine, "R1", P(1), (P(1), P(1)))


class TestRelationR2:
    def test_conic_through_three_assigned_points(self, engine):
        surface = SurfaceModel(3)
        rel = verify.relation(
            engine, "R2", DivisorClass(2, (1, 1, 1)), (surface.line(), surface.line(), surface.exceptional(0))
        )
        assert (rel.lhs_coeff, rel.rhs) == (1, 1)

    def test_degenerate_for_proportional_divisors(self, engine):
        assert RelationEvaluator(P(1), (P(1), P(1), P(1))).relation("R2", (0, 1, 2)).lhs_coeff == 0

    def test_coefficient_arithmetic(self, engine):
        surface = SurfaceModel(1)
        divisors = (surface.line(), surface.line(), surface.exceptional(0))
        assert RelationEvaluator(DivisorClass(2, (1,)), divisors).relation("R2", (0, 1, 2)).lhs_coeff == 1

    def test_precondition(self, engine):
        with pytest.raises(ValueError):
            verify.relation(engine, "R2", DivisorClass(1, (1, 0)), (P2_L, P2_L, P2_L))


P2_L = DivisorClass(1, (0, 0))


class TestRelationR3:
    def test_line_through_assigned_point(self, engine):
        surface = SurfaceModel(2)
        rel = verify.relation(
            engine,
            "R3",
            DivisorClass(1, (1, 0)),
            (surface.exceptional(0), surface.exceptional(1), surface.line(), surface.line() - surface.exceptional(1)),
        )
        assert (rel.lhs_coeff, rel.rhs) == (-1, -1)

    def test_degenerate_on_k1_line_class(self, engine):
        surface = SurfaceModel(1)
        basis = (surface.line(), surface.exceptional(0))
        beta = surface.line() - surface.exceptional(0)
        for a in basis:
            for b in basis:
                for c in basis:
                    for d in basis:
                        evaluator = RelationEvaluator(beta, (a, b, c, d))
                        assert evaluator.relation("R3", (0, 1, 2, 3)).lhs_coeff == 0

    def test_degenerate_for_proportional_divisors(self, engine):
        assert RelationEvaluator(P(2), (P(1),) * 4).relation("R3", (0, 1, 2, 3)).lhs_coeff == 0


class TestPinnedDelegates:
    """`GWEngine.consistency_check` and `relation_r1/r2/r3` forward to `verify`, whose functions they name."""

    def test_each_delegate_gives_what_verify_gives(self, engine):
        surface = SurfaceModel(2)
        line, e1, e2 = surface.line(), surface.exceptional(0), surface.exceptional(1)
        beta = DivisorClass(4, (1, 1))
        assert engine.consistency_check(beta) == verify.consistency_check(engine, beta)
        for name, divisors in (("R1", (line, e1)), ("R2", (line, e1, e2)), ("R3", (line, e1, e2, line))):
            delegate = getattr(engine, f"relation_{name.lower()}")
            assert delegate(beta, *divisors) == verify.relation(engine, name, beta, divisors)


class TestNBeta:
    def test_plane_sequence_matches_classical_recursion(self, engine):
        for d in range(1, 8):
            assert engine.n_beta(P(d)) == plane_count(d)

    def test_cubics_through_blown_up_point(self, engine):
        assert engine.n_beta(DivisorClass(3, (1,))) == 12

    def test_conic_through_assigned_points(self, engine):
        assert engine.n_beta(DivisorClass(2, (1, 1, 1, 1))) == 1

    def test_specialization_identity(self, engine):
        for d in range(1, 6):
            expected = engine.n_beta(P(d))
            for k in range(1, 5):
                for r in range(0, min(k, 3 * d - 2) + 1):
                    m = (1,) * r + (0,) * (k - r)
                    assert engine.n_beta(DivisorClass(d, m)) == expected

    def test_vanishing_class(self, engine):
        assert engine.n_beta(DivisorClass(2, (2, 1))) == 0

    def test_a_plane_class_of_degree_260_solves_within_the_recursion_limit(self):
        # the keys 260;, 259;, ... wait on each other, one level per degree, on the
        # solve's own task stack: no Python frame per level, so no recursion limit
        counts = [0, 1]  # Kontsevich's recursion, bottom up, as in `oracles.plane_count`
        for d in range(2, 261):
            terms = (
                (d - a) * comb0(3 * d - 4, 3 * a - 2) - a * comb0(3 * d - 4, 3 * a - 1) for a in range(1, d)
            )
            counts.append(sum(counts[a] * counts[d - a] * a * a * (d - a) * t for a, t in enumerate(terms, 1)))
        assert GWEngine().n_beta(P(260)) == counts[260]

    def test_halves_are_filed_once_under_their_canonical_key(self):
        # N of a half does not change when its m_i are permuted, so `_half_n`
        # holds each half once, as (d, m sorted non-increasing); filing every
        # permutation too gave 6,739 entries here, 931 of them canonical
        engine = GWEngine()
        assert engine.n_beta(DivisorClass(12, (3,) * 8)) == 35336147562974592
        assert engine._half_n
        assert all(list(m) == sorted(m, reverse=True) for _, m in engine._half_n)

    def test_curves_with_a_point_of_multiplicity_one_below_the_degree(self):
        # a closed form the recursion does not use: the degree-d curves with a
        # (d-1)-fold point at a fixed point are rational and form a linear
        # system of dimension d(d+3)/2 - d(d-1)/2 = 2d = delta, so one of them
        # passes through 2d general points; for d >= 3 the key d;d-1 is solved
        # by R1(L, -K) over its own splitting orbits of degree d1 >= 1
        engine = GWEngine()
        assert [engine.n_beta(DivisorClass(d, (d - 1,))) for d in range(2, 12)] == [1] * 10

    @given(
        st.integers(1, 5),
        st.lists(st.integers(0, 3), min_size=0, max_size=4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, d, m, rng):
        engine = _shared_engine
        beta = DivisorClass(d, tuple(m))
        shuffled = list(m)
        rng.shuffle(shuffled)
        assert engine.n_beta(beta) == engine.n_beta(DivisorClass(d, tuple(shuffled)))

    def test_nonnegative_on_random_sweep(self, engine):
        rng = random.Random(7)
        for _ in range(100):
            k = rng.randint(0, 4)
            d = rng.randint(1, 5)
            beta = DivisorClass(d, tuple(rng.randint(0, d) for _ in range(k)))
            assert engine.n_beta(beta) >= 0


_shared_engine = GWEngine()


class TestNoCyclicGarbage:
    @staticmethod
    def failed_solve():
        # N(4;) = 620 poisoned: a cold N(8;2^6) fails the division at the key 5;2,2 while
        # the tasks of 8;2^6 and the keys between wait on the driver's stack; none is filed
        engine = GWEngine()
        engine._memo[memo_key(P(4))] = 621
        with pytest.raises(InconsistentRelationError, match="not divisible by lhs coefficient 3"):
            engine.n_beta(parse_class_literal("8;2,2,2,2,2,2"))
        assert memo_key(DivisorClass(5, (2, 2))) not in engine._memo
        assert memo_key(DivisorClass(8, (2,) * 6)) not in engine._memo
        assert engine.memo_size == 13  # 4; and the 12 keys solved before 5;2,2

    def test_a_key_that_waits_on_itself_raises(self, monkeypatch):
        # a wrong key map sends the half 6;3,2^7 (beta - E_1 of 6;2^8) back to 6;2^8, whose
        # solve would then wait on itself: the driver raises at once, where it would grow
        # its task stack until memory ran out, and files neither key
        key, cycle, top = gw.blown_down_key, (6, (3,) + (2,) * 7), (6, (2,) * 8)
        monkeypatch.setattr(gw, "blown_down_key", lambda d, m: top if (d, m) == cycle else key(d, m))
        engine = GWEngine()
        beta = parse_class_literal("7;3,2,2,2,2,2,2,2")
        start = time.perf_counter()
        with pytest.raises(InconsistentRelationError, match=r"key \(6, \(2, 2, 2, 2, 2, 2, 2, 2\)\) waits on itself"):
            engine.n_beta(beta)
        assert time.perf_counter() - start < 1
        assert memo_key(beta) not in engine._memo and top not in engine._memo

    def test_counts_tables_and_splittings_leave_nothing_for_the_collector(self):
        # reference counting alone frees what a cold count, a (-1)-class table,
        # a splitting list and a cusp count build: no call may leave a reference
        # cycle, such as a closure that refers to itself, for the collector to find
        steps = {
            "cold N of both cold_nbeta anchors": lambda: [
                GWEngine().n_beta(parse_class_literal(text)) for text in ("8;2,2,2,2,2,2", "7;3,2,2,2,2,2,2,2")
            ],
            "minus_one_classes(8) rebuilt": lambda: (minus_one_classes.cache_clear(), minus_one_classes(8)),
            "splittings(7;3,2^7)": lambda: GWEngine().splittings(parse_class_literal("7;3,2,2,2,2,2,2,2")),
            "c_beta(6;2,1,1)": lambda: c_beta(GWEngine(), parse_class_literal("6;2,1,1")),
            "a failed solve": self.failed_solve,
        }
        gc.collect()
        gc.disable()
        try:
            for name, step in steps.items():
                step()
                assert gc.collect() == 0, name
        finally:
            gc.enable()


class TestRelationSolve:
    def test_exact_division(self):
        assert WDVVRelation("R1", (), 3, 12).solve() == 4

    def test_inexact_division_raises(self):
        with pytest.raises(InconsistentRelationError):
            WDVVRelation("R1", (), 3, 13).solve()

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            WDVVRelation("R1", (), 0, 5).solve()


class TestConsistencyCheck:
    def test_plane_quartic_single_relation(self, engine):
        report = verify.consistency_check(engine, P(4))
        assert report.value == 620
        assert report.consistent
        assert all(r.lhs_coeff != 0 and r.rhs == 620 * r.lhs_coeff for r in report.relations)
        assert len(report.relations) == 1

    def test_line_through_point_k2_full_pool(self, engine):
        report = verify.consistency_check(engine, DivisorClass(1, (1, 0)))
        assert report.value == 1
        assert report.consistent
        assert report.relations  # at least one nondegenerate relation exists

    def test_seeded_class_with_degenerate_pool(self, engine):
        beta = DivisorClass(1, (1,))
        report = verify.consistency_check(engine, beta)
        assert report.value == engine.seed_value(beta) == 1
        assert report.relations == []  # every basis tuple reads 0 = 0

    @pytest.mark.parametrize(
        "literal", ["7;3,2,2,2,2,2,2,2", "8;2,2,2,2,2,2", "6;2,2,2,2,2,2,2,2", "9;3,3,3,3,3,3,3,3"]
    )
    def test_large_k_classes_on_the_full_basis(self, literal):
        # the two cold_nbeta anchors, and the only blown-down keys of delta 1 and 2,
        # solved by R3 and R2 on (L, -K); N comes from the int orbit rows,
        # the relations are summed over the ordered DivisorClass splittings
        report = verify.consistency_check(GWEngine(), parse_class_literal(literal))
        assert report.consistent
        assert any(r.lhs_coeff for r in report.relations)


class TestConsistencyReference:
    """The basis check passes, and every nondegenerate pool relation implies the engine value."""

    @staticmethod
    def check(engine, beta, tuples):
        report = verify.consistency_check(engine, beta)
        assert report.consistent, (str(beta), report.disagreements()[:3])
        relations = pool_relations(engine, beta, tuples)
        for name, divisors, lhs, rhs in relations:
            assert rhs == lhs * report.value, (str(beta), name, [str(x) for x in divisors])
        return len(relations)

    def test_criterion_6_sample_every_pool_tuple(self):
        # the 200 classes of acceptance criterion 6: seed 0, k <= 4, delta <= 10
        engine = GWEngine()
        classes = verify.random_classes(random.Random(0), 200, k_max=4, delta_max=10, engine=engine)
        assert sum(self.check(engine, beta, every_tuple) for beta in classes) > 0

    def test_large_k_sampled_pool_tuples(self):
        # the whole pool has up to 46^4 R3 tuples at k = 8, so R2 and R3
        # tuples are drawn; every R1 tuple (at most 46^2) is checked
        engine = GWEngine()
        rng = random.Random(58)
        classes = []
        while len(classes) < 12:
            k, d = 5 + len(classes) % 4, rng.randint(1, 6)
            beta = DivisorClass(d, tuple(rng.randint(0, d) for _ in range(k)))
            if 1 <= delta(beta) <= 10 and not engine.quick_vanishing(canonical_form(beta)):
                classes.append(beta)
        tuples = some_tuples(rng, 2500)
        assert sum(self.check(engine, beta, tuples) for beta in classes) > 0


class TestConsistencyMutations:
    """A poisoned engine must fail the check."""

    def test_poisoned_class_value(self):
        engine = GWEngine()
        beta = DivisorClass(4, (1, 1))
        engine.n_beta(beta)
        engine._memo[memo_key(blown_down_form(beta))] += 1
        report = verify.consistency_check(engine, beta)
        assert not report.consistent
        assert not verify.relations_hold(engine, beta)
        # the value enters as lhs * N, so only lhs != 0 tuples can see it
        assert all(r.lhs_coeff != 0 for r in report.disagreements())

    def test_poisoned_splitting_half(self):
        # 4;1,1 is solved as 4;, whose walk never meets 2;1,0; the check runs
        # over 4;1,1's own splittings, so it reads that half, at its key 2;
        engine = GWEngine()
        beta, half = DivisorClass(4, (1, 1)), DivisorClass(2, (1, 0))
        assert any(b1 == half for b1, _ in engine.splittings(beta))
        assert verify.consistency_check(engine, beta).consistent
        assert verify.relations_hold(engine, beta)
        engine._memo[memo_key(blown_down_form(half))] += 1
        assert not verify.consistency_check(engine, beta).consistent
        assert not verify.relations_hold(engine, beta)

    def test_lhs_zero_tuple_alone_catches_a_poisoned_splitting(self):
        engine, beta = lhs_zero_poisoned_engine()
        report = verify.consistency_check(engine, beta)
        assert not report.consistent
        assert not verify.relations_hold(engine, beta)
        assert report.relations and all(r.lhs_coeff == 0 for r in report.relations)
        assert report.disagreements() == report.relations

    def test_a_class_with_l_dot_beta_zero(self):
        # 0;-1,-1 (delta 1): its relations hold at N = 0, some with lhs != 0, so a wrong value
        # fails them; with a poisoned splitting only a pivot off L sees the failure
        engine, beta = GWEngine(), DivisorClass(0, (-1, -1))
        report = verify.consistency_check(engine, beta)
        assert (report.value, report.consistent, verify.relations_hold(engine, beta)) == (0, True, True)
        assert any(r.lhs_coeff for r in report.relations)
        engine._memo[memo_key(beta)] = 1
        assert not verify.consistency_check(engine, beta).consistent
        assert not verify.relations_hold(engine, beta)
        engine, beta = pivot_poisoned_engine()
        report = verify.consistency_check(engine, beta)
        assert (report.value, report.consistent, verify.relations_hold(engine, beta)) == (0, False, False)

    def test_suite_fail_line_prints_both_sides(self, monkeypatch):
        engine, beta = lhs_zero_poisoned_engine()
        monkeypatch.setattr(verify, "random_classes", lambda *args, **kwargs: [beta])
        ok, lines = verify.consistency_suite(engine, samples=1)
        assert not ok
        assert lines[0] == (
            "FAIL 1;1: R3('1;0', '1;0', '0;-1', '0;-1') has lhs 0, rhs -2; "
            "lhs * 1 (engine value) = 0"
        )
        assert lines[-1] == "consistency: 1 classes, DISAGREEMENTS FOUND"

    def test_mirrored_tuples_stay_antisymmetric_on_a_poisoned_half(self):
        # consistency_check reads every R2 and R3 tuple, b > c among them, off the
        # evaluator's tables as (b.beta) u[c] - (c.beta) u[b], which changes sign
        # when b and c swap; that must hold for any splitting data, a poisoned N among them
        engine = GWEngine()
        beta, half = DivisorClass(4, (1, 1, 1)), DivisorClass(2, (1, 0, 0))
        assert any(b1 == half for b1, _ in engine.splittings(beta))
        assert verify.consistency_check(engine, beta).consistent
        engine._memo[memo_key(blown_down_form(half))] += 1
        surface = SurfaceModel(3)
        basis = (surface.line(), *(surface.exceptional(i) for i in range(3)))
        evaluator = RelationEvaluator(beta, basis, verify.splitting_rows(engine, beta))
        unmirrored = []
        for name, (arity, low) in RELATIONS.items():
            if evaluator.delta < low:
                continue
            for ins in every_tuple(arity, len(basis)):
                relation = evaluator.relation(name, ins)
                if name != "R1":
                    swapped = evaluator.relation(name, (ins[0], ins[2], ins[1], *ins[3:]))
                    assert (swapped.lhs_coeff, swapped.rhs) == (-relation.lhs_coeff, -relation.rhs)
                if relation.lhs_coeff or relation.rhs:
                    unmirrored.append(relation)
        report = verify.consistency_check(engine, beta)
        assert report.relations == unmirrored
        assert report.disagreements() == [r for r in unmirrored if r.lhs_coeff * report.value != r.rhs]
        assert report.disagreements()
        assert not verify.relations_hold(engine, beta)


class TestRelationsHold:
    """`RelationEvaluator.holds` gives the verdict of every tuple its tables list."""

    @staticmethod
    def verdict(evaluator, name, value):
        tuples = product(range(len(evaluator.divisors)), repeat=RELATIONS[name][0])
        return all(r.lhs_coeff * value == r.rhs for r in evaluator.relations(name, tuples))

    def test_wrong_values_on_seed_0_classes(self):
        engine = GWEngine()
        classes = verify.random_classes(random.Random(0), 20, k_max=4, delta_max=10, engine=engine)
        checked = 0
        for beta in classes:
            value, evaluator = verify._basis_evaluator(engine, beta)
            for name, (_, low) in RELATIONS.items():
                if evaluator.delta >= low:
                    for v in (value - 1, value, value + 1):
                        assert evaluator.holds(name, v) == self.verdict(evaluator, name, v), (str(beta), name, v)
                        checked += 1
        assert checked

    def test_one_wrong_entry_in_any_table_row_fails(self):
        # 4;1,1 (delta 9) admits every relation, and no x.beta = (4, 1, 1) is 0, so a
        # changed entry of T on any row r leaves D = value * U[r] - T[r] off the line of x.beta
        engine, beta = GWEngine(), DivisorClass(4, (1, 1))
        value, evaluator = verify._basis_evaluator(engine, beta)
        for name in RELATIONS:
            lefts, rights = evaluator._tables(name)
            assert evaluator.holds(name, value)
            for r, row in enumerate(rights):
                changed = [list(t) for t in rights]
                changed[r][r % len(row)] += 1
                evaluator._built[name] = lefts, changed
                assert not evaluator.holds(name, value), (name, r)
                assert not self.verdict(evaluator, name, value), (name, r)
            evaluator._built[name] = lefts, rights


class TestFactorisedSums:
    """`consistency_check`'s tables equal `pool_relations`' row-by-row sums, tuple by tuple."""

    @staticmethod
    def same_relations(engine, beta):
        def basis_tuples(arity, n):
            return every_tuple(arity, beta.k + 1)  # divisor_pool opens with L, E_1, ..., E_k

        expected = pool_relations(engine, beta, basis_tuples, keep_zero_lhs=True)
        report = verify.consistency_check(engine, beta)
        assert [(r.name, r.divisors, r.lhs_coeff, r.rhs) for r in report.relations] == expected, str(beta)
        return expected

    def test_seed_0_classes(self):
        engine = GWEngine()
        classes = verify.random_classes(random.Random(0), 20, k_max=4, delta_max=10, engine=engine)
        assert sum(len(self.same_relations(engine, beta)) for beta in classes) > 0

    def test_k8_class(self):
        assert self.same_relations(GWEngine(), DivisorClass(6, (2,) * 8))

    @pytest.mark.parametrize("literal", ["6;3,2,2,2,1", "6;2,2,2,2,2,1", "7;3,2,2,2,2,2,2"])
    def test_large_k_class_past_delta_3(self, literal):
        # k = 5, 6, 7, with 90, 220 and 600 splittings: every relation applies
        beta = parse_class_literal(literal)
        assert delta(beta) >= 3
        assert self.same_relations(GWEngine(), beta)

    def test_poisoned_half_at_k_5(self):
        # the tables are built from whatever N the halves read, a poisoned one too
        engine = GWEngine()
        beta, half = parse_class_literal("5;2,2,2,1,1"), DivisorClass(3, (1, 1, 1, 0, 0))
        assert any(b1 == half for b1, _ in engine.splittings(beta))
        assert verify.consistency_check(engine, beta).consistent  # every half's N is in the memo now
        engine._memo[memo_key(blown_down_form(half))] += 1
        assert not verify.consistency_check(engine, beta).consistent
        assert self.same_relations(engine, beta)

    def test_lhs_zero_tuples_of_a_poisoned_splitting(self):
        # every relation on 1;1 reads lhs = 0, so this compares the rhs = 0 rule alone
        engine, beta = lhs_zero_poisoned_engine()
        relations = self.same_relations(engine, beta)
        assert relations and all(lhs == 0 != rhs for _, _, lhs, rhs in relations)


class TestEvaluatorRows:
    """`RelationEvaluator` is linear in its rows, so it needs no merge of rows of equal projection."""

    @staticmethod
    def split(rows):
        """Each row of weight w as two rows of the same projection, of weights w - 1 and 1, in reverse order."""
        return [(p, part, d1) for p, w, d1 in rows for part in (w - 1, 1)][::-1]

    @pytest.mark.parametrize("literal", ["5;2,2,2,1,1", "7;3,2,2,2,2,2,2,2", "6;2,2,2,2,2,2,2,2"])
    def test_split_rows_give_every_basis_relation(self, literal):
        engine, beta = GWEngine(), parse_class_literal(literal)
        basis, _ = verify._basis(beta.k)
        rows = verify.splitting_rows(engine, beta)
        whole, split = RelationEvaluator(beta, basis, rows), RelationEvaluator(beta, basis, self.split(rows))
        checked = []
        for name, (arity, low) in RELATIONS.items():
            if whole.delta >= low:
                tuples = list(product(range(len(basis)), repeat=arity))
                assert split.relations(name, tuples) == whole.relations(name, tuples), (literal, name)
                checked += whole.relations(name, tuples)
        assert checked == verify.consistency_check(engine, beta).relations
        assert any(r.lhs_coeff for r in checked)

    def test_split_rows_give_the_low_delta_solve(self):
        # the relation `_orbit_relation` picks on (L, -K) for 6;2^8, over its weights split as above
        engine, beta = GWEngine(), parse_class_literal("6;2,2,2,2,2,2,2,2")
        surface = SurfaceModel(8)
        divisors = (surface.line(), surface.anticanonical())
        weights = engine._orbit_data(beta)
        relation = engine._orbit_relation(beta, weights)
        rows = [((d1, delta1 + 1), w, delta1) for (d1, delta1), w in weights.items()]
        ins = tuple(map(divisors.index, relation.divisors))
        assert RelationEvaluator(beta, divisors, self.split(rows)).relation(relation.name, ins) == relation
        assert relation.solve() == 90


def pair_splitting_data(engine, beta):
    """Reference for `verify.splitting_rows`: one row ((d1, *m1), N1 N2 (beta1.beta2), delta(beta1)) per
    ordered pair of `splittings(beta)`, N1 read per pair through `n_beta` and N2 where N1 != 0."""
    return [
        ((b1.d, *b1.m), n1 * engine.n_beta(b2) * intersect(b1, b2), delta(b1))
        for b1, b2 in engine.splittings(beta)
        if (n1 := engine.n_beta(b1))
    ]


def full_table_relations(engine, beta):
    """(name, insertions, lhs, rhs) of R1, R2 and R3 on every basis tuple of beta, in `product` order,
    read off full tables summed row by row over `pair_splitting_data`: R1's n^2 entries, the whole
    n x n R2 matrix and all n^2 rows of R3, with each lhs written out and each binomial by `comb0`."""
    basis, _ = verify._basis(beta.k)
    rows, n, db = pair_splitting_data(engine, beta), range(len(basis)), delta(beta)
    ab = [[intersect(x, y) for y in basis] for x in basis]
    xb = [intersect(x, beta) for x in basis]
    x1 = [[p[a] for p, _, _ in rows] for a in n]  # a row's (d1, *m1) is its projection on the basis
    x2 = [[xb[a] - y for y in x1[a]] for a in n]

    found = []
    if db >= 3:
        f = [[w * (comb0(db - 3, d1 - 1) * y1 - comb0(db - 3, d1 - 2) * y2)
              for (_, w, d1), y1, y2 in zip(rows, x1[a], x2[a])] for a in n]
        found += [("R1", (a, b), ab[a][b], sum(map(mul, f[a], x2[b]))) for a, b in product(n, repeat=2)]
    if db >= 2:
        c = [w * comb0(db - 2, d1) for _, w, d1 in rows]
        t = [[sum(map(mul, map(mul, c, x1[a]), x1[e])) for e in n] for a in n]
        for a, b, cc in product(n, repeat=3):
            lhs = ab[a][b] * xb[cc] - ab[a][cc] * xb[b]
            found.append(("R2", (a, b, cc), lhs, xb[b] * t[a][cc] - xb[cc] * t[a][b]))
    c = [w * comb0(db - 1, d1) for _, w, d1 in rows]
    t = {(a, d): [sum(map(mul, map(mul, map(mul, c, x1[a]), x2[d]), x1[e])) for e in n] for a in n for d in n}
    for a, b, cc, d in product(n, repeat=4):
        lhs = (ab[a][b] * xb[cc] * xb[d] + ab[cc][d] * xb[a] * xb[b]
               - ab[a][cc] * xb[b] * xb[d] - ab[b][d] * xb[a] * xb[cc])
        found.append(("R3", (a, b, cc, d), lhs, xb[b] * t[a, d][cc] - xb[cc] * t[a, d][b]))
    return found


class TestSymmetricTables:
    """R2's mirrored matrix and R3's rows (a, d) with a <= d give what the full tables give."""

    CLASSES = ["5;2,2,2,1,1", "6;2,2,2,2,2,1", "7;3,2,2,2,2,2,2,2", "6;2,2,2,2,2,2,2,2", "9;3,3,3,3,3,3,3,3"]

    @staticmethod
    def engine_for(literal, poisoned):
        """A fresh engine that knows N of every half of the class; `poisoned` adds 1 to the memo entry
        of the half beta - E_k, which only the rows that `swap` adds reach as beta1."""
        engine, beta = GWEngine(), parse_class_literal(literal)
        verify.consistency_check(engine, beta)
        if poisoned:
            half = beta - SurfaceModel(beta.k).exceptional(beta.k - 1)
            engine._memo[blown_down_key(half.d, half.m)] += 1
        return engine, beta

    @pytest.mark.parametrize("poisoned", [False, True])
    @pytest.mark.parametrize("literal", CLASSES)
    def test_every_basis_tuple_reads_the_full_tables(self, literal, poisoned):
        engine, beta = self.engine_for(literal, poisoned)
        basis, _ = verify._basis(beta.k)
        _, evaluator = verify._basis_evaluator(engine, beta)
        expected = full_table_relations(engine, beta)
        got = []
        for name, ins, _, _ in expected:
            relation = evaluator.relation(name, ins)
            assert relation.divisors == tuple(basis[i] for i in ins)
            got.append((name, ins, relation.lhs_coeff, relation.rhs))
        assert got == expected
        assert any(lhs for _, _, lhs, _ in expected)
        assert verify.relations_hold(engine, beta) == (not poisoned) == all(
            lhs * engine.n_beta(beta) == rhs for _, _, lhs, rhs in expected
        )

    @pytest.mark.parametrize("poisoned", [False, True])
    @pytest.mark.parametrize("literal", CLASSES)
    def test_splitting_data_is_swap_closed_and_matches_the_pairs(self, literal, poisoned):
        engine, beta = self.engine_for(literal, poisoned)
        rows = verify.splitting_rows(engine, beta)
        top = delta(beta) - 1
        swapped = [((beta.d - p[0], *(mi - x for mi, x in zip(beta.m, p[1:]))), w, top - d1) for p, w, d1 in rows]
        assert Counter(swapped) == Counter(rows)
        assert Counter(rows) == Counter(row for row in pair_splitting_data(engine, beta) if row[1])
        assert all(w for _, w, _ in rows)

    def test_relations_hold_on_every_key_the_anchor_solves_read(self, monkeypatch):
        # the keys a cold N of both cold_nbeta anchors and of 9;3^8 solves by a relation, k up to 8
        keys, orbit_relation = set(), GWEngine._orbit_relation
        monkeypatch.setattr(
            GWEngine, "_orbit_relation", lambda self, b, w: keys.add((b.d, b.m)) or orbit_relation(self, b, w)
        )
        for literal in ("8;2,2,2,2,2,2", "7;3,2,2,2,2,2,2,2", "9;3,3,3,3,3,3,3,3"):
            GWEngine().n_beta(parse_class_literal(literal))
        monkeypatch.undo()
        assert len(keys) == 23 and max(len(m) for _, m in keys) == 8
        engine = GWEngine()
        assert all(verify.relations_hold(engine, DivisorClass(*key)) for key in sorted(keys))

    def test_a_poisoned_half_that_only_swapped_rows_reach(self):
        # 6;2^6 is N of beta - E_6 alone among the halves of 6;2,2,2,2,2,1, so only the swap of the
        # E_6 orbit reads it, as beta1 of degree 6
        engine, beta = self.engine_for("6;2,2,2,2,2,1", poisoned=True)
        key = blown_down_key(6, (2,) * 6)
        assert {b1.d for pair in engine.splittings(beta) for b1 in pair if blown_down_key(b1.d, b1.m) == key} == {6}
        assert not verify.relations_hold(engine, beta)
        value, basis = engine.n_beta(beta), verify._basis(beta.k)[0]
        expected = [
            (name, tuple(basis[i] for i in ins), lhs, rhs)
            for name, ins, lhs, rhs in full_table_relations(engine, beta)
            if lhs * value != rhs
        ]
        assert expected
        assert [tuple(r) for r in verify.consistency_check(engine, beta).disagreements()] == expected


class TestDivisorPool:
    def test_deterministic_and_complete(self):
        pool = divisor_pool(2)
        assert pool[0] == DivisorClass(1, (0, 0))
        assert len(pool) == 1 + 2 + 1 + 2 + 1
        assert divisor_pool(2) == pool


class TestCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.tsv"
        writer = GWEngine()
        value = writer.n_beta(P(5))
        writer.save_cache(path)

        reader = GWEngine()
        assert reader.load_cache(path) == []
        assert reader._memo[memo_key(canonical_form(P(5)))] == value

    def test_rows_are_filed_under_their_reduced_key(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("v1\t3\t2;1,1,1\t1\nv1\t4\t5;2,2,2,0\t620\n")
        eng = GWEngine()
        assert eng.load_cache(path) == []
        # 2;1,1,1 reduces to 1;0,0,0 and 5;2,2,2,0 to 4;1,1,1,0; both blow down to the plane
        assert eng._memo == {memo_key(P(1)): 1, memo_key(P(4)): 620}

    def test_saved_rows_are_reduced(self, tmp_path):
        path = tmp_path / "cache.tsv"
        writer = GWEngine()
        writer.n_beta(DivisorClass(6, (3, 2, 2, 1)))
        writer.save_cache(path)
        rows = [line.split("\t")[2] for line in path.read_text().splitlines()]
        assert rows and all(
            reduced_form(parse_class_literal(row)) == parse_class_literal(row) for row in rows
        )

    def test_missing_file_is_fine(self, tmp_path):
        assert GWEngine().load_cache(tmp_path / "absent.tsv") == []

    def test_corrupted_lines_skipped_and_reported(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text(
            "v1\t0\t2;\t1\n"
            "v0\t0\t3;\t12\n"          # wrong version
            "v1\t1\t3;\t12\n"          # k column disagrees with literal
            "v1\t2\t4;1,2\t1\n"        # m not canonical
            "v1\t0\t5;\t-3\n"          # negative count
            "garbage\n"
        )
        eng = GWEngine()
        problems = eng.load_cache(path)
        assert len(problems) == 5
        assert eng._memo == {memo_key(P(2)): 1}

    def test_edge_rows_load_as_older_versions_did(self, tmp_path):
        # recorded on the loader before its rows were parsed with map(int, ...)
        # and one sorted() comparison: int() takes spaces and a + sign, the
        # literal takes neither a + nor more than 8 entries
        path = tmp_path / "cache.tsv"
        path.write_bytes(
            b"v1\t0\t 6; \t26312976\n"        # spaces around the literal
            b"v1\t0\t2;\t 1 \n"               # spaces around the count
            b"v1\t 1 \t5;2\t+18132\n"         # a + sign on the count
            b"v1\t2\t+6;2,2\t1\n"             # a + sign in the literal
            b"v1\t9\t2;1,1,1,1,1,1,1,1,1\t0\n"  # 9 entries
            b"v1\t0\t3;\t12\n"
            b"v1\t1\t3;\t12\n"                # k column disagrees with the literal
            b"v1\t3\t2;1,1,1\t1\n"            # unreduced: filed under 1;
            b"v1\t4\t4;1,1,1,0\t620\n"        # unstripped: filed under 4;
            b"v1\t0\t5;\t1\n"
            b"v1\t1\t5;1\t87304\n"            # the same key again: this row wins
            b"v1\t0\t7;\t14616808192\r\n"    # a trailing \r
            # int() reads _ separators and non-ASCII digits, which save_cache never writes
            b"v1\t0\t6;\t1_0\n"
            b"v1\t0_0\t4;\t620\n"
            + "v1\t0\t4;\t\u0666\u0662\u0660\n".encode()  # 620 in Arabic-Indic digits
            + "v1\t\u0661\t5;2\t18132\n".encode()
            + "v1\t0\t\u0664;\t620\n".encode()
        )
        eng = GWEngine()
        problems = eng.load_cache(path)
        assert problems == [
            f"{path}:{lineno}: skipped corrupted cache line ({reason})"
            for lineno, reason in [
                (4, "malformed class literal '+6;2,2'; expected `d;m1,...,mk`, e.g. `4;1,1,0`"),
                (5, "blow-up count k=9 is outside the allowed range 0..8"),
                (7, "k column 1 disagrees with literal 3;"),
                *((lineno, "non-ASCII character or _ in the row") for lineno in range(13, 18)),
            ]
        ]
        assert eng._memo == {
            memo_key(P(6)): 26312976,
            memo_key(P(2)): 1,
            memo_key(DivisorClass(5, (2,))): 18132,
            memo_key(P(3)): 12,
            memo_key(P(1)): 1,
            memo_key(P(4)): 620,
            memo_key(P(5)): 87304,
            memo_key(P(7)): 14616808192,
        }

    def test_rows_end_at_a_newline_only(self, tmp_path):
        # str.splitlines() would also break at the vertical tab, start a row
        # 4; = 999 there and number the lines after it one too high
        path = tmp_path / "cache.tsv"
        path.write_text("v1\t0\t1;\t1\njunk\x0bv1\t0\t4;\t999\nv1\t0\t2;\t1\nbad\n")
        eng = GWEngine()
        problems = eng.load_cache(path)
        assert [line.split(": ")[0] for line in problems] == [f"{path}:2", f"{path}:4"]
        assert eng._memo == {memo_key(P(1)): 1, memo_key(P(2)): 1}

    def test_writers_sharing_a_path_keep_each_others_rows(self, tmp_path):
        path = tmp_path / "cache.tsv"
        first, second = GWEngine(), GWEngine()
        first.n_beta(P(1))
        second.n_beta(DivisorClass(0, (-1,)))
        assert set(first._memo).isdisjoint(second._memo)
        first.save_cache(path)
        second.save_cache(path)
        reader = GWEngine()
        assert reader.load_cache(path) == []
        assert reader._memo == {memo_key(P(1)): 1, memo_key(DivisorClass(0, (-1,))): 1}

    def test_a_file_changed_since_the_load_is_merged(self, tmp_path):
        # the bytes on disk differ from those load_cache read, so save_cache parses them
        path = tmp_path / "cache.tsv"
        path.write_text("v1\t0\t4;\t620\n")
        eng = GWEngine()
        assert eng.load_cache(path) == []
        eng.n_beta(P(5))
        path.write_text("v1\t0\t4;\t620\nv1\t0\t6;\t87304\n")  # another writer's row
        eng.save_cache(path)
        reader = GWEngine()
        assert reader.load_cache(path) == []
        assert reader._memo == {**eng._memo, memo_key(P(6)): 87304}

    def test_merge_keeps_the_memo_value_and_drops_corrupted_lines(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("v1\t0\t4;\t7\nv1\t0\t6;\t87304\ngarbage\nv1\t2\t4;1,2\t1\n")
        eng = GWEngine()
        eng.n_beta(P(4))
        eng.save_cache(path)
        rows = path.read_text().splitlines()
        assert "v1\t0\t4;\t620" in rows and "v1\t0\t4;\t7" not in rows
        assert "v1\t0\t6;\t87304" in rows  # a key the memo lacks, kept as it was
        assert len(rows) == len(eng._memo) + 1

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "cache.tsv"
        eng = GWEngine()
        eng.n_beta(P(3))
        eng.save_cache(path)
        assert [p.name for p in tmp_path.iterdir()] == ["cache.tsv"]

    def test_a_symlinked_path_stays_a_link_to_the_rewritten_file(self, tmp_path):
        real, link = tmp_path / "real.tsv", tmp_path / "link.tsv"
        real.write_text("")
        link.symlink_to(real)
        eng = GWEngine()
        eng.n_beta(P(4))
        eng.save_cache(link)
        assert link.is_symlink() and link.resolve() == real.resolve()
        reader = GWEngine()
        assert reader.load_cache(real) == []
        assert reader._memo == eng._memo
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.tsv", "real.tsv"]

    @pytest.mark.parametrize("mode", [0o644, 0o604], ids=oct)
    def test_a_rewrite_keeps_the_file_mode(self, tmp_path, mode):
        path = tmp_path / "cache.tsv"
        path.write_text("v1\t0\t4;\t620\n")
        path.chmod(mode)
        eng = GWEngine()
        eng.n_beta(P(5))
        eng.save_cache(path)
        assert "v1\t0\t5;\t87304" in path.read_text().splitlines()
        assert stat.S_IMODE(path.stat().st_mode) == mode

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=oct)
    def test_a_new_file_gets_0o666_less_the_umask(self, tmp_path, umask, mode):
        path = tmp_path / "cache.tsv"
        eng = GWEngine()
        eng.n_beta(P(3))
        previous = os.umask(umask)
        try:
            eng.save_cache(path)
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == mode

    def test_a_failed_write_keeps_the_old_file_and_removes_the_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.tsv"
        path.write_text("v1\t0\t4;\t620\n")
        before = path.read_bytes()
        eng = GWEngine()
        eng.n_beta(P(5))

        def failing_replace(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(gw.os, "replace", failing_replace)
        with pytest.raises(OSError, match="simulated rename failure"):
            eng.save_cache(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cache.tsv"]
