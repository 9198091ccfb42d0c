import random
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcount.gw import (
    RELATIONS,
    GWEngine,
    InconsistentRelationError,
    RelationEvaluator,
    UnderdeterminedError,
    WDVVRelation,
    _orbit,
    comb0,
    divisor_pool,
    seed_classes,
)
from dpcount.lattice import (
    DivisorClass,
    SurfaceModel,
    arithmetic_genus,
    canonical_form,
    delta,
    intersect,
    parse_class_literal,
    reduced_form,
)
from dpcount import verify
from oracles import plane_count


def P(d):
    return DivisorClass(d, ())


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


def pool_relations(engine, beta, tuples):
    """Reference for `GWEngine.consistency_check`: the check it replaced, over `divisor_pool`.

    Returns (name, divisors, lhs, rhs) for every relation with lhs != 0 on the
    pool index tuples that tuples(arity, pool size) yields.  Each intersection
    number is taken directly, x.beta2 included, and the splitting data comes
    from `splittings` and `n_beta`.
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
            if pp[ia][ib] == 0:
                continue
            rhs = sum(
                w[t] * p2[ib][t] * (p1[ia][t] * c_hi[t] - p2[ia][t] * c_lo[t]) for t in range(s)
            )
            found.append(("R1", (pool[ia], pool[ib]), pp[ia][ib], rhs))
    if db >= 2:
        cw = [comb0(db - 2, d1s[t]) * w[t] for t in range(s)]
        for ia, ib, ic in tuples(3, n):
            lhs = pp[ia][ib] * pb[ic] - pp[ia][ic] * pb[ib]
            if lhs == 0:
                continue
            rhs = sum(
                cw[t] * p1[ia][t] * (p1[ic][t] * p2[ib][t] - p1[ib][t] * p2[ic][t])
                for t in range(s)
            )
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
            if lhs == 0:
                continue
            left, right = prod1[ia, ic], prod2[ib, idx]
            left2, right2 = prod1[ia, ib], prod2[ic, idx]
            rhs = sum(cw[t] * (left[t] * right[t] - left2[t] * right2[t]) for t in range(s))
            found.append(("R3", (pool[ia], pool[ib], pool[ic], pool[idx]), lhs, rhs))
    return found


def pool_solve_low_delta(engine, beta):
    """Reference for `GWEngine._solve_low_delta`: the solver it replaced, over `divisor_pool`.

    The first pool tuple with lhs != 0, R2 before R3, solved over the whole
    splitting list.  Unlike the basis solve it needs no reduced key: it also
    solves classes such as 2;1,1,1,1, where every stabiliser-invariant R3
    tuple is degenerate.
    """
    db = delta(beta)
    pool = divisor_pool(beta.k)
    probe = RelationEvaluator(beta, pool)
    for name, relation in (("R2", engine.relation_r2), ("R3", engine.relation_r3)):
        arity, low = RELATIONS[name]
        if db < low:
            continue
        for ins in product(range(len(pool)), repeat=arity):
            if probe.lhs(name, ins) != 0:
                return relation(beta, *(pool[i] for i in ins)).solve()
    raise UnderdeterminedError(f"no nondegenerate relation in the pool for {beta}")


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
    splitting orbits; all recursion stays in this engine.  Its keys are not
    reduced, so low-delta classes go to the pool reference solver.
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
            mk = SurfaceModel(key.k).anticanonical()
            data = self._weighted_data(self.splitting_orbits(key))
            value = self._relation_r1(key, mk, mk, data).solve()
        else:
            value = pool_solve_low_delta(self, key)
        self._memo[key] = value
        return value


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
        engine = GWEngine()
        for beta in large_classes():
            assert engine.splittings(beta) == box_splittings(engine, beta), beta


class TestSplittingOrbits:
    def test_plane_quartic(self, engine):
        assert engine.splitting_orbits(P(4)) == ((P(1), P(3), 1), (P(2), P(2), 1), (P(3), P(1), 1))

    def test_weights_are_block_multinomials(self, engine):
        # the E_i halves of 3L - E1 - ... - E4 form one orbit of size 4
        beta = DivisorClass(3, (1, 1, 1, 1))
        orbits = {b1: size for b1, _, size in engine.splitting_orbits(beta)}
        assert orbits[SurfaceModel(4).exceptional(0)] == 4
        assert orbits[DivisorClass(1, (1, 1, 0, 0))] == 6

    def test_canonical_orbits_cover_the_ordered_splittings(self, engine):
        # with -K fixed by the stabiliser, the orbit-weighted R1(-K, -K) is
        # the relation over the whole ordered list
        canonical = {canonical_form(b) for b in small_classes()}
        canonical.update(canonical_form(b) for b in large_classes())
        for beta in sorted(canonical, key=lambda b: (b.k, b.d, b.m)):
            pairs = engine.splittings(beta)
            orbits = engine.splitting_orbits(beta)
            assert sum(size for _, _, size in orbits) == len(pairs), beta
            assert {(b1, b2) for b1, b2, _ in orbits} <= set(pairs), beta
            if delta(beta) >= 3:
                mk = SurfaceModel(beta.k).anticanonical()
                data = engine._weighted_data(orbits)
                orbit_rhs = engine._relation_r1(beta, mk, mk, data).rhs
                assert orbit_rhs == engine.relation_r1(beta, mk, mk).rhs, beta

    def test_walk_weights_are_orbit_lengths_in_any_order(self, engine):
        # splitting_orbits is public and takes m in any order, so permuted
        # classes are checked besides the canonical ones above
        classes = set(small_classes()) | set(large_classes())
        classes |= {canonical_form(b) for b in classes}
        classes |= {DivisorClass(b.d, b.m[::-1]) for b in large_classes()}
        for beta in classes:
            for b1, _, size in engine.splitting_orbits(beta):
                assert size == len(_orbit(beta.m, b1.m)), (str(beta), str(b1))

    def test_delta_zero_viable_halves_are_seeds(self):
        # why splitting_orbits skips the delta = 0 seed test on the halves of
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


class TestWeylKey:
    def test_matches_the_canonical_key_on_every_class_up_to_degree_7(self):
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
        mismatches = [str(b) for b in classes if engine.n_beta(b) != reference.n_beta(b)]
        assert mismatches == []
        assert sum(engine.n_beta(b) == 0 for b in classes) == 242

    def test_one_memo_entry_per_orbit(self):
        engine = GWEngine()
        assert engine.n_beta(DivisorClass(5, (2, 2, 2, 0))) == 620
        assert engine.n_beta(DivisorClass(4, (0, 1, 1, 1))) == 620
        assert DivisorClass(5, (2, 2, 2, 0)) not in engine._memo
        assert engine._memo[DivisorClass(4, (1, 1, 1, 0))] == 620


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
        # _solve_low_delta raises UnderdeterminedError when no basis tuple is nondegenerate
        assert {str(b): engine._solve_low_delta(b) for b in keys} == LOW_DELTA_KEYS
        assert {str(b): pool_solve_low_delta(reference, b) for b in keys} == LOW_DELTA_KEYS
        assert all(engine.n_beta(b) == LOW_DELTA_KEYS[str(b)] for b in keys)

    def test_unreduced_class_has_no_invariant_relation(self):
        engine = GWEngine()
        beta = DivisorClass(2, (1, 1, 1, 1))
        with pytest.raises(UnderdeterminedError, match="2;1,1,1,1"):
            engine._solve_low_delta(beta)
        assert pool_solve_low_delta(engine, beta) == engine.n_beta(beta) == 1


class TestRelationR1:
    def test_conic(self, engine):
        rel = engine.relation_r1(P(2), P(1), P(1))
        assert (rel.lhs_coeff, rel.rhs) == (1, 1)

    def test_nodal_cubics(self, engine):
        assert engine.relation_r1(P(3), P(1), P(1)).rhs == 12

    def test_quartics(self, engine):
        assert engine.relation_r1(P(4), P(1), P(1)).rhs == 620

    def test_precondition(self, engine):
        with pytest.raises(ValueError):
            engine.relation_r1(P(1), P(1), P(1))


class TestRelationR2:
    def test_conic_through_three_assigned_points(self, engine):
        surface = SurfaceModel(3)
        rel = engine.relation_r2(
            DivisorClass(2, (1, 1, 1)), surface.line(), surface.line(), surface.exceptional(0)
        )
        assert (rel.lhs_coeff, rel.rhs) == (1, 1)

    def test_degenerate_for_proportional_divisors(self, engine):
        assert RelationEvaluator(P(1), (P(1), P(1), P(1))).lhs("R2", (0, 1, 2)) == 0

    def test_coefficient_arithmetic(self, engine):
        surface = SurfaceModel(1)
        divisors = (surface.line(), surface.line(), surface.exceptional(0))
        lhs = RelationEvaluator(DivisorClass(2, (1,)), divisors).lhs("R2", (0, 1, 2))
        assert lhs == 1

    def test_precondition(self, engine):
        with pytest.raises(ValueError):
            engine.relation_r2(DivisorClass(1, (1, 0)), P2_L, P2_L, P2_L)


P2_L = DivisorClass(1, (0, 0))


class TestRelationR3:
    def test_line_through_assigned_point(self, engine):
        surface = SurfaceModel(2)
        rel = engine.relation_r3(
            DivisorClass(1, (1, 0)),
            surface.exceptional(0),
            surface.exceptional(1),
            surface.line(),
            surface.line() - surface.exceptional(1),
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
                        assert evaluator.lhs("R3", (0, 1, 2, 3)) == 0

    def test_degenerate_for_proportional_divisors(self, engine):
        assert RelationEvaluator(P(2), (P(1),) * 4).lhs("R3", (0, 1, 2, 3)) == 0


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
        report = engine.consistency_check(P(4), pool_size=1)
        assert report.value == 620
        assert report.consistent
        assert all(r.implied_value == 620 for r in report.relations)
        assert len(report.relations) == 1

    def test_line_through_point_k2_full_pool(self, engine):
        report = engine.consistency_check(DivisorClass(1, (1, 0)))
        assert report.value == 1
        assert report.consistent
        assert report.relations  # at least one nondegenerate relation exists

    def test_seeded_class_with_degenerate_pool(self, engine):
        report = engine.consistency_check(DivisorClass(1, (1,)), pool_size=2)
        assert report.value == 1
        assert "seed = 1" in report.note

    @pytest.mark.parametrize("pool_size", [-1, 0, 4])
    def test_pool_size_outside_the_basis_names_the_range(self, engine, pool_size):
        with pytest.raises(ValueError, match=r"pool_size -?\d+ is outside 1\.\.3"):
            engine.consistency_check(DivisorClass(3, (1, 1)), pool_size=pool_size)

    def test_pool_size_takes_the_first_basis_divisors(self, engine):
        report = engine.consistency_check(DivisorClass(3, (1, 1)), pool_size=2)
        surface = SurfaceModel(2)
        assert {x for r in report.relations for x in r.divisors} == {
            surface.line(),
            surface.exceptional(0),
        }


class TestConsistencyReference:
    """The basis check passes, and every nondegenerate pool relation implies the engine value."""

    @staticmethod
    def check(engine, beta, tuples):
        report = engine.consistency_check(beta)
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
        engine._memo[canonical_form(beta)] += 1
        report = engine.consistency_check(beta)
        assert not report.consistent
        # the value enters as lhs * N, so only lhs != 0 tuples can see it
        assert all(r.lhs_coeff != 0 for r in report.disagreements())

    def test_poisoned_splitting_half(self):
        engine = GWEngine()
        beta, half = DivisorClass(4, (1, 1)), DivisorClass(2, (1, 0))
        assert any(b1 == half for b1, _ in engine.splittings(beta))
        engine.n_beta(beta)
        engine._memo[half] += 1
        assert not engine.consistency_check(beta).consistent

    def test_lhs_zero_tuple_alone_catches_a_poisoned_splitting(self):
        # (L - E1)^2 = 0 on k = 1, so every relation on L - E1 has lhs = 0 for
        # all insertions and only the rhs = 0 rule sees its splittings.  Admit
        # the vanishing half L - 2E1 with N = 1, as a quick_vanishing that lost
        # the m_i <= d rule would.
        engine = GWEngine()
        beta, e1, bad = DivisorClass(1, (1,)), SurfaceModel(1).exceptional(0), DivisorClass(1, (2,))
        engine._orbits[beta] = ((e1, bad, 1), (bad, e1, 1))
        engine._memo[bad] = 1
        report = engine.consistency_check(beta)
        assert not report.consistent
        assert report.relations and all(r.lhs_coeff == 0 for r in report.relations)
        assert "seed = 1" in report.note

    def test_suite_fail_line_prints_both_sides(self, monkeypatch):
        engine = GWEngine()
        beta, e1, bad = DivisorClass(1, (1,)), SurfaceModel(1).exceptional(0), DivisorClass(1, (2,))
        engine._orbits[beta] = ((e1, bad, 1), (bad, e1, 1))
        engine._memo[bad] = 1
        monkeypatch.setattr(verify, "random_classes", lambda *args, **kwargs: [beta])
        ok, lines = verify.consistency_suite(engine, samples=1)
        assert not ok
        assert lines[0] == (
            "FAIL 1;1: R3('1;0', '1;0', '0;-1', '0;-1') has lhs 0, rhs -2; "
            "lhs * 1 (engine value) = 0"
        )
        assert lines[-1] == "consistency: 1 classes, DISAGREEMENTS FOUND"


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
        assert reader._memo[canonical_form(P(5))] == value

    def test_rows_are_filed_under_their_reduced_key(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("v1\t3\t2;1,1,1\t1\nv1\t4\t5;2,2,2,0\t620\n")
        eng = GWEngine()
        assert eng.load_cache(path) == []
        assert eng._memo == {DivisorClass(1, (0, 0, 0)): 1, DivisorClass(4, (1, 1, 1, 0)): 620}

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
        assert eng._memo == {P(2): 1}

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "cache.tsv"
        eng = GWEngine()
        eng.n_beta(P(3))
        eng.save_cache(path)
        assert [p.name for p in tmp_path.iterdir()] == ["cache.tsv"]
