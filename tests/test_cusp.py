import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest

from dpcount.cusp import CuspResult, _boundary_factor, c_beta, splitting_term
from dpcount.gw import GWEngine, InconsistentRelationError, WDVVRelation, comb0
from dpcount.lattice import DivisorClass, arithmetic_genus, delta, parse_class_literal
from dpcount import verify
from oracles import plane_cusp_count


def P(d):
    return DivisorClass(d, ())


class TestResultRecords:
    def test_cusp_result_fields_by_name(self):
        result = CuspResult(
            value=2304, valid=True, first_term=Fraction(5), boundary_term=Fraction(7, 2), n=620, warnings=[]
        )
        assert (result.value, result.valid, result.n, result.warnings) == (2304, True, 620, [])
        assert (result.first_term, result.boundary_term) == (Fraction(5), Fraction(7, 2))

    def test_consistency_report_fields_by_name(self):
        relation = WDVVRelation("R1", (), 2, 6)
        report = verify.ConsistencyReport(beta=P(4), value=3, relations=[relation])
        assert (report.beta, report.value, report.relations) == (P(4), 3, [relation])
        assert report.consistent and report.disagreements() == []

    def test_reports_share_no_relation_list(self, engine):
        first, second = verify.consistency_check(engine, P(4)), verify.consistency_check(engine, P(4))
        assert first.relations == second.relations and first.relations is not second.relations


class TestFirstTerm:
    def test_cubic(self, engine):
        assert c_beta(engine, P(3)).first_term == 24

    def test_quartic(self, engine):
        assert c_beta(engine, P(4)).first_term == 1395

    def test_conic_is_fractional_alone(self, engine):
        assert c_beta(engine, P(2)).first_term == Fraction(3, 2)


class TestSplittingTerm:
    def test_quartic_symmetric_split(self, engine):
        assert splitting_term(engine, P(4), P(2), P(2)) == 504

    def test_cubic_vanishing_bracket(self, engine):
        assert splitting_term(engine, P(3), P(1), P(2)) == 0

    def test_conic(self, engine):
        assert splitting_term(engine, P(2), P(1), P(1)) == Fraction(-3, 2)

    def test_integer_factor_is_2_deg_times_the_papers_factor(self):
        # the paper's C(delta-1, delta1) * (deg1 * deg2 / (2 deg) - 1), deg = delta + 1,
        # deg1 = delta1 + 1, deg2 = delta - delta1; the pinned C digest reaches delta <= 17
        for db in range(1, 41):
            for d1 in range(-1, db + 2):
                paper = comb0(db - 1, d1) * (Fraction((d1 + 1) * (db - d1), 2 * (db + 1)) - 1)
                factor = _boundary_factor(db, d1)
                assert type(factor) is int and factor == 2 * (db + 1) * paper, (db, d1)

    def test_terms_stay_fractions(self):
        engine = GWEngine()
        beta = DivisorClass(4, (1, 1))
        result = c_beta(engine, beta)
        assert type(result.first_term) is type(result.boundary_term) is Fraction
        assert [type(value) for value in engine.cusp_boundary.values()] == [Fraction]
        assert type(splitting_term(engine, P(4), P(2), P(2))) is Fraction

    def test_rejects_non_splitting(self, engine):
        with pytest.raises(ValueError):
            splitting_term(engine, P(4), P(1), P(2))
        with pytest.raises(ValueError):
            splitting_term(engine, P(2), P(2), DivisorClass(0, ()))


class TestCBeta:
    def test_cuspidal_cubics(self, engine):
        result = c_beta(engine, P(3))
        assert result.value == 24
        assert result.valid
        assert result.first_term + result.boundary_term == 24

    def test_cuspidal_quartics(self, engine):
        result = c_beta(engine, P(4))
        assert result.value == 2304
        assert result.valid
        assert result.first_term == 1395
        assert result.boundary_term == 909
        assert result.n == 620

    def test_result_carries_the_count_of_its_class(self, engine):
        # a permuted k > 0 class, whose N the engine reads at its blow-down key 6;2,2
        beta = DivisorClass(6, (2, 1, 2, 0))
        assert c_beta(engine, beta).n == engine.n_beta(beta) == 1558272

    def test_no_cuspidal_conics(self, engine):
        result = c_beta(engine, P(2))
        assert result.value == 0
        assert not result.valid
        assert result.warnings

    def test_matches_independent_plane_evaluation(self, engine):
        for d in range(2, 7):
            assert c_beta(engine, P(d)).value == plane_cusp_count(d)

    def test_negative_count_with_failed_hypothesis_is_flagged(self):
        engine = GWEngine()
        first = c_beta(engine, P(2)).first_term
        engine.cusp_boundary[P(2)] = -first - 5
        result = c_beta(engine, P(2))
        assert (result.value, result.valid) == (-5, False)
        assert (result.first_term, result.boundary_term) == (Fraction(3, 2), Fraction(-13, 2))
        assert result.warnings == [
            "hypothesis N(-1;) > 0 fails; the returned value is "
            "conjectural (numerically the formula is expected to hold anyway)",
            "negative count -5 for 2;; flagged for investigation",
        ]

    def test_rejects_negative_multiplicity(self, engine):
        with pytest.raises(ValueError):
            c_beta(engine, DivisorClass(2, (-1,)))

    def test_rejects_low_delta(self, engine):
        with pytest.raises(ValueError):
            c_beta(engine, DivisorClass(1, (1, 1)))

    def test_non_integer_total_raises(self, engine):
        # the double-line class: no irreducible rational curves, and the
        # hypothesis of the count formula fails; the total is 3/4
        with pytest.raises(InconsistentRelationError):
            c_beta(engine, DivisorClass(2, (2, 2)))

    def test_result_invariants_on_sweep(self, engine):
        for d in range(2, 6):
            for m in product(range(0, d + 1), repeat=2):
                beta = DivisorClass(d, m)
                if delta(beta) < 1 or engine.quick_vanishing(beta):
                    continue
                result = c_beta(engine, beta)
                assert result.first_term + result.boundary_term == result.value
                if result.valid:
                    assert result.value >= 0


class TestPermutations:
    def test_every_permutation_matches_its_own_ordered_sum(self):
        # the boundary term is summed once per canonical class over the orbit
        # rows of the N solve; each permutation must still get its own full
        # ordered sum.  The d = 7 classes lie outside the pinned C digest
        engine = GWEngine()
        classes = (
            DivisorClass(5, (2, 1, 1, 0)),
            DivisorClass(6, (3, 2, 2, 1, 1)),
            DivisorClass(7, (3, 2, 2, 2, 2, 2, 2, 2)),
            DivisorClass(7, (2, 2, 2, 1, 1, 0)),
        )
        for beta in classes:
            results = set()
            for m in sorted(set(permutations(beta.m))):
                perm = DivisorClass(beta.d, m)
                result = c_beta(engine, perm)
                ordered = sum(
                    (splitting_term(engine, perm, a, b) for a, b in engine.splittings(perm)),
                    Fraction(0),
                )
                assert result.boundary_term == ordered, perm
                deg = perm.anticanonical_degree()
                first = (3 + perm.k - Fraction(9 - perm.k, deg)) * engine.n_beta(perm)
                assert result.first_term == first, perm
                results.add((result.value, result.first_term, result.boundary_term, result.valid))
            assert len(results) == 1, beta
        assert list(engine.cusp_boundary) == list(classes)
        # a boundary term that is not an integer on its own: deg = delta + 1 = 13
        assert engine.cusp_boundary[DivisorClass(7, (2, 2, 2, 1, 1, 0))].denominator == 13

    def test_warnings_name_the_class_passed_in(self, engine):
        for m in permutations((2, 1, 0)):
            result = c_beta(engine, DivisorClass(4, m))
            shifted = ",".join(map(str, m))
            assert not result.valid
            assert result.warnings == [
                f"hypothesis N(1;{shifted}) > 0 fails; the returned value is "
                "conjectural (numerically the formula is expected to hold anyway)"
            ]

    def test_errors_name_the_class_passed_in(self, engine):
        for literal in ("2;2,2,0", "2;0,2,2"):
            beta = parse_class_literal(literal)
            with pytest.raises(InconsistentRelationError, match=f"for {literal} is not"):
                c_beta(engine, beta)


class TestSummationConvention:
    def test_ordered_sum_is_twice_symmetrized_unordered_sum(self, engine):
        for beta in (P(4), P(5), DivisorClass(4, (2, 1, 1))):
            pairs = engine.splittings(beta)
            pair_set = set(pairs)
            assert all((b, a) in pair_set for a, b in pairs)
            ordered = sum(
                (splitting_term(engine, beta, a, b) for a, b in pairs), Fraction(0)
            )
            unordered = {}
            for a, b in pairs:
                if a == b:  # the diagonal splitting carries weight 1/2
                    unordered[a, b] = splitting_term(engine, beta, a, b) / 2
                elif (b, a) not in unordered:
                    unordered[a, b] = (
                        splitting_term(engine, beta, a, b)
                        + splitting_term(engine, beta, b, a)
                    ) / 2
            assert ordered == 2 * sum(unordered.values(), Fraction(0))


class TestBlowupInvariance:
    def test_cubic_one_point(self, engine):
        assert c_beta(engine, DivisorClass(3, (1,))).value == c_beta(engine, P(3)).value == 24

    def test_quartic_two_points(self, engine):
        assert c_beta(engine, DivisorClass(4, (1, 1))).value == c_beta(engine, P(4)).value == 2304

    def test_conic_vanishes_on_both_sides(self, engine):
        assert c_beta(engine, DivisorClass(2, (1,))).value == c_beta(engine, P(2)).value == 0


class TestSuiteFailurePaths:
    """A poisoned count must turn each suite's verdict to FAIL and name the class."""

    def test_blowup_suite_names_the_poisoned_pattern(self):
        engine = GWEngine()
        c_beta(engine, DivisorClass(3, (1,)))
        engine.cusp_boundary[DivisorClass(3, (1,))] += 1
        assert verify.blowup_suite(engine) == (
            False,
            ["FAIL d=3 pattern=(1,)", "blow-up invariance: 56 cases, FAIL"],
        )

    def test_cremona_suite_names_both_directions(self):
        engine = GWEngine()
        c_beta(engine, DivisorClass(1, (0, 0, 0)))
        engine.cusp_boundary[DivisorClass(1, (0, 0, 0))] += 1
        assert verify.cremona_suite(engine) == (
            False,
            [
                "FAIL 1;0,0,0 -> 2;1,1,1: (N, C) (1, 1) != (1, 0)",
                "FAIL 2;1,1,1 -> 1;0,0,0: (N, C) (1, 0) != (1, 1)",
                "cremona invariance: 4677 pairs, FAIL",
            ],
        )

    def test_symmetry_suite_names_each_differing_shuffle(self, engine, monkeypatch):
        def unsorted_off_by_one(engine, beta):
            result = c_beta(engine, beta)
            if list(beta.m) == sorted(beta.m, reverse=True):
                return result
            return result._replace(value=result.value + 1)

        monkeypatch.setattr(verify, "c_beta", unsorted_off_by_one)
        ok, lines = verify.symmetry_suite(engine)
        assert not ok
        assert len(lines) == 50 and all(line.startswith("FAIL ") for line in lines[:-1])
        assert lines[0] == "FAIL 5;4,1 vs 5;1,4: counts differ under permutation"
        assert lines[-1] == "symmetry: 100 classes x 4 shuffles, FAIL"

    def test_random_classes_raises_when_nothing_qualifies(self, engine):
        # delta = 3d - 1 >= 2 on the plane, so delta_max = 0 admits nothing
        with pytest.raises(RuntimeError) as excinfo:
            verify.random_classes(random.Random(0), 1, k_max=0, delta_max=0, engine=engine)
        assert str(excinfo.value) == "random class sampler exhausted its attempt budget"


class TestIntegralitySweep:
    def test_small_sweep_all_integral(self, engine):
        for k in range(0, 3):
            for d in range(1, 6):
                for m in product(range(0, d + 1), repeat=k):
                    beta = DivisorClass(d, m)
                    if delta(beta) < 1 or engine.quick_vanishing(beta):
                        continue
                    result = c_beta(engine, beta)  # raises on any non-integer
                    total = result.first_term + result.boundary_term
                    assert total.denominator == 1


class TestGenusClosedForms:
    """C at arithmetic genus 0 and 1, against values that do not come from the paper's formula.

    Genus 0: the geometric genus of an irreducible curve is its arithmetic
    genus p_a less the delta-invariant of each singular point, each at least
    1, and it is >= 0.  So an irreducible curve with p_a = 0 is smooth, and a
    class with p_a(beta) = 0 has no cuspidal curve: C = 0.

    Genus 1: a rational curve with p_a = 1 has one singular point, a node or
    a cusp.  As beta^2 = -K.beta, |beta| has dimension -K.beta = delta + 1,
    so the curves through delta - 1 general points form a net.  This leg
    rests on the count of cuspidal members of a general net,
    12 beta^2 + 12 beta.K + 2 K^2 + 2 c_2, which is 2 (K^2 + c_2) = 24 by
    Noether's formula.  The formula is attributed to Kleiman-Piene,
    "Enumerating singular curves on surfaces" (1999); ROADMAP.md quotes it,
    and it has not yet been checked against their paper.  The test asserts
    C = 24 where N = 12, and C = 0 where N = 0; no other N occurs.
    """

    def test_genus_0_and_1_classes(self, engine):
        classes = [
            DivisorClass(d, m)
            for k in range(0, 9)
            for d in range(1, 9)
            for m in combinations_with_replacement(range(d, -1, -1), k)
        ]
        classes = [
            b for b in classes if delta(b) >= 1 and not engine.quick_vanishing(b) and arithmetic_genus(b) <= 1
        ]
        assert len(classes) == 969
        by_genus = {0: [], 1: []}
        for beta in classes:
            result = c_beta(engine, beta)
            by_genus[arithmetic_genus(beta)].append((str(beta), result.n, result.value))
        assert len(by_genus[0]) == 619
        assert [row for row in by_genus[0] if row[2] != 0] == []
        assert len(by_genus[1]) == 350
        assert [row for row in by_genus[1] if row[1:] not in ((0, 0), (12, 24))] == []
