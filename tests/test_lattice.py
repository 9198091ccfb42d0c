import hashlib
import operator
import pickle
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpcount.lattice import (
    DivisorClass,
    SurfaceModel,
    _profiles,
    arithmetic_genus,
    blown_down_form,
    canonical_form,
    cremona_image,
    delta,
    format_class_literal,
    intersect,
    minus_one_classes,
    parse_class_literal,
    reduced_form,
)
from oracles import count_minus_one_classes

L2 = DivisorClass(1, (0, 0))
E1 = DivisorClass(0, (-1, 0))
E2 = DivisorClass(0, (0, -1))


def classes(k):
    return st.builds(
        DivisorClass,
        st.integers(-6, 6),
        st.tuples(*[st.integers(-4, 4)] * k),
    )


class TestSurfaceModel:
    @pytest.mark.parametrize("k", [-1, 9, 100])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ValueError) as excinfo:
            SurfaceModel(k)
        assert str(excinfo.value) == f"blow-up count k={k} is outside the allowed range 0..8"

    @pytest.mark.parametrize("k", range(9))
    def test_chern_numbers(self, k):
        surface = SurfaceModel(k)
        mk = surface.anticanonical()
        assert intersect(mk, mk) == 9 - k >= 1

    def test_anticanonical_coordinates(self):
        assert SurfaceModel(0).anticanonical() == DivisorClass(3, ())
        assert SurfaceModel(6).anticanonical() == DivisorClass(3, (1,) * 6)
        surface = SurfaceModel(4)
        for i in range(4):
            assert intersect(surface.anticanonical(), surface.exceptional(i)) == 1


class TestValueSemantics:
    """Equality, hash, repr, immutability and pickling of the two lattice value classes."""

    def test_reprs(self):
        # WDVVRelation error messages print the class repr
        assert repr(DivisorClass(1, (0, 1))) == "DivisorClass(d=1, m=(0, 1))"
        assert repr(SurfaceModel(3)) == "SurfaceModel(k=3)"

    def test_equal_values_hash_equal(self):
        a, b = DivisorClass(4, (2, 1)), DivisorClass(2 + 2, tuple([2, 1]))
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({a, b, DivisorClass(4, (1, 2))}) == 2
        assert SurfaceModel(3) == SurfaceModel(3) and hash(SurfaceModel(3)) == hash(SurfaceModel(3))
        assert SurfaceModel(3) != SurfaceModel(4)

    def test_no_equality_with_tuples(self):
        assert DivisorClass(1, ()) != (1, ())
        assert SurfaceModel(3) != (3,)

    def test_list_m_is_stored_as_a_tuple(self):
        beta = DivisorClass(3, [1, 1, 0])
        assert beta.m == (1, 1, 0) and type(beta.m) is tuple
        assert beta == DivisorClass(3, (1, 1, 0))

    @pytest.mark.parametrize(
        "value, name", [(DivisorClass(1, (0,)), "d"), (DivisorClass(1, (0,)), "m"), (SurfaceModel(2), "k")]
    )
    def test_fields_are_read_only(self, value, name):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, 5)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == before

    @pytest.mark.parametrize("value", [DivisorClass(5, (2, 1, -1)), DivisorClass(3, ()), SurfaceModel(8)])
    def test_pickle_round_trip(self, value):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)


class TestDomainErrors:
    @staticmethod
    def message(excinfo):
        assert excinfo.type is ValueError
        return str(excinfo.value)

    def test_exceptional_index_out_of_range(self):
        with pytest.raises(ValueError) as excinfo:
            SurfaceModel(3).exceptional(3)
        assert self.message(excinfo) == "exceptional index 3 out of range for k=3"

    def test_class_with_nine_blowups(self):
        with pytest.raises(ValueError) as excinfo:
            DivisorClass(1, (0,) * 9)
        assert self.message(excinfo) == "blow-up count k=9 is outside the allowed range 0..8"

    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    def test_arithmetic_across_surfaces(self, op):
        with pytest.raises(ValueError) as excinfo:
            op(DivisorClass(1, (1,)), DivisorClass(1, ()))
        assert self.message(excinfo) == "classes live on different surfaces: k=1 vs k=0"


class TestIntersect:
    def test_basis_pairings(self):
        assert intersect(L2, L2) == 1
        assert intersect(E1, E1) == -1
        assert intersect(E1, E2) == 0
        assert intersect(L2, E1) == 0

    def test_direct_arithmetic(self):
        assert intersect(DivisorClass(4, (1, 1)), DivisorClass(3, (1, 1))) == 10

    def test_mismatched_k(self):
        with pytest.raises(ValueError, match="different surfaces: k=2 vs k=1"):
            intersect(L2, DivisorClass(1, (0,)))
        with pytest.raises(ValueError, match="different surfaces: k=0 vs k=2"):
            intersect(DivisorClass(1, ()), E1)

    @given(classes(3), classes(3))
    def test_symmetric(self, a, b):
        assert intersect(a, b) == intersect(b, a)

    @given(classes(3), classes(3), classes(3))
    def test_bilinear(self, a, b, c):
        assert intersect(a + b, c) == intersect(a, c) + intersect(b, c)


class TestInvariants:
    def test_delta_examples(self):
        assert delta(DivisorClass(3, ())) == 8
        assert delta(E1) == 0
        assert delta(DivisorClass(4, (1, 1))) == 9

    def test_genus_examples(self):
        assert arithmetic_genus(DivisorClass(1, ())) == 0
        assert arithmetic_genus(DivisorClass(3, ())) == 1
        assert arithmetic_genus(E1) == 0

    @given(classes(4), classes(4))
    def test_delta_additivity(self, a, b):
        assert delta(a) + delta(b) == delta(a + b) - 1


class TestMinusOneClasses:
    @pytest.mark.parametrize("k", range(9))
    def test_counts_match_bruteforce_oracle(self, k):
        assert len(minus_one_classes(k)) == count_minus_one_classes(k)

    def test_known_counts(self):
        assert [len(minus_one_classes(k)) for k in range(9)] == [
            0, 1, 3, 6, 10, 16, 27, 56, 240,
        ]

    @pytest.mark.parametrize("k", [-1, 9])
    def test_k_outside_the_domain_raises_the_blowup_count_error(self, k):
        with pytest.raises(ValueError, match=f"blow-up count k={k} is outside"):
            minus_one_classes(k)

    def test_k1_is_exceptional_curve(self):
        assert minus_one_classes(1) == (DivisorClass(0, (-1,)),)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_all_have_delta_and_genus_zero(self, k):
        for beta in minus_one_classes(k):
            assert beta.self_intersection() == -1
            assert beta.anticanonical_degree() == 1
            assert delta(beta) == 0
            assert arithmetic_genus(beta) == 0

    def test_deterministic_order(self):
        classes_ = minus_one_classes(6)
        assert list(classes_) == sorted(classes_, key=lambda b: (b.d, b.m))

    @pytest.mark.parametrize("k", range(9))
    def test_the_pruned_search_finds_what_the_whole_box_holds(self, k):
        # the box assertion of minus_one_classes reads what the search finds,
        # so pruning must lose no profile of the enlarged box -2 <= m_i <= 4, d <= 7
        box = list(combinations_with_replacement(range(4, -3, -1), k))
        for d in range(8):
            whole = [m for m in box if sum(m) == 3 * d - 1 and sum(x * x for x in m) == d * d + 1]
            assert _profiles(k, 3 * d - 1, d * d + 1, 4) == whole, d

    def test_listings_are_pinned(self):
        # sha256 of the literals of k = 0..8, one per line in listing order,
        # recorded on the brute-force search over all permutations
        text = "".join(f"{format_class_literal(b)}\n" for k in range(9) for b in minus_one_classes(k))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5db9063621f70790b45a3dd56dfba5fe37d2d80be751aa64a5d47ae17b1afaa4"
        )

    @pytest.mark.parametrize("k", range(9))
    def test_strictly_increasing_so_no_duplicates(self, k):
        keys = [(b.d, b.m) for b in minus_one_classes(k)]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    @pytest.mark.parametrize("k", range(9))
    def test_closed_under_the_weyl_group(self, k):
        # the transpositions (i, i+1) generate S_k; with the quadratic
        # transform at the first three points they generate W(E_k), k >= 3
        found = set(minus_one_classes(k))
        for beta in found:
            for i in range(k - 1):
                m = list(beta.m)
                m[i], m[i + 1] = m[i + 1], m[i]
                assert DivisorClass(beta.d, tuple(m)) in found, (str(beta), i)
            if k >= 3:
                assert cremona_image(beta) in found, str(beta)


class TestCanonicalForm:
    def test_examples(self):
        assert canonical_form(DivisorClass(4, (0, 2, 1))) == DivisorClass(4, (2, 1, 0))
        assert canonical_form(DivisorClass(3, (1, 1))) == DivisorClass(3, (1, 1))
        assert canonical_form(DivisorClass(0, (0, -1))) == DivisorClass(0, (0, -1))

    @given(classes(5))
    def test_idempotent(self, beta):
        assert canonical_form(canonical_form(beta)) == canonical_form(beta)


class TestReducedForm:
    @pytest.mark.parametrize(
        "literal, reduced",
        [
            ("2;1,1,1", "1;0,0,0"),  # conic through three points -> line
            ("5;0,2,2,2", "4;1,1,1,0"),
            ("2;1,1,1,1,1", "0;0,0,0,0,-1"),  # a (-1)-class -> E_5
            ("1;1,1,1", "-1;-1,-1,-1"),  # stops at the first negative m_i
            ("4;0,1,2", "4;2,1,0"),  # d >= m1 + m2 + m3: only sorted
            ("3;1,2", "3;2,1"),  # k < 3: only sorted
            ("3;2,-1,2", "3;2,2,-1"),  # a negative m_i: only sorted
        ],
    )
    def test_examples(self, literal, reduced):
        assert format_class_literal(reduced_form(parse_class_literal(literal))) == reduced

    @given(st.integers(0, 12).flatmap(lambda d: st.builds(
        DivisorClass, st.just(d), st.lists(st.integers(0, d), min_size=3, max_size=8).map(tuple)
    )))
    def test_same_invariants_and_idempotent(self, beta):
        reduced = reduced_form(beta)
        assert reduced_form(reduced) == reduced
        assert reduced.self_intersection() == beta.self_intersection()
        assert reduced.anticanonical_degree() == beta.anticanonical_degree()
        if min(reduced.m) >= 0:
            m = reduced.m
            assert list(m) == sorted(m, reverse=True) and reduced.d >= m[0] + m[1] + m[2]


class TestBlownDownForm:
    @pytest.mark.parametrize(
        "literal, key",
        [
            ("4;1,1", "4;"),  # delta 9: both points blow down
            ("5;0,2,2,2", "4;"),  # reduces to 4;1,1,1,0 first
            ("4;2,1,1,1,1,1,1,1", "4;2"),
            ("6;2,2,2,2,2,2,2,1", "6;2,2,2,2,2,2,2"),
            ("1;1,0", "1;"),  # the seed L - E_1 becomes the seed L
            ("1;1,1,1", "-1;-1,-1,-1"),  # delta -1: the reduced form, not the seed 1;1,1
            ("2;1,1,1,1,1", "0;0,0,0,0,-1"),  # delta 0: the reduced form of a (-1)-class
            ("3;1,1,1,1,1,1,1,1", "3;1,1,1,1,1,1,1,1"),  # delta 0: -K, not the cubic 3;
            ("3;2,-1,0", "3;2,0,-1"),  # a negative m_i: only sorted
            ("9;3,3,3,3,3,3,3,3", "9;3,3,3,3,3,3,3,3"),
        ],
    )
    def test_examples(self, literal, key):
        assert format_class_literal(blown_down_form(parse_class_literal(literal))) == key

    @given(st.integers(-2, 12).flatmap(lambda d: st.builds(
        DivisorClass, st.just(d), st.lists(st.integers(-1, max(d, 0) + 1), max_size=8).map(tuple)
    )))
    def test_idempotent_reduced_and_never_raises_k(self, beta):
        key = blown_down_form(beta)
        assert blown_down_form(key) == key
        assert reduced_form(key) == key
        assert key.k <= beta.k
        reduced = reduced_form(beta)
        if key.k < beta.k:  # only 0s and 1s go, and only at delta >= 1
            assert delta(reduced) >= 1 and min(reduced.m) >= 0
            assert key.d == reduced.d and key.m == reduced.m[: key.k]
            assert set(reduced.m[key.k:]) <= {0, 1} and min(key.m, default=2) >= 2
            assert arithmetic_genus(key) == arithmetic_genus(reduced)
        else:
            assert key == reduced

    def test_returns_its_argument_when_it_is_a_key(self):
        beta = DivisorClass(6, (2,) * 8)
        assert blown_down_form(beta) is beta


class TestCremona:
    @given(classes(4))
    def test_involution(self, beta):
        assert cremona_image(cremona_image(beta)) == beta

    @given(classes(3), classes(3))
    def test_preserves_intersection(self, a, b):
        assert intersect(cremona_image(a), cremona_image(b)) == intersect(a, b)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            cremona_image(L2)


class TestLiterals:
    def test_examples(self):
        assert parse_class_literal("4;1,1") == DivisorClass(4, (1, 1))
        assert parse_class_literal("3;") == DivisorClass(3, ())
        assert parse_class_literal("0;0,-1") == DivisorClass(0, (0, -1))

    def test_k9_rejected(self):
        with pytest.raises(ValueError, match=r"k=9 is outside the allowed range 0\.\.8"):
            parse_class_literal("2;1,1,1,1,1,1,1,1,1")

    @pytest.mark.parametrize("text", ["", "4", ";1", "4;1,", "a;1", "4;1, 2", "\u0664;", "4;\u0661"])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_class_literal(text)

    @given(classes(0) | classes(3) | classes(8))
    def test_round_trip(self, beta):
        assert parse_class_literal(format_class_literal(beta)) == beta
