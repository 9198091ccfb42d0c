"""Genus-0 rational curve counts N on blown-up planes.

The counts are produced by three associativity relations of the quantum
product (with the divisor axiom folded in), seeded with the geometrically
obvious base values and memoized per blown-down Weyl-orbit class, keyed by
the ints (d, m) of `blown_down_form`: Cremona-reduced and, at delta >= 1,
without the multiplicities 0 and 1, which leave N unchanged.  The persistent
cache stores that key, so a cache hit builds no class.  All values are plain
Python integers, so precision is unbounded.
"""

from __future__ import annotations

import math
import os
import tempfile
from collections.abc import Mapping
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import mul, sub
from types import MappingProxyType
from typing import NamedTuple

from .lattice import (
    DivisorClass,
    SurfaceModel,
    _orbit,
    arithmetic_genus,
    blown_down_key,
    delta,
    intersect,
    minus_one_classes,
    parse_class_key,
)

CACHE_ENV_VAR = "DPCOUNT_CACHE"
CACHE_VERSION = "v1"


class UnderdeterminedError(RuntimeError):
    """Every relation on the probe divisors degenerated for a class."""


class InconsistentRelationError(RuntimeError):
    """A relation produced a non-exact division or relations disagree."""


def comb0(n: int, r: int) -> int:
    """Binomial coefficient that vanishes outside 0 <= r <= n."""
    return math.comb(n, r) if 0 <= r <= n else 0


class WDVVRelation(NamedTuple):
    """One linear constraint: lhs_coeff * N_beta = rhs; a named tuple, as one is built per relation."""

    name: str
    divisors: tuple[DivisorClass, ...]
    lhs_coeff: int
    rhs: int

    def solve(self) -> int:
        if self.lhs_coeff == 0:
            raise ValueError(f"relation {self.name}{self.divisors} is degenerate")
        q, r = divmod(self.rhs, self.lhs_coeff)
        if r != 0:
            raise InconsistentRelationError(
                f"relation {self.name} with divisors {self.divisors}: "
                f"rhs {self.rhs} not divisible by lhs coefficient {self.lhs_coeff}"
            )
        return q


class ConsistencyReport(NamedTuple):
    """The engine's N(beta) and the relations `GWEngine.consistency_check` evaluated on it."""

    beta: DivisorClass
    value: int
    relations: list[WDVVRelation]

    @property
    def consistent(self) -> bool:
        """lhs * value = rhs for every listed relation, lhs = 0 included; on the basis tuples of
        `GWEngine.consistency_check` every nondegenerate relation then implies `value`."""
        return not self.disagreements()

    def disagreements(self) -> list[WDVVRelation]:
        return [r for r in self.relations if r.lhs_coeff * self.value != r.rhs]


@lru_cache(maxsize=None)
def divisor_pool(k: int) -> tuple[DivisorClass, ...]:
    """Deterministic pool of probe divisors: L, the E_i, -K, the L - E_i and the L - E_i - E_j.

    No solve or check reads it; only the benchmark harness's set-up and the
    tests, whose reference engines probe relations on it, use it."""
    surface = SurfaceModel(k)
    line = surface.line()
    pool = [line]
    pool.extend(surface.exceptional(i) for i in range(k))
    pool.append(surface.anticanonical())
    pool.extend(line - surface.exceptional(i) for i in range(k))
    pool.extend(
        line - surface.exceptional(i) - surface.exceptional(j)
        for i, j in combinations(range(k), 2)
    )
    return tuple(pool)


@lru_cache(maxsize=None)
def _line_and_anticanonical(k: int) -> tuple[DivisorClass, DivisorClass]:
    """L and -K on the k-point blow-up, the insertions of every solve (`GWEngine._orbit_relation`)."""
    return SurfaceModel(k).line(), SurfaceModel(k).anticanonical()


@lru_cache(maxsize=None)
def seed_classes(k: int) -> Mapping[DivisorClass, int]:
    """The recursion's base data on the k-point blow-up, class -> N, in listing order.

    L, every L - E_i, the (-1)-classes (each E_i among them) and, at k = 8,
    -K.  The set is closed under permutations of the m_i.
    """
    surface = SurfaceModel(k)
    seeds = {surface.line(): 1}
    for i in range(k):
        seeds[surface.line() - surface.exceptional(i)] = 1
    for beta in minus_one_classes(k):
        seeds.setdefault(beta, 1)
    if k == 8:
        # the pencil of cubics through 8 general points has 12 rational members
        seeds[surface.anticanonical()] = 12
    return MappingProxyType(seeds)


def _viable_multiplicities(m: tuple[int, ...], d: int) -> list[tuple]:
    """Orbit rows ((d1, m1), (d2, m - m1), len(_orbit(m, m1)), d1 < d2) for 1 <= d1 <= d/2, d2 = d - d1,
    both halves of delta, genus >= 0.

    One m1 per orbit of the permutations that fix m: the one whose entries
    do not increase over the positions that hold equal m_i.  Per d1 the
    candidates are the box max(0, m_i - d2) <= m1_i <= min(d1, m_i), so both
    halves have 0 <= multiplicity <= degree; rows come by d1, then in
    lexicographic order of m1.  With S1 = sum m1_i, Q1 = sum m1_i(m1_i - 1) and Q2
    the same sum over m - m1, the conditions read
    S - 3*d2 + 1 <= S1 <= 3*d1 - 1, Q1 <= (d1-1)(d1-2) and Q2 <= (d2-1)(d2-2).
    A depth-first walk over the coordinates cuts a branch as soon as the
    extremes of these sums over the remaining coordinates rule it out.
    """
    k = len(m)
    # the last earlier position holding the same m_i, whose m1 caps this one
    last: dict[int, int] = {}
    previous = []
    for i, mi in enumerate(m):
        previous.append(last.get(mi))
        last[mi] = i
    rank = [m[: i + 1].count(mi) for i, mi in enumerate(m)]  # positions up to i holding m_i
    found: list[tuple] = []
    m1, run = [0] * k, [0] * k  # run[i]: positions up to i that hold m_i and m1[i]

    def walk(i: int, s1: int, q1: int, q2: int, size: int) -> None:
        if i == k:
            found.append(((d1, tuple(m1)), (d2, tuple(map(sub, m, m1))), size, d1 < d2))
            return
        j = i + 1
        r = ranges[i]
        prev = previous[i]
        if prev is not None:
            r = range(r.start, min(r.stop, m1[prev] + 1))
        for a in r:
            b = m[i] - a
            s, p1, p2 = s1 + a, q1 + a * (a - 1), q2 + b * (b - 1)
            if (
                s + rest_s_min[j] > s1_max
                or s + rest_s_max[j] < s1_min
                or p1 + rest_q1_min[j] > q1_max
                or p2 + rest_q2_min[j] > q2_max
            ):
                continue
            m1[i] = a
            run[i] = run[prev] + 1 if prev is not None and m1[prev] == a else 1
            # the orbit size is a product of multinomials n! / (c_1! c_2! ...), one
            # per value of m; position i multiplies its own by rank / run, exactly
            walk(j, s, p1, p2, size * rank[i] // run[i])

    for d1 in range(1, d // 2 + 1):
        d2 = d - d1
        # an empty range (some m_i < 0 or m_i > d) ends the walk at its position
        ranges = [range(max(0, mi - d2), min(d1, mi) + 1) for mi in m]
        s1_min, s1_max = sum(m) - 3 * d2 + 1, 3 * d1 - 1
        q1_max, q2_max = (d1 - 1) * (d1 - 2), (d2 - 1) * (d2 - 2)
        # extremes of S1, Q1 and Q2 over coordinates i..k-1; x(x - 1) is
        # increasing on x >= 0, so each minimum sits at an end of the range
        rest_s_min, rest_s_max = [0] * (k + 1), [0] * (k + 1)
        rest_q1_min, rest_q2_min = [0] * (k + 1), [0] * (k + 1)
        for i in range(k - 1, -1, -1):
            lo, hi = ranges[i].start, ranges[i].stop - 1
            rest_s_min[i] = rest_s_min[i + 1] + lo
            rest_s_max[i] = rest_s_max[i + 1] + hi
            rest_q1_min[i] = rest_q1_min[i + 1] + lo * (lo - 1)
            rest_q2_min[i] = rest_q2_min[i + 1] + (m[i] - hi) * (m[i] - hi - 1)
        walk(0, 0, 0, 0, 1)
    return found


# relation -> (number of insertions, lowest delta(beta) at which it holds)
RELATIONS = {"R1": (2, 3), "R2": (3, 2), "R3": (4, 1)}


def project(divisors, rows) -> list[tuple]:
    """Evaluator rows (x.beta1 for x in divisors, w, delta1) of rows (half, w, delta1) whose half
    beta1 is given as (d1, m1_1, ..., m1_k), its projection on the basis L, E_1, ..., E_k."""
    return [(tuple(x.d * h[0] - sum(map(mul, x.m, h[1:])) for x in divisors), w, d1) for h, w, d1 in rows]


class RelationEvaluator:
    """Both sides of R1, R2 and R3, lhs * N_beta = rhs, for one class beta.

    An insertion is an index into `divisors`.  Both sides are computed from
    intersection numbers alone: x.y and x.beta for the lhs, x1 = x.beta1 and
    x2 = x.beta2 = x.beta - x1 per splitting for the rhs.  A row of `rows` is
    a splitting or orbit seen only through its projection: (x1 for each
    divisor, w, delta(beta1)), with w = N1 N2 (beta1.beta2) times the orbit
    size; `project` builds them from halves.  Both sides are multilinear, so
    rows of equal projection and delta(beta1) are merged into one first.

    Each rhs is one dot product of two per-row factor lists, and each list is
    built once, on first use.  With Q_bc = x1_c * x2_b - x1_b * x2_c, the
    weights h, l of R1 and w of R2 or R3 (`weights`):
    R1(a, b) = (h x1_a - l x2_a) . x2_b, R2(a, b, c) = (w x1_a) . Q_bc and
    R3(a, b, c, d) = (w x1_a x2_d) . Q_bc.  For R2 and R3 both sides change
    sign when b and c are swapped, whatever the data.
    """

    def __init__(self, beta: DivisorClass, divisors, rows=()):
        self.divisors = divisors = tuple(divisors)
        self.delta = delta(beta)
        self.pair = [[intersect(x, y) for y in divisors] for x in divisors]
        self.on_beta = [intersect(x, beta) for x in divisors]
        self.rows = merged = {}  # (projection, delta1) -> w
        for p, w, d1 in rows:
            merged[p, d1] = merged.get((p, d1), 0) + w
        columns = list(zip(*(p for p, _ in merged))) or [()] * len(divisors)
        self.halves = [(x1, [xb - a for a in x1]) for x1, xb in zip(columns, self.on_beta)]
        self._weights: dict[str, tuple[list[int], ...]] = {}
        self._factors: dict[tuple, list[int]] = {}

    def weights(self, name: str) -> tuple[list[int], ...]:
        """Per-row rhs coefficients of `name`: w C(D-3, d1-1) and w C(D-3, d1-2) for R1,
        w C(D-2, d1) for R2, w C(D-1, d1) for R3, with D = delta(beta), d1 = delta(beta1)."""
        found = self._weights.get(name)
        if found is None:
            n, deltas, found = self.delta - RELATIONS[name][1], {d1 for _, d1 in self.rows}, []
            for shift in (1, 2) if name == "R1" else (0,):
                binom = {d1: comb0(n, d1 - shift) for d1 in deltas}
                found.append([w * binom[d1] for (_, d1), w in self.rows.items()])
            found = self._weights[name] = tuple(found)
        return found

    def _factor(self, key: tuple) -> list[int]:
        """The per-row factor list `key`, built on first use: (name, a) is the factor of insertion a
        (h x1_a - l x2_a for R1, w x1_a for R2 and R3), ("R3", a, d) is w x1_a x2_d, ("Q", b, c) is Q_bc."""
        found = self._factors.get(key)
        if found is None:
            name, i, *j = key
            x1, x2 = self.halves[i]
            if name == "Q":
                y1, y2 = self.halves[j[0]]
                found = list(map(sub, map(mul, y1, x2), map(mul, x1, y2)))
            elif j:
                found = list(map(mul, self._factor((name, i)), self.halves[j[0]][1]))
            elif name == "R1":
                h, l = self.weights(name)
                found = list(map(sub, map(mul, h, x1), map(mul, l, x2)))
            else:
                found = list(map(mul, self.weights(name)[0], x1))
            self._factors[key] = found
        return found

    def lhs(self, name: str, ins: tuple[int, ...]) -> int:
        pair, xb = self.pair, self.on_beta
        if name == "R1":  # insertions (pt, pt, A, B)
            return pair[ins[0]][ins[1]]
        if name == "R2":  # insertions (A, B, C, pt)
            a, b, c = ins
            return pair[a][b] * xb[c] - pair[a][c] * xb[b]
        a, b, c, d = ins  # insertions (A, B, C, D)
        return (
            pair[a][b] * xb[c] * xb[d]
            + pair[c][d] * xb[a] * xb[b]
            - pair[a][c] * xb[b] * xb[d]
            - pair[b][d] * xb[a] * xb[c]
        )

    def rhs(self, name: str, ins: tuple[int, ...]) -> int:
        factor = self._factor
        if name == "R1":
            return sum(map(mul, factor(("R1", ins[0])), self.halves[ins[1]][1]))
        left = factor((name, ins[0])) if name == "R2" else factor((name, ins[0], ins[3]))
        return sum(map(mul, left, factor(("Q", ins[1], ins[2]))))

    def relation(self, name: str, ins: tuple[int, ...]) -> WDVVRelation:
        divisors = tuple(self.divisors[i] for i in ins)
        return WDVVRelation(name, divisors, self.lhs(name, ins), self.rhs(name, ins))


class GWEngine:
    """Memoized evaluator of the counts N over every k <= 8 surface at once.

    N is memoized at the ints (d, m) of `blown_down_form`: the Weyl-orbit
    (Cremona-reduced) class, with the multiplicities 0 and 1 dropped at delta >= 1.
    N is invariant under W(E_k) and under blowing down a point of
    multiplicity 0 or 1, so every class that shares a key shares one memo
    entry, solved on the smallest surface, and the persistent cache stores
    keys only.  Every key is solved by one relation on L and -K over its
    splitting orbits, merged per (d1, sum m1) (`_orbit_relation`): R1 at
    delta >= 3, where the E_i orbits add nothing, so that solve reads N of
    halves of lower degree only, never of beta - E_i; R2 or R3 at delta 1
    or 2.  No orbit rows are kept: `_orbit_rows` lists them on every call.
    The memo, `_half_n` and the cusp boundary sums that `cusp.c_beta` keeps,
    per canonical class, in `cusp_boundary`, are insert-only maps.
    """

    def __init__(self):
        self._memo: dict[tuple, int] = {}  # `blown_down_key` (d, m) -> N
        self._half_n: dict[tuple, int] = {}  # canonical half (d, m) -> N, `_half_value`
        self._loaded: dict[str, bytes] = {}  # path -> the bytes `load_cache` merged from it
        self.cusp_boundary: dict[DivisorClass, Fraction] = {}

    @property
    def memo_size(self) -> int:
        """Number of memoized classes; the memo only grows."""
        return len(self._memo)

    # ------------------------------------------------------------------ seeds

    def seed_value(self, beta: DivisorClass) -> int | None:
        """Base data from `seed_classes`: (-1)-classes, L, L - E_i, and -K on the k = 8 surface."""
        return seed_classes(beta.k).get(beta)

    # --------------------------------------------------------------- filters

    def quick_vanishing(self, beta: DivisorClass) -> bool:
        """True when N is certainly zero for geometric reasons."""
        if beta.d <= 0:
            # the only seeds of degree 0 are the E_i
            return beta.d < 0 or self.seed_value(beta) is None
        return (
            min(beta.m, default=0) < 0
            or max(beta.m, default=0) > beta.d
            or delta(beta) < 0
            or arithmetic_genus(beta) < 0
            or (delta(beta) == 0 and self.seed_value(beta) is None)
        )

    # ------------------------------------------------------------ splittings

    def _orbit_rows(self, beta: DivisorClass) -> tuple[tuple, ...]:
        """Rows ((d1, m1), (d2, m2), orbit size, swap) of ints, one per unordered stabiliser
        orbit of `splittings(beta)`, listed anew on every call for the readers of
        every orbit: `splittings`, and through `_orbit_data` the cusp boundary
        sum and the delta 1 and 2 solves.  The R1 solve of N reads the walk directly.

        The stabiliser of beta permutes positions that hold equal m_i and acts
        on a pair by permuting both halves.  An orbit is represented by the
        pair whose m1 has non-increasing entries over every such block, and
        weighted by its number of ordered pairs.  `swap` says that the swapped
        orbit (half2, half1), of the same size, stands here too: so for the
        E_i halves (at d = 0 as well, where beta - E_i is enumerated apart)
        and for degrees 0 < d1 < d/2; at d1 = d/2 each orbit is listed itself.
        Halves of degree d1 >= 1 come from `_viable_multiplicities`, with
        0 <= m_i <= degree, delta >= 0 and genus >= 0; no `quick_vanishing`
        test is left, as delta = 0 means -K.h = 1 and odd h^2 = 2g - 1 >= -1,
        so by Hodge index h is a (-1)-class or, at k = 8, -K: a seed.
        """
        k, d, m = beta.k, beta.d, beta.m
        rows = []
        for i in (i for i in range(k) if m[i] not in m[:i]):
            m2 = (*m[:i], m[i] + 1, *m[i + 1 :])  # beta - E_i; E_i itself never vanishes
            if not self.quick_vanishing(DivisorClass(d, m2)):  # true for the zero class
                rows.append(((0, (0,) * i + (-1,) + (0,) * (k - i - 1)), (d, m2), m.count(m[i]), True))
        rows += _viable_multiplicities(m, d)
        return tuple(rows)

    def splittings(self, beta: DivisorClass) -> tuple[tuple[DivisorClass, DivisorClass], ...]:
        """All ordered pairs beta1 + beta2 = beta with both halves viable, sorted by beta1.

        The orbits of `_orbit_rows` and their swaps, expanded, for probe
        divisors that are not stabiliser invariant, as in `consistency_check`."""
        pairs = [
            (DivisorClass(hd, m1), DivisorClass(beta.d - hd, tuple(map(sub, beta.m, m1))))
            for h1, h2, _, swap in self._orbit_rows(beta)
            for hd, hm in ((h1, h2) if swap else (h1,))
            for m1 in _orbit(beta.m, hm)
        ]
        pairs.sort(key=lambda p: (p[0].d, p[0].m))
        return tuple(pairs)

    def _orbit_data(self, beta: DivisorClass, orbits=None) -> list[tuple]:
        """Rows (half1, size*N1*N2*(beta1.beta2), delta(beta1)), and (half2, ...) too with `swap`,
        over the orbit rows `orbits` of beta, by default every orbit of `_orbit_rows(beta)`;
        zeros dropped, N per half from `_half_value`, and N2 not looked up when N1 = 0.

        The cusp boundary sum of `cusp.c_beta` and the delta 1 and 2 solves of
        N read every orbit, E_i orbits included; the delta >= 3 solve reads the
        orbits that the walk lists for d1 >= 1.  `_orbit_relation` takes the
        rows of either solve."""
        lookup = self._half_value
        top = delta(beta) - 1  # delta(beta1) + delta(beta2)
        data = []
        for h1, h2, size, swap in self._orbit_rows(beta) if orbits is None else orbits:
            n1 = lookup(h1)
            n2 = n1 and lookup(h2)
            if n2:
                (d1, m1), (d2, m2) = h1, h2
                w = size * n1 * n2 * (d1 * d2 - sum(map(mul, m1, m2)))
                delta1 = 3 * d1 - sum(m1) - 1
                data.append((h1, w, delta1))
                if swap:
                    data.append((h2, w, top - delta1))
        return data

    def _half_value(self, half: tuple) -> int:
        """N of a half (d, m), asked of `n_beta` and filed in `_half_n` once per canonical half (d, sorted m).

        Only the solve path reads `_half_n`; `consistency_check` reads N through
        `n_beta`, so it sees a memo entry that changed after a solve."""
        known, canonical = self._half_n, (half[0], tuple(sorted(half[1], reverse=True)))
        if canonical not in known:
            known[canonical] = self.n_beta(DivisorClass(*canonical))
        return known[canonical]

    def _splitting_data(self, beta: DivisorClass) -> list[tuple]:
        """Evaluator rows ((d1, *m1), N1*N2*(beta1.beta2), delta(beta1)) over `splittings(beta)`,
        each N read through `n_beta`; (d1, *m1) is the projection on L, E_1, ..., E_k."""
        data = []
        for b1, b2 in self.splittings(beta):
            if n1 := self.n_beta(b1):
                data.append(((b1.d, *b1.m), n1 * self.n_beta(b2) * intersect(b1, b2), delta(b1)))
        return data

    # ------------------------------------------------------------- relations

    def _relation(self, name: str, beta: DivisorClass, divisors) -> WDVVRelation:
        """Relation `name` over the whole splitting list of beta; the formulas are in `RelationEvaluator`."""
        low = RELATIONS[name][1]
        db = delta(beta)
        if db < low:
            raise ValueError(f"relation {name} needs delta >= {low}, got {db} for {beta}")
        evaluator = RelationEvaluator(beta, divisors, project(divisors, self._splitting_data(beta)))
        return evaluator.relation(name, tuple(range(len(divisors))))

    def relation_r1(self, beta: DivisorClass, a: DivisorClass, b: DivisorClass) -> WDVVRelation:
        """Insertion pattern (pt, pt, A, B); needs delta(beta) >= 3."""
        return self._relation("R1", beta, (a, b))

    def relation_r2(self, beta, a, b, c) -> WDVVRelation:
        """Insertion pattern (A, B, C, pt); needs delta(beta) >= 2."""
        return self._relation("R2", beta, (a, b, c))

    def relation_r3(self, beta, a, b, c, d) -> WDVVRelation:
        """Insertion pattern (A, B, C, D); needs delta(beta) >= 1."""
        return self._relation("R3", beta, (a, b, c, d))

    # ------------------------------------------------------------ the counts

    def n_beta(self, beta: DivisorClass) -> int:
        """N(beta), computed and memoized once per key `blown_down_key(beta.d, beta.m)`.

        A hit builds no class.  Every key that is neither a seed nor `quick_vanishing` has
        delta >= 1 and every m_i >= 2, and is solved by `_orbit_relation`: at delta >= 3
        over the orbits the walk lists for d1 >= 1, at delta 1 or 2 over every orbit.  Depth domain:
        a key nests three frames (`_orbit_relation`), so at the default recursion limit a fresh
        process solves the plane class 330; and raises `RecursionError` on 331;, which the CLI
        reports as one `error:` line with exit code 1."""
        memo_key = blown_down_key(beta.d, beta.m)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        key = beta if memo_key == (beta.d, beta.m) else DivisorClass(*memo_key)
        seed = self.seed_value(key)
        if seed is not None:
            value = seed
        elif self.quick_vanishing(key):
            value = 0
        else:
            orbits = _viable_multiplicities(key.m, key.d) if delta(key) >= 3 else self._orbit_rows(key)
            value = self._orbit_relation(key, self._orbit_data(key, orbits)).solve()
        if value < 0:
            raise InconsistentRelationError(f"negative count {value} for {key}")
        self._memo[memo_key] = value
        return value

    def _orbit_relation(self, beta: DivisorClass, rows) -> WDVVRelation:
        """The relation that solves a key on the insertions L and -K, over its `_orbit_data` `rows`.

        R1(L, -K) at delta >= 3; at delta 2 the first R2 tuple of (L, -K)
        with a nonzero lhs, then R3; at delta 1 the first such R3 tuple.  L and
        -K are fixed by every permutation of the m_i, so the sum runs over
        stabiliser orbits, and a row enters only through its projection
        (L.beta1, -K.beta1) = (d1, delta(beta1) + 1), under which the evaluator
        merges the rows.  `n_beta` builds `rows` itself, so a chain of keys
        nests three frames per key, `n_beta` -> `_orbit_data` -> `_half_value`
        -> `n_beta`.

        At delta >= 3, `rows` may leave out the E_i orbits: delta(E_i) = 0
        zeroes both weights of its row, and its swap's term carries the factor
        L.E_i = 0, so N(beta - E_i) is never read.  The lhs is L.(-K) = 3 at
        every k, so the division still checks the rhs; R1(L, L), of lhs 1,
        would check nothing.  At delta 1 and 2 the rows hold every orbit.
        Domain there: reduced keys (`reduced_form`), neither seeds nor
        `quick_vanishing`; d >= m_1 + m_2 + m_3 >= 3 m_4 and k <= 8 give
        3d - 3 <= sum(m) <= 8d/3, so d <= 9.  Of the blown-down keys, every
        m_i >= 2, just 6;2^8 (delta 1) and 9;3^8 (delta 2) are met; their
        m_i are all equal, so L and -K span the divisors their stabiliser
        fixes, and if any fixed tuple is nondegenerate, one on (L, -K) is.
        An unreduced class may have none: every fixed R3 tuple on 2;1,1,1,1
        is degenerate, and `UnderdeterminedError` is raised.
        """
        rows = (((d1, delta1 + 1), w, delta1) for (d1, _), w, delta1 in rows)
        evaluator = RelationEvaluator(beta, _line_and_anticanonical(beta.k), rows)
        for name, (arity, low) in RELATIONS.items():
            if evaluator.delta >= low:
                for ins in [(0, 1)] if name == "R1" else product((0, 1), repeat=arity):
                    if evaluator.lhs(name, ins) != 0:
                        return evaluator.relation(name, ins)
        raise UnderdeterminedError(
            f"no nondegenerate relation on L and -K for {beta} "
            f"(k={beta.k}, delta={evaluator.delta}); the solve needs a reduced key"
        )

    # ------------------------------------------------------------ diagnostics

    def consistency_check(self, beta: DivisorClass) -> ConsistencyReport:
        """Check lhs * N_beta = rhs, lhs = 0 included, for each relation beta's delta admits.

        The insertions run over every tuple of the basis L, E_1, ..., E_k.  Both
        sides are multilinear in the insertions and every class is an integer
        combination of the basis, so when all of these hold, every nondegenerate
        relation on any divisors, `divisor_pool`'s among them, implies the
        engine value.  The report lists the tuples that do not read 0 = 0."""
        surface = SurfaceModel(beta.k)
        basis = (surface.line(), *(surface.exceptional(i) for i in range(beta.k)))
        value = self.n_beta(beta)
        evaluator = RelationEvaluator(beta, basis, self._splitting_data(beta))
        report = ConsistencyReport(beta=beta, value=value, relations=[])
        for name, (arity, low) in RELATIONS.items():
            if evaluator.delta < low:
                continue
            # R2 and R3 are antisymmetric in (b, c): b = c reads 0 = 0 and b > c
            # negates the tuple with b and c swapped, which product() met earlier
            sides: dict[tuple, tuple[int, int]] = {}
            for ins in product(range(len(evaluator.divisors)), repeat=arity):
                if arity == 2 or ins[1] < ins[2]:
                    lhs, rhs = sides[ins] = evaluator.lhs(name, ins), evaluator.rhs(name, ins)
                elif ins[1] == ins[2]:
                    continue
                else:
                    lhs, rhs = sides[(ins[0], ins[2], ins[1], *ins[3:])]
                    lhs, rhs = -lhs, -rhs
                if lhs or rhs:  # tuples that read 0 = 0 get no WDVVRelation
                    divisors = tuple(evaluator.divisors[i] for i in ins)
                    report.relations.append(WDVVRelation(name, divisors, lhs, rhs))
        return report

    # --------------------------------------------------------------- caching

    def load_cache(self, path: str | os.PathLike) -> list[str]:
        """Merge a cache file into the memo; returns reports for skipped lines.

        Rows end at a newline only, as `save_cache` writes them: a vertical
        tab, form feed or U+2028 is part of its line, never a row break, and
        a trailing carriage return is read as `int` reads spaces.
        Each row must hold a canonical (non-increasing) class.  It is parsed
        to ints and filed under its memo key, the (d, m) of `blown_down_form`,
        so no row builds a class; a later row wins over an earlier one, and
        rows that older versions wrote for unreduced or unstripped classes
        load under their key.  Undecodable bytes, any other non-ASCII character
        and a _ corrupt a line; ASCII spaces and a + sign around a number are
        read as `int` reads them.  A missing file holds no rows, and any other
        `OSError` (a directory at `path`) propagates.  The bytes read are kept
        per path, so that `save_cache` can tell whether the file still holds them.
        """
        problems: list[str] = []
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return problems
        for lineno, line in enumerate(raw.decode("utf-8", "surrogateescape").split("\n"), start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            try:
                if len(parts) != 4 or parts[0] != CACHE_VERSION:
                    raise ValueError("bad record shape or version")
                # int() also reads non-ASCII digits and _ separators, which save_cache never writes
                if not line.isascii() or "_" in line:
                    raise ValueError("non-ASCII character or _ in the row")
                k = int(parts[1])
                d, m = parse_class_key(parts[2])
                if len(m) != k:
                    raise ValueError(f"k column {k} disagrees with literal {parts[2]}")
                if list(m) != sorted(m, reverse=True):
                    raise ValueError("m entries not in canonical (non-increasing) order")
                value = int(parts[3])
                if value < 0:
                    raise ValueError(f"negative count {value}")
            except ValueError as exc:
                problems.append(f"{path}:{lineno}: skipped corrupted cache line ({exc})")
                continue
            self._memo[blown_down_key(d, m)] = value
        self._loaded[os.fspath(path)] = raw
        return problems

    def save_cache(self, path: str | os.PathLike) -> None:
        """Atomic write of the memo, one row per key: temp file in the target directory, then rename.

        The rows of the file on disk whose keys the memo lacks are kept, so
        writers that share a path keep each other's rows; where both hold a
        key the memo's value wins, and corrupted lines are not copied.  When
        the file holds the very bytes that `load_cache` merged from it, every
        row it holds is in the memo already, so it is not parsed again.
        """
        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        disk = GWEngine()
        with suppress(FileNotFoundError), open(path, "rb") as fh:
            if fh.read() != self._loaded.get(path):
                disk.load_cache(path)
        rows = sorted({**disk._memo, **self._memo}.items(), key=lambda row: (len(row[0][1]), row[0]))  # k, d, m
        fd, tmp = tempfile.mkstemp(prefix=".dpcount-cache-", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for (d, m), value in rows:
                    fh.write(f"{CACHE_VERSION}\t{len(m)}\t{d};{','.join(map(str, m))}\t{value}\n")
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
