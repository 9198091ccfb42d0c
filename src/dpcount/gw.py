"""Genus-0 rational curve counts N on blown-up planes.

The counts are produced by three associativity relations of the quantum
product (with the divisor axiom folded in), seeded with the geometrically
obvious base values and memoized over canonically sorted classes.  All
values are plain Python integers, so precision is unbounded.
"""

from __future__ import annotations

import math
import os
import tempfile
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from types import MappingProxyType

from .lattice import (
    DivisorClass,
    SurfaceModel,
    arithmetic_genus,
    canonical_form,
    delta,
    format_class_literal,
    intersect,
    is_exceptional,
    minus_one_classes,
    parse_class_literal,
)

CACHE_ENV_VAR = "DPCOUNT_CACHE"
CACHE_VERSION = "v1"


class UnderdeterminedError(RuntimeError):
    """Every relation in the divisor pool degenerated for a class."""


class InconsistentRelationError(RuntimeError):
    """A relation produced a non-exact division or relations disagree."""


def comb0(n: int, r: int) -> int:
    """Binomial coefficient that vanishes outside 0 <= r <= n."""
    return math.comb(n, r) if 0 <= r <= n else 0


@dataclass(frozen=True)
class WDVVRelation:
    """One linear constraint: lhs_coeff * N_beta = rhs."""

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


@dataclass
class RelationReport:
    name: str
    divisors: tuple[DivisorClass, ...]
    lhs_coeff: int
    implied_value: int


@dataclass
class ConsistencyReport:
    beta: DivisorClass
    value: int
    relations: list[RelationReport] = field(default_factory=list)
    note: str = ""

    @property
    def consistent(self) -> bool:
        return all(r.implied_value == self.value for r in self.relations)

    def disagreements(self) -> list[RelationReport]:
        return [r for r in self.relations if r.implied_value != self.value]


@lru_cache(maxsize=None)
def divisor_pool(k: int) -> tuple[DivisorClass, ...]:
    """Deterministic pool of probe divisors for the low-delta relations."""
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


def _orbit_size(m: tuple[int, ...], m1: tuple[int, ...]) -> int:
    """len(_orbit(m, m1)), as a product of multinomials, one per value of m."""
    size = 1
    for n in Counter(m).values():
        size *= math.factorial(n)
    for n in Counter(zip(m, m1)).values():
        size //= math.factorial(n)
    return size


def _orbit(m: tuple[int, ...], m1: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every distinct tuple that arises from m1 by permuting positions that hold equal m_i."""
    pools: dict[int, list[int]] = {}
    for mi, a in zip(m, m1):
        pools.setdefault(mi, []).append(a)
    found: list[tuple[int, ...]] = []
    row = [0] * len(m)

    def fill(i: int) -> None:
        if i == len(m):
            found.append(tuple(row))
            return
        pool = pools[m[i]]
        for a in sorted(set(pool)):
            pool.remove(a)
            row[i] = a
            fill(i + 1)
            pool.append(a)

    fill(0)
    return found


def _viable_multiplicities(m: tuple[int, ...], d1: int, d2: int) -> list[tuple[int, ...]]:
    """The m1 with halves (d1; m1) and (d2; m - m1) both of delta >= 0 and genus >= 0.

    One m1 per orbit of the permutations that fix m: the one whose entries
    do not increase over the positions that hold equal m_i.  Needs d1, d2 >= 1.
    Candidates are the box max(0, m_i - d2) <= m1_i <= min(d1, m_i), so both
    halves have 0 <= multiplicity <= degree; they are returned in
    lexicographic order.  With S1 = sum m1_i, Q1 = sum m1_i(m1_i - 1) and Q2
    the same sum over m - m1, the conditions read
    S - 3*d2 + 1 <= S1 <= 3*d1 - 1, Q1 <= (d1-1)(d1-2) and Q2 <= (d2-1)(d2-2).
    A depth-first walk over the coordinates cuts a branch as soon as the
    extremes of these sums over the remaining coordinates rule it out.
    """
    k = len(m)
    ranges = [range(max(0, mi - d2), min(d1, mi) + 1) for mi in m]
    if not all(ranges):
        return []
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
    # the last earlier position holding the same m_i, whose m1 caps this one
    last: dict[int, int] = {}
    previous = []
    for i, mi in enumerate(m):
        previous.append(last.get(mi))
        last[mi] = i
    found: list[tuple[int, ...]] = []
    m1 = [0] * k

    def walk(i: int, s1: int, q1: int, q2: int) -> None:
        if i == k:
            found.append(tuple(m1))
            return
        j = i + 1
        r = ranges[i]
        if previous[i] is not None:
            r = range(r.start, min(r.stop, m1[previous[i]] + 1))
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
            walk(j, s, p1, p2)

    walk(0, 0, 0, 0)
    return found


class GWEngine:
    """Memoized evaluator of the counts N over every k <= 8 surface at once.

    The memo is an insert-only map keyed by canonically sorted classes;
    duplicate concurrent computation is harmless because every insert for a
    key carries the same value.  So are the splitting orbits and the cusp
    boundary sums that `cusp.c_beta` keeps in `cusp_boundary`.
    """

    def __init__(self):
        self._memo: dict[DivisorClass, int] = {}
        self._orbits: dict[DivisorClass, tuple[tuple[DivisorClass, DivisorClass, int], ...]] = {}
        self.cusp_boundary: dict[DivisorClass, Fraction] = {}

    # ------------------------------------------------------------------ seeds

    def seed_value(self, beta: DivisorClass) -> int | None:
        """Base data from `seed_classes`: (-1)-classes, L, L - E_i, and -K on the k = 8 surface."""
        return seed_classes(beta.k).get(beta)

    # --------------------------------------------------------------- filters

    def quick_vanishing(self, beta: DivisorClass) -> bool:
        """True when N is certainly zero for geometric reasons."""
        if beta.d < 0:
            return True
        if beta.d == 0:
            return not is_exceptional(beta)
        if any(mi < 0 for mi in beta.m):
            return True
        if any(mi > beta.d for mi in beta.m):
            return True
        if delta(beta) < 0:
            return True
        if arithmetic_genus(beta) < 0:
            return True
        if delta(beta) == 0 and self.seed_value(beta) is None:
            return True
        return False

    # ------------------------------------------------------------ splittings

    def splitting_orbits(
        self, beta: DivisorClass
    ) -> tuple[tuple[DivisorClass, DivisorClass, int], ...]:
        """One (beta1, beta2, orbit size) per stabiliser orbit of `splittings(beta)`.

        The stabiliser of beta permutes positions that hold equal m_i (for a
        canonical beta, contiguous blocks) and acts on a pair by permuting
        both halves.  Each orbit is represented by the pair whose beta1 has
        non-increasing entries over every such block, and weighted by the
        number of ordered pairs in it.  Halves of degree 0 < d1 < d come from
        `_viable_multiplicities`, which drops only candidates with delta < 0
        or genus < 0 on one side; those are necessary conditions of
        `quick_vanishing` being false, and `quick_vanishing`, which is
        permutation invariant, still decides every representative.
        """
        cached = self._orbits.get(beta)
        if cached is not None:
            return cached
        k, d, m = beta.k, beta.d, beta.m
        surface = SurfaceModel(k)
        firsts = [i for i in range(k) if m[i] not in m[:i]]
        halves: list[DivisorClass] = []
        halves.extend(surface.exceptional(i) for i in firsts)
        for d1 in range(1, d):
            halves.extend(DivisorClass(d1, m1) for m1 in _viable_multiplicities(m, d1, d - d1))
        halves.extend(beta - surface.exceptional(i) for i in firsts)
        orbits = []
        for b1 in halves:
            b2 = beta - b1
            if b1.is_zero() or b2.is_zero():
                continue
            if self.quick_vanishing(b1) or self.quick_vanishing(b2):
                continue
            orbits.append((b1, b2, _orbit_size(m, b1.m)))
        result = tuple(orbits)
        self._orbits[beta] = result
        return result

    def splittings(self, beta: DivisorClass) -> tuple[tuple[DivisorClass, DivisorClass], ...]:
        """All ordered pairs beta1 + beta2 = beta with both halves viable, sorted by beta1.

        The orbits of `splitting_orbits`, expanded.  Low-delta relations,
        relations with arbitrary insertions and `consistency_check` need the
        whole list, because their probe divisors are not stabiliser invariant.
        """
        pairs = []
        for b1, _, _ in self.splitting_orbits(beta):
            for m1 in _orbit(beta.m, b1.m):
                half = DivisorClass(b1.d, m1)
                pairs.append((half, beta - half))
        pairs.sort(key=lambda p: (p[0].d, p[0].m))
        return tuple(pairs)

    def _weighted_data(self, weighted_pairs):
        """Per (beta1, beta2, count): (beta1, beta2, count*N1*N2*(beta1.beta2), delta(beta1)), zeros dropped."""
        data = []
        for b1, b2, count in weighted_pairs:
            n1 = self.n_beta(b1)
            if n1 == 0:
                continue
            n2 = self.n_beta(b2)
            if n2 == 0:
                continue
            data.append((b1, b2, count * n1 * n2 * intersect(b1, b2), delta(b1)))
        return data

    def _splitting_data(self, beta: DivisorClass):
        return self._weighted_data((b1, b2, 1) for b1, b2 in self.splittings(beta))

    # ------------------------------------------------------------- relations

    def relation_r1(self, beta: DivisorClass, a: DivisorClass, b: DivisorClass) -> WDVVRelation:
        """Insertion pattern (pt, pt, A, B); needs delta(beta) >= 3."""
        db = delta(beta)
        if db < 3:
            raise ValueError(f"relation R1 needs delta >= 3, got {db} for {beta}")
        return self._relation_r1(beta, a, b, self._splitting_data(beta))

    def _relation_r1(self, beta, a, b, data) -> WDVVRelation:
        """R1 summed over `data`: the whole splitting list, or orbits when a, b are stabiliser invariant."""
        db = delta(beta)
        rhs = 0
        a_beta = intersect(a, beta)
        for b1, b2, w, d1 in data:
            a1 = intersect(a, b1)  # and a.b2 = a.beta - a1
            bracket = intersect(b, b2) * (
                a1 * comb0(db - 3, d1 - 1) - (a_beta - a1) * comb0(db - 3, d1 - 2)
            )
            rhs += w * bracket
        return WDVVRelation("R1", (a, b), intersect(a, b), rhs)

    def r2_coefficient(self, beta, a, b, c) -> int:
        return intersect(a, b) * intersect(c, beta) - intersect(a, c) * intersect(b, beta)

    def relation_r2(self, beta, a, b, c) -> WDVVRelation:
        """Insertion pattern (A, B, C, pt); needs delta(beta) >= 2."""
        db = delta(beta)
        if db < 2:
            raise ValueError(f"relation R2 needs delta >= 2, got {db} for {beta}")
        rhs = 0
        for b1, b2, w, d1 in self._splitting_data(beta):
            bracket = intersect(a, b1) * (
                intersect(c, b1) * intersect(b, b2) - intersect(b, b1) * intersect(c, b2)
            )
            rhs += comb0(db - 2, d1) * w * bracket
        return WDVVRelation("R2", (a, b, c), self.r2_coefficient(beta, a, b, c), rhs)

    def r3_coefficient(self, beta, a, b, c, d) -> int:
        return (
            intersect(a, b) * intersect(c, beta) * intersect(d, beta)
            + intersect(c, d) * intersect(a, beta) * intersect(b, beta)
            - intersect(a, c) * intersect(b, beta) * intersect(d, beta)
            - intersect(b, d) * intersect(a, beta) * intersect(c, beta)
        )

    def relation_r3(self, beta, a, b, c, d) -> WDVVRelation:
        """Insertion pattern (A, B, C, D); needs delta(beta) >= 1."""
        db = delta(beta)
        if db < 1:
            raise ValueError(f"relation R3 needs delta >= 1, got {db} for {beta}")
        rhs = 0
        for b1, b2, w, d1 in self._splitting_data(beta):
            bracket = (
                intersect(a, b1) * intersect(c, b1) * intersect(b, b2) * intersect(d, b2)
                - intersect(a, b1) * intersect(b, b1) * intersect(c, b2) * intersect(d, b2)
            )
            rhs += comb0(db - 1, d1) * w * bracket
        return WDVVRelation("R3", (a, b, c, d), self.r3_coefficient(beta, a, b, c, d), rhs)

    # ------------------------------------------------------------ the counts

    def n_beta(self, beta: DivisorClass) -> int:
        key = canonical_form(beta)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        seed = self.seed_value(key)
        if seed is not None:
            value = seed
        elif self.quick_vanishing(key):
            value = 0
        else:
            db = delta(key)
            if db >= 3:
                mk = SurfaceModel(key.k).anticanonical()
                # -K is fixed by every permutation of the m_i, so the sum runs
                # over stabiliser orbits; the lhs coefficient is
                # (-K).(-K) = 9 - k >= 1, never degenerate
                data = self._weighted_data(self.splitting_orbits(key))
                value = self._relation_r1(key, mk, mk, data).solve()
            else:
                value = self._solve_low_delta(key)
        if value < 0:
            raise InconsistentRelationError(f"negative count {value} for {key}")
        self._memo[key] = value
        return value

    def _solve_low_delta(self, beta: DivisorClass) -> int:
        db = delta(beta)
        pool = divisor_pool(beta.k)
        if db >= 2:
            for a, b, c in product(pool, repeat=3):
                if self.r2_coefficient(beta, a, b, c) != 0:
                    return self.relation_r2(beta, a, b, c).solve()
        for a, b, c, d in product(pool, repeat=4):
            if self.r3_coefficient(beta, a, b, c, d) != 0:
                return self.relation_r3(beta, a, b, c, d).solve()
        raise UnderdeterminedError(
            f"no nondegenerate relation in the pool for {beta} "
            f"(k={beta.k}, delta={db}); extend the seed table"
        )

    # ------------------------------------------------------------ diagnostics

    def consistency_check(self, beta: DivisorClass, pool_size: int | None = None) -> ConsistencyReport:
        """Evaluate every nondegenerate pool relation and compare the implied values."""
        value = self.n_beta(beta)
        pool = divisor_pool(beta.k)
        if pool_size is not None:
            pool = pool[:pool_size]
        db = delta(beta)
        data = self._splitting_data(beta)
        report = ConsistencyReport(beta=beta, value=value)

        # intersections of each pool divisor with each splitting half, by index
        n = len(pool)
        s = len(data)
        p1 = [[intersect(p, row[0]) for row in data] for p in pool]
        p2 = [[intersect(p, row[1]) for row in data] for p in pool]
        pb = [intersect(p, beta) for p in pool]
        pp = [[intersect(pool[i], pool[j]) for j in range(n)] for i in range(n)]
        w = [row[2] for row in data]
        d1s = [row[3] for row in data]

        def add(name, divisors, lhs, rhs):
            rel = WDVVRelation(name, divisors, lhs, rhs)
            report.relations.append(RelationReport(name, divisors, lhs, rel.solve()))

        if db >= 3:
            c_hi = [comb0(db - 3, d1 - 1) for d1 in d1s]
            c_lo = [comb0(db - 3, d1 - 2) for d1 in d1s]
            for ia, ib in product(range(n), repeat=2):
                if pp[ia][ib] == 0:
                    continue
                rhs = sum(
                    w[t] * p2[ib][t] * (p1[ia][t] * c_hi[t] - p2[ia][t] * c_lo[t])
                    for t in range(s)
                )
                add("R1", (pool[ia], pool[ib]), pp[ia][ib], rhs)
        if db >= 2:
            cw = [comb0(db - 2, d1s[t]) * w[t] for t in range(s)]
            for ia, ib, ic in product(range(n), repeat=3):
                lhs = pp[ia][ib] * pb[ic] - pp[ia][ic] * pb[ib]
                if lhs == 0:
                    continue
                rhs = sum(
                    cw[t]
                    * p1[ia][t]
                    * (p1[ic][t] * p2[ib][t] - p1[ib][t] * p2[ic][t])
                    for t in range(s)
                )
                add("R2", (pool[ia], pool[ib], pool[ic]), lhs, rhs)
        if db >= 1:
            cw = [comb0(db - 1, d1s[t]) * w[t] for t in range(s)]
            # cache products of two half-intersections per index pair
            prod1 = {}
            prod2 = {}
            for i, j in product(range(n), repeat=2):
                prod1[i, j] = [p1[i][t] * p1[j][t] for t in range(s)]
                prod2[i, j] = [p2[i][t] * p2[j][t] for t in range(s)]
            for ia, ib, ic, idx in product(range(n), repeat=4):
                lhs = (
                    pp[ia][ib] * pb[ic] * pb[idx]
                    + pp[ic][idx] * pb[ia] * pb[ib]
                    - pp[ia][ic] * pb[ib] * pb[idx]
                    - pp[ib][idx] * pb[ia] * pb[ic]
                )
                if lhs == 0:
                    continue
                left = prod1[ia, ic]
                right = prod2[ib, idx]
                left2 = prod1[ia, ib]
                right2 = prod2[ic, idx]
                rhs = sum(
                    cw[t] * (left[t] * right[t] - left2[t] * right2[t]) for t in range(s)
                )
                add("R3", (pool[ia], pool[ib], pool[ic], pool[idx]), lhs, rhs)

        if not report.relations:
            seed = self.seed_value(canonical_form(beta))
            origin = f"seed = {seed}" if seed is not None else f"filters = {value}"
            report.note = f"no applicable nondegenerate relation; value from {origin}"
        return report

    # --------------------------------------------------------------- caching

    def load_cache(self, path: str | os.PathLike) -> list[str]:
        """Merge a cache file into the memo; returns reports for skipped lines."""
        problems: list[str] = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return problems
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            try:
                if len(parts) != 4 or parts[0] != CACHE_VERSION:
                    raise ValueError("bad record shape or version")
                k = int(parts[1])
                beta = parse_class_literal(parts[2])
                if beta.k != k:
                    raise ValueError(f"k column {k} disagrees with literal {parts[2]}")
                if beta != canonical_form(beta):
                    raise ValueError("m entries not in canonical (non-increasing) order")
                value = int(parts[3])
                if value < 0:
                    raise ValueError(f"negative count {value}")
            except ValueError as exc:
                problems.append(f"{path}:{lineno}: skipped corrupted cache line ({exc})")
                continue
            self._memo[beta] = value
        return problems

    def save_cache(self, path: str | os.PathLike) -> None:
        """Atomic write: temp file in the target directory, then rename."""
        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        rows = sorted(self._memo.items(), key=lambda kv: (kv[0].k, kv[0].d, kv[0].m))
        fd, tmp = tempfile.mkstemp(prefix=".dpcount-cache-", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for beta, value in rows:
                    fh.write(f"{CACHE_VERSION}\t{beta.k}\t{format_class_literal(beta)}\t{value}\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
