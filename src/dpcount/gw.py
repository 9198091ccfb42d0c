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
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product

from .lattice import (
    DivisorClass,
    SurfaceModel,
    arithmetic_genus,
    canonical_form,
    delta,
    format_class_literal,
    intersect,
    is_exceptional,
    minus_one_class_set,
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


def _viable_multiplicities(m: tuple[int, ...], d1: int, d2: int) -> list[tuple[int, ...]]:
    """The m1 with halves (d1; m1) and (d2; m - m1) both of delta >= 0 and genus >= 0.

    Needs d1, d2 >= 1.  Candidates are the box max(0, m_i - d2) <= m1_i <=
    min(d1, m_i), so both halves have 0 <= multiplicity <= degree; they are
    returned in lexicographic order.  With S1 = sum m1_i, Q1 = sum m1_i(m1_i - 1)
    and Q2 the same sum over m - m1, the conditions read
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
    found: list[tuple[int, ...]] = []
    m1 = [0] * k

    def walk(i: int, s1: int, q1: int, q2: int) -> None:
        if i == k:
            found.append(tuple(m1))
            return
        j = i + 1
        for a in ranges[i]:
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
    key carries the same value.
    """

    def __init__(self):
        self._memo: dict[DivisorClass, int] = {}
        self._splittings: dict[DivisorClass, tuple[tuple[DivisorClass, DivisorClass], ...]] = {}

    # ------------------------------------------------------------------ seeds

    def seed_value(self, beta: DivisorClass) -> int | None:
        """Base data: (-1)-classes, L, L - E_i, and -K on the k = 8 surface."""
        k = beta.k
        if beta.d == 1:
            counts = sorted(beta.m)
            if counts == [0] * k:  # L
                return 1
            if counts == [0] * (k - 1) + [1]:  # L - E_i
                return 1
        if beta in minus_one_class_set(k):
            return 1
        if k == 8 and beta == SurfaceModel(8).anticanonical():
            # the pencil of cubics through 8 general points has 12 rational members
            return 12
        return None

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

    def splittings(self, beta: DivisorClass) -> tuple[tuple[DivisorClass, DivisorClass], ...]:
        """All ordered pairs beta1 + beta2 = beta with both halves viable.

        Halves of degree 0 < d1 < d come from `_viable_multiplicities`, which
        drops only candidates with delta < 0 or genus < 0 on one side.  Those
        are necessary conditions of `quick_vanishing` being false, and
        `quick_vanishing` still decides every survivor, so the result is the
        same as filtering the whole multiplicity box.
        """
        cached = self._splittings.get(beta)
        if cached is not None:
            return cached
        k, d = beta.k, beta.d
        surface = SurfaceModel(k)
        halves: list[DivisorClass] = []
        halves.extend(surface.exceptional(i) for i in range(k))
        for d1 in range(1, d):
            halves.extend(
                DivisorClass(d1, m1) for m1 in _viable_multiplicities(beta.m, d1, d - d1)
            )
        halves.extend(beta - surface.exceptional(i) for i in range(k))
        pairs = []
        for b1 in halves:
            b2 = beta - b1
            if b1.is_zero() or b2.is_zero():
                continue
            if self.quick_vanishing(b1) or self.quick_vanishing(b2):
                continue
            pairs.append((b1, b2))
        pairs.sort(key=lambda p: (p[0].d, p[0].m))
        result = tuple(pairs)
        self._splittings[beta] = result
        return result

    def _splitting_data(self, beta: DivisorClass):
        """Per-pair (beta1, beta2, N1*N2*(beta1.beta2), delta(beta1)) with zeros dropped."""
        data = []
        for b1, b2 in self.splittings(beta):
            n1 = self.n_beta(b1)
            if n1 == 0:
                continue
            n2 = self.n_beta(b2)
            if n2 == 0:
                continue
            data.append((b1, b2, n1 * n2 * intersect(b1, b2), delta(b1)))
        return data

    # ------------------------------------------------------------- relations

    def relation_r1(self, beta: DivisorClass, a: DivisorClass, b: DivisorClass) -> WDVVRelation:
        """Insertion pattern (pt, pt, A, B); needs delta(beta) >= 3."""
        db = delta(beta)
        if db < 3:
            raise ValueError(f"relation R1 needs delta >= 3, got {db} for {beta}")
        rhs = 0
        a_beta = intersect(a, beta)
        for b1, b2, w, d1 in self._splitting_data(beta):
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
                # lhs coefficient is (-K).(-K) = 9 - k >= 1, never degenerate
                value = self.relation_r1(key, mk, mk).solve()
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
