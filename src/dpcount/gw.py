"""Genus-0 rational curve counts N on blown-up planes.

The counts are produced by three associativity relations of the quantum
product (with the divisor axiom folded in), seeded with the geometrically
obvious base values and memoized per Weyl-orbit (Cremona-reduced) class,
which is also what the persistent cache stores.  All values are plain
Python integers, so precision is unbounded.
"""

from __future__ import annotations

import math
import operator
import os
import tempfile
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, product
from types import MappingProxyType

from .lattice import (
    DivisorClass,
    SurfaceModel,
    arithmetic_genus,
    delta,
    format_class_literal,
    intersect,
    is_exceptional,
    minus_one_classes,
    parse_class_literal,
    reduced_form,
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

    @property
    def implied_value(self) -> Fraction | None:
        """rhs / lhs_coeff, or None when lhs_coeff = 0 and the relation says nothing about N."""
        return Fraction(self.rhs, self.lhs_coeff) if self.lhs_coeff else None


@dataclass
class ConsistencyReport:
    beta: DivisorClass
    value: int
    relations: list[WDVVRelation] = field(default_factory=list)
    note: str = ""

    @property
    def consistent(self) -> bool:
        """lhs * value = rhs for every listed relation, lhs = 0 included; on the basis tuples of
        `GWEngine.consistency_check` every nondegenerate relation then implies `value`."""
        return not self.disagreements()

    def disagreements(self) -> list[WDVVRelation]:
        return [r for r in self.relations if r.lhs_coeff * self.value != r.rhs]


@lru_cache(maxsize=None)
def divisor_pool(k: int) -> tuple[DivisorClass, ...]:
    """Deterministic pool of probe divisors; the solver no longer uses it (`_solve_low_delta`)."""
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


def _viable_multiplicities(m: tuple[int, ...], d1: int, d2: int) -> list[tuple[tuple[int, ...], int]]:
    """(m1, len(_orbit(m, m1))) per m1 with halves (d1; m1), (d2; m - m1) of delta >= 0, genus >= 0.

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
    rank = [m[: i + 1].count(mi) for i, mi in enumerate(m)]  # positions up to i holding m_i
    found: list[tuple[tuple[int, ...], int]] = []
    m1, run = [0] * k, [0] * k  # run[i]: positions up to i that hold m_i and m1[i]

    def walk(i: int, s1: int, q1: int, q2: int, size: int) -> None:
        if i == k:
            found.append((tuple(m1), size))
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

    walk(0, 0, 0, 0, 1)
    return found


# relation -> (number of insertions, lowest delta(beta) at which it holds)
RELATIONS = {"R1": (2, 3), "R2": (3, 2), "R3": (4, 1)}


class RelationEvaluator:
    """Both sides of R1, R2 and R3, lhs * N_beta = rhs, for one class beta.

    An insertion is an index into `divisors`.  Both sides are computed from
    intersection numbers alone: x.y and x.beta for the lhs, x.beta1 and
    x.beta2 = x.beta - x.beta1 per splitting for the rhs.  `data` holds a
    row (beta1, beta2, w, delta(beta1)) per splitting, from
    `GWEngine._weighted_data`.  Both sides are multilinear in the insertions.
    """

    def __init__(self, beta: DivisorClass, divisors, data=()):
        self.divisors = divisors = tuple(divisors)
        self.data = data
        self.delta = delta(beta)
        self.pair = cache(lambda i, j: intersect(divisors[i], divisors[j]))  # on first use
        self.on_beta = [intersect(x, beta) for x in divisors]
        # per distinct divisor, so R1(-K, -K) intersects each beta1 with -K once
        first = {x: [intersect(x, row[0]) for row in data] for x in dict.fromkeys(divisors)}
        self.halves = [
            (first[x], [xb - x1 for x1 in first[x]]) for x, xb in zip(divisors, self.on_beta)
        ]
        self._weights: dict[str, tuple[list[int], ...]] = {}

    def weights(self, name: str) -> tuple[list[int], ...]:
        """Per-splitting rhs coefficients of `name`: w C(D-3, d1-1) and w C(D-3, d1-2) for R1,
        w C(D-2, d1) for R2, w C(D-1, d1) for R3, with D = delta(beta), d1 = delta(beta1)."""
        found = self._weights.get(name)
        if found is None:
            n = self.delta - RELATIONS[name][1]
            shifts = (1, 2) if name == "R1" else (0,)
            found = self._weights[name] = tuple(
                [w * comb0(n, d1 - shift) for _, _, w, d1 in self.data] for shift in shifts
            )
        return found

    def lhs(self, name: str, ins: tuple[int, ...]) -> int:
        pair, xb = self.pair, self.on_beta
        if name == "R1":  # insertions (pt, pt, A, B)
            return pair(*ins)
        if name == "R2":  # insertions (A, B, C, pt)
            a, b, c = ins
            return pair(a, b) * xb[c] - pair(a, c) * xb[b]
        a, b, c, d = ins  # insertions (A, B, C, D)
        return (
            pair(a, b) * xb[c] * xb[d]
            + pair(c, d) * xb[a] * xb[b]
            - pair(a, c) * xb[b] * xb[d]
            - pair(b, d) * xb[a] * xb[c]
        )

    def rhs(self, name: str, ins: tuple[int, ...]) -> int:
        halves, cw = self.halves, self.weights(name)
        if name == "R1":
            (a1, a2), (_, b2) = halves[ins[0]], halves[ins[1]]
            return sum(y2 * (h * x1 - l * x2) for h, l, x1, x2, y2 in zip(*cw, a1, a2, b2))
        if name == "R2":
            (a1, _), (b1, b2), (c1, c2) = (halves[i] for i in ins)
            return sum(
                w * x1 * (z1 * y2 - y1 * z2)
                for w, x1, y1, y2, z1, z2 in zip(*cw, a1, b1, b2, c1, c2)
            )
        (a1, _), (b1, b2), (c1, c2), (_, d2) = (halves[i] for i in ins)
        return sum(
            w * x1 * u2 * (z1 * y2 - y1 * z2)
            for w, x1, y1, y2, z1, z2, u2 in zip(*cw, a1, b1, b2, c1, c2, d2)
        )

    def relation(self, name: str, ins: tuple[int, ...]) -> WDVVRelation:
        divisors = tuple(self.divisors[i] for i in ins)
        return WDVVRelation(name, divisors, self.lhs(name, ins), self.rhs(name, ins))


class GWEngine:
    """Memoized evaluator of the counts N over every k <= 8 surface at once.

    N is memoized per Weyl-orbit (Cremona-reduced) class, `reduced_form`:
    N is invariant under W(E_k), so every class of an orbit shares one memo
    entry and one set of splitting orbits, and the persistent cache stores
    reduced classes only.  The memo is an insert-only map; duplicate
    concurrent computation is harmless because every insert for a key
    carries the same value.  So are the splitting orbits and the cusp
    boundary sums that `cusp.c_beta` keeps, per canonical class, in
    `cusp_boundary`.
    """

    def __init__(self):
        self._memo: dict[DivisorClass, int] = {}
        self._orbits: dict[DivisorClass, tuple[tuple[DivisorClass, DivisorClass, int], ...]] = {}
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
        number of ordered pairs in it.  Halves of degree 0 < d1 < d come,
        with their orbit sizes, from `_viable_multiplicities`: they have
        0 <= m_i <= degree, delta >= 0 and genus >= 0, and no `quick_vanishing`
        test is left, as delta = 0 means -K.h = 1 and odd h^2 = 2g - 1 >= -1,
        so by Hodge index h is a (-1)-class or, at k = 8, -K: a seed.  The E_i
        and beta - E_i halves get all of the permutation invariant
        `quick_vanishing`.
        """
        cached = self._orbits.get(beta)
        if cached is not None:
            return cached
        k, d, m = beta.k, beta.d, beta.m
        surface = SurfaceModel(k)
        firsts = [i for i in range(k) if m[i] not in m[:i]]
        orbits = []

        def keep(i: int, b1: DivisorClass) -> None:
            b2 = beta - b1  # quick_vanishing holds for the zero class
            if self.quick_vanishing(b1) or self.quick_vanishing(b2):
                return
            orbits.append((b1, b2, m.count(m[i])))

        for i in firsts:
            keep(i, surface.exceptional(i))
        for d1 in range(1, d):
            for m1, size in _viable_multiplicities(m, d1, d - d1):
                b2 = DivisorClass(d - d1, tuple(map(operator.sub, m, m1)))
                orbits.append((DivisorClass(d1, m1), b2, size))
        for i in firsts:
            keep(i, beta - surface.exceptional(i))
        result = tuple(orbits)
        self._orbits[beta] = result
        return result

    def splittings(self, beta: DivisorClass) -> tuple[tuple[DivisorClass, DivisorClass], ...]:
        """All ordered pairs beta1 + beta2 = beta with both halves viable, sorted by beta1.

        The orbits of `splitting_orbits`, expanded, for relations whose probe
        divisors are not stabiliser invariant, as in `consistency_check`.
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

    def _relation(self, name: str, beta: DivisorClass, divisors) -> WDVVRelation:
        """Relation `name` over the whole splitting list of beta; the formulas are in `RelationEvaluator`."""
        low = RELATIONS[name][1]
        db = delta(beta)
        if db < low:
            raise ValueError(f"relation {name} needs delta >= {low}, got {db} for {beta}")
        evaluator = RelationEvaluator(beta, divisors, self._splitting_data(beta))
        return evaluator.relation(name, tuple(range(len(divisors))))

    def relation_r1(self, beta: DivisorClass, a: DivisorClass, b: DivisorClass) -> WDVVRelation:
        """Insertion pattern (pt, pt, A, B); needs delta(beta) >= 3."""
        return self._relation("R1", beta, (a, b))

    def _relation_r1(self, beta, a, b, data) -> WDVVRelation:
        """R1 summed over `data`: the whole splitting list, or orbits when a, b are stabiliser invariant."""
        return RelationEvaluator(beta, (a, b), data).relation("R1", (0, 1))

    def relation_r2(self, beta, a, b, c) -> WDVVRelation:
        """Insertion pattern (A, B, C, pt); needs delta(beta) >= 2."""
        return self._relation("R2", beta, (a, b, c))

    def relation_r3(self, beta, a, b, c, d) -> WDVVRelation:
        """Insertion pattern (A, B, C, D); needs delta(beta) >= 1."""
        return self._relation("R3", beta, (a, b, c, d))

    # ------------------------------------------------------------ the counts

    def n_beta(self, beta: DivisorClass) -> int:
        """N(beta), computed and memoized once per Weyl orbit, at the key `reduced_form(beta)`."""
        key = reduced_form(beta)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        seed = self.seed_value(key)
        if seed is not None:
            value = seed
        elif self.quick_vanishing(key):
            value = 0
        else:
            if delta(key) >= 3:
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
        """N of a reduced key of delta 1 or 2, by R2 or R3 over its splitting orbits.

        Domain: reduced keys (`reduced_form`), neither seeds nor `quick_vanishing`;
        d >= m_1 + m_2 + m_3 >= 3 m_4 and k <= 8 give 3d - 3 <= sum(m) <= 8d/3,
        so d <= 9.  The probes L and one sum of E_i per value of m span the
        divisors that beta's stabiliser fixes.  On those the orbit-weighted sum
        is the full splitting sum, and both sides are multilinear, so if any
        fixed tuple is nondegenerate, a basis tuple is.  Unreduced classes may
        have none: every fixed R3 tuple on 2;1,1,1,1 is degenerate.
        """
        m = beta.m
        basis = [SurfaceModel(beta.k).line()]
        basis.extend(DivisorClass(0, tuple(-1 if a == v else 0 for a in m)) for v in dict.fromkeys(m))
        evaluator = RelationEvaluator(beta, basis, self._weighted_data(self.splitting_orbits(beta)))
        for name in ("R2", "R3"):
            arity, low = RELATIONS[name]
            if evaluator.delta < low:
                continue
            for ins in product(range(len(basis)), repeat=arity):
                if evaluator.lhs(name, ins) != 0:
                    return evaluator.relation(name, ins).solve()
        raise UnderdeterminedError(
            f"no nondegenerate relation on the stabiliser-invariant basis for {beta} "
            f"(k={beta.k}, delta={evaluator.delta}); the solve needs a reduced key"
        )

    # ------------------------------------------------------------ diagnostics

    def consistency_check(self, beta: DivisorClass, pool_size: int | None = None) -> ConsistencyReport:
        """Check lhs * N_beta = rhs, lhs = 0 included, for each relation beta's delta admits.

        The insertions run over every tuple of the basis L, E_1, ..., E_k, or of
        its first `pool_size` members (1..k+1).  Both sides are multilinear in
        the insertions and every class is an integer combination of the basis,
        so when all of these hold, every nondegenerate relation on any divisors,
        `divisor_pool`'s among them, implies the engine value.  The report lists
        the tuples that do not read 0 = 0."""
        surface = SurfaceModel(beta.k)
        basis = (surface.line(), *(surface.exceptional(i) for i in range(beta.k)))
        if pool_size is not None and not 1 <= pool_size <= len(basis):
            raise ValueError(f"pool_size {pool_size} is outside 1..{len(basis)}, the basis L, E_1..E_k")
        value = self.n_beta(beta)
        evaluator = RelationEvaluator(beta, basis[:pool_size], self._splitting_data(beta))
        report = ConsistencyReport(beta=beta, value=value)
        for name, (arity, low) in RELATIONS.items():
            if evaluator.delta < low:
                continue
            for ins in product(range(len(evaluator.divisors)), repeat=arity):
                relation = evaluator.relation(name, ins)
                if relation.lhs_coeff or relation.rhs:
                    report.relations.append(relation)
        if not any(r.lhs_coeff for r in report.relations):
            seed = self.seed_value(beta)
            origin = f"seed = {seed}" if seed is not None else f"filters = {value}"
            report.note = f"no applicable nondegenerate relation; value from {origin}"
        return report

    # --------------------------------------------------------------- caching

    def load_cache(self, path: str | os.PathLike) -> list[str]:
        """Merge a cache file into the memo; returns reports for skipped lines.

        Each row must hold a canonical (non-increasing) class and is filed
        under its reduced key: N is Weyl-invariant, so rows that older
        versions wrote for unreduced classes stay valid.
        """
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
                if any(a < b for a, b in zip(beta.m, beta.m[1:])):
                    raise ValueError("m entries not in canonical (non-increasing) order")
                value = int(parts[3])
                if value < 0:
                    raise ValueError(f"negative count {value}")
            except ValueError as exc:
                problems.append(f"{path}:{lineno}: skipped corrupted cache line ({exc})")
                continue
            self._memo[reduced_form(beta)] = value
        return problems

    def save_cache(self, path: str | os.PathLike) -> None:
        """Atomic write of the memo, one row per reduced class: temp file in the target directory, then rename."""
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
