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
from collections.abc import Mapping
from contextlib import suppress
from functools import lru_cache
from itertools import combinations, repeat
from operator import mul, sub
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from .lattice import (
    DivisorClass,
    SurfaceModel,
    _orbit,
    blown_down_key,
    delta,
    intersect,
    minus_one_classes,
    parse_class_key,
)

if TYPE_CHECKING:  # the annotation alone: `cusp` imports fractions on its first count
    from fractions import Fraction

CACHE_ENV_VAR = "DPCOUNT_CACHE"
CACHE_VERSION = "v1"


class InconsistentRelationError(RuntimeError):
    """A relation produced a non-exact division or relations disagree."""


def comb0(n: int, r: int) -> int:
    """Binomial coefficient that vanishes outside 0 <= r <= n."""
    return math.comb(n, r) if 0 <= r <= n else 0


# bounded: a cold N(400;) builds 798 tables, one or two per key, and reads none of them twice,
# while a consistency draw, a table sweep or a k = 8 solve reads at most 33 distinct ones
@lru_cache(maxsize=64)
def _binomials(n: int, shift: int) -> dict[int, int]:
    """{d1: C(n, d1 - shift)} where it is nonzero: comb0(n, d1 - shift) is its get(d1, 0)."""
    return dict(zip(range(shift, shift + n + 1), map(math.comb, repeat(n), range(n + 1))))


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


# L and -K on the k-point blow-up, by k: the insertions of every solve (`GWEngine._orbit_relation`)
_LINE_AND_ANTICANONICAL = tuple((DivisorClass(1, (0,) * k), DivisorClass(3, (1,) * k)) for k in range(9))


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


@lru_cache(maxsize=None)
def _seed_keys(k: int) -> dict[tuple, int]:
    """`seed_classes(k)` keyed by the ints (d, m)."""
    return {(beta.d, beta.m): value for beta, value in seed_classes(k).items()}


def _base_value(d: int, m: tuple[int, ...]) -> int | None:
    """N of the class (d, m) where no relation is needed: a seed's value, 0 where N certainly
    vanishes for geometric reasons, None otherwise.

    The one seed and vanishing rule, read by `GWEngine._solve`,
    `GWEngine._orbit_rows` and `GWEngine.quick_vanishing`, and so by every
    reader of orbit rows, the checks of `verify` among them;
    `GWEngine.seed_value` reads its seed table, `_seed_keys`.  N vanishes at
    d < 0, at d = 0 but for the E_i (seeds), and at d >= 1 when some m_i < 0
    or m_i > d, when delta = 3d - sum(m) - 1 < 0, when delta = 0 and the
    class is no seed, or when the genus is negative, that is,
    sum m_i(m_i - 1) > (d - 1)(d - 2).
    """
    seed = _seed_keys(len(m)).get((d, m))
    if seed is not None:
        return seed
    vanishes = d <= 0 or min(m, default=0) < 0 or max(m, default=0) > d or 3 * d - sum(m) <= 1
    return 0 if vanishes or sum(map(mul, m, m)) - sum(m) > (d - 1) * (d - 2) else None


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

    A plane class (k = 0) has one row per d1, listed directly; a class with
    some m_i < 0 or m_i > d has an empty box at every d1, and no rows.  Else
    each call builds sum(m) and, per position, the last earlier position
    with the same m_i and the rank of m_i there once; each d1 builds one
    tuple of bounds per position in one pass from the last position back:
    its box, and the bounds on S1 and Q1, Q2 so far that leave room for the
    extremes of the positions after it.  `_walk` then goes depth first over
    the positions and appends the rows at the last one.  It is a module
    function, not a closure that refers to itself, so a call leaves no
    reference cycle behind.
    """
    k = len(m)
    if not k:
        return [((d1, ()), (d - d1, ()), 1, d1 < d - d1) for d1 in range(1, d // 2 + 1)]
    rows: list[tuple] = []
    if min(m) < 0 or max(m) > d:
        return rows
    last: dict[int, int] = {}
    positions = []  # (i, m_i, the last earlier position holding m_i, positions up to i holding m_i)
    for i, mi in enumerate(m):
        positions.append((i, mi, last.get(mi), m[: i + 1].count(mi)))
        last[mi] = i
    positions.reverse()
    total = sum(m)
    m1, run, spec = [0] * k, [0] * k, [0] * (k + 1)
    for d1 in range(1, d // 2 + 1):
        d2 = d - d1
        spec[k] = (d1, d2, m, d1 < d2)
        s_lo, s_hi = total - 3 * d2 + 1, 3 * d1 - 1
        q1_max, q2_max = (d1 - 1) * (d1 - 2), (d2 - 1) * (d2 - 2)
        for i, mi, prev, rank in positions:
            lo = mi - d2 if mi > d2 else 0
            hi = mi if mi < d1 else d1
            spec[i] = (lo, hi, s_lo, s_hi, q1_max, q2_max, mi, prev, rank, i == k - 1)
            # x(x - 1) is increasing on x >= 0, so each minimum sits at an end of the box
            s_lo, s_hi = s_lo - hi, s_hi - lo
            q1_max -= lo * (lo - 1)
            q2_max -= (mi - hi) * (mi - hi - 1)
        _walk(spec, m1, run, rows, 0, 0, 0, 0, 1)
    return rows


def _walk(spec, m1, run, rows, i, s1, q1, q2, size) -> None:
    """Position i of `_viable_multiplicities`' walk, with S1, Q1 and Q2 of m1[:i] and the orbit size so far.

    run[i] counts the positions up to i that hold m_i and m1[i]; the orbit
    size is a product of multinomials n! / (c_1! c_2! ...), one per value of
    m, and position i multiplies its own by rank / run, exactly."""
    lo, hi, s_lo, s_hi, q1_max, q2_max, mi, prev, rank, last = spec[i]
    if prev is None:
        top, tie = hi, -1
    else:
        top = tie = m1[prev]  # at most hi, as the earlier position has the same box
    # comparisons, not min() and max(): this runs once per node of the walk
    if s_hi - s1 < top:
        top = s_hi - s1
    if s_lo - s1 > lo:
        lo = s_lo - s1
    for a in range(lo, top + 1):
        p1 = q1 + a * (a - 1)
        if p1 > q1_max:
            break
        b = mi - a
        p2 = q2 + b * (b - 1)
        if p2 > q2_max:
            continue
        m1[i] = a
        r = run[i] = run[prev] + 1 if a == tie else 1
        if last:
            d1, d2, m, swap = spec[-1]
            rows.append(((d1, tuple(m1)), (d2, tuple(map(sub, m, m1))), size * rank // r, swap))
        else:
            _walk(spec, m1, run, rows, i + 1, s1 + a, p1, p2, size * rank // r)


# relation -> (number of insertions, lowest delta(beta) at which it holds)
RELATIONS = {"R1": (2, 3), "R2": (3, 2), "R3": (4, 1)}


def r1_factors(n: int, rows) -> list[int]:
    """The R1 factor w (C(n, delta1 - 1) x1 - C(n, delta1 - 2) x2) of each row (w, delta1, x1, x2),
    n = delta(beta) - 3: the one place the R1 factor is written, read by `RelationEvaluator` and the R1 solve."""
    hi, lo = _binomials(n, 1).get, _binomials(n, 2).get
    return [w * (hi(delta1, 0) * x1 - lo(delta1, 0) * x2) for w, delta1, x1, x2 in rows]


class RelationEvaluator:
    """Both sides of R1, R2 and R3, lhs * N_beta = rhs, for one class beta.

    An insertion is an index into `divisors`.  Both sides are computed from
    intersection numbers alone: x.y and x.beta for the lhs, x1 = x.beta1 and
    x2 = x.beta2 = x.beta - x1 per splitting for the rhs.  A row of `rows` is
    a splitting or orbit seen only through its projection: (x1 for each
    divisor, w, delta(beta1)), with w = N1 N2 (beta1.beta2) times the orbit
    size; `verify.project` builds them from halves.  Both sides are linear in
    the rows, so rows may be split or reordered freely.  R3 needs the rows
    closed under swapping the halves, (x1, w, delta1) <-> (x2, w, D - 1 - delta1):
    `verify.splitting_rows` and the orbit weights are.  The solve reads this
    class at delta 1 and 2 on (L, -K); the checks in `verify` read it on any
    divisors.

    `__init__` builds x.y (`pair`, which the basis checks of `verify` pass
    once per k), x.beta and the columns of the rows once: w, delta(beta1) and,
    per divisor, x1 and x2.  The factor F_a of insertion a is
    w (C(D-3, d1-1) x1_a - C(D-3, d1-2) x2_a) for R1 (`r1_factors`),
    w C(D-2, d1) x1_a for R2 and w C(D-1, d1) x1_a for R3, D = delta(beta),
    d1 = delta(beta1); the binomials are looked up in `_binomials`.

    Each relation is read off one pair of tables (U, T), which `_tables`
    builds on its first tuple and keeps.  Written lhs | rhs,
    R1(a, b) = (a.b) | F_a . x2_b, so U[a][b] = a.b and T[a][b] = F_a . x2_b.
    R2 and R3 change sign when b and c are swapped, whatever the data, and
    each side is (b.beta) u[c] - (c.beta) u[b] for a row u that depends on
    neither b nor c, as
    Q_bc = x1_c x2_b - x1_b x2_c = (b.beta) x1_c - (c.beta) x1_b:
    R2(a, b, c) = (a.b)(c.beta) - (a.c)(b.beta) | F_a . Q_bc, whose rows
    are U[a][e] = -(a.e) and T[a][e] = F_a . x1_e; and
    R3(a, b, c, d) = (a.b)(c.beta)(d.beta) + (c.d)(a.beta)(b.beta)
    - (a.c)(b.beta)(d.beta) - (b.d)(a.beta)(c.beta) | F_a x2_d . Q_bc, whose
    row (a, d) is U[e] = (a.beta)(d.e) - (d.beta)(a.e) and
    T[e] = F_a x2_d . x1_e.

    Symmetry halves two tables.  R2's T[a][e] = sum w C(D-2, d1) x1_a x1_e
    is symmetric, so it is built for e >= a and mirrored.  R3(a, b, c, d)
    and R3(d, c, b, a) have the same lhs, term by term; their rhs are
    sum w C(D-1, d1) x1_a x2_d Q_bc and sum w C(D-1, d1) x1_d x2_a Q_cb,
    and the second turns into the first when each row is swapped for its
    mirror (x1 <-> x2 negates Q_bc, and C(D-1, d1) = C(D-1, d2) as
    d1 + d2 = D - 1), so they are equal on rows closed under the swap.
    R3 keeps its rows (a, d) with a <= d, in that order, and reads a tuple
    with a > d off its mirror.  So R1 costs n^2 dot products over the rows,
    R2 n(n+1)/2 and R3 n^2(n+1)/2, for n divisors.  `relations` sweeps a
    list of tuples in one loop, `relation` reads one tuple through it, and
    `holds` decides a relation on every tuple at once, row by row.
    """

    def __init__(self, beta: DivisorClass, divisors, rows=(), pair=None):
        self.divisors = divisors = tuple(divisors)
        self.delta = delta(beta)
        self.pair = pair or [[intersect(x, y) for y in divisors] for x in divisors]
        self.on_beta = [intersect(x, beta) for x in divisors]
        rows = tuple(rows)
        self.weights = [w for _, w, _ in rows]
        self.deltas = [d1 for _, _, d1 in rows]
        self.x1 = [[p[a] for p, _, _ in rows] for a in range(len(divisors))]
        self.x2 = [[x - y for y in x1] for x, x1 in zip(self.on_beta, self.x1)]
        self._built = {}  # relation name -> its tables (U, T)

    def _tables(self, name: str) -> tuple:
        """The tables (U, T) of relation `name`, built on first use and kept: see the class docstring."""
        tables = self._built.get(name)
        if tables is None:
            n, pair, xb, x1, x2 = range(len(self.divisors)), self.pair, self.on_beta, self.x1, self.x2
            if name == "R1":  # U[a][b] = a.b, T[a][b] = F_a . x2_b
                w, d1 = self.weights, self.deltas
                factors = [r1_factors(self.delta - 3, zip(w, d1, x1[a], x2[a])) for a in n]
                lefts, columns = pair, x2
            else:
                c = _binomials(self.delta - RELATIONS[name][1], 0).get
                wc = [w * c(d1, 0) for w, d1 in zip(self.weights, self.deltas)]
                factors, columns = [list(map(mul, wc, x1[a])) for a in n], x1
                if name == "R2":  # U[a][e] = -(a.e), T[a][e] = F_a . x1_e = T[e][a], built for e >= a
                    lefts = [[-x for x in pair[a]] for a in n]
                else:  # rows (a, d), a <= d: U[r][e] = (a.beta)(d.e) - (d.beta)(a.e), T[r][e] = F_a x2_d . x1_e
                    lefts = [[xb[a] * p - xb[d] * q for p, q in zip(pair[d], pair[a])] for a in n for d in n[a:]]
                    factors = [list(map(mul, f, y)) for a, f in enumerate(factors) for y in x2[a:]]
            rights = [[sum(map(mul, f, x)) for x in columns[a if name == "R2" else 0 :]] for a, f in enumerate(factors)]
            if name == "R2":
                rights = [[rights[e][a - e] for e in range(a)] + rights[a] for a in n]
            tables = self._built[name] = lefts, rights
        return tables

    def relations(self, name: str, tuples, every=False) -> list[WDVVRelation]:
        """Relation `name` on each insertion tuple of `tuples`, in order, but for the tuples that
        read 0 = 0 unless `every`."""
        found, xb, pick = [], self.on_beta, self.divisors.__getitem__
        (lefts, rights), n = self._tables(name), len(xb)
        for ins in tuples:
            if name == "R1":  # insertions (pt, pt, A, B)
                a, b = ins
                lhs = lefts[a][b]
                rhs = rights[a][b]
            else:
                if name == "R3":  # insertions (A, B, C, D)
                    a, b, c, d = ins
                    if a > d:  # read off its mirror R3(d, c, b, a)
                        a, b, c, d = d, c, b, a
                    r = a * (2 * n - a - 1) // 2 + d
                else:  # insertions (A, B, C, pt)
                    r, b, c = ins
                u = lefts[r]  # one assignment each: a tuple of four would be built and unpacked
                t = rights[r]
                xbb = xb[b]
                xc = xb[c]
                lhs = xbb * u[c] - xc * u[b]
                rhs = xbb * t[c] - xc * t[b]
            if every or lhs or rhs:
                found.append(WDVVRelation(name, tuple(map(pick, ins)), lhs, rhs))
        return found

    def relation(self, name: str, ins: tuple[int, ...]) -> WDVVRelation:
        return self.relations(name, (ins,), every=True)[0]

    def holds(self, name: str, value: int) -> bool:
        """True when lhs * value = rhs on every insertion tuple of relation `name`, lhs = 0 included,
        decided off its tables with no relation built.

        R1 holds when value * U = T entry by entry.  On a row (U[r], T[r]) of R2
        or R3, with D = value * U[r] - T[r], a tuple (b, c) reads
        value * lhs - rhs = (b.beta) D[c] - (c.beta) D[b], so all of them
        vanish when D is a multiple of the vector x.beta: D[c] (j.beta) =
        (c.beta) D[j] for every c, at a j with j.beta != 0 (none when every
        x.beta is 0, and then every tuple reads 0 = 0).  That is n checks per
        row, against n^2 tuples; R3's rows with a > d are those of their mirrors."""
        lefts, rights = self._tables(name)
        if name == "R1":
            return all([value * x for x in u] == t for u, t in zip(lefts, rights))
        xb = self.on_beta
        j = next((j for j, x in enumerate(xb) if x), 0)
        xj = xb[j]
        for u, t in zip(lefts, rights):
            d = [value * x - y for x, y in zip(u, t)]
            dj = d[j]
            if [x * xj for x in d] != [c * dj for c in xb]:
                return False
        return True


def _verify():
    """The `verify` module, imported on the first call: it imports this module, and the solve needs none of it."""
    from . import verify

    return verify


class GWEngine:
    """Memoized evaluator of the counts N over every k <= 8 surface at once.

    N is memoized at the ints (d, m) of `blown_down_form`: the Weyl-orbit
    (Cremona-reduced) class, with the multiplicities 0 and 1 dropped at delta >= 1.
    N is invariant under W(E_k) and under blowing down a point of
    multiplicity 0 or 1, so every class that shares a key shares one memo
    entry, solved on the smallest surface, and the persistent cache stores
    keys only.  Every key is solved by one relation on L and -K over the
    weights of its splitting orbits, which `_rows` merges per (d1, delta1) as
    it scans them (`_orbit_relation`): R1 at delta >= 3, summed straight off
    the weights, where the E_i orbits add nothing, so that solve reads N of
    halves of lower degree only, never of beta - E_i; R2(L, L, -K) at delta 2
    and R3(L, L, -K, -K) at delta 1.  No orbit rows are kept: `_orbit_rows`
    lists them on every call.
    The memo, `_half_n` and the cusp boundary sums that `cusp.c_beta` keeps,
    per canonical class, in `cusp_boundary`, are insert-only maps.  The
    relation checks on N are functions of an engine in `verify`.
    """

    def __init__(self):
        self._memo: dict[tuple, int] = {}  # `blown_down_key` (d, m) -> N
        self._half_n: dict[tuple, int] = {}  # canonical half (d, sorted m) -> N, filed by `_rows`
        self._loaded: dict[str, bytes] = {}  # path -> the bytes `load_cache` merged from it
        self.cusp_boundary: dict[DivisorClass, Fraction] = {}

    @property
    def memo_size(self) -> int:
        """Number of memoized classes; the memo only grows."""
        return len(self._memo)

    # ------------------------------------------------------------------ seeds

    def seed_value(self, beta: DivisorClass) -> int | None:
        """Base data from `seed_classes`: (-1)-classes, L, L - E_i, and -K on the k = 8 surface."""
        return _seed_keys(beta.k).get((beta.d, beta.m))

    # --------------------------------------------------------------- filters

    def quick_vanishing(self, beta: DivisorClass) -> bool:
        """True when N is certainly zero for geometric reasons: `_base_value`'s rule, which gives no seed 0."""
        return _base_value(beta.d, beta.m) == 0

    # ------------------------------------------------------------ splittings

    def _orbit_rows(self, beta: DivisorClass) -> tuple[tuple, ...]:
        """Rows ((d1, m1), (d2, m2), orbit size, swap) of ints, one per unordered stabiliser
        orbit of `splittings(beta)`, listed anew on every call for the readers of
        every orbit: `splittings`, the consistency check (`verify.splitting_rows`), and
        through `_orbit_data` the cusp boundary sum and the delta 1 and 2 solves.
        The R1 solve of N reads the walk directly.

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
            if _base_value(d, m2) != 0:  # 0 for the zero class
                rows.append(((0, (0,) * i + (-1,) + (0,) * (k - i - 1)), (d, m2), m.count(m[i]), True))
        rows += _viable_multiplicities(m, d)
        return tuple(rows)

    def splittings(self, beta: DivisorClass) -> tuple[tuple[DivisorClass, DivisorClass], ...]:
        """All ordered pairs beta1 + beta2 = beta with both halves viable, sorted by beta1.

        The orbits of `_orbit_rows` and their swaps, expanded, for probe
        divisors that are not stabiliser invariant, as in `verify.consistency_check`."""
        pairs = [
            (DivisorClass(hd, m1), DivisorClass(beta.d - hd, tuple(map(sub, beta.m, m1))))
            for h1, h2, _, swap in self._orbit_rows(beta)
            for hd, hm in ((h1, h2) if swap else (h1,))
            for m1 in _orbit(beta.m, hm)
        ]
        pairs.sort(key=lambda p: (p[0].d, p[0].m))
        return tuple(pairs)

    def _orbit_data(self, beta: DivisorClass) -> dict:
        """The weights `_rows` merges over every orbit of `_orbit_rows(beta)`, run by `_run`.

        The cusp boundary sum of `cusp.c_beta` reads every orbit, E_i orbits included."""
        return self._run(self._rows(beta, self._orbit_rows(beta)))

    def _rows(self, beta: DivisorClass, orbits):
        """Task of `_run` that returns the splitting weights {(d1, delta(beta1)): w} of the orbit rows
        `orbits` of beta, merged in one scan: each row adds w = size*N1*N2*(beta1.beta2) at its half1,
        and with `swap` at its half2 too; a row with N1 = 0 or N2 = 0 adds nothing, and N2 is not
        looked up when N1 = 0.  Every reader sees a row only through (d1, delta1), the projection
        (L.beta1, -K.beta1 - 1), so no row is kept.

        N of a half is filed in `_half_n` once per canonical half (d, sorted m).  The task yields
        each canonical half that `_half_n` lacks and files the N it is sent, all on ints: no class
        is built here.  Only the solve path reads `_half_n`; `verify`'s checks read N through
        `n_beta`, so they see a memo entry that changed after a solve.  The delta 1 and 2 solves
        of N read every orbit, E_i orbits included; the delta >= 3 solve reads the orbits that
        the walk lists for d1 >= 1.  `_orbit_relation` takes the weights of either solve."""
        known = self._half_n
        top = delta(beta) - 1  # delta(beta1) + delta(beta2)
        weights = {}  # (d1, delta1) -> w
        for h1, h2, size, swap in orbits:
            n1 = known.get(c1 := (h1[0], tuple(sorted(h1[1], reverse=True))))
            if n1 is None:
                n1 = known[c1] = yield c1
            if not n1:
                continue
            n2 = known.get(c2 := (h2[0], tuple(sorted(h2[1], reverse=True))))
            if n2 is None:
                n2 = known[c2] = yield c2
            if n2:
                (d1, m1), (d2, m2) = h1, h2
                w = size * n1 * n2 * (d1 * d2 - sum(map(mul, m1, m2)))
                delta1 = 3 * d1 - sum(m1) - 1
                weights[d1, delta1] = weights.get((d1, delta1), 0) + w
                if swap:
                    weights[d2, top - delta1] = weights.get((d2, top - delta1), 0) + w
        return weights

    # -------------------------------------------------------- pinned names
    # `perfbench/tracing.py` wraps these four by name, so each stays as a delegate to `verify`
    # until the next harness change (ROADMAP item 11); `_verify` imports it at call time.

    def consistency_check(self, beta: DivisorClass):
        return _verify().consistency_check(self, beta)

    def relation_r1(self, beta, a, b) -> WDVVRelation:
        return _verify().relation(self, "R1", beta, (a, b))

    def relation_r2(self, beta, a, b, c) -> WDVVRelation:
        return _verify().relation(self, "R2", beta, (a, b, c))

    def relation_r3(self, beta, a, b, c, d) -> WDVVRelation:
        return _verify().relation(self, "R3", beta, (a, b, c, d))

    # ------------------------------------------------------------ the counts

    def n_beta(self, beta: DivisorClass) -> int:
        """N(beta), computed and memoized once per key `blown_down_key(beta.d, beta.m)`.

        A hit reads the memo and builds no class.  A miss runs `_solve` on `_run`'s stack and
        builds one `DivisorClass` per key that a relation solves, none for a seed or a
        vanishing key.  Every key that is neither a seed nor `quick_vanishing` has delta >= 1
        and every m_i >= 2, and is solved by `_orbit_relation`: at delta >= 3 over the orbits
        the walk lists for d1 >= 1, at delta 1 or 2 over every orbit.  The value is an exact
        int of any size; the CLI prints it in decimal, which Python limits to 4,300 digits by
        default (`sys.get_int_max_str_digits`), so N(572;), of 4,304 digits, is the first plane
        count past the CLI's domain."""
        key = blown_down_key(beta.d, beta.m)
        value = self._memo.get(key)
        return self._run(self._solve(key), key) if value is None else value

    def _solve(self, key: tuple):
        """Task of `_run` that returns N of a `blown_down_key` (d, m), filed in the memo.

        `_base_value` decides seeds and vanishing keys on the ints; only a key
        left to a relation gets a `DivisorClass`, the one a miss builds, and
        the weights its relation reads come from `_rows`."""
        value = _base_value(*key)
        if value is None:
            beta = DivisorClass(*key)
            orbits = _viable_multiplicities(beta.m, beta.d) if delta(beta) >= 3 else self._orbit_rows(beta)
            weights = yield from self._rows(beta, orbits)
            value = self._orbit_relation(beta, weights).solve()
            if value < 0:
                raise InconsistentRelationError(f"negative count {value} for {beta}")
        self._memo[key] = value
        return value

    def _run(self, task, key=None):
        """The return value of a task of `_solve` (for `key`) or `_rows`, driven on one explicit
        stack of tasks.

        A task yields a canonical half whose N it lacks and is sent that N: the
        memo's, at the half's `blown_down_key`, or on a miss the return value of
        a `_solve` task for that key, pushed and run to its end first.  A chain of
        keys waiting on each other is a list of suspended tasks, not of Python
        frames, so no recursion limit bounds it.  A key whose solve is already
        on the stack would wait on itself for ever, so it raises
        `InconsistentRelationError`; correct keys never cycle, as every half
        has a lower degree or a lower delta."""
        memo, stack, pending, value = self._memo, [task], {key: None}, None  # pending: the stack's keys, in order
        while stack:
            try:
                half = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                pending.popitem()
                value = done.value
                continue
            key = blown_down_key(*half)
            value = memo.get(key)
            if value is None:
                if key in pending:
                    raise InconsistentRelationError(f"the solve of the key {key} waits on itself")
                pending[key] = None
                stack.append(self._solve(key))
        return value

    def _orbit_relation(self, beta: DivisorClass, weights) -> WDVVRelation:
        """The relation that solves a key on the insertions L and -K, over the weights `_rows`
        merged from its orbits: R1(L, -K) at delta >= 3, R2(L, L, -K) at delta 2 and
        R3(L, L, -K, -K) at delta 1.

        L and -K are fixed by every permutation of the m_i, so the sum runs over
        stabiliser orbits, and a row enters only through its projection
        (L.beta1, -K.beta1) = (d1, delta(beta1) + 1), so through its key in
        `weights`.

        At delta >= 3, `weights` may leave out the E_i orbits: delta(E_i) = 0
        zeroes both weights of its row, and its swap's term carries the factor
        L.E_i = 0, so N(beta - E_i) is never read.  The lhs is L.(-K) = 3 at
        every k, and the division still checks the rhs; R1(L, L), of lhs 1,
        would check nothing.  Its rhs is summed straight off the weights, with
        no evaluator: the factor of L (`r1_factors`, x1 = d1, x2 = d - d1)
        times -K.beta2 = delta - delta1, which is folded into the weight.

        At delta 1 and 2 the weights hold every orbit, and each is one row, of
        projection (d1, delta1 + 1), of an evaluator on (L, -K).  With
        L.beta = d and -K.beta = delta + 1, the lhs of R2(L, L, -K) is
        -sum(m), which vanishes only at the line L, a seed; that of
        R3(L, L, -K, -K) is (delta + 1)^2 - 6 d (delta + 1) + (9 - k) d^2, which
        at delta 1 vanishes only at 1;1 (a seed) and at the classes of d = 2
        and k = 4, all `quick_vanishing` but 2;1,1,1,1, which no key is, as it
        reduces to 1;1,0,0,0.  A zero lhs is refused by `WDVVRelation.solve`.
        Of the tuples on (L, -K), those with b = c, or with a = d in R3, read
        0 = 0 whatever the data; in `product` order these two are the first of
        the rest.
        """
        db, d, divisors = delta(beta), beta.d, _LINE_AND_ANTICANONICAL[beta.k]
        if db >= 3:
            rows = ((w * (db - delta1), delta1, d1, d - d1) for (d1, delta1), w in weights.items())
            return WDVVRelation("R1", divisors, 3, sum(r1_factors(db - 3, rows)))
        rows = (((d1, delta1 + 1), w, delta1) for (d1, delta1), w in weights.items())
        evaluator = RelationEvaluator(beta, divisors, rows)
        return evaluator.relation("R2", (0, 0, 1)) if db == 2 else evaluator.relation("R3", (0, 0, 1, 1))

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
        """Atomic write of the memo, one row per key: temp file beside the file `path` names, then rename.

        The rows of the file on disk whose keys the memo lacks are kept, so
        writers that share a path keep each other's rows; where both hold a
        key the memo's value wins, and corrupted lines are not copied.  When
        the file holds the very bytes that `load_cache` merged from it, every
        row it holds is in the memo already, so it is not parsed again.  A
        symbolic link at `path` stays one: the rename replaces its resolved
        target.  The new file keeps the permission bits of the file it
        replaces, or gets 0o666 less the umask, as `open` creates a file.
        """
        path = os.fspath(path)
        target = os.path.realpath(path)
        disk, mode = GWEngine(), None
        with suppress(FileNotFoundError), open(target, "rb") as fh:
            mode = os.fstat(fh.fileno()).st_mode & 0o7777
            if fh.read() != self._loaded.get(path):
                disk.load_cache(path)
        rows = sorted({**disk._memo, **self._memo}.items(), key=lambda row: (len(row[0][1]), row[0]))  # k, d, m
        tmp = os.path.join(os.path.dirname(target), f".dpcount-cache-{os.urandom(8).hex()}")
        fh = open(tmp, "x", encoding="utf-8")  # a new file: 0o666 less the umask
        try:
            with fh:
                if mode is not None:
                    os.chmod(tmp, mode)
                for (d, m), value in rows:
                    fh.write(f"{CACHE_VERSION}\t{len(m)}\t{d};{','.join(map(str, m))}\t{value}\n")
            os.replace(tmp, target)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
