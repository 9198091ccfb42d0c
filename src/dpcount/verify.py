"""Self-verification suites: classical values, relation consistency, symmetry.

Every suite returns (ok, lines); the CLI prints the lines, or one JSON record
of both under `--format json`, and turns ok into an exit code, the
acceptance tests assert on it directly.  The relation
checks are functions of an engine: they read its N and its splitting orbits,
and the engine's solve reads none of them.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from operator import mul
from typing import NamedTuple

from .cusp import c_beta
from .gw import CACHE_ENV_VAR, RELATIONS, GWEngine, RelationEvaluator, WDVVRelation
from .lattice import DivisorClass, SurfaceModel, _orbit, cremona_image, delta, intersect

# Plane curve counts: rational degree-d curves through 3d - 1 points.
PLANE_RATIONAL_COUNTS = {
    1: 1,
    2: 1,
    3: 12,
    4: 620,
    5: 87304,
    6: 26312976,
    7: 14616808192,
}

# Plane cuspidal counts: rational degree-d curves through 3d - 2 points with a cusp.
PLANE_CUSPIDAL_COUNTS = {2: 0, 3: 24, 4: 2304, 5: 435168}


class ConsistencyReport(NamedTuple):
    """The engine's N(beta) and the relations `consistency_check` evaluated on it."""

    beta: DivisorClass
    value: int
    relations: list[WDVVRelation]

    @property
    def consistent(self) -> bool:
        """lhs * value = rhs for every listed relation, lhs = 0 included; on the basis tuples of
        `consistency_check` every nondegenerate relation then implies `value`."""
        return not self.disagreements()

    def disagreements(self) -> list[WDVVRelation]:
        return [r for r in self.relations if r.lhs_coeff * self.value != r.rhs]


@lru_cache(maxsize=None)
def _basis(k: int) -> tuple:
    """The basis L, E_1, ..., E_k of the k-point blow-up and its x.y table, diag(1, -1, ..., -1):
    the insertions of `consistency_check` and `relations_hold`, built once per k on first use."""
    surface = SurfaceModel(k)
    basis = (surface.line(), *(surface.exceptional(i) for i in range(k)))
    return basis, tuple(tuple(intersect(x, y) for y in basis) for x in basis)


def project(divisors, rows) -> list[tuple]:
    """Evaluator rows (x.beta1 for x in divisors, w, delta1) of rows (half, w, delta1) whose half
    beta1 is given as (d1, m1_1, ..., m1_k), its projection on the basis L, E_1, ..., E_k."""
    return [(tuple(x.d * h[0] - sum(map(mul, x.m, h[1:])) for x in divisors), w, d1) for h, w, d1 in rows]


def splitting_rows(engine: GWEngine, beta: DivisorClass) -> list[tuple]:
    """Evaluator rows ((d1, *m1), N1*N2*(beta1.beta2), delta(beta1)) over `engine.splittings(beta)`, read
    off the orbits of `engine._orbit_rows(beta)`; (d1, *m1) is the projection on L, E_1, ..., E_k.

    N1, N2, w and delta1 are shared by every pair of an orbit, so each is computed once per
    orbit, from one `DivisorClass` per half: N1 and N2 through `n_beta` (N2 only when N1 != 0),
    so a memo entry that changed after a solve is seen.  `_orbit` expands the halves of an
    orbit of size > 1, the swapped orbit's rows follow with `swap`, and a row of w = 0 is
    left out, as every relation is a sum over the rows; no pair is built per ordered
    splitting, and nothing is sorted.  The rows are closed under swapping the halves, which
    `RelationEvaluator` needs for R3."""
    rows = []
    for h1, h2, size, swap in engine._orbit_rows(beta):
        b1, b2 = DivisorClass(*h1), DivisorClass(*h2)
        if w := (n1 := engine.n_beta(b1)) and n1 * engine.n_beta(b2) * intersect(b1, b2):
            for b in (b1, b2)[: 1 + swap]:
                db = delta(b)
                rows += [((b.d, *x), w, db) for x in (_orbit(beta.m, b.m) if size > 1 else (b.m,))]
    return rows


def relation(engine: GWEngine, name: str, beta: DivisorClass, divisors) -> WDVVRelation:
    """Relation `name` on the insertions `divisors`, in order, over the whole splitting list of beta:
    R1 on (pt, pt, A, B), R2 on (A, B, C, pt) and R3 on (A, B, C, D), which need delta(beta) >= 3, 2
    and 1.  The formulas are in `RelationEvaluator` and `r1_factors`."""
    low = RELATIONS[name][1]
    db = delta(beta)
    if db < low:
        raise ValueError(f"relation {name} needs delta >= {low}, got {db} for {beta}")
    evaluator = RelationEvaluator(beta, divisors, project(divisors, splitting_rows(engine, beta)))
    return evaluator.relation(name, tuple(range(len(divisors))))


def consistency_check(engine: GWEngine, beta: DivisorClass) -> ConsistencyReport:
    """Check lhs * N_beta = rhs, lhs = 0 included, for each relation beta's delta admits.

    The insertions run over every tuple of the basis L, E_1, ..., E_k.  Both
    sides are multilinear in the insertions and every class is an integer
    combination of the basis, so when all of these hold, every nondegenerate
    relation on any divisors, `divisor_pool`'s among them, implies the
    engine value.  The report lists the tuples that do not read 0 = 0."""
    value, evaluator = _basis_evaluator(engine, beta)
    report = ConsistencyReport(beta=beta, value=value, relations=[])
    positions = range(len(evaluator.divisors))
    for name, (arity, low) in RELATIONS.items():
        if evaluator.delta >= low:
            report.relations.extend(evaluator.relations(name, product(positions, repeat=arity)))
    return report


def relations_hold(engine: GWEngine, beta: DivisorClass) -> bool:
    """`consistency_check(engine, beta).consistent`, decided off the relation tables
    (`RelationEvaluator.holds`) with no relation built: for R3, n^2(n+1)/2 checks
    against n^4 tuples, n = k + 1."""
    value, evaluator = _basis_evaluator(engine, beta)
    return all(evaluator.holds(name, value) for name, (_, low) in RELATIONS.items() if evaluator.delta >= low)


def _basis_evaluator(engine: GWEngine, beta: DivisorClass) -> tuple[int, RelationEvaluator]:
    """N(beta), then the evaluator of its splittings on the basis L, E_1, ..., E_k."""
    basis, pair = _basis(beta.k)
    value = engine.n_beta(beta)
    return value, RelationEvaluator(beta, basis, splitting_rows(engine, beta), pair)


def classical_suite(engine: GWEngine) -> tuple[bool, list[str]]:
    """Plane counts for d <= 7 and plane cuspidal counts for d <= 5."""
    lines = []
    ok = True
    for d, expected in sorted(PLANE_RATIONAL_COUNTS.items()):
        got = engine.n_beta(DivisorClass(d, ()))
        good = got == expected
        ok &= good
        lines.append(f"N({d}L) = {got} expected {expected}: {'ok' if good else 'FAIL'}")
    for d, expected in sorted(PLANE_CUSPIDAL_COUNTS.items()):
        got = c_beta(engine, DivisorClass(d, ())).value
        good = got == expected
        ok &= good
        lines.append(f"C({d}L) = {got} expected {expected}: {'ok' if good else 'FAIL'}")
    return ok, lines


def random_classes(
    rng: random.Random,
    count: int,
    k_max: int = 4,
    delta_max: int = 10,
    *,
    engine: GWEngine,
) -> list[DivisorClass]:
    """Deterministic sample of admissible classes (m_i >= 0, 1 <= delta <= delta_max) that
    `engine.quick_vanishing` does not rule out."""
    out: list[DivisorClass] = []
    attempts = 0
    while len(out) < count and attempts < 100000:
        attempts += 1
        k = rng.randint(0, k_max)
        d = rng.randint(1, 6)
        m = tuple(rng.randint(0, d) for _ in range(k))
        beta = DivisorClass(d, m)
        if not 1 <= delta(beta) <= delta_max:
            continue
        if engine.quick_vanishing(beta):
            continue
        out.append(beta)
    if len(out) < count:
        raise RuntimeError("random class sampler exhausted its attempt budget")
    return out


def consistency_suite(
    engine: GWEngine,
    samples: int = 200,
    seed: int = 1,
    k_max: int = 8,
    delta_max: int = 10,
) -> tuple[bool, list[str]]:
    """R1, R2 and R3 must hold at the engine value on every basis tuple, class by class.

    The default draw, seed 1, holds classes of every k = 5..8.  `relations_hold` decides
    each class; only a failing one gets a `consistency_check` report, whose first three
    disagreements print as FAIL lines.
    """
    rng = random.Random(seed)
    classes = random_classes(rng, samples, k_max=k_max, delta_max=delta_max, engine=engine)
    lines = []
    ok = True
    for beta in classes:
        if relations_hold(engine, beta):
            continue
        ok = False
        report = consistency_check(engine, beta)  # for the FAIL lines
        for bad in report.disagreements()[:3]:
            lines.append(
                f"FAIL {beta}: {bad.name}{tuple(str(x) for x in bad.divisors)} has "
                f"lhs {bad.lhs_coeff}, rhs {bad.rhs}; lhs * {report.value} (engine value) "
                f"= {bad.lhs_coeff * report.value}"
            )
    lines.append(
        f"consistency: {samples} classes, "
        f"{'all relations agree' if ok else 'DISAGREEMENTS FOUND'}"
    )
    return ok, lines


_SYMMETRY_SAMPLES, _SYMMETRY_SEED, _SYMMETRY_SHUFFLES = 100, 1, 4


def symmetry_suite(engine: GWEngine) -> tuple[bool, list[str]]:
    """Counts are invariant under permutations of the multiplicity entries."""
    rng = random.Random(_SYMMETRY_SEED)
    classes = random_classes(rng, _SYMMETRY_SAMPLES, engine=engine)
    lines = []
    ok = True
    for beta in classes:
        n_ref = engine.n_beta(beta)
        c_ref = c_beta(engine, beta).value
        for _ in range(_SYMMETRY_SHUFFLES):
            perm = list(beta.m)
            rng.shuffle(perm)
            shuffled = DivisorClass(beta.d, tuple(perm))
            if engine.n_beta(shuffled) != n_ref or c_beta(engine, shuffled).value != c_ref:
                ok = False
                lines.append(f"FAIL {beta} vs {shuffled}: counts differ under permutation")
    lines.append(
        f"symmetry: {_SYMMETRY_SAMPLES} classes x {_SYMMETRY_SHUFFLES} shuffles, {'ok' if ok else 'FAIL'}"
    )
    return ok, lines


_BLOWUP_D_MAX, _BLOWUP_K_MAX, _BLOWUP_MAX_ONES = 5, 3, 3


def blowup_suite(engine: GWEngine) -> tuple[bool, list[str]]:
    """Counts with 0/1 multiplicities match the plane count of the same degree."""
    lines = []
    ok = True
    checked = 0
    for d in range(2, _BLOWUP_D_MAX + 1):
        plane = c_beta(engine, DivisorClass(d, ())).value
        for k in range(1, _BLOWUP_K_MAX + 1):
            for ones in range(0, min(_BLOWUP_MAX_ONES, k) + 1):
                for positions in combinations(range(k), ones):
                    pattern = tuple(1 if i in positions else 0 for i in range(k))
                    checked += 1
                    if c_beta(engine, DivisorClass(d, pattern)).value != plane:
                        ok = False
                        lines.append(f"FAIL d={d} pattern={pattern}")
    lines.append(f"blow-up invariance: {checked} cases, {'ok' if ok else 'FAIL'}")
    return ok, lines


_CREMONA_KS, _CREMONA_D_MAX = (3, 4, 5, 6, 7, 8), 7


def cremona_suite(engine: GWEngine) -> tuple[bool, list[str]]:
    """N and C are preserved by the quadratic transform, wherever both classes are in range.

    For every canonical class beta with k in _CREMONA_KS, 1 <= d <=
    _CREMONA_D_MAX and m_i >= 0 in `c_beta`'s domain (delta >= 1, not
    `quick_vanishing`), the transform is applied at each triple of points up
    to the permutations that fix beta.  Each image of degree <= _CREMONA_D_MAX
    with every m_i >= 0 that is not `quick_vanishing` must have the same N and
    the same C.  The engine keys N by Weyl orbit, so the N comparison holds by
    construction; the C comparison does not, because C's boundary sum is kept
    per canonical class.
    """
    lines = []
    ok = True
    checked = 0
    for k in _CREMONA_KS:
        for d in range(1, _CREMONA_D_MAX + 1):
            for m in combinations_with_replacement(range(d, -1, -1), k):
                beta = DivisorClass(d, m)
                if delta(beta) < 1 or engine.quick_vanishing(beta):
                    continue
                for triple in dict.fromkeys(combinations(m, 3)):
                    rest = list(m)
                    for x in triple:
                        rest.remove(x)
                    image = cremona_image(DivisorClass(d, triple + tuple(rest)))
                    if image.d > _CREMONA_D_MAX or min(image.m) < 0 or engine.quick_vanishing(image):
                        continue
                    checked += 1
                    got = [(engine.n_beta(b), c_beta(engine, b).value) for b in (beta, image)]
                    if got[0] != got[1]:
                        ok = False
                        lines.append(f"FAIL {beta} -> {image}: (N, C) {got[0]} != {got[1]}")
    lines.append(f"cremona invariance: {checked} pairs, {'ok' if ok else 'FAIL'}")
    return ok, lines


_CACHE_SAMPLES = 20


def cache_suite(engine: GWEngine) -> tuple[bool, list[str]]:
    """Cached values must equal fresh ones: recompute a seeded sample of the engine's memo.

    From the CLI the engine holds exactly the rows loaded from `--cache-path`
    when the suite starts.  Each sampled key is recomputed by a new
    `GWEngine` without a cache; with at most `_CACHE_SAMPLES` rows, every row is
    checked.  No rows at all is a failure, since nothing was verified.
    """
    rows = list(engine._memo.items())
    if not rows:
        return False, [f"cache: no rows loaded; give --cache-path or set {CACHE_ENV_VAR}"]
    if len(rows) > _CACHE_SAMPLES:
        rows = random.Random(0).sample(rows, _CACHE_SAMPLES)
    fresh = GWEngine()
    lines = []
    for key, cached in rows:
        beta = DivisorClass(*key)  # the memo keys are the ints (d, m)
        value = fresh.n_beta(beta)
        if value != cached:
            lines.append(f"FAIL {beta}: cached {cached}, fresh {value}")
    ok = not lines
    lines.append(
        f"cache: {len(rows)} of {engine.memo_size} rows recomputed, "
        f"{'all agree' if ok else 'DISAGREEMENTS FOUND'}"
    )
    return ok, lines


SUITES = {
    "classical": classical_suite,
    "consistency": consistency_suite,
    "symmetry": symmetry_suite,
    "blowup": blowup_suite,
    "cremona": cremona_suite,
    "cache": cache_suite,
}
