"""Integer second-homology lattice of the plane blown up at k <= 8 points.

A class is written d*L - m_1*E_1 - ... - m_k*E_k and stored as the integer
vector (d; m_1, ..., m_k).  In the basis (L, E_1, ..., E_k) the intersection
form is diag(1, -1, ..., -1).  All arithmetic is exact.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from functools import lru_cache

MAX_BLOWUPS = 8

_LITERAL_RE = re.compile(r"^(-?\d+);((?:-?\d+)(?:,-?\d+)*)?$", re.ASCII)  # \d is 0-9 only


@dataclass(frozen=True)
class SurfaceModel:
    """The plane blown up at k generic points, 0 <= k <= 8."""

    k: int

    def __post_init__(self):
        if not 0 <= self.k <= MAX_BLOWUPS:
            raise _blowup_count_error(self.k)

    def line(self) -> "DivisorClass":
        return DivisorClass(1, (0,) * self.k)

    def exceptional(self, i: int) -> "DivisorClass":
        if not 0 <= i < self.k:
            raise ValueError(f"exceptional index {i} out of range for k={self.k}")
        m = [0] * self.k
        m[i] = -1
        return DivisorClass(0, tuple(m))

    def anticanonical(self) -> "DivisorClass":
        """-K = 3L - E_1 - ... - E_k; its self-intersection is 9 - k."""
        return DivisorClass(3, (1,) * self.k)


@dataclass(frozen=True)
class DivisorClass:
    """The class d*L - sum(m_i * E_i); E_i itself is (0; ..., m_i = -1, ...)."""

    d: int
    m: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(self.m))
        if len(self.m) > MAX_BLOWUPS:
            raise _blowup_count_error(len(self.m))

    @property
    def k(self) -> int:
        return len(self.m)

    def is_zero(self) -> bool:
        return self.d == 0 and not any(self.m)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _check_same_k(self, other)
        return DivisorClass(self.d + other.d, tuple(a + b for a, b in zip(self.m, other.m)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        _check_same_k(self, other)
        return DivisorClass(self.d - other.d, tuple(a - b for a, b in zip(self.m, other.m)))

    def self_intersection(self) -> int:
        return self.d * self.d - sum(a * a for a in self.m)

    def anticanonical_degree(self) -> int:
        """Pairing with -K: 3d - sum(m_i)."""
        return 3 * self.d - sum(self.m)

    def __str__(self) -> str:
        return format_class_literal(self)


def _blowup_count_error(k: int) -> ValueError:
    """The one domain error for k outside 0..8, raised by `SurfaceModel` and `DivisorClass`."""
    return ValueError(f"blow-up count k={k} is outside the allowed range 0..{MAX_BLOWUPS}")


def _check_same_k(a: DivisorClass, b: DivisorClass) -> None:
    if a.k != b.k:
        raise ValueError(f"classes live on different surfaces: k={a.k} vs k={b.k}")


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    """Topological intersection a.d*b.d - sum(a.m_i * b.m_i)."""
    # the hot loop of every relation: the k check and the sum are inlined
    if len(a.m) != len(b.m):
        raise ValueError(f"classes live on different surfaces: k={len(a.m)} vs k={len(b.m)}")
    return a.d * b.d - sum(map(operator.mul, a.m, b.m))


def delta(beta: DivisorClass) -> int:
    """Generic point count for rational curves in beta: (-K).beta - 1."""
    return beta.anticanonical_degree() - 1


def arithmetic_genus(beta: DivisorClass) -> int:
    """Adjunction genus (beta^2 - (-K).beta)/2 + 1; the division is exact."""
    num = beta.self_intersection() - beta.anticanonical_degree()
    q, r = divmod(num, 2)
    assert r == 0, f"parity violation in adjunction for {beta}"
    return q + 1


def canonical_form(beta: DivisorClass) -> DivisorClass:
    """Sort m non-increasingly; valid since blow-up points are interchangeable."""
    return DivisorClass(beta.d, tuple(sorted(beta.m, reverse=True)))


def reduced_form(beta: DivisorClass) -> DivisorClass:
    """The Cremona-reduced canonical class of beta, a key for its Weyl-group orbit.

    W(E_k) is generated by the permutations of the E_i and the quadratic
    transform at three blow-up points; both are isometries of the lattice
    that fix K, and N is invariant under them.  Sort m non-increasingly; for
    k >= 3 with every m_i >= 0, while d < m_1 + m_2 + m_3, apply the
    transform at the three largest entries (it lowers d and those three m_i
    by the excess m_1 + m_2 + m_3 - d) and sort again.  Stop as soon as some
    m_i is negative: N of such a class comes from `quick_vanishing` or the
    E_i seeds.  The loop ends because d drops at every step and W(E_k) is
    finite for k <= 8, so the orbit holds finitely many classes.  A result
    with every m_i >= 0 is the one class of the orbit with m non-increasing
    and d >= m_1 + m_2 + m_3, so the whole orbit shares it.
    """
    d, m = _cremona_reduce(beta.d, beta.m)
    m = tuple(m)
    # an argument that is reduced already is returned as it is, not copied
    return beta if d == beta.d and m == beta.m else DivisorClass(d, m)


def blown_down_form(beta: DivisorClass) -> DivisorClass:
    """The class of `blown_down_key(beta.d, beta.m)`; beta itself when beta is its own key."""
    key = blown_down_key(beta.d, beta.m)
    return beta if key == (beta.d, beta.m) else DivisorClass(*key)


def blown_down_key(d: int, m: tuple[int, ...]) -> tuple:
    """(d, m) of `reduced_form` with every entry 0 or 1 dropped when every m_i >= 0 and delta >= 1.

    The memo key of N, in ints.  Blowing up a point that the curve misses
    (m_i = 0) or passes through once (m_i = 1, one more generic point) leaves
    N unchanged (Goettsche-Pandharipande 1998), and dropping such an entry
    keeps the genus, the m_1 > d test and a delta' = delta + (number of 1s),
    still >= 1, so no filter of N changes its verdict.  At delta <= 0 the key
    is the reduced form: 1;1,1,1 (delta -1, N = 0) must not become the seed
    1;1,1 (N = 1).  The result is a fixed point of `reduced_form` (the dropped
    entries are the smallest) and of this function, on at most the same k.
    """
    d, m = _cremona_reduce(d, m)
    if m and 0 <= m[-1] <= 1 and 3 * d - sum(m) >= 2:
        del m[len(m) - m.count(0) - m.count(1):]  # sorted, so the 0s and 1s are the tail
    return d, tuple(m)


def _cremona_reduce(d: int, m: tuple) -> tuple[int, list[int]]:
    """(d, m) of `reduced_form(DivisorClass(d, m))`, with m a non-increasing list."""
    m = sorted(m, reverse=True)
    if len(m) >= 3 and m[-1] >= 0:
        while (excess := m[0] + m[1] + m[2] - d) > 0:
            d -= excess
            m[0] -= excess
            m[1] -= excess
            m[2] -= excess
            m.sort(reverse=True)
            if m[-1] < 0:
                break
    return d, m


@lru_cache(maxsize=None)
def minus_one_classes(k: int) -> tuple[DivisorClass, ...]:
    """All classes with beta^2 = -1 and (-K).beta = 1 (includes every E_i), sorted by (d, m).

    Domain: 0 <= k <= 8; any other k raises the blow-up count error.  The
    search walks the non-increasing profiles m in an enlarged box
    (-2 <= m_i <= 4, d = (sum(m) + 1) / 3 in 0..7) and expands each solution
    to its distinct rearrangements; the assertion that no solution touches
    the enlargement proves the nominal box (d <= 6, -1 <= m_i <= 3) is big
    enough.
    """
    SurfaceModel(k)
    found = []
    for base in itertools.combinations_with_replacement(range(4, -3, -1), k):
        d, r = divmod(sum(base) + 1, 3)
        if r or not 0 <= d <= 7 or d * d - sum(x * x for x in base) != -1:
            continue
        assert d <= 6 and all(-1 <= x <= 3 for x in base), (
            f"(-1)-class search box too small: found ({d}; {base})"
        )
        found.extend(DivisorClass(d, m) for m in _orbit((0,) * k, base))
    found.sort(key=lambda b: (b.d, b.m))
    return tuple(found)


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


@lru_cache(maxsize=None)
def minus_one_class_set(k: int) -> frozenset[DivisorClass]:
    return frozenset(minus_one_classes(k))


def cremona_image(beta: DivisorClass) -> DivisorClass:
    """Standard quadratic transform based at the first three blow-up points."""
    if beta.k < 3:
        raise ValueError("the quadratic transform needs k >= 3")
    d = beta.d
    m1, m2, m3 = beta.m[:3]
    rest = beta.m[3:]
    return DivisorClass(
        2 * d - m1 - m2 - m3,
        (d - m2 - m3, d - m1 - m3, d - m1 - m2) + rest,
    )


def parse_class_literal(text: str) -> DivisorClass:
    """Parse `d;m1,...,mk` (`3;` means k = 0)."""
    return DivisorClass(*parse_class_key(text))


def parse_class_key(text: str) -> tuple:
    """The ints (d, m) of a class literal, with the checks of `parse_class_literal`."""
    match = _LITERAL_RE.match(text.strip())
    if match is None:
        raise ValueError(
            f"malformed class literal {text!r}; expected `d;m1,...,mk`, e.g. `4;1,1,0`"
        )
    d, m = match.groups()
    m = tuple(map(int, m.split(","))) if m else ()
    if len(m) > MAX_BLOWUPS:
        raise _blowup_count_error(len(m))
    return int(d), m


def format_class_literal(beta: DivisorClass) -> str:
    return f"{beta.d};{','.join(str(a) for a in beta.m)}"
