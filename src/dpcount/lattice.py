"""Integer second-homology lattice of the plane blown up at k <= 8 points.

A class is written d*L - m_1*E_1 - ... - m_k*E_k and stored as the integer
vector (d; m_1, ..., m_k).  In the basis (L, E_1, ..., E_k) the intersection
form is diag(1, -1, ..., -1).  All arithmetic is exact.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache

MAX_BLOWUPS = 8

_LITERAL_RE = re.compile(r"^(-?\d+);((?:-?\d+)(?:,-?\d+)*)?$", re.ASCII)  # \d is 0-9 only


_setattr = object.__setattr__  # writes a slot past the classes' read-only __setattr__


class _Frozen:
    """Read-only attributes, as on a frozen value: assigning or deleting one raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SurfaceModel(_Frozen):
    """The plane blown up at k generic points, 0 <= k <= 8; immutable, and compared by k."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        if not 0 <= k <= MAX_BLOWUPS:
            raise _blowup_count_error(k)
        _setattr(self, "k", k)

    def __eq__(self, other):
        return self.k == other.k if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.k,))

    def __repr__(self):
        return f"SurfaceModel(k={self.k!r})"

    def __reduce__(self):
        return SurfaceModel, (self.k,)

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


class DivisorClass(_Frozen):
    """The class d*L - sum(m_i * E_i); E_i itself is (0; ..., m_i = -1, ...).

    Immutable, and compared and hashed by (d, m); m is stored as a tuple.
    Every instance passes through `__post_init__`, the k <= 8 check, once:
    the benchmark's tracer wraps that method to count the classes built."""

    __slots__ = ("d", "m")

    def __init__(self, d: int, m: tuple[int, ...]):
        _setattr(self, "d", d)
        _setattr(self, "m", tuple(m))
        self.__post_init__()

    def __post_init__(self):
        if len(self.m) > MAX_BLOWUPS:
            raise _blowup_count_error(len(self.m))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.d == other.d and self.m == other.m
        return NotImplemented

    def __hash__(self):
        return hash((self.d, self.m))

    def __repr__(self):
        return f"DivisorClass(d={self.d!r}, m={self.m!r})"

    def __reduce__(self):
        return DivisorClass, (self.d, self.m)

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
    (-2 <= m_i <= 4, d = (sum(m) + 1) / 3 in 0..7), pruned on what the
    entries left must still sum to (sum(m) = 3d - 1, sum(m_i^2) = d^2 + 1;
    `_profiles`), and expands each solution to its distinct rearrangements;
    the assertion that no solution touches the enlargement proves the
    nominal box (d <= 6, -1 <= m_i <= 3) is big enough.
    """
    SurfaceModel(k)
    found = []
    for d in range(8):
        for base in _profiles(k, 3 * d - 1, d * d + 1, 4):
            assert d <= 6 and all(-1 <= x <= 3 for x in base), (
                f"(-1)-class search box too small: found ({d}; {base})"
            )
            found.extend(DivisorClass(d, m) for m in _orbit((0,) * k, base))
    found.sort(key=lambda b: (b.d, b.m))
    return tuple(found)


def _profiles(n: int, s: int, q: int, top: int) -> list[tuple[int, ...]]:
    """The non-increasing n-tuples over -2..top with sum s and sum of squares q.

    A branch is cut once no such tuple is left: each entry squared is at
    most max(top^2, 4), and s^2 <= n q (Cauchy-Schwarz)."""
    if q < 0 or s * s > n * q or not -2 * n <= s <= top * n or q > n * max(top * top, 4):
        return []
    if not n:
        return [()]
    return [(a, *rest) for a in range(top, -3, -1) for rest in _profiles(n - 1, s - a, q - a * a, a)]


def _orbit(m: tuple[int, ...], m1: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every distinct tuple that arises from m1 by permuting positions that hold equal m_i."""
    pools: dict[int, list[int]] = {}
    for mi, a in zip(m, m1):
        pools.setdefault(mi, []).append(a)
    found: list[tuple[int, ...]] = []
    _fill(m, pools, [0] * len(m), 0, found)
    return found


def _fill(m: tuple[int, ...], pools: dict, row: list[int], i: int, found: list) -> None:
    """`_orbit`'s walk from position i, drawing each m1 entry from the pool of its m_i.

    A module function, not a closure that refers to itself, so `_orbit`
    leaves no reference cycle behind."""
    if i == len(m):
        found.append(tuple(row))
        return
    pool = pools[m[i]]
    for a in sorted(set(pool)):
        pool.remove(a)
        row[i] = a
        _fill(m, pools, row, i + 1, found)
        pool.append(a)


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
