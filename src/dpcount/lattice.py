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

_LITERAL_RE = re.compile(r"^(-?\d+);((?:-?\d+)(?:,-?\d+)*)?$")


@dataclass(frozen=True)
class SurfaceModel:
    """The plane blown up at k generic points, 0 <= k <= 8."""

    k: int

    def __post_init__(self):
        if not 0 <= self.k <= MAX_BLOWUPS:
            raise ValueError(
                f"blow-up count k={self.k} is outside the allowed range 0..{MAX_BLOWUPS}"
            )

    @property
    def c1_sq(self) -> int:
        """Self-intersection of the first Chern class: 9 - k."""
        return 9 - self.k

    @property
    def euler(self) -> int:
        """Topological Euler number: 3 + k."""
        return 3 + self.k

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
            raise ValueError(
                f"class has {len(self.m)} exceptional coefficients; at most {MAX_BLOWUPS} allowed"
            )

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

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.d, tuple(-a for a in self.m))

    def scale(self, c: int) -> "DivisorClass":
        return DivisorClass(c * self.d, tuple(c * a for a in self.m))

    def self_intersection(self) -> int:
        return self.d * self.d - sum(a * a for a in self.m)

    def anticanonical_degree(self) -> int:
        """Pairing with -K: 3d - sum(m_i)."""
        return 3 * self.d - sum(self.m)

    def __str__(self) -> str:
        return format_class_literal(self)


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


def is_exceptional(beta: DivisorClass) -> bool:
    """True iff beta equals some E_i."""
    return beta.d == 0 and sorted(beta.m) == [-1] + [0] * (beta.k - 1)


@lru_cache(maxsize=None)
def minus_one_classes(k: int) -> tuple[DivisorClass, ...]:
    """All classes with beta^2 = -1 and (-K).beta = 1 (includes every E_i).

    Brute-force search over an enlarged box; the assertion that no solution
    touches the enlargement proves the nominal box (d <= 6, -1 <= m_i <= 3)
    is big enough.
    """
    SurfaceModel(k)
    found = []
    for d in range(0, 8):
        target = 3 * d - 1
        for base in itertools.combinations_with_replacement(range(4, -3, -1), k):
            if sum(base) != target:
                continue
            if d * d - sum(x * x for x in base) != -1:
                continue
            assert d <= 6 and all(-1 <= x <= 3 for x in base), (
                f"(-1)-class search box too small: found ({d}; {base})"
            )
            for perm in set(itertools.permutations(base)):
                found.append(DivisorClass(d, perm))
    found.sort(key=lambda b: (b.d, b.m))
    return tuple(found)


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
    match = _LITERAL_RE.match(text.strip())
    if match is None:
        raise ValueError(
            f"malformed class literal {text!r}; expected `d;m1,...,mk`, e.g. `4;1,1,0`"
        )
    d = int(match.group(1))
    m = tuple(int(part) for part in match.group(2).split(",")) if match.group(2) else ()
    if len(m) > MAX_BLOWUPS:
        raise ValueError(
            f"class literal {text!r} has k = {len(m)} exceptional coefficients, "
            f"which exceeds the bound k <= {MAX_BLOWUPS}"
        )
    return DivisorClass(d, m)


def format_class_literal(beta: DivisorClass) -> str:
    return f"{beta.d};{','.join(str(a) for a in beta.m)}"
