"""Counts of rational curves with one cusp, in exact rational arithmetic.

For a class beta with all m_i >= 0 the cuspidal count is a first term
proportional to N_beta plus a sum over ordered splittings beta1 + beta2 =
beta.  Both pieces can be fractional on their own; the total is always an
integer and is asserted to be one before it is returned.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .gw import GWEngine, InconsistentRelationError, comb0
from .lattice import DivisorClass, canonical_form, delta, intersect


class CuspResult(NamedTuple):
    """The count C(beta) of `c_beta`, with its two terms, N(beta) and its hypothesis check."""

    value: int
    valid: bool
    first_term: Fraction
    boundary_term: Fraction
    n: int  # N_beta, which the first term is proportional to
    warnings: list[str]


def _boundary_factor(db: int, d1: int) -> Fraction:
    """C(D-1, d1) * (deg1 * deg2 / (2 deg) - 1): a splitting's term over N1 * N2 * (beta1.beta2).

    D = delta(beta) and d1 = delta(beta1); the anticanonical degrees are
    deg = D + 1, deg1 = d1 + 1 and deg2 = D - d1, as delta1 + delta2 = D - 1.
    """
    return comb0(db - 1, d1) * (Fraction((d1 + 1) * (db - d1), 2 * (db + 1)) - 1)


def splitting_term(
    engine: GWEngine, beta: DivisorClass, beta1: DivisorClass, beta2: DivisorClass
) -> Fraction:
    """Contribution of one ordered splitting beta1 + beta2 = beta, with N read through `n_beta`.

    `c_beta` sums the same terms over the splitting orbit rows; this is
    the term of one pair, for reference sums over `GWEngine.splittings`."""
    if beta1 + beta2 != beta:
        raise ValueError(f"{beta1} + {beta2} is not a splitting of {beta}")
    if beta1.is_zero() or beta2.is_zero():
        raise ValueError("splitting halves must be nonzero")
    weight = engine.n_beta(beta1) * engine.n_beta(beta2) * intersect(beta1, beta2)
    return weight * _boundary_factor(delta(beta), delta(beta1))


def c_beta(engine: GWEngine, beta: DivisorClass) -> CuspResult:
    """Number of rational beta-curves through delta(beta) - 1 points with a cusp.

    The first term is ((3 + k) - (9 - k) / deg) * N(beta), with deg = delta + 1
    the anticanonical degree, so deg >= 2 on this domain.  The boundary term
    is the sum of `splitting_term` over the ordered splittings, taken over
    the splitting orbit rows, one Fraction per distinct delta(beta1).  Both
    stay Fractions; their sum must be an integer, or the count raises."""
    if any(mi < 0 for mi in beta.m):
        raise ValueError(f"class {beta} has a negative multiplicity; all m_i >= 0 required")
    db = delta(beta)
    if db < 1:
        raise ValueError(f"class {beta} has delta = {db} < 1")
    n = engine.n_beta(beta)
    ft = (Fraction(3 + beta.k) - Fraction(9 - beta.k, db + 1)) * n
    # the boundary sum is the same for every permutation of beta, so it is
    # kept per canonical class.  Its rows (half, w, delta1) are those of every
    # splitting orbit, `GWEngine._orbit_data`: w = size * N1 * N2 * (beta1.beta2) per stabiliser
    # orbit, a swapped orbit is a row of its own, and rows with a vanishing
    # half are dropped, as their terms are 0.
    # It is not keyed by the Weyl-reduced class, as N is: the formula is not
    # invariant at the domain edge, where a class such as 2;2,2 reduces to
    # one with a negative m_i, so a reduced key would change which table
    # rows are skipped
    key = canonical_form(beta)
    bt = engine.cusp_boundary.get(key)
    if bt is None:
        weights: dict[int, int] = {}
        for _, w, d1 in engine._orbit_data(key):
            weights[d1] = weights.get(d1, 0) + w
        bt = sum((w * _boundary_factor(db, d1) for d1, w in weights.items()), Fraction(0))
        engine.cusp_boundary[key] = bt
    total = ft + bt
    if total.denominator != 1:
        raise InconsistentRelationError(
            f"cuspidal count for {beta} is not an integer: {total}"
        )
    value = int(total)

    warnings: list[str] = []
    shifted = DivisorClass(beta.d - 3, beta.m)
    if shifted.is_zero():
        # the hypothesis degenerates for the cubic class itself; cuspidal
        # cubics exist, so the value stands
        valid = True
    else:
        valid = engine.n_beta(shifted) > 0
        if not valid:
            warnings.append(
                f"hypothesis N({shifted}) > 0 fails; the returned value is "
                "conjectural (numerically the formula is expected to hold anyway)"
            )
    if value < 0 and not valid:
        warnings.append(f"negative count {value} for {beta}; flagged for investigation")
    return CuspResult(value=value, valid=valid, first_term=ft, boundary_term=bt, n=n, warnings=warnings)

