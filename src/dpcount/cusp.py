"""Counts of rational curves with one cusp, in exact rational arithmetic.

For a class beta with all m_i >= 0 the cuspidal count is a first term
proportional to N_beta plus a sum over ordered splittings beta1 + beta2 =
beta.  With deg = delta(beta) + 1 the anticanonical degree, every term is an
integer over 2 deg, so the boundary terms are added as integers and divided once.
Both pieces can be fractional on their own; the total is always an integer
and is asserted to be one before it is returned.

`fractions` (and the `decimal` it imports) loads on the first cuspidal
count, `c_beta` or `splitting_term`, not with the package: a process that
only asks for N never pays for it.
"""

from __future__ import annotations

from typing import NamedTuple

from .gw import GWEngine, InconsistentRelationError, comb0
from .lattice import DivisorClass, canonical_form, delta, intersect

Fraction = None  # fractions.Fraction once `_import_fraction` has run


def _import_fraction() -> None:
    """Bind `Fraction` on the first cuspidal count; every later count reads the module global."""
    global Fraction
    from fractions import Fraction


class CuspResult(NamedTuple):
    """The count C(beta) of `c_beta`, with its two terms, N(beta) and its hypothesis check."""

    value: int
    valid: bool
    first_term: Fraction
    boundary_term: Fraction
    n: int  # N_beta, which the first term is proportional to
    warnings: list[str]


def _boundary_factor(db: int, d1: int) -> int:
    """C(D-1, d1) * (deg1 * deg2 - 2 deg): a splitting's term over N1 * N2 * (beta1.beta2), times 2 deg.

    D = delta(beta) and d1 = delta(beta1); the anticanonical degrees are
    deg = D + 1, deg1 = d1 + 1 and deg2 = D - d1, as delta1 + delta2 = D - 1.
    The paper's factor C(D-1, d1) * (deg1 * deg2 / (2 deg) - 1) is this integer over 2 deg.
    """
    return comb0(db - 1, d1) * ((d1 + 1) * (db - d1) - 2 * (db + 1))


def splitting_term(
    engine: GWEngine, beta: DivisorClass, beta1: DivisorClass, beta2: DivisorClass
) -> Fraction:
    """Contribution of one ordered splitting beta1 + beta2 = beta, with N read through `n_beta`.

    `c_beta` sums the same terms over the splitting orbit rows; this is
    the term of one pair, weight * `_boundary_factor` over 2 deg, for
    reference sums over `GWEngine.splittings`."""
    if Fraction is None:
        _import_fraction()
    if beta1 + beta2 != beta:
        raise ValueError(f"{beta1} + {beta2} is not a splitting of {beta}")
    if beta1.is_zero() or beta2.is_zero():
        raise ValueError("splitting halves must be nonzero")
    weight = engine.n_beta(beta1) * engine.n_beta(beta2) * intersect(beta1, beta2)
    return Fraction(weight * _boundary_factor(delta(beta), delta(beta1)), 2 * beta.anticanonical_degree())


def c_beta(engine: GWEngine, beta: DivisorClass) -> CuspResult:
    """Number of rational beta-curves through delta(beta) - 1 points with a cusp.

    The first term is ((3 + k) - (9 - k) / deg) * N(beta), with deg = delta + 1
    the anticanonical degree, so deg >= 2 on this domain: one Fraction over
    deg.  The boundary term is the sum of `splitting_term` over the ordered
    splittings, taken over the splitting orbit rows as one integer sum of
    weight * `_boundary_factor`, divided once by 2 deg.  Both stay Fractions;
    their sum must be an integer, or the count raises."""
    if any(mi < 0 for mi in beta.m):
        raise ValueError(f"class {beta} has a negative multiplicity; all m_i >= 0 required")
    db = delta(beta)
    if db < 1:
        raise ValueError(f"class {beta} has delta = {db} < 1")
    n = engine.n_beta(beta)
    if Fraction is None:
        _import_fraction()
    ft = Fraction(((3 + beta.k) * (db + 1) - (9 - beta.k)) * n, db + 1)
    # the boundary sum is the same for every permutation of beta, so it is
    # kept per canonical class.  It reads the weights of every splitting
    # orbit, `GWEngine._orbit_data`: {(d1, delta1): sum of size * N1 * N2 * (beta1.beta2)},
    # a swapped orbit adding at its own half.  Each weight adds the integer
    # w * `_boundary_factor(db, delta1)`, and the sum is divided by 2 deg once.
    # It is not keyed by the Weyl-reduced class, as N is: the formula is not
    # invariant at the domain edge, where a class such as 2;2,2 reduces to
    # one with a negative m_i, so a reduced key would change which table
    # rows are skipped
    key = canonical_form(beta)
    bt = engine.cusp_boundary.get(key)
    if bt is None:
        terms = (w * _boundary_factor(db, d1) for (_, d1), w in engine._orbit_data(key).items())
        bt = engine.cusp_boundary[key] = Fraction(sum(terms), 2 * (db + 1))
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

