"""Counts of rational curves with one cusp, in exact rational arithmetic.

For a class beta with all m_i >= 0 the cuspidal count is a first term
proportional to N_beta plus a sum over ordered splittings beta1 + beta2 =
beta.  Both pieces can be fractional on their own; the total is always an
integer and is asserted to be one before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .gw import GWEngine, InconsistentRelationError, comb0
from .lattice import DivisorClass, canonical_form, delta, intersect


@dataclass
class CuspResult:
    value: int
    valid: bool
    first_term: Fraction
    boundary_term: Fraction
    n: int  # N_beta, which the first term is proportional to
    warnings: list[str] = field(default_factory=list)


def first_term(engine: GWEngine, beta: DivisorClass) -> Fraction:
    """((3 + k) - (9 - k) / deg) * N_beta, with deg the anticanonical degree."""
    return _first_factor(beta) * engine.n_beta(beta)


def _first_factor(beta: DivisorClass) -> Fraction:
    """(3 + k) - (9 - k) / deg, the first term over N_beta; deg must be positive."""
    deg = beta.anticanonical_degree()
    if deg == 0:
        raise ValueError(f"class {beta} has anticanonical degree 0: formula divides by it")
    if deg < 0:
        raise ValueError(f"class {beta} has negative anticanonical degree {deg}")
    return Fraction(3 + beta.k) - Fraction(9 - beta.k, deg)


def splitting_term(
    engine: GWEngine, beta: DivisorClass, beta1: DivisorClass, beta2: DivisorClass
) -> Fraction:
    """Contribution of one ordered splitting beta1 + beta2 = beta."""
    if beta1 + beta2 != beta:
        raise ValueError(f"{beta1} + {beta2} is not a splitting of {beta}")
    if beta1.is_zero() or beta2.is_zero():
        raise ValueError("splitting halves must be nonzero")
    weight = (
        comb0(delta(beta) - 1, delta(beta1))
        * engine.n_beta(beta1)
        * engine.n_beta(beta2)
        * intersect(beta1, beta2)
    )
    bracket = Fraction(
        beta1.anticanonical_degree() * beta2.anticanonical_degree(),
        2 * beta.anticanonical_degree(),
    ) - 1
    return weight * bracket


def c_beta(engine: GWEngine, beta: DivisorClass) -> CuspResult:
    """Number of rational beta-curves through delta(beta) - 1 points with a cusp."""
    if any(mi < 0 for mi in beta.m):
        raise ValueError(f"class {beta} has a negative multiplicity; all m_i >= 0 required")
    if delta(beta) < 1:
        raise ValueError(f"class {beta} has delta = {delta(beta)} < 1")
    n = engine.n_beta(beta)  # c_beta's domain keeps deg >= 2, so _first_factor cannot raise
    ft = _first_factor(beta) * n
    # the boundary sum is the same for every permutation of beta, so it is
    # kept per canonical class, and each stabiliser orbit of splittings
    # counts once, weighted by its size; splittings with a vanishing half
    # contribute 0, so the filtered sum agrees with the unrestricted one.
    # An orbit listed with its swap counts twice: splitting_term is symmetric,
    # as delta1 + delta2 = delta - 1 gives C(delta-1, delta1) = C(delta-1, delta2).
    # It is not keyed by the Weyl-reduced class, as N is: the formula is not
    # invariant at the domain edge, where a class such as 2;2,2 reduces to
    # one with a negative m_i, so a reduced key would change which table
    # rows are skipped
    key = canonical_form(beta)
    bt = engine.cusp_boundary.get(key)
    if bt is None:
        bt = sum(
            (
                (2 * size if swap else size) * splitting_term(engine, key, b1, b2)
                for b1, b2, size, swap in engine.splitting_orbits(key)
            ),
            Fraction(0),
        )
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

