"""Exact curve counts on the plane blown up at up to 8 generic points.

Rational curve counts come from seeded associativity recursions over the
integer homology lattice; cuspidal counts from a closed formula on top of
them.  Everything is exact: integers and fractions, no floats.
"""

from .cusp import CuspResult, c_beta, splitting_term
from .gw import (
    CACHE_ENV_VAR,
    GWEngine,
    InconsistentRelationError,
    WDVVRelation,
    divisor_pool,
)
from .lattice import (
    MAX_BLOWUPS,
    DivisorClass,
    SurfaceModel,
    arithmetic_genus,
    canonical_form,
    cremona_image,
    delta,
    format_class_literal,
    intersect,
    minus_one_classes,
    parse_class_literal,
)

__all__ = [
    "CACHE_ENV_VAR",
    "CuspResult",
    "DivisorClass",
    "GWEngine",
    "InconsistentRelationError",
    "MAX_BLOWUPS",
    "SurfaceModel",
    "WDVVRelation",
    "arithmetic_genus",
    "c_beta",
    "canonical_form",
    "cremona_image",
    "delta",
    "divisor_pool",
    "format_class_literal",
    "intersect",
    "minus_one_classes",
    "parse_class_literal",
    "splitting_term",
]

__version__ = "0.1.0"

