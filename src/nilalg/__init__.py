"""Exact computation of nilpotency degrees for the identity x^n = 0,
bound evaluation, and finite generating sets for matrix invariants."""

from . import bounds, ideal, invariants, polarize, rewrite4, words
from .formal import FormalSum, parse_sum
from .ideal import (
    component_basis,
    contains,
    equiv_zero,
    mirror,
    nilpotency_degree,
    quotient_dimension,
    reduce,
    substitute_unit,
)
from .polarize import t_theta

__version__ = "0.1.0"
