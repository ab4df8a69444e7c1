"""Exact computations with twisted complexes, spectral sequences and
derived A-infinity algebras over QQ or a prime field."""

from .linalg import Field, GF, QQ, Matrix, Subquotient, induced_map
from .bigraded import BigradedModule, BigradedMap

__all__ = [
    "Field", "GF", "QQ", "Matrix", "Subquotient", "induced_map",
    "BigradedModule", "BigradedMap",
]
