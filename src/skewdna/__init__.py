"""Skew cyclic codes over GF(4) + v*GF(4) and the DNA codes they generate."""

from . import algebra, analysis, codes, dna, skewpoly

__version__ = "0.1.0"

__all__ = ["algebra", "skewpoly", "codes", "dna", "analysis", "verify", "__version__"]
