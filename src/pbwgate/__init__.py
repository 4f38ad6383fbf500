"""Exact-arithmetic engine deciding when U(g)/U(g)h is isomorphic to S(n).

Given an inclusion of finite-dimensional Lie algebras h in g with quotient
module n, the package computes the obstruction class alpha, decides its
vanishing, builds the explicit splitting S(n) -> U(g)/U(g)h when it exists,
and cross-checks every verdict against a brute-force equivariant-section
oracle.  All arithmetic is exact rational.  The package root re-exports
nothing: import from the submodules (``pbwgate.lie``, ``pbwgate.engine``, ...).
"""

__version__ = "0.1.0"
