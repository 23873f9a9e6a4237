"""Exact exponential Riordan arrays for sigmoid function pairs.

The package computes, entirely over the rationals: truncated power series
(`series`), exponential Riordan arrays and their group law (`riordan`),
production (Stieltjes) matrices by two independent routes (`production`),
monic orthogonal-polynomial recurrences, moments, Hankel transforms and
J-fractions (`orthopoly`), a catalog of named sigmoid pairs (`catalog`),
and a CLI (`cli`).
"""

__version__ = "0.1.0"
