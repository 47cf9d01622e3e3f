"""Exact combinatorics of the permutahedron: Bruhat order, lattice path
matroid flags, and the classification of its hyperplane splits into Bruhat
interval polytopes."""

from . import lpm, matroid, perm, polytope, splits, subdivision  # noqa: F401

__version__ = "0.1.0"
