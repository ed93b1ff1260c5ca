"""Exact 2-generator pairs of simple Lie algebras and free dense subgroup certificates."""

__version__ = "0.1.0"
