"""Circumcentered-reflection solvers for two-set convex feasibility problems."""

__version__ = "0.1.0"
