"""Axisymmetric flow with swirl outside a cylinder: solver and estimate harness."""

__version__ = "0.1.0"
