"""Streaming subspace estimation via incremental gradient steps on the
Grassmannian, with full, Gaussian-compressive, and entry-wise sampling,
plus closed-form convergence-bound evaluators and a Monte Carlo harness.
"""

from . import datagen, grouse, harness, metrics, numerics, sampling, theory

__all__ = [
    "datagen",
    "grouse",
    "harness",
    "metrics",
    "numerics",
    "sampling",
    "theory",
]

__version__ = "0.1.0"
