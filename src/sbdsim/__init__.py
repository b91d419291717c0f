"""Spatial birth-death simulation with self-regulation certificates."""

__version__ = "0.1.0"

from .certificate import certify, verify_certificate
from .dynamics import ModelSpec, run
from .geometry import Torus, sample_poisson
from .kernels import gaussian, triangular
from .statistics import build_moment_report

__all__ = [name for name in dir() if not name.startswith("_")]
