"""Exact-computation laboratory for the Edwards-Anderson Ising spin glass on
half-plane cylinder boxes: ground state pairs, excitations, critical values,
domain walls, and seeded disorder ensembles."""

from .disorder import (CouplingConfig, DistributionSpec, sample_couplings,
                       super_satisfy, supersatisfied_threshold)
from .errors import (BudgetExceededError, ConfigError, EaglassError,
                     HardAssertionFailure, SampleError)
from .lattice import BoxGeometry, DualGeometry, build_box, build_dual
from .solver import Clamp, SpinPair, brute_force, energy, solve, verify_gsp

__all__ = [
    "BoxGeometry", "DualGeometry", "build_box", "build_dual",
    "DistributionSpec", "CouplingConfig", "sample_couplings",
    "supersatisfied_threshold", "super_satisfy",
    "Clamp", "SpinPair", "energy", "solve", "brute_force", "verify_gsp",
    "EaglassError", "BudgetExceededError", "ConfigError",
    "HardAssertionFailure", "SampleError",
]

__version__ = "0.1.0"
