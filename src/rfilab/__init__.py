"""rfilab: random function iterations on geodesic spaces, measured in Wasserstein-2.

The package simulates Markov chains built from randomly selected fixed-point
operators, computes exact optimal-transport distances between the resulting
particle ensembles, and estimates the regularity constants (firm
nonexpansiveness violations, Markov transport discrepancy, metric
subregularity) that govern convergence rates to invariant measures.
"""

__version__ = "0.1.0"

from .geometry import EuclideanSpace, SpiderPoint, SpiderSpace
from .operators import OperatorFamily, SmoothTerm
from .rfi import ChainConfig, Trajectory, run_ensemble
from .transport import Coupling, Ensemble, wasserstein

__all__ = [
    "__version__",
    "EuclideanSpace",
    "SpiderSpace",
    "SpiderPoint",
    "OperatorFamily",
    "SmoothTerm",
    "ChainConfig",
    "Trajectory",
    "run_ensemble",
    "Ensemble",
    "Coupling",
    "wasserstein",
]
