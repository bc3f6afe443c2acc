"""Tools for studying neighbor joining as a piecewise-linear classifier.

The pairwise distances of n taxa are flattened into a vector in
R^(n(n-1)/2).  Each step of neighbor joining minimizes a linear
functional of that vector, so the set of inputs leading to one
sequence of cherry picks is a polyhedral cone.  This package builds
those cones exactly, enumerates them for five and six taxa, relates
the first step to the normal fan of a vertex polytope, measures cone
solid angles by Monte Carlo, and runs robustness experiments that
classify noisy distance estimates by the distance to the nearest
differently-labeled cone.
"""

__version__ = "0.1.0"

from .distvec import DissimilarityVector, index_to_pair, num_pairs, pair_to_index
from .trees import TreeTopology
from .nj import CherryTrace, nj_run, q_criterion
from .cones import NJCone, cone_from_trace, first_step_cone, irredundant, membership
from .census import ConeCensus, census, solid_angles_mc, stabilizer
from .projection import distance_to_wrong, distances_to_wrong, nearest_point
from .simulate import TreeModel, build_model, run_experiment, tree_metric

__all__ = [
    "__version__",
    "DissimilarityVector",
    "index_to_pair",
    "num_pairs",
    "pair_to_index",
    "TreeTopology",
    "CherryTrace",
    "nj_run",
    "q_criterion",
    "NJCone",
    "cone_from_trace",
    "first_step_cone",
    "irredundant",
    "membership",
    "ConeCensus",
    "census",
    "solid_angles_mc",
    "stabilizer",
    "distance_to_wrong",
    "distances_to_wrong",
    "nearest_point",
    "TreeModel",
    "build_model",
    "run_experiment",
    "tree_metric",
]
