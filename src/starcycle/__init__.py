"""Kontsevich star products with harmonic angles: exact polyvector algebra,
graph weights by Monte Carlo, and cyclicity/closedness checks.

The sampler (the weights submodule and the names in _SAMPLER) needs
numpy, so __getattr__ imports it on first use."""

import importlib

from .poly import Polynomial
from .polyvector import PolyVector, VolumeForm
from .diffops import PolyDiffOperator
from .graphs import AdmissibleGraph, enumerate_graphs, star_graphs, top_edge_count
from .angles import AngleContext
from .table import WeightEntry, WeightTable
from .star import (
    StarProduct,
    assemble_star,
    check_alpha_independence,
    check_associative,
    check_closed,
    check_cyclic,
    graph_to_operator,
)

__version__ = "0.1.0"

_SAMPLER = ("compute_weight", "default_threads", "halfplane_weight", "mixed_edge_integral")


def __getattr__(name):
    # import_module, not `from . import weights`: the latter asks hasattr of
    # this package, which would call __getattr__ again without end
    if name == "weights" or name in _SAMPLER:
        weights = importlib.import_module(".weights", __name__)
        return weights if name == "weights" else getattr(weights, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

__all__ = [
    "AdmissibleGraph",
    "AngleContext",
    "Polynomial",
    "PolyDiffOperator",
    "PolyVector",
    "StarProduct",
    "VolumeForm",
    "WeightEntry",
    "WeightTable",
    "assemble_star",
    "check_alpha_independence",
    "check_associative",
    "check_closed",
    "check_cyclic",
    "compute_weight",
    "default_threads",
    "enumerate_graphs",
    "graph_to_operator",
    "halfplane_weight",
    "mixed_edge_integral",
    "star_graphs",
    "top_edge_count",
    "__version__",
]
