"""Fairness-aware graph transformer toolkit.

Builds two graph-information encodings (a structure matrix from adjacency
eigenvectors and sensitive-group hop tokens), trains a small per-node token
transformer on them, scores utility and statistical-parity fairness, and
ships a verification harness that numerically certifies the encoding
guarantees against independent brute-force oracles.
"""

__version__ = "0.1.0"

from .data import Graph, Split, SplitSpec, binarize_labels, load_dataset, load_manifest, make_split
from .errors import FairformerError
from .metrics import EvalReport, statistical_parity
from .spectral import SpectralBasis, fuse, laplacian_small_eigenpairs, top_magnitude_eigenpairs
from .hops import HopStack, build_group_graph, hop_aggregate, hop_aggregate_adjacency

__all__ = [
    "Graph", "Split", "SplitSpec", "binarize_labels", "load_dataset", "load_manifest",
    "make_split", "FairformerError", "EvalReport", "statistical_parity", "SpectralBasis",
    "fuse", "laplacian_small_eigenpairs", "top_magnitude_eigenpairs", "HopStack",
    "build_group_graph", "hop_aggregate", "hop_aggregate_adjacency", "__version__",
]
