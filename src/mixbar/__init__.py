"""Mixup barcodes for pairs of filtered complexes.

Given a subcomplex L of a filtered complex K, every persistence bar [b, d)
of L splits at the point d' where the class dies inside K: the image part
[b, d') survives the inclusion, the mixup part [d', d) is homology of L
that K has already destroyed. This package computes the split for
Vietoris-Rips pairs built from point clouds and for explicit filtered
complexes, and derives summary statistics, pairwise class matrices and
(layer, step) profiles from it.
"""

from .cloud import LabeledPointCloud, PointCloud, pairwise_distances
from .errors import InputError
from .filtration import parse_explicit_pair
from .oracle import barcode_from_ranks, rank_function
from .plot import plot_mixup_barcode
from .reduction import INF, MixupTriple, mixup_barcode_indices
from .rips import build_rips_pair, rips_pair_from_distances
from .stats import (
    MixupBarcode,
    StatsConfig,
    compute_mixup_barcode,
    mixup_percentage,
    mixup_profile,
    pairwise_matrix,
    total_mixup,
)
from .subsample import k_medoids, k_medoids_indices
from .verify import random_rips_instance, run_fuzz

__version__ = "0.1.0"

__all__ = [
    "INF",
    "InputError",
    "LabeledPointCloud",
    "MixupBarcode",
    "MixupTriple",
    "PointCloud",
    "StatsConfig",
    "barcode_from_ranks",
    "build_rips_pair",
    "compute_mixup_barcode",
    "k_medoids",
    "k_medoids_indices",
    "mixup_barcode_indices",
    "mixup_percentage",
    "mixup_profile",
    "pairwise_distances",
    "pairwise_matrix",
    "parse_explicit_pair",
    "plot_mixup_barcode",
    "random_rips_instance",
    "rank_function",
    "rips_pair_from_distances",
    "run_fuzz",
    "total_mixup",
]
