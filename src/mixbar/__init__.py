"""Mixup barcodes for pairs of filtered complexes.

Given a subcomplex L of a filtered complex K, every persistence bar [b, d)
of L splits at the point d' where the class dies inside K: the image part
[b, d') survives the inclusion, the mixup part [d', d) is homology of L
that K has already destroyed. This package computes the split for
Vietoris-Rips pairs built from point clouds and for explicit filtered
complexes, and derives summary statistics, pairwise class matrices and
(layer, step) profiles from it.
"""

from .cloud import (
    LabeledPointCloud,
    PointCloud,
    load_distance_matrix,
    load_labeled_point_cloud,
    load_point_cloud,
    pairwise_distances,
    parse_distance_matrix,
    parse_point_table,
)
from .errors import InputError
from .filtration import (
    Cell,
    FilteredPair,
    format_explicit_pair,
    parse_explicit_pair,
    restrict_to_L,
)
from .oracle import RankFunction, barcode_from_ranks, rank_function
from .plot import PlotStyle, plot_mixup_barcode
from .reduction import (
    INF,
    IndexMixupTriple,
    ValueMixupTriple,
    image_row_order,
    mixup_barcode_indices,
    to_value_barcode,
)
from .rips import build_rips_pair, rips_pair_from_distances
from .stats import (
    MixupBarcode,
    ProfileResult,
    StatsConfig,
    clamp_triple,
    compute_mixup_barcode,
    interaction_barcode,
    mean_mixup_percentage,
    mixup,
    mixup_percentage,
    mixup_profile,
    pairwise_matrix,
    total_image_persistence,
    total_mixup,
    total_mixup_percentage,
    total_persistence,
)
from .subsample import MedoidSelection, k_medoids, k_medoids_indices
from .verify import check_instance, random_rips_instance, run_fuzz

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "FilteredPair",
    "INF",
    "IndexMixupTriple",
    "InputError",
    "LabeledPointCloud",
    "MedoidSelection",
    "MixupBarcode",
    "PlotStyle",
    "PointCloud",
    "ProfileResult",
    "RankFunction",
    "StatsConfig",
    "ValueMixupTriple",
    "barcode_from_ranks",
    "build_rips_pair",
    "check_instance",
    "clamp_triple",
    "compute_mixup_barcode",
    "format_explicit_pair",
    "image_row_order",
    "interaction_barcode",
    "k_medoids",
    "k_medoids_indices",
    "load_distance_matrix",
    "load_labeled_point_cloud",
    "load_point_cloud",
    "mean_mixup_percentage",
    "mixup",
    "mixup_barcode_indices",
    "mixup_percentage",
    "mixup_profile",
    "pairwise_distances",
    "pairwise_matrix",
    "parse_distance_matrix",
    "parse_explicit_pair",
    "parse_point_table",
    "plot_mixup_barcode",
    "random_rips_instance",
    "rank_function",
    "restrict_to_L",
    "rips_pair_from_distances",
    "run_fuzz",
    "to_value_barcode",
    "total_image_persistence",
    "total_mixup",
    "total_mixup_percentage",
    "total_persistence",
]
