"""Mixup barcodes for pairs of filtered complexes.

Given a subcomplex L of a filtered complex K, every persistence bar [b, d)
of L splits at the point d' where the class dies inside K: the image part
[b, d') survives the inclusion, the mixup part [d', d) is homology of L
that K has already destroyed. This package computes the split for
Vietoris-Rips pairs built from point clouds and for explicit filtered
complexes, and derives summary statistics, pairwise class matrices and
(layer, step) profiles from it.

`import mixbar` executes no submodule: each public name, and each
submodule such as `mixbar.oracle`, is imported on first use (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, each under the submodule that defines it.
_EXPORTS = {
    "cloud": ("LabeledPointCloud", "PointCloud", "pairwise_distances"),
    "errors": ("InputError",),
    "filtration": ("parse_explicit_pair",),
    "oracle": ("barcode_from_ranks", "rank_function"),
    "plot": ("plot_mixup_barcode",),
    "reduction": ("INF", "mixup_barcode_indices"),
    "rips": ("build_rips_pair", "rips_pair_from_distances"),
    "stats": ("MixupBarcode", "StatsConfig", "compute_mixup_barcode", "mixup_profile",
              "pairwise_matrix", "total_mixup"),
    "subsample": ("k_medoids", "k_medoids_indices"),
    "verify": ("random_rips_instance", "run_fuzz"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "output"}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # binds it in the package
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
