"""Command-line interface.

Subcommands: mixup, pairwise, profile, subsample, verify, plot. Exit codes:
0 on success, 1 when verification finds a mismatch, 2 on input errors.
All outputs are deterministic: the same config and input bytes give the
same output bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# `import numpy` loads OpenBLAS, which starts one worker per extra CPU, and
# each worker busy-waits about 0.13 s before it sleeps. mixbar makes no BLAS
# call (tests/test_package.py guards that), so the command pins OpenBLAS to
# one thread before its first numpy import, unless the variable is set. On a
# 2-CPU VM that took the CPU time of the benchmark's explicit_pair run from
# 0.49 to 0.32 s, at the same wall time. The library modules leave the
# caller's threads alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cloud import (
    METRICS,
    LabeledPointCloud,
    data_lines,
    load_distance_matrix,
    load_labeled_point_cloud,
    load_point_cloud,
    read_text,
)
from .errors import InputError
from .filtration import FilteredPair, parse_explicit_pair
from .output import Table, csv_lines, float_from_json, json_dumps
from .plot import plot_mixup_barcode
from .rips import build_rips_pair, check_rips_params, rips_pair_from_distances
from .stats import (
    MixupBarcode,
    StatsConfig,
    check_clamp,
    compute_mixup_barcode,
    mean_mixup_percentage,
    mixup_profile,
    pairwise_matrix,
    total_image_persistence,
    total_mixup,
    total_mixup_percentage,
    total_persistence,
)
from .subsample import check_budget, check_sizes, k_medoids


# --metric matrix is an input format of the CLI: the file is a distance matrix
# rather than coordinates, read by load_distance_matrix.
INPUT_METRICS = METRICS + ("matrix",)

# Options that describe a point-cloud input; verify without an input fuzzes its
# own instances, and an explicit --filtration file is the complex itself.
INPUT_OPTIONS = (
    ("--b", "b"), ("--rmax", "r_max"), ("--kmax", "k_max"), ("--metric", "metric"), ("--split", "split"),
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixbar",
        description="Mixup barcodes: how early the ambient complex destroys the "
        "persistent homology of a subcomplex.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rips(p, metrics, required=False):
        p.add_argument("--metric", choices=metrics, default="euclidean")
        p.add_argument("--rmax", type=float, dest="r_max", required=required, help="Rips diameter threshold, finite and > 0")
        p.add_argument("--kmax", type=int, dest="k_max", default=2, help="highest homology degree the construction resolves (default 2)")

    def add_pair_input(p):
        p.add_argument("--a", help="point cloud A (or the joint distance matrix with --metric matrix)")
        p.add_argument("--b", help="point cloud B")
        p.add_argument("--filtration", help="explicit filtration file instead of point clouds")
        add_rips(p, INPUT_METRICS)
        p.add_argument("--split", type=int, help="with --metric matrix: number of leading rows that form A")
        p.set_defaults(metric=None, k_max=None)  # set only when given; see _load_pair

    def add_clamp(p):
        p.add_argument("--clamp", type=float, help="horizon for infinite bars (default: rmax, or the largest value of an explicit filtration)")

    def add_degrees_out(p):
        p.add_argument("--degrees", help="comma-separated homology degrees, e.g. 0,1")
        p.add_argument("--out", help="output path (default: stdout)")

    def add_stats(p, a_help):
        p.add_argument("--a", required=True, help=a_help)
        add_rips(p, METRICS, required=True)
        p.add_argument("--subsample-a", type=int, default=StatsConfig.subsample_a, dest="subsample_a")
        p.add_argument("--subsample-b", type=int, default=StatsConfig.subsample_b, dest="subsample_b")
        add_clamp(p)
        add_degrees_out(p)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("mixup", help="mixup barcode of A inside A ∪ B")
    add_pair_input(p)
    add_clamp(p)
    add_degrees_out(p)
    p.add_argument("--format", choices=("json", "csv", "svg"), default="json")

    p = sub.add_parser("pairwise", help="class-against-class mixup matrix of a labeled cloud")
    add_stats(p, "labeled point cloud")

    p = sub.add_parser("profile", help="mixup profile over a (layer, step) series of labeled clouds")
    add_stats(p, "series manifest: one `layer step path` line per labeled cloud")
    p.add_argument("--profile-aggregate", choices=("total", "mean"), default="total", dest="profile_aggregate")

    p = sub.add_parser("subsample", help="k-medoids point selection")
    p.add_argument("--a", required=True, help="point cloud (or distance matrix with --metric matrix)")
    p.add_argument("--metric", choices=INPUT_METRICS, default="euclidean")
    p.add_argument("--subsample-a", type=int, required=True, dest="subsample_a", help="number of medoids")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", help="cross-check the reduction against the rank oracle")
    add_pair_input(p)
    add_degrees_out(p)
    p.add_argument("--instances", type=int, default=200, help="random instances when no input is given (default 200)")
    p.add_argument("--seed", type=int, default=0, help="seed of the random instances (default 0)")

    p = sub.add_parser("plot", help="render a mixup result JSON as an SVG barcode")
    p.add_argument("--results", required=True, help="JSON produced by the mixup subcommand")
    p.add_argument("--degrees", help="single degree to plot (default: lowest present)")
    p.add_argument("--out", help="output path (default: stdout)")
    return parser


def _parse_degrees(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        degrees = sorted({int(part) for part in text.split(",") if part.strip() != ""})
    except ValueError:
        raise InputError(f"cannot parse degrees {text!r}; expected comma-separated integers") from None
    if not degrees:
        raise InputError("empty degree list")
    if any(d < 0 for d in degrees):
        raise InputError("degrees must be non-negative")
    return degrees


def _load_pair(args: argparse.Namespace) -> tuple[FilteredPair, list[int]]:
    """Parse --filtration, or build the Rips pair of --a and --b; return it
    with --degrees, by default 0..max_dim of an explicit pair and 0..--kmax
    of a Rips build, whose degrees pass --kmax before any file is read.

    Fills in the defaults of --metric and --kmax, which the parser leaves
    unset so that an option given with --filtration can be told apart.
    """
    if args.filtration is not None:
        if args.a or args.b:
            raise InputError("give either --filtration or point clouds, not both")
        _reject_input_options(args, "--filtration is the complex itself")
    args.metric = args.metric or "euclidean"
    args.k_max = 2 if args.k_max is None else args.k_max
    if args.split is not None and args.metric != "matrix":
        raise InputError("--split marks A in a joint distance matrix; it needs --metric matrix")
    if args.filtration is not None:
        fp = parse_explicit_pair(read_text(args.filtration))
        return fp, args.degrees or list(range(max(fp.max_dim, 0) + 1))
    if args.a is None:
        raise InputError("an input is required: --a (with optional --b) or --filtration")
    if args.r_max is None:
        raise InputError("--rmax is required for point-cloud input")
    check_rips_params(args.r_max, args.k_max)
    degrees = _within_kmax(args, args.degrees or list(range(args.k_max + 1)))
    if args.metric == "matrix":
        if args.b is not None:
            raise InputError("--metric matrix takes a single joint matrix via --a; use --split to mark A")
        dist = load_distance_matrix(args.a)
        n = dist.shape[0]
        if n == 0:
            raise InputError("empty distance matrix")
        n_a = args.split if args.split is not None else n
        return rips_pair_from_distances(dist, n_a, args.r_max, args.k_max), degrees
    a = load_point_cloud(args.a, args.metric)
    b = load_point_cloud(args.b, args.metric) if args.b is not None else None
    return build_rips_pair(a, b, r_max=args.r_max, k_max=args.k_max), degrees


def _reject_input_options(args: argparse.Namespace, why: str) -> None:
    """The rule of a command whose input is not a point cloud: it reads none
    of the options that describe one."""
    given = [flag for flag, dest in INPUT_OPTIONS if getattr(args, dest) is not None]
    if given:
        raise InputError(f"{why}; it reads no {', '.join(given)}")


def _one_degree(degrees: list[int], why: str) -> None:
    """The rule of every output that holds a single degree."""
    if len(degrees) != 1:
        raise InputError(f"{why}; pass --degrees with one value")


def _within_kmax(args: argparse.Namespace, degrees: list[int]) -> list[int]:
    """The rule of every Rips build: --kmax bounds the degrees it resolves."""
    if any(d > args.k_max for d in degrees):
        raise InputError(f"degrees {degrees} exceed --kmax {args.k_max}; raise --kmax")
    return degrees


# The fields of a triple in JSON and CSV, in order.
TRIPLE_KEYS = ("birth", "death_image", "death")


def _degree_entry(bc: MixupBarcode) -> dict:
    return {
        "triples": Table(
            (*TRIPLE_KEYS, "zero_persistence"), [(*row, row[2] == row[0]) for row in bc.values.tolist()]
        ),
        "index_triples": Table(TRIPLE_KEYS, bc.index_triples),
        "statistics": {
            "bars": len(bc.values),
            "total_mixup": total_mixup(bc),
            "total_mixup_percentage": total_mixup_percentage(bc),
            "mean_mixup_percentage": mean_mixup_percentage(bc),
            "total_persistence": total_persistence(bc),
            "total_image_persistence": total_image_persistence(bc),
            "clamp": bc.clamp,
        },
    }


def _params(args: argparse.Namespace, **extra) -> dict:
    """The JSON `params` echo: the options a command read, in the order the
    parser defines them, less the command name and the output options."""
    skip = ("command", "degrees", "out", "format")
    return {k: v for k, v in vars(args).items() if k not in skip} | extra


def _write(args: argparse.Namespace, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_mixup(args: argparse.Namespace) -> int:
    check_clamp(args.clamp)
    fp, degrees = _load_pair(args)
    if args.clamp is not None:
        clamp = args.clamp
    elif args.filtration is not None:
        clamp = float(fp.value.max()) if fp.n else 0.0
    else:
        clamp = args.r_max
    if args.format == "svg":
        _one_degree(degrees, "--format svg plots a single degree")
        _write(args, plot_mixup_barcode(compute_mixup_barcode(fp, degrees[0], clamp)))
        return 0
    barcodes = {k: compute_mixup_barcode(fp, k, clamp) for k in degrees}
    if args.format == "csv":
        rows = [["degree", *TRIPLE_KEYS, "zero_persistence"]]
        for k in degrees:
            rows += [[k, b, dp, d, int(d == b)] for b, dp, d in barcodes[k].values.tolist()]
        _write(args, csv_lines(rows))
        return 0
    result = {
        "command": "mixup",
        "params": _params(args, degrees=degrees),
        "cells": fp.n,
        "cells_in_subcomplex": int(fp.in_l.sum()),
        "degrees": {str(k): _degree_entry(barcodes[k]) for k in degrees},
    }
    _write(args, json_dumps(result))
    return 0


def _stats_setup(args: argparse.Namespace, default_degrees: list[int]):
    """The settings and degrees of pairwise and profile, checked before any
    input is read."""
    check_rips_params(args.r_max, args.k_max)
    sconf = StatsConfig(
        args.r_max, subsample_a=args.subsample_a, subsample_b=args.subsample_b, clamp=args.clamp
    )
    degrees = _within_kmax(args, args.degrees if args.degrees is not None else default_degrees)
    if args.format == "csv":
        _one_degree(degrees, "CSV output holds a single degree")
    return sconf, degrees


def _write_grid(args, degrees, corner, rows, cols, grids, axes) -> None:
    """Write one grid of values per degree, rows by cols.

    CSV holds the single degree's grid under a header of `corner` and the
    column keys; JSON holds every degree's grid after the `axes` entries.
    """
    if args.format == "csv":
        grid = grids[degrees[0]]
        lines = [[corner] + [str(c) for c in cols]]
        lines += [[str(r)] + [float(v) for v in grid[i]] for i, r in enumerate(rows)]
        _write(args, csv_lines(lines))
        return
    result = {
        "command": args.command,
        "params": _params(args, degrees=degrees),
        **axes,
        "degrees": {str(k): [[float(v) for v in row] for row in grids[k]] for k in degrees},
    }
    _write(args, json_dumps(result))


def cmd_pairwise(args: argparse.Namespace) -> int:
    sconf, degrees = _stats_setup(args, [0])
    cloud = load_labeled_point_cloud(args.a, args.metric)
    matrices = {}
    for k in degrees:
        labels, matrices[k] = pairwise_matrix(cloud, k, sconf)
    _write_grid(args, degrees, "label", labels, labels, matrices, {"labels": labels})
    return 0


def _load_manifest(path: str, metric: str) -> dict[tuple[int, int], LabeledPointCloud]:
    base = os.path.dirname(os.path.abspath(path))
    series: dict[tuple[int, int], LabeledPointCloud] = {}
    for lineno, line in data_lines(read_text(path)):
        parts = line.split(None, 2)
        if len(parts) != 3:
            raise InputError(f"manifest line {lineno}: expected `layer step path`")
        try:
            layer, step = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"manifest line {lineno}: layer and step must be integers") from None
        if (layer, step) in series:
            raise InputError(f"manifest line {lineno}: duplicate entry for ({layer}, {step})")
        series[(layer, step)] = load_labeled_point_cloud(os.path.join(base, parts[2]), metric)
    if not series:
        raise InputError("empty profile manifest")
    return series


def cmd_profile(args: argparse.Namespace) -> int:
    sconf, degrees = _stats_setup(args, [0, 1])
    series = _load_manifest(args.a, args.metric)
    profiles = {k: mixup_profile(series, k, sconf, args.profile_aggregate) for k in degrees}
    first = profiles[degrees[0]]
    _write_grid(
        args, degrees, "layer", first.layers, first.steps,
        {k: p.values for k, p in profiles.items()},
        {"layers": list(first.layers), "steps": list(first.steps)},
    )
    return 0


def cmd_subsample(args: argparse.Namespace) -> int:
    check_sizes(args.subsample_a)
    if args.metric == "matrix":
        data = load_distance_matrix(args.a)
        n = len(data)
    else:
        data = load_point_cloud(args.a, args.metric)
        n = data.n_points
    check_budget(n, {"--subsample-a": args.subsample_a})
    # k_medoids checks a matrix file, keeps every point at a size that covers
    # them with no distance computed, and computes a cloud's matrix, which
    # needs no check; an empty cloud is its input error
    sel = k_medoids(data, args.subsample_a)
    indices, cost = list(sel.indices), sel.cost
    if args.format == "json":
        result = {
            "command": "subsample",
            "params": _params(args),
            "indices": indices,
            "cost": cost,
        }
        _write(args, json_dumps(result))
        return 0
    _write(args, "\n".join(str(i) for i in indices) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import check_instance, run_fuzz  # only verify loads the fuzzer and oracle
    if args.a is not None or args.filtration is not None:
        checked, problems = 1, check_instance(*_load_pair(args))
    else:
        _reject_input_options(args, "verify without --a or --filtration fuzzes its own instances")
        if args.instances <= 0:
            raise InputError(f"--instances must be positive, got {args.instances}")
        if args.seed < 0:
            raise InputError(f"--seed must be non-negative, got {args.seed}")
        checked, problems = run_fuzz(args.instances, seed=args.seed, degrees=args.degrees)
    summary = f"{len(problems)} mismatch(es)" if problems else "all match"
    _write(args, "".join(p + "\n" for p in problems) + f"checked {checked} instance(s): {summary}\n")
    return 1 if problems else 0


def cmd_plot(args: argparse.Namespace) -> int:
    try:
        data = json.loads(read_text(args.results))
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.results} is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or "degrees" not in data or data.get("command") != "mixup":
        raise InputError("plot expects the JSON written by the mixup subcommand")
    entries = {}  # degree -> (b, d', d) rows and clamp; every entry is read
    try:
        for key, entry in data["degrees"].items():
            if type(entry["triples"]) is not list:
                raise TypeError("triples is not a list")
            rows = [[float_from_json(t[f]) for f in TRIPLE_KEYS] for t in entry["triples"]]
            clamp = entry["statistics"].get("clamp")
            entries[int(key)] = rows, None if clamp is None else float_from_json(clamp)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{args.results} is not a mixup result: {type(exc).__name__} {exc}") from None
    available = sorted(entries)
    if not available:
        raise InputError("results hold no degrees")
    degrees = args.degrees or available[:1]
    _one_degree(degrees, "plot renders a single degree")
    degree = degrees[0]
    if degree not in available:
        raise InputError(f"degree {degree} not present in results (has {available})")
    rows, clamp = entries[degree]
    _write(args, plot_mixup_barcode(MixupBarcode(degree, (), rows, clamp)))
    return 0


COMMANDS = {
    "mixup": cmd_mixup,
    "pairwise": cmd_pairwise,
    "profile": cmd_profile,
    "subsample": cmd_subsample,
    "verify": cmd_verify,
    "plot": cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "degrees"):
            args.degrees = _parse_degrees(args.degrees)
        return COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
