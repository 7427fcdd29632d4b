"""Span tracing of one `mixbar` run, installed from outside the program.

Each layer's public functions are replaced at the sites that call them:
the names that `mixbar.cli`, `mixbar.stats`, `mixbar.rips` and
`mixbar.cloud` import or define, `mixbar.reduction.reduce`, and the method
`FilteredPair.validate`. A wrapper records a span (name, start, end,
parent) in memory; self time is a span's duration minus that of its child
spans. Counters are taken from the arguments and results of the wrapped
calls after the span has closed, inside a `trace.bookkeeping` span of its
own, so counting never lands in a layer's time. Private helpers such as
`_enumerate_simplices` and `_xor_sorted` are not wrapped: their time is
part of the span that calls them.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from collections import defaultdict

MB = 1e6

STATS_SUMMARY = (
    "total_mixup", "total_mixup_percentage", "mean_mixup_percentage",
    "total_persistence", "total_image_persistence",
)


def _degree_span(args, kwargs) -> str:
    k = args[1] if len(args) > 1 else kwargs["k"]
    return f"reduction.barcode.d{k}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.max_degree = -1
        self.distance_peaks: dict[tuple, int] = {}
        self.missing: list[str] = []
        self.hook_errors: list[str] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def wrap(self, fn, name, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name(args, kwargs) if callable(name) else name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[span][1:3] = start, end
            if hook is not None:
                book = tracer._open("trace.bookkeeping")
                book_start = time.perf_counter()
                try:
                    hook(fn, result, args, kwargs)
                except Exception as exc:  # a counter must never break the run
                    tracer.hook_errors.append(f"{tracer.spans[span][0]}: {exc!r}")
                tracer.stack.pop()
                tracer.spans[book][1:3] = book_start, time.perf_counter()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, module: str, attr: str, name, hook=None) -> None:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{module}.{attr}")
            return
        setattr(owner, attr, self.wrap(fn, name, hook))

    # -- counters -------------------------------------------------------------

    def _count_rips(self, fn, fp, args, kwargs) -> None:
        c = self.counters
        c["rips.calls"] += 1
        for cell in fp.cells:
            c[f"rips.cells_d{cell.dim}"] += 1
            c["rips.cells_L"] += cell.member == "L"

    def _count_distance(self, fn, result, args, kwargs) -> None:
        c = self.counters
        c["cloud.distance_calls"] += 1
        c["cloud.distance_out_mb"] = max(c["cloud.distance_out_mb"], result.size * 8 / MB)
        points = args[0]
        key = (tuple(points.shape), args[1:], tuple(sorted(kwargs.items())))
        if key not in self.distance_peaks:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self.distance_peaks[key] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        c["cloud.distance_peak_mb"] = max(c["cloud.distance_peak_mb"], self.distance_peaks[key] / MB)

    def _count_validate(self, fn, result, args, kwargs) -> None:
        self.counters["filtration.cells"] += len(args[0].cells)

    def _count_barcode(self, fn, triples, args, kwargs) -> None:
        self.counters["reduction.bars"] += len(triples)
        k = args[1] if len(args) > 1 else kwargs["k"]
        self.max_degree = max(self.max_degree, k)

    def _count_reduce(self, fn, reduced, args, kwargs) -> None:
        c = self.counters
        c["reduction.columns"] += len(args[0].columns)
        for col in reduced.columns.values():
            c["reduction.nnz_reduced"] += len(col)
            c["reduction.zero_columns"] += not col

    def _count_interaction(self, fn, result, args, kwargs) -> None:
        self.counters["stats.interaction_calls"] += 1

    def _count_kmedoids(self, fn, result, args, kwargs) -> None:
        self.counters["subsample.calls"] += 1
        data = args[0]
        self.counters["subsample.points_in"] += (
            data.shape[0] if hasattr(data, "shape") else data.n_points
        )

    def _count_output(self, fn, text, args, kwargs) -> None:
        self.counters["output.bytes"] += len(text.encode("utf-8"))

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        patch = self._patch
        for attr in ("load_point_cloud", "load_labeled_point_cloud", "load_distance_matrix"):
            patch("mixbar.cli", attr, "cloud.load")
        patch("mixbar.cli", "parse_explicit_pair", "filtration.parse")
        for module, attr in (
            ("mixbar.cli", "build_rips_pair"),
            ("mixbar.cli", "rips_pair_from_distances"),
            ("mixbar.stats", "rips_pair_from_distances"),
        ):
            patch(module, attr, "rips.build", self._count_rips)
        for module in ("mixbar.rips", "mixbar.cloud"):
            patch(module, "pairwise_distances", "cloud.distance", self._count_distance)
        patch("mixbar.filtration", "FilteredPair.validate", "filtration.validate", self._count_validate)
        patch("mixbar.stats", "mixup_barcode_indices", _degree_span, self._count_barcode)
        patch("mixbar.reduction", "reduce", "reduction.reduce", self._count_reduce)
        patch("mixbar.stats", "to_value_barcode", "stats.value_map")
        patch("mixbar.stats", "interaction_barcode", "stats.interaction", self._count_interaction)
        for module in ("mixbar.cli", "mixbar.stats"):
            patch(module, "compute_mixup_barcode", "stats.compute")
        patch("mixbar.cli", "pairwise_matrix", "stats.pairwise")
        patch("mixbar.cli", "mixup_profile", "stats.profile")
        for attr in STATS_SUMMARY:
            patch("mixbar.cli", attr, "stats.summary")
        for attr in ("mean_mixup_percentage", "total_mixup_percentage"):
            patch("mixbar.stats", attr, "stats.summary")
        patch("mixbar.stats", "k_medoids_indices", "subsample.kmedoids", self._count_kmedoids)
        patch("mixbar.cli", "k_medoids", "subsample.kmedoids", self._count_kmedoids)
        for attr in ("json_dumps", "csv_lines", "plot_mixup_barcode"):
            patch("mixbar.cli", attr, "output.emit", self._count_output)

    def run(self, main, argv) -> int:
        return self.wrap(main, "cli.main")(argv)

    # -- report -------------------------------------------------------------------

    def report(self) -> dict:
        """Per span name: self time and busy time; plus the counters.

        Busy time is a span's duration less the bookkeeping spans inside it,
        so an inclusive layer time (such as a whole degree's barcode) holds
        no counting cost either.
        """
        child_time = [0.0] * len(self.spans)
        book_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            if name == "trace.bookkeeping":
                while parent >= 0:
                    book_time[parent] += end - start
                    parent = self.spans[parent][3]
        self_s: dict[str, float] = defaultdict(float)
        busy_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner, book in zip(self.spans, child_time, book_time):
            self_s[name] += end - start - inner
            busy_s[name] += end - start - book
        counters = dict(self.counters)
        built = sum(v for k, v in counters.items() if k.startswith("rips.cells_d"))
        useful = sum(
            counters.get(f"rips.cells_d{d}", 0) for d in range(self.max_degree + 2)
        )
        counters["rips.useful_frac"] = useful / built if built else 0.0
        columns = counters.get("reduction.columns", 0)
        counters["reduction.zero_frac"] = (
            counters.get("reduction.zero_columns", 0) / columns if columns else 0.0
        )
        return {
            "main_s": sum(end - start for _, start, end, parent in self.spans if parent < 0),
            "self_s": dict(self_s),
            "busy_s": dict(busy_s),
            "counters": counters,
            "missing": self.missing,
            "hook_errors": self.hook_errors,
            "spans": self.spans,
        }
