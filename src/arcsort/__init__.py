"""Integer sorting by digit-count buckets, with instrumented baselines.

The core sort distributes keys into buckets by decimal digit count
(bucket 0 takes all non-positive values), sorts each bucket with an
enhanced selection sort that swaps the maximum into place at most once
per pass, and concatenates the buckets.  Alongside it live instrumented
classic baselines (selection, insertion, bubble), seeded dataset
generators, and a timing harness that emits CSV reports and plot data.

The sorts are imported with the package; the dataset generators and the
timing harness (with the ``dataclasses`` and ``statistics`` they need)
are imported the first time one of their names is used.
"""

from importlib import import_module

from .sorts import (
    ALGORITHMS,
    MAX_DIGITS,
    BucketTable,
    SortMetrics,
    arc_sort,
    bubble_sort,
    concatenate,
    count_digits,
    distribute,
    enhanced_selection_sort,
    insertion_sort,
    selection_sort,
)

# Public names of the modules that load on first use, and their module.
_LAZY = dict.fromkeys(
    (
        "CSV_HEADER",
        "BenchmarkError",
        "BenchmarkReport",
        "ReportMeta",
        "SummaryRow",
        "TrialResult",
        "emit_plot_data",
        "report_from_csv",
        "report_to_csv",
        "run_benchmark",
        "summarize",
    ),
    "bench",
) | dict.fromkeys(("DISTRIBUTIONS", "DatasetError", "DatasetSpec", "generate"), "datagen")


def __getattr__(name: str):
    """Import the module that defines ``name`` and keep the name here."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BucketTable",
    "MAX_DIGITS",
    "SortMetrics",
    "arc_sort",
    "bubble_sort",
    "concatenate",
    "count_digits",
    "distribute",
    "enhanced_selection_sort",
    "insertion_sort",
    "selection_sort",
    *_LAZY,
]
