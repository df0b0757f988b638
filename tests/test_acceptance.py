"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they happen; under default capture they appear in the captured output.
"""

from __future__ import annotations

import random
import time

from arcsort import (
    ALGORITHMS,
    CSV_HEADER,
    DatasetSpec,
    SortMetrics,
    arc_sort,
    distribute,
    enhanced_selection_sort,
    generate,
    report_to_csv,
    run_benchmark,
    selection_sort,
    summarize,
)
from backends import no_compiler


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{detail}")


def _warm_all() -> None:
    # touch every algorithm once so first-call costs (bytecode specialization,
    # cold caches) stay out of timed regions
    for run in ALGORITHMS.values():
        run([3, 1, 2], SortMetrics())


def test_criterion_1_golden_example():
    _warm_all()
    values = [349, 34, -72, 22, 14, -1]
    t0 = time.perf_counter()
    result = arc_sort(values)
    elapsed = time.perf_counter() - t0
    table = distribute(values)
    ok = (
        result == [-72, -1, 14, 22, 34, 349]
        and table.buckets == [[-72, -1], [], [34, 22, 14], [349]]
        and elapsed < 1e-3
    )
    _report(1, "golden example", ok, f" [{elapsed * 1e6:.0f} us]")
    assert result == [-72, -1, 14, 22, 34, 349]
    assert table.buckets == [[-72, -1], [], [34, 22, 14], [349]]
    assert elapsed < 1e-3


def test_criterion_2_oracle_equivalence():
    _warm_all()
    rng = random.Random(0xC0FFEE)
    failures = 0
    seconds = dict.fromkeys(ALGORITHMS, 0.0)  # printed, so each share of the 60 s is on record
    t0 = time.monotonic()
    for case in range(10_000):
        n = rng.randint(0, 512)
        if case % 5 == 0:
            # small range: guarantees duplicates and zeros
            values = [rng.randint(-50, 50) for _ in range(n)]
        else:
            values = [rng.randint(-(10**9), 10**9) for _ in range(n)]
        expected = sorted(values)
        for name, run in ALGORITHMS.items():
            data = list(values)
            started = time.perf_counter()
            out = run(data, SortMetrics())
            seconds[name] += time.perf_counter() - started
            if out != expected:
                failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 60
    split = ", ".join(f"{name} {s:.1f} s" for name, s in seconds.items())
    _report(2, "oracle equivalence x10000", ok, f" [{elapsed:.1f} s, {failures} failures; {split}]")
    assert failures == 0
    assert elapsed < 60


def test_criterion_3_worst_case_count():
    data = generate(DatasetSpec(distribution="single-bucket", n=1000, seed=31, digit_class=5))
    arc_metrics = SortMetrics()
    arc_sort(data, arc_metrics)
    ess_metrics = SortMetrics()
    enhanced_selection_sort(list(data), ess_metrics)
    ok = arc_metrics.comparisons == 499_500 == ess_metrics.comparisons
    _report(3, "worst case collapses to one full scan", ok,
            f" [arc={arc_metrics.comparisons}, ess={ess_metrics.comparisons}]")
    assert arc_metrics.comparisons == 499_500
    assert ess_metrics.comparisons == 499_500


def test_criterion_4_best_case_count():
    data = generate(DatasetSpec(distribution="one-per-bucket", n=19, seed=4))
    metrics = SortMetrics()
    out = arc_sort(data, metrics)
    ok = out == sorted(data) and metrics.comparisons == 0 and metrics.swaps == 0
    _report(4, "one element per bucket sorts for free", ok,
            f" [comparisons={metrics.comparisons}, swaps={metrics.swaps}]")
    assert out == sorted(data)
    assert metrics.comparisons == 0
    assert metrics.swaps == 0


def test_criterion_5_balanced_bucket_decomposition():
    data = []
    for digit_class in (2, 3, 4, 5):
        data += generate(
            DatasetSpec(distribution="single-bucket", n=500, seed=50 + digit_class,
                        digit_class=digit_class)
        )
    random.Random(5).shuffle(data)

    arc_metrics = SortMetrics()
    arc_sort(data, arc_metrics)
    sel_metrics = SortMetrics()
    selection_sort(list(data), sel_metrics)
    ratio = sel_metrics.comparisons / arc_metrics.comparisons
    ok = arc_metrics.comparisons == 499_000 and sel_metrics.comparisons == 1_999_000
    _report(5, "balanced buckets divide the work by k", ok,
            f" [arc={arc_metrics.comparisons}, selection={sel_metrics.comparisons}, "
            f"ratio={ratio:.3f}]")
    assert arc_metrics.comparisons == 499_000
    assert sel_metrics.comparisons == 1_999_000


def test_criterion_6_timing_ordering():
    # both sorts in pure Python, so the ratio measures bucketing, not a
    # compiled arc_sort against a pure selection_sort
    _warm_all()
    t0 = time.monotonic()
    template = DatasetSpec(distribution="uniform", n=0, seed=20_000,
                           value_lo=-(10**6), value_hi=10**6)
    with no_compiler():
        report = run_benchmark(["arc", "selection"], [20_000], template, trials=5, warmup=2)
    elapsed = time.monotonic() - t0
    medians = {row.algorithm: row.median_ns for row in summarize(report)}
    ratio = medians["selection"] / medians["arc"]
    ordered = medians["arc"] < medians["selection"]
    note = "" if ratio >= 2 else " (ratio below 2: reported, not hard-failed)"
    ok = ordered and elapsed < 120
    _report(6, "bucketed sort beats selection at n=20000", ok,
            f" [ratio={ratio:.2f}{note}, {elapsed:.1f} s]")
    assert ordered, f"expected arc faster than selection, got ratio {ratio:.2f}"
    assert elapsed < 120


def test_criterion_7_swap_frugality():
    data = generate(DatasetSpec(distribution="sorted-ascending", n=1000, seed=7))
    metrics = SortMetrics()
    enhanced_selection_sort(data, metrics)
    ok = metrics.swaps == 0
    _report(7, "no swaps on already-sorted input", ok, f" [swaps={metrics.swaps}]")
    assert metrics.swaps == 0


def test_criterion_8_csv_reproducibility():
    def one_run() -> str:
        template = DatasetSpec(distribution="uniform", n=0, seed=8)
        report = run_benchmark(list(ALGORITHMS), [64, 128], template, trials=2, warmup=1)
        return report_to_csv(report)

    def drop_elapsed(text: str) -> str:
        kept = []
        for line in text.splitlines():
            if line.startswith("#") or line.startswith("algorithm"):
                kept.append(line)
            else:
                cells = line.split(",")
                del cells[4]
                kept.append(",".join(cells))
        return "\n".join(kept)

    first, second = one_run(), one_run()
    header = [l for l in first.splitlines() if not l.startswith("#")][0]
    ok = header == CSV_HEADER and drop_elapsed(first) == drop_elapsed(second)
    _report(8, "CSV header exact and counts byte-reproducible", ok)
    assert header == CSV_HEADER
    assert drop_elapsed(first) == drop_elapsed(second)
