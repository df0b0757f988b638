"""Harness behavior: grouping, verification, statistics, CSV and plot output."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import arcsort.bench as bench
from arcsort import (
    ALGORITHMS,
    BenchmarkError,
    BenchmarkReport,
    DatasetSpec,
    ReportMeta,
    SortMetrics,
    TrialResult,
    emit_plot_data,
    report_from_csv,
    report_to_csv,
    run_benchmark,
    summarize,
)
from arcsort._compiled import kernels
from backends import needs_cc, no_compiler

TEMPLATE = DatasetSpec(distribution="uniform", n=0, seed=42)


def small_report(**kw):
    args = dict(
        algorithms=["arc", "selection"],
        sizes=[16, 32],
        spec_template=TEMPLATE,
        trials=3,
        warmup=1,
    )
    args.update(kw)
    return run_benchmark(**args)


def test_grid_shape_and_trial_ordinals():
    report = small_report()
    assert len(report.rows) == 2 * 2 * 3
    seen = {}
    for row in report.rows:
        key = (row.algorithm, row.distribution, row.n)
        seen.setdefault(key, []).append(row.trial)
    assert len(seen) == 4
    assert all(trials == [0, 1, 2] for trials in seen.values())


def test_all_algorithms_see_identical_datasets():
    # seeds derive from (base, size, trial) only, never the algorithm,
    # so per-trial comparison counts of the two selection-family sorts
    # must satisfy the same n(n-1)/2 law on the same data
    report = small_report(algorithms=["enhanced-selection", "selection"])
    for row in report.rows:
        assert row.metrics.comparisons == row.n * (row.n - 1) // 2


def test_size_zero_rows_have_zero_metrics():
    report = small_report(sizes=[0])
    for row in report.rows:
        assert row.n == 0
        assert row.elapsed_ns >= 0
        assert row.metrics == SortMetrics()


def test_unknown_algorithm_rejected():
    with pytest.raises(BenchmarkError, match="quicksort"):
        small_report(algorithms=["arc", "quicksort"])


@pytest.mark.parametrize(
    "grid, repeat",
    [
        (dict(algorithms=["arc", "selection", "arc"]), "algorithm 'arc'"),
        (dict(sizes=[3, 4, 3, 4]), "size 3"),
    ],
    ids=["algorithms", "sizes"],
)
def test_repeated_algorithm_or_size_rejected_before_any_dataset(monkeypatch, grid, repeat):
    monkeypatch.setattr(bench, "generate", pytest.fail)
    with pytest.raises(BenchmarkError, match=f"^{repeat} is repeated$"):
        small_report(**grid)


def test_each_dataset_is_generated_once(monkeypatch):
    calls = []
    generate = bench.generate
    monkeypatch.setattr(bench, "generate", lambda spec: calls.append(spec) or generate(spec))
    report = small_report(algorithms=["arc", "selection", "bubble"], sizes=[4, 8], trials=3)
    assert len(report.rows) == 3 * 2 * 3
    assert [(spec.n, spec.seed) for spec in calls] == [
        (n, bench.derive_seed(TEMPLATE.seed, n, t)) for n in (4, 8) for t in range(3)
    ]


def test_trials_interleave_algorithms_and_rotate_the_first(monkeypatch):
    calls = []

    def recorded(name, sort):
        return lambda data, metrics: calls.append((name, len(data))) or sort(data, metrics)

    names = ["arc", "selection", "bubble"]
    for name in names:
        monkeypatch.setitem(bench.ALGORITHMS, name, recorded(name, bench.ALGORITHMS[name]))
    report = small_report(algorithms=names, sizes=[4, 8], trials=3, warmup=2)
    warmups = [("arc", 4)] * 2 + [("selection", 4)] * 2 + [("bubble", 4)] * 2
    trials = [
        ("arc", 4), ("selection", 4), ("bubble", 4),
        ("selection", 4), ("bubble", 4), ("arc", 4),
        ("bubble", 4), ("arc", 4), ("selection", 4),
    ]
    eights = [(name, 8) for name, _ in warmups + trials]
    assert calls == warmups + trials + eights
    # rows stay in (algorithm, n, trial) order
    assert [(r.algorithm, r.n, r.trial) for r in report.rows] == [
        (name, n, t) for name in names for n in (4, 8) for t in range(3)
    ]


def test_zero_trials_rejected():
    with pytest.raises(BenchmarkError, match="trials"):
        small_report(trials=0)


def _drops_an_element(values, metrics):
    return values[:-1]


def _leaves_it_unsorted(values, metrics):
    return values


def _duplicates_a_value(values, metrics):
    out = sorted(values)
    return out[1:] + out[-1:]  # sorted and the same length, but the minimum is gone


def test_verification_failure_names_algorithm_and_seed(monkeypatch):
    for broken in (_drops_an_element, _leaves_it_unsorted, _duplicates_a_value):
        monkeypatch.setitem(bench.ALGORITHMS, "broken", broken)
        with pytest.raises(BenchmarkError) as err:
            run_benchmark(["broken"], [8], TEMPLATE, trials=1, warmup=0)
        message = str(err.value)
        assert "broken" in message, broken.__name__
        assert str(bench.derive_seed(TEMPLATE.seed, 8, 0)) in message


def test_metadata_records_run_parameters():
    report = small_report(trials=2, warmup=3)
    meta = report.meta
    assert meta.seed == 42
    assert meta.trials == 2
    assert meta.warmup == 3
    assert meta.prng == "mt19937-python-random"
    assert meta.clock == "perf_counter_ns"
    assert (meta.value_lo, meta.value_hi) == (TEMPLATE.value_lo, TEMPLATE.value_hi)


@needs_cc
def test_metadata_names_the_backend():
    compiled = [next(name for name, sort in ALGORITHMS.items() if sort.compiled)]
    assert small_report(algorithms=compiled, trials=1).meta.backend == "c"
    with no_compiler():
        assert small_report(algorithms=compiled, trials=1).meta.backend == "pure"


@needs_cc
def test_a_grid_without_a_compiled_sort_is_pure_and_builds_nothing(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    kernels.cache_clear()
    try:
        pure = [name for name, sort in ALGORITHMS.items() if not sort.compiled]
        assert small_report(algorithms=pure).meta.backend == "pure"
    finally:
        kernels.cache_clear()  # the next call loads again, in the real environment
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", [name for name, sort in ALGORITHMS.items() if sort.compiled])
def test_no_timed_sort_pays_for_loading_the_kernels(monkeypatch, name):
    # with no warm-up, the first timed sort would otherwise build or load the library
    loaded = []  # at each clock read: has kernels() run yet?
    clock = bench.time.perf_counter_ns

    def read_clock():
        loaded.append(kernels.cache_info().currsize == 1)
        return clock()

    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter_ns=read_clock))
    kernels.cache_clear()
    small_report(algorithms=[name], sizes=[8], trials=1, warmup=0)
    assert loaded == [True, True]


def _report_with_elapsed(elapsed_list):
    rows = [
        TrialResult("arc", "uniform", 8, t, e, SortMetrics(5, 1, 0))
        for t, e in enumerate(elapsed_list)
    ]
    meta = ReportMeta("mt19937-python-random", 1, -10, 10, "perf_counter_ns", 0, len(rows), "pure")
    return BenchmarkReport(meta, rows)


def test_summarize_single_trial_degenerates():
    (row,) = summarize(_report_with_elapsed([17]))
    assert row.median_ns == row.mean_ns == 17


def test_summarize_statistics():
    (row,) = summarize(_report_with_elapsed([10, 20, 90]))
    assert row.median_ns == 20
    assert row.mean_ns == 40
    assert row.mean_comparisons == 5


def test_summarize_empty_report_rejected():
    with pytest.raises(BenchmarkError):
        summarize(BenchmarkReport(_report_with_elapsed([1]).meta, []))


def test_summarize_table_shaped_run():
    report = small_report(
        algorithms=["arc", "enhanced-selection", "selection", "insertion"],
        sizes=[4, 8, 16, 32],
        trials=1,
        warmup=0,
    )
    assert len(summarize(report)) == 16


def test_csv_round_trip():
    report = small_report()
    assert report_from_csv(report_to_csv(report)) == report


def test_csv_header_is_exact():
    text = report_to_csv(small_report(sizes=[4], trials=1))
    lines = text.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "algorithm,distribution,n,trial,elapsed_ns,comparisons,swaps,writes"
    assert lines.index(header) == len(comments)  # metadata precedes the header
    keys = [c.lstrip("# ").split("=")[0] for c in comments]
    assert keys == ["prng", "seed", "value_lo", "value_hi", "clock", "warmup", "trials", "backend"]


def test_csv_rejects_bad_header():
    with pytest.raises(BenchmarkError):
        report_from_csv("algorithm,n\narc,1\n")


def test_csv_malformed_number_names_line():
    text = report_to_csv(small_report(sizes=[4], trials=1))
    bad = text + "arc,uniform,x,0,1,1,1,1\n"
    lineno = len(bad.splitlines())
    with pytest.raises(BenchmarkError, match=f"line {lineno}"):
        report_from_csv(bad)


def test_csv_malformed_metadata_rejected():
    text = report_to_csv(small_report(sizes=[4], trials=1)).replace("# seed=42", "# seed=x")
    with pytest.raises(BenchmarkError, match="metadata value"):
        report_from_csv(text)


@pytest.mark.parametrize(
    "key", ["prng", "seed", "value_lo", "value_hi", "clock", "warmup", "trials", "backend"]
)
def test_csv_missing_metadata_key_named(key):
    text = report_to_csv(small_report(sizes=[4], trials=1))
    kept = [l for l in text.splitlines() if not l.startswith(f"# {key}=")]
    with pytest.raises(BenchmarkError, match=f"missing metadata key '{key}'"):
        report_from_csv("\n".join(kept) + "\n")


def test_csv_ignores_unknown_metadata_key():
    report = small_report(sizes=[4], trials=1)
    assert report_from_csv("# host=example\n" + report_to_csv(report)) == report


def test_plot_data_grid():
    report = small_report(
        algorithms=["arc", "selection", "insertion", "bubble"],
        sizes=[4, 8, 16, 32],
        trials=1,
        warmup=0,
    )
    text = emit_plot_data(summarize(report))
    lines = text.splitlines()
    assert lines[0] == "# n\tarc\tselection\tinsertion\tbubble"
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        assert len(line.split("\t")) == 5
    assert [int(l.split("\t")[0]) for l in lines[1:]] == [4, 8, 16, 32]


def test_plot_data_single_series():
    report = small_report(algorithms=["arc"], sizes=[4], trials=1, warmup=0)
    text = emit_plot_data(summarize(report))
    assert text.splitlines()[0] == "# n\tarc"


def test_plot_data_empty_summary_is_header_only():
    assert emit_plot_data([]) == "# n\n"
