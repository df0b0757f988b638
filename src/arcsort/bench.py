"""Timing harness: repeated, verified runs of each sort over seeded datasets.

Timed runs execute strictly sequentially on one thread.  Every timed run
sorts a fresh copy of its dataset (the sorts are in-place; reuse would
time pre-sorted data from trial 1 on) and its output is verified as a
sorted permutation of the input before the trial is accepted.  Dataset
seeds derive deterministically from (base seed, size, trial) and never
from the algorithm, so all algorithms face identical data.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence, get_type_hints

from .datagen import PRNG_NAME, DatasetSpec, generate
from ._compiled import kernels
from .sorts import ALGORITHMS, SortMetrics

CSV_HEADER = "algorithm,distribution,n,trial,elapsed_ns,comparisons,swaps,writes"
CLOCK_NAME = "perf_counter_ns"


class BenchmarkError(Exception):
    """Raised for invalid harness arguments or a failed run verification."""


class UnknownAlgorithmError(BenchmarkError):
    """Raised for a name that is not a key of :data:`ALGORITHMS`."""


@dataclass(frozen=True)
class TrialResult:
    algorithm: str
    distribution: str
    n: int
    trial: int
    elapsed_ns: int
    metrics: SortMetrics


@dataclass(frozen=True)
class ReportMeta:
    prng: str
    seed: int
    value_lo: int
    value_hi: int
    clock: str
    warmup: int
    trials: int
    backend: str  # "c" when a sort of the grid has a compiled twin and it loaded; else "pure"


@dataclass
class BenchmarkReport:
    meta: ReportMeta
    rows: list[TrialResult]


@dataclass(frozen=True)
class SummaryRow:
    algorithm: str
    distribution: str
    n: int
    median_ns: float
    mean_ns: float
    mean_comparisons: float


def derive_seed(base: int, n: int, trial: int) -> int:
    """Per-dataset seed; depends on size and trial but not the algorithm."""
    return base + n * 1_000_003 + trial * 10_007


def _verify(algorithm: str, seed: int, original: Sequence[int], result: Sequence[int]) -> None:
    if result != sorted(original):
        raise BenchmarkError(
            f"verification failed: algorithm={algorithm!r} did not produce a "
            f"sorted permutation of the dataset with seed={seed}"
        )


def run_benchmark(
    algorithms: Iterable[str],
    sizes: Sequence[int],
    spec_template: DatasetSpec,
    trials: int = 5,
    warmup: int = 2,
) -> BenchmarkReport:
    """Time every (algorithm, size) pair over ``trials`` seeded datasets.

    Per size, every algorithm runs ``warmup`` untimed sorts, then each
    trial times every algorithm on a fresh copy of its dataset, rotating
    which goes first, so a drift in the host's speed reaches all alike;
    rows come in (algorithm, n, trial) order.  Raises
    :class:`BenchmarkError` for unknown algorithm names, a repeated name
    or size, trials < 1, or a run whose output fails verification
    (verification is outside the timed region).  Each dataset is
    generated once, before the compiled twins load and before the first
    timed run, so a spec that :func:`generate` refuses loads nothing.
    """
    names = list(algorithms)
    unknown = [a for a in names if a not in ALGORITHMS]
    if unknown:
        raise UnknownAlgorithmError(
            f"unknown algorithm(s) {', '.join(map(repr, unknown))}; "
            f"valid: {', '.join(ALGORITHMS)}"
        )
    for kind, items in (("algorithm", names), ("size", sizes)):
        repeats = [x for i, x in enumerate(items) if x in items[:i]]
        if repeats:  # its rows would repeat (algorithm, n, trial) and merge in the summary
            raise BenchmarkError(f"{kind} {repeats[0]!r} is repeated")
    if trials < 1:
        raise BenchmarkError(f"trials must be >= 1, got {trials}")
    if warmup < 0:
        raise BenchmarkError(f"warmup must be >= 0, got {warmup}")

    # per size, shared by every algorithm
    seeds = {n: [derive_seed(spec_template.seed, n, t) for t in range(trials)] for n in sizes}
    datasets = {n: [generate(replace(spec_template, n=n, seed=s)) for s in seeds[n]] for n in sizes}
    # a compiled twin is built or loaded here: after the datasets, so a bad
    # spec builds nothing, and not inside the first timed sort; getattr,
    # because ALGORITHMS may hold any callable
    compiled = any(getattr(ALGORITHMS[a], "compiled", False) for a in names)
    lib = kernels() if compiled else None
    rows: list[TrialResult] = []
    for n in sizes:
        for name in names:
            for _ in range(warmup):
                ALGORITHMS[name](list(datasets[n][0]), SortMetrics())
        for trial, dataset in enumerate(datasets[n]):
            for turn in range(len(names)):
                name = names[(trial + turn) % len(names)]
                sort = ALGORITHMS[name]
                buffer = list(dataset)
                metrics = SortMetrics()
                t0 = time.perf_counter_ns()
                result = sort(buffer, metrics)
                elapsed = time.perf_counter_ns() - t0
                _verify(name, seeds[n][trial], dataset, result)
                rows.append(
                    TrialResult(name, spec_template.distribution, n, trial, elapsed, metrics)
                )
    rows.sort(key=lambda row: names.index(row.algorithm))  # stable: (algorithm, n, trial)

    meta = ReportMeta(
        prng=PRNG_NAME,
        seed=spec_template.seed,
        value_lo=spec_template.value_lo,
        value_hi=spec_template.value_hi,
        clock=CLOCK_NAME,
        warmup=warmup,
        trials=trials,
        backend="pure" if lib is None else "c",
    )
    return BenchmarkReport(meta, rows)


def summarize(report: BenchmarkReport) -> list[SummaryRow]:
    """One row per (algorithm, distribution, n) group, in report order.

    Median is the headline statistic (robust to timer noise); the mean
    is carried alongside, as is the mean comparison count.
    """
    if not report.rows:
        raise BenchmarkError("cannot summarize an empty report")
    groups: dict[tuple[str, str, int], list[TrialResult]] = {}
    for row in report.rows:
        groups.setdefault((row.algorithm, row.distribution, row.n), []).append(row)
    out = []
    for (algorithm, distribution, n), members in groups.items():
        elapsed = [r.elapsed_ns for r in members]
        out.append(
            SummaryRow(
                algorithm=algorithm,
                distribution=distribution,
                n=n,
                median_ns=statistics.median(elapsed),
                mean_ns=statistics.fmean(elapsed),
                mean_comparisons=statistics.fmean(r.metrics.comparisons for r in members),
            )
        )
    return out


def report_to_csv(report: BenchmarkReport) -> str:
    """Serialize: `# key=value` metadata lines, exact header, one row per trial."""
    lines = [f"# {f.name}={getattr(report.meta, f.name)}" for f in fields(ReportMeta)]
    lines.append(CSV_HEADER)
    for r in report.rows:
        lines.append(
            f"{r.algorithm},{r.distribution},{r.n},{r.trial},{r.elapsed_ns},"
            f"{r.metrics.comparisons},{r.metrics.swaps},{r.metrics.writes}"
        )
    return "\n".join(lines) + "\n"


def report_from_csv(text: str) -> BenchmarkReport:
    """Inverse of :func:`report_to_csv`; round-trips exactly."""
    meta_kv: dict[str, str] = {}
    rows: list[TrialResult] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            meta_kv[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise BenchmarkError(f"line {lineno}: unexpected header {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise BenchmarkError(f"line {lineno}: expected 8 fields, got {len(parts)}")
        algorithm, distribution = parts[0], parts[1]
        try:
            n, trial, elapsed, comparisons, swaps, writes = map(int, parts[2:])
        except ValueError as exc:
            raise BenchmarkError(f"line {lineno}: {exc}") from None
        rows.append(
            TrialResult(
                algorithm, distribution, n, trial, elapsed,
                SortMetrics(comparisons, swaps, writes),
            )
        )
    if not header_seen:
        raise BenchmarkError("missing CSV header")
    types = get_type_hints(ReportMeta)
    try:
        meta = ReportMeta(**{f.name: types[f.name](meta_kv[f.name]) for f in fields(ReportMeta)})
    except KeyError as exc:
        raise BenchmarkError(f"missing metadata key {exc}") from None
    except ValueError as exc:
        raise BenchmarkError(f"bad metadata value: {exc}") from None
    return BenchmarkReport(meta, rows)


def emit_plot_data(summary: Sequence[SummaryRow]) -> str:
    """Tab-separated series for external plotting: n, then median ms per algorithm."""
    algorithms: list[str] = []
    for row in summary:
        if row.algorithm not in algorithms:
            algorithms.append(row.algorithm)
    medians = {(row.algorithm, row.n): row.median_ns for row in summary}
    sizes = sorted({row.n for row in summary})

    lines = ["# " + "\t".join(["n"] + algorithms)]
    for n in sizes:
        cells = [str(n)]
        for algorithm in algorithms:
            ns = medians.get((algorithm, n))
            cells.append("nan" if ns is None else f"{ns / 1e6:.6f}")
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
