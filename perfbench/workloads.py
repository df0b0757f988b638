"""The benchmark's three workloads and the metrics drawn from their runs.

Every workload runs in cycles.  A cycle runs each of the workload's
distinct operations once and returns the timed samples it took; the
worker repeats cycles until the run's time is up.  With a disabled tracer
a cycle is the untraced, end-to-end measurement.  With an enabled tracer
it records a span around every public call and then replays the
composite calls piece by piece, so that their layers can be timed apart.

Inputs come from ``--seed`` through ``arcsort.generate``; generation,
copying and verification stay outside every timed region.  Each output is
compared with ``sorted()`` of its input, each count with its closed form
where one exists, and each count with the one the same input gave first.
Each timed operation is also expressed in units of the workload's
reference (see reference.py), under the same key with ``_ref`` appended.
"""

from __future__ import annotations

import contextlib
import random
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import fmean, median

from arcsort import (
    ALGORITHMS,
    BenchmarkError,
    DatasetSpec,
    SortMetrics,
    concatenate,
    distribute,
    enhanced_selection_sort,
    generate,
    report_from_csv,
    report_to_csv,
    run_benchmark,
    summarize,
)
from arcsort import bench as arcsort_bench
from arcsort import cli as arcsort_cli

from reference import Reference, Sampler, interpreter_start
from spans import Span, Tracer, fit_pass_costs, percentile

# Span name for each entry of ``bench.ALGORITHMS``: the public function it calls.
SPAN_OF = {
    "arc": "arcsort.arc_sort",
    "enhanced-selection": "arcsort.enhanced_selection_sort",
    "selection": "arcsort.selection_sort",
    "insertion": "arcsort.insertion_sort",
    "bubble": "arcsort.bubble_sort",
}
# Per-layer name of each algorithm's total time.
TIME_OF = {
    "arc": "buckets.arc_s",
    "enhanced-selection": "sorts.enhanced_selection_s",
    "selection": "sorts.selection_s",
    "insertion": "sorts.insertion_s",
    "bubble": "sorts.bubble_s",
}

GOLDEN = [349, 34, -72, 22, 14, -1]
GOLDEN_SORTED = sorted(GOLDEN)


def pairs(sizes) -> int:
    """Sum of c(c-1)/2: comparisons of max-selection over groups of these sizes."""
    return sum(c * (c - 1) // 2 for c in sizes)


def as_lines(values) -> bytes:
    return "".join(f"{v}\n" for v in values).encode("ascii")


@dataclass
class Context:
    seed: int
    smoke: bool
    workdir: Path
    child_env: dict[str, str]
    tracer: Tracer
    untraced: Tracer
    attempted: int = 0
    failed: int = 0
    seen: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failure is reported and never dropped."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def repeats(self, key, counts: tuple[int, ...]) -> bool:
        """True when ``counts`` equal the ones first recorded under ``key``."""
        return self.seen.setdefault(key, counts) == counts


def run_sort(ctx: Context, tr: Tracer, parent, algo: str, values, expected,
             comparisons: int | None, key) -> Span:
    """Time one ``bench.ALGORITHMS`` call on a copy of ``values`` and check it."""
    buf = list(values)
    m = SortMetrics()
    with tr.span(SPAN_OF[algo], parent) as sp:
        out = ALGORITHMS[algo](buf, m)
    sp.attrs.update(n=len(values), comparisons=m.comparisons, swaps=m.swaps, writes=m.writes)
    ok = out == expected and ctx.repeats(key, (m.comparisons, m.swaps, m.writes))
    if comparisons is not None:
        ok = ok and m.comparisons == comparisons
    ctx.check(ok, f"{algo} on {len(values)} values ({key})")
    return sp


def closed_forms(values) -> dict[str, int]:
    """Comparison counts fixed by the input alone, per algorithm."""
    n = len(values)
    return {
        "arc": pairs(distribute(values).occupancy),
        "enhanced-selection": n * (n - 1) // 2,
        "selection": n * (n - 1) // 2,
    }


def replay_arc(ctx: Context, tr: Tracer, parent: int, values, expected) -> None:
    """Run arc_sort's stages one by one, each in a span that is a child of ``parent``."""
    with tr.span("arcsort.distribute", parent) as sp:
        table = distribute(values)
    sizes = table.occupancy
    sp.attrs.update(n=len(values), busy=sum(1 for c in sizes if c), largest=max(sizes),
                    predicted=pairs(sizes))
    for bucket in table.buckets:
        if len(bucket) > 1:
            m = SortMetrics()
            with tr.span("arcsort.enhanced_selection_sort", parent) as ess:
                enhanced_selection_sort(bucket, m)
            ess.attrs.update(n=len(bucket), comparisons=m.comparisons, swaps=m.swaps)
    with tr.span("arcsort.concatenate", parent):
        out = concatenate(table)
    ctx.check(out == expected, "replayed arc_sort stages")


class PaperUniform:
    """arc_sort against selection_sort on one seeded uniform dataset of 20,000 values."""

    name = "paper-uniform-20k"
    op_key = "arc"
    median_name = "arc_sort_s"
    tail = None  # a run holds two calls of each sort: too few for a tail percentile
    min_cycles = 2  # a cycle takes about 13 s; one alone would make a run's median one call
    children_rss = False

    def __init__(self, ctx: Context):
        self.ctx = ctx
        # a smoke run's calls must still outlast the sampler's period
        self.spec = DatasetSpec("uniform", 5_000 if ctx.smoke else 20_000, ctx.seed)
        self.data = generate(self.spec)
        self.expected = sorted(self.data)
        self.closed = closed_forms(self.data)
        self.sampler = Sampler()

    def warm_up(self) -> None:
        head = self.data[: len(self.data) // 20]
        expected, closed = sorted(head), closed_forms(head)
        for algo in ("arc", "selection"):
            run_sort(self.ctx, self.ctx.untraced, None, algo, head, expected, closed[algo],
                     ("warm-up", algo))

    def cycle(self, tr: Tracer, parent, index: int) -> dict[str, list[float]]:
        """Untraced, the sorts run under the sampler and their times leave its handler out."""
        ctx = self.ctx
        if tr.enabled:
            with tr.span("arcsort.generate", parent) as sp:
                again = generate(self.spec)
            sp.attrs["n"] = len(again)
            ctx.check(again == self.data, "generate repeats the dataset")
            arc = self.sort(tr, parent, "arc")
            replay_arc(ctx, tr, arc.id, self.data, self.expected)
            return {"arc": [arc.seconds], "selection": [self.sort(tr, parent, "selection").seconds]}
        with self.sampler:
            arc = self.sort(tr, parent, "arc")
            sel = self.sort(tr, parent, "selection")
        (arc_s, arc_ref), (sel_s, sel_ref) = self.sampler.units(arc), self.sampler.units(sel)
        return {"arc": [arc_s], "selection": [sel_s], "arc_ref": [arc_ref], "selection_ref": [sel_ref]}

    def sort(self, tr: Tracer, parent, algo: str) -> Span:
        return run_sort(self.ctx, tr, parent, algo, self.data, self.expected, self.closed[algo], algo)

    def cycle_time(self, c, unit: str = "") -> float:
        return c["arc" + unit][0] + c["selection" + unit][0]

    def details(self, cycles) -> dict:
        sel = [x for c in cycles for x in c["selection"]]
        return {"selection_sort_s": (median(sel), "s", len(sel))}

    def ratio_bases(self, cycles) -> tuple[float, float]:
        return (median([c["selection"][0] for c in cycles]), median([c["arc"][0] for c in cycles]))


class OracleMix:
    """A seeded stream of small arrays, each sorted by all five algorithms.

    The stream comes in blocks.  A block holds every size from 0 to 512
    once, in a seeded order, so each block has the same size mix and the
    run-to-run spread comes from the values, not from the size draw.
    Every fifth array takes values from [-50, 50] (duplicates and zeros),
    the rest from +-10^9.  A traced run repeats block 0 in every cycle so
    that its counts repeat exactly.
    """

    name = "oracle-mix"
    op_key = "array"
    median_name = "mix_array_s_p50"
    tail = ("mix_array_s_p99", 99)
    children_rss = False

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.max_n = 24 if ctx.smoke else 512
        # at least 1,000 arrays per run, so that ten or more lie beyond p99
        self.min_cycles = 1 if ctx.smoke else -(-1000 // (self.max_n + 1))
        self.ref = Reference()

    def block(self, index: int, tr: Tracer, parent) -> list[list[int]]:
        rng = random.Random(f"oracle-mix:{self.ctx.seed}:{index}")
        sizes = list(range(self.max_n + 1))
        rng.shuffle(sizes)
        arrays = []
        for i, n in enumerate(sizes):
            lo, hi = (-50, 50) if i % 5 == 4 else (-(10**9), 10**9)
            spec = DatasetSpec("uniform", n, rng.getrandbits(32), lo, hi)
            with tr.span("arcsort.generate", parent) as sp:
                arrays.append(generate(spec))
            sp.attrs["n"] = n
        return arrays

    def sort_all(self, tr: Tracer, parent, index: int, i: int, values, per_algo) -> float:
        expected = sorted(values)
        closed = closed_forms(values)
        total = 0.0
        for algo in ALGORITHMS:
            sp = run_sort(self.ctx, tr, parent, algo, values, expected, closed.get(algo),
                          (index, i, algo))
            if algo == "arc" and tr.enabled:
                replay_arc(self.ctx, tr, sp.id, values, expected)
            per_algo[algo] += sp.seconds
            total += sp.seconds
        return total

    def warm_up(self) -> None:
        # the first arrays of block 0: block 0 sorts them again and must repeat their counts
        totals = dict.fromkeys(ALGORITHMS, 0.0)
        for i, values in enumerate(self.block(0, self.ctx.untraced, None)[:25]):
            self.sort_all(self.ctx.untraced, None, 0, i, values, totals)

    def cycle(self, tr: Tracer, parent, index: int) -> dict[str, list[float]]:
        per_algo = dict.fromkeys(ALGORITHMS, 0.0)
        arrays = self.block(index, tr, parent)
        self.ref.mark()  # the first array's reference
        times, refs = [], []
        for i, values in enumerate(arrays):
            times.append(self.sort_all(tr, parent, index, i, values, per_algo))
            refs.append(self.ref.units(times[-1]))
        return {"array": times, "array_ref": refs, **{algo: [t] for algo, t in per_algo.items()}}

    def cycle_time(self, c, unit: str = "") -> float:
        return sum(c["array" + unit])

    def details(self, cycles) -> dict:
        times = [x for c in cycles for x in c["array"]]
        return {"mix_arrays_per_s": (len(times) / sum(times), "1/s", len(times))}

    def ratio_bases(self, cycles) -> tuple[float, float]:
        return (fmean(c["selection"][0] for c in cycles), fmean(c["arc"][0] for c in cycles))


class CliPipeline:
    """Fresh ``arcsort`` processes, one at a time.

    A cycle runs ``gen`` of 200,000 sorted values to a file, ``sort --algo
    insertion`` on that file (n-1 comparisons, so parsing and formatting
    dominate), a small ``bench`` grid, and twenty ``sort --algo arc`` runs
    on the six-value golden input (interpreter start and imports dominate).
    The executable is ``python -m arcsort``, which calls the same
    ``arcsort.cli.main`` as the installed ``arcsort`` script.
    """

    name = "cli-pipeline"
    op_key = "small"
    median_name = "cli_sort_small_s"
    tail = ("cli_sort_small_s_p90", 90)
    children_rss = True

    def __init__(self, ctx: Context):
        self.ctx = ctx
        smoke = ctx.smoke
        self.smalls = 2 if smoke else 20
        # at least 100 six-value launches per run, so that ten or more lie beyond p90
        self.min_cycles = 1 if smoke else 100 // self.smalls
        self.gen_spec = DatasetSpec("sorted-ascending", 2_000 if smoke else 200_000, ctx.seed)
        self.gen_values = generate(self.gen_spec)
        self.gen_bytes = as_lines(self.gen_values)
        self.bulk_err = f"comparisons={len(self.gen_values) - 1} swaps=0 writes=0\n".encode()
        self.bench_n = 50 if smoke else 1000
        self.trials = 3
        self.bench_template = DatasetSpec("uniform", 0, ctx.seed)
        self.bench_data = [
            generate(replace(self.bench_template, n=self.bench_n,
                             seed=arcsort_bench.derive_seed(ctx.seed, self.bench_n, t)))
            for t in range(self.trials)
        ]
        self.bench_closed = [closed_forms(d) for d in self.bench_data]
        w = ctx.workdir
        self.golden = w / "golden.txt"
        self.golden.write_bytes(as_lines(GOLDEN))
        self.gen_path, self.bulk_path, self.csv_path = w / "gen.txt", w / "bulk.txt", w / "bench.csv"
        self.text_path, self.main_path = w / "write_text.txt", w / "main.txt"
        self.ref = Reference(interpreter_start(ctx.child_env, w))

    def launch(self, tr: Tracer, parent, name: str, args: list[str], stdout=subprocess.DEVNULL):
        """Run one ``arcsort`` process; ``attrs["ref"]`` is its wall time in interpreter starts."""
        cmd = [sys.executable, "-m", "arcsort", *args]
        with tr.span(name, parent) as sp:
            proc = subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, env=self.ctx.child_env,
                                  cwd=self.ctx.workdir, timeout=120)
        sp.attrs["ref"] = self.ref.units(sp.seconds)
        return sp, proc

    def small(self, tr: Tracer, parent) -> Span:
        sp, proc = self.launch(tr, parent, "cli.sort_small",
                               ["sort", "--algo", "arc", "--metrics", str(self.golden)],
                               stdout=subprocess.PIPE)
        sp.attrs.update(bytes_read=self.golden.stat().st_size, bytes_written=len(proc.stdout))
        self.ctx.check(
            proc.returncode == 0 and proc.stdout == as_lines(GOLDEN_SORTED)
            and proc.stderr == b"comparisons=4 swaps=1 writes=0\n",
            f"arcsort sort --algo arc on six values (exit {proc.returncode})",
        )
        return sp

    def warm_up(self) -> None:
        self.small(self.ctx.untraced, None)

    def check_bench(self, proc) -> tuple[list[int], list[int]]:
        ok = proc.returncode == 0
        rows = []
        try:
            text = self.csv_path.read_text(encoding="ascii")
            report = report_from_csv(text)
            ok = ok and report_to_csv(report) == text and report.meta.seed == self.ctx.seed
            rows = report.rows
        except (OSError, BenchmarkError, ValueError) as exc:
            ok = False
            print(f"perfbench: bench CSV unreadable: {exc}", file=sys.stderr)
        ok = ok and len(rows) == len(ALGORITHMS) * self.trials
        for r in rows:
            m = r.metrics
            closed = self.bench_closed[r.trial].get(r.algorithm) if r.trial < self.trials else None
            ok = ok and self.ctx.repeats((r.algorithm, r.trial), (m.comparisons, m.swaps, m.writes))
            ok = ok and closed in (None, m.comparisons)
        self.ctx.check(ok, f"arcsort bench (exit {proc.returncode})")
        return ([r.elapsed_ns for r in rows if r.algorithm == "arc"],
                [r.elapsed_ns for r in rows if r.algorithm == "selection"])

    def cycle(self, tr: Tracer, parent, index: int) -> dict[str, list[float]]:
        ctx = self.ctx
        self.gen_path.unlink(missing_ok=True)
        self.ref.mark()  # the first launch's reference
        gen, proc = self.launch(tr, parent, "cli.gen", [
            "gen", "--dist", "sorted-ascending", "--n", str(self.gen_spec.n),
            "--seed", str(ctx.seed), "-o", str(self.gen_path)])
        gen.attrs["bytes_written"] = len(self.gen_bytes)
        ctx.check(proc.returncode == 0 and self.gen_path.is_file()
                  and self.gen_path.read_bytes() == self.gen_bytes,
                  f"arcsort gen (exit {proc.returncode})")

        with open(self.bulk_path, "wb") as out:
            bulk, proc = self.launch(tr, parent, "cli.sort_bulk",
                                     ["sort", "--algo", "insertion", "--metrics", str(self.gen_path)],
                                     stdout=out)
        bulk.attrs.update(bytes_read=len(self.gen_bytes), bytes_written=self.bulk_path.stat().st_size)
        ctx.check(proc.returncode == 0 and proc.stderr == self.bulk_err
                  and self.bulk_path.read_bytes() == self.gen_bytes,
                  f"arcsort sort --algo insertion (exit {proc.returncode})")

        self.csv_path.unlink(missing_ok=True)
        bench, proc = self.launch(tr, parent, "cli.bench", [
            "bench", "--algos", ",".join(ALGORITHMS), "--sizes", str(self.bench_n),
            "--trials", str(self.trials), "--warmup", "1", "--seed", str(ctx.seed),
            "-o", str(self.csv_path)])
        arc_ns, sel_ns = self.check_bench(proc)

        smalls = [self.small(tr, parent) for _ in range(self.smalls)]
        if tr.enabled:
            self.replay(tr, parent)
        out = {"bench_arc_ns": arc_ns, "bench_selection_ns": sel_ns}
        for key, spans in (("gen", [gen]), ("bulk", [bulk]), ("bench", [bench]), ("small", smalls)):
            out[key] = [s.seconds for s in spans]
            out[key + "_ref"] = [s.attrs["ref"] for s in spans]
        return out

    def replay(self, tr: Tracer, parent: int) -> None:
        """The cycle's commands again, in process, one public call per span."""
        ctx = self.ctx
        with tr.span("arcsort.generate", parent) as sp:
            values = generate(self.gen_spec)
        sp.attrs["n"] = len(values)
        text = "".join(f"{v}\n" for v in values)
        with tr.span("cli.write_text", parent):
            arcsort_cli.write_text(str(self.text_path), text)
        ctx.check(self.text_path.read_bytes() == self.gen_bytes, "write_text output")

        # cli.main's self time, once its replayed read and sort are taken off,
        # is the formatting and writing of the sorted values
        with open(self.main_path, "w", encoding="ascii") as fh, contextlib.redirect_stdout(fh):
            with tr.span("cli.main", parent) as main:
                code = arcsort_cli.main(["sort", "--algo", "insertion", str(self.gen_path)])
        ctx.check(code == 0 and self.main_path.read_bytes() == self.gen_bytes, "cli.main sort")
        with tr.span("cli.read_integers", main.id):
            values = arcsort_cli.read_integers(str(self.gen_path))
        run_sort(ctx, tr, main.id, "insertion", values, self.gen_values, None, "bulk insertion")

        with tr.span("arcsort.run_benchmark", parent) as sp:
            report = run_benchmark(list(ALGORITHMS), [self.bench_n], self.bench_template,
                                   trials=self.trials, warmup=1)
        sp.attrs["timed_s"] = sum(r.elapsed_ns for r in report.rows) / 1e9
        with tr.span("arcsort.summarize", parent):
            summarize(report)
        with tr.span("arcsort.report_to_csv", parent):
            text = report_to_csv(report)
        ctx.check(report_to_csv(report_from_csv(text)) == text, "in-process bench report")

        # the sorts inside the bench grid and the six-value sort, one span per call
        for algo in ALGORITHMS:
            for t, data in enumerate(self.bench_data):
                expected = sorted(data)
                sp = run_sort(ctx, tr, parent, algo, data, expected,
                              self.bench_closed[t].get(algo), (algo, t))
                if algo == "arc":
                    replay_arc(ctx, tr, sp.id, data, expected)
        sp = run_sort(ctx, tr, parent, "arc", GOLDEN, GOLDEN_SORTED, 4, "golden")
        replay_arc(ctx, tr, sp.id, GOLDEN, GOLDEN_SORTED)

    def cycle_time(self, c, unit: str = "") -> float:
        return c["gen" + unit][0] + c["bulk" + unit][0] + c["bench" + unit][0] + sum(c["small" + unit])

    def details(self, cycles) -> dict:
        out = {}
        for key, name in (("bulk", "cli_sort_bulk_s"), ("gen", "cli_gen_s"), ("bench", "cli_bench_s")):
            xs = [x for c in cycles for x in c[key]]
            out[name] = (median(xs), "s", len(xs))
        return out

    def ratio_bases(self, cycles) -> tuple[float, float]:
        sel = [x for c in cycles for x in c["bench_selection_ns"]]
        arc = [x for c in cycles for x in c["bench_arc_ns"]]
        return median(sel) / 1e9, median(arc) / 1e9


WORKLOADS = {w.name: w for w in (PaperUniform, OracleMix, CliPipeline)}


def op_samples(wl, cycles, unit: str = "") -> list[float]:
    return [x for c in cycles for x in c[wl.op_key + unit]]


def end_to_end(wl, cycles) -> dict:
    """Metrics of the untraced cycles: ``name -> (value, unit, samples)``."""
    ops = op_samples(wl, cycles)
    refs = op_samples(wl, cycles, "_ref")
    out = {
        "op_ref": (median(refs), "ref", len(refs)),
        "cycle_ref": (median([wl.cycle_time(c, "_ref") for c in cycles]), "ref", len(cycles)),
        "op_s": (median(ops), "s", len(ops)),
        "cycle_s": (median([wl.cycle_time(c) for c in cycles]), "s", len(cycles)),
        **wl.details(cycles),
    }
    out[wl.median_name] = out["op_s"]
    if wl.tail:
        name, pct = wl.tail
        out[name] = (percentile(ops, pct), "s", len(ops))
    return out


def layer_metrics(wl, tr: Tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics from the spans of the traced cycles, per cycle.

    Times and counts are totals over the traced cycles divided by their
    number.  Metrics of a layer this workload never calls are left out.
    """
    cycles = len(traced)
    arcs = tr.named("arcsort.arc_sort")
    arc_ids = {s.id for s in arcs}

    def top(name: str) -> list[Span]:
        return [s for s in tr.named(name) if s.parent not in arc_ids]

    def per_cycle_s(spans) -> float:
        return sum(s.ns for s in spans) / 1e9 / cycles

    def attr_sum(spans, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in spans) / cycles

    out: dict[str, tuple[float, str]] = {}
    dist = tr.named("arcsort.distribute")
    buckets = [s for s in tr.named("arcsort.enhanced_selection_sort") if s.parent in arc_ids]
    out["buckets.distribute_s"] = (per_cycle_s(dist), "s")
    out["buckets.concatenate_s"] = (per_cycle_s(tr.named("arcsort.concatenate")), "s")
    out["buckets.arc_self_s"] = (sum(tr.self_ns(s) for s in arcs) / 1e9 / cycles, "s")
    out["buckets.busy_buckets"] = (fmean(s.attrs["busy"] for s in dist), "count")
    out["buckets.max_bucket"] = (max(s.attrs["largest"] for s in dist), "count")
    out["buckets.comparisons"] = (attr_sum(arcs, "comparisons"), "count")
    out["buckets.predicted_comparisons"] = (attr_sum(dist, "predicted"), "count")
    out["buckets.swaps"] = (attr_sum(arcs, "swaps"), "count")

    ess_ns = sum(s.ns for s in buckets)
    out["sorts.ess_bucket_s"] = (ess_ns / 1e9 / cycles, "s")
    out["sorts.ess_ns_per_comparison"] = (ess_ns / sum(s.attrs["comparisons"] for s in buckets), "ns")
    sel = top("arcsort.selection_sort")
    out["sorts.selection_ns_per_comparison"] = (
        sum(s.ns for s in sel) / sum(s.attrs["comparisons"] for s in sel), "ns")
    a, b = fit_pass_costs([(s.attrs["n"] - 1, s.attrs["comparisons"], s.ns) for s in buckets])
    out["sorts.pass_overhead_ns"] = (a, "ns")
    out["sorts.scan_ns_per_element"] = (b, "ns")
    for algo, span_name in SPAN_OF.items():
        spans = top(span_name)
        if spans:
            out[TIME_OF[algo]] = (per_cycle_s(spans), "s")
        for key in ("comparisons", "swaps", "writes"):
            out[f"sorts.{algo}.{key}"] = (attr_sum(spans, key), "count")

    gens = tr.named("arcsort.generate")
    out["datagen.generate_s"] = (per_cycle_s(gens), "s")
    out["datagen.values_per_s"] = (sum(s.attrs["n"] for s in gens) / (sum(s.ns for s in gens) / 1e9), "1/s")

    mains = tr.named("cli.main")
    if mains:
        out["cli.read_integers_s"] = (per_cycle_s(tr.named("cli.read_integers")), "s")
        out["cli.format_write_s"] = (sum(tr.self_ns(s) for s in mains) / 1e9 / cycles, "s")
        out["cli.write_text_s"] = (per_cycle_s(tr.named("cli.write_text")), "s")
        launches = [s for s in tr.spans if s.name in ("cli.gen", "cli.sort_bulk", "cli.sort_small")]
        out["cli.bytes_read"] = (attr_sum(launches, "bytes_read"), "count")
        out["cli.bytes_written"] = (attr_sum(launches, "bytes_written"), "count")
    runs = tr.named("arcsort.run_benchmark")
    if runs:
        out["bench.run_benchmark_s"] = (per_cycle_s(runs), "s")
        out["bench.harness_overhead_s"] = (per_cycle_s(runs) - attr_sum(runs, "timed_s"), "s")
        out["bench.summarize_s"] = (per_cycle_s(tr.named("arcsort.summarize")), "s")
        out["bench.report_to_csv_s"] = (per_cycle_s(tr.named("arcsort.report_to_csv")), "s")

    sel_s, arc_s = wl.ratio_bases(untraced)
    out["bench.arc_vs_selection_ratio"] = (sel_s / arc_s, "ratio")
    out["bench.ratio_selection_s"] = (sel_s, "s")
    out["bench.ratio_arc_s"] = (arc_s, "s")
    out["trace.overhead_s"] = (median(op_samples(wl, traced)) - median(op_samples(wl, untraced)), "s")
    return out
