"""The argparse front end: the parser and the ``gen`` and ``bench`` commands.

It is a module of its own because of compile cost: with no bytecode cache a
launch compiles every module it imports, and a plain ``arcsort sort`` skips this one.
"""

from __future__ import annotations

import argparse
import os

from .sorts import ALGORITHMS
from .cli import EXIT_BAD_ALGO, EXIT_BAD_SPEC, EXIT_IO, STDERR, CliError, cmd_sort, format_lines
from .datagen import (
    DEFAULT_VALUE_HI, DEFAULT_VALUE_LO, DISTRIBUTIONS, DatasetError, DatasetSpec, generate
)

DEFAULT_SIZES = "1000,5000,10000,20000"


def _csv_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def cmd_gen(args: argparse.Namespace) -> list[tuple[object, str]]:
    spec = DatasetSpec(
        distribution=args.dist,
        n=args.n,
        seed=args.seed,
        value_lo=args.min,
        value_hi=args.max,
        digit_class=args.digit_class,
    )
    try:
        values = generate(spec)
    except DatasetError as exc:
        raise CliError(EXIT_BAD_SPEC, str(exc)) from exc
    return [(args.output, format_lines(values))]


def cmd_bench(args: argparse.Namespace) -> list[tuple[object, str]]:
    from . import bench

    if args.plot is not None:  # one destination for both would keep only the text written last
        output, plot = (p if p == "-" else os.path.realpath(p) for p in (args.output, args.plot))
        if output == plot:
            where = "stdout" if plot == "-" else repr(args.plot)
            raise CliError(EXIT_IO, f"-o and --plot cannot both be {where}")
    try:
        sizes = [int(s) for s in _csv_list(args.sizes)]
    except ValueError as exc:
        raise CliError(EXIT_BAD_SPEC, f"bad --sizes value: {exc}") from None
    template = DatasetSpec(
        distribution=args.dist,
        n=0,
        seed=args.seed,
        value_lo=args.min,
        value_hi=args.max,
    )
    try:
        report = bench.run_benchmark(
            _csv_list(args.algos), sizes, template, trials=args.trials, warmup=args.warmup
        )
        summary = bench.summarize(report)  # refuses an empty report before any output
        outputs: list[tuple[object, str]] = [(args.output, bench.report_to_csv(report))]
    except DatasetError as exc:
        raise CliError(EXIT_BAD_SPEC, str(exc)) from exc
    except bench.BenchmarkError as exc:
        code = EXIT_BAD_ALGO if isinstance(exc, bench.UnknownAlgorithmError) else 1
        raise CliError(code, str(exc)) from exc
    if args.plot is not None:
        outputs.append((args.plot, bench.emit_plot_data(summary)))
    table = "".join(
        f"{row.algorithm:>18s}  n={row.n:<8d} median={row.median_ns / 1e6:10.3f} ms  "
        f"mean={row.mean_ns / 1e6:10.3f} ms  comparisons={row.mean_comparisons:.0f}\n"
        for row in summary
    )
    # The summary goes to stderr when stdout holds the CSV or the plot data.
    outputs.append((STDERR if "-" in (args.output, args.plot) else "-", table))
    return outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcsort",
        description="Sort integers by digit-count bucketing, generate datasets, run benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sort = sub.add_parser("sort", help="sort newline-separated integers from a file or stdin")
    p_sort.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    p_sort.add_argument("--metrics", action="store_true", help="print operation counts to stderr")
    p_sort.add_argument("input", metavar="file", help="input path, or - for stdin")
    p_sort.set_defaults(func=cmd_sort)

    p_gen = sub.add_parser("gen", help="generate a seeded dataset")
    p_gen.add_argument("--dist", required=True, help=f"one of: {', '.join(DISTRIBUTIONS)}")
    p_gen.add_argument("--n", required=True, type=int)
    p_gen.add_argument("--seed", required=True, type=int)
    p_gen.add_argument("--min", type=int, default=DEFAULT_VALUE_LO)
    p_gen.add_argument("--max", type=int, default=DEFAULT_VALUE_HI)
    p_gen.add_argument("--digit-class", type=int, default=None)
    p_gen.add_argument("-o", "--output", required=True, help="output path, or - for stdout")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="time the sorts over seeded datasets")
    p_bench.add_argument(
        "--algos", default=",".join(ALGORITHMS), help="comma-separated (default: %(default)s)"
    )
    p_bench.add_argument("--sizes", default=DEFAULT_SIZES)
    p_bench.add_argument(
        "--dist", default="uniform", help=f"one of: {', '.join(DISTRIBUTIONS)} (default: %(default)s)"
    )
    p_bench.add_argument("--trials", type=int, default=5)
    p_bench.add_argument("--warmup", type=int, default=2)
    p_bench.add_argument("--seed", type=int, default=42)
    p_bench.add_argument("--min", type=int, default=DEFAULT_VALUE_LO)
    p_bench.add_argument("--max", type=int, default=DEFAULT_VALUE_HI)
    p_bench.add_argument("-o", "--output", required=True, help="CSV path, or - for stdout")
    p_bench.add_argument("--plot", default=None, help="also write tab-separated plot data here")
    p_bench.set_defaults(func=cmd_bench)
    return parser
