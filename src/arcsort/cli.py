"""Command-line front end: ``sort``, ``gen``, and ``bench`` subcommands.

Exit codes: 0 success, 1 bad ``--trials``/``--warmup`` or a benchmark
run that failed verification, 2 unreadable input, unwritable output (a
file, stdout or stderr) or both ``bench`` outputs on stdout, 3
unparseable, non-ASCII or out-of-range integer (the diagnostic names the
line), 4 invalid dataset spec, 5 unknown benchmark algorithm; an
unwritable stderr loses the message but not the code.  Output files are
written atomically and stdout is only written after the whole input has
parsed, so error paths never leave partial output behind; ``bench``
prints its summary on stderr when ``-o -`` or ``--plot -`` takes stdout.

``sort`` loads only the sorts and parses a plain command line without
argparse, which loads only for other commands, help and usage errors;
``gen`` and ``bench`` import the dataset generators and the timing
harness when they run.
"""

from __future__ import annotations

import errno
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .buckets import (
    ALGORITHMS,
    DEFAULT_VALUE_HI,
    DEFAULT_VALUE_LO,
    DISTRIBUTIONS,
)
from .metrics import SortMetrics
from .sorts import INT64_MAX, INT64_MIN

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_IO = 2
EXIT_BAD_INT = 3
EXIT_BAD_SPEC = 4
EXIT_BAD_ALGO = 5

DEFAULT_SIZES = "1000,5000,10000,20000"


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def read_integers(path: str) -> list[int]:
    """Parse newline-separated signed decimals from a file or stdin (``-``).

    Both sources are read and parsed as bytes, so the same bytes fail the
    same way whatever the locale.  Lines end at LF, CR or CRLF only;
    blank lines are skipped.  A token is ASCII digits with an optional
    leading ``+`` or ``-`` and any leading zeros (``+7`` and ``007`` read
    as 7); a ``_`` digit separator is refused.  A token that is not such
    an integer, or one outside the signed 64-bit range, aborts with the
    offending line number (overflow must error, not clamp: silent
    saturation would corrupt benchmark datasets).
    """
    try:
        if path == "-":
            if sys.stdin is None:  # fd 0 was closed when Python started
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path!r}: {exc}") from exc
    # One pass for well-formed input: int() of bytes reads ASCII digits
    # only and skips the whitespace bytes.strip() would remove.
    if b"_" not in data:
        try:
            values = [int(token) for token in data.splitlines() if token]
        except ValueError:
            pass
        else:
            if not values or (INT64_MIN <= min(values) and max(values) <= INT64_MAX):
                return values
    return _read_lines(data)


def _read_lines(data: bytes) -> list[int]:
    """Parse line by line, skipping blank lines; raise naming the first bad line."""
    values = []
    for lineno, token in enumerate(data.splitlines(), start=1):
        token = token.strip()
        if not token:
            continue
        try:
            if b"_" in token:
                raise ValueError
            value = int(token)
        except ValueError:
            shown = token.decode("ascii", errors="backslashreplace")
            raise CliError(
                EXIT_BAD_INT, f"line {lineno}: {shown!r} is not an integer"
            ) from None
        if not INT64_MIN <= value <= INT64_MAX:
            raise CliError(
                EXIT_BAD_INT, f"line {lineno}: {value} is outside the 64-bit range"
            )
        values.append(value)
    return values


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically, or to stdout for ``-``.

    Raises :class:`CliError` with exit 2 if the text cannot be written.
    """
    write_outputs([(path, text)])


def write_outputs(outputs: Sequence[tuple[str, str]]) -> None:
    """Write each ``(path, text)``, ``-`` meaning stdout, and every file or none.

    Each file's text goes to a temp file beside it, then stdout is written,
    and only then do the temp files replace their paths, so a failure leaves
    no file new.  Raises :class:`CliError` with exit 2 naming the path that
    could not be written.
    """
    staged: list[tuple[str, str]] = []  # (path, its temp file)
    path = "-"
    try:
        for path, text in outputs:
            if path == "-":
                continue
            import tempfile

            if os.path.isdir(path):  # refused now, not by os.replace once another file is replaced
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            directory = os.path.dirname(os.path.abspath(path))
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".arcsort-")
            staged.append((path, tmp))
            umask = os.umask(0)
            os.umask(umask)
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates the file 0600
                fh.write(text)
        for path, text in outputs:
            if path == "-":
                if sys.stdout is None:  # fd 1 was closed when Python started
                    raise OSError(errno.EBADF, os.strerror(errno.EBADF))
                sys.stdout.write(text)
                sys.stdout.flush()  # a full device fails here, not at exit
        while staged:
            path, tmp = staged[0]
            os.replace(tmp, path)
            del staged[0]
    except OSError as exc:
        if path != "-" and exc.errno is not None:
            exc = OSError(exc.errno, exc.strerror, path)  # name the path, not the temp file
        raise CliError(EXIT_IO, f"cannot write {path!r}: {exc}") from None
    finally:
        for _, tmp in staged:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def write_stderr(text: str) -> None:
    """Write ``text`` to stderr now; raises :class:`CliError` with exit 2 if it cannot."""
    try:
        print(text, end="", file=sys.stderr, flush=True)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write to stderr: {exc}") from None


def _csv_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def cmd_sort(args: argparse.Namespace) -> int:
    values = read_integers(args.input)
    metrics = SortMetrics()
    result = ALGORITHMS[args.algo](values, metrics)
    write_text("-", "".join(f"{v}\n" for v in result))
    if args.metrics:
        write_stderr(
            f"comparisons={metrics.comparisons} swaps={metrics.swaps} writes={metrics.writes}\n"
        )
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    from .datagen import DatasetError, DatasetSpec, generate

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
    write_text(args.output, "".join(f"{v}\n" for v in values))
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench
    from .datagen import DatasetError, DatasetSpec

    if args.output == args.plot == "-":
        raise CliError(EXIT_IO, "-o and --plot cannot both be stdout")
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
        outputs = [(args.output, bench.report_to_csv(report))]
    except DatasetError as exc:
        raise CliError(EXIT_BAD_SPEC, str(exc)) from exc
    except bench.BenchmarkError as exc:
        code = EXIT_BAD_ALGO if isinstance(exc, bench.UnknownAlgorithmError) else 1
        raise CliError(code, str(exc)) from exc
    if args.plot:
        outputs.append((args.plot, bench.emit_plot_data(summary)))
    table = "".join(
        f"{row.algorithm:>18s}  n={row.n:<8d} median={row.median_ns / 1e6:10.3f} ms  "
        f"mean={row.mean_ns / 1e6:10.3f} ms  comparisons={row.mean_comparisons:.0f}\n"
        for row in summary
    )
    if "-" in (args.output, args.plot):
        write_outputs(outputs)  # a failure of either leaves neither file new
        write_stderr(table)  # stdout holds the CSV or the plot data
    else:
        write_outputs([*outputs, ("-", table)])  # nor does a failure of stdout
    return EXIT_OK


def _sort_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plain ``sort`` command line, else None.

    Plain is ``sort`` then, in any order, ``--algo NAME`` or ``--algo=NAME``
    once, ``--metrics`` at most once and one input, ``-`` or a non-option.
    """
    if not argv or argv[0] != "sort":
        return None
    args = SimpleNamespace(command="sort", algo=None, metrics=False, input=None, func=cmd_sort)
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--algo":
            token += "=" + next(tokens, "")
        if token.startswith("--algo=") and args.algo is None:
            args.algo = token[len("--algo="):]
        elif token == "--metrics" and not args.metrics:
            args.metrics = True
        elif (token == "-" or not token.startswith("-")) and args.input is None:
            args.input = token
        else:
            return None
    return args if args.algo in ALGORITHMS and args.input is not None else None


def build_parser() -> argparse.ArgumentParser:
    import argparse

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


def main(argv: Sequence[str] | None = None) -> int:
    args = _sort_args(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        try:
            print(f"arcsort: error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            pass  # stderr is unwritable; the exit code still reports the error
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
