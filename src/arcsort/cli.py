"""Command-line entry point and the ``sort`` command.

Exit codes: 0 success, 1 bad ``--trials``/``--warmup`` or a benchmark
run that failed verification, 2 unreadable input, unwritable output (a
file, stdout or stderr), an existing destination that is not a regular
file or both ``bench`` outputs on one destination,
3 unparseable, non-ASCII or out-of-range integer (the diagnostic names
the line), 4 invalid dataset spec, 5 unknown benchmark algorithm; an
unwritable stderr loses the message but not the code.  Commands return
their outputs and :func:`main` writes them once the whole input has
parsed: stdout and stderr first, then each file atomically, so error
paths never leave partial output or a new file behind; ``bench`` prints
its summary on stderr when ``-o -`` or ``--plot -`` takes stdout.

A plain ``sort`` command line is parsed here without argparse and loads
only the sorts.  Any other line goes to :mod:`arcsort.commands`, the
argparse front end with ``gen`` and ``bench``, which imports the dataset
generators, and the timing harness when ``bench`` runs.
"""

from __future__ import annotations

import errno
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .sorts import ALGORITHMS, INT64_MAX, INT64_MIN, SortMetrics

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_IO = 2
EXIT_BAD_INT = 3
EXIT_BAD_SPEC = 4
EXIT_BAD_ALGO = 5

STDERR = object()  # the stderr destination; not a str, so no path equals it


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
            values = list(map(int, filter(None, data.splitlines())))
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
        sign = token[:1] if token[:1] in (b"+", b"-") else b""
        if not token[len(sign):].isdigit():  # ASCII digits only, so no "_" either
            shown = token.decode("ascii", errors="backslashreplace")
            raise CliError(EXIT_BAD_INT, f"line {lineno}: {shown!r} is not an integer")
        digits = token[len(sign):].lstrip(b"0") or b"0"  # int() counts zeros to its digit limit
        value = int(sign + digits[:20])  # no int64 has 20 digits
        if not INT64_MIN <= value <= INT64_MAX:
            shown = value if len(digits) < 20 else f"a {len(digits)}-digit value"  # may be long
            raise CliError(EXIT_BAD_INT, f"line {lineno}: {shown} is outside the 64-bit range")
        values.append(value)
    return values


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically, or to stdout for ``-``.

    No command calls it; it stays because ``perfbench/workloads.py`` times it.
    """
    write_outputs([(path, text)])


def write_outputs(outputs: Sequence[tuple[object, str]]) -> None:
    """Write each ``(destination, text)``, and every file or none.

    A destination is a path, ``-`` for stdout or :data:`STDERR`.  A path
    is followed through symlinks to the file it names, and each file's text
    goes to a temp file beside that file; then the streams are written in
    list order, and only then do the temp files replace their files, so a
    failure leaves no file new.  Raises :class:`CliError` with exit 2
    naming the destination as given, also for one that exists but is not
    a regular file.
    """
    staged: list[tuple[str, str, str]] = []  # (path, the file it names, its temp file)
    path: object = "-"
    try:
        for path, text in outputs:
            if path in ("-", STDERR):
                continue
            import tempfile

            # refused now, not by os.replace once another file is replaced
            if not path:
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
            target = os.path.realpath(path)
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if os.path.exists(target) and not os.path.isfile(target):
                raise OSError("not a regular file")
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".arcsort-")
            staged.append((path, target, tmp))
            umask = os.umask(0)
            os.umask(umask)
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates the file 0600
                fh.write(text)
        for path, text in outputs:
            if path in ("-", STDERR):
                stream = sys.stdout if path == "-" else sys.stderr
                if stream is None:  # its fd was closed when Python started
                    raise OSError(errno.EBADF, os.strerror(errno.EBADF))
                stream.write(text)
                stream.flush()  # a full device fails here, not at exit
        while staged:
            path, target, tmp = staged[0]
            os.replace(tmp, target)
            del staged[0]
    except OSError as exc:
        if path not in ("-", STDERR) and exc.errno is not None:
            exc = OSError(exc.errno, exc.strerror, path)  # name the path, not the temp file
        where = "to stderr" if path is STDERR else repr(path)
        raise CliError(EXIT_IO, f"cannot write {where}: {exc}") from None
    finally:
        for *_, tmp in staged:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def format_lines(values: list[int]) -> str:
    """Each value in decimal on a line of its own, in one C-level format call."""
    return "%d\n" * len(values) % tuple(values)


def cmd_sort(args: argparse.Namespace) -> list[tuple[object, str]]:
    values = read_integers(args.input)
    metrics = SortMetrics()
    result = ALGORITHMS[args.algo](values, metrics)
    outputs: list[tuple[object, str]] = [("-", format_lines(result))]
    if args.metrics:
        line = f"comparisons={metrics.comparisons} swaps={metrics.swaps} writes={metrics.writes}\n"
        outputs.append((STDERR, line))
    return outputs


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


def main(argv: Sequence[str] | None = None) -> int:
    args = _sort_args(sys.argv[1:] if argv is None else argv)
    if args is None:  # anything but a plain sort needs argparse
        from .commands import build_parser

        args = build_parser().parse_args(argv)
    try:
        write_outputs(args.func(args))
    except CliError as exc:
        try:
            print(f"arcsort: error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            pass  # stderr is unwritable; the exit code still reports the error
        return exc.code
    return EXIT_OK
