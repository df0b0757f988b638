"""CLI contract: subcommands, exit codes, atomic output."""

from __future__ import annotations

import io
import os
import stat
import subprocess
import sys
from itertools import chain, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arcsort
from arcsort import ALGORITHMS
from arcsort.bench import report_from_csv, report_to_csv
from arcsort.cli import _sort_args, build_parser, main

SRC = str(Path(arcsort.__file__).resolve().parent.parent)

GOLDEN = "349\n34\n-72\n22\n14\n-1\n"
GOLDEN_SORTED = "-72\n-1\n14\n22\n34\n349\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_sort_golden_file(tmp_path, capsys):
    path = write(tmp_path, "in.txt", GOLDEN)
    assert main(["sort", "--algo", "arc", path]) == 0
    assert capsys.readouterr().out == GOLDEN_SORTED


def fake_stdin(data: bytes) -> io.TextIOWrapper:
    """A text stdin over ``data`` whose own codec fails on any non-UTF-8 byte."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")


def test_sort_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", fake_stdin(GOLDEN.encode()))
    assert main(["sort", "--algo", "arc", "-"]) == 0
    assert capsys.readouterr().out == GOLDEN_SORTED


def test_sort_stdin_non_ascii_byte_names_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", fake_stdin(b"1\n\xe9\n"))
    assert main(["sort", "--algo", "arc", "-"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2" in captured.err


def test_sort_stdin_strict_codec_process_exits_3():
    proc = subprocess.run(
        [sys.executable, "-m", "arcsort", "sort", "--algo", "arc", "-"],
        input=b"1\n\xe9\n",
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
    )
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert b"line 2" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_sort_empty_file(tmp_path, capsys):
    path = write(tmp_path, "empty.txt", "")
    assert main(["sort", "--algo", "arc", path]) == 0
    assert capsys.readouterr().out == ""


def test_sort_skips_blank_lines(tmp_path, capsys):
    path = write(tmp_path, "in.txt", "3\n\n  \n1\n2\n")
    assert main(["sort", "--algo", "bubble", path]) == 0
    assert capsys.readouterr().out == "1\n2\n3\n"


def test_sort_parse_error_names_line(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "abc\n")
    assert main(["sort", "--algo", "arc", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1" in captured.err


def test_sort_no_partial_output_on_late_error(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "1\n2\nxyz\n")
    assert main(["sort", "--algo", "arc", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3" in captured.err


def test_sort_non_ascii_byte_names_line(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1\n\xe9\n")
    assert main(["sort", "--algo", "arc", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2" in captured.err


def test_sort_line_numbers_count_newlines_only(tmp_path, capsys):
    # \f is whitespace inside a line, not a line break: "foo" is on line 3
    path = tmp_path / "ff.txt"
    path.write_bytes(b"1\n\f2\nfoo\n")
    assert main(["sort", "--algo", "arc", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3" in captured.err


@pytest.mark.parametrize("sep", [b"\x1c", b"\x1d", b"\x1e", b"\v"])
def test_sort_does_not_split_on_non_newline_separators(monkeypatch, capsys, sep):
    monkeypatch.setattr(sys, "stdin", fake_stdin(b"1\n2" + sep + b"3\n"))
    assert main(["sort", "--algo", "arc", "-"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2" in captured.err


@pytest.mark.parametrize("text", [b"3\r1\r\n2\n", b"3\r\n1\r2"])
def test_sort_accepts_cr_and_crlf_line_ends(tmp_path, capsys, text):
    path = tmp_path / "cr.txt"
    path.write_bytes(text)
    assert main(["sort", "--algo", "insertion", str(path)]) == 0
    assert capsys.readouterr().out == "1\n2\n3\n"


def test_sort_rejects_out_of_range(tmp_path, capsys):
    path = write(tmp_path, "big.txt", f"{2**63}\n")
    assert main(["sort", "--algo", "arc", path]) == 3
    assert "line 1" in capsys.readouterr().err


def test_sort_accepts_int64_bounds(tmp_path, capsys):
    path = write(tmp_path, "edge.txt", f"{2**63 - 1}\n{-(2**63)}\n")
    assert main(["sort", "--algo", "insertion", path]) == 0
    assert capsys.readouterr().out == f"{-(2**63)}\n{2**63 - 1}\n"


def test_sort_out_of_range_names_its_line(tmp_path, capsys):
    path = write(tmp_path, "big.txt", f"1\n\n{-(2**63) - 1}\n{2**63}\n")
    assert main(["sort", "--algo", "arc", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line 3: {-(2**63) - 1} is outside the 64-bit range" in captured.err


@pytest.mark.parametrize("token", ["1_000", "-1_0", "_7", "7_"])
def test_sort_rejects_digit_separators(tmp_path, capsys, token):
    # int() reads "1_000" as 1000; a data file should not
    path = write(tmp_path, "sep.txt", f"5\n{token}\n")
    assert main(["sort", "--algo", "arc", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line 2: {token!r} is not an integer" in captured.err


def test_sort_accepts_sign_and_leading_zeros(tmp_path, capsys):
    path = write(tmp_path, "signs.txt", "+7\n007\n-0\n-08\n \t12 \n+0\n")
    assert main(["sort", "--algo", "arc", path]) == 0
    assert capsys.readouterr().out == "-8\n0\n0\n7\n7\n12\n"


def test_sort_unreadable_file(tmp_path, capsys):
    assert main(["sort", "--algo", "arc", str(tmp_path / "missing.txt")]) == 2
    assert capsys.readouterr().out == ""


def test_sort_metrics_flag_goes_to_stderr(tmp_path, capsys):
    path = write(tmp_path, "in.txt", "3\n1\n2\n")
    assert main(["sort", "--algo", "selection", "--metrics", path]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1\n2\n3\n"
    assert "comparisons=3" in captured.err


def test_sort_metrics_line_is_exact(tmp_path, capsys):
    assert main(["sort", "--algo", "arc", "--metrics", write(tmp_path, "in.txt", GOLDEN)]) == 0
    assert capsys.readouterr().err == "comparisons=4 swaps=1 writes=0\n"


def test_all_algorithms_agree_byte_for_byte(tmp_path, capsys):
    path = write(tmp_path, "in.txt", GOLDEN)
    outputs = set()
    for algo in ("arc", "enhanced-selection", "selection", "insertion", "bubble"):
        assert main(["sort", "--algo", algo, path]) == 0
        outputs.add(capsys.readouterr().out)
    assert outputs == {GOLDEN_SORTED}


def test_gen_writes_n_lines(tmp_path):
    out = tmp_path / "data.txt"
    rc = main(["gen", "--dist", "one-per-bucket", "--n", "4", "--seed", "1", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert all(int(line) > 0 for line in lines)


def test_gen_same_seed_identical_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["gen", "--dist", "uniform", "--n", "100", "--seed", "9", "--min", "-50", "--max", "50"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_gen_output_honours_umask(tmp_path, umask, mode):
    out = tmp_path / "data.txt"
    saved = os.umask(umask)
    try:
        assert main(["gen", "--dist", "uniform", "--n", "3", "--seed", "1", "-o", str(out)]) == 0
    finally:
        os.umask(saved)
    assert stat.S_IMODE(out.stat().st_mode) == mode


def test_gen_n_zero_empty_file(tmp_path):
    out = tmp_path / "empty.txt"
    assert main(["gen", "--dist", "uniform", "--n", "0", "--seed", "1", "-o", str(out)]) == 0
    assert out.read_bytes() == b""


def test_gen_stdout(capsys):
    assert main(["gen", "--dist", "single-bucket", "--n", "3", "--seed", "2",
                 "--digit-class", "2", "-o", "-"]) == 0
    values = [int(v) for v in capsys.readouterr().out.split()]
    assert len(values) == 3
    assert all(10 <= v <= 99 for v in values)


def test_gen_invalid_spec_exit_4(tmp_path, capsys):
    out = tmp_path / "never.txt"
    rc = main(["gen", "--dist", "one-per-bucket", "--n", "25", "--seed", "1", "-o", str(out)])
    assert rc == 4
    assert not out.exists()  # nothing partial left behind


UNWRITABLE = [
    ["gen", "--dist", "uniform", "--n", "3", "--seed", "1", "-o"],
    ["bench", "--algos", "arc", "--sizes", "4", "--trials", "1", "--warmup", "0", "-o"],
]


@pytest.mark.parametrize("argv", UNWRITABLE, ids=["gen", "bench"])
def test_unwritable_output_exit_2(tmp_path, capsys, argv):
    target = str(tmp_path / "missing" / "out.txt")
    assert main([*argv, target]) == 2
    assert capsys.readouterr().err == (  # names the requested path, not the temp file
        f"arcsort: error: cannot write {target!r}: "
        f"[Errno 2] No such file or directory: {target!r}\n"
    )


BENCH_TINY = UNWRITABLE[1][:-1]


@pytest.mark.parametrize("failing", ["-o", "--plot"])
@pytest.mark.parametrize("cause", ["missing-dir", "is-a-dir"])
def test_bench_failed_output_leaves_neither_file_new(tmp_path, capsys, failing, cause):
    good = {"-o": tmp_path / "r.csv", "--plot": tmp_path / "p.tsv"}
    bad = tmp_path / "missing" / "x" if cause == "missing-dir" else tmp_path / "dir"
    (tmp_path / "dir").mkdir()
    good["-o"].write_text("old csv\n")  # an existing file keeps its content
    outputs = {**good, failing: bad}
    assert main([*BENCH_TINY, "-o", str(outputs["-o"]), "--plot", str(outputs["--plot"])]) == 2
    assert capsys.readouterr().err.startswith(f"arcsort: error: cannot write {str(bad)!r}: ")
    assert good["-o"].read_text() == "old csv\n"
    assert not good["--plot"].exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "r.csv"]  # no temp file left


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("full_stream", ["stdout", "stderr"])
def test_bench_csv_to_full_stdout_leaves_no_plot(tmp_path, full_stream):
    plot = tmp_path / "p.tsv"  # the CSV goes to stdout, so the summary goes to stderr
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "arcsort", *BENCH_TINY, "-o", "-", "--plot", str(plot)],
            stdout=full if full_stream == "stdout" else subprocess.PIPE,
            stderr=full if full_stream == "stderr" else subprocess.PIPE,
        )
    assert proc.returncode == 2
    if full_stream == "stdout":
        assert proc.stderr.startswith(b"arcsort: error: cannot write '-'")
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_process_prints_no_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "arcsort", *UNWRITABLE[0], str(tmp_path / "missing" / "x")],
        capture_output=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"arcsort: error: cannot write")
    assert b"Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("command", ["sort", "bench"])
def test_stdout_to_full_device_exit_2(tmp_path, command):
    argv = {
        "sort": ["sort", "--algo", "arc", "-"],
        "bench": [*UNWRITABLE[1], str(tmp_path / "r.csv")],  # only the summary goes to stdout
    }[command]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "arcsort", *argv],
            input=b"3\n1\n",
            stdout=full,
            stderr=subprocess.PIPE,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"arcsort: error: cannot write '-'")
    assert b"Traceback" not in proc.stderr
    assert b"Exception ignored" not in proc.stderr
    assert list(tmp_path.iterdir()) == []  # bench's CSV is not left behind


CLOSED_STREAM = [
    (["sort", "--algo", "arc", "-"], "<&-", b"cannot read '-'"),
    (["sort", "--algo", "arc", "in.txt"], ">&-", b"cannot write '-'"),
    (["gen", "--dist", "uniform", "--n", "3", "--seed", "1", "-o", "-"], ">&-", b"cannot write '-'"),
    ([*BENCH_TINY, "-o", "-", "--plot", "p.tsv"], ">&-", b"cannot write '-'"),
    ([*BENCH_TINY, "-o", "r.csv", "--plot", "p.tsv"], ">&-", b"cannot write '-'"),  # the summary
]


@pytest.mark.parametrize(
    "argv, redirect, message",
    CLOSED_STREAM,
    ids=["sort-stdin", "sort-stdout", "gen-stdout", "bench-csv-stdout", "bench-summary-stdout"],
)
def test_closed_standard_stream_exit_2(tmp_path, argv, redirect, message):
    (tmp_path / "in.txt").write_text(GOLDEN)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(  # the shell closes the descriptor before Python starts
        ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "arcsort", *argv],
        stdout=subprocess.PIPE if redirect == "<&-" else None,
        stderr=subprocess.PIPE,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr == b"arcsort: error: " + message + b": [Errno 9] Bad file descriptor\n"
    assert [p.name for p in tmp_path.iterdir()] == ["in.txt"]  # no bench or gen file new


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "argv, stdin, code, stdout",
    [
        (["sort", "--algo", "arc", "--metrics", "-"], b"3\n1\n", 2, b"1\n3\n"),
        (["sort", "--algo", "arc", "-"], b"3\nx\n", 3, b""),
        (["gen", "--dist", "nope", "--n", "3", "--seed", "1", "-o", "-"], b"", 4, b""),
    ],
    ids=["metrics", "bad-line", "bad-spec"],
)
def test_stderr_to_full_device_keeps_exit_code(argv, stdin, code, stdout):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "arcsort", *argv],
            input=stdin,
            stdout=subprocess.PIPE,
            stderr=full,
        )
    assert (proc.returncode, proc.stdout) == (code, stdout)


def test_bench_unknown_algo_exit_5(tmp_path):
    rc = main(["bench", "--algos", "arc,heapsort", "--sizes", "4", "-o", str(tmp_path / "r.csv")])
    assert rc == 5


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--warmup", "-1")])
def test_bench_bad_repetitions_exit_1(tmp_path, capsys, flag, value):
    out = tmp_path / "r.csv"
    assert main(["bench", "--algos", "arc", "--sizes", "4", flag, value, "-o", str(out)]) == 1
    assert "arcsort: error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", [["--sizes", ""], ["--algos", ","]], ids=["no-sizes", "no-algos"])
def test_bench_empty_grid_leaves_no_output(tmp_path, capsys, grid):
    out = tmp_path / "r.csv"
    argv = ["bench", "--algos", "arc", "--sizes", "4", "--trials", "1", "--warmup", "0"]
    assert main([*argv, *grid, "-o", str(out)]) == 1
    assert capsys.readouterr().err == "arcsort: error: cannot summarize an empty report\n"
    assert not out.exists()


def test_bench_grid_row_count(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main([
        "bench", "--algos", "arc,selection", "--sizes", "8,16", "--dist", "uniform",
        "--trials", "2", "--warmup", "0", "--seed", "5", "-o", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "algorithm,distribution,n,trial,elapsed_ns,comparisons,swaps,writes"
    assert len(data) == 1 + 2 * 2 * 2
    assert "median" in capsys.readouterr().out


def test_bench_sizes_zero(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["bench", "--algos", "arc", "--sizes", "0", "--trials", "1",
               "--warmup", "0", "-o", str(out)])
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "algorithm"))]
    assert rows
    for row in rows:
        assert row.endswith(",0,0,0")  # comparisons, swaps, writes all zero


def test_bench_single_algo_plot(tmp_path):
    out, plot = tmp_path / "r.csv", tmp_path / "p.tsv"
    rc = main(["bench", "--algos", "arc", "--sizes", "4,8", "--trials", "1",
               "--warmup", "0", "-o", str(out), "--plot", str(plot)])
    assert rc == 0
    lines = plot.read_text().splitlines()
    assert lines[0] == "# n\tarc"
    assert len(lines) == 3


def test_console_entry_point(tmp_path):
    path = write(tmp_path, "in.txt", GOLDEN)
    proc = subprocess.run(
        [sys.executable, "-m", "arcsort", "sort", "--algo", "arc", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_SORTED


def test_bench_csv_on_stdout_reads_back(capsys):
    argv = ["bench", "--algos", "arc", "--sizes", "4", "--trials", "1", "--warmup", "0", "-o", "-"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert report_to_csv(report_from_csv(captured.out)) == captured.out
    assert "median" in captured.err  # the summary moves to stderr


def test_bench_plot_on_stdout_is_only_the_plot(tmp_path, capsys):
    argv = ["bench", "--algos", "arc", "--sizes", "4", "--trials", "1", "--warmup", "0"]
    assert main([*argv, "-o", str(tmp_path / "r.csv"), "--plot", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "# n\tarc"
    assert len(captured.out.splitlines()) == 2
    assert "median" in captured.err


@pytest.mark.parametrize(
    "output, plot, where",
    [("-", "-", "stdout"), ("r.csv", "./r.csv", "'./r.csv'")],
    ids=["stdout", "file"],
)
def test_bench_refuses_csv_and_plot_both_on_stdout(
    tmp_path, monkeypatch, capsys, output, plot, where
):
    monkeypatch.chdir(tmp_path)
    argv = ["bench", "--algos", "arc", "--sizes", "4", "--trials", "1", "--warmup", "0"]
    assert main([*argv, "-o", output, "--plot", plot]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"arcsort: error: -o and --plot cannot both be {where}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "dist", [["single-bucket", "--digit-class", "3"], ["one-per-bucket"]], ids=lambda d: d[0]
)
def test_gen_ignores_a_value_range_it_does_not_draw_from(capsys, dist):
    argv = ["gen", "--dist", *dist, "--n", "3", "--seed", "1", "-o", "-"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert main([*argv, "--min", "5", "--max", "4"]) == 0
    assert capsys.readouterr().out == expected


# Tokens the fast sort parser and argparse are compared on.
TOKENS = [
    "sort", "gen", "bench", "--algo", "--algo=arc", "--algo=nope", "--algo=", *ALGORITHMS,
    "nope", "--metrics", "--metrics=1", "--met", "--al", "-h", "--help", "-", "--", "-5", "",
    "x.txt",
]


# ``--algo NAME`` drawn as one piece, so that whole sort command lines are common.
PIECES = st.sampled_from([["--algo", name] for name in ALGORITHMS] + [[t] for t in TOKENS])


@settings(max_examples=300)
@given(
    argv=st.lists(st.sampled_from(TOKENS), max_size=6)
    | st.lists(PIECES, max_size=4).map(lambda pieces: ["sort", *sum(pieces, [])]),
    canonical=st.just(False),
)
@example(argv=["sort", "--algo", "arc", "x.txt"], canonical=True)
@example(argv=["sort", "--algo=bubble", "--metrics", "-"], canonical=True)
@example(argv=["sort", "x.txt", "--metrics", "--algo", "insertion"], canonical=True)
@example(argv=["sort", "-", "--algo=enhanced-selection"], canonical=True)
@example(argv=["sort", "--metrics", "", "--algo", "selection"], canonical=True)
def test_sort_args_agree_with_argparse(argv, canonical):
    args = _sort_args(argv)
    if canonical:
        assert args is not None
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("head", [["--algo", "arc"], ["--metrics", "--algo=bubble"]])
def test_sort_args_agree_with_argparse_on_every_token_pair(head):
    """Every one or two tokens after, or around, a valid ``--algo``."""
    for tail in chain(product(TOKENS), product(TOKENS, repeat=2)):
        for argv in (["sort", *head, *tail], ["sort", tail[0], *head, *tail[1:]]):
            args = _sort_args(argv)
            assert args is None or vars(args) == vars(build_parser().parse_args(argv)), argv


USAGE = (
    b"usage: arcsort sort [-h] --algo\n"
    b"                    {arc,bubble,enhanced-selection,insertion,selection}\n"
    b"                    [--metrics]\n"
    b"                    file\n"
)


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (
            ["sort", "--algo", "nope", "x"],
            USAGE + b"arcsort sort: error: argument --algo: invalid choice: 'nope' (choose from "
            b"'arc', 'bubble', 'enhanced-selection', 'insertion', 'selection')\n",
        ),
        (
            ["sort", "--al", "arc", "FILE"],
            b"arcsort: error: cannot read 'FILE': [Errno 2] No such file or directory: 'FILE'\n",
        ),
        (["sort"], USAGE + b"arcsort sort: error: the following arguments are required: --algo, file\n"),
    ],
    ids=["bad-choice", "abbreviation", "no-arguments"],
)
def test_sort_usage_errors_are_argparses(tmp_path, argv, stderr):
    env = {**os.environ, "COLUMNS": "80"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "arcsort", *argv], capture_output=True, cwd=tmp_path, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", stderr)
