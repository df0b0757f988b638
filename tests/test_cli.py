"""CLI contract: subcommands, exit codes, atomic output."""

from __future__ import annotations

import io
import os
import stat
import subprocess
import sys

import pytest

from arcsort.cli import main

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
    target = tmp_path / "missing" / "out.txt"
    assert main([*argv, str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"arcsort: error: cannot write {str(target)!r}")


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


def test_bench_unknown_algo_exit_5(tmp_path):
    rc = main(["bench", "--algos", "arc,heapsort", "--sizes", "4", "-o", str(tmp_path / "r.csv")])
    assert rc == 5


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--warmup", "-1")])
def test_bench_bad_repetitions_exit_1(tmp_path, capsys, flag, value):
    out = tmp_path / "r.csv"
    assert main(["bench", "--algos", "arc", "--sizes", "4", flag, value, "-o", str(out)]) == 1
    assert "arcsort: error:" in capsys.readouterr().err
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
