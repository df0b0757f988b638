"""Run an arcsort benchmark workload and print its result as one JSON line.

Run from the root of an arcsort checkout:

    python3 perfbench/run.py --workload paper-uniform-20k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer ones; ``--workload all`` runs every workload
and prints each metric the benchmark knows, by workload.  ``--smoke`` runs
every workload on tiny inputs and checks that each metric appears with
its unit.  Outside smoke mode the last line of standard output is the
JSON result; the lines before it are a readable report of every metric
and of the environment, which is also written to ``.bench_build/perfbench/``.

Each workload runs in fresh worker processes, one at a time (see
worker.py): one measures, and several before and after it set up and stop,
so that set-up time is a median.  Nothing here imports arcsort.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-uniform-20k", "oracle-mix", "cli-pipeline")
SETUP_RUNS = 7  # set-ups per run, half before and half after measuring; setup_s is their median
DEADLINE_S = 170  # a workload run ends within 180 s even when a worker hangs

# Metrics the benchmark's documentation names, with their units.  The smoke
# mode checks that the workloads together report each of them.
NAMED_END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio",
    "arc_sort_s": "s", "selection_sort_s": "s",
    "mix_arrays_per_s": "1/s", "mix_array_s_p50": "s", "mix_array_s_p99": "s",
    "cli_sort_small_s": "s", "cli_sort_small_s_p90": "s", "cli_sort_bulk_s": "s",
    "cli_gen_s": "s", "cli_bench_s": "s",
}
NAMED_PER_LAYER = {
    "buckets.distribute_s": "s", "buckets.concatenate_s": "s", "buckets.arc_self_s": "s",
    "buckets.busy_buckets": "count", "buckets.max_bucket": "count",
    "buckets.comparisons": "count", "buckets.predicted_comparisons": "count",
    "buckets.swaps": "count",
    "sorts.ess_bucket_s": "s", "sorts.ess_ns_per_comparison": "ns",
    "sorts.selection_ns_per_comparison": "ns",
    "sorts.pass_overhead_ns": "ns", "sorts.scan_ns_per_element": "ns",
    "sorts.enhanced_selection_s": "s", "sorts.selection_s": "s", "sorts.insertion_s": "s",
    "sorts.bubble_s": "s", "buckets.arc_s": "s",
    **{
        f"sorts.{algo}.{key}": "count"
        for algo in ("arc", "enhanced-selection", "selection", "insertion", "bubble")
        for key in ("comparisons", "swaps", "writes")
    },
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.read_integers_s": "s",
    "cli.format_write_s": "s", "cli.write_text_s": "s",
    "cli.bytes_read": "count", "cli.bytes_written": "count",
    "datagen.generate_s": "s", "datagen.values_per_s": "1/s",
    "bench.run_benchmark_s": "s", "bench.harness_overhead_s": "s",
    "bench.summarize_s": "s", "bench.report_to_csv_s": "s",
    "bench.arc_vs_selection_ratio": "ratio",
    "bench.ratio_selection_s": "s", "bench.ratio_arc_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def run_worker(root: Path, workload: str, args: list[str], deadline: float) -> tuple[float, dict]:
    """Start one worker; return its set-up time and its final JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--checkout", str(root),
           "--workload", workload, *args]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.terminate()  # the worker stops its own child on SIGTERM
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if code != 0 or ready.strip() != "READY" or not lines:
        raise BenchError(f"worker for {workload} failed (exit {code})")
    return setup_s, json.loads(lines[-1])


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: int,
                 smoke: bool) -> dict:
    """All metrics of one workload run, end to end (trace 0) or per layer (trace 1)."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        common.append("--smoke")
    attempted = failed = 0
    setups = []

    def worker(args: list[str]) -> dict:
        nonlocal attempted, failed
        setup_s, res = run_worker(root, workload, args, deadline)
        setups.append(setup_s)
        attempted += res["attempted"]
        failed += res["failed"]
        return res

    # set-up is an end-to-end metric, so only the untraced run repeats it;
    # set-ups on both sides of the measurement see more of the host's spells
    extra = SETUP_RUNS - 1 if not trace else 0
    for _ in range(extra // 2):
        worker([*common, "--setup-only"])
    res = worker(common)
    for _ in range(extra - extra // 2):
        worker([*common, "--setup-only"])
    metrics = res["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": median(setups), "unit": "s", "samples": len(setups)}
        metrics["ok_rate"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
        metrics["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    return {"workload": workload, "seed": seed, "trace": trace, "attempted": attempted,
            "failed": failed, "metrics": metrics, "env": res["env"], "spans": res.get("spans")}


def contract_metrics(result: dict, spec: dict) -> dict:
    """The metrics BENCHMARK.json lists for this kind of run, checked for presence and unit."""
    listed = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    out = {}
    for entry in listed:
        got = result["metrics"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            raise BenchError(f"{result['workload']}: metric {entry['name']} missing or not in {entry['unit']}")
        out[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def report(result: dict, root: Path) -> None:
    """Print every metric and the environment; keep the same as JSON under .bench_build."""
    env = result["env"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"checks={result['attempted'] - result['failed']}/{result['attempted']} "
          f"backend={env['backend']} python={env['python']} numpy={env['numpy']} "
          f"numba={env['numba'] or 'absent'} nproc={env['nproc']} cpu={env['cpu_model']!r}")
    for name, m in sorted(result["metrics"].items()):
        samples = f"  n={m['samples']}" if "samples" in m else ""
        print(f"#   {name:38s} {m['value']:>16.6g} {m['unit']}{samples}")
    out = root / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"result-{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")


def smoke(root: Path, spec: dict) -> None:
    """Every workload on tiny inputs, traced and untraced; every named metric must appear."""
    seen: dict[int, dict[str, str]] = {0: {}, 1: {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(root, workload, 1, 1, trace, True)
            report(result, root)
            contract_metrics(result, spec)
            if result["failed"]:
                raise BenchError(f"{workload}: {result['failed']} failed checks")
            seen[trace].update({k: m["unit"] for k, m in result["metrics"].items()})
    for trace, named in ((0, NAMED_END_TO_END), (1, NAMED_PER_LAYER)):
        wrong = sorted(k for k, unit in named.items() if seen[trace].get(k) != unit)
        if wrong:
            raise BenchError(f"smoke: missing or mis-unitted metrics: {', '.join(wrong)}")
    print("# smoke: every workload ran and every named metric appeared with its unit")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit, so that the finally blocks stop the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")

    root = Path.cwd()
    if not (root / "src" / "arcsort" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no arcsort source (src/arcsort); run from a checkout's root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    try:
        if args.smoke:
            smoke(root, spec)
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for workload in names:
            result = run_workload(root, workload, args.seed, args.seconds, args.trace, False)
            report(result, root)
            results.append(result)
        if args.workload == "all":
            metrics = {f"{r['workload']}/{k}": {"value": m["value"], "unit": m["unit"]}
                       for r in results for k, m in r["metrics"].items()}
        else:
            metrics = contract_metrics(results[0], spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
