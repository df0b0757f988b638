"""One workload run in a fresh interpreter: set up, warm up, measure, report.

run.py starts this script; it is not meant to be run by hand:

    python perfbench/worker.py --checkout DIR --workload NAME --seed N \
        --seconds S --trace 0|1 [--smoke] [--setup-only]

It imports arcsort from ``DIR/src``, builds the workload's inputs and runs
its untimed warm-up, then prints ``READY``.  The parent times set-up from
launch to that line.  With ``--setup-only`` it stops there; otherwise it
measures for ``--seconds`` and prints one JSON line with its results.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import arcsort; print(time.perf_counter() - t)"
)


def package_version(name: str) -> str | None:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    """Which backend ran and on what: recorded with every result."""
    compiled = available = None
    try:
        from arcsort import _kernels, sorts

        compiled = getattr(sorts, "USE_COMPILED", None)
        available = getattr(_kernels, "AVAILABLE", None)
    except ImportError:
        pass
    return {
        "backend": {True: "numba", False: "pure"}.get(compiled, "unknown"),
        "use_compiled": compiled,
        "kernels_available": available,
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "numba": package_version("numba"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def measure(wl, ctx, seconds: float, trace: bool) -> tuple[list, list]:
    """Repeat cycles until the next one would end past ``seconds``.

    A traced run alternates an untraced and a traced cycle on the same
    inputs; the untraced ones give the baseline for the tracing overhead.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        index = 0 if trace else len(untraced)
        untraced.append(wl.cycle(ctx.untraced, None, index))
        if trace:
            with ctx.tracer.span("perfbench.cycle") as cycle:
                traced.append(wl.cycle(ctx.tracer, cycle.id, index))
        now = time.perf_counter()
        enough = len(untraced) >= (1 if trace else wl.min_cycles)
        if enough and (now - start) + (now - t0) > seconds:
            return untraced, traced


def interpreter_probes(ctx, runs: int) -> dict:
    """Bare interpreter start, and a fresh ``import arcsort`` timed inside the child."""
    starts, imports = [], []
    for _ in range(runs):
        with ctx.tracer.span("python.start") as sp:
            # a pipe ends the wait when the child exits; without one, wait()
            # with a timeout polls, and the time comes out in its steps
            proc = subprocess.run([sys.executable, "-c", "pass"], env=ctx.child_env,
                                  cwd=ctx.workdir, timeout=60, stderr=subprocess.PIPE)
        ctx.check(proc.returncode == 0, "python -c pass")
        starts.append(sp.seconds)
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=ctx.child_env,
                              cwd=ctx.workdir, capture_output=True, text=True, timeout=60)
        ctx.check(proc.returncode == 0, "python -c 'import arcsort'")
        if proc.returncode == 0:
            imports.append(float(proc.stdout))
    return {
        "cli.interpreter_s": (median(starts), "s"),
        "cli.import_s": (median(imports), "s"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one CPU for this process and the children it starts, so that a
    # reference and the operation it brackets run on the same core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    src = (args.checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import arcsort

    if Path(arcsort.__file__).resolve().parent != src / "arcsort":
        print(f"perfbench: imported arcsort from {arcsort.__file__}, not {src}", file=sys.stderr)
        return 2

    from spans import Tracer
    from workloads import WORKLOADS, Context, end_to_end, layer_metrics

    out_dir = args.checkout / ".bench_build" / "perfbench"
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir = out_dir / run_id
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(
        seed=args.seed,
        smoke=args.smoke,
        workdir=workdir,
        child_env=dict(os.environ, PYTHONPATH=str(src)),
        tracer=Tracer(run_id, enabled=bool(args.trace)),
        untraced=Tracer(run_id, enabled=False),
    )
    try:
        wl = WORKLOADS[args.workload](ctx)
        wl.warm_up()
        print("READY", flush=True)
        result: dict = {}
        if not args.setup_only:
            untraced, traced = measure(wl, ctx, args.seconds, bool(args.trace))
            if args.trace:
                metrics = layer_metrics(wl, ctx.tracer, traced, untraced)
                metrics.update(interpreter_probes(ctx, 2 if args.smoke else 7))
                spans_path = out_dir / f"spans-{run_id}.json"
                ctx.tracer.write(spans_path)
                result["spans"] = str(spans_path)
            else:
                metrics = end_to_end(wl, untraced)
                who = resource.RUSAGE_CHILDREN if wl.children_rss else resource.RUSAGE_SELF
                # ru_maxrss is in KiB on Linux
                metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss * 1024 / 1e6, "MB")
            result["metrics"] = {
                name: {"value": v[0], "unit": v[1], **({"samples": v[2]} if len(v) > 2 else {})}
                for name, v in metrics.items()
            }
            result["env"] = environment(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(attempted=ctx.attempted, failed=ctx.failed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
