"""canonform benchmark: run one workload and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload search-401k --seed 1 --seconds 20 --trace 0

Workloads: ``search-401k``, ``train-shaped``, ``canonize-query`` (see
``perfbench/README.md``). The workload runs in fresh processes (``worker.py``)
with BLAS/OpenMP thread variables set to 1 and ``src`` on their import path:
three, one after another, in an untraced run, and one in a traced run.
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, and the spans
are written to ``.perfbench_out/``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A record
of the run (machine, versions, repeat counts, medians and quartiles) is
written to ``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("search-401k", "train-shaped", "canonize-query")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# `import canonform` is timed in fresh interpreters, this many times before
# each worker process and after the last, so that the probes are spread over
# the whole run. The import time is their minimum, since a busy machine only
# ever adds to a probe: on a 2-core VM with two busy-looping processes beside
# 24 probes, their median rose by 20% and their minimum by 2%.
IMPORT_PROBES_PER_SLOT = 6
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import canonform; "
    "print(time.perf_counter() - t)"
)
# An untraced run is split over this many fresh worker processes, one after
# another, each measuring for a share of --seconds; their samples are pooled.
# Speed differs from process to process by up to 8% on the same inputs
# (search-401k, one process per run: 590 or 630-640 queries/s), and
# pooling evens that out.
WORKER_PROCESSES = 3
# a run must end within 180 s, set-up and checks included
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# what throughput_per_s and latency_p50_ms are on each workload
WORKLOAD_NAMES = {
    "search-401k": ("search_qps", "search_p50_ms"),
    "train-shaped": ("train_episodes_per_s", "train_run_p50_ms"),
    "canonize-query": ("canonize_samples_per_s", "query_cold_p50_ms"),
}


def worker_env() -> dict:
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    # the same str hashes, and so the same dict and set layouts, in every run
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, env, deadline: float) -> str:
    """Run a child to completion (killed at the deadline); return its stdout."""
    proc = subprocess.run(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} exited with code {proc.returncode}")
    return proc.stdout


def import_seconds(env, deadline: float) -> list:
    return [
        float(run_child([sys.executable, "-c", IMPORT_PROBE], env, deadline).strip())
        for _ in range(IMPORT_PROBES_PER_SLOT)
    ]


def run_worker(args, seconds: float, env, deadline: float) -> dict:
    stdout = run_child(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(seconds),
         "--trace", str(args.trace), "--out", str(OUT)],
        env, deadline,
    )
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def pool(workload: str, samples: list, imports: list) -> tuple:
    """End-to-end metrics, and lines describing them, from the workers' samples."""
    setups = [x for s in samples for x in s["setup_s"]]
    latency = [x for s in samples for x in s["latency_ms"]]
    units = sum(s["units"] for s in samples)
    seconds = sum(s["unit_seconds"] for s in samples)
    values = {
        "setup_s": min(imports) + (statistics.median(setups) if setups else 0.0),
        "throughput_per_s": units / seconds,
        "latency_p50_ms": statistics.median(latency),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
    }
    q1, _, q3 = quartiles(latency)
    throughput_name, latency_name = WORKLOAD_NAMES[workload]
    lines = [
        f"{throughput_name} {values['throughput_per_s']:.1f} 1/s "
        f"({units:g} units in {seconds:.3f} s of timed calls, {len(samples)} processes)",
        f"{latency_name} {values['latency_p50_ms']:.4f} ms "
        f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(latency)})",
        f"import canonform {min(imports):.4f} s "
        f"(fastest of {len(imports)} fresh interpreters, median {statistics.median(imports):.4f} s)",
    ]
    if setups:
        lines.append(f"set-up beyond the import {statistics.median(setups):.4f} s "
                     f"(median of {len(setups)})")
    if len(latency) >= 1000:  # at least ten samples beyond the 99th percentile
        p99 = statistics.quantiles(latency, n=100)[98]
        lines.append(f"latency p99 {p99:.4f} ms (not gated, n={len(latency)})")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, lines


def report(args, parts: list, imports: list, out_dir: Path) -> int:
    """Combine the workers' results, write the run's record, print the result.

    Returns the exit code: 0 only when every check passed.
    """
    res = {
        "correct": all(p["correct"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
    }
    if args.trace:
        res["metrics"], lines = parts[0]["metrics"], []
    else:
        res["metrics"], lines = pool(args.workload, [p["samples"] for p in parts], imports)
    env = worker_env()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "import_s": imports,
        "machine": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "env": {name: env[name] for name in (*THREAD_VARS, "PYTHONHASHSEED")},
        },
        "processes": [p["record"] for p in parts],
        "result": res,
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    versions = parts[0]["record"]["versions"]
    print(f"canonform benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={versions['numpy']} scipy={versions['scipy']} processes={len(parts)}")
    for line in lines:
        print(f"  {line}")
    for name, metric in res["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  attempted={res['attempted']} failed={res['failed']}  "
          f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(res))
    return 0 if res["correct"] and res["failed"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="canonform benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "canonform" / "__init__.py").is_file():
        print(f"perfbench: no canonform sources under {SRC}", file=sys.stderr)
        return 2
    env = worker_env()
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            imports = []
            parts = [run_worker(args, args.seconds, env, deadline)]
        else:
            imports, parts = import_seconds(env, deadline), []
            for _ in range(WORKER_PROCESSES):
                parts.append(run_worker(args, args.seconds / WORKER_PROCESSES, env, deadline))
                imports += import_seconds(env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    return report(args, parts, imports, OUT)


if __name__ == "__main__":
    sys.exit(main())
