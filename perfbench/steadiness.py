"""Run the benchmark on several seeds and report how much each metric spreads.

Run from the repository root::

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 --record perfbench/steadiness_set1.json
    python3 perfbench/steadiness.py --runs 10 --first-seed 11 --record perfbench/steadiness_set2.json \
        --compare perfbench/steadiness_set1.json

Each run is ``run.py --trace 0`` on its own seed, one after another, for
every workload of ``BENCHMARK.json`` and at its ``run_seconds``. For every
end-to-end metric of ``BENCHMARK.json`` the spread is
the distance between the first and third quartile of the runs' values
(``statistics.quantiles(values, n=4)``) as a share of their median; it is
compared with the metric's bound. ``--compare`` checks that no median is
worse than a recorded set's by more than the bound. ``--record`` writes the
values, medians and quartiles as JSON.
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


def worse_by(metric: dict, new: float, old: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old`` (<= 0: not worse)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", type=Path, help="write the results here as JSON")
    parser.add_argument("--compare", type=Path, help="an earlier --record to compare with")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    ok = True
    out = {}
    for workload in workloads:
        started = time.monotonic()
        results = [run_once(workload, seed, seconds) for seed in seeds]
        failed = sum(r["failed"] for r in results)
        ok &= failed == 0
        print(f"{workload}: {len(results)} runs, {time.monotonic() - started:.0f} s, "
              f"failed operations {failed}")
        rows = {}
        for name, metric in metrics.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"values": values, "median": median, "q1": q1, "q3": q3,
                          "spread": spread, "bound": metric["bound"]}
            verdict = "ok" if spread <= metric["bound"] / 3 else (
                "within bound" if spread <= metric["bound"] else "TOO WIDE")
            ok &= spread <= metric["bound"]
            line = (f"  {name:18s} median {median:12.6g} {metric['unit']:5s} "
                    f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} "
                    f"bound {metric['bound']:.2f} {verdict}")
            before = earlier.get(workload, {}).get(name)
            if before:
                worse = worse_by(metric, median, before["median"])
                line += f"  vs recorded median {worse:+.4f}"
                if worse > metric["bound"]:
                    line += " WORSE THAN BOUND"
                    ok = False
            print(line)
        out[workload] = rows

    if args.record:
        args.record.write_text(json.dumps({
            "seconds": seconds,
            "seeds": seeds,
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
            "workloads": out,
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
