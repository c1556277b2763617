"""Record the SHA-256 of the learning-curve CSV for every training seed the benchmark runs.

The train-shaped workload checks each training run against this table.
Run from the repository root, on the commit whose behaviour is the reference::

    PYTHONPATH=src python3 perfbench/record_curves.py

It rewrites ``perfbench/curve_sha256.json``. Sizes: the workload's episode
count, plus a tiny one that the smoke test uses.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import canonform as cf

import worker

SMOKE_EPISODES = 20


def main() -> int:
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.csv"
        for episodes in (worker.TRAIN_EPISODES, SMOKE_EPISODES):
            table[str(episodes)] = {
                str(seed): worker.curve_sha256(
                    cf.train(worker.train_config(seed, episodes)), path
                )
                for seed in worker.TRAIN_SEEDS
            }
            print(f"recorded {len(worker.TRAIN_SEEDS)} seeds at {episodes} episodes", file=sys.stderr)
    doc = {
        "what": "sha256 of canonform.write_curve bytes for "
                "train(TrainConfig(episodes=E, shaping='temporal', kappa=1.0, seed=S))",
        "canonform": cf.__version__,
        "sha256": table,
    }
    worker.CURVE_TABLE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
