"""One run of one canonform benchmark workload, in the process it was started in.

``run.py`` starts this script in fresh processes with the thread variables
pinned; run it through ``run.py``. Inputs are generated from ``--seed``
before any timing starts. The last line of stdout is one JSON object:
``correct``/``attempted``/``failed``, a ``record`` with the distributions and
counts of the run, and either the raw ``samples`` that ``run.py`` pools into
the end-to-end metrics (``--trace 0``) or the per-layer ``metrics``
(``--trace 1``).

Every call into the library goes through the public ``canonform`` API, the
same functions the CLI subcommands call. Spans are recorded from this file,
around those calls; the library itself is not instrumented.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import scipy.spatial

import canonform as cf
import canonform.qlearn

HERE = Path(__file__).resolve().parent
CURVE_TABLE = HERE / "curve_sha256.json"

# search-401k: the bench-spatial defaults (11-dim states, 3-dim actions,
# 29 axis anchors, beta 0.2, radius 0.5, dataset seed 0) at the paper's
# 401,598 samples. The workload seed picks the queries. The dataset stays
# fixed because its cluster layout alone moves the mean first-anchor band,
# and with it the query cost, by up to 10% between dataset seeds (seeds 0-7:
# 135k to 148k rows), more than the bound a change has to stay within.
SEARCH_SAMPLES = 401_598
SEARCH_DATASET_SEED = 0
SEARCH_RADIUS = 0.5
SEARCH_MIN_QUERIES = 1000
SEARCH_MAX_QUERIES = 50_000
SEARCH_AUDITS = 100
CKDTREE_QUERIES = 1000

# train-shaped: criterion 7's run (temporal shaping, kappa 1, default SimConfig).
# Every process trains the same three seeds, in an order the workload seed
# picks, each as often as the others. Training seeds differ in how many steps
# their runs take (eval steps: 1.02M to 1.07M among 31 seeds tried), so a
# workload seed that picked them would move the work done as well as the
# time it takes.
TRAIN_EPISODES = 2000
TRAIN_KAPPA = 1.0
TRAIN_SEEDS = (0, 1, 2)

# canonize-query: random-policy mountain-car episodes through canonize, then
# queries at the `canonform query` default radius against the loaded file.
# The episodes are fixed and the workload seed picks the queries: between
# episode seeds the halt count alone differs by up to 6% (2785 to 2949 over
# 100 episodes, seeds 1-5), and the canonize rate with it.
CANON_EPISODES = 100
CANON_EPISODE_SEED = 0
CANON_QUERIES = 20
# Peak RSS reaches its steady value in the second iteration (292 MB after
# one, 338 MB after each of two to five), so every process runs at least
# two; otherwise a slower machine, or slower code, would read as less memory.
CANON_MIN_ITERATIONS = 2
CANON_RADIUS = 0.5
CANON_BETA = 1.0

PER_LAYER_UNITS = {
    "envs.generate_s": "s",
    "spatial.first_query_s": "s",
    "spatial.filter_ns_p50": "ns",
    "spatial.candidates_p50": "count",
    "spatial.candidates_sum": "count",
    "spatial.results_p50": "count",
    "spatial.verify_yield": "ratio",
    "spatial.reject_ratio_p50": "ratio",
    "spatial.query_p99_ms": "ms",
    "spatial.bruteforce_ms_p50": "ms",
    "spatial.ckdtree_build_s": "s",
    "spatial.ckdtree_query_ms_p50": "ms",
    "spatial.add_attributes_s": "s",
    "spatial.query_warm_ms_p50": "ms",
    "core.standardize_s": "s",
    "core.extend_s": "s",
    "core.window_reads": "count",
    "temporal.halt_attr_s": "s",
    "temporal.halts": "count",
    "temporal.envelope_update_calls": "count",
    "temporal.envelope_update_s": "s",
    "temporal.envelope_query_calls": "count",
    "temporal.envelope_query_s": "s",
    "temporal.breakpoints_final": "count",
    "qlearn.train_s": "s",
    "qlearn.self_s": "s",
    "qlearn.train_steps": "count",
    "qlearn.eval_steps": "count",
    "serialize.read_raw_s": "s",
    "serialize.write_s": "s",
    "serialize.bytes_written": "B",
    "serialize.read_s": "s",
    "trace_overhead_frac": "ratio",
}


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, run_id].

    ``parent`` is the index of the enclosing span, or -1. Spans are written
    out once, by :meth:`write`, when the run ends.
    """

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = ""

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span."""

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def totals(self, since: int = 0) -> dict:
        """name -> (calls, seconds) over the spans recorded from ``since`` on."""
        out: dict = {}
        for name, start, end, _, _ in self.spans[since:]:
            calls, ns = out.get(name, (0, 0))
            out[name] = (calls + 1, ns + end - start)
        return {name: (calls, ns / 1e9) for name, (calls, ns) in out.items()}

    def write(self, path: Path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("id,name,start_ns,end_ns,parent,run_id\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{run_id}\n")


class NoTracer:
    """Stand-in for :class:`Tracer` in the untraced runs: calls straight through."""

    enabled = False
    run_id = ""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def summary(values) -> dict:
    """Median, quartiles and count of a sample, as reported beside each timing."""
    values = [float(v) for v in values]
    if not values:
        return {"n": 0}
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Operations attempted and failed; each failure is also shown on stderr.

    An operation fails at most once: when it raises, or when the one check
    made of its output does not hold.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"check failed: {what}", file=sys.stderr)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    def check(self, ok: bool, what: str) -> None:
        """A check that is an operation of its own."""
        self.attempted += 1
        self.expect(ok, what)

    def call(self, what: str, fn, *args):
        """Run one operation; an exception counts it as failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # the run goes on; the failure is counted and shown
            self.fail(f"{what} raised")
            traceback.print_exc(file=sys.stderr)
            return None


def unit_indices(seconds=None, count=None, minimum: int = 1):
    """0, 1, 2, ...: ``count`` of them, or as many as start within ``seconds``.

    With ``seconds`` at least ``minimum`` are yielded, however long they take.
    """
    deadline = time.perf_counter() + seconds if seconds is not None else None
    for i in itertools.count():
        if count is not None and i >= count:
            return
        if deadline is not None and i >= minimum and time.perf_counter() >= deadline:
            return
        yield i


def outcome(checks: Checks, record: dict) -> dict:
    return {
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "record": record,
    }


def untraced_result(checks, record, setup_s, units, unit_seconds, latency_ms) -> dict:
    """The raw samples that run.py pools, over processes, into the end-to-end metrics.

    ``setup_s``: set-up timings beyond the import; ``units`` of work done in
    ``unit_seconds`` of timed calls; ``latency_ms``: one value per operation
    a user waits for.
    """
    res = outcome(checks, record)
    res["samples"] = {
        "setup_s": list(setup_s),
        "units": units,
        "unit_seconds": unit_seconds,
        "latency_ms": list(latency_ms),
        "peak_rss_mb": peak_rss_mb(),
    }
    return res


def traced_result(tracer, checks, measured, record, work_dir, workload, seed) -> dict:
    """Every per-layer metric (a layer the workload never calls reads 0); spans to disk."""
    unknown = set(measured) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"unknown per-layer metrics: {sorted(unknown)}")
    spans_path = work_dir.parent / f"spans-{workload}-seed{seed}.csv"
    tracer.write(spans_path)
    record["spans"] = len(tracer.spans)
    record["spans_file"] = spans_path.name
    res = outcome(checks, record)
    res["metrics"] = {name: {"value": measured.get(name, 0.0), "unit": unit}
                      for name, unit in PER_LAYER_UNITS.items()}
    return res


def report_stats(report) -> tuple:
    """(filter ns, candidates, results, reject ratio) of one SearchReport."""
    return (report.wall_time_filtered_ns, report.candidates_after_filter,
            report.result_indices.size, report.reject_ratio)


def search_stats(stats) -> dict:
    """Per-layer pruning metrics from the :func:`report_stats` of one pass."""
    filter_ns, candidates, results, reject = zip(*stats)
    return {
        "spatial.filter_ns_p50": float(np.median(filter_ns)),
        "spatial.candidates_p50": float(np.median(candidates)),
        "spatial.candidates_sum": float(sum(candidates)),
        "spatial.results_p50": float(np.median(results)),
        "spatial.verify_yield": sum(results) / sum(candidates) if sum(candidates) else 0.0,
        "spatial.reject_ratio_p50": float(np.median(reject)),
    }


# --------------------------------------------------------------------------
# search-401k


def search_inputs(seed: int, dataset):
    """Seed-chosen query centers (features of dataset samples) and audit positions."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(dataset), size=SEARCH_MAX_QUERIES)
    beta = dataset.metadata.beta
    queries = []
    for i in picks:
        t = dataset[int(i)].transition
        queries.append(cf.RNeighborQuery(cf.feature_embed(t.x, t.u, beta), SEARCH_RADIUS))
    audits = rng.choice(SEARCH_MIN_QUERIES, size=SEARCH_AUDITS, replace=False)
    return queries, {int(a) for a in audits}


def search_pass(dataset, queries, audits, checks, tracer, seconds=None, count=None):
    """Run queries in order, one at a time, for ``seconds`` or for ``count`` queries.

    Returns per-call latencies (ns), per-query :func:`report_stats`, the
    results of the audited queries that ran, and the wall time of the loop.
    Only audited results are kept, so that memory does not grow with the
    number of queries a run gets through.
    """
    latencies, stats, audited = [], [], {}
    count = len(queries) if count is None else min(count, len(queries))
    start = time.perf_counter()
    for i in unit_indices(seconds, count, minimum=SEARCH_MIN_QUERIES):
        tracer.run_id = f"q{i}"
        t0 = time.perf_counter_ns()
        report = checks.call(
            f"query {i}", tracer.call, "spatial.r_neighbor_filtered",
            cf.r_neighbor_filtered, dataset, queries[i],
        )
        latencies.append(time.perf_counter_ns() - t0)
        if report is not None:
            stats.append(report_stats(report))
            if i in audits:
                audited[i] = report.result_indices
    return latencies, stats, audited, time.perf_counter() - start


def run_search(seed: int, seconds: int, trace: bool, work_dir: Path) -> dict:
    tracer = Tracer() if trace else NoTracer()
    checks = Checks()
    tracer.run_id = "setup"
    t0 = time.perf_counter()
    dataset = tracer.call(
        "envs.generate_clustered_dataset",
        cf.generate_clustered_dataset, SEARCH_SAMPLES, seed=SEARCH_DATASET_SEED,
    )
    generate_s = time.perf_counter() - t0
    queries, audits = search_inputs(seed, dataset)  # untimed
    t0 = time.perf_counter()
    tracer.call("spatial.first_query", cf.r_neighbor_filtered, dataset, queries[0])
    first_query_s = time.perf_counter() - t0

    latencies, stats, audited, wall = search_pass(
        dataset, queries, audits, checks, NoTracer(), seconds
    )
    record = {
        "queries": len(latencies),
        "generate_s": generate_s,
        "first_query_s": first_query_s,
        "latency_ms": summary(np.asarray(latencies) / 1e6),
        "latency_p99_ms": percentile(latencies, 99) / 1e6,
        "loop_wall_s": wall,
    }
    if trace:
        traced_latencies, stats, audited, traced_wall = search_pass(
            dataset, queries, audits, checks, tracer, count=len(latencies)
        )
        record["traced_loop_wall_s"] = traced_wall

    brute_ms = []
    for pos, got in sorted(audited.items()):
        tracer.run_id = f"audit{pos}"
        t0 = time.perf_counter()
        oracle = tracer.call(
            "spatial.r_neighbor_bruteforce", cf.r_neighbor_bruteforce, dataset, queries[pos]
        )
        brute_ms.append((time.perf_counter() - t0) * 1e3)
        checks.expect(
            np.array_equal(got, oracle),
            f"query {pos}: filtered result differs from brute force",
        )
    record["audited"] = len(brute_ms)
    record["bruteforce_ms"] = summary(brute_ms)

    if not trace:
        return untraced_result(checks, record, [generate_s + first_query_s], len(latencies),
                               sum(latencies) / 1e9, [ns / 1e6 for ns in latencies])

    # scipy reference, built in the traced run only so it never touches the
    # gated timings or the peak RSS of an untraced run
    features = np.array([cf.feature_embed(s.transition.x, s.transition.u,
                                          dataset.metadata.beta) for s in dataset])
    t0 = time.perf_counter()
    tree = scipy.spatial.cKDTree(features)
    ckdtree_build_s = time.perf_counter() - t0
    ckdtree_ms = []
    for query in queries[:min(CKDTREE_QUERIES, len(latencies))]:
        t0 = time.perf_counter()
        tree.query_ball_point(query.center, query.radius)
        ckdtree_ms.append((time.perf_counter() - t0) * 1e3)
    record["ckdtree_query_ms"] = summary(ckdtree_ms)

    layers = search_stats(stats)
    layers.update({
        "envs.generate_s": generate_s,
        "spatial.first_query_s": first_query_s,
        "spatial.query_p99_ms": record["latency_p99_ms"],
        "spatial.query_warm_ms_p50": statistics.median(traced_latencies) / 1e6,
        "spatial.bruteforce_ms_p50": statistics.median(brute_ms) if brute_ms else 0.0,
        "spatial.ckdtree_build_s": ckdtree_build_s,
        "spatial.ckdtree_query_ms_p50": statistics.median(ckdtree_ms),
        "trace_overhead_frac": traced_wall / wall - 1.0,
    })
    return traced_result(tracer, checks, layers, record, work_dir, "search-401k", seed)


# --------------------------------------------------------------------------
# train-shaped


def load_curve_table(episodes: int) -> dict:
    """Recorded SHA-256 of the learning-curve CSV, keyed by training seed."""
    with open(CURVE_TABLE) as fh:
        table = json.load(fh)
    return {int(seed): digest for seed, digest in table["sha256"][str(episodes)].items()}


def train_config(seed: int, episodes: int) -> cf.TrainConfig:
    return cf.TrainConfig(episodes=episodes, shaping="temporal", kappa=TRAIN_KAPPA, seed=seed)


def curve_sha256(result, path: Path) -> str:
    """SHA-256 of the bytes :func:`canonform.write_curve` writes for ``result``."""
    cf.write_curve(result, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rounds(seconds=None, count=None):
    """0, 1, 2, ...: ``count`` of them, or at least one and then as many as are
    expected, at the mean length of those before, to end within ``seconds``."""
    if count is not None:
        yield from range(count)
        return
    start = time.perf_counter()
    for r in itertools.count():
        yield r
        if (time.perf_counter() - start) * (r + 2) / (r + 1) > seconds:
            return


def train_pass(order, checks, tracer, table, work_dir, seconds=None, count=None):
    """Train every seed of ``order``, in turn, in ``count`` rounds or in as many as
    fit in ``seconds``; returns per-run walls and per-run layer values.

    Whole rounds only, so that every seed is trained equally often. A round
    takes about as long as a process's share of the run, so one that merely
    started in time would often double the run's length.
    """
    walls, layers = [], []
    seeds = (train_seed for _ in rounds(seconds, count) for train_seed in order)
    for j, train_seed in enumerate(seeds):
        tracer.run_id = f"train{j}"
        since = len(tracer.spans) if tracer.enabled else 0
        t0 = time.perf_counter()
        trained = checks.call(
            f"train seed {train_seed}", tracer.call, "qlearn.train",
            cf.train, train_config(train_seed, TRAIN_EPISODES),
        )
        walls.append(time.perf_counter() - t0)
        if trained is None:
            continue
        digest = curve_sha256(trained, work_dir / "curve.csv")
        checks.expect(digest == table[train_seed],
                      f"train seed {train_seed}: curve sha256 {digest} != recorded")
        run_layers = {
            "qlearn.train_steps": float(trained.lengths.sum()),
            "qlearn.eval_steps": float(trained.eval_lengths.sum()),
            "temporal.breakpoints_final": float(len(trained.distribution.breakpoints)),
        }
        if tracer.enabled:
            totals = tracer.totals(since)
            q_calls, q_s = totals.get("temporal.query_min_time", (0, 0.0))
            u_calls, u_s = totals.get("temporal.update_distribution_online", (0, 0.0))
            train_s = totals["qlearn.train"][1]
            run_layers.update({
                "qlearn.train_s": train_s,
                "qlearn.self_s": train_s - q_s - u_s,
                "temporal.envelope_query_calls": float(q_calls),
                "temporal.envelope_query_s": q_s,
                "temporal.envelope_update_calls": float(u_calls),
                "temporal.envelope_update_s": u_s,
            })
        layers.append(run_layers)
    return walls, layers


def run_train(seed: int, seconds: int, trace: bool, work_dir: Path) -> dict:
    table = load_curve_table(TRAIN_EPISODES)
    order = [TRAIN_SEEDS[i] for i in np.random.default_rng(seed).permutation(len(TRAIN_SEEDS))]
    checks = Checks()
    walls, layers = train_pass(order, checks, NoTracer(), table, work_dir, seconds)
    record = {
        "train_runs": len(walls),
        "train_seeds": [order[j % len(order)] for j in range(len(walls))],
        "episodes_per_run": TRAIN_EPISODES,
        "train_run_s": summary(walls),
        "train_steps": summary([r["qlearn.train_steps"] for r in layers]),
        "eval_steps": summary([r["qlearn.eval_steps"] for r in layers]),
    }
    if not trace:
        # no set-up beyond the import; a user waits for a whole training run
        return untraced_result(checks, record, [], TRAIN_EPISODES * len(walls), sum(walls),
                               [w * 1e3 for w in walls])

    tracer = Tracer()
    module = canonform.qlearn  # train() calls the envelope through these names
    originals = (module.query_min_time, module.update_distribution_online)
    module.query_min_time = tracer.wrap("temporal.query_min_time", originals[0])
    module.update_distribution_online = tracer.wrap(
        "temporal.update_distribution_online", originals[1]
    )
    try:
        traced_walls, traced_layers = train_pass(
            order, checks, tracer, table, work_dir, count=len(walls) // len(order)
        )
    finally:
        module.query_min_time, module.update_distribution_online = originals
    measured = {}
    if traced_layers:
        measured = {name: statistics.median(r[name] for r in traced_layers)
                    for name in traced_layers[0]}
    measured["trace_overhead_frac"] = sum(traced_walls) / sum(walls) - 1.0
    return traced_result(tracer, checks, measured, record, work_dir, "train-shaped", seed)


# --------------------------------------------------------------------------
# canonize-query


def canon_inputs(seed: int, raw_dir: Path):
    """Write random-policy episodes as raw trajectory files; pick query centers."""
    episode_rng = np.random.default_rng(CANON_EPISODE_SEED)
    sim = cf.SimConfig()
    paths, xs, us = [], [], []
    for e in range(CANON_EPISODES):
        states, actions = cf.rollout(sim, rng=episode_rng)
        path = raw_dir / f"episode{e:03d}.jsonl"
        cf.write_raw_trajectory(states, actions, path)
        paths.append(path)
        xs.append(states[:-1])
        us.append(actions)
    X, U = np.concatenate(xs), np.concatenate(us)
    picks = np.random.default_rng(seed).choice(
        len(U), size=min(CANON_QUERIES, len(U)), replace=False
    )
    queries = [cf.RNeighborQuery(cf.feature_embed(X[i], U[i], CANON_BETA), CANON_RADIUS)
               for i in picks]
    return paths, queries


def canonize_once(raw_paths, queries, out_path, tracer) -> dict:
    """The timed path: canonize every raw file into one dataset file, load it, query it."""
    attribute_fn = cf.make_halt_attribute_fn(cf.SimConfig())
    if tracer.enabled:
        attribute_fn = tracer.wrap("temporal.halt_attribute_fn", attribute_fn)
    window_reads = 0
    t0 = time.perf_counter()
    dataset = cf.CanonicalDataset(cf.DatasetMetadata(n=2, m=1, beta=CANON_BETA, seed=CANON_EPISODE_SEED))
    for path in raw_paths:
        states, actions = tracer.call("serialize.read_raw_trajectory",
                                      cf.read_raw_trajectory, path)
        recorder = [] if tracer.enabled else None
        samples = tracer.call("core.standardize_trajectory", cf.standardize_trajectory,
                              states, actions, attribute_fn, recorder=recorder)
        if recorder is not None:
            window_reads += len(recorder)
        tracer.call("core.extend", dataset.extend, samples)
    dataset = tracer.call("spatial.add_spatial_attributes", cf.add_spatial_attributes,
                          dataset, cf.make_axis_anchors(2, 1, CANON_BETA))
    tracer.call("serialize.write_dataset", cf.write_dataset, dataset, out_path)
    t1 = time.perf_counter()
    loaded = tracer.call("serialize.read_dataset", cf.read_dataset, out_path)
    reports, query_ms = [], []
    for k, query in enumerate(queries):
        tq = time.perf_counter()
        reports.append(tracer.call("spatial.first_query" if k == 0 else "spatial.query",
                                   cf.r_neighbor_filtered, loaded, query))
        query_ms.append((time.perf_counter() - tq) * 1e3)
        if k == 0:
            cold_s = time.perf_counter() - t1
    t2 = time.perf_counter()
    return {
        "samples": len(dataset),
        "halts": sum(s.attribute.temporal is not None for s in dataset),
        "canonize_s": t1 - t0,
        "query_cold_s": cold_s,
        "iteration_s": t2 - t0,
        "query_ms": query_ms,
        "window_reads": window_reads,
        "bytes_written": out_path.stat().st_size,
        "loaded": loaded,
        "reports": reports,
    }


def canon_pass(raw_paths, queries, checks, tracer, work_dir, seconds=None, count=None):
    """Repeat the timed path; check each iteration's outputs outside the timing."""
    runs = []
    out_path, again = work_dir / "dataset.jsonl", work_dir / "dataset.again.jsonl"
    for it in unit_indices(seconds, count, minimum=CANON_MIN_ITERATIONS):
        tracer.run_id = f"iter{it}"
        since = len(tracer.spans) if tracer.enabled else 0
        run = checks.call(f"canonize iteration {it}", canonize_once,
                          raw_paths, queries, out_path, tracer)
        if run is None:
            continue
        run["spans"] = tracer.totals(since) if tracer.enabled else {}
        loaded = run.pop("loaded")
        cf.write_dataset(loaded, again)
        checks.expect(again.read_bytes() == out_path.read_bytes(),
                      f"iteration {it}: write -> read -> write is not byte-identical")
        for k, (query, report) in enumerate(zip(queries, run["reports"])):
            oracle = cf.r_neighbor_bruteforce(loaded, query)
            checks.check(np.array_equal(report.result_indices, oracle),
                         f"iteration {it} query {k}: result differs from brute force")
        # Each iteration starts as a fresh run would: without the previous
        # dataset in memory, and without its files, whose dirty pages would
        # otherwise be flushed under the next iteration's writes and slow
        # them down by up to 2x on a virtual disk.
        del loaded
        out_path.unlink()
        again.unlink()
        runs.append(run)
    return runs


def run_canon(seed: int, seconds: int, trace: bool, work_dir: Path) -> dict:
    raw_dir = work_dir / "raw"
    raw_dir.mkdir()
    raw_paths, queries = canon_inputs(seed, raw_dir)
    checks = Checks()
    runs = canon_pass(raw_paths, queries, checks, NoTracer(), work_dir, seconds)
    if not runs:
        raise RuntimeError("no canonize iteration completed")
    colds = [r["query_cold_s"] for r in runs]
    record = {
        "iterations": len(runs),
        "files": len(raw_paths),
        "samples": runs[0]["samples"],
        "halts": runs[0]["halts"],
        "queries_per_iteration": len(queries),
        "canonize_samples_per_s": summary([r["samples"] / r["canonize_s"] for r in runs]),
        "query_cold_s": summary(colds),
        "query_ms": summary([ms for r in runs for ms in r["query_ms"]]),
    }
    if not trace:
        # no set-up beyond the import; a `canonform query` user waits for the cold query
        return untraced_result(checks, record, [], sum(r["samples"] for r in runs),
                               sum(r["canonize_s"] for r in runs), [c * 1e3 for c in colds])

    tracer = Tracer()
    traced = canon_pass(raw_paths, queries, checks, tracer, work_dir, count=len(runs))

    def med(key):
        return statistics.median(key(r) for r in traced)

    def span_s(name):
        return med(lambda r: r["spans"].get(name, (0, 0.0))[1])

    layers = search_stats([report_stats(rep) for r in traced for rep in r["reports"]])
    layers.update({
        "serialize.read_raw_s": span_s("serialize.read_raw_trajectory"),
        "core.standardize_s": span_s("core.standardize_trajectory"),
        "core.extend_s": span_s("core.extend"),
        "core.window_reads": med(lambda r: r["window_reads"]),
        "temporal.halt_attr_s": span_s("temporal.halt_attribute_fn"),
        "temporal.halts": med(lambda r: r["halts"]),
        "spatial.add_attributes_s": span_s("spatial.add_spatial_attributes"),
        "serialize.write_s": span_s("serialize.write_dataset"),
        "serialize.bytes_written": med(lambda r: r["bytes_written"]),
        "serialize.read_s": span_s("serialize.read_dataset"),
        "spatial.first_query_s": span_s("spatial.first_query"),
        "spatial.query_warm_ms_p50": float(np.median(
            [ms for r in traced for ms in r["query_ms"][1:]] or [0.0])),
        "trace_overhead_frac": sum(r["iteration_s"] for r in traced)
        / sum(r["iteration_s"] for r in runs) - 1.0,
    })
    return traced_result(tracer, checks, layers, record, work_dir, "canonize-query", seed)


WORKLOADS = {
    "search-401k": run_search,
    "train-shaped": run_train,
    "canonize-query": run_canon,
}


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__, "canonform": cf.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="directory for spans and temporary files")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        res = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), Path(tmp))
    res["record"]["versions"] = versions()
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
