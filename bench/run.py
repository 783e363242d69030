"""The shuffleguard benchmark: one workload per process, in a closed loop.

    python3 bench/run.py --workload wide-count --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30 [--out FILE]

A run builds the workload's dataset and plan once, then calls
``harness.run_trial`` for trials 0, 1, 2, ... one at a time, with no
worker threads, for ``--seconds`` seconds after one discarded warm-up
trial. That is the loop of ``run_experiment``, timed call by call.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` pairs each
untraced trial with a traced replay of it (tracing.py) and reports the
per-layer split. Every run checks each trial's result and replays the
stored default-seed reference trials.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A readable report goes to
standard error, and a full record to .bench_out/. The exit code is 1 when
a check fails. Without ``--workload``, every workload runs in both modes,
each in a fresh process, one after another, and the records are collected
into ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, replace

from workloads import (
    BENCH, DEFAULT_SEED, OUT, ROOT, THREAD_VARS, WORKLOADS, pin_threads,
    use_checkout_source,
)

pin_threads()
use_checkout_source()

import numpy as np  # noqa: E402  (after the thread pinning above)
from shuffleguard import harness  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

#: Fresh processes whose set-up times give setup_s (their median).
SETUP_PROBES = 7
#: The tail is the slowest trial with this many timed trials beyond it.
TAIL_BEYOND = 10
#: Timed trials at least, so that the tail has TAIL_BEYOND beyond it.
MIN_TRIALS = TAIL_BEYOND + 1
#: Repeats of the in-process dataset and plan builds timed by --trace 1.
BUILD_REPEATS = 5

END_TO_END_UNITS = {
    "trial_s_p50": "s",
    "trial_s_tail": "s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "datasets.gen_s": "s",
    "defense.plan_s": "s",
    "defense.shufflers": "count",
    **{name: "s" for name in tracing.SELF_TIMES},
    **{name: "count" for name in tracing.CALL_COUNTS},
    "runtime.tokens": "count",
    "defense.envelopes": "count",
    "protocols.honest_msgs": "count",
    "noise.draws": "count",
    "adversary.msgs": "count",
    "adversary.envelopes": "count",
    "runtime.accepted_msgs": "count",
    "runtime.rejected_msgs": "count",
    "runtime.accept_ratio": "ratio",
    "runtime.shuffled_msgs": "count",
    "runtime.payload_bytes": "bytes_computed",
    "defense.flagged_nodes": "count",
    "defense.flagged_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class Tally:
    """Trials attempted and failed, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def attempt(fn, *args, **kwargs):
    """(result, problems): a trial that raises is a failed trial."""
    try:
        return fn(*args, **kwargs), []
    except Exception as exc:  # noqa: BLE001  (counted, reported, not fatal)
        return None, [f"raised {type(exc).__name__}: {exc}"]


def fields_or_none(result):
    return None if result is None else checks.result_fields(result)


def setup_seconds(name: str, seed: int) -> list[float]:
    """Set-up times of the workload in SETUP_PROBES fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def check_reference(config, expected: list[dict], tally: Tally) -> None:
    """Replay stored trials of ``config`` and compare them exactly."""
    dataset = harness.experiment_dataset(config)
    plan = harness.build_plan(config)
    for t, want in enumerate(expected):
        result, problems = attempt(
            harness.run_trial, config, t, plan=plan, dataset=dataset
        )
        got = fields_or_none(result)
        if got is not None and got != want:
            problems.append(f"result {got} differs from reference {want}")
        tally.record(f"reference trial {t}", problems)


def untraced(name, config, plan, dataset, seconds, min_trials, tally):
    """End-to-end metrics of the timed run_trial loop, and details."""
    data_total = int(dataset.values.sum())
    warm, problems = attempt(
        harness.run_trial, config, 0, plan=plan, dataset=dataset
    )
    warm = fields_or_none(warm)
    tally.record("warm-up trial 0", problems)

    times, results = [], []
    loop_start = time.perf_counter()
    while (len(results) < min_trials
           or time.perf_counter() - loop_start < seconds):
        start = time.perf_counter()
        result, problems = attempt(
            harness.run_trial, config, len(results), plan=plan,
            dataset=dataset,
        )
        if result is not None:
            times.append(time.perf_counter() - start)
        results.append((result, problems))
    loop_s = time.perf_counter() - loop_start

    for t, (result, problems) in enumerate(results):
        got = fields_or_none(result)
        if got is not None:
            problems += checks.trial_problems(config, data_total, got)
            if t == 0 and warm is not None and got != warm:
                problems.append(f"repeat of trial 0 gave {got}, first {warm}")
        tally.record(f"trial {t}", problems)

    ordered = sorted(times)
    # Too few trials for TAIL_BEYOND beyond: the tail is the slowest one.
    tail_rank = len(ordered) - 1 - TAIL_BEYOND
    if tail_rank < 0:
        tail_rank = len(ordered) - 1
    setup_s = setup_seconds(name, config.seed)
    metrics = {
        "trial_s_p50": statistics.median(times),
        "trial_s_tail": ordered[tail_rank],
        "trials_per_s": len(times) / loop_s,
        "setup_s": statistics.median(setup_s),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "timed_trials": len(times),
        "tail_percentile": 100.0 * (tail_rank + 1) / len(ordered),
        "trial_times_s": times,
        "setup_samples_s": setup_s,
    }
    return metrics, details


def traced(config, plan, dataset, seconds, min_trials, tally):
    """Per-layer metrics of traced replays, each paired with run_trial."""
    gen_s, plan_s = [], []
    for _ in range(BUILD_REPEATS):
        start = time.perf_counter()
        harness.experiment_dataset(config)
        mid = time.perf_counter()
        harness.build_plan(config)
        gen_s.append(mid - start)
        plan_s.append(time.perf_counter() - mid)
    data_total = int(dataset.values.sum())

    def pair(spans, t):
        """run_trial, then its traced replay, both timed and compared."""
        start = time.perf_counter()
        result, problems = attempt(
            harness.run_trial, config, t, plan=plan, dataset=dataset
        )
        untraced_s = time.perf_counter() - start
        start = time.perf_counter()
        replay, replay_problems = attempt(
            tracing.replay_trial, spans, config, t, plan, dataset
        )
        traced_s = time.perf_counter() - start
        problems += replay_problems
        got = fields_or_none(result)
        if got is not None:
            problems += checks.trial_problems(config, data_total, got)
            if replay is not None and replay[0] != got:
                problems.append(
                    f"traced replay gave {replay[0]}, run_trial gave {got}"
                )
        counts = replay[1] if replay is not None else {}
        return untraced_s, traced_s, counts, problems

    # The warm-up pair's spans go to a log that is thrown away.
    tally.record("warm-up pair 0", pair(tracing.Spans(), 0)[3])
    spans = tracing.Spans()
    rows = []
    loop_start = time.perf_counter()
    while len(rows) < min_trials or time.perf_counter() - loop_start < seconds:
        t = len(rows)
        *row, problems = pair(spans, t)
        tally.record(f"pair {t}", problems)
        rows.append(row)
    untraced_times, traced_times, counts = zip(*rows)

    per_trial = spans.per_trial(len(rows))
    for name in PER_LAYER_UNITS:
        if name in counts[0]:
            per_trial[name] = [c.get(name, 0) for c in counts]
    metrics = {name: statistics.median(v) for name, v in per_trial.items()}
    untraced_p50 = statistics.median(untraced_times)
    metrics.update({
        "datasets.gen_s": statistics.median(gen_s),
        "defense.plan_s": statistics.median(plan_s),
        "defense.shufflers": plan.num_shufflers,
        "trace.overhead_frac": (
            statistics.median(traced_times) - untraced_p50
        ) / untraced_p50,
    })
    details = {
        "traced_trials": len(rows),
        "untraced_times_s": list(untraced_times),
        "traced_times_s": list(traced_times),
    }
    return metrics, details, spans


def measure(name, config, seconds, trace, reference,
            min_trials=MIN_TRIALS) -> dict:
    """One run of one workload; returns its full record.

    ``reference`` holds the expected results of trials 0, 1, ... of the
    workload at DEFAULT_SEED; they are replayed before the timed loop.
    """
    tally = Tally()
    check_reference(replace(config, seed=DEFAULT_SEED), reference, tally)
    dataset = harness.experiment_dataset(config)
    plan = harness.build_plan(config)
    if trace:
        values, details, spans = traced(
            config, plan, dataset, seconds, min_trials, tally
        )
        units = PER_LAYER_UNITS
    else:
        values, details = untraced(
            name, config, plan, dataset, seconds, min_trials, tally
        )
        units = END_TO_END_UNITS
        spans = None
    return {
        "workload": name,
        "seed": config.seed,
        "trace": trace,
        "seconds": seconds,
        "config": asdict(config),
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        },
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                k: {"value": values[k], "unit": unit}
                for k, unit in units.items()
            },
        },
        "fail_frac": tally.failed / tally.attempted,
        "problems": tally.problems,
        "details": details,
    }, spans


def report(record) -> str:
    """The record as readable lines, every metric with its unit."""
    result, details = record["result"], record["details"]
    env = record["env"]
    lines = [
        f"{record['workload']} seed={record['seed']} trace={record['trace']}"
        f" seconds={record['seconds']} nproc={env['nproc']}"
        f" python={env['python']} numpy={env['numpy']}"
    ]
    if record["trace"]:
        lines.append(f"  traced trials {details['traced_trials']}"
                     " (each paired with an untraced run_trial)")
    else:
        lines.append(
            f"  timed trials {details['timed_trials']}; tail is p"
            f"{details['tail_percentile']:.1f} ({TAIL_BEYOND} trials beyond)"
        )
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<24} {m['value']:.6g} {m['unit']}")
    lines.append(
        f"  {'fail_frac':<24} {record['fail_frac']:.6g} ratio"
        f" ({result['failed']} of {result['attempted']} trials failed)"
    )
    lines.extend(f"  FAILED {p}" for p in record["problems"][:10])
    return "\n".join(lines)


def record_path(name: str, seed: int, trace: int):
    return OUT / f"{name}-seed{seed}-trace{trace}.json"


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    config = harness.ExperimentConfig(**WORKLOADS[name], seed=seed)
    record, spans = measure(
        name, config, seconds, trace, checks.load_reference(name)
    )
    OUT.mkdir(exist_ok=True)
    record_path(name, seed, trace).write_text(json.dumps(record, indent=1))
    if spans is not None:
        spans.save(OUT / f"{name}-seed{seed}-spans.npz")
    print(report(record), file=sys.stderr)
    print(json.dumps(record["result"]), flush=True)
    return 0 if record["result"]["correct"] else 1


def run_all(seed: int, seconds: float, out) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    collected = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            path = record_path(name, seed, trace)
            path.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.DEVNULL, timeout=600,
            )
            status = status or proc.returncode
            if path.exists():
                collected.setdefault(name, {})[f"trace{trace}"] = (
                    json.loads(path.read_text())
                )
    if out:
        with open(out, "w") as fh:
            json.dump(collected, fh, indent=1)
            fh.write("\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with no --workload: write the "
                        "collected records here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.out)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
