"""Correctness checks on trial results.

A trial's result is compared by the ``TrialResult`` fields below; wall
time is left out. Floats are compared exactly: for a fixed (config, seed,
trial) every field is deterministic, so any difference is a change of
behaviour.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
from shuffleguard import harness

from workloads import BENCH, DEFAULT_SEED, WORKLOADS

REFERENCE = BENCH / "reference.json"

#: Trials per workload stored in reference.json and replayed by each run.
REF_TRIALS = 4

#: The TrialResult fields compared; every field but wall_time.
FIELDS = (
    "abs_error", "rel_error", "msgs_per_user", "bits_per_msg", "detected",
    "flagged_nodes",
)


def result_fields(result) -> dict:
    return {name: getattr(result, name) for name in FIELDS}


def trial_problems(config, data_total: int, got: dict) -> list[str]:
    """Properties every trial's result must have, whatever the seed."""
    problems = []
    for name in ("abs_error", "rel_error", "msgs_per_user"):
        if not (math.isfinite(got[name]) and got[name] >= 0):
            problems.append(f"{name}={got[name]!r} is not a finite value >= 0")
    # The harness normalises scalar errors by |truth| and vector errors by
    # n; the truth of count and sum is the data total, computed here.
    scalar = config.query in ("count", "sum")
    normalizer = abs(float(data_total)) if scalar else float(config.n)
    if got["rel_error"] != got["abs_error"] / max(1.0, normalizer):
        problems.append(
            f"rel_error={got['rel_error']!r} does not match abs_error="
            f"{got['abs_error']!r} over the true answer"
        )
    if got["detected"] != (got["flagged_nodes"] > 0):
        problems.append("detected disagrees with flagged_nodes")
    # A flood of attack_msgs = n messages is far beyond every detection
    # threshold of the benchmark's workloads.
    if config.attack == "flood" and config.k > 0 and not got["detected"]:
        problems.append("flood attack was not detected")
    return problems


def load_reference(name: str) -> list[dict]:
    """The stored default-seed results of a workload."""
    stored = json.loads(REFERENCE.read_text())["workloads"][name]
    if stored["config"] != WORKLOADS[name] or stored["seed"] != DEFAULT_SEED:
        raise ValueError(f"{REFERENCE.name} is stale for workload {name!r}")
    return stored["trials"]


def summary_problems(config, plan, results: list[dict]) -> list[str]:
    """Whether per-trial results aggregate to ``run_experiment``'s Summary.

    This shows that the benchmark's loop (dataset and plan built once,
    then ``run_trial`` per trial) is the loop ``run_experiment`` runs.
    """
    summary = harness.run_experiment(replace(config, trials=len(results)))

    def tmean(name):
        return harness.trimmed_mean([r[name] for r in results])

    expected = {
        "lam": plan.lam,
        "abs_error": tmean("abs_error"),
        "rel_error_pct": 100.0 * tmean("rel_error"),
        "msgs_per_user": tmean("msgs_per_user"),
        "bits_per_msg": tmean("bits_per_msg"),
        "detection_rate": float(np.mean([r["detected"] for r in results])),
    }
    return [
        f"Summary.{name}={getattr(summary, name)!r}, per-trial results give "
        f"{value!r}"
        for name, value in expected.items()
        if getattr(summary, name) != value
    ]
