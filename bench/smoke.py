"""Smoke test of the benchmark's own plumbing, at tiny n.

    python3 bench/smoke.py

Runs every workload untraced and traced with two trials at a tiny n, and
checks that every metric is present with its unit, that no trial failed
(so the traced replay matched run_trial), and that per-trial results
reproduce ``run_experiment``'s Summary. It is not part of the
repository's test suite; it takes about half a minute.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import run  # pins threads and puts the checkout's src/ on the path
from make_reference import reference_trials
from shuffleguard import harness
from workloads import DEFAULT_SEED, WORKLOADS

#: Small sizes with the same tree shapes and attacks as each workload.
TINY_N = {"wide-count": 1 << 6, "deep-range": 1 << 4, "flat-sum-flood": 1 << 10}
TRIALS = 2


def problems_of(name: str) -> list[str]:
    config = harness.ExperimentConfig(
        **{**WORKLOADS[name], "n": TINY_N[name]}, seed=DEFAULT_SEED + 1
    )
    reference, problems = reference_trials(
        replace(config, seed=DEFAULT_SEED), TRIALS
    )
    for trace, units in ((0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)):
        record, _ = run.measure(
            name, config, 0, trace, reference, min_trials=TRIALS
        )
        result = record["result"]
        label = f"{name} trace={trace}"
        problems += [f"{label}: {p}" for p in record["problems"]]
        if record["fail_frac"] != 0 or not result["correct"]:
            problems.append(f"{label}: fail_frac={record['fail_frac']}")
        if set(result["metrics"]) != set(units):
            problems.append(f"{label}: metrics {sorted(result['metrics'])}")
        for metric, m in result["metrics"].items():
            if m["unit"] != units.get(metric) or not math.isfinite(m["value"]):
                problems.append(f"{label}: {metric} = {m}")
    return problems


def main() -> int:
    problems = [p for name in WORKLOADS for p in problems_of(name)]
    print("\n".join(problems) or "smoke: ok", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
