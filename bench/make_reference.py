"""Write reference.json: each workload's first trials at DEFAULT_SEED.

    python3 bench/make_reference.py

Run it only when a change of behaviour is intended; every benchmark run
compares its reference trials with this file exactly. It also checks
that the stored trials aggregate to ``run_experiment``'s Summary, so that
the loop the benchmark times is the loop ``run_experiment`` runs.
"""

from __future__ import annotations

import json
import sys

from workloads import DEFAULT_SEED, WORKLOADS, pin_threads, use_checkout_source

pin_threads()
use_checkout_source()

from shuffleguard import harness  # noqa: E402

import checks  # noqa: E402


def reference_trials(config, trials: int) -> tuple[list[dict], list[str]]:
    """Results of trials 0..trials-1, and any Summary mismatch."""
    dataset = harness.experiment_dataset(config)
    plan = harness.build_plan(config)
    results = [
        checks.result_fields(
            harness.run_trial(config, t, plan=plan, dataset=dataset)
        )
        for t in range(trials)
    ]
    return results, checks.summary_problems(config, plan, results)


def main() -> int:
    stored = {}
    problems = []
    for name, fields in WORKLOADS.items():
        config = harness.ExperimentConfig(**fields, seed=DEFAULT_SEED)
        results, mismatch = reference_trials(config, checks.REF_TRIALS)
        problems += [f"{name}: {p}" for p in mismatch]
        stored[name] = {"config": fields, "seed": DEFAULT_SEED,
                        "trials": results}
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    checks.REFERENCE.write_text(
        json.dumps({"workloads": stored}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
