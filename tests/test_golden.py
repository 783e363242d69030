"""Golden results: the fixed-seed outcome of a small experiment matrix.

For every config of the matrix below, each ``Summary`` field except the
wall time, and the ``flagged_nodes`` of each trial, must equal the values
stored in ``golden.json`` exactly, floats included. A refactor that moves
any of them has changed behaviour, not only code.

Rewrite the fixture only when a change of behaviour is intended:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from shuffleguard.harness import (
    ExperimentConfig,
    build_plan,
    experiment_dataset,
    run_experiment,
    run_trial,
)

GOLDEN = Path(__file__).with_name("golden.json")

QUERIES = ("count", "sum", "hist", "range")
PROTOCOLS = ("base", "susdp", "bsdp", "hsdp", "ohsdp")
ATTACKS = (
    ("none", 0), ("flood", 1), ("drop", 1), ("alter", 1), ("impersonate", 1),
)

#: n = 256 is a power of two (hsdp, ohsdp) and a perfect square (bsdp).
CONFIGS = {
    f"{query}-{protocol}-{attack}": ExperimentConfig(
        query=query, u=7, protocol=protocol, n=256, k=k, attack=attack,
        trials=3, seed=11,
    )
    for query in QUERIES
    for protocol in PROTOCOLS
    for attack, k in ATTACKS
}

SUMMARY_FIELDS = (
    "lam", "abs_error", "rel_error_pct", "msgs_per_user", "bits_per_msg",
    "detection_rate",
)


def results(config: ExperimentConfig) -> dict:
    """The config, its Summary (wall time left out) and per-trial flags."""
    summary = run_experiment(config)
    plan = build_plan(config)
    dataset = experiment_dataset(config)
    flagged = [
        run_trial(config, t, plan=plan, dataset=dataset).flagged_nodes
        for t in range(config.trials)
    ]
    return {
        "config": asdict(summary.config),
        **{name: getattr(summary, name) for name in SUMMARY_FIELDS},
        "flagged_nodes": flagged,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(CONFIGS))
def test_matches_golden(name, golden):
    assert results(CONFIGS[name]) == golden[name]


if __name__ == "__main__":
    stored = {name: results(config) for name, config in CONFIGS.items()}
    GOLDEN.write_text(json.dumps(stored, indent=1) + "\n")
