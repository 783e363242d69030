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

import numpy as np
import pytest

from shuffleguard import harness
from shuffleguard.adversary import corrupt_users, malicious_envelopes
from shuffleguard.defense import TreePlan, randomize_all
from shuffleguard.harness import (
    ExperimentConfig,
    build_plan,
    experiment_dataset,
    make_strategy,
    run_experiment,
    run_trial,
)
from shuffleguard.runtime import provision

from message_level import deliver

GOLDEN = Path(__file__).with_name("golden.json")

QUERIES = ("count", "sum", "hist", "range")
PROTOCOLS = ("base", "susdp", "bsdp", "hsdp", "ohsdp")
ATTACKS = (
    ("none", 0), ("flood", 1), ("drop", 1), ("alter", 1), ("impersonate", 1),
)

#: n = 256 is a power of two (hsdp, ohsdp) and a perfect square (bsdp).
CONFIGS = {
    f"{query}-{protocol}-{attack}": ExperimentConfig(
        query=query, u=1 if query == "count" else 7, protocol=protocol,
        n=256, k=k, attack=attack, trials=3, seed=11,
    )
    for query in QUERIES
    for protocol in PROTOCOLS
    for attack, k in ATTACKS
}

SUMMARY_FIELDS = (
    "lam", "abs_error", "rel_error_pct", "msgs_per_user", "bits_per_msg",
    "detection_rate", "rejected_msgs", "malformed_msgs",
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


def message_level_trial(config, t, plan, dataset):
    """``run_trial`` through the message-level API, message by message:
    provision, randomize_all and malicious_envelopes, then ``deliver``.
    Returns (estimate, report, honest messages, rejected messages)."""
    xs = dataset.values
    ss = np.random.SeedSequence((config.seed, t))
    rng_prov, rng_honest, rng_adv = (
        np.random.default_rng(s) for s in ss.spawn(3)
    )
    tokens = provision(plan, rng_prov)
    strategy = make_strategy(config, plan)
    corrupted = corrupt_users(config.n, config.k, rng_adv)
    honest = np.ones(config.n, dtype=bool)
    if strategy is not None:
        honest[[i - 1 for i in corrupted.ids]] = False
    envelopes, honest_msgs = randomize_all(
        plan, xs, tokens, rng_honest, honest=honest
    )
    if strategy is not None:
        for i in sorted(corrupted.ids):
            envelopes += malicious_envelopes(
                strategy, i, plan, tokens, rng_adv, x=int(xs[i - 1])
            )
    estimate, report, rejected = deliver(plan, tokens, envelopes)
    return estimate, report, honest_msgs, rejected


@pytest.mark.parametrize("name", list(CONFIGS))
def test_message_level_path_in_lock_step(name, monkeypatch):
    # run_trial folds each level as a tally; the message-level API (which
    # the benchmark's traced replay follows) must give the same trial.
    config = CONFIGS[name]
    plan = build_plan(config)
    dataset = experiment_dataset(config)
    detected = []

    def detect(*args):
        detected.append(harness_detect(*args))
        return detected[-1]

    harness_detect = harness.detect
    monkeypatch.setattr(harness, "detect", detect)
    for t in range(config.trials):
        result = run_trial(config, t, plan=plan, dataset=dataset)
        estimate, report = detected[-1]
        want, want_report, honest_msgs, rejected = message_level_trial(
            config, t, plan, dataset
        )
        np.testing.assert_array_equal(estimate, want)
        assert report.flagged == want_report.flagged
        assert result.flagged_nodes == len(want_report.flagged)
        assert result.msgs_per_user == honest_msgs / config.n
        assert result.rejected_msgs == rejected



@pytest.mark.parametrize("node", [(1, 3), (9, 1)], ids=["bottom", "root"])
def test_guessed_token_on_a_provisioned_id_is_folded(node, monkeypatch):
    # A guess that names a node is accepted by that node's shuffler. With
    # node_at forced to resolve every guess to one node, run_trial folds
    # the guess into that node and rejects nothing, and the message-level
    # trial, which delivers it under that node's token, agrees.
    config = CONFIGS["count-hsdp-impersonate"]
    plan = build_plan(config)
    dataset = experiment_dataset(config)
    assert len(plan.levels) == 9
    r, g = node
    levels = []

    def detect(plan, estimates):
        levels.append([e.copy() for e in estimates])
        return harness_detect(plan, estimates)

    harness_detect = harness.detect
    monkeypatch.setattr(harness, "detect", detect)
    missed = run_trial(config, 0, plan=plan, dataset=dataset)
    monkeypatch.setattr(TreePlan, "node_at", lambda self, index: node)
    hit = run_trial(config, 0, plan=plan, dataset=dataset)

    msgs = config.attack_msgs_eff
    assert (missed.rejected_msgs, hit.rejected_msgs) == (msgs, 0)
    for level, (before, after) in enumerate(zip(*levels), start=1):
        shift = np.zeros_like(before)
        if level == r:
            shift[g - 1] = msgs  # one +1 token each
        np.testing.assert_array_equal(after - before, shift)
    want, want_report, _, rejected = message_level_trial(
        config, 0, plan, dataset
    )
    assert rejected == 0
    estimate, report = harness_detect(plan, levels[1])
    np.testing.assert_array_equal(estimate, want)
    assert report.flagged == want_report.flagged


if __name__ == "__main__":
    stored = {name: results(config) for name, config in CONFIGS.items()}
    GOLDEN.write_text(json.dumps(stored, indent=1) + "\n")
