"""The traced replay of a trial, and the per-layer split it gives.

``replay_trial`` repeats ``harness.run_trial`` step by step through the
program's public calls, with a span around each layer boundary. Timing
wrappers, installed only while a replay runs, add child spans for the
plan's ``base.randomize_level`` and ``base.analyze`` and for the
module-level names ``protocols.nb_sample`` and ``defense.dis_to_range``.
Each span records its name, start, end, parent span and trial id; spans
stay in memory and are saved once at the end. A layer's self time is its
spans' durations minus their children's.

A replay must give the same result fields as the untraced ``run_trial``
for the same (config, seed, trial); the caller checks that.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np
from shuffleguard import adversary, defense, harness, protocols
from shuffleguard.queries import QueryKind, eval_query, value_norm
from shuffleguard.runtime import provision

#: Per-layer self-time metrics and the span each one sums.
SELF_TIMES = {
    "runtime.provision_s": "runtime.provision",
    "defense.randomize_s": "defense.randomize",
    "protocols.randomize_s": "protocols.randomize",
    "noise.sample_s": "noise.sample",
    "adversary.s": "adversary",
    "runtime.submit_s": "runtime.submit",
    "runtime.shuffle_s": "runtime.shuffle",
    "protocols.analyze_s": "protocols.analyze",
    "queries.dis_s": "queries.dis",
    "defense.analyze_s": "defense.analyze",
    "queries.truth_s": "queries.truth",
    "harness.other_s": "harness.trial",
}

#: Per-layer call counts and the span each one counts.
CALL_COUNTS = {
    "protocols.analyze_calls": "protocols.analyze",
    "queries.dis_calls": "queries.dis",
}


class Spans:
    """An in-memory span log in flat arrays, one row per span."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.trial_id = -1
        self.counts: dict[int, dict[str, int]] = {}

    def name_id(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.trial.append(self.trial_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(idx)

    def add(self, counter: str, value: int) -> None:
        trial = self.counts.setdefault(self.trial_id, {})
        trial[counter] = trial.get(counter, 0) + value

    def wrap(self, name: str, fn, count: str | None = None):
        """``fn`` with a span around each call; ``count`` sums result sizes."""
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(idx)
            if count is not None:
                self.add(count, int(np.size(out)))
            return out

        return traced

    def per_trial(self, num_trials: int) -> dict[str, list[float]]:
        """Self time and call count of each layer in trials 0..num_trials-1."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        trial = np.frombuffer(self.trial, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - children
        out = {}
        for metric, span_name in {**SELF_TIMES, **CALL_COUNTS}.items():
            mask = name == self.names.get(span_name, -1)
            weights = self_time[mask] if metric in SELF_TIMES else None
            by_trial = np.bincount(
                trial[mask], weights=weights, minlength=num_trials
            )
            out[metric] = [float(v) for v in by_trial[:num_trials]]
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(sorted(self.names, key=self.names.get)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            trial=np.frombuffer(self.trial, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


@contextmanager
def wrappers(spans: Spans, plan):
    """Install the timing wrappers; remove them on exit."""
    base = plan.base
    nb_sample, dis_to_range = protocols.nb_sample, defense.dis_to_range
    base.randomize_level = spans.wrap("protocols.randomize", base.randomize_level)
    base.analyze = spans.wrap("protocols.analyze", base.analyze)
    protocols.nb_sample = spans.wrap("noise.sample", nb_sample, count="noise.draws")
    defense.dis_to_range = spans.wrap("queries.dis", dis_to_range)
    try:
        yield
    finally:
        del base.randomize_level, base.analyze
        protocols.nb_sample, defense.dis_to_range = nb_sample, dis_to_range


def replay_trial(spans: Spans, config, trial_index: int, plan, dataset):
    """``harness.run_trial`` with spans; returns (result fields, counts)."""
    spans.trial_id = trial_index
    span = spans.span
    with wrappers(spans, plan), span("harness.trial"):
        q = plan.query
        xs = dataset.values
        ss = np.random.SeedSequence((config.seed, trial_index))
        rng_prov, rng_honest, rng_adv, rng_shuffle = (
            np.random.default_rng(s) for s in ss.spawn(4)
        )

        with span("runtime.provision"):
            tokens = provision(plan, rng_prov)
            inboxes = tokens.make_inboxes()
            by_id = {inbox.token.id: inbox for inbox in inboxes.values()}

        with span("adversary"):
            strategy = harness.make_strategy(config, plan)
            honest = np.ones(config.n, dtype=bool)
            corrupted = adversary.corrupt_users(config.n, config.k, rng_adv)
            if strategy is not None:
                for i in corrupted.ids:
                    honest[i - 1] = False

        with span("defense.randomize"):
            envelopes, honest_msgs = defense.randomize_all(
                plan, xs, tokens, rng_honest, honest=honest
            )
        honest_envelopes = len(envelopes)

        with span("adversary"):
            if strategy is not None:
                for i in sorted(corrupted.ids):
                    envelopes.extend(
                        adversary.malicious_envelopes(
                            strategy, i, plan, tokens, rng_adv,
                            x=int(xs[i - 1]),
                        )
                    )

        with span("runtime.submit"):
            stray_rejections = 0
            for e in envelopes:
                inbox = by_id.get(e.token)
                if inbox is None:
                    stray_rejections += int(e.payloads.size)
                else:
                    inbox.submit(e)

        with span("runtime.shuffle"):
            shuffled = {
                node: inbox.shuffle(rng_shuffle)
                for node, inbox in inboxes.items()
            }

        with span("defense.analyze"):
            estimate, report = defense.analyze(plan, shuffled)

        with span("queries.truth"):
            truth = eval_query(q, xs)
            abs_error = value_norm(q, estimate - truth)
            if q.kind in (QueryKind.COUNT, QueryKind.SUM):
                normalizer = abs(float(truth))
            else:
                normalizer = float(config.n)
            rel_error = abs_error / max(1.0, normalizer)

    fields = {
        "abs_error": abs_error,
        "rel_error": rel_error,
        "msgs_per_user": honest_msgs / config.n,
        "bits_per_msg": plan.base.bits_per_msg() + plan.token_bits,
        "detected": report.attack_detected,
        "flagged_nodes": len(report.flagged),
    }
    # Counted after the trial span closes, so that counting costs no
    # layer any time.
    accepted = sum(inbox.accepted_count for inbox in inboxes.values())
    rejected = stray_rejections + sum(
        inbox.rejected_count for inbox in inboxes.values()
    )
    attack = envelopes[honest_envelopes:]
    counts = {
        "runtime.tokens": len(tokens),
        "defense.envelopes": honest_envelopes,
        "protocols.honest_msgs": honest_msgs,
        "noise.draws": spans.counts.get(trial_index, {}).get("noise.draws", 0),
        "adversary.msgs": sum(int(e.payloads.size) for e in attack),
        "adversary.envelopes": len(attack),
        "runtime.accepted_msgs": accepted,
        "runtime.rejected_msgs": rejected,
        "runtime.accept_ratio": accepted / max(1, accepted + rejected),
        "runtime.shuffled_msgs": sum(int(a.size) for a in shuffled.values()),
        "runtime.payload_bytes": sum(int(a.nbytes) for a in shuffled.values()),
        "defense.flagged_nodes": len(report.flagged),
        "defense.flagged_frac": len(report.flagged) / plan.num_shufflers,
    }
    return fields, counts
