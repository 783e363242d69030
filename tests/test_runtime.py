"""Token-authorized shufflers: provisioning, filtering, release."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shuffleguard.defense import plan_bsdp, plan_hsdp, plan_ohsdp, plan_susdp
from shuffleguard.protocols import CountProtocol
from shuffleguard.queries import Query, QueryKind
from shuffleguard.runtime import Envelope, ShufflerInbox, ShufflerToken, provision


def count_base():
    return CountProtocol(Query(QueryKind.COUNT))


class TestProvision:
    def test_binary_tree_token_count(self):
        plan = plan_hsdp(count_base(), 4, 1.0, 0.01, 0.1)
        tokens = provision(plan, np.random.default_rng(0))
        assert len(tokens) == 2 * 4 - 1

    def test_wide_bottom_token_count(self):
        plan = plan_ohsdp(count_base(), 8, 1.0, 0.01, 0.1, lam=4)
        tokens = provision(plan, np.random.default_rng(0))
        assert len(tokens) == 2 * (8 // 4) - 1

    def test_distinct_ids_within_run(self):
        plan = plan_hsdp(count_base(), 16, 1.0, 0.01, 0.1)
        tokens = provision(plan, np.random.default_rng(1))
        ids = tokens.ids.tolist()
        assert len(set(ids)) == len(ids) == 2 * 16 - 1

    def test_different_seeds_share_no_tokens(self):
        plan = plan_hsdp(count_base(), 16, 1.0, 0.01, 0.1)
        a = provision(plan, np.random.default_rng(1))
        b = provision(plan, np.random.default_rng(2))
        ids_a = set(a.ids.tolist())
        ids_b = set(b.ids.tolist())
        assert not ids_a & ids_b


@settings(max_examples=60, deadline=None)
@given(
    make=st.sampled_from([
        lambda: plan_susdp(count_base(), 16, 1.0, 0.01, 0.1),
        lambda: plan_bsdp(count_base(), 16, 1.0, 0.01, 0.1),
        lambda: plan_hsdp(count_base(), 32, 1.0, 0.01, 0.1),
        lambda: plan_ohsdp(count_base(), 64, 1.0, 0.01, 0.1, lam=8),
    ]),
    seed=st.integers(0, 2**32 - 1),
    guess=st.integers(-(1 << 64), 1 << 64),
)
def test_node_of_finds_every_node_and_no_guess(make, seed, guess):
    plan = make()
    tokens = provision(plan, np.random.default_rng(seed))
    ids = set(tokens.ids.tolist())
    for r, g in plan.nodes():
        tid = tokens.token(r, g).id
        assert tokens.node_of(tid) == (r, g)
        if tid + 1 not in ids:  # the sorted neighbour of a real id
            assert tokens.node_of(tid + 1) is None
    assume(guess not in ids)
    assert tokens.node_of(guess) is None


class TestSubmit:
    def make_inbox(self):
        return ShufflerInbox(ShufflerToken(id=12345, level=1, group=1))

    def test_matching_token_accepted(self):
        inbox = self.make_inbox()
        assert inbox.submit(Envelope(12345, np.asarray([1])))
        assert inbox.accepted_count == 1
        assert inbox.rejected_count == 0

    def test_mismatched_token_rejected(self):
        inbox = self.make_inbox()
        assert not inbox.submit(Envelope(999, np.asarray([1, 1])))
        assert inbox.accepted_count == 0
        assert inbox.rejected_count == 2

    def test_replayed_own_token_accepted(self):
        # Flooding through an authorized token is the defense layer's
        # problem, not the shuffler's.
        inbox = self.make_inbox()
        for _ in range(5):
            assert inbox.submit(Envelope(12345, np.asarray([1])))
        assert inbox.accepted_count == 5


class TestShuffle:
    def test_singleton_passthrough(self):
        inbox = ShufflerInbox(ShufflerToken(1, 1, 1))
        inbox.submit(Envelope(1, np.asarray([7])))
        np.testing.assert_array_equal(
            inbox.shuffle(np.random.default_rng(0)), [7]
        )

    def test_multiset_preserved(self):
        inbox = ShufflerInbox(ShufflerToken(1, 1, 1))
        rng = np.random.default_rng(3)
        payloads = [rng.integers(0, 5, size=k) for k in (3, 0, 7)]
        for p in payloads:
            inbox.submit(Envelope(1, p))
        out = inbox.shuffle(rng)
        assert sorted(out) == sorted(np.concatenate(payloads))

    def test_empty_inbox(self):
        inbox = ShufflerInbox(ShufflerToken(1, 1, 1))
        assert inbox.shuffle(np.random.default_rng(0)).size == 0


def test_unknown_token_reaches_no_inbox():
    # Structural: an envelope with a guessed token lands in no analyzer feed.
    plan = plan_hsdp(count_base(), 8, 1.0, 0.01, 0.1)
    tokens = provision(plan, np.random.default_rng(5))
    inboxes = tokens.make_inboxes()
    guess = 424242
    assert guess not in tokens.ids
    accepted = [ib.submit(Envelope(guess, np.ones(3, dtype=np.int64))) for ib in inboxes.values()]
    assert not any(accepted)
    assert all(ib.accepted_count == 0 for ib in inboxes.values())
