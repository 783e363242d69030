"""Token-authorized shufflers: provisioning, filtering, release."""

import numpy as np

from shuffleguard.defense import Variant, make_plan
from shuffleguard.protocols import CountProtocol
from shuffleguard.queries import Query, QueryKind
from shuffleguard.runtime import (
    Envelope, ShufflerInbox, ShufflerToken, TokenTable, provision,
)


def count_base():
    return CountProtocol(Query(QueryKind.COUNT))


class TestProvision:
    def test_binary_tree_token_count(self):
        plan = make_plan(Variant.HSDP, count_base(), 4, 1.0, 0.01, 0.1)
        tokens = provision(plan, np.random.default_rng(0))
        assert len(tokens) == 2 * 4 - 1

    def test_wide_bottom_token_count(self):
        plan = make_plan(
            Variant.OHSDP, count_base(), 8, 1.0, 0.01, 0.1, lam=4, k_hat=1
        )
        tokens = provision(plan, np.random.default_rng(0))
        assert len(tokens) == 2 * (8 // 4) - 1

    def test_distinct_ids_within_run(self):
        plan = make_plan(Variant.HSDP, count_base(), 16, 1.0, 0.01, 0.1)
        tokens = provision(plan, np.random.default_rng(1))
        ids = tokens.ids.tolist()
        assert len(set(ids)) == len(ids) == 2 * 16 - 1

    def test_different_seeds_share_no_tokens(self):
        plan = make_plan(Variant.HSDP, count_base(), 16, 1.0, 0.01, 0.1)
        a = provision(plan, np.random.default_rng(1))
        b = provision(plan, np.random.default_rng(2))
        ids_a = set(a.ids.tolist())
        ids_b = set(b.ids.tolist())
        assert not ids_a & ids_b


def test_duplicate_id_redraws_whole_table():
    class Stub:
        """A generator whose first draw repeats an id."""

        def __init__(self):
            self.draws = [[5, 9, 5], [3, 1, 2]]

        def integers(self, low, high, size, dtype):
            return np.asarray(self.draws.pop(0), dtype=dtype)

    stub = Stub()
    tokens = TokenTable([2, 1], stub)
    assert not stub.draws
    np.testing.assert_array_equal(tokens.ids, [3, 1, 2])
    assert [level.tolist() for level in tokens.levels] == [[3, 1], [2]]


class TestSubmit:
    def make_inbox(self):
        return ShufflerInbox(ShufflerToken(id=12345))

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
        inbox = ShufflerInbox(ShufflerToken(1))
        inbox.submit(Envelope(1, np.asarray([7])))
        np.testing.assert_array_equal(
            inbox.shuffle(np.random.default_rng(0)), [7]
        )

    def test_multiset_preserved(self):
        inbox = ShufflerInbox(ShufflerToken(1))
        rng = np.random.default_rng(3)
        payloads = [rng.integers(0, 5, size=k) for k in (3, 0, 7)]
        for p in payloads:
            inbox.submit(Envelope(1, p))
        out = inbox.shuffle(rng)
        assert sorted(out) == sorted(np.concatenate(payloads))

    def test_empty_inbox(self):
        inbox = ShufflerInbox(ShufflerToken(1))
        assert inbox.shuffle(np.random.default_rng(0)).size == 0


def test_unknown_token_reaches_no_inbox():
    # Structural: an envelope with a guessed token lands in no analyzer feed.
    plan = make_plan(Variant.HSDP, count_base(), 8, 1.0, 0.01, 0.1)
    tokens = provision(plan, np.random.default_rng(5))
    inboxes = tokens.make_inboxes()
    guess = 424242
    assert guess not in tokens.ids
    accepted = [ib.submit(Envelope(guess, np.ones(3, dtype=np.int64))) for ib in inboxes.values()]
    assert not any(accepted)
    assert all(ib.accepted_count == 0 for ib in inboxes.values())
