"""Corrupted-user strategies and their structural guarantees."""

import math

import numpy as np
import pytest

from shuffleguard.adversary import (
    AlterInput,
    DropNoise,
    Flood,
    Impersonate,
    corrupt_users,
    malicious_envelopes,
)
from shuffleguard.defense import Variant, make_plan, randomize_all
from shuffleguard.errors import ParameterError
from shuffleguard.protocols import (
    CountProtocol,
    SumProtocol,
    make_base,
)
from shuffleguard.queries import Query, QueryKind
from shuffleguard.runtime import provision

from message_level import deliver

INF = math.inf


def count_plan(n=8, eps=1.0, lam=None):
    base = CountProtocol(Query(QueryKind.COUNT))
    if lam:
        return make_plan(
            Variant.OHSDP, base, n, eps, 0.01, 0.1, lam=lam, k_hat=1
        )
    return make_plan(Variant.HSDP, base, n, eps, 0.01, 0.1)


class TestCorruptUsers:
    def test_none(self):
        assert corrupt_users(10, 0, np.random.default_rng(0)).ids == frozenset()

    def test_all(self):
        cs = corrupt_users(5, 5, np.random.default_rng(0))
        assert cs.ids == frozenset(range(1, 6))

    def test_too_many(self):
        with pytest.raises(ParameterError):
            corrupt_users(5, 6, np.random.default_rng(0))

    def test_uniform_selection(self):
        rng = np.random.default_rng(1)
        hits = np.zeros(10)
        draws = 10_000
        for _ in range(draws):
            for i in corrupt_users(10, 3, rng).ids:
                hits[i - 1] += 1
        np.testing.assert_allclose(hits / draws, 0.3, atol=0.02)


class TestFlooding:
    def test_flood_count_every_level(self):
        plan = count_plan()
        tokens = provision(plan, np.random.default_rng(0))
        envs = malicious_envelopes(
            Flood(msgs=8), 3, plan, tokens, np.random.default_rng(1), x=0
        )
        assert len(envs) == len(plan.levels)
        for e, lp in zip(envs, plan.levels):
            g = plan.group_of(3, lp.r)
            assert e.token == int(tokens.levels[lp.r - 1][g - 1])
            np.testing.assert_array_equal(e.payloads, np.ones(8))

    def test_flood_sum_residues(self):
        # Each flood residue is U, the most one sum message can add.
        base = SumProtocol(Query(QueryKind.SUM, 10), 8)
        plan = make_plan(Variant.HSDP, base, 8, 1.0, 0.01, 0.1)
        tokens = provision(plan, np.random.default_rng(0))
        envs = malicious_envelopes(
            Flood(msgs=3), 2, plan, tokens, np.random.default_rng(1), x=0
        )
        assert len(envs) == len(plan.levels)
        for e in envs:
            np.testing.assert_array_equal(e.payloads, [10, 10, 10])

    def test_flood_hist_every_bin(self):
        base = make_base(Query(QueryKind.HISTOGRAM, 2), 4)
        plan = make_plan(Variant.HSDP, base, 4, 1.0, 0.01, 0.1)
        tokens = provision(plan, np.random.default_rng(0))
        envs = malicious_envelopes(
            Flood(msgs=2), 1, plan, tokens, np.random.default_rng(1), x=0
        )
        for e in envs:
            # Each top code repeated, in code order.
            np.testing.assert_array_equal(e.payloads, [1, 1, 2, 2, 3, 3])


class TestOtherStrategies:
    def test_drop_noise_data_only(self):
        plan = count_plan()
        tokens = provision(plan, np.random.default_rng(0))
        envs = malicious_envelopes(
            DropNoise(), 5, plan, tokens, np.random.default_rng(1), x=1
        )
        assert len(envs) == len(plan.levels)
        for e in envs:
            np.testing.assert_array_equal(e.payloads, [1])

    @pytest.mark.parametrize(
        "kind,u,x,data",
        [
            (QueryKind.COUNT, 0, 1, [1]),
            (QueryKind.SUM, 10, 7, None),
            (QueryKind.HISTOGRAM, 3, 2, [3]),
            # level offsets 0, 4, 6: value 3 is bins 3, 1 and 0 of its levels
            (QueryKind.RANGE_TREE, 3, 3, [4, 6, 7]),
        ],
        ids=["count", "sum", "hist", "range"],
    )
    def test_drop_noise_sends_noiseless_data(self, kind, u, x, data):
        base = make_base(Query(kind, u), 8)
        plan = make_plan(Variant.HSDP, base, 8, 1.0, 0.01, 0.1)
        tokens = provision(plan, np.random.default_rng(0))
        envs = malicious_envelopes(
            DropNoise(), 5, plan, tokens, np.random.default_rng(1), x=x
        )
        assert len(envs) == len(plan.levels)
        for e in envs:
            if data is None:
                assert e.payloads.size == base.shares
                assert int(e.payloads.sum()) % base.modulus == x
            else:
                np.testing.assert_array_equal(e.payloads, data)

    def test_alter_input_runs_honest_randomizer(self):
        plan = count_plan(eps=INF)
        tokens = provision(plan, np.random.default_rng(0))
        envs = malicious_envelopes(
            AlterInput(), 5, plan, tokens, np.random.default_rng(1), x=0
        )
        for e in envs:
            np.testing.assert_array_equal(e.payloads, [1])

    def test_impersonation_rejected(self):
        plan = count_plan()
        tokens = provision(plan, np.random.default_rng(0))
        inboxes = tokens.make_inboxes()
        envs = malicious_envelopes(
            Impersonate(msgs=10), 5, plan, tokens,
            np.random.default_rng(1), x=0,
        )
        accepted = sum(
            ib.submit(e) for ib in inboxes.values() for e in envs
        )
        assert accepted == 0


class TestStructural:
    def test_attacker_only_uses_own_tokens(self):
        plan = count_plan(n=8, lam=4)
        tokens = provision(plan, np.random.default_rng(0))
        own = {
            int(tokens.levels[lp.r - 1][plan.group_of(2, lp.r) - 1])
            for lp in plan.levels
        }
        for strategy in (
            Flood(msgs=5),
            DropNoise(),
            AlterInput(),
        ):
            envs = malicious_envelopes(
                strategy, 2, plan, tokens, np.random.default_rng(1), x=1
            )
            assert {e.token for e in envs} <= own

    def test_alter_input_shift_bounded_noiseless(self):
        # Forging one input moves the final estimate by at most the
        # single-user output spread (1 for a bit), exactly in the
        # noiseless limit.
        plan = count_plan(eps=INF)
        xs = np.asarray([1, 0, 1, 1, 0, 1, 1, 1], dtype=np.int64)
        rng = np.random.default_rng(3)
        tokens = provision(plan, rng)
        honest = np.ones(8, dtype=bool)
        honest[4] = False  # user 5 is corrupted (x=0, forges 1)
        envs, _ = randomize_all(plan, xs, tokens, rng, honest=honest)
        envs.extend(
            malicious_envelopes(
                AlterInput(), 5, plan, tokens, rng, x=0
            )
        )
        out, report, rejected = deliver(plan, tokens, envs)
        assert rejected == 0
        assert out == 7  # truth 6, shifted by exactly +1
        assert not report.attack_detected
