"""Defense plans, detection, and recovery."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuffleguard.defense import (
    Variant,
    analyze,
    detect,
    make_plan,
    randomize_all,
)
from shuffleguard.errors import ParameterError, StructureError
from shuffleguard.harness import ExperimentConfig, run_trial
from shuffleguard.noise import dlap_threshold
from shuffleguard.protocols import CountProtocol, make_base
from shuffleguard.queries import Query, QueryKind, dis_to_range, eval_query
from shuffleguard.runtime import Envelope, provision

from message_level import deliver

INF = math.inf


def count_base():
    return CountProtocol(Query(QueryKind.COUNT))


def run_round(plan, xs, seed=0, floods=()):
    """One full provision/randomize/shuffle/analyze round.

    ``floods`` is a list of ((level, group), payload-array) injections,
    added with the target node's real token (an in-group attacker)."""
    rng = np.random.default_rng(seed)
    tokens = provision(plan, rng)
    envs, _ = randomize_all(plan, xs, tokens, rng, np.ones(xs.size, bool))
    for (r, g), payload in floods:
        tid = int(tokens.levels[r - 1][g - 1])
        envs.append(Envelope(tid, np.asarray(payload, dtype=np.int64)))
    out, report, rejected = deliver(plan, tokens, envs)
    assert rejected == 0
    return out, report


class TestPlans:
    def test_susdp_structure(self):
        plan = make_plan(Variant.SUSDP, count_base(), 4, 1.0, 0.01, 0.1)
        assert len(plan.levels) == 1
        lvl = plan.levels[0]
        assert (lvl.group_size, lvl.num_groups) == (1, 4)
        assert lvl.theta == dlap_threshold(math.exp(-1.0), 0.025)

    def test_susdp_n1_degenerate(self):
        plan = make_plan(Variant.SUSDP, count_base(), 1, 1.0, 0.01, 0.1)
        assert plan.levels[0].budget.beta == pytest.approx(0.1)

    def test_bsdp_structure(self):
        plan = make_plan(Variant.BSDP, count_base(), 9, 1.0, 0.01, 0.1)
        assert [lp.group_size for lp in plan.levels] == [1, 3, 9]
        assert [lp.num_groups for lp in plan.levels] == [9, 3, 1]
        assert plan.num_shufflers == 13

    def test_bsdp_top_epsilon_share(self):
        plan = make_plan(Variant.BSDP, count_base(), 9, 1.0, 0.01, 0.1)
        assert plan.levels[2].budget.epsilon == pytest.approx((1 / 3) * (8 / 9))
        assert plan.levels[2].budget.beta == pytest.approx(0.05)
        assert plan.levels[0].budget.beta == pytest.approx(0.1 / (2 * (3 + 9)))

    def test_bsdp_rejects_nonsquare(self):
        # n = 1 is square, but sqrt(n) = 1 leaves the middle level no budget.
        for n in (8, 1):
            with pytest.raises(ParameterError):
                make_plan(Variant.BSDP, count_base(), n, 1.0, 0.01, 0.1)

    def test_hsdp_structure(self):
        plan = make_plan(Variant.HSDP, count_base(), 8, 1.0, 0.01, 0.1)
        assert [lp.group_size for lp in plan.levels] == [1, 2, 4, 8]
        assert plan.num_shufflers == 15

    def test_hsdp_level1_budget(self):
        plan = make_plan(Variant.HSDP, count_base(), 8, 1.0, 0.01, 0.1)
        b = plan.levels[0].budget
        assert b.epsilon == pytest.approx(1 / 6)
        assert b.delta == pytest.approx(0.01 / 6)
        assert b.beta == pytest.approx(0.1 / 28)

    def test_hsdp_rejects_non_pow2(self):
        with pytest.raises(ParameterError):
            make_plan(Variant.HSDP, count_base(), 12, 1.0, 0.01, 0.1)

    def test_ohsdp_structure(self):
        plan = make_plan(
            Variant.OHSDP, count_base(), 16, 1.0, 0.01, 0.1, lam=4, k_hat=1
        )
        assert [lp.group_size for lp in plan.levels] == [4, 8, 16]
        assert plan.num_shufflers == 2 * 4 - 1

    def test_ohsdp_scaling_matches_binary_tree_at_lam1(self):
        # With lam=1 the middle-level discount factors reduce to the
        # binary-tree plan's (m-1)/m schedule.
        o = make_plan(
            Variant.OHSDP, count_base(), 16, 1.0, 0.01, 0.1, lam=1, k_hat=0
        )
        h = make_plan(Variant.HSDP, count_base(), 16, 1.0, 0.01, 0.1)
        f_o = [lp.budget.epsilon / o.levels[0].budget.epsilon for lp in o.levels[:-1]]
        f_h = [lp.budget.epsilon / h.levels[0].budget.epsilon for lp in h.levels[:-1]]
        assert f_o == pytest.approx(f_h)

    def test_ohsdp_honest_majority_required(self):
        with pytest.raises(ParameterError):
            make_plan(
                Variant.OHSDP, count_base(), 16, 1.0, 0.01, 0.1, lam=4, k_hat=2
            )

    def test_ohsdp_multi_attacker_discount(self):
        plan = make_plan(
            Variant.OHSDP, count_base(), 16, 1.0, 0.01, 0.1, lam=8, k_hat=3
        )
        big_l = len(plan.levels)
        assert plan.levels[0].budget.epsilon == pytest.approx(
            1.0 / (2 * big_l) * (8 - 3) / 8
        )
        assert plan.levels[-1].budget.epsilon == pytest.approx(
            0.5 * (16 - 3) / 16
        )

    def test_budget_sums_within_total(self):
        for plan in (
            make_plan(Variant.BSDP, count_base(), 16, 1.0, 0.01, 0.1),
            make_plan(Variant.HSDP, count_base(), 16, 1.0, 0.01, 0.1),
            make_plan(
                Variant.OHSDP, count_base(), 16, 1.0, 0.01, 0.1, lam=4, k_hat=1
            ),
        ):
            assert sum(lp.budget.epsilon for lp in plan.levels) <= 1.0 + 1e-9
            assert sum(lp.budget.delta for lp in plan.levels) <= 0.01 + 1e-9

    def test_threshold_monotonicity(self):
        base = count_base()
        thetas_eps = [
            make_plan(Variant.SUSDP, base, 4, eps, 0.01, 0.1).levels[0].theta
            for eps in (0.25, 0.5, 1.0, 2.0)
        ]
        assert thetas_eps == sorted(thetas_eps, reverse=True)
        thetas_beta = [
            make_plan(Variant.SUSDP, base, 4, 1.0, 0.01, beta).levels[0].theta
            for beta in (0.4, 0.2, 0.1, 0.05)
        ]
        assert thetas_beta == sorted(thetas_beta)


@st.composite
def plan_args(
    draw, log_n=12, kinds=(QueryKind.COUNT, QueryKind.SUM, QueryKind.HISTOGRAM)
):
    """A variant, a valid (n, lam, k_hat) for it, and a budget; no level
    has more than 2^log_n groups."""
    variant = draw(st.sampled_from(list(Variant)))
    lam, k_hat = 1, 1
    if variant is Variant.BSDP:
        n = draw(st.integers(2, 1 << (log_n // 2))) ** 2
    elif variant is Variant.HSDP:
        n = 1 << draw(st.integers(0, log_n))
    elif variant is Variant.OHSDP:
        k_hat = draw(st.integers(0, 5))
        lam = draw(st.integers(2 * k_hat + 1, 64))
        n = lam << draw(st.integers(0, log_n - 4))
    else:
        n = draw(st.integers(1, 1 << log_n))
    kind = draw(st.sampled_from(kinds))
    base = make_base(Query(kind, draw(st.integers(1, 9))), n)
    eps = draw(st.floats(1e-3, 20))
    delta = draw(st.floats(1e-12, 0.99))
    beta = draw(st.floats(1e-6, 0.99))
    return variant, base, n, eps, delta, beta, lam, k_hat


@settings(max_examples=300, deadline=None)
@given(args=plan_args())
def test_budget_invariants(args):
    variant, base, n, eps, delta, beta, lam, k_hat = args
    plan = make_plan(variant, base, n, eps, delta, beta, lam=lam, k_hat=k_hat)
    slack = 1e-9
    assert sum(lp.budget.epsilon for lp in plan.levels) <= eps + slack
    assert sum(lp.budget.delta for lp in plan.levels) <= delta + slack
    # Every node's threshold may fail with its own beta_i: a union bound.
    assert sum(lp.num_groups * lp.budget.beta for lp in plan.levels) <= (
        beta + slack
    )
    for lp in plan.levels:
        assert (lp.p, lp.theta) == base.law(lp.budget.epsilon, lp.budget.beta)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_node_at_is_the_node_order(variant, data):
    # A guessed token reaches the node it numbers in nodes(), if any.
    args = data.draw(plan_args(log_n=8).filter(lambda a: a[0] is variant))
    _, base, n, eps, delta, beta, lam, k_hat = args
    plan = make_plan(variant, base, n, eps, delta, beta, lam=lam, k_hat=k_hat)
    nodes = plan.nodes()
    assert [plan.node_at(i) for i in range(len(nodes))] == nodes
    past = data.draw(st.integers(len(nodes), (1 << 63) - 1))
    for index in (len(nodes), past, (1 << 63) - 1):
        assert plan.node_at(index) is None


@st.composite
def detect_args(draw):
    """A small plan of any variant and query, and per-level estimates:
    each group's true answer off by up to a few of its level's thresholds,
    so that some nodes pass and some are flagged."""
    variant, base, n, eps, delta, beta, lam, k_hat = draw(
        plan_args(log_n=7, kinds=list(QueryKind))
    )
    plan = make_plan(variant, base, n, eps, delta, beta, lam=lam, k_hat=k_hat)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.integers(0, plan.query.max_input + 1, size=n)
    levels = []
    for lp in plan.levels:
        truth = np.stack([
            np.atleast_1d(eval_query(plan.query, group))
            for group in xs.reshape(lp.num_groups, lp.group_size)
        ])
        off = draw(st.integers(0, 3 * lp.theta + 2))
        levels.append(truth + rng.integers(-off, off + 1, size=truth.shape))
    return plan, levels


def recover(plan, levels, r, g, flagged):
    """Node (r, g)'s recovered value, by the rules alone; appends the node
    to ``flagged`` if it is flagged."""
    lp = plan.levels[r - 1]
    est = levels[r - 1][g - 1]
    if r == 1:
        bad = plan.detects and (
            dis_to_range(plan.query, lp.group_size, est[None])[0] > lp.theta
        )
        value = np.zeros_like(est) if bad else est
    else:
        c = plan.num_children(r)
        kids = [
            recover(plan, levels, r - 1, (g - 1) * c + j, flagged)
            for j in range(1, c + 1)
        ]
        child_sum = sum(kids)
        bad = any((r - 1, (g - 1) * c + j) in flagged for j in range(1, c + 1))
        bad = bad or np.abs(est - child_sum).max() > plan.pair_threshold(r)
        value = child_sum if bad else est
    if bad:
        flagged.append((r, g))
    return value


@settings(max_examples=200, deadline=None)
@given(args=detect_args())
def test_detect_matches_recursive_oracle(args):
    # An unflagged node keeps its estimate, a flagged bottom node gives 0,
    # a flagged upper node the sum of its children's recovered values.
    plan, levels = args
    top = plan.levels[-1]
    flagged = []
    want = sum(
        recover(plan, levels, top.r, g, flagged)
        for g in range(1, top.num_groups + 1)
    )
    before = [level.copy() for level in levels]
    out, report = detect(plan, levels)
    if plan.query.scalar:
        want = int(want[0])
    np.testing.assert_array_equal(out, want)
    assert sorted(report.flagged) == sorted(flagged)
    # detect only reads the estimates: in run_trial they are the tallies.
    for level, was in zip(levels, before):
        np.testing.assert_array_equal(level, was)


class TestGroupOf:
    def test_examples(self):
        plan = make_plan(Variant.HSDP, count_base(), 64, 1.0, 0.01, 0.1)
        assert plan.group_of(5, 3) == 2
        assert plan.group_of(1, 7) == 1
        assert plan.group_of(8, 4) == 1

    def test_with_wide_bottom(self):
        plan = make_plan(
            Variant.OHSDP, count_base(), 8, 1.0, 0.01, 0.1, lam=4, k_hat=1
        )
        assert plan.group_of(5, 1) == 2
        assert plan.group_of(4, 1) == 1


class TestRandomizeUser:
    """A user's envelopes, as randomize_all addresses them."""

    def test_two_level_addresses(self):
        plan = make_plan(Variant.HSDP, count_base(), 2, 1.0, 0.01, 0.1)
        tokens = provision(plan, np.random.default_rng(0))
        envs, _ = randomize_all(
            plan, np.ones(2, dtype=np.int64), tokens, np.random.default_rng(1),
            np.ones(2, bool),
        )
        assert [e.token for e in envs] == [
            int(tokens.levels[0][0]),
            int(tokens.levels[0][1]),
            int(tokens.levels[1][0]),
        ]

    def test_noiseless_one_token_per_level(self):
        plan = make_plan(Variant.HSDP, count_base(), 8, INF, 0.01, 0.1)
        tokens = provision(plan, np.random.default_rng(0))
        xs = np.zeros(8, dtype=np.int64)
        xs[2] = 1  # user 3
        envs, _ = randomize_all(
            plan, xs, tokens, np.random.default_rng(1), np.ones(8, bool)
        )
        by_token = {e.token: e.payloads for e in envs}
        path = [(lp.r, plan.group_of(3, lp.r)) for lp in plan.levels]
        for r, g in path:
            np.testing.assert_array_equal(
                by_token[int(tokens.levels[r - 1][g - 1])], [1]
            )


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize(
    "query",
    [Query(QueryKind.COUNT), Query(QueryKind.HISTOGRAM, 3),
     Query(QueryKind.RANGE_TREE, 7)],
    ids=["count", "hist", "range"],
)
@pytest.mark.parametrize(
    "variant",
    [Variant.SUSDP, Variant.BSDP, Variant.HSDP, Variant.OHSDP],
    ids=lambda v: v.value,
)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_noiseless_tallies_are_honest_answers(variant, query, n, seed):
    # At epsilon = inf a level's tally is its data tokens alone: row g
    # is the answer over group g's honest users, at every level. This
    # checks the roll-up of data rows and the removal of the corrupted
    # users' units without the golden seeds.
    plan = make_plan(
        variant, make_base(query, n), n, INF, 0.01, 0.1, lam=4, k_hat=1
    )
    assert_tallies_are_honest_answers(plan, np.random.default_rng(seed))


@pytest.mark.parametrize("n", [9, 25, 36])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_noiseless_tallies_sum_any_number_of_children(n, seed):
    # bsdp's groups have sqrt(n) children: 3 and 5 are odd, and 6 halves
    # to an odd count, so the in-place roll-up of data rows folds a
    # middle child.
    query = Query(QueryKind.RANGE_TREE, 7)
    plan = make_plan(Variant.BSDP, make_base(query, n), n, INF, 0.01, 0.1)
    assert_tallies_are_honest_answers(plan, np.random.default_rng(seed))


def assert_tallies_are_honest_answers(plan, rng):
    query, n = plan.query, plan.n
    xs = rng.integers(0, query.max_input + 1, size=n)
    honest = rng.random(n) < rng.random()
    tallies, _ = plan.base.tally_levels(xs, plan.levels, rng, honest)
    assert len(tallies) == len(plan.levels)
    for lp, tally in zip(plan.levels, tallies):
        m = lp.group_size
        want = [
            np.atleast_1d(eval_query(query, xs[g : g + m][honest[g : g + m]]))
            for g in range(0, n, m)
        ]
        np.testing.assert_array_equal(tally, np.stack(want))


@pytest.mark.parametrize(
    "query",
    [Query(QueryKind.COUNT), Query(QueryKind.HISTOGRAM, 3),
     Query(QueryKind.RANGE_TREE, 7)],
    ids=["count", "hist", "range"],
)
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tally_levels_is_each_levels_data_rows_plus_noise(
    variant, query, seed
):
    # tally_levels sums each level's data rows up from the level below; a
    # loop that rebuilds every level's rows from all users, under the
    # same seed, must give the same tallies, counts and generator state.
    n = 16
    plan = make_plan(
        variant, make_base(query, n), n, 1.0, 0.01, 0.1, lam=4, k_hat=1
    )
    base = plan.base
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, query.max_input + 1, size=n)
    honest = rng.random(n) < rng.random()
    got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
    tallies, count = base.tally_levels(xs, plan.levels, got_rng, honest)
    want_count = 0
    assert len(tallies) == len(plan.levels)
    for lp, tally in zip(plan.levels, tallies):
        m = lp.group_size
        pos, neg = np.empty((2, lp.num_groups, base.bins), np.int64)
        base._noise(lp, honest, want_rng, pos, neg)
        rows = base._data_rows(xs, honest, m)
        want_count += int(pos.sum()) + int(neg.sum()) + int(rows.sum())
        assert tally.dtype == np.int64
        np.testing.assert_array_equal(tally, pos - neg + rows)
    assert count == want_count
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestAnalyze:
    def test_noiseless_exact_no_flags(self):
        xs = np.asarray([1, 0, 1, 1, 0, 1, 1, 1], dtype=np.int64)
        for plan in (
            make_plan(Variant.SUSDP, count_base(), 8, INF, 0.01, 0.1),
            make_plan(Variant.HSDP, count_base(), 8, INF, 0.01, 0.1),
            make_plan(
                Variant.OHSDP, count_base(), 8, INF, 0.01, 0.1, lam=4, k_hat=1
            ),
        ):
            out, report = run_round(plan, xs)
            assert out == 6
            assert not report.attack_detected

    def test_flood_flagged_and_recovered(self):
        # Noiseless binary tree; attacker floods node (2,1) with 100 "+1"s.
        xs = np.asarray([1, 0, 1, 1, 0, 1, 1, 1], dtype=np.int64)
        plan = make_plan(Variant.HSDP, count_base(), 8, INF, 0.01, 0.1)
        out, report = run_round(
            plan, xs, floods=[((2, 1), np.ones(100, dtype=np.int64))]
        )
        assert out == 6
        assert (2, 1) in report.flagged
        # Ancestors of (2,1) are rebuilt from children.
        assert (3, 1) in report.flagged
        assert (4, 1) in report.flagged

    def test_below_threshold_flood_bounded(self):
        # A flood of exactly theta per level passes detection; the damage
        # stays within the telescoped threshold budget.
        base = count_base()
        plan = make_plan(Variant.HSDP, base, 8, 1.0, 0.01, 0.1)
        m = plan.levels[0].theta
        floods = [
            ((lp.r, 1), np.ones(m, dtype=np.int64)) for lp in plan.levels
        ]
        xs = np.ones(8, dtype=np.int64)
        bound = 4 * sum(lp.theta for lp in plan.levels[:-1]) + plan.levels[-1].theta
        for seed in range(30):
            out, _ = run_round(plan, xs, seed=seed, floods=floods)
            assert abs(out - 8) <= bound + 1  # + gamma(Q, lam=1)

    def test_malformed_payloads_discarded(self):
        # Out-of-alphabet codes in a node's multiset are dropped before the
        # strict analyzer, as run_trial drops them at its fold.
        xs = np.asarray([1, 0, 1, 1, 0, 1, 1, 1], dtype=np.int64)
        plan = make_plan(Variant.HSDP, count_base(), 8, 1.0, 0.01, 0.1)
        flood = [((1, 3), [1, 1, 1]), ((2, 2), [-1])]
        junk = [((1, 3), [2, 0, -2]), ((4, 1), [7])]
        want = run_round(plan, xs, seed=4, floods=flood)
        got = run_round(plan, xs, seed=4, floods=flood + junk)
        assert got[0] == want[0]
        assert got[1].flagged == want[1].flagged

    def test_missing_node_is_structural_error(self):
        plan = make_plan(Variant.HSDP, count_base(), 4, 1.0, 0.01, 0.1)
        with pytest.raises(StructureError):
            analyze(plan, {})

    def test_recovery_identity(self):
        # Noiseless tree; a 50-token flood goes into bottom group (1,3).
        xs = np.asarray([1, 0, 1, 1, 0, 1, 1, 1], dtype=np.int64)
        plan = make_plan(Variant.HSDP, count_base(), 8, INF, 0.01, 0.1)
        rng = np.random.default_rng(2)
        tokens = provision(plan, rng)
        envs, _ = randomize_all(plan, xs, tokens, rng, np.ones(8, bool))
        envs.append(Envelope(int(tokens.levels[0][2]), np.ones(50, dtype=np.int64)))
        out, report, rejected = deliver(plan, tokens, envs)
        assert rejected == 0
        # The flagged bottom group recovers to zero, so user 3's bit is lost.
        assert out == 5
        assert (1, 3) in report.flagged


class TestEquivalenceAtFullWidth:
    def test_single_group_matches_raw_protocol(self):
        # lam = n collapses to one level at the full budget: the output law
        # equals the raw base protocol's (truth + the same noise law).
        n, eps = 4, 1.0
        xs = np.asarray([1, 0, 1, 1], dtype=np.int64)
        outs = {}
        for name, mk in (
            ("ohsdp", lambda b: make_plan(
                Variant.OHSDP, b, n, eps, 0.01, 0.1, lam=n, k_hat=0
            )),
            ("base", lambda b: make_plan(Variant.BASE, b, n, eps, 0.01, 0.1)),
        ):
            plan = mk(count_base())
            assert len(plan.levels) == 1
            assert plan.levels[0].budget.epsilon == eps
            outs[name] = np.asarray(
                [run_round(plan, xs, seed=s)[0] for s in range(4000)]
            )
        from scipy import stats

        hi = 6
        a = np.bincount(np.clip(outs["ohsdp"] - 3, -hi, hi) + hi, minlength=2 * hi + 1)
        b = np.bincount(np.clip(outs["base"] - 3, -hi, hi) + hi, minlength=2 * hi + 1)
        chi = stats.chisquare(a, (b + 0.5) / (b.sum() + 0.5 * len(b)) * a.sum())
        assert chi.pvalue > 0.001


class TestWorstCaseOrdering:
    @pytest.mark.parametrize("n", [1 << 10, 1 << 14])
    def test_protocol_ladder_under_matched_flood(self, n):
        # Each variant is attacked at its own largest undetected flood
        # (theta of its bottom level, at every level). The flat per-user
        # variant pays a sqrt(n) noise penalty on top; the widened-bottom
        # tree keeps both the flood ceiling and the noise smallest.
        trials = 30
        medians = {}
        for proto, lam in (("susdp", None), ("bsdp", None), ("ohsdp", n // 2)):
            cfg = ExperimentConfig(
                query="count", protocol=proto, n=n, trials=trials, seed=17,
                k=1, attack="flood", lam=lam if lam else "auto",
            )
            from shuffleguard.harness import build_plan, experiment_dataset

            plan = build_plan(cfg)
            cfg = ExperimentConfig(
                **{**cfg.__dict__, "attack_msgs": plan.levels[0].theta}
            )
            ds = experiment_dataset(cfg)
            errs = [
                run_trial(cfg, t, plan=plan, dataset=ds).abs_error
                for t in range(trials)
            ]
            medians[proto] = statistics.median(errs)
        assert medians["susdp"] > medians["bsdp"] > medians["ohsdp"]


class TestFalsePositives:
    def test_no_attack_rarely_flags(self):
        cfg = ExperimentConfig(
            query="count", protocol="hsdp", n=1 << 10, trials=1, seed=23
        )
        from shuffleguard.harness import build_plan, experiment_dataset

        plan = build_plan(cfg)
        ds = experiment_dataset(cfg)
        runs = 100
        flagged = sum(
            run_trial(cfg, t, plan=plan, dataset=ds).detected
            for t in range(runs)
        )
        assert flagged / runs <= 0.1 + 0.05
