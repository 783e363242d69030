"""Base protocol randomizers, analyzers, and cost descriptors."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from shuffleguard.defense import Variant, make_plan
from shuffleguard.errors import ParameterError, ProtocolError
from shuffleguard.noise import BLOCK, dlap_threshold, noise_base
from shuffleguard.protocols import (
    CountProtocol,
    SumProtocol,
    PrivacyBudget,
    _skip_integers,
    make_base,
    unit_counts,
)
from shuffleguard.queries import Query, QueryKind, bins_of, eval_query

INF = math.inf


def count_proto():
    return CountProtocol(Query(QueryKind.COUNT))


def sum_proto(u=10, n=100):
    return SumProtocol(Query(QueryKind.SUM, u), n)


def hist_proto(u=3):
    return make_base(Query(QueryKind.HISTOGRAM, u), 1)


def level(proto, eps, m):
    """The level of groups of m users at budget eps, as ``make_plan``
    builds it: the one level of the base variant over m users."""
    return make_plan(Variant.BASE, proto, m, eps, 0.0, 0.1).levels[0]


class TestBudget:
    def test_valid(self):
        PrivacyBudget(1.0, 0.0, 0.1)

    @pytest.mark.parametrize(
        "eps,delta,beta",
        [(0.0, 0.0, 0.1), (1.0, 1.0, 0.1), (1.0, -0.1, 0.1),
         (1.0, 0.0, 0.0), (1.0, 0.0, 1.0)],
    )
    def test_invalid(self, eps, delta, beta):
        with pytest.raises(ParameterError):
            PrivacyBudget(eps, delta, beta)


class TestCount:
    def test_noiseless_one(self):
        rng = np.random.default_rng(0)
        proto = count_proto()
        out = proto.randomize(1, level(proto, INF, 1), rng)
        np.testing.assert_array_equal(out, [1])

    def test_noiseless_zero(self):
        rng = np.random.default_rng(0)
        proto = count_proto()
        assert proto.randomize(0, level(proto, INF, 1), rng).size == 0

    def test_analyze(self):
        p = count_proto()
        assert p.analyze(np.asarray([1, 1, -1])) == 1
        assert p.analyze(np.zeros(0, dtype=np.int64)) == 0

    def test_analyze_rejects_foreign(self):
        with pytest.raises(ProtocolError):
            count_proto().analyze(np.asarray([1, 3]))

    def test_group_noise_is_dlap(self):
        # Group aggregate minus the true count follows DLap(e^-1).
        proto = count_proto()
        p = math.exp(-1.0)
        rng = np.random.default_rng(42)
        xs = np.asarray([1, 0, 1, 1], dtype=np.int64)
        errs = []
        lp = level(proto, 1.0, 4)
        for _ in range(20_000):
            groups, _ = proto.randomize_level(
                xs, lp, rng, np.ones(xs.size, bool)
            )
            errs.append(proto.analyze(groups[0]) - 3)
        errs = np.asarray(errs)
        hi = 6
        clipped = np.clip(errs, -hi, hi)
        observed = np.bincount(clipped + hi, minlength=2 * hi + 1)
        probs = np.array(
            [(1 - p) / (1 + p) * p ** abs(z) for z in range(-hi, hi + 1)]
        )
        probs[0] = p**hi / (1 + p)  # tails folded into the clip bins
        probs[-1] = p**hi / (1 + p)
        chi = stats.chisquare(observed, probs / probs.sum() * errs.size)
        assert chi.pvalue > 0.01

    def test_per_user_vs_group_total_same_law(self):
        # One NB(h/m, p) draw vs the sum of h NB(1/m, p) draws.
        p = math.exp(-0.5)
        rng = np.random.default_rng(7)
        grouped = nb = None
        from shuffleguard.noise import nb_sample

        grouped = nb_sample(
            np.full(20_000, 3 / 4), p, rng, out=np.empty(20_000, np.int64)
        )
        summed = nb_sample(
            1 / 4, p, rng, out=np.empty((20_000, 3), np.int64)
        ).sum(axis=1)
        hi = 8
        obs_a = np.bincount(np.minimum(grouped, hi), minlength=hi + 1)
        obs_b = np.bincount(np.minimum(summed, hi), minlength=hi + 1)
        chi = stats.chisquare(obs_a, (obs_b + 0.5) / (obs_b.sum() + 0.5 * (hi + 1)) * obs_a.sum())
        assert chi.pvalue > 0.001


class TestSum:
    def test_shares_sum_to_value(self):
        proto = sum_proto()
        rng = np.random.default_rng(0)
        for x in (0, 5):
            shares = proto.randomize(x, level(proto, INF, 1), rng)
            assert shares.size == proto.shares
            assert int(shares.sum()) % proto.modulus == x

    def test_modulus_size(self):
        proto = sum_proto(u=10, n=100)
        assert proto.modulus > 4 * 100 * 10
        assert proto.modulus & (proto.modulus - 1) == 0

    def test_analyze_recenters(self):
        proto = sum_proto()
        q = proto.modulus
        assert proto.analyze(np.asarray([q - 3])) == -3
        assert proto.analyze(np.zeros(0, dtype=np.int64)) == 0

    def test_analyze_rejects_foreign(self):
        with pytest.raises(ProtocolError):
            sum_proto().analyze(np.asarray([-1]))

    def test_exact_noiseless_aggregation(self):
        rng = np.random.default_rng(3)
        for n in (1, 7, 100):
            proto = sum_proto(u=10, n=n)
            xs = rng.integers(0, 11, size=n)
            groups, total = proto.randomize_level(
                xs, level(proto, INF, n), rng, np.ones(xs.size, bool)
            )
            assert total == n * proto.shares
            assert proto.analyze(groups[0]) == xs.sum()

    def test_group_noise_is_dlap(self):
        proto = sum_proto(u=4, n=8)
        eps = 2.0
        p = math.exp(-eps / 4)
        rng = np.random.default_rng(11)
        xs = np.asarray([4, 0, 2, 1], dtype=np.int64)
        errs = []
        lp = level(proto, eps, 4)
        for _ in range(20_000):
            groups, _ = proto.randomize_level(
                xs, lp, rng, np.ones(xs.size, bool)
            )
            errs.append(proto.analyze(groups[0]) - 7)
        errs = np.asarray(errs)
        hi = 10
        clipped = np.clip(errs, -hi, hi)
        observed = np.bincount(clipped + hi, minlength=2 * hi + 1)
        probs = np.array(
            [(1 - p) / (1 + p) * p ** abs(z) for z in range(-hi, hi + 1)]
        )
        probs[0] = p**hi / (1 + p)
        probs[-1] = p**hi / (1 + p)
        chi = stats.chisquare(observed, probs / probs.sum() * errs.size)
        assert chi.pvalue > 0.01


class TestHist:
    def test_noiseless(self):
        rng = np.random.default_rng(0)
        proto = hist_proto()
        out = proto.randomize(2, level(proto, INF, 1), rng)
        np.testing.assert_array_equal(out, [3])  # code bin+1

    def test_analyze(self):
        proto = hist_proto(u=1)
        np.testing.assert_array_equal(
            proto.analyze(np.asarray([1, 1, -2])), [2, -1]
        )
        np.testing.assert_array_equal(
            proto.analyze(np.zeros(0, dtype=np.int64)), [0, 0]
        )

    def test_out_of_domain_dropped_and_tallied(self):
        # fold leaves codes outside the bins out and counts them; the
        # strict analyzer refuses them.
        proto = hist_proto(u=1)
        payloads = np.asarray([1, 5, -9])
        row, malformed = proto.fold(payloads, unit_counts(payloads))
        np.testing.assert_array_equal(row, [1, 0])
        assert malformed == 2
        with pytest.raises(ProtocolError):
            proto.analyze(payloads)

    def test_degenerate_u0_counts_bin0(self):
        proto = hist_proto(u=0)
        rng = np.random.default_rng(0)
        out = proto.randomize(0, level(proto, INF, 1), rng)
        np.testing.assert_array_equal(out, [1])

    def test_per_bin_error_bound_holds(self):
        proto = hist_proto(u=3)
        eps, beta = 1.0, 0.1
        _, theta = proto.law(eps, beta)
        lp = level(proto, eps, 6)
        rng = np.random.default_rng(9)
        xs = np.asarray([0, 1, 2, 3, 3, 3], dtype=np.int64)
        truth = eval_query(proto.query, xs)
        bad = 0
        trials = 2000
        for _ in range(trials):
            groups, _ = proto.randomize_level(
                xs, lp, rng, np.ones(xs.size, bool)
            )
            err = np.max(np.abs(proto.analyze(groups[0]) - truth))
            bad += err > theta
        assert bad / trials <= 1.5 * beta


class TestRangeTree:
    def test_noiseless_codes(self):
        q = Query(QueryKind.RANGE_TREE, 3)
        proto = make_base(q, 1)
        rng = np.random.default_rng(0)
        out = proto.randomize(3, level(proto, INF, 1), rng)
        # bins: level0 offset 0 (bin 3), level1 offset 4 (bin 1), root offset 6
        np.testing.assert_array_equal(out, [4, 6, 7])

    def test_analyze_matches_eval(self):
        q = Query(QueryKind.RANGE_TREE, 3)
        proto = make_base(q, 4)
        rng = np.random.default_rng(1)
        xs = np.asarray([0, 1, 3, 3], dtype=np.int64)
        groups, _ = proto.randomize_level(
            xs, level(proto, INF, 4), rng, np.ones(xs.size, bool)
        )
        np.testing.assert_array_equal(
            proto.analyze(groups[0]), eval_query(q, xs)
        )


def range_proto(u=3):
    return make_base(Query(QueryKind.RANGE_TREE, u), 1)


def _token_codes(proto):
    """Nonzero bin codes, about half of them beyond the last bin."""
    return st.integers(-2 * proto.bins, 2 * proto.bins).filter(bool)


@pytest.mark.parametrize(
    "proto,codes",
    [
        (count_proto(), lambda p: st.sampled_from([1, -1])),
        (sum_proto(), lambda p: st.integers(0, p.modulus - 1)),
        (hist_proto(), _token_codes),
        (range_proto(), _token_codes),
    ],
    ids=["count", "sum", "hist", "range"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_analyze_ignores_order(proto, codes, data):
    # A shuffler releases its multiset unpermuted; that is only sound
    # because every analyzer is a symmetric fold over the multiset.
    payloads = data.draw(st.lists(codes(proto), max_size=40))
    shuffled = data.draw(st.permutations(payloads))
    shuffled = np.asarray(shuffled, dtype=np.int64)
    payloads = np.asarray(payloads, dtype=np.int64)
    row, malformed = proto.fold(shuffled, unit_counts(shuffled))
    want_row, want_malformed = proto.fold(payloads, unit_counts(payloads))
    np.testing.assert_array_equal(row, want_row)
    assert malformed == want_malformed


def _in_alphabet(proto, payloads):
    """The alphabet of each protocol, written out independently."""
    if isinstance(proto, CountProtocol):
        return np.abs(payloads) == 1
    if isinstance(proto, SumProtocol):
        return (payloads >= 0) & (payloads < proto.modulus)
    return (payloads != 0) & (payloads >= -proto.bins) & (payloads <= proto.bins)


def _edge_of_alphabet(proto):
    """int64 payloads, many of them at or next to the alphabet's edges."""
    top = proto.modulus if isinstance(proto, SumProtocol) else proto.bins
    return st.one_of(
        st.integers(-(2**63), 2**63 - 1),
        st.integers(-top - 2, top + 2),
        st.sampled_from(
            [-(2**63), -top - 1, -top, -1, 0, 1, top - 1, top, 2**63 - 1]
        ),
    )


@pytest.mark.parametrize(
    "proto",
    [count_proto(), sum_proto(), hist_proto(), range_proto()],
    ids=["count", "sum", "hist", "range"],
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fold_leaves_out_and_counts_malformed(proto, data):
    # Any int64 payloads: fold is the fold of the in-alphabet ones plus
    # the count of the rest, and the strict analyzer raises exactly when
    # that count is nonzero.
    payloads = np.asarray(
        data.draw(st.lists(_edge_of_alphabet(proto), max_size=40)),
        dtype=np.int64,
    )
    ok = _in_alphabet(proto, payloads)
    row, malformed = proto.fold(payloads, unit_counts(payloads))
    kept = payloads[ok]
    want_row, kept_malformed = proto.fold(kept, unit_counts(kept))
    assert row.dtype == np.int64 and row.shape == (proto.query.num_bins,)
    np.testing.assert_array_equal(row, want_row)
    assert kept_malformed == 0
    assert malformed == np.count_nonzero(~ok)
    if malformed:
        with pytest.raises(ProtocolError):
            proto.analyze(payloads)
    else:
        np.testing.assert_array_equal(proto.analyze(payloads), proto.finish(row))


@pytest.mark.parametrize(
    "proto",
    [count_proto(), sum_proto(), hist_proto(), range_proto()],
    ids=["count", "sum", "hist", "range"],
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fold_of_a_multiset_is_the_fold_of_its_repeat(proto, data):
    # A payload multiset (codes, counts), zero counts and codes outside
    # the alphabet included, folds as its messages do, each counted once.
    pairs = data.draw(st.lists(
        st.tuples(_edge_of_alphabet(proto), st.integers(0, 5)), max_size=20
    ))
    codes = np.array([c for c, _ in pairs], dtype=np.int64)
    counts = np.array([k for _, k in pairs], dtype=np.int64)
    row, malformed = proto.fold(codes, counts)
    msgs = np.repeat(codes, counts)
    want_row, want_malformed = proto.fold(msgs, unit_counts(msgs))
    assert row.dtype == np.int64 and row.shape == (proto.query.num_bins,)
    np.testing.assert_array_equal(row, want_row)
    assert malformed == want_malformed


@pytest.mark.parametrize(
    "proto",
    [count_proto(), sum_proto(), hist_proto(), range_proto()],
    ids=["count", "sum", "hist", "range"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fold_of_large_counts_is_exact(proto, data):
    # Counts too large to repeat, summing to under 2^62, against the
    # fold written out in Python integers.
    pairs = data.draw(st.lists(
        st.tuples(
            _edge_of_alphabet(proto),
            st.one_of(st.integers(0, (1 << 62) // 20), st.just(1 << 40)),
        ),
        max_size=20,
    ))
    codes = np.array([c for c, _ in pairs], dtype=np.int64)
    counts = np.array([k for _, k in pairs], dtype=np.int64)
    ok = _in_alphabet(proto, codes)
    want_malformed = sum(k for (_, k), good in zip(pairs, ok) if not good)
    if isinstance(proto, SumProtocol):
        total = sum(c * k for (c, k), good in zip(pairs, ok) if good)
        want_row = [total % proto.modulus]
    else:
        want_row = [0] * proto.bins
        for (c, k), good in zip(pairs, ok):
            if good:
                want_row[abs(c) - 1] += k if c > 0 else -k
    row, malformed = proto.fold(codes, counts)
    assert row.tolist() == want_row
    assert malformed == want_malformed


def test_sum_tally_levels_draw_into_two_buffers(monkeypatch):
    # Every level of the sum tally covers the same honest users, so every
    # level's positive and negative shares are drawn into the same two
    # buffers: no per-user array is allocated per level.
    from shuffleguard import protocols

    outs = []
    draw = protocols.nb_sample

    def spy(*args, **kwargs):
        outs.append(kwargs.get("out"))
        return draw(*args, **kwargs)

    monkeypatch.setattr(protocols, "nb_sample", spy)
    n = 4096
    proto = sum_proto(u=255, n=n)
    xs = np.arange(n, dtype=np.int64) % 256
    honest = np.arange(n) % 7 > 0
    levels = [
        level(proto, eps, m)
        for eps, m in [(1.0, 64), (0.5, 128), (2.0, 1024), (1.0, n)]
    ]
    proto.tally_levels(xs, levels, np.random.default_rng(0), honest)
    assert len(outs) == 2 * len(levels)
    pos, neg = outs[:2]
    assert pos is not None and neg is not None
    assert all(out is pos for out in outs[0::2])
    assert all(out is neg for out in outs[1::2])
    assert pos.size == neg.size == honest.sum()
    assert not np.shares_memory(pos, neg)


def test_token_tally_levels_draw_into_one_block():
    # Every level of a token tally is drawn into one block, not into
    # noise arrays of its own: each level's tally is rows of the block
    # that holds the bottom tally, and no two tallies overlap.
    n = 16
    plan = make_plan(Variant.HSDP, range_proto(u=15), n, 1.0, 0.01, 0.1)
    xs = np.arange(n, dtype=np.int64)
    honest = np.arange(n) != 5  # one corrupted user
    tallies, _ = plan.base.tally_levels(
        xs, plan.levels, np.random.default_rng(0), honest
    )
    assert len(tallies) == len(plan.levels) == 5
    block = tallies[0].base
    assert block is not None
    for i, tally in enumerate(tallies):
        assert np.shares_memory(tally, block)
        for other in tallies[i + 1 :]:
            assert not np.shares_memory(tally, other)


@pytest.mark.parametrize(
    "proto",
    [count_proto(), sum_proto(), hist_proto(), range_proto()],
    ids=["count", "sum", "hist", "range"],
)
@settings(max_examples=30, deadline=None)
@given(
    log_m=st.integers(0, 4),
    groups=st.integers(1, 6),
    eps=st.sampled_from([0.5, 2.0, INF]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_tally_level_is_randomize_level_analyzed(
    proto, log_m, groups, eps, seed, data
):
    # One draw, two forms: finish(tally) row g is analyze of group g's
    # payloads, with the same message count and the same RNG use after.
    m = 1 << log_m
    n = m * groups
    xs = np.asarray(
        data.draw(st.lists(st.integers(0, proto.query.max_input),
                           min_size=n, max_size=n)),
        dtype=np.int64,
    )
    honest = np.asarray(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    )
    lp = level(proto, eps, m)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    payloads, msgs = proto.randomize_level(xs, lp, rng_a, honest=honest)
    (tally,), tally_msgs = proto.tally_levels(xs, [lp], rng_b, honest=honest)
    assert tally.dtype == np.int64
    assert tally.shape == (groups, proto.query.num_bins)
    assert tally_msgs == msgs == sum(p.size for p in payloads)
    want = np.array([proto.analyze(p) for p in payloads]).reshape(tally.shape)
    np.testing.assert_array_equal(proto.finish(tally), want)
    # The whole state, buffered 32-bit half included: the sum tally skips
    # the residues that randomize_level draws.
    assert rng_b.bit_generator.state == rng_a.bit_generator.state


@pytest.mark.parametrize("m", [1, 16, 512])
def test_all_honest_token_noise_is_one_fill_per_sign(m):
    # Every share of an all-honest level is 1: the run search finds one
    # run over the (groups, bins) draws, one exponential fill per sign,
    # whose means the Poisson draws then overwrite block by block.
    class Spy:
        def __init__(self, rng):
            self.rng, self.calls = rng, []

        def __getattr__(self, name):
            method = getattr(self.rng, name)

            def call(*args, **kwargs):
                self.calls.append(name)
                return method(*args, **kwargs)

            return call

    proto = range_proto(u=15)
    spy = Spy(np.random.default_rng(m))
    pos, neg = np.empty((2, 2048 // m, proto.bins), np.int64)
    proto._noise(level(proto, 1.0, m), np.ones(2048, bool), spy, pos, neg)
    blocks = -(-pos.size // BLOCK)
    assert spy.calls == (["standard_exponential"] + ["poisson"] * blocks) * 2


def test_sum_tally_exact_at_largest_modulus():
    # The sum workload of the benchmark (U = 255, n = 2**16) has the
    # largest modulus of the golden and benchmark configs: q = 2**26.
    proto = sum_proto(u=255, n=1 << 16)
    q = proto.modulus
    assert q == 1 << 26
    xs = np.zeros(4096, dtype=np.int64)
    honest = np.ones(xs.size, bool)
    lp = level(proto, 1.0, 1024)
    payloads, _ = proto.randomize_level(
        xs, lp, np.random.default_rng(3), honest
    )
    (tally,), _ = proto.tally_levels(
        xs, [lp], np.random.default_rng(3), honest
    )
    # A user with negative noise wraps to a residue near q, so a row
    # only matches after reduction mod q.
    assert (tally >= q).any()
    # Fold a residue-heavy envelope into group 0 the way run_trial does:
    # its fold row is added to the row.
    envelope = np.full(5000, q - 1, dtype=np.int64)
    tally[0] += proto.fold(envelope, unit_counts(envelope))[0]
    payloads[0] = np.concatenate([payloads[0], envelope])
    assert proto.finish(tally)[:, 0].tolist() == [
        proto.analyze(p) for p in payloads
    ]


@settings(max_examples=300, deadline=None)
@given(
    j=st.integers(3, 62),
    count=st.integers(0, 2000),
    buffered=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_skip_integers_moves_the_generator_as_the_draw_does(
    j, count, buffered, seed
):
    drawn, skipped = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        # A 32-bit draw leaves the other half of its output buffered.
        drawn.integers(0, 2**20)
        skipped.integers(0, 2**20)
        assert skipped.bit_generator.state["has_uint32"] == 1
    drawn.integers(0, 1 << j, size=count)
    _skip_integers(skipped, 1 << j, count)
    assert skipped.bit_generator.state == drawn.bit_generator.state


def test_skip_integers_draws_on_other_bit_generators():
    drawn = np.random.Generator(np.random.MT19937(5))
    skipped = np.random.Generator(np.random.MT19937(5))
    drawn.integers(0, 1 << 10, size=7)
    _skip_integers(skipped, 1 << 10, 7)
    np.testing.assert_equal(skipped.bit_generator.state, drawn.bit_generator.state)


def test_sum_tally_level_holds_at_most_four_user_arrays():
    # The residues are skipped and the groups summed without prefix
    # arrays, so a level holds no more than a few int64 per user.
    n, m = 1 << 16, 512
    proto = sum_proto(u=255, n=n)
    xs = np.full(n, 255, dtype=np.int64)
    honest = np.ones(n, bool)
    rng = np.random.default_rng(0)
    levels = [level(proto, 1.0, m)]
    tracemalloc.start()
    try:
        proto.tally_levels(xs, levels, rng, honest)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * n


@pytest.mark.parametrize(
    "proto,levels",
    [(sum_proto(u=255, n=1 << 16), [(1.0, 512), (1.0, 1024), (1.0, 1 << 16)]),
     (range_proto(u=15), [(1.0, 1), (1.0, 2), (1.0, 4)])],
    ids=["sum", "range"],
)
def test_tally_levels_peak_is_the_bottom_levels(proto, levels):
    # A level's draw arrays are freed before the next level's draw, so
    # drawing more levels adds to the bottom level's peak no more than
    # the second level's tally (and, for tokens, its summed data rows),
    # give or take small arrays: far less than one more int64 per user.
    n = 1 << 16
    xs = np.full(n, proto.query.max_input, dtype=np.int64)
    honest = np.ones(n, bool)
    levels = [level(proto, eps, m) for eps, m in levels]
    peaks = []
    for drawn in (levels[:1], levels[:1], levels):
        tracemalloc.start()
        try:
            proto.tally_levels(xs, drawn, np.random.default_rng(0), honest)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    second = 8 * n // levels[1].group_size * proto.query.num_bins
    assert peaks[2] <= peaks[1] + second + n


@pytest.mark.parametrize(
    "code",
    [-(2**63), -1, "q", 2**63 - 1],
    ids=["int64-min", "minus-one", "q", "int64-max"],
)
def test_sum_fold_counts_codes_outside_zero_to_q_malformed(code):
    proto = sum_proto(u=255, n=1 << 16)
    q = proto.modulus
    code = q if code == "q" else code
    payloads = np.array([5, code, q - 1, code], dtype=np.int64)
    row, malformed = proto.fold(payloads, unit_counts(payloads))
    assert row.tolist() == [4] and malformed == 2
    # A flood is one code with a count, as Flood sends it.
    flood = np.array([1 << 16], dtype=np.int64)
    row, malformed = proto.fold(np.array([code], dtype=np.int64), flood)
    assert row.tolist() == [0] and malformed == 1 << 16
    row, malformed = proto.fold(proto.top, flood)
    assert row.tolist() == [(255 << 16) % q] and malformed == 0


class TestDescriptors:
    def test_count_threshold(self):
        assert count_proto().law(1.0, 0.1)[1] == 3

    def test_sum_threshold_wide_sensitivity(self):
        # Exact tail quantile at p = e^{-1/10}: the smallest t with
        # 2 p^t/(1+p) <= 0.1 is 24.
        assert sum_proto(u=10).law(1.0, 0.1)[1] == 24

    def test_hist_threshold_union_bound(self):
        proto = hist_proto(u=9)
        p = noise_base(1.0, 1)
        assert proto.law(1.0, 0.1) == (p, dlap_threshold(p, 0.01))

    def test_sum_msgs_and_bits(self):
        # Every honest user sends exactly its 3 shares.
        proto = sum_proto()
        xs = np.arange(12, dtype=np.int64) % 11
        honest = np.arange(12) % 3 > 0
        _, total = proto.tally_levels(
            xs, [level(proto, 1.0, 4)], np.random.default_rng(5), honest
        )
        assert total == 3 * honest.sum()
        assert proto.bits_per_msg() == math.ceil(math.log2(proto.modulus))

    def test_count_bits(self):
        assert count_proto().bits_per_msg() == 2

    def test_hist_bits(self):
        assert hist_proto(u=3).bits_per_msg() == 3  # ceil(log2 4) + sign

    def test_empirical_msgs_match_formula(self):
        # A user holding the largest input sends its data tokens plus, per
        # bin and sign, NB(1/m, p) noise tokens of mean p / (m (1 - p)).
        eps, m, n = 1.0, 4, 10_000
        honest = np.ones(n, bool)
        for proto, data_tokens in (
            (count_proto(), 1), (hist_proto(u=3), 1), (range_proto(u=3), 3),
        ):
            p = math.exp(-eps / data_tokens)
            xs = np.full(n, proto.query.max_input, dtype=np.int64)
            _, total = proto.tally_levels(
                xs, [level(proto, eps, m)], np.random.default_rng(5), honest
            )
            expect = data_tokens + 2 * proto.bins * p / (m * (1 - p))
            assert total / n == pytest.approx(expect, rel=0.05)

    def test_unbiased_estimates(self):
        rng = np.random.default_rng(6)
        proto = count_proto()
        xs = np.asarray([1, 1, 0, 1], dtype=np.int64)
        lp = level(proto, 1.0, 4)
        errs = []
        for _ in range(10_000):
            groups, _ = proto.randomize_level(
                xs, lp, rng, np.ones(xs.size, bool)
            )
            errs.append(proto.analyze(groups[0]) - 3)
        errs = np.asarray(errs, dtype=float)
        sem = errs.std() / math.sqrt(errs.size)
        assert abs(errs.mean()) <= 3 * sem


_EPS = st.floats(0.05, 20.0)
_BETA = st.floats(1e-9, 0.99)
_U = st.integers(0, 64)


@settings(max_examples=100, deadline=None)
@given(eps=_EPS, b1=_BETA, b2=_BETA, u=_U)
def test_error_bound_non_increasing_in_beta(eps, b1, b2, u):
    lo, hi = sorted((b1, b2))
    for proto in (
        count_proto(), sum_proto(u=max(u, 1)), hist_proto(u), range_proto(u)
    ):
        assert proto.law(eps, hi)[1] <= proto.law(eps, lo)[1]


@settings(max_examples=100, deadline=None)
@given(eps=_EPS, beta=_BETA, u=_U)
def test_token_descriptors_match_closed_forms(eps, beta, u):
    # Count, hist and range share one set of descriptors; each must equal
    # the protocol's own closed form exactly.
    p = math.exp(-eps)
    assert count_proto().law(eps, beta) == (p, dlap_threshold(p, beta))

    hist = hist_proto(u)
    assert hist.law(eps, beta) == (p, dlap_threshold(p, beta / (u + 1)))

    tree = range_proto(u)
    levels = len(tree.query.tree_levels)
    p = math.exp(-eps / levels)
    assert tree.law(eps, beta) == (
        p, levels * dlap_threshold(p, beta / tree.bins)
    )


@settings(max_examples=50, deadline=None)
@given(
    kind=st.sampled_from(
        [QueryKind.COUNT, QueryKind.HISTOGRAM, QueryKind.RANGE_TREE]
    ),
    u=_U,
)
def test_per_user_is_most_units_of_any_input(kind, u):
    # The token budget is split over the most data tokens a user sends.
    query = Query(kind, u)
    values = np.arange(query.max_input + 1)
    owner, _ = bins_of(query, values)
    units = np.bincount(owner, minlength=values.size)
    assert make_base(query, 1).per_user == units.max()


class TestFactory:
    def test_defaults(self):
        assert type(make_base(Query(QueryKind.COUNT), 10)) is CountProtocol
        assert type(make_base(Query(QueryKind.SUM, 5), 10)) is SumProtocol
        hist = make_base(Query(QueryKind.HISTOGRAM, 5), 10)
        assert (hist.bins, hist.per_user) == (6, 1)
        tree = make_base(Query(QueryKind.RANGE_TREE, 5), 10)
        assert (tree.bins, tree.per_user) == (15, 4)
