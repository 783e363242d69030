"""Query evaluation, range geometry, and distance-to-range."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shuffleguard.errors import DomainError, ShapeError
from shuffleguard.queries import (
    Dataset,
    Query,
    QueryKind,
    _hist_dis,
    bins_of,
    dis_to_range,
    eval_query,
    within_range,
)

COUNT = Query(QueryKind.COUNT)


def hist(u):
    return Query(QueryKind.HISTOGRAM, u)


def tree(u):
    return Query(QueryKind.RANGE_TREE, u)


def sum_q(u):
    return Query(QueryKind.SUM, u)


class TestEval:
    def test_count(self):
        assert eval_query(COUNT, np.asarray([1, 0, 1])) == 2

    def test_sum_empty(self):
        assert eval_query(sum_q(10), np.zeros(0, dtype=np.int64)) == 0

    def test_hist_tally(self):
        np.testing.assert_array_equal(
            eval_query(hist(3), np.asarray([0, 3, 3])), [1, 0, 0, 2]
        )

    def test_tree_levels_consistent(self):
        q = tree(3)
        v = eval_query(q, np.asarray([0, 1, 3, 3]))
        # levels: singletons, pairs, whole domain
        np.testing.assert_array_equal(v, [1, 1, 0, 2, 2, 2, 4])

    def test_out_of_domain_names_index(self):
        with pytest.raises(DomainError, match="index 1"):
            eval_query(COUNT, np.asarray([0, 2, 1]))

    def test_dataset_wrapper(self):
        d = Dataset(np.asarray([1, 1, 0]))
        assert d.values.size == 3
        assert eval_query(COUNT, d.values) == 2


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 3), max_size=30),
    st.data(),
)
def test_union_preserving(values, data):
    cut = data.draw(st.integers(0, len(values)))
    values = np.asarray(values, dtype=np.int64)
    for q in (sum_q(3), hist(3), tree(3)):
        total = eval_query(q, values)
        left = eval_query(q, values[:cut])
        right = eval_query(q, values[cut:])
        assert np.all(total == left + right)


def _units(q, x):
    """The bins one value raises, one entry per unit, with the dyadic range
    tree (singletons up to the root over {0..U}, padded to a power of
    two) written out independently of ``tree_levels``."""
    if q.kind is QueryKind.COUNT:
        return [0] * x
    if q.kind is QueryKind.HISTOGRAM:
        return [x]
    width = 1
    while width < q.domain_size + 1:
        width *= 2
    units, offset, length = [], 0, 1
    while width >= 1:
        units.append(offset + x // length)
        offset, width, length = offset + width, width // 2, length * 2
    return units


@settings(max_examples=300, deadline=None)
@given(
    q=st.builds(
        Query,
        st.sampled_from(
            [QueryKind.COUNT, QueryKind.HISTOGRAM, QueryKind.RANGE_TREE]
        ),
        st.integers(0, 40),
    ),
    data=st.data(),
)
def test_bins_of_matches_per_value_oracle(q, data):
    values = np.asarray(
        data.draw(st.lists(st.integers(0, q.max_input), max_size=30)),
        dtype=np.int64,
    )
    owner, bins = bins_of(q, values)
    oracle = [_units(q, int(x)) for x in values]
    want = np.zeros(q.num_bins, dtype=np.int64)
    for units in oracle:
        for b in units:
            want[b] += 1
    np.testing.assert_array_equal(np.bincount(bins, minlength=q.num_bins), want)
    if q.kind is QueryKind.COUNT:
        per_owner = values
    else:
        per_owner = len(q.tree_levels) if q.kind is QueryKind.RANGE_TREE else 1
    np.testing.assert_array_equal(
        np.bincount(owner, minlength=values.size),
        np.broadcast_to(per_owner, values.shape),
    )
    # Each unit belongs to the value that raised it.
    for i, units in enumerate(oracle):
        assert sorted(bins[owner == i].tolist()) == sorted(units)


def test_hist_is_the_range_trees_one_level():
    for u in range(41):
        assert hist(u).tree_levels == ((0, u + 1, 0),)


@pytest.mark.parametrize("q", [COUNT, sum_q(4)])
def test_scalar_answers_have_no_tree_levels(q):
    with pytest.raises(ShapeError, match="not tallies of bins"):
        q.tree_levels


@settings(max_examples=200, deadline=None)
@given(u=st.integers(0, 40), data=st.data())
def test_hist_bins_are_the_values(u, data):
    values = np.asarray(
        data.draw(st.lists(st.integers(0, u), max_size=30)), dtype=np.int64
    )
    owner, bins = bins_of(hist(u), values)
    np.testing.assert_array_equal(owner, np.arange(values.size))
    np.testing.assert_array_equal(bins, values)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 41).flatmap(
        lambda w: st.lists(
            st.lists(st.integers(-100, 100), min_size=w, max_size=w),
            min_size=1, max_size=5,
        )
    ),
    n=st.integers(0, 64),
)
def test_hist_dis_to_range_is_hist_dis(rows, n):
    rows = np.asarray(rows, dtype=np.int64)
    np.testing.assert_array_equal(
        dis_to_range(hist(rows.shape[1] - 1), n, rows), _hist_dis(rows, n)
    )


def test_union_preserving_random_splits_count():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 2, size=50)
    for _ in range(1000):
        mask = rng.integers(0, 2, size=50).astype(bool)
        assert eval_query(COUNT, values) == eval_query(
            COUNT, values[mask]
        ) + eval_query(COUNT, values[~mask])


class TestDisToRange:
    def test_count_above(self):
        assert dis_to_range(COUNT, 4, np.asarray([[5]])).tolist() == [1]

    def test_count_inside(self):
        assert dis_to_range(COUNT, 4, np.asarray([[2]])).tolist() == [0]

    def test_count_negative(self):
        assert dis_to_range(COUNT, 4, np.asarray([[-3]])).tolist() == [3]

    def test_hist_example(self):
        assert dis_to_range(hist(2), 2, np.asarray([[5, 0, 0]])).tolist() == [3]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dis_to_range(hist(2), 2, np.asarray([1, 2]))
        with pytest.raises(ShapeError):
            dis_to_range(hist(2), 2, np.asarray([1, 2, 3]))
        with pytest.raises(ShapeError):
            dis_to_range(hist(2), 2, np.zeros((4, 2), dtype=np.int64))

    def test_zero_on_every_dataset(self):
        rng = np.random.default_rng(1)
        stack_rng = np.random.default_rng(2)
        for q in (COUNT, sum_q(4), hist(4), tree(4)):
            for n in (0, 1, 5, 20):
                d = rng.integers(0, q.max_input + 1, size=n)
                v = np.reshape(eval_query(q, d), (1, -1))
                dis = dis_to_range(q, n, v)
                assert dis.dtype == np.int64 and dis.tolist() == [0]
            # The answers of six size-5 datasets as one stack, one per row.
            datasets = stack_rng.integers(0, q.max_input + 1, size=(6, 5))
            stack = np.asarray([np.reshape(eval_query(q, d), -1) for d in datasets])
            np.testing.assert_array_equal(dis_to_range(q, 5, stack), 0)

    @pytest.mark.parametrize("u", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_hist_matches_bruteforce(self, n, u):
        q = hist(u)
        attainable = [
            np.asarray(eval_query(q, np.asarray(vals, dtype=np.int64)))
            for vals in itertools.combinations_with_replacement(range(u + 1), n)
        ]
        rng = np.random.default_rng(n * 10 + u)
        rows = [rng.integers(-3, n + 3, size=u + 1) for _ in range(25)]
        oracles = []
        for v in rows:
            oracle = min(
                np.max(np.abs(v - y)) for y in attainable
            )
            assert dis_to_range(q, n, v[None]).tolist() == [oracle]
            oracles.append(oracle)
        np.testing.assert_array_equal(
            dis_to_range(q, n, np.asarray(rows)), oracles
        )


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 40).flatmap(
        lambda w: st.lists(
            st.lists(st.integers(-1000, 1000), min_size=w, max_size=w),
            min_size=1, max_size=5,
        )
    ),
    n=st.integers(0, 64),
)
def test_hist_dis_is_least_feasible_t(rows, n):
    # t is feasible iff every coordinate has a nonnegative value within t
    # and the totals reachable within t bracket n; scan t = 0, 1, ...
    rows = np.asarray(rows, dtype=np.int64)
    t = np.arange(np.abs(rows).max() + n + 1)[:, None, None]
    feasible = (
        (rows.min(axis=1) + t[:, :, 0] >= 0)
        & (np.maximum(rows - t, 0).sum(axis=2) <= n)
        & (np.maximum(rows + t, 0).sum(axis=2) >= n)
    )
    assert feasible[-1].all()
    np.testing.assert_array_equal(_hist_dis(rows, n), feasible.argmax(axis=0))


@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from(
        [COUNT, sum_q(4), hist(0), hist(5), tree(0), tree(1), tree(6)]
    ),
    n=st.integers(0, 40),
    t=st.integers(0, 80),
    data=st.data(),
)
@example(q=tree(6), n=0, t=0, data=None)
@example(q=COUNT, n=0, t=0, data=None)
def test_within_range_is_dis_to_range_within_t(q, n, t, data):
    # detect's threshold test against the exact distance, at the drawn t
    # and at every row's distance and one below it, where the answer
    # turns. Rows may be negative and a stack may be one row.
    if data is None:
        rows = np.asarray([[-1] + [0] * (q.num_bins - 1)], dtype=np.int64)
    else:
        rows = np.asarray(
            data.draw(st.lists(
                st.lists(st.integers(-60, 60), min_size=q.num_bins,
                         max_size=q.num_bins),
                min_size=1, max_size=5,
            )),
            dtype=np.int64,
        )
    dis = dis_to_range(q, n, rows)
    for t in {t, *dis.tolist(), *np.maximum(dis - 1, 0).tolist()}:
        got = within_range(q, n, rows, t)
        assert got.dtype == bool and got.shape == (rows.shape[0],)
        np.testing.assert_array_equal(got, dis <= t)


def test_within_range_checks_the_shape():
    with pytest.raises(ShapeError):
        within_range(hist(2), 2, np.zeros((4, 2), dtype=np.int64), 1)
