"""Union-preserving queries: evaluation, output ranges, and distances.

A query here is union-preserving: evaluating it on the disjoint union of two
datasets equals the sum of the per-dataset results. That additivity is what
lets group estimates be checked against the sums of their subgroups, so every
detection rule in the defense layer ultimately calls into this module: the
bottom level's test is ``within_range``, and ``dis_to_range`` is the exact
distance it is checked against.

Supported queries:
  - Count:     inputs in {0,1}, scalar result, l1 geometry.
  - Sum:       inputs in {0..U}, scalar result, l1 geometry.
  - Histogram: inputs in {0..U}, one-level tree of U+1 bins, l_inf geometry.
  - RangeTree: inputs in {0..U}, stacked dyadic-interval tallies (one
               histogram per tree level, flattened), l_inf geometry.

Count, hist and range answers are tallies: each input raises some bins by
one unit. ``bins_of`` is the one place that says which bins; ``eval_query``
and the token protocols' data tokens both read it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import DomainError, ParameterError, ShapeError

QueryValue = Union[int, np.ndarray]


class QueryKind(enum.Enum):
    COUNT = "count"
    SUM = "sum"
    HISTOGRAM = "hist"
    RANGE_TREE = "range"


@lru_cache(maxsize=None)
def _tree_layout(domain_size: int) -> tuple[tuple[int, int, int], ...]:
    """Dyadic levels over {0..U}, padded to a power of two.

    Returns (flat_offset, width, shift) per level, from singleton intervals
    (shift 0) up to the single root interval.
    """
    depth = domain_size.bit_length()  # U + 1 values pad to 2^depth
    top = 1 << depth
    # Level s has top >> s intervals, after the 2 * (top - (top >> s))
    # bins of the levels below it.
    return tuple(
        (2 * (top - (top >> s)), top >> s, s) for s in range(depth + 1)
    )


@dataclass(frozen=True)
class Query:
    """A union-preserving query descriptor.

    ``domain_size`` is U, the largest admissible input value; it is ignored
    for Count (whose inputs are bits).
    """

    kind: QueryKind
    domain_size: int = 0

    def __post_init__(self):
        if self.domain_size < 0:
            raise ParameterError(
                f"domain size U must be nonnegative, got {self.domain_size}"
            )

    @property
    def scalar(self) -> bool:
        """Whether the answer is one number (count and sum), not a vector."""
        return self.kind in (QueryKind.COUNT, QueryKind.SUM)

    @property
    def max_input(self) -> int:
        return 1 if self.kind is QueryKind.COUNT else self.domain_size

    @property
    def num_bins(self) -> int:
        """Length of the (flattened) value vector; 1 for scalar queries."""
        return 1 if self.scalar else sum(w for _, w, _ in self.tree_levels)

    @property
    def tree_levels(self) -> tuple[tuple[int, int, int], ...]:
        """(flat_offset, width, shift) per level of a tally answer: range's
        dyadic levels, or hist's one, as a histogram is the tree's leaves."""
        if self.kind is QueryKind.HISTOGRAM:
            return ((0, self.domain_size + 1, 0),)
        if self.kind is not QueryKind.RANGE_TREE:
            raise ShapeError(
                f"{self.kind.value} answers are not tallies of bins"
            )
        return _tree_layout(self.domain_size)


@dataclass(frozen=True)
class Dataset:
    """An input multiset; values are validated lazily against a query."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=np.int64)
        )


def check_domain(q: Query, values: np.ndarray) -> None:
    bad = np.flatnonzero((values < 0) | (values > q.max_input))
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"value {int(values[i])} at index {i} outside [0, {q.max_input}]"
        )


def bins_of(q: Query, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (owner, bin) of every unit that in-domain ``values`` add to a
    count, hist or range answer: ``owner`` indexes ``values`` and ``bin``
    is the flattened bin the unit raises. ``owner`` is always a new array.

      - count: one unit in bin 0 for each value 1 (in-domain count
        values are bits, so a bool mask gives the owners);
      - hist and range: one unit per tree level, in bin
        offset + (x >> shift); hist's one level puts it in bin x.
    """
    if q.kind is QueryKind.COUNT:
        owner = np.flatnonzero(values != 0)
        return owner, np.zeros(owner.size, dtype=np.int64)
    levels = q.tree_levels
    owner = np.repeat(np.arange(values.size), len(levels))
    bins = np.stack(
        [offset + (values >> shift) for offset, _, shift in levels], axis=1
    )
    return owner, bins.reshape(-1)


def eval_query(q: Query, values: np.ndarray) -> QueryValue:
    """Exact (non-private) query answer on an int64 array of values."""
    check_domain(q, values)
    if q.scalar:
        return int(values.sum())
    _, bins = bins_of(q, values)
    return np.bincount(bins, minlength=q.num_bins).astype(np.int64)


def value_norm(q: Query, v: QueryValue) -> float:
    """The query's detection norm: |.| for scalars, max |.| for vectors."""
    if q.scalar:
        return abs(float(v))
    v = np.asarray(v)
    return float(np.max(np.abs(v))) if v.size else 0.0


def _hist_dis(rows: np.ndarray, n: int) -> np.ndarray:
    """Per row v, the smallest integer t >= 0 such that some histogram h
    of total n (h >= 0) lies within l_inf distance t of v.

    For a given t, coordinate i may take any integer in
    [max(0, v_i - t), v_i + t], so t is feasible iff every range is
    nonempty (t >= -min v) and the reachable totals bracket n:

        L(t) = sum_i max(v_i - t, 0) <= n <= sum_i max(v_i + t, 0) = U(t).

    Sort v in descending order and let c_k be the sum of its k largest
    entries. A sum of positive parts is the largest sum over subsets, and
    the best subset of each size k is the top k, so
    L(t) = max(0, max_k (c_k - k t)) and U(t) = max(0, max_k (c_k + k t)).
    Hence L(t) <= n iff t >= ceil((c_k - n) / k) for every k, and, for
    n > 0, U(t) >= n iff t >= ceil((n - c_k) / k) for some k (for n = 0
    it always holds). Each condition is a lower bound on t, so

        t* = max(0, -min v, max_k ceil((c_k - n) / k),
                 min_k ceil((n - c_k) / k)),

    the last term dropped when n = 0. All rows are computed at once.
    """
    c = np.cumsum(np.sort(rows, axis=1)[:, ::-1], axis=1)
    k = np.arange(1, rows.shape[1] + 1)
    # ceil(a / k) is (a + k - 1) // k for integers a and k > 0.
    dis = np.maximum(
        np.maximum(0, -rows.min(axis=1)), ((c - n + k - 1) // k).max(axis=1)
    )
    if n > 0:
        dis = np.maximum(dis, ((n - c + k - 1) // k).min(axis=1))
    return dis


def _check_rows(q: Query, rows: np.ndarray) -> None:
    if rows.ndim != 2 or rows.shape[1] != q.num_bins:
        raise ShapeError(
            f"{q.kind.value} values must be a stack of shape "
            f"(rows, {q.num_bins}), got shape {rows.shape}"
        )


def within_range(q: Query, n: int, rows: np.ndarray, t: int) -> np.ndarray:
    """Whether each row lies within distance t >= 0 of an attainable
    size-n query output: ``dis_to_range(q, n, rows) <= t``, without the
    distance.

    ``rows`` is as for ``dis_to_range``. Feasibility only loosens as t
    grows, so the test is ``_hist_dis``'s feasibility of t itself: a
    scalar within [-t, n * max_input + t], and at every level of a tally,
    min v >= -t, sum max(v - t, 0) <= n and sum max(v + t, 0) >= n. Once
    min v >= -t, the last sum is sum v + width * t. It sorts nothing and
    takes no quotient.
    """
    _check_rows(q, rows)
    if q.scalar:
        v = rows[:, 0]
        return (v >= -t) & (v <= n * q.max_input + t)
    ok = rows.min(axis=1) >= -t
    over = rows - t
    np.maximum(over, 0, out=over)
    for offset, width, _ in q.tree_levels:
        ok &= over[:, offset : offset + width].sum(axis=1) <= n
        ok &= rows[:, offset : offset + width].sum(axis=1) >= n - width * t
    return ok


def dis_to_range(q: Query, n: int, rows: np.ndarray) -> np.ndarray:
    """Distance from values to the set of attainable size-n query outputs.

    ``rows`` is an int64 stack of values of shape ``(rows, num_bins)``,
    with ``num_bins`` = 1 for count and sum; the result is one int64
    distance per row. Scalars range over [0, n * max_input]; a tally
    answer is as far as its farthest level is from every histogram of
    total n. Detection only asks whether a distance is within a
    threshold, which ``within_range`` answers without it; this exact
    distance is the oracle that ``within_range`` is tested against.
    """
    _check_rows(q, rows)
    if q.scalar:
        top = n * q.max_input
        return np.maximum(0, np.maximum(-rows[:, 0], rows[:, 0] - top))
    return np.max(
        [
            _hist_dis(rows[:, offset : offset + width], n)
            for offset, width, _ in q.tree_levels
        ],
        axis=0,
    )
