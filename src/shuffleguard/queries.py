"""Union-preserving queries: evaluation, output ranges, and distances.

A query here is union-preserving: evaluating it on the disjoint union of two
datasets equals the sum of the per-dataset results. That additivity is what
lets group estimates be checked against the sums of their subgroups, so every
detection rule in the defense layer ultimately calls into this module.

Supported queries:
  - Count:     inputs in {0,1}, scalar result, l1 geometry.
  - Sum:       inputs in {0..U}, scalar result, l1 geometry.
  - Histogram: inputs in {0..U}, (U+1)-bin tally, l_inf geometry.
  - RangeTree: inputs in {0..U}, stacked dyadic-interval tallies (one
               histogram per tree level, flattened), l_inf geometry.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
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


_SCALAR_KINDS = (QueryKind.COUNT, QueryKind.SUM)


@lru_cache(maxsize=None)
def _tree_layout(domain_size: int) -> tuple[tuple[int, int, int], ...]:
    """Dyadic levels over {0..U}, padded to a power of two.

    Returns (flat_offset, width, shift) per level, from singleton intervals
    (shift 0) up to the single root interval.
    """
    base = domain_size + 1
    padded = 1 << max(0, math.ceil(math.log2(base))) if base > 1 else 1
    levels = []
    offset = 0
    shift = 0
    width = padded
    while width >= 1:
        levels.append((offset, width, shift))
        offset += width
        width //= 2
        shift += 1
    return tuple(levels)


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
    def max_input(self) -> int:
        return 1 if self.kind is QueryKind.COUNT else self.domain_size

    @property
    def num_bins(self) -> int:
        """Length of the (flattened) value vector; 1 for scalar queries."""
        if self.kind in _SCALAR_KINDS:
            return 1
        if self.kind is QueryKind.HISTOGRAM:
            return self.domain_size + 1
        return sum(w for _, w, _ in _tree_layout(self.domain_size))

    @property
    def tree_levels(self) -> tuple[tuple[int, int, int], ...]:
        if self.kind is not QueryKind.RANGE_TREE:
            raise ShapeError("tree_levels is defined for RangeTree only")
        return _tree_layout(self.domain_size)


@dataclass(frozen=True)
class Dataset:
    """An input multiset; values are validated lazily against a query."""

    values: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=np.int64)
        )

    @property
    def n(self) -> int:
        return int(self.values.size)


def _as_values(d) -> np.ndarray:
    if isinstance(d, Dataset):
        return d.values
    return np.asarray(d, dtype=np.int64)


def check_domain(q: Query, values: np.ndarray) -> None:
    bad = np.flatnonzero((values < 0) | (values > q.max_input))
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"value {int(values[i])} at index {i} outside [0, {q.max_input}]"
        )


def eval_query(q: Query, d) -> QueryValue:
    """Exact (non-private) query answer."""
    values = _as_values(d)
    check_domain(q, values)
    if q.kind in _SCALAR_KINDS:
        return int(values.sum())
    if q.kind is QueryKind.HISTOGRAM:
        return np.bincount(values, minlength=q.num_bins).astype(np.int64)
    out = np.zeros(q.num_bins, dtype=np.int64)
    for offset, width, shift in q.tree_levels:
        out[offset : offset + width] = np.bincount(
            values >> shift, minlength=width
        )
    return out


def value_norm(q: Query, v: QueryValue) -> float:
    """The query's detection norm: |.| for scalars, max |.| for vectors."""
    if q.kind in _SCALAR_KINDS:
        return abs(float(v))
    v = np.asarray(v)
    return float(np.max(np.abs(v))) if v.size else 0.0


def range_diameter(q: Query, n: int) -> float:
    """Diameter of the query's output set over all size-n datasets."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if q.kind is QueryKind.SUM:
        return float(n * q.domain_size)
    # Count under l1, Histogram/RangeTree under l_inf all have diameter n.
    return float(n)




def _hist_dis(rows: np.ndarray, n: int) -> np.ndarray:
    """Per row, the smallest t such that some valid n-total histogram is
    within l_inf t of it.

    Feasibility of a given t is monotone: each coordinate may be clamped to
    [max(0, b-t), b+t] (nonnegative), so t works iff every coordinate
    admits a nonnegative value and the reachable totals bracket n. One
    binary search runs over all rows at once.
    """
    low = rows.min(axis=1)

    def feasible(t: np.ndarray) -> np.ndarray:
        reach_lo = np.maximum(rows - t[:, None], 0).sum(axis=1)
        reach_hi = np.maximum(rows + t[:, None], 0).sum(axis=1)
        return (low + t >= 0) & (reach_lo <= n) & (n <= reach_hi)

    # Per row, hi is feasible and lo is either -1 or infeasible.
    lo = np.full(rows.shape[0], -1, dtype=np.int64)
    hi = np.abs(rows).max(axis=1) + n + 1
    while (open_ := hi - lo > 1).any():
        mid = (lo + hi) // 2
        ok = feasible(mid)
        hi = np.where(open_ & ok, mid, hi)
        lo = np.where(open_ & ~ok, mid, lo)
    return hi


def dis_to_range(q: Query, n: int, v) -> float | np.ndarray:
    """Distance from values to the set of attainable size-n query outputs.

    ``v`` is one value (an int for count and sum, a ``(num_bins,)`` vector
    otherwise), which gives one float, or a stack of values of shape
    ``(rows, num_bins)``, with ``num_bins`` = 1 for count and sum, which
    gives one float per row.
    """
    v = np.asarray(v, dtype=np.int64)
    single = v.ndim == (0 if q.kind in _SCALAR_KINDS else 1)
    rows = v.reshape(1, -1) if single else v
    if rows.ndim != 2 or rows.shape[1] != q.num_bins:
        raise ShapeError(
            f"{q.kind.value} value must be one value or a stack of shape "
            f"(rows, {q.num_bins}), got shape {v.shape}"
        )
    if q.kind in _SCALAR_KINDS:
        top = n if q.kind is QueryKind.COUNT else n * q.domain_size
        dis = np.maximum(0, np.maximum(-rows[:, 0], rows[:, 0] - top))
    elif q.kind is QueryKind.HISTOGRAM:
        dis = _hist_dis(rows, n)
    else:
        dis = np.max(
            [
                _hist_dis(rows[:, offset : offset + width], n)
                for offset, width, _ in q.tree_levels
            ],
            axis=0,
        )
    dis = dis.astype(float)
    return float(dis[0]) if single else dis
