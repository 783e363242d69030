"""Base shuffle-DP protocols: level draws, folds, thresholds and costs.

Each protocol fixes a payload alphabet encoded as plain int64 codes so that
whole levels can be randomized and analyzed with vectorized numpy calls:

  - count: codes +1 / -1 (signed unary tokens).
  - sum:   codes in [0, q) (additive residues mod q).
  - hist:  codes +-(bin+1); sign is the token sign, |code|-1 the bin.
  - range: hist codes over the flattened dyadic-interval bins.

Count, hist and range are one token protocol (``_TokenProtocol``) over
the query's ``num_bins`` bins: count is the one-bin case, whose code +1
is also the +1 of a signed unary token, and range sends one data token
per tree level. Which bins a user's data tokens raise is
``queries.bins_of``, the one definition of the bin layout. They share
one randomizer, one per-bin tally, one fold and one set of cost
descriptors.

Noise model: a user in a group of size m contributes NB(1/m, p)
tokens per sign (per bin, for histograms), so the group aggregate carries
exactly discrete-Laplace(p) noise — the NB shares are infinitely divisible.
Because the shares of the honest members of one group are exchangeable and
only their sum is observable after shuffling, the level-wide randomizers
below draw each group's honest noise total in one shot as NB(h/m, p),
where h is the number of honest contributors; this is distributionally
identical to h independent per-user draws.

Each protocol has one ``fold``: any payloads to an additive int64
``(bins,)`` row (a signed per-bin tally, or a residue sum mod q) of those
in the alphabet, plus the count of the others. It is symmetric, so
message order carries nothing. ``finish`` turns rows into estimates (it
centers sums mod q); ``analyze``, ``finish`` of one fold, is strict.
A level is drawn once, from its values ``xs``, its group size m and
the bool mask ``honest`` of the users who randomize (groups are
contiguous runs of m users), and then takes one of two forms:

  - ``tally_level``: the level's ``(groups, bins)`` tally, whose row g
    finishes as the fold of group g's payloads does, plus the exact
    honest message count. No payload is materialized; envelopes' fold
    rows add to its rows. It is the one-level case of ``tally_levels``,
    which draws a whole tree's levels, bottom first, in one call. The
    token protocols take the bottom level's data-token rows from one
    ``bins_of`` over all users less the corrupted users' units, and each
    level above sums them from its children's rows; each level's rows
    are added to its positive noise in place, after its noise is drawn.
    The sum tally sums each group's totals and never draws the share
    residues: it advances the generator past them (``_skip_integers``).
  - ``randomize_level``: the same draw as one payload array per group, for
    the message-level path, which the tests and the benchmark's traced
    replay keep as an oracle. The token protocols list each group's codes
    in code order through ``_emit_codes``, with data rows computed from
    ``bins_of`` at every level, independently of ``tally_levels``' sums.

Both leave the generator in the same state, so they describe the same
trial.

There is no separate noiseless encoder: ``randomize`` at epsilon = inf
draws no noise (p = 0) and returns exactly the user's data payload.

The matching ``error_bound`` is the exact DLap tail quantile and doubles as
the defense layer's detection threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ProtocolError
from .noise import dlap_threshold, nb_sample, noise_base
from .queries import Query, QueryKind, QueryValue, bins_of


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) privacy budget plus an error-probability budget."""

    epsilon: float
    delta: float
    beta: float

    def __post_init__(self):
        if not self.epsilon > 0:  # NaN included
            raise ParameterError("epsilon must be positive")
        if not 0 <= self.delta < 1:
            raise ParameterError("delta must be in [0, 1)")
        if not 0 < self.beta < 1:
            raise ParameterError("beta must be in (0, 1)")


def _emit_codes(counts: np.ndarray) -> tuple[list[np.ndarray], int]:
    """Per-group payloads from a ``(groups, 2*bins)`` matrix of code counts.

    Columns count the codes ``1..bins`` and then ``-1..-bins``; each
    group's payload lists its codes in that column order. The counts are
    trusted to be non-negative and the codes in domain: honest inputs are
    checked at ingress, before any randomization, so nothing is checked
    here. Returns one payload array per group plus the total message count.
    """
    ng, width = counts.shape
    codes = np.arange(1, width // 2 + 1, dtype=np.int64)
    payloads = np.repeat(
        np.tile(np.concatenate([codes, -codes]), ng), counts.reshape(-1)
    )
    groups = np.split(payloads, np.cumsum(counts.sum(axis=1))[:-1])
    return groups, int(payloads.size)


def _by_group(honest: np.ndarray, m: int) -> np.ndarray:
    """The honest mask as one row per group of m users, groups contiguous."""
    if m < 1 or honest.size % m:
        raise ParameterError(
            f"{honest.size} users do not split into groups of {m}"
        )
    return honest.reshape(-1, m)


def _skip_integers(rng, q: int, count: int) -> None:
    """Move ``rng`` exactly as ``rng.integers(0, q, size=count)`` does,
    for a power of two q, without drawing the values.

    For such a q, numpy's bounded draw never rejects: it takes one
    buffered 32-bit half per value when q <= 2^32, and one 64-bit output
    per value above that. A PCG64 generator is advanced past those
    outputs. ``advance`` clears the buffered half, so the buffer is then
    set as the draw leaves it: a consumed half stays in ``uinteger`` with
    ``has_uint32`` 0. Any other bit generator draws and discards.
    """
    bg = rng.bit_generator
    if type(bg) is not np.random.PCG64:
        rng.integers(0, q, size=count)
        return
    if count == 0:
        return
    before = bg.state
    has, last = before["has_uint32"], before["uinteger"]
    if q > 1 << 32:
        bg.advance(count)
    else:
        halves = count - has  # the halves drawn fresh, two per output
        has = halves % 2
        if halves:
            bg.advance((halves - 1) // 2)
            last = int(bg.random_raw()) >> 32
    after = bg.state
    after["has_uint32"], after["uinteger"] = has, last
    bg.state = after


class BaseProtocol:
    """Common interface: level-wide randomization and a pure analyzer fold."""

    def __init__(self, query: Query):
        self.query = query

    # -- randomization -----------------------------------------------------

    def randomize(self, x: int, epsilon: float, m: int, rng) -> np.ndarray:
        """One user's payload codes at budget epsilon in a group of size m:
        the level draw of one group of m users in which only user 0, who
        holds x, is honest."""
        xs = np.zeros(m, dtype=np.int64)
        xs[0] = x
        honest = np.arange(m) == 0
        groups, _ = self.randomize_level(xs, epsilon, m, rng, honest)
        return groups[0]

    def randomize_level(
        self,
        xs: np.ndarray,
        epsilon: float,
        m: int,
        rng,
        honest: np.ndarray,
    ) -> tuple[list[np.ndarray], int]:
        """Payloads for one tree level of contiguous groups of m users.

        ``m`` is the group size, which also sets each user's noise share
        (r = 1/m). Users with ``honest`` (a bool mask over ``xs``) false
        contribute neither data nor noise (their behavior is supplied by
        the adversary module). Returns one payload array per group plus
        the total honest message count.
        """
        raise NotImplementedError

    def tally_levels(
        self,
        xs: np.ndarray,
        levels,
        rng,
        honest: np.ndarray,
    ) -> tuple[list[np.ndarray], int]:
        """Levels of ``randomize_level`` as additive tallies, in order.

        ``levels`` lists each level's ``(epsilon, m)``, bottom first, and
        each m divides the next. Level i is drawn as ``randomize_level``
        draws it, after the levels before it, so ``rng`` ends in the
        state that those calls leave. Returns one int64 array of shape
        ``(groups, bins)`` per level (``bins`` = 1 for count and sum),
        whose row g finishes as the ``fold`` row of group g's payloads
        does, plus the total honest message count.
        """
        raise NotImplementedError

    def tally_level(
        self,
        xs: np.ndarray,
        epsilon: float,
        m: int,
        rng,
        honest: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """The level of ``randomize_level`` as an additive tally: the
        one-level case of ``tally_levels``."""
        (tally,), count = self.tally_levels(xs, [(epsilon, m)], rng, honest)
        return tally, count

    # -- analysis ----------------------------------------------------------

    def fold(self, payloads: np.ndarray) -> tuple[np.ndarray, int]:
        """The additive int64 ``(bins,)`` row of the payloads in the
        alphabet, plus how many payloads fall outside it."""
        raise NotImplementedError

    def finish(self, tally: np.ndarray) -> np.ndarray:
        """Estimates from ``fold`` rows, or from sums of them (a
        ``tally_level`` row plus the rows of envelopes added to it)."""
        return tally

    def analyze(self, payloads: np.ndarray) -> QueryValue:
        """The estimate of one multiset (an int for count and sum); raises
        on any payload outside the alphabet."""
        row, malformed = self.fold(payloads)
        if malformed:
            raise ProtocolError(f"{malformed} payloads outside the alphabet")
        est = self.finish(row)
        if self.query.scalar:
            return int(est[0])
        return est

    #: Per bin, the one message that raises the group's estimate the most.
    top: np.ndarray

    # -- descriptors -------------------------------------------------------

    def error_bound(self, epsilon: float, beta: float) -> int:
        """High-probability bound on |analyze(group) - truth| (detection theta)."""
        raise NotImplementedError

    def bits_per_msg(self) -> int:
        """Payload width; the shuffler-token bits are accounted separately."""
        raise NotImplementedError


class SumProtocol(BaseProtocol):
    """Split-and-mix residues mod q with DLap(e^-eps/U) group noise."""

    #: Shares each user splits its input into.
    shares = 3

    def __init__(self, query: Query, n: int):
        super().__init__(query)
        self.top = np.array([query.domain_size], dtype=np.int64)
        # q must exceed twice any honest aggregate magnitude, noise included.
        self.modulus = 1 << max(
            3, (4 * max(1, n) * max(1, query.domain_size)).bit_length()
        )

    def _draw(self, xs, epsilon, m, rng, honest):
        """A level's draw: each honest user's total (input plus noise
        share, mod q) and the honest users per group. Groups are
        contiguous."""
        hcount = _by_group(honest, m).sum(axis=1)
        p = noise_base(epsilon, self.query.domain_size)
        size = int(hcount.sum())
        # Built in place: each array here holds one int64 per honest user.
        totals = nb_sample(1.0 / m, p, rng, size=size)
        totals -= nb_sample(1.0 / m, p, rng, size=size)
        totals += xs[honest]
        totals &= self.modulus - 1  # q is a power of two: this is mod q
        return totals, hcount

    def randomize_level(self, xs, epsilon, m, rng, honest):
        totals, hcount = self._draw(xs, epsilon, m, rng, honest)
        # Uniform residues split each total into shares; the last share
        # makes each user's shares sum to its total mod q.
        parts = rng.integers(0, self.modulus, size=(totals.size, self.shares))
        parts[:, -1] = (totals - parts[:, :-1].sum(axis=1)) % self.modulus
        payloads = parts.reshape(-1)
        groups = np.split(payloads, np.cumsum(hcount * self.shares)[:-1])
        return groups, int(payloads.size)

    def _sums(self, xs, epsilon, m, rng, honest):
        """One level's ``(groups, 1)`` tally and message count. A call per
        level frees its per-user arrays before the next level's draw."""
        totals, hcount = self._draw(xs, epsilon, m, rng, honest)
        msgs = int(totals.size) * self.shares
        # The residues leave no trace in the sums below, so they are
        # skipped, not drawn.
        _skip_integers(rng, self.modulus, msgs)
        # A user's shares sum to its total mod q, so a group's residue sum
        # is, mod q, the sum of its users' totals: exact int64 group sums.
        sums = np.zeros(hcount.size, dtype=np.int64)
        nonempty = hcount > 0
        starts = (np.cumsum(hcount) - hcount)[nonempty]
        sums[nonempty] = np.add.reduceat(totals, starts)
        return sums[:, None], msgs

    def tally_levels(self, xs, levels, rng, honest):
        drawn = [self._sums(xs, eps, m, rng, honest) for eps, m in levels]
        return [tally for tally, _ in drawn], sum(msgs for _, msgs in drawn)

    def finish(self, tally):
        """Each residue sum mod q, centered into (-q/2, q/2]."""
        q = self.modulus
        t = tally % q
        return t - q * (t > q // 2)

    def fold(self, payloads):
        """The residue sum mod q of the payloads in [0, q)."""
        q = self.modulus
        # As unsigned, a negative code lies above q: one compare.
        ok = payloads.view(np.uint64) < q
        bad = ok.size - np.count_nonzero(ok)
        total = payloads.sum(where=ok) if bad else payloads.sum()
        return np.array([total % q], dtype=np.int64), bad

    def error_bound(self, epsilon, beta):
        return dlap_threshold(epsilon, self.query.domain_size, beta)

    def bits_per_msg(self):
        return int(math.ceil(math.log2(self.modulus)))


class _TokenProtocol(BaseProtocol):
    """Signed per-bin tokens: codes +-(bin+1) over the query's bins.

    Each user sends a data token for each bin ``bins_of`` names for its
    value and, for every bin and sign, an NB(1/m, p) share of noise
    tokens. ``per_user``, the most data tokens a user sends, is the
    number of units of the largest input: 1 for count and hist, one per
    tree level for range. The budget is split evenly over them, so
    p = e^-(eps/per_user).
    """

    def __init__(self, query: Query):
        super().__init__(query)
        self.bins = query.num_bins
        self.per_user = bins_of(query, np.array([query.max_input]))[0].size
        self.top = np.arange(1, self.bins + 1, dtype=np.int64)

    def _noise(self, epsilon, groups, rng):
        """A level's ``(groups, bins)`` positive and negative noise token
        counts: NB(h/m, p) per bin and sign, for the h honest users of
        each row of the ``(groups, m)`` honest mask."""
        p = noise_base(epsilon / self.per_user, 1)
        # h/m: the float of groups.mean(axis=1), as h is exact in one.
        share = groups.sum(axis=1, dtype=float)
        share /= groups.shape[1]
        size = (share.size, self.bins)
        pos = nb_sample(share[:, None], p, rng, size=size)
        neg = nb_sample(share[:, None], p, rng, size=size)
        return pos, neg

    def _data_rows(self, xs, honest, m):
        """The ``(groups, bins)`` data token counts of the honest users:
        the units ``bins_of`` gives all users, less the others' units."""
        b = self.bins
        owner, col = bins_of(self.query, xs)
        # The cell of a unit is its owner's group times b plus its bin.
        owner //= m
        owner *= b
        owner += col
        rows = np.bincount(owner, minlength=xs.size // m * b)
        others = np.flatnonzero(~honest)
        owner, col = bins_of(self.query, xs[others])
        np.subtract.at(rows, others[owner] // m * b + col, 1)
        return rows.reshape(-1, b)

    def randomize_level(self, xs, epsilon, m, rng, honest):
        pos, neg = self._noise(epsilon, _by_group(honest, m), rng)
        pos += self._data_rows(xs, honest, m)
        return _emit_codes(np.hstack([pos, neg]))

    def tally_levels(self, xs, levels, rng, honest):
        # Only the bottom level's data rows come from the users' units;
        # every level above sums its children's rows, which is exact as
        # each of its groups is a run of whole groups below.
        tallies = []
        count = 0
        rows = None
        for epsilon, m in levels:
            tally, neg = self._noise(epsilon, _by_group(honest, m), rng)
            if rows is None:
                rows = self._data_rows(xs, honest, m)
                units = int(rows.sum())  # the data tokens of every level
            else:
                rows = rows.reshape(tally.shape[0], -1, self.bins).sum(axis=1)
            count += int(tally.sum()) + int(neg.sum()) + units
            tally -= neg
            del neg  # freed before the next level's draw
            tally += rows
            tallies.append(tally)
        return tallies, count

    def fold(self, payloads):
        # Code c lands in slot c + bins + 1. Slots 0, bins + 1 and
        # 2*bins + 2 collect the codes outside the alphabet: those below
        # -bins, zero, and those above bins.
        b = self.bins
        slots = np.clip(payloads, -b - 1, b + 1)
        slots += b + 1
        t = np.bincount(slots, minlength=2 * b + 3)
        return t[b + 2 : 2 * b + 2] - t[b:0:-1], int(t[0] + t[b + 1] + t[-1])

    def error_bound(self, epsilon, beta):
        per_token = dlap_threshold(epsilon / self.per_user, 1, beta / self.bins)
        return self.per_user * per_token

    def bits_per_msg(self):
        return int(math.ceil(math.log2(self.bins))) + 1 if self.bins > 1 else 1


class CountProtocol(_TokenProtocol):
    """Signed unary tokens: one +1 per set bit, DLap(e^-eps) group noise."""

    def bits_per_msg(self):
        return 2


def make_base(query: Query, n: int) -> BaseProtocol:
    """The base protocol of a query: split-and-mix for sum, the token
    protocol for count, hist and range."""
    if query.kind is QueryKind.COUNT:
        return CountProtocol(query)
    if query.kind is QueryKind.SUM:
        return SumProtocol(query, n)
    return _TokenProtocol(query)
