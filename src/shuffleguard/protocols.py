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

Each protocol has one ``fold``: any payload multiset ``(codes, counts)``
to an additive int64 ``(bins,)`` row (a signed per-bin tally, or a
residue sum mod q) of the codes in the alphabet, each weighted by its
count, plus the total count of the others. It is the fold of the
multiset's messages, ``np.repeat(codes, counts)``, made without them,
so an adversary's flood of any size is a few codes with large counts;
a message array is folded with ``unit_counts``. The sum fold is exact
in wrapping uint64 (q divides 2^64), the token fold sums counts in
int64. It is symmetric, so message order carries nothing. ``finish``
turns rows into estimates (it centers sums mod q); ``analyze``,
``finish`` of one fold, is strict.
A level is drawn once, from its values ``xs``, its ``defense.LevelPlan``
``lp`` (the group size m and the noise parameter p) and the bool mask
``honest`` of the users who randomize (groups are contiguous runs of m
users), and then takes one of two forms:

  - ``tally_levels``: each level's ``(groups, bins)`` tally, whose row g
    finishes as the fold of group g's payloads does, plus the exact
    honest message count, for a whole tree's levels, bottom first, in
    one call. No payload is materialized; envelopes' fold rows add to
    its rows. The token protocols take the bottom level's data-token
    rows from one ``bins_of`` over all users less the corrupted users'
    units, and each level above sums them from its children's rows.
    They draw every level's noise into one block, a level's tally and
    then its negative draws in the block's next rows, and add each
    level's rows to its tally in place.
    The sum tally sums each group's totals and never draws the share
    residues: it advances the generator past them (``_skip_integers``).
    Every level of it covers the same honest users, so it gathers their
    inputs once and draws every level's positive and negative shares
    into the same two buffers. Neither tally allocates a noise array
    per level: ``nb_sample`` draws into the buffers it is given.
  - ``randomize_level``: the same draw as one payload array per group, for
    the message-level path, which the tests and the benchmark's traced
    replay keep as an oracle. The token protocols list each group's codes
    in code order through ``_emit_codes``, with data rows computed from
    ``bins_of`` at every level, independently of ``tally_levels``' sums.

Both leave the generator in the same state, so they describe the same
trial.

There is no separate noiseless encoder: ``randomize`` at a level with
p = 0 and m = 1 draws no noise and returns exactly the user's data
payload.

``law`` is each protocol's one conversion of a level's budget to its
noise: the DLap parameter p, which ``make_plan`` stores on the level,
and the exact DLap tail quantile at that p, which doubles as the defense
layer's detection threshold.
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


def unit_counts(payloads: np.ndarray) -> np.ndarray:
    """A count of one per payload, as a read-only zero-stride view: the
    counts of a message array passed to ``fold`` as a multiset."""
    return np.broadcast_to(np.int64(1), payloads.shape)


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

    def randomize(self, x: int, lp, rng) -> np.ndarray:
        """One user's payload codes at level ``lp``: the level draw of one
        group of ``lp.group_size`` users in which only user 0, who holds
        x, is honest."""
        m = lp.group_size
        xs = np.zeros(m, dtype=np.int64)
        xs[0] = x
        honest = np.arange(m) == 0
        groups, _ = self.randomize_level(xs, lp, rng, honest)
        return groups[0]

    def randomize_level(
        self,
        xs: np.ndarray,
        lp,
        rng,
        honest: np.ndarray,
    ) -> tuple[list[np.ndarray], int]:
        """Payloads for one tree level ``lp`` (a ``defense.LevelPlan``) of
        contiguous groups of m = ``lp.group_size`` users.

        Each user's noise is an NB(1/m, ``lp.p``) share per sign. Users
        with ``honest`` (a bool mask over ``xs``) false contribute
        neither data nor noise (their behavior is supplied by the
        adversary module). Returns one payload array per group plus the
        total honest message count.
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

        ``levels`` lists the levels, bottom first, as a plan's ``levels``
        does, and each group size divides the next. Level i is drawn as
        ``randomize_level`` draws it, after the levels before it, so
        ``rng`` ends in the state that those calls leave. Returns one
        int64 array of shape ``(groups, bins)`` per level (``bins`` = 1
        for count and sum), whose row g finishes as the ``fold`` row of
        group g's payloads does, plus the total honest message count.
        """
        raise NotImplementedError

    # -- analysis ----------------------------------------------------------

    def fold(
        self, codes: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """The additive int64 ``(bins,)`` row of a payload multiset, each
        of ``codes`` taken ``counts`` times, from the codes in the
        alphabet, plus how many payloads fall outside it. ``codes`` and
        ``counts`` are int64 arrays of one length, counts >= 0. It equals
        the fold of ``np.repeat(codes, counts)`` with unit counts."""
        raise NotImplementedError

    def finish(self, tally: np.ndarray) -> np.ndarray:
        """Estimates from ``fold`` rows, or from sums of them (a
        ``tally_levels`` row plus the rows of envelopes added to it)."""
        return tally

    def analyze(self, payloads: np.ndarray) -> QueryValue:
        """The estimate of one multiset (an int for count and sum); raises
        on any payload outside the alphabet."""
        row, malformed = self.fold(payloads, unit_counts(payloads))
        if malformed:
            raise ProtocolError(f"{malformed} payloads outside the alphabet")
        est = self.finish(row)
        if self.query.scalar:
            return int(est[0])
        return est

    #: Per bin, the one message that raises the group's estimate the most.
    top: np.ndarray

    # -- descriptors -------------------------------------------------------

    def law(self, epsilon: float, beta: float) -> tuple[float, int]:
        """A level's noise law at budget epsilon: ``(p, theta)``, the DLap
        parameter p of each group's noise, and theta, the bound on
        |analyze(group) - truth| that fails with probability at most
        beta (the level's detection threshold)."""
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

    def _draw(self, xh, lp, rng, pos, neg):
        """Level ``lp``'s per-user totals, each honest user's input
        (``xh``) plus its noise share, mod q, drawn into ``pos``, which is
        returned. ``pos`` and ``neg`` are int64 buffers of one element
        per honest user; ``neg`` is left holding the negative shares."""
        r = 1.0 / lp.group_size
        nb_sample(r, lp.p, rng, out=pos)
        pos -= nb_sample(r, lp.p, rng, out=neg)
        pos += xh
        pos &= self.modulus - 1  # q is a power of two: this is mod q
        return pos

    def randomize_level(self, xs, lp, rng, honest):
        hcount = _by_group(honest, lp.group_size).sum(axis=1)
        xh = xs[honest]
        totals = self._draw(xh, lp, rng, *np.empty((2, xh.size), np.int64))
        # Uniform residues split each total into shares; the last share
        # makes each user's shares sum to its total mod q.
        parts = rng.integers(0, self.modulus, size=(totals.size, self.shares))
        parts[:, -1] = (totals - parts[:, :-1].sum(axis=1)) % self.modulus
        payloads = parts.reshape(-1)
        groups = np.split(payloads, np.cumsum(hcount * self.shares)[:-1])
        return groups, int(payloads.size)

    def tally_levels(self, xs, levels, rng, honest):
        # Every level covers the same honest users, so their inputs are
        # gathered once and every level draws into the same two buffers.
        # The buffers are the rows of one block: once freed, it raises
        # glibc's heap trim threshold above what a call holds, so the next
        # call reuses the heap without faulting it in again (5 minor
        # faults per flat-sum-flood trial, against about 350 with two
        # separate buffers).
        xh = xs[honest]
        pos, neg = np.empty((2, xh.size), np.int64)
        msgs = xh.size * self.shares  # per level
        tallies = []
        for lp in levels:
            hcount = _by_group(honest, lp.group_size).sum(axis=1)
            totals = self._draw(xh, lp, rng, pos, neg)
            # The residues leave no trace in the sums below, so they are
            # skipped, not drawn.
            _skip_integers(rng, self.modulus, msgs)
            # A user's shares sum to its total mod q, so a group's residue
            # sum is, mod q, the sum of its users' totals: exact int64
            # group sums.
            sums = np.zeros(hcount.size, dtype=np.int64)
            nonempty = hcount > 0
            starts = (np.cumsum(hcount) - hcount)[nonempty]
            sums[nonempty] = np.add.reduceat(totals, starts)
            tallies.append(sums[:, None])
        return tallies, msgs * len(levels)

    def finish(self, tally):
        """Each residue sum mod q, centered into (-q/2, q/2]."""
        q = self.modulus
        t = tally % q
        return t - q * (t > q // 2)

    def fold(self, codes, counts):
        """The residue sum mod q of the codes in [0, q), each taken
        ``counts`` times: sum(code * count) in wrapping uint64, which is
        exact mod q as q divides 2^64."""
        # As unsigned, a negative code lies above q: one compare.
        codes = codes.view(np.uint64)
        counts = counts.view(np.uint64)
        ok = codes < self.modulus
        total = (codes * counts).sum(where=ok)
        bad = counts.sum(where=~ok)
        return (
            np.array([total & np.uint64(self.modulus - 1)], dtype=np.int64),
            int(bad),
        )

    def law(self, epsilon, beta):
        p = noise_base(epsilon, self.query.domain_size)
        return p, dlap_threshold(p, beta)

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

    def _noise(self, lp, honest, rng, pos, neg):
        """Draws level ``lp``'s noise token counts into the int64 ``(groups,
        bins)`` buffers ``pos``, then ``neg``: NB(h/m, ``lp.p``) per bin and
        sign; h of each group's m = ``lp.group_size`` users are ``honest``."""
        groups = _by_group(honest, lp.group_size)
        # h/m: the float of groups.mean(axis=1), as h is exact in one.
        share = groups.sum(axis=1, dtype=float)
        share /= groups.shape[1]
        nb_sample(share[:, None], lp.p, rng, out=pos)
        nb_sample(share[:, None], lp.p, rng, out=neg)

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

    def randomize_level(self, xs, lp, rng, honest):
        pos, neg = np.empty((2, xs.size // lp.group_size, self.bins), np.int64)
        self._noise(lp, honest, rng, pos, neg)
        pos += self._data_rows(xs, honest, lp.group_size)
        return _emit_codes(np.hstack([pos, neg]))

    def tally_levels(self, xs, levels, rng, honest):
        # One block holds every level: level r's tally is its next G_r
        # rows and its negative draws the G_r rows after them, which the
        # next level's tally takes once spent. The next call reuses its
        # heap: 0 minor faults per wide-count trial, ~350 with level arrays.
        sizes = [xs.size // lp.group_size for lp in levels]
        ends = np.cumsum(sizes).tolist()
        height = max((e + g for e, g in zip(ends, sizes)), default=0)
        block = np.empty((height, self.bins), np.int64)
        # Only the bottom level's data rows come from the users' units;
        # every level above sums its children's rows, which is exact as
        # each of its groups is a run of whole groups below.
        tallies = []
        count = 0
        rows = None
        for lp, end, g in zip(levels, ends, sizes):
            tally, neg = block[end - g : end], block[end : end + g]
            self._noise(lp, honest, rng, tally, neg)
            if rows is None:
                rows = self._data_rows(xs, honest, lp.group_size)
                units = int(rows.sum())  # the data tokens of every level
            else:
                rows = rows.reshape(tally.shape[0], -1, self.bins).sum(axis=1)
            count += int(tally.sum()) + int(neg.sum()) + units
            tally -= neg
            tally += rows
            tallies.append(tally)
        return tallies, count

    def fold(self, codes, counts):
        # Code c lands in slot c + bins + 1. Slots 0, bins + 1 and
        # 2*bins + 2 collect the codes outside the alphabet: those below
        # -bins, zero, and those above bins. Counts add in int64, exact
        # where bincount's float64 weights would round.
        b = self.bins
        slots = np.clip(codes, -b - 1, b + 1)
        slots += b + 1
        t = np.zeros(2 * b + 3, dtype=np.int64)
        np.add.at(t, slots, counts)
        return t[b + 2 : 2 * b + 2] - t[b:0:-1], int(t[0] + t[b + 1] + t[-1])

    def law(self, epsilon, beta):
        p = noise_base(epsilon / self.per_user, 1)
        return p, self.per_user * dlap_threshold(p, beta / self.bins)

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
