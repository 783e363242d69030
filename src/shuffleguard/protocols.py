"""Base shuffle-DP protocols: randomizers, analyzers, and cost descriptors.

Each protocol fixes a payload alphabet encoded as plain int64 codes so that
whole levels can be randomized and analyzed with vectorized numpy calls:

  - dlap-count:   codes +1 / -1 (signed unary tokens).
  - splitmix-sum: codes in [0, q) (additive residues mod q).
  - perbin-hist:  codes +-(bin+1); sign is the token sign, |code|-1 the bin.
  - tree-hist:    perbin-hist codes over the flattened dyadic-interval bins.

Count, hist and tree are one token protocol (``_TokenProtocol``) with
``bins`` bins and ``per_user`` data tokens per user: count is the one-bin
case, whose code +1 is also the +1 of a signed unary token. They share
one randomizer, one per-bin tally and one set of cost descriptors; count
only keeps a stricter analyzer (+-1 codes, a scalar result).

Noise model: a user in a group of nominal size m contributes NB(1/m, p)
tokens per sign (per bin, for histograms), so the group aggregate carries
exactly discrete-Laplace(p) noise — the NB shares are infinitely divisible.
Because the shares of the honest members of one group are exchangeable and
only their sum is observable after shuffling, the level-wide randomizers
below draw each group's honest noise total in one shot as NB(h/m, p),
where h is the number of honest contributors; this is distributionally
identical to h independent per-user draws.

Every analyzer is a symmetric fold over the multiset a shuffler releases
(a signed sum, a sum mod q, or a per-bin tally), so message order carries
nothing. A level is drawn once and then takes one of two forms:

  - ``tally_level``: the level's additive ``(groups, bins)`` int64 tally
    (token protocols: positive code counts, data included, minus the
    negative ones; sum: each group's residue sum) plus the exact honest
    message count. No payload is materialized. ``finish`` turns a tally,
    with any adversary envelopes' ``analyze`` results added to its rows,
    into the estimates; it centers sums mod q and leaves token tallies
    as they are.
  - ``randomize_level``: the same draw as one payload array per group, for
    the message-level path. The token protocols list each group's codes
    in code order through ``_emit_codes``.

Both make the same RNG calls, so they describe the same trial.

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
from .queries import Query, QueryKind, QueryValue

#: Shares each user splits its input into under splitmix-sum.
SUM_SHARES = 3


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) privacy budget plus an error-probability budget."""

    epsilon: float
    delta: float
    beta: float

    def __post_init__(self):
        if self.epsilon <= 0:
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


def _resolve_groups(nu: int, m: int, ng: int | None) -> int:
    if ng is None:
        if m < 1 or nu % m:
            raise ParameterError(f"{nu} users do not split into groups of {m}")
        ng = nu // m
    return ng


def _honest_per_group(
    xs: np.ndarray, honest: np.ndarray | None, ng: int
) -> np.ndarray:
    """Honest users per group, groups contiguous."""
    size = xs.size // ng
    if honest is None:
        return np.full(ng, size, dtype=np.int64)
    return honest.reshape(ng, size).sum(axis=1)


class BaseProtocol:
    """Common interface: level-wide randomization and a pure analyzer fold."""

    name: str

    def __init__(self, query: Query):
        self.query = query

    # -- randomization -----------------------------------------------------

    def randomize(self, x: int, epsilon: float, m: int, rng) -> np.ndarray:
        """One user's payload codes at budget epsilon in a group of size m."""
        groups, _ = self.randomize_level(
            np.asarray([x], dtype=np.int64), epsilon, m, rng, ng=1
        )
        return groups[0]

    def randomize_level(
        self,
        xs: np.ndarray,
        epsilon: float,
        m: int,
        rng,
        honest: np.ndarray | None = None,
        ng: int | None = None,
    ) -> tuple[list[np.ndarray], int]:
        """Payloads for one tree level of contiguous equal-sized groups.

        ``m`` is the nominal group size that sets each user's noise share
        (r = 1/m); ``ng`` overrides the group count for partial groups.
        Users with ``honest`` false contribute neither data nor noise
        (their behavior is supplied by the adversary module). Returns one
        payload array per group plus the total honest message count.
        """
        raise NotImplementedError

    def tally_level(
        self,
        xs: np.ndarray,
        epsilon: float,
        m: int,
        rng,
        honest: np.ndarray | None = None,
        ng: int | None = None,
    ) -> tuple[np.ndarray, int]:
        """The level of ``randomize_level`` as an additive tally.

        Same arguments and RNG calls as ``randomize_level``. Returns an
        int64 array of shape ``(ng, bins)`` (``bins`` = 1 for count and
        sum) whose row g, after ``finish``, is ``analyze`` of group g's
        payloads, plus the total honest message count.
        """
        raise NotImplementedError

    # -- analysis ----------------------------------------------------------

    def finish(self, tally: np.ndarray) -> np.ndarray:
        """Per-group estimates from a tally whose rows may also hold the
        ``analyze`` results of envelopes folded into them."""
        return tally

    def analyze(self, payloads: np.ndarray) -> QueryValue:
        raise NotImplementedError

    # -- descriptors -------------------------------------------------------

    def error_bound(self, epsilon: float, beta: float) -> int:
        """High-probability bound on |analyze(group) - truth| (detection theta)."""
        raise NotImplementedError

    def expected_msgs(self, epsilon: float, m: int) -> float:
        raise NotImplementedError

    def bits_per_msg(self) -> int:
        """Payload width; the shuffler-token bits are accounted separately."""
        raise NotImplementedError


class SumProtocol(BaseProtocol):
    """Split-and-mix residues mod q with DLap(e^-eps/U) group noise."""

    name = "splitmix-sum"

    def __init__(self, query: Query, n: int, shares: int = SUM_SHARES):
        super().__init__(query)
        if shares < 2:
            raise ParameterError("need at least 2 shares per user")
        self.shares = shares
        # q must exceed twice any honest aggregate magnitude, noise included.
        self.modulus = 1 << max(
            3, (4 * max(1, n) * max(1, query.domain_size)).bit_length()
        )

    def _draw(self, xs, epsilon, m, rng, honest, ng):
        """A level's draw: each honest user's total (input plus noise
        share, mod q), the uniform residues that split it into
        ``shares`` shares (last column not yet set), and the honest users
        per group. Groups are contiguous."""
        ng = _resolve_groups(xs.size, m, ng)
        p = noise_base(epsilon, self.query.domain_size)
        if honest is None:
            honest = np.ones(xs.size, dtype=bool)
        hxs = xs[honest]
        z = nb_sample(1.0 / m, p, rng, size=hxs.size) - nb_sample(
            1.0 / m, p, rng, size=hxs.size
        )
        totals = (hxs + z) % self.modulus
        parts = rng.integers(0, self.modulus, size=(totals.size, self.shares))
        return totals, parts, _honest_per_group(xs, honest, ng)

    def randomize_level(self, xs, epsilon, m, rng, honest=None, ng=None):
        totals, parts, hcount = self._draw(xs, epsilon, m, rng, honest, ng)
        # The last share makes each user's shares sum to its total mod q.
        parts[:, -1] = (totals - parts[:, :-1].sum(axis=1)) % self.modulus
        payloads = parts.reshape(-1)
        groups = np.split(payloads, np.cumsum(hcount * self.shares)[:-1])
        return groups, int(payloads.size)

    def tally_level(self, xs, epsilon, m, rng, honest=None, ng=None):
        totals, _, hcount = self._draw(xs, epsilon, m, rng, honest, ng)
        # A user's shares sum to its total mod q, so a group's residue sum
        # is, mod q, the sum of its users' totals: exact int64 prefix sums.
        prefix = np.concatenate([[0], np.cumsum(totals)])
        bounds = np.concatenate([[0], np.cumsum(hcount)])
        return np.diff(prefix[bounds])[:, None], int(totals.size) * self.shares

    def finish(self, tally):
        """Each residue sum mod q, centered into (-q/2, q/2]."""
        q = self.modulus
        t = tally % q
        return t - q * (t > q // 2)

    def analyze(self, payloads):
        q = self.modulus
        if payloads.size and ((payloads < 0).any() or (payloads >= q).any()):
            raise ProtocolError("sum analyzer expects residues in [0, q)")
        return int(self.finish(payloads.sum()))

    def error_bound(self, epsilon, beta):
        return dlap_threshold(epsilon, self.query.domain_size, beta)

    def expected_msgs(self, epsilon, m):
        return float(self.shares)

    def bits_per_msg(self):
        return int(math.ceil(math.log2(self.modulus)))


class _TokenProtocol(BaseProtocol):
    """Signed per-bin tokens: codes +-(bin+1) over ``bins`` bins.

    Each user sends ``per_user`` data tokens and, for every bin and sign,
    an NB(1/m, p) share of noise tokens; the budget is split evenly over
    the data tokens, so p = e^-(eps/per_user).
    """

    def __init__(self, query: Query, bins: int, per_user: int = 1):
        super().__init__(query)
        self.bins = bins
        self.per_user = per_user

    def _data_tokens(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(owner, code) of every data token: owner indexes ``xs``."""
        raise NotImplementedError

    def _noise_p(self, epsilon: float) -> float:
        return noise_base(epsilon / self.per_user, 1)

    def _draw(self, xs, epsilon, m, rng, honest, ng):
        """A level's ``(ng, 2*bins)`` code counts, data tokens included:
        codes ``1..bins``, then ``-1..-bins``."""
        ng = _resolve_groups(xs.size, m, ng)
        p = self._noise_p(epsilon)
        r = (_honest_per_group(xs, honest, ng) / m)[:, None]
        pos = nb_sample(np.broadcast_to(r, (ng, self.bins)), p, rng)
        neg = nb_sample(np.broadcast_to(r, (ng, self.bins)), p, rng)
        user_group = np.arange(xs.size) // (xs.size // ng)
        if honest is not None:
            xs, user_group = xs[honest], user_group[honest]
        owner, codes = self._data_tokens(xs)
        cell = user_group[owner] * self.bins + codes - 1
        data = np.bincount(cell, minlength=ng * self.bins).reshape(ng, self.bins)
        return np.hstack([pos + data, neg])

    def randomize_level(self, xs, epsilon, m, rng, honest=None, ng=None):
        return _emit_codes(self._draw(xs, epsilon, m, rng, honest, ng))

    def tally_level(self, xs, epsilon, m, rng, honest=None, ng=None):
        counts = self._draw(xs, epsilon, m, rng, honest, ng)
        b = self.bins
        return counts[:, :b] - counts[:, b:], int(counts.sum())

    def analyze(self, payloads):
        # Code c lands in slot c + bins + 1; the two end slots collect the
        # out-of-range codes, which are dropped.
        b = self.bins
        tally = np.bincount(
            np.clip(payloads, -b - 1, b + 1) + (b + 1), minlength=2 * b + 3
        )
        if tally[b + 1]:
            raise ProtocolError("tokens must be nonzero bin codes")
        return tally[b + 2 : 2 * b + 2] - tally[b:0:-1]

    def error_bound(self, epsilon, beta):
        per_token = dlap_threshold(epsilon / self.per_user, 1, beta / self.bins)
        return self.per_user * per_token

    def expected_msgs(self, epsilon, m):
        p = self._noise_p(epsilon)
        return self.per_user + 2.0 * self.bins * p / (m * (1.0 - p))

    def bits_per_msg(self):
        return int(math.ceil(math.log2(self.bins))) + 1 if self.bins > 1 else 1


class CountProtocol(_TokenProtocol):
    """Signed unary tokens: one +1 per set bit, DLap(e^-eps) group noise."""

    name = "dlap-count"

    def __init__(self, query: Query):
        super().__init__(query, bins=1)

    def _data_tokens(self, xs):
        owner = np.repeat(np.arange(xs.size), xs)
        return owner, np.ones(owner.size, dtype=np.int64)

    def analyze(self, payloads):
        if payloads.size and not np.all(np.abs(payloads) == 1):
            raise ProtocolError("count analyzer expects +-1 tokens")
        return int(payloads.sum())

    def bits_per_msg(self):
        return 2


class HistProtocol(_TokenProtocol):
    """One data token plus independent per-bin signed noise tokens."""

    name = "perbin-hist"

    def __init__(self, query: Query):
        super().__init__(query, query.domain_size + 1)

    def _data_tokens(self, xs):
        return np.arange(xs.size), xs + 1


class RangeTreeProtocol(_TokenProtocol):
    """Per-bin histogram tokens over the flattened dyadic-interval bins.

    The per-node budget is split evenly across the tree levels; each user
    sends one data token per level (the interval containing its value).
    """

    name = "tree-hist"

    def __init__(self, query: Query):
        super().__init__(query, query.num_bins, len(query.tree_levels))

    def _data_tokens(self, xs):
        cols = [
            offset + (xs >> shift) + 1
            for offset, _, shift in self.query.tree_levels
        ]
        owner = np.repeat(np.arange(xs.size), self.per_user)
        return owner, np.stack(cols, axis=1).reshape(-1)


_DEFAULT_BASE = {
    QueryKind.COUNT: "dlap-count",
    QueryKind.SUM: "splitmix-sum",
    QueryKind.HISTOGRAM: "perbin-hist",
    QueryKind.RANGE_TREE: "tree-hist",
}


def make_base(query: Query, n: int, name: str | None = None) -> BaseProtocol:
    """Build the base protocol for a query (by name, or the query's default)."""
    name = name or _DEFAULT_BASE[query.kind]
    if name != _DEFAULT_BASE[query.kind]:
        raise ParameterError(
            f"base protocol {name!r} does not fit {query.kind.value}"
        )
    if query.kind is QueryKind.COUNT:
        return CountProtocol(query)
    if query.kind is QueryKind.SUM:
        return SumProtocol(query, n)
    if query.kind is QueryKind.HISTOGRAM:
        return HistProtocol(query)
    return RangeTreeProtocol(query)
