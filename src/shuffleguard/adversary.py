"""Corrupted-user behavior: flooding, noise dropping, input alteration,
and impersonation attempts.

A corrupted user keeps exactly the capabilities of an honest one — the
shuffler tokens of its own groups and the protocol's public parameters —
and may send any payloads through them; malformed ones are left out of
the protocol's fold and counted. Traffic is a payload multiset
``(codes, counts)``: int64 arrays of one length, code ``codes[i]`` sent
``counts[i]`` times. So a flood is a few codes with large counts, never
an array of its messages, and its cost does not grow with its size.
Every strategy but ``Impersonate`` is one ``multiset(base, lp, x, rng)``
method: what the user, whose true input is ``x``, sends through its own
token of level ``lp``. It replaces the user's honest contribution
entirely (a strictly stronger adversary than one that also participates
honestly). ``Impersonate`` targets a group the attacker is not in and
can only guess that group's token.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .defense import LevelPlan, TreePlan
from .errors import ParameterError
from .protocols import BaseProtocol, unit_counts
from .runtime import Envelope, TokenTable


@dataclass(frozen=True)
class Flood:
    """Send ``msgs`` copies of the protocol's top payloads per level: every
    bin's +1 token (count is the one-bin case), or the residue U for sum."""

    msgs: int

    def multiset(self, base: BaseProtocol, lp: LevelPlan, x: int, rng):
        return base.top, np.full(base.top.size, self.msgs, dtype=np.int64)


@dataclass(frozen=True)
class DropNoise:
    """Participate with data tokens only, contributing zero noise shares."""

    def multiset(self, base: BaseProtocol, lp: LevelPlan, x: int, rng):
        # At p = 0, in a group of one, the randomizer adds no noise.
        codes = base.randomize(x, replace(lp, p=0.0, group_size=1), rng)
        return codes, unit_counts(codes)


@dataclass(frozen=True)
class AlterInput:
    """Run the honest randomizer on a forged input: the domain's largest."""

    def multiset(self, base: BaseProtocol, lp: LevelPlan, x: int, rng):
        codes = base.randomize(base.query.max_input, lp, rng)
        return codes, unit_counts(codes)


@dataclass(frozen=True)
class Impersonate:
    """Try to inject messages into a group the attacker is not a member of,
    using a guessed token (rejected by the shuffler with near certainty)."""

    msgs: int


@dataclass(frozen=True)
class CorruptionSet:
    ids: frozenset[int]


def corrupt_users(n: int, k: int, rng: np.random.Generator) -> CorruptionSet:
    """k distinct uniformly random user ids (1-based)."""
    if not 0 <= k <= n:
        raise ParameterError(f"cannot corrupt {k} of {n} users")
    ids = rng.choice(n, size=k, replace=False) + 1
    return CorruptionSet(frozenset(int(i) for i in ids))


def sends(strategy, user_id: int, plan: TreePlan, rng, x: int) -> list:
    """One corrupted user's output for a run, as ``(node, codes, counts)``
    triples, where node ``(r, g)`` is the shuffler reached, or None for a
    guess that names none, and ``(codes, counts)`` is the payload
    multiset sent there. ``x`` is the user's true input.

    Each strategy but Impersonate sends one multiset per level, in order,
    through the user's own token, which names its own group. Impersonate
    sends ``msgs`` +1 codes, the multiset ``([1], [msgs])``, under one
    uniform 63-bit guess, which reaches ``plan.node_at(guess)``. That is
    exact in law: the guess is independent of any provisioned tokens
    (their generator feeds nothing else), so every injective numbering
    of the S nodes into [0, 2^63), random or fixed, gives each node hit
    probability 2^-63, with the same joint law of hits across attackers.
    """
    if isinstance(strategy, Impersonate):
        guess = int(rng.integers(0, 1 << 63, dtype=np.int64))
        return [(
            plan.node_at(guess), np.ones(1, np.int64),
            np.array([strategy.msgs], np.int64),
        )]
    return [
        ((lp.r, plan.group_of(user_id, lp.r)),
         *strategy.multiset(plan.base, lp, x, rng))
        for lp in plan.levels
    ]


def malicious_envelopes(
    strategy, user_id: int, plan: TreePlan, tokens: TokenTable, rng, x: int
) -> list[Envelope]:
    """``sends`` as envelopes: each node's multiset, expanded to its
    payloads (``np.repeat``, codes in order), under its token in
    ``tokens``, and a send that names no node under -1, which no token
    table holds (ids lie in [0, 2^63))."""
    return [
        Envelope(
            int(tokens.levels[nd[0] - 1][nd[1] - 1]) if nd else -1,
            np.repeat(codes, counts),
        )
        for nd, codes, counts in sends(strategy, user_id, plan, rng, x)
    ]
