"""Corrupted-user behavior: flooding, noise dropping, input alteration,
and impersonation attempts.

A corrupted user keeps exactly the capabilities of an honest one — the
shuffler tokens of its own groups and the protocol's public parameters —
and may send any payloads through them; malformed ones are left out of
the protocol's fold and counted. Every strategy but ``Impersonate`` is
one ``payloads(base, lp, x, rng)`` method: what the user, whose true
input is ``x``, sends through its own token of level ``lp``. It replaces
the user's honest contribution entirely (a strictly stronger adversary
than one that also participates honestly). ``Impersonate`` targets a
group the attacker is not in and can only guess that group's token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defense import LevelPlan, TreePlan
from .errors import ParameterError
from .protocols import BaseProtocol
from .runtime import Envelope, TokenTable


@dataclass(frozen=True)
class Flood:
    """Send ``msgs`` copies of the protocol's top payloads per level: every
    bin's +1 token (count is the one-bin case), or the residue U for sum."""

    msgs: int

    def payloads(self, base: BaseProtocol, lp: LevelPlan, x: int, rng):
        # np.tile(base.top, msgs); a read-only view, not a copy, when the
        # top is one code (count and sum).
        return np.broadcast_to(base.top, (self.msgs, base.top.size)).reshape(-1)


@dataclass(frozen=True)
class DropNoise:
    """Participate with data tokens only, contributing zero noise shares."""

    def payloads(self, base: BaseProtocol, lp: LevelPlan, x: int, rng):
        # At epsilon = inf the randomizer adds no noise tokens.
        return base.randomize(x, math.inf, 1, rng)


@dataclass(frozen=True)
class AlterInput:
    """Run the honest randomizer on a forged input: the domain's largest."""

    def payloads(self, base: BaseProtocol, lp: LevelPlan, x: int, rng):
        return base.randomize(
            base.query.max_input, lp.budget.epsilon, lp.group_size, rng
        )


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


def malicious_envelopes(
    strategy, user_id: int, plan: TreePlan, tokens: TokenTable, rng, x: int
) -> list[Envelope]:
    """One corrupted user's full output for a run.

    One envelope per level, through the user's own token of that level,
    except for Impersonate, which fabricates a guess for the victim's
    token. ``x`` is the user's true input.
    """
    if isinstance(strategy, Impersonate):
        guess = int(rng.integers(0, 1 << 63, dtype=np.int64))
        return [Envelope(guess, np.ones(strategy.msgs, dtype=np.int64))]
    return [
        Envelope(
            int(ids[plan.group_of(user_id, lp.r) - 1]),
            strategy.payloads(plan.base, lp, x, rng),
        )
        for lp, ids in zip(plan.levels, tokens.levels)
    ]
