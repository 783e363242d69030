"""Corrupted-user behavior: flooding, noise dropping, input alteration,
and impersonation attempts.

A corrupted user keeps exactly the capabilities of an honest one — the
shuffler tokens of its own groups and the protocol's public parameters —
but may send arbitrary well-formed payloads through them. Flooding
attackers replace their honest contribution entirely (a strictly stronger
adversary than one that also participates honestly); the impersonation
attacker targets a group it does not belong to and can only guess that
group's token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defense import TreePlan
from .errors import ParameterError
from .protocols import HistProtocol, RangeTreeProtocol, SumProtocol
from .queries import check_domain
from .runtime import Envelope, TokenTable


@dataclass(frozen=True)
class FloodCount:
    """Send extra signed count tokens through every authorized shuffler."""

    msgs_per_level: int
    sign: int = 1
    level: int | None = None  # restrict to one level (1-based), or all


@dataclass(frozen=True)
class FloodSum:
    """Send single residues, each shifting the aggregate by ``value``."""

    msgs_per_level: int
    value: int = 1
    level: int | None = None


@dataclass(frozen=True)
class FloodHist:
    """Send extra +1 tokens into every bin of every authorized shuffler."""

    msgs_per_bin: int
    level: int | None = None


@dataclass(frozen=True)
class DropNoise:
    """Participate with data tokens only, contributing zero noise shares."""


@dataclass(frozen=True)
class AlterInput:
    """Run the honest randomizer on a forged (but in-domain) input."""

    forged: int


@dataclass(frozen=True)
class Impersonate:
    """Try to inject messages into a group the attacker is not a member of,
    using a guessed token (rejected by the shuffler with near certainty)."""

    msgs: int = 1


@dataclass(frozen=True)
class CorruptionSet:
    ids: frozenset[int]

    @property
    def k(self) -> int:
        return len(self.ids)


def corrupt_users(n: int, k: int, rng: np.random.Generator) -> CorruptionSet:
    """k distinct uniformly random user ids (1-based)."""
    if not 0 <= k <= n:
        raise ParameterError(f"cannot corrupt {k} of {n} users")
    ids = rng.choice(n, size=k, replace=False) + 1
    return CorruptionSet(frozenset(int(i) for i in ids))


def _authorized_levels(strategy, plan: TreePlan):
    level = getattr(strategy, "level", None)
    if level is None:
        return plan.levels
    return [lp for lp in plan.levels if lp.r == level]


def malicious_envelopes(
    strategy, user_id: int, plan: TreePlan, tokens: TokenTable, rng, x: int = 0
) -> list[Envelope]:
    """One corrupted user's full output for a run.

    The user only ever addresses tokens it is authorized for — one per
    level, determined by its own group membership — except Impersonate,
    which fabricates a guess for the victim's token. ``x`` is the user's
    true input, consulted only by the noise-dropping strategy.
    """
    base = plan.base

    if isinstance(strategy, Impersonate):
        guess = int(rng.integers(0, 1 << 63, dtype=np.int64))
        payloads = np.ones(strategy.msgs, dtype=np.int64)
        return [Envelope(guess, payloads)]

    out = []
    if isinstance(strategy, (FloodCount, FloodSum, FloodHist)):
        for lp in _authorized_levels(strategy, plan):
            tok = tokens.token(lp.r, plan.group_of(user_id, lp.r))
            if isinstance(strategy, FloodCount):
                payloads = np.full(
                    strategy.msgs_per_level, strategy.sign, dtype=np.int64
                )
            elif isinstance(strategy, FloodSum):
                if not isinstance(base, SumProtocol):
                    raise ParameterError("FloodSum needs the sum protocol")
                payloads = np.full(
                    strategy.msgs_per_level,
                    strategy.value % base.modulus,
                    dtype=np.int64,
                )
            else:
                if not isinstance(base, (HistProtocol, RangeTreeProtocol)):
                    raise ParameterError("FloodHist needs a binned protocol")
                payloads = np.tile(
                    np.arange(1, base.bins + 1, dtype=np.int64),
                    strategy.msgs_per_bin,
                )
            out.append(Envelope(tok.id, payloads))
        return out

    if isinstance(strategy, DropNoise):
        for lp in plan.levels:
            tok = tokens.token(lp.r, plan.group_of(user_id, lp.r))
            # At epsilon = inf the randomizer adds no noise tokens.
            payloads = base.randomize(x, math.inf, 1, rng)
            out.append(Envelope(tok.id, payloads))
        return out

    if isinstance(strategy, AlterInput):
        forged = np.asarray([strategy.forged], dtype=np.int64)
        check_domain(plan.query, forged)
        for lp in plan.levels:
            tok = tokens.token(lp.r, plan.group_of(user_id, lp.r))
            payloads = base.randomize(
                strategy.forged, lp.budget.epsilon, lp.group_size, rng
            )
            out.append(Envelope(tok.id, payloads))
        return out

    raise ParameterError(f"unknown attack strategy {strategy!r}")
