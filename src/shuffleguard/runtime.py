"""Simulated anonymous channels: token-authorized shufflers.

Every tree node (level, group) owns a shuffler guarded by a secret 64-bit
token. Users learn only the tokens of the groups they belong to, so a
corrupted user cannot place messages in any other group's aggregate; a
guessed token matches no shuffler and is rejected. After all submissions,
each shuffler releases the multiset of its accepted payloads with the
tokens stripped.

Every analyzer is a symmetric fold over that multiset, so no order it
could observe needs simulating, and a trial keeps only each level's fold
(see ``harness.run_trial``). It holds no tokens: ``adversary.sends``
addresses a corrupted user's traffic by tree node, with the same law.

The message-level form stays for tests and tracing: ``provision``
draws a ``TokenTable`` (one int64 id array per level), and its
``make_inboxes`` gives one ``ShufflerInbox`` per node, which accepts
``Envelope``s (one sender's whole payload array for one shuffler)
bearing its token and releases its payloads in arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ShufflerToken:
    """Secret capability for one shuffler; unguessable, unique per node."""

    id: int


@dataclass(frozen=True)
class Envelope:
    """One sender's payload batch addressed to a shuffler by token id."""

    token: int
    payloads: np.ndarray


@dataclass
class ShufflerInbox:
    token: ShufflerToken
    accepted: list = field(default_factory=list)
    rejected_count: int = 0

    def submit(self, e: Envelope) -> bool:
        """Accept iff the envelope carries this shuffler's token."""
        if e.token != self.token.id:
            self.rejected_count += int(e.payloads.size)
            return False
        self.accepted.append(e.payloads)
        return True

    @property
    def accepted_count(self) -> int:
        return sum(int(a.size) for a in self.accepted)

    def shuffle(self, rng: np.random.Generator | None = None) -> np.ndarray:
        """The multiset of accepted payloads, tokens stripped, in arrival order.

        ``rng`` is accepted and not used, so that callers which pass a
        generator (``bench/tracing.py`` does) keep working; no analyzer
        can observe message order, so none is drawn.
        """
        if not self.accepted:
            return np.zeros(0, dtype=np.int64)
        if len(self.accepted) == 1:
            return self.accepted[0]
        return np.concatenate(self.accepted)


class TokenTable:
    """The provisioned shuffler tokens of one run, one id array per level.

    ``ids`` holds every token id, level by level and group by group
    within a level; ``levels[r - 1][g - 1]`` is the id of node (r, g).
    """

    def __init__(self, level_sizes, rng: np.random.Generator):
        starts = np.cumsum([0, *level_sizes])
        while True:  # one draw, redrawn whole on a duplicate id
            ids = rng.integers(0, 1 << 63, size=starts[-1], dtype=np.int64)
            ordered = np.sort(ids)
            if not (ordered[1:] == ordered[:-1]).any():
                break
        self.ids = ids
        self.levels = np.split(ids, starts[1:-1])

    def __len__(self) -> int:
        return int(self.ids.size)

    def make_inboxes(self) -> dict[tuple[int, int], ShufflerInbox]:
        return {
            (r, g): ShufflerInbox(ShufflerToken(tid))
            for r, ids in enumerate(self.levels, start=1)
            for g, tid in enumerate(ids.tolist(), start=1)
        }


def provision(plan, rng: np.random.Generator) -> TokenTable:
    """Fresh random tokens for every tree node of a plan."""
    return TokenTable([lp.num_groups for lp in plan.levels], rng)
