"""Simulated anonymous channels: token-authorized shufflers.

Every tree node (level, group) owns a shuffler guarded by a secret 64-bit
token. Users learn only the tokens of the groups they belong to, so a
corrupted user cannot place messages in any other group's aggregate; a
guessed token matches no shuffler and is rejected. After all submissions,
each shuffler releases the multiset of its accepted payloads with the
tokens stripped.

Every analyzer is a symmetric fold over that multiset, so no order it
could observe needs simulating, and a trial keeps only each level's fold
(see ``harness.run_trial``). ``TokenTable`` therefore holds the tokens of
one run as one int64 id array per level and finds the node of a token id
by binary search in a sorted copy.

The message-level form stays for tests and tracing: ``make_inboxes``
gives one ``ShufflerInbox`` per node, which accepts ``Envelope``s (one
sender's whole payload array for one shuffler) bearing its token and
releases its payloads in arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ShufflerToken:
    """Secret capability for one shuffler; unguessable, unique per node."""

    id: int
    level: int
    group: int


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
            order = np.argsort(ids)
            ordered = ids[order]
            if not (ordered[1:] == ordered[:-1]).any():
                break
        self.ids = ids
        self.levels = np.split(ids, starts[1:-1])
        self._starts = starts
        self._order = order
        self._sorted = ordered

    def __len__(self) -> int:
        return int(self.ids.size)

    def token(self, level: int, group: int) -> ShufflerToken:
        tid = int(self.levels[level - 1][group - 1])
        return ShufflerToken(tid, level, group)

    def node_of(self, token_id: int) -> tuple[int, int] | None:
        """The (level, group) whose token is ``token_id``, or None."""
        if not 0 <= token_id < 1 << 63:
            return None
        i = int(np.searchsorted(self._sorted, token_id))
        if i == self._sorted.size or self._sorted[i] != token_id:
            return None
        flat = int(self._order[i])
        level = int(np.searchsorted(self._starts, flat, side="right"))
        return level, flat - int(self._starts[level - 1]) + 1

    def make_inboxes(self) -> dict[tuple[int, int], ShufflerInbox]:
        return {
            (r, g): ShufflerInbox(ShufflerToken(tid, r, g))
            for r, ids in enumerate(self.levels, start=1)
            for g, tid in enumerate(ids.tolist(), start=1)
        }


def provision(plan, rng: np.random.Generator) -> TokenTable:
    """Fresh random tokens for every tree node of a plan."""
    return TokenTable([lp.num_groups for lp in plan.levels], rng)
