"""Simulated anonymous channels: token-authorized shufflers.

Every tree node (level, group) owns a shuffler guarded by a secret 64-bit
token. Users learn only the tokens of the groups they belong to, so a
corrupted user cannot place messages in any other group's aggregate; a
guessed token is rejected on submission. After all submissions, each inbox
releases the multiset of its accepted payloads with the tokens stripped.

Every analyzer is a symmetric fold over that multiset, so no order it
could observe needs simulating: payloads come out in arrival order.

Payloads travel in batches: an Envelope carries one sender's whole payload
array for one shuffler, which keeps desk-scale runs vectorized without
changing what the analyzer can observe.
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
    """The provisioned shuffler tokens of one run, keyed by (level, group)."""

    def __init__(self, nodes: list[tuple[int, int]], rng: np.random.Generator):
        ids = rng.integers(0, 1 << 63, size=len(nodes), dtype=np.int64)
        while np.unique(ids).size < ids.size:
            ids = rng.integers(0, 1 << 63, size=len(nodes), dtype=np.int64)
        self.by_node: dict[tuple[int, int], ShufflerToken] = {
            (r, g): ShufflerToken(tid, r, g)
            for (r, g), tid in zip(nodes, ids.tolist())
        }

    def __len__(self) -> int:
        return len(self.by_node)

    def token(self, level: int, group: int) -> ShufflerToken:
        return self.by_node[(level, group)]

    def make_inboxes(self) -> dict[tuple[int, int], ShufflerInbox]:
        return {node: ShufflerInbox(tok) for node, tok in self.by_node.items()}


def provision(plan, rng: np.random.Generator) -> TokenTable:
    """Fresh random tokens for every tree node of a plan."""
    return TokenTable(plan.nodes(), rng)
