"""Defended protocol variants: budget plans, detection, and recovery.

Users are arranged in a hierarchy of contiguous groups. Every group at
every level submits to its own shuffler and gets an independent estimate of
its subgroup aggregate. Because the queries are union-preserving, a
parent's estimate must be close to the sum of its children's; a node whose
estimate is out of range (bottom level) or inconsistent with its children
(upper levels) is marked invalid and recovered from below, which bounds the
damage any flooding attacker can do to the published top-level answer.

A level is held as arrays throughout: ``tally_all`` draws each level's
honest traffic as one ``(num_groups, bins)`` tally, and ``detect`` flags
and recovers the whole tree from one estimate array per level.
``randomize_all`` and ``analyze`` are the message-level forms of the two
(envelopes in, released multisets out) and share their draws and their
detector.

Variants:
  - base:  the raw protocol, one group of n, no detection (baseline).
  - susdp: every user is their own group; flagged users are zeroed.
  - bsdp:  three levels of sizes 1, sqrt(n), n.
  - hsdp:  a binary tree over single users (log n + 1 levels).
  - ohsdp: hsdp with the bottom |group| raised to lambda, trading
           worst-case dropped-group error for far fewer shufflers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructureError
from .protocols import BaseProtocol, PrivacyBudget
from .queries import Query, QueryKind, dis_to_range
from .runtime import Envelope, TokenTable


class Variant(enum.Enum):
    BASE = "base"
    SUSDP = "susdp"
    BSDP = "bsdp"
    HSDP = "hsdp"
    OHSDP = "ohsdp"


@dataclass(frozen=True)
class LevelPlan:
    """Parameters of one hierarchy level (r is 1-based, bottom first)."""

    r: int
    group_size: int
    num_groups: int
    budget: PrivacyBudget
    theta: int


@dataclass(frozen=True)
class TreePlan:
    """The full defense plan: levels, budgets, thresholds, and geometry."""

    variant: Variant
    base: BaseProtocol
    n: int
    lam: int
    k_hat: int
    total: PrivacyBudget
    levels: tuple[LevelPlan, ...]

    def __post_init__(self):
        slack = 1e-9
        if sum(lp.budget.epsilon for lp in self.levels) > self.total.epsilon + slack:
            raise ParameterError("per-level epsilon split exceeds the budget")
        if sum(lp.budget.delta for lp in self.levels) > self.total.delta + slack:
            raise ParameterError("per-level delta split exceeds the budget")

    @property
    def query(self) -> Query:
        return self.base.query

    @property
    def detects(self) -> bool:
        """Whether any anomaly detection runs (false for the raw baseline)."""
        return self.variant is not Variant.BASE and not (
            self.variant is Variant.OHSDP and len(self.levels) == 1
        )

    def group_of(self, i: int, r: int) -> int:
        """1-based group of user i at level r."""
        return (i - 1) // self.levels[r - 1].group_size + 1

    def num_children(self, r: int) -> int:
        return self.levels[r - 1].group_size // self.levels[r - 2].group_size

    def pair_threshold(self, r: int) -> float:
        """Detection bound on |parent - sum of children| at level r."""
        return (
            self.num_children(r) * self.levels[r - 2].theta
            + self.levels[r - 1].theta
        )

    def nodes(self) -> list[tuple[int, int]]:
        return [
            (lp.r, g)
            for lp in self.levels
            for g in range(1, lp.num_groups + 1)
        ]

    @property
    def num_shufflers(self) -> int:
        return sum(lp.num_groups for lp in self.levels)

    @property
    def token_bits(self) -> int:
        """Information-theoretic cost of naming a shuffler in each message."""
        return max(1, math.ceil(math.log2(self.num_shufflers)))


def _level(r, size, n, eps, delta, beta, base) -> LevelPlan:
    return LevelPlan(
        r=r,
        group_size=size,
        num_groups=n // size,
        budget=PrivacyBudget(eps, delta, beta),
        theta=base.error_bound(eps, beta),
    )


def plan_base(base: BaseProtocol, n, epsilon, delta, beta) -> TreePlan:
    """The undefended protocol: one shuffler, full budget, no detection."""
    lvl = _level(1, n, n, epsilon, delta, beta, base)
    return TreePlan(Variant.BASE, base, n, n, 0, PrivacyBudget(epsilon, delta, beta), (lvl,))


def plan_susdp(base: BaseProtocol, n, epsilon, delta, beta) -> TreePlan:
    """Single-user groups at full budget; thresholds take a beta/n share."""
    if n < 1:
        raise ParameterError("need at least one user")
    lvl = _level(1, 1, n, epsilon, delta, beta / n, base)
    return TreePlan(Variant.SUSDP, base, n, 1, 1, PrivacyBudget(epsilon, delta, beta), (lvl,))


def plan_bsdp(base: BaseProtocol, n, epsilon, delta, beta) -> TreePlan:
    """Three levels of sizes 1, sqrt(n), n with an even three-way eps split."""
    s = math.isqrt(n)
    if s * s != n:
        raise ParameterError(f"n={n} must be a perfect square")
    beta_low = beta / (2 * (s + n))
    levels = (
        _level(1, 1, n, epsilon / 3, delta / 3, beta_low, base),
        _level(
            2, s, n,
            epsilon / 3 * (s - 1) / s, delta / 3 * (s - 1) / s,
            beta_low, base,
        ),
        _level(
            3, n, n,
            epsilon / 3 * (n - 1) / n, delta / 3 * (n - 1) / n,
            beta / 2, base,
        ),
    )
    return TreePlan(Variant.BSDP, base, n, 1, 1, PrivacyBudget(epsilon, delta, beta), levels)


def plan_hsdp(base: BaseProtocol, n, epsilon, delta, beta) -> TreePlan:
    """A binary tree over single users: log n lower levels plus the root.

    Half the budget goes to the root; the rest splits evenly across the
    lower levels, with each level above the bottom discounted by
    (m-1)/m (m = its group size) to absorb one silent noise-dropper.
    """
    if n < 1 or n & (n - 1):
        raise ParameterError(f"n={n} must be a power of two")
    if n == 1:
        return TreePlan(
            Variant.HSDP, base, 1, 1, 1, PrivacyBudget(epsilon, delta, beta),
            (_level(1, 1, 1, epsilon, delta, beta, base),),
        )
    logn = n.bit_length() - 1
    beta_low = beta / (2 * (2 * n - 2))
    levels = []
    for r in range(1, logn + 1):
        m = 1 << (r - 1)
        f = 1.0 if r == 1 else (m - 1) / m
        levels.append(
            _level(
                r, m, n,
                epsilon / (2 * logn) * f, delta / (2 * logn) * f,
                beta_low, base,
            )
        )
    levels.append(
        _level(
            logn + 1, n, n,
            epsilon / 2 * (n - 1) / n, delta / 2 * (n - 1) / n,
            beta / 2, base,
        )
    )
    return TreePlan(Variant.HSDP, base, n, 1, 1, PrivacyBudget(epsilon, delta, beta), tuple(levels))


def plan_ohsdp(
    base: BaseProtocol, n, epsilon, delta, beta, lam: int, k_hat: int = 1
) -> TreePlan:
    """The hsdp tree with bottom groups widened to lam users.

    With a public corruption bound k_hat > 1, every level's budget is
    discounted by (c - k_hat)/c for its group size c, so that privacy
    survives k_hat silent noise-droppers per group. Requires lam > 2*k_hat:
    each bottom group must keep an honest majority.
    """
    if n < 1 or lam < 1 or n % lam:
        raise ParameterError(f"lam={lam} must divide n={n}")
    width = n // lam
    if width & (width - 1):
        raise ParameterError(f"n/lam={width} must be a power of two")
    if k_hat >= 1 and lam <= 2 * k_hat:
        raise ParameterError(
            f"bottom group size {lam} needs an honest majority over "
            f"k_hat={k_hat} attackers (lam > 2*k_hat)"
        )
    big_l = width.bit_length()  # log2(n/lam) + 1
    if big_l == 1:
        # Degenerate single-group plan: behaves exactly like the raw
        # base protocol at the full budget.
        lvl = _level(1, n, n, epsilon, delta, beta, base)
        return TreePlan(Variant.OHSDP, base, n, lam, k_hat, PrivacyBudget(epsilon, delta, beta), (lvl,))

    def discount(c: int, default: float) -> float:
        if k_hat >= 2:
            return (c - k_hat) / c
        return default

    beta_low = beta / (2 * (2 * width - 2))
    levels = []
    for r in range(1, big_l):
        c = lam << (r - 1)
        f = discount(c, 1.0 if r == 1 else (1 - 2.0 ** -(r - 1)))
        levels.append(
            _level(
                r, c, n,
                epsilon / (2 * big_l) * f, delta / (2 * big_l) * f,
                beta_low, base,
            )
        )
    f_top = discount(n, (n - 1) / n)
    levels.append(
        _level(
            big_l, n, n,
            epsilon / 2 * f_top, delta / 2 * f_top,
            beta / 2, base,
        )
    )
    return TreePlan(Variant.OHSDP, base, n, lam, k_hat, PrivacyBudget(epsilon, delta, beta), tuple(levels))


def make_plan(
    variant: Variant, base, n, epsilon, delta, beta, lam=None, k_hat=1
) -> TreePlan:
    if variant is Variant.BASE:
        return plan_base(base, n, epsilon, delta, beta)
    if variant is Variant.SUSDP:
        return plan_susdp(base, n, epsilon, delta, beta)
    if variant is Variant.BSDP:
        return plan_bsdp(base, n, epsilon, delta, beta)
    if variant is Variant.HSDP:
        return plan_hsdp(base, n, epsilon, delta, beta)
    return plan_ohsdp(base, n, epsilon, delta, beta, lam or 1, k_hat)


# ---------------------------------------------------------------------------
# randomization


def tally_all(
    plan: TreePlan, xs: np.ndarray, rng, honest=None
) -> tuple[list[np.ndarray], int]:
    """Every level's honest tally, bottom first, and the total honest
    message count (for the per-user communication metric).

    Each tally is the int64 ``(num_groups, bins)`` array of
    ``BaseProtocol.tally_level``; no payload is materialized.
    """
    tallies = []
    total = 0
    for lp in plan.levels:
        tally, count = plan.base.tally_level(
            xs, lp.budget.epsilon, lp.group_size, rng, honest=honest
        )
        tallies.append(tally)
        total += count
    return tallies, total


def randomize_all(
    plan: TreePlan, xs: np.ndarray, tokens: TokenTable, rng, honest=None
) -> tuple[list[Envelope], int]:
    """The message-level form of ``tally_all``: the same draws as one
    envelope per tree node, level by level, plus the honest message count."""
    envelopes = []
    total = 0
    for lp, ids in zip(plan.levels, tokens.levels):
        groups, count = plan.base.randomize_level(
            xs, lp.budget.epsilon, lp.group_size, rng, honest=honest
        )
        total += count
        envelopes.extend(map(Envelope, ids.tolist(), groups))
    return envelopes, total


# ---------------------------------------------------------------------------
# analysis


@dataclass
class DetectionReport:
    flagged: list[tuple[int, int]]

    @property
    def attack_detected(self) -> bool:
        return bool(self.flagged)


def detect(plan: TreePlan, levels: list[np.ndarray]) -> tuple:
    """Detect and recover over the full tree, a level at a time.

    ``levels`` holds each level's group estimates, bottom first, as one
    int64 array of shape ``(num_groups, bins)`` (``bins`` = 1 for count
    and sum). Bottom groups are flagged when their estimate is farther
    from the attainable output range than the level's noise threshold;
    upper groups when any child was flagged or when max |estimate - sum
    of children| exceeds the combined thresholds. Flagged bottom groups
    recover to zero, flagged upper groups to the sum of their children's
    recovered values. The published answer is the sum of the top level's
    recovered values (an int for scalar queries, an int64 vector
    otherwise). Returns (answer, DetectionReport), with flagged nodes
    bottom level first.
    """
    q = plan.query
    bins = q.num_bins
    bottom = plan.levels[0]
    valid = np.ones(bottom.num_groups, dtype=bool)
    if plan.detects:
        valid = dis_to_range(q, bottom.group_size, levels[0]) <= bottom.theta
    rec = np.where(valid[:, None], levels[0], 0)
    valids = [valid]
    for lp, level in zip(plan.levels[1:], levels[1:]):
        c = plan.num_children(lp.r)
        child_sum = rec.reshape(lp.num_groups, c, bins).sum(axis=1)
        valid = valid.reshape(lp.num_groups, c).all(axis=1) & (
            np.abs(level - child_sum).max(axis=1) <= plan.pair_threshold(lp.r)
        )
        rec = np.where(valid[:, None], level, child_sum)
        valids.append(valid)

    flagged = [
        (lp.r, int(g) + 1)
        for lp, ok in zip(plan.levels, valids)
        for g in np.flatnonzero(~ok)
    ]
    out = rec.sum(axis=0)
    if q.kind in (QueryKind.COUNT, QueryKind.SUM):
        out = int(out[0])
    return out, DetectionReport(flagged=flagged)


def analyze(plan: TreePlan, shuffled: dict) -> tuple:
    """``detect`` over released multisets: the message-level analyzer.

    ``shuffled`` maps each (level, group) node to its released payload
    multiset; each node's estimate is ``plan.base.analyze`` of it.
    """
    nodes = plan.nodes()
    missing = [node for node in nodes if node not in shuffled]
    if missing:
        raise StructureError(
            f"missing shuffled multiset for node {missing[0]}"
        )
    est = np.array(
        [plan.base.analyze(shuffled[node]) for node in nodes], dtype=np.int64
    ).reshape(len(nodes), plan.query.num_bins)
    sizes = [lp.num_groups for lp in plan.levels]
    return detect(plan, np.split(est, np.cumsum(sizes)[:-1]))
