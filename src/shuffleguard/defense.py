"""Defended protocol variants: budget plans, detection, and recovery.

Users are arranged in a hierarchy of contiguous groups. Every group at
every level submits to its own shuffler and gets an independent estimate of
its subgroup aggregate. Because the queries are union-preserving, a
parent's estimate must be close to the sum of its children's; a node whose
estimate is out of range (bottom level) or inconsistent with its children
(upper levels) is marked invalid and recovered from below, which bounds the
damage any flooding attacker can do to the published top-level answer.

A level is held as arrays throughout: ``tally_all`` draws each level's
honest traffic as one ``(num_groups, bins)`` tally (one
``base.tally_levels`` call over the plan's levels), and ``detect`` flags
and recovers the whole tree from one estimate array per level, testing
the bottom level against its threshold with ``queries.within_range``.
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

``make_plan`` builds every plan: a variant gives only its group sizes
and its budget share, and the rules stated in its docstring do the rest.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructureError
from .protocols import BaseProtocol, PrivacyBudget, unit_counts
# dis_to_range is unused here. It stays importable from this module only
# because the benchmark's traced replay (bench/tracing.py) wraps
# ``defense.dis_to_range``, until that replay stops (ROADMAP item 4 step 2).
from .queries import Query, dis_to_range, within_range  # noqa: F401
from .runtime import Envelope, TokenTable


class Variant(enum.Enum):
    BASE = "base"
    SUSDP = "susdp"
    BSDP = "bsdp"
    HSDP = "hsdp"
    OHSDP = "ohsdp"


@dataclass(frozen=True)
class LevelPlan:
    """Parameters of one hierarchy level (r is 1-based, bottom first);
    ``p`` is the DLap parameter of each group's noise."""

    r: int
    group_size: int
    num_groups: int
    budget: PrivacyBudget
    theta: int
    p: float


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

    def node_at(self, index: int) -> tuple[int, int] | None:
        """``nodes()[index]`` for a 0-based index >= 0, in O(levels), or
        None past the last node."""
        for lp in self.levels:
            if index < lp.num_groups:
                return lp.r, index + 1
            index -= lp.num_groups
        return None

    @property
    def num_shufflers(self) -> int:
        return sum(lp.num_groups for lp in self.levels)

    @property
    def token_bits(self) -> int:
        """Information-theoretic cost of naming a shuffler in each message."""
        return max(1, math.ceil(math.log2(self.num_shufflers)))


def make_plan(
    variant: Variant, base: BaseProtocol, n, epsilon, delta, beta,
    lam: int = 1, k_hat: int = 1,
) -> TreePlan:
    """The defense plan of ``variant`` over n users.

    A variant gives its group sizes, level i (bottom first) having groups
    of ``sizes[i]``, and its budget share:

    - base: one group of n, no detection (the baseline).
    - susdp: every user is their own group; flagged users are zeroed.
    - bsdp: three levels of sizes 1, sqrt(n), n with an even three-way
      split, each level above the bottom discounted by (m - 1)/m for
      its group size m.
    - hsdp: a binary tree over single users, log n lower levels plus the
      root. Half the budget goes to the root; the rest splits evenly
      across the lower levels, each level above the bottom discounted by
      (m - 1)/m to absorb one silent noise-dropper.
    - ohsdp: the hsdp tree with bottom groups widened to lam users. With
      a public corruption bound k_hat > 1, every level's budget is
      discounted by (c - k_hat)/c for its group size c, so that privacy
      survives k_hat silent noise-droppers per group. Requires
      lam > 2*k_hat: each bottom group must keep an honest majority.
      With lam = n the plan is one group, the raw base protocol at the
      full budget.

    Only ohsdp reads ``lam`` and ``k_hat``; base records lam = n and
    k_hat = 0, and susdp, bsdp and hsdp record 1 and 1.

    A one-level plan spends the whole budget, and its groups split beta
    evenly. Otherwise level i spends ``share(epsilon, i)`` and
    ``share(delta, i)``; the top level takes beta/2, and each lower node
    beta / (2 * the number of lower nodes). Level i's noise parameter p
    and threshold theta are ``base.law(epsilon_i, beta_i)``, the one
    place a level's budget becomes its noise: p is stored on the level,
    and the samplers read it there.

    Neighbours are replace-one: two datasets of n users that differ in
    one user's value. Each level's noise is calibrated to epsilon_i for
    the query's sensitivity under it, and what a level spends is:

    - count: epsilon_i (one bin moves by 1);
    - sum: epsilon_i, at sensitivity U (the sum moves by up to U);
    - hist: 2 epsilon_i, since every value raises a bin (0 included), so
      a replacement moves two bins by 1 each;
    - range: up to 2 (L - 1) epsilon_i / L over its L tree levels, whose
      noise is calibrated to epsilon_i / L each: two bins move at every
      tree level but the root. That is 1.6 epsilon_i at U = 15.
    """
    share = None
    if variant is Variant.BASE:
        sizes, lam, k_hat = [n], n, 0
    elif variant is Variant.SUSDP:
        if n < 1:
            raise ParameterError("need at least one user")
        sizes, lam, k_hat = [1], 1, 1
    elif variant is Variant.BSDP:
        if n < 4:
            # Below sqrt(n) = 2 the middle level is the bottom one again,
            # and its budget share (s - 1)/s is 0.
            raise ParameterError(
                f"bsdp needs n >= 4 (sqrt(n) >= 2), got n={n}"
            )
        s = math.isqrt(n)
        if s * s != n:
            raise ParameterError(f"n={n} must be a perfect square")
        sizes, lam, k_hat = [1, s, n], 1, 1

        def share(x, i):
            m = sizes[i]
            return x / 3 if i == 0 else x / 3 * (m - 1) / m
    elif variant is Variant.HSDP:
        if n < 1 or n & (n - 1):
            raise ParameterError(f"n={n} must be a power of two")
        logn = n.bit_length() - 1
        sizes, lam, k_hat = [1 << r for r in range(logn)] + [n], 1, 1

        def share(x, i):
            m = sizes[i]
            if i == logn:
                return x / 2 * (m - 1) / m
            f = 1.0 if i == 0 else (m - 1) / m
            return x / (2 * logn) * f
    else:  # ohsdp
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
        sizes = [lam << r for r in range(big_l - 1)] + [n]

        def share(x, i):
            c = sizes[i]
            if k_hat >= 2:
                f = (c - k_hat) / c
            elif i == big_l - 1:
                f = (n - 1) / n
            else:
                f = 1.0 if i == 0 else 1 - 2.0 ** -i
            return x / (2 if i == big_l - 1 else 2 * big_l) * f

    total = PrivacyBudget(epsilon, delta, beta)
    top = len(sizes) - 1
    lower = sum(n // m for m in sizes[:-1])
    levels = []
    for i, m in enumerate(sizes):
        if top == 0:
            budget = PrivacyBudget(
                total.epsilon, total.delta, total.beta / (n // m)
            )
        else:
            budget = PrivacyBudget(
                share(total.epsilon, i), share(total.delta, i),
                total.beta / 2 if i == top else total.beta / (2 * lower),
            )
        p, theta = base.law(budget.epsilon, budget.beta)
        levels.append(LevelPlan(
            r=i + 1, group_size=m, num_groups=n // m, budget=budget,
            theta=theta, p=p,
        ))
    return TreePlan(variant, base, n, lam, k_hat, total, tuple(levels))


# ---------------------------------------------------------------------------
# randomization


def tally_all(
    plan: TreePlan, xs: np.ndarray, rng, honest: np.ndarray
) -> tuple[list[np.ndarray], int]:
    """Every level's honest tally, bottom first, and the total honest
    message count (for the per-user communication metric). ``honest`` is
    the bool mask of the users who randomize their input.

    Each tally is the int64 ``(num_groups, bins)`` array of
    ``BaseProtocol.tally_levels``, which draws the plan's levels in one
    call; no payload is materialized.
    """
    return plan.base.tally_levels(xs, plan.levels, rng, honest)


def randomize_all(
    plan: TreePlan, xs: np.ndarray, tokens: TokenTable, rng, honest: np.ndarray
) -> tuple[list[Envelope], int]:
    """The message-level form of ``tally_all``: the same draws as one
    envelope per tree node, level by level, plus the honest message count."""
    envelopes = []
    total = 0
    for lp, ids in zip(plan.levels, tokens.levels):
        groups, count = plan.base.randomize_level(xs, lp, rng, honest)
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
    from the attainable output range than the level's noise threshold
    (one ``queries.within_range`` test of the whole level);
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
        valid = within_range(q, bottom.group_size, levels[0], bottom.theta)
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
    if q.scalar:
        out = int(out[0])
    return out, DetectionReport(flagged=flagged)


def analyze(plan: TreePlan, shuffled: dict) -> tuple:
    """``detect`` over released multisets: the message-level analyzer.

    ``shuffled`` maps each (level, group) node to its released payload
    multiset; the nodes' ``plan.base.fold`` rows (each payload counted
    once), which leave out malformed payloads as ``run_trial`` does, are
    finished in one call.
    """
    nodes = plan.nodes()
    missing = [node for node in nodes if node not in shuffled]
    if missing:
        raise StructureError(
            f"missing shuffled multiset for node {missing[0]}"
        )
    base = plan.base
    est = base.finish(np.stack([
        base.fold(shuffled[nd], unit_counts(shuffled[nd]))[0] for nd in nodes
    ]))
    sizes = [lp.num_groups for lp in plan.levels]
    return detect(plan, np.split(est, np.cumsum(sizes)[:-1]))
