"""The exact accountant (``accountant.py``) against the planned budgets,
and the simulator's noise against the accountant's law.

Control: with every member honest, a group's noise is DLap(p) at the
level's p, so the exact epsilon of each level is at most its planned
epsilon_i, and within 1% of it. Sensitivity is the replace-one shift
the plan is calibrated for: 1 for count, U for sum.

Law: the noise ``tally_levels`` adds to a group of m users with h honest
members is, per bin, ``pair_pmf(h/m, p)`` at its level's p, and the
honest message count has the law's mean. The law test computes p from
the level's epsilon (``law_p``); that each level stores that same p,
which its samplers read, is a test of its own.
"""

import math

import numpy as np
import pytest
from scipy import stats

from accountant import level_epsilon, pair_pmf
from shuffleguard.defense import Variant, make_plan
from shuffleguard.harness import auto_lambda
from shuffleguard.protocols import make_base
from shuffleguard.queries import Query, QueryKind, eval_query

N = 256
DELTA = N ** -2.0


@pytest.mark.parametrize("variant", ["hsdp", "bsdp", "ohsdp"])
@pytest.mark.parametrize(
    "query,shift",
    [(Query(QueryKind.COUNT), 1), (Query(QueryKind.SUM, 7), 7)],
    ids=["count", "sum"],
)
def test_all_honest_levels_spend_their_planned_epsilon(query, shift, variant):
    plan = make_plan(
        Variant(variant), make_base(query, N), N, 1.0, DELTA, 0.1,
        lam=auto_lambda(N, DELTA), k_hat=1,
    )
    for lp in plan.levels:
        planned = lp.budget.epsilon
        pmf = pair_pmf(1.0, math.exp(-planned / shift))
        exact = level_epsilon(pmf, shift, lp.budget.delta)
        assert 0.99 * planned <= exact <= planned * (1 + 1e-9), (
            f"level {lp.r} (m = {lp.group_size}): exact {exact!r}, "
            f"planned {planned!r}"
        )


# Pre-registered for the law test, before its first run: the trials per
# plan, the most chi-square cells per pooled sample (fewer, so that each
# expects at least 10 draws, on small samples), the family-wise level of
# one plan's chi-square tests (Bonferroni over them), and the largest
# |z|-score of the mean honest message count.
LAW_N = 64
LAW_TRIALS = 300
LAW_CELLS = 50
LAW_ALPHA = 1e-3
LAW_MAX_Z = 5.0
LAW_QUERIES = {
    "count": Query(QueryKind.COUNT),
    "sum": Query(QueryKind.SUM, 7),
    "hist": Query(QueryKind.HISTOGRAM, 7),
    "range": Query(QueryKind.RANGE_TREE, 7),
}
#: (lam, k_hat) per variant. A plan has ``plan.k_hat`` droppers: base
#: records k_hat = 0, the others the value given.
LAW_VARIANTS = {
    "base": (1, 1), "susdp": (1, 1), "bsdp": (1, 1), "hsdp": (1, 1),
    "ohsdp": (8, 2),
}


def law_p(query: Query, epsilon: float) -> float:
    """A level's p: e^-(epsilon/s) for the noise's sensitivity s, which
    is U for sum and, for the token queries, the data tokens of one
    input (1 for count and hist, one per tree level for range)."""
    if query.kind is QueryKind.SUM:
        return math.exp(-epsilon / query.domain_size)
    if query.kind is QueryKind.RANGE_TREE:
        return math.exp(-epsilon / len(query.tree_levels))
    return math.exp(-epsilon)


def law_plan(query: str, variant: str):
    """The plan of the law test for a ``LAW_QUERIES`` key and a
    ``LAW_VARIANTS`` key."""
    lam, k_hat = LAW_VARIANTS[variant]
    return make_plan(
        Variant(variant), make_base(LAW_QUERIES[query], LAW_N), LAW_N, 1.0,
        LAW_N ** -2.0, 0.1, lam=lam, k_hat=k_hat,
    )


def law_cells(pmf: np.ndarray, cells: int) -> np.ndarray:
    """The cell of each support point: runs of consecutive values, each
    of mass at least 1/cells, a short last run joined to the one before."""
    cell = np.empty(pmf.size, dtype=np.int64)
    k, mass = 0, 0.0
    for i, m in enumerate(pmf.tolist()):
        cell[i] = k
        mass += m
        if mass >= 1.0 / cells:
            k, mass = k + 1, 0.0
    if mass:
        cell[cell == k] = k - 1
    return cell


def chi_square_p(residuals: np.ndarray, pmf: np.ndarray) -> float:
    """The chi-square p-value of integer residuals against ``pmf`` on
    -K..K (index K is 0); residuals past K count in the end cells."""
    half = pmf.size // 2
    cell = law_cells(pmf, min(LAW_CELLS, residuals.size // 10))
    observed = np.bincount(
        cell[np.clip(residuals + half, 0, pmf.size - 1)],
        minlength=cell[-1] + 1,
    )
    mass = np.bincount(cell, weights=pmf)
    return stats.chisquare(observed, mass / mass.sum() * residuals.size).pvalue


@pytest.mark.parametrize("variant", list(LAW_VARIANTS))
@pytest.mark.parametrize("query", list(LAW_QUERIES))
def test_tally_noise_has_the_accountants_law(query, variant):
    # Every level of a small plan, k_hat droppers: each group's finished
    # row minus its honest users' true aggregate, pooled by level and
    # honest count h, is chi-squared against pair_pmf(h/m, p).
    q = LAW_QUERIES[query]
    plan = law_plan(query, variant)
    rng = np.random.default_rng(23)
    xs = rng.integers(0, q.max_input + 1, size=LAW_N)
    honest = np.ones(LAW_N, dtype=bool)
    honest[rng.choice(LAW_N, size=plan.k_hat, replace=False)] = False

    truths, hs = [], []
    mean = var = 0.0
    for lp in plan.levels:
        m = lp.group_size
        rows = xs.reshape(-1, m)
        mask = honest.reshape(-1, m)
        truths.append(np.stack([
            np.atleast_1d(eval_query(q, row[ok]))
            for row, ok in zip(rows, mask)
        ]))
        hs.append(mask.sum(axis=1))
        if q.kind is QueryKind.SUM:
            mean += plan.base.shares * honest.sum()
            continue
        # Data tokens, then NB(h/m, p) noise tokens per group, bin and sign.
        mean += np.sum(eval_query(q, xs[honest]))
        p = law_p(q, lp.budget.epsilon)
        for h in hs[-1][hs[-1] > 0]:
            nb = stats.nbinom(h / m, 1.0 - p)
            mean += 2 * q.num_bins * nb.mean()
            var += 2 * q.num_bins * nb.var()

    pooled = {}
    counts = []
    for _ in range(LAW_TRIALS):
        tallies, count = plan.base.tally_levels(xs, plan.levels, rng, honest)
        counts.append(count)
        for lp, tally, truth, h in zip(plan.levels, tallies, truths, hs):
            res = plan.base.finish(tally) - truth
            if q.kind is QueryKind.SUM:  # centred mod q
                half = plan.base.modulus // 2
                res = (res + half) % plan.base.modulus - half
            for hv in np.unique(h):
                pooled.setdefault((lp, int(hv)), []).append(res[h == hv])

    p_values = {}
    for (lp, h), parts in pooled.items():
        res = np.concatenate(parts).reshape(-1)
        if h == 0:  # a group of droppers only: no noise, no data
            assert not res.any(), f"level {lp.r}: noise with h = 0"
            continue
        pmf = pair_pmf(h / lp.group_size, law_p(q, lp.budget.epsilon))
        p_values[lp.r, h] = chi_square_p(res, pmf)
    worst = min(p_values, key=p_values.get)
    assert p_values[worst] >= LAW_ALPHA / len(p_values), (
        f"(level, h) = {worst}: p = {p_values[worst]:.3g} over "
        f"{len(p_values)} tests"
    )
    observed = np.mean(counts)
    message = f"mean honest messages {observed!r}, law {mean!r}"
    if var:
        spread = math.sqrt(var / LAW_TRIALS)
        assert abs(observed - mean) <= LAW_MAX_Z * spread, message
    else:  # sum: a fixed number of shares per honest user
        assert observed == mean, message


@pytest.mark.parametrize("variant", list(LAW_VARIANTS))
@pytest.mark.parametrize("query", list(LAW_QUERIES))
def test_each_level_stores_the_accountants_p(query, variant):
    # The samplers draw at the p that make_plan stores on each level; the
    # law test above computes p with law_p and never reads lp.p, so the
    # two are checked equal here, bit for bit.
    for lp in law_plan(query, variant).levels:
        assert lp.p == law_p(LAW_QUERIES[query], lp.budget.epsilon), lp
