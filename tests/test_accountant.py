"""The exact accountant (``accountant.py``) against the planned budgets.

Control: with every member honest, a group's noise is DLap(p) at the
level's p, so the exact epsilon of each level is at most its planned
epsilon_i, and within 1% of it. Sensitivity is the replace-one shift
the plan is calibrated for: 1 for count, U for sum.
"""

import math

import pytest

from accountant import level_epsilon, pair_pmf
from shuffleguard.defense import Variant, make_plan
from shuffleguard.harness import auto_lambda
from shuffleguard.protocols import make_base
from shuffleguard.queries import Query, QueryKind

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
