"""Plan fixture: every field of every level of a grid of defense plans.

Each plan of the grid below (or the error that building it raises) must
equal the record stored in ``plans.json`` exactly, floats included. The
grid holds the group sizes whose budget shares round differently under
different float expressions (bsdp at n = 9, 25, 100, 144; ohsdp at
lam = 3, 6, 12), which the golden matrix, at n = 256 only, cannot see.

Rewrite the fixture only when a change of the plans is intended:

    PYTHONPATH=src python3 tests/test_plans.py
"""

import json
from pathlib import Path

import pytest

from shuffleguard.defense import Variant, make_plan
from shuffleguard.errors import ShuffleguardError
from shuffleguard.protocols import make_base
from shuffleguard.queries import Query, QueryKind

PLANS = Path(__file__).with_name("plans.json")

QUERIES = (
    Query(QueryKind.COUNT), Query(QueryKind.SUM, 7),
    Query(QueryKind.HISTOGRAM, 7),
)
EPSILONS = (0.3, 1.0, 4.0)
BETAS = (0.1, 1 / 3)

#: (variant, n, lam, k_hat) shapes; lam and k_hat matter for ohsdp only,
#: whose shapes have n / lam = 16 or 1, and two that are rejected.
SHAPES = (
    [("base", n, 1, 1) for n in (1, 9, 64)]
    + [("susdp", n, 1, 1) for n in (1, 9, 64)]
    + [("bsdp", n, 1, 1) for n in (9, 25, 100, 144, 256)]
    + [("hsdp", n, 1, 1) for n in (1, 2, 64)]
    + [
        ("ohsdp", n, lam, k_hat)
        for n, lam in (
            (16, 1), (48, 3), (64, 4), (96, 6), (192, 12), (48, 48),
            (64, 64), (64, 3), (48, 4),
        )
        for k_hat in (0, 1, 2, 3)
    ]
)


def cases():
    """Case name -> make_plan arguments, over the whole grid."""
    out = {}
    for variant, n, lam, k_hat in SHAPES:
        for q in QUERIES:
            for eps in EPSILONS:
                for delta in (n ** -2.0, 0.01):
                    for beta in BETAS:
                        name = (
                            f"{variant}/{q.kind.value}/n={n}/lam={lam}/"
                            f"khat={k_hat}/eps={eps!r}/delta={delta!r}/"
                            f"beta={beta!r}"
                        )
                        out[name] = (
                            variant, q, n, eps, delta, beta, lam, k_hat
                        )
    return out


def record(variant, q, n, eps, delta, beta, lam, k_hat):
    """The plan's geometry, total and per-level fields, or the error."""
    try:
        plan = make_plan(
            Variant(variant), make_base(q, n), n, eps, delta, beta,
            lam=lam, k_hat=k_hat,
        )
    except ShuffleguardError as exc:
        return f"{type(exc).__name__}: {exc}"
    t = plan.total
    return {
        "plan": [plan.variant.value, plan.n, plan.lam, plan.k_hat,
                 t.epsilon, t.delta, t.beta],
        "levels": [
            [lp.r, lp.group_size, lp.num_groups, lp.budget.epsilon,
             lp.budget.delta, lp.budget.beta, lp.theta]
            for lp in plan.levels
        ],
    }


def records(variant: str) -> dict:
    return {
        name: record(*args)
        for name, args in cases().items()
        if args[0] == variant
    }


@pytest.fixture(scope="module")
def stored() -> dict:
    return json.loads(PLANS.read_text())


@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_plans_match_fixture(variant, stored):
    want = {k: v for k, v in stored.items() if k.startswith(f"{variant}/")}
    assert records(variant) == want


if __name__ == "__main__":
    out = {}
    for v in Variant:
        out.update(records(v.value))
    PLANS.write_text(
        "{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v)}" for k, v in out.items()
        ) + "\n}\n"
    )
