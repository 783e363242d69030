"""Experiment runner: trials, metric aggregation, sweeps, and emission.

A trial is fully determined by (config, seed, trial index): the dataset is
derived from the seed alone (shared by all trials of an experiment), while
provisioning, honest noise, and adversary choices each draw from
independent per-trial streams. A trial holds each tree level as arrays
from provisioning to the published answer (see ``run_trial``). Reported
metrics follow the usual robust-benchmark conventions: per-metric
trimmed means over T trials (dropping the top and bottom 10%) plus the
raw detection rate.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import adversary as adv
from .datasets import gen_dataset, load_csv
from .defense import TreePlan, Variant, detect, make_plan, tally_all
from .errors import ParameterError
from .protocols import make_base
from .queries import (
    Dataset, Query, QueryKind, check_domain, eval_query, value_norm,
)
from .runtime import provision

_KINDS = {
    "count": QueryKind.COUNT,
    "sum": QueryKind.SUM,
    "hist": QueryKind.HISTOGRAM,
    "range": QueryKind.RANGE_TREE,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit-for-bit."""

    query: str = "count"
    u: int = 1
    protocol: str = "ohsdp"
    base: str | None = None
    n: int = 1 << 12
    eps: float | None = None
    delta: float | None = None
    beta: float = 0.1
    lam: int | str = "auto"
    k: int = 0
    k_hat: int | None = None
    attack: str = "none"
    attack_msgs: int | None = None
    dist: str = "unif"
    data: str | None = None
    col: str | int | None = None
    cap: int | None = None
    trials: int = 100
    seed: int = 0
    out: str | None = None
    format: str = "csv"

    @property
    def eps_eff(self) -> float:
        if self.eps is not None:
            return self.eps
        return 4.0 if self.query == "hist" else 1.0

    @property
    def delta_eff(self) -> float:
        return self.delta if self.delta is not None else self.n ** -2.0

    @property
    def k_hat_eff(self) -> int:
        return self.k_hat if self.k_hat is not None else max(1, self.k)

    def make_query(self) -> Query:
        if self.query not in _KINDS:
            raise ParameterError(f"unknown query {self.query!r}")
        if self.query == "sum" and self.u < 1:
            # U is the sum protocol's sensitivity: U = 0 sets no noise scale.
            raise ParameterError(
                f"--u must be at least 1 for sum, got {self.u}"
            )
        return Query(_KINDS[self.query], 1 if self.query == "count" else self.u)


def auto_lambda(n: int, delta: float) -> int:
    """Smallest power of two >= ceil(log2(n) * log2(1/delta)), capped at n."""
    target = max(1, math.ceil(math.log2(max(2, n)) * math.log2(1.0 / delta)))
    lam = 1 << (target - 1).bit_length()
    return min(lam, n)


def resolve_lambda(config: ExperimentConfig) -> int:
    if config.protocol != "ohsdp":
        return 1
    if config.lam == "auto":
        return auto_lambda(config.n, config.delta_eff)
    return int(config.lam)


@dataclass
class TrialResult:
    abs_error: float
    rel_error: float
    msgs_per_user: float
    bits_per_msg: int
    detected: bool
    flagged_nodes: int
    rejected_msgs: int
    wall_time: float


@dataclass
class Summary:
    """Trimmed-mean metrics over an experiment's trials, plus config echo."""

    config: ExperimentConfig
    lam: int
    abs_error: float
    rel_error_pct: float
    msgs_per_user: float
    bits_per_msg: float
    detection_rate: float
    rejected_msgs: float
    mean_wall_time_s: float


def trimmed_mean(values, frac: float = 0.1) -> float:
    """Mean after dropping floor(frac*T) values from each tail."""
    v = np.sort(np.asarray(values, dtype=float))
    cut = int(frac * v.size)
    kept = v[cut : v.size - cut] if cut else v
    return float(kept.mean()) if kept.size else float("nan")


def _pad_to(n: int, values: np.ndarray) -> np.ndarray:
    """Pad with neutral zero users so all tree shapes are well-formed."""
    if values.size > n:
        raise ParameterError(
            f"dataset has {values.size} values, more than n={n}"
        )
    return np.concatenate(
        [values, np.zeros(n - values.size, dtype=np.int64)]
    )


def experiment_dataset(config: ExperimentConfig) -> Dataset:
    q = config.make_query()
    if config.data is not None:
        ds = load_csv(config.data, config.col if config.col is not None else 0,
                      cap=config.cap if config.cap is not None else config.u)
        ds = Dataset(_pad_to(config.n, ds.values))
    else:
        ds = gen_dataset(config.dist, config.n, q.max_input, config.seed)
    check_domain(q, ds.values)
    return ds


def build_plan(config: ExperimentConfig, lam: int | None = None) -> TreePlan:
    q = config.make_query()
    base = make_base(q, config.n, config.base)
    variant = Variant(config.protocol)
    return make_plan(
        variant, base, config.n,
        config.eps_eff, config.delta_eff, config.beta,
        lam=lam if lam is not None else resolve_lambda(config),
        k_hat=config.k_hat_eff,
    )


def make_strategy(config: ExperimentConfig, plan: TreePlan):
    """The attack instance implied by the config's attack flags."""
    if config.attack == "none" or config.k == 0:
        return None
    msgs = config.attack_msgs if config.attack_msgs is not None else config.n
    if config.attack == "flood":
        if config.query == "count":
            return adv.FloodCount(msgs_per_level=msgs, sign=1)
        if config.query == "sum":
            return adv.FloodSum(msgs_per_level=msgs, value=plan.query.domain_size)
        return adv.FloodHist(msgs_per_bin=msgs)
    if config.attack == "drop":
        return adv.DropNoise()
    if config.attack == "alter":
        return adv.AlterInput(forged=plan.query.max_input)
    if config.attack == "impersonate":
        return adv.Impersonate(msgs=msgs)
    raise ParameterError(f"unknown attack {config.attack!r}")


def run_trial(
    config: ExperimentConfig,
    trial_index: int,
    plan: TreePlan | None = None,
    dataset: Dataset | None = None,
) -> TrialResult:
    """One full protocol round: provision, randomize, shuffle, analyze.

    The round of the message-level API (``make_inboxes``,
    ``randomize_all``, ``submit``, ``shuffle``, ``analyze``) with one
    array per level in place of messages, which every analyzer's
    additivity allows: honest traffic is drawn as per-level tallies, each
    adversary envelope is analyzed on its own and added to the row of the
    node its token names, and detection runs on the finished rows.
    Payloads under a token that names no node are rejected and counted.
    """
    start = time.perf_counter()
    if dataset is None:
        dataset = experiment_dataset(config)
    if plan is None:
        plan = build_plan(config)
    q = plan.query
    xs = dataset.values

    ss = np.random.SeedSequence((config.seed, trial_index))
    rng_prov, rng_honest, rng_adv = (
        np.random.default_rng(s) for s in ss.spawn(3)
    )

    tokens = provision(plan, rng_prov)

    strategy = make_strategy(config, plan)
    honest = np.ones(config.n, dtype=bool)
    corrupted = adv.corrupt_users(config.n, config.k, rng_adv)
    if strategy is not None:
        for i in corrupted.ids:
            honest[i - 1] = False

    tallies, honest_msgs = tally_all(plan, xs, rng_honest, honest=honest)
    rejected_msgs = 0
    if strategy is not None:
        for i in sorted(corrupted.ids):
            for e in adv.malicious_envelopes(
                strategy, i, plan, tokens, rng_adv, x=int(xs[i - 1])
            ):
                node = tokens.node_of(e.token)
                if node is None:
                    rejected_msgs += int(e.payloads.size)
                    continue
                r, g = node
                tallies[r - 1][g - 1] += plan.base.analyze(e.payloads)

    estimate, report = detect(plan, [plan.base.finish(t) for t in tallies])

    truth = eval_query(q, xs)
    abs_error = value_norm(q, estimate - truth)
    if q.kind in (QueryKind.COUNT, QueryKind.SUM):
        normalizer = abs(float(truth))
    else:
        normalizer = float(config.n)
    rel_error = abs_error / max(1.0, normalizer)

    return TrialResult(
        abs_error=abs_error,
        rel_error=rel_error,
        msgs_per_user=honest_msgs / config.n,
        bits_per_msg=plan.base.bits_per_msg() + plan.token_bits,
        detected=report.attack_detected,
        flagged_nodes=len(report.flagged),
        rejected_msgs=rejected_msgs,
        wall_time=time.perf_counter() - start,
    )


def run_experiment(config: ExperimentConfig) -> Summary:
    dataset = experiment_dataset(config)
    plan = build_plan(config)
    results = [
        run_trial(config, t, plan=plan, dataset=dataset)
        for t in range(config.trials)
    ]
    return Summary(
        config=config,
        lam=plan.lam,
        abs_error=trimmed_mean([r.abs_error for r in results]),
        rel_error_pct=100.0 * trimmed_mean([r.rel_error for r in results]),
        msgs_per_user=trimmed_mean([r.msgs_per_user for r in results]),
        bits_per_msg=trimmed_mean([r.bits_per_msg for r in results]),
        detection_rate=float(np.mean([r.detected for r in results])),
        rejected_msgs=trimmed_mean([r.rejected_msgs for r in results]),
        mean_wall_time_s=float(np.mean([r.wall_time for r in results])),
    )


_SWEEP_FIELDS = {"lambda": "lam", "k": "k", "eps": "eps", "n": "n"}


def sweep(config: ExperimentConfig, axis: str, values) -> list[Summary]:
    """One experiment per axis value, re-planning each time."""
    if axis not in _SWEEP_FIELDS:
        raise ParameterError(f"unknown sweep axis {axis!r}")
    out = []
    for v in values:
        out.append(run_experiment(replace(config, **{_SWEEP_FIELDS[axis]: v})))
    return out


# ---------------------------------------------------------------------------
# emission

_METRIC_COLS = (
    "rejected_msgs", "abs_error", "rel_error_pct", "msgs_per_user",
    "bits_per_msg", "detection_rate", "mean_wall_time_s",
)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return "" if v is None else str(v)


def summary_row(s: Summary) -> dict:
    row = {f.name: getattr(s.config, f.name) for f in fields(ExperimentConfig)}
    # Echo the values the run resolved, not "auto" or an empty default.
    row["eps"] = s.config.eps_eff
    row["delta"] = s.config.delta_eff
    row["k_hat"] = s.config.k_hat_eff
    row["lam"] = s.lam
    for col in _METRIC_COLS:
        row[col] = getattr(s, col)
    return row


def emit(summaries, fmt: str, path) -> None:
    """Write summaries as RFC-4180 CSV or a JSON array, config echo first."""
    rows = [summary_row(s) for s in summaries]
    path = Path(path)
    if fmt == "json":
        path.write_text(json.dumps(rows, indent=2, default=str) + "\n")
        return
    if fmt != "csv":
        raise ParameterError(f"unknown output format {fmt!r}")
    cols = list(rows[0].keys()) if rows else []
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in cols])
