"""Experiment runner: trials, metric aggregation, sweeps, and emission.

A trial is fully determined by (config, seed, trial index): the dataset is
derived from the seed alone (shared by all trials of an experiment), while
honest noise and adversary choices each draw from independent per-trial
streams. A trial holds each tree level as arrays from the first draw to
the published answer (see ``run_trial``). Reported metrics follow the
usual robust-benchmark conventions: per-metric trimmed means over T
trials (dropping the top and bottom 10%) plus the raw detection rate.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import adversary as adv
from .datasets import gen_dataset, load_csv
from .defense import TreePlan, Variant, detect, make_plan
from .errors import ParameterError
from .protocols import make_base
from .queries import (
    Dataset, Query, QueryKind, check_domain, eval_query, value_norm,
)

#: The names each name-valued config field accepts.
CHOICES = {
    "query": tuple(kind.value for kind in QueryKind),
    "protocol": tuple(variant.value for variant in Variant),
    "attack": ("none", "flood", "drop", "alter", "impersonate"),
    "dist": ("unif", "zipf", "gauss"),
    "format": ("csv", "json"),
}


def _is_int(value) -> bool:
    # bool is an Integral, but True is no count of users.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit-for-bit."""

    query: str = "count"
    u: int = 1
    protocol: str = "ohsdp"
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

    def __post_init__(self):
        # Checked at ingress, before any randomization, since a config
        # file may hold any JSON value: a misspelt attack would run as no
        # attack, n = 0 would divide by zero in planning, trials = 0 would
        # summarize no trial as a row of nans, NaN passes every `<=`
        # check, a string, bool or fraction where an integer belongs
        # would fail deep inside a trial, and --data or --out that is no
        # path string, or is "", would fail in open() or write nothing.
        for name, names in CHOICES.items():
            if getattr(self, name) not in names:
                raise ParameterError(f"unknown {name} {getattr(self, name)!r}")
        ints = [
            ("--n", self.n, 1), ("--trials", self.trials, 1),
            ("--k", self.k, 0), ("--seed", self.seed, 0),
        ]
        # Left at None or "auto", these take a default that depends on
        # other fields.
        ints += [
            (flag, value, least)
            for flag, value, least in (
                ("--attack-msgs", self.attack_msgs, 0),
                ("--khat", self.k_hat, 0), ("--cap", self.cap, 0),
                ("--lambda", self.lam, 1),
            )
            if value not in (None, "auto")
        ]
        # U is the sum protocol's sensitivity: U = 0 sets no noise scale.
        ints.append(("--u", self.u, 1 if self.query == "sum" else 0))
        for flag, value, least in ints:
            if not (_is_int(value) and value >= least):
                raise ParameterError(
                    f"{flag} must be an integer of at least {least}, "
                    f"got {value!r}"
                )
        for flag, value in (("--data", self.data), ("--out", self.out)):
            if not (value is None or isinstance(value, str) and value):
                raise ParameterError(
                    f"{flag} must be a file path, got {value!r}"
                )
        if self.k > self.n:
            raise ParameterError(
                f"--k must be at most --n, got --k {self.k} and --n {self.n}"
            )
        # The largest array of a trial is the token tally's block: up to
        # 2n rows of num_bins int64 values, 16 n num_bins bytes, and numpy
        # sizes an array only below 2^63 bytes.
        bins = self.make_query().num_bins
        if self.n * bins >= 1 << 59:
            u = f" (--u {self.u})" if self.query in ("hist", "range") else ""
            raise ParameterError(
                f"--n {self.n} times the query's bin count {bins}{u} is "
                f"{self.n * bins}; it must be below 2^59"
            )
        # eps_eff is eps unless eps is None; delta None means n^-2. A bool
        # is a Real, but True is no budget.
        eps = self.eps_eff
        if not (
            isinstance(eps, numbers.Real) and not isinstance(eps, bool)
            and eps > 0
        ):
            raise ParameterError(
                f"--eps must be a positive number, got {self.eps!r}"
            )
        if self.delta is None and not self.delta_eff < 1:
            raise ParameterError(
                f"--delta must be given at n = {self.n}: its default n^-2 "
                f"= {self.delta_eff!r} is out of range (0, 1)"
            )
        for flag, value in (("--beta", self.beta), ("--delta", self.delta_eff)):
            if not (isinstance(value, numbers.Real) and 0 < value < 1):
                raise ParameterError(
                    f"{flag} must be a number in (0, 1), got {value!r}"
                )
        # An input the run would ignore is refused, naming the field that
        # makes it meaningless: a sweep along it would print a flat curve
        # as if it were a finding. With no attack, k >= 1 corrupts nobody,
        # but under ohsdp without --khat it sets k_hat's default, and a
        # sweep over k is the one sweep over k_hat, so its row allows that.
        ohsdp, has_data = self.protocol == "ohsdp", self.data is not None
        not_ohsdp = f", got --protocol {self.protocol}"
        unset = ", which is not given"
        k_unused_by = (f"--khat {self.k_hat}" if ohsdp
                       else f"--protocol {self.protocol}")
        defaults = {f.name: f.default for f in fields(self)}
        for name, flag, used, where, got in (
            ("u", "--u", self.query != "count", "to sum, hist and range",
             f", got --query count --u {self.u}"),
            ("lam", "--lambda", ohsdp, "to --protocol ohsdp", not_ohsdp),
            ("k_hat", "--khat", ohsdp, "to --protocol ohsdp", not_ohsdp),
            ("k", "--k", self.attack != "none" or ohsdp and self.k_hat is None,
             "with an --attack or as the default of --khat",
             f", got --attack none and {k_unused_by}"),
            ("attack_msgs", "--attack-msgs",
             self.attack in ("flood", "impersonate"),
             "to --attack flood or impersonate",
             f", got --attack {self.attack}"),
            ("cap", "--cap", has_data, "with --data", unset),
            ("col", "--col", has_data, "with --data", unset),
            ("dist", "--dist", not has_data, "without --data",
             f", got --data {self.data}"),
            ("format", "--format", self.out is not None, "with --out", unset),
        ):
            if not used and getattr(self, name) != defaults[name]:
                raise ParameterError(f"{flag} applies only {where}{got}")
        if self.attack_msgs is not None:
            # A level's attack traffic, which can all reach one node, must
            # fit its int64 tally row with room for the honest tokens.
            total = self.attack_msgs * self.k * bins
            if total >= 1 << 62:
                raise ParameterError(
                    f"--attack-msgs {self.attack_msgs} times --k {self.k} "
                    f"times the query's bin count {bins} is {total} "
                    f"messages per level; it must be below 2^62"
                )
        # make_plan refuses this too, but its message names no flag.
        lam, k_hat = resolve_lambda(self), self.k_hat_eff
        if self.protocol == "ohsdp" and k_hat >= 1 and lam <= 2 * k_hat:
            raise ParameterError(
                f"ohsdp needs --lambda > 2 * --khat for an honest majority "
                f"in every bottom group, got lambda={lam} (auto caps it at "
                f"--n={self.n}) and khat={k_hat} (default max(1, --k))"
            )

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

    @property
    def attack_msgs_eff(self) -> int:
        """Messages a flood or impersonation sends; n unless given."""
        return self.attack_msgs if self.attack_msgs is not None else self.n

    def make_query(self) -> Query:
        return Query(QueryKind(self.query), self.u)


def auto_lambda(n: int, delta: float) -> int:
    """Smallest power of two >= ceil(log2(n) * log2(1/delta)), capped at n."""
    # -log2(delta), not log2(1/delta): 1/delta overflows for a subnormal
    # delta.
    target = max(1, math.ceil(math.log2(max(2, n)) * -math.log2(delta)))
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
    malformed_msgs: int
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
    malformed_msgs: float
    mean_wall_time_s: float


#: The share of values ``trimmed_mean`` drops from each tail.
TRIM_FRAC = 0.1


def trimmed_mean(values) -> float:
    """Mean after dropping floor(TRIM_FRAC * T) values from each tail."""
    v = np.sort(np.asarray(values, dtype=float))
    cut = int(TRIM_FRAC * v.size)
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


def build_plan(config: ExperimentConfig) -> TreePlan:
    base = make_base(config.make_query(), config.n)
    return make_plan(
        Variant(config.protocol), base, config.n,
        config.eps_eff, config.delta_eff, config.beta,
        lam=resolve_lambda(config), k_hat=config.k_hat_eff,
    )


def make_strategy(config: ExperimentConfig, plan: TreePlan):
    """The attack instance implied by the config's attack flags."""
    if config.attack == "none" or config.k == 0:
        return None
    if config.attack == "flood":
        return adv.Flood(config.attack_msgs_eff)
    if config.attack == "drop":
        return adv.DropNoise()
    if config.attack == "alter":
        return adv.AlterInput()
    return adv.Impersonate(msgs=config.attack_msgs_eff)


def run_trial(
    config: ExperimentConfig,
    trial_index: int,
    plan: TreePlan,
    dataset: Dataset,
) -> TrialResult:
    """One full protocol round: randomize, attack, fold, analyze.

    ``plan`` and ``dataset`` are ``build_plan(config)`` and
    ``experiment_dataset(config)``, built once per experiment.

    The round of the message-level API (``make_inboxes``,
    ``randomize_all``, ``submit``, ``shuffle``, ``analyze``) with one
    array per level in place of messages, which the additivity of
    ``base.fold`` allows: honest traffic is drawn as per-level tallies, a
    corrupted user's payload multiset of each level, ``(codes,
    counts)``, is folded into its own group's row, and detection runs on
    the finished rows. No message array is built, so a flood costs the
    same at any ``--attack-msgs``. Each corrupted user's traffic comes
    from ``adversary.sends`` by tree node, so no token is drawn: payloads
    of a guess that names no node are rejected and counted. Accepted
    payloads outside the protocol's alphabet are left out of the fold
    and counted as malformed.
    """
    start = time.perf_counter()
    q = plan.query
    xs = dataset.values

    ss = np.random.SeedSequence((config.seed, trial_index))
    # Child 0 seeds only the message-level trial's token table.
    rng_honest, rng_adv = (np.random.default_rng(s) for s in ss.spawn(3)[1:])

    strategy = make_strategy(config, plan)
    honest = np.ones(config.n, dtype=bool)
    corrupted = adv.corrupt_users(config.n, config.k, rng_adv)
    attackers = sorted(corrupted.ids) if strategy is not None else []
    for i in attackers:
        honest[i - 1] = False

    tallies, honest_msgs = plan.base.tally_levels(
        xs, plan.levels, rng_honest, honest
    )
    rejected_msgs = malformed_msgs = 0
    for i in attackers:
        sent = adv.sends(strategy, i, plan, rng_adv, int(xs[i - 1]))
        for node, codes, counts in sent:
            if node is None:
                rejected_msgs += int(counts.sum())
                continue
            row, malformed = plan.base.fold(codes, counts)
            malformed_msgs += malformed
            r, g = node
            tallies[r - 1][g - 1] += row

    estimate, report = detect(plan, [plan.base.finish(t) for t in tallies])

    truth = eval_query(q, xs)
    abs_error = value_norm(q, estimate - truth)
    if q.scalar:
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
        malformed_msgs=malformed_msgs,
        wall_time=time.perf_counter() - start,
    )


def run_experiment(config: ExperimentConfig) -> Summary:
    dataset = experiment_dataset(config)
    plan = build_plan(config)
    results = [
        run_trial(config, t, plan, dataset) for t in range(config.trials)
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
        malformed_msgs=trimmed_mean([r.malformed_msgs for r in results]),
        mean_wall_time_s=float(np.mean([r.wall_time for r in results])),
    )


SWEEP_FIELDS = {"lambda": "lam", "k": "k", "eps": "eps", "n": "n"}


def sweep(config: ExperimentConfig, axis: str, values) -> list[Summary]:
    """One experiment per axis value, re-planning each time; every value's
    config, plan and dataset are checked before the first experiment
    runs."""
    if axis not in SWEEP_FIELDS:
        raise ParameterError(f"unknown sweep axis {axis!r}")
    configs = [replace(config, **{SWEEP_FIELDS[axis]: v}) for v in values]
    for c in configs:
        build_plan(c)
        experiment_dataset(c)
    return [run_experiment(c) for c in configs]


# ---------------------------------------------------------------------------
# emission

METRIC_COLS = (
    "rejected_msgs", "malformed_msgs", "abs_error", "rel_error_pct",
    "msgs_per_user", "bits_per_msg", "detection_rate", "mean_wall_time_s",
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
    row["attack_msgs"] = s.config.attack_msgs_eff
    row["lam"] = s.lam
    for col in METRIC_COLS:
        row[col] = getattr(s, col)
    return row


def emit(summaries, fmt: str, path) -> None:
    """Write summaries as RFC-4180 CSV or a JSON array, config echo first."""
    rows = [summary_row(s) for s in summaries]
    path = Path(path)
    if fmt == "json":
        # RFC 8259 has no Infinity or NaN: such a float is written as the
        # string the CSV prints for it.
        rows = [
            {k: _fmt(v) if isinstance(v, float) and not math.isfinite(v)
             else v for k, v in row.items()}
            for row in rows
        ]
        text = json.dumps(rows, indent=2, default=str, allow_nan=False)
        path.write_text(text + "\n")
        return
    if fmt != "csv":
        raise ParameterError(f"unknown output format {fmt!r}")
    cols = list(rows[0].keys()) if rows else []
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in cols])
