"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the defended-aggregation
stack at desk scale (n up to 2^16, 100-trial trimmed means) and prints a
single ``[PASS]``/``[FAIL]`` verdict line. Run with ``pytest -s`` to see
the verdict lines as they happen.
"""

import itertools
import math

import numpy as np
from scipy import stats

from shuffleguard import adversary as adv
from shuffleguard.defense import Variant, make_plan, randomize_all
from shuffleguard.harness import (
    ExperimentConfig,
    build_plan,
    experiment_dataset,
    run_experiment,
    run_trial,
    sweep,
    trimmed_mean,
)
from shuffleguard.noise import nb_sample, dlap_threshold
from shuffleguard.protocols import make_base
from shuffleguard.queries import Query, QueryKind
from shuffleguard.runtime import Envelope, provision

from message_level import deliver

INF = math.inf


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_a01_undefended_flood_damage():
    # One attacker flooding n "+1"s into the bare count protocol roughly
    # triples the reported count: ~200% relative error.
    cfg = ExperimentConfig(
        query="count", protocol="base", n=1 << 14, k=1, attack="flood",
        trials=100, seed=1,
    )
    s = run_experiment(cfg)
    ok = 180.0 <= s.rel_error_pct <= 220.0
    _verdict(
        "A01 undefended flood damage",
        ok,
        f"rel_error={s.rel_error_pct:.1f}% (want 180-220%)",
    )


def test_a02_defended_flood_recovery():
    # The same flood against the widened-bottom tree: damage stays inside
    # the worst-case bound lam + 8*L*theta_max and under 5% relative.
    cfg = ExperimentConfig(
        query="count", protocol="ohsdp", n=1 << 14, k=1, attack="flood",
        trials=100, seed=2,
    )
    plan = build_plan(cfg)
    bound = plan.lam + 8 * len(plan.levels) * max(lp.theta for lp in plan.levels)
    s = run_experiment(cfg)
    ok = s.abs_error <= bound and s.rel_error_pct < 5.0
    _verdict(
        "A02 defended flood recovery",
        ok,
        f"abs_error={s.abs_error:.1f} (bound {bound}), "
        f"rel_error={s.rel_error_pct:.2f}% (want <5%)",
    )


def test_a03_no_attack_overhead():
    # Without an attacker the defense costs at most 4x the bare protocol's
    # error (budget splitting across tree levels).
    base = run_experiment(ExperimentConfig(
        query="count", protocol="base", n=1 << 14, trials=100, seed=3,
    ))
    defended = run_experiment(ExperimentConfig(
        query="count", protocol="ohsdp", n=1 << 14, trials=100, seed=3,
    ))
    ratio = defended.abs_error / max(base.abs_error, 1e-9)
    ok = ratio <= 4.0
    _verdict(
        "A03 no-attack overhead",
        ok,
        f"defended/bare error ratio={ratio:.2f} (want <=4)",
    )


def test_a04_detection_rate_transition():
    # Sweeping the per-level size of a consistent flood (the attacker
    # inflates every shuffler on its path by the same m, so parent/child
    # checks stay clean): small floods pass undetected and shift the
    # output by m; once m pushes the bottom group out of range the whole
    # path is flagged and stripped, so error peaks near the threshold.
    n, lam, runs = 1 << 12, 64, 50
    cfg = ExperimentConfig(
        query="count", protocol="ohsdp", n=n, lam=lam, trials=1, seed=4,
    )
    plan = build_plan(cfg)
    ds = experiment_dataset(cfg)
    theta1 = plan.levels[0].theta
    truth = int(ds.values[1:].sum())  # user 1 is the attacker
    points = [theta1 // 2, theta1, lam + 2 * theta1]
    det, err = [], []
    for m in points:
        strategy = adv.Flood(msgs=m)
        detected = 0
        errs = []
        for t in range(runs):
            ss = np.random.SeedSequence((cfg.seed, m, t))
            rng_prov, rng_honest, rng_adv = (
                np.random.default_rng(s) for s in ss.spawn(3)
            )
            tokens = provision(plan, rng_prov)
            honest = np.ones(n, dtype=bool)
            honest[0] = False
            envs, _ = randomize_all(plan, ds.values, tokens, rng_honest, honest=honest)
            envs.extend(adv.malicious_envelopes(
                strategy, 1, plan, tokens, rng_adv, x=0
            ))
            out, report, rejected = deliver(plan, tokens, envs)
            assert rejected == 0
            detected += report.attack_detected
            errs.append(abs(out - truth))
        det.append(detected / runs)
        err.append(trimmed_mean(errs))
    ok = (
        det[0] <= 0.05
        and det[-1] >= 0.95
        and max(err) == err[1]
    )
    _verdict(
        "A04 detection-rate transition",
        ok,
        f"msgs={points} det={det} err={[round(e, 1) for e in err]} "
        "(want det[0]<=0.05, det[-1]>=0.95, peak error at middle)",
    )


def test_a05_multi_attacker_linearity():
    # Error grows at most linearly (with slack) in the number of
    # attackers; honest communication does not depend on it.
    cfg = ExperimentConfig(
        query="count", protocol="ohsdp", n=1 << 14, lam=64, k_hat=4,
        attack="flood", trials=100, seed=5,
    )
    out = sweep(cfg, "k", [1, 2, 4])
    errs = [s.abs_error for s in out]
    msgs = [s.msgs_per_user for s in out]
    spread = max(msgs) / min(msgs) - 1.0
    ok = errs[2] <= 6.0 * errs[0] and spread <= 0.02
    _verdict(
        "A05 multi-attacker linearity",
        ok,
        f"err(k=1,2,4)={[round(e, 1) for e in errs]} "
        f"(want err(4)<=6*err(1)), msgs spread={100 * spread:.2f}% (want <=2%)",
    )


def test_a06_group_size_tradeoff():
    # Widening the bottom groups monotonically cuts messages per user,
    # while the with-attack error is minimized at an interior width.
    lams = [8, 32, 512]
    interior_min = False
    details = []
    ok = True
    for eps in (1.0, 0.5):
        cfg = ExperimentConfig(
            query="count", protocol="ohsdp", n=1 << 14, eps=eps, k=1,
            attack="flood", trials=50, seed=6,
        )
        out = sweep(cfg, "lambda", lams)
        msgs = [s.msgs_per_user for s in out]
        errs = [s.abs_error for s in out]
        ok = ok and all(a >= b for a, b in zip(msgs, msgs[1:]))
        interior_min = interior_min or (errs[1] < errs[0] and errs[1] < errs[2])
        details.append(
            f"eps={eps}: msgs={[round(m, 1) for m in msgs]} "
            f"err={[round(e, 1) for e in errs]}"
        )
    ok = ok and interior_min
    _verdict(
        "A06 group-size tradeoff",
        ok,
        f"lam={lams}; " + "; ".join(details)
        + " (want msgs non-increasing, interior error minimum)",
    )


def test_a07_protocol_ladder_ordering():
    # Per-user noise makes the flat single-user variant pay a growing
    # penalty with n; the widened-bottom tree's error is n-independent.
    res = {}
    for proto, n in itertools.product(("susdp", "ohsdp"), (1 << 12, 1 << 16)):
        cfg = ExperimentConfig(
            query="count", protocol=proto, n=n, trials=100, seed=7,
        )
        res[proto, n] = run_experiment(cfg).abs_error
    su12, su16 = res["susdp", 1 << 12], res["susdp", 1 << 16]
    oh12, oh16 = res["ohsdp", 1 << 12], res["ohsdp", 1 << 16]
    ok = (
        su12 > 10 * oh12
        and su16 > 10 * oh16
        and su16 >= 2 * su12
        and 0.5 <= oh16 / oh12 <= 2.0
    )
    _verdict(
        "A07 protocol-ladder ordering",
        ok,
        f"flat(n=2^12,2^16)=({su12:.1f},{su16:.1f}) "
        f"tree=({oh12:.1f},{oh16:.1f}) "
        "(want flat>10x tree, flat doubling, tree flat-in-n)",
    )


def test_a08_noise_law_suite():
    checks = []

    # (a) m negative-binomial(1/m, p) shares sum to a geometric(p).
    p = math.exp(-1.0)
    rng = np.random.default_rng(8)
    size = 100_000
    hi = 12
    probs = np.array([(1 - p) * p**k for k in range(hi)] + [p**hi])
    for m in (1, 4, 16):
        total = nb_sample(
            1.0 / m, p, rng, out=np.empty((size, m), np.int64)
        ).sum(axis=1)
        obs = np.bincount(np.minimum(total, hi), minlength=hi + 1)
        pval = stats.chisquare(obs, probs * size).pvalue
        checks.append((f"shares m={m} pvalue={pval:.3f}", pval > 0.01))

    # (b) the two-sided tail at the published cutoff stays within budget.
    for eps, beta in ((1.0, 0.1), (0.5, 0.05)):
        q = math.exp(-eps)
        t = dlap_threshold(q, beta)
        z = nb_sample(1.0, q, rng, out=np.empty(size, np.int64))
        z -= nb_sample(1.0, q, rng, out=np.empty(size, np.int64))
        frac = float(np.mean(np.abs(z) >= t))
        checks.append(
            (f"tail eps={eps} beta={beta} frac={frac:.3f}", frac <= 1.5 * beta)
        )

    # (c) frozen cutoff value.
    checks.append(
        ("cutoff(e^-1,0.1)=3", dlap_threshold(math.exp(-1.0), 0.1) == 3)
    )

    ok = all(c[1] for c in checks)
    _verdict(
        "A08 noise-law suite",
        ok,
        "; ".join(c[0] for c in checks),
    )


def _oracle_tree(kind, xs, lam, flood_node, flood_msgs):
    """Brute-force noiseless reference: independent of the library's
    analyzer. Estimates every node by direct summation (the sum of the
    bits for count and sum, the count of each value for hist; a flood
    message raises every bin by one), flags bottom nodes farther than 1
    from every answer a group of lam users can give, found by scanning t,
    and upper nodes failing the parent/child consistency check (noiseless
    per-level slack is 1), then recovers bottom-up."""
    n = len(xs)
    big_l = int(math.log2(n // lam)) + 1
    def answer(size, ones):
        return [size - ones, ones] if kind is QueryKind.HISTOGRAM else [ones]

    def gap(u, v):
        return max(abs(a - b) for a, b in zip(u, v))

    def add(u, v):
        return [a + b for a, b in zip(u, v)]

    answers = [answer(lam, ones) for ones in range(lam + 1)]
    est = {}
    for r in range(1, big_l + 1):
        size = lam * (1 << (r - 1))
        for g in range(1, n // size + 1):
            v = answer(size, sum(xs[(g - 1) * size: g * size]))
            if flood_node == (r, g):
                v = [b + flood_msgs for b in v]
            est[(r, g)] = v
    flagged = set()
    for g in range(1, n // lam + 1):
        t = 0
        while not any(gap(est[(1, g)], a) <= t for a in answers):
            t += 1
        if t > 1:
            flagged.add((1, g))
    for r in range(2, big_l + 1):
        for g in range(1, n // (lam * (1 << (r - 1))) + 1):
            kids = [(r - 1, 2 * g - 1), (r - 1, 2 * g)]
            slack = gap(est[(r, g)], add(*(est[c] for c in kids)))
            if any(c in flagged for c in kids) or slack > len(kids) * 1 + 1:
                flagged.add((r, g))
    rec = {}
    for g in range(1, n // lam + 1):
        v = est[(1, g)]
        rec[(1, g)] = [0] * len(v) if (1, g) in flagged else v
    for r in range(2, big_l + 1):
        for g in range(1, n // (lam * (1 << (r - 1))) + 1):
            kids = [(r - 1, 2 * g - 1), (r - 1, 2 * g)]
            rec[(r, g)] = (
                add(*(rec[c] for c in kids))
                if (r, g) in flagged else est[(r, g)]
            )
    return rec[(big_l, 1)], flagged


def test_a09_small_instance_oracle_equivalence():
    # Noiseless limit, every bit dataset of size 8, every single flooded
    # node, count and U = 1 sum and hist: the analyzer must agree exactly
    # with the brute-force oracle.
    n, flood_msgs = 8, 11
    mismatches = 0
    cases = 0
    for kind, lam in itertools.product(
        (QueryKind.COUNT, QueryKind.SUM, QueryKind.HISTOGRAM), (1, 2)
    ):
        base = make_base(Query(kind, 1), n)
        flood = np.tile(base.top, flood_msgs)
        plan = make_plan(
            Variant.OHSDP, base, n, INF, 0.01, 0.1, lam=lam, k_hat=0
        )
        nodes = [None] + plan.nodes()
        rng = np.random.default_rng(9)
        for bits in itertools.product((0, 1), repeat=n):
            xs = np.asarray(bits, dtype=np.int64)
            # Noiseless, so one draw of the honest envelopes serves every
            # flooded node.
            tokens = provision(plan, rng)
            honest, _ = randomize_all(plan, xs, tokens, rng, np.ones(n, bool))
            for node in nodes:
                envs = list(honest)
                if node is not None:
                    r, g = node
                    tid = int(tokens.levels[r - 1][g - 1])
                    envs.append(Envelope(tid, flood))
                out, report, rejected = deliver(plan, tokens, envs)
                assert rejected == 0
                want, want_flags = _oracle_tree(
                    kind, bits, lam, node, flood_msgs
                )
                cases += 1
                mismatches += (np.atleast_1d(out).tolist() != want) or (
                    set(report.flagged) != want_flags
                )
    ok = mismatches == 0
    _verdict(
        "A09 small-instance oracle equivalence",
        ok,
        f"{cases} exhaustive cases, {mismatches} mismatches",
    )


def test_a10_false_positive_budget():
    # With no attacker, runs that flag anything at all must stay within
    # the failure budget beta (plus Monte Carlo slack).
    runs = 200
    cfg = ExperimentConfig(
        query="count", protocol="hsdp", n=1 << 12, trials=1, seed=10,
    )
    plan = build_plan(cfg)
    ds = experiment_dataset(cfg)
    flagged_runs = sum(
        run_trial(cfg, t, plan=plan, dataset=ds).detected for t in range(runs)
    )
    frac = flagged_runs / runs
    ok = frac <= cfg.beta + 0.05
    _verdict(
        "A10 false-positive budget",
        ok,
        f"flagged fraction={frac:.3f} over {runs} runs "
        f"(want <= {cfg.beta + 0.05:.2f})",
    )
