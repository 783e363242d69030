"""Datasets, trial running, aggregation, sweeps, and emission."""

import csv
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from shuffleguard import harness, runtime
from shuffleguard.adversary import Flood
from shuffleguard.datasets import gen_dataset, load_csv
from shuffleguard.errors import (
    DomainError,
    ParameterError,
    ProtocolError,
    ShapeError,
    StructureError,
)
from shuffleguard.harness import (
    ExperimentConfig,
    auto_lambda,
    build_plan,
    emit,
    experiment_dataset,
    run_experiment,
    run_trial,
    summary_row,
    sweep,
    trimmed_mean,
)
from shuffleguard.protocols import SumProtocol


class TestGenDataset:
    def test_uniform_bit_mean(self):
        d = gen_dataset("unif", 100_000, 1, seed=0)
        assert d.values.mean() == pytest.approx(0.5, abs=0.01)

    def test_zipf_mass_concentrated_low(self):
        d = gen_dataset("zipf", 100_000, 8, seed=0)
        low = np.mean(d.values < 4)
        assert low > 0.6
        assert d.values.min() >= 0 and d.values.max() <= 8

    def test_gauss_clamped(self):
        d = gen_dataset("gauss", 10_000, 10, seed=0)
        assert d.values.min() >= 0 and d.values.max() <= 10
        assert d.values.mean() == pytest.approx(2.0, abs=0.5)

    def test_deterministic(self):
        a = gen_dataset("zipf", 1000, 8, seed=5)
        b = gen_dataset("zipf", 1000, 8, seed=5)
        np.testing.assert_array_equal(a.values, b.values)

    def test_bad_dist(self):
        with pytest.raises(ParameterError):
            gen_dataset("cauchy", 10, 1, seed=0)

    @pytest.mark.parametrize("dist", ["unif", "zipf", "gauss"])
    @pytest.mark.parametrize("u", [0, 1, 8])
    def test_values_stay_in_domain(self, dist, u):
        d = gen_dataset(dist, 10_000, u, seed=0)
        assert d.values.min() >= 0 and d.values.max() <= u

    @pytest.mark.parametrize("u", [1, 8])
    def test_zipf_reaches_top_value(self, u):
        assert gen_dataset("zipf", 10_000, u, seed=0).values.max() == u

    def test_degenerate_domain_runs_from_cli(self):
        from shuffleguard.cli import main

        rc = main([
            "run", "--query", "hist", "--u", "0", "--protocol", "base",
            "--n", "64", "--trials", "2",
        ])
        assert rc == 0


class TestLoadCsv:
    def test_cap(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("v\n1\n2\n3\n")
        d = load_csv(f, "v", cap=2)
        np.testing.assert_array_equal(d.values, [1, 2, 2])

    def test_header_skipped_by_index(self, tmp_path, caplog):
        f = tmp_path / "d.csv"
        f.write_text("value\n4\n5\n")
        d = load_csv(f, 0, cap=5)
        np.testing.assert_array_equal(d.values, [4, 5])

    def test_empty_file_warns(self, tmp_path, caplog):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with caplog.at_level("WARNING"):
            d = load_csv(f, 0, cap=1)
        assert d.values.size == 0
        assert caplog.records

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(ParameterError,
                           match=re.escape(f"--data {path}: No such")):
            load_csv(path, 0, cap=1)

    def test_directory_refused(self, tmp_path):
        with pytest.raises(ParameterError, match="Is a directory"):
            load_csv(tmp_path, 0, cap=1)

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe1\n", b"x" * 200_000 + b"\n"],
        ids=["not-utf8", "field-over-csv-limit"],
    )
    def test_unreadable_file_refused(self, tmp_path, content):
        f = tmp_path / "d.csv"
        f.write_bytes(content)
        with pytest.raises(ParameterError, match=re.escape(f"--data {f}: ")):
            load_csv(f, 0, cap=1)

    def test_missing_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a\n1\n")
        with pytest.raises(ParameterError,
                           match=re.escape(f"--col 'b' not found in --data {f}")):
            load_csv(f, "b", cap=1)

    @pytest.mark.parametrize(
        "text,column",
        [("1\n2\n\n", 5), ("1\n2\n\n", "5"), ("1\n2\n\n", 1),
         ("v\n", 0), ("v\n", "v"), ("a,b\nx,1\n", "a")],
        ids=["past-rows", "past-rows-str", "past-rows-1", "header-only",
             "header-only-name", "no-number"],
    )
    def test_column_without_values(self, tmp_path, text, column):
        # Not zero values padded to n: the same error as a missing name.
        f = tmp_path / "one.csv"
        f.write_text(text)
        with pytest.raises(ParameterError, match="not found"):
            load_csv(f, column, cap=1)

    def test_index_reached_by_some_row(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("1\n2,1\n")
        np.testing.assert_array_equal(load_csv(f, 1, cap=1).values, [1])

    @pytest.mark.parametrize("column", [-1, True, False])
    def test_bool_or_negative_index_refused(self, tmp_path, column):
        # Python would read -1 as the last column, and True as column 1.
        f = tmp_path / "two.csv"
        f.write_text("a,b\n1,0\n")
        with pytest.raises(ParameterError, match="nonnegative integer"):
            load_csv(f, column, cap=1)


class TestTrimmedMean:
    def test_matches_sort_and_slice(self):
        rng = np.random.default_rng(0)
        for size in (10, 37, 100):
            v = rng.normal(size=size)
            cut = int(0.1 * size)
            s = np.sort(v)
            oracle = s[cut : size - cut].mean()
            assert trimmed_mean(v) == pytest.approx(oracle)

    def test_t10_trims_one_each_tail(self):
        v = [1000.0, 1, 1, 1, 1, 1, 1, 1, 1, -1000.0]
        assert trimmed_mean(v) == pytest.approx(1.0)


class TestAutoLambda:
    def test_power_of_two_and_capped(self):
        lam = auto_lambda(1 << 14, (1 << 14) ** -2.0)
        assert lam & (lam - 1) == 0
        assert lam <= 1 << 14
        assert auto_lambda(4, 0.5) <= 4


class TestRunTrial:
    CFG = ExperimentConfig(
        query="count", protocol="ohsdp", n=128, lam=8, trials=5, seed=9
    )

    def test_deterministic(self):
        plan, ds = build_plan(self.CFG), experiment_dataset(self.CFG)
        a = run_trial(self.CFG, 3, plan, ds)
        b = run_trial(self.CFG, 3, plan, ds)
        assert (a.abs_error, a.msgs_per_user, a.detected) == (
            b.abs_error, b.msgs_per_user, b.detected,
        )

    def test_noiseless_no_attack_exact(self):
        cfg = ExperimentConfig(
            query="count", protocol="ohsdp", n=64, lam=8, eps=float("inf"),
            trials=1, seed=1,
        )
        r = run_trial(cfg, 0, build_plan(cfg), experiment_dataset(cfg))
        assert r.abs_error == 0
        assert not r.detected

    def test_undefended_flood_damage(self):
        cfg = ExperimentConfig(
            query="count", protocol="base", n=1024, trials=1, seed=2,
            k=1, attack="flood",
        )
        r = run_trial(cfg, 0, build_plan(cfg), experiment_dataset(cfg))
        assert r.rel_error == pytest.approx(2.0, rel=0.15)


    @pytest.mark.parametrize(
        "attack,k", [("none", 0), ("flood", 1), ("drop", 1), ("impersonate", 1)]
    )
    def test_analyze_runs_once_per_accepted_adversary_envelope(self, attack, k):
        # Honest traffic is drawn per level as a tally; only adversary
        # sends that name a tree node meet the per-send fold.
        cfg = ExperimentConfig(
            query="hist", u=3, protocol="hsdp", n=64, k=k, attack=attack,
            trials=1, seed=5,
        )
        plan = build_plan(cfg)
        calls = []
        fold = plan.base.fold
        plan.base.fold = lambda *multiset: calls.append(1) or fold(*multiset)
        run_trial(cfg, 0, plan, experiment_dataset(cfg))
        accepted = {"none": 0, "impersonate": 0}.get(attack, len(plan.levels))
        assert len(calls) == accepted

    @pytest.mark.parametrize("query", ["count", "sum", "hist", "range"])
    @pytest.mark.parametrize(
        "attack", ["none", "flood", "drop", "alter", "impersonate"]
    )
    def test_run_trial_provisions_no_tokens(self, query, attack, monkeypatch):
        # A corrupted user's sends are addressed by tree node, and a guess
        # by its place in the node order: no trial draws a token table.
        # With no attack, k >= 1 is refused at ingress.
        cfg = ExperimentConfig(
            query=query, u=1 if query == "count" else 3, protocol="hsdp",
            n=16, k=int(attack != "none"), attack=attack, trials=1, seed=4,
        )

        def refuse(*args, **kwargs):
            raise AssertionError("run_trial provisioned a token table")

        monkeypatch.setattr(runtime.TokenTable, "__init__", refuse)
        run_trial(cfg, 0, build_plan(cfg), experiment_dataset(cfg))

    @pytest.mark.parametrize("query", ["count", "sum", "hist", "range"])
    def test_malformed_payloads_discarded_and_counted(self, query, monkeypatch):
        # A corrupted user may send any codes through its own tokens: the
        # out-of-alphabet ones are discarded and counted, never fatal, and
        # the trial is the same-seed trial of the plain flood.
        cfg = ExperimentConfig(
            query=query, u=1 if query == "count" else 7, protocol="ohsdp",
            n=1024, k=1, attack="flood", attack_msgs=40, trials=2, seed=7,
        )
        plan = build_plan(cfg)
        base = plan.base
        if isinstance(base, SumProtocol):
            junk = np.array([-1, base.modulus, 3 * base.modulus])
        else:
            junk = np.array([0, base.bins + 1, -base.bins - 1, 1 << 40])

        class FloodWithJunk(Flood):
            def multiset(self, base, lp, x, rng):
                codes, counts = super().multiset(base, lp, x, rng)
                return (
                    np.concatenate([codes, junk]),
                    np.concatenate([counts, np.ones(junk.size, np.int64)]),
                )

        harness_detect = harness.detect
        estimates = []

        def detect(*args):
            out = harness_detect(*args)
            estimates.append(out[0])
            return out

        def trials(strategy):
            monkeypatch.setattr(harness, "make_strategy", lambda c, p: strategy)
            estimates.clear()
            ds = experiment_dataset(cfg)
            results = [run_trial(cfg, t, plan, ds) for t in range(cfg.trials)]
            return results, list(estimates), run_experiment(cfg)

        monkeypatch.setattr(harness, "detect", detect)
        dirty, dirty_estimates, dirty_summary = trials(FloodWithJunk(40))
        clean, clean_estimates, clean_summary = trials(Flood(40))
        sent = junk.size * len(plan.levels)
        assert [r.malformed_msgs for r in dirty] == [sent] * cfg.trials
        assert dirty_summary.malformed_msgs == sent
        assert clean_summary.malformed_msgs == 0
        for a, b in zip(dirty, clean):
            assert replace(a, malformed_msgs=0, wall_time=0) == replace(
                b, wall_time=0
            )
        for a, b in zip(dirty_estimates, clean_estimates):
            np.testing.assert_array_equal(a, b)

    def test_foreign_token_rejected_and_counted(self):
        cfg = ExperimentConfig(
            query="count", protocol="hsdp", n=64, k=1, attack="impersonate",
            attack_msgs=37, trials=4, seed=6,
        )
        plan, ds = build_plan(cfg), experiment_dataset(cfg)
        assert [
            run_trial(cfg, t, plan, ds).rejected_msgs for t in range(4)
        ] == [37] * 4
        assert run_experiment(cfg).rejected_msgs == 37
        clean = ExperimentConfig(query="count", protocol="hsdp", n=64, trials=4)
        assert run_experiment(clean).rejected_msgs == 0

    def test_flood_memory_does_not_grow_with_attack_msgs(self):
        # A flood is its top codes with one count each, never an array of
        # its messages: 2^40 messages per bin and level cost what 2^10 do.
        peaks, detected = [], []
        for msgs in (1 << 10, 1 << 40):
            cfg = ExperimentConfig(
                query="range", u=15, protocol="hsdp", n=64, k=1,
                attack="flood", attack_msgs=msgs, trials=1, seed=3,
            )
            plan, ds = build_plan(cfg), experiment_dataset(cfg)
            tracemalloc.start()
            try:
                result = run_trial(cfg, 0, plan, ds)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            detected.append(result.detected)
        assert peaks[1] <= 2 * peaks[0]
        assert detected[1]


class TestSweepAndEmit:
    def test_sweep_replans(self):
        cfg = ExperimentConfig(
            query="count", protocol="ohsdp", n=64, trials=10, seed=3
        )
        out = sweep(cfg, "lambda", [4, 16])
        assert [s.lam for s in out] == [4, 16]
        assert out[0].msgs_per_user >= out[1].msgs_per_user

    def test_sweep_over_k_keeps_the_attack_free_point(self):
        # k = 0 under an attack runs no attack, but is not refused: it is
        # the first point of a sweep over k.
        cfg = ExperimentConfig(
            query="count", protocol="ohsdp", n=64, k_hat=1, attack="flood",
            attack_msgs=8, trials=2, seed=0,
        )
        out = sweep(cfg, "k", [0, 1])
        assert [s.config.k for s in out] == [0, 1]

    def test_sweep_over_k_sets_the_default_k_hat_of_ohsdp(self):
        # With no attack, k still sets ohsdp's default k_hat, so a sweep
        # over k is kept there.
        cfg = ExperimentConfig(
            query="count", protocol="ohsdp", n=64, trials=2, seed=0
        )
        out = sweep(cfg, "k", [0, 2])
        assert [summary_row(s)["k_hat"] for s in out] == [1, 2]
        assert build_plan(out[1].config).k_hat == 2

    def test_sweep_checks_every_plan_before_the_first_experiment(
        self, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(harness, "run_experiment", calls.append)
        cfg = ExperimentConfig(query="count", protocol="hsdp", trials=5)
        with pytest.raises(ParameterError, match="n=100 must be a power"):
            sweep(cfg, "n", [1 << 16, 100])
        assert calls == []

    def test_sweep_checks_every_dataset_before_the_first_experiment(
        self, monkeypatch, tmp_path
    ):
        # Four values fit n = 64 but not n = 2: the sweep stops before
        # running n = 64.
        path = tmp_path / "four.csv"
        path.write_text("v\n1\n2\n3\n4\n")
        calls = []
        monkeypatch.setattr(harness, "run_experiment", calls.append)
        cfg = ExperimentConfig(
            query="count", protocol="hsdp", delta=0.01, trials=2,
            data=str(path), col="v",
        )
        with pytest.raises(ParameterError, match="more than n=2"):
            sweep(cfg, "n", [64, 2])
        assert calls == []

    def test_unknown_axis(self):
        with pytest.raises(ParameterError):
            sweep(self.cfg(), "beta", [0.1])

    def cfg(self):
        return ExperimentConfig(query="count", protocol="base", n=16, trials=10, seed=0)

    def test_csv_round_trip(self, tmp_path):
        s = run_experiment(self.cfg())
        path = tmp_path / "out.csv"
        emit([s], "csv", path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["abs_error"]) == pytest.approx(s.abs_error, rel=1e-4)
        cols = list(rows[0].keys())
        assert cols[-8:-6] == ["rejected_msgs", "malformed_msgs"]
        assert cols[-6:] == [
            "abs_error", "rel_error_pct", "msgs_per_user", "bits_per_msg",
            "detection_rate", "mean_wall_time_s",
        ]

    def test_json_round_trip(self, tmp_path):
        s = run_experiment(self.cfg())
        path = tmp_path / "out.json"
        emit([s], "json", path)
        data = json.loads(path.read_text())
        assert data[0]["abs_error"] == pytest.approx(s.abs_error)
        assert data[0]["n"] == 16

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rejected_msgs_emitted(self, tmp_path, fmt):
        cfg = ExperimentConfig(
            query="count", protocol="ohsdp", n=64, k=1, attack="impersonate",
            attack_msgs=9, trials=3, seed=2,
        )
        path = tmp_path / f"out.{fmt}"
        emit([run_experiment(cfg)], fmt, path)
        if fmt == "csv":
            with path.open() as fh:
                row = next(csv.DictReader(fh))
        else:
            row = json.loads(path.read_text())[0]
        assert float(row["rejected_msgs"]) == 9

    @pytest.mark.parametrize("query,eps", [("count", "1"), ("hist", "4")])
    def test_csv_row_echoes_resolved_budget(self, tmp_path, query, eps):
        # Left at their defaults, eps, delta, k_hat and attack_msgs are
        # written as the values the run used, not as empty cells.
        cfg = ExperimentConfig(
            query=query, u=1 if query == "count" else 3, protocol="ohsdp",
            n=64, k=2, attack="flood", trials=2, seed=0,
        )
        path = tmp_path / "out.csv"
        emit([run_experiment(cfg)], "csv", path)
        with path.open() as fh:
            row = next(csv.DictReader(fh))
        assert row["eps"] == eps
        assert float(row["delta"]) == pytest.approx(64 ** -2.0, rel=1e-5)
        assert row["k_hat"] == "2"
        assert row["attack_msgs"] == "64"

    def test_summary_row_echoes_resolved_lambda(self):
        cfg = ExperimentConfig(
            query="count", protocol="ohsdp", n=64, lam="auto", trials=10, seed=0
        )
        s = run_experiment(cfg)
        assert isinstance(summary_row(s)["lam"], int)


class TestCli:
    def test_run_and_flag_override(self, tmp_path, capsys):
        from shuffleguard.cli import main

        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"n": 64, "protocol": "ohsdp", "trials": 30}))
        out = tmp_path / "o.csv"
        rc = main([
            "run", "--config", str(conf), "--trials", "10",
            "--lambda", "8", "--seed", "4", "--out", str(out),
        ])
        assert rc == 0
        with out.open() as fh:
            row = next(csv.DictReader(fh))
        assert row["trials"] == "10"  # flag overrode the config file
        assert row["lam"] == "8"

    def test_sweep_subcommand(self, tmp_path):
        from shuffleguard.cli import main

        out = tmp_path / "s.json"
        rc = main([
            "sweep", "--axis", "lambda", "--values", "4,16",
            "--query", "count", "--protocol", "ohsdp", "--n", "64",
            "--trials", "10", "--seed", "1", "--out", str(out),
            "--format", "json",
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert [d["lam"] for d in data] == [4, 16]

    def test_json_of_infinite_eps_is_strict(self, tmp_path):
        # RFC 8259 has no Infinity: eps = inf, the noiseless limit, is
        # written as the string the CSV prints, "inf".
        from shuffleguard.cli import main

        out = tmp_path / "x.json"
        rc = main([
            "run", "--n", "64", "--trials", "2", "--eps", "inf",
            "--format", "json", "--out", str(out),
        ])
        assert rc == 0

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        (row,) = json.loads(out.read_text(), parse_constant=refuse)
        assert row["eps"] == "inf"
        assert row["abs_error"] == 0

    def test_bad_config_key(self, tmp_path, capsys):
        from shuffleguard.cli import main

        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"bogus": 1}))
        assert main(["run", "--config", str(conf)]) == 2

    def test_unknown_protocol_in_config_is_one_line(self, tmp_path, capsys):
        from shuffleguard.cli import main

        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"protocol": "x"}))
        assert main(["run", "--config", str(conf), "--n", "16"]) == 2
        assert capsys.readouterr().err == "error: unknown protocol 'x'\n"

    @pytest.mark.parametrize("text", ["{\"n\": 64,", "[1, 2]"])
    def test_malformed_config_is_one_line(self, tmp_path, text, capsys):
        from shuffleguard.cli import main

        conf = tmp_path / "c.json"
        conf.write_text(text)
        assert main(["run", "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --config {conf}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["run", "--lambda", "foo"], "--lambda expects a number, got 'foo'"),
            (["run", "--lambda", "0", "--khat", "0"],
             "--lambda must be an integer of at least 1, got 0"),
            (["run", "--attack-msgs", "-1"], "--attack-msgs must be an integer"
             " of at least 0, got -1"),
            (["run", "--n", "0"], "--n must be an integer of at least 1, got 0"),
            (["run", "--n", "-4"], "--n must be an integer of at least 1, got -4"),
            (["run", "--trials", "0"], "--trials must be an integer of at least"
             " 1, got 0"),
            (["sweep", "--axis", "k", "--values", "a,b"],
             "--values expects a number, got 'a'"),
            (["sweep", "--axis", "eps", "--values", "1,x"],
             "--values expects a number, got 'x'"),
            (["sweep", "--axis", "n", "--values", "64,0"],
             "--n must be an integer of at least 1, got 0"),
            (["run", "--config", {"eps": "x"}],
             "--eps must be a positive number, got 'x'"),
            (["run", "--config", {"k": 1.5}],
             "--k must be an integer of at least 0, got 1.5"),
            (["run", "--eps", "nan"], "--eps must be a positive number, got nan"),
            (["run", "--seed", "-1"],
             "--seed must be an integer of at least 0, got -1"),
            (["run", "--khat", "-1"],
             "--khat must be an integer of at least 0, got -1"),
            (["run", "--delta", "0"], "--delta must be a number in (0, 1), got 0.0"),
            (["run", "--config", {"lam": 1.5}],
             "--lambda must be an integer of at least 1, got 1.5"),
            (["run", "--config", {"n": True}],
             "--n must be an integer of at least 1, got True"),
            (["run", "--config", {"query": "x"}], "unknown query 'x'"),
            (["run", "--config", {"protocol": "x"}], "unknown protocol 'x'"),
            (["run", "--config", {"attack": "bogus"}],
             "unknown attack 'bogus'"),
            (["run", "--config", {"dist": "x"}], "unknown dist 'x'"),
            (["run", "--config", {"format": "xml", "out": "out.xml"}],
             "unknown format 'xml'"),
            (["run", "--protocol", "base", "--n", "1"],
             "--delta must be given at n = 1: its default n^-2 = 1.0 is out"
             " of range (0, 1)"),
            (["run", "--config", {"n": 1}], "--delta must be given at n = 1"),
            (["run", "--n", "2", "--delta", "0.01"],
             "ohsdp needs --lambda > 2 * --khat for an honest majority in "
             "every bottom group, got lambda=2 (auto caps it at --n=2) and "
             "khat=1 (default max(1, --k))"),
            (["run", "--protocol", "hsdp", "--lambda", "8"],
             "--lambda applies only to --protocol ohsdp, got --protocol hsdp"),
            (["sweep", "--axis", "lambda", "--values", "4,16", "--protocol",
              "bsdp"],
             "--lambda applies only to --protocol ohsdp, got --protocol bsdp"),
            (["run", "--protocol", "hsdp", "--khat", "3"],
             "--khat applies only to --protocol ohsdp, got --protocol hsdp"),
            (["run", "--attack-msgs", "9"], "--attack-msgs applies only to "
             "--attack flood or impersonate, got --attack none"),
            (["run", "--attack", "drop", "--k", "1", "--attack-msgs", "9"],
             "--attack-msgs applies only to --attack flood or impersonate, "
             "got --attack drop"),
            (["run", "--attack", "alter", "--k", "1", "--attack-msgs", "9"],
             "got --attack alter"),
            (["run", "--cap", "3"],
             "--cap applies only with --data, which is not given"),
            (["run", "--col", "v"],
             "--col applies only with --data, which is not given"),
            (["run", "--config", {"col": 0}],
             "--col applies only with --data, which is not given"),
            (["run", "--protocol", "susdp", "--k", "65", "--attack", "flood"],
             "--k must be at most --n, got --k 65 and --n 64"),
            (["run", "--k", "65", "--attack", "flood"],
             "--k must be at most --n, got --k 65 and --n 64"),
            (["run", "--protocol", "base", "--k", "1"],
             "--k applies only with an --attack or as the default of --khat, "
             "got --attack none and --protocol base"),
            (["run", "--protocol", "susdp", "--k", "1"],
             "got --attack none and --protocol susdp"),
            (["run", "--protocol", "bsdp", "--k", "2"],
             "got --attack none and --protocol bsdp"),
            (["run", "--protocol", "hsdp", "--k", "1"],
             "got --attack none and --protocol hsdp"),
            (["run", "--k", "2", "--khat", "3"],
             "--k applies only with an --attack or as the default of --khat, "
             "got --attack none and --khat 3"),
            (["sweep", "--axis", "k", "--values", "0,1", "--protocol", "hsdp"],
             "got --attack none and --protocol hsdp"),
        ],
        ids=[
            "lambda-foo", "lambda-0", "attack-msgs-negative", "n-0",
            "n-negative", "trials-0", "sweep-values-a", "sweep-eps-x",
            "sweep-n-0", "config-eps-str", "config-k-fraction", "eps-nan",
            "seed-negative", "khat-negative", "delta-0", "config-lam-fraction",
            "config-n-bool", "config-query", "config-protocol",
            "config-attack", "config-dist", "config-format", "n-1-delta",
            "config-n-1-delta", "ohsdp-n-2-delta", "hsdp-lambda",
            "sweep-lambda-bsdp", "hsdp-khat", "attack-msgs-none",
            "attack-msgs-drop", "attack-msgs-alter", "cap-without-data",
            "col-without-data", "config-col-without-data", "susdp-k-above-n",
            "ohsdp-k-above-n", "base-k-without-attack",
            "susdp-k-without-attack", "bsdp-k-without-attack",
            "hsdp-k-without-attack", "ohsdp-khat-k-without-attack",
            "sweep-k-hsdp-without-attack",
        ],
    )
    def test_bad_ingress_is_one_line(
        self, argv, needle, tmp_path, capsys, monkeypatch
    ):
        from shuffleguard import cli

        def no_experiment(*args, **kwargs):
            raise AssertionError("an experiment started on bad input")

        # sweep runs its experiments through harness.run_experiment.
        monkeypatch.setattr(cli, "run_experiment", no_experiment)
        monkeypatch.setattr(harness, "run_experiment", no_experiment)
        monkeypatch.chdir(tmp_path)
        common = {"protocol": "ohsdp", "n": 64, "trials": 2}
        argv = list(argv)
        for i, arg in enumerate(argv):
            if isinstance(arg, dict):
                # A config file's value is not parsed by argparse, and a
                # flag would override it, so the common values go in the
                # file too.
                conf = tmp_path / "c.json"
                conf.write_text(json.dumps({**common, **arg}))
                argv[i] = str(conf)
                common = {}
        rc = cli.main([
            argv[0], *(f"--{k}={v}" for k, v in common.items()), *argv[1:],
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        assert len(err.splitlines()) == 1
        assert {p.name for p in tmp_path.iterdir()} <= {"c.json"}

    @pytest.mark.parametrize(
        "query,u,k,attack,msgs,refused",
        [
            ("count", 1, 1, "flood", (1 << 62) - 1, False),
            ("count", 1, 1, "flood", 1 << 62, True),
            ("count", 1, 1, "impersonate", 1 << 62, True),
            ("sum", 255, 1, "flood", 1 << 62, True),
            # range U = 15 has 31 bins
            ("range", 15, 1, "flood", (1 << 62) // 31, False),
            ("range", 15, 1, "flood", (1 << 62) // 31 + 1, True),
            # every corrupted user's flood reaches the root
            ("hist", 3, 1, "flood", 1 << 59, False),
            ("hist", 3, 2, "flood", 1 << 59, True),
        ],
    )
    def test_attack_msgs_that_could_overflow_a_level_is_refused(
        self, query, u, k, attack, msgs, refused, capsys, monkeypatch
    ):
        # A level's attack traffic, --attack-msgs per bin from each of
        # the k corrupted users, must stay below 2^62 so that its int64
        # tally rows cannot overflow. It is refused at ingress, naming
        # the flag, before any trial.
        from shuffleguard import cli

        def no_experiment(*args, **kwargs):
            raise AssertionError("an experiment started on bad input")

        monkeypatch.setattr(cli, "run_experiment", no_experiment)
        fields = dict(
            query=query, u=u, protocol="hsdp", n=64, k=k, attack=attack,
            attack_msgs=msgs,
        )
        if not refused:
            ExperimentConfig(**fields)
            return
        with pytest.raises(ParameterError, match="--attack-msgs"):
            ExperimentConfig(**fields)
        rc = cli.main([
            "run", *(f"--{f.replace('_', '-')}={v}" for f, v in fields.items())
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --attack-msgs {msgs} times --k {k} ")
        assert "must be below 2^62" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [["run", "--n", "foo"], ["sweep", "--axis", "x", "--values", "1"],
         ["run", "--bogus"], [], ["run", "--base", "tree-hist"]],
        ids=["n-foo", "sweep-axis-x", "unknown-flag", "no-command", "base"],
    )
    def test_flag_errors_are_one_line(self, argv, capsys):
        from shuffleguard.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    def test_range_accepts_tree_hist_base(self, capsys):
        from shuffleguard.cli import main

        rc = main([
            "run", "--query", "range", "--u", "3", "--protocol", "ohsdp",
            "--n", "16", "--lambda", "4", "--trials", "2",
        ])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("ohsdp\trange")

    def test_out_of_domain_data_rejected_before_trials(
        self, tmp_path, capsys, monkeypatch
    ):
        from shuffleguard import harness
        from shuffleguard.cli import main

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran on out-of-domain data")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        data = tmp_path / "d.csv"
        data.write_text("0\n1\n5\n")
        rc = main([
            "run", "--query", "count", "--cap", "5", "--data", str(data),
            "--n", "16", "--trials", "2",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: value 5 at index 2")
        assert len(err.splitlines()) == 1

    def test_data_longer_than_n_rejected(self, tmp_path, capsys):
        from shuffleguard.cli import main

        data = tmp_path / "d.csv"
        data.write_text("1\n" * 40)
        rc = main([
            "run", "--query", "count", "--data", str(data), "--n", "16",
            "--trials", "2",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "40 values, more than n=16" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "case", ["out-dir", "out-missing-dir", "config-dir", "data-dir", "col"],
    )
    def test_file_failure_is_one_line(self, case, tmp_path, capsys, monkeypatch):
        # A path that cannot be read or written, or a column the file
        # lacks, is one line naming the flag and the path; no trial runs.
        from shuffleguard import cli

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran on a bad file")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        data = tmp_path / "t.csv"
        data.write_text("a\n1\n")
        missing = tmp_path / "no" / "o.csv"
        argv, err = {
            "out-dir": (["--out", tmp_path], f"--out {tmp_path}: Is a directory"),
            "out-missing-dir": (
                ["--out", missing], f"--out {missing}: cannot be written"
            ),
            "config-dir": (
                ["--config", tmp_path], f"--config {tmp_path}: Is a directory"
            ),
            "data-dir": (
                ["--data", tmp_path], f"--data {tmp_path}: Is a directory"
            ),
            "col": (
                ["--data", data, "--col", "zz"],
                f"--col 'zz' not found in --data {data}",
            ),
        }[case]
        rc = cli.main(["run", "--n", "16", "--trials", "1", *map(str, argv)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_of_memory_is_one_line(self, command, capsys, monkeypatch):
        # A run too large for the host's memory (a huge --u under hist, or
        # a huge --attack-msgs) ends as one line with exit code 2. The
        # allocation failure is simulated: nothing large is allocated.
        from shuffleguard import cli

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        # sweep runs its experiments through harness.run_experiment.
        monkeypatch.setattr(cli, "run_experiment", out_of_memory)
        monkeypatch.setattr(harness, "run_experiment", out_of_memory)
        argv = ["--axis", "n", "--values", "16"] if command == "sweep" else []
        rc = cli.main([command, "--n", "16", "--trials", "1", *argv])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 745. GiB for an array\n"
        )

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_data_is_one_line(self, value, tmp_path, capsys):
        from shuffleguard.cli import main

        data = tmp_path / "f.csv"
        data.write_text(f"v\n1\n{value}\n")
        rc = main([
            "run", "--query", "count", "--n", "4", "--delta", "0.01",
            "--trials", "1", "--data", str(data), "--col", "v",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {data} row 3: value {value!r} is not finite\n"

    @pytest.mark.parametrize("col", [-1, True])
    def test_bad_column_index_is_one_line(self, col, tmp_path, capsys):
        from shuffleguard.cli import main

        data = tmp_path / "t.csv"
        data.write_text("a,b\n1,0\n")
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"data": str(data), "col": col}))
        rc = main(["run", "--n", "4", "--delta", "0.01", "--trials", "1",
                   "--config", str(conf)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: column index must be a nonnegative integer, got {col!r}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["--eps", "1e-20"], ["--query", "sum", "--u", "255", "--eps", "1e-14"]],
        ids=["count", "sum"],
    )
    def test_tiny_epsilon_is_one_line(self, argv, capsys):
        # exp(-eps/sensitivity) rounds to 1, so no threshold exists.
        from shuffleguard.cli import main

        rc = main(["run", "--n", "64", "--trials", "1", *argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: epsilon ") and "rounds to 1" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "query,u,needle",
        [("count", "-1", "must be nonnegative, got -1"),
         ("hist", "-1", "must be nonnegative, got -1"),
         ("range", "-3", "must be nonnegative, got -3"),
         ("sum", "0", "--u must be at least 1 for sum, got 0"),
         # Count's inputs are bits: a U it would ignore is refused.
         ("count", "7", "applies only to sum, hist and range, got --query "
                        "count --u 7")],
    )
    def test_bad_domain_size_is_one_line(self, query, u, needle, capsys):
        from shuffleguard.cli import main

        rc = main([
            "run", "--query", query, "--u", u, "--n", "64", "--trials", "2",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        # Every message names the flag; the needles then pin the rest.
        assert err.startswith("error: --u ") and needle in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "error",
        [DomainError, ParameterError, ProtocolError, ShapeError, StructureError],
    )
    def test_every_library_error_is_one_line(self, error, capsys, monkeypatch):
        from shuffleguard import cli

        def fail(config):
            raise error("boom")

        monkeypatch.setattr(cli, "run_experiment", fail)
        assert cli.main(["run", "--n", "16", "--trials", "1"]) == 2
        assert capsys.readouterr().err == "error: boom\n"
