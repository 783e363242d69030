"""Datasets, trial running, aggregation, sweeps, and emission."""

import csv
import json

import numpy as np
import pytest

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
    run_experiment,
    run_trial,
    summary_row,
    sweep,
    trimmed_mean,
)


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
        with pytest.raises(ParameterError):
            gen_dataset("zipf", 10, 1, seed=0, a=1.0)

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
        d = load_csv(f, 0)
        np.testing.assert_array_equal(d.values, [4, 5])

    def test_empty_file_warns(self, tmp_path, caplog):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with caplog.at_level("WARNING"):
            d = load_csv(f, 0)
        assert d.n == 0
        assert caplog.records

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", 0)

    def test_missing_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a\n1\n")
        with pytest.raises(KeyError):
            load_csv(f, "b")


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
        a = run_trial(self.CFG, 3)
        b = run_trial(self.CFG, 3)
        assert (a.abs_error, a.msgs_per_user, a.detected) == (
            b.abs_error, b.msgs_per_user, b.detected,
        )

    def test_noiseless_no_attack_exact(self):
        cfg = ExperimentConfig(
            query="count", protocol="ohsdp", n=64, lam=8, eps=float("inf"),
            trials=1, seed=1,
        )
        r = run_trial(cfg, 0)
        assert r.abs_error == 0
        assert not r.detected

    def test_undefended_flood_damage(self):
        cfg = ExperimentConfig(
            query="count", protocol="base", n=1024, trials=1, seed=2,
            k=1, attack="flood",
        )
        r = run_trial(cfg, 0)
        assert r.rel_error == pytest.approx(2.0, rel=0.15)


    @pytest.mark.parametrize(
        "attack,k", [("none", 0), ("flood", 1), ("drop", 1), ("impersonate", 1)]
    )
    def test_analyze_runs_once_per_accepted_adversary_envelope(self, attack, k):
        # Honest traffic is folded per level; only adversary envelopes
        # that bear a provisioned token meet the per-envelope analyzer.
        cfg = ExperimentConfig(
            query="hist", u=3, protocol="hsdp", n=64, k=k, attack=attack,
            trials=1, seed=5,
        )
        plan = build_plan(cfg)
        calls = []
        analyze = plan.base.analyze
        plan.base.analyze = lambda payloads: calls.append(1) or analyze(payloads)
        run_trial(cfg, 0, plan=plan)
        accepted = {"none": 0, "impersonate": 0}.get(attack, len(plan.levels))
        assert len(calls) == accepted

    def test_foreign_token_rejected_and_counted(self):
        cfg = ExperimentConfig(
            query="count", protocol="hsdp", n=64, k=1, attack="impersonate",
            attack_msgs=37, trials=4, seed=6,
        )
        assert [run_trial(cfg, t).rejected_msgs for t in range(4)] == [37] * 4
        assert run_experiment(cfg).rejected_msgs == 37
        clean = ExperimentConfig(query="count", protocol="hsdp", n=64, trials=4)
        assert run_experiment(clean).rejected_msgs == 0


class TestSweepAndEmit:
    def test_sweep_replans(self):
        cfg = ExperimentConfig(
            query="count", protocol="ohsdp", n=64, trials=10, seed=3
        )
        out = sweep(cfg, "lambda", [4, 16])
        assert [s.lam for s in out] == [4, 16]
        assert out[0].msgs_per_user >= out[1].msgs_per_user

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
        # Left at their defaults, eps, delta and k_hat are written as the
        # values the run used, not as empty cells.
        cfg = ExperimentConfig(
            query=query, u=3, protocol="ohsdp", n=64, k=2, trials=2, seed=0
        )
        path = tmp_path / "out.csv"
        emit([run_experiment(cfg)], "csv", path)
        with path.open() as fh:
            row = next(csv.DictReader(fh))
        assert row["eps"] == eps
        assert float(row["delta"]) == pytest.approx(64 ** -2.0, rel=1e-5)
        assert row["k_hat"] == "2"

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

    def test_bad_config_key(self, tmp_path, capsys):
        from shuffleguard.cli import main

        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"bogus": 1}))
        assert main(["run", "--config", str(conf)]) == 2

    def test_range_accepts_tree_hist_base(self, capsys):
        from shuffleguard.cli import main

        rc = main([
            "run", "--query", "range", "--u", "3", "--base", "tree-hist",
            "--protocol", "ohsdp", "--n", "16", "--lambda", "4",
            "--trials", "2",
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
            "run", "--query", "count", "--u", "5", "--data", str(data),
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
        "query,u,needle",
        [("hist", "-1", "must be nonnegative, got -1"),
         ("range", "-3", "must be nonnegative, got -3"),
         ("sum", "0", "--u must be at least 1 for sum, got 0")],
    )
    def test_bad_domain_size_is_one_line(self, query, u, needle, capsys):
        from shuffleguard.cli import main

        rc = main([
            "run", "--query", query, "--u", u, "--n", "64", "--trials", "2",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
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
