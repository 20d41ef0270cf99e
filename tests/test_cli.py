"""End-to-end CLI checks, in this process through ``cli.main``; a few run
``python -m seqrisk`` to check the process itself."""

import hashlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

import seqrisk
from seqrisk import ChainSpec, MarkovModel, cli, estimate, experiments, random_chain


def run_module(*args):
    return subprocess.run([sys.executable, "-m", "seqrisk", *args],
                          capture_output=True, text=True)


@pytest.fixture()
def run_cli(capsys):
    """``seqrisk`` with the given arguments, run in this process."""
    def run(*args):
        code = cli.main(list(args))
        out = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out.out, out.err)
    return run


@pytest.fixture()
def chain_file(tmp_path):
    chain = random_chain(ChainSpec(5, 0.75, 10, seed=21, target_probability=0.4))
    path = tmp_path / "chain.json"
    path.write_text(chain.to_json())
    return path


#: one wrong entry of a chain spec file, and the error it gets
SPEC_ERRORS = {
    "string_states": ({"n_states": "5"}, "n_states must be an integer, got '5'"),
    "bool_spontaneity": ({"spontaneity": True}, "spontaneity must be a number, got True"),
    "fractional_horizon": ({"horizon_steps": 4.9},
                           "horizon_steps must be an integer, got 4.9"),
    "string_flag": ({"equal_transitions": "no"},
                    "equal_transitions must be true or false, got 'no'"),
    "misspelled_key": ({"target_probabilty": 0.3},
                       "unknown chain spec keys ['target_probabilty']"),
}

#: one wrong entry of a model file, and the error it gets
MODEL_ERRORS = {
    "string_time_limit": ({"horizon": {"max_steps": 10, "time_limit": "10"}},
                          "time_limit must be a number, got '10'"),
    "fractional_initial_state": ({"initial_state": 0.7},
                                 "initial_state must be an integer, got 0.7"),
    "fractional_max_steps": ({"horizon": {"max_steps": 10.9}},
                             "max_steps must be an integer, got 10.9"),
    "horizon_without_steps": ({"horizon": {"time_limit": 10.0}},
                              "horizon lacks the required keys ['max_steps']"),
    "horizon_not_an_object": ({"horizon": 10}, "horizon must be a JSON object, got 10"),
    "infinite_time_limit": ({"horizon": {"max_steps": 10, "time_limit": float("inf")}},
                            "time_limit must be finite and >= 0 when set"),
}


class TestValidateCommand:
    def test_ok(self, chain_file):
        out = run_module("validate", "--model", str(chain_file))
        assert out.returncode == 0
        assert out.stdout.strip() == "ok"

    def test_bad_rows_exit_3_with_diagnostic(self, tmp_path):
        m = MarkovModel.step_mode([[0.5, 0.5], [0.0, 1.0]], 0, 1, 3)
        doc = json.loads(m.to_json())
        doc["transition"][0] = 0.4  # row 0 now sums to 0.9
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = run_module("validate", "--model", str(path))
        assert out.returncode == 3
        assert "row 0" in out.stderr

    def test_missing_file_exit_2(self, run_cli):
        out = run_cli("validate", "--model", "/nonexistent/chain.json")
        assert out.returncode == 2

    @pytest.mark.parametrize("command", [["validate"], ["oracle", "prob"]],
                             ids=["validate", "oracle_prob"])
    @pytest.mark.parametrize("entry,message", MODEL_ERRORS.values(), ids=MODEL_ERRORS)
    def test_mistyped_model_exit_2(self, tmp_path, capsys, command, entry, message):
        doc = {"n_states": 2, "transition": [0.8, 0.2, 0.0, 1.0],
               "initial_state": 0, "outcome_state": 1,
               "horizon": {"max_steps": 10, "time_limit": 10.0}, **entry}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        assert cli.main([*command, "--model", str(path)]) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    def test_model_without_horizon_exit_2(self, chain_file, capsys):
        doc = json.loads(chain_file.read_text())
        del doc["horizon"]
        chain_file.write_text(json.dumps(doc))
        assert cli.main(["validate", "--model", str(chain_file)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: model lacks the required keys ['horizon']" in err

    @pytest.mark.parametrize("text", ["5", '"abc"', "[]"])
    def test_model_file_not_an_object_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "chain.json"
        path.write_text(text)
        assert cli.main(["validate", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: model must be a JSON object, got {json.loads(text)!r}" in err

    def test_malformed_json_exit_2(self, tmp_path, run_cli):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        out = run_cli("validate", "--model", str(path))
        assert out.returncode == 2


class TestEstimateCommand:
    def test_deterministic_runs(self, chain_file, tmp_path, run_cli):
        args = ("estimate", "--model", str(chain_file), "--kind", "reach",
                "--n", "500", "--seed", "7",
                "--out", str(tmp_path / "report.json"))
        names = ("report.json", "report.json.f64")
        first = run_cli(*args)
        blobs1 = [(tmp_path / name).read_bytes() for name in names]
        second = run_cli(*args)
        blobs2 = [(tmp_path / name).read_bytes() for name in names]
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert blobs1 == blobs2

    def test_manifest_checksums(self, chain_file, tmp_path, run_cli):
        out_path = tmp_path / "report.json"
        run_cli("estimate", "--model", str(chain_file), "--kind", "mc",
                "--n", "100", "--seed", "1", "--out", str(out_path))
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["artifacts"] == {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("report.json", "report.json.f64")}
        assert manifest["seed"] == 1
        assert manifest["config"]["n"] == 100
        assert manifest["versions"] == {"seqrisk": seqrisk.__version__,
                                        "numpy": np.__version__}
        assert manifest["peak_rss_mb"] > 0

    def test_infeasible_spec_exit_4(self, tmp_path, run_cli):
        spec = ChainSpec(4, 0.67, 1, seed=2, target_probability=0.999)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        out = run_cli("estimate", "--spec", str(path), "--kind", "mc",
                      "--n", "10", "--seed", "2")
        assert out.returncode == 4

    @pytest.mark.parametrize("target", ["0.3", True])
    def test_non_numeric_target_exit_2(self, tmp_path, capsys, target):
        spec = {**ChainSpec(4, 1.0, 5).to_dict(), "target_probability": target}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["estimate", "--spec", str(path), "--kind", "mc",
                         "--n", "10"]) == 2
        err = capsys.readouterr().err
        assert f"target_probability must be a number or null, got {target!r}" in err

    @pytest.mark.parametrize("entry,message", SPEC_ERRORS.values(), ids=SPEC_ERRORS)
    def test_mistyped_spec_exit_2(self, tmp_path, capsys, entry, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n_states": 5, "spontaneity": 1.0, "horizon_steps": 4,
                                    **entry}))
        assert cli.main(["estimate", "--spec", str(path), "--kind", "mc",
                         "--n", "10"]) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    def test_spec_without_a_required_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"spontaneity": 1.0, "horizon_steps": 4}))
        assert cli.main(["estimate", "--spec", str(path), "--kind", "mc", "--n", "10"]) == 2
        assert ("configuration error: chain spec lacks the required keys ['n_states']"
                in capsys.readouterr().err)

    def test_requires_model_or_spec(self, chain_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "--kind", "mc", "--n", "10"])
        assert exc.value.code == 2
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(ChainSpec(4, 1.0, 5).to_dict()))
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "--model", str(chain_file), "--spec", str(spec),
                      "--kind", "mc", "--n", "10"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_writes_the_files_of_the_report(self, chain_file, tmp_path):
        out_path = tmp_path / "report.json"
        assert cli.main(["estimate", "--model", str(chain_file), "--kind", "scope",
                         "--n", "300", "--seed", "2", "--clip", "clip_to_unit",
                         "--out", str(out_path)]) == 0
        model = MarkovModel.from_json(chain_file.read_text())
        report = estimate(model, "scope", 300, 2, clip_policy="clip_to_unit")
        files = report.files(out_path)
        assert {path: path.read_bytes() for path in files} == files


#: a small run of each command that reads --spec
SPEC_COMMANDS = {
    "estimate": ["estimate", "--kind", "reach", "--n", "200"],
    "sweep": ["sweep", "--axis", "sample_count", "--grid", "1,2", "--replications", "50"],
    "distribution": ["distribution", "--n-estimates", "50", "--samples", "5"],
}


class TestSpecSeed:
    @pytest.fixture()
    def specs(self, tmp_path):
        spec = ChainSpec(4, 1.0, 5, target_probability=0.4).to_dict()
        del spec["seed"]
        seeded, unseeded = tmp_path / "seeded.json", tmp_path / "unseeded.json"
        seeded.write_text(json.dumps({**spec, "seed": 5}))
        unseeded.write_text(json.dumps(spec))
        return seeded, unseeded

    @staticmethod
    def run(tmp_path, capsys, argv, spec, *seed):
        out = tmp_path / "out"
        assert cli.main([*argv, "--spec", str(spec), *seed, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        return capsys.readouterr().out + out.read_text(), manifest["seed"]

    @pytest.mark.parametrize("argv", SPEC_COMMANDS.values(), ids=SPEC_COMMANDS)
    def test_file_seed_is_used(self, tmp_path, capsys, specs, argv):
        seeded, unseeded = specs
        from_file = self.run(tmp_path, capsys, argv, seeded)
        assert from_file == self.run(tmp_path, capsys, argv, unseeded, "--seed", "5")
        assert from_file[1] == 5
        assert from_file != self.run(tmp_path, capsys, argv, unseeded)

    @pytest.mark.parametrize("argv", SPEC_COMMANDS.values(), ids=SPEC_COMMANDS)
    def test_seed_option_overrides_the_file(self, tmp_path, capsys, specs, argv):
        seeded, unseeded = specs
        overridden = self.run(tmp_path, capsys, argv, seeded, "--seed", "0")
        assert overridden == self.run(tmp_path, capsys, argv, unseeded)
        assert overridden[1] == 0


class TestOracleCommands:
    def test_dispersion_reference_value(self, run_cli):
        out = run_cli("oracle", "dispersion", "--n", "100",
                      "--p-base", "1e-4", "--p-elev", "1e-3")
        assert out.returncode == 0
        assert out.stdout.strip() == "0.0943"

    def test_prob_matches_library(self, chain_file, run_cli):
        from seqrisk import exact_outcome_probability

        out = run_cli("oracle", "prob", "--model", str(chain_file))
        model = MarkovModel.from_json(chain_file.read_text())
        assert out.returncode == 0
        assert float(out.stdout) == pytest.approx(exact_outcome_probability(model), abs=1e-12)

    def test_bijection_pair_close(self, tmp_path, run_cli):
        chain = random_chain(ChainSpec(4, 1.0, 5, seed=3, target_probability=0.3))
        path = tmp_path / "small.json"
        path.write_text(chain.to_json())
        out = run_cli("oracle", "bijection", "--model", str(path))
        p_a, p_b = (float(x) for x in out.stdout.split())
        assert abs(p_a - p_b) < 1e-10


class TestSweepCommand:
    def test_a_key_error_propagates(self, tmp_path, monkeypatch):
        # no input raises KeyError, so one is a fault of the program, not of
        # the configuration
        def broken(axis, grid, base, replications):
            raise KeyError("missing")

        monkeypatch.setattr(experiments, "variance_sweep", broken)
        with pytest.raises(KeyError, match="missing"):
            cli.main(["sweep", "--axis", "probability", "--out", str(tmp_path / "sweep.csv")])

    def test_csv_schema_and_manifest(self, tmp_path, run_cli):
        out_path = tmp_path / "sweep.csv"
        out = run_cli("sweep", "--axis", "probability", "--grid", "0.2,0.5",
                      "--replications", "300", "--seed", "4",
                      "--out", str(out_path))
        assert out.returncode == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "task,kind,n,statistic,value,ci_low,ci_high,seed"
        assert any("probability=0.2" in line for line in lines)
        assert (tmp_path / "sweep.csv.manifest.json").exists()

    def test_svg_format_adds_plot(self, tmp_path, run_cli):
        out_path = tmp_path / "sweep.csv"
        out = run_cli("sweep", "--axis", "spontaneity", "--grid", "0.5,1.0",
                      "--replications", "300", "--seed", "4",
                      "--format", "svg", "--out", str(out_path))
        assert out.returncode == 0
        svg = (tmp_path / "sweep.svg").read_text()
        assert svg.startswith("<svg")
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"sweep.csv", "sweep.svg"}

    def test_json_is_not_a_format(self, tmp_path, capsys):
        # CSV is the one table format; its reader reads it back
        out_path = tmp_path / "s.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--axis", "probability", "--grid", "0.3,1.5",
                      "--replications", "100", "--format", "json", "--out", str(out_path)])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not out_path.exists()

    def test_nothing_to_plot_skips_the_svg(self, tmp_path, run_cli):
        # no chain reaches probability 1.5, so every point fails
        out_path = tmp_path / "s.csv"
        out = run_cli("sweep", "--axis", "probability", "--grid", "1.5",
                      "--replications", "10", "--format", "svg", "--out", str(out_path))
        assert out.returncode == 0
        assert f"skipped {tmp_path / 's.svg'}: nothing to plot" in out.stderr
        assert not (tmp_path / "s.svg").exists()
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"s.csv"}

    def test_manifest_times_each_stage(self, tmp_path):
        # a chain small enough to enumerate, and a point that fails
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(ChainSpec(4, 1.0, 5).to_dict()))
        out_path = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--axis", "probability", "--grid", "0.2,1.5",
                         "--replications", "50", "--spec", str(spec),
                         "--out", str(out_path)]) == 0
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        stages = manifest["stage_seconds"]
        assert set(stages) == {"calibrate", "sample", "enumerate", "write"}
        assert all(v >= 0 for v in stages.values())
        assert sum(stages.values()) <= manifest["duration_seconds"]

    def test_render_failure_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def fail(table, **kw):
            raise ValueError("cannot render")

        monkeypatch.setattr(cli, "table_plot", fail)
        out_path = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--axis", "spontaneity", "--grid", "0.5",
                         "--replications", "20", "--format", "svg",
                         "--out", str(out_path)]) == 2
        assert "configuration error: cannot render" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_spec_keeps_the_axis_default_replications(self, tmp_path, monkeypatch):
        seen = []

        def record(axis, grid, base, replications):
            seen.append((axis, grid, replications))
            return experiments.ExperimentTable([])

        monkeypatch.setattr(experiments, "variance_sweep", record)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(ChainSpec(11, 1.0, 20, target_probability=0.5).to_dict()))
        assert cli.main(["sweep", "--axis", "sample_count", "--spec", str(spec),
                         "--out", str(tmp_path / "sweep.csv")]) == 0
        assert seen == [("sample_count", list(experiments.SAMPLE_COUNT_GRID), 2_000)]


    def test_infeasible_sample_count_spec_exit_4(self, tmp_path, run_cli):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(ChainSpec(5, 0.5, 3, target_probability=0.0).to_dict()))
        out = run_cli("sweep", "--axis", "sample_count", "--spec", str(spec),
                      "--replications", "10", "--format", "svg",
                      "--out", str(tmp_path / "sweep.csv"))
        assert out.returncode == 4
        assert "infeasible experiment point: target probability 0.0" in out.stderr
        assert list(tmp_path.iterdir()) == [spec]

    @pytest.mark.parametrize("argv,message", [
        (["--replications", "0"], "replications must be >= 2"),
        (["--replications", "1"], "replications must be >= 2"),
        (["--grid", ""], "grid must be nonempty"),
        (["--axis", "sample_count", "--grid", "0,2"],
         "sample_count grid values must be positive integers, got 0.0"),
        (["--axis", "sample_count", "--grid", "2.7"],
         "sample_count grid values must be positive integers, got 2.7"),
    ], ids=["replications_0", "replications_1", "empty_grid", "count_0", "count_2.7"])
    def test_explicit_values_are_checked_exit_2(self, tmp_path, capsys, argv, message):
        # an explicit value, even a falsy one, is never replaced by the default
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--axis", "probability", *argv, "--out", str(out)]) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestDistributionCommand:
    def test_histogram_written(self, tmp_path, run_cli):
        out_path = tmp_path / "hist.csv"
        out = run_cli("distribution", "--n-estimates", "300", "--samples", "5",
                      "--seed", "6", "--out", str(out_path))
        assert out.returncode == 0
        assert out_path.read_text().splitlines()[0] == "kind,bin_low,bin_high,count"

    def test_infeasible_spec_exit_4(self, tmp_path, run_cli):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(ChainSpec(5, 0.5, 3, target_probability=0.0).to_dict()))
        out = run_cli("distribution", "--spec", str(spec), "--n-estimates", "10",
                      "--samples", "5", "--out", str(tmp_path / "hist.csv"))
        assert out.returncode == 4
        assert "infeasible experiment point: target probability 0.0" in out.stderr
        assert list(tmp_path.iterdir()) == [spec]

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_bins_are_checked_before_sampling_exit_2(self, tmp_path, run_cli, monkeypatch,
                                                     bins):
        def fail(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(experiments, "_sample_stack", fail)
        out_path = tmp_path / "hist.csv"
        out = run_cli("distribution", "--bins", bins, "--out", str(out_path))
        assert out.returncode == 2
        assert f"configuration error: bins must be >= 1, got {bins}" in out.stderr
        assert not out_path.exists()

    def test_format_is_not_an_option(self, tmp_path, capsys):
        out_path = tmp_path / "h.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["distribution", "--n-estimates", "50", "--samples", "5",
                      "--format", "json", "--out", str(out_path)])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not out_path.exists()


class TestCohortCommand:
    def test_small_cohort_runs(self, tmp_path, run_cli):
        out_path = tmp_path / "cohort.csv"
        out = run_cli("cohort", "--patients", "60", "--timelines", "8",
                      "--rounds", "4", "--states", "4", "--horizon", "6",
                      "--seed", "9", "--out", str(out_path))
        assert out.returncode == 0
        text = out_path.read_text()
        assert "auroc" in text and "equivalence_ratio" in text

    def test_one_class_cohort_skips_the_svg(self, tmp_path, run_cli):
        # both labels fall in one class, so there is no AUROC row to plot
        out_path = tmp_path / "c.csv"
        out = run_cli("cohort", "--patients", "2", "--timelines", "3", "--rounds", "2",
                      "--seed", "0", "--format", "svg", "--out", str(out_path))
        assert out.returncode == 0
        assert "auroc_rounds_dropped" in out_path.read_text()
        assert f"skipped {tmp_path / 'c.svg'}: nothing to plot" in out.stderr
        assert not (tmp_path / "c.svg").exists()
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"c.csv"}
        assert "write" in manifest["stage_seconds"]

    def test_manifest_times_the_whole_command(self, tmp_path, monkeypatch):
        real = experiments.synthetic_cohort_eval

        def slow(spec):
            time.sleep(0.2)
            return real(spec)

        monkeypatch.setattr(experiments, "synthetic_cohort_eval", slow)
        out_path = tmp_path / "cohort.csv"
        assert cli.main(["cohort", "--patients", "20", "--timelines", "4",
                         "--rounds", "2", "--states", "4", "--horizon", "4",
                         "--seed", "9", "--out", str(out_path)]) == 0
        manifest = json.loads((tmp_path / "cohort.csv.manifest.json").read_text())
        assert manifest["duration_seconds"] >= 0.2
        assert "started" not in manifest["config"]

    def test_manifest_times_each_stage(self, tmp_path):
        out_path = tmp_path / "cohort.csv"
        assert cli.main(["cohort", "--patients", "30", "--timelines", "6",
                         "--rounds", "3", "--states", "4", "--horizon", "5",
                         "--seed", "9", "--format", "svg", "--out", str(out_path)]) == 0
        manifest = json.loads((tmp_path / "cohort.csv.manifest.json").read_text())
        stages = manifest["stage_seconds"]
        assert set(stages) == {"calibrate", "sample", "bootstrap", "summary", "write"}
        assert all(v >= 0 for v in stages.values())
        assert sum(stages.values()) <= manifest["duration_seconds"]


def test_import_leaves_scipy_unloaded():
    # scipy.stats costs about a second per process; only tests may use it
    code = ("import sys, seqrisk, seqrisk.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_a_cohort_leaves_numpy_ma_unloaded(tmp_path):
    # np.percentile imports numpy.ma through np.unique, about 1 MB and 12 ms
    # of every cold cohort; the cohort's CIs sort their samples instead
    out_path = tmp_path / "cohort.csv"
    code = ("import sys; from seqrisk import cli; "
            "code = cli.main(['cohort', '--patients', '30', '--timelines', '20', "
            f"'--rounds', '5', '--seed', '3', '--out', {str(out_path)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False"
    assert ",auroc," in out_path.read_text()
