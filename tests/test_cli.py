import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sirvar
import sirvar.abm
from sirvar import io
from sirvar.cli import main
from sirvar.core import EnsembleResult

from synthetic_reference import synthetic_reference_path


def run(*argv):
    return main(list(argv))


def read_meta(run_dir):
    with open(run_dir / "metadata.json", encoding="utf-8") as fh:
        return json.load(fh)


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "run-sd" in capsys.readouterr().out

    def test_subcommand_help_lists_flags_with_defaults(self, capsys):
        assert run("run-mc", "--help") == 0
        out = capsys.readouterr().out
        for flag in ("--out", "--seed", "--weeks", "--population", "--contact-rate",
                     "--infection-prob", "--illness-duration", "--threads",
                     "--vary", "--sigma", "--replicates"):
            assert flag in out
        assert "default" in out

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        assert run("run-sd", "--out", str(tmp_path / "x"), "--bogus") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--seed", "--threads", "--replicates"])
    def test_run_sd_takes_no_ensemble_flags(self, tmp_path, capsys, flag):
        # run-sd draws nothing and runs one integration
        out = tmp_path / "x"
        assert run("run-sd", flag, "2", "--out", str(out)) == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert not out.exists()
        assert run("run-sd", "--help") == 0
        assert flag not in capsys.readouterr().out
        assert run("run-abm", "--help") == 0
        assert flag in capsys.readouterr().out

    def test_console_script_is_main(self, tmp_path):
        root = Path(sirvar.__file__).parents[2]
        pyproject = root / "pyproject.toml"
        if not pyproject.exists():
            pytest.skip("no pyproject.toml beside src/ (an installed copy)")
        # a regex, since tomllib is Python 3.11+
        scripts = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n)*)",
                            pyproject.read_text(encoding="utf-8"), re.M)
        assert scripts and re.search(r'^sirvar\s*=\s*"sirvar\.cli:main"\s*$',
                                     scripts.group(1), re.M)
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run([sys.executable, "-m", "sirvar.cli", "run-sd", "--threads", "2",
                               "--out", str(tmp_path / "x")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 2
        assert "unrecognized arguments: --threads 2" in done.stderr
        assert not (tmp_path / "x").exists()

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        assert run("run-mc", "--vary", "weather", "--out", str(tmp_path / "x")) == 2
        capsys.readouterr()

    def test_missing_out_exits_2(self, capsys):
        assert run("run-sd") == 2
        capsys.readouterr()

    def test_invalid_topology_flags_exit_2(self, tmp_path, capsys):
        assert run("run-abm", "--out", str(tmp_path / "x"), "--k", "3") == 2
        assert run("run-abm", "--out", str(tmp_path / "x"), "--p-rewire", "1.5") == 2
        capsys.readouterr()
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, named", [
        (["run-sd", "--dt", "0.3"], "dt=0.3"),
        (["run-mc", "--vary", "all", "--dt", "0.3"], "dt=0.3"),
        (["run-sd", "--dt", "0"], "dt must be > 0"),
        (["run-sd", "--contact-rate", "-1"], "contact_rate must be >= 0, got -1.0"),
        (["run-sd", "--infection-prob", "2"], "infection_prob must be in [0, 1], got 2.0"),
        (["run-sd", "--illness-duration", "0"], "illness_duration=0.0"),
        (["run-sd", "--infection-prob", "0"], "infection_prob=0.0"),
        (["run-sd", "--population", "0"], "population must be >= 1, got 0"),
        (["run-mc", "--vary", "all", "--sigma", "0"], "sigma_fraction must be > 0, got 0.0"),
        (["run-mc", "--vary", "all", "--replicates", "0"], "replicates must be >= 1, got 0"),
        (["run-abm", "--population", "50", "--initial-infected", "51"], "got 51"),
        (["run-abm", "--population", "10", "--k", "10"], "--k must be < --population"),
        (["run-sd", "--weeks", "0"], "--weeks must be >= 1, got 0"),
        (["run-mc", "--vary", "all", "--threads", "0"], "--threads must be >= 1, got 0"),
        (["run-abm", "--seed", "-1"], "--seed must be an unsigned 64-bit integer, got -1"),
        (["run-abm", "--seed", str(2**64)],
         f"--seed must be an unsigned 64-bit integer, got {2**64}"),
        (["run-abm", "--replicates", "0"], "--replicates must be >= 1, got 0"),
        (["run-sd", "--contact-rate", "inf"], "contact_rate must be finite, got inf"),
        (["run-mc", "--vary", "all", "--sigma", "inf"], "sigma_fraction must be finite, got inf"),
        (["run-abm", "--contact-rate", "inf"], "contact_rate must be finite, got inf"),
        (["run-sd", "--infection-prob", "1e-320"], "infection_prob=1e-320"),
        (["run-sd", "--illness-duration", "1e-320"], "illness_duration=1e-320"),
        (["run-sd", "--dt", "inf"], "dt=inf"),
        (["run-mc", "--vary", "all", "--dt", "inf"], "dt=inf"),
        (["run-abm", "--population", str(2**31)], "--population must be below 2**31"),
        (["run-abm", "--population", str(2**31), "--reuse-network"],
         "--population must be below 2**31"),
        (["run-sd", "--dt", "0.1000000000001"], "dt=0.1000000000001"),
        (["run-mc", "--vary", "all", "--dt", "0.0333333333334"], "dt=0.0333333333334"),
        (["run-sd", "--dt", "1e-300"], "dt=1e-300"),
        (["run-mc", "--vary", "all", "--sigma", "1e308", "--replicates", "2"],
         "--sigma: sigma_fraction * illness_duration = 1e+308 * 4.2 is not finite"),
        (["run-mc", "--vary", "contact", "--sigma", "1e308", "--replicates", "2"],
         "--sigma: sigma_fraction * contact_rate = 1e+308 * "),
        (["run-abm", "--population", "300", "--replicates", "1", "--contact-rate", "1e300"],
         "contact_rate * infection_prob * population = 1.95e+301 is above 4.29497e+09, "
         "the transmission budget of one day"),
        (["run-abm", "--population", "300", "--replicates", "1", "--illness-duration", "1e-300"],
         "contact_rate * infection_prob * population = 4.63086e+302 is above 4.29497e+09, "
         "the transmission budget of one day"),
        # a mean per agent within numpy's Poisson bound whose day total at N = 52,910 is not
        (["run-abm", "--replicates", "1", "--contact-rate", "1e17"],
         "contact_rate * infection_prob * population = 3.43915e+20 is above 4.29497e+09, "
         "the transmission budget of one day"),
        # on the week grid, but 105 days would take 1.05e9 RK4 steps
        (["run-sd", "--dt", "1e-7"], "dt=1e-07 divides 105 days into more than MAX_STEPS"),
        (["run-mc", "--vary", "all", "--dt", "1e-7"],
         "dt=1e-07 divides 105 days into more than MAX_STEPS"),
        # one week past the most whose days fit MAX_STEPS = 10**7, and far past;
        # the whole message, so it names no dt
        (["run-abm", "--weeks", "1428572", "--replicates", "1", "--population", "300"],
         "usage error: --weeks 1428572 is 10000004 days, and run-abm steps through at most "
         "MAX_STEPS = 10000000 days, so --weeks must be at most 1428571\n"),
        (["run-abm", "--weeks", "2000000", "--replicates", "1", "--population", "300"],
         "usage error: --weeks 2000000 is 14000000 days, and run-abm steps through at most "
         "MAX_STEPS = 10000000 days, so --weeks must be at most 1428571\n"),
        # no recovery leaves no contact rate that reaches the attack rate
        (["run-sd", "--illness-duration", "inf"], "illness_duration=inf"),
        # within numpy's bound, but the day's (2, T) block would take 3 PB
        (["run-abm", "--population", "300", "--replicates", "1", "--contact-rate", "1e13"],
         "contact_rate * infection_prob * population = 1.95e+14 is above 4.29497e+09, "
         "the transmission budget of one day"),
    ])
    def test_bad_values_exit_2(self, tmp_path, capsys, argv, named):
        out = tmp_path / "x"
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("sirvar: usage error:") and named in err
        assert "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def modules_after_import(target: str) -> set[str]:
        """The modules loaded once a fresh interpreter imports ``target``."""
        package_root = str(Path(sirvar.__file__).parents[1])
        code = (f"import sys; sys.path.insert(0, {package_root!r}); "
                f"import {target}; print(*sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=60)
        return set(done.stdout.split())

    def test_import_leaves_scipy_out(self):
        assert "scipy" not in self.modules_after_import("sirvar.cli")

    @pytest.mark.parametrize("module", ["concurrent.futures", "multiprocessing"])
    def test_import_leaves_process_pool_out(self, module):
        # serial commands never open a pool, so they never pay for its import
        assert module not in self.modules_after_import("sirvar.cli")

    def test_package_import_loads_no_submodule(self):
        # each name is imported from the module that owns it
        loaded = self.modules_after_import("sirvar")
        assert "sirvar" in loaded
        assert not {m for m in loaded if m.startswith("sirvar.")}

    @pytest.mark.parametrize("command", [
        ("run-mc", "--vary", "all", "--replicates", "2"),
        ("run-abm", "--population", "300", "--replicates", "1"),
    ])
    def test_metadata_records_cpu_count(self, tmp_path, capsys, command):
        assert run(*command, "--weeks", "2", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        cpus = read_meta(tmp_path)["cpu_count"]
        assert isinstance(cpus, int) and cpus > 0

    def test_metadata_records_requested_threads(self, tmp_path, capsys, monkeypatch):
        # one replicate runs in this process alone, whatever --threads asks for
        pids, replicate = [], sirvar.abm._abm_replicate
        monkeypatch.setattr(sirvar.abm, "_abm_replicate",
                            lambda context, r: pids.append(os.getpid()) or replicate(context, r))
        assert run("run-abm", "--population", "300", "--replicates", "1", "--threads", "8",
                   "--weeks", "2", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        assert read_meta(tmp_path)["threads"] == 8
        assert pids == [os.getpid()]


RUN_KEYS = ["kind", "tool", "version", "created_unix", "params", "weeks", "master_seed",
            "conventions", "streams"]
ENSEMBLE_KEYS = ["clamped_draws", "threads", "cpu_count", "elapsed_seconds",
                 "parameter_provenance", "total_variation"]


class TestMetadataSchema:
    @pytest.mark.parametrize("argv, keys", [
        (["run-sd"], [*RUN_KEYS, "dt", "parameter_provenance", "peak_infected", "peak_day",
                      "cumulative_recovered_final"]),
        (["run-mc", "--vary", "all", "--replicates", "2"],
         [*RUN_KEYS, "dt", "scenario", "vary_illness", "vary_contact", "vary_infection",
          "sigma_fraction", "replicates", *ENSEMBLE_KEYS]),
        (["run-abm", "--population", "300", "--replicates", "2"],
         [*RUN_KEYS, "replicates", "network_k", "network_p_rewire", "reuse_network",
          "exponential_recovery", "recovery_model", *ENSEMBLE_KEYS]),
    ], ids=["run-sd", "run-mc", "run-abm"])
    def test_keys_in_order(self, tmp_path, capsys, argv, keys):
        assert run(*argv, "--weeks", "2", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        assert list(read_meta(tmp_path)) == keys

    def test_run_directory_is_metadata_and_csv_tables(self, tmp_path, capsys):
        ensemble_files = {"metadata.json", "ensemble.csv", "summary.csv"}
        for argv, files in [
            (["run-sd"], {"metadata.json", "series.csv"}),
            (["run-mc", "--vary", "all", "--replicates", "2"], ensemble_files),
            (["run-abm", "--population", "300", "--replicates", "2"], ensemble_files),
        ]:
            out = tmp_path / argv[0]
            assert run(*argv, "--weeks", "2", "--out", str(out)) == 0
            assert {path.name for path in out.iterdir()} == files
        assert run("run-mc", "--vary", "all", "--format", "json",
                   "--out", str(tmp_path / "x")) == 2
        assert not (tmp_path / "x").exists()
        # a run.json without metadata.json is not a run directory
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        (legacy / "run.json").write_text(
            json.dumps({"metadata": read_meta(tmp_path / "run-sd"), "series": [1.0, 2.0]}),
            encoding="utf-8")
        capsys.readouterr()
        code = run("compare", "--reference", str(tmp_path / "run-sd" / "series.csv"),
                   "--inputs", str(legacy), "--out", str(tmp_path / "report"))
        assert code == 1
        assert str(legacy / "metadata.json") in capsys.readouterr().err
        assert not (tmp_path / "report").exists()


class TestRunSd:
    def test_defaults_write_15_weeks(self, tmp_path, capsys):
        out = tmp_path / "sd"
        assert run("run-sd", "--out", str(out)) == 0
        capsys.readouterr()
        ref = io.load_reference(out / "series.csv")
        assert isinstance(ref, EnsembleResult) and ref.matrix.shape == (1, 15)
        meta = read_meta(out)
        assert meta["kind"] == "sd"
        assert meta["master_seed"] is None
        assert meta["params"]["contact_rate"] == pytest.approx(5.654, abs=2e-3)
        assert meta["peak_infected"] == pytest.approx(3754, abs=2)

    def test_single_week(self, tmp_path, capsys):
        out = tmp_path / "sd1"
        assert run("run-sd", "--out", str(out), "--weeks", "1") == 0
        capsys.readouterr()
        assert io.load_reference(out / "series.csv").weeks == 1

    def test_dt_convergence(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("run-sd", "--out", str(a), "--dt", "0.1") == 0
        assert run("run-sd", "--out", str(b), "--dt", "0.05") == 0
        capsys.readouterr()
        ra = read_meta(a)["cumulative_recovered_final"]
        rb = read_meta(b)["cumulative_recovered_final"]
        assert abs(ra - rb) / rb < 1e-4

    def test_saved_run_is_its_rerun(self, tmp_path, capsys):
        # a deterministic run is a one-row ensemble, rerun and loaded alike
        out = tmp_path / "sd"
        assert run("run-sd", "--weeks", "4", "--population", "3000", "--out", str(out)) == 0
        capsys.readouterr()
        loaded = io.load_run(out)
        saved = loaded["ensemble"].matrix
        assert saved.shape == (1, 4)
        assert np.array_equal(io.rerun_from_metadata(loaded["metadata"]).matrix, saved)
        assert np.array_equal(saved, io.load_reference(out / "series.csv").matrix)

    def test_a_roundoff_negative_r_does_not_fail_the_run(self, tmp_path, capsys):
        out = tmp_path / "sd"
        assert run("run-sd", "--contact-rate", "0", "--illness-duration", "0.35902858253024017",
                   "--dt", "1", "--weeks", "1", "--population", "1000",
                   "--initial-infected", "10", "--out", str(out)) == 0
        capsys.readouterr()
        assert io.load_run(out)["ensemble"].matrix[0, 0] == pytest.approx(10.0)

    def test_overflowing_step_exits_1_naming_the_step(self, tmp_path, capsys):
        out = tmp_path / "sd"
        assert run("run-sd", "--contact-rate", "1e308", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "state left the valid region at step 1 " in err and "S=nan" in err
        assert not out.exists()


class TestRunMc:
    def test_single_replicate_tiny_sigma_matches_run_sd(self, tmp_path, capsys):
        sd_dir, mc_dir = tmp_path / "sd", tmp_path / "mc"
        assert run("run-sd", "--out", str(sd_dir)) == 0
        assert run("run-mc", "--vary", "all", "--replicates", "1", "--sigma", "1e-9",
                   "--out", str(mc_dir)) == 0
        capsys.readouterr()
        sd_row = io.load_run(sd_dir)["ensemble"].matrix[0]
        mc_matrix = io.load_run(mc_dir)["ensemble"].matrix
        assert mc_matrix[0] == pytest.approx(sd_row, rel=1e-6)

    def test_seeded_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("run-mc", "--vary", "contact", "--replicates", "12",
                       "--seed", "42", "--out", str(out)) == 0
        capsys.readouterr()
        assert (a / "ensemble.csv").read_bytes() == (b / "ensemble.csv").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_metadata_allows_rerun(self, tmp_path, capsys):
        out = tmp_path / "mc"
        assert run("run-mc", "--vary", "illness", "--replicates", "8",
                   "--seed", "9", "--out", str(out)) == 0
        capsys.readouterr()
        loaded = io.load_run(out)
        rerun = io.rerun_from_metadata(loaded["metadata"])
        assert np.array_equal(rerun.matrix, loaded["ensemble"].matrix)
        assert "elapsed_seconds" in loaded["metadata"]

    def test_clamped_draws_are_recorded_and_reloaded(self, tmp_path, capsys):
        out = tmp_path / "mc"
        assert run("run-mc", "--vary", "infection", "--sigma", "1000", "--replicates", "20",
                   "--seed", "1", "--weeks", "3", "--out", str(out)) == 0
        capsys.readouterr()
        loaded = io.load_run(out)
        clamped = loaded["metadata"]["clamped_draws"]
        assert clamped > 0
        assert loaded["ensemble"].clamped_draws == clamped
        assert io.rerun_from_metadata(loaded["metadata"]).clamped_draws == clamped


def read_summary_column(run_dir, col):
    lines = (run_dir / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    idx = header.index(col)
    return np.array([float(line.split(",")[idx]) for line in lines[1:]])


def read_summary_iqr(run_dir):
    return read_summary_column(run_dir, "iqr")


def read_summary_median(run_dir):
    return read_summary_column(run_dir, "median")


class TestRunAbm:
    def test_single_replicate(self, tmp_path, capsys):
        out = tmp_path / "abm"
        assert run("run-abm", "--out", str(out), "--population", "500",
                   "--replicates", "1", "--seed", "3") == 0
        capsys.readouterr()
        loaded = io.load_run(out)
        assert loaded["ensemble"].replicates == 1
        assert loaded["metadata"]["elapsed_seconds"] > 0.0

    def test_rewiring_extremes_change_variance(self, tmp_path, capsys):
        frozen, random_net = tmp_path / "p0", tmp_path / "p1"
        common = ["--population", "400", "--replicates", "12", "--seed", "5",
                  "--contact-rate", "8", "--infection-prob", "0.3",
                  "--initial-infected", "4", "--weeks", "8"]
        assert run("run-abm", "--out", str(frozen), "--p-rewire", "0", *common) == 0
        assert run("run-abm", "--out", str(random_net), "--p-rewire", "1", *common) == 0
        capsys.readouterr()
        iqr_frozen = read_summary_iqr(frozen)
        iqr_random = read_summary_iqr(random_net)
        week_frozen = int(np.argmax(read_summary_median(frozen)))
        week_random = int(np.argmax(read_summary_median(random_net)))
        assert iqr_frozen[week_frozen] != iqr_random[week_random]

    @pytest.mark.parametrize("argv", [
        (),
        ("--reuse-network", "--threads", "2"),
        ("--exponential-recovery", "--contact-rate", "8"),
    ], ids=["fresh", "reuse-network-pool", "exponential"])
    def test_saved_run_is_its_rerun(self, tmp_path, capsys, argv):
        out = tmp_path / "abm"
        assert run("run-abm", "--out", str(out), "--population", "400", "--replicates", "4",
                   "--seed", "7", "--initial-infected", "10", "--weeks", "6", *argv) == 0
        capsys.readouterr()
        loaded = io.load_run(out)
        saved = loaded["ensemble"].matrix
        assert saved.any()
        assert np.array_equal(io.rerun_from_metadata(loaded["metadata"]).matrix, saved)


class TestCompare:
    def test_input_equal_to_reference_gives_p_one(self, tmp_path, capsys):
        sd_dir = tmp_path / "sd"
        assert run("run-sd", "--out", str(sd_dir)) == 0
        report = tmp_path / "report"
        assert run("compare", "--reference", str(sd_dir / "series.csv"),
                   "--inputs", str(sd_dir), "--out", str(report)) == 0
        capsys.readouterr()
        lines = (report / "report.csv").read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["p_value"]) == 1.0
        assert row["reject_at_5pct"] == "False"

    def test_row_per_input_with_variation_totals(self, tmp_path, capsys):
        sd_dir = tmp_path / "sd"
        mc_dir = tmp_path / "mc"
        abm_dir = tmp_path / "abm"
        assert run("run-sd", "--out", str(sd_dir)) == 0
        assert run("run-mc", "--vary", "all", "--replicates", "6", "--out", str(mc_dir)) == 0
        assert run("run-abm", "--out", str(abm_dir), "--population", "300",
                   "--replicates", "4") == 0
        report = tmp_path / "report"
        assert run("compare", "--reference", str(synthetic_reference_path()),
                   "--inputs", str(sd_dir), str(mc_dir), str(abm_dir),
                   "--out", str(report)) == 0
        capsys.readouterr()
        lines = (report / "report.csv").read_text().splitlines()
        assert len(lines) == 4
        assert (report / "report.txt").exists()
        report_txt = (report / "report.txt").read_text(encoding="utf-8")
        assert report_txt.startswith("reference: synthetic_reference (15 weeks)\n")
        mc_row = lines[2].split(",")
        assert mc_row[1] == "ensemble"
        assert float(mc_row[-1]) > 0.0

    @pytest.mark.parametrize("count", ["inf", "nan"])
    def test_non_finite_reference_exits_1_naming_the_line(self, tmp_path, capsys, count):
        sd_dir = tmp_path / "sd"
        assert run("run-sd", "--out", str(sd_dir), "--weeks", "2") == 0
        reference = tmp_path / "ref.csv"
        reference.write_text(f"week,infected\n1,5\n2,{count}\n", encoding="utf-8")
        code = run("compare", "--reference", str(reference), "--inputs", str(sd_dir),
                   "--out", str(tmp_path / "report"))
        err = capsys.readouterr().err
        assert code == 1
        assert "ref.csv: line 3" in err and count in err

    def test_bad_count_in_run_exits_1_naming_the_file(self, tmp_path, capsys):
        mc_dir = tmp_path / "mc"
        assert run("run-mc", "--vary", "all", "--replicates", "3", "--out", str(mc_dir)) == 0
        ensemble_csv = mc_dir / "ensemble.csv"
        lines = ensemble_csv.read_text(encoding="utf-8").splitlines()
        fields = lines[1].split(",")
        fields[1] = "-1"
        lines[1] = ",".join(fields)
        ensemble_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run("compare", "--reference", str(synthetic_reference_path()),
                   "--inputs", str(mc_dir), "--out", str(tmp_path / "report"))
        err = capsys.readouterr().err
        assert code == 1
        assert f"{ensemble_csv}: line 2: count must be finite and >= 0" in err

    def test_dropped_week_in_run_exits_1_naming_the_file(self, tmp_path, capsys):
        mc_dir = tmp_path / "mc"
        assert run("run-mc", "--vary", "all", "--replicates", "3", "--out", str(mc_dir)) == 0
        path = mc_dir / "ensemble.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n",
                        encoding="utf-8")
        code = run("compare", "--reference", str(synthetic_reference_path()),
                   "--inputs", str(mc_dir), "--out", str(tmp_path / "report"))
        err = capsys.readouterr().err
        assert code == 1
        assert f"{path}: row 0: expected 15 counts (weeks in the metadata), got 14" in err

    def test_length_mismatch_exits_1(self, tmp_path, capsys):
        sd_dir = tmp_path / "sd"
        assert run("run-sd", "--out", str(sd_dir), "--weeks", "10") == 0
        report = tmp_path / "report"
        code = run("compare", "--reference", str(synthetic_reference_path()),
                   "--inputs", str(sd_dir), "--out", str(report))
        err = capsys.readouterr().err
        assert code == 1
        assert f"{sd_dir}: week count mismatch: 10 weeks, the reference has 15" in err
