import json
import re

import numpy as np
import pytest

import sirvar.abm
from sirvar import io
from sirvar.core import EnsembleResult
from sirvar.montecarlo import VariationSpec, run_sd_ensemble
from sirvar.stats import weekly_summary

from paper_params import default_params
from synthetic_reference import save_series, synthetic_reference_path, write_synthetic_reference


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# The fields beside ``params`` of a small run of each kind.
RUN_FIELDS = {"sd": dict(dt=0.1),
              "sd-mc": dict(dt=0.1, vary_illness=True, vary_contact=False, vary_infection=False,
                            sigma_fraction=0.1, replicates=2),
              "abm": dict(replicates=2, network_k=6, network_p_rewire=0.2,
                          reuse_network=True, exponential_recovery=False)}
# Every field each kind's runner reads from its metadata.
RUN_INPUTS = {"sd": ("params", "weeks", "dt"),
              "sd-mc": ("params", "weeks", "master_seed", "replicates", "dt", "sigma_fraction",
                        "vary_illness", "vary_contact", "vary_infection"),
              "abm": ("params", "weeks", "master_seed", "replicates", "network_k",
                      "network_p_rewire", "reuse_network", "exponential_recovery")}


def forbid_runs(monkeypatch):
    """Make any RK4 integration, ensemble or network fail the test."""
    def run(*args, **kwargs):
        raise AssertionError("a run started")

    for name in ("integrate", "run_sd_ensemble", "run_abm_ensemble"):
        monkeypatch.setattr(io, name, run)
    monkeypatch.setattr(sirvar.abm, "build_small_world", run)


class TestLoadReference:
    def test_well_formed(self, tmp_path):
        rows = "\n".join(f"{w},{w * 10}" for w in range(1, 16))
        path = write(tmp_path / "obs.csv", f"week,infected\n{rows}\n")
        ref = io.load_reference(path)
        assert ref.weeks == 15
        assert ref.matrix[0, 14] == 150.0

    def test_negative_count_names_line(self, tmp_path):
        path = write(tmp_path / "bad.csv", "week,infected\n1,5\n2,7\n3,-5\n")
        with pytest.raises(io.ReferenceFormatError, match="line 4"):
            io.load_reference(path)

    @pytest.mark.parametrize("count", ["inf", "nan"])
    def test_non_finite_count_names_line(self, tmp_path, count):
        path = write(tmp_path / "bad.csv", f"week,infected\n1,5\n2,{count}\n")
        with pytest.raises(io.ReferenceFormatError, match=f"bad.csv: line 3: .*{count}"):
            io.load_reference(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            io.load_reference(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        path = write(tmp_path / "bad.csv", "weeks;infected\n1,5\n")
        with pytest.raises(io.ReferenceFormatError, match="line 1"):
            io.load_reference(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = write(tmp_path / "bad.csv", "week,infected\n1,5\ntwo,6\n")
        with pytest.raises(io.ReferenceFormatError, match="line 3"):
            io.load_reference(path)

    def test_non_consecutive_weeks(self, tmp_path):
        path = write(tmp_path / "bad.csv", "week,infected\n1,5\n3,6\n")
        with pytest.raises(io.ReferenceFormatError, match="line 3"):
            io.load_reference(path)

    def test_wrong_field_count(self, tmp_path):
        path = write(tmp_path / "bad.csv", "week,infected\n1,5,9\n")
        with pytest.raises(io.ReferenceFormatError, match="2 fields"):
            io.load_reference(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write(tmp_path / "obs.csv", "week,infected\n1,5\n\n2,7\n  \n")
        assert np.array_equal(io.load_reference(path).matrix[0], [5.0, 7.0])

    def test_header_only_has_no_data_rows(self, tmp_path):
        path = write(tmp_path / "empty.csv", "week,infected\n")
        with pytest.raises(io.ReferenceFormatError, match="empty.csv: no data rows"):
            io.load_reference(path)


class TestSeriesRoundTrip:
    def test_integer_counts_exact(self, tmp_path):
        series = np.array([0.0, 3.0, 17.0, 9.0, 1.0])
        path = tmp_path / "s.csv"
        save_series(series, path)
        loaded = io.load_reference(path)
        assert np.array_equal(loaded.matrix[0], series)

    def test_real_counts_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        series = rng.uniform(0.0, 4000.0, 8)
        path = tmp_path / "s.csv"
        save_series(series, path)
        loaded = io.load_reference(path)
        # repr round-trips doubles exactly, comfortably within 1e-12 relative
        assert np.array_equal(loaded.matrix[0], series)


class TestEnsemblePersistence:
    @pytest.fixture()
    def small_run(self):
        params = default_params()
        spec = VariationSpec(vary_contact=True, sigma_fraction=0.1)
        ensemble = run_sd_ensemble(params, spec, weeks=5, replicates=6, master_seed=11)
        meta = io.make_metadata(
            "sd-mc", params, 5, 11,
            dt=0.1, scenario="contact",
            vary_illness=False, vary_contact=True, vary_infection=False,
            sigma_fraction=0.1, replicates=6,
        )
        return ensemble, weekly_summary(ensemble), meta

    def test_round_trip(self, tmp_path, small_run):
        ensemble, summary, meta = small_run
        io.save_ensemble(ensemble, summary, tmp_path / "run", meta)
        loaded = io.load_run(tmp_path / "run")
        assert np.array_equal(loaded["ensemble"].matrix, ensemble.matrix)
        assert loaded["metadata"]["master_seed"] == 11
        assert loaded["metadata"]["total_variation"] == summary.total_variation

    def test_rerun_from_metadata_is_bit_identical(self, tmp_path, small_run):
        ensemble, summary, meta = small_run
        io.save_ensemble(ensemble, summary, tmp_path / "run", meta)
        loaded = io.load_run(tmp_path / "run")
        rerun = io.rerun_from_metadata(loaded["metadata"])
        assert np.array_equal(rerun.matrix, ensemble.matrix)

    def test_rerun_abm_from_metadata(self):
        params = default_params(population=300)
        meta = io.make_metadata(
            "abm", params, 4, 77,
            replicates=4, network_k=6, network_p_rewire=0.2,
            reuse_network=False, exponential_recovery=False,
        )
        first = io.rerun_from_metadata(meta)
        second = io.rerun_from_metadata(meta, threads=2)
        assert np.array_equal(first.matrix, second.matrix)

    @pytest.mark.parametrize("seed", [-1, 2**64, None, "7", 7.0, True])
    @pytest.mark.parametrize("kind, extra", [
        ("sd-mc", dict(dt=0.1, vary_illness=True, vary_contact=False, vary_infection=False,
                       sigma_fraction=0.1, replicates=2)),
        ("abm", dict(replicates=2, network_k=6, network_p_rewire=0.2,
                     reuse_network=False, exponential_recovery=False)),
        ("abm", dict(replicates=2, network_k=6, network_p_rewire=0.2,
                     reuse_network=True, exponential_recovery=False)),
    ])
    def test_rerun_rejects_a_bad_master_seed(self, monkeypatch, kind, extra, seed):
        def run(*args, **kwargs):
            raise AssertionError("an ensemble ran")

        monkeypatch.setattr(io, "run_sd_ensemble", run)
        monkeypatch.setattr(io, "run_abm_ensemble", run)
        meta = io.make_metadata(kind, default_params(population=300), 2, seed, **extra)
        with pytest.raises(ValueError, match=re.escape(
                f"master_seed must be an unsigned 64-bit integer, got {seed!r}")):
            io.rerun_from_metadata(meta)

    def test_rerun_rejects_an_off_grid_dt_before_any_replicate(self):
        meta = io.make_metadata("sd-mc", default_params(population=300), 2, 1, dt=0.3,
                                vary_illness=True, vary_contact=False, vary_infection=False,
                                sigma_fraction=0.1, replicates=2)
        with pytest.raises(ValueError, match=r"dt=0\.3 does not place day 7\.0 on the integration"):
            io.rerun_from_metadata(meta)

    @pytest.mark.parametrize("field, value", [("population", 300.5), ("initial_infected", 1.5)])
    def test_rerun_rejects_a_fractional_count_before_any_replicate(self, field, value):
        meta = io.make_metadata("abm", default_params(population=300), 2, 1, replicates=2,
                                network_k=6, network_p_rewire=0.2, reuse_network=False,
                                exponential_recovery=False)
        meta["params"][field] = value  # as a hand-edited metadata.json would hold it
        # a failing replicate would raise RuntimeError("replicate 0 failed: ...")
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
            io.rerun_from_metadata(meta)

    @pytest.mark.parametrize("kind, field, value", [
        ("sd", "weeks", 2.0),
        ("sd-mc", "weeks", 2.0), ("sd-mc", "replicates", 2.0), ("sd-mc", "replicates", True),
        ("abm", "weeks", 2.0), ("abm", "replicates", 2.0), ("abm", "replicates", True),
        ("abm", "network_k", 6.0), ("abm", "network_k", "6"),
    ])
    def test_rerun_rejects_a_count_that_is_not_an_integer(self, monkeypatch, kind, field, value):
        # load_run's rule, an int >= 1, so neither a float nor a bool, checked
        # before anything runs
        def run(*args, **kwargs):
            raise AssertionError("a run started")

        for name in ("integrate", "run_sd_ensemble", "run_abm_ensemble"):
            monkeypatch.setattr(io, name, run)
        meta = io.make_metadata(kind, default_params(population=300), 2, 1, **RUN_FIELDS[kind])
        meta[field] = value
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must be an integer >= 1, got {value!r}")):
            io.rerun_from_metadata(meta)

    @pytest.mark.parametrize("kind, field, value, what", [
        ("abm", "reuse_network", "no", "a boolean"),
        ("abm", "reuse_network", 1, "a boolean"),
        ("abm", "exponential_recovery", "no", "a boolean"),
        ("sd-mc", "vary_illness", "yes", "a boolean"),
        ("sd-mc", "vary_contact", 0, "a boolean"),
        ("sd-mc", "vary_infection", None, "a boolean"),
        ("abm", "network_p_rewire", "0.2", "a number"),
        ("abm", "network_p_rewire", False, "a number"),
        ("sd-mc", "sigma_fraction", "0.1", "a number"),
        ("sd-mc", "dt", "0.1", "a number"),
        ("sd", "dt", "0.1", "a number"),
        ("sd", "dt", True, "a number"),
    ])
    def test_rerun_rejects_a_flag_or_real_of_another_type(self, monkeypatch, kind, field, value,
                                                          what):
        # a truthy string such as "no" would otherwise switch a flag on, and a
        # string real would fail deep in a runner with a bare TypeError
        def run(*args, **kwargs):
            raise AssertionError("a run started")

        for name in ("integrate", "run_sd_ensemble", "run_abm_ensemble", "week_indices"):
            monkeypatch.setattr(io, name, run)
        meta = io.make_metadata(kind, default_params(population=300), 2, 1, **RUN_FIELDS[kind])
        meta[field] = value
        with pytest.raises(ValueError, match=re.escape(f"{field} must be {what}, got {value!r}")):
            io.rerun_from_metadata(meta)

    @pytest.mark.parametrize("kind, field", [
        *((kind, field) for kind, fields in RUN_INPUTS.items() for field in fields),
        ("abm", "kind"), ("sd", "kind"),
    ])
    def test_rerun_rejects_a_missing_field(self, monkeypatch, kind, field):
        forbid_runs(monkeypatch)
        meta = io.make_metadata(kind, default_params(population=300), 2, 1, **RUN_FIELDS[kind])
        del meta[field]
        named = "unknown run kind None" if field == "kind" else f"{field} must be "
        with pytest.raises(ValueError, match=re.escape(named)):
            io.rerun_from_metadata(meta)

    @pytest.mark.parametrize("kind", ["sd-daily", ["abm"]])
    def test_rerun_rejects_an_unknown_kind(self, monkeypatch, kind):
        forbid_runs(monkeypatch)
        meta = io.make_metadata(kind, default_params(population=300), 2, 1, **RUN_FIELDS["abm"])
        with pytest.raises(ValueError, match=re.escape(f"unknown run kind {kind!r}")):
            io.rerun_from_metadata(meta)

    @pytest.mark.parametrize("field, value, what", [
        ("population", True, "an integer"), ("initial_infected", True, "an integer"),
        ("contact_rate", True, "a number"), ("contact_rate", "5", "a number"),
        ("infection_prob", "0.065", "a number"), ("illness_duration", False, "a number"),
    ])
    @pytest.mark.parametrize("kind", sorted(RUN_FIELDS))
    def test_rerun_rejects_a_bool_or_string_parameter(self, monkeypatch, kind, field, value,
                                                      what):
        # at JSON's true, initial_infected would rerun as one index case
        forbid_runs(monkeypatch)
        meta = io.make_metadata(kind, default_params(population=300), 2, 1, **RUN_FIELDS[kind])
        meta["params"][field] = value
        with pytest.raises(ValueError, match=re.escape(f"{field} must be {what}, got {value!r}")):
            io.rerun_from_metadata(meta)

    @pytest.mark.parametrize("drop, add, missing, unknown", [
        ("contact_rate", {}, ["contact_rate"], []),
        ("initial_infected", {}, ["initial_infected"], []),
        (None, {"R0": 1.5}, [], ["R0"]),
        ("population", {"N": 300}, ["population"], ["N"]),
    ], ids=["no-contact-rate", "no-initial-infected", "extra-R0", "renamed-population"])
    @pytest.mark.parametrize("kind", sorted(RUN_FIELDS))
    def test_rerun_rejects_params_without_exactly_the_fields(self, monkeypatch, kind, drop, add,
                                                              missing, unknown):
        # without initial_infected, SirParams' default would rerun one index case
        forbid_runs(monkeypatch)
        meta = io.make_metadata(kind, default_params(population=300), 2, 1, **RUN_FIELDS[kind])
        meta["params"].pop(drop, None)
        meta["params"].update(add)
        with pytest.raises(ValueError, match=re.escape(
                "params must hold exactly the keys ['population', 'contact_rate', "
                "'infection_prob', 'illness_duration', 'initial_infected'], "
                f"missing {missing}, unknown {unknown}")):
            io.rerun_from_metadata(meta)

    def test_rerun_accepts_a_whole_number_real(self):
        # JSON writes a whole float such as 0.0 as it is, but a hand-edited
        # file may hold 0; both are the same real
        meta = io.make_metadata("abm", default_params(population=300), 2, 1,
                                **{**RUN_FIELDS["abm"], "network_p_rewire": 0.0})
        expected = io.rerun_from_metadata(meta)
        meta["network_p_rewire"] = 0
        assert np.array_equal(io.rerun_from_metadata(meta).matrix, expected.matrix)

    def test_runs_record_the_stream_versions(self):
        meta = io.make_metadata("sd", default_params(), 2, 1, dt=0.1)
        assert meta["streams"] == {"sd_mc": 1, "network": 3, "abm": 4}
        assert meta["streams"] is not io.STREAM_VERSIONS

    @pytest.mark.parametrize("streams, family, version", [
        (None, "network", 1),
        ({"sd_mc": 1, "network": 3, "abm": 1}, "abm", 1),
        ({"sd_mc": 1, "network": 1, "abm": 4}, "network", 1),
        ({"sd_mc": 1, "network": 3, "abm": 2}, "abm", 2),
        ({"sd_mc": 1, "network": 2, "abm": 4}, "network", 2),
        ({"sd_mc": 1, "network": 3, "abm": 3}, "abm", 3),
    ], ids=["no-streams-key", "abm-1", "network-1", "abm-2", "network-2", "abm-3"])
    def test_rerun_refuses_an_abm_run_of_stream_version_1(self, streams, family, version):
        # a run without ``streams`` counts as version 1 of every family, and
        # ``network`` is checked first
        meta = io.make_metadata("abm", default_params(population=300), 2, 1, replicates=1,
                                network_k=6, network_p_rewire=0.2, reuse_network=False,
                                exponential_recovery=False)
        if streams is None:
            del meta["streams"]
        else:
            meta["streams"] = streams
        with pytest.raises(ValueError,
                           match=f"abm run records {family} stream version {version}, but "
                                 f"this sirvar draws version {io.STREAM_VERSIONS[family]}"):
            io.rerun_from_metadata(meta)

    @pytest.mark.parametrize("streams", [[1], None, "abm", 4])
    @pytest.mark.parametrize("kind", sorted(RUN_FIELDS))
    def test_rerun_rejects_streams_that_are_not_an_object(self, monkeypatch, kind, streams):
        # a missing streams counts as version 1, a present one must be an object
        forbid_runs(monkeypatch)
        meta = io.make_metadata(kind, default_params(population=300), 2, 1, **RUN_FIELDS[kind])
        meta["streams"] = streams
        with pytest.raises(ValueError,
                           match=re.escape(f"streams must be an object, got {streams!r}")):
            io.rerun_from_metadata(meta)

    @pytest.mark.parametrize("kind, extra", [
        ("sd", dict(dt=0.1)),
        ("sd-mc", dict(dt=0.1, vary_illness=True, vary_contact=False, vary_infection=False,
                       sigma_fraction=0.1, replicates=2)),
    ])
    def test_rerun_of_a_run_without_stream_versions(self, kind, extra):
        # runs saved before the version table count as version 1 of every
        # family, which is still what the SD and Monte-Carlo streams draw
        meta = io.make_metadata(kind, default_params(population=300), 2, 1, **extra)
        expected = io.rerun_from_metadata(meta)
        del meta["streams"]
        rerun = io.rerun_from_metadata(meta)
        assert np.array_equal(rerun.matrix, expected.matrix)

    @pytest.mark.parametrize("count", ["inf", "nan", "-1"])
    def test_bad_count_names_file_and_row(self, tmp_path, small_run, count):
        ensemble, summary, meta = small_run
        run_dir = tmp_path / "run"
        io.save_ensemble(ensemble, summary, run_dir, meta)
        lines = (run_dir / "ensemble.csv").read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + f",{count}"
        write(run_dir / "ensemble.csv", "\n".join(lines) + "\n")
        message = f"ensemble.csv: line 3: count must be finite and >= 0, got {float(count)}"
        with pytest.raises(io.ReferenceFormatError, match=message):
            io.load_run(run_dir)

    @pytest.mark.parametrize("edit, message", [
        (lambda line: line + ",7", "line 3: expected 6 fields, got 7"),
        (lambda line: "2" + line[1:],
         "line 3: replicates must be 0-indexed and consecutive, got 2"),
    ], ids=["field-count", "skipped-replicate"])
    def test_malformed_ensemble_csv_names_line(self, tmp_path, small_run, edit, message):
        ensemble, summary, meta = small_run
        io.save_ensemble(ensemble, summary, tmp_path / "run", meta)
        path = tmp_path / "run" / "ensemble.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = edit(lines[2])
        write(path, "\n".join(lines) + "\n")
        with pytest.raises(io.ReferenceFormatError, match=f"ensemble.csv: {message}"):
            io.load_run(tmp_path / "run")

    @pytest.mark.parametrize("edit", [
        lambda header: header.replace("replicate", "whatever"),
        lambda header: header.replace("week_1,week_2", "week_2,week_1"),
    ], ids=["renamed", "weeks-swapped"])
    def test_ensemble_csv_header_must_be_the_saved_one(self, tmp_path, small_run, edit):
        ensemble, summary, meta = small_run
        io.save_ensemble(ensemble, summary, tmp_path / "run", meta)
        path = tmp_path / "run" / "ensemble.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        header = "replicate,week_1,week_2,week_3,week_4,week_5"
        assert lines[0] == header and edit(header) != header
        lines[0] = edit(header)
        write(path, "\n".join(lines) + "\n")
        message = f"ensemble.csv: line 1: expected header '{header}'"
        with pytest.raises(io.ReferenceFormatError, match=re.escape(message)):
            io.load_run(tmp_path / "run")

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [line.rsplit(",", 1)[0] for line in lines],
         "ensemble.csv: row 0: expected 5 counts"),
        (lambda lines: lines[:-1], "ensemble.csv: expected 6 rows"),
    ], ids=["csv-dropped-week", "csv-missing-row"])
    def test_table_shape_must_match_metadata(self, tmp_path, small_run, edit, message):
        ensemble, summary, meta = small_run
        run_dir = tmp_path / "run"
        io.save_ensemble(ensemble, summary, run_dir, meta)
        lines = edit((run_dir / "ensemble.csv").read_text(encoding="utf-8").splitlines())
        write(run_dir / "ensemble.csv", "\n".join(lines) + "\n")
        with pytest.raises(io.ReferenceFormatError, match=message):
            io.load_run(run_dir)

    @pytest.mark.parametrize("field, value", [
        ("weeks", "15"), ("weeks", None), ("weeks", True), ("weeks", 0), ("weeks", 5.0),
        ("replicates", "6"), ("replicates", False), ("replicates", 0),
    ], ids=["weeks-string", "weeks-missing", "weeks-bool", "weeks-0", "weeks-float",
            "replicates-string", "replicates-bool", "replicates-0"])
    def test_metadata_shape_must_be_a_positive_integer(self, tmp_path, small_run, field,
                                                       value):
        ensemble, summary, meta = small_run
        run_dir = tmp_path / "run"
        io.save_ensemble(ensemble, summary, run_dir, meta)
        saved = json.loads((run_dir / "metadata.json").read_text(encoding="utf-8"))
        if value is None:
            del saved[field]
        else:
            saved[field] = value
        write(run_dir / "metadata.json", json.dumps(saved))
        message = f"{run_dir / 'metadata.json'}: {field} must be an integer >= 1, got {value!r}"
        with pytest.raises(io.ReferenceFormatError, match=re.escape(message)):
            io.load_run(run_dir)

    @pytest.mark.parametrize("value", ["x", True, -1, 2.0])
    def test_clamped_draws_must_be_a_count(self, tmp_path, small_run, value):
        ensemble, summary, meta = small_run
        run_dir = tmp_path / "run"
        io.save_ensemble(ensemble, summary, run_dir, {**meta, "clamped_draws": value})
        message = (f"{run_dir / 'metadata.json'}: clamped_draws must be an integer >= 0, "
                   f"got {value!r}")
        with pytest.raises(io.ReferenceFormatError, match=re.escape(message)):
            io.load_run(run_dir)

    def test_missing_clamped_draws_reads_zero(self, tmp_path, small_run):
        ensemble, summary, meta = small_run
        run_dir = tmp_path / "run"
        assert "clamped_draws" not in meta
        io.save_ensemble(ensemble, summary, run_dir, meta)
        assert io.load_run(run_dir)["ensemble"].clamped_draws == 0

    def test_metadata_must_be_a_json_object(self, tmp_path, small_run):
        ensemble, summary, meta = small_run
        run_dir = tmp_path / "run"
        io.save_ensemble(ensemble, summary, run_dir, meta)
        write(run_dir / "metadata.json", "[1, 2]")
        message = f"{run_dir / 'metadata.json'}: expected a JSON object, got list"
        with pytest.raises(io.ReferenceFormatError, match=re.escape(message)):
            io.load_run(run_dir)


class TestSeriesRun:
    def test_save_and_load(self, tmp_path):
        series = np.array([1.5, 2.0, 0.25])
        meta = io.make_metadata("sd", default_params(), 3, 42, dt=0.1)
        io.save_series_run(series, tmp_path / "run", meta)
        loaded = io.load_run(tmp_path / "run")
        assert np.array_equal(loaded["ensemble"].matrix[0], series)
        assert loaded["metadata"]["kind"] == "sd"

    def test_series_length_must_match_metadata(self, tmp_path):
        series = np.array([1.5, 2.0, 0.25])
        meta = io.make_metadata("sd", default_params(), 4, 42, dt=0.1)
        io.save_series_run(series, tmp_path / "run", meta)
        message = "series.csv: row 0: expected 4 counts .weeks in the metadata., got 3"
        with pytest.raises(io.ReferenceFormatError, match=message):
            io.load_run(tmp_path / "run")

    def test_rerun_sd_rejects_an_off_grid_dt(self):
        # the grid is checked before the horizon, which dt = 0.3 misses too
        meta = io.make_metadata("sd", default_params(population=300), 2, 1, dt=0.3)
        with pytest.raises(ValueError,
                           match=r"dt=0\.3 does not place day 7\.0 on the integration grid"):
            io.rerun_from_metadata(meta)

    def test_rerun_sd(self, tmp_path):
        meta = io.make_metadata("sd", default_params(), 15, 42, dt=0.1)
        a = io.rerun_from_metadata(meta)
        b = io.rerun_from_metadata(meta)
        assert np.array_equal(a.matrix[0], b.matrix[0])


class TestSyntheticReference:
    def test_bundled_file_matches_generator(self, tmp_path):
        regenerated = tmp_path / "ref.csv"
        write_synthetic_reference(regenerated)
        bundled = synthetic_reference_path().read_text(encoding="utf-8")
        assert regenerated.read_text(encoding="utf-8") == bundled

    def test_bundled_file_is_loadable(self):
        ref = io.load_reference(synthetic_reference_path())
        assert ref.weeks == 15
        assert float(ref.matrix.max()) == pytest.approx(3741, abs=1)
        # whole counts by construction
        assert np.array_equal(ref.matrix, np.round(ref.matrix))
