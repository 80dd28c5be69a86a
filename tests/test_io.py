import json
import re

import numpy as np
import pytest

from sirvar import io
from sirvar.core import EnsembleResult
from sirvar.montecarlo import VariationSpec, run_sd_ensemble
from sirvar.stats import weekly_summary

from paper_params import default_params
from synthetic_reference import save_series, synthetic_reference_path, write_synthetic_reference


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("kind, extra", [
        ("sd-mc", dict(dt=0.1, vary_illness=True, vary_contact=False, vary_infection=False,
                       sigma_fraction=0.1, replicates=2)),
        ("abm", dict(replicates=2, network_k=6, network_p_rewire=0.2,
                     reuse_network=False, exponential_recovery=False)),
        ("abm", dict(replicates=2, network_k=6, network_p_rewire=0.2,
                     reuse_network=True, exponential_recovery=False)),
    ])
    def test_rerun_rejects_a_bad_master_seed(self, kind, extra, seed):
        meta = io.make_metadata(kind, default_params(population=300), 2, seed, **extra)
        # a shared network is seeded before any replicate runs
        error = ValueError if extra.get("reuse_network") else RuntimeError
        with pytest.raises(error,
                           match=f"master_seed must be an unsigned 64-bit integer, got {seed}"):
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

    def test_runs_record_the_stream_versions(self):
        meta = io.make_metadata("sd", default_params(), 2, 1, dt=0.1)
        assert meta["streams"] == {"sd_mc": 1, "network": 2, "abm": 3}
        assert meta["streams"] is not io.STREAM_VERSIONS

    @pytest.mark.parametrize("streams, family, version", [
        (None, "network", 1),
        ({"sd_mc": 1, "network": 2, "abm": 1}, "abm", 1),
        ({"sd_mc": 1, "network": 1, "abm": 3}, "network", 1),
        ({"sd_mc": 1, "network": 2, "abm": 2}, "abm", 2),
    ], ids=["no-streams-key", "abm-1", "network-1", "abm-2"])
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
