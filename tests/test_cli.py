import json
import os
import subprocess
import sys

import numpy as np
import pytest

from seppchange import CoefficientSequence, DetectOptions, EventSeries, ModelConfig, detect, generate_series
from seppchange.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    main,
    read_counts_csv,
    read_event_csv,
    write_counts_csv,
)


def small_series(seed=0, m=2, T=24):
    rng = np.random.default_rng(seed)
    return EventSeries(rng.integers(0, 5, size=(m, T)))


def load(path):
    with open(path) as fh:
        return json.load(fh)


class TestCountsCsv:
    def test_round_trip(self, tmp_path):
        series = small_series()
        path = tmp_path / "counts.csv"
        write_counts_csv(str(path), series)
        back = read_counts_csv(str(path))
        assert np.array_equal(back.counts, series.counts)
        assert back.source == "ingested"

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "counts.csv"
        write_counts_csv(str(path), small_series())
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_row_length_mismatch_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1,x2\n1,2,3\n2,4\n")
        with pytest.raises(Exception) as err:
            read_counts_csv(str(path))
        assert "line 3" in str(err.value)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n1,2\n2,-4\n")
        with pytest.raises(Exception) as err:
            read_counts_csv(str(path))
        assert "line 3" in str(err.value)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n1,2\n2,4.5\n")
        with pytest.raises(Exception):
            read_counts_csv(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x1\n1,2\n2,4\n")
        with pytest.raises(Exception):
            read_counts_csv(str(path))


class TestEventCsv:
    def test_binning(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("time,unit\n0.1,1\n5.2,2\n5.9,2\n9.9,1\n")
        series = read_event_csv(str(path), bin_width=5.0)
        assert series.M == 2
        assert np.array_equal(series.counts, [[1, 1], [0, 2]])

    def test_bad_row_named(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("time,unit\n0.1,1\nxx,2\n")
        with pytest.raises(Exception) as err:
            read_event_csv(str(path), bin_width=5.0)
        assert "line 3" in str(err.value)


class TestSimulateCommand:
    def test_writes_expected_shapes(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["simulate", "--setting", "a", "--rho", "0.35", "--seed", "7", "-o", str(out)]
        )
        assert code == EXIT_OK
        series = read_counts_csv(str(out / "counts.csv"))
        assert (series.M, series.T) == (30, 300)
        truth = load(out / "truth.json")
        assert truth["change_points"] == [151]
        assert truth["model"] == {"v": 0.5, "clip": 6.0}

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["simulate", "--setting", "a", "--rho", "0.2", "--seed", "3", "-o", str(out)])
        assert (a / "counts.csv").read_bytes() == (b / "counts.csv").read_bytes()

    def test_setting_b_validation(self, tmp_path, capsys):
        code = main(["simulate", "--setting", "b", "--T", "301", "-o", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEPPCHANGE_OUTDIR", str(tmp_path / "envout"))
        code = main(["simulate", "--setting", "b", "--T", "12", "--seed", "1"])
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "counts.csv").exists()


@pytest.fixture
def counts_csv(tmp_path):
    path = tmp_path / "counts.csv"
    a = np.zeros((2, 2))
    a[0, 1] = 0.5
    seq = CoefficientSequence(((1, a), (21, -a)))
    series = generate_series(seq, ModelConfig(v=0.3, clip=4.0), T=40, seed=9)
    write_counts_csv(str(path), series)
    return path


class TestDetectCommand:
    def test_report_schema_and_huge_gamma(self, counts_csv, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        out = tmp_path / "report.json"
        code = main(
            ["detect", str(counts_csv), "--v", "0.3", "--clip", "4", "--gamma", "1e12",
             "-o", str(out)]
        )
        assert code == EXIT_OK
        doc = load(out)
        import importlib.resources as res

        schema = json.loads(
            res.files("seppchange.schemas").joinpath("report.schema.json").read_text()
        )
        jsonschema.validate(doc, schema)
        assert doc["change_points"] == []

    def test_missing_v_is_usage_error(self, counts_csv):
        assert main(["detect", str(counts_csv)]) == EXIT_USAGE

    def test_sidecar_supplies_model(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--setting", "b", "--T", "12", "--seed", "2", "-o", str(out)])
        rep = tmp_path / "rep.json"
        code = main(
            ["detect", str(out / "counts.csv"), "--gamma", "1e6", "-o", str(rep)]
        )
        assert code == EXIT_OK
        assert load(rep)["model"]["clip"] == 8.0

    def test_grid_restriction_objective(self, counts_csv, tmp_path):
        outs = {}
        for grid in (1, 5):
            out = tmp_path / f"rep{grid}.json"
            code = main(
                ["detect", str(counts_csv), "--v", "0.3", "--clip", "4",
                 "--lambda", "2.0", "--gamma", "1.0", "--grid", str(grid),
                 "-o", str(out)]
            )
            assert code == EXIT_OK
            outs[grid] = load(out)
        assert outs[5]["total_objective"] >= outs[1]["total_objective"] - 1e-9
        assert all((p - 1) % 5 == 0 for p in outs[5]["change_points"])

    def test_malformed_csv_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x1\n1,2\n2,x\n")
        assert main(["detect", str(bad), "--v", "0", "--clip", "1"]) == EXIT_DATA

    def test_missing_file_exit_code(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert main(["detect", str(missing), "--v", "0", "--clip", "1"]) == EXIT_DATA

    def test_unknown_flag_exit_code(self):
        assert main(["detect", "--bogus"]) == EXIT_USAGE

    def test_bin_width_ingestion(self, tmp_path):
        events = tmp_path / "events.csv"
        rows = ["time,unit"]
        rng = np.random.default_rng(0)
        for t in rng.uniform(0, 30, size=200):
            rows.append(f"{t:.3f},{rng.integers(1, 4)}")
        events.write_text("\n".join(rows) + "\n")
        out = tmp_path / "rep.json"
        code = main(
            ["detect", str(events), "--bin-width", "5", "--v", "0", "--clip", "3",
             "--gamma", "1e6", "-o", str(out)]
        )
        assert code == EXIT_OK
        assert load(out)["T"] == 6

    def test_rerun_from_manifest_reproduces_report(self, counts_csv, tmp_path):
        out = tmp_path / "rep.json"
        argv = ["detect", str(counts_csv), "--v", "0.3", "--clip", "4",
                "--lambda", "1.5", "--gamma", "0.5", "-o", str(out)]
        assert main(argv) == EXIT_OK
        first = load(out)
        assert main(first["manifest"]["argv"]) == EXIT_OK
        second = load(out)
        first.pop("timing")
        second.pop("timing")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_summary_names_nonconverged_fits(self, counts_csv, tmp_path, capsys):
        argv = ["detect", str(counts_csv), "--v", "0.3", "--clip", "4",
                "--lambda", "0.5", "--gamma", "1.0", "-o", str(tmp_path / "rep.json")]
        assert main(argv) == EXIT_OK
        assert "converge" not in capsys.readouterr().out
        assert main(argv + ["--max-iter", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        bad = load(tmp_path / "rep.json")["nonconverged_fits"]
        assert bad > 1
        assert out.rstrip().endswith(f", {bad} fits did not converge)")

    def test_report_matrix_zeros_are_integers(self, counts_csv, tmp_path):
        out = tmp_path / "rep.json"
        argv = ["detect", str(counts_csv), "--v", "0.3", "--clip", "4",
                "--lambda", "2.0", "--gamma", "1.0", "-o", str(out)]
        assert main(argv) == EXIT_OK
        series = read_counts_csv(str(counts_csv))
        rep = detect(series, ModelConfig(v=0.3, clip=4.0), DetectOptions(lam=2.0, gamma=1.0))
        segments = load(out)["segments"]
        assert len(segments) == len(rep.segments)
        entries = []
        for doc, seg in zip(segments, rep.segments):
            assert np.array_equal(np.asarray(doc["matrix"], dtype=float), seg.matrix)
            entries += [x for row in doc["matrix"] for x in row]
        # exact zeros are the integer 0, every other entry keeps its float
        assert all(type(x) is int and x == 0 or type(x) is float and x != 0 for x in entries)
        assert 0 in entries and any(type(x) is float for x in entries)


class TestEvaluateCommand:
    def _truth(self, tmp_path, cps, T=300):
        out = tmp_path / "sim"
        main(["simulate", "--setting", "a", "--rho", "0.35", "--seed", "1", "-o", str(out)])
        return out / "truth.json"

    def test_exact_match(self, tmp_path):
        truth = self._truth(tmp_path, [151])
        est = tmp_path / "est.csv"
        est.write_text("151\n")
        out = tmp_path / "metrics.json"
        code = main(
            ["evaluate", str(truth), "--estimate-csv", str(est), "-o", str(out)]
        )
        assert code == EXIT_OK
        doc = load(out)
        assert (doc["hausdorff"], doc["k_error"], doc["flagged"]) == (0, 0, False)

    def test_two_sided_example(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        truth = self._truth(tmp_path, [151])
        est = tmp_path / "est.csv"
        est.write_text("148\n290\n")
        out = tmp_path / "metrics.json"
        assert main(["evaluate", str(truth), "--estimate-csv", str(est), "-o", str(out)]) == EXIT_OK
        doc = load(out)
        assert (doc["hausdorff"], doc["k_error"]) == (139, 1)
        import importlib.resources as res

        schema = json.loads(
            res.files("seppchange.schemas").joinpath("metrics.schema.json").read_text()
        )
        jsonschema.validate(doc, schema)

    def test_truth_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        truth = self._truth(tmp_path, [151])
        import importlib.resources as res

        schema = json.loads(
            res.files("seppchange.schemas").joinpath("truth.schema.json").read_text()
        )
        jsonschema.validate(load(truth), schema)

    def test_needs_some_estimate(self, tmp_path):
        truth = self._truth(tmp_path, [151])
        assert main(["evaluate", str(truth)]) == EXIT_DATA


def _strip_wall_column(text):
    return [",".join(line.split(",")[:-1]) for line in text.strip().splitlines()]


class TestReplicateCommand:
    def test_summary_recomputable(self, tmp_path):
        out = tmp_path / "reps"
        code = main(
            ["replicate", "--setting", "b", "--T", "12", "--reps", "3", "--seed", "5",
             "--gamma", "2.0", "--lambda", "5.0", "--max-iter", "300",
             "-o", str(out), "--jobs", "2"]
        )
        assert code == EXIT_OK
        rows = (out / "replications.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 reps
        header = rows[0].split(",")
        d_idx = header.index("hausdorff")
        values = [float(r.split(",")[d_idx]) for r in rows[1:]]
        summary = (out / "summary.csv").read_text().strip().splitlines()
        s_header = summary[0].split(",")
        s_row = summary[1].split(",")
        mean = float(s_row[s_header.index("hausdorff_mean")])
        assert mean == pytest.approx(sum(values) / len(values))

    def test_jobs_do_not_change_results(self, tmp_path):
        outs = {}
        for jobs in (1, 2):
            out = tmp_path / f"j{jobs}"
            main(
                ["replicate", "--setting", "b", "--T", "12", "--reps", "2",
                 "--seed", "11", "--gamma", "2.0", "--lambda", "5.0",
                 "--max-iter", "300", "--jobs", str(jobs), "-o", str(out)]
            )
            outs[jobs] = _strip_wall_column((out / "replications.csv").read_text())
        assert outs[1] == outs[2]


def test_console_script_version():
    proc = subprocess.run(
        [sys.executable, "-m", "seppchange.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
