import csv
import json

import numpy as np
import pytest

from gpdevopt.boxes import SearchBox
from gpdevopt.cli import main
from gpdevopt.global_search import lhd_maximin
from gpdevopt.testbed import rmspe, run_benchmark
from gpdevopt.testbed import test_function as make_test_function


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def goldstein_price_csv(path, n=20, seed=0):
    fn = make_test_function("goldstein-price")
    rng = np.random.default_rng(seed)
    unit = lhd_maximin(n, SearchBox(np.zeros(2), np.ones(2)), rng)
    native = fn.to_native(unit)
    y = fn.evaluate_native(native)
    write_csv(path, ["x1", "x2", "y"], [[*native[i], y[i]] for i in range(n)])
    return native, y


def hump_csv(path, n=10, seed=11):
    fn = make_test_function("hump")
    rng = np.random.default_rng(seed)
    unit = lhd_maximin(n, SearchBox(np.zeros(1), np.ones(1)), rng)
    native = fn.to_native(unit)
    y = fn.evaluate_native(native)
    write_csv(path, ["x1", "y"], [[native[i, 0], y[i]] for i in range(n)])
    return native, y


class TestFitCommand:
    def test_model_shape_and_summary(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        model_path = tmp_path / "model.json"
        goldstein_price_csv(data)
        rc = main(["fit", "--data", str(data), "--out", str(model_path), "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "deviance=" in out and "fe=" in out and "delta=" in out
        payload = json.loads(model_path.read_text())
        assert len(payload["beta"]) == 2
        assert payload["format_version"] == 1
        assert len(payload["points"]) == 20

    def test_byte_identical_reruns(self, tmp_path):
        data = tmp_path / "train.csv"
        goldstein_price_csv(data)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["fit", "--data", str(data), "--out", str(p), "--seed", "4"]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_constant_output_rejected(self, tmp_path, capsys):
        data = tmp_path / "flat.csv"
        write_csv(data, ["x1", "y"], [[0.1, 2.0], [0.4, 2.0], [0.9, 2.0]])
        rc = main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_infinite_box_scale_rejected(self, tmp_path, capsys):
        # Both scales give infinite search-box bounds; the fit must not start.
        data = tmp_path / "train.csv"
        hump_csv(data)
        for scale in ("inf", "1e308"):
            argv = ["fit", "--data", str(data), "--out", str(tmp_path / "m.json")]
            assert main(argv + ["--box-scale", scale]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "finite" in err
            assert "non-finite deviance" not in err
        assert not (tmp_path / "m.json").exists()

    def test_duplicate_rows_rejected(self, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        write_csv(data, ["x1", "y"], [[0.1, 1.0], [0.1, 1.0], [0.9, 3.0]])
        rc = main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 2

    def test_malformed_csv_rejected(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("x1,y\n0.1,oops\n")
        rc = main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 2

    def test_missing_columns_rejected(self, tmp_path):
        data = tmp_path / "cols.csv"
        write_csv(data, ["a", "b"], [[0.0, 1.0], [1.0, 2.0]])
        rc = main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 2

    def test_smoothness_exponent_switch(self, tmp_path):
        data = tmp_path / "train.csv"
        hump_csv(data)
        default_model = tmp_path / "p2.json"
        rough_model = tmp_path / "p199.json"
        assert main(["fit", "--data", str(data), "--out", str(default_model)]) == 0
        assert main(["fit", "--data", str(data), "--out", str(rough_model), "--p", "1.99"]) == 0
        assert json.loads(default_model.read_text())["p"] == [2.0]
        assert json.loads(rough_model.read_text())["p"] == [1.99]
        with pytest.raises(SystemExit):
            main(["fit", "--data", str(data), "--out", str(tmp_path / "x.json"), "--p", "1.5"])


class TestPredictCommand:
    def fit_hump(self, tmp_path):
        data = tmp_path / "train.csv"
        native, y = hump_csv(data)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model_path)]) == 0
        return model_path, native, y

    def test_roundtrip_on_training_points(self, tmp_path):
        model_path, native, y = self.fit_hump(tmp_path)
        points = tmp_path / "pts.csv"
        write_csv(points, ["x1"], [[v] for v in native[:, 0]])
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model_path), "--points", str(points), "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        span = y.max() - y.min()
        for row, target in zip(rows, y):
            assert abs(float(row["y_hat"]) - target) < 1e-6 * span
            assert float(row["mse"]) >= 0.0

    def test_empty_points_gives_header_only(self, tmp_path):
        model_path, _, _ = self.fit_hump(tmp_path)
        points = tmp_path / "empty.csv"
        write_csv(points, ["x1"], [])
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model_path), "--points", str(points), "--out", str(out)])
        assert rc == 0
        assert out.read_text().strip() == "x1,y_hat,mse"

    def test_loaded_model_reproduces_fitted_model(self, tmp_path):
        # The model rebuilt from the file predicts bit for bit like the model
        # `fit` returned for the same CSV (30-point Goldstein-Price design).
        from gpdevopt.cli import _load_model, _load_training_csv
        from gpdevopt.gp import fit, predict_many

        data = tmp_path / "train.csv"
        goldstein_price_csv(data, n=30, seed=0)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model_path)]) == 0
        loaded, _, _ = _load_model(str(model_path))
        fitted = fit(_load_training_csv(str(data))[0], "DIRECT-BFGS", seed=0)
        points = np.random.default_rng(1).random((50, 2))
        for got, want in zip(predict_many(loaded, points), predict_many(fitted, points)):
            assert np.array_equal(got, want)

    def test_model_file_kappa_is_exact(self, tmp_path):
        # The fit's evaluations may prove kappa small without computing it;
        # the file still records the eigenvalue condition number of R.
        from gpdevopt.correlation import DistanceCache, nugget_and_kappa

        data = tmp_path / "train.csv"
        goldstein_price_csv(data, n=30, seed=0)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model_path)]) == 0
        payload = json.loads(model_path.read_text())
        points = np.array(payload["points"], dtype=float, order="F")
        R = DistanceCache(points, payload["p"]).correlation(np.array(payload["beta"]))
        assert payload["kappa"] == nugget_and_kappa(R, payload["condition_exponent"])[1]

    def test_predict_output_feeds_back_as_points(self, tmp_path):
        data = tmp_path / "train.csv"
        native, _ = goldstein_price_csv(data, n=20, seed=0)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model_path)]) == 0
        points = tmp_path / "pts.csv"
        write_csv(points, ["x1", "x2"], [list(row) for row in native[:5] * 0.99])
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        argv = ["predict", "--model", str(model_path), "--out"]
        assert main(argv + [str(first), "--points", str(points)]) == 0
        assert main(argv + [str(second), "--points", str(first)]) == 0
        assert "np.float64" not in first.read_text()
        assert second.read_bytes() == first.read_bytes()

    def test_tampered_model_rejected(self, tmp_path, capsys):
        model_path, native, _ = self.fit_hump(tmp_path)
        points = tmp_path / "pts.csv"
        write_csv(points, ["x1"], [[v] for v in native[:, 0]])
        payload = json.loads(model_path.read_text())
        payload["beta"] = [payload["beta"][0] + 0.1]
        model_path.write_text(json.dumps(payload))
        rc = main(["predict", "--model", str(model_path), "--points", str(points)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "malformed",
        ["missing-points", "json-array", "json-number", "fe-count-null", "beta-object",
         "a-overflow", "a-tiny", "range-empty", "range-swapped", "range-shape", "range-inf"],
    )
    def test_malformed_model_file_rejected(self, tmp_path, capsys, malformed):
        model_path, native, _ = self.fit_hump(tmp_path)
        points = tmp_path / "pts.csv"
        write_csv(points, ["x1"], [[v] for v in native[:, 0]])
        payload = json.loads(model_path.read_text())
        if malformed == "missing-points":
            del payload["points"]
        elif malformed == "json-array":
            payload = [payload]
        elif malformed == "fe-count-null":
            payload["fe_count"] = None
        elif malformed == "beta-object":
            payload["beta"] = {}
        elif malformed == "a-overflow":
            payload["condition_exponent"] = 1000.0
        elif malformed == "a-tiny":
            payload["condition_exponent"] = 1e-17
        elif malformed == "range-empty":
            payload["input_max"] = payload["input_min"]
        elif malformed == "range-swapped":
            payload["input_min"], payload["input_max"] = payload["input_max"], payload["input_min"]
        elif malformed == "range-shape":
            # Shape (1, 1) would broadcast against the points without an error.
            payload["input_min"] = [payload["input_min"]]
            payload["input_max"] = [payload["input_max"]]
        elif malformed == "range-inf":
            payload["input_max"] = [float("inf")]
        else:
            payload = 1.0
        model_path.write_text(json.dumps(payload))
        rc = main(["predict", "--model", str(model_path), "--points", str(points)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_non_finite_points_rejected(self, tmp_path, capsys):
        # Infinite coordinates are rejected too, not clamped into range.
        model_path, native, _ = self.fit_hump(tmp_path)
        points = tmp_path / "pts.csv"
        out = tmp_path / "pred.csv"
        for bad in ("nan", "inf", "-inf"):
            write_csv(points, ["x1"], [[native[0, 0]], [bad]])
            rc = main(["predict", "--model", str(model_path), "--points", str(points), "--out", str(out)])
            assert rc == 2
            assert "non-finite input coordinate in data row 2" in capsys.readouterr().err
            assert not out.exists()

    def test_out_of_range_points_clamped_with_warning(self, tmp_path):
        model_path, native, _ = self.fit_hump(tmp_path)
        points = tmp_path / "far.csv"
        write_csv(points, ["x1"], [[native[:, 0].max() + 10.0]])
        out = tmp_path / "pred.csv"
        with pytest.warns(UserWarning):
            rc = main(["predict", "--model", str(model_path), "--points", str(points), "--out", str(out)])
        assert rc == 0

    def test_csv_roundtrip_preserves_predictions_exactly(self, tmp_path):
        # A downstream script recomputing the relative error from the CSV
        # must agree with the in-process value to roundoff.
        from gpdevopt.cli import _load_model
        from gpdevopt.gp import predict_many

        model_path, native, _ = self.fit_hump(tmp_path)
        fn = make_test_function("hump")
        rng = np.random.default_rng(42)
        unit = lhd_maximin(100, SearchBox(np.zeros(1), np.ones(1)), rng)
        holdout_native = fn.to_native(unit)
        y_true = fn.evaluate_native(holdout_native)
        points = tmp_path / "holdout.csv"
        write_csv(points, ["x1"], [[v] for v in holdout_native[:, 0]])
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path), "--points", str(points), "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            y_csv = np.array([float(r["y_hat"]) for r in csv.DictReader(handle)])
        model, mins, maxs = _load_model(str(model_path))
        scaled = (holdout_native - mins) / (maxs - mins)
        y_direct, _ = predict_many(model, np.clip(scaled, 0.0, 1.0))
        assert abs(rmspe(y_true, y_csv) - rmspe(y_true, y_direct)) < 1e-12

    def test_cross_check_against_benchmark_rmspe(self, tmp_path):
        # The CLI pipeline on Goldstein-Price data should score within 2x of
        # the benchmark-mode error for the same protocol.
        fn = make_test_function("goldstein-price")
        data = tmp_path / "train.csv"
        goldstein_price_csv(data, n=20, seed=1)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model_path), "--seed", "0"]) == 0

        rng = np.random.default_rng(99)
        unit = lhd_maximin(200, SearchBox(np.zeros(2), np.ones(2)), rng)
        native = fn.to_native(unit)
        y_true = fn.evaluate_native(native)
        points = tmp_path / "holdout.csv"
        write_csv(points, ["x1", "x2"], [list(row) for row in native])
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path), "--points", str(points), "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            y_hat = np.array([float(r["y_hat"]) for r in csv.DictReader(handle)])
        cli_rmspe = rmspe(y_true, y_hat)

        bench = run_benchmark(fn, ("DIRECT-BFGS",), replicates=3, rng_seed=1)[0]
        assert 0.5 * bench.mean_rmspe <= cli_rmspe <= 2.0 * bench.mean_rmspe


class TestBenchmarkCommand:
    def test_small_table_csv(self, tmp_path, capsys):
        rc = main([
            "benchmark", "--function", "hump",
            "--strategies", "DIRECT-BFGS,IF2",
            "--replicates", "2", "--seed", "0", "--format", "csv",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 2
        assert {row["strategy"] for row in rows} == {"DIRECT-BFGS", "IF2"}
        deltas = [float(row["pct_delta_deviance"]) for row in rows]
        assert min(deltas) == 0.0

    def test_json_format_parses(self, tmp_path):
        out_path = tmp_path / "table.json"
        rc = main([
            "benchmark", "--function", "hump", "--strategies", "DIRECT-BFGS",
            "--replicates", "2", "--seed", "3", "--format", "json",
            "--out", str(out_path),
        ])
        assert rc == 0
        rows = json.loads(out_path.read_text())
        assert rows[0]["strategy"] == "DIRECT-BFGS"
        assert rows[0]["replicates"] == 2

    def test_raw_replicate_csv(self, tmp_path):
        raw = tmp_path / "raw.csv"
        rc = main([
            "benchmark", "--function", "hump", "--strategies", "DIRECT-BFGS,IF2",
            "--replicates", "3", "--seed", "0", "--format", "markdown",
            "--out", str(tmp_path / "table.md"), "--raw-out", str(raw),
        ])
        assert rc == 0
        with open(raw, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6  # 2 strategies x 3 replicates
        assert {row["function"] for row in rows} == {"hump"}

    def test_seed_determinism_bytes(self, tmp_path):
        outputs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            main([
                "benchmark", "--function", "hump", "--strategies", "MS-BFGS-halfd",
                "--replicates", "2", "--seed", "5", "--format", "csv",
                "--out", str(path),
            ])
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestSurfaceCommand:
    def test_grid_rows_1d(self, tmp_path, capsys):
        rc = main(["surface", "--function", "hump", "--grid", "3", "--seed", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beta1,L"
        assert len(lines) == 4

    def test_grid_min_bounds_fitted_deviance(self, tmp_path):
        data = tmp_path / "train.csv"
        hump_csv(data)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model_path), "--seed", "2"]) == 0
        fitted = json.loads(model_path.read_text())["deviance"]
        surf = tmp_path / "surf.csv"
        assert main(["surface", "--data", str(data), "--grid", "2001", "--out", str(surf)]) == 0
        with open(surf, newline="") as handle:
            grid_min = min(float(row["L"]) for row in csv.DictReader(handle))
        assert grid_min >= fitted - 1e-6

    def test_hump_surface_is_multimodal(self, tmp_path):
        surf = tmp_path / "surf.csv"
        assert main(["surface", "--function", "hump", "--grid", "2001", "--seed", "0", "--out", str(surf)]) == 0
        with open(surf, newline="") as handle:
            values = np.array([float(row["L"]) for row in csv.DictReader(handle)])
        finite = values[np.isfinite(values)]
        value_range = finite.max() - finite.min()
        interior = values[1:-1]
        local_min = (interior < values[:-2]) & (interior <= values[2:])
        minima_idx = np.where(local_min)[0] + 1
        # Count basins separated by a rise of at least 1% of the range.
        distinct = 0
        for idx in minima_idx:
            left = values[: idx + 1]
            right = values[idx:]
            rise_left = np.nanmax(left[np.isfinite(left)]) - values[idx] if np.isfinite(left).any() else 0
            rise_right = np.nanmax(right[np.isfinite(right)]) - values[idx] if np.isfinite(right).any() else 0
            if rise_left >= 0.01 * value_range and rise_right >= 0.01 * value_range:
                distinct += 1
        assert distinct >= 2

    def test_2d_deviance_surface(self, tmp_path):
        surf = tmp_path / "surf2.csv"
        rc = main([
            "surface", "--function", "goldstein-price", "--grid", "5",
            "--seed", "0", "--out", str(surf),
        ])
        assert rc == 0
        with open(surf, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 25
        assert set(rows[0]) == {"beta1", "beta2", "L"}

    def test_prediction_surface(self, tmp_path):
        surf = tmp_path / "pred_surf.csv"
        rc = main([
            "surface", "--function", "goldstein-price", "--grid", "4",
            "--what", "prediction", "--seed", "0", "--out", str(surf),
        ])
        assert rc == 0
        with open(surf, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 16
        assert set(rows[0]) == {"x1", "x2", "y_hat", "mse"}

    def test_high_dimension_rejected(self, tmp_path):
        rc = main(["surface", "--function", "schwefel", "--grid", "3"])
        assert rc == 2

    def test_surface_determinism(self, tmp_path):
        outputs = []
        for name in ("s1.csv", "s2.csv"):
            path = tmp_path / name
            main(["surface", "--function", "hump", "--grid", "11", "--seed", "9", "--out", str(path)])
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
